"""Sparsification operators, sign consensus, and offline model merging.

All kernels are pure: they never mutate their inputs, and being elementwise
they give the same answer under any data-parallel partitioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EmptyInput, InvalidConfig, InvalidProbability, NonFiniteResult
from .masks import MaskKey, bernoulli_mask
from .params import ParameterSet, check_aligned
from .params import delta  # noqa: F401  (not called; bench/tracer.py wraps it here)


class MergeMethod(Enum):
    LINEAR = "linear"
    DARE = "dare"
    TIES = "ties"


@dataclass(frozen=True)
class MergeSpec:
    """Offline merge configuration: method, reserve rate, per-model weights."""

    method: MergeMethod
    reserve_rate: float = 0.5
    weights: tuple[float, ...] = (1.0,)
    rescale: bool = True
    seed: int = 0

    def __post_init__(self):
        validate_probability(self.reserve_rate)
        ws = tuple(float(w) for w in self.weights)
        if any(not math.isfinite(w) or w < 0 for w in ws):
            raise InvalidConfig(f"weights must be finite and nonnegative, got {self.weights}")
        if not 0 <= self.seed < 2**64:
            raise InvalidConfig(f"seed must be in [0, 2**64), got {self.seed}")
        object.__setattr__(self, "weights", ws)


def validate_probability(p: float) -> float:
    p = float(p)
    if not (0.0 < p <= 1.0):
        raise InvalidProbability(f"reserve rate must be in (0, 1], got {p}")
    return p


def sparsify_random(x, p: float, key: MaskKey, rescale: bool = False) -> np.ndarray:
    """Keep each element independently with probability p, zero the rest.

    The keep-mask is a pure function of (key, element index). With rescale,
    kept elements are divided by p, making the operator unbiased; offline
    DARE uses that, online merging does not.
    """
    p = validate_probability(p)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    mask = bernoulli_mask(key, x.size, p)
    out = np.where(mask, x, 0.0)
    if rescale:
        out = out / p
    return out


def sparsify_top_p(x, p: float) -> np.ndarray:
    """Keep the ceil(p * n) largest-magnitude elements, zero the rest.

    Magnitude ties are broken toward lower indices, so the output is fully
    deterministic. At least one element always survives. NaNs rank below
    every number. Selection is linear-time: a partition finds the k-th
    largest magnitude, every element above it is kept, and the remaining
    slots go to the lowest-index elements equal to it, which is exactly the
    selection of a stable sort.
    """
    p = validate_probability(p)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size == 0:
        raise EmptyInput("sparsify_top_p needs at least one element")
    k = int(math.ceil(p * x.size))
    k = min(max(k, 1), x.size)
    key = -np.abs(x)  # ascending key; partition puts NaNs last, as a sort does
    kth = np.partition(key, k - 1)[k - 1]
    if math.isnan(kth):
        tied = np.isnan(key)
        above = ~tied
    else:
        above, tied = key < kth, key == kth
    out = np.where(above, x, 0.0)
    fill = np.flatnonzero(tied)[: k - np.count_nonzero(above)]
    out[fill] = x[fill]
    return out


def sign_consensus(a, b):
    """Elementwise combiner: agreeing signs sum, conflicts keep the larger
    magnitude, equal-magnitude conflicts cancel to zero. Zero agrees with
    everything, so a combined with 0 is a.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    agree = (np.sign(a) == np.sign(b)) | (a == 0.0) | (b == 0.0)
    abs_a, abs_b = np.abs(a), np.abs(b)
    conflict = np.where(abs_a > abs_b, a, np.where(abs_b > abs_a, b, a + b))
    out = np.where(agree, a + b, conflict)
    if out.ndim == 0:
        return float(out)
    return out


def _ties_combine(taus, weights, p: float, out: np.ndarray) -> None:
    """Trim each delta to its top-p magnitudes, elect the elementwise majority
    sign from the weighted trimmed mass, drop disagreeing entries, and write
    the average of the survivors by their weight sum into out. Each delta is
    trimmed as taus yields it, so untrimmed deltas are never held together."""
    trimmed = [sparsify_top_p(t, p) for t in taus]
    tmp = np.empty_like(out)
    elected = np.zeros_like(out)
    for w, t in zip(weights, trimmed):
        elected += np.multiply(w, t, out=tmp)
    np.sign(elected, out=elected)
    # out accumulates the numerator; masked-out entries add exactly +0.0.
    out.fill(0.0)
    den = np.zeros_like(out)
    survives = np.empty(out.shape, dtype=bool)
    for w, t in zip(weights, trimmed):
        # Nonzero with the elected sign: t * sign > 0, which NaNs fail.
        np.greater(np.multiply(t, elected, out=tmp), 0.0, out=survives)
        np.multiply(w, t, out=tmp)
        np.copyto(tmp, 0.0, where=~survives)
        out += tmp
        den += np.multiply(survives, w, out=tmp)
    # Where den is 0 every survivor has weight 0 and is finite (0 * inf would
    # have made the elected sign NaN), so the numerator there is +0.0.
    np.divide(out, den, out=out, where=den > 0.0)


def offline_merge(base: ParameterSet, models, spec: MergeSpec) -> ParameterSet:
    """One-shot task-arithmetic merge of fine-tuned models into their base.

    Per tensor, with deltas tau_i = model_i - base:
      LINEAR: base + sum(w_i * tau_i)
      DARE:   like LINEAR but each tau_i randomly sparsified first
              (rescaled by 1/p when spec.rescale, which keeps it unbiased)
      TIES:   top-p trim, majority-sign election, surviving-weight average

    The mask for model i derives from (spec.seed, tensor name, i), so merges
    are reproducible. A result holding NaN or infinity raises NonFiniteResult.
    """
    models = list(models)
    if not models:
        raise EmptyInput("offline_merge needs at least one model")
    if len(spec.weights) != len(models):
        raise ValueError(
            f"{len(spec.weights)} weights for {len(models)} models"
        )
    for m in models:
        check_aligned(base, m)

    # One tensor at a time, each merged straight into its slice of the output;
    # linear and DARE hold one model delta at a time.
    out = np.empty(base.total_elements())
    for name, sl in base.slices():
        base_arr = base.flat(name)
        taus = (m.flat(name) - base_arr for m in models)
        acc = out[sl]
        if spec.method is MergeMethod.TIES:
            _ties_combine(taus, spec.weights, spec.reserve_rate, acc)
        else:
            if spec.method is MergeMethod.DARE:
                taus = (
                    sparsify_random(
                        tau,
                        spec.reserve_rate,
                        MaskKey(spec.seed, name, step=i, stream="offline-dare"),
                        rescale=spec.rescale,
                    )
                    for i, tau in enumerate(taus)
                )
            acc.fill(0.0)
            for w, tau in zip(spec.weights, taus):
                acc += w * tau
        acc += base_arr
    if not np.isfinite(out).all():
        raise NonFiniteResult(f"{spec.method.value} merge result contains NaN or infinity")
    return base.with_vector(out)
