"""Adam-family optimizer with online merging variants and regularization baselines.

One optimizer step is a single logical transaction over the flat parameter
vector: the step counter t moves by exactly one, one vectorized Adam update
happens identically for every variant, and the step that bind(name, ...)
returns for each of OPTIMIZER_NAMES then turns the update delta into the new
parameters with its own merge; the public *_step functions bind theirs. Masks
stay keyed per tensor, so each tensor's slice of a flat mask is its own keyed
stream.
EMA is not part of the optimizer: ema_update maps a shadow kept by the run
to its next value.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import (
    InvalidConfig, NonFiniteGradient, check_u64, is_count, is_real, validate_probability
)
from .kernels import SegmentedTopP, sign_consensus
from .kernels import sparsify_random  # noqa: F401  (not called; bench/tracer.py wraps it here)
from .kernels import sparsify_top_p  # noqa: F401  (not called; bench/tracer.py wraps it here)
from .masks import MaskTable
from .masks import bernoulli_mask  # noqa: F401  (not called; bench/tracer.py wraps it here)
from .params import ParameterSet, check_aligned

MASK_STREAM_UPDATE = "update"
MASK_STREAM_REF = "ref"
MASK_STREAM_GRAD = "grad"


@dataclass(frozen=True)
class AdamHyper:
    learning_rate: float = 0.02
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    bias_correction: bool = True

    def __post_init__(self):
        for name in ("learning_rate", "beta1", "beta2", "epsilon", "weight_decay"):
            value = getattr(self, name)
            if not is_real(value):
                raise InvalidConfig(f"{name} must be a finite number, got {value!r}")
        bc = self.bias_correction
        if not isinstance(bc, bool):
            raise InvalidConfig(f"bias_correction must be true or false, got {bc!r}")
        ok = (
            self.learning_rate > 0
            and 0 <= self.beta1 < 1
            and 0 <= self.beta2 < 1
            and self.epsilon > 0
            and self.weight_decay >= 0
        )
        if not ok:
            raise InvalidConfig(f"invalid Adam hyperparameters: {self}")

    @classmethod
    def pseudocode_literal(cls, learning_rate: float = 5e-7, **kw) -> "AdamHyper":
        """Preset without bias correction or decay, matching the raw update
        m <- b1*m + (1-b1)*g; v <- b2*v + (1-b2)*g^2; d = -lr*m/sqrt(v+eps)."""
        return cls(learning_rate=learning_rate, bias_correction=False, weight_decay=0.0, **kw)


class MergeVariant(Enum):
    ONDARE = "ondare"
    ONTIES = "onties"


@dataclass(frozen=True)
class OnlineMergeConfig:
    """How each update delta is merged with the reference delta; the step
    function that takes it names the merge.

    gap_step K = 1 merges every step (fully online); K = T merges once at the
    end of a T-step run.
    """

    alpha: float = 1e-6
    reserve_rate: float = 0.5
    gap_step: int = 1

    def __post_init__(self):
        if not (is_real(self.alpha) and 0.0 <= self.alpha <= 1.0):
            raise InvalidConfig(f"alpha must be in [0, 1], got {self.alpha!r}")
        validate_probability(self.reserve_rate, "reserve_rate")
        if not is_count(self.gap_step, 1):
            raise InvalidConfig(f"gap_step must be an integer >= 1, got {self.gap_step!r}")


class OptimizerState:
    """Flat float64 vectors over the layout of the parameters the state was
    made for: the Adam moments m and v, the step-K accumulator delta_cache
    and the read-only reference delta tau_ref (None without one); plus the
    step counter, the keep-mask table and reused work buffers. The merges'
    constants are not state: bind makes them for the step it returns. The
    base model is deliberately not part of the state: the relaxed online
    merge needs only tau_ref, never mutated.

    masks is a MaskTable of seed and the parameters' layout, which states of
    the same seed and layout may share (a ReferenceModels holds one); by
    default the state makes its own."""

    def __init__(
        self, params: ParameterSet, tau_ref: Optional[ParameterSet] = None, seed: int = 0,
        masks: Optional[MaskTable] = None,
    ):
        if tau_ref is not None:
            check_aligned(params, tau_ref)
        self._layout = params
        self._slices = params.slices()
        if masks is None:
            masks = MaskTable(seed, self._slices)
        elif (masks.seed, masks.slices) != (check_u64(seed, "seed"), self._slices):
            raise ValueError("the mask table was made for another seed or layout")
        size = params.total_elements()
        self.m, self.v, self.delta_cache = np.zeros(size), np.zeros(size), np.zeros(size)
        self.t = 0
        self.tau_ref = None if tau_ref is None else tau_ref.vector()
        self._masks = masks
        # Adam's update delta and its second buffer.
        self._delta, self._work = np.empty(size), np.empty(size)


def _adam(state: OptimizerState, g: np.ndarray, hyper: AdamHyper) -> np.ndarray:
    """Advance the moments m and v in place with gradient g at step t and
    return the raw update delta -lr * mhat / sqrt(vhat + eps), computed in the
    state's delta buffer (valid until the next step)."""
    m, v, d, work = state.m, state.v, state._delta, state._work
    m *= hyper.beta1
    m += np.multiply(1.0 - hyper.beta1, g, out=work)
    v *= hyper.beta2
    v += np.multiply(1.0 - hyper.beta2, np.square(g, out=work), out=work)
    if hyper.bias_correction:
        np.divide(m, 1.0 - hyper.beta1**state.t, out=d)
        np.divide(v, 1.0 - hyper.beta2**state.t, out=work)
        work += hyper.epsilon
    else:
        d[:] = m
        np.add(v, hyper.epsilon, out=work)
    d *= -hyper.learning_rate
    d /= np.sqrt(work, out=work)
    return d


def _adam_delta(theta, g, state, hyper, grad_rate=None) -> np.ndarray:
    """The shared part of one optimizer transaction over the flat vectors
    theta and g: t += 1, child-tuning's gradient dropout (grad_rate), one Adam
    update with decoupled decay folded into the delta so that a merge governs
    the entire change. Returns the delta, in the state's buffer (valid until
    the next step); theta is not changed."""
    state.t += 1
    if grad_rate is not None:
        g = np.where(state._masks.row(state.t, MASK_STREAM_GRAD, grad_rate), g, 0.0) / grad_rate
    if not np.isfinite(g).all():
        bad = next(n for n, s in state._slices if not np.isfinite(g[s]).all())
        raise NonFiniteGradient(f"{bad}: gradient contains NaN or infinity")
    d = _adam(state, g, hyper)
    if hyper.weight_decay != 0.0:
        d -= np.multiply(hyper.learning_rate * hyper.weight_decay, theta, out=state._work)
    return d


def _ondare_merge(state, cfg) -> Callable[[np.ndarray], np.ndarray]:
    """The merge x -> (1 - alpha) * F(x) + alpha * F(tau_ref) at the state's
    step, F a random keep-mask (the state's table row) on independent
    streams; the reference side alpha * tau_ref is made here, once. Neither
    side is rescaled: rescaling is essential offline but destabilizes
    multi-step optimization. Masked-out elements are (1 - alpha) * 0.0 and
    alpha * 0.0, so the reference side's zeros carry alpha's sign."""
    a, p = cfg.alpha, cfg.reserve_rate
    ref = a * state.tau_ref

    def merge(x):
        out = np.where(state._masks.row(state.t, MASK_STREAM_UPDATE, p), (1.0 - a) * x, 0.0)
        out += np.where(state._masks.row(state.t, MASK_STREAM_REF, p), ref, a * 0.0)
        return out

    return merge


def _onties_merge(state, cfg) -> Callable[[np.ndarray], np.ndarray]:
    """The merge x -> sign consensus of (1 - alpha) * top-p(x) and
    alpha * top-p(tau_ref), top-p taken within each tensor by one
    SegmentedTopP; it and the reference side are made here, once."""
    a = cfg.alpha
    top_p = SegmentedTopP((s for _, s in state._slices), cfg.reserve_rate)
    ref = a * top_p.sparsify(state.tau_ref)

    def merge(x):
        return sign_consensus((1.0 - a) * top_p.sparsify(x), ref)

    return merge


_MERGES = {MergeVariant.ONDARE: _ondare_merge, MergeVariant.ONTIES: _onties_merge}
OPTIMIZER_NAMES = ("adam", "adamw", "ondare", "onties", "fullmerge", "stepk-ondare",
                   "stepk-onties", "childtuning")


def bind(
    name: str, state: OptimizerState, hyper: AdamHyper,
    merge: OnlineMergeConfig = OnlineMergeConfig(), base: Optional[ParameterSet] = None,
) -> Callable[[np.ndarray, np.ndarray], None]:
    """The step of optimizer `name`: step(theta, g) updates the flat float64
    parameters theta in place from the flat gradient g, both in the state's
    layout, and checks only g's finiteness (theta += x is the same IEEE
    addition as theta + x). Every other check is made here, once, and so are
    the merge's constants (its reference side, and OnTIES's top-p over the
    layout). fullmerge re-anchors on base, the base model's parameters in
    the state's layout; childtuning drops gradients at merge.reserve_rate."""
    if name not in OPTIMIZER_NAMES:
        raise InvalidConfig(f"unknown optimizer {name!r}; choose from {OPTIMIZER_NAMES}")
    if name in ("adam", "adamw", "childtuning"):
        rate = merge.reserve_rate if name == "childtuning" else None

        def step(theta, g):
            theta += _adam_delta(theta, g, state, hyper, rate)

        return step
    if state.tau_ref is None:
        raise ValueError("online merging needs a cached reference delta in the state")
    if name == "fullmerge":
        if base is None:
            raise ValueError("the full merge needs the base model's parameters, got no base")
        check_aligned(state._layout, base)
        anchor, ondare = base.vector(), _MERGES[MergeVariant.ONDARE](state, merge)

        def step(theta, g):
            d = _adam_delta(theta, g, state, hyper)
            np.add(anchor, ondare((theta - anchor) + d), out=theta)

        return step
    merge_fn = _MERGES[MergeVariant(name.removeprefix("stepk-"))](state, merge)
    if not name.startswith("stepk-"):
        def step(theta, g):
            theta += merge_fn(_adam_delta(theta, g, state, hyper))

        return step
    gap = merge.gap_step

    def step(theta, g):
        d = _adam_delta(theta, g, state, hyper)
        cache = state.delta_cache
        if state.t % gap != 0:
            cache += d
            theta += d
            return
        theta -= cache  # roll back to the last merge point
        d_total = d + cache
        cache[:] = 0.0
        theta += merge_fn(d_total)

    return step


def _stepped(params, grads, state, step) -> ParameterSet:
    """A step bound by a checked public *_step function over ParameterSets,
    applied to a copy of params' vector and laid out as params. Each call
    binds anew, so a merge's constants are made anew."""
    check_aligned(params, grads)
    check_aligned(params, state._layout)
    theta = params.vector().copy()
    step(theta, grads.vector())
    return params.with_vector(theta)


def adam_step(
    params: ParameterSet, grads: ParameterSet, state: OptimizerState, hyper: AdamHyper
) -> ParameterSet:
    """Plain Adam/AdamW: theta <- theta + delta, no merging."""
    return _stepped(params, grads, state, bind("adam", state, hyper))


def ondare_step(
    params: ParameterSet,
    grads: ParameterSet,
    state: OptimizerState,
    hyper: AdamHyper,
    cfg: OnlineMergeConfig,
) -> ParameterSet:
    """Random-sparsify both the update delta and the reference delta, then
    combine them linearly with weights (1 - alpha, alpha)."""
    return _stepped(params, grads, state, bind("ondare", state, hyper, cfg))


def onties_step(
    params: ParameterSet,
    grads: ParameterSet,
    state: OptimizerState,
    hyper: AdamHyper,
    cfg: OnlineMergeConfig,
) -> ParameterSet:
    """Top-p sparsify both sides and combine them with elementwise sign
    consensus instead of addition."""
    return _stepped(params, grads, state, bind("onties", state, hyper, cfg))


def full_merge_step(
    params: ParameterSet,
    grads: ParameterSet,
    state: OptimizerState,
    hyper: AdamHyper,
    cfg: OnlineMergeConfig,
    base: ParameterSet,
) -> ParameterSet:
    """Unrelaxed online merge, re-anchored on the base model every step:

        theta <- base + (1-alpha)*F(theta - base + delta) + alpha*F(tau_ref)

    Kept for reproducing the instability of merging the whole trajectory
    instead of just the current update.
    """
    return _stepped(params, grads, state, bind("fullmerge", state, hyper, cfg, base))


def stepk_step(
    params: ParameterSet,
    grads: ParameterSet,
    state: OptimizerState,
    hyper: AdamHyper,
    cfg: OnlineMergeConfig,
    variant: MergeVariant,
) -> ParameterSet:
    """Gap-step online merging: accumulate plain Adam updates for K-1 steps,
    then roll the parameters back to the last merge point and merge the whole
    accumulated displacement in one go with the variant's merge.

    K = 1 degenerates to the fully online optimizer; K = T is a single
    end-of-run merge over the total displacement.
    """
    if variant not in _MERGES:
        raise ValueError(f"step-K requires MergeVariant.ONDARE or ONTIES, got {variant!r}")
    return _stepped(params, grads, state, bind(f"stepk-{variant.value}", state, hyper, cfg))


def childtuning_step(
    params: ParameterSet,
    grads: ParameterSet,
    state: OptimizerState,
    hyper: AdamHyper,
    reserve_rate: float,
) -> ParameterSet:
    """Task-free gradient dropout: mask the gradient with Bernoulli(p) and
    rescale the survivors by 1/p before the Adam update. The mask sits on the
    gradient, unlike online merging which masks the update delta (without
    rescale)."""
    merge = OnlineMergeConfig(reserve_rate=reserve_rate)
    return _stepped(params, grads, state, bind("childtuning", state, hyper, merge))


def ema_update_inplace(shadow, theta, coefficient: float) -> None:
    """ema_update's core: shadow <- (1 - c) * shadow + c * theta in place,
    over flat vectors, c a float in (0, 1)."""
    shadow *= 1.0 - coefficient
    shadow += coefficient * theta


def ema_update(
    shadow: ParameterSet, params: ParameterSet, coefficient: float = 1e-3
) -> ParameterSet:
    """The next EMA shadow, (1 - c) * shadow + c * theta, applied after a base
    step. The shadow is the run's, not the optimizer's: evaluation and the
    final checkpoint use it when EMA is enabled."""
    if not (is_real(coefficient) and 0.0 < coefficient < 1.0):
        raise ValueError(f"EMA coefficient must be in (0, 1), got {coefficient!r}")
    check_aligned(shadow, params)
    out = shadow.vector().copy()
    ema_update_inplace(out, params.vector(), float(coefficient))
    return shadow.with_vector(out)
