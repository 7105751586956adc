"""Adam-family optimizer with online merging variants and regularization baselines.

One optimizer step is a single logical transaction over the flat parameter
vector: the step counter t moves by exactly one, one vectorized Adam update
happens identically for every variant, and each step function then turns the
update delta into the new parameters with its own merge. Masks stay keyed
per tensor, so each tensor's slice of a flat mask is its own keyed stream.
EMA is not part of the optimizer: ema_update maps a shadow kept by the run
to its next value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

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
    step counter, the keep-mask table, the merges' constants (the reference
    sides alpha * tau_ref for OnDARE and alpha * top-p(tau_ref) for OnTIES,
    and OnTIES's SegmentedTopP over the layout) and reused work buffers.
    The base model is deliberately not part of the state: the relaxed online
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
        self._masks, self._keys = masks, masks.keys
        self._constants: dict = {}
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
        g = np.where(_keep_mask(state, MASK_STREAM_GRAD, grad_rate), g, 0.0) / grad_rate
    if not np.isfinite(g).all():
        bad = next(n for n, s in state._slices if not np.isfinite(g[s]).all())
        raise NonFiniteGradient(f"{bad}: gradient contains NaN or infinity")
    d = _adam(state, g, hyper)
    if hyper.weight_decay != 0.0:
        d -= np.multiply(hyper.learning_rate * hyper.weight_decay, theta, out=state._work)
    return d


def _keep_mask(state: OptimizerState, stream: str, p: float) -> np.ndarray:
    """The flat keep-mask at the state's step t: its table's row, whose slice
    for each tensor is drawn from that tensor's own (seed, name, t, stream)
    key (see MaskTable.row)."""
    return state._masks.row(state.t, stream, p)


def _constant(state, key, make):
    """A constant of the state's merges, made once per key. Reference-side
    keys carry alpha's sign because -0.0 == 0.0 but scales tau_ref to zeros
    of the other sign."""
    value = state._constants.get(key)
    if value is None:
        value = state._constants[key] = make()
    return value


def _ondare_merge(state, cfg, x) -> np.ndarray:
    """(1 - alpha) * F(x) + alpha * F(tau_ref), F a random keep-mask on
    independent streams. Neither side is rescaled: rescaling is essential
    offline but destabilizes multi-step optimization. Masked-out elements are
    (1 - alpha) * 0.0 and alpha * 0.0, so the reference side's zeros carry
    alpha's sign."""
    a, p = cfg.alpha, cfg.reserve_rate
    ref = _constant(state, ("ondare", a, math.copysign(1.0, a)), lambda: a * state.tau_ref)
    out = np.where(_keep_mask(state, MASK_STREAM_UPDATE, p), (1.0 - a) * x, 0.0)
    out += np.where(_keep_mask(state, MASK_STREAM_REF, p), ref, a * 0.0)
    return out


def _onties_merge(state, cfg, x) -> np.ndarray:
    """Sign consensus of (1 - alpha) * top-p(x) and alpha * top-p(tau_ref),
    top-p taken within each tensor by one SegmentedTopP per reserve rate; the
    reference side is made once per (alpha, reserve rate)."""
    a, p = cfg.alpha, cfg.reserve_rate
    top_p = _constant(state, ("top-p", p), lambda: SegmentedTopP((s for _, s in state._slices), p))
    key = ("onties", a, math.copysign(1.0, a), p)
    ref = _constant(state, key, lambda: a * top_p.sparsify(state.tau_ref))
    return sign_consensus((1.0 - a) * top_p.sparsify(x), ref)


_MERGES = {MergeVariant.ONDARE: _ondare_merge, MergeVariant.ONTIES: _onties_merge}


def _require_online(state: OptimizerState) -> None:
    if state.tau_ref is None:
        raise ValueError("online merging needs a cached reference delta in the state")


# The *_inplace functions are the step cores. Each takes the flat float64
# parameter vector theta, which it updates in place, and the flat gradient g,
# both in the state's layout, and checks nothing beyond the gradient's
# finiteness. theta += x is the same IEEE addition as theta + x. The *_step
# functions are the checked public steps over ParameterSets.


def _stepped(params, grads, state, core, *args) -> ParameterSet:
    """A step core applied to a copy of params' vector, laid out as params."""
    check_aligned(params, grads)
    check_aligned(params, state._layout)
    theta = params.vector().copy()
    core(theta, grads.vector(), state, *args)
    return params.with_vector(theta)


def adam_step_inplace(theta, g, state: OptimizerState, hyper: AdamHyper) -> None:
    theta += _adam_delta(theta, g, state, hyper)


def adam_step(
    params: ParameterSet, grads: ParameterSet, state: OptimizerState, hyper: AdamHyper
) -> ParameterSet:
    """Plain Adam/AdamW: theta <- theta + delta, no merging."""
    return _stepped(params, grads, state, adam_step_inplace, hyper)


def ondare_step_inplace(theta, g, state, hyper, cfg: OnlineMergeConfig) -> None:
    theta += _ondare_merge(state, cfg, _adam_delta(theta, g, state, hyper))


def ondare_step(
    params: ParameterSet,
    grads: ParameterSet,
    state: OptimizerState,
    hyper: AdamHyper,
    cfg: OnlineMergeConfig,
) -> ParameterSet:
    """Random-sparsify both the update delta and the reference delta, then
    combine them linearly with weights (1 - alpha, alpha)."""
    _require_online(state)
    return _stepped(params, grads, state, ondare_step_inplace, hyper, cfg)


def onties_step_inplace(theta, g, state, hyper, cfg: OnlineMergeConfig) -> None:
    theta += _onties_merge(state, cfg, _adam_delta(theta, g, state, hyper))


def onties_step(
    params: ParameterSet,
    grads: ParameterSet,
    state: OptimizerState,
    hyper: AdamHyper,
    cfg: OnlineMergeConfig,
) -> ParameterSet:
    """Top-p sparsify both sides and combine them with elementwise sign
    consensus instead of addition."""
    _require_online(state)
    return _stepped(params, grads, state, onties_step_inplace, hyper, cfg)


def full_merge_step_inplace(theta, g, state, hyper, cfg: OnlineMergeConfig, base) -> None:
    """full_merge_step's core; base is the base model's flat vector."""
    d = _adam_delta(theta, g, state, hyper)
    np.add(base, _ondare_merge(state, cfg, (theta - base) + d), out=theta)


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
    _require_online(state)
    check_aligned(params, base)
    return _stepped(params, grads, state, full_merge_step_inplace, hyper, cfg, base.vector())


def stepk_step_inplace(theta, g, state, hyper, cfg: OnlineMergeConfig, variant) -> None:
    d = _adam_delta(theta, g, state, hyper)
    cache = state.delta_cache
    if state.t % cfg.gap_step != 0:
        cache += d
        theta += d
        return
    theta -= cache  # roll back to the last merge point
    d_total = d + cache
    cache[:] = 0.0
    theta += _MERGES[variant](state, cfg, d_total)


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
    _require_online(state)
    return _stepped(params, grads, state, stepk_step_inplace, hyper, cfg, variant)


def childtuning_step_inplace(theta, g, state, hyper, reserve_rate: float) -> None:
    theta += _adam_delta(theta, g, state, hyper, reserve_rate)


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
    rate = validate_probability(reserve_rate)
    return _stepped(params, grads, state, childtuning_step_inplace, hyper, rate)


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
