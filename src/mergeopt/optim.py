"""Adam-family optimizer with online merging variants and regularization baselines.

One optimizer step is a single logical transaction over the flat parameter
vector: the step counter t moves by exactly one, one vectorized Adam update
happens identically for every variant, and the variants differ only in the
rule that turns the update delta into the new parameters. Masks stay keyed
per tensor, so each tensor's slice of a flat mask is its own keyed stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import MissingBaseModel, NonFiniteGradient
from .kernels import sign_consensus, sparsify_top_p, validate_probability
from .kernels import sparsify_random  # noqa: F401  (not called; bench/tracer.py wraps it here)
from .masks import LayoutKeys, MaskGenerator, bernoulli_mask
from .params import ParameterSet, check_aligned

MASK_STREAM_UPDATE = "update"
MASK_STREAM_REF = "ref"
MASK_STREAM_GRAD = "grad"


@dataclass(frozen=True)
class AdamHyper:
    learning_rate: float = 5e-7
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    bias_correction: bool = True

    def __post_init__(self):
        ok = (
            math.isfinite(self.learning_rate)
            and self.learning_rate > 0
            and 0 <= self.beta1 < 1
            and 0 <= self.beta2 < 1
            and math.isfinite(self.epsilon)
            and self.epsilon > 0
            and math.isfinite(self.weight_decay)
            and self.weight_decay >= 0
        )
        if not ok:
            raise ValueError(f"invalid Adam hyperparameters: {self}")

    @classmethod
    def pseudocode_literal(cls, learning_rate: float = 5e-7, **kw) -> "AdamHyper":
        """Preset without bias correction or decay, matching the raw update
        m <- b1*m + (1-b1)*g; v <- b2*v + (1-b2)*g^2; d = -lr*m/sqrt(v+eps)."""
        return cls(learning_rate=learning_rate, bias_correction=False, weight_decay=0.0, **kw)


class MergeVariant(Enum):
    ONDARE = "ondare"
    ONTIES = "onties"
    FULL_MERGE = "fullmerge"


@dataclass(frozen=True)
class OnlineMergeConfig:
    """How each update delta is merged with the reference delta.

    gap_step K = 1 merges every step (fully online); K = T merges once at the
    end of a T-step run. base_for_full_merge is only needed by FULL_MERGE,
    the unrelaxed formulation that re-anchors every step on the base model.
    """

    variant: MergeVariant
    alpha: float = 1e-6
    reserve_rate: float = 0.5
    gap_step: int = 1
    base_for_full_merge: Optional[ParameterSet] = None

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and 0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        validate_probability(self.reserve_rate)
        if int(self.gap_step) != self.gap_step or self.gap_step < 1:
            raise ValueError(f"gap_step must be an integer >= 1, got {self.gap_step}")
        object.__setattr__(self, "gap_step", int(self.gap_step))


class OptimizerState:
    """Flat float64 vectors over the layout of the parameters the state was
    made for: the Adam moments m and v, the step-K accumulator delta_cache,
    the EMA shadow ema (None while there is none) and the read-only reference
    delta tau_ref (None without one); plus the step counter, the mask
    generator, the merges' constant reference sides (alpha * tau_ref for
    OnDARE, alpha * top-p(tau_ref) for OnTIES) and reused work buffers.
    The base model is deliberately not part of the state: the relaxed online
    merge needs only tau_ref, never mutated."""

    def __init__(
        self,
        params: ParameterSet,
        tau_ref: Optional[ParameterSet] = None,
        seed: int = 0,
        track_ema: bool = False,
    ):
        if tau_ref is not None:
            check_aligned(params, tau_ref)
        self._layout = params
        self._slices = params.slices()
        size = params.total_elements()
        self.m, self.v, self.delta_cache = np.zeros(size), np.zeros(size), np.zeros(size)
        self.t = 0
        self.tau_ref = None if tau_ref is None else tau_ref.vector()
        self.seed = int(seed)
        self.ema = params.vector().copy() if track_ema else None
        self._keys = LayoutKeys(self.seed, params.names)
        self._masks = MaskGenerator()
        self._ref_sides: dict = {}
        # Adam's update delta and its second buffer, and per mask stream a
        # keep-mask with each tensor's (length, slice view) of it.
        self._delta, self._work = np.empty(size), np.empty(size)
        self._mask_slots: dict = {}

    def ema_parameters(self) -> Optional[ParameterSet]:
        if self.ema is None:
            return None
        return self._layout.with_vector(self.ema.copy())


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


def _step(params, grads, state, hyper, rule=None, cfg=None, grad_rate=None) -> ParameterSet:
    """One optimizer transaction over the flat layout: t += 1, child-tuning's
    gradient dropout (grad_rate), one Adam update with decoupled decay folded
    into the delta so the merge governs the entire change, then
    rule(state, cfg, theta, delta) -> new parameters (theta + delta if none).
    The result owns a fresh buffer: sets returned earlier never change."""
    check_aligned(params, grads)
    check_aligned(params, state._layout)
    state.t += 1
    g = grads.vector()
    if grad_rate is not None:
        g = np.where(_keep_mask(state, MASK_STREAM_GRAD, grad_rate), g, 0.0) / grad_rate
    if not np.isfinite(g).all():
        bad = next(n for n, s in state._slices if not np.isfinite(g[s]).all())
        raise NonFiniteGradient(f"{bad}: gradient contains NaN or infinity")
    theta = params.vector()
    d = _adam(state, g, hyper)
    if hyper.weight_decay != 0.0:
        d -= np.multiply(hyper.learning_rate * hyper.weight_decay, theta, out=state._work)
    return params.with_vector(theta + d if rule is None else rule(state, cfg, theta, d))


def _keep_mask(state: OptimizerState, stream: str, p: float) -> np.ndarray:
    """Flat keep-mask whose slice for each tensor is drawn from that tensor's
    own (seed, name, step, stream) key, in the stream's reused buffer (valid
    until the stream's next draw)."""
    slots = state._mask_slots.get(stream)
    if slots is None:
        mask = np.empty(state.m.size, bool)
        views = [(s.stop - s.start, mask[s]) for _, s in state._slices]
        slots = state._mask_slots[stream] = (mask, views)
    mask, views = slots
    for material, (n, out) in zip(state._keys.materials(state.t, stream), views):
        bernoulli_mask(material, n, p, state._masks, out=out)
    return mask


def _ref_side(state, key, make) -> np.ndarray:
    """The constant reference side of a merge, made once per key. Keys carry
    alpha's sign because -0.0 == 0.0 but scales tau_ref to zeros of the
    other sign."""
    ref = state._ref_sides.get(key)
    if ref is None:
        ref = state._ref_sides[key] = make()
    return ref


def _ondare_merge(state, cfg, x) -> np.ndarray:
    """(1 - alpha) * F(x) + alpha * F(tau_ref), F a random keep-mask on
    independent streams. Neither side is rescaled: rescaling is essential
    offline but destabilizes multi-step optimization. Masked-out elements are
    (1 - alpha) * 0.0 and alpha * 0.0, so the reference side's zeros carry
    alpha's sign."""
    a, p = cfg.alpha, cfg.reserve_rate
    ref = _ref_side(state, ("ondare", a, math.copysign(1.0, a)), lambda: a * state.tau_ref)
    out = np.where(_keep_mask(state, MASK_STREAM_UPDATE, p), (1.0 - a) * x, 0.0)
    out += np.where(_keep_mask(state, MASK_STREAM_REF, p), ref, a * 0.0)
    return out


def _onties_merge(state, cfg, x) -> np.ndarray:
    """Sign consensus of (1 - alpha) * top-p(x) and alpha * top-p(tau_ref),
    top-p taken within each tensor; the reference side is made once per
    (alpha, reserve rate)."""

    def top_p(v):
        return np.concatenate([sparsify_top_p(v[s], cfg.reserve_rate) for _, s in state._slices])

    a = cfg.alpha
    key = ("onties", a, math.copysign(1.0, a), cfg.reserve_rate)
    ref = _ref_side(state, key, lambda: a * top_p(state.tau_ref))
    return sign_consensus((1.0 - a) * top_p(x), ref)


_MERGES = {MergeVariant.ONDARE: _ondare_merge, MergeVariant.ONTIES: _onties_merge}


def _relaxed_rule(state, cfg, theta, d) -> np.ndarray:
    return theta + _MERGES[cfg.variant](state, cfg, d)


def _full_merge_rule(state, cfg, theta, d) -> np.ndarray:
    base = cfg.base_for_full_merge.vector()
    return base + _ondare_merge(state, cfg, (theta - base) + d)


def _stepk_rule(state, cfg, theta, d) -> np.ndarray:
    cache = state.delta_cache
    if state.t % cfg.gap_step != 0:
        cache += d
        return theta + d
    rolled_back = theta - cache
    d_total = d + cache
    cache[:] = 0.0
    return rolled_back + _MERGES[cfg.variant](state, cfg, d_total)


def _require_online(cfg: OnlineMergeConfig, state: OptimizerState, expected) -> None:
    if cfg.variant is not expected:
        raise ValueError(f"config variant is {cfg.variant}, expected {expected}")
    if expected is MergeVariant.FULL_MERGE and cfg.base_for_full_merge is None:
        raise MissingBaseModel("full merge requires base model parameters in the config")
    if state.tau_ref is None:
        raise ValueError("online merging needs a cached reference delta in the state")


def adam_step(
    params: ParameterSet, grads: ParameterSet, state: OptimizerState, hyper: AdamHyper
) -> ParameterSet:
    """Plain Adam/AdamW: theta <- theta + delta, no merging."""
    return _step(params, grads, state, hyper)


def ondare_step(
    params: ParameterSet,
    grads: ParameterSet,
    state: OptimizerState,
    hyper: AdamHyper,
    cfg: OnlineMergeConfig,
) -> ParameterSet:
    """Random-sparsify both the update delta and the reference delta, then
    combine them linearly with weights (1 - alpha, alpha)."""
    _require_online(cfg, state, MergeVariant.ONDARE)
    return _step(params, grads, state, hyper, _relaxed_rule, cfg)


def onties_step(
    params: ParameterSet,
    grads: ParameterSet,
    state: OptimizerState,
    hyper: AdamHyper,
    cfg: OnlineMergeConfig,
) -> ParameterSet:
    """Top-p sparsify both sides and combine them with elementwise sign
    consensus instead of addition."""
    _require_online(cfg, state, MergeVariant.ONTIES)
    return _step(params, grads, state, hyper, _relaxed_rule, cfg)


def full_merge_step(
    params: ParameterSet,
    grads: ParameterSet,
    state: OptimizerState,
    hyper: AdamHyper,
    cfg: OnlineMergeConfig,
) -> ParameterSet:
    """Unrelaxed online merge, re-anchored on the base model every step:

        theta <- base + (1-alpha)*F(theta - base + delta) + alpha*F(tau_ref)

    Kept for reproducing the instability of merging the whole trajectory
    instead of just the current update.
    """
    _require_online(cfg, state, MergeVariant.FULL_MERGE)
    check_aligned(params, cfg.base_for_full_merge)
    return _step(params, grads, state, hyper, _full_merge_rule, cfg)


def stepk_step(
    params: ParameterSet,
    grads: ParameterSet,
    state: OptimizerState,
    hyper: AdamHyper,
    cfg: OnlineMergeConfig,
) -> ParameterSet:
    """Gap-step online merging: accumulate plain Adam updates for K-1 steps,
    then roll the parameters back to the last merge point and merge the whole
    accumulated displacement in one go.

    K = 1 degenerates to the fully online optimizer; K = T is a single
    end-of-run merge over the total displacement.
    """
    if cfg.variant not in _MERGES:
        raise ValueError(f"step-K requires an online merge variant, got {cfg.variant}")
    _require_online(cfg, state, cfg.variant)
    return _step(params, grads, state, hyper, _stepk_rule, cfg)


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
    return _step(params, grads, state, hyper, grad_rate=validate_probability(reserve_rate))


def ema_update(state: OptimizerState, params: ParameterSet, coefficient: float = 1e-3) -> None:
    """shadow <- (1 - c) * shadow + c * theta, applied after a base step.

    Evaluation and serialization use the shadow when EMA is enabled.
    """
    c = float(coefficient)
    if not (0.0 < c < 1.0):
        raise ValueError(f"EMA coefficient must be in (0, 1), got {coefficient}")
    if state.ema is None:
        state.ema = params.vector().copy()
        return
    state.ema *= 1.0 - c
    state.ema += c * params.vector()
