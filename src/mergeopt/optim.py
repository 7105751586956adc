"""Adam-family optimizer with online merging variants and regularization baselines.

One optimizer step is a single logical transaction over the flat parameter
vector: the step counter t moves by exactly one, one vectorized Adam update
happens identically for every variant, and the variants differ only in the
rule that turns the update delta into the new parameters. Masks stay keyed
per tensor, so each tensor's slice of a flat mask is its own keyed stream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import MisalignedSets, MissingBaseModel, NonFiniteGradient
from .kernels import sign_consensus, sparsify_top_p, validate_probability
from .kernels import sparsify_random  # noqa: F401  (not called; bench/tracer.py wraps it here)
from .masks import MaskGenerator, MaskKey, bernoulli_mask
from .params import DeltaSet, ParameterSet, check_aligned, load_checkpoint, save_checkpoint

MASK_STREAM_UPDATE = "update"
MASK_STREAM_REF = "ref"
MASK_STREAM_GRAD = "grad"

_STATE_PREFIXES = ("__m.", "__v.", "__dc.", "__tau.", "__ema.")


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
    NONE = "none"
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

    variant: MergeVariant = MergeVariant.NONE
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
    """Flat Adam moments, step-K accumulator and optional EMA shadow over the
    layout of the parameters it was made for (m, v, delta_cache and ema map
    names to views of them), the step counter, the cached reference delta,
    and the mask generator. The base model is deliberately not part of the
    state: the relaxed online merge needs only tau_ref, never mutated."""

    def __init__(
        self,
        params: ParameterSet,
        tau_ref: Optional[DeltaSet] = None,
        seed: int = 0,
        track_ema: bool = False,
    ):
        if tau_ref is not None:
            check_aligned(params, tau_ref)
        self._layout = params
        self._slices = params.slices()
        size = params.total_elements()
        self._m, self._v, self._dc = np.zeros(size), np.zeros(size), np.zeros(size)
        self.m = self._views(self._m)
        self.v = self._views(self._v)
        self.delta_cache = self._views(self._dc)
        self.t = 0
        self._tau_ref = tau_ref
        self._tau = None if tau_ref is None else tau_ref.vector()
        self.seed = int(seed)
        self._ema = params.vector().copy() if track_ema else None
        self._masks = MaskGenerator()

    def _views(self, vector: np.ndarray) -> dict:
        return {name: vector[s] for name, s in self._slices}

    @property
    def tau_ref(self) -> Optional[DeltaSet]:
        """The reference delta, fixed at construction (its flat copy is cached)."""
        return self._tau_ref

    @property
    def ema(self) -> Optional[dict]:
        """name -> view of the EMA shadow, or None while there is none."""
        return None if self._ema is None else self._views(self._ema)

    @ema.setter
    def ema(self, shadow: Optional[dict]) -> None:
        self._ema = None if shadow is None else (
            ParameterSet((n, s, shadow[n]) for n, s, _ in self._layout).vector().copy()
        )

    def ema_parameters(self) -> Optional[ParameterSet]:
        if self._ema is None:
            return None
        return self._layout.with_vector(self._ema.copy())


def _adam(m: np.ndarray, v: np.ndarray, g: np.ndarray, t: int, hyper: AdamHyper) -> np.ndarray:
    """Advance the moments m and v in place with gradient g at step t and
    return the raw update delta -lr * mhat / sqrt(vhat + eps)."""
    m *= hyper.beta1
    m += (1.0 - hyper.beta1) * g
    v *= hyper.beta2
    v += (1.0 - hyper.beta2) * np.square(g)
    if hyper.bias_correction:
        mhat = m / (1.0 - hyper.beta1**t)
        vhat = v / (1.0 - hyper.beta2**t)
    else:
        mhat, vhat = m, v
    return -hyper.learning_rate * mhat / np.sqrt(vhat + hyper.epsilon)


def adam_delta(state: OptimizerState, name: str, grad, hyper: AdamHyper) -> np.ndarray:
    """Advance one tensor's moments in place and return its raw update delta
    -lr * mhat / sqrt(vhat + eps). Bias correction uses the current step
    counter, which the caller must already have incremented."""
    g = np.asarray(grad, dtype=np.float64).reshape(-1)
    m = state.m[name]
    if g.size != m.size:
        raise MisalignedSets(f"{name}: gradient has {g.size} elements, state has {m.size}")
    if not np.all(np.isfinite(g)):
        raise NonFiniteGradient(f"{name}: gradient contains NaN or infinity")
    return _adam(m, state.v[name], g, state.t, hyper)


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
    d = _adam(state._m, state._v, g, state.t, hyper)
    if hyper.weight_decay != 0.0:
        d = d - hyper.learning_rate * hyper.weight_decay * theta
    return params.with_vector(theta + d if rule is None else rule(state, cfg, theta, d))


def _keep_mask(state: OptimizerState, stream: str, p: float) -> np.ndarray:
    """Flat keep-mask whose slice for each tensor is drawn from that tensor's
    own (seed, name, step, stream) key."""
    return np.concatenate([
        bernoulli_mask(MaskKey(state.seed, name, state.t, stream), s.stop - s.start, p, state._masks)
        for name, s in state._slices
    ])


def _ondare_merge(state, cfg, x) -> np.ndarray:
    """(1 - alpha) * F(x) + alpha * F(tau_ref), F a random keep-mask on
    independent streams. Neither side is rescaled: rescaling is essential
    offline but destabilizes multi-step optimization."""
    p = cfg.reserve_rate
    kept_x = np.where(_keep_mask(state, MASK_STREAM_UPDATE, p), x, 0.0)
    kept_tau = np.where(_keep_mask(state, MASK_STREAM_REF, p), state._tau, 0.0)
    return (1.0 - cfg.alpha) * kept_x + cfg.alpha * kept_tau


def _onties_merge(state, cfg, x) -> np.ndarray:
    """Sign consensus of (1 - alpha) * top-p(x) and alpha * top-p(tau_ref),
    top-p taken within each tensor."""

    def top_p(v):
        return np.concatenate([sparsify_top_p(v[s], cfg.reserve_rate) for _, s in state._slices])

    return sign_consensus((1.0 - cfg.alpha) * top_p(x), cfg.alpha * top_p(state._tau))


_MERGES = {MergeVariant.ONDARE: _ondare_merge, MergeVariant.ONTIES: _onties_merge}


def _relaxed_rule(state, cfg, theta, d) -> np.ndarray:
    return theta + _MERGES[cfg.variant](state, cfg, d)


def _full_merge_rule(state, cfg, theta, d) -> np.ndarray:
    base = cfg.base_for_full_merge.vector()
    return base + _ondare_merge(state, cfg, (theta - base) + d)


def _stepk_rule(state, cfg, theta, d) -> np.ndarray:
    cache = state._dc
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
    if state._ema is None:
        state._ema = params.vector().copy()
        return
    state._ema *= 1.0 - c
    state._ema += c * params.vector()


def save_optimizer_state(state: OptimizerState, path, scalars: Optional[dict] = None) -> None:
    """Serialize moments and cached deltas to a PSET1 container with reserved
    name prefixes, plus a JSON sidecar for the scalar state."""
    tables = [("__m.", state._m), ("__v.", state._v), ("__dc.", state._dc)]
    if state._tau is not None:
        tables.append(("__tau.", state._tau))
    if state._ema is not None:
        tables.append(("__ema.", state._ema))
    entries = [
        (prefix + name, state._layout.shape(name), vector[s])
        for prefix, vector in tables
        for name, s in state._slices
    ]
    save_checkpoint(ParameterSet(entries), path)
    sidecar = {
        "t": state.t,
        "seed": state.seed,
        "tau_base_fingerprint": getattr(state.tau_ref, "base_fingerprint", None),
    }
    if scalars:
        sidecar.update(scalars)
    with open(str(path) + ".json", "w", encoding="utf-8") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")


def load_optimizer_state(path) -> tuple[OptimizerState, dict]:
    """Inverse of save_optimizer_state; returns the state and its sidecar."""
    container = load_checkpoint(path)
    with open(str(path) + ".json", "r", encoding="utf-8") as f:
        sidecar = json.load(f)
    groups: dict[str, list] = {p: [] for p in _STATE_PREFIXES}
    for name, shape, arr in container:
        for prefix in _STATE_PREFIXES:
            if name.startswith(prefix):
                groups[prefix].append((name[len(prefix) :], shape, arr))
                break
        else:
            raise ValueError(f"unexpected tensor {name!r} in optimizer state container")
    shell = ParameterSet(groups["__m."])
    tau_ref = None
    if groups["__tau."]:
        tau_ref = DeltaSet(
            groups["__tau."], base_fingerprint=sidecar.get("tau_base_fingerprint") or ""
        )
    state = OptimizerState(shell, tau_ref=tau_ref, seed=sidecar.get("seed", 0))
    state.t = int(sidecar["t"])
    state._m[:] = shell.vector()
    state._v[:] = ParameterSet(groups["__v."]).vector()
    state._dc[:] = ParameterSet(groups["__dc."]).vector()
    if groups["__ema."]:
        state.ema = {n: a for n, _, a in ParameterSet(groups["__ema."])}
    return state, sidecar
