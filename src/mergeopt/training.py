"""Desk-scale training pipeline: supervised pretrain, supervised SFT, then a
preference-optimization phase driven by any of the configured optimizers.

A run is fully determined by (config, seed): data, batch order, mask streams,
and metrics bytes all reproduce exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from functools import cache, partial
from typing import Optional

import numpy as np

from .errors import InvalidConfig, NonFiniteGradient, NonFiniteLoss, check_u64, is_count, is_real
from .optim import (
    AdamHyper,
    MergeVariant,
    OnlineMergeConfig,
    OptimizerState,
    adam_step_inplace,
    childtuning_step_inplace,
    ema_update_inplace,
    full_merge_step_inplace,
    ondare_step_inplace,
    onties_step_inplace,
    stepk_step_inplace,
)
from .optim import (  # noqa: F401  (not called; bench/tracer.py wraps them here)
    adam_step,
    childtuning_step,
    ema_update,
    full_merge_step,
    ondare_step,
    onties_step,
    stepk_step,
)
from .params import ParameterSet, delta
from .policy import ToyPolicy, class_loss_and_grad_into, dpo_loss, dpo_loss_and_grad_into
from .policy import class_loss_and_grad, dpo_loss_and_grad  # noqa: F401  (as above)
from .tasks import DataSettings, PreferenceSet, TaskSuite, check_data, check_rows, gen_task_suite

# Each optimizer's binder (merge settings, theta_base's flat vector) -> step
# core, which updates the flat parameters in place. It looks the core up here
# when called, at the start of a run, so it sees names replaced after import.
_OPTIMIZERS = {
    "adam": lambda m, base: adam_step_inplace,
    "adamw": lambda m, base: adam_step_inplace,
    "ondare": lambda m, base: partial(ondare_step_inplace, cfg=m),
    "onties": lambda m, base: partial(onties_step_inplace, cfg=m),
    "fullmerge": lambda m, base: partial(full_merge_step_inplace, cfg=m, base=base),
    "stepk-ondare": lambda m, base: partial(stepk_step_inplace, cfg=m, variant=MergeVariant.ONDARE),
    "stepk-onties": lambda m, base: partial(stepk_step_inplace, cfg=m, variant=MergeVariant.ONTIES),
    "childtuning": lambda m, base: partial(childtuning_step_inplace, reserve_rate=m.reserve_rate),
}
OPTIMIZER_NAMES = tuple(_OPTIMIZERS)
_GATHER_BUDGET = 1 << 15  # values a block of training batches gathers at a time: 256 KiB

@dataclass(frozen=True)
class MetricsRecord:
    """One metrics.csv row: its fields, in order, are the CSV's columns."""

    step: int
    dpo_loss: float
    reward_margin: float
    pref_accuracy: float
    pretrain_accuracy: float
    sft_accuracy: float

    def cells(self) -> list:
        """The row's values, in column order."""
        return [getattr(self, f.name) for f in fields(self)]


def csv_bytes(columns, rows) -> bytes:
    """A CSV of a header line and one line per row. Float cells are written
    by repr, so they read back to the same double; other cells by str."""
    lines = [",".join(columns)]
    lines += [",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in r) for r in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


class RunMetrics:
    """Per-interval evaluation records; serializes to a fixed-schema CSV."""

    def __init__(self):
        self.rows: list[MetricsRecord] = []

    def append(self, rec: MetricsRecord) -> None:
        self.rows.append(rec)

    def last(self) -> MetricsRecord:
        return self.rows[-1]

    def to_csv_bytes(self) -> bytes:
        return csv_bytes([f.name for f in fields(MetricsRecord)], [r.cells() for r in self.rows])


@cache
def _sections(cls) -> tuple:
    """(name, class) of each field of cls whose default is a dataclass."""
    return tuple((f.name, f.default_factory) for f in fields(cls) if is_dataclass(f.default_factory))


def _build(cls, d, where: str, prefix: str = ""):
    """cls from the JSON object d, which may omit any field. A field whose
    default is a dataclass is built from its own nested object, the same way,
    and the errors its class raises are prefixed with the section's path."""
    if not isinstance(d, dict):
        raise InvalidConfig(f"{where} must be a JSON object, got {d!r}")
    unknown = d.keys() - cls.__dataclass_fields__.keys()
    if unknown:
        raise InvalidConfig(f"unknown {where} key(s): {sorted(unknown)}")
    kwargs = dict(d)
    for name, section in _sections(cls):
        if name in kwargs:
            path = prefix + name
            kwargs[name] = _build(section, kwargs[name], path, path + ".")
    try:
        return cls(**kwargs)
    except InvalidConfig as e:
        if not prefix:
            raise
        raise InvalidConfig(f"{where}: {e}") from e


@dataclass(frozen=True)
class DpoSettings:
    beta: float = 0.1
    steps: int = 500
    eval_every: int = 10
    batch_size: int = 32


@dataclass(frozen=True)
class PhaseSettings:
    pretrain_steps: int = 300
    sft_steps: int = 300
    learning_rate: float = 0.05
    batch_size: int = 64


@dataclass(frozen=True)
class RunConfig:
    seed: int = 1
    out_dir: str = "run"
    optimizer: str = "adamw"
    adam: AdamHyper = field(default_factory=AdamHyper)
    merge: OnlineMergeConfig = field(default_factory=OnlineMergeConfig)
    dpo: DpoSettings = field(default_factory=DpoSettings)
    phases: PhaseSettings = field(default_factory=PhaseSettings)
    data: DataSettings = field(default_factory=DataSettings)
    ema_coefficient: Optional[float] = None

    def __post_init__(self):
        if self.optimizer not in OPTIMIZER_NAMES:
            raise InvalidConfig(
                f"unknown optimizer {self.optimizer!r}; choose from {OPTIMIZER_NAMES}"
            )
        if not (isinstance(self.out_dir, str) and self.out_dir):
            raise InvalidConfig(f"out_dir must be a nonempty string, got {self.out_dir!r}")
        check_u64(self.seed, "seed")
        for where, value, least in (
            ("dpo.steps", self.dpo.steps, 0),
            ("dpo.eval_every", self.dpo.eval_every, 1),
            ("dpo.batch_size", self.dpo.batch_size, 1),
            ("phases.pretrain_steps", self.phases.pretrain_steps, 0),
            ("phases.sft_steps", self.phases.sft_steps, 0),
            ("phases.batch_size", self.phases.batch_size, 1),
        ):
            if not is_count(value, least):
                raise InvalidConfig(f"{where} must be an integer >= {least}, got {value!r}")
        for where, value in (
            ("phases.learning_rate", self.phases.learning_rate),
            ("dpo.beta", self.dpo.beta),
        ):
            if not (is_real(value) and value > 0):
                raise InvalidConfig(f"{where} must be a positive finite number, got {value!r}")
        c = self.ema_coefficient
        if c is not None and not (is_real(c) and 0.0 < c < 1.0):
            raise InvalidConfig(f"ema_coefficient must be in (0, 1), got {c!r}")
        check_data(self.data)
        check_rows("dpo.batch_size", self.dpo.batch_size, self.data.input_dim)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        return _build(cls, d, "config")

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json_bytes(self) -> bytes:
        return (json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n").encode("utf-8")


@dataclass
class TrainResult:
    theta_base: ParameterSet
    theta_ref: ParameterSet
    theta_final: ParameterSet
    metrics: RunMetrics


def make_suite(cfg: RunConfig) -> TaskSuite:
    return gen_task_suite(cfg.seed, cfg.data)


def _block_steps(size: int, width: int) -> int:
    """Steps per block of batches of `size` rows, `width` gathered values per
    row: at most about _GATHER_BUDGET values, and at least one step."""
    return max(1, _GATHER_BUDGET // (size * width))


def _batches(rng, steps: int, rows: int, size: int, width: int, gather):
    """The batches of `steps` steps, each `size` indices into range(rows).

    The indices of a block of steps are drawn in one integers() call, which
    consumes the generator's stream exactly as one call per step would, and
    gather takes each (block steps, size) index array to an iterable of the
    block's per-step batches.
    """
    block = _block_steps(size, width)
    for start in range(0, steps, block):
        yield from gather(rng.integers(0, rows, size=(min(block, steps - start), size)))


def _preference_batches(rng, steps: int, data: PreferenceSet, ref: np.ndarray, size: int):
    """(batch, reference log-prob rows) of each preference step; a block's
    rows are gathered by one take() and one reference gather."""

    def gather(idx):
        b = data.take(idx)
        return zip(map(PreferenceSet, b.x, b.chosen, b.rejected), ref[idx])

    width = data.x.shape[1] + 2 + ref.shape[1]  # x, chosen, rejected, reference row
    return _batches(rng, steps, len(data), size, width, gather)


def _supervised_phase(
    policy: ToyPolicy, phase: str, data, steps, hyper, rng, batch_size
) -> ToyPolicy:
    """policy after `steps` Adam steps on the cross-entropy of batches of
    data, trained in place on flat vectors."""
    state = OptimizerState(policy.params)
    theta = policy.params.vector().copy()
    grad = np.empty(theta.size)
    weights, grads = policy._views(theta), policy._views(grad)
    loss_and_grad, adam = class_loss_and_grad_into, adam_step_inplace
    rows, size = len(data), min(len(data), batch_size)
    batches = _batches(
        rng, steps, rows, size, data.x.shape[1] + 1, lambda idx: zip(data.x[idx], data.y[idx])
    )
    for step, (x, y) in enumerate(batches, 1):
        loss = loss_and_grad(weights, grads, x, y)
        if not math.isfinite(loss):
            raise NonFiniteLoss(
                f"supervised phase {phase} loss went non-finite ({loss}) at step {step}"
            )
        adam(theta, grad, state, hyper)
    return policy.with_params(policy.params.with_vector(theta))


def _evaluate(policy: ToyPolicy, ref_eval: np.ndarray, suite: TaskSuite, beta, step) -> MetricsRecord:
    loss, margins = dpo_loss(policy, ref_eval, suite.pref_eval, beta)
    return MetricsRecord(
        step=step,
        dpo_loss=loss,
        reward_margin=float(np.mean(margins)),
        pref_accuracy=float(np.mean(margins > 0)),
        pretrain_accuracy=policy.accuracy(suite.pretrain_eval.x, suite.pretrain_eval.y),
        sft_accuracy=policy.accuracy(suite.sft_eval.x, suite.sft_eval.y),
    )


@dataclass(frozen=True)
class ReferenceModels:
    """The reference part of a run: its suite, the pretrained model theta_base
    and the SFT model theta_ref. It depends only on the run's seed, data and
    phases, and the preference part only reads it, so runs that share those
    may share it."""

    suite: TaskSuite
    theta_base: ParameterSet
    theta_ref: ParameterSet


def train_reference(suite: TaskSuite, cfg: RunConfig) -> ReferenceModels:
    """Pretrain, then SFT, a policy initialized from cfg.seed. A non-finite
    loss aborts with NonFiniteLoss, which carries no metrics."""
    init_rng = np.random.default_rng([cfg.seed, 0])
    policy = ToyPolicy.random_init(
        suite.input_dim, suite.hidden_dim, suite.num_responses, init_rng
    )

    phase_hyper = AdamHyper(learning_rate=cfg.phases.learning_rate)
    pre_rng = np.random.default_rng([cfg.seed, 1])
    policy = _supervised_phase(
        policy, "pretrain", suite.pretrain_train, cfg.phases.pretrain_steps, phase_hyper,
        pre_rng, cfg.phases.batch_size,
    )
    theta_base = policy.params

    sft_rng = np.random.default_rng([cfg.seed, 2])
    policy = _supervised_phase(
        policy, "SFT", suite.sft_train, cfg.phases.sft_steps, phase_hyper, sft_rng,
        cfg.phases.batch_size,
    )
    return ReferenceModels(suite, theta_base, policy.params)


def train_run(suite: TaskSuite, cfg: RunConfig) -> TrainResult:
    """Run pretrain -> SFT -> preference optimization and collect metrics:
    train_preference(train_reference(suite, cfg), cfg)."""
    return train_preference(train_reference(suite, cfg), cfg)


def train_preference(reference: ReferenceModels, cfg: RunConfig) -> TrainResult:
    """Run preference optimization from reference, which it only reads, and
    collect metrics.

    Evaluation rows (at step 0 and every eval_every steps) use the evaluation
    splits; when EMA is enabled they evaluate the shadow parameters, and the
    final checkpoint is the shadow. A non-finite training loss, gradient or
    evaluation row, step 0's included, aborts with NonFiniteLoss carrying the
    rows collected so far.

    Like each supervised phase, it trains in place on flat vectors, through
    views made once; ParameterSets are made only for evaluation and the
    returned checkpoint.
    """
    suite, theta_base, theta_ref = reference.suite, reference.theta_base, reference.theta_ref
    policy = ToyPolicy(theta_ref, suite.input_dim, suite.hidden_dim, suite.num_responses)
    # The reference is frozen, so its log-probabilities are computed once:
    # over pref_train in blocks shaped like a training batch (see
    # block_logprobs), over pref_eval by the same call an evaluation makes.
    ref_train = policy.block_logprobs(suite.pref_train.x, cfg.dpo.batch_size)
    ref_eval = policy.logprobs(suite.pref_eval.x)

    state = OptimizerState(theta_ref, tau_ref=delta(theta_ref, theta_base), seed=cfg.seed)
    step_fn = _OPTIMIZERS[cfg.optimizer](cfg.merge, theta_base.vector())
    loss_and_grad = dpo_loss_and_grad_into

    # The parameters and their gradient, trained in place through views made
    # once. shadow is what evaluation and the final checkpoint see: the EMA
    # shadow, or the parameters themselves when EMA is off.
    theta = theta_ref.vector().copy()
    grad = np.empty(theta.size)
    weights, grads = policy._views(theta), policy._views(grad)
    ema = cfg.ema_coefficient
    if ema is None:
        shadow = theta
    else:
        shadow, ema, ema_fn = theta.copy(), float(ema), ema_update_inplace
    beta, steps, eval_every = float(cfg.dpo.beta), cfg.dpo.steps, cfg.dpo.eval_every
    metrics = RunMetrics()

    def abort(what: str, step: int, detail: str = "") -> NonFiniteLoss:
        """The abort of step: what went non-finite, with the rows so far. At
        step 0 no step was good."""
        message = f"{what} went non-finite at step {step}{detail}"
        return NonFiniteLoss(message, last_good_step=step - 1 if step else None, metrics=metrics)

    def evaluate(step: int) -> None:
        """Append the row of the shadow at step, or abort if it is not
        finite. It evaluates a copy: with_vector makes the vector it takes
        read-only."""
        at = policy.with_params(theta_ref.with_vector(shadow.copy()))
        rec = _evaluate(at, ref_eval, suite, beta, step)
        if not all(map(math.isfinite, rec.cells())):
            raise abort("evaluation metrics", step)
        metrics.append(rec)

    evaluate(0)
    dpo_rng = np.random.default_rng([cfg.seed, 3])
    batches = _preference_batches(dpo_rng, steps, suite.pref_train, ref_train, cfg.dpo.batch_size)
    for step, (batch, ref) in enumerate(batches, 1):
        loss, _ = loss_and_grad(weights, grads, batch.x, batch.chosen, batch.rejected, ref, beta)
        if not math.isfinite(loss):
            raise abort("training loss", step)
        try:
            step_fn(theta, grad, state, cfg.adam)
        except NonFiniteGradient as e:
            raise abort("gradient", step, f": {e}") from e
        if ema is not None:
            ema_fn(shadow, theta, ema)
        if step % eval_every == 0 or step == steps:
            evaluate(step)

    return TrainResult(theta_base, theta_ref, theta_ref.with_vector(shadow), metrics)
