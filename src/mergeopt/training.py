"""Desk-scale training pipeline: supervised pretrain, supervised SFT, then a
preference-optimization phase driven by any of the configured optimizers.

A run is fully determined by (config, seed): data, batch order, mask streams,
and metrics bytes all reproduce exactly.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .errors import InvalidConfig, NonFiniteGradient, NonFiniteLoss
from .optim import (
    AdamHyper,
    MergeVariant,
    OnlineMergeConfig,
    OptimizerState,
    adam_step,
    childtuning_step,
    ema_update,
    full_merge_step,
    ondare_step,
    onties_step,
    stepk_step,
)
from .params import ParameterSet, delta
from .policy import ToyPolicy, class_loss_and_grad, dpo_loss, dpo_loss_and_grad
from .tasks import SuiteSizes, TaskSuite, check_data, check_rows, gen_task_suite, is_count, is_real

OPTIMIZER_NAMES = (
    "adam",
    "adamw",
    "ondare",
    "onties",
    "fullmerge",
    "stepk-ondare",
    "stepk-onties",
    "childtuning",
)

METRICS_HEADER = "step,dpo_loss,reward_margin,pref_accuracy,pretrain_accuracy,sft_accuracy"


@dataclass(frozen=True)
class MetricsRecord:
    step: int
    dpo_loss: float
    reward_margin: float
    pref_accuracy: float
    pretrain_accuracy: float
    sft_accuracy: float


class RunMetrics:
    """Per-interval evaluation records; serializes to a fixed-schema CSV."""

    def __init__(self):
        self.rows: list[MetricsRecord] = []

    def append(self, rec: MetricsRecord) -> None:
        self.rows.append(rec)

    def last(self) -> MetricsRecord:
        return self.rows[-1]

    def to_csv_bytes(self) -> bytes:
        buf = io.StringIO()
        buf.write(METRICS_HEADER + "\n")
        for r in self.rows:
            buf.write(
                f"{r.step},{float(r.dpo_loss)!r},{float(r.reward_margin)!r},"
                f"{float(r.pref_accuracy)!r},{float(r.pretrain_accuracy)!r},"
                f"{float(r.sft_accuracy)!r}\n"
            )
        return buf.getvalue().encode("utf-8")

    def write(self, path) -> None:
        with open(path, "wb") as f:
            f.write(self.to_csv_bytes())


def _take(d, allowed: set, where: str) -> dict:
    if not isinstance(d, dict):
        raise InvalidConfig(f"{where} must be a JSON object, got {d!r}")
    unknown = set(d) - allowed
    if unknown:
        raise InvalidConfig(f"unknown {where} key(s): {sorted(unknown)}")
    return dict(d)


@dataclass(frozen=True)
class AdamSettings:
    learning_rate: float = 0.02
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    bias_correction: bool = True

    def to_hyper(self) -> AdamHyper:
        return AdamHyper(**asdict(self))


@dataclass(frozen=True)
class MergeSettings:
    alpha: float = 1e-6
    reserve_rate: float = 0.5
    gap_step: int = 1


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
class DataSettings:
    input_dim: int = 6
    hidden_dim: int = 16
    num_responses: int = 4
    preference_noise: float = 0.1
    sizes: SuiteSizes = field(default_factory=SuiteSizes)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 1
    out_dir: str = "run"
    optimizer: str = "adamw"
    adam: AdamSettings = field(default_factory=AdamSettings)
    merge: MergeSettings = field(default_factory=MergeSettings)
    dpo: DpoSettings = field(default_factory=DpoSettings)
    phases: PhaseSettings = field(default_factory=PhaseSettings)
    data: DataSettings = field(default_factory=DataSettings)
    ema_coefficient: Optional[float] = None

    def __post_init__(self):
        if self.optimizer not in OPTIMIZER_NAMES:
            raise InvalidConfig(
                f"unknown optimizer {self.optimizer!r}; choose from {OPTIMIZER_NAMES}"
            )
        if not isinstance(self.out_dir, str):
            raise InvalidConfig(f"out_dir must be a string, got {self.out_dir!r}")
        if not is_count(self.seed, 0) or self.seed >= 1 << 64:
            raise InvalidConfig(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        a, m = self.adam, self.merge
        for where, value, least in (
            ("dpo.steps", self.dpo.steps, 0),
            ("dpo.eval_every", self.dpo.eval_every, 1),
            ("dpo.batch_size", self.dpo.batch_size, 1),
            ("phases.pretrain_steps", self.phases.pretrain_steps, 0),
            ("phases.sft_steps", self.phases.sft_steps, 0),
            ("phases.batch_size", self.phases.batch_size, 1),
            ("merge.gap_step", m.gap_step, 1),
        ):
            if not is_count(value, least):
                raise InvalidConfig(f"{where} must be an integer >= {least}, got {value!r}")
        reals = [
            ("adam.learning_rate", a.learning_rate),
            ("adam.beta1", a.beta1),
            ("adam.beta2", a.beta2),
            ("adam.epsilon", a.epsilon),
            ("adam.weight_decay", a.weight_decay),
            ("phases.learning_rate", self.phases.learning_rate),
            ("merge.alpha", m.alpha),
            ("merge.reserve_rate", m.reserve_rate),
            ("dpo.beta", self.dpo.beta),
        ]
        if self.ema_coefficient is not None:
            reals.append(("ema_coefficient", self.ema_coefficient))
        for where, value in reals:
            if not is_real(value):
                raise InvalidConfig(f"{where} must be a finite number, got {value!r}")
        if not isinstance(a.bias_correction, bool):
            raise InvalidConfig(f"adam.bias_correction must be true or false, got {a.bias_correction!r}")
        if not self.dpo.beta > 0:
            raise InvalidConfig(f"dpo.beta must be positive, got {self.dpo.beta!r}")
        if self.ema_coefficient is not None and not (0.0 < self.ema_coefficient < 1.0):
            raise InvalidConfig(f"ema_coefficient must be in (0, 1), got {self.ema_coefficient}")
        d = self.data
        check_data(d.input_dim, d.hidden_dim, d.num_responses, d.sizes, d.preference_noise)
        check_rows("dpo.batch_size", self.dpo.batch_size, d.input_dim)
        try:
            a.to_hyper()
            AdamHyper(learning_rate=self.phases.learning_rate)
            OnlineMergeConfig(MergeVariant.ONDARE, m.alpha, m.reserve_rate, m.gap_step)
        except ValueError as e:
            raise InvalidConfig(str(e)) from e

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = _take(
            d,
            {"seed", "out_dir", "optimizer", "adam", "merge", "dpo", "phases", "data",
             "ema_coefficient"},
            "config",
        )
        if "adam" in d:
            d["adam"] = AdamSettings(**_take(d["adam"], set(AdamSettings.__dataclass_fields__), "adam"))
        if "merge" in d:
            d["merge"] = MergeSettings(**_take(d["merge"], set(MergeSettings.__dataclass_fields__), "merge"))
        if "dpo" in d:
            d["dpo"] = DpoSettings(**_take(d["dpo"], set(DpoSettings.__dataclass_fields__), "dpo"))
        if "phases" in d:
            d["phases"] = PhaseSettings(**_take(d["phases"], set(PhaseSettings.__dataclass_fields__), "phases"))
        if "data" in d:
            data = _take(d["data"], set(DataSettings.__dataclass_fields__), "data")
            if "sizes" in data:
                data["sizes"] = SuiteSizes(**_take(data["sizes"], set(SuiteSizes.__dataclass_fields__), "data.sizes"))
            d["data"] = DataSettings(**data)
        return cls(**d)

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
    return gen_task_suite(
        seed=cfg.seed,
        input_dim=cfg.data.input_dim,
        hidden_dim=cfg.data.hidden_dim,
        num_responses=cfg.data.num_responses,
        sizes=cfg.data.sizes,
        preference_noise=cfg.data.preference_noise,
    )


def _supervised_phase(policy: ToyPolicy, data, steps, hyper, rng, seed, batch_size) -> ToyPolicy:
    state = OptimizerState(policy.params, seed=seed)
    params = policy.params
    rows, size = len(data), min(len(data), batch_size)
    for _ in range(steps):
        idx = rng.integers(0, rows, size=size)
        loss, grad = class_loss_and_grad(policy.with_params(params), data.x[idx], data.y[idx])
        if not math.isfinite(loss):
            raise NonFiniteLoss(f"supervised phase loss went non-finite ({loss})")
        params = adam_step(params, grad, state, hyper)
    return policy.with_params(params)


def _build_optimizer(cfg: RunConfig, theta_base: ParameterSet):
    """The optimizer's step function, bound once to its merge settings.

    The table is built per call so that it picks up this module's current
    step-function names.
    """
    m = cfg.merge
    if cfg.optimizer in ("adam", "adamw"):
        return adam_step
    if cfg.optimizer == "childtuning":
        return partial(childtuning_step, reserve_rate=m.reserve_rate)
    step, variant = {
        "ondare": (ondare_step, MergeVariant.ONDARE),
        "onties": (onties_step, MergeVariant.ONTIES),
        "fullmerge": (full_merge_step, MergeVariant.FULL_MERGE),
        "stepk-ondare": (stepk_step, MergeVariant.ONDARE),
        "stepk-onties": (stepk_step, MergeVariant.ONTIES),
    }[cfg.optimizer]
    return partial(step, cfg=OnlineMergeConfig(
        variant, m.alpha, m.reserve_rate, gap_step=m.gap_step, base_for_full_merge=theta_base
    ))


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


def train_run(suite: TaskSuite, cfg: RunConfig) -> TrainResult:
    """Run pretrain -> SFT -> preference optimization and collect metrics.

    Evaluation rows (at step 0 and every eval_every steps) use the evaluation
    splits; when EMA is enabled they evaluate the shadow parameters, and the
    final checkpoint is the shadow. A non-finite training loss aborts with
    NonFiniteLoss carrying the metrics collected so far.
    """
    init_rng = np.random.default_rng([cfg.seed, 0])
    policy = ToyPolicy.random_init(
        suite.input_dim, suite.hidden_dim, suite.num_responses, init_rng
    )

    phase_hyper = AdamHyper(learning_rate=cfg.phases.learning_rate)
    pre_rng = np.random.default_rng([cfg.seed, 1])
    policy = _supervised_phase(
        policy, suite.pretrain_train, cfg.phases.pretrain_steps, phase_hyper, pre_rng,
        cfg.seed, cfg.phases.batch_size,
    )
    theta_base = policy.params

    sft_rng = np.random.default_rng([cfg.seed, 2])
    policy = _supervised_phase(
        policy, suite.sft_train, cfg.phases.sft_steps, phase_hyper, sft_rng,
        cfg.seed, cfg.phases.batch_size,
    )
    theta_ref = policy.params
    # The reference is frozen, so its log-probabilities are computed once:
    # over pref_train in blocks shaped like a training batch (see
    # block_logprobs), over pref_eval by the same call an evaluation makes.
    reference = policy.with_params(theta_ref)
    ref_train = reference.block_logprobs(suite.pref_train.x, cfg.dpo.batch_size)
    ref_eval = reference.logprobs(suite.pref_eval.x)

    tau_ref = delta(theta_ref, theta_base)
    state = OptimizerState(
        theta_ref,
        tau_ref=tau_ref,
        seed=cfg.seed,
        track_ema=cfg.ema_coefficient is not None,
    )
    step_fn = _build_optimizer(cfg, theta_base)
    hyper = cfg.adam.to_hyper()

    metrics = RunMetrics()

    def eval_policy(params: ParameterSet) -> ToyPolicy:
        if cfg.ema_coefficient is not None:
            return policy.with_params(state.ema_parameters())
        return policy.with_params(params)

    params = theta_ref
    metrics.append(_evaluate(eval_policy(params), ref_eval, suite, cfg.dpo.beta, step=0))

    dpo_rng = np.random.default_rng([cfg.seed, 3])
    pref_train, n_train = suite.pref_train, len(suite.pref_train)
    beta, steps, eval_every = cfg.dpo.beta, cfg.dpo.steps, cfg.dpo.eval_every
    last_good = 0
    for step in range(1, steps + 1):
        idx = dpo_rng.integers(0, n_train, size=cfg.dpo.batch_size)
        batch = pref_train.take(idx)
        try:
            loss, _, grad = dpo_loss_and_grad(
                policy.with_params(params), ref_train[idx], batch, beta
            )
            if not math.isfinite(loss):
                raise NonFiniteLoss(
                    f"training loss went non-finite at step {step}",
                    last_good_step=last_good,
                    metrics=metrics,
                )
            params = step_fn(params, grad, state, hyper)
        except NonFiniteGradient as e:
            raise NonFiniteLoss(
                f"gradient went non-finite at step {step}: {e}",
                last_good_step=last_good,
                metrics=metrics,
            ) from e
        if cfg.ema_coefficient is not None:
            ema_update(state, params, cfg.ema_coefficient)
        last_good = step
        if step % eval_every == 0 or step == steps:
            rec = _evaluate(eval_policy(params), ref_eval, suite, beta, step)
            if not all(
                math.isfinite(v)
                for v in (rec.dpo_loss, rec.reward_margin, rec.pref_accuracy,
                          rec.pretrain_accuracy, rec.sft_accuracy)
            ):
                raise NonFiniteLoss(
                    f"evaluation metrics went non-finite at step {step}",
                    last_good_step=last_good - 1,
                    metrics=metrics,
                )
            metrics.append(rec)

    theta_final = state.ema_parameters() if cfg.ema_coefficient is not None else params
    return TrainResult(theta_base, theta_ref, theta_final, metrics)
