"""train_run trains in place on flat vectors. The oracle here is the per-step
loop it replaced, which steps ParameterSets through the public functions
(dpo_loss_and_grad, class_loss_and_grad and the *_step optimizers, ema_update)
and builds a new set every step. Both must write the same bytes: all three
checkpoints and metrics.csv, and the same abort.

Do not edit the oracle loop to follow a change of the program: a change that
alters a bit here alters checkpoints and metrics.
"""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest

from mergeopt import NonFiniteGradient, NonFiniteLoss, save_checkpoint, training
from mergeopt.cli import main
from mergeopt.optim import (
    AdamHyper,
    MergeVariant,
    OptimizerState,
    adam_step,
    childtuning_step,
    ema_update,
    full_merge_step,
    ondare_step,
    onties_step,
    stepk_step,
)
from mergeopt.params import delta
from mergeopt.policy import ToyPolicy, class_loss_and_grad, dpo_loss_and_grad
from mergeopt.tasks import PreferenceSet
from mergeopt.training import (
    OPTIMIZER_NAMES,
    RunConfig,
    RunMetrics,
    TrainResult,
    _batches,
    _evaluate,
    _preference_batches,
    make_suite,
    train_run,
)

# ---- the former per-step loop ----

FORMER_STEPS = {
    "adam": lambda m, base: adam_step,
    "adamw": lambda m, base: adam_step,
    "ondare": lambda m, base: partial(ondare_step, cfg=m),
    "onties": lambda m, base: partial(onties_step, cfg=m),
    "fullmerge": lambda m, base: partial(full_merge_step, cfg=m, base=base),
    "stepk-ondare": lambda m, base: partial(stepk_step, cfg=m, variant=MergeVariant.ONDARE),
    "stepk-onties": lambda m, base: partial(stepk_step, cfg=m, variant=MergeVariant.ONTIES),
    "childtuning": lambda m, base: partial(childtuning_step, reserve_rate=m.reserve_rate),
}


def former_supervised_phase(policy, phase, data, steps, hyper, rng, batch_size):
    state = OptimizerState(policy.params)
    params = policy.params
    rows, size = len(data), min(len(data), batch_size)
    batches = _batches(
        rng, steps, rows, size, data.x.shape[1] + 1, lambda idx: zip(data.x[idx], data.y[idx])
    )
    for step, (x, y) in enumerate(batches, 1):
        loss, grad = class_loss_and_grad(policy.with_params(params), x, y)
        if not math.isfinite(loss):
            raise NonFiniteLoss(
                f"supervised phase {phase} loss went non-finite ({loss}) at step {step}"
            )
        params = adam_step(params, grad, state, hyper)
    return policy.with_params(params)


def former_train_run(suite, cfg):
    init_rng = np.random.default_rng([cfg.seed, 0])
    policy = ToyPolicy.random_init(suite.input_dim, suite.hidden_dim, suite.num_responses, init_rng)
    phase_hyper = AdamHyper(learning_rate=cfg.phases.learning_rate)
    policy = former_supervised_phase(
        policy, "pretrain", suite.pretrain_train, cfg.phases.pretrain_steps, phase_hyper,
        np.random.default_rng([cfg.seed, 1]), cfg.phases.batch_size,
    )
    theta_base = policy.params
    policy = former_supervised_phase(
        policy, "SFT", suite.sft_train, cfg.phases.sft_steps, phase_hyper,
        np.random.default_rng([cfg.seed, 2]), cfg.phases.batch_size,
    )
    theta_ref = policy.params
    reference = policy.with_params(theta_ref)
    ref_train = reference.block_logprobs(suite.pref_train.x, cfg.dpo.batch_size)
    ref_eval = reference.logprobs(suite.pref_eval.x)

    state = OptimizerState(theta_ref, tau_ref=delta(theta_ref, theta_base), seed=cfg.seed)
    step_fn = FORMER_STEPS[cfg.optimizer](cfg.merge, theta_base)
    params = shadow = theta_ref
    ema = cfg.ema_coefficient
    metrics = RunMetrics()
    metrics.append(_evaluate(policy.with_params(shadow), ref_eval, suite, cfg.dpo.beta, step=0))

    dpo_rng = np.random.default_rng([cfg.seed, 3])
    beta, steps, eval_every = cfg.dpo.beta, cfg.dpo.steps, cfg.dpo.eval_every
    batches = _preference_batches(dpo_rng, steps, suite.pref_train, ref_train, cfg.dpo.batch_size)

    def abort(what, step, detail=""):
        message = f"{what} went non-finite at step {step}{detail}"
        return NonFiniteLoss(message, last_good_step=step - 1, metrics=metrics)

    for step, (batch, ref) in enumerate(batches, 1):
        loss, _, grad = dpo_loss_and_grad(policy.with_params(params), ref, batch, beta)
        if not math.isfinite(loss):
            raise abort("training loss", step)
        try:
            params = step_fn(params, grad, state, cfg.adam)
        except NonFiniteGradient as e:
            raise abort("gradient", step, f": {e}") from e
        shadow = params if ema is None else ema_update(shadow, params, ema)
        if step % eval_every == 0 or step == steps:
            rec = _evaluate(policy.with_params(shadow), ref_eval, suite, beta, step)
            if not all(map(math.isfinite, rec.cells())):
                raise abort("evaluation metrics", step)
            metrics.append(rec)
    return TrainResult(theta_base, theta_ref, shadow, metrics)


# ---- comparisons ----

SIZES = dict(
    pretrain_train=300, pretrain_eval=100, sft_train=300, sft_eval=100,
    pref_train=300, pref_eval=100,
)
VARIANTS = {name: {"optimizer": name} for name in OPTIMIZER_NAMES}
VARIANTS["adamw"]["adam"] = {"weight_decay": 0.01}
VARIANTS["stepk-ondare"]["merge"] = {"gap_step": 3}
VARIANTS["stepk-onties"]["merge"] = {"gap_step": 3}
VARIANTS["ondare-ema"] = {"optimizer": "ondare", "ema_coefficient": 0.05}
SHAPES = {
    "h4": {"data": {"hidden_dim": 4, "sizes": SIZES}},
    "h16": {"data": {"hidden_dim": 16, "sizes": SIZES}},
    # 257-row batches: ten steps per batch block, so 25 steps span three blocks.
    "h64-b257": {"data": {"hidden_dim": 64, "sizes": SIZES},
                 "dpo": {"batch_size": 257}, "phases": {"batch_size": 257}},
}


def config(shape, variant, **extra) -> RunConfig:
    d = {"seed": 3, "phases": {"pretrain_steps": 20, "sft_steps": 15},
         "dpo": {"steps": 25, "eval_every": 7}}
    for part in (SHAPES[shape], VARIANTS[variant], extra):
        for key, value in part.items():
            d[key] = {**d[key], **value} if isinstance(value, dict) and key in d else value
    return RunConfig.from_dict(d)


def written(result: TrainResult, where) -> dict:
    """The bytes of the run directory that result gives."""
    where.mkdir()
    out = {"metrics.csv": result.metrics.to_csv_bytes()}
    for name, p in (("theta_b", result.theta_base), ("theta_r", result.theta_ref),
                    ("theta_final", result.theta_final)):
        save_checkpoint(p, where / f"{name}.pset")
        out[name] = (where / f"{name}.pset").read_bytes()
    return out


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("shape", list(SHAPES))
def test_flat_loop_writes_the_bytes_of_the_former_loop(tmp_path, shape, variant):
    cfg = config(shape, variant)
    suite = make_suite(cfg)
    got = written(train_run(suite, cfg), tmp_path / "flat")
    want = written(former_train_run(suite, cfg), tmp_path / "former")
    assert got == want
    assert got["theta_final"] != got["theta_r"]


def with_nan_row(suite, cfg, first_step: range):
    """suite with a NaN input in a preference row that cfg's preference
    phase first draws at a step in first_step, and that step."""
    rows = len(suite.pref_train)
    rng = np.random.default_rng([cfg.seed, 3])
    draws = list(_batches(rng, max(first_step), rows, cfg.dpo.batch_size, 1, lambda idx: idx))
    first = {}
    for step, idx in enumerate(draws, 1):
        for r in idx.tolist():
            first.setdefault(r, step)
    row, step = next((r, s) for r, s in sorted(first.items()) if s in first_step)
    x = suite.pref_train.x.copy()
    x[row, 0] = np.nan
    data = PreferenceSet(x, suite.pref_train.chosen, suite.pref_train.rejected)
    return dataclasses.replace(suite, pref_train=data), step


def test_abort_in_a_later_batch_block_matches_the_former_loop():
    sizes = {**SIZES, "pref_train": 20000}
    cfg = config("h64-b257", "ondare-ema", data={"hidden_dim": 64, "sizes": sizes},
                 dpo={"batch_size": 257, "steps": 40, "eval_every": 4})
    suite, step = with_nan_row(make_suite(cfg), cfg, range(21, 31))
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLoss) as got:
        train_run(suite, cfg)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLoss) as want:
        former_train_run(suite, cfg)
    assert str(got.value) == str(want.value) == f"training loss went non-finite at step {step}"
    assert got.value.last_good_step == want.value.last_good_step == step - 1
    assert got.value.metrics.to_csv_bytes() == want.value.metrics.to_csv_bytes()
    assert [r.step for r in got.value.metrics.rows] == list(range(0, step, 4))


# ---- a non-finite gradient in the preference phase ----

POISON_STEP = 5


def poison_gradient_at(monkeypatch, step: int) -> None:
    """Make the preference gradient's w2 NaN and b2 infinite at step."""
    inner, calls = training.dpo_loss_and_grad_into, []

    def poisoned(weights, grads, *args):
        out = inner(weights, grads, *args)
        calls.append(None)
        if len(calls) == step:
            grads[2][...] = np.nan
            grads[3][...] = np.inf
        return out

    monkeypatch.setattr(training, "dpo_loss_and_grad_into", poisoned)


@pytest.mark.parametrize("optimizer", OPTIMIZER_NAMES)
def test_nonfinite_gradient_aborts_with_the_rows_before_it(tmp_path, capsys, monkeypatch, optimizer):
    cfg = config("h4", optimizer, dpo={"steps": 12, "eval_every": 2})
    suite = make_suite(cfg)
    clean = train_run(suite, cfg).metrics
    before = RunMetrics()
    for row in clean.rows:
        if row.step < POISON_STEP:
            before.append(row)
    message = (f"gradient went non-finite at step {POISON_STEP}: "
               "w2: gradient contains NaN or infinity")

    poison_gradient_at(monkeypatch, POISON_STEP)
    with pytest.raises(NonFiniteLoss) as e:
        train_run(suite, cfg)
    assert str(e.value) == message
    assert e.value.last_good_step == POISON_STEP - 1
    assert e.value.metrics.to_csv_bytes() == before.to_csv_bytes()

    poison_gradient_at(monkeypatch, POISON_STEP)
    cfg_path, out = tmp_path / "config.json", tmp_path / "run"
    cfg_path.write_bytes(cfg.to_json_bytes())
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message} (last good step {POISON_STEP - 1})\n"
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "metrics.csv"]
    assert (out / "metrics.csv").read_bytes() == before.to_csv_bytes()
