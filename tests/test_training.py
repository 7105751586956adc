import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergeopt import InvalidConfig, NonFiniteLoss, delta, training
from mergeopt.optim import AdamHyper, OnlineMergeConfig
from mergeopt.training import (
    OPTIMIZER_NAMES,
    DataSettings,
    DpoSettings,
    PhaseSettings,
    RunConfig,
    _block_steps,
    make_suite,
    train_preference,
    train_reference,
    train_run,
)
from mergeopt.tasks import SuiteSizes

FAST_DATA = DataSettings(sizes=SuiteSizes(400, 200, 400, 200, 400, 200))
METRICS_HEADER = b"step,dpo_loss,reward_margin,pref_accuracy,pretrain_accuracy,sft_accuracy\n"
ABORT_ROW_0 = b"0,0.6931471805599452,0.0,0.0,0.92,1.0\n"  # step 0 of fast_config's seed-1 suite

# config.json of a config whose adam and merge values are JSON integers:
# each is written back exactly as it was read.
INTEGER_CONFIG_JSON = b"""{
  "adam": {
    "beta1": 0.9,
    "beta2": 0.999,
    "bias_correction": true,
    "epsilon": 1e-08,
    "learning_rate": 1,
    "weight_decay": 0
  },
  "data": {
    "hidden_dim": 16,
    "input_dim": 6,
    "num_responses": 4,
    "preference_noise": 0.1,
    "sizes": {
      "pref_eval": 500,
      "pref_train": 2000,
      "pretrain_eval": 500,
      "pretrain_train": 2000,
      "sft_eval": 500,
      "sft_train": 2000
    }
  },
  "dpo": {
    "batch_size": 32,
    "beta": 0.1,
    "eval_every": 10,
    "steps": 500
  },
  "ema_coefficient": null,
  "merge": {
    "alpha": 0,
    "gap_step": 3,
    "reserve_rate": 1
  },
  "optimizer": "ondare",
  "out_dir": "run",
  "phases": {
    "batch_size": 64,
    "learning_rate": 0.05,
    "pretrain_steps": 300,
    "sft_steps": 300
  },
  "seed": 1
}
"""


def fast_config(**kw):
    base = dict(
        seed=1,
        data=FAST_DATA,
        dpo=DpoSettings(steps=50, eval_every=10),
        phases=PhaseSettings(pretrain_steps=150, sft_steps=150),
    )
    base.update(kw)
    return RunConfig(**base)


class TestRunConfig:
    def test_roundtrips_through_dict(self):
        cfg = fast_config(optimizer="stepk-onties", ema_coefficient=1e-3)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(InvalidConfig, match="bogus"):
            RunConfig.from_dict({"bogus": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(InvalidConfig, match="momentum"):
            RunConfig.from_dict({"adam": {"momentum": 0.9}})
        with pytest.raises(InvalidConfig, match="data.sizes"):
            RunConfig.from_dict({"data": {"sizes": {"x": 1}}})

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ({"adam": {"weight_decay": 0.01}}, RunConfig(adam=AdamHyper(weight_decay=0.01))),
            (
                {"data": {"hidden_dim": 4, "sizes": {"pref_train": 99}}},
                RunConfig(data=DataSettings(hidden_dim=4, sizes=SuiteSizes(pref_train=99))),
            ),
            ({"merge": {"gap_step": 5}}, RunConfig(merge=OnlineMergeConfig(gap_step=5))),
        ],
    )
    def test_partial_sections_keep_their_defaults(self, raw, expected):
        cfg = RunConfig.from_dict(raw)
        assert cfg == expected
        assert cfg.adam.learning_rate == 0.02

    @pytest.mark.parametrize("raw, where", [
        ({"data": {"sizes": 5}}, "data.sizes"),
        ([], "config"),
    ])
    def test_non_object_section_rejected_by_path(self, raw, where):
        with pytest.raises(InvalidConfig, match=f"^{where} must be a JSON object"):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize("raw, message", [
        ({"merge": {"alpha": "x"}}, "merge: alpha must be in [0, 1], got 'x'"),
        ({"adam": {"learning_rate": "x"}}, "adam: learning_rate must be a finite number, got 'x'"),
    ])
    def test_section_errors_name_their_section(self, raw, message):
        with pytest.raises(InvalidConfig) as e:
            RunConfig.from_dict(raw)
        assert str(e.value) == message

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(InvalidConfig, match="optimizer"):
            RunConfig(optimizer="sgd")

    def test_integer_values_are_written_back_unchanged(self):
        raw = {
            "optimizer": "ondare",
            "merge": {"alpha": 0, "reserve_rate": 1, "gap_step": 3},
            "adam": {"learning_rate": 1, "weight_decay": 0},
        }
        cfg = RunConfig.from_dict(raw)
        assert cfg.to_json_bytes() == INTEGER_CONFIG_JSON
        assert RunConfig.from_dict(json.loads(INTEGER_CONFIG_JSON)) == cfg

    def test_defaults_match_documented_values(self):
        cfg = RunConfig()
        assert cfg.merge.alpha == 1e-6
        assert cfg.merge.reserve_rate == 0.5
        assert cfg.merge.gap_step == 1
        assert cfg.dpo.beta == 0.1
        assert cfg.dpo.steps == 500
        assert cfg.dpo.eval_every == 10


def _field_paths(cls, prefix=()):
    """Every key path RunConfig.from_dict reads, sections included."""
    for f in dataclasses.fields(cls):
        path = prefix + (f.name,)
        yield path
        default = f.default_factory() if callable(f.default_factory) else f.default
        if dataclasses.is_dataclass(default):
            yield from _field_paths(type(default), path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(list(_field_paths(RunConfig))), _JSON)
def test_any_json_value_in_any_field_gives_config_or_invalid_config(path, value):
    # Construction only: nothing is trained, so huge sizes allocate nothing.
    raw = value
    for key in reversed(path):
        raw = {key: raw}
    try:
        assert isinstance(RunConfig.from_dict(raw), RunConfig)
    except InvalidConfig:
        pass


class TestTrainRun:
    def test_zero_learning_rate_freezes_policy(self):
        # lr must be positive; use the smallest normal value as "frozen".
        cfg = fast_config(adam=AdamHyper(learning_rate=1e-300))
        suite = make_suite(cfg)
        res = train_run(suite, cfg)
        assert np.allclose(
            np.concatenate([a for _, _, a in res.theta_final]),
            np.concatenate([a for _, _, a in res.theta_ref]),
            atol=1e-250,
        )
        pre = [r.pretrain_accuracy for r in res.metrics.rows]
        assert max(pre) - min(pre) == 0.0

    def test_initial_metrics_row(self):
        cfg = fast_config()
        res = train_run(make_suite(cfg), cfg)
        first = res.metrics.rows[0]
        assert first.step == 0
        assert first.dpo_loss == pytest.approx(math.log(2.0), abs=1e-12)
        assert first.reward_margin == pytest.approx(0.0, abs=1e-12)

    def test_reference_frozen_during_dpo(self):
        cfg = fast_config()
        suite = make_suite(cfg)
        res = train_run(suite, cfg)
        # theta_r is emitted before DPO starts; rerunning must produce the
        # identical reference (the run never mutates it).
        res2 = train_run(suite, cfg)
        assert res.theta_ref == res2.theta_ref

    def test_metrics_csv_bytes_deterministic(self):
        cfg = fast_config(optimizer="ondare")
        a = train_run(make_suite(cfg), cfg).metrics.to_csv_bytes()
        b = train_run(make_suite(cfg), cfg).metrics.to_csv_bytes()
        assert a == b
        header = a.split(b"\n")[0].decode()
        assert header == "step,dpo_loss,reward_margin,pref_accuracy,pretrain_accuracy,sft_accuracy"

    def test_full_reference_pull_drifts_by_tau_each_step(self):
        # alpha=1, p=1: every update is exactly tau_r.
        steps = 5
        cfg = fast_config(
            optimizer="ondare",
            merge=OnlineMergeConfig(alpha=1.0, reserve_rate=1.0),
            dpo=DpoSettings(steps=steps, eval_every=steps),
        )
        suite = make_suite(cfg)
        res = train_run(suite, cfg)
        tau = delta(res.theta_ref, res.theta_base)
        for name, _, arr in res.theta_final:
            expected = res.theta_ref.flat(name) + steps * tau.flat(name)
            assert np.allclose(arr, expected, rtol=0, atol=1e-10)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_aborts_with_partial_metrics(self):
        # A colossal learning rate overflows the logit matmul within a few
        # steps; the guard must record the last good step and keep metrics.
        cfg = fast_config(adam=AdamHyper(learning_rate=1e307))
        with pytest.raises(NonFiniteLoss) as err:
            train_run(make_suite(cfg), cfg)
        assert str(err.value) == "training loss went non-finite at step 4"
        assert err.value.last_good_step == 3
        assert err.value.metrics.to_csv_bytes() == METRICS_HEADER + ABORT_ROW_0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_abort_inside_a_later_batch_block(self):
        # Decoupled decay with lr * wd = 2e7 multiplies the parameters by
        # about -2e7 per step, so the loss overflows at step 43: inside the
        # fifth 10-step block of 257-row batches, after four evaluations.
        cfg = fast_config(
            adam=AdamHyper(learning_rate=0.02, weight_decay=1e9),
            dpo=DpoSettings(steps=200, eval_every=10, batch_size=257),
        )
        assert _block_steps(257, 6 + 2 + 4) == 10
        with pytest.raises(NonFiniteLoss) as err:
            train_run(make_suite(cfg), cfg)
        assert str(err.value) == "training loss went non-finite at step 43"
        assert err.value.last_good_step == 42
        assert err.value.metrics.to_csv_bytes() == METRICS_HEADER + ABORT_ROW_0 + (
            b"10,5.380301065713656e+72,-2.3033734029588335e+72,0.39,0.94,1.0\n"
            b"20,5.509425536577259e+145,-2.3586531853029288e+145,0.39,0.94,1.0\n"
            b"30,5.6416489286298715e+218,-2.415259654120039e+218,0.39,0.94,1.0\n"
            b"40,5.777045614393387e+291,-2.4732246492062552e+291,0.39,0.94,1.0\n"
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_supervised_loss_names_phase_and_step(self):
        cfg = fast_config(phases=PhaseSettings(150, 150, learning_rate=1e307))
        with pytest.raises(NonFiniteLoss) as err:
            train_run(make_suite(cfg), cfg)
        assert str(err.value) == "supervised phase pretrain loss went non-finite (inf) at step 2"
        assert err.value.last_good_step is None and err.value.metrics is None

    def test_ema_shadow_is_final_checkpoint(self):
        cfg = fast_config(ema_coefficient=1e-3)
        plain = dataclasses.replace(cfg, ema_coefficient=None)
        res_ema = train_run(make_suite(cfg), cfg)
        res_plain = train_run(make_suite(plain), plain)
        assert res_ema.theta_final != res_plain.theta_final
        # With c=1e-3 over 50 steps the shadow covers well under 5% of the
        # raw displacement from theta_r.
        def dist(a, b):
            return math.sqrt(
                sum(float(np.sum((a.flat(n) - b.flat(n)) ** 2)) for n in a.names)
            )

        shadow_moved = dist(res_ema.theta_final, res_ema.theta_ref)
        raw_moved = dist(res_plain.theta_final, res_plain.theta_ref)
        assert shadow_moved < 0.1 * raw_moved

    def test_fullmerge_runs_and_records_metrics(self):
        cfg = fast_config(
            optimizer="fullmerge", merge=OnlineMergeConfig(alpha=1e-6, reserve_rate=1.0)
        )
        res = train_run(make_suite(cfg), cfg)
        assert len(res.metrics.rows) >= 2
        assert all(math.isfinite(r.dpo_loss) for r in res.metrics.rows)

    @pytest.mark.parametrize("optimizer", ["adamw", "ondare", "onties", "childtuning"])
    def test_all_optimizers_produce_finite_runs(self, optimizer):
        cfg = fast_config(optimizer=optimizer)
        res = train_run(make_suite(cfg), cfg)
        assert all(math.isfinite(r.reward_margin) for r in res.metrics.rows)


@pytest.mark.parametrize("optimizer", OPTIMIZER_NAMES)
def test_every_step_calls_the_step_function_bound_at_run_start(monkeypatch, optimizer):
    """Each phase binds its step through the name bind in mergeopt.training
    when it starts, so a binder put there after import sees every step: the
    pretrain and SFT phases bind "adam", the preference phase the run's
    optimizer, and each step calls its phase's bound step once."""
    inner, bound, calls = training.bind, [], []

    def counting_bind(name, *args, **kwargs):
        bound.append(name)
        step = inner(name, *args, **kwargs)

        def counted(*step_args):
            calls.append(name)
            return step(*step_args)

        return counted

    monkeypatch.setattr(training, "bind", counting_bind)
    cfg = fast_config(
        optimizer=optimizer,
        dpo=DpoSettings(steps=7, eval_every=5),
        phases=PhaseSettings(pretrain_steps=3, sft_steps=2),
    )
    train_run(make_suite(cfg), cfg)
    assert bound == ["adam", "adam", optimizer]
    assert calls == ["adam"] * (3 + 2) + [optimizer] * 7


def same_result(a, b) -> bool:
    return a.theta_final == b.theta_final and a.metrics.to_csv_bytes() == b.metrics.to_csv_bytes()


def test_a_reference_computes_its_rows_and_masks_once_for_all_its_runs(monkeypatch):
    cfg = fast_config(optimizer="ondare", dpo=DpoSettings(steps=20, eval_every=10))
    reference = train_reference(make_suite(cfg), cfg)
    train_preference(reference, cfg)
    ref_train = reference.ref_train(cfg.dpo.batch_size)
    assert reference.ref_train(cfg.dpo.batch_size) is ref_train
    reference.masks._gen = None  # OnDARE drew every row the runs below read

    def no_delta(*args):
        raise AssertionError("the reference part holds tau_ref")

    for over in (dict(optimizer="fullmerge"), dict(optimizer="stepk-ondare"),
                 dict(ema_coefficient=0.01)):
        run = dataclasses.replace(cfg, **over)
        want = train_run(make_suite(run), run)
        with monkeypatch.context() as m:
            m.setattr(training, "delta", no_delta)
            assert same_result(train_preference(reference, run), want)
    rows = [reference.ref_eval, ref_train, reference.masks.row(20, "update", 0.5),
            reference.tau_ref.vector()]
    for a in rows:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


def test_a_reference_run_under_another_seed_draws_its_own_masks():
    cfg = fast_config(optimizer="ondare", dpo=DpoSettings(steps=20, eval_every=10))
    other = dataclasses.replace(cfg, seed=2)
    reference = train_reference(make_suite(cfg), cfg)
    reference.masks._gen = None  # its table is cfg.seed's: the run must not read it
    got = train_preference(reference, other)
    assert same_result(got, train_preference(train_reference(make_suite(cfg), cfg), other))
