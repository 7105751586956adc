import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergeopt import InvalidConfig, NonFiniteLoss, delta
from mergeopt.training import (
    AdamSettings,
    DataSettings,
    DpoSettings,
    MergeSettings,
    PhaseSettings,
    RunConfig,
    make_suite,
    train_run,
)
from mergeopt.tasks import SuiteSizes

FAST_DATA = DataSettings(sizes=SuiteSizes(400, 200, 400, 200, 400, 200))


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

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(InvalidConfig, match="optimizer"):
            RunConfig(optimizer="sgd")

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
        cfg = fast_config(adam=AdamSettings(learning_rate=1e-300))
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
            merge=MergeSettings(alpha=1.0, reserve_rate=1.0),
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
        cfg = fast_config(adam=AdamSettings(learning_rate=1e307))
        with pytest.raises(NonFiniteLoss) as err:
            train_run(make_suite(cfg), cfg)
        assert err.value.last_good_step is not None
        assert err.value.metrics is not None
        assert len(err.value.metrics.rows) >= 1

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
        cfg = fast_config(optimizer="fullmerge", merge=MergeSettings(alpha=1e-6, reserve_rate=1.0))
        res = train_run(make_suite(cfg), cfg)
        assert len(res.metrics.rows) >= 2
        assert all(math.isfinite(r.dpo_loss) for r in res.metrics.rows)

    @pytest.mark.parametrize("optimizer", ["adamw", "ondare", "onties", "childtuning"])
    def test_all_optimizers_produce_finite_runs(self, optimizer):
        cfg = fast_config(optimizer=optimizer)
        res = train_run(make_suite(cfg), cfg)
        assert all(math.isfinite(r.reward_margin) for r in res.metrics.rows)
