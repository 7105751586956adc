"""Frozen reference: OnTIES's merge as it stood before its top-p took every
tensor in one row sort, with one sparsify_top_p call per tensor on each side
and the reference side made anew each step (it is a pure function of tau_ref,
so caching it changes no bit). The merge now selects through SegmentedTopP,
which must keep exactly the same elements. So OnTIES, step-K OnTIES and
OnTIES with EMA must write the same bytes through either merge: all three
checkpoints and metrics.csv.

Do not edit the reference body to follow a change of the program: a change
that alters a bit here alters checkpoints and metrics.
"""

import numpy as np
import pytest

from mergeopt import optim, save_checkpoint
from mergeopt.kernels import sign_consensus, sparsify_top_p
from mergeopt.optim import MergeVariant
from mergeopt.training import RunConfig, make_suite, train_run

# ---- reference body ----


def former_onties_merge(state, cfg, x):
    def top_p(v):
        return np.concatenate([sparsify_top_p(v[s], cfg.reserve_rate) for _, s in state._slices])

    a = cfg.alpha
    return sign_consensus((1.0 - a) * top_p(x), a * top_p(state.tau_ref))


# ---- comparisons ----

SIZES = dict(
    pretrain_train=300, pretrain_eval=100, sft_train=300, sft_eval=100,
    pref_train=300, pref_eval=100,
)
VARIANTS = {
    "onties": {"optimizer": "onties"},
    "stepk-onties": {"optimizer": "stepk-onties", "merge": {"gap_step": 3}},
    "onties-ema": {"optimizer": "onties", "ema_coefficient": 0.05},
    "onties-p0.1": {"optimizer": "onties", "merge": {"reserve_rate": 0.1, "alpha": 0.3}},
}


def config(hidden, variant) -> RunConfig:
    return RunConfig.from_dict({
        "seed": 5, "data": {"hidden_dim": hidden, "sizes": SIZES},
        "phases": {"pretrain_steps": 20, "sft_steps": 15},
        "dpo": {"steps": 25, "eval_every": 7}, **VARIANTS[variant],
    })


def written(cfg, suite, where) -> dict:
    """The bytes of the run directory that train_run of cfg gives."""
    result = train_run(suite, cfg)
    where.mkdir()
    out = {"metrics.csv": result.metrics.to_csv_bytes()}
    for name, p in (("theta_b", result.theta_base), ("theta_r", result.theta_ref),
                    ("theta_final", result.theta_final)):
        save_checkpoint(p, where / f"{name}.pset")
        out[name] = (where / f"{name}.pset").read_bytes()
    return out


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("hidden", [4, 16, 64])
def test_onties_runs_write_the_bytes_of_the_former_merge(tmp_path, monkeypatch, hidden, variant):
    cfg = config(hidden, variant)
    suite = make_suite(cfg)
    got = written(cfg, suite, tmp_path / "segmented")
    calls = []

    def former(state, cfg):
        def merge(x):
            calls.append(None)
            return former_onties_merge(state, cfg, x)

        return merge

    monkeypatch.setattr(optim, "_onties_merge", former)
    monkeypatch.setitem(optim._MERGES, MergeVariant.ONTIES, former)
    want = written(cfg, suite, tmp_path / "former")
    assert got == want
    assert calls
    assert got["theta_final"] != got["theta_r"]
