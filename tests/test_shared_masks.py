"""Runs that share a reference part through cli._reference also share its
keep-mask table: a run reads the rows an earlier run of the same seed drew.
In every order, at every keep rate and stream, and past the table's byte
budget, a run must write the bytes of a run from an empty memo."""

import json
import shutil

import pytest

from mergeopt import cli, masks
from mergeopt.cli import main

CONFIG = {
    "seed": 4,
    "dpo": {"steps": 30, "eval_every": 10},
    "phases": {"pretrain_steps": 40, "sft_steps": 40},
    "data": {"hidden_dim": 8, "sizes": dict.fromkeys(
        ("pretrain_train", "pretrain_eval", "sft_train", "sft_eval", "pref_train", "pref_eval"), 150
    )},
}


def files(run_dir) -> dict:
    return {f.name: f.read_bytes() for f in sorted(run_dir.iterdir())}


def run_in_order(tmp_path, runs):
    """Train each run's config overrides in order from an empty memo, all
    sharing one reference part, and check each run's files against a run of
    the same config from an empty memo. Returns the shared reference part."""
    cli._REFERENCES.clear()
    written = []
    for i, over in enumerate(runs):
        config = tmp_path / f"{i}.json"
        config.write_text(json.dumps({**CONFIG, **over}))
        out = tmp_path / f"run{i}"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        written.append(files(out))
    (reference,) = cli._REFERENCES.values()
    for i, shared in enumerate(written):
        cli._REFERENCES.clear()
        out = tmp_path / f"run{i}"
        shutil.rmtree(out)
        assert main(["train", "--config", str(tmp_path / f"{i}.json"), "--out", str(out)]) == 0
        assert files(out) == shared, runs[i]
    cli._REFERENCES.clear()
    return reference


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    monkeypatch.setattr(cli, "_REFERENCES", {})


ORDERS = {
    "stepk-ondare first": [
        {"optimizer": "stepk-ondare", "merge": {"gap_step": 4}},
        {"optimizer": "ondare"},
        {"optimizer": "stepk-ondare", "merge": {"gap_step": 3}},
        {"optimizer": "fullmerge"},
    ],
    "two reserve rates": [
        {"optimizer": "ondare", "merge": {"reserve_rate": 0.3}},
        {"optimizer": "ondare"},
        {"optimizer": "fullmerge", "merge": {"reserve_rate": 0.3}},
        {"optimizer": "stepk-ondare", "merge": {"reserve_rate": 0.5, "gap_step": 2}},
        {"optimizer": "ondare", "merge": {"reserve_rate": 0.3, "alpha": 0.01}},
    ],
    "childtuning's grad stream": [
        {"optimizer": "childtuning"},
        {"optimizer": "ondare"},
        {"optimizer": "childtuning"},
        {"optimizer": "childtuning", "merge": {"reserve_rate": 0.3}},
        {"optimizer": "ondare", "ema_coefficient": 0.01},
    ],
}


@pytest.mark.parametrize("runs", list(ORDERS.values()), ids=list(ORDERS))
def test_runs_reading_each_others_rows_write_a_fresh_runs_bytes(tmp_path, runs):
    reference = run_in_order(tmp_path, runs)
    assert 0 < reference.masks._kept <= masks.MASK_TABLE_BYTES


def test_runs_past_the_table_budget_write_a_fresh_runs_bytes(tmp_path, monkeypatch):
    size = 8 * 6 + 8 + 4 * 8 + 4  # the policy's parameters at hidden 8
    monkeypatch.setattr(masks, "_BLOCK_BYTES", 4 * size)  # 4 rows a block
    monkeypatch.setattr(masks, "MASK_TABLE_BYTES", 5 * 4 * size)
    runs = [
        {"optimizer": "ondare"},
        {"optimizer": "fullmerge"},
        {"optimizer": "stepk-ondare", "merge": {"gap_step": 3}},
        {"optimizer": "ondare", "ema_coefficient": 0.01},
    ]
    reference = run_in_order(tmp_path, runs)
    # 5 blocks of 4 rows are kept; 2 streams of 30 steps would need 16.
    assert reference.masks._kept == 5 * 4 * size
    assert reference.masks._u.size == size
