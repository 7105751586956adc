import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mergeopt import ParameterSet, cli, load_checkpoint, save_checkpoint
from mergeopt.cli import main
from mergeopt.training import RunConfig

SRC = str(Path(__file__).resolve().parent.parent / "src")

FAST_CONFIG = {
    "seed": 1,
    "optimizer": "adamw",
    "dpo": {"steps": 40, "eval_every": 10},
    "phases": {"pretrain_steps": 120, "sft_steps": 120},
    "data": {
        "sizes": {
            "pretrain_train": 400,
            "pretrain_eval": 200,
            "sft_train": 400,
            "sft_eval": 200,
            "pref_train": 400,
            "pref_eval": 200,
        }
    },
}


def write_config(tmp_path, **overrides) -> Path:
    cfg = json.loads(json.dumps(FAST_CONFIG))
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def checkpoint(tmp_path, name, arrays) -> Path:
    path = tmp_path / name
    save_checkpoint(ParameterSet((n, np.shape(a), a) for n, a in arrays.items()), path)
    return path


class TestMerge:
    def test_linear_merge_of_identical_copies_is_identity(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        model = {"w": rng.normal(size=(4, 2)), "b": rng.normal(size=3)}
        base = checkpoint(tmp_path, "base.pset", {"w": np.zeros((4, 2)), "b": np.zeros(3)})
        m1 = checkpoint(tmp_path, "m1.pset", model)
        m2 = checkpoint(tmp_path, "m2.pset", model)
        out = tmp_path / "merged.pset"
        code = main(
            ["merge", str(m1), str(m2), "--base", str(base), "--out", str(out),
             "--method", "linear", "--weights", "0.5", "0.5"]
        )
        assert code == 0
        assert load_checkpoint(out) == load_checkpoint(m1)
        assert "tensor" in capsys.readouterr().out

    def test_dare_p1_byte_identical_to_linear(self, tmp_path):
        rng = np.random.default_rng(1)
        base = checkpoint(tmp_path, "base.pset", {"w": rng.normal(size=8)})
        m1 = checkpoint(tmp_path, "m1.pset", {"w": rng.normal(size=8)})
        m2 = checkpoint(tmp_path, "m2.pset", {"w": rng.normal(size=8)})
        lin, dare = tmp_path / "lin.pset", tmp_path / "dare.pset"
        args = [str(m1), str(m2), "--base", str(base), "--weights", "0.4", "0.7"]
        assert main(["merge", *args, "--out", str(lin), "--method", "linear"]) == 0
        assert main(["merge", *args, "--out", str(dare), "--method", "dare", "--density", "1.0"]) == 0
        assert lin.read_bytes() == dare.read_bytes()

    def test_missing_base_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["merge", "model.pset", "--out", "x.pset"])
        assert exc.value.code == 2

    def test_misaligned_models_exit_one(self, tmp_path, capsys):
        base = checkpoint(tmp_path, "base.pset", {"w": np.zeros(2)})
        bad = checkpoint(tmp_path, "bad.pset", {"v": np.zeros(2)})
        code = main(
            ["merge", str(bad), "--base", str(base), "--out", str(tmp_path / "o.pset")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_corrupt_checkpoint_exit_one(self, tmp_path, capsys):
        base = tmp_path / "base.pset"
        base.write_bytes(b"garbage")
        code = main(["merge", str(base), "--base", str(base), "--out", str(tmp_path / "o.pset")])
        assert code == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("method", ["linear", "dare", "ties"])
    def test_nonfinite_merge_exit_one_without_output(self, tmp_path, capsys, method):
        # Finite weights whose weighted sum overflows to infinity.
        base = checkpoint(tmp_path, "base.pset", {"w": np.zeros(2)})
        model = checkpoint(tmp_path, "m.pset", {"w": np.ones(2)})
        out = tmp_path / "o.pset"
        code = main(["merge", str(model), str(model), "--base", str(base), "--out", str(out),
                     "--method", method, "--weights", "1e308", "1e308"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "NaN or infinity" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "extra",
    [
        ["--weights", "-1", "1"],
        ["--weights", "nan", "1"],
        ["--weights", "1"],
        ["--method", "dare", "--seed", "-1"],
        ["--seed", str(2**64)],
    ],
    ids=["weight -1", "weight nan", "weight count", "dare seed -1", "seed 2**64"],
)
def test_bad_merge_arguments_exit_two_before_loading(tmp_path, capsys, extra):
    # The checkpoints do not exist: the arguments must fail before any is read.
    missing = [str(tmp_path / n) for n in ("m1.pset", "m2.pset")]
    args = ["merge", *missing, "--base", str(tmp_path / "base.pset"),
            "--out", str(tmp_path / "o.pset"), *extra]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err


class TestTrain:
    def test_writes_run_directory(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, out_dir=str(tmp_path / "run"))
        assert main(["train", "--config", str(cfg_path)]) == 0
        run = tmp_path / "run"
        for artifact in ("theta_b.pset", "theta_r.pset", "theta_final.pset",
                         "metrics.csv", "config.json"):
            assert (run / artifact).exists()
        echoed = RunConfig.from_dict(json.loads((run / "config.json").read_text()))
        assert echoed.seed == 1
        header = (run / "metrics.csv").read_text().splitlines()[0]
        assert header == "step,dpo_loss,reward_margin,pref_accuracy,pretrain_accuracy,sft_accuracy"

    def test_deterministic_across_process_invocations(self, tmp_path):
        cfg_path = write_config(tmp_path)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            env = dict(os.environ, PYTHONPATH=SRC)
            proc = subprocess.run(
                [sys.executable, "-m", "mergeopt.cli", "train",
                 "--config", str(cfg_path), "--out", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        a, b = outs
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        for ck in ("theta_b.pset", "theta_r.pset", "theta_final.pset"):
            assert (a / ck).read_bytes() == (b / ck).read_bytes()

    def test_reduction_equivalence_through_cli(self, tmp_path):
        base = write_config(
            tmp_path, out_dir=str(tmp_path / "adam"), optimizer="adamw"
        )
        assert main(["train", "--config", str(base)]) == 0
        cfg2 = json.loads(base.read_text())
        cfg2.update(optimizer="ondare", merge={"alpha": 0.0, "reserve_rate": 1.0})
        (tmp_path / "c2.json").write_text(json.dumps(cfg2))
        assert main(
            ["train", "--config", str(tmp_path / "c2.json"), "--out", str(tmp_path / "ond")]
        ) == 0
        assert (tmp_path / "adam" / "theta_final.pset").read_bytes() == (
            tmp_path / "ond" / "theta_final.pset"
        ).read_bytes()

    def test_unknown_config_key_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": 1, "lr": 0.1}))
        assert main(["train", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_abort_exit_one_with_partial_metrics(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path, out_dir=str(tmp_path / "boom"), adam={"learning_rate": 1e307}
        )
        assert main(["train", "--config", str(cfg_path)]) == 1
        metrics = tmp_path / "boom" / "metrics.csv"
        assert metrics.exists()
        assert len(metrics.read_text().splitlines()) >= 2

    def test_config_json_roundtrips(self, tmp_path):
        cfg_path = write_config(tmp_path, out_dir=str(tmp_path / "run"))
        assert main(["train", "--config", str(cfg_path)]) == 0
        echoed = RunConfig.from_dict(
            json.loads((tmp_path / "run" / "config.json").read_text())
        )
        original = RunConfig.from_dict(json.loads(cfg_path.read_text()))
        assert echoed == original


INVALID_CONFIGS = {
    "eval_every 0": {"dpo": {"eval_every": 0}},
    "steps -5": {"dpo": {"steps": -5}},
    "batch_size 0": {"dpo": {"batch_size": 0}},
    "alpha 2": {"merge": {"alpha": 2}},
    "reserve_rate 0": {"merge": {"reserve_rate": 0}},
    "gap_step 0": {"merge": {"gap_step": 0}},
    "learning_rate -1": {"adam": {"learning_rate": -1}},
    "phase learning_rate 0": {"phases": {"learning_rate": 0}},
    "seed string": {"seed": "x"},
    "adam not an object": {"adam": 5},
    "hidden_dim 0": {"data": {"hidden_dim": 0}},
    "not JSON": None,
    "ema_coefficient string": {"ema_coefficient": "x"},
    "beta string": {"dpo": {"beta": "x"}},
    "beta 0": {"dpo": {"beta": 0}},
    "input_dim string": {"data": {"input_dim": "x"}},
    "preference_noise string": {"data": {"preference_noise": "x"}},
    "num_responses 2.5": {"data": {"num_responses": 2.5}},
    "size string": {"data": {"sizes": {"pretrain_train": "x"}}},
    "size 2.5": {"data": {"sizes": {"pretrain_train": 2.5}}},
    "bias_correction string": {"adam": {"bias_correction": "no"}},
    "size 2**62": {"data": {"sizes": {"pretrain_train": 2**62}}},
    "dpo batch_size 2**62": {"dpo": {"batch_size": 2**62}},
}


@pytest.mark.parametrize("label", list(INVALID_CONFIGS))
def test_invalid_config_exits_two_before_training(tmp_path, capsys, monkeypatch, label):
    def no_data(cfg):
        raise AssertionError("the task suite was built for an invalid config")

    monkeypatch.setattr(cli, "make_suite", no_data)
    override = INVALID_CONFIGS[label]
    if override is None:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"seed": 1,')
    else:
        cfg_path = write_config(tmp_path, **override)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert not list(tmp_path.rglob("*.pset"))


def test_out_of_memory_exits_one_without_traceback(tmp_path, capsys, monkeypatch):
    def no_memory(cfg):
        raise MemoryError

    monkeypatch.setattr(cli, "make_suite", no_memory)
    cfg_path = write_config(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "out of memory" in err
    assert "Traceback" not in err


class TestSweep:
    def test_degenerate_grid_matches_single_train(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MERGEOPT_THREADS", "1")
        cfg_path = write_config(tmp_path, optimizer="ondare")
        sweep_dir = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", str(cfg_path), "--out", str(sweep_dir),
             "--alpha", "1e-6", "--seeds", "1"]
        ) == 0
        rows = (sweep_dir / "sweep_summary.csv").read_text().splitlines()
        assert len(rows) == 2
        cells = dict(zip(rows[0].split(","), rows[1].split(",")))
        assert cells["status"] == "ok"

        run_dir = tmp_path / "single"
        cfg2 = json.loads(cfg_path.read_text())
        cfg2.update(optimizer="ondare", merge={"alpha": 1e-6})
        (tmp_path / "c2.json").write_text(json.dumps(cfg2))
        assert main(["train", "--config", str(tmp_path / "c2.json"), "--out", str(run_dir)]) == 0
        tail = (run_dir / "metrics.csv").read_text().splitlines()[-1].split(",")
        assert float(cells["final_pref_accuracy"]) == float(tail[3])
        assert float(cells["final_pretrain_accuracy"]) == float(tail[4])
        assert float(cells["final_reward_margin"]) == float(tail[2])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_per_point_failures_recorded_and_sweep_continues(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MERGEOPT_THREADS", "1")
        cfg_path = write_config(tmp_path, adam={"learning_rate": 1e307})
        sweep_dir = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", str(cfg_path), "--out", str(sweep_dir),
             "--alpha", "1e-6", "1e-5", "--seeds", "1"]
        ) == 0
        rows = (sweep_dir / "sweep_summary.csv").read_text().splitlines()
        assert len(rows) == 3
        assert all("failed" in r for r in rows[1:])
        # Each failed point leaves what `mergeopt train` leaves for its config:
        # config.json and the partial metrics.csv, byte for byte.
        points = sorted(p for p in sweep_dir.iterdir() if p.is_dir())
        assert len(points) == 2
        for point in points:
            assert sorted(f.name for f in point.iterdir()) == ["config.json", "metrics.csv"]
            alone = tmp_path / f"train-{point.name}"
            assert main(["train", "--config", str(point / "config.json"), "--out", str(alone)]) == 1
            assert (point / "metrics.csv").read_bytes() == (alone / "metrics.csv").read_bytes()

    def test_parallel_matches_sequential(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, optimizer="ondare")
        monkeypatch.setenv("MERGEOPT_THREADS", "1")
        assert main(
            ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "seq"),
             "--alpha", "1e-6", "1e-4", "--seeds", "1"]
        ) == 0
        monkeypatch.setenv("MERGEOPT_THREADS", "2")
        assert main(
            ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "par"),
             "--alpha", "1e-6", "1e-4", "--seeds", "1"]
        ) == 0
        assert (tmp_path / "seq" / "sweep_summary.csv").read_bytes() == (
            tmp_path / "par" / "sweep_summary.csv"
        ).read_bytes()


class TestGendataInspect:
    def test_inspect_lists_tensors_in_order(self, tmp_path, capsys):
        path = checkpoint(
            tmp_path, "x.pset", {"zeta": np.ones(3), "alpha": np.zeros((2, 2))}
        )
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.index("zeta") < out.index("alpha")

    def test_inspect_diff_identical_files_all_zero(self, tmp_path, capsys):
        path = checkpoint(tmp_path, "x.pset", {"w": np.linspace(0, 1, 5)})
        assert main(["inspect", str(path), "--diff", str(path)]) == 0
        out = capsys.readouterr().out
        assert "delta norms" in out
        assert "TOTAL" in out
        total_line = [l for l in out.splitlines() if l.startswith("TOTAL")][0]
        assert float(total_line.split()[-1]) == 0.0

    def test_inspect_bad_file_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.pset"
        bad.write_bytes(b"nope")
        assert main(["inspect", str(bad)]) == 1

    @pytest.mark.parametrize(
        "entry,payload_len",
        [
            ('{"name":"w","shape":[Infinity],"offset":0,"len":1}', 8),
            ('{"name":"w","shape":"12","offset":0,"len":2}', 16),
            ('{"name":"w","shape":[1],"offset":false,"len":true}', 8),
            ("[" * 100_000 + "]" * 100_000, 0),
        ],
        ids=["shape Infinity", "shape string", "offset and len bools", "nested 100000 deep"],
    )
    def test_inspect_malformed_header_exit_one(self, tmp_path, capsys, entry, payload_len):
        header = ('{"entries":[%s],"dtype":"f64","version":1}' % entry).encode()
        bad = tmp_path / "bad.pset"
        bad.write_bytes(
            b"PSET1\n" + len(header).to_bytes(4, "little") + header + b"\x00" * payload_len
        )
        assert main(["inspect", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "other",
        [{"w": np.ones(3)}, {"v": np.ones(2), "b": np.ones(1)}],
        ids=["shape differs", "name differs"],
    )
    def test_inspect_diff_misaligned_exit_one(self, tmp_path, capsys, other):
        path = checkpoint(tmp_path, "p.pset", {"w": np.ones(2), "b": np.ones(1)})
        diff = checkpoint(tmp_path, "q.pset", other)
        assert main(["inspect", str(path), "--diff", str(diff)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: entry 0")
        assert "Traceback" not in err


def test_readme_cli_block_names_every_command():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    documented = {line.split()[1] for line in block.splitlines() if line.startswith("mergeopt ")}
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert documented == set(sub.choices)
