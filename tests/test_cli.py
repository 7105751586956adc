import argparse
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mergeopt import NonFiniteGradient, ParameterSet, cli, load_checkpoint, save_checkpoint
from mergeopt.cli import main
from mergeopt.params import MAP_MIN_BYTES
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

    def test_report_counts_entries_that_differ_from_base(self, tmp_path, capsys):
        # One entry moves by the least subnormal, one from -0.0 to 0.0 (equal,
        # so not counted), one by 0.5; the text is the one the report printed
        # when it counted the nonzero entries of merged - base.
        base = checkpoint(tmp_path, "base.pset",
                          {"w": np.array([[0.0, -0.0], [1.0, 2.0]]), "b": np.ones(3)})
        model = checkpoint(tmp_path, "m.pset",
                           {"w": np.array([[5e-324, 0.0], [1.0, 2.5]]), "b": np.ones(3)})
        out = tmp_path / "o.pset"
        assert main(["merge", str(model), "--base", str(base), "--out", str(out),
                     "--weights", "1.0"]) == 0
        merged = load_checkpoint(out).flat("w")
        assert merged.tobytes() == np.array([5e-324, 0.0, 1.0, 2.5]).tobytes()
        assert capsys.readouterr().out == (
            f"merged 1 models into {out} (linear)\n"
            "tensor                  shape           delta nnz   density\n"
            "w                       (2, 2)          2           0.5000\n"
            "b                       (3,)            0           0.0000\n"
        )

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

    @pytest.mark.parametrize("method", ["linear", "dare", "ties"])
    @pytest.mark.parametrize("target", ["base", "model"])
    def test_merge_into_one_of_its_own_inputs(self, tmp_path, capsys, method, target):
        # Inputs large enough to be mapped; the output must not be written
        # under those maps (a truncated map is a SIGBUS, an overwritten one a
        # wrong delta nnz report).
        tensors = {"w": (200, 100), "b": (20000,)}
        assert 8 * sum(np.prod(s) for s in tensors.values()) >= MAP_MIN_BYTES
        sides = {}
        for side in ("fresh", "inplace"):
            d = tmp_path / side
            d.mkdir()
            r = np.random.default_rng(5)
            paths = [checkpoint(d, f"{n}.pset", {k: r.normal(size=s) for k, s in tensors.items()})
                     for n in ("base", "m1", "m2")]
            out = paths[0 if target == "base" else 1] if side == "inplace" else d / "out.pset"
            code = main(["merge", str(paths[1]), str(paths[2]), "--base", str(paths[0]),
                         "--out", str(out), "--method", method, "--seed", "3"])
            assert code == 0
            sides[side] = (out.read_bytes(), capsys.readouterr().out.replace(str(out), "OUT"))
        assert sides["inplace"] == sides["fresh"]

    def test_failed_save_exits_one_and_leaves_no_temporary(self, tmp_path, capsys):
        base = checkpoint(tmp_path, "base.pset", {"w": np.zeros(2)})
        model = checkpoint(tmp_path, "m.pset", {"w": np.ones(2)})
        out = tmp_path / "out"
        out.mkdir()
        before = sorted(os.listdir(tmp_path))
        assert main(["merge", str(model), "--base", str(base), "--out", str(out)]) == 1
        assert "io error:" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before
        assert os.listdir(out) == []

    def test_save_into_a_missing_directory_names_the_output(self, tmp_path, capsys):
        model = checkpoint(tmp_path, "m.pset", {"w": np.ones(2)})
        out = tmp_path / "missing" / "out.pset"
        assert main(["merge", str(model), "--base", str(model), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"io error: [Errno 2] No such file or directory: '{out}'\n"
        assert sorted(os.listdir(tmp_path)) == ["m.pset"]


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
        assert (tmp_path / "boom" / "metrics.csv").read_bytes() == (
            b"step,dpo_loss,reward_margin,pref_accuracy,pretrain_accuracy,sft_accuracy\n"
            b"0,0.6931471805599452,0.0,0.0,0.92,1.0\n"
        )
        err = capsys.readouterr().err
        assert err == "error: training loss went non-finite at step 4 (last good step 3)\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_supervised_abort_exit_one_with_config_only(self, tmp_path, capsys):
        # The supervised phases record no metrics, so only config.json is left.
        cfg_path = write_config(
            tmp_path, out_dir=str(tmp_path / "boom"), phases={"learning_rate": 1e307}
        )
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert sorted(f.name for f in (tmp_path / "boom").iterdir()) == ["config.json"]
        err = capsys.readouterr().err
        assert err == "error: supervised phase pretrain loss went non-finite (inf) at step 2\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sft_abort_names_its_phase(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path, out_dir=str(tmp_path / "boom"),
            phases={"learning_rate": 1e307, "pretrain_steps": 0},
        )
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: supervised phase SFT loss went non-finite (inf) at step 2\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_step_zero_evaluation_is_checked(self, tmp_path, capsys):
        # One pretrain step at learning rate 1e308 leaves finite parameters
        # whose forward overflows, so the step-0 row is the first non-finite value.
        sizes = dict.fromkeys(("pretrain_train", "sft_train", "pref_train"), 100)
        sizes.update(dict.fromkeys(("pretrain_eval", "sft_eval", "pref_eval"), 50))
        raw = {
            "optimizer": "ondare", "out_dir": str(tmp_path / "boom"),
            "phases": {"pretrain_steps": 1, "sft_steps": 0, "learning_rate": 1e308},
            "data": {"hidden_dim": 4, "sizes": sizes},
            "dpo": {"steps": 20, "eval_every": 10},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == "error: evaluation metrics went non-finite at step 0\n"
        assert sorted(f.name for f in (tmp_path / "boom").iterdir()) == ["config.json", "metrics.csv"]
        assert (tmp_path / "boom" / "metrics.csv").read_bytes() == (
            b"step,dpo_loss,reward_margin,pref_accuracy,pretrain_accuracy,sft_accuracy\n"
        )

    def test_empty_out_dir_exits_two_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        def no_data(cfg):
            raise AssertionError("the task suite was built for an empty out_dir")

        monkeypatch.setattr(cli, "make_suite", no_data)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        in_config = write_config(tmp_path, out_dir="")
        assert main(["train", "--config", str(in_config)]) == 2
        on_command_line = write_config(tmp_path, out_dir=str(tmp_path / "run"))
        assert main(["train", "--config", str(on_command_line), "--out", ""]) == 2
        err = capsys.readouterr().err
        assert err == "config error: out_dir must be a nonempty string, got ''\n" * 2
        assert not os.listdir(work)
        assert not (tmp_path / "run").exists()

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
    "hidden_dim 2**62": {"data": {"hidden_dim": 2**62}},
    "input_dim 2**40": {"data": {"input_dim": 2**40}},
    "learning_rate 10**400": {"adam": {"learning_rate": 10**400}},
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
    monkeypatch.setattr(cli, "_REFERENCES", {})  # no reference left by an earlier run
    cfg_path = write_config(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "out of memory" in err
    assert "Traceback" not in err


def test_nonfinite_gradient_exits_one_without_traceback(tmp_path, capsys, monkeypatch):
    def bad_gradient(reference, cfg):
        raise NonFiniteGradient("w1: gradient contains NaN or infinity")

    monkeypatch.setattr(cli, "train_preference", bad_gradient)
    cfg_path = write_config(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err == "error: w1: gradient contains NaN or infinity\n"


def test_nonfinite_run_prints_only_its_error_line(tmp_path):
    """numpy's overflow warnings are not printed: train_run's own checks
    report the abort, so stderr is the one error line."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "optimizer": "ondare",
        "adam": {"learning_rate": 1e307},
        "phases": {"pretrain_steps": 5, "sft_steps": 5},
        "dpo": {"steps": 20},
    }))
    proc = subprocess.run(
        [sys.executable, "-m", "mergeopt", "train", "--config", str(cfg_path),
         "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: training loss went non-finite at step 7 (last good step 6)\n"


@pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
def test_out_dir_at_a_file_fails_before_training(tmp_path, capsys, monkeypatch, under_file):
    def no_data(cfg):
        raise AssertionError("the task suite was built for a run that cannot be written")

    monkeypatch.setattr(cli, "make_suite", no_data)
    cfg_path = write_config(tmp_path)
    f = tmp_path / "afile"
    f.write_bytes(b"x")
    before = sorted(tmp_path.rglob("*"))
    out = f / "run" if under_file else f
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"io error: [Errno 20] Not a directory: '{f}'\n"
    assert sorted(tmp_path.rglob("*")) == before
    assert f.read_bytes() == b"x"


@pytest.mark.parametrize("under_link", [False, True], ids=["link", "under-link"])
def test_out_dir_at_a_dangling_symlink_fails_before_training(
    tmp_path, capsys, monkeypatch, under_link
):
    def no_data(cfg):
        raise AssertionError("the task suite was built for a run that cannot be written")

    monkeypatch.setattr(cli, "make_suite", no_data)
    cfg_path = write_config(tmp_path)
    link = tmp_path / "runlink"
    link.symlink_to(tmp_path / "missing")
    before = sorted(tmp_path.rglob("*"))
    out = link / "sub" if under_link else link
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"io error: [Errno 20] Not a directory: '{link}'\n"
    assert sorted(tmp_path.rglob("*")) == before
    assert not os.path.lexists(tmp_path / "missing")


def test_main_builds_its_parser_once_per_process(tmp_path, capsys, monkeypatch):
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(None) or build())
    cli._parser.cache_clear()
    missing = str(tmp_path / "missing.pset")
    for _ in range(3):
        assert main(["inspect", missing]) == 1
    assert capsys.readouterr().err.count("io error: [Errno 2] No such file or directory") == 3
    assert len(built) == 1


def forbid_sweep_points(monkeypatch):
    """Fail the test if a sweep runs any point. With one CPU every point runs
    in this process, through the patched _run_sweep_point."""
    def no_point(cfg):
        raise AssertionError(f"sweep point {cfg.out_dir} ran")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(cli, "_run_sweep_point", no_point)


class TestSweep:
    def test_degenerate_grid_matches_single_train(self, tmp_path):
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
    def test_per_point_failures_recorded_and_sweep_continues(self, tmp_path):
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

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_each_point_directory_is_what_train_writes(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        cfg_path = write_config(tmp_path, optimizer="ondare")
        sweep_dir = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", str(cfg_path), "--out", str(sweep_dir),
             "--alpha", "1e-6", "1e-4", "--seeds", "1"]
        ) == 0
        points = sorted(p for p in sweep_dir.iterdir() if p.is_dir())
        assert len(points) == 2
        for point in points:
            written = {f.name: f.read_bytes() for f in point.iterdir()}
            assert sorted(written) == [
                "config.json", "metrics.csv", "theta_b.pset", "theta_final.pset", "theta_r.pset"
            ]
            # The echoed config names the point directory, so train writes there
            # again from a copy of it.
            config = tmp_path / f"{point.name}.json"
            config.write_bytes(written["config.json"])
            shutil.rmtree(point)
            assert main(["train", "--config", str(config), "--out", str(point)]) == 0
            assert {f.name: f.read_bytes() for f in point.iterdir()} == written

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="workers must inherit the patch"
    )
    def test_dead_worker_exits_one_without_traceback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_run", lambda cfg: os._exit(9))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg_path = write_config(tmp_path)
        sweep_dir = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", str(cfg_path), "--out", str(sweep_dir), "--alpha", "1e-6", "1e-5"]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a sweep worker process died; ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (sweep_dir / "sweep_summary.csv").exists()

    def test_repeated_seed_exits_two_before_any_run(self, tmp_path, capsys, monkeypatch):
        forbid_sweep_points(monkeypatch)
        cfg_path = write_config(tmp_path)
        sweep_dir = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", str(cfg_path), "--out", str(sweep_dir), "--seeds", "1", "2", "1"]
        ) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "--seeds" in err
        assert not sweep_dir.exists()

    @pytest.mark.parametrize(
        "grid",
        [["--alpha", "2.0"], ["--gap-step", "0"], ["--reserve", "0"], ["--beta", "0"],
         ["--seeds", "-1"]],
        ids=["alpha", "gap-step", "reserve", "beta", "seeds"],
    )
    def test_invalid_grid_value_exits_two_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, grid
    ):
        forbid_sweep_points(monkeypatch)
        cfg_path = write_config(tmp_path)
        sweep_dir = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(sweep_dir), *grid]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not sweep_dir.exists()

    def test_points_run_by_seed_and_are_listed_by_point(self, tmp_path, monkeypatch):
        built, train_reference = [], cli.train_reference

        def counted(suite, cfg):
            built.append(cfg.seed)
            return train_reference(suite, cfg)

        monkeypatch.setattr(cli, "train_reference", counted)
        monkeypatch.setattr(cli, "_REFERENCES", {})
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        cfg_path = write_config(tmp_path, optimizer="ondare")
        sweep_dir = tmp_path / "sweep"
        assert main(
            ["sweep", "--config", str(cfg_path), "--out", str(sweep_dir),
             "--alpha", "1e-6", "1e-4", "--seeds", "2", "1"]
        ) == 0
        assert built == [2, 1]
        rows = [r.split(",") for r in (sweep_dir / "sweep_summary.csv").read_text().splitlines()]
        assert [(r[0], r[4], r[5]) for r in rows[1:]] == [
            ("1e-06", "2", "ok"), ("1e-06", "1", "ok"), ("0.0001", "2", "ok"), ("0.0001", "1", "ok"),
        ]
        assert sorted(p.name for p in sweep_dir.iterdir() if p.is_dir()) == [
            "point0000_seed1", "point0000_seed2", "point0001_seed1", "point0001_seed2",
        ]
        for i, alpha in enumerate((1e-6, 1e-4)):
            for seed in (1, 2):
                echoed = json.loads((sweep_dir / f"point{i:04d}_seed{seed}" / "config.json").read_text())
                assert (echoed["merge"]["alpha"], echoed["seed"]) == (alpha, seed)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="workers must inherit the patch"
    )
    def test_pool_trains_each_seeds_reference_once(self, tmp_path, monkeypatch):
        log, train_reference = tmp_path / "references.log", cli.train_reference

        def logged(suite, cfg):
            with log.open("a") as f:
                f.write(f"{os.getpid()} {cfg.seed}\n")
            return train_reference(suite, cfg)

        monkeypatch.setattr(cli, "train_reference", logged)
        monkeypatch.setattr(cli, "_REFERENCES", {})
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg_path = write_config(tmp_path, optimizer="ondare")
        assert main(
            ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "sweep"),
             "--alpha", "1e-6", "1e-4", "--seeds", "1", "2"]
        ) == 0
        trained = [line.split() for line in log.read_text().splitlines()]
        assert sorted(seed for _, seed in trained) == ["1", "2"]
        assert all(pid != str(os.getpid()) for pid, _ in trained)

    def test_parallel_matches_sequential(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, optimizer="ondare")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert main(
            ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "seq"),
             "--alpha", "1e-6", "1e-4", "--seeds", "1"]
        ) == 0
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert main(
            ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "par"),
             "--alpha", "1e-6", "1e-4", "--seeds", "1"]
        ) == 0
        assert (tmp_path / "seq" / "sweep_summary.csv").read_bytes() == (
            tmp_path / "par" / "sweep_summary.csv"
        ).read_bytes()


class TestInspect:
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


def test_readme_library_block_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("MetricsRecord(step=500, ")
