"""The summary rules of scripts/bench_pairs.py, on synthetic runs: what it
flags, what it leaves out and how it applies a metric's bound."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bp():
    saved = sys.path[:]  # the script puts bench/ on the path to import its workloads
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def metric(better="lower", bound=None):
    return {"name": "m", "unit": "s", "better": better, "bound": bound}


def runs(parent, change, comparable=None):
    """One run per side per pair, pair i holding parent[i] and change[i]."""
    out = []
    for i, (p, c) in enumerate(zip(parent, change)):
        for side, v in (("parent", p), ("change", c)):
            r = {"pair": i, "side": side, "metrics": {"m": {"value": v}}}
            if comparable is not None:
                r["comparable"] = comparable[i]
            out.append(r)
    return out


PARENT = [10.0, 10.2, 10.4, 10.6, 10.8]  # quartiles 10.2 and 10.6


@pytest.mark.parametrize("summary, count", [
    ("618 passed in 62.00s", 618),
    ("1 failed, 3 passed in 1.0s", 3),
    ("no tests ran in 0.01s", None),
    ("", None),
])
def test_passed_count(bp, summary, count):
    assert bp.passed_count(summary) == count


def test_mark_comparable_needs_both_sides_with_equal_counts(bp):
    rs = [
        {"pair": 0, "side": "parent", "passed": 5}, {"pair": 0, "side": "change", "passed": 5},
        {"pair": 1, "side": "parent", "passed": 5}, {"pair": 1, "side": "change", "passed": 4},
        {"pair": 2, "side": "change", "passed": 5},
        {"pair": 3, "side": "parent", "passed": None}, {"pair": 3, "side": "change", "passed": 2},
    ]
    bp.mark_comparable(rs)
    assert [(r["pair"], r["comparable"]) for r in rs] == [
        (0, True), (0, True), (1, False), (1, False), (2, False), (3, False), (3, False)
    ]


def test_mark_comparable_needs_the_same_failed_tests(bp):
    # Pair 1: a parent test fails on the change side only, with the counts equal.
    rs = [
        {"pair": 0, "side": "parent", "passed": 5, "failed": ["t::a"]},
        {"pair": 0, "side": "change", "passed": 5, "failed": ["t::a"]},
        {"pair": 1, "side": "parent", "passed": 5, "failed": ["t::a"]},
        {"pair": 1, "side": "change", "passed": 5, "failed": ["t::b"]},
    ]
    bp.mark_comparable(rs)
    assert [r["comparable"] for r in rs] == [True, True, False, False]


def test_failed_tests_reads_pytest_short_summary(bp):
    out = ("..F.E\n=== short test summary info ===\n"
           "FAILED tests/test_x.py::test_b[1] - assert 0\n"
           "ERROR tests/test_y.py - ImportError\n"
           "1 failed, 3 passed, 1 error in 0.5s\n")
    assert bp.failed_tests(out) == ["tests/test_x.py::test_b[1]", "tests/test_y.py"]
    assert bp.failed_tests("wrote out.pset\n") == []


def test_with_src_is_the_tree_with_the_other_src(bp, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree, text in ((parent, "parent"), (change, "change")):
        for rel in ("src/pkg/mod.py", "tests/test_a.py", "README.md"):
            (tree / rel).parent.mkdir(parents=True, exist_ok=True)
            (tree / rel).write_text(text)
    (change / "tests" / "test_new.py").write_text("change")
    (change / "src" / "pkg" / "new.py").write_text("change")
    (parent / "tests" / "src").mkdir()  # only the top-level src/ is replaced
    bp.with_src(parent, change, tmp_path / "out")
    got = {str(p.relative_to(tmp_path / "out")): p.read_text()
           for p in (tmp_path / "out").rglob("*") if p.is_file()}
    assert got == {"src/pkg/mod.py": "change", "src/pkg/new.py": "change",
                   "tests/test_a.py": "parent", "README.md": "parent"}
    assert (tmp_path / "out" / "tests" / "src").is_dir()


def test_win_needs_share_and_gap_beyond_parent_spread(bp):
    s = bp.summarize(runs(PARENT, [v - 1.0 for v in PARENT]), [metric()])["m"]
    assert (s["wins"], s["losses"], s["pairs"]) == (5, 0, 5)
    assert s["median_gap_exceeds_parent_iqr"] and s["flagged"] == "win"
    # Four wins of five is exactly FLAG_SHARE.
    s = bp.summarize(runs(PARENT, [9.0, 9.2, 9.4, 9.6, 11.0]), [metric()])["m"]
    assert (s["wins"], s["flagged"]) == (4, "win")
    s = bp.summarize(runs(PARENT, [9.0, 9.2, 9.4, 11.6, 11.8]), [metric()])["m"]
    assert s["median_gap_exceeds_parent_iqr"] and (s["wins"], s["flagged"]) == (3, None)


def test_loss_and_higher_is_better(bp):
    s = bp.summarize(runs(PARENT, [v + 1.0 for v in PARENT]), [metric()])["m"]
    assert (s["losses"], s["flagged"]) == (5, "loss")
    s = bp.summarize(runs(PARENT, [v + 1.0 for v in PARENT]), [metric("higher")])["m"]
    assert (s["wins"], s["flagged"]) == (5, "win")


def test_gap_inside_parent_spread_flags_nothing(bp):
    s = bp.summarize(runs(PARENT, [v - 0.1 for v in PARENT]), [metric()])["m"]
    assert s["wins"] == 5
    assert not s["median_gap_exceeds_parent_iqr"] and s["flagged"] is None


def test_pairs_not_comparable_are_left_out(bp):
    rs = runs(PARENT + [10.0], [v - 1.0 for v in PARENT] + [1000.0],
              comparable=[True] * 5 + [False])
    s = bp.summarize(rs, [metric()])["m"]
    assert s["pairs"] == 5 and s["change"]["n"] == 5
    assert (s["wins"], s["losses"], s["flagged"]) == (5, 0, "win")
    assert s["change"]["median"] == pytest.approx(9.4)


def test_one_pair_gives_no_summary(bp):
    assert bp.summarize(runs([1.0], [2.0]), [metric()]) == {}


@pytest.mark.parametrize("better, change, within", [
    ("lower", 10.4 * 1.05, True),
    ("lower", 10.4 * 1.15, False),
    ("lower", 10.4 * 0.5, True),
    ("higher", 10.4 * 0.95, True),
    ("higher", 10.4 * 0.85, False),
])
def test_within_bound(bp, better, change, within):
    s = bp.summarize(runs(PARENT, [change] * 5), [metric(better, bound=0.1)])["m"]
    assert s["within_bound"] is within
    assert s["worse_by"] == pytest.approx((1 if better == "lower" else -1) * (change / 10.4 - 1))


def test_no_bound_gives_no_verdict(bp):
    s = bp.summarize(runs(PARENT, [20.0] * 5), [metric()])["m"]
    assert s["bound"] is None and s["within_bound"] is None


def test_step_metrics_divide_the_added_time_by_the_added_steps(bp):
    seconds = {"h4.ondare/short": 0.5, "h4.ondare/pref_long": 0.62, "h4.ondare/sup_long": 0.56,
               "h16.adamw/short": 1.0, "h16.adamw/pref_long": 0.98, "h16.adamw/sup_long": 1.0}
    got = {k: v["value"] for k, v in bp.step_metrics(seconds).items()}
    assert bp.STEP_EXTRA == 1000
    assert got == pytest.approx({
        "pref_us.h4.ondare": 120.0, "sup_us.h4.ondare": 60.0,
        "pref_us.h16.adamw": -20.0, "sup_us.h16.adamw": 0.0,
    })


def test_step_configs_differ_only_in_the_added_steps(bp):
    from mergeopt.training import RunConfig

    configs = bp.step_configs()
    labels = [label for label, _ in bp.OPTIMIZER_MIX]
    assert sorted(configs) == sorted([
        *(f"{shape}.{label}/{run}" for shape in ("h4", "h16") for label in labels
          for run in ("short", "pref_long", "sup_long")),
        "h256.onties/short", "h256.onties/pref_long",
    ])
    for key, d in configs.items():
        config = key.split("/")[0]
        cfg, short = RunConfig.from_dict(d), RunConfig.from_dict(configs[f"{config}/short"])
        added = (cfg.dpo.steps - short.dpo.steps,
                 cfg.phases.pretrain_steps + cfg.phases.sft_steps
                 - short.phases.pretrain_steps - short.phases.sft_steps)
        want = {"short": (0, 0), "pref_long": (bp.STEP_EXTRA, 0), "sup_long": (0, bp.STEP_EXTRA)}
        assert added == want[key.split("/")[1]]
        assert RunConfig.from_dict({**d, "dpo": configs[f"{config}/short"]["dpo"],
                                    "phases": configs[f"{config}/short"]["phases"]}) == short


def test_wide_step_is_onties_at_the_h256_shape(bp):
    from mergeopt.training import RunConfig

    configs = bp.step_configs()
    short = RunConfig.from_dict(configs["h256.onties/short"])
    assert (short.optimizer, short.data.hidden_dim, short.dpo.batch_size) == ("onties", 256, 256)
    seconds = {"h256.onties/short": 2.0, "h256.onties/pref_long": 2.25}
    got = {k: v["value"] for k, v in bp.step_metrics(seconds).items()}
    assert got == pytest.approx({"pref_us.h256.onties": 250.0})


def test_pair_order_puts_the_parent_first_in_even_pairs(bp):
    assert list(bp.pair_order(3)) == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent"), (2, "parent"), (2, "change"),
    ]


def test_counts(bp):
    rs = [{"correct": True}, {"correct": False}, {"correct": True}]
    assert bp.counts(rs) == {"runs_correct": 2, "runs": 3}


def test_train_command_is_a_default_train_the_cli_parses(bp, tmp_path):
    from mergeopt import cli

    cmd = bp.train_command(tmp_path / "config.json", tmp_path / "run")
    assert cmd[:4] == [sys.executable, "-m", "mergeopt", "train"]
    args = cli.build_parser().parse_args(cmd[3:])
    assert (args.func, args.config, args.out) == (
        cli.cmd_train, str(tmp_path / "config.json"), str(tmp_path / "run")
    )


def test_time_trains_alternates_and_digests_each_run_s_outputs(bp, tmp_path):
    calls = []

    def timed(checkout, cmd):
        config, out = Path(cmd[cmd.index("--config") + 1]), Path(cmd[cmd.index("--out") + 1])
        calls.append((checkout, config.read_text()))
        out.mkdir()
        (out / "metrics.csv").write_bytes(b"step\n")
        (out / "theta_final.pset").write_bytes(checkout.encode())
        return {"returncode": 0, "correct": True, "metrics": {}}

    rs = bp.time_trains({"parent": "p", "change": "c"}, tmp_path / "work", timed)
    assert [(r["pair"], r["side"]) for r in rs] == list(bp.pair_order(bp.TRAIN_PAIRS))
    assert [c for c, _ in calls] == [{"parent": "p", "change": "c"}[r["side"]] for r in rs]
    assert all(text == "{}\n" for _, text in calls)
    assert all(r["command"] == "train_default" for r in rs)
    (tmp_path / "m").write_bytes(b"step\n")
    for s in "pc":
        (tmp_path / s).write_bytes(s.encode())
    want = {s: bp.digest([tmp_path / "m", tmp_path / s]) for s in "pc"}
    assert [r["output_blake2b"] for r in rs] == [want[r["side"][0]] for r in rs]
    assert sorted(p.name for p in (tmp_path / "work").iterdir()) == ["config.json"]


def test_shared_configs_copy_the_short_and_preference_long_runs(bp):
    configs = bp.step_configs()
    shared = bp.shared_configs(configs)
    labels = [label for label, _ in bp.OPTIMIZER_MIX]
    assert sorted(shared) == sorted(
        f"{shape}.{label}/{run}" for shape in ("h4", "h16") for label in labels
        for run in ("shared_short", "shared_long")
    )
    for key, d in shared.items():
        config, run = key.split("/")
        assert d == configs[f"{config}/{bp.SHARED_RUNS[run]}"]


def test_shared_step_metrics_subtract_the_shared_short_run(bp):
    seconds = {"h4.ondare/short": 0.5, "h4.ondare/pref_long": 0.62,
               "h4.ondare/shared_short": 0.3, "h4.ondare/shared_long": 0.37}
    got = {k: v["value"] for k, v in bp.step_metrics(seconds).items()}
    assert got == pytest.approx({"pref_us.h4.ondare": 120.0, "pref_shared_us.h4.ondare": 70.0})


def test_step_child_times_every_run_and_shared_run(bp):
    tiny = {"seed": 3, "dpo": {"steps": 4}, "phases": {"pretrain_steps": 2, "sft_steps": 2}}
    configs = {f"h4.{label}/{run}": {**tiny, **over} for label, over in bp.OPTIMIZER_MIX[:3]
               for run in ("short", "pref_long")}
    shared = bp.shared_configs(configs)
    r = bp.time_steps(SCRIPT.parent.parent, configs, shared)
    assert r["correct"], r.get("stderr")
    assert sorted(r["seconds"]) == sorted([*configs, *shared])
    assert sorted(r["metrics"]) == sorted(
        f"{m}.h4.{label}" for m in ("pref_us", "pref_shared_us") for label, _ in bp.OPTIMIZER_MIX[:3]
    )
