"""The summary rules of scripts/bench_pairs.py, on synthetic runs: what it
flags, what it leaves out and how it applies a metric's bound."""

import hashlib
import importlib.util
import json
import shutil
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
        "pref_us.h4.ondare": 120.0, "sup_us.h4": 60.0,
        "pref_us.h16.adamw": -20.0, "sup_us.h16": 0.0,
    })


def test_step_configs_differ_only_in_the_added_steps(bp):
    from mergeopt.training import RunConfig

    configs = bp.step_configs()
    labels = [label for label, _ in bp.OPTIMIZER_MIX]
    assert sorted(configs) == sorted([
        *(f"{shape}.{label}/{run}" for shape in ("h4", "h16") for label in labels
          for run in ("short", "pref_long")),
        *(f"{shape}.{bp.SUP_LABEL}/sup_long" for shape in ("h4", "h16")),
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


def test_src_lines_counts_the_package_modules_only(bp, tmp_path):
    for side, modules in (("parent", {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3"}),
                          ("change", {"a.py": "x = 1\n"})):
        package = tmp_path / side / "src" / "mergeopt"
        package.mkdir(parents=True)
        for name, text in modules.items():
            (package / name).write_text(text)
        (package / "notes.txt").write_text("not\ncounted\n")
        (tmp_path / side / "tests").mkdir()
        (tmp_path / side / "tests" / "test_a.py").write_text("counted = False\n")
    assert bp.src_lines(tmp_path / "parent") == 2  # "z = 3" ends with no newline, as wc -l
    assert bp.src_lines(tmp_path / "change") == 1


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


def test_time_trains_alternates_and_digests_each_run_s_outputs(bp, tmp_path, monkeypatch):
    calls = []

    def timed(checkout, cmd):
        config, out = Path(cmd[cmd.index("--config") + 1]), Path(cmd[cmd.index("--out") + 1])
        calls.append((checkout, config.read_text()))
        out.mkdir()
        (out / "metrics.csv").write_bytes(b"step\n")
        (out / "theta_final.pset").write_bytes(checkout.encode())
        return {"returncode": 0, "correct": True, "metrics": {}}

    monkeypatch.setattr(bp, "time_command", timed)
    checkouts = {"parent": "p", "change": "c"}
    rs = [{"pair": i, "side": s, **bp.time_train(checkouts[s], tmp_path / "work")}
          for i, s in bp.pair_order(4)]
    assert [c for c, _ in calls] == [checkouts[r["side"]] for r in rs]
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


@pytest.fixture(scope="module")
def step_children(bp, tmp_path_factory):
    """Two runs of the real per-step child on tiny configs of 3 labels at h4,
    short (4 preference steps) and pref_long (6), with 2 soup repeats, each
    with its own work directory: the configs, the work directories and each
    run's two runs."""
    tiny = {"seed": 3, "phases": {"pretrain_steps": 2, "sft_steps": 2}}
    configs = {f"h4.{label}/{run}": {**tiny, **over, "dpo": {"steps": steps}}
               for label, over in bp.OPTIMIZER_MIX[:3]
               for run, steps in (("short", 4), ("pref_long", 6))}
    works = [tmp_path_factory.mktemp(f"work{i}") for i in range(2)]
    children = [bp.time_steps(SCRIPT.parent.parent, configs, bp.shared_configs(configs), work,
                              soup_repeats=2) for work in works]
    return configs, works, children


def test_step_child_times_every_run_and_shared_run(bp, step_children):
    configs, _, children = step_children
    shared = bp.shared_configs(configs)
    r, _ = children[0]
    assert r["command"] == "per_step"
    assert r["correct"], r.get("stderr")
    assert sorted(r["seconds"]) == sorted([*configs, *shared])
    assert sorted(r["metrics"]) == sorted(
        f"{m}.h4.{label}" for m in ("pref_us", "pref_shared_us") for label, _ in bp.OPTIMIZER_MIX[:3]
    )


def assert_soup_run(r):
    """r is a correct soup run with the four h4 soup timings, each positive."""
    assert r["command"] == "soup"
    assert r["correct"], r.get("stderr")
    assert sorted(r["metrics"]) == sorted(f"soup_us.h4.{part}"
                                          for part in ("load", "linear", "dare", "ties"))
    assert all(m["value"] > 0 for m in r["metrics"].values())


def test_soup_child_times_the_loads_and_each_method(bp, step_children):
    _, works, children = step_children
    runs = [soup for _, soup in children]
    for r in runs:
        assert_soup_run(r)
    assert runs[0]["digests"] == runs[1]["digests"]
    assert sorted(runs[0]["digests"]) == ["h4.dare", "h4.linear", "h4.ties"]
    assert [list(work.iterdir()) for work in works] == [[], []]


def test_step_child_merges_the_soup_of_its_short_round(bp, step_children):
    from mergeopt import offline_merge
    from mergeopt.kernels import MergeMethod, MergeSpec
    from mergeopt.training import RunConfig, make_suite, train_run

    configs, works, children = step_children
    results = []
    for label, _ in bp.OPTIMIZER_MIX[:3]:
        cfg = RunConfig.from_dict(configs[f"h4.{label}/short"])
        results.append(train_run(make_suite(cfg), cfg))
    models = [r.theta_final for r in results]
    want = {}
    for method in MergeMethod:
        spec = MergeSpec(method, weights=(1.0 / len(models),) * len(models), seed=bp.SEED0)
        merged = offline_merge(results[0].theta_base, models, spec)
        want[f"h4.{method.value}"] = hashlib.blake2b(merged.vector().tobytes(),
                                                     digest_size=16).hexdigest()
    for steps, soup in children:
        assert steps["correct"], steps.get("stderr")
        assert_soup_run(soup)
    assert [soup["digests"] for _, soup in children] == [want, want]
    assert [list(work.iterdir()) for work in works] == [[], []]


def test_time_command_reports_child_cpu_and_wall_time(bp, tmp_path):
    assert [t["name"] for t in bp.TIMINGS] == ["cpu_s", "wall_s"]
    ok = bp.time_command(tmp_path, [sys.executable, "-c", "pass"])
    assert sorted(ok["metrics"]) == ["cpu_s", "wall_s"]
    assert (ok["correct"], ok["returncode"]) == (True, 0)
    assert all(m["value"] >= 0 for m in ok["metrics"].values())
    assert ok["metrics"]["wall_s"]["value"] > 0
    bad = bp.time_command(tmp_path, [sys.executable, "-c", "raise SystemExit(3)"])
    assert (bad["correct"], bad["returncode"]) == (False, 3)
    assert sorted(bad["metrics"]) == ["cpu_s", "wall_s"]


@pytest.fixture
def child_envs(bp, monkeypatch):
    """The env of every subprocess.run call, each answered as a failed run."""
    envs = []

    def run(cmd, **kwargs):
        envs.append(kwargs["env"])
        return bp.subprocess.CompletedProcess(cmd, 1, stdout="", stderr="")

    monkeypatch.setattr(bp.subprocess, "run", run)
    for var in bp.BLAS_THREADS:
        monkeypatch.delenv(var, raising=False)
    return envs


@pytest.mark.parametrize("caller", [{}, {"OMP_NUM_THREADS": "2"}])
def test_step_and_soup_children_get_one_blas_thread_unless_set(bp, tmp_path, child_envs,
                                                               monkeypatch, caller):
    for var, value in caller.items():
        monkeypatch.setenv(var, value)
    runs = bp.time_steps(tmp_path, {}, {}, tmp_path / "soup")
    assert [(r["command"], r["correct"]) for r in runs] == [("per_step", False), ("soup", False)]
    assert len(child_envs) == 1
    for env in child_envs:
        assert env["PYTHONPATH"] == "src"
        assert {v: env[v] for v in bp.BLAS_THREADS} == {**dict.fromkeys(bp.BLAS_THREADS, "1"),
                                                        **caller}


def test_timed_commands_get_the_callers_environment(bp, tmp_path, child_envs, monkeypatch):
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    r = bp.time_command(tmp_path, ["true"])
    assert (r["correct"], r["returncode"]) == (False, 1)
    assert child_envs == [{**bp.os.environ, "PYTHONPATH": "src"}]
    assert [v for v in bp.BLAS_THREADS if v in child_envs[0]] == ["MKL_NUM_THREADS"]


@pytest.fixture
def root(bp, tmp_path, monkeypatch):
    """A repository root for main holding only BENCHMARK.json, whose revisions
    export as trees of one module and an empty tests/, and whose merge inputs
    are one unwritten path."""
    root = tmp_path / "root"
    root.mkdir()
    shutil.copy(SCRIPT.parent.parent / "BENCHMARK.json", root)

    def export(rev, dest):
        (dest / "src" / "mergeopt").mkdir(parents=True)
        (dest / "src" / "mergeopt" / "a.py").write_text("x = 1\n")
        (dest / "tests").mkdir()

    for name, stub in [("ROOT", root), ("git", lambda *args: args[-1]), ("export", export),
                       ("synthesize_merge_inputs", lambda seed, work: [work / "base.pset"])]:
        monkeypatch.setattr(bp, name, stub)
    return root


def test_a_child_past_its_timeout_is_one_failed_run(bp, root, monkeypatch):
    calls = []

    def run(cmd, **kwargs):
        calls.append(kwargs["timeout"])
        if len(calls) == 1:
            raise bp.subprocess.TimeoutExpired(cmd, kwargs["timeout"])
        return bp.subprocess.CompletedProcess(cmd, 1, stdout="", stderr="failed")

    monkeypatch.setattr(bp.subprocess, "run", run)
    assert bp.main(["--parent", "X", "--pr", "0", "--pairs", "2"]) == 0
    report = json.loads((root / "BENCH_0.json").read_text())
    first, *rest = report["runs"]
    assert (first["correct"], first["returncode"]) == (False, -9)
    assert first["stderr"] == f"killed after its {calls[0]} s timeout"
    assert len(rest) == len(report["runs"]) - 1 > 0
    assert all(r["stderr"] == "failed" for r in rest)
    e2e = report["end_to_end"]
    assert not any(r["correct"] for r in [*e2e["runs"], *e2e["per_step"]["runs"]])


def test_main_runs_every_section_over_the_same_pairs(bp, root, monkeypatch):
    def run_once(checkout, workload, seed, seconds):
        return {"returncode": 0, "correct": True, "attempted": 3, "failed": 0,
                "metrics": {"steps_per_s": {"value": float(seed)}}}

    def time_command(checkout, cmd):
        if "train" in cmd:  # each tree writes its own theta_final bytes
            out = Path(cmd[cmd.index("--out") + 1])
            out.mkdir()
            (out / "metrics.csv").write_text("step\n")
            (out / "theta_final.pset").write_text(checkout.name)
        elif "merge" in cmd:
            Path(cmd[cmd.index("--out") + 1]).write_text("merged")
        return {"returncode": 0, "correct": True, "summary": "5 passed in 1.00s", "failed": [],
                "metrics": {"cpu_s": {"value": 1.0}, "wall_s": {"value": 2.0}}}

    children = []

    def run_child(checkout, script, args):
        assert script == bp.STEP_CHILD
        children.append(checkout.name)
        steps = dict.fromkeys([*json.loads(args[0]), *json.loads(args[1])], 1.0)
        soup = {"seconds": {"h4.load": 1e-4}, "digests": {"h4.ties": "d"}}
        return {"returncode": 0, "correct": True, "out": {"steps": steps, "soup": soup}}

    for name, stub in [("run_once", run_once), ("run_child", run_child),
                       ("time_command", time_command)]:
        monkeypatch.setattr(bp, name, stub)
    assert bp.main(["--parent", "X", "--pr", "0", "--pairs", "2"]) == 0
    assert not (SCRIPT.parent.parent / "BENCH_0.json").exists()
    report = json.loads((root / "BENCH_0.json").read_text())
    e2e = report["end_to_end"]
    assert report["meta"]["pairs"] == e2e["pairs"] == e2e["per_step"]["pairs"] == 2
    assert "soup" not in e2e
    assert children == [s for _, s in bp.pair_order(2)]
    assert list(e2e["per_step"]["summary"]) == ["per_step", "soup"]
    parts = [(report["summary"], report["runs"]), (e2e["summary"], e2e["runs"]),
             (e2e["per_step"]["summary"], e2e["per_step"]["runs"])]
    for summary, runs in parts:
        for name, group in summary.items():
            rs = [r for r in runs if bp.run_name(r) == name]
            assert [(r["pair"], r["side"]) for r in rs] == list(bp.pair_order(2))
            assert (group["runs_correct"], group["runs"]) == (4, 4)
            assert group["metrics"] and all(m["pairs"] == 2 for m in group["metrics"].values())
    assert list(report["summary"]) == report["meta"]["workloads"]
    assert all(g["attempted_operations"] == {"parent": 6, "change": 6}
               for g in report["summary"].values())
    assert list(e2e["summary"]) == ["criterion_9", "tier1", "wide-h256", "merge_linear",
                                    "merge_dare", "merge_ties", "train_default"]
    assert {name: g["outputs_identical"] for part in (e2e, e2e["per_step"])
            for name, g in part["summary"].items() if "outputs_identical" in g} == {
        "merge_linear": True, "merge_dare": True, "merge_ties": True, "train_default": False,
        "soup": True,
    }
    assert [(r["command"], r["comparable"]) for r in e2e["runs"] if "comparable" in r] == [
        ("criterion_9", True), ("tier1", True)] * 4
    assert sorted(m for m in e2e["per_step"]["summary"]["per_step"]["metrics"]
                  if m.startswith("sup_us")) == ["sup_us.h16", "sup_us.h4"]
