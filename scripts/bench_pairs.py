"""Paired benchmark runs of a parent commit and HEAD, written to BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --parent REV --pr N [--pairs 10]

The parent and HEAD (the change) are exported with `git archive` into fresh
temporary directories, so each side runs exactly its committed files, from
its own `bench/`, and leaves nothing behind in the repository. The sections
below run one after another. Each is a function of (side, pair) that returns
its runs, and each runs the same --pairs alternating pairs: the parent first
in even pairs, the change first in odd ones.

The gated section: for each workload that BENCHMARK.json gates, pair i runs

    python3 bench/run.py --workload W --seed 601+i --seconds S --trace 0

once on each side, S being the benchmark's run_seconds.

The end-to-end section, which no bound gates, times commands, in this
script's environment, in wall time and raw child CPU time (user + system, its
own children included; over BENCH_17-25 `bench/run.py`'s calibration loop
timed around a command spread wider than raw CPU):
- acceptance criterion 9 alone (12 OnDARE runs of 20,000 steps at hidden 4,
  the step path of `alpha-sweep-h4`) and the Tier-1 suite, both from the
  parent's `tests/`: the change side runs in a copy of the parent's tree that
  holds the change's `src/`, so that added or edited tests add no work.
  Before its first pair, one untimed Tier-1 run of each of those two trees lists
  the tests it reports FAILED or ERROR (the parent's tests may pin internals
  the change removed), and every timed pytest run leaves out the union of
  those lists (`excluded_tests`), so both sides time the tests both pass;
- the informational `wide-h256` workload, run as the gated ones are;
- one fresh `python -m mergeopt merge` process per method over three 25 MB
  checkpoints plus base from `bench/workloads.py`'s `synthesize_merge_inputs`;
- one fresh `python -m mergeopt train` process of the default config (an
  empty JSON object), so no reference part is reused.

Every section's summary is made the same way, per run name (a run's
workload or command): the count of correct runs; each side's failed and
attempted operations for bench/run.py runs; for merge and train runs,
whether every run of both trees wrote the same bytes; for pytest runs,
whether each pair's sides passed the same number of tests and failed the
same ones (pairs that did not are left out); then, per metric that
BENCHMARK.json or TIMINGS declares, both sides' median and quartiles, the
change's wins and losses over the pairs (ties count for neither), and
whether the change's median is within the metric's bound of the parent's. A
metric is flagged a "win" only when the change wins at least WIN_SHARE of
the pairs (9 of 10), and a "loss" when it loses at least LOSS_SHARE of them
(8 of 10), in both cases only when its median differs from the parent's by
more than the parent's quartile spread. A child that outlives its timeout is
killed and counts as a failed run, whose stderr says so.

The file holds:
- "meta": the revisions, pair count, seeds, each side's `src/mergeopt/*.py`
  line count (`src_lines`) and the machine;
- "summary" and "runs": the gated section, its summary keyed by workload;
- "end_to_end": {"gated": false, "pairs", "commands", "excluded_tests",
  "summary", "runs"}, its summary keyed criterion_9, tier1, wide-h256,
  merge_<method> and train_default.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
from workloads import MERGE_METHODS, synthesize_merge_inputs  # noqa: E402

SIDES = ("parent", "change")
SEED0 = 601
E2E_WORKLOAD = "wide-h256"
PYTEST = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
E2E_COMMANDS = {
    "criterion_9": PYTEST + ["-k", "criterion_9", "tests/test_acceptance.py"],
    "tier1": PYTEST,
}
WIN_SHARE = 0.9
LOSS_SHARE = 0.8
TIMINGS = [{"name": n, "unit": "s", "better": "lower", "bound": None}
           for n in ("cpu_s", "wall_s")]


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the files of commit rev into dest."""
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), rev], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def src_lines(tree: Path) -> int:
    """The lines of tree's src/mergeopt/*.py, counted as `wc -l` counts them."""
    return sum(f.read_bytes().count(b"\n") for f in (tree / "src" / "mergeopt").glob("*.py"))


def pair_order(pairs: int):
    """(pair, side) of every run of `pairs` alternating pairs, in run order:
    the parent first in even pairs, the change first in odd pairs."""
    for i in range(pairs):
        for s in SIDES if i % 2 == 0 else SIDES[::-1]:
            yield i, s


def counts(runs: list[dict]) -> dict:
    """How many of runs were correct, and how many there were."""
    return {"runs_correct": sum(r["correct"] for r in runs), "runs": len(runs)}


def run_name(run: dict) -> str:
    """The workload or command a run ran, by which a section summarizes it."""
    return run.get("workload") or run["command"]


def time_workload(checkout: Path, workload: str, pair: int, seconds: float) -> dict:
    """One bench/run.py run of workload in checkout, seeded by its pair."""
    seed = SEED0 + pair
    return {"workload": workload, "seed": seed, **run_once(checkout, workload, seed, seconds)}


def run_text(cmd: list[str], timeout: float, **kwargs) -> subprocess.CompletedProcess:
    """subprocess.run of cmd with its output captured as text. A child still
    running after timeout seconds is killed: its run fails with returncode
    -9, no output, and a stderr that names the timeout."""
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(cmd, -9, "", f"killed after its {timeout} s timeout")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = run_text(cmd, 10 * seconds + 600, cwd=checkout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"returncode": proc.returncode, "correct": False, "attempted": 0, "failed": 0,
                "metrics": {}, "stderr": proc.stderr[-2000:]}
    meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
    return {"returncode": 0, "meta": meta, **result}


def time_command(checkout: Path, cmd: list[str]) -> dict:
    """Run cmd in checkout, in this process's environment with its src/
    importable; its wall time and the CPU time (user + system) of it and its
    own children."""
    before, t0 = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter()
    proc = run_text(cmd, 3600, cwd=checkout, env={**os.environ, "PYTHONPATH": "src"})
    wall, after = time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    return {"returncode": proc.returncode, "correct": proc.returncode == 0, "summary": last[0],
            "failed": failed_tests(proc.stdout), "stderr": proc.stderr[-2000:],
            "metrics": {"cpu_s": {"value": cpu}, "wall_s": {"value": wall}}}


def time_tests(tree: Path, excluded: list[str]) -> list[dict]:
    """Each E2E_COMMANDS pytest command timed in tree, without the excluded
    tests, with its passed-test count."""
    runs = []
    for name, cmd in E2E_COMMANDS.items():
        r = time_command(tree, cmd + exclusion_args(excluded))
        runs.append({"command": name, **r, "passed": passed_count(r["summary"])})
    return runs


def excluded_tests(trees) -> list[str]:
    """The ids that one untimed Tier-1 run in each tree reports FAILED or
    ERROR, sorted, each once."""
    runs = [time_command(tree, E2E_COMMANDS["tier1"]) for tree in trees]
    return sorted({t for r in runs for t in r["failed"]})


def exclusion_args(ids: list[str]) -> list[str]:
    """pytest arguments that leave out each id: --deselect for a test, and
    --ignore for a module that failed to collect, which has no test to
    deselect."""
    return [f"--deselect={t}" if "::" in t else f"--ignore={t}" for t in ids]


def failed_tests(stdout: str) -> list[str]:
    """The ids pytest's short summary reports FAILED or ERROR, sorted; none
    for output that is not pytest's."""
    return sorted(re.findall(r"^(?:FAILED|ERROR) (\S+)", stdout, re.M))


def with_src(tree: Path, src_tree: Path, dest: Path) -> None:
    """Write into dest a copy of tree whose src/ is src_tree's."""
    shutil.copytree(tree, dest, ignore=lambda d, names: ["src"] if Path(d) == tree else [])
    shutil.copytree(src_tree / "src", dest / "src")


def passed_count(summary: str) -> int | None:
    """The passed-test count in pytest's summary line, e.g. "618 passed in 62.00s"."""
    m = re.search(r"(\d+) passed", summary)
    return int(m.group(1)) if m else None


def mark_comparable(runs: list[dict]) -> None:
    """Set comparable on each run of a pair: whether both sides passed the
    same number of tests and failed the same ones."""
    pairs = {}
    for r in runs:
        pairs.setdefault(r["pair"], []).append(r)
    for pair in pairs.values():
        same = len(pair) == 2 and all(
            pair[0].get(k) == pair[1].get(k) for k in ("passed", "failed")
        )
        for r in pair:
            r["comparable"] = same


def digest(paths) -> str:
    """The 16-byte blake2b digest of the files' bytes, in order, as hex."""
    h = hashlib.blake2b(digest_size=16)
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def merge_command(inputs: list[Path], out: Path, method: str) -> list[str]:
    base, *models = inputs
    return [sys.executable, "-m", "mergeopt", "merge", *map(str, models), "--base", str(base),
            "--out", str(out), "--method", method, "--seed", str(SEED0)]


def time_merges(checkout: Path, inputs: list[Path], work: Path) -> list[dict]:
    """One merge process per method timed in checkout over inputs, each output
    written in work and deleted; the runs, each with its output's digest."""
    runs = []
    for m in MERGE_METHODS:
        out = work / f"{m}.pset"
        r = time_command(checkout, merge_command(inputs, out, m))
        r["output_blake2b"] = digest([out]) if r["correct"] else None
        out.unlink(missing_ok=True)
        runs.append({"command": f"merge_{m}", **r})
    return runs


def train_command(config: Path, out: Path) -> list[str]:
    return [sys.executable, "-m", "mergeopt", "train", "--config", str(config), "--out", str(out)]


def time_train(checkout: Path, work: Path) -> dict:
    """One train process of the default config timed in checkout, with its
    config and run directories in work; the run, with a digest of its
    metrics.csv and theta_final.pset, whose directory is then deleted."""
    work.mkdir(exist_ok=True)
    config, out = work / "config.json", work / "run"
    config.write_text("{}\n")
    r = time_command(checkout, train_command(config, out))
    r["output_blake2b"] = (digest([out / "metrics.csv", out / "theta_final.pset"])
                           if r["correct"] else None)
    shutil.rmtree(out, ignore_errors=True)
    return {"command": "train_default", **r}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's quartiles, the change's pairwise wins, and its
    median relative to the parent's against the metric's bound. Runs marked
    not comparable are left out."""
    out = {}
    for spec in metrics:
        name = spec["name"]
        sign = 1.0 if spec["better"] == "higher" else -1.0
        pairs = {}
        for r in runs:
            if name in r["metrics"] and r.get("comparable", True):
                pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"][name]["value"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        if len(pairs) < 2:
            continue
        side = {s: quartiles([p[s] for p in pairs]) for s in SIDES}
        parent, change = side["parent"]["median"], side["change"]["median"]
        worse_by = sign * (parent - change) / abs(parent) if parent else 0.0
        wins = sum(sign * (p["change"] - p["parent"]) > 0 for p in pairs)
        losses = sum(sign * (p["change"] - p["parent"]) < 0 for p in pairs)
        gap_exceeds_iqr = abs(change - parent) > side["parent"]["q3"] - side["parent"]["q1"]
        flagged = None
        if gap_exceeds_iqr:
            if wins >= WIN_SHARE * len(pairs):
                flagged = "win"
            elif losses >= LOSS_SHARE * len(pairs):
                flagged = "loss"
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], **side,
            "change_over_parent": change / parent if parent else None,
            "wins": wins, "losses": losses, "pairs": len(pairs),
            "median_gap_exceeds_parent_iqr": gap_exceeds_iqr, "flagged": flagged,
            "bound": spec["bound"], "worse_by": worse_by,
            "within_bound": None if spec["bound"] is None else worse_by <= spec["bound"],
        }
    return out


def section_summary(runs: list[dict], declared: list[dict]) -> dict:
    """Per run name (a run's workload or command), in order of first run: the
    counts; each side's failed and attempted operations for bench/run.py
    runs; outputs_identical for runs that digest their outputs; each pair's
    comparable mark for pytest runs; then summarize by declared."""
    groups = {}
    for r in runs:
        groups.setdefault(run_name(r), []).append(r)
    out = {}
    for name, rs in groups.items():
        group = counts(rs)
        if "attempted" in rs[0]:
            for k in ("failed", "attempted"):
                group[f"{k}_operations"] = {s: sum(r[k] for r in rs if r["side"] == s)
                                            for s in SIDES}
        if any("output_blake2b" in r for r in rs):
            group["outputs_identical"] = len({r.get("output_blake2b") for r in rs}) == 1
        if any("passed" in r for r in rs):
            mark_comparable(rs)
        out[name] = {**group, "metrics": summarize(rs, declared)}
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="commit measured as the baseline")
    p.add_argument("--pr", required=True, type=int, help="number in the output file name")
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    revs = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", "HEAD")}
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    runs, lines = {}, {}
    try:
        checkouts = {s: tmp / s for s in SIDES}
        for s in SIDES:
            export(revs[s], checkouts[s])
            lines[s] = src_lines(checkouts[s])
        # The parent's tests/ on both sides, over each side's src/.
        tested = {"parent": checkouts["parent"], "change": tmp / "change-src"}
        with_src(checkouts["parent"], checkouts["change"], tested["change"])
        excluded = None

        def tests(s: str, i: int) -> list[dict]:  # first lists the tests to leave out
            nonlocal excluded
            if excluded is None:
                excluded = excluded_tests(tested.values())
            return time_tests(tested[s], excluded)

        (tmp / "merge").mkdir()
        merge_inputs = synthesize_merge_inputs(SEED0, tmp / "merge")
        # Each section: the part of the report it goes to, and its runs of one
        # (side, pair).
        sections = [
            *(("gated", lambda s, i, w=w: [time_workload(checkouts[s], w, i, seconds)])
              for w in workloads),
            ("end_to_end", tests),
            ("end_to_end", lambda s, i: [time_workload(checkouts[s], E2E_WORKLOAD, i, seconds)]),
            ("end_to_end", lambda s, i: time_merges(checkouts[s], merge_inputs, tmp / "merge")),
            ("end_to_end", lambda s, i: [time_train(checkouts[s], tmp / "train")]),
        ]
        for part, section in sections:
            for i, s in pair_order(args.pairs):
                for r in section(s, i):
                    runs.setdefault(part, []).append({"pair": i, "side": s, **r})
                    status = (r["summary"] if "passed" in r
                              else "ok" if r["correct"] else f"FAILED rc={r['returncode']}")
                    print(f"{run_name(r)} pair {i} {s}: {status}", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    declared = [*bench["end_to_end"], *TIMINGS]
    summary = {part: section_summary(rs, declared) for part, rs in runs.items()}

    # As the runs ran them, with merge_M the method and config.json holding {}.
    inputs = [Path(p.name) for p in merge_inputs]
    commands = {**{n: c + exclusion_args(excluded) for n, c in E2E_COMMANDS.items()},
                "merge_M": merge_command(inputs, Path("out.pset"), "M"),
                "train_default": train_command(Path("config.json"), Path("run"))}
    end_to_end = {
        "gated": False, "pairs": args.pairs,
        "commands": {n: " ".join(["PYTHONPATH=src", "python3", *c[1:]])
                     for n, c in commands.items()},
        "excluded_tests": excluded, "summary": summary["end_to_end"], "runs": runs["end_to_end"],
    }
    meta = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "revs": revs, "pairs": args.pairs, "seeds": [SEED0, SEED0 + args.pairs - 1],
        "seconds": seconds, "workloads": workloads,
        "command": "python3 bench/run.py --workload W --seed N --seconds S --trace 0",
        "order": "parent first in even pairs, change first in odd pairs",
        "python": platform.python_version(), "machine": platform.machine(),
        "cpus": os.cpu_count(), "src_lines": lines,
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    report = {"meta": meta, "summary": summary["gated"], "runs": runs["gated"],
              "end_to_end": end_to_end}
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
