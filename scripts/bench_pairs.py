"""Paired benchmark runs of a parent commit and HEAD, written to BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --parent REV --pr N [--pairs 10]

The parent and HEAD (the change) are exported with `git archive` into fresh
temporary directories, so each side runs exactly its committed files, from
its own `bench/`, and leaves nothing behind in the repository. For each workload
that BENCHMARK.json gates, pair i runs

    python3 bench/run.py --workload W --seed 601+i --seconds S --trace 0

once on each side, S being the benchmark's run_seconds, the parent first
in even pairs and the change first in odd ones. The file holds the
metadata (with each side's `src/mergeopt/*.py` line count, `src_lines`),
every run's result, and for each workload and end-to-end metric
both sides' median and quartiles, the change's wins and losses over the
pairs (ties count for neither), and whether the change's median is within
the metric's bound of the parent's. A metric is flagged a "win" or a "loss"
only when the change wins or loses at least FLAG_SHARE of the pairs and its
median differs from the parent's by more than the parent's quartile spread.

Then an end-to-end section, which no bound gates, runs E2E_PAIRS more
alternating pairs. Each times, on both trees, acceptance criterion 9 alone
and the Tier-1 suite, in wall time and the child's CPU time (user + system,
its own children included), and runs the informational `wide-h256` workload
as above. The CPU time is not scaled by `bench/run.py`'s calibration loop:
timed only around the command, that loop never sampled the machine while it
ran, and over BENCH_17-25 the scaled figure spread wider than the raw one
(quartile spread over median 0.19-0.31 for fresh merge and train processes,
against 0.10-0.12 raw). The timed commands get this script's environment,
so they run with the default BLAS threads. Criterion 9's alpha sweep is 12
OnDARE runs of 20,000 steps at hidden 4, the same step path as
`alpha-sweep-h4`. Both pytest commands run the parent's `tests/` on
both sides: the change side runs in a copy of the parent's tree that holds the
change's `src/`, so tests a change adds or edits do not make the sides do
different work. Each pytest run records its passed-test count and the ids of
the tests it reported failed or in error; a pair whose two sides differ in
either (a parent test that fails on the change side, say) is marked
`comparable: false` and left out of the summary. In the same section,
MERGE_PAIRS alternating pairs each time one fresh `python -m mergeopt merge`
process per method (linear, DARE, TIES) on both trees, timed the same way,
over one set of three 25 MB checkpoints plus base made by
`bench/workloads.py`'s `synthesize_merge_inputs`. That is the offline-merge job outside the
benchmark's in-process loop, interpreter start-up and imports included; each
method's outputs must be byte-identical across every run of both trees.
TRAIN_PAIRS alternating pairs then each time one fresh `python -m mergeopt
train` process of the default config (an empty JSON object) per tree, timed
the same way. Each is a single run in a fresh process, so it never reuses a
reference part that an earlier run of the same process trained; its
metrics.csv and theta_final.pset must be byte-identical across every run of
both trees.

Last, STEP_PAIRS alternating pairs time single training steps, a stand-in
until the tracer sees the flat loop's per-step cores. Each pair starts one
fresh process per tree, with one BLAS thread as `bench/run.py` has (unless
the caller set the count; see run_child), which
times `train_run` (CPU, best of STEP_REPEATS), whose every call trains its
own reference part, for every `OPTIMIZER_MIX`
label of `bench/workloads.py` at its `h4` and `h16` `SHAPES`, three times
over: at 200 preference steps and 100 + 100 supervised steps, at 1,200
preference steps, and at 600 + 600 supervised steps. The differences over
the STEP_EXTRA added steps give the microseconds of one preference step
(`pref_us.<shape>.<label>`, evaluations included at the shape's
`eval_every`) and of one supervised step (`sup_us.<shape>.<label>`). The
OnTIES label alone is also timed at the `h256` shape, in the first two runs
only, for `pref_us.h256.onties`: there OnTIES's top-p sorts rows of about
1,500 keys.
The same process then times the shared-reference variant: per shape, one
reference part (`train_reference` of the 100 + 100-step phases), one OnDARE
`train_preference` on it at 1,200 steps, and then `train_preference` of
every label at 200 and at 1,200 steps on that one reference part, as runs
of one seed share it through `mergeopt.cli`'s memo. Its difference gives
`pref_shared_us.<shape>.<label>`: one preference step that reads the
reference's log-prob rows and keep-masks instead of computing them.

Then SOUP_PAIRS alternating pairs time the soup merge in-process, ungated:
each pair starts one fresh process per tree, which trains one optimizer
round (every `OPTIMIZER_MIX` label, at `PROBE_RUN`'s short phases, whose
checkpoints have the layout of the full runs) at each SOUP_SHAPES shape and
saves its theta_b and theta_final checkpoints. It times, best of
SOUP_REPEATS in CPU, the 9 `load_checkpoint` calls of one soup merge
(`soup_us.<shape>.load`) and `offline_merge` of the loaded round by each
method (`soup_us.<shape>.<method>`) with the arguments `mergeopt merge`
gives it by default, seed SEED0. Each merge's output must be bit-identical
across every run of both trees.
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
from workloads import (  # noqa: E402
    MERGE_METHODS, OPTIMIZER_MIX, PROBE_RUN, SHAPES, _deep_update, synthesize_merge_inputs
)

SIDES = ("parent", "change")
SEED0 = 601
E2E_PAIRS = 3
E2E_WORKLOAD = "wide-h256"
PYTEST = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
E2E_COMMANDS = {
    "criterion_9": PYTEST + ["-k", "criterion_9", "tests/test_acceptance.py"],
    "tier1": PYTEST,
}
MERGE_PAIRS = 10
TRAIN_PAIRS = 10
FLAG_SHARE = 0.8
TIMINGS = [{"name": n, "unit": "s", "better": "lower", "bound": None}
           for n in ("cpu_s", "wall_s")]
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STEP_PAIRS = 10
STEP_REPEATS = 3
STEP_SHAPES = ("h4", "h16")
# The one label timed at the wide shape, and its runs: pref_us only.
WIDE_STEP = ("h256", "onties", ("short", "pref_long"))
STEP_EXTRA = 1000  # steps the long runs add to the short one
# Each timed run's preference steps and phase lengths (pretrain = SFT steps).
STEP_RUNS = {"short": (200, 100), "pref_long": (200 + STEP_EXTRA, 100),
             "sup_long": (200, 100 + STEP_EXTRA // 2)}
# The shared-reference runs, each a copy of a STEP_RUNS run that
# train_preference times on one reference part per shape.
SHARED_RUNS = {"shared_short": "short", "shared_long": "pref_long"}
# Each long run: its metric, and the run whose time it subtracts.
STEP_METRICS = {"pref_long": ("pref_us", "short"), "sup_long": ("sup_us", "short"),
                "shared_long": ("pref_shared_us", "shared_short")}
# Run in a checkout with its src/ importable: argv[1] and argv[2] are JSON
# objects of RunConfig dicts, keyed "<shape>.<label>/<run>", for train_run
# and for the shared runs; prints each one's best CPU time, in seconds.
STEP_CHILD = """
import json, sys, time
from mergeopt.training import RunConfig, make_suite, train_preference, train_reference, train_run
runs, references = {}, {}
for key, d in json.loads(sys.argv[1]).items():
    cfg = RunConfig.from_dict(d)
    runs[key] = (make_suite(cfg), cfg)
shared = {}
for key, d in json.loads(sys.argv[2]).items():
    cfg, shape = RunConfig.from_dict(d), key.split(".")[0]
    if shape not in references:
        references[shape] = train_reference(make_suite(cfg), cfg)
    shared[key] = (references[shape], cfg)
for key, (reference, cfg) in shared.items():  # one OnDARE run per shape's reference
    if key.endswith(".ondare/shared_long"):
        train_preference(reference, cfg)
out = dict.fromkeys([*runs, *shared], float("inf"))
for _ in range(%d):  # repeats outermost, so a burst of load hits one sample of each
    for key, (suite, cfg) in runs.items():
        t0 = time.process_time()
        train_run(suite, cfg)
        out[key] = min(out[key], time.process_time() - t0)
    for key, (reference, cfg) in shared.items():
        t0 = time.process_time()
        train_preference(reference, cfg)
        out[key] = min(out[key], time.process_time() - t0)
print(json.dumps(out))
""" % STEP_REPEATS
SOUP_PAIRS = 10
SOUP_REPEATS = 200
SOUP_SHAPES = ("h4", "h16")
# Run in a checkout with its src/ importable: argv[1] is a JSON object of
# shape -> {label: RunConfig dict} for one round, the first label's theta_b
# the soup's base; argv[2] a directory for the checkpoints; argv[3] the
# repeats. Prints each "<shape>.<part>"'s best CPU time, in seconds, and the
# blake2b digest of each merge's flat vector.
SOUP_CHILD = """
import hashlib, json, sys, time
from pathlib import Path
from mergeopt import load_checkpoint, offline_merge, save_checkpoint
from mergeopt.kernels import MergeMethod, MergeSpec
from mergeopt.training import RunConfig, make_suite, train_run
rounds, work, repeats = json.loads(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3])
soups = {}
for shape, configs in rounds.items():
    paths = []
    for label, d in configs.items():
        cfg = RunConfig.from_dict(d)
        result = train_run(make_suite(cfg), cfg)
        if not paths:
            paths.append(work / f"{shape}.theta_b.pset")
            save_checkpoint(result.theta_base, paths[0])
        paths.append(work / f"{shape}.{label}.pset")
        save_checkpoint(result.theta_final, paths[-1])
    soups[shape] = paths
seconds, digests = {}, {}
for _ in range(repeats):
    for shape, paths in soups.items():
        t0 = time.process_time()
        base, *models = [load_checkpoint(p) for p in paths]
        t = time.process_time() - t0
        seconds[f"{shape}.load"] = min(seconds.get(f"{shape}.load", t), t)
        for method in MergeMethod:
            spec = MergeSpec(method, weights=(1.0 / len(models),) * len(models), seed=%d)
            t0 = time.process_time()
            merged = offline_merge(base, models, spec)
            t = time.process_time() - t0
            key = f"{shape}.{method.value}"
            seconds[key] = min(seconds.get(key, t), t)
            digests[key] = hashlib.blake2b(merged.vector().tobytes(), digest_size=16).hexdigest()
print(json.dumps({"seconds": seconds, "digests": digests}))
""" % SEED0


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


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=10 * seconds + 600)
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
    proc = subprocess.run(cmd, cwd=checkout, env={**os.environ, "PYTHONPATH": "src"},
                          capture_output=True, text=True, timeout=3600)
    wall, after = time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    return {"returncode": proc.returncode, "correct": proc.returncode == 0, "summary": last[0],
            "failed": failed_tests(proc.stdout),
            "metrics": {"cpu_s": {"value": cpu}, "wall_s": {"value": wall}}}


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


def time_merges(checkouts: dict, work: Path, timed) -> tuple[list[dict], list[Path]]:
    """MERGE_PAIRS alternating pairs, each timing one merge process per method
    on each tree by timed (a time_command) over inputs made in work; the runs
    and the inputs."""
    work.mkdir()
    inputs = synthesize_merge_inputs(SEED0, work)
    runs = []
    for i, s in pair_order(MERGE_PAIRS):
        for m in MERGE_METHODS:
            out = work / f"{s}-{m}.pset"
            r = timed(checkouts[s], merge_command(inputs, out, m))
            r["output_blake2b"] = digest([out]) if r["correct"] else None
            out.unlink(missing_ok=True)
            runs.append({"command": f"merge_{m}", "pair": i, "side": s, **r})
            print(f"merge_{m} pair {i} {s}: rc={r['returncode']}", file=sys.stderr, flush=True)
    return runs, inputs


def train_command(config: Path, out: Path) -> list[str]:
    return [sys.executable, "-m", "mergeopt", "train", "--config", str(config), "--out", str(out)]


def time_trains(checkouts: dict, work: Path, timed) -> list[dict]:
    """TRAIN_PAIRS alternating pairs, each timing one train process of the
    default config on each tree by timed (a time_command), with its config
    and run directories in work; the runs, each with a digest of its
    metrics.csv and theta_final.pset."""
    work.mkdir()
    config = work / "config.json"
    config.write_text("{}\n")
    runs = []
    for i, s in pair_order(TRAIN_PAIRS):
        out = work / f"{s}-run"
        r = timed(checkouts[s], train_command(config, out))
        r["output_blake2b"] = (digest([out / "metrics.csv", out / "theta_final.pset"])
                               if r["correct"] else None)
        shutil.rmtree(out, ignore_errors=True)
        runs.append({"command": "train_default", "pair": i, "side": s, **r})
        print(f"train_default pair {i} {s}: rc={r['returncode']}", file=sys.stderr, flush=True)
    return runs


def step_configs() -> dict:
    """"<shape>.<label>/<run>" -> RunConfig dict, for every OPTIMIZER_MIX label
    at each STEP_SHAPES shape and every STEP_RUNS run, and for WIDE_STEP's
    label at its shape and runs."""
    mix = dict(OPTIMIZER_MIX)
    grid = [(shape, label, STEP_RUNS) for shape in STEP_SHAPES for label in mix]
    grid.append(WIDE_STEP)
    out = {}
    for shape, label, runs in grid:
        base = _deep_update(_deep_update({"seed": SEED0}, SHAPES[shape]), mix[label])
        for run in runs:
            steps, phase = STEP_RUNS[run]
            out[f"{shape}.{label}/{run}"] = _deep_update(base, {
                "dpo": {"steps": steps},
                "phases": {"pretrain_steps": phase, "sft_steps": phase},
            })
    return out


def shared_configs(configs: dict) -> dict:
    """The shared runs: for each step_configs() key of a SHARED_RUNS run at a
    STEP_SHAPES shape, its config under "<shape>.<label>/<shared run>"."""
    return {f"{key.split('/')[0]}/{shared}": configs[f"{key.split('/')[0]}/{run}"]
            for key in configs if key.endswith("/short") and key.split(".")[0] in STEP_SHAPES
            for shared, run in SHARED_RUNS.items()}


def step_metrics(seconds: dict) -> dict:
    """From a child's times by step_configs() and shared_configs() key, the
    microseconds of one step of each config and STEP_METRICS long run: (long
    run - its short run) / STEP_EXTRA."""
    out = {}
    for key, t in seconds.items():
        config, run = key.rsplit("/", 1)
        if run in STEP_METRICS:
            metric, short = STEP_METRICS[run]
            us = (t - seconds[f"{config}/{short}"]) / STEP_EXTRA * 1e6
            out[f"{metric}.{config}"] = {"value": us}
    return out


def run_child(checkout: Path, script: str, args: list[str], result) -> dict:
    """Run script with args in a fresh interpreter in checkout, with its src/
    importable and, as bench/run.py runs its jobs, one BLAS thread unless
    this process's environment sets the count; the run, with the fields that
    result makes of the JSON on its last line of output."""
    env = {**os.environ, "PYTHONPATH": "src"}
    for var in BLAS_THREADS:
        env.setdefault(var, "1")
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=checkout, env=env,
                          capture_output=True, text=True, timeout=3600)
    if proc.returncode != 0:
        return {"returncode": proc.returncode, "correct": False, "metrics": {},
                "stderr": proc.stderr[-2000:]}
    return {"returncode": 0, "correct": True,
            **result(json.loads(proc.stdout.strip().splitlines()[-1]))}


def time_steps(checkout: Path, configs: dict, shared: dict) -> dict:
    """One fresh process in checkout timing configs by train_run and shared
    by train_preference; its per-step metrics."""
    return run_child(checkout, STEP_CHILD, [json.dumps(configs), json.dumps(shared)],
                     lambda seconds: {"seconds": seconds, "metrics": step_metrics(seconds)})


def soup_configs() -> dict:
    """shape -> {label: RunConfig dict} of one short optimizer round at each
    SOUP_SHAPES shape: every OPTIMIZER_MIX label with PROBE_RUN's steps."""
    return {shape: {label: _deep_update(_deep_update(_deep_update({"seed": SEED0}, SHAPES[shape]),
                                                     over), PROBE_RUN)
                    for label, over in OPTIMIZER_MIX}
            for shape in SOUP_SHAPES}


def time_soup(checkout: Path, rounds: dict, work: Path, repeats: int = SOUP_REPEATS) -> dict:
    """One fresh process in checkout training rounds (as soup_configs() gives
    them) into checkpoints in work, a new directory, and timing their soup
    merges; its soup_us metrics and each merge's output digest."""
    work.mkdir()
    try:
        return run_child(checkout, SOUP_CHILD, [json.dumps(rounds), str(work), str(repeats)],
                         lambda out: {"digests": out["digests"], "metrics": {
                             f"soup_us.{k}": {"value": t * 1e6} for k, t in out["seconds"].items()}})
    finally:
        shutil.rmtree(work, ignore_errors=True)


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
            if wins >= FLAG_SHARE * len(pairs):
                flagged = "win"
            elif losses >= FLAG_SHARE * len(pairs):
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
    runs, e2e_runs, lines = [], [], {}
    try:
        checkouts = {}
        for s in SIDES:
            checkouts[s] = tmp / s
            export(revs[s], checkouts[s])
            lines[s] = src_lines(checkouts[s])
        for w in workloads:
            for i, s in pair_order(args.pairs):
                seed = SEED0 + i
                r = run_once(checkouts[s], w, seed, seconds)
                runs.append({"workload": w, "pair": i, "side": s, "seed": seed, **r})
                status = "ok" if r["correct"] else f"FAILED rc={r['returncode']}"
                print(f"{w} pair {i} {s}: {status}", file=sys.stderr, flush=True)
        # The parent's tests/ on both sides, over each side's src/.
        tested = {"parent": checkouts["parent"], "change": tmp / "change-src"}
        with_src(checkouts["parent"], checkouts["change"], tested["change"])
        for i, s in pair_order(E2E_PAIRS):
            seed = SEED0 + i
            for name, cmd in E2E_COMMANDS.items():
                r = time_command(tested[s], cmd)
                r["passed"] = passed_count(r["summary"])
                e2e_runs.append({"command": name, "pair": i, "side": s, **r})
                print(f"{name} pair {i} {s}: {r['summary']}", file=sys.stderr, flush=True)
            r = run_once(checkouts[s], E2E_WORKLOAD, seed, seconds)
            e2e_runs.append({"workload": E2E_WORKLOAD, "pair": i, "side": s, "seed": seed, **r})
            status = "ok" if r["correct"] else f"FAILED rc={r['returncode']}"
            print(f"{E2E_WORKLOAD} pair {i} {s}: {status}", file=sys.stderr, flush=True)
        for name in E2E_COMMANDS:
            mark_comparable([r for r in e2e_runs if r.get("command") == name])
        merge_runs, merge_inputs = time_merges(checkouts, tmp / "merge", time_command)
        e2e_runs += merge_runs + time_trains(checkouts, tmp / "train", time_command)
        configs, step_runs = step_configs(), []
        shared = shared_configs(configs)
        for i, s in pair_order(STEP_PAIRS):
            r = time_steps(checkouts[s], configs, shared)
            step_runs.append({"pair": i, "side": s, **r})
            print(f"per-step pair {i} {s}: rc={r['returncode']}", file=sys.stderr, flush=True)
        rounds, soup_runs = soup_configs(), []
        for i, s in pair_order(SOUP_PAIRS):
            r = time_soup(checkouts[s], rounds, tmp / f"soup-{i}-{s}")
            soup_runs.append({"pair": i, "side": s, **r})
            print(f"soup pair {i} {s}: rc={r['returncode']}", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    summary = {}
    for w in workloads:
        wr = [r for r in runs if r["workload"] == w]
        summary[w] = {
            **counts(wr),
            "failed_operations": {s: sum(r["failed"] for r in wr if r["side"] == s) for s in SIDES},
            "attempted_operations": {s: sum(r["attempted"] for r in wr if r["side"] == s) for s in SIDES},
            "metrics": summarize(wr, bench["end_to_end"]),
        }
    e2e_summary = {}
    for name, key, specs in [*((n, "command", TIMINGS) for n in E2E_COMMANDS),
                             (E2E_WORKLOAD, "workload", bench["end_to_end"])]:
        rs = [r for r in e2e_runs if r.get(key) == name]
        e2e_summary[name] = {**counts(rs), "metrics": summarize(rs, specs)}
    for name in [f"merge_{m}" for m in MERGE_METHODS] + ["train_default"]:
        rs = [r for r in e2e_runs if r.get("command") == name]
        e2e_summary[name] = {
            **counts(rs),
            "outputs_identical": len({r["output_blake2b"] for r in rs}) == 1,
            "metrics": summarize(rs, TIMINGS),
        }
    step_specs = [{"name": f"{m}.{c}", "unit": "us", "better": "lower", "bound": None}
                  for m, _ in STEP_METRICS.values() for c in sorted({k.split("/")[0] for k in configs})]
    per_step = {
        "gated": False, "pairs": STEP_PAIRS, "repeats": STEP_REPEATS, "extra_steps": STEP_EXTRA,
        "runs_per_config": {run: {"dpo_steps": n, "phase_steps": p}
                            for run, (n, p) in STEP_RUNS.items()},
        "shared_runs": SHARED_RUNS,
        "wide_step": dict(zip(("shape", "label", "runs"), WIDE_STEP)),
        "runs_correct": sum(r["correct"] for r in step_runs), "n_runs": len(step_runs),
        "summary": summarize(step_runs, step_specs), "runs": step_runs,
    }
    merge_cmd = merge_command([Path(p.name) for p in merge_inputs], Path("out.pset"), "M")
    train_cmd = train_command(Path("config.json"), Path("run"))  # config.json holds {}
    end_to_end = {
        "gated": False, "pairs": E2E_PAIRS, "seeds": [SEED0, SEED0 + E2E_PAIRS - 1],
        "merge_pairs": MERGE_PAIRS, "train_pairs": TRAIN_PAIRS,
        "commands": {**{n: " ".join(["PYTHONPATH=src", "python3", *c[1:]])
                        for n, c in E2E_COMMANDS.items()},
                     "merge_M": " ".join(["PYTHONPATH=src", "python3", *merge_cmd[1:]]),
                     "train_default": " ".join(["PYTHONPATH=src", "python3", *train_cmd[1:]])},
        "summary": e2e_summary, "runs": e2e_runs, "per_step": per_step,
        "soup": {
            "gated": False, "pairs": SOUP_PAIRS, "repeats": SOUP_REPEATS, "rounds": rounds,
            "runs_correct": sum(r["correct"] for r in soup_runs), "n_runs": len(soup_runs),
            "outputs_identical": len({json.dumps(r.get("digests"), sort_keys=True)
                                      for r in soup_runs}) == 1,
            "summary": summarize(soup_runs, [
                {"name": f"soup_us.{shape}.{part}", "unit": "us", "better": "lower", "bound": None}
                for shape in SOUP_SHAPES for part in ("load", *MERGE_METHODS)]),
            "runs": soup_runs,
        },
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
    report = {"meta": meta, "summary": summary, "runs": runs, "end_to_end": end_to_end}
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
