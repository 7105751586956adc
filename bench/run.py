"""mergeopt benchmark: closed-loop `train`/`merge` workloads with output checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
One client runs one CLI command at a time, in-process, and starts the next
when the last one returns. With --trace 0 the last stdout line holds the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run. See bench/NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
GOLDENS = BENCH / "goldens.json"
OUT_DIR = ROOT / ".bench_out"
WORK_PARENT = ROOT / ".bench_work"
SETUP_REPEATS = 7
PROBE_SHARE = 0.5  # share of a run's time given to the optimizer round-robin
CAL_REF_S = 2.5e-4  # reported times are scaled to a machine where one calibration loop takes this
CAL_SHARE = 0.05  # calibration CPU time before and after each job, as a share of the job's
CAL_MIN_S = 0.005

# One BLAS thread: on a small shared box a second BLAS thread made hidden-256
# runs slower and far noisier. Set before numpy loads; a caller may override.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

if not (SRC / "mergeopt" / "__init__.py").is_file():
    print(f"error: {SRC / 'mergeopt'} not found; run from the root of a mergeopt checkout", file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import mergeopt.cli  # noqa: E402
from mergeopt.training import RunConfig  # noqa: E402
from tracer import LAYER_FUNCTIONS, Tracer, summarize  # noqa: E402
from workloads import (  # noqa: E402
    MERGE_TENSORS,
    OPTIMIZER_MIX,
    SHAPES,
    WORKLOADS,
    Job,
    check_output,
    job_output,
    pool_seed,
    synthesize_merge_inputs,
    tolerances,
)

if not Path(mergeopt.cli.__file__).resolve().is_relative_to(SRC.resolve()):
    print(f"error: imported mergeopt from {mergeopt.cli.__file__}, not {SRC}", file=sys.stderr)
    raise SystemExit(2)


class Calibration:
    """How fast this machine runs small numpy operations and Python arithmetic
    right now, from a fixed loop that calls no mergeopt code.

    On a shared 2-core box a busy sibling hyperthread slowed whole runs by up
    to 1.5x in CPU time. Timing this loop just before and just after each job
    and scaling the job's CPU time by CAL_REF_S / (the loop's mean time)
    cancels most of that.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x, self.w1, self.w2 = rng.normal(size=(32, 6)), rng.normal(size=(16, 6)), rng.normal(size=(4, 16))

    def _loop(self):
        for _ in range(5):
            h = np.tanh(self.x @ self.w1.T)
            z = h @ self.w2.T
            z = z - z.max(axis=1, keepdims=True)
            lp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            ((lp @ self.w2) * (1 - h**2)).T @ self.x
        total = 0
        for i in range(3000):
            total += i

    def burst(self, job_cpu_s: float) -> list[float]:
        budget = max(CAL_MIN_S, CAL_SHARE * job_cpu_s)
        samples, start = [], process_time()
        while process_time() - start < budget:
            c0 = process_time()
            self._loop()
            samples.append(process_time() - c0)
        return samples


@dataclass
class Result:
    ok: bool
    time_s: float  # CPU time scaled by the calibration around the job
    cpu_s: float
    wall_s: float
    steps: int = 0  # optimizer steps of all three phases
    in_bytes: int = 0  # input checkpoint bytes of a merge


class Runner:
    """Runs jobs through `mergeopt.cli.main` in one work directory and checks
    each job's outputs against the recorded goldens (or records them)."""

    def __init__(self, workload, work: Path, goldens: dict | None, calibrate: bool = True):
        self.w = workload
        self.cal = Calibration() if calibrate else None
        self.last_cpu_s = 0.0
        self.work = work
        self.goldens = goldens
        self.tols = tolerances(goldens) if goldens is not None and workload.tolerant else {}
        self.synthetic: dict[int, list[Path]] = {}
        self.recorded: dict[str, dict] = {}

    def prepare(self, jobs) -> None:
        """Set-up outside the timed region: the offline-merge inputs."""
        for job in jobs:
            if job.inputs == "synthetic" and job.pool_seed not in self.synthetic:
                d = self.work / f"synthetic{job.pool_seed}"
                d.mkdir(parents=True, exist_ok=True)
                self.synthetic[job.pool_seed] = synthesize_merge_inputs(job.pool_seed, d)

    def _train_args(self, job: Job):
        d = self.work / job.stream / job.label
        d.mkdir(parents=True, exist_ok=True)
        (d / "config.json").write_text(json.dumps(job.config))
        cfg = RunConfig.from_dict(job.config)
        steps = cfg.phases.pretrain_steps + cfg.phases.sft_steps + cfg.dpo.steps
        return ["train", "--config", str(d / "config.json"), "--out", str(d / "run")], d / "run", steps

    def _merge_args(self, job: Job):
        if job.inputs == "synthetic":
            base, *models = self.synthetic[job.pool_seed]
        else:
            rr = self.work / "rr"
            base = rr / OPTIMIZER_MIX[0][0] / "run" / "theta_b.pset"
            models = [rr / label / "run" / "theta_final.pset" for label, _ in OPTIMIZER_MIX]
        out = self.work / "merged.pset"
        args = ["merge", *map(str, models), "--base", str(base), "--out", str(out),
                "--method", job.method, "--seed", str(job.pool_seed)]
        return args, out, sum(os.path.getsize(p) for p in (base, *models))

    def run(self, job: Job, tracer: Tracer | None = None) -> Result:
        if job.kind == "train":
            args, run_dir, steps = self._train_args(job)
            out, in_bytes = None, 0
        else:
            args, out, in_bytes = self._merge_args(job)
            run_dir, steps = None, 0
        captured = io.StringIO()
        before = self.cal.burst(self.last_cpu_s) if self.cal else []
        t0, c0 = perf_counter(), process_time()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                if tracer is None:
                    rc = mergeopt.cli.main(args)
                else:
                    rc = tracer.call(f"cli.{job.kind}", mergeopt.cli.main, args)
        except Exception:  # a crash in one job is a failed operation
            rc = None
            traceback.print_exc()
        cpu, wall = process_time() - c0, perf_counter() - t0
        self.last_cpu_s = cpu
        around = before + self.cal.burst(cpu) if self.cal else []
        time_s = cpu * CAL_REF_S / statistics.mean(around) if around else cpu
        ok = rc == 0 and self._check(job, run_dir, out)
        if not ok:
            print(f"failed: {self.w.name} {job.key} rc={rc}\n{captured.getvalue()}", file=sys.stderr)
        return Result(ok, time_s, cpu, wall, steps, in_bytes)

    def _check(self, job: Job, run_dir, merged) -> bool:
        key = f"{self.w.name}/{job.key}"
        try:
            got = job_output(job, run_dir, merged, self.w.tolerant)
        except (OSError, ValueError, KeyError, IndexError) as e:  # missing or unreadable output
            print(f"{key}: cannot read output: {e}", file=sys.stderr)
            return False
        if self.goldens is None:
            self.recorded[key] = got
            return True
        want = self.goldens.get(key)
        tol = self.tols.get(f"{self.w.name}/{job.stream}/{job.label}") if self.w.tolerant else None
        return want is not None and check_output(got, want, tol)


def measure_setup(cal: Calibration) -> float:
    """Median CPU time, scaled like a job's, of a fresh interpreter importing mergeopt."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import mergeopt"]
    subprocess.run(cmd, env=env, check=True, cwd=ROOT)  # compiles bytecode once
    times = []
    for _ in range(SETUP_REPEATS):
        around = cal.burst(0.0)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run(cmd, env=env, check=True, cwd=ROOT)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        around += cal.burst(cpu)
        times.append(cpu * CAL_REF_S / statistics.mean(around))
    return statistics.median(times)


def _streams(w, seed):
    """The main pass repeated over pool seeds, and the round-robin if separate."""
    fixed = w.name == "offline-merge"  # one synthetic input set per run
    main = (j for k in itertools.count() for j in w.main_pass(pool_seed(seed, 0 if fixed else k)))
    streams = {"main": main}
    if w.probe_pass(pool_seed(seed, 0)):
        streams["rr"] = (j for k in itertools.count() for j in w.probe_pass(pool_seed(seed, k)))
    return streams


def timed_run(w, seed: int, seconds: float, runner: Runner):
    """Closed loop over the workload's streams until `seconds` have passed and
    every metric has a sample; returns [(stream, job, result)]."""
    streams = _streams(w, seed)
    shares = {"main": 1.0 - PROBE_SHARE, "rr": PROBE_SHARE} if "rr" in streams else {"main": 1.0}
    pending = {name: next(gen) for name, gen in streams.items()}
    runner.prepare(pending.values())
    busy = dict.fromkeys(streams, 0.0)
    done = []
    need_rr = {label for label, _ in OPTIMIZER_MIX}
    need_merge = True
    t_start = perf_counter()
    while perf_counter() - t_start < seconds or need_rr or need_merge:
        name = min(busy, key=lambda s: busy[s] / shares[s])
        job = pending[name]
        pending[name] = next(streams[name])
        t0 = perf_counter()
        res = runner.run(job)
        busy[name] += perf_counter() - t0
        done.append((name, job, res))
        if job.kind == "train" and job.stream == "rr":
            need_rr.discard(job.label)
        need_merge &= job.kind != "merge"
    return done


def end_to_end(done, setup_s: float) -> dict:
    def pick(kind):
        main = [(j, r) for s, j, r in done if s == "main" and j.kind == kind]
        return main or [(j, r) for _, j, r in done if j.kind == kind]

    trains, merges = pick("train"), pick("merge")
    by_method = {}
    for j, r in merges:
        by_method.setdefault(j.label, []).append(r)
    # Per-method medians: a merge of the soup takes milliseconds, so one
    # scheduler hiccup would otherwise dominate a sum.
    merge_bytes = sum(statistics.median(r.in_bytes for r in rs) for rs in by_method.values())
    merge_s = sum(statistics.median(r.time_s for r in rs) for rs in by_method.values())
    m = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "steps_per_s": (sum(r.steps for _, r in trains) / sum(r.time_s for _, r in trains), "1/s"),
        "merge_mb_per_s": (merge_bytes / 1e6 / merge_s, "MB/s"),
    }
    for label, _ in OPTIMIZER_MIX:
        times = [r.time_s for _, j, r in done if j.kind == "train" and j.stream == "rr" and j.label == label]
        m[f"run_s.{label}"] = (statistics.median(times), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# ---- plain-numpy floor: the same work with no per-tensor or per-call overhead ----


def _shape_dims(shape: str):
    cfg = RunConfig.from_dict(SHAPES[shape])
    return cfg.data.input_dim, cfg.data.hidden_dim, cfg.data.num_responses, cfg.dpo.batch_size


def _median_us(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e6


def floor_adam_us(n: int, reps: int) -> float:
    """One bias-corrected Adam update over one flat float64 array."""
    rng = np.random.default_rng(0)
    g, theta, m, v = rng.normal(size=n), rng.normal(size=n), np.zeros(n), np.zeros(n)
    t = [0]

    def step():
        t[0] += 1
        m[:] = 0.9 * m + 0.1 * g
        v[:] = 0.999 * v + 0.001 * g * g
        theta[:] += -0.02 * (m / (1 - 0.9 ** t[0])) / np.sqrt(v / (1 - 0.999 ** t[0]) + 1e-8)

    return _median_us(step, reps)


def floor_dpo_us(d: int, h: int, c: int, batch: int, reps: int) -> float:
    """One hand-written DPO forward (policy and reference) and backward."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(batch, d))
    chosen = rng.integers(0, c, batch)
    rejected = (chosen + 1) % c
    w1, b1, w2, b2 = rng.normal(size=(h, d)), np.zeros(h), rng.normal(size=(c, h)), np.zeros(c)
    rows = np.arange(batch)

    def logp(hidden):
        z = hidden @ w2.T + b2
        z = z - z.max(axis=1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=1, keepdims=True))

    def step():
        hidden = np.tanh(x @ w1.T + b1)
        lp = logp(hidden)
        lp_ref = logp(np.tanh(x @ w1.T + b1))
        diff = lp - lp_ref
        margins = 0.1 * (diff[rows, chosen] - diff[rows, rejected])
        coeff = -0.1 / (1.0 + np.exp(margins)) / batch
        g = np.zeros((batch, c))
        g[rows, chosen] += coeff
        g[rows, rejected] -= coeff
        g_z = (g @ w2) * (1.0 - hidden**2)
        return g.T @ hidden, g.sum(axis=0), g_z.T @ x, g_z.sum(axis=0), np.logaddexp(0.0, -margins).mean()

    return _median_us(step, reps)


# ---- traced run ----

def traced_run(w, seed: int, seconds: float, runner: Runner):
    """A warm-up pass, then traced passes of the same jobs alternating with
    untraced ones until `seconds` have passed (at least two traced); counts
    must repeat exactly across traced passes."""
    ps = pool_seed(seed, 0)
    jobs = w.main_pass(ps) + w.probe_pass(ps)
    dpo_steps = sum(RunConfig.from_dict(j.config).dpo.steps for j in jobs if j.kind == "train")
    runner.prepare(jobs)
    results = [runner.run(j) for j in jobs]
    untraced, traced, passes, spans = [], [], [], []
    t_start = perf_counter()
    while True:
        tr = Tracer()
        t0, c0 = perf_counter(), process_time()
        with tr:
            results += [runner.run(j, tr) for j in jobs]
        traced.append(process_time() - c0)
        passes.append(summarize(tr, perf_counter() - t0, dpo_steps, len(jobs)))
        spans.append((tr.names, tr.arrays()))
        if len(passes) >= 2 and perf_counter() - t_start >= seconds:
            break
        c0 = process_time()
        results += [runner.run(j) for j in jobs]
        untraced.append(process_time() - c0)
    return results, statistics.median(untraced) / statistics.median(traced), passes, spans


def per_layer(w, passes, speed_ratio) -> tuple[dict, bool]:
    first = passes[0]["counts"]
    repeat = all(p["counts"] == first for p in passes[1:])
    n = len(passes)
    m = {}
    for name in LAYER_FUNCTIONS:
        durs = np.concatenate([p["timing"][name][0] for p in passes])
        m[f"{name}.calls"] = (first[f"{name}.calls"], "count")
        m[f"{name}.p50_us"] = (float(np.percentile(durs, 50)) * 1e6 if durs.size else 0.0, "us")
        m[f"{name}.p99_us"] = (float(np.percentile(durs, 99)) * 1e6 if durs.size else 0.0, "us")
        m[f"{name}.self_s"] = (sum(p["timing"][name][1] for p in passes) / n, "s")
    for name in ("kernels.sparsify_random", "kernels.sparsify_top_p"):
        m[f"{name}.elements"] = (first[f"{name}.elements"], "count")
        m[f"{name}.kept_ratio"] = (first[f"{name}.kept"] / max(first[f"{name}.elements"], 1), "ratio")
    m["masks.uniforms"] = (first["masks.uniforms"], "count")
    for name in ("masks.calls_per_step", "masks.uniforms_per_step", "params.builds_per_step",
                 "kernels.sorted_per_step", "optim.merges_per_step"):
        m[name] = (first[name], "count")
    m["params.bytes_written_per_run"] = (first["params.bytes_written"] / first["cli.commands"], "B")
    m["params.bytes_read_per_run"] = (first["params.bytes_read"] / first["cli.commands"], "B")
    for name in ("supervised_s", "preference_s", "eval_s"):
        m[f"training.{name}"] = (sum(p[name] for p in passes) / n, "s")
    m["trace.speed_ratio"] = (speed_ratio, "ratio")
    m["trace.coverage"] = (sum(p["self_total_s"] for p in passes) / sum(p["wall_s"] for p in passes), "ratio")
    d, h, c, batch = _shape_dims(w.shape)
    if w.name == "offline-merge":
        n_params, reps = sum(int(np.prod(s)) for _, s in MERGE_TENSORS), 30
    else:
        n_params, reps = h * d + h + c * h + c, 2000
    m["floor.adam_flat.p50_us"] = (floor_adam_us(n_params, reps), "us")
    m["floor.dpo_fwd_bwd.p50_us"] = (floor_dpo_us(d, h, c, batch, 500), "us")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, repeat


def write_spans(w, seed: int, spans) -> Path:
    """All traced passes' spans, one row per span, parents as row indices."""
    OUT_DIR.mkdir(exist_ok=True)
    names = sorted(set().union(*(pass_names for pass_names, _ in spans)))
    cols = {k: [] for k in spans[0][1]}
    pass_no, offset = [], 0
    for i, (pass_names, a) in enumerate(spans):
        remap = np.array([names.index(n) for n in pass_names])
        for k, v in a.items():
            if k == "parent":
                v = np.where(v >= 0, v + offset, -1)
            elif k == "name":
                v = remap[v]
            cols[k].append(v)
        pass_no.append(np.full(a["start"].size, i))
        offset += a["start"].size
    path = OUT_DIR / f"spans-{w.name}-seed{seed}.npz"
    np.savez(path, names=np.array(names), pass_no=np.concatenate(pass_no),
             **{k: np.concatenate(v) for k, v in cols.items()})
    return path


# ---- run metadata ----


def metadata(args, repeats: dict) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src_hash = hashlib.blake2b(digest_size=16)
    for p in sorted((SRC / "mergeopt").glob("*.py")):
        src_hash.update(p.name.encode() + b"\x00" + p.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None

    def cache_bytes(level):
        try:
            out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True,
                                 text=True, timeout=10).stdout.strip()
            return int(out) if out.isdigit() else None
        except (OSError, subprocess.SubprocessError):
            return None

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": sha, "src_blake2b": src_hash.hexdigest(),
        "python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "l2_bytes": cache_bytes(2), "l3_bytes": cache_bytes(3),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "repeats": repeats,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not GOLDENS.is_file():
        print(f"error: {GOLDENS} is missing; run bench/record_goldens.py", file=sys.stderr)
        return 2
    goldens = json.loads(GOLDENS.read_text())["outputs"]
    w = WORKLOADS[args.workload]
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_PARENT))
    try:
        runner = Runner(w, work, goldens, calibrate=not args.trace)
        if args.trace:
            results, speed_ratio, passes, spans = traced_run(w, args.seed, args.seconds, runner)
            metrics, repeat = per_layer(w, passes, speed_ratio)
            if not repeat:
                print("error: counts differ between traced passes", file=sys.stderr)
            path = write_spans(w, args.seed, spans)
            repeats = {"traced_passes": len(passes), "jobs": len(results),
                       "spans_file": str(path.relative_to(ROOT))}
            # The repeat check of the traced passes' counts is one more operation.
            failed = sum(not r.ok for r in results) + (not repeat)
            attempted = len(results) + 1
        else:
            setup_s = measure_setup(runner.cal)
            done = timed_run(w, args.seed, args.seconds, runner)
            metrics = end_to_end(done, setup_s)
            results = [r for _, _, r in done]
            repeats = {"setup": SETUP_REPEATS, "jobs": len(results),
                       "jobs_by_label": dict(Counter(f"{j.stream}/{j.label}" for _, j, _ in done))}
            failed = sum(not r.ok for r in results)
            attempted = len(results)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    repeats["job_time_s"] = sum(r.time_s for r in results)
    repeats["job_cpu_s"] = sum(r.cpu_s for r in results)
    repeats["job_wall_s"] = sum(r.wall_s for r in results)
    print(json.dumps({"meta": metadata(args, repeats)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
