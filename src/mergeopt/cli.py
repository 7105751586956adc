"""Command-line surface: merge, train, sweep, inspect.

Exit codes: 0 success, 1 runtime or numeric failure, 2 usage/config error.
Every command is deterministic given identical inputs and seed.
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import EmptyInput, InvalidConfig, MergeOptError, NonFiniteLoss
from .kernels import MergeMethod, MergeSpec, offline_merge
from .params import check_aligned, load_checkpoint, save_checkpoint
from .training import MetricsRecord, ReferenceModels, RunConfig, csv_bytes, make_suite
from .training import train_preference, train_reference
from .training import train_run  # noqa: F401  (not called; bench/tracer.py wraps it here)


def _load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except (ValueError, RecursionError) as e:
            raise InvalidConfig(f"{path}: not a JSON document ({e})") from e
    return RunConfig.from_dict(raw)


# The reference part of the last run this process trained, under the key it
# depends on, (seed, data, phases): one entry at most.
_REFERENCES: dict = {}


def _reference(cfg: RunConfig) -> ReferenceModels:
    """train_reference of cfg's suite, shared by consecutive runs of the same
    seed, data and phases, with the reference log-prob rows and the keep-mask
    rows that the runs before computed. The slot is emptied before a build,
    so an old and a new reference part are never held at once, and a build
    that raises stores nothing. Sharing needs no copy: its arrays are
    read-only and train_preference only reads it; each mask row is the draw
    a run would make itself, so every run writes the same bytes."""
    key = (cfg.seed, cfg.data, cfg.phases)
    if key not in _REFERENCES:
        _REFERENCES.clear()
        _REFERENCES[key] = train_reference(make_suite(cfg), cfg)
    return _REFERENCES[key]


def _run(cfg: RunConfig) -> MetricsRecord:
    """Train cfg and write its run directory, cfg.out_dir; the only code that
    writes one. Returns the last metrics row.

    A finished run leaves config.json, the three checkpoints and metrics.csv.
    A run aborted by NonFiniteLoss leaves config.json and the incomplete
    metrics.csv, then re-raises; any other error, such as an out_dir at or
    under a file or a dangling symlink, which fails before training, leaves
    nothing. Training checks every value it needs finite, so numpy's
    floating-point warnings are silenced. The reference phases come from
    _reference, so a run that follows one of the same seed, data and phases
    skips them and writes the same bytes.
    """
    nearest = os.path.abspath(cfg.out_dir)
    while not os.path.lexists(nearest):  # a dangling symlink stops the walk
        nearest = os.path.dirname(nearest)
    if not os.path.isdir(nearest):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), nearest)
    try:
        with np.errstate(all="ignore"):
            result = train_preference(_reference(cfg), cfg)
    except NonFiniteLoss as e:
        aborted = e
    else:
        aborted = None
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_bytes(cfg.to_json_bytes())
    if aborted is not None:
        # A supervised-phase abort has no metrics yet.
        if aborted.metrics is not None:
            (out_dir / "metrics.csv").write_bytes(aborted.metrics.to_csv_bytes())
        raise aborted
    save_checkpoint(result.theta_base, out_dir / "theta_b.pset")
    save_checkpoint(result.theta_ref, out_dir / "theta_r.pset")
    save_checkpoint(result.theta_final, out_dir / "theta_final.pset")
    (out_dir / "metrics.csv").write_bytes(result.metrics.to_csv_bytes())
    return result.metrics.last()


def cmd_merge(args) -> int:
    n = len(args.models)
    weights = args.weights if args.weights else [1.0 / n] * n
    if len(weights) != n:
        raise InvalidConfig(f"{len(weights)} weights for {n} models")
    spec = MergeSpec(
        method=MergeMethod(args.method),
        reserve_rate=args.density,
        weights=tuple(weights),
        rescale=args.rescale,
        seed=args.seed,
    )
    base = load_checkpoint(args.base)
    models = [load_checkpoint(p) for p in args.models]
    merged = offline_merge(base, models, spec)
    save_checkpoint(merged, args.out)
    print(f"merged {len(models)} models into {args.out} ({args.method})")
    print(f"{'tensor':<24}{'shape':<16}{'delta nnz':<12}density")
    for name, shape, arr in merged:
        # Both sets are finite here, and for finite doubles a - b == 0 exactly
        # when a == b, so this counts the nonzero entries of the delta.
        nnz = int(np.count_nonzero(arr != base.flat(name)))
        print(f"{name:<24}{str(shape):<16}{nnz:<12}{nnz / max(arr.size, 1):.4f}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    last = _run(cfg)
    print(
        f"run complete: {cfg.dpo.steps} steps, reward_margin {last.reward_margin:.4f}, "
        f"pretrain_accuracy {last.pretrain_accuracy:.4f} -> {Path(cfg.out_dir)}"
    )
    return 0


_SUMMARY_COLUMNS = (
    "alpha", "reserve_rate", "gap_step", "dpo_beta", "seed", "status",
    "final_pref_accuracy", "final_pretrain_accuracy", "final_reward_margin",
)


def _run_sweep_point(cfg: RunConfig) -> list:
    """One sweep point as a picklable job: runs it and returns its
    sweep_summary.csv row, cells in _SUMMARY_COLUMNS order."""
    row = [cfg.merge.alpha, cfg.merge.reserve_rate, cfg.merge.gap_step, cfg.dpo.beta, cfg.seed]
    try:
        last = _run(cfg)
    except MergeOptError as e:
        return row + [f"failed: {type(e).__name__}", "", "", ""]
    return row + ["ok", last.pref_accuracy, last.pretrain_accuracy, last.reward_margin]


def cmd_sweep(args) -> int:
    base = _load_config(args.config)
    seeds = args.seeds or [base.seed]
    if len(set(seeds)) != len(seeds):
        raise InvalidConfig(f"--seeds must not repeat a value, got {seeds}")
    out_root = Path(args.out)
    points = list(itertools.product(
        args.alpha or [base.merge.alpha],
        args.reserve or [base.merge.reserve_rate],
        args.gap_step or [base.merge.gap_step],
        args.beta or [base.dpo.beta],
    ))
    # Seed-major, so that consecutive points share their reference phases
    # (see _reference); the summary lists them point-major.
    jobs = [
        replace(
            base,
            merge=replace(base.merge, alpha=alpha, reserve_rate=reserve, gap_step=gap),
            dpo=replace(base.dpo, beta=beta),
            seed=seed,
            out_dir=str(out_root / f"point{i:04d}_seed{seed}"),
        )
        for seed in seeds
        for i, (alpha, reserve, gap, beta) in enumerate(points)
    ]
    out_root.mkdir(parents=True, exist_ok=True)  # only once every point is valid

    workers = min(os.cpu_count() or 1, len(jobs))
    if workers == 1:  # a pool of one only adds a process start to each sweep
        rows = [_run_sweep_point(cfg) for cfg in jobs]
    else:
        rows = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                # One contiguous seed-major block per worker, so that a seed's
                # points share one reference unless its block is split.
                rows.extend(pool.map(_run_sweep_point, jobs, chunksize=-(-len(jobs) // workers)))
            except BrokenProcessPool as e:
                dead = jobs[len(rows)].out_dir
                raise MergeOptError(f"a sweep worker process died; {dead} did not finish") from e
    rows = [rows[k * len(points) + i] for i in range(len(points)) for k in range(len(seeds))]

    summary = out_root / "sweep_summary.csv"
    summary.write_bytes(csv_bytes(_SUMMARY_COLUMNS, rows))
    status = _SUMMARY_COLUMNS.index("status")
    failures = sum(1 for row in rows if row[status] != "ok")
    print(f"sweep complete: {len(rows)} runs, {failures} failed -> {summary}")
    return 0


def cmd_inspect(args) -> int:
    p = load_checkpoint(args.path)
    print(f"{args.path}: {len(p)} tensors, {p.total_elements()} elements")
    print(f"{'tensor':<24}{'shape':<16}l2 norm")
    for name, shape, arr in p:
        print(f"{name:<24}{str(shape):<16}{float(np.linalg.norm(arr)):.6g}")
    if args.diff:
        q = load_checkpoint(args.diff)
        check_aligned(p, q)
        print(f"\ndelta norms vs {args.diff}:")
        total = 0.0
        for name, _, arr in p:
            d = arr - q.flat(name)
            norm = float(np.linalg.norm(d))
            total += norm * norm
            print(f"{name:<24}{norm:.6g}")
        print(f"{'TOTAL':<24}{total ** 0.5:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mergeopt",
        description="Online merging optimizers, offline merging, and the toy DPO harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("merge", help="offline-merge model checkpoints into a base")
    p.add_argument("models", nargs="+", help="fine-tuned model checkpoints (PSET1)")
    p.add_argument("--base", required=True, help="base model checkpoint")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--method", choices=[m.value for m in MergeMethod], default="linear")
    p.add_argument("--density", type=float, default=0.5, help="reserve rate p")
    p.add_argument("--weights", type=float, nargs="+", help="one weight per model")
    p.add_argument("--rescale", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("train", help="run the pretrain/SFT/preference pipeline")
    p.add_argument("--config", required=True, help="RunConfig JSON path")
    p.add_argument("--out", help="override the config's output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="grid sweep over merge hyperparameters")
    p.add_argument("--config", required=True, help="base RunConfig JSON path")
    p.add_argument("--out", required=True, help="sweep output directory")
    p.add_argument("--alpha", type=float, nargs="+")
    p.add_argument("--reserve", type=float, nargs="+")
    p.add_argument("--gap-step", type=int, nargs="+")
    p.add_argument("--beta", type=float, nargs="+")
    p.add_argument("--seeds", type=int, nargs="+")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("inspect", help="print checkpoint header, tensors, and norms")
    p.add_argument("path", help="PSET1 checkpoint")
    p.add_argument("--diff", help="second checkpoint for pairwise delta norms")
    p.set_defaults(func=cmd_inspect)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfig, EmptyInput) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NonFiniteLoss as e:
        last = "" if e.last_good_step is None else f" (last good step {e.last_good_step})"
        print(f"error: {e}{last}", file=sys.stderr)
        return 1
    except MergeOptError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
