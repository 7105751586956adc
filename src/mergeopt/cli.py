"""Command-line surface: merge, train, sweep, inspect.

Exit codes: 0 success, 1 runtime or numeric failure, 2 usage/config error.
Every command is deterministic given identical inputs and seed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import (
    EmptyInput,
    FormatError,
    InvalidBeta,
    InvalidConfig,
    InvalidProbability,
    MergeOptError,
    MisalignedSets,
    NonFiniteLoss,
    NonFiniteResult,
)
from .kernels import MergeMethod, MergeSpec, offline_merge
from .params import check_aligned, load_checkpoint, save_checkpoint
from .training import RunConfig, make_suite, train_run


def _load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except (ValueError, RecursionError) as e:
            raise InvalidConfig(f"{path}: not a JSON document ({e})") from e
    return RunConfig.from_dict(raw)


def _write_run_outputs(out_dir: Path, cfg: RunConfig, result=None, metrics=None) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "config.json", "wb") as f:
        f.write(cfg.to_json_bytes())
    if result is not None:
        save_checkpoint(result.theta_base, out_dir / "theta_b.pset")
        save_checkpoint(result.theta_ref, out_dir / "theta_r.pset")
        save_checkpoint(result.theta_final, out_dir / "theta_final.pset")
        result.metrics.write(out_dir / "metrics.csv")
    elif metrics is not None:
        metrics.write(out_dir / "metrics.csv")


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
        tau = arr - base.flat(name)
        nnz = int(np.count_nonzero(tau))
        print(f"{name:<24}{str(shape):<16}{nnz:<12}{nnz / max(arr.size, 1):.4f}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    out_dir = Path(cfg.out_dir)
    suite = make_suite(cfg)
    try:
        result = train_run(suite, cfg)
    except NonFiniteLoss as e:
        _write_run_outputs(out_dir, cfg, metrics=e.metrics)
        print(f"error: {e} (last good step {e.last_good_step})", file=sys.stderr)
        return 1
    _write_run_outputs(out_dir, cfg, result=result)
    last = result.metrics.last()
    print(
        f"run complete: {cfg.dpo.steps} steps, reward_margin {last.reward_margin:.4f}, "
        f"pretrain_accuracy {last.pretrain_accuracy:.4f} -> {out_dir}"
    )
    return 0


def _sweep_grid(args) -> list[dict]:
    axes = {
        "alpha": args.alpha or [None],
        "reserve_rate": args.reserve or [None],
        "gap_step": args.gap_step or [None],
        "dpo_beta": args.beta or [None],
    }
    points = []
    for combo in itertools.product(*axes.values()):
        points.append({k: v for k, v in zip(axes.keys(), combo)})
    return points


def _sweep_point_config(base_cfg: RunConfig, point: dict, seed: int, out_dir: str) -> RunConfig:
    merge = base_cfg.merge
    dpo = base_cfg.dpo
    if point["alpha"] is not None:
        merge = replace(merge, alpha=point["alpha"])
    if point["reserve_rate"] is not None:
        merge = replace(merge, reserve_rate=point["reserve_rate"])
    if point["gap_step"] is not None:
        merge = replace(merge, gap_step=int(point["gap_step"]))
    if point["dpo_beta"] is not None:
        dpo = replace(dpo, beta=point["dpo_beta"])
    return replace(base_cfg, merge=merge, dpo=dpo, seed=seed, out_dir=out_dir)


def _run_sweep_point(payload: dict) -> dict:
    """One grid point as a picklable job: returns the summary row."""
    cfg = RunConfig.from_dict(payload["config"])
    row = dict(payload["label"])
    try:
        suite = make_suite(cfg)
        result = train_run(suite, cfg)
        _write_run_outputs(Path(cfg.out_dir), cfg, result=result)
        last = result.metrics.last()
        row.update(
            status="ok",
            final_pref_accuracy=last.pref_accuracy,
            final_pretrain_accuracy=last.pretrain_accuracy,
            final_reward_margin=last.reward_margin,
        )
    except MergeOptError as e:
        if isinstance(e, NonFiniteLoss):
            _write_run_outputs(Path(cfg.out_dir), cfg, metrics=e.metrics)
        row.update(
            status=f"failed: {type(e).__name__}",
            final_pref_accuracy="",
            final_pretrain_accuracy="",
            final_reward_margin="",
        )
    return row


def _max_workers() -> int:
    raw = os.environ.get("MERGEOPT_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise InvalidConfig(f"MERGEOPT_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise InvalidConfig(f"MERGEOPT_THREADS must be >= 0, got {n}")
    return n or (os.cpu_count() or 1)


def cmd_sweep(args) -> int:
    base_cfg = _load_config(args.config)
    points = _sweep_grid(args)
    seeds = args.seeds or [base_cfg.seed]
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)

    jobs = []
    for i, point in enumerate(points):
        for seed in seeds:
            run_dir = out_root / f"point{i:04d}_seed{seed}"
            cfg = _sweep_point_config(base_cfg, point, seed, str(run_dir))
            label = {
                "alpha": cfg.merge.alpha,
                "reserve_rate": cfg.merge.reserve_rate,
                "gap_step": cfg.merge.gap_step,
                "dpo_beta": cfg.dpo.beta,
                "seed": seed,
            }
            jobs.append({"config": cfg.to_dict(), "label": label})

    workers = _max_workers()
    if workers == 1 or len(jobs) == 1:
        rows = [_run_sweep_point(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            rows = list(pool.map(_run_sweep_point, jobs))

    columns = [
        "alpha", "reserve_rate", "gap_step", "dpo_beta", "seed", "status",
        "final_pref_accuracy", "final_pretrain_accuracy", "final_reward_margin",
    ]
    summary = out_root / "sweep_summary.csv"
    with open(summary, "w", encoding="utf-8") as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(_csv_cell(row[c]) for c in columns) + "\n")
    failures = sum(1 for r in rows if r["status"] != "ok")
    print(f"sweep complete: {len(rows)} runs, {failures} failed -> {summary}")
    return 0


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfig, InvalidProbability, InvalidBeta, EmptyInput) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (MisalignedSets, FormatError, NonFiniteLoss, NonFiniteResult) as e:
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
