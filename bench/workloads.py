"""The benchmark's workloads as lists of jobs, and the output checks for each job.

A job is one `mergeopt train` or `mergeopt merge` command. Every job's inputs
derive from a pool seed; the golden outputs in goldens.json were recorded for
every pool seed, so each timed job is checked against the output the program
gave when the goldens were recorded.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import statistics
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

POOL_SEEDS = tuple(range(1, 9))
TOL_FRACTION = 0.25  # tolerant checks allow this share of the seed-to-seed stdev
MERGE_METHODS = ("linear", "dare", "ties")
SOUP_REPEATS = 5  # soup merges take milliseconds; repeat them for a steady median
PSET_MAGIC = b"PSET1\n"

# One run of each step path; the label is the run_s.<label> metric name.
OPTIMIZER_MIX = (
    ("adamw", {"optimizer": "adamw", "adam": {"weight_decay": 0.01}}),
    ("ondare", {"optimizer": "ondare"}),
    ("onties", {"optimizer": "onties"}),
    ("fullmerge", {"optimizer": "fullmerge"}),
    ("stepk-ondare", {"optimizer": "stepk-ondare", "merge": {"gap_step": 5}}),
    ("stepk-onties", {"optimizer": "stepk-onties", "merge": {"gap_step": 5}}),
    ("childtuning", {"optimizer": "childtuning"}),
    ("ondare-ema", {"optimizer": "ondare", "ema_coefficient": 0.01}),
)

SHAPES = {
    "h4": {"data": {"hidden_dim": 4}, "adam": {"learning_rate": 1e-4}, "dpo": {"eval_every": 2000}},
    "h16": {},
    "h256": {"data": {"hidden_dim": 256}, "dpo": {"batch_size": 256}},
}

# A short run per optimizer at a workload's shape, for run_s.* where the
# workload's own runs use a single optimizer.
PROBE_RUN = {"phases": {"pretrain_steps": 50, "sft_steps": 50}, "dpo": {"steps": 50}}

ALPHAS = (1e-7, 1e-6, 1e-5, 1e-4)
ALPHA_SWEEP_STEPS = 3000

# Offline-merge checkpoints: one tensor of 1M elements and eight of 262k,
# 25 MB each, so base plus three models is near a 105 MB L3.
MERGE_TENSORS = (("embed", (1024, 1024)),) + tuple(
    (f"layer{i}.w", (512, 512)) for i in range(8)
)
MERGE_MODELS = 3


@dataclass
class Job:
    kind: str  # "train" or "merge"
    stream: str  # "main" or "rr" (the optimizer round-robin)
    label: str
    pool_seed: int
    config: dict = field(default_factory=dict)  # train: RunConfig dict
    method: str = ""  # merge: linear | dare | ties
    inputs: str = ""  # merge: "soup" (the round's models) or "synthetic"

    @property
    def key(self) -> str:
        return f"{self.stream}/{self.pool_seed}/{self.label}"


def _deep_update(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_update(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def _train(stream, label, pool_seed, *parts) -> Job:
    cfg = {"seed": pool_seed}
    for p in parts:
        cfg = _deep_update(cfg, p)
    return Job("train", stream, label, pool_seed, config=cfg)


def round_robin(shape: str, pool_seed: int, short: bool, soup: bool) -> list[Job]:
    """One run of each optimizer on one seed, then the soup: the round's
    fine-tuned models, which share theta_b, merged into it by each method."""
    extra = (PROBE_RUN,) if short else ()
    jobs = [_train("rr", label, pool_seed, SHAPES[shape], over, *extra) for label, over in OPTIMIZER_MIX]
    if soup:
        jobs += [
            Job("merge", "rr", f"soup-{m}", pool_seed, method=m, inputs="soup")
            for _ in range(SOUP_REPEATS)
            for m in MERGE_METHODS
        ]
    return jobs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: str  # shape of the optimizer round-robin
    tolerant: bool  # compare final metrics within a tolerance, not bit-exactly

    def main_pass(self, pool_seed: int) -> list[Job]:
        if self.name == "alpha-sweep-h4":
            sweep = {"optimizer": "ondare", "dpo": {"steps": ALPHA_SWEEP_STEPS}}
            return [
                _train("main", f"alpha-{a:g}", pool_seed, SHAPES["h4"], sweep, {"merge": {"alpha": a}})
                for a in ALPHAS
            ]
        if self.name == "optimizer-mix-h16":
            return round_robin("h16", pool_seed, short=False, soup=True)
        if self.name == "wide-h256":
            return [_train("main", "onties", pool_seed, SHAPES["h256"], {"optimizer": "onties"})]
        if self.name == "offline-merge":
            return [Job("merge", "main", m, pool_seed, method=m, inputs="synthetic") for m in MERGE_METHODS]
        raise KeyError(self.name)

    def probe_pass(self, pool_seed: int) -> list[Job]:
        """The short optimizer round-robin; empty where the main pass is one."""
        if self.name == "optimizer-mix-h16":
            return []
        return round_robin(self.shape, pool_seed, short=True, soup=self.name != "offline-merge")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("alpha-sweep-h4", "criterion-9 OnDARE alpha sweep at hidden 4: per-step Python overhead and masks dominate, evaluation is ~0%", "h4", False),
        Workload("optimizer-mix-h16", "default config, one run per step path in round-robin: no single optimizer variant may slow", "h16", False),
        Workload("wide-h256", "OnTIES at hidden 256, batch 256: policy arithmetic, top-p sorting and evaluation dominate, no masks", "h256", True),
        Workload("offline-merge", "merge of three 25 MB checkpoints by linear, DARE and TIES: kernels and masks on large arrays, checkpoint I/O", "h16", False),
    )
}


def pool_seed(seed: int, k: int) -> int:
    return POOL_SEEDS[(seed + k) % len(POOL_SEEDS)]


# ---- checkpoints, read and written here independently of the program ----


def write_pset(path: Path, tensors) -> None:
    """Write (name, shape, float64 array) entries in the PSET1 format."""
    entries, offset = [], 0
    for name, shape, arr in tensors:
        entries.append({"name": name, "shape": list(shape), "offset": offset, "len": arr.size})
        offset += arr.size
    header = json.dumps({"entries": entries, "dtype": "f64", "version": 1}, separators=(",", ":")).encode()
    with open(path, "wb") as f:
        f.write(PSET_MAGIC + struct.pack("<I", len(header)) + header)
        for _, _, arr in tensors:
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_pset(path: Path):
    """(name, shape, float64 array) entries of a PSET1 file."""
    buf = Path(path).read_bytes()
    if buf[: len(PSET_MAGIC)] != PSET_MAGIC:
        raise ValueError(f"{path}: not a PSET1 file")
    (hlen,) = struct.unpack_from("<I", buf, len(PSET_MAGIC))
    start = len(PSET_MAGIC) + 4
    header = json.loads(buf[start : start + hlen])
    payload = memoryview(buf)[start + hlen :]
    return [
        (e["name"], tuple(e["shape"]), np.frombuffer(payload, "<f8", e["len"], e["offset"] * 8))
        for e in header["entries"]
    ]


def pset_fingerprint(path: Path) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name, shape, arr in read_pset(path):
        h.update(name.encode() + b"\x00" + json.dumps(shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def pset_norms(path: Path) -> list[float]:
    return [float(np.linalg.norm(arr)) for _, _, arr in read_pset(path)]


def synthesize_merge_inputs(pool_seed: int, out_dir: Path) -> list[Path]:
    """Base and fine-tuned checkpoints for offline-merge; returns [base, models...]."""
    rng = np.random.default_rng([pool_seed, 7])
    base = [(n, s, rng.normal(0.0, 0.02, size=math.prod(s))) for n, s in MERGE_TENSORS]
    paths = [out_dir / "base.pset"]
    write_pset(paths[0], base)
    for i in range(MERGE_MODELS):
        model = [(n, s, a + rng.normal(0.0, 0.002, size=a.size)) for n, s, a in base]
        paths.append(out_dir / f"model{i}.pset")
        write_pset(paths[-1], model)
    return paths


# ---- golden outputs ----


def job_output(job: Job, run_dir: Path, merged: Path, tolerant: bool) -> dict:
    """What the check compares: fingerprints, or floats for tolerant workloads."""
    if job.kind == "merge":
        return {"norms": pset_norms(merged)} if tolerant else {"merged": pset_fingerprint(merged)}
    csv = (run_dir / "metrics.csv").read_bytes()
    if tolerant:
        last = csv.decode().strip().splitlines()[-1].split(",")
        return {"step": int(last[0]), "final_row": [float(v) for v in last[1:]]}
    return {
        "metrics_csv": hashlib.blake2b(csv, digest_size=16).hexdigest(),
        "theta_final": pset_fingerprint(run_dir / "theta_final.pset"),
    }


def tolerances(goldens: dict) -> dict:
    """Per workload/stream/label: TOL_FRACTION of the stdev over pool seeds of each value."""
    groups: dict[str, list[list[float]]] = {}
    for key, out in goldens.items():
        vals = out.get("final_row", out.get("norms"))
        if vals is not None:
            workload, stream, _, label = key.split("/")
            groups.setdefault(f"{workload}/{stream}/{label}", []).append(vals)
    return {
        g: [TOL_FRACTION * statistics.pstdev(col) for col in zip(*rows)]
        for g, rows in groups.items()
    }


def check_output(got: dict, want: dict, tol: list[float] | None) -> bool:
    if tol is None:
        return got == want
    if got.get("step") != want.get("step"):
        return False
    vals, ref = got.get("final_row", got.get("norms")), want.get("final_row", want.get("norms"))
    return len(vals) == len(ref) and all(abs(a - b) <= t for a, b, t in zip(vals, ref, tol))
