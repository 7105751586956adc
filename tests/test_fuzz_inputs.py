"""Seeded input fuzz through in-process main().

Corrupted PSET1 files (through inspect and merge, also right after a valid
file, so that load_checkpoint's parsed-header memo is warm), mutated leaves
of a tiny run config (through train), and bad merge and sweep arguments. Every case
must return 0, 1 or 2 with no exception escaping main, and a failed merge or
sweep must leave no output and no temporary file. The seeds and case counts
are fixed, so every run tries the same inputs.
"""

import json
import os
import random
import struct

import numpy as np
import pytest

from mergeopt import ParameterSet, cli, save_checkpoint
from mergeopt.cli import main
from mergeopt.params import MAP_MIN_BYTES, MAGIC
from mergeopt.training import RunConfig

PSET_CASES = 300
MERGE_CASES = 150
SWEEP_CASES = 80
MUTATIONS_PER_LEAF = 3

TINY_CONFIG = {
    "seed": 3,
    "optimizer": "ondare",
    "dpo": {"steps": 4, "eval_every": 2, "batch_size": 4},
    "phases": {"pretrain_steps": 4, "sft_steps": 4, "batch_size": 8},
    "data": {
        "input_dim": 4,
        "hidden_dim": 3,
        "num_responses": 2,
        "sizes": {
            "pretrain_train": 16,
            "pretrain_eval": 8,
            "sft_train": 16,
            "sft_eval": 8,
            "pref_train": 16,
            "pref_eval": 8,
        },
    },
}

# Values of the wrong type for any leaf, and numbers for the leaves that take
# them. Integers stay small: a count has no upper bound, so a large one would
# train or allocate for as long as it says.
WRONG_TYPES = ["3", None, [], [1], {}, {"a": 1}, True, False]
SMALL_INTS = [-2, -1, 0, 1, 2, 3, 5, 8]
REALS = [-1.0, 0.0, 5e-324, 1e-8, 0.5, 0.999, 1.0, 2.0, 1e308, -1e308,
         float("nan"), float("inf"), float("-inf")]
U64_EDGES = [-1, 0, 2**63, 2**64 - 1, 2**64, 2**70]


def run(argv) -> int:
    try:
        rc = main(argv)
    except (Exception, SystemExit) as e:
        pytest.fail(f"{type(e).__name__} escaped main for {argv}: {e}")
    assert rc in (0, 1, 2), argv
    return rc


def forbid_sweep_points(monkeypatch):
    """Fail the test if a sweep runs any point. With one CPU every point runs
    in this process, through the patched _run_sweep_point."""
    def no_point(cfg):
        raise AssertionError(f"sweep point {cfg.out_dir} ran")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(cli, "_run_sweep_point", no_point)


def pset_bytes(tmp_path) -> bytes:
    rng = np.random.default_rng(0)
    path = tmp_path / "good.pset"
    pset = ParameterSet([("w", (3, 2), rng.normal(size=(3, 2))), ("b", (3,), rng.normal(size=3))])
    save_checkpoint(pset, path)
    data = path.read_bytes()
    path.unlink()
    return data


def pack(header, payload: bytes, hlen=None) -> bytes:
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return MAGIC + struct.pack("<I", len(head) if hlen is None else hlen) + head + payload


def mutate_pset(rng: random.Random, good: bytes) -> bytes:
    (hlen,) = struct.unpack_from("<I", good, len(MAGIC))
    start = len(MAGIC) + 4
    header, payload = json.loads(good[start : start + hlen]), good[start + hlen :]
    kind = rng.randrange(4)
    if kind == 0:  # a header field of the wrong type or a huge value
        huge = [2**31, 2**32, 2**63, 2**64, 2**80, 1e308, -1]
        value = rng.choice(WRONG_TYPES + huge + [[2**40, 2**40], [0], "f32", 2])
        if rng.random() < 0.3:
            header[rng.choice(["entries", "dtype", "version"])] = value
        else:
            entry = rng.choice(header["entries"])
            field = rng.choice(["name", "shape", "offset", "len"])
            if field == "shape" and rng.random() < 0.5:
                entry["shape"] = [rng.choice(huge + [0, 1])] * rng.randint(1, 3)
            else:
                entry[field] = value
        return pack(header, payload)
    if kind == 1:  # bit flips anywhere
        data = bytearray(good)
        for _ in range(rng.randint(1, 8)):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        return bytes(data)
    if kind == 2:  # truncation
        return good[: rng.randrange(len(good))]
    # a header length that is not the header's
    false = rng.choice([0, 1, hlen - 1, hlen + 1, hlen + 8, len(good), 2**31, 2**32 - 1])
    return pack(header, payload, hlen=false)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_corrupted_checkpoints_through_inspect_and_merge(tmp_path, capsys):
    good = pset_bytes(tmp_path)
    assert len(good) < MAP_MIN_BYTES
    inputs, out_dir = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    out_dir.mkdir()
    base, bad, out = inputs / "base.pset", inputs / "bad.pset", out_dir / "merged.pset"
    base.write_bytes(good)
    rng = random.Random(1601)
    codes = set()
    head = len(MAGIC) + 4 + struct.unpack_from("<I", good, len(MAGIC))[0]
    warm = {"other header": 0, "same header": 0}  # rejected right after base loaded
    for _ in range(PSET_CASES):
        data = mutate_pset(rng, good)
        bad.write_bytes(data)
        codes.add(run(["inspect", str(bad)]))
        if run(["inspect", str(base), "--diff", str(bad)]) == 1:
            warm["same header" if data[:head] == good[:head] else "other header"] += 1
        models = [str(bad), str(base)] if rng.random() < 0.5 else [str(bad)]
        if run(["merge", *models, "--base", str(base), "--out", str(out),
                "--method", rng.choice(["linear", "dare", "ties"])]) == 0:
            out.unlink()
        assert not list(out_dir.iterdir())
        capsys.readouterr()
    assert {0, 1} <= codes
    assert min(warm.values()) > 0, warm


def leaves(d, prefix=()):
    for k, v in d.items():
        if isinstance(v, dict):
            yield from leaves(v, prefix + (k,))
        else:
            yield prefix + (k,), v


def leaf_mutant(rng: random.Random, path, value):
    if path == ("seed",):
        return rng.choice(U64_EDGES + WRONG_TYPES + [1.0])
    if path == ("optimizer",):
        return rng.choice(["adamw", "onties", "stepk-ondare", "childtuning", "", "nope", 7, None])
    if isinstance(value, bool):
        return rng.choice([not value, 0, 1, "true", None])
    if isinstance(value, int):
        return rng.choice(SMALL_INTS + WRONG_TYPES + [2.0, float("nan")])
    return rng.choice(REALS + WRONG_TYPES)  # the real numbers, out_dir and ema_coefficient


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_every_config_leaf_mutated_through_train(tmp_path, capsys):
    resolved = RunConfig.from_dict(TINY_CONFIG).to_dict()
    rng = random.Random(1602)
    codes = []
    for path, value in leaves(resolved):
        for j in range(MUTATIONS_PER_LEAF):
            cfg = json.loads(json.dumps(resolved))
            section = cfg
            for key in path[:-1]:
                section = section[key]
            if j == 0 and len(path) > 1 and rng.random() < 0.3:
                section["unknown"] = 1  # a key the section does not have
            else:
                section[path[-1]] = leaf_mutant(rng, path, value)
            name = "_".join(path) + f"_{j}"
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            codes.append(run(["train", "--config", str(cfg_path), "--out", str(tmp_path / name)]))
            capsys.readouterr()
    assert {0, 2} <= set(codes)


def test_bad_merge_arguments(tmp_path, capsys):
    rng_np = np.random.default_rng(2)
    inputs, out_dir = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    out_dir.mkdir()
    paths = []
    for name in ("base", "m1", "m2"):
        p = inputs / f"{name}.pset"
        save_checkpoint(ParameterSet([("w", (4, 3), rng_np.normal(size=(4, 3)))]), p)
        paths.append(str(p))
    out = out_dir / "merged.pset"
    rng = random.Random(1603)
    numbers = ["nan", "inf", "-inf", "-1", "0", "1e-300", "0.5", "1", "1.5", "1e308"]
    codes = set()
    for _ in range(MERGE_CASES):
        models = paths[1 : 1 + rng.randint(1, 2)]
        argv = ["merge", *models, "--base", paths[0], "--out", str(out),
                "--method", rng.choice(["linear", "dare", "ties"]),
                f"--density={rng.choice(numbers)}", f"--seed={rng.choice(U64_EDGES)}",
                rng.choice(["--rescale", "--no-rescale"])]
        if rng.random() < 0.8:
            # A value list ends at anything argparse takes for an option, such
            # as -inf, so weights draw only from the rest.
            argv += ["--weights", *(rng.choice([v for v in numbers if v != "-inf"])
                                    for _ in range(rng.randint(1, 3)))]
        rc = run(argv)
        codes.add(rc)
        if rc == 0:
            out.unlink()
        assert not list(out_dir.iterdir()), argv
        capsys.readouterr()
    assert {0, 2} <= codes


def test_bad_sweep_arguments_fail_before_any_point(tmp_path, capsys, monkeypatch):
    forbid_sweep_points(monkeypatch)
    good_cfg = tmp_path / "config.json"
    good_cfg.write_text(json.dumps(TINY_CONFIG))
    broken_cfg = tmp_path / "broken.json"
    broken_cfg.write_text(json.dumps({**TINY_CONFIG, "merge": {"alpha": 2.0}}))
    axes = {
        "--alpha": (["0", "1e-6", "1"], ["nan", "inf", "-0.5", "1.5", "2.0", "1e308"]),
        "--reserve": (["0.5", "1"], ["0", "nan", "inf", "-1", "1.5"]),
        "--gap-step": (["1", "2"], ["0", "-1", "-3"]),
        "--beta": (["0.1"], ["0", "-1", "nan", "inf"]),
        "--seeds": (["1", "2"], ["-1", str(2**64), str(2**70)]),
    }
    rng = random.Random(1604)
    for i in range(SWEEP_CASES):
        cfg = broken_cfg if rng.random() < 0.15 else good_cfg  # a bad config, good grid
        chosen = rng.sample(sorted(axes), rng.randint(1, 3))
        bad_axis = rng.choice(chosen)
        argv = []
        for axis in chosen:
            good, bad = axes[axis]
            values = rng.sample(good, rng.randint(1, len(good)))
            if axis == bad_axis and cfg is good_cfg:
                if axis == "--seeds":
                    bad = bad + [values[0]]  # or a repeated seed
                values.insert(rng.randrange(len(values) + 1), rng.choice(bad))
            argv += [axis, *values]
        out = tmp_path / f"sweep{i}"
        assert run(["sweep", "--config", str(cfg), "--out", str(out), *argv]) == 2, argv
        assert not out.exists(), argv
        capsys.readouterr()
