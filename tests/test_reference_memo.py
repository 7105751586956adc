"""Runs that share a seed, data and phases share one reference part (the
suite, theta_base and theta_ref) through cli._reference. A run that reuses it
must write the bytes of a run that built its own, and must leave it as it
found it."""

import dataclasses
import hashlib
import json
import shutil

import numpy as np
import pytest

from mergeopt import cli, masks
from mergeopt.cli import main
from mergeopt.training import OPTIMIZER_NAMES

CONFIG = {
    "seed": 3,
    "dpo": {"steps": 30, "eval_every": 10},
    "phases": {"pretrain_steps": 60, "sft_steps": 60},
    "data": {"hidden_dim": 8, "sizes": dict.fromkeys(
        ("pretrain_train", "pretrain_eval", "sft_train", "sft_eval", "pref_train", "pref_eval"), 200
    )},
}
RUNS = {name: {"optimizer": name} for name in OPTIMIZER_NAMES}
RUNS["adamw"]["adam"] = {"weight_decay": 0.01}
RUNS["stepk-ondare"]["merge"] = RUNS["stepk-onties"]["merge"] = {"gap_step": 5}
RUNS["ondare-ema"] = {"optimizer": "ondare", "ema_coefficient": 0.01}


@pytest.fixture
def builds(monkeypatch):
    """The seeds of the reference parts built from here on, from an empty memo."""
    built, train_reference = [], cli.train_reference

    def counted(suite, cfg):
        built.append(cfg.seed)
        return train_reference(suite, cfg)

    monkeypatch.setattr(cli, "train_reference", counted)
    monkeypatch.setattr(cli, "_REFERENCES", {})
    return built


def write(path, **sections):
    cfg = json.loads(json.dumps(CONFIG))
    for key, value in sections.items():
        cfg[key] = {**cfg[key], **value} if isinstance(value, dict) and key in cfg else value
    path.write_text(json.dumps(cfg))
    return path


def train(config, out) -> int:
    return main(["train", "--config", str(config), "--out", str(out)])


def files(run_dir) -> dict:
    return {f.name: f.read_bytes() for f in sorted(run_dir.iterdir())}


def reference_digest() -> str:
    """A digest of every array of the memoized suite and both models."""
    (reference,) = cli._REFERENCES.values()
    h = hashlib.blake2b(digest_size=16)
    for f in dataclasses.fields(reference.suite):
        value = getattr(reference.suite, f.name)
        parts = [getattr(value, g.name) for g in dataclasses.fields(value)] if (
            dataclasses.is_dataclass(value)) else [value]
        for part in parts:
            h.update(np.asarray(part).tobytes())
    h.update(reference.theta_base.vector().tobytes())
    h.update(reference.theta_ref.vector().tobytes())
    return h.hexdigest()


def fresh(config, out) -> tuple[int, dict]:
    """train's exit code and files for config at out, from an empty memo."""
    cli._REFERENCES.clear()
    code = train(config, out)
    return code, files(out)


def test_every_optimizer_run_from_the_memo_writes_a_fresh_runs_bytes(tmp_path, builds):
    configs = {label: write(tmp_path / f"{label}.json", **over) for label, over in RUNS.items()}
    shared = {}
    for label, config in configs.items():
        before = reference_digest() if cli._REFERENCES else None
        assert train(config, tmp_path / "run" / label) == 0
        if before is not None:
            assert reference_digest() == before, label
        shared[label] = files(tmp_path / "run" / label)
    assert builds == [CONFIG["seed"]]  # the first run built it; the other eight reused it
    assert len(shared) == 9 and all(len(written) == 5 for written in shared.values())
    for label, config in configs.items():
        shutil.rmtree(tmp_path / "run" / label)
        assert fresh(config, tmp_path / "run" / label) == (0, shared[label]), label
    assert len({written["theta_final.pset"] for written in shared.values()}) == 9
    assert len({written["theta_r.pset"] for written in shared.values()}) == 1


@pytest.mark.parametrize("first, second", [
    ({"data": {"preference_noise": 0.0}}, {"data": {"preference_noise": -0.0}}),
    ({"data": {"preference_noise": -0.0}}, {"data": {"preference_noise": 0.0}}),
    ({"phases": {"learning_rate": 1}}, {"phases": {"learning_rate": 1.0}}),
    ({"phases": {"learning_rate": 1.0}}, {"phases": {"learning_rate": 1}}),
], ids=["0.0,-0.0", "-0.0,0.0", "1,1.0", "1.0,1"])
def test_equal_keys_that_differ_in_type_or_sign_write_a_fresh_runs_bytes(
    tmp_path, builds, first, second
):
    assert train(write(tmp_path / "first.json", **first), tmp_path / "first") == 0
    config = write(tmp_path / "second.json", **second)
    assert train(config, tmp_path / "second") == 0
    assert builds == [CONFIG["seed"]]  # the keys are equal, so the second run reused the first's
    shared = files(tmp_path / "second")
    shutil.rmtree(tmp_path / "second")
    assert fresh(config, tmp_path / "second") == (0, shared)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_preference_abort_after_a_memo_hit_leaves_a_fresh_runs_files(tmp_path, capsys, builds):
    assert train(write(tmp_path / "good.json"), tmp_path / "good") == 0
    config = write(tmp_path / "boom.json", adam={"learning_rate": 1e307})
    assert train(config, tmp_path / "boom") == 1
    assert builds == [CONFIG["seed"]]
    shared, err = files(tmp_path / "boom"), capsys.readouterr().err
    assert sorted(shared) == ["config.json", "metrics.csv"]
    shutil.rmtree(tmp_path / "boom")
    assert fresh(config, tmp_path / "boom") == (1, shared)
    assert capsys.readouterr().err == err
    assert err.startswith("error: training loss went non-finite at step ")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_pretrain_fails_the_same_way_twice(tmp_path, capsys, builds):
    assert train(write(tmp_path / "good.json"), tmp_path / "good") == 0
    good, held = files(tmp_path / "good"), reference_digest()
    config = write(tmp_path / "boom.json", phases={"learning_rate": 1e307})
    outcomes = []
    for _ in range(2):
        code = train(config, tmp_path / "boom")
        outcomes.append((code, files(tmp_path / "boom"), capsys.readouterr().err))
        # The failed build is not kept; the good run's reference part, of
        # other phases, is kept unchanged, and a re-run of it builds nothing.
        boom = cli._load_config(config)
        assert (boom.seed, boom.data, boom.phases) not in cli._REFERENCES
        assert reference_digest() == held
        shutil.rmtree(tmp_path / "good")
        assert train(tmp_path / "good.json", tmp_path / "good") == 0
        assert files(tmp_path / "good") == good
        shutil.rmtree(tmp_path / "boom")
    assert outcomes[0] == outcomes[1]
    code, written, err = outcomes[0]
    assert code == 1 and sorted(written) == ["config.json"]
    assert err == "error: supervised phase pretrain loss went non-finite (inf) at step 2\n"
    assert builds == [CONFIG["seed"]] * 3


@pytest.fixture
def held(builds, monkeypatch):
    """Per build from here on: the keys held when it starts, and its key."""
    log, train_reference = [], cli.train_reference

    def logged(suite, cfg):
        log.append((list(cli._REFERENCES), key(cfg)))
        return train_reference(suite, cfg)

    monkeypatch.setattr(cli, "train_reference", logged)
    return log


def key(cfg):
    """The memo key of a RunConfig or of a config file."""
    cfg = cfg if isinstance(cfg, cli.RunConfig) else cli._load_config(cfg)
    return cfg.seed, cfg.data, cfg.phases


def test_a_shape_keeps_its_reference_part_and_mask_rows_across_another(
    tmp_path, builds, monkeypatch
):
    drawn, stream = [], masks.MaskGenerator.stream

    def counted(self, material):
        drawn.append(material)
        return stream(self, material)

    monkeypatch.setattr(masks.MaskGenerator, "stream", counted)
    a = write(tmp_path / "a.json", optimizer="ondare")
    b = write(tmp_path / "b.json", optimizer="ondare", phases={"sft_steps": 40})
    assert key(a)[:2] == key(b)[:2] and key(a) != key(b)  # b differs only in phases
    assert train(a, tmp_path / "a") == 0 and drawn
    assert train(b, tmp_path / "b") == 0
    assert list(cli._REFERENCES) == [key(a), key(b)]
    del drawn[:]
    assert train(a, tmp_path / "again") == 0
    assert drawn == [] and builds == [CONFIG["seed"]] * 2  # no row drawn, nothing built
    assert list(cli._REFERENCES) == [key(b), key(a)]
    shared = files(tmp_path / "again")
    shutil.rmtree(tmp_path / "again")
    assert fresh(a, tmp_path / "again") == (0, shared)


def test_a_new_seed_replaces_its_shapes_reference_part_before_the_build(
    tmp_path, builds, held
):
    for seed in (1, 2, 1):
        config = write(tmp_path / f"{seed}.json", seed=seed)
        assert train(config, tmp_path / "run") == 0
        assert list(cli._REFERENCES) == [key(config)]
        shutil.rmtree(tmp_path / "run")
    assert builds == [1, 2, 1]
    assert [keys for keys, _ in held] == [[]] * 3  # none of the shape held during a build


def test_at_most_two_reference_parts_are_held(tmp_path, held):
    shapes = {name: write(tmp_path / f"{name}.json", phases={"sft_steps": steps})
              for name, steps in (("a", 60), ("b", 50), ("c", 40))}
    for name in "abca":
        assert train(shapes[name], tmp_path / "run") == 0
        assert len(cli._REFERENCES) <= 2 and list(cli._REFERENCES)[-1] == key(shapes[name])
        shutil.rmtree(tmp_path / "run")
    assert [k for _, k in held] == [key(shapes[name]) for name in "abca"]
    assert [len(keys) for keys, _ in held] == [0, 1, 1, 1]  # plus the one being built
