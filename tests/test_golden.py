"""Golden pins: each optimizer's final parameters and metrics bytes on a fast
configuration, recorded before the step engine was rewritten, and offline
merge results and checkpoint bytes, recorded before every ParameterSet was
backed by one flat vector. The wide pins (tensors of 256 elements and more)
were recorded while top-p selection still ran a stable argsort at every size.

A refactor of the step path must reproduce these exactly: every operation is
elementwise, so no reordering of tensors or batching of the arithmetic may
change a single bit. Re-record only for a deliberate change of behaviour.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from mergeopt.kernels import MergeMethod, MergeSpec, offline_merge
from mergeopt.optim import AdamHyper, OnlineMergeConfig
from mergeopt.params import ParameterSet, save_checkpoint
from mergeopt.tasks import SuiteSizes
from mergeopt.training import (
    DataSettings,
    DpoSettings,
    PhaseSettings,
    RunConfig,
    make_suite,
    train_run,
)

FAST_DATA = DataSettings(sizes=SuiteSizes(400, 200, 400, 200, 400, 200))

RUNS = {
    "adam": dict(optimizer="adam"),
    "adamw": dict(optimizer="adamw", adam=AdamHyper(weight_decay=0.01)),
    "ondare": dict(optimizer="ondare"),
    "onties": dict(optimizer="onties"),
    "fullmerge": dict(optimizer="fullmerge"),
    "stepk-ondare": dict(optimizer="stepk-ondare", merge=OnlineMergeConfig(gap_step=5)),
    "stepk-onties": dict(optimizer="stepk-onties", merge=OnlineMergeConfig(gap_step=5)),
    "childtuning": dict(optimizer="childtuning"),
    "ondare-ema": dict(optimizer="ondare", ema_coefficient=0.01),
}

# label -> (theta_final fingerprint, blake2b-128 of metrics.csv bytes)
GOLDEN = {
    "adam": ("5f955ff4beefc403b469759534ef24df", "736af1ff21160ec8f5774f1390cb8455"),
    "adamw": ("bf411bcdceafdcf53e61cea8e9d2ad75", "d3105a8fd13f5f176d0d6195380071ed"),
    "ondare": ("0452e5aa6fa014f6eb26b0ec8a44bb37", "64aae286faaa94121e5f783fb11e063e"),
    "onties": ("4a275f51815f0dca7ce6707657b1c941", "70cfe2bfe30303e4778d9e158e33db53"),
    "fullmerge": ("855614a63de610c42cc613acbbcfc9ad", "058bd7cb00d30a07ace1218df253ca25"),
    "stepk-ondare": ("2158f895bbc04522b948d6fff90fd06a", "803b82f5e09f50564558f7eaa62263b3"),
    "stepk-onties": ("79b82e9c14009fa30b8e2b2753f7b3b4", "674bad15233eb62115c3c387e9a6d3b0"),
    "childtuning": ("f2e8e8eeb0b2a35196357243300fa853", "4fbb37ac1369a78dc1a12e1773de7060"),
    "ondare-ema": ("73b5a1a741bec0e727782922cd87f63c", "821ca2d361ae15b548d651e586fec2da"),
}


# The top-p optimizers at hidden 64, where w1 has 384 elements and w2 256.
WIDE_RUNS = ("onties", "stepk-onties")
GOLDEN_WIDE = {
    "onties": ("065a3c5cdad98d4876ce0266db287f3f", "3b8dc03b7c43768683cdc42a0de15cb3"),
    "stepk-onties": ("32c7477a882131bc6da3cd6580190655", "fdb72955b5d8680357b9824a63aa1f00"),
}


def _run_hashes(label, data):
    cfg = RunConfig(
        seed=1,
        data=data,
        dpo=DpoSettings(steps=60, eval_every=20),
        phases=PhaseSettings(pretrain_steps=100, sft_steps=100),
        **RUNS[label],
    )
    res = train_run(make_suite(cfg), cfg)
    metrics_hash = hashlib.blake2b(res.metrics.to_csv_bytes(), digest_size=16).hexdigest()
    return res.theta_final.fingerprint(), metrics_hash


@pytest.mark.parametrize("label", list(RUNS))
def test_golden_run(label):
    assert _run_hashes(label, FAST_DATA) == GOLDEN[label]


@pytest.mark.parametrize("label", WIDE_RUNS)
def test_golden_run_wide(label):
    assert _run_hashes(label, replace(FAST_DATA, hidden_dim=64)) == GOLDEN_WIDE[label]


def _merge_inputs():
    """A seeded base with three tensors and three fine-tuned models of it."""
    rng = np.random.default_rng(20240528)
    shapes = (("embed", (6, 5)), ("layer0.w", (4, 4)), ("layer0.b", (7,)))
    base = ParameterSet((n, s, rng.normal(size=s)) for n, s in shapes)
    models = [
        ParameterSet((n, s, x + 0.1 * rng.normal(size=x.size)) for n, s, x in base)
        for _ in range(3)
    ]
    return base, models


MERGES = {
    "linear": MergeSpec(MergeMethod.LINEAR, weights=(0.5, 0.3, 0.2)),
    "dare": MergeSpec(MergeMethod.DARE, reserve_rate=0.4, weights=(0.5, 0.3, 0.2), seed=7),
    "dare-norescale": MergeSpec(
        MergeMethod.DARE, reserve_rate=0.4, weights=(0.5, 0.3, 0.2), rescale=False, seed=7
    ),
    "ties": MergeSpec(MergeMethod.TIES, reserve_rate=0.6, weights=(0.5, 0.3, 0.2)),
}

# label -> fingerprint of the offline_merge result
GOLDEN_MERGES = {
    "linear": "6375ff8d9a3e26a4bd0e690731186f8e",
    "dare": "18a3cdf1e1a062e885a3b363b5131a8e",
    "dare-norescale": "c6ad2e352d82e533eb10eda1a5206744",
    "ties": "8b70b49d8849426c0f05ad0229fb3560",
}

# blake2b-128 of the bytes save_checkpoint writes for the base set
GOLDEN_CHECKPOINT = "d6b26daa668df25d555a6950d31a20fe"


@pytest.mark.parametrize("label", list(MERGES))
def test_golden_offline_merge(label):
    base, models = _merge_inputs()
    assert offline_merge(base, models, MERGES[label]).fingerprint() == GOLDEN_MERGES[label]


def test_golden_checkpoint_bytes(tmp_path):
    base, _ = _merge_inputs()
    save_checkpoint(base, tmp_path / "base.pset")
    data = (tmp_path / "base.pset").read_bytes()
    assert hashlib.blake2b(data, digest_size=16).hexdigest() == GOLDEN_CHECKPOINT


def _wide_merge_inputs():
    """Tensors of 1,000 and 4,096 elements in quarter steps, so every delta
    has long runs of equal magnitudes and the top-p cut lands inside one."""
    rng = np.random.default_rng(20261018)
    shapes = (("embed", (40, 25)), ("layer0.w", (64, 64)), ("layer0.b", (7,)))
    base = ParameterSet((n, s, np.round(4 * rng.normal(size=s)) / 4) for n, s in shapes)
    models = [
        ParameterSet((n, s, x + np.round(4 * rng.normal(size=x.size)) / 4) for n, s, x in base)
        for _ in range(3)
    ]
    return base, models


# reserve rate -> fingerprint of the TIES merge of the wide inputs
GOLDEN_WIDE_TIES = {
    0.3: "0a0d2dc34635c6b64b177f32e54d487b",
    0.6: "1a9d6869cabdde152f7e286d19dcea43",
}


@pytest.mark.parametrize("p", list(GOLDEN_WIDE_TIES))
def test_golden_ties_merge_wide(p):
    base, models = _wide_merge_inputs()
    spec = MergeSpec(MergeMethod.TIES, reserve_rate=p, weights=(0.5, 0.3, 0.2))
    assert offline_merge(base, models, spec).fingerprint() == GOLDEN_WIDE_TIES[p]
