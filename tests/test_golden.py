"""Golden pins: each optimizer's final parameters and metrics bytes on a fast
configuration, recorded before the step engine was rewritten.

A refactor of the step path must reproduce these exactly: every operation is
elementwise, so no reordering of tensors or batching of the arithmetic may
change a single bit. Re-record only for a deliberate change of behaviour.
"""

import hashlib

import pytest

from mergeopt.tasks import SuiteSizes
from mergeopt.training import (
    AdamSettings,
    DataSettings,
    DpoSettings,
    MergeSettings,
    PhaseSettings,
    RunConfig,
    make_suite,
    train_run,
)

FAST_DATA = DataSettings(sizes=SuiteSizes(400, 200, 400, 200, 400, 200))

RUNS = {
    "adam": dict(optimizer="adam"),
    "adamw": dict(optimizer="adamw", adam=AdamSettings(weight_decay=0.01)),
    "ondare": dict(optimizer="ondare"),
    "onties": dict(optimizer="onties"),
    "fullmerge": dict(optimizer="fullmerge"),
    "stepk-ondare": dict(optimizer="stepk-ondare", merge=MergeSettings(gap_step=5)),
    "stepk-onties": dict(optimizer="stepk-onties", merge=MergeSettings(gap_step=5)),
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


@pytest.mark.parametrize("label", list(RUNS))
def test_golden_run(label):
    cfg = RunConfig(
        seed=1,
        data=FAST_DATA,
        dpo=DpoSettings(steps=60, eval_every=20),
        phases=PhaseSettings(pretrain_steps=100, sft_steps=100),
        **RUNS[label],
    )
    res = train_run(make_suite(cfg), cfg)
    metrics_hash = hashlib.blake2b(res.metrics.to_csv_bytes(), digest_size=16).hexdigest()
    assert (res.theta_final.fingerprint(), metrics_hash) == GOLDEN[label]
