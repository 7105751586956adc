import numpy as np
import pytest

from mergeopt import MaskKey, bernoulli_mask
from mergeopt.masks import LayoutKeys, MaskGenerator


def test_equal_keys_give_identical_masks():
    a = bernoulli_mask(MaskKey(7, "layer.w", 3, "update"), 1000, 0.5)
    b = bernoulli_mask(MaskKey(7, "layer.w", 3, "update"), 1000, 0.5)
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "other",
    [
        MaskKey(8, "layer.w", 3, "update"),
        MaskKey(7, "layer.v", 3, "update"),
        MaskKey(7, "layer.w", 4, "update"),
        MaskKey(7, "layer.w", 3, "ref"),
    ],
)
def test_any_field_change_gives_new_stream(other):
    base = MaskGenerator().stream(MaskKey(7, "layer.w", 3, "update")).random(256)
    assert not np.array_equal(base, MaskGenerator().stream(other).random(256))


def test_prefix_stability_elementwise():
    # Element i depends only on (key, i), so a longer draw extends the shorter.
    key = MaskKey(42, "w", 0)
    short = MaskGenerator().stream(key).random(10)
    assert np.array_equal(short, MaskGenerator().stream(key).random(100)[:10])


def test_name_stream_separator_prevents_collisions():
    a = MaskGenerator().stream(MaskKey(1, "ab", 0, "c")).random(64)
    b = MaskGenerator().stream(MaskKey(1, "a", 0, "bc")).random(64)
    assert not np.array_equal(a, b)


def test_golden_stream_is_frozen():
    # Regression pin: if these bytes change, every trained artifact changes.
    u = MaskGenerator().stream(MaskKey(7, "layer.w", 3, "update")).random(6)
    expected = [
        0.3844793343199636,
        0.500886032542232,
        0.017764230015830607,
        0.03809933413585154,
        0.5441346734553992,
        0.7243106415540791,
    ]
    assert u == pytest.approx(expected, abs=1e-15)


def test_seed_range_validated():
    with pytest.raises(ValueError):
        MaskKey(-1, "w")
    with pytest.raises(ValueError):
        MaskKey(1 << 64, "w")
    for bad in (-1, 1 << 64):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            LayoutKeys(bad, ("w",))
    with pytest.raises(ValueError, match=r"step must be an integer in \[0, 2\*\*64\)"):
        LayoutKeys(0, ("w",)).materials(1 << 64, "update")


def test_mask_rate_tracks_probability():
    mask = bernoulli_mask(MaskKey(3, "w", 0), 200_000, 0.25)
    assert abs(mask.mean() - 0.25) < 0.005


def _fresh(key, n):
    # Reference: a new Philox per draw, keyed directly by the key material.
    return np.random.Generator(np.random.Philox(key=key.material())).random(n)


@pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**64 - 1])
def test_reused_generator_matches_fresh_philox(seed):
    gen = MaskGenerator()
    names = ("w1", "b2", "layer.\u00fc")
    layout = LayoutKeys(seed, names)
    for step in (0, 1, 2, 12345, 2**64 - 1):
        for stream in ("update", "ref", "grad"):
            for name in names:
                key = MaskKey(seed, name, step, stream)
                for n in (0, 1, 3, 257):
                    assert gen.stream(key).random(n).tobytes() == _fresh(key, n).tobytes()
            # The optimizer's path: key material from LayoutKeys, each
            # tensor's mask written into its slice of one buffer.
            sizes = (1, 3, 257)
            mask = np.empty(sum(sizes), bool)
            bounds = np.cumsum((0,) + sizes)
            for material, n, lo in zip(layout.materials(step, stream), sizes, bounds):
                bernoulli_mask(material, n, 0.3, gen, out=mask[lo : lo + n])
            oracle = [_fresh(MaskKey(seed, name, step, stream), n) < 0.3 for name, n in zip(names, sizes)]
            assert mask.tobytes() == np.concatenate(oracle).tobytes()
    big = MaskKey(seed, "w1", 5, "update")
    assert gen.stream(big).random(262_144).tobytes() == _fresh(big, 262_144).tobytes()


def test_reused_generator_interleaved_keys():
    # A partial block left buffered by one draw must not leak into the next key.
    gen = MaskGenerator()
    a, b = MaskKey(1, "w", 2, "update"), MaskKey(1, "w", 2, "ref")
    draws = [(a, 3), (b, 257), (a, 3), (a, 1), (b, 0), (a, 257)]
    for key, n in draws:
        assert gen.stream(key).random(n).tobytes() == _fresh(key, n).tobytes()
    assert np.array_equal(
        bernoulli_mask(a, 1000, 0.3, gen), bernoulli_mask(a, 1000, 0.3)
    )
