import numpy as np
import pytest

from mergeopt import MaskKey, bernoulli_mask
from mergeopt import masks
from mergeopt.masks import LayoutKeys, MaskGenerator, MaskTable


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
    table = MaskTable(seed, layout_slices(names, (1, 3, 257)))
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
            assert table.row(step, stream, 0.3).tobytes() == mask.tobytes()
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


def layout_slices(names, sizes):
    """(name, slice) pairs of tensors of the given sizes laid out in order."""
    bounds = [0]
    for n in sizes:
        bounds.append(bounds[-1] + n)
    return [(name, slice(lo, hi)) for name, lo, hi in zip(names, bounds, bounds[1:])]


NAMES, SIZES = ("w1", "b2", "layer.\u00fc"), (1, 3, 257)
STEPS = (1, 2, 12345, 2**64 - 1)


def oracle_row(seed, step, stream, p):
    return np.concatenate([
        bernoulli_mask(MaskKey(seed, name, step, stream), n, p) for name, n in zip(NAMES, SIZES)
    ])


@pytest.mark.parametrize("p", [1e-3, 0.5, 1.0])
@pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**64 - 1])
def test_table_rows_equal_bernoulli_masks_when_drawn_and_when_read(seed, p):
    table = MaskTable(seed, layout_slices(NAMES, SIZES))
    streams = ("update", "ref", "grad")
    want = {(t, s): oracle_row(seed, t, s, p).tobytes() for t in STEPS for s in streams}
    for (t, s), row in want.items():
        assert table.row(t, s, p).tobytes() == row
    table._gen = None  # every row is kept now, so reading one draws nothing
    for (t, s), row in reversed(want.items()):
        assert table.row(t, s, p).tobytes() == row


def test_rows_of_other_keep_rates_and_sparse_steps_are_their_own(monkeypatch):
    monkeypatch.setattr(masks, "_BLOCK_BYTES", 4 * sum(SIZES))  # 4 rows a block
    table = MaskTable(5, layout_slices(NAMES, SIZES))
    # Every 5th step first, as step-K draws, then every step at another rate
    # and again at the first.
    order = [(t, 0.5) for t in range(5, 41, 5)] + [(t, 0.3) for t in range(1, 41)]
    order += [(t, 0.5) for t in range(1, 41)]
    for t, p in order:
        assert table.row(t, "update", p).tobytes() == oracle_row(5, t, "update", p).tobytes()
    assert table._kept == 2 * 11 * 4 * sum(SIZES)  # steps 0-43 in blocks of 4, per rate


def test_rows_past_the_budget_keep_their_bytes(monkeypatch):
    monkeypatch.setattr(masks, "_BLOCK_BYTES", 4 * sum(SIZES))
    monkeypatch.setattr(masks, "MASK_TABLE_BYTES", 3 * 4 * sum(SIZES))  # 3 blocks
    table = MaskTable(7, layout_slices(NAMES, SIZES))
    draws = [(t, stream, p) for t in range(1, 30) for stream, p in
             (("update", 0.5), ("update", 0.3), ("ref", 0.5))]
    rows = {d: table.row(*d) for d in draws}
    # Steps 1-3 of each (stream, keep rate) are kept (block 0 of each); the
    # rest are past the budget.
    assert table._kept == 3 * 4 * sum(SIZES)
    # Every row handed out, kept or not, still holds its draw after all the
    # later draws of its stream and of other keep rates.
    for (t, stream, p), row in rows.items():
        assert row.tobytes() == oracle_row(7, t, stream, p).tobytes(), (t, stream, p)


@pytest.mark.parametrize("budget", [masks.MASK_TABLE_BYTES, 0])
def test_table_rows_are_read_only(monkeypatch, budget):
    monkeypatch.setattr(masks, "MASK_TABLE_BYTES", budget)
    row = MaskTable(1, layout_slices(NAMES, SIZES)).row(1, "update", 0.5)
    with pytest.raises(ValueError, match="read-only"):
        row[0] = not row[0]
