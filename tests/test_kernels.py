import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergeopt import (
    EmptyInput,
    InvalidConfig,
    InvalidProbability,
    MaskKey,
    MergeMethod,
    MergeSpec,
    MisalignedSets,
    NonFiniteResult,
    ParameterSet,
    offline_merge,
    sign_consensus,
    sparsify_random,
    sparsify_top_p,
)
from mergeopt.kernels import SegmentedTopP


def pset(**named):
    return ParameterSet((k, np.shape(v), v) for k, v in named.items())


def top_p_by_stable_sort(x, p):
    """Reference top-p: a stable argsort of -|x| (NaNs last), first k kept."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    k = min(max(math.ceil(p * x.size), 1), x.size)
    keep = np.argsort(-np.abs(x), kind="stable")[:k]
    out = np.zeros_like(x)
    out[keep] = x[keep]
    return out


SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])


def tied_input(n, seed, special_share):
    """Values in half steps, so magnitudes tie often, with a share of
    elements replaced by signed zeros, infinities and NaNs."""
    rng = np.random.default_rng(seed)
    x = np.round(2.0 * rng.normal(size=n)) / 2.0
    special = rng.random(n) < special_share
    x[special] = rng.choice(SPECIALS, size=int(special.sum()))
    return x


class TestSparsifyRandom:
    def test_keep_all_at_p_one(self):
        out = sparsify_random([5.0, -3.0], 1.0, MaskKey(0, "w"))
        assert np.array_equal(out, [5.0, -3.0])

    def test_tiny_p_drops_almost_surely(self):
        out = sparsify_random([5.0, -3.0], 1e-9, MaskKey(0, "w"))
        assert np.array_equal(out, [0.0, 0.0])

    @pytest.mark.parametrize("p", [0.0, -0.1, 1.1, float("nan")])
    def test_invalid_probability(self, p):
        with pytest.raises(InvalidProbability):
            sparsify_random([1.0], p, MaskKey(0, "w"))

    def test_rescaled_estimator_is_unbiased_over_keys(self):
        # Monte Carlo oracle from the operator definition: each draw is
        # x/p with probability p else 0, so the mean over independent keys
        # estimates x with sd x*sqrt((1-p)/(p*N)).
        p, n_keys, x = 0.5, 100_000, 2.0
        draws = np.array(
            [
                sparsify_random([x], p, MaskKey(9, "w", step=k), rescale=True)[0]
                for k in range(n_keys)
            ]
        )
        sigma = x * math.sqrt((1 - p) / (p * n_keys))
        assert abs(draws.mean() - x) < 3 * sigma

    def test_same_key_same_mask_bitwise(self):
        x = np.linspace(-1, 1, 257)
        a = sparsify_random(x, 0.3, MaskKey(5, "t", 2, "u"))
        b = sparsify_random(x, 0.3, MaskKey(5, "t", 2, "u"))
        assert a.tobytes() == b.tobytes()

    def test_input_not_mutated(self):
        x = np.array([1.0, 2.0, 3.0])
        sparsify_random(x, 0.5, MaskKey(0, "w"))
        assert np.array_equal(x, [1.0, 2.0, 3.0])


class TestSparsifyTopP:
    def test_keeps_largest_magnitudes(self):
        assert np.array_equal(sparsify_top_p([3.0, -5.0, 1.0, 2.0], 0.5), [3.0, -5.0, 0.0, 0.0])

    def test_ties_keep_lower_index_first(self):
        # k = ceil(0.34 * 3) = 2
        assert np.array_equal(sparsify_top_p([1.0, 1.0, 1.0], 0.34), [1.0, 1.0, 0.0])

    def test_at_least_one_element_kept(self):
        assert np.array_equal(sparsify_top_p([7.0], 0.01), [7.0])

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            sparsify_top_p([], 0.5)

    def test_invalid_probability(self):
        with pytest.raises(InvalidProbability):
            sparsify_top_p([1.0], 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 200), st.floats(1e-6, 1.0), st.integers(0, 2**31))
    def test_count_and_threshold_properties(self, n, p, seed):
        # Gaussian input has no exact zeros, so the nonzero count must equal
        # ceil(p*n) and every kept magnitude must dominate every dropped one.
        x = np.random.default_rng(seed).normal(size=n)
        out = sparsify_top_p(x, p)
        kept = out != 0
        k = math.ceil(p * n)
        assert np.count_nonzero(kept) == k
        if k < n:
            assert np.min(np.abs(x[kept])) >= np.max(np.abs(x[~kept]))

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.integers(1, 4096), st.integers(250, 262)),
        st.floats(1e-6, 1.0),
        st.integers(0, 2**31),
        st.sampled_from([0.0, 0.02, 0.3, 1.0]),
    )
    def test_matches_stable_argsort(self, n, p, seed, special_share):
        x = tied_input(n, seed, special_share)
        assert sparsify_top_p(x, p).tobytes() == top_p_by_stable_sort(x, p).tobytes()

    @pytest.mark.parametrize(
        "x, p",
        [
            (np.tile([1.0, -1.0], 200), 0.5),  # k inside one run of equal magnitudes
            (np.tile([2.0, -1.0, 1.0, 0.0], 300), 0.6),  # cut between the 1.0 ties
            (np.r_[np.full(300, np.nan), np.arange(100.0)], 0.6),  # k inside the NaNs
            (np.r_[[np.nan, -np.nan], tied_input(4094, 1, 0.3)], 0.9),
            (np.full(1000, np.nan), 0.3),
            (np.tile([0.0, -0.0], 300), 0.5),  # +0.0 and -0.0 are one magnitude
            (np.r_[np.tile([np.inf, -np.inf], 50), np.ones(300)], 0.1),  # k among the infs
            (tied_input(256, 2, 0.02), 0.5),
            (tied_input(255, 3, 0.02), 0.5),
            (tied_input(4096, 4, 0.0), 1e-6),
            (tied_input(4096, 5, 0.3), 1.0),
            (np.linspace(-1.0, 1.0, 1001), 0.5),
        ],
    )
    def test_table_matches_stable_argsort(self, x, p):
        assert sparsify_top_p(x, p).tobytes() == top_p_by_stable_sort(x, p).tobytes()


def slices_of(widths):
    stops = np.cumsum(widths)
    return [slice(int(b - n), int(b)) for n, b in zip(widths, stops)]


def top_p_per_tensor(x, widths, p):
    return np.concatenate([sparsify_top_p(x[s], p) for s in slices_of(widths)])


@st.composite
def segmented_inputs(draw):
    """1-6 tensors of 1-300 elements, each of one kind: tied half steps with
    a share of signed zeros, infinities and NaNs; all elements equal; or an
    Adam first step, whose every magnitude is the learning rate."""
    widths = draw(st.lists(st.integers(1, 300), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    parts = []
    for n in widths:
        kind = draw(st.sampled_from(["tied", "equal", "first-step"]))
        if kind == "tied":
            share = draw(st.sampled_from([0.0, 0.02, 0.3, 1.0]))
            parts.append(tied_input(n, rng.integers(2**31), share))
        elif kind == "equal":
            parts.append(np.full(n, draw(st.sampled_from([1.0, -1.0, 0.0, -0.0, np.inf, np.nan]))))
        else:
            parts.append(rng.choice([-0.02, 0.02], size=n))
    return widths, np.concatenate(parts)


TOP_P_RATES = st.one_of(st.sampled_from([5e-324, 1e-300, 1e-6, 0.5, 1.0]), st.floats(1e-6, 1.0))


class TestSegmentedTopP:
    """One row sort for every tensor keeps what sparsify_top_p keeps of each."""

    @settings(max_examples=300, deadline=None)
    @given(segmented_inputs(), TOP_P_RATES)
    def test_matches_top_p_per_tensor(self, inputs, p):
        widths, x = inputs
        got = SegmentedTopP(slices_of(widths), p).sparsify(x)
        assert got.tobytes() == top_p_per_tensor(x, widths, p).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(segmented_inputs(), min_size=2, max_size=4), TOP_P_RATES)
    def test_reuse_over_calls(self, inputs, p):
        # Its buffers are reused: each call must see only its own vector.
        widths = inputs[0][0]
        top_p = SegmentedTopP(slices_of(widths), p)
        for _, x in inputs:
            x = np.resize(x, sum(widths))
            assert top_p.sparsify(x).tobytes() == top_p_per_tensor(x, widths, p).tobytes()

    def test_input_not_mutated_and_no_tensors(self):
        x = np.array([3.0, -1.0, 2.0, np.nan])
        before = x.tobytes()
        SegmentedTopP(slices_of([2, 2]), 0.5).sparsify(x)
        assert x.tobytes() == before
        assert SegmentedTopP([], 0.5).sparsify(np.zeros(0)).size == 0

    def test_invalid_probability(self):
        with pytest.raises(InvalidProbability):
            SegmentedTopP(slices_of([3]), 0.0)


class TestSignConsensus:
    def test_agreeing_signs_sum(self):
        assert sign_consensus(2.0, 3.0) == 5.0

    def test_conflict_keeps_larger_magnitude(self):
        assert sign_consensus(2.0, -3.0) == -3.0

    def test_symmetric_conflict_cancels(self):
        assert sign_consensus(2.0, -2.0) == 0.0

    def test_zero_agrees_with_everything(self):
        for a in (-2.5, 0.0, 1.0):
            assert sign_consensus(a, 0.0) == a
            assert sign_consensus(0.0, a) == a

    def test_exhaustive_grid_matches_definition(self):
        grid = [-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]

        def oracle(a, b):
            # Direct transcription of the piecewise definition with indicators.
            if a == 0.0 or b == 0.0 or math.copysign(1, a) == math.copysign(1, b):
                return a + b
            return a * (abs(a) >= abs(b)) + b * (abs(b) >= abs(a))

        for a in grid:
            for b in grid:
                got = sign_consensus(a, b)
                assert got == oracle(a, b), (a, b, got)
                assert got == sign_consensus(b, a)
                assert abs(got) <= abs(a) + abs(b)

    def test_special_values_keep_the_former_bits(self):
        def former(a, b):  # the consensus before it took fewer passes; do not edit
            agree = (np.sign(a) == np.sign(b)) | (a == 0.0) | (b == 0.0)
            abs_a, abs_b = np.abs(a), np.abs(b)
            total = a + b
            conflict = np.where(abs_a > abs_b, a, np.where(abs_b > abs_a, b, total))
            return np.where(agree, total, conflict)

        grid = [0.0, np.inf, np.nan, 5e-324, 1e-200, 1.0, 2.0]
        grid = np.array(grid + [-x for x in grid])
        a, b = (x.ravel() for x in np.meshgrid(grid, grid))
        with np.errstate(invalid="ignore"):
            assert sign_consensus(a, b).tobytes() == former(a, b).tobytes()
            for x, y in zip(a.tolist(), b.tolist()):
                got = sign_consensus(x, y)
                assert type(got) is float
                assert np.float64(got).tobytes() == former(np.array(x), np.array(y)).tobytes()

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=50), rng.normal(size=50)
        out = sign_consensus(a, b)
        for i in range(50):
            assert out[i] == sign_consensus(float(a[i]), float(b[i]))


class TestOfflineMerge:
    def test_linear_hand_example(self):
        base = pset(w=[0.0, 0.0])
        m1, m2 = pset(w=[1.0, 0.0]), pset(w=[0.0, 1.0])
        spec = MergeSpec(MergeMethod.LINEAR, weights=(0.5, 0.5))
        out = offline_merge(base, [m1, m2], spec)
        assert np.array_equal(out.flat("w"), [0.5, 0.5])

    def test_dare_at_p_one_equals_linear_bytes(self):
        rng = np.random.default_rng(11)
        base = pset(w=rng.normal(size=40), b=rng.normal(size=5))
        models = [
            base.map(lambda a: a + rng.normal(size=a.size)),
            base.map(lambda a: a + rng.normal(size=a.size)),
        ]
        linear = offline_merge(base, models, MergeSpec(MergeMethod.LINEAR, weights=(0.3, 0.6)))
        dare = offline_merge(
            base,
            models,
            MergeSpec(MergeMethod.DARE, reserve_rate=1.0, weights=(0.3, 0.6), rescale=True),
        )
        assert dare == linear

    def test_ties_hand_example(self):
        # Majority sign +, the disagreeing -1 is dropped, surviving weight 1.
        base = pset(w=[0.0])
        out = offline_merge(
            base,
            [pset(w=[2.0]), pset(w=[-1.0])],
            MergeSpec(MergeMethod.TIES, reserve_rate=1.0, weights=(1.0, 1.0)),
        )
        assert np.array_equal(out.flat("w"), [2.0])

    def test_ties_total_cancellation_gives_base(self):
        base = pset(w=[1.0])
        out = offline_merge(
            base,
            [pset(w=[3.0]), pset(w=[-1.0])],
            MergeSpec(MergeMethod.TIES, reserve_rate=1.0, weights=(1.0, 1.0)),
        )
        # Deltas +2 and -2 elect no majority; nothing survives.
        assert np.array_equal(out.flat("w"), [1.0])

    def test_ties_weighted_average_of_survivors(self):
        base = pset(w=[0.0])
        out = offline_merge(
            base,
            [pset(w=[2.0]), pset(w=[4.0])],
            MergeSpec(MergeMethod.TIES, reserve_rate=1.0, weights=(1.0, 3.0)),
        )
        # (1*2 + 3*4) / (1 + 3) = 3.5
        assert np.array_equal(out.flat("w"), [3.5])

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 600),
        st.lists(st.sampled_from([0.0, 1e-320, 0.3, 0.5, 1.0, 2.0]), min_size=1, max_size=3),
        st.sampled_from([0.1, 0.5, 0.9, 1.0]),
        st.sampled_from([0.0, 0.002, 0.01, 0.05]),
        st.integers(0, 2**31),
    )
    def test_ties_matches_reference(self, n, weights, p, special_share, seed):
        # Deltas with ties, signed zeros, infinities and NaNs, some weights 0.
        base = tied_input(n, seed, 0.0)
        models = [tied_input(n, seed + i + 1, special_share) for i in range(len(weights))]
        with np.errstate(all="ignore"):
            trimmed = [top_p_by_stable_sort(m - base, p) for m in models]
            elected = np.sign(sum(w * t for w, t in zip(weights, trimmed)))
            num, den = np.zeros(n), np.zeros(n)
            for w, t in zip(weights, trimmed):
                survives = (t != 0.0) & (np.sign(t) == elected)
                num += np.where(survives, w * t, 0.0)
                den += np.where(survives, w, 0.0)
            want = base + np.divide(num, den, out=np.zeros(n), where=den > 0.0)
            spec = MergeSpec(MergeMethod.TIES, reserve_rate=p, weights=tuple(weights))
            args = (pset(w=base), [pset(w=m) for m in models], spec)
            if np.isfinite(want).all():
                assert offline_merge(*args).flat("w").tobytes() == want.tobytes()
            else:
                with pytest.raises(NonFiniteResult):
                    offline_merge(*args)

    def test_dare_unbiased_without_weights_distortion(self):
        # With rescale, a single-model DARE merge is an unbiased estimator of
        # the linear merge; check the Monte Carlo mean over seeds.
        base = pset(w=np.zeros(2000))
        model = pset(w=np.full(2000, 3.0))
        p = 0.5
        means = []
        for seed in range(40):
            spec = MergeSpec(MergeMethod.DARE, reserve_rate=p, weights=(1.0,), seed=seed)
            means.append(offline_merge(base, [model], spec).flat("w").mean())
        sigma = 3.0 * math.sqrt((1 - p) / (p * 2000 * 40))
        assert abs(np.mean(means) - 3.0) < 3 * sigma

    def test_inputs_never_mutated(self):
        rng = np.random.default_rng(5)
        base = pset(w=rng.normal(size=16))
        model = pset(w=rng.normal(size=16))
        base_bytes = base.flat("w").tobytes()
        model_bytes = model.flat("w").tobytes()
        for method in MergeMethod:
            spec = MergeSpec(method, reserve_rate=0.5, weights=(0.7,))
            offline_merge(base, [model], spec)
        assert base.flat("w").tobytes() == base_bytes
        assert model.flat("w").tobytes() == model_bytes

    def test_misaligned_model_rejected(self):
        with pytest.raises(MisalignedSets):
            offline_merge(
                pset(w=[1.0]), [pset(v=[1.0])], MergeSpec(MergeMethod.LINEAR, weights=(1.0,))
            )

    def test_no_models_rejected(self):
        with pytest.raises(EmptyInput):
            offline_merge(pset(w=[1.0]), [], MergeSpec(MergeMethod.LINEAR, weights=()))

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="weights"):
            offline_merge(
                pset(w=[1.0]), [pset(w=[2.0])], MergeSpec(MergeMethod.LINEAR, weights=(1.0, 1.0))
            )

    @pytest.mark.parametrize(
        "method, bound",
        [(MergeMethod.LINEAR, 2.0), (MergeMethod.DARE, 2.0), (MergeMethod.TIES, 6.0)],
    )
    def test_peak_memory_in_tensor_sizes(self, method, bound):
        # Every method holds the output and a few blocks; TIES also one
        # tensor-sized partition key, and only each model's cut across models.
        n = 2**18
        rng = np.random.default_rng(3)
        base = pset(w=rng.normal(size=n))
        models = [pset(w=rng.normal(size=n)) for _ in range(3)]
        spec = MergeSpec(method, weights=(0.5, 0.3, 0.2))
        tracemalloc.start()
        try:
            offline_merge(base, models, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (n * 8) <= bound


@pytest.mark.parametrize(
    "fields",
    [
        {"method": "ties"},
        {"method": None},
        {"seed": 1.5},
        {"seed": True},
        {"seed": "3"},
        {"seed": np.float64(2.0)},
        {"weights": ("1",)},
        {"weights": (True,)},
        {"weights": 1.0},
        {"weights": (1.0, None)},
        {"rescale": 1},
        {"rescale": "yes"},
        {"rescale": None},
        {"reserve_rate": "0.5"},
        {"reserve_rate": True},
    ],
    ids=repr,
)
def test_merge_spec_rejects_bad_types(fields):
    spec = {"method": MergeMethod.DARE, "weights": (1.0,), **fields}
    with pytest.raises(InvalidConfig):
        MergeSpec(**spec)


def test_merge_spec_accepts_numpy_scalars():
    spec = MergeSpec(
        MergeMethod.DARE, reserve_rate=np.float64(0.25), weights=(np.float32(0.5), 2), seed=np.uint64(2**64 - 1)
    )
    assert spec.weights == (0.5, 2.0) and all(type(w) is float for w in spec.weights)


def test_merge_spec_validation():
    with pytest.raises(InvalidProbability):
        MergeSpec(MergeMethod.DARE, reserve_rate=0.0, weights=(1.0,))
    with pytest.raises(ValueError):
        MergeSpec(MergeMethod.LINEAR, weights=(-1.0,))
    with pytest.raises(ValueError):
        MergeSpec(MergeMethod.LINEAR, weights=(float("inf"),))
    with pytest.raises(InvalidConfig):
        MergeSpec(MergeMethod.LINEAR, weights=(float("nan"),))
    for seed in (-1, 2**64):
        with pytest.raises(InvalidConfig):
            MergeSpec(MergeMethod.DARE, weights=(1.0,), seed=seed)
