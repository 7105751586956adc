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
    ParameterSet,
    offline_merge,
    sign_consensus,
    sparsify_random,
    sparsify_top_p,
)


def pset(**named):
    return ParameterSet((k, np.shape(v), v) for k, v in named.items())


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
        [(MergeMethod.LINEAR, 5.5), (MergeMethod.DARE, 5.5), (MergeMethod.TIES, 10.0)],
    )
    def test_peak_memory_in_tensor_sizes(self, method, bound):
        # Linear and DARE hold one model delta at a time, TIES its trimmed deltas.
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
