"""Frozen reference: the offline merge as it stood before it worked in blocks,
that is offline_merge, _ties_combine, the top-p selection TIES trimmed with,
and the sparsify_random path that DARE took. The blocked merge runs the same
IEEE operations in the same order, so every result must match these bit for
bit (compared by tobytes(), which tells -0.0 from 0.0), and it must raise
NonFiniteResult on exactly the inputs whose reference result is not finite.

Do not edit the reference bodies to follow a change of the program: a change
that alters a bit here alters merged checkpoints.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mergeopt import (
    MaskKey,
    MergeMethod,
    MergeSpec,
    NonFiniteResult,
    ParameterSet,
    bernoulli_mask,
    offline_merge,
    sparsify_top_p,
)
from mergeopt.kernels import BLOCK

# ---- reference bodies ----


def ref_sparsify_random(x, p, key, rescale=False):
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    mask = bernoulli_mask(key, x.size, p)
    out = np.where(mask, x, 0.0)
    if rescale:
        out = out / p
    return out


def ref_sparsify_top_p(x, p):
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    k = int(math.ceil(p * x.size))
    k = min(max(k, 1), x.size)
    key = -np.abs(x)
    kth = np.partition(key, k - 1)[k - 1]
    if math.isnan(kth):
        tied = np.isnan(key)
        above = ~tied
    else:
        above, tied = key < kth, key == kth
    out = np.where(above, x, 0.0)
    fill = np.flatnonzero(tied)[: k - np.count_nonzero(above)]
    out[fill] = x[fill]
    return out


def ref_ties_combine(taus, weights, p, out):
    trimmed = [ref_sparsify_top_p(t, p) for t in taus]
    tmp = np.empty_like(out)
    elected = np.zeros_like(out)
    for w, t in zip(weights, trimmed):
        elected += np.multiply(w, t, out=tmp)
    np.sign(elected, out=elected)
    out.fill(0.0)
    den = np.zeros_like(out)
    survives = np.empty(out.shape, dtype=bool)
    for w, t in zip(weights, trimmed):
        np.greater(np.multiply(t, elected, out=tmp), 0.0, out=survives)
        np.multiply(w, t, out=tmp)
        np.copyto(tmp, 0.0, where=~survives)
        out += tmp
        den += np.multiply(survives, w, out=tmp)
    np.divide(out, den, out=out, where=den > 0.0)


def ref_offline_merge(base, models, spec):
    """The merged vector, or None where the merge raised NonFiniteResult."""
    out = np.empty(base.total_elements())
    for name, sl in base.slices():
        base_arr = base.flat(name)
        taus = (m.flat(name) - base_arr for m in models)
        acc = out[sl]
        if spec.method is MergeMethod.TIES:
            ref_ties_combine(taus, spec.weights, spec.reserve_rate, acc)
        else:
            if spec.method is MergeMethod.DARE:
                taus = (
                    ref_sparsify_random(
                        tau,
                        spec.reserve_rate,
                        MaskKey(spec.seed, name, step=i, stream="offline-dare"),
                        rescale=spec.rescale,
                    )
                    for i, tau in enumerate(taus)
                )
            acc.fill(0.0)
            for w, tau in zip(spec.weights, taus):
                acc += w * tau
        acc += base_arr
    return out if np.isfinite(out).all() else None


# ---- inputs ----

# Small sizes put several whole tensors in one block ahead of one that
# straddles its end.
SIZES = (1, 3, 48, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7)
WEIGHTS = (0.0, 1e-320, 0.3, 0.5, 1.0, 2.0)
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def values(rng, n, kind):
    """normal; tied (half steps: long runs of equal magnitudes); or
    specials (tied, with signed zeros, infinities and NaNs mixed in)."""
    x = rng.normal(size=n)
    if kind != "normal":
        x = np.round(2.0 * x) / 2.0
    if kind == "specials":
        hit = rng.random(n) < 0.01
        x[hit] = rng.choice(SPECIALS, size=int(hit.sum()))
    return x


def pset(arrays):
    return ParameterSet((f"t{i}", (a.size,), a) for i, a in enumerate(arrays))


def check_merge(base, models, spec):
    want = ref_offline_merge(base, models, spec)
    if want is None:
        with pytest.raises(NonFiniteResult):
            offline_merge(base, models, spec)
    else:
        assert offline_merge(base, models, spec).vector().tobytes() == want.tobytes()


# ---- the merge against the reference ----


SPECS = (
    dict(method=MergeMethod.LINEAR),
    dict(method=MergeMethod.DARE, rescale=True),
    dict(method=MergeMethod.DARE, rescale=False),
    dict(method=MergeMethod.TIES),
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("p", [1e-6, 0.4, 0.5, 1.0])
@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.sampled_from(SIZES), min_size=1, max_size=4),
    st.lists(st.sampled_from(WEIGHTS), min_size=1, max_size=3),
    st.sampled_from(["normal", "tied", "specials"]),
    st.integers(0, 2**32),
)
def test_every_method_matches_reference(p, sizes, weights, kind, seed):
    rng = np.random.default_rng(seed)
    base = [values(rng, n, "tied" if kind == "specials" else kind) for n in sizes]
    # Some models leave a tensor as it is in base: all-zero deltas.
    models = [
        pset([b + values(rng, b.size, kind) if rng.random() < 0.8 else b.copy() for b in base])
        for _ in weights
    ]
    for fields in SPECS:
        spec = MergeSpec(reserve_rate=p, weights=tuple(weights), seed=seed, **fields)
        check_merge(pset(base), models, spec)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(1, 200), min_size=1, max_size=6),
    st.lists(st.sampled_from(WEIGHTS), min_size=4, max_size=9),
    st.sampled_from(["normal", "tied", "specials"]),
    st.sampled_from([1e-6, 0.4, 0.5, 1.0]),
    st.integers(0, 2**32),
)
# Nine models of one element, then pushed to a last block of one element:
# every sum adds nine rows of one column, in model order.
@example([1], [0.3, 0.5, 1.0, 2.0] * 2 + [0.3], "normal", 0.5, 24)
@example([6], [0.3, 0.5, 1.0, 2.0] * 2 + [0.3], "normal", 1.0, 1)
def test_soup_layouts_match_reference(sizes, weights, kind, p, seed):
    # A soup: 4 to 9 models of small tensors that all start and end in one
    # block. Then the same tensors behind a prefix tensor of BLOCK - 5
    # elements, which pushes them across a block boundary: the first of them
    # crosses it (if it has more than 5 elements), the rest start and end in
    # the next block.
    rng = np.random.default_rng(seed)
    prefix = values(rng, BLOCK - 5, "normal")
    base = [values(rng, n, "tied" if kind == "specials" else kind) for n in sizes]
    models = [
        [prefix + values(rng, prefix.size, kind)]
        + [b + values(rng, b.size, kind) if rng.random() < 0.8 else b.copy() for b in base]
        for _ in weights
    ]
    for fields in SPECS:
        spec = MergeSpec(reserve_rate=p, weights=tuple(weights), seed=seed, **fields)
        check_merge(pset(base), [pset(m[1:]) for m in models], spec)
        check_merge(pset([prefix, *base]), [pset(m) for m in models], spec)


def rate_for(k, n):
    """A reserve rate p with ceil(p * n) == k."""
    p = k / n
    while math.ceil(p * n) > k:
        p = float(np.nextafter(p, 0.0))
    while math.ceil(p * n) < k:
        p = float(np.nextafter(p, 1.0))
    return p


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(
    st.integers(BLOCK - 64, BLOCK - 1),
    st.integers(80, BLOCK + 200),
    st.floats(0.0, 1.0),
    st.sampled_from([5.0, 0.0, np.nan]),
    st.lists(st.sampled_from(WEIGHTS[2:]), min_size=1, max_size=3),
    st.lists(st.sampled_from((1, 3, 48)), max_size=3),
    st.integers(0, 2**32),
)
def test_ties_cut_inside_a_tied_run_across_blocks(run_lo, run_len, share, tie, weights, prefix, seed):
    # The first delta holds a run of equal magnitude `tie` (random signs) that
    # starts just before a block boundary of its tensor and may cross two.
    # Outside it, `above` elements rank above the run (magnitudes 10 to 20
    # for a run of 5.0, which the rest stay below; every number for a run of
    # zeros or NaNs). The rate keeps all of those and a given share of the
    # run, so the cut's tie limit lands anywhere in the run. Small tensors of
    # `prefix` sizes go ahead of the run's tensor, which then starts inside
    # the first block: its tie limit counts from its own start.
    n = 3 * BLOCK + 7
    rng = np.random.default_rng(seed)
    run = np.arange(run_lo, run_lo + run_len)
    outside = np.setdiff1d(np.arange(n), run)
    above = n // 3 if tie == 5.0 else outside.size
    need = max(1, round(share * run_len))
    base = np.round(4.0 * rng.normal(size=n)) / 4.0  # so base + tie - base == tie
    small = [np.round(4.0 * rng.normal(size=size)) / 4.0 for size in prefix]
    models = []
    for i, _ in enumerate(weights):
        d = rng.uniform(-1.0, 1.0, size=n)
        if i == 0:  # the other models' plain deltas vote where the first one's run is cut
            if tie == 5.0:
                big = rng.choice(outside, size=above, replace=False)
                d[big] = rng.choice([-1.0, 1.0], size=above) * rng.uniform(10.0, 20.0, size=above)
            d[run] = rng.choice([-1.0, 1.0], size=run_len) * tie
        models.append(pset([s + rng.uniform(-1.0, 1.0, size=s.size) for s in small] + [base + d]))
    spec = MergeSpec(MergeMethod.TIES, reserve_rate=rate_for(above + need, n), weights=tuple(weights))
    check_merge(pset([*small, base]), models, spec)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_raised_where_reference_is_not_finite():
    base = pset([np.zeros(BLOCK + 1)])
    d = np.zeros(BLOCK + 1)
    d[BLOCK] = np.inf  # in the second block
    for method in MergeMethod:
        spec = MergeSpec(method, reserve_rate=1.0, weights=(1.0,))
        assert ref_offline_merge(base, [pset([d])], spec) is None
        with pytest.raises(NonFiniteResult):
            offline_merge(base, [pset([d])], spec)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_opposite_infinities_elect_no_sign_and_leave_base():
    # +inf and -inf kept at one entry: the elected mass is NaN, nothing
    # survives there, and the result is base, which is finite.
    base = pset([np.full(3, 0.25)])
    models = [pset([np.array([0.25 + x, 1.0, -0.0])]) for x in (np.inf, -np.inf)]
    spec = MergeSpec(MergeMethod.TIES, reserve_rate=1.0, weights=(1.0, 0.5))
    check_merge(base, models, spec)
    assert offline_merge(base, models, spec).vector()[0] == 0.25


# ---- the top-p selection against the reference ----


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((1, 2, 4, 7, 48, 1000) + SIZES),
    st.sampled_from([1e-6, 0.1, 0.5, 0.9, 1.0]),
    st.sampled_from(["normal", "tied", "specials", "zeros"]),
    st.integers(0, 2**32),
)
def test_sparsify_top_p_matches_reference(n, p, kind, seed):
    rng = np.random.default_rng(seed)
    x = np.zeros(n) if kind == "zeros" else values(rng, n, kind)
    assert sparsify_top_p(x, p).tobytes() == ref_sparsify_top_p(x, p).tobytes()
