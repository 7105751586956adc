"""Sparsification operators, sign consensus, and offline model merging.

All kernels are pure: they never mutate their inputs, and being elementwise
they give the same answer under any data-parallel partitioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    EmptyInput, InvalidConfig, NonFiniteResult, check_u64, is_real, validate_probability
)
from .masks import LayoutKeys, MaskGenerator, MaskKey, bernoulli_mask
from .params import ParameterSet, check_aligned
from .params import delta  # noqa: F401  (not called; bench/tracer.py wraps it here)

BLOCK = 1 << 15  # elements an offline merge works on at a time: 256 KiB of float64
_LEAST_POSITIVE = 5e-324  # the least positive (subnormal) double


class MergeMethod(Enum):
    LINEAR = "linear"
    DARE = "dare"
    TIES = "ties"


@dataclass(frozen=True)
class MergeSpec:
    """Offline merge configuration: method, reserve rate, per-model weights."""

    method: MergeMethod
    reserve_rate: float = 0.5
    weights: tuple[float, ...] = (1.0,)
    rescale: bool = True
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.method, MergeMethod):
            raise InvalidConfig(f"method must be a MergeMethod, got {self.method!r}")
        validate_probability(self.reserve_rate)
        try:
            ws = tuple(self.weights)
        except TypeError:
            raise InvalidConfig(f"weights must be a sequence, got {self.weights!r}") from None
        if any(not is_real(w) or w < 0 for w in ws):
            raise InvalidConfig(f"weights must be finite and nonnegative, got {self.weights!r}")
        if not isinstance(self.rescale, bool):
            raise InvalidConfig(f"rescale must be a bool, got {self.rescale!r}")
        check_u64(self.seed, "seed")
        object.__setattr__(self, "weights", tuple(float(w) for w in ws))


def sparsify_random(x, p: float, key: MaskKey, rescale: bool = False) -> np.ndarray:
    """Keep each element independently with probability p, zero the rest.

    The keep-mask is a pure function of (key, element index). With rescale,
    kept elements are divided by p, making the operator unbiased; offline
    DARE uses that, online merging does not.
    """
    p = validate_probability(p)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    mask = bernoulli_mask(key, x.size, p)
    out = np.where(mask, x, 0.0)
    if rescale:
        out = out / p
    return out


def _top_p_k(n: int, p: float) -> int:
    """How many of n elements top-p keeps: ceil(p * n), at least one."""
    return min(max(int(math.ceil(p * n)), 1), n)


def _top_p_cut(x: np.ndarray, p: float, key: np.ndarray | None = None) -> tuple[float, int]:
    """The top-p selection of the flat values x: the ceil(p * n) largest
    magnitudes, NaNs ranking below every number, ties going to lower
    indices, at least one element kept.

    Returns (c, limit): element i is kept when |x[i]| > c, or when |x[i]| is
    tied with c (equal to it, or both NaN) and i < limit. A partition finds
    the k-th largest magnitude c in linear time; that is exactly the selection
    of a stable sort. key is scratch of x's size (made when None).
    """
    k = _top_p_k(x.size, p)
    key = np.copysign(x, -1.0, out=key)  # -|x| ascending; partition puts NaNs last, as a sort does
    key.partition(k - 1)
    return _partitioned_cut(x, key, k)


def _partitioned_cut(x: np.ndarray, key: np.ndarray, k: int) -> tuple[float, int]:
    """_top_p_cut of x's k largest magnitudes, given key: -|x| partitioned
    at k - 1, NaNs last (a sorted key is such a partition). key is
    overwritten."""
    n = x.size
    kth = key[k - 1]
    if math.isnan(kth):  # fewer than k numbers: all are kept, then the first NaNs
        tied = np.isnan(x)
        need = k - (n - np.count_nonzero(tied))
    elif (key[k:] == kth).any():  # some elements tied with the k-th are not kept
        need = k - np.count_nonzero(key[: k - 1] < kth)
        tied = np.abs(x, out=key) == -kth
    else:
        return -kth, n
    return -kth, int(np.flatnonzero(tied)[need - 1]) + 1


def _top_p_keep(mag: np.ndarray, cut: tuple[float, int], lo: int, out: np.ndarray) -> np.ndarray:
    """Write into out whether each element is kept by cut, for mag the
    magnitudes of elements lo, lo + 1, ... of the tensor the cut is of."""
    c, limit = cut
    j = min(max(limit - lo, 0), mag.size)
    if math.isnan(c):
        out[:j] = True
        np.greater(mag[j:], -1.0, out=out[j:])  # every number
    elif j == mag.size:
        np.greater_equal(mag, c, out=out)
    else:
        np.greater_equal(mag[:j], c, out=out[:j])
        np.greater(mag[j:], c, out=out[j:])
    return out


def sparsify_top_p(x, p: float) -> np.ndarray:
    """Keep the ceil(p * n) largest-magnitude elements, zero the rest.

    Magnitude ties are broken toward lower indices, so the output is fully
    deterministic. At least one element always survives. NaNs rank below
    every number. Selection is linear-time (see _top_p_cut).
    """
    p = validate_probability(p)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size == 0:
        raise EmptyInput("sparsify_top_p needs at least one element")
    keep = _top_p_keep(np.abs(x), _top_p_cut(x, p), 0, np.empty(x.size, dtype=bool))
    return np.where(keep, x, 0.0)


class SegmentedTopP:
    """sparsify_top_p within each tensor of a flat vector, all tensors at
    once, bit for bit as one call per tensor. This is the path for the small
    tensors of an optimizer step, where per-call overhead dominates;
    sparsify_top_p's partition stays the path for single large tensors.
    Offline TIES partitions instead: one partition of all models' rows for a
    tensor inside one merge block (_row_cuts), one per model for a tensor
    that crosses a block boundary (_top_p_cut).

    Each call scatters -|x| into one NaN-padded row per tensor, sorts the rows
    (NaNs last, as a partition puts them) and keeps |x[i]| >= c, c the k-th
    largest magnitude of x[i]'s tensor. A row whose k-th key is NaN or tied
    with the key after it is not that simple; its sorted row, a valid
    partition, goes through _top_p_cut's resolution.
    """

    def __init__(self, slices, p: float):
        p = validate_probability(p)
        self._slices = tuple(slices)
        sizes = np.array([s.stop - s.start for s in self._slices], dtype=np.intp)
        self._sizes, self._ks = sizes, [_top_p_k(int(n), p) for n in sizes]
        width = int(sizes.max(initial=0)) + 1  # a padding NaN after each row's last key
        starts = np.cumsum(sizes) - sizes
        offsets = np.arange(sizes.size) * width - starts
        self._index = np.arange(sizes.sum()) + np.repeat(offsets, sizes)  # flat -> padded row
        self._rows = np.full((sizes.size, width), np.nan)
        self._flat = self._rows.reshape(-1)
        kth_at = np.arange(sizes.size) * width + np.array(self._ks, dtype=np.intp) - 1
        self._kth_at = np.stack([kth_at, kth_at + 1], axis=1)  # each k-th key and the one after
        self._key = np.empty(sizes.sum())

    def sparsify(self, x: np.ndarray) -> np.ndarray:
        """x with every element that top-p within its tensor drops zeroed."""
        key, rows, flat = np.copysign(x, -1.0, out=self._key), self._rows, self._flat
        flat[self._index] = key
        rows.sort(axis=1)  # the padding stays NaN: NaNs sort last
        kth_after = flat[self._kth_at]
        keep = np.less_equal(key, np.repeat(kth_after[:, 0], self._sizes))  # |x| >= c
        for j, (kth, after) in enumerate(kth_after.tolist()):
            if kth != kth or kth == after:  # a NaN k-th key, or a tie across the cut
                sl, n = self._slices[j], self._sizes[j]
                cut = _partitioned_cut(x[sl], rows[j, :n], self._ks[j])
                _top_p_keep(np.abs(x[sl]), cut, 0, keep[sl])
        return np.where(keep, x, 0.0)


def sign_consensus(a, b):
    """Elementwise combiner: agreeing signs sum, conflicts keep the larger
    magnitude, equal-magnitude conflicts cancel to zero. Zero agrees with
    everything, so a combined with 0 is a.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    # Opposed: exactly one is below zero. That also pairs a zero with a
    # negative number, whose larger magnitude is the sum's bits, and a NaN
    # with a negative number, which no comparison picks, leaving the sum.
    opp = np.less(a, 0.0) != np.less(b, 0.0)
    abs_a, abs_b = np.abs(a), np.abs(b)
    out = np.where(opp & (abs_a > abs_b), a, a + b)
    np.copyto(out, b, where=opp & (abs_b > abs_a))
    if out.ndim == 0:
        return float(out)
    return out


def _zero_unless(bits: np.ndarray, keep: np.ndarray, mask: np.ndarray) -> None:
    """Zero the float64 elements whose uint64 view is bits where keep is off,
    bit for bit as where(keep, x, 0.0), by ANDing each with an all-ones or
    all-zeros word made in mask. A masked ufunc or np.where takes about 20
    times as long on a random mask."""
    np.bitwise_and(bits, np.negative(keep, dtype=np.uint64, out=mask), out=bits)


def _blocks(slices, n: int):
    """Each block [lo, hi) of BLOCK elements of a flat vector of n elements,
    which may cross tensor boundaries, with (j, sl, a, z) for each tensor j,
    of flat slice sl, that overlaps it: the tensor's part of the block is
    [lo + a, lo + z)."""
    j = 0
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        segs = []
        while j < len(slices) and slices[j].start < hi:
            sl = slices[j]
            segs.append((j, sl, max(sl.start, lo) - lo, min(sl.stop, hi) - lo))
            if sl.stop > hi:  # the tensor continues into the next block
                break
            j += 1
        yield lo, hi, segs


def _linear_blocks(base, models, spec, out) -> None:
    """LINEAR and DARE: per block, acc = 0.0, then per model t = m - base,
    for DARE zeroed where its keep-mask is off and divided by p when
    rescaling, then t *= w and acc += t; base is added last. Each model's
    mask is one keyed uniform stream per tensor, drawn into the tensor's part
    of each block: on one generator that every model shares for a tensor
    that ends in the block it starts in, else on the model's own generator,
    made on first need, which carries the stream into the next block."""
    dare, p = spec.method is MergeMethod.DARE, spec.reserve_rate
    vecs, bv = [m.vector() for m in models], base.vector()
    blk = min(BLOCK, out.size)
    work, keep, mask = np.empty((2, blk)), np.empty(blk, dtype=bool), np.empty(blk, dtype=np.uint64)
    if dare:
        keys = LayoutKeys(spec.seed, base.names)
        materials = [keys.materials(i, "offline-dare") for i in range(len(models))]
        shared, gens, streams = MaskGenerator(), [None] * len(models), [None] * len(models)
    for lo, hi, segs in _blocks([sl for _, sl in base.slices()], out.size):
        acc, b, (t, u) = out[lo:hi], bv[lo:hi], work[:, : hi - lo]
        acc.fill(0.0)
        for i, (w, v) in enumerate(zip(spec.weights, vecs)):
            np.subtract(v[lo:hi], b, out=t)
            if dare:
                for j, sl, a, z in segs:
                    if sl.start < lo:  # the stream continues from the previous block
                        stream = streams[i]
                    elif sl.stop <= hi:
                        stream = shared.stream(materials[i][j])
                    else:
                        gens[i] = gens[i] or MaskGenerator()
                        stream = streams[i] = gens[i].stream(materials[i][j])
                    stream.random(out=u[a:z])
                k = np.less(u, p, out=keep[: hi - lo])
                _zero_unless(t.view(np.uint64), k, mask[: hi - lo])
                if spec.rescale:
                    np.divide(t, p, out=t)
            acc += np.multiply(t, w, out=t)
        acc += b


def _sum_rows(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = ((0.0 + rows[0]) + rows[1]) + ..., bit for bit as a loop of +=.
    np.add.reduce adds down axis 0 in row order, except over a lone column,
    which it sums pairwise from eight rows on."""
    if rows.shape[1] > 1:
        return np.add.reduce(rows, axis=0, out=out, initial=0.0)
    out.fill(0.0)
    for row in rows:
        out += row
    return out


def _row_cuts(rows: np.ndarray, key: np.ndarray, k: int):
    """_top_p_cut of every row of rows, the deltas of one tensor, one row per
    model, keeping k of each, with key scratch of rows' shape: one partition
    of all rows. A row whose k-th key is NaN or tied with a key past it goes
    through _partitioned_cut's tie resolution; every other row keeps
    |x| >= c. Returns (the cuts as a column, [(c, limit) per row])."""
    np.copysign(rows, -1.0, out=key)
    key.partition(k - 1, axis=1)
    col = np.negative(key[:, k - 1 : k])
    tied = np.logical_or.reduce(key[:, k:] == key[:, k - 1 : k], axis=1)
    n = rows.shape[1]
    return col, [_partitioned_cut(x, kx, k) if c != c or t else (c, n)
                 for x, kx, c, t in zip(rows, key, col[:, 0].tolist(), tied.tolist())]


def _ties_blocks(base, models, spec, out) -> None:
    """TIES: per block, which may cross tensor boundaries, the M deltas are
    recomputed as the rows of an (M, block) array, trimmed by their tensors'
    top-p cuts, the elementwise majority sign elected from the weighted
    trimmed mass, and the weighted average of the entries with that sign
    written over base; every step is one operation on all rows, and every
    sum adds the rows in model order.

    A tensor's cuts are found when its first block comes up. A tensor that
    starts and ends in that block gets every model's cut from one partition
    of its rows (_row_cuts). A tensor that crosses into the next block gets
    one _top_p_cut per model, its delta held in the tensor's output slice.
    Only the cuts are held across blocks."""
    weights, vecs, bv = spec.weights, [m.vector() for m in models], base.vector()
    slices = [sl for _, sl in base.slices()]
    blk = min(BLOCK, out.size)
    key = np.empty(max((sl.stop - sl.start for sl in slices), default=0))
    deltas, work = np.empty((2, len(vecs), blk)), np.empty((3, blk))
    keep, bits = np.empty((len(vecs), blk), dtype=bool), deltas.view(np.uint64)
    w_col = np.array(weights).reshape(-1, 1)
    w_bits = w_col.view(np.uint64)
    cuts = [None] * len(slices)
    for lo, hi, segs in _blocks(slices, out.size):
        b, n = bv[lo:hi], hi - lo
        (trimmed, weighted), (sign, num, den), k = deltas[:, :, :n], work[:, :n], keep[:, :n]
        t_bits, wt_bits = bits[0, :, :n], bits[1, :, :n]
        for t, v in zip(trimmed, vecs):
            np.subtract(v[lo:hi], b, out=t)
        for j, sl, a, z in segs:
            if sl.start < lo:
                continue
            if sl.stop > hi:  # its output slice holds each delta while its cut is found
                pairs = [_top_p_cut(np.subtract(v[sl], bv[sl], out=out[sl]), spec.reserve_rate,
                                    key[: sl.stop - sl.start]) for v in vecs]
                cuts[j] = np.array([c for c, _ in pairs]).reshape(-1, 1), pairs
            else:  # weighted is the partition's scratch
                cuts[j] = _row_cuts(trimmed[:, a:z], weighted[:, a:z],
                                    _top_p_k(z - a, spec.reserve_rate))
        mag = np.abs(trimmed, out=weighted)
        for j, sl, a, z in segs:  # each tie limit counts from its tensor's start
            col, pairs = cuts[j]
            np.greater_equal(mag[:, a:z], col, out=k[:, a:z])
            first = lo + a - sl.start
            for i, (c, limit) in enumerate(pairs):
                if c != c or limit < first + z - a:  # not |x| >= c throughout the segment
                    _top_p_keep(mag[i, a:z], (c, limit), first, k[i, a:z])
        _zero_unless(t_bits, k, wt_bits)
        np.sign(_sum_rows(np.multiply(w_col, trimmed, out=weighted), num), out=sign)
        # Survivors are nonzero with the elected sign: t * sign > 0, which
        # NaNs fail. num sums their w * t, den their weights.
        # The survivor masks take trimmed's place, then its weights' bits.
        np.greater(np.multiply(trimmed, sign, out=trimmed), 0.0, out=k)
        m = np.negative(k, dtype=np.uint64, out=t_bits)
        np.bitwise_and(wt_bits, m, out=wt_bits)
        np.bitwise_and(m, w_bits, out=m)
        _sum_rows(weighted, num)
        _sum_rows(trimmed, den)
        # Where den is 0 every survivor has weight 0 and is finite (0 * inf
        # would have made the elected sign NaN), so num there is +0.0, and
        # dividing it by the least positive double keeps it: that is num
        # divided by den where den > 0, and num elsewhere.
        np.maximum(den, _LEAST_POSITIVE, out=den)
        np.add(np.divide(num, den, out=num), b, out=out[lo:hi])


def offline_merge(base: ParameterSet, models, spec: MergeSpec) -> ParameterSet:
    """One-shot task-arithmetic merge of fine-tuned models into their base.

    Per tensor, with deltas tau_i = model_i - base:
      LINEAR: base + sum(w_i * tau_i)
      DARE:   like LINEAR but each tau_i randomly sparsified first
              (rescaled by 1/p when spec.rescale, which keeps it unbiased)
      TIES:   top-p trim, majority-sign election, surviving-weight average

    The mask for model i derives from (spec.seed, tensor name, i), so merges
    are reproducible. A result holding NaN or infinity raises NonFiniteResult.
    Every method works over the flat vector in blocks of BLOCK elements,
    which cross tensor boundaries, in a few buffers made once per merge.
    """
    models = list(models)
    if not models:
        raise EmptyInput("offline_merge needs at least one model")
    if len(spec.weights) != len(models):
        raise ValueError(
            f"{len(spec.weights)} weights for {len(models)} models"
        )
    for m in models:
        check_aligned(base, m)

    out = np.empty(base.total_elements())
    merge = _ties_blocks if spec.method is MergeMethod.TIES else _linear_blocks
    merge(base, models, spec, out)
    if not np.isfinite(out).all():
        raise NonFiniteResult(f"{spec.method.value} merge result contains NaN or infinity")
    return base.with_vector(out)
