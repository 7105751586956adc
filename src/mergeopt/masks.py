"""Counter-based keyed randomness for reproducible sparsification masks.

Every mask is a pure function of its MaskKey: element i of the stream depends
only on (key, i), never on how many elements other threads drew first, so
results are identical across runs, platforms, and work partitionings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import check_u64, validate_probability

_U64 = 1 << 64
MASK_TABLE_BYTES = 1 << 20  # keep-mask rows a MaskTable keeps: 1 MiB
_BLOCK_BYTES = 1 << 14  # a MaskTable allocates rows about this many bytes at a time


@dataclass(frozen=True)
class MaskKey:
    """Identifies one deterministic mask stream.

    The stream tag separates independent masks drawn at the same
    (seed, tensor, step) point, e.g. the gradient-side and reference-side
    sparsifications of one online-merge update.
    """

    seed: int
    tensor_name: str
    step: int = 0
    stream: str = ""

    def __post_init__(self):
        check_u64(self.seed, "seed")
        check_u64(self.step, "step")

    def material(self) -> int:
        """128-bit key for the counter-based generator (see LayoutKeys)."""
        return LayoutKeys(self.seed, [self.tensor_name]).materials(self.step, self.stream)[0]


class LayoutKeys:
    """Key material of MaskKey(seed, name, step, stream) for one seed and a
    fixed list of tensor names, without building a MaskKey per draw.

    A key is the 16-byte blake2b digest, read little-endian, of the seed and
    the step as 8 little-endian bytes each, then the name, a zero byte and the
    stream in UTF-8. It holds a hasher already fed the seed and, per stream,
    each tensor's suffix (name, zero byte, stream): materials() copies the
    hasher and adds the step bytes, then each tensor's key copies that and
    adds the suffix.
    """

    def __init__(self, seed: int, names):
        seed = check_u64(seed, "seed").to_bytes(8, "little")
        self._seeded = hashlib.blake2b(seed, digest_size=16)
        self._names = tuple(names)
        self._suffixes: dict[str, list[bytes]] = {}

    def materials(self, step: int, stream: str) -> list[int]:
        """material() of each tensor's key at (step, stream), in name order."""
        suffixes = self._suffixes.get(stream)
        if suffixes is None:
            tag = b"\x00" + stream.encode("utf-8")
            suffixes = self._suffixes[stream] = [n.encode("utf-8") + tag for n in self._names]
        stepped = self._seeded.copy()
        stepped.update(check_u64(step, "step").to_bytes(8, "little"))
        out = []
        for suffix in suffixes:
            h = stepped.copy()
            h.update(suffix)
            out.append(int.from_bytes(h.digest(), "little"))
        return out


class MaskGenerator:
    """One Philox bit generator, re-keyed for every draw.

    Each draw resets the key and counter, so its bytes equal those of a fresh
    ``Philox(key=key.material())`` while skipping that constructor, which
    seeds a SeedSequence from OS entropy before the key overrides it. A
    generator is not safe to share between threads: each MaskTable owns
    its own.
    """

    def __init__(self):
        self._bits = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bits)
        # Counter zero and an empty output buffer: the state of any new Philox,
        # with its arrays as lists of Python ints, which the state setter reads
        # element by element faster than numpy scalars. The setter copies the
        # key out of the list, so each draw writes its key into it in place.
        self._fresh = self._bits.state
        self._fresh["state"] = {k: a.tolist() for k, a in self._fresh["state"].items()}
        self._fresh["buffer"] = self._fresh["buffer"].tolist()
        self._key = self._fresh["state"]["key"]

    def stream(self, key: MaskKey | int) -> np.random.Generator:
        """The generator at the start of a MaskKey's stream, or of the stream
        of a material() value (as LayoutKeys gives). Its successive draws
        continue that stream: random(out=) calls for the blocks of an array
        fill it with the bytes of one random() call for the whole."""
        material = key if isinstance(key, int) else key.material()
        self._key[0] = material & (_U64 - 1)
        self._key[1] = material >> 64
        self._bits.state = self._fresh
        return self._gen


def bernoulli_mask(
    key: MaskKey | int, n: int, p: float, gen: MaskGenerator | None = None, out=None
) -> np.ndarray:
    """Boolean keep-mask where each element is independently kept with
    probability p, a finite real in (0, 1] (InvalidProbability otherwise);
    written into out (n booleans) when given."""
    p = validate_probability(p, "keep rate")
    return np.less((gen or MaskGenerator()).stream(key).random(n), p, out=out)


class MaskTable:
    """The flat keep-masks of one seed and layout (its (name, slice) pairs,
    as ParameterSet.slices() gives them), for any step, stream and keep rate.

    row(step, stream, p)'s slice for each tensor holds the bytes of
    bernoulli_mask(MaskKey(seed, name, step, stream), n, p): each tensor's
    keyed stream fills its slice of one uniform buffer, and one comparison
    makes the row. A row is drawn on first use, straight into place, and
    kept while the table's rows fit in MASK_TABLE_BYTES, so callers that
    share a table draw each kept row once; past that budget each draw is a
    fresh array. Rows are read-only and never rewritten. A table owns one
    MaskGenerator, so it is not safe to share between threads.
    """

    def __init__(self, seed: int, slices):
        self.seed = check_u64(seed, "seed")
        self.slices = tuple(slices)
        self.keys = LayoutKeys(seed, [name for name, _ in self.slices])
        self._gen = MaskGenerator()
        self._u = np.empty(sum(s.stop - s.start for _, s in self.slices))
        self._views = [self._u[s] for _, s in self.slices]
        self._block = max(1, _BLOCK_BYTES // max(self._u.size, 1))
        # Per (stream, keep rate), per block index step // _block: the block's
        # rows, a read-only view of them, and which rows are drawn.
        self._rows: dict = {}
        self._kept = 0

    def row(self, step: int, stream: str, p: float) -> np.ndarray:
        """The keep-mask at (step, stream) for the keep rate p, a float in
        (0, 1] that the caller has checked. A kept row lives as long as the
        table; a row past the budget is a fresh read-only array of its own."""
        blocks = self._rows.get((stream, p))
        if blocks is None:
            blocks = self._rows[stream, p] = {}
        i, j = divmod(step, self._block)
        block = blocks.get(i)
        if block is not None and block[2][j]:
            return block[1][j]
        for material, out in zip(self.keys.materials(step, stream), self._views):
            self._gen.stream(material).random(out=out)
        if block is None and self._kept + self._block * self._u.size <= MASK_TABLE_BYTES:
            self._kept += self._block * self._u.size
            rows = np.empty((self._block, self._u.size), bool)
            block = blocks[i] = (rows, _read_only(rows.view()), bytearray(self._block))
        if block is None:
            return _read_only(np.less(self._u, p))
        np.less(self._u, p, out=block[0][j])
        block[2][j] = 1
        return block[1][j]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a
