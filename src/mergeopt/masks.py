"""Counter-based keyed randomness for reproducible sparsification masks.

Every mask is a pure function of its MaskKey: element i of the stream depends
only on (key, i), never on how many elements other threads drew first, so
results are identical across runs, platforms, and work partitionings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

_U64 = 1 << 64


def _u64(value: int, what: str) -> bytes:
    """value as the 8 little-endian bytes a key hashes; ValueError outside u64."""
    if not 0 <= int(value) < _U64:
        raise ValueError(f"{what} must fit in u64, got {value}")
    return int(value).to_bytes(8, "little")


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
        _u64(self.seed, "seed")
        _u64(self.step, "step")

    def material(self) -> int:
        """128-bit key for the counter-based generator."""
        h = hashlib.blake2b(digest_size=16)
        h.update(int(self.seed).to_bytes(8, "little"))
        h.update(int(self.step).to_bytes(8, "little"))
        h.update(self.tensor_name.encode("utf-8"))
        h.update(b"\x00")
        h.update(self.stream.encode("utf-8"))
        return int.from_bytes(h.digest(), "little")


class LayoutKeys:
    """Key material of MaskKey(seed, name, step, stream) for one seed and a
    fixed list of tensor names, without building a MaskKey per draw.

    It holds a hasher already fed the seed and, per stream, each tensor's
    suffix (its name, a zero byte, the stream): materials() copies the hasher
    and adds the step bytes, then each tensor's key copies that and adds the
    suffix, the bytes MaskKey.material() hashes in the same order.
    """

    def __init__(self, seed: int, names):
        self._seeded = hashlib.blake2b(_u64(seed, "seed"), digest_size=16)
        self._names = tuple(names)
        self._suffixes: dict[str, list[bytes]] = {}

    def materials(self, step: int, stream: str) -> list[int]:
        """material() of each tensor's key at (step, stream), in name order."""
        suffixes = self._suffixes.get(stream)
        if suffixes is None:
            tag = b"\x00" + stream.encode("utf-8")
            suffixes = self._suffixes[stream] = [n.encode("utf-8") + tag for n in self._names]
        stepped = self._seeded.copy()
        stepped.update(_u64(step, "step"))
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
    generator is not safe to share between threads: each optimizer state
    owns its own.
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

    def uniforms(self, key: MaskKey | int, n: int) -> np.ndarray:
        """n uniforms from a MaskKey's stream, or from the stream of a
        material() value (as LayoutKeys gives)."""
        material = key if isinstance(key, int) else key.material()
        self._key[0] = material & (_U64 - 1)
        self._key[1] = material >> 64
        self._bits.state = self._fresh
        return self._gen.random(n)


def mask_uniforms(key: MaskKey | int, n: int, gen: MaskGenerator | None = None) -> np.ndarray:
    """n uniforms in [0, 1) from the key's Philox counter stream, drawn with
    gen when given, else with a generator made for this one draw."""
    return (gen or MaskGenerator()).uniforms(key, n)


def bernoulli_mask(
    key: MaskKey | int, n: int, p: float, gen: MaskGenerator | None = None, out=None
) -> np.ndarray:
    """Boolean keep-mask where each element is independently kept with
    probability p; written into out (n booleans) when given."""
    return np.less((gen or MaskGenerator()).uniforms(key, n), p, out=out)
