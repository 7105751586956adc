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
        if not 0 <= int(self.seed) < _U64:
            raise ValueError(f"seed must fit in u64, got {self.seed}")
        if not 0 <= int(self.step) < _U64:
            raise ValueError(f"step must fit in u64, got {self.step}")

    def material(self) -> int:
        """128-bit key for the counter-based generator."""
        h = hashlib.blake2b(digest_size=16)
        h.update(int(self.seed).to_bytes(8, "little"))
        h.update(int(self.step).to_bytes(8, "little"))
        h.update(self.tensor_name.encode("utf-8"))
        h.update(b"\x00")
        h.update(self.stream.encode("utf-8"))
        return int.from_bytes(h.digest(), "little")


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
        # Counter zero and an empty output buffer: the state of any new Philox.
        self._fresh = self._bits.state

    def uniforms(self, key: MaskKey, n: int) -> np.ndarray:
        material = key.material()
        self._fresh["state"]["key"] = np.array([material & (_U64 - 1), material >> 64], np.uint64)
        self._bits.state = self._fresh
        return self._gen.random(n)


def mask_uniforms(key: MaskKey, n: int, gen: MaskGenerator | None = None) -> np.ndarray:
    """n uniforms in [0, 1) from the key's Philox counter stream, drawn with
    gen when given, else with a generator made for this one draw."""
    return (gen or MaskGenerator()).uniforms(key, n)


def bernoulli_mask(key: MaskKey, n: int, p: float, gen: MaskGenerator | None = None) -> np.ndarray:
    """Boolean keep-mask where each element is independently kept with probability p."""
    return mask_uniforms(key, n, gen) < p
