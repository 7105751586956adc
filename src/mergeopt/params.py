"""Named-tensor parameter sets, delta arithmetic, and the PSET1 checkpoint format.

Everything here is float64. Sets are immutable after construction and entry
order is part of identity: serialization preserves it and alignment checks
enforce it, so a reordered checkpoint is a different object.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import warnings
from typing import Iterable, Iterator

import numpy as np

from .errors import FormatError, MisalignedSets

MAGIC = b"PSET1\n"


def _flat_f64(data) -> np.ndarray:
    arr = np.array(data, dtype=np.float64, copy=True, order="C").reshape(-1)
    arr.setflags(write=False)
    return arr


class ParameterSet:
    """Ordered collection of named, shaped, flat float64 tensors.

    A set built from entries holds one array per tensor. A set made by
    with_vector is backed by one contiguous read-only vector, and its
    tensors are views of their slices; optimizer steps produce such sets.

    Equality is bit-exact over names, shapes, and raw float bytes, so it
    distinguishes -0.0 from 0.0 and treats equal NaN payloads as equal.
    """

    __slots__ = ("_names", "_shapes", "_arrays", "_pos", "_slices", "_vector")

    def __init__(self, entries: Iterable[tuple]):
        names: list[str] = []
        shapes: list[tuple[int, ...]] = []
        arrays: list[np.ndarray] = []
        pos: dict[str, int] = {}
        slices: list[slice] = []
        for name, shape, data in entries:
            if not isinstance(name, str) or not name:
                raise ValueError(f"tensor name must be a nonempty string, got {name!r}")
            if name in pos:
                raise ValueError(f"duplicate tensor name {name!r}")
            shape = tuple(int(s) for s in shape)
            if any(s < 1 for s in shape):
                raise ValueError(f"{name}: shape {shape} has a nonpositive dimension")
            arr = _flat_f64(data)
            expected = math.prod(shape)
            if arr.size != expected:
                raise ValueError(
                    f"{name}: shape {shape} needs {expected} elements, data has {arr.size}"
                )
            pos[name] = len(names)
            names.append(name)
            shapes.append(shape)
            arrays.append(arr)
            start = slices[-1].stop if slices else 0
            slices.append(slice(start, start + arr.size))
        self._names = tuple(names)
        self._shapes = tuple(shapes)
        self._arrays = tuple(arrays)
        self._pos = pos
        self._slices = tuple(slices)
        self._vector = None

    def with_vector(self, vector: np.ndarray) -> "ParameterSet":
        """A plain ParameterSet with this set's names, shapes and order,
        backed by the given flat float64 vector, which it takes over
        (read-only, not copied) without re-validating the entries."""
        if vector.dtype != np.float64 or vector.shape != (self.total_elements(),):
            raise ValueError(
                f"need a flat float64 vector of {self.total_elements()} elements, "
                f"got {vector.dtype} of shape {vector.shape}"
            )
        vector.setflags(write=False)
        out = ParameterSet.__new__(ParameterSet)
        out._names, out._shapes, out._pos, out._slices = (
            self._names, self._shapes, self._pos, self._slices
        )
        out._arrays = tuple(vector[s] for s in self._slices)
        out._vector = vector
        return out

    @classmethod
    def from_arrays(cls, named_arrays) -> "ParameterSet":
        """Build from an ordered mapping or iterable of (name, array) pairs."""
        items = named_arrays.items() if hasattr(named_arrays, "items") else named_arrays
        return cls((name, np.shape(a), a) for name, a in items)

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._pos

    def __iter__(self) -> Iterator[tuple[str, tuple[int, ...], np.ndarray]]:
        return iter(zip(self._names, self._shapes, self._arrays))

    def vector(self) -> np.ndarray:
        """The whole set as one read-only flat vector in entry order: free for
        a set backed by one vector, otherwise a concatenated copy."""
        if self._vector is not None:
            return self._vector
        out = np.concatenate(self._arrays) if self._arrays else np.zeros(0)
        out.setflags(write=False)
        return out

    def slices(self) -> tuple[tuple[str, slice], ...]:
        """(name, slice of the flat vector) for each entry, in order."""
        return tuple(zip(self._names, self._slices))

    def shape(self, name: str) -> tuple[int, ...]:
        return self._shapes[self._pos[name]]

    def flat(self, name: str) -> np.ndarray:
        """Read-only flat view of one tensor."""
        return self._arrays[self._pos[name]]

    def tensor(self, name: str) -> np.ndarray:
        """Read-only view reshaped to the entry's declared shape."""
        i = self._pos[name]
        return self._arrays[i].reshape(self._shapes[i])

    def total_elements(self) -> int:
        return self._slices[-1].stop if self._slices else 0

    def map(self, fn) -> "ParameterSet":
        """New set with fn applied to each flat array; shapes are kept."""
        return ParameterSet(
            (n, s, fn(a)) for n, s, a in zip(self._names, self._shapes, self._arrays)
        )

    def zip_map(self, other: "ParameterSet", fn) -> "ParameterSet":
        check_aligned(self, other)
        return ParameterSet(
            (n, s, fn(a, b))
            for (n, s, a), b in zip(self, other._arrays)
        )

    def fingerprint(self) -> str:
        """Content hash covering names, shapes, order, and raw float bytes."""
        h = hashlib.blake2b(digest_size=16)
        for name, shape, arr in self:
            h.update(name.encode("utf-8"))
            h.update(b"\x00")
            h.update(struct.pack(f"<{len(shape) + 1}Q", len(shape), *shape))
            h.update(arr.astype("<f8", copy=False).tobytes())
        return h.hexdigest()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParameterSet):
            return NotImplemented
        if self._names != other._names or self._shapes != other._shapes:
            return False
        return all(a.tobytes() == b.tobytes() for a, b in zip(self._arrays, other._arrays))

    __hash__ = None

    def __repr__(self) -> str:
        return f"ParameterSet({len(self)} tensors, {self.total_elements()} elements)"


class DeltaSet(ParameterSet):
    """A ParameterSet holding a parameter difference, tagged with the hash
    of the base it was computed against.

    The tag is advisory: relaxed online merging deliberately applies deltas
    relative to the current policy rather than the original base.
    """

    __slots__ = ("base_fingerprint",)

    def __init__(self, entries, base_fingerprint: str = ""):
        super().__init__(entries)
        self.base_fingerprint = base_fingerprint


def check_aligned(a: ParameterSet, b: ParameterSet) -> None:
    """Raise MisalignedSets at the first entry where names, shapes, or order differ."""
    if a._names == b._names and a._shapes == b._shapes:
        return
    for i in range(min(len(a), len(b))):
        na, nb = a.names[i], b.names[i]
        if na != nb:
            raise MisalignedSets(f"entry {i}: name {na!r} vs {nb!r}")
        sa, sb = a.shape(na), b.shape(nb)
        if sa != sb:
            raise MisalignedSets(f"entry {i} ({na!r}): shape {sa} vs {sb}")
    if len(a) != len(b):
        i = min(len(a), len(b))
        extra = a.names[i] if len(a) > len(b) else b.names[i]
        raise MisalignedSets(f"entry {i}: {extra!r} present in only one set")


def delta(a: ParameterSet, b: ParameterSet) -> DeltaSet:
    """Elementwise a - b with exact name/shape/order alignment."""
    check_aligned(a, b)
    entries = [(n, s, x - b.flat(n)) for n, s, x in a]
    return DeltaSet(entries, base_fingerprint=b.fingerprint())


def apply_delta(base: ParameterSet, d: DeltaSet) -> ParameterSet:
    """Elementwise base + d.

    A base-fingerprint mismatch warns instead of failing: applying a delta
    to a model other than its original base is a supported use.
    """
    check_aligned(base, d)
    fp = getattr(d, "base_fingerprint", "")
    if fp and fp != base.fingerprint():
        warnings.warn(
            "delta was computed against a different base (fingerprint mismatch); "
            "applying anyway",
            stacklevel=2,
        )
    return ParameterSet((n, s, x + d.flat(n)) for n, s, x in base)


def save_checkpoint(p: ParameterSet, path) -> None:
    """Write the PSET1 binary format: magic, u32 header length, JSON header,
    then contiguous little-endian float64 payload in entry order."""
    entries = []
    offset = 0
    chunks = []
    for name, shape, arr in p:
        entries.append({"name": name, "shape": list(shape), "offset": offset, "len": arr.size})
        offset += arr.size
        chunks.append(arr.astype("<f8", copy=False).tobytes())
    header = json.dumps(
        {"entries": entries, "dtype": "f64", "version": 1},
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for chunk in chunks:
            f.write(chunk)


def load_checkpoint(path) -> ParameterSet:
    """Read a PSET1 file; bit-exact inverse of save_checkpoint."""
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < len(MAGIC) + 4 or buf[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: bad magic bytes")
    (hlen,) = struct.unpack_from("<I", buf, len(MAGIC))
    body_start = len(MAGIC) + 4
    if body_start + hlen > len(buf):
        raise FormatError(f"{path}: truncated header")
    try:
        header = json.loads(buf[body_start : body_start + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: invalid header JSON ({e})") from e
    if not isinstance(header, dict) or header.get("dtype") != "f64" or header.get("version") != 1:
        raise FormatError(f"{path}: unsupported header (need dtype f64, version 1)")
    raw_entries = header.get("entries")
    if not isinstance(raw_entries, list):
        raise FormatError(f"{path}: header has no entry list")
    payload = buf[body_start + hlen :]
    running = 0
    entries = []
    for e in raw_entries:
        try:
            name, shape, offset, length = e["name"], e["shape"], e["offset"], e["len"]
            shape = tuple(int(s) for s in shape)
        except (TypeError, KeyError, ValueError) as exc:
            raise FormatError(f"{path}: malformed entry record {e!r}") from exc
        if offset != running:
            raise FormatError(f"{path}: entry {name!r} offset {offset}, expected {running}")
        if length != math.prod(shape):
            raise FormatError(f"{path}: entry {name!r} len {length} does not match shape {shape}")
        running += length
        entries.append((name, shape, offset, length))
    if len(payload) != running * 8:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, header declares {running * 8}"
        )
    try:
        return ParameterSet(
            (name, shape, np.frombuffer(payload, dtype="<f8", count=length, offset=offset * 8))
            for name, shape, offset, length in entries
        )
    except (TypeError, ValueError) as e:
        raise FormatError(f"{path}: {e}") from e
