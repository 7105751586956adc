"""Named-tensor parameter sets, delta arithmetic, and the PSET1 checkpoint format.

Everything here is float64. Sets are immutable after construction and entry
order is part of identity: serialization preserves it and alignment checks
enforce it, so a reordered checkpoint is a different object.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
import struct
from typing import Iterable, Iterator

import numpy as np

from .errors import FormatError, MisalignedSets, is_count

MAGIC = b"PSET1\n"
# Payloads of at least this many bytes are mapped instead of read: in a scan of
# linear-merge jobs, mapping cost more than reading up to 64 KiB per file and
# less from 128 KiB up.
MAP_MIN_BYTES = 1 << 18


class ParameterSet:
    """Ordered collection of named, shaped float64 tensors.

    Every set is backed by one read-only flat float64 vector in entry order,
    and each tensor is a view of its slice. A set built from entries
    copies them once into a new vector; with_vector shares a set's layout.

    Equality is bit-exact over names, shapes, and raw float bytes, so it
    distinguishes -0.0 from 0.0 and treats equal NaN payloads as equal.
    """

    __slots__ = ("_names", "_shapes", "_pos", "_slices", "_vector")

    def __init__(self, entries: Iterable[tuple]):
        layout: dict[str, tuple[int, ...]] = {}
        arrays: list[np.ndarray] = []
        for name, shape, data in entries:
            shape = _entry_shape(name, shape, layout)
            arr = np.asarray(data, dtype=np.float64).reshape(-1)
            expected = math.prod(shape)
            if arr.size != expected:
                raise ValueError(
                    f"{name}: shape {shape} needs {expected} elements, data has {arr.size}"
                )
            layout[name] = shape
            arrays.append(arr)
        self._fill(layout, np.concatenate(arrays) if arrays else np.zeros(0))

    def _fill(self, layout: dict, vector: np.ndarray) -> None:
        """Set the slots from validated {name: shape} entries in order and the
        flat vector they lay out, which the set takes over read-only."""
        vector.setflags(write=False)
        self._names = tuple(layout)
        self._shapes = tuple(layout.values())
        self._pos = {name: i for i, name in enumerate(self._names)}
        slices, start = [], 0
        for shape in self._shapes:
            slices.append(slice(start, start + math.prod(shape)))
            start = slices[-1].stop
        self._slices = tuple(slices)
        self._vector = vector

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
        out._vector = vector
        return out

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name) -> bool:
        return name in self._pos

    def __iter__(self) -> Iterator[tuple[str, tuple[int, ...], np.ndarray]]:
        v = self._vector
        return ((n, s, v[sl]) for n, s, sl in zip(self._names, self._shapes, self._slices))

    def vector(self) -> np.ndarray:
        """The whole set as its read-only flat vector in entry order (not a copy)."""
        return self._vector

    def slices(self) -> tuple[tuple[str, slice], ...]:
        """(name, slice of the flat vector) for each entry, in order."""
        return tuple(zip(self._names, self._slices))

    def same_layout(self, other: "ParameterSet") -> bool:
        """Whether other has this set's names, shapes and order."""
        return self._names == other._names and self._shapes == other._shapes

    def shape(self, name: str) -> tuple[int, ...]:
        return self._shapes[self._pos[name]]

    def flat(self, name: str) -> np.ndarray:
        """Read-only flat view of one tensor."""
        return self._vector[self._slices[self._pos[name]]]

    def tensor(self, name: str) -> np.ndarray:
        """Read-only view reshaped to the entry's declared shape."""
        i = self._pos[name]
        return self._vector[self._slices[i]].reshape(self._shapes[i])

    def total_elements(self) -> int:
        return self._slices[-1].stop if self._slices else 0

    def map(self, fn) -> "ParameterSet":
        """New set with fn applied to each flat array; shapes are kept."""
        return ParameterSet((n, s, fn(a)) for n, s, a in self)

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
        return self._vector.tobytes() == other._vector.tobytes()

    __hash__ = None

    def __repr__(self) -> str:
        return f"ParameterSet({len(self)} tensors, {self.total_elements()} elements)"


def _entry_shape(name, shape, layout: dict) -> tuple[int, ...]:
    """The shape of a new entry as a tuple of ints, after checking that name
    is a nonempty string not yet in layout and that every dimension is an
    integer (not a bool) of at least 1."""
    if not isinstance(name, str) or not name:
        raise ValueError(f"tensor name must be a nonempty string, got {name!r}")
    if name in layout:
        raise ValueError(f"duplicate tensor name {name!r}")
    shape = tuple(shape)
    if not all(is_count(s, 1) for s in shape):
        raise ValueError(f"{name}: shape {shape} has a non-integer or nonpositive dimension")
    return tuple(map(int, shape))


def check_aligned(a: ParameterSet, b: ParameterSet) -> None:
    """Raise MisalignedSets at the first entry where names, shapes, or order differ."""
    if a.same_layout(b):
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


def delta(a: ParameterSet, b: ParameterSet) -> ParameterSet:
    """Elementwise a - b with exact name/shape/order alignment."""
    check_aligned(a, b)
    return a.with_vector(a.vector() - b.vector())


def apply_delta(base: ParameterSet, d: ParameterSet) -> ParameterSet:
    """Elementwise base + d. The delta need not come from this base: relaxed
    online merging applies deltas to the current policy."""
    check_aligned(base, d)
    return base.with_vector(base.vector() + d.vector())


def save_checkpoint(p: ParameterSet, path) -> None:
    """Write the PSET1 binary format: magic, u32 header length, JSON header,
    then contiguous little-endian float64 payload in entry order.

    The file is written under a temporary name in path's directory and then
    renamed over path, so a failed write leaves no partial checkpoint and a
    set mapped from the file at path keeps its bytes. The new file's mode
    comes from the umask; a symlink at path is replaced, not followed."""
    entries = [
        {"name": name, "shape": list(p.shape(name)), "offset": sl.start, "len": sl.stop - sl.start}
        for name, sl in p.slices()
    ]
    header = json.dumps(
        {"entries": entries, "dtype": "f64", "version": 1},
        separators=(",", ":"),
    ).encode("utf-8")
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        f = open(tmp, "xb")
    except OSError as e:  # report the target, not the temporary name
        raise OSError(e.errno, e.strerror, os.fspath(path)) from None
    try:
        with f:
            f.write(MAGIC)
            f.write(struct.pack("<I", len(header)))
            f.write(header)
            f.write(np.ascontiguousarray(p.vector(), dtype="<f8"))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_checkpoint(path) -> ParameterSet:
    """Read a PSET1 file; bit-exact inverse of save_checkpoint.

    The header is read and checked first, and the payload size against the
    file size before anything is allocated. A payload of MAP_MIN_BYTES or
    more then backs the set's flat vector as a read-only map of the file,
    which holds one file descriptor until the set is freed; a smaller one is
    read straight into a new vector."""
    with open(path, "rb") as f:
        file_size = os.fstat(f.fileno()).st_size
        body_start = len(MAGIC) + 4
        head = f.read(body_start)
        if len(head) < body_start or head[: len(MAGIC)] != MAGIC:
            raise FormatError(f"{path}: bad magic bytes")
        (hlen,) = struct.unpack_from("<I", head, len(MAGIC))
        if body_start + hlen > file_size:
            raise FormatError(f"{path}: truncated header")
        try:
            header = json.loads(f.read(hlen).decode("utf-8"))
        except (ValueError, RecursionError) as e:
            raise FormatError(f"{path}: invalid header JSON ({e})") from e
        if not isinstance(header, dict) or header.get("dtype") != "f64" or header.get("version") != 1:
            raise FormatError(f"{path}: unsupported header (need dtype f64, version 1)")
        raw_entries = header.get("entries")
        if not isinstance(raw_entries, list):
            raise FormatError(f"{path}: header has no entry list")
        running = 0
        layout: dict[str, tuple[int, ...]] = {}
        for i, e in enumerate(raw_entries):
            # Nonnegative JSON integers (type is int: not floats or bools), so the
            # payload length check below bounds every count passed to numpy.
            if not (
                isinstance(e, dict)
                and isinstance(e.get("name"), str)
                and isinstance(e.get("shape"), list)
                and all(type(v) is int and v >= 0 for v in [*e["shape"], e.get("offset"), e.get("len")])
            ):
                raise FormatError(f"{path}: malformed entry record {i}")
            name, shape, offset, length = e["name"], tuple(e["shape"]), e["offset"], e["len"]
            if offset != running:
                raise FormatError(f"{path}: entry {name!r} offset {offset}, expected {running}")
            if length != math.prod(shape):
                raise FormatError(f"{path}: entry {name!r} len {length} does not match shape {shape}")
            try:
                layout[name] = _entry_shape(name, shape, layout)
            except ValueError as err:
                raise FormatError(f"{path}: {err}") from err
            running += length
        payload = file_size - body_start - hlen
        if payload != running * 8:
            raise FormatError(f"{path}: payload is {payload} bytes, header declares {running * 8}")
        if payload >= MAP_MIN_BYTES:
            mapping = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
            if len(mapping) < file_size:
                raise FormatError(f"{path}: payload ended before its {payload} bytes")
            vector = np.frombuffer(mapping, "<f8", running, body_start + hlen)
        else:
            vector = np.empty(running, dtype="<f8")
            if f.readinto(memoryview(vector).cast("B")) != payload:
                raise FormatError(f"{path}: payload ended before its {payload} bytes")
    out = ParameterSet.__new__(ParameterSet)
    out._fill(layout, vector.astype(np.float64, copy=False))
    return out
