import gc
import json
import mmap
import os
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergeopt import (
    FormatError,
    MisalignedSets,
    ParameterSet,
    apply_delta,
    delta,
    load_checkpoint,
    save_checkpoint,
)
from mergeopt.kernels import MergeMethod, MergeSpec, offline_merge
from mergeopt.params import MAGIC, MAP_MIN_BYTES


def pset(**named):
    return ParameterSet((k, np.shape(v), v) for k, v in named.items())


def test_delta_identity_case():
    d = delta(pset(w=[1.0, 2.0]), pset(w=[1.0, 2.0]))
    assert np.array_equal(d.flat("w"), [0.0, 0.0])


def test_delta_elementwise_subtraction():
    d = delta(pset(w=[3.0, -1.0]), pset(w=[1.0, 1.0]))
    assert np.array_equal(d.flat("w"), [2.0, -2.0])


def test_delta_name_mismatch_raises():
    with pytest.raises(MisalignedSets, match="'w' vs 'v'"):
        delta(pset(w=[1.0]), pset(v=[1.0]))


def test_delta_shape_mismatch_reports_entry():
    a = ParameterSet([("w", (2, 2), np.ones(4))])
    b = ParameterSet([("w", (4,), np.ones(4))])
    with pytest.raises(MisalignedSets, match="shape"):
        delta(a, b)


def test_delta_extra_entry_reports_name():
    a = ParameterSet([("w", (1,), [1.0]), ("b", (1,), [2.0])])
    b = ParameterSet([("w", (1,), [1.0])])
    with pytest.raises(MisalignedSets, match="'b'"):
        delta(a, b)


def test_alignment_checked_before_any_arithmetic():
    # Misalignment at entry 0 must raise even though entry 1 would also fail.
    a = ParameterSet([("a", (1,), [1.0]), ("b", (1,), [1.0])])
    b = ParameterSet([("x", (1,), [1.0]), ("y", (2,), [1.0, 2.0])])
    with pytest.raises(MisalignedSets, match="entry 0"):
        delta(a, b)


def test_apply_delta_zero_delta():
    base = pset(w=[1.0, 1.0])
    assert np.array_equal(apply_delta(base, delta(base, base)).flat("w"), [1.0, 1.0])


def test_apply_delta_inverts_delta_example():
    base = pset(w=[1.0, 1.0])
    d = pset(w=[2.0, -2.0])
    assert np.array_equal(apply_delta(base, d).flat("w"), [3.0, -1.0])


def _dyadic(rng, size):
    # Multiples of 2^-20 bounded by 1e6: differences and re-additions of such
    # values are exact in float64 (well inside the 53-bit significand), which
    # is the precondition for a bit-exact delta roundtrip.
    return rng.integers(-(10**6) << 20, (10**6) << 20, size=size) * 2.0**-20


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 20), st.integers(0, 2**31))
def test_apply_delta_roundtrip_property(n, seed):
    rng = np.random.default_rng(seed)
    a = pset(w=_dyadic(rng, n), v=_dyadic(rng, 3))
    b = pset(w=_dyadic(rng, n), v=_dyadic(rng, 3))
    assert apply_delta(b, delta(a, b)) == a


def test_duplicate_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        ParameterSet([("w", (1,), [1.0]), ("w", (1,), [2.0])])


def test_shape_data_length_mismatch_rejected():
    with pytest.raises(ValueError, match="elements"):
        ParameterSet([("w", (3,), [1.0, 2.0])])


@pytest.mark.parametrize("entry, match", [
    (("", (1,), [1.0]), "nonempty string"),
    (("w", (2, 0), []), "nonpositive dimension"),
], ids=["empty name", "zero dimension"])
def test_bad_entry_rejected(entry, match):
    with pytest.raises(ValueError, match=match):
        ParameterSet([entry])


@pytest.mark.parametrize("shape, data", [
    ((2.9,), [1.0, 2.0]), ((True,), [1.0]), (("2",), [1.0, 2.0]), ((2, 1.0), [1.0, 2.0]),
], ids=["fraction", "bool", "string", "integral float"])
def test_non_integer_dimension_rejected(shape, data):
    with pytest.raises(ValueError, match="non-integer or nonpositive dimension"):
        ParameterSet([("w", shape, data)])


def test_numpy_integer_dimensions_become_ints():
    p = ParameterSet([("w", (np.int64(2), np.uint8(1)), [1.0, 2.0])])
    assert p.shape("w") == (2, 1) and all(type(s) is int for s in p.shape("w"))


@pytest.mark.parametrize("vector", [
    np.zeros(3, dtype=np.float32), np.zeros(2), np.zeros((3, 1)),
], ids=["float32", "short", "2-D"])
def test_with_vector_needs_the_layout_s_flat_float64_vector(vector):
    with pytest.raises(ValueError, match="flat float64 vector of 3"):
        pset(w=[1.0, 2.0, 3.0]).with_vector(vector)


def test_sets_of_different_layouts_are_unequal():
    assert pset(w=[1.0, 2.0]) != pset(v=[1.0, 2.0])
    assert ParameterSet([("w", (2,), [1.0, 2.0])]) != ParameterSet([("w", (1, 2), [1.0, 2.0])])


def test_entry_order_is_part_of_identity():
    a = ParameterSet([("w", (1,), [1.0]), ("b", (1,), [2.0])])
    b = ParameterSet([("b", (1,), [2.0]), ("w", (1,), [1.0])])
    assert a != b
    assert a.fingerprint() != b.fingerprint()


def test_arrays_are_immutable():
    p = pset(w=[1.0, 2.0])
    with pytest.raises(ValueError):
        p.flat("w")[0] = 9.0


def _two_tensors(arrays):
    return ParameterSet([("w", (2, 3), arrays[0]), ("b", (4,), arrays[1])])


def _loaded(arrays, tmp_path):
    save_checkpoint(_two_tensors(arrays), tmp_path / "s.pset")
    return load_checkpoint(tmp_path / "s.pset")


LAYOUTS = {
    "entries": lambda a, c, tmp_path: _two_tensors(a),
    "loaded": lambda a, c, tmp_path: _loaded(a, tmp_path),
    "delta": lambda a, c, tmp_path: delta(_two_tensors(a), _two_tensors(c)),
    "apply_delta": lambda a, c, tmp_path: apply_delta(_two_tensors(a), _two_tensors(c)),
    "offline_merge": lambda a, c, tmp_path: offline_merge(
        _two_tensors(a), [_two_tensors(c)], MergeSpec(MergeMethod.LINEAR)
    ),
}


@pytest.mark.parametrize("label", list(LAYOUTS))
def test_every_set_is_one_read_only_vector(tmp_path, label):
    rng = np.random.default_rng(3)
    a = [rng.normal(size=(2, 3)), rng.normal(size=4)]
    c = [rng.normal(size=(2, 3)), rng.normal(size=4)]
    p = LAYOUTS[label](a, c, tmp_path)
    v = p.vector()
    assert p.vector() is v
    assert not v.flags.writeable
    assert all(np.shares_memory(p.flat(n), v) and np.shares_memory(p.tensor(n), v) for n in p.names)
    before = v.copy()
    for arr in a + c:
        arr[...] = 9.0
    assert np.array_equal(p.vector(), before)


def test_membership_is_by_name():
    p = ParameterSet([("w", (2,), np.ones(2)), ("b", (1,), [0.0])])
    assert "w" in p and "b" in p
    assert "x" not in p
    assert ("w", (2,)) not in p


def _is_mapped(p: ParameterSet) -> bool:
    base = p.vector().base
    return isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap)


def test_checkpoint_roundtrip_empty_set(tmp_path):
    p = ParameterSet([])
    save_checkpoint(p, tmp_path / "empty.pset")
    q = load_checkpoint(tmp_path / "empty.pset")
    assert q == p
    assert q.vector().tobytes() == b""
    assert not _is_mapped(q)


def _saved_with_payload(path, nbytes: int, aligned: bool) -> ParameterSet:
    """Save a two-tensor set of nbytes of payload to path, named so that the
    payload starts at a file offset that is a multiple of 8 or is not."""
    n = nbytes // 8
    data = np.random.default_rng(n).normal(size=n)
    data[[0, 2]] = [-0.0, 5e-324]
    data.view(np.uint64)[1] = 0x7FF8000000000001  # a NaN with a payload
    for k in range(1, 9):
        p = ParameterSet([("w", (n - 1,), data[:-1]), ("b" * k, (1,), data[-1:])])
        save_checkpoint(p, path)
        with open(path, "rb") as f:
            head = f.read(len(MAGIC) + 4)
        offset = len(head) + int.from_bytes(head[len(MAGIC):], "little")
        if (offset % 8 == 0) == aligned:
            return p
    raise AssertionError("no name length gave the wanted payload offset")


@pytest.mark.parametrize("aligned", [True, False], ids=["offset8", "offset-unaligned"])
@pytest.mark.parametrize("nbytes", [MAP_MIN_BYTES - 8, MAP_MIN_BYTES], ids=["read", "mapped"])
def test_both_load_paths_give_the_saved_set(tmp_path, nbytes, aligned):
    path = tmp_path / "p.pset"
    p = _saved_with_payload(path, nbytes, aligned)
    q = load_checkpoint(path)
    assert q == p
    assert q.vector().tobytes() == p.vector().tobytes()
    assert all(q.flat(n).tobytes() == p.flat(n).tobytes() for n in p.names)
    assert _is_mapped(q) == (nbytes >= MAP_MIN_BYTES)
    assert not q.vector().flags.writeable


def test_mapped_set_keeps_its_bytes_when_its_file_is_saved_over(tmp_path):
    path = tmp_path / "p.pset"
    p = _saved_with_payload(path, MAP_MIN_BYTES, aligned=False)
    q = load_checkpoint(path)
    assert _is_mapped(q)
    save_checkpoint(q.map(lambda a: a + 1.0), path)
    assert q.vector().tobytes() == p.vector().tobytes()
    assert load_checkpoint(path) == p.map(lambda a: a + 1.0)


def test_save_replaces_a_symlink_and_takes_its_mode_from_the_umask(tmp_path):
    target = tmp_path / "target.pset"
    target.write_bytes(b"untouched")
    link = tmp_path / "link.pset"
    link.symlink_to(target)
    old = os.umask(0o027)
    try:
        save_checkpoint(pset(w=[1.0, 2.0]), link)
    finally:
        os.umask(old)
    assert target.read_bytes() == b"untouched"
    assert not link.is_symlink()
    assert load_checkpoint(link) == pset(w=[1.0, 2.0])
    assert os.stat(link).st_mode & 0o777 == 0o640


def test_failed_save_keeps_the_old_file_and_leaves_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "p.pset"
    save_checkpoint(pset(w=[1.0]), path)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        save_checkpoint(pset(w=[2.0]), path)
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["p.pset"]


def test_checkpoint_roundtrip_extreme_doubles(tmp_path):
    biggest = np.finfo(np.float64).max
    p = pset(w=np.array([1e-300, -0.0, biggest]))
    path = tmp_path / "x.pset"
    save_checkpoint(p, path)
    q = load_checkpoint(path)
    assert q == p
    assert q.flat("w").tobytes() == p.flat("w").tobytes()


def test_checkpoint_preserves_entry_order(tmp_path):
    p = ParameterSet([("z", (1,), [1.0]), ("a", (2,), [2.0, 3.0]), ("m", (1,), [4.0])])
    save_checkpoint(p, tmp_path / "o.pset")
    assert load_checkpoint(tmp_path / "o.pset").names == ("z", "a", "m")


def test_a_repeated_header_still_checks_each_file_s_payload(tmp_path):
    # The second pass meets short.pset's header bytes already parsed, from
    # good.pset; the first meets them cold, after other.pset's.
    good, short, other = tmp_path / "good.pset", tmp_path / "short.pset", tmp_path / "other.pset"
    save_checkpoint(pset(w=[1.0, 2.0]), good)
    short.write_bytes(good.read_bytes()[:-8])
    save_checkpoint(pset(v=[1.0]), other)
    messages = []
    for before in (other, good):
        load_checkpoint(before)
        with pytest.raises(FormatError) as e:
            load_checkpoint(short)
        messages.append(str(e.value))
    assert messages == [f"{short}: payload is 8 bytes, header declares 16"] * 2


def test_a_dropped_mapped_set_frees_its_vector(tmp_path):
    path = tmp_path / "p.pset"
    _saved_with_payload(path, MAP_MIN_BYTES, aligned=True)
    loaded = [load_checkpoint(path), load_checkpoint(path)]  # the second reuses the parsed header
    assert all(_is_mapped(q) for q in loaded)
    refs = [weakref.ref(q.vector()) for q in loaded]
    del loaded
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_loads_alternating_between_two_layouts_keep_their_own(tmp_path):
    # Both payloads are 32 bytes, so only the header tells the layouts apart.
    sets = {
        tmp_path / "a.pset": pset(w=np.arange(4.0).reshape(2, 2)),
        tmp_path / "b.pset": ParameterSet([("x", (1, 3), [4.0, 5.0, 6.0]), ("y", (1,), [7.0])]),
    }
    for path, p in sets.items():
        save_checkpoint(p, path)
    for path, p in [*sets.items()] * 3:
        q = load_checkpoint(path)
        assert [(n, q.shape(n)) for n in q.names] == [(n, p.shape(n)) for n in p.names]
        assert q == p


def test_checkpoint_wrong_magic(tmp_path):
    path = tmp_path / "bad.pset"
    path.write_bytes(b"NOPE!\n" + b"\x00" * 32)
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncated_header(tmp_path):
    path = tmp_path / "trunc.pset"
    path.write_bytes(b"PSET1\n" + (1 << 20).to_bytes(4, "little") + b"{}")
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_payload_length_mismatch(tmp_path):
    path = tmp_path / "short.pset"
    save_checkpoint(pset(w=[1.0, 2.0]), path)
    data = path.read_bytes()
    for wrong in (data[:-8], data[:-1], data + b"\x00", data + b"\x00" * 8):
        path.write_bytes(wrong)
        with pytest.raises(FormatError, match="payload"):
            load_checkpoint(path)


def test_checkpoint_load_holds_one_copy_of_the_payload(tmp_path):
    n = 2**18
    path = tmp_path / "big.pset"
    save_checkpoint(pset(w=np.random.default_rng(0).normal(size=n)), path)
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.total_elements() == n
    assert peak <= 1.3 * n * 8


def test_checkpoint_bad_header_json(tmp_path):
    path = tmp_path / "json.pset"
    header = b"not json"
    path.write_bytes(b"PSET1\n" + len(header).to_bytes(4, "little") + header)
    with pytest.raises(FormatError, match="JSON"):
        load_checkpoint(path)


def test_checkpoint_noncontiguous_offsets_rejected(tmp_path):
    import json as jsonlib

    header = jsonlib.dumps(
        {
            "entries": [{"name": "w", "shape": [1], "offset": 1, "len": 1}],
            "dtype": "f64",
            "version": 1,
        }
    ).encode()
    path = tmp_path / "gap.pset"
    path.write_bytes(b"PSET1\n" + len(header).to_bytes(4, "little") + header + b"\x00" * 16)
    with pytest.raises(FormatError, match="offset"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "entry",
    [
        {"name": "w", "shape": None, "offset": 0, "len": 1},
        {"name": "w", "shape": ["a"], "offset": 0, "len": 1},
        {"name": "w", "shape": [1], "offset": 0.0, "len": 1.0},
        {"name": 5, "shape": [1], "offset": 0, "len": 1},
        {"name": "w", "shape": [1], "offset": 0},
        ["w", [1], 0, 1],
        {"name": "w", "shape": [float("inf")], "offset": 0, "len": 1},
        {"name": "w", "shape": "1", "offset": 0, "len": 1},
        {"name": "w", "shape": [1], "offset": False, "len": True},
    ],
)
def test_checkpoint_malformed_entry_is_format_error(tmp_path, entry):
    import json as jsonlib

    header = jsonlib.dumps({"entries": [entry], "dtype": "f64", "version": 1}).encode()
    path = tmp_path / "bad.pset"
    path.write_bytes(b"PSET1\n" + len(header).to_bytes(4, "little") + header + b"\x00" * 8)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_deeply_nested_header_is_format_error(tmp_path):
    header = b"[" * 100_000 + b"]" * 100_000
    path = tmp_path / "deep.pset"
    path.write_bytes(b"PSET1\n" + len(header).to_bytes(4, "little") + header)
    with pytest.raises(FormatError):
        load_checkpoint(path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_SCALAR = st.integers(-2, 4) | st.sampled_from(
    [0.0, 1.5, float("inf"), float("nan"), True, False, None, "", "12", [1]]
)
_ENTRY = st.fixed_dictionaries(
    {
        "name": st.text(max_size=2) | _JSON,
        "shape": st.lists(_SCALAR, max_size=3) | _JSON,
        "offset": _SCALAR,
        "len": _SCALAR,
    }
) | _JSON
_HEADER = st.fixed_dictionaries(
    {"entries": st.lists(_ENTRY, max_size=3), "dtype": st.just("f64"), "version": st.just(1)}
)


@settings(max_examples=300, deadline=None)
@given(
    st.binary(max_size=64) | (_HEADER | _JSON).map(lambda h: json.dumps(h).encode()),
    st.binary(max_size=48),
)
def test_any_header_gives_parameter_set_or_format_error(tmp_path_factory, header, payload):
    path = tmp_path_factory.mktemp("hdr") / "h.pset"
    path.write_bytes(b"PSET1\n" + len(header).to_bytes(4, "little") + header + payload)
    try:
        assert isinstance(load_checkpoint(path), ParameterSet)
    except FormatError:
        pass


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_checkpoint(tmp_path / "nope.pset")


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31))
def test_checkpoint_roundtrip_random_sets(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(rng.integers(0, 5)):
        shape = tuple(int(s) for s in rng.integers(1, 4, size=rng.integers(1, 3)))
        entries.append((f"t{i}", shape, rng.normal(size=int(np.prod(shape)))))
    p = ParameterSet(entries)
    path = tmp_path_factory.mktemp("ckpt") / "r.pset"
    save_checkpoint(p, path)
    assert load_checkpoint(path) == p
