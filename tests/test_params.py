import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergeopt import (
    DeltaSet,
    FormatError,
    MisalignedSets,
    ParameterSet,
    apply_delta,
    delta,
    load_checkpoint,
    save_checkpoint,
)


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
    d = DeltaSet([("w", (2,), [2.0, -2.0])])
    assert np.array_equal(apply_delta(base, d).flat("w"), [3.0, -1.0])


def test_apply_delta_warns_on_foreign_base():
    a, b = pset(w=[3.0]), pset(w=[1.0])
    d = delta(a, b)
    other = pset(w=[5.0])
    with pytest.warns(UserWarning, match="fingerprint mismatch"):
        out = apply_delta(other, d)
    assert np.array_equal(out.flat("w"), [7.0])


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


def test_entry_order_is_part_of_identity():
    a = ParameterSet([("w", (1,), [1.0]), ("b", (1,), [2.0])])
    b = ParameterSet([("b", (1,), [2.0]), ("w", (1,), [1.0])])
    assert a != b
    assert a.fingerprint() != b.fingerprint()


def test_arrays_are_immutable():
    p = pset(w=[1.0, 2.0])
    with pytest.raises(ValueError):
        p.flat("w")[0] = 9.0


def test_checkpoint_roundtrip_empty_set(tmp_path):
    p = ParameterSet([])
    save_checkpoint(p, tmp_path / "empty.pset")
    assert load_checkpoint(tmp_path / "empty.pset") == p


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
    path.write_bytes(data[:-8])
    with pytest.raises(FormatError, match="payload"):
        load_checkpoint(path)


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
    ],
)
def test_checkpoint_malformed_entry_is_format_error(tmp_path, entry):
    import json as jsonlib

    header = jsonlib.dumps({"entries": [entry], "dtype": "f64", "version": 1}).encode()
    path = tmp_path / "bad.pset"
    path.write_bytes(b"PSET1\n" + len(header).to_bytes(4, "little") + header + b"\x00" * 8)
    with pytest.raises(FormatError):
        load_checkpoint(path)


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
