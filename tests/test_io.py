"""Serialization: byte determinism, round-trips, CSV shape."""

import base64
import csv
import json
import math
import os
import stat
import struct
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import jetlab
from jetlab import domains, io
from jetlab.functions import get_function
from jetlab.grid import GridMask, GridSpec, SampledJet, alpha_key


def test_format_float_round_trips_binary64():
    rng = np.random.default_rng(7)
    xs = list(rng.uniform(-1e6, 1e6, 200)) + [
        0.0, -0.0, 1.0, 2.0**-1074, 1.7976931348623157e308, 1 / 3, math.pi
    ]
    for x in xs:
        assert float(io.format_float(float(x))) == float(x)


def test_format_float_rejects_non_finite():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            io.format_float(bad)


def test_format_float_marks_integers_as_floats():
    assert io.format_float(2.0) == "2.0"
    assert io.format_float(-17.0) == "-17.0"
    assert "e" in io.format_float(2.0**-30) or "." in io.format_float(2.0**-30)


def test_dumps_is_valid_json_and_ordered():
    payload = {"b": [1, 2.5, None, True], "a": {"nested": "x"}}
    text = io.dumps(payload)
    assert json.loads(text) == {
        "b": [1, 2.5, None, True], "a": {"nested": "x"}
    }
    # insertion order is preserved, not sorted
    assert text.index('"b"') < text.index('"a"')


def test_dumps_identical_across_calls():
    payload = {"values": list(np.linspace(0, 1, 50)), "n": 50}
    assert io.dumps(payload) == io.dumps(payload)


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        io.dumps({"q": Fraction(1, 3)})
    with pytest.raises(TypeError):
        io.dumps({1: "non-string key"})


def test_fraction_pair_round_trip():
    q = Fraction(-32, 7)
    assert io.pair_fraction(io.fraction_pair(q), "q") == q


def test_grid_round_trip():
    g = GridSpec((-0.5, 0.25), 2.0**-6, (33, 17))
    assert io.grid_from_payload(io.grid_to_payload(g)) == g


def test_mask_round_trip():
    q, _ = domains.build_domain(domains.Comb(2), h=2.0**-6)
    back = io.mask_from_payload(json.loads(io.dumps(io.mask_to_payload(q))))
    assert back.grid == q.grid
    assert np.array_equal(back.member, q.member)


def test_jet_round_trip_through_files(tmp_path):
    q, _ = domains.build_domain(domains.Rectangle(), h=2.0**-4)
    jet = get_function("sin_cos", depth=4).sample(q, order=2)
    path = tmp_path / "jet.json"
    io.write_artifact(str(path), io.jet_to_payload(jet), {"tool": "t"})
    back = io.jet_from_payload(io.read_artifact(str(path)))
    assert back.order == jet.order
    assert back.grid == jet.grid
    assert np.array_equal(back.mask.member, jet.mask.member)
    for alpha in jet.alphas():
        assert np.array_equal(back.components[alpha], jet.components[alpha])


def test_read_artifact_drops_provenance(tmp_path):
    path = tmp_path / "a.json"
    io.write_artifact(str(path), {"x": 1.5}, {"command": "whatever"})
    assert io.read_artifact(str(path)) == {"x": 1.5}


def test_strip_provenance_canonicalizes():
    a = io.dumps({"x": [1.0, 2.0], "provenance": {"command": "run one"}})
    b = io.dumps({"x": [1.0, 2.0], "provenance": {"command": "run two"}})
    assert a != b
    assert io.strip_provenance(a) == io.strip_provenance(b)


def test_jet_csv_shape(tmp_path):
    q, _ = domains.build_domain(domains.Rectangle(), h=2.0**-3)
    jet = get_function("sum_st", depth=4).sample(q, order=1)
    path = tmp_path / "jet.csv"
    io.jet_to_csv(jet, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == 'i0,i1,x0,x1,mask,"0,0","0,1","1,0"'
    assert len(lines) == 1 + jet.grid.point_count
    # first data row is the origin corner
    first = lines[1].split(",")
    assert first[:2] == ["0", "0"]
    assert float(first[4]) == 1.0


def test_mask_csv_counts(tmp_path):
    q, _ = domains.build_domain(domains.GapIntervals(3), h=2.0**-5)
    path = tmp_path / "m.csv"
    io.mask_to_csv(q, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + q.grid.point_count
    ones = sum(1 for ln in lines[1:] if ln.rsplit(",", 1)[1] == "1")
    assert ones == q.count


# --- reference oracle: element-by-element encoders.  ``_oracle_dumps`` is the
# version 1 writer, arrays as lists of their values; ``_v2_oracle`` turns each
# array into its version 2 object, packed value by value and encoded whole.

def _oracle_float(x):
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite float in payload")
    s = format(float(x), ".17g")
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def _oracle_write(obj, parts):
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_oracle_float(float(obj)))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(key, ensure_ascii=True))
            parts.append(":")
            _oracle_write(value, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        parts.append("[")
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        for i, value in enumerate(seq):
            if i:
                parts.append(",")
            _oracle_write(value, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _oracle_dumps(obj):
    parts = []
    _oracle_write(obj, parts)
    return "".join(parts)


def _v2_oracle(obj):
    if isinstance(obj, dict):
        return {key: _v2_oracle(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_v2_oracle(value) for value in obj]
    if not isinstance(obj, np.ndarray):
        return obj
    values = obj.ravel().tolist()
    if obj.dtype.kind == "b":
        dtype = "bool"
        data = bytes(sum(bit << i for i, bit in enumerate(values[j:j + 8]))
                     for j in range(0, len(values), 8))
    elif obj.dtype.kind == "f":
        dtype = "<f8"
        for x in values:
            _oracle_float(x)  # refuses a non-finite value
        data = struct.pack(f"<{len(values)}d", *values)
    else:
        raise TypeError(f"cannot serialize a {obj.dtype} array")
    return {"dtype": dtype, "shape": list(obj.shape),
            "data": base64.b64encode(data).decode("ascii")}


def _check_dumps(obj):
    """``io.dumps(obj)`` is the oracle's version 2 text, or both refuse."""
    try:
        want = _oracle_dumps(_v2_oracle(obj))
    except (TypeError, ValueError) as err:
        with pytest.raises(type(err)):
            io.dumps(obj)
        return
    assert io.dumps(obj) == want


def _check_float_text(values):
    """``_float_cells`` rows through ``_rows_text`` are the oracle's text."""
    got = io._rows_text([io._float_cells(values)], b"\n")
    assert got == "".join(_oracle_float(x) + "\n"
                          for x in np.ravel(values).tolist())


def _oracle_csv(path, grid, names, columns):
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"i{a}" for a in range(grid.dim)]
                        + [f"x{a}" for a in range(grid.dim)] + names)
        for index in np.ndindex(*grid.extents):
            writer.writerow(
                [str(i) for i in index]
                + [_oracle_float(c) for c in grid.coord(index)]
                + [str(int(columns[0][index]))]
                + [_oracle_float(float(col[index])) for col in columns[1:]]
            )


_EDGE_FLOATS = [-0.0, 0.0, 1.0, -3.0, 1e16, 1e17, 5e-324, 1e-300, 0.1,
                2.0**52 + 0.5, 99999999999999984.0, 1e-4, 1e-5, -1.5e300]


@pytest.mark.parametrize("arr", [
    np.array(_EDGE_FLOATS),
    np.array([x for x in _EDGE_FLOATS if abs(x) < 1e38], dtype=np.float32),
    np.array([0.1, -2.0, 3.25, 6e4], dtype=np.float16),
    np.random.default_rng(3).uniform(-1e3, 1e3, 3 * (1 << 16) + 5),
    np.arange(-6.0, 6.0).reshape(3, 4),
    np.array([]),
    np.zeros((0, 3)),
    np.zeros((3, 0)),
    np.array([True, False, True]),
    np.array([[1, 0], [0, 1]], dtype=np.int8),
    np.array([0, 1, 1, 0, 1], dtype=np.uint8),
    np.array([1], dtype=np.int8),
    np.array([0, 1, 10, -12, 2**40]),
    np.array([-1, 0, 1], dtype=np.int8),
    np.array([3, 9, 10], dtype=np.uint64),
    np.array([], dtype=np.int8),
    np.array(["a", "b"]),
])
def test_array_encoder_matches_oracle(arr):
    _check_dumps({"a": arr})
    if arr.dtype.kind == "f":
        _check_float_text(arr)


@pytest.mark.parametrize("x", _EDGE_FLOATS + [np.float32(0.1), 2.0**-1074])
def test_format_float_matches_oracle(x):
    assert io.format_float(x) == _oracle_float(x)


def test_payloads_match_oracle():
    q, _ = domains.build_domain(domains.Comb(2), h=2.0**-6)
    jet = get_function("sin_cos", depth=4).sample(q, order=2)
    for payload in (io.mask_to_payload(q), io.jet_to_payload(jet)):
        _check_dumps(payload)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_array_encoder_rejects_non_finite(bad):
    arr = np.array([0.0, 1.0, bad])
    with pytest.raises(ValueError, match="non-finite"):
        io.dumps({"a": arr})
    with pytest.raises(ValueError, match="non-finite"):
        io.dumps({"a": arr.astype(np.float32)})


def _lattice_jets():
    q1, _ = domains.build_domain(domains.GapIntervals(3), h=2.0**-5)
    q2, _ = domains.build_domain(domains.Disk(), h=2.0**-4)
    return [get_function("sin_cos", depth=4).sample(q2, order=1),
            get_function("gap1d", depth=4).sample(q1, order=1)]


@pytest.mark.parametrize("jet", _lattice_jets(), ids=["2d", "1d"])
def test_csv_writers_match_oracle(tmp_path, jet):
    alphas = jet.alphas()
    io.jet_to_csv(jet, str(tmp_path / "jet.csv"))
    _oracle_csv(str(tmp_path / "jet_ref.csv"), jet.grid,
                ["mask"] + [alpha_key(a) for a in alphas],
                [jet.mask.member] + [jet.components[a] for a in alphas])
    assert (tmp_path / "jet.csv").read_bytes() == (tmp_path / "jet_ref.csv").read_bytes()
    io.mask_to_csv(jet.mask, str(tmp_path / "mask.csv"))
    _oracle_csv(str(tmp_path / "mask_ref.csv"), jet.grid, ["mask"],
                [jet.mask.member])
    assert (tmp_path / "mask.csv").read_bytes() == (tmp_path / "mask_ref.csv").read_bytes()


def test_csv_blocks_match_oracle(tmp_path):
    # more rows than one encoding block, on a non-dyadic origin
    grid = GridSpec((-0.3, 0.7), 2.0**-7, (700, 101))
    member = np.random.default_rng(5).random(grid.extents) < 0.5
    mask = GridMask(grid, member)
    io.mask_to_csv(mask, str(tmp_path / "m.csv"))
    _oracle_csv(str(tmp_path / "ref.csv"), grid, ["mask"], [mask.member])
    assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_failed_write_keeps_existing_artifact(tmp_path):
    path = tmp_path / "a.json"
    io.write_artifact(str(path), {"x": 1.5}, {})
    before = path.read_bytes()
    # a NaN in the last block of three: two are written before it fails
    streamed = np.ones(3 * io._BLOCK)
    streamed[-1] = float("nan")
    for values in (np.array([1.0, float("nan")]), streamed):
        with pytest.raises(ValueError, match="non-finite"):
            io.write_artifact(str(path), {"x": values}, {})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["a.json"]


def test_write_goes_through_a_symlink_and_into_a_pipe(tmp_path):
    real = tmp_path / "real.json"
    io.write_artifact(str(real), {"x": 1.5}, {})
    (tmp_path / "link.json").symlink_to(real)
    io.write_artifact(str(tmp_path / "link.json"), {"x": 2.5}, {})
    assert (tmp_path / "link.json").is_symlink()
    assert io.read_artifact(str(real)) == {"x": 2.5}
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()),
                              daemon=True)
    reader.start()
    io.write_artifact(str(pipe), {"x": 3.5}, {})
    reader.join(timeout=30)
    assert got == [b'{"x":3.5,"provenance":{}}\n']
    assert stat.S_ISFIFO(os.lstat(pipe).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["link.json", "pipe", "real.json"]


# --- the .17g kernel against the oracle

def _ten_powers():
    """Each binary64 power of ten and its neighbours: the k-fix and carry."""
    tens = np.array([float(f"1e{p}") for p in range(-323, 309)])
    return np.concatenate([tens, np.nextafter(tens, 0.0),
                           np.nextafter(tens, np.inf)])


KERNEL_EDGES = np.concatenate([
    _ten_powers(),
    # the fixed/exponent switches at 1e-4 / 1e-5 and 1e16 / 1e17
    [1e-4, np.nextafter(1e-4, 0.0), 1e-5, np.nextafter(1e-5, 1.0),
     1e16, np.nextafter(1e16, 0.0), 1e17, np.nextafter(1e17, 0.0)],
    # exact ties at the 18th digit, -0.0 and the subnormal edge
    [2.0**-25, -(2.0**-25), 3 * 2.0**-25, -0.0, 5e-324, -5e-324,
     2.0**-1022, np.nextafter(2.0**-1022, 0.0), 1e-290, 1e290,
     np.nextafter(1e290, 0.0), 1.7976931348623157e308],
    2.0 ** -np.arange(0, 1075),
])


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
def test_kernel_edges_match_oracle(dtype, tmp_path):
    with np.errstate(over="ignore", under="ignore"):
        arr = KERNEL_EDGES.astype(dtype)
    arr = np.concatenate([arr, -arr])
    arr = arr[np.isfinite(arr)]
    _check_float_text(arr)
    _check_dumps({"a": arr})
    _check_csv_column(arr, str(tmp_path))


def _check_csv_column(values, directory):
    """A float column through ``_lattice_csv`` against the oracle writer."""
    grid = GridSpec((0.0,), 0.5, (len(values),))
    columns = [np.ones(len(values), dtype=bool), values]
    io._lattice_csv(f"{directory}/a.csv", grid, ["mask", "v"], columns)
    _oracle_csv(f"{directory}/b.csv", grid, ["mask", "v"], columns)
    with open(f"{directory}/a.csv", "rb") as a, \
            open(f"{directory}/b.csv", "rb") as b:
        assert a.read() == b.read()


def _is_tie(x):
    """The exact value lies halfway between two 17-digit decimals."""
    digits = Decimal(float(x)).normalize().as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


def test_kernel_defers_only_ties_next_to_ten_powers(monkeypatch):
    # log10 misses k by one here; the kernel corrects k instead of deferring
    tens = _ten_powers()
    tens = tens[(tens >= 1e-290) & (tens < 1e290)]
    deferred = []
    monkeypatch.setattr(io, "format_float",
                        lambda x: deferred.append(x) or _oracle_float(x))
    _check_float_text(tens)
    assert deferred == [x for x in tens.tolist() if _is_tie(x)]


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 40), elements=finite_floats))
def test_float_arrays_match_oracle(arr):
    _check_float_text(arr)
    _check_dumps({"a": arr})
    with tempfile.TemporaryDirectory() as directory:
        _check_csv_column(arr, directory)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_bit_patterns_match_oracle(bits):
    arr = np.array(bits, dtype=np.uint64).view(np.float64)
    arr = arr[np.isfinite(arr)]
    _check_float_text(arr)
    _check_dumps({"a": arr})
    if arr.size:
        with tempfile.TemporaryDirectory() as directory:
            _check_csv_column(arr, directory)


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float32, st.integers(1, 40),
                  elements=st.floats(allow_nan=False, allow_infinity=False,
                                     width=32)))
def test_float32_arrays_match_oracle(arr):
    _check_float_text(arr)
    _check_dumps({"a": arr})


def test_cli_import_leaves_the_power_table_unbuilt():
    src = os.path.dirname(os.path.dirname(jetlab.__file__))
    code = ("import jetlab.cli, jetlab.io as io; "
            "assert io._pow10.cache_info().currsize == 0")
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# --- version 2 arrays: streamed writes, bit-exact reads, version 1 still read

def test_write_and_read_stay_within_their_memory_bounds(tmp_path):
    grid = GridSpec((0.0, 0.0), 2.0**-9, (512, 512))
    rng = np.random.default_rng(11)
    member = rng.random(grid.extents) < 0.9
    jet = SampledJet(1, GridMask(grid, member), {
        alpha: np.where(member, rng.standard_normal(grid.extents), 0.0)
        for alpha in ((0, 0), (0, 1), (1, 0))
    })
    payload = io.jet_to_payload(jet)  # 2^20 values with the mask
    path = str(tmp_path / "jet.json")
    tracemalloc.start()
    try:
        io.write_artifact(path, payload, {})
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        back = io.read_jet(path)
        read_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    text = os.path.getsize(path)
    arrays = [back.mask.member, *back.components.values()]
    assert write_peak < text / 4
    assert read_peak < text + 2 * sum(a.nbytes for a in arrays)
    assert np.array_equal(back.mask.member, member)
    for alpha, values in jet.components.items():
        assert np.array_equal(back.components[alpha].view(np.uint64),
                              values.view(np.uint64))


def test_reader_reads_deep_nesting_as_json(tmp_path):
    text = '{"a":' + "[" * 400 + "]" * 400 + "}"
    path = tmp_path / "a.json"
    path.write_text(text)
    assert io.read_artifact(str(path)) == json.loads(text)


def _read_back(values, directory) -> np.ndarray:
    """``values`` as an order-0 jet on a full 1-D mask, written and read."""
    grid = GridSpec((0.0,), 1.0, (len(values),))
    mask = GridMask(grid, np.ones(grid.extents, dtype=bool))
    jet = SampledJet(0, mask, {(0,): values})
    path = os.path.join(directory, "jet.json")
    io.write_artifact(path, {"jet": io.jet_to_payload(jet)}, {})
    return io.read_jet(path).components[(0,)]


def test_kernel_edges_read_back_bit_exact(tmp_path):
    arr = np.concatenate([KERNEL_EDGES, -KERNEL_EDGES])
    back = _read_back(arr, str(tmp_path))
    assert np.array_equal(back.view(np.uint64), arr.view(np.uint64))


_EDGE_BITS = np.concatenate([
    KERNEL_EDGES, -KERNEL_EDGES, [-np.finfo(np.float64).max],
]).view(np.uint64).tolist()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1) | st.sampled_from(_EDGE_BITS),
                min_size=1, max_size=40),
       st.integers(0, io._BLOCK + 5))
def test_written_floats_read_back_bit_exact(bits, at):
    # inserted anywhere in a run of more than one block, seams included
    arr = np.array(bits, dtype=np.uint64).view(np.float64)
    arr = np.insert(np.full(io._BLOCK + 5, 0.5), at, arr[np.isfinite(arr)])
    with tempfile.TemporaryDirectory() as directory:
        back = _read_back(arr, directory)
    assert np.array_equal(back.view(np.uint64), arr.view(np.uint64))


def _grids_of(n: int):
    """A 1-D and a 2-D lattice of n points."""
    rows = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
    return [GridSpec((0.0,), 2.0**-6, (n,)),
            GridSpec((0.0, 0.0), 2.0**-6, (rows, n // rows))]


@pytest.mark.parametrize("n", range(50))
def test_masks_of_every_length_round_trip(n, tmp_path):
    # every residue of 8 (the bits of a byte) and of 24 (a base64 quantum)
    gap1d, _ = domains.build_domain(domains.GapIntervals(4), h=2.0**-6)
    patterns = [gap1d.member[:n], np.ones(n, dtype=bool),
                np.random.default_rng(n).random(n) < 0.5]
    path = str(tmp_path / "mask.json")
    for member in patterns:
        _check_dumps({"a": member})
        doc = json.loads(io.dumps({"format_version": 2, "a": member}))
        back = io._read_array(doc, doc["a"], "bool", n)
        assert np.array_equal(back, member)
        for grid in _grids_of(n) if n else []:
            mask = GridMask(grid, member.reshape(grid.extents))
            io.write_artifact(path, io.mask_to_payload(mask), {})
            back = io.mask_from_payload(io.read_artifact(path))
            assert back.grid == grid
            assert np.array_equal(back.member, mask.member)


def test_version_1_artifact_reads_as_its_version_2_rewrite(tmp_path):
    q, _ = domains.build_domain(domains.Comb(2), h=2.0**-6)
    jet = get_function("sin_cos", depth=4).sample(q, order=2)
    v2 = io.jet_to_payload(jet)
    # version 1: no format_version, the mask as 0/1 digits, floats as text
    v1 = {key: value for key, value in v2.items() if key != "format_version"}
    v1["mask"] = v1["mask"].astype(np.int8)
    (tmp_path / "v1.json").write_text(_oracle_dumps({"jet": v1}) + "\n")
    io.write_artifact(str(tmp_path / "v2.json"), {"jet": v2}, {})
    old = io.read_jet(str(tmp_path / "v1.json"))
    new = io.read_jet(str(tmp_path / "v2.json"))
    assert (old.order, old.grid) == (new.order, new.grid) == (2, jet.grid)
    assert np.array_equal(old.mask.member, new.mask.member)
    assert np.array_equal(new.mask.member, jet.mask.member)
    for alpha in jet.alphas():
        assert np.array_equal(old.components[alpha].view(np.uint64),
                              new.components[alpha].view(np.uint64))
        assert np.array_equal(new.components[alpha].view(np.uint64),
                              jet.components[alpha].view(np.uint64))
    mask_v1 = json.loads(_oracle_dumps(
        {"grid": v1["grid"], "mask": v1["mask"]}))
    assert np.array_equal(io.mask_from_payload(mask_v1).member, q.member)
