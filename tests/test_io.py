"""Serialization: byte determinism, round-trips, CSV shape."""

import csv
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from jetlab import domains, io
from jetlab.functions import get_function
from jetlab.grid import GridMask, GridSpec, alpha_key


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
    assert io.pair_fraction(io.fraction_pair(q)) == q


def test_grid_round_trip():
    g = GridSpec((-0.5, 0.25), 2.0**-6, (33, 17))
    assert io.grid_from_payload(io.grid_to_payload(g)) == g


def test_mask_round_trip():
    q, _ = domains.build_domain(domains.comb(2), h=2.0**-6)
    back = io.mask_from_payload(io.mask_to_payload(q))
    assert back.grid == q.grid
    assert np.array_equal(back.member, q.member)


def test_jet_round_trip_through_files(tmp_path):
    q, _ = domains.build_domain(domains.rectangle(), h=2.0**-4)
    jet = get_function("sin_cos", order=2).sample(q, order=2)
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
    q, _ = domains.build_domain(domains.rectangle(), h=2.0**-3)
    jet = get_function("sum_st", order=1).sample(q, order=1)
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
    q, _ = domains.build_domain(domains.gap_intervals(3), h=2.0**-5)
    path = tmp_path / "m.csv"
    io.mask_to_csv(q, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + q.grid.point_count
    ones = sum(1 for ln in lines[1:] if ln.rsplit(",", 1)[1] == "1")
    assert ones == q.count


# --- reference oracle: the element-by-element encoders the fast paths replace

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
    assert io.dumps({"a": arr}) == _oracle_dumps({"a": arr})


@pytest.mark.parametrize("x", _EDGE_FLOATS + [np.float32(0.1), 2.0**-1074])
def test_format_float_matches_oracle(x):
    assert io.format_float(x) == _oracle_float(x)


def test_payloads_match_oracle():
    q, _ = domains.build_domain(domains.comb(2), h=2.0**-6)
    jet = get_function("sin_cos", order=2).sample(q, order=2)
    for payload in (io.mask_to_payload(q), io.jet_to_payload(jet)):
        assert io.dumps(payload) == _oracle_dumps(payload)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_array_encoder_rejects_non_finite(bad):
    arr = np.array([0.0, 1.0, bad])
    with pytest.raises(ValueError, match="non-finite"):
        io.dumps({"a": arr})
    with pytest.raises(ValueError, match="non-finite"):
        io.dumps({"a": arr.astype(np.float32)})


def _lattice_jets():
    q1, _ = domains.build_domain(domains.gap_intervals(3), h=2.0**-5)
    q2, _ = domains.build_domain(domains.disk(), h=2.0**-4)
    return [get_function("sin_cos", order=1).sample(q2, order=1),
            get_function("gap1d", order=1).sample(q1, order=1)]


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
    io.write_artifact(str(path), {"x": 1.5})
    before = path.read_bytes()
    with pytest.raises(ValueError):
        io.write_artifact(str(path), {"x": np.array([1.0, float("nan")])})
    assert path.read_bytes() == before
