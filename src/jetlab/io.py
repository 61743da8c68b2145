"""Deterministic JSON and CSV emission for lattices, jets, and certificates.

The JSON writer is hand-rolled because payload bytes must be reproducible:
floats are rendered with 17 significant digits (enough to round-trip binary64
exactly) and keys keep insertion order.  Parsing uses the stdlib.

Arrays take a fast path: a numpy array is encoded in bulk (0/1 masks as one
byte buffer, floats with one finiteness check and one formatting pass) and the
CSV writers build their rows a block at a time.  The bytes are those of the
element-by-element encoding; ``tests/test_io.py`` checks them against that
encoding kept as an oracle, and ``perfbench/seed_digests.json`` pins the
payload digests of the CLI artifacts.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from itertools import repeat

import numpy as np

from .grid import GridMask, GridSpec, SampledJet, alpha_key, parse_alpha_key

# Rows (or array elements) encoded per block; bounds the transient strings.
_BLOCK = 1 << 16


def _mark_float(text: str) -> str:
    """A ``.17g`` text that reads as an integer gets ``.0``: it stays a float."""
    return text if "." in text or "e" in text else text + ".0"


def format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite float in payload")
    return _mark_float(format(float(x), ".17g"))


def _float_tokens(values) -> list[str]:
    """``format_float`` of each value in C order, one finiteness check."""
    vals = np.asarray(values, dtype=np.float64).ravel()
    if not np.isfinite(vals).all():
        raise ValueError("non-finite float in payload")
    return list(map(_mark_float, map(format, vals.tolist(), repeat(".17g"))))


def dumps(obj) -> str:
    """Serialize a payload deterministically (insertion-ordered keys)."""
    parts: list[str] = []
    _write(obj, parts)
    return "".join(parts)


def _write(obj, parts: list[str]) -> None:
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
        parts.append(format_float(float(obj)))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r}")
            if i:
                parts.append(",")
            parts.append(json.dumps(key, ensure_ascii=True))
            parts.append(":")
            _write(value, parts)
        parts.append("}")
    elif isinstance(obj, np.ndarray):
        _write_array(obj, parts)
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, value in enumerate(obj):
            if i:
                parts.append(",")
            _write(value, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_array(arr: np.ndarray, parts: list[str]) -> None:
    """Same text as ``_write(arr.tolist())``: nested lists in C order."""
    if arr.ndim == 0:
        raise TypeError("cannot serialize a 0-d array")
    kind = arr.dtype.kind
    if kind not in "biuf":
        _write(arr.tolist(), parts)
        return
    if arr.ndim > 1:
        _write(list(arr), parts)  # one row at a time
        return
    parts.append("[")
    if kind == "b":
        parts.append(",".join(map(("false", "true").__getitem__, arr.tolist())))
    elif kind == "f":
        parts.append(",".join(
            ",".join(_float_tokens(arr[i:i + _BLOCK]))
            for i in range(0, arr.size, _BLOCK)
        ))
    elif arr.size and arr.min() >= 0 and arr.max() <= 1:
        # 0/1 mask: digits interleaved with commas in one byte buffer
        buf = np.full(2 * arr.size - 1, ord(","), dtype=np.uint8)
        buf[::2] = arr.astype(np.uint8) + ord("0")
        parts.append(buf.tobytes().decode("ascii"))
    else:
        parts.append(",".join(map(str, arr.tolist())))
    parts.append("]")


def loads(text: str) -> dict:
    return json.loads(text)


def fraction_pair(q: Fraction) -> list[int]:
    q = Fraction(q)
    return [q.numerator, q.denominator]


def pair_fraction(pair) -> Fraction:
    return Fraction(int(pair[0]), int(pair[1]))


def grid_to_payload(grid: GridSpec) -> dict:
    return {
        "origin": [float(v) for v in grid.origin],
        "h": grid.h,
        "extents": list(grid.extents),
        "dim": grid.dim,
    }


def grid_from_payload(payload: dict) -> GridSpec:
    return GridSpec(
        tuple(payload["origin"]), float(payload["h"]), tuple(payload["extents"])
    )


def mask_to_payload(mask: GridMask) -> dict:
    return {
        "grid": grid_to_payload(mask.grid),
        "mask": mask.member.astype(np.int8).ravel(order="C"),
    }


def mask_from_payload(payload: dict) -> GridMask:
    grid = grid_from_payload(payload["grid"])
    member = np.asarray(payload["mask"], dtype=bool).reshape(grid.extents, order="C")
    return GridMask(grid, member)


def jet_to_payload(jet: SampledJet) -> dict:
    return {
        "grid": grid_to_payload(jet.grid),
        "order": jet.order,
        "mask": jet.mask.member.astype(np.int8).ravel(order="C"),
        "components": {
            alpha_key(alpha): jet.components[alpha].ravel(order="C")
            for alpha in jet.alphas()
        },
    }


def jet_from_payload(payload: dict) -> SampledJet:
    grid = grid_from_payload(payload["grid"])
    mask = GridMask(
        grid, np.asarray(payload["mask"], dtype=bool).reshape(grid.extents, order="C")
    )
    components = {
        parse_alpha_key(key): np.asarray(vals, dtype=np.float64).reshape(
            grid.extents, order="C"
        )
        for key, vals in payload["components"].items()
    }
    return SampledJet(int(payload["order"]), grid, mask, components)


def write_artifact(path: str, payload: dict, provenance: dict | None = None) -> None:
    """Write payload JSON; provenance rides along under its own key."""
    doc = dict(payload)
    if provenance is not None:
        doc["provenance"] = provenance
    text = dumps(doc)  # before opening: a failed encode leaves the file as it was
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
        fh.write("\n")


def read_artifact(path: str) -> dict:
    """Load an artifact, dropping the provenance key."""
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    doc.pop("provenance", None)
    return doc


def strip_provenance(text: str) -> str:
    """Canonical payload bytes of an artifact: parse, drop provenance, re-dump."""
    doc = json.loads(text)
    doc.pop("provenance", None)
    return dumps(doc)


def jet_to_csv(jet: SampledJet, path: str) -> None:
    """One row per lattice point: index, coordinates, mask bit, components."""
    alphas = jet.alphas()
    _lattice_csv(
        path, jet.grid, ["mask"] + [alpha_key(a) for a in alphas],
        [jet.mask.member] + [jet.components[a] for a in alphas],
    )


def mask_to_csv(mask: GridMask, path: str) -> None:
    _lattice_csv(path, mask.grid, ["mask"], [mask.member])


def _lattice_csv(path: str, grid: GridSpec, names: list[str],
                 columns: list[np.ndarray]) -> None:
    """Rows in C order: index, coordinates, then the value of each column.

    Bool columns are written as 0/1 and float columns like ``format_float``.
    Coordinates are ``origin + k*h`` (``GridSpec.axis_coords``), so they match
    ``GridSpec.coord`` bit for bit.  Rows end in ``\\r\\n`` as with
    ``csv.writer``; only the header needs its quoting.
    """
    index_text = [np.array([str(k) for k in range(n)], dtype=object)
                  for n in grid.extents]
    coord_text = [np.array(_float_tokens(grid.axis_coords(a)), dtype=object)
                  for a in range(grid.dim)]
    flat = [np.ravel(col, order="C") for col in columns]
    with open(path, "w", newline="", encoding="ascii") as fh:
        header = [f"i{a}" for a in range(grid.dim)]
        header += [f"x{a}" for a in range(grid.dim)]
        csv.writer(fh).writerow(header + names)
        for start in range(0, grid.point_count, _BLOCK):
            stop = min(start + _BLOCK, grid.point_count)
            index = np.unravel_index(np.arange(start, stop), grid.extents)
            cells = [text[k].tolist() for text, k in zip(index_text, index)]
            cells += [text[k].tolist() for text, k in zip(coord_text, index)]
            for col in flat:
                block = col[start:stop]
                if block.dtype.kind == "f":
                    cells.append(_float_tokens(block))
                else:
                    cells.append(list(map(str, block.astype(np.int64).tolist())))
            fh.write("\r\n".join(map(",".join, zip(*cells))))
            fh.write("\r\n")
