"""Deterministic JSON and CSV emission for lattices, jets, and certificates.

The JSON writer is hand-rolled because payload bytes must be reproducible:
floats are rendered with 17 significant digits (enough to round-trip binary64
exactly) and keys keep insertion order.  It hands each piece of text to a
``write`` callable as it is encoded: ``dumps`` collects the pieces, and
``write_artifact`` writes them to a temporary file beside the target and
renames it onto the target when complete.  numpy and ``jetlab.grid`` are
imported by the functions that encode or decode arrays or write CSV, so a
payload without arrays is written and read without them.

Arrays are binary.  Mask and jet payloads carry ``"format_version": 2``
first, and an ndarray is written as ``{"dtype", "shape", "data"}`` with
``data`` in base64: a float array as ``"<f8"``, its little-endian float64
bytes, a bool array as ``"bool"``, its bits packed least significant first
with zero pad bits.  The writer encodes ``_BLOCK`` values at a time, a
multiple of 24, so each block's bytes are a multiple of 3 and the block texts
join into one base64 string.  A ``Spool`` holds float64 values in an
anonymous temporary file instead of memory, as the bytes of a ``"<f8"``
array; the writer reads it ``_BLOCK`` values at a time and writes it as it
writes an ndarray.  ``read_artifact`` is ``json.load``;
``mask_from_payload`` and ``jet_from_payload`` decode the arrays and refuse
any text but strict base64, a length other than the grid's, non-zero pad
bits, a foreign dtype and a ``format_version`` other than 2.  A payload
without the key is version 1, whose arrays are JSON lists; it still reads.

CSV is the readable output.  Its floats go through ``_float_cells``, a numpy
kernel that writes each value's ``format_float`` text as a fixed-width row of
bytes, NUL-padded anywhere in the row: the 17 digits come from a double-double
product with an exact table of 10^p (Dekker, Numer. Math. 18 (1971) 224-242),
and a value the product cannot decide (within 1e-9 of a rounding half,
subnormal, or outside [1e-290, 1e290)) is formatted by ``format_float``
itself.  Rows are those cells side by side with their separators, NULs
dropped, built and written in blocks of ``_BLOCK`` rows.  The bytes are those
of ``csv.writer`` over ``format_float``; ``tests/test_io.py`` checks them
against that encoding kept as an oracle, and ``tests/test_digests.py`` pins
payload and CSV digests of the CLI.
"""

from __future__ import annotations

import binascii
import csv
import json
import os
import sys
from fractions import Fraction
from functools import cache

from .errors import JetlabError

# Values (or CSV rows) encoded per block; bounds the cell matrices.  A
# multiple of 24: a block of floats or of packed bits is whole base64 quanta.
_BLOCK = 3 << 13
# The format of mask and jet payloads; a payload without it is version 1.
_VERSION = 2


def format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite float in payload")
    text = format(float(x), ".17g")
    # a text that reads as an integer gets ``.0``: it stays a float
    return text if "." in text or "e" in text else text + ".0"


# --- the .17g kernel ---------------------------------------------------------
#
# For |x| in [1e-290, 1e290) with k = floor(log10|x|), the 17 digits are
# N = round(|x| * 10^(16-k)) in [10^16, 10^17).  The product is taken as a
# double-double, exact to ~1e-14 at that size, so N is decided unless the
# fraction sits within _TIE of one half; the table of 10^p is built from
# exact fractions on first use.  The text layout is that of ".17g": fixed
# notation for -4 <= k < 17, otherwise d.ddde+XX, trailing zeros stripped,
# then the ``.0`` mark.

_POW_MIN, _POW_MAX = -280, 308  # p = 16 - k over the kernel's range of k
_TIE = 1e-9
# Cell columns: sign, "0.000" lead for -4 <= k < 0, 17 digits each followed
# by a slot for the point, the mark's "0" after 17 integer digits, and
# "e+XXX".
_WIDTH = 46
_POINT_COLS = slice(7, 41, 2)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = hi + lo with hi and lo of 26 significant bits each (a >= 0)."""
    import numpy as np
    bits = (a.view(np.uint64) + np.uint64(1 << 26)) & np.uint64(2**64 - 2**27)
    hi = bits.view(np.float64)
    return hi, a - hi


@cache
def _pow10() -> np.ndarray:
    """Rows hi, the two halves of hi, and lo: 10^p = hi + lo, p ascending."""
    import numpy as np
    hi, lo = [], []
    for p in range(_POW_MIN, _POW_MAX + 1):
        exact = Fraction(10) ** p
        hi.append(float(exact))
        lo.append(float(exact - Fraction(hi[-1])))
    hi = np.array(hi)
    table = np.stack([hi, *_split(hi), np.array(lo)])
    table.flags.writeable = False
    return table


def _scaled(ax: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(ax * 10^(16-k)) as int64, and the fraction it drops."""
    import numpy as np
    hi, hi1, hi2, lo = _pow10()[:, 16 - _POW_MIN - k]
    a1, a2 = _split(ax)
    p = ax * hi
    err = ((a1 * hi1 - p) + a1 * hi2 + a2 * hi1) + a2 * hi2 + ax * lo
    whole = np.floor(p)
    rest = (p - whole) + err
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _float_cells(values) -> np.ndarray:
    """``format_float`` of each value in C order, as (n, width) uint8 rows.

    A row holds the text's bytes in order with NULs between and after them;
    dropping the NULs gives the text.  One finiteness check for all values.
    """
    import numpy as np
    x = np.asarray(values, dtype=np.float64).ravel()
    if not np.isfinite(x).all():
        raise ValueError("non-finite float in payload")
    n = x.size
    ax = np.abs(x)
    zero = ax == 0.0
    defer = ~zero & ((ax < 1e-290) | (ax >= 1e290))
    ax = np.where(zero | defer, 1.0, ax)
    k = np.floor(np.log10(ax)).astype(np.int64)
    N, frac = _scaled(ax, k)
    # log10 can miss k by one next to a power of ten
    for step, wrong in ((-1, N < 10**16), (1, N >= 10**17)):
        fix = np.flatnonzero(wrong)
        if fix.size:
            k[fix] += step
            N[fix], frac[fix] = _scaled(ax[fix], k[fix])
    defer |= np.abs(frac - 0.5) < _TIE
    N += frac > 0.5
    defer |= (N < 10**16) | (N > 10**17)
    carry = N == 10**17
    N[carry] = 10**16
    k += carry
    N[zero] = 0
    k[zero] = 0
    k = k.astype(np.int16)

    cells = np.zeros((_WIDTH, n), dtype=np.uint8)  # transposed while built
    fixed = (k >= -4) & (k < 17)
    sci = ~fixed
    whole = fixed & (k >= 0)
    keep = np.where(whole, k + 2, 1)  # digits shown even when zero
    seen = np.zeros(n, dtype=bool)  # a nonzero digit at or right of this one
    top = N // 10**8
    low = N - top * 10**8
    ten = np.uint32(10)
    for v, cols in ((low.astype(np.uint32), range(16, 8, -1)),
                    (top.astype(np.uint32), range(8, -1, -1))):
        for c in cols:
            q = v // ten
            digit = v - q * ten
            seen |= digit != 0
            cells[6 + 2 * c] = (digit + ord("0")) * (seen | (keep > c))
            v = q
    point = np.where(whole, k, np.where(sci & (cells[8] != 0), 0, -1))
    digit_index = np.arange(17, dtype=np.int16)[:, None]
    cells[_POINT_COLS] = (digit_index == point) * np.uint8(ord("."))
    cells[0] = np.signbit(x) * np.uint8(ord("-"))
    lead = fixed & (k < 0)
    if lead.any():
        cells[1] = lead * np.uint8(ord("0"))
        cells[2] = lead * np.uint8(ord("."))
        for j in range(3):
            cells[3 + j] = (lead & (k <= -2 - j)) * np.uint8(ord("0"))
    cells[40] = (k == 16) * np.uint8(ord("0"))
    if sci.any():
        e = np.abs(k).astype(np.uint16)
        cells[41] = sci * np.uint8(ord("e"))
        cells[42] = sci * np.where(k < 0, ord("-"), ord("+")).astype(np.uint8)
        cells[43] = (e >= 100) * (e // 100 + ord("0"))
        cells[44] = sci * (e // 10 % 10 + ord("0"))
        cells[45] = sci * (e % 10 + ord("0"))
    for i in np.flatnonzero(defer):
        text = format_float(x[i]).encode("ascii")
        cells[:, i] = 0
        cells[:len(text), i] = np.frombuffer(text, dtype=np.uint8)
    return cells[cells.any(axis=1)].T  # columns NUL in every row dropped


def _text_cells(texts: list[str]) -> np.ndarray:
    """The given texts as NUL-padded uint8 rows."""
    import numpy as np
    arr = np.array(texts, dtype="S")
    return arr.view(np.uint8).reshape(arr.size, arr.itemsize)


def _rows_text(cells: list[np.ndarray], end: bytes) -> str:
    """Each row's cells joined by commas and ended by ``end``, NULs dropped."""
    import numpy as np
    n = len(cells[0])
    comma = np.broadcast_to(np.uint8(ord(",")), (n, 1))
    tail = np.broadcast_to(np.frombuffer(end, dtype=np.uint8), (n, len(end)))
    columns = [c for cell in cells for c in (cell, comma)]
    columns[-1] = tail
    return np.concatenate(columns, axis=1).tobytes().translate(
        None, b"\0").decode("ascii")


def dumps(obj) -> str:
    """Serialize a payload deterministically (insertion-ordered keys)."""
    parts: list[str] = []
    _write(obj, parts.append)
    return "".join(parts)


def _write(obj, write) -> None:
    """Hand the text of ``obj`` to ``write`` piece by piece.  The numpy
    types are looked for only once numpy is loaded: before that, no object
    can be one."""
    np = sys.modules.get("numpy")
    if obj is None:
        write("null")
    elif obj is True:
        write("true")
    elif obj is False:
        write("false")
    elif isinstance(obj, str):
        write(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, int) or np and isinstance(obj, np.integer):
        write(str(int(obj)))
    elif isinstance(obj, float) or np and isinstance(obj, np.floating):
        write(format_float(float(obj)))
    elif isinstance(obj, dict):
        write("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r}")
            if i:
                write(",")
            write(json.dumps(key, ensure_ascii=True))
            write(":")
            _write(value, write)
        write("}")
    elif isinstance(obj, Spool) or np and isinstance(obj, np.ndarray):
        _write_array(obj, write)
    elif isinstance(obj, (list, tuple)):
        write("[")
        for i, value in enumerate(obj):
            if i:
                write(",")
            _write(value, write)
        write("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_array(arr: np.ndarray | Spool, write) -> None:
    """``{"dtype", "shape", "data"}``: the base64 of the little-endian
    float64 bytes, or of the bits packed least significant first, one
    ``_BLOCK`` of values at a time: an ndarray's slices, or the values a
    Spool reads back."""
    import numpy as np
    if isinstance(arr, Spool):
        bits, shape, blocks = False, (arr.size,), arr.blocks()
    else:
        bits = arr.dtype.kind == "b"
        if not bits and arr.dtype.kind != "f":
            raise TypeError(f"cannot serialize a {arr.dtype} array")
        flat = arr.ravel()
        shape = arr.shape
        blocks = (flat[start:start + _BLOCK]
                  for start in range(0, flat.size, _BLOCK))
    write(f'{{"dtype":"{"bool" if bits else "<f8"}","shape":'
          f'[{",".join(map(str, shape))}],"data":"')
    for block in blocks:
        if bits:
            data = np.packbits(block, bitorder="little")
        else:
            data = np.ascontiguousarray(block, dtype="<f8")
            if not np.isfinite(data).all():
                raise ValueError("non-finite float in payload")
        write(binascii.b2a_base64(data, newline=False).decode("ascii"))
    write('"}')


class Spool:
    """float64 values kept in an anonymous temporary file, not in memory,
    as the little-endian bytes of a ``"<f8"`` array: ``append`` adds them
    in C order, and ``blocks`` and ``array`` read them back from the start.
    The file has no name, so it is gone once closed or once the process
    ends, however it ends."""

    def __init__(self):
        import tempfile  # only a command that spools pays for the import
        self.file = tempfile.TemporaryFile()
        self.size = 0

    def append(self, values: np.ndarray) -> None:
        import numpy as np
        data = np.ascontiguousarray(values, dtype="<f8")
        self.file.write(data)
        self.size += data.size

    def _read(self, count: int) -> np.ndarray:
        import numpy as np
        out = np.empty(count, dtype="<f8")
        if self.file.readinto(out) != out.nbytes:
            raise OSError("a spool file ended before its values")
        return out

    def blocks(self) -> Iterator[np.ndarray]:
        """The values, _BLOCK at a time (the last block the rest)."""
        self.file.seek(0)
        for start in range(0, self.size, _BLOCK):
            yield self._read(min(_BLOCK, self.size - start))

    def array(self) -> np.ndarray:
        """All the values in one array."""
        self.file.seek(0)
        return self._read(self.size)

    def close(self) -> None:
        self.file.close()


def fraction_pair(q: Fraction) -> list[int]:
    q = Fraction(q)
    return [q.numerator, q.denominator]


# The JSON types a writer writes, by the name a refusal gives them: an int is
# not a bool, and a number is finite, as format_float writes it.
_JSON_TYPES = {
    "an int": lambda v: type(v) is int,
    "a finite number": lambda v: type(v) in (int, float)
    and abs(v) <= sys.float_info.max,
    "a bool": lambda v: type(v) is bool,
    "a string": lambda v: type(v) is str,
    "a list": lambda v: type(v) is list,
    "an object": lambda v: type(v) is dict,
}


def json_value(value, kind: str, path: str):
    """value, once it has the JSON type kind (a key of _JSON_TYPES); any
    other value raises JetlabError naming its key path."""
    if not _JSON_TYPES[kind](value):
        text = json.dumps(value)
        text = text if len(text) <= 40 else text[:37] + "..."
        raise JetlabError(f"{path} must be {kind}, not {text}")
    return value


def pair_fraction(pair, path: str) -> Fraction:
    """The Fraction of a fraction_pair stored at key path path: two JSON
    ints, the second above 0."""
    if len(json_value(pair, "a list", path)) != 2:
        raise JetlabError(f"{path} must be a [numerator, denominator] pair")
    num, den = (json_value(v, "an int", f"{path}[{i}]")
                for i, v in enumerate(pair))
    if den <= 0:
        raise JetlabError(f"{path}[1] must be above 0, not {den}")
    return Fraction(num, den)


def grid_to_payload(grid: GridSpec) -> dict:
    return {
        "origin": [float(v) for v in grid.origin],
        "h": grid.h,
        "extents": list(grid.extents),
        "dim": grid.dim,
    }


def grid_from_payload(payload: dict) -> GridSpec:
    """The grid grid_to_payload wrote, each value read by json_value."""
    from .grid import GridSpec
    return GridSpec(
        tuple(json_value(v, "a finite number", f"grid.origin[{i}]")
              for i, v in enumerate(payload["origin"])),
        json_value(payload["h"], "a finite number", "grid.h"),
        tuple(json_value(n, "an int", f"grid.extents[{i}]")
              for i, n in enumerate(payload["extents"])),
    )


def mask_to_payload(mask: GridMask) -> dict:
    return {
        "format_version": _VERSION,
        "grid": grid_to_payload(mask.grid),
        "mask": mask.member.ravel(order="C"),
    }


def mask_from_payload(payload: dict) -> GridMask:
    from .grid import GridMask
    grid = grid_from_payload(payload["grid"])
    member = _read_array(payload, payload["mask"], "bool", grid.point_count)
    return GridMask(grid, member.reshape(grid.extents, order="C"))


def jet_to_payload(jet: SampledJet | SpooledJet) -> dict:
    """A jet payload; a SpooledJet's components are its Spools, which the
    writer reads in blocks."""
    from .grid import alpha_key
    arrays = jet.components
    return {
        "format_version": _VERSION,
        "grid": grid_to_payload(jet.grid),
        "order": jet.order,
        "mask": jet.mask.member.ravel(order="C"),
        "components": {
            alpha_key(alpha): arrays[alpha] if isinstance(arrays[alpha], Spool)
            else arrays[alpha].ravel(order="C") for alpha in jet.alphas()
        },
    }


def jet_from_payload(payload: dict) -> SampledJet:
    """The jet of a jet payload; a component key other than the alpha_key
    of a partial of its order is refused before any array is decoded."""
    from .grid import SampledJet, alpha_key
    try:
        mask = mask_from_payload(payload)
        grid = mask.grid
        order = json_value(payload["order"], "an int", "order")
        if order < 0:
            raise JetlabError(f"order must be 0 or more, not {order}")
        nodes, alphas = payload["components"].items(), []
        for key, _ in nodes:
            # read off the key, not looked up among the order's partials,
            # whose count SampledJet checks before it lists them
            alpha = tuple(int(p) for p in key.split(",") if p.isdecimal())
            if (len(alpha) != grid.dim or sum(alpha) > order
                    or alpha_key(alpha) != key):
                raise JetlabError(f"components.{key} names no partial of an "
                                  f"order-{order} jet in {grid.dim}-D")
            alphas.append(alpha)
        components = {
            alpha: _read_array(
                payload, node, "<f8", grid.point_count,
            ).reshape(grid.extents, order="C")
            for alpha, (_, node) in zip(alphas, nodes)
        }
    except KeyError as err:
        raise JetlabError(f"jet artifact lacks the key {err}") from None
    except (JetlabError, TypeError, ValueError, AttributeError,
            OverflowError) as err:
        raise JetlabError(f"jet artifact is malformed: {err}") from None
    return SampledJet(order, mask, components)


def _read_array(payload: dict, node, dtype: str, count: int) -> np.ndarray:
    """One of ``payload``'s arrays of ``count`` values, ``"<f8"`` or
    ``"bool"``: a ``_write_array`` object, or a list at version 1."""
    import numpy as np
    if "format_version" not in payload:
        return np.asarray(node, dtype=np.float64 if dtype == "<f8" else bool)
    if json_value(payload["format_version"], "an int",
                  "format_version") != _VERSION:
        raise ValueError(f"format_version {payload['format_version']!r} "
                         f"is not {_VERSION}")
    if node["dtype"] != dtype:
        raise ValueError(f"array dtype {node['dtype']!r} is not {dtype!r}")
    if node["shape"] != [count]:
        raise ValueError(f"array shape {node['shape']!r} is not [{count}]")
    data = binascii.a2b_base64(node["data"], strict_mode=True)
    size = 8 * count if dtype == "<f8" else -(-count // 8)
    if len(data) != size:
        raise ValueError(f"array data holds {len(data)} bytes, not {size}")
    if dtype == "<f8":
        return np.frombuffer(data, dtype="<f8")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8),
                         bitorder="little")
    if bits[count:].any():
        raise ValueError("array pad bits are not zero")
    return bits[:count].view(bool)


def read_jet(path: str) -> SampledJet:
    """The jet of a jet artifact: its ``jet`` key, or the whole payload."""
    payload = read_artifact(path)
    return jet_from_payload(payload.get("jet", payload))


def write_artifact(path: str, payload: dict, provenance: dict) -> None:
    """Write payload JSON; provenance rides along under its own key.

    Each piece goes to a sibling temporary file as it is encoded, and the
    finished file is renamed onto ``path`` (onto its target, if a symlink):
    a failed or interrupted encode leaves the file at ``path`` as it was.
    A pipe or device at ``path`` cannot be renamed onto and takes the text
    as it comes.  An array is encoded one ``_BLOCK`` at a time, an ndarray
    sliced and a ``Spool`` read from its file, so a spooled jet is written
    without being held.
    """
    doc = {**payload, "provenance": provenance}
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(path, "w", encoding="ascii") as fh:
            _write(doc, fh.write)
            fh.write("\n")
        return
    head, name = os.path.split(target)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "x", encoding="ascii")
    except OSError as err:  # name the file the caller asked for
        raise OSError(err.errno, err.strerror, path) from None
    try:
        with fh:
            _write(doc, fh.write)
            fh.write("\n")
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def read_artifact(path: str) -> dict:
    """Load an artifact, dropping the provenance key."""
    with open(path, encoding="ascii") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise JetlabError(f"{path} holds no artifact: its JSON is not an object")
    doc.pop("provenance", None)
    return doc


def strip_provenance(text: str) -> str:
    """Canonical payload bytes of an artifact: parse, drop provenance, re-dump."""
    doc = json.loads(text)
    doc.pop("provenance", None)
    return dumps(doc)


def jet_to_csv(jet: SampledJet, path: str) -> None:
    """One row per lattice point: index, coordinates, mask bit, components."""
    from .grid import alpha_key
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
    import numpy as np
    index_cells = [_text_cells([str(k) for k in range(n)])
                   for n in grid.extents]
    coord_cells = [_text_cells([format_float(c) for c in grid.axis_coords(a)])
                   for a in range(grid.dim)]
    flat = [np.ravel(col, order="C") for col in columns]
    with open(path, "w", newline="", encoding="ascii") as fh:
        header = [f"i{a}" for a in range(grid.dim)]
        header += [f"x{a}" for a in range(grid.dim)]
        csv.writer(fh).writerow(header + names)
        for start in range(0, grid.point_count, _BLOCK):
            stop = min(start + _BLOCK, grid.point_count)
            index = np.unravel_index(np.arange(start, stop), grid.extents)
            cells = [text[k] for text, k in zip(index_cells, index)]
            cells += [text[k] for text, k in zip(coord_cells, index)]
            for col in flat:
                block = col[start:stop]
                if block.dtype.kind == "f":
                    cells.append(_float_cells(block))
                else:
                    cells.append((block.astype(np.uint8) + ord("0"))[:, None])
            fh.write(_rows_text(cells, b"\r\n"))
