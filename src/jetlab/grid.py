"""Uniform lattices, boolean masks, multi-indices, sampled jets, and the one
walk that samples an evaluator on a mask.

The walk and the readers beside it (spaces.reduce_blocks, the region check
of functions.AnalyticJet) read a mask only by row blocks, through RowMask:
a held GridMask hands them slices of its member array, and a
domains.DomainMask rasterizes each block as it is read, so a scan of a
domain holds no array the size of its lattice.  spool walks a whole
lattice and appends each block's components to files (jetlab.io's Spool),
so the SpooledJet it returns holds none of them in memory.

Every lattice is an axis-aligned uniform grid with one spacing h shared by all
axes.  Coordinates are always produced as origin + k*h with a single multiply,
never by accumulation, so dyadic origins and spacings stay exact in binary
floating point.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Protocol

import numpy as np

from .errors import MaskMismatchError

# A jet at a point set: every partial with |alpha| <= order, one array each.
# A leaf may leave out a partial that is identically zero on its field's
# region at that order; which ones it leaves out depends on the order alone,
# never on the points.  walk passes the partials a leaf returned, and every
# reader that needs the whole jet (sample, AnalyticJet.jet_many) fills the
# rest with zeros.
Jet = dict[tuple[int, ...], np.ndarray]
# The one evaluator protocol: (points of shape (..., dim), order) -> Jet.
# A partial is any array that broadcasts to the points' shape (...,), so a
# leaf that reads coordinate_lines computes each factor once per line.
# What a leaf returns it hands over: walk zeroes a partial off the mask in
# place when nothing else references it.  An array a leaf keeps past its
# call is shared read-only, as exp1d's value is, and is copied instead.
JetEvaluator = Callable[[np.ndarray, int], Jet]

# The highest jet order jetlab takes, the reflection's included.
MAX_ORDER = 12

# Bulk passes over a lattice take it in blocks of about this many points,
# which bounds their temporaries.
CHUNK_POINTS = 2**16


def row_blocks(shape: tuple[int, ...]) -> Iterator[slice]:
    """Consecutive blocks of whole axis-0 rows, about CHUNK_POINTS each."""
    step = max(1, CHUNK_POINTS // max(1, math.prod(shape[1:])))
    for r0 in range(0, shape[0], step):
        yield slice(r0, min(r0 + step, shape[0]))


def multi_indices(order: int, dim: int) -> list[tuple[int, ...]]:
    """All multi-indices with |alpha| <= order, graded then lexicographic."""
    if not 0 <= order <= MAX_ORDER or dim < 1:
        raise ValueError(f"order must lie in [0, {MAX_ORDER}] and dim be "
                         f">= 1, got order {order} in {dim}-D")
    cube = itertools.product(range(order + 1), repeat=dim)
    return sorted((a for a in cube if sum(a) <= order),
                  key=lambda a: (sum(a), a))


def alpha_key(alpha: tuple[int, ...]) -> str:
    """Serialization key for a multi-index, e.g. (1, 0) -> "1,0"."""
    return ",".join(str(a) for a in alpha)


@dataclass(frozen=True)
class GridSpec:
    """Uniform lattice: point k has coordinate origin[a] + k[a]*h on axis a."""

    origin: tuple[float, ...]
    h: float
    extents: tuple[int, ...]

    def __post_init__(self):
        if not (self.h > 0):
            raise ValueError("h must be positive")
        if len(self.origin) != len(self.extents):
            raise ValueError("origin and extents must agree in length")
        if len(self.extents) not in (1, 2):
            raise ValueError("only 1-D and 2-D lattices are supported")
        if any(n < 1 for n in self.extents):
            raise ValueError("extents must be positive")
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        object.__setattr__(self, "extents", tuple(int(n) for n in self.extents))
        object.__setattr__(self, "h", float(self.h))

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def point_count(self) -> int:
        n = 1
        for e in self.extents:
            n *= e
        return n

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + np.arange(self.extents[axis]) * self.h

    def coord(self, index: tuple[int, ...]) -> tuple[float, ...]:
        return tuple(self.origin[a] + index[a] * self.h for a in range(self.dim))

    def points(self, index: tuple[np.ndarray, ...]) -> np.ndarray:
        """Coordinates of the points index (one array per axis), (n, dim),
        read off the lattice axes: origin + k*h with axis_coords' bits."""
        out = np.empty((len(index[0]), self.dim))
        for a in range(self.dim):
            out[:, a] = self.axis_coords(a)[index[a]]
        return out

    def row_points(self, rows: slice) -> np.ndarray:
        """The lattice points of a run of whole rows as one (rows, ...,
        dim) array, filled from the np.ix_ lines of axis_coords."""
        lines = np.ix_(self.axis_coords(0)[rows],
                       *(self.axis_coords(a) for a in range(1, self.dim)))
        pts = np.empty((lines[0].size,) + self.extents[1:] + (self.dim,))
        for a, line in enumerate(lines):
            pts[..., a] = line
        return pts

    @staticmethod
    def cover(lo, hi, h: float) -> "GridSpec":
        """Smallest grid with origin lo reaching hi; (hi-lo)/h must be integral."""
        lo = tuple(float(v) for v in lo)
        hi = tuple(float(v) for v in hi)
        extents = []
        for a in range(len(lo)):
            steps = (hi[a] - lo[a]) / h
            n = int(round(steps))
            if abs(steps - n) > 1e-9:
                raise ValueError(f"span on axis {a} is not a multiple of h")
            extents.append(n + 1)
        return GridSpec(lo, h, tuple(extents))


@dataclass(frozen=True, eq=False)
class GridMask:
    """A boolean membership array over a lattice."""

    grid: GridSpec
    member: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.member, dtype=bool)
        if arr.shape != self.grid.extents:
            raise MaskMismatchError(
                f"mask shape {arr.shape} does not match extents {self.grid.extents}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "member", arr)

    @property
    def count(self) -> int:
        return int(self.member.sum())

    def rows(self, rows: slice) -> np.ndarray:
        """The membership of a run of whole rows, a view of member."""
        return self.member[rows]

    def each_block(self, fn: Callable[[slice, np.ndarray], None]) -> None:
        """fn(rows, membership) on each of row_blocks, now."""
        for rows in row_blocks(self.grid.extents):
            fn(rows, self.member[rows])


class RowMask(Protocol):
    """A mask as the walk reads it: by runs of whole rows, in row order.
    A GridMask slices its held array; a domains.DomainMask rasterizes the
    rows as they are read, and runs each_block's fn as it makes them."""

    grid: GridSpec

    def rows(self, rows: slice) -> np.ndarray: ...

    def each_block(self, fn: Callable[[slice, np.ndarray], None]) -> None: ...


def interior_rows(q: np.ndarray, out: np.ndarray) -> None:
    """Write to out the lattice interior of the rows q[1:-1], from q, which
    holds them and one row more at each side: the points whose 2*dim axis
    neighbors all lie in q.  A neighbor off the lattice along a later axis
    counts as absent, so a point in a first or last column never is."""
    np.logical_and(q[:-2], q[2:], out=out)
    out &= q[1:-1]
    for axis in range(1, q.ndim):
        line, body = np.moveaxis(q[1:-1], axis, 0), np.moveaxis(out, axis, 0)
        body[1:-1] &= line[:-2]
        body[1:-1] &= line[2:]
        body[0] = body[-1] = False


def interior_of(mask: GridMask) -> GridMask:
    """Points whose 2*dim axis neighbors all lie in the mask.

    A neighbor falling off the lattice counts as absent, so lattice-edge
    points are never interior.
    """
    inner = np.zeros_like(mask.member)
    interior_rows(mask.member, inner[1:-1])
    return GridMask(mask.grid, inner)


def dilate_box(member: np.ndarray, radius: int) -> np.ndarray:
    """True within Chebyshev distance radius of a True point of member.

    Off-lattice points count as absent.  The box is separable, so each axis
    takes an OR over the radius rows ahead of each row, then over the
    radius rows behind it.  Each OR doubles the rows it spans per pass,
    read from one bool array into another, so nothing but two bool arrays
    the size of member is held.
    """
    src = np.array(member, dtype=bool)
    dst = np.empty_like(src)
    for axis in range(src.ndim):
        reach = min(radius, src.shape[axis] - 1)
        for ahead in (True, False):
            span = 1  # each row holds the OR of span rows, itself first
            while span <= reach:
                step = min(span, reach + 1 - span)
                a, b = np.moveaxis(src, axis, 0), np.moveaxis(dst, axis, 0)
                if ahead:
                    np.logical_or(a[:-step], a[step:], out=b[:-step])
                    b[-step:] = a[-step:]
                else:
                    np.logical_or(a[step:], a[:-step], out=b[step:])
                    b[:step] = a[:step]
                src, dst = dst, src
                span += step
    return src


@dataclass(eq=False)
class SampledJet:
    """Partial-derivative samples on a masked lattice; grid is the mask's.

    components maps each multi-index alpha with |alpha| <= order to an array
    of samples over the full lattice; entries off the mask are not meaningful
    and are stored as 0.  An array that already holds +0.0 off the mask is
    adopted as a read-only view, any other is copied and cleaned.
    """

    order: int
    mask: GridMask
    components: dict[tuple[int, ...], np.ndarray]

    @property
    def grid(self) -> GridSpec:
        return self.mask.grid

    def __post_init__(self):
        dim = self.grid.dim
        # counted first: enumerating the indices costs order^(dim + 1)
        count = math.comb(self.order + dim, dim) if self.order >= 0 else 0
        if len(self.components) < count:
            raise ValueError(f"missing components: an order-{self.order} "
                             f"jet in {dim}-D has {count}, found "
                             f"{len(self.components)}")
        expected = multi_indices(self.order, dim)
        for alpha in expected:
            if alpha not in self.components:
                raise ValueError(f"missing component {alpha}")
        member = self.mask.member
        off_mask = ~member
        cleaned = {}
        for alpha in expected:
            arr = np.asarray(self.components[alpha], dtype=np.float64)
            if arr.shape != self.grid.extents:
                raise ValueError(f"component {alpha} has shape {arr.shape}")
            # bitwise, so that -0.0 and nan off the mask are cleaned too
            if np.any(arr.view(np.int64), where=off_mask):
                out = np.where(member, arr, 0.0)
            else:
                out = arr.view()
            out.setflags(write=False)
            if not np.isfinite(out).all():
                raise ValueError(f"component {alpha} is not finite on the mask")
            cleaned[alpha] = out
        self.components = cleaned

    def alphas(self) -> list[tuple[int, ...]]:
        return multi_indices(self.order, self.grid.dim)

    def blocks(self) -> Iterator[tuple[slice, Jet]]:
        """The components as slices over row_blocks, the blocks of walk."""
        for rows in row_blocks(self.grid.extents):
            yield rows, {a: arr[rows] for a, arr in self.components.items()}


def coordinate_lines(pts) -> list[np.ndarray]:
    """The coordinate arrays of pts (..., dim), one per axis, each cut to
    length 1 along every leading axis where it does not vary, compared bit
    for bit (so -0.0 and +0.0, or two NaNs, never merge).  On a block of
    lattice points these are the np.ix_ lines, on arbitrary points
    pts[..., a]; either way they broadcast back to pts[..., a]."""
    pts = np.asarray(pts, dtype=np.float64)
    lines = []
    for a in range(pts.shape[-1]):
        line = pts[..., a]
        for axis, n in enumerate(line.shape):
            bits = line.view(np.int64)
            at = (slice(None),) * axis
            first = bits[at + (slice(1),)]
            # the last index first: it tells most varying axes apart at once
            if n > 1 and (bits[at + (slice(n - 1, n),)] == first).all() and (
                    bits == first).all():
                line = line[at + (slice(1),)]
        lines.append(line)
    return lines


def walk(evaluator: JetEvaluator, mask: RowMask,
         order: int) -> Iterator[tuple[slice, Jet]]:
    """The one walk of a lattice with an evaluator: the lattice in blocks of
    whole rows, one evaluator call per block holding a masked point, on
    all the block's lattice points as one (rows, ..., dim) array, each
    yielded as (rows, the partials it returned over those rows, +0.0 off
    the mask).  The mask is read once per block, mask.rows(block), so a
    DomainMask is rasterized one block at a time, as the walk reaches it.
    A partial the leaf hands over, a float64 array of the block's shape
    that owns its writable data and that nothing else references, is
    zeroed off the mask in place; any other is masked into a new array
    by np.where.  The walk keeps no block past its yield, so a reader
    that drops each block before it asks for the next holds one block."""
    grid = mask.grid
    alphas = multi_indices(order, grid.dim)
    for rows in row_blocks(grid.extents):
        sub = mask.rows(rows)
        if not sub.any():
            continue
        off = None if sub.all() else ~sub
        # the walk's own dict, so popping a partial leaves the leaf's alone
        jet = dict(evaluator(grid.row_points(rows), order))
        block = {}
        for alpha in alphas:
            if alpha not in jet:
                continue
            arr = jet.pop(alpha)
            # 2 references, arr and getrefcount's argument: no other
            # partial, view or cache of the leaf's holds it
            if (type(arr) is np.ndarray and arr.dtype == np.float64
                    and arr.shape == sub.shape and arr.flags.owndata
                    and arr.flags.writeable and sys.getrefcount(arr) == 2):
                if off is not None:
                    np.copyto(arr, 0.0, where=off)
                block[alpha] = arr
            else:
                block[alpha] = np.where(sub, arr, 0.0)
            del arr  # the leaf's array, if np.where copied it
        del jet, off
        yield rows, block
        del block  # gone before the next block is evaluated


def sample(evaluator: JetEvaluator, mask: GridMask, order: int) -> SampledJet:
    """walk's blocks, stored into full-lattice components; a partial the
    evaluator leaves out stays 0."""
    components = {alpha: np.zeros(mask.grid.extents)
                  for alpha in multi_indices(order, mask.grid.dim)}
    for rows, block in walk(evaluator, mask, order):
        for alpha in block:
            components[alpha][rows] = block[alpha]
        del block  # before the walk evaluates the next block
    return SampledJet(order, mask, components)


@dataclass(eq=False)
class SpooledJet:
    """A jet over a whole lattice whose components wait in files, not in
    memory: each an io.Spool of its samples in C order, filled by spool one
    row block at a time.  jetlab.io writes it as it writes a SampledJet,
    reading each Spool a block at a time; held() reads the components back
    whole as a SampledJet, and close() drops the files."""

    order: int
    mask: GridMask
    components: dict[tuple[int, ...], Spool]

    @property
    def grid(self) -> GridSpec:
        return self.mask.grid

    def alphas(self) -> list[tuple[int, ...]]:
        return multi_indices(self.order, self.grid.dim)

    def held(self) -> SampledJet:
        return SampledJet(self.order, self.mask, {
            alpha: values.array().reshape(self.grid.extents)
            for alpha, values in self.components.items()})

    def close(self) -> None:
        for values in self.components.values():
            values.close()


def spool(evaluator: JetEvaluator, grid: GridSpec, order: int) -> SpooledJet:
    """walk's blocks over the whole lattice, each component's rows appended
    to its own io.Spool as they arrive, so no component is held whole; a
    partial the evaluator leaves out is spooled as 0.  A value that is not
    finite refuses the jet once the walk is done, naming the first such
    component in multi_indices order, as SampledJet refuses it."""
    from .io import Spool
    mask = GridMask(grid, np.ones(grid.extents, dtype=bool))
    alphas = multi_indices(order, grid.dim)
    jet = SpooledJet(order, mask, {alpha: Spool() for alpha in alphas})
    try:
        finite = dict.fromkeys(alphas, True)
        for rows, block in walk(evaluator, mask, order):
            shape = (rows.stop - rows.start,) + grid.extents[1:]
            for alpha, values in jet.components.items():
                arr = np.broadcast_to(block.get(alpha, 0.0), shape)
                finite[alpha] = finite[alpha] and bool(np.isfinite(arr).all())
                values.append(arr)
            del block, arr  # before the walk evaluates the next block
        bad = [alpha for alpha in alphas if not finite[alpha]]
        if bad:
            raise ValueError(f"component {bad[0]} is not finite on the mask")
    except BaseException:
        jet.close()
        raise
    return jet
