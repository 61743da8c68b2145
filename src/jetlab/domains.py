"""Domains, one frozen class per kind, their charts, and the rasterizer.

Each class owns what jetlab knows about its kind (see Domain); build_domain
turns any of them into lattice masks, each a DomainMask rasterized when it
is read: whole, or one row block at a time.

Rasterization convention: a lattice point belongs to a mask iff its exact
coordinates satisfy the defining inequalities.  All comparison data (tooth
edges, segment endpoints) is dyadic and therefore exact in float64; Cantor
interval endpoints are thirds, which CantorSlit rounds inward to floats once,
through Fraction, so that a float tests against them exactly.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import ResolutionTooCoarseError, UnsupportedDomainError
from .exact import CantorApprox, cantor_level
from . import taylor
from .grid import (GridMask, GridSpec, interior_of, interior_rows,
                   multi_indices)

# boundary probes per chartable domain for the interface scan
N_PROBES = 256


# ---------------------------------------------------------------------------
# charts of the chartable boundaries
#
# A chart maps reference coordinates xi to world points.  forward_taylor(xi)
# and inverse_taylor(pts) return the map's value, (..., 2), and series(order),
# its Taylor series less its value (jetlab.taylor), (2, n_alpha, ...), built
# when called, so a caller holds what it is built from and not the series
# while its source runs; the inverse's takes the points keep selects.  An
# affine chart's series is constant and holds its rows through degree 1
# alone, (2, 3, 1, ...).  box() is a world box holding the image of the
# unit reference ball.


def _linear(matrix: np.ndarray, order: int, ndim: int) -> np.ndarray:
    """The series of xi -> matrix @ xi less its value, (2, 3, 1, ...) at
    points of ndim - 1 axes (one row at order 0): its rows through degree
    1, (0, 1) and (1, 0) its columns; jetlab.taylor reads the others as 0."""
    delta = np.zeros((2, len(taylor.index(min(order, 1), 2)))
                     + (1,) * (ndim - 1))
    if order:
        delta[:, 1:3] = matrix[:, ::-1].reshape(delta[:, 1:3].shape)
    return delta


def _guarded(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """The box [lo, hi] grown by a rounding guard, 2^-32 of the farthest
    coordinate it reaches.  An inverse map rounds a point's radius by a few
    ulps of its coordinates, far less than the guard moves it, so no point
    outside the grown box maps below radius 1 where the exact box's edge
    touches the unit ball's image."""
    guard = 2.0**-32 * np.maximum(np.abs(lo), np.abs(hi))
    return lo - guard, hi + guard


@dataclass(eq=False)
class AffineChart:
    """phi(xi) = center + A @ xi: its series is A's entries, constant."""

    center: np.ndarray
    matrix: np.ndarray
    kind: str  # identity | edge | corner | interior
    extension: str  # half | quarter | none

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        self._inv = np.linalg.inv(self.matrix)

    def forward_taylor(self, xi: np.ndarray):
        return (self.center + xi @ self.matrix.T,
                lambda order: _linear(self.matrix, order, xi.ndim))

    def inverse_taylor(self, pts: np.ndarray):
        return ((pts - self.center) @ self._inv.T,
                lambda order, keep=None: _linear(self._inv, order, pts.ndim))

    def box(self) -> tuple[np.ndarray, np.ndarray]:
        """The box of the ellipse the unit ball maps to: row i of the
        matrix has norm the ellipse's reach along world axis i."""
        half = np.hypot(self.matrix[:, 0], self.matrix[:, 1])
        return _guarded(self.center - half, self.center + half)

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "center": [float(c) for c in self.center],
            "matrix": [[float(v) for v in row] for row in self.matrix],
            # xi_0 >= 0 is exactly the domain side of every half chart
            "half_exact": self.extension == "half",
            "extension": self.extension,
        }


@dataclass(eq=False)
class PolarSectorChart:
    """Annular sector of a disk boundary, flattened to reference coordinates.

    xi_0 is scaled inward depth (r = radius - depth*xi_0), xi_1 scaled angle
    (theta = theta_c + width*xi_1).  xi_0 >= 0 is exactly the disk side, so
    the chart is half-exact.
    """

    center: np.ndarray
    radius: float
    theta_c: float
    width: float
    depth: float

    kind = "polar"
    half_exact = True
    extension = "half"

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)

    def forward_taylor(self, xi: np.ndarray):
        """r (cos, sin)(theta), r and theta linear in xi, and its series
        from the same cos and sin: cos^(j) is (cos, -sin, -cos, sin)[j % 4],
        and sin^(j) the one before it."""
        th = self.theta_c + self.width * xi[..., 1]
        r = self.radius - self.depth * xi[..., 0]
        cos, sin = np.cos(th), np.sin(th)

        def series(order: int) -> np.ndarray:
            cycle = (cos, -sin, -cos, sin)
            delta = np.zeros((2, len(taylor.index(order, 2))) + r.shape)
            for k, (a, b) in enumerate(multi_indices(order, 2)):
                if 0 < a + b and a <= 1:
                    scale = ((r if a == 0 else -self.depth)
                             * (self.width**b / math.factorial(b)))
                    delta[0, k] = scale * cycle[b % 4]
                    delta[1, k] = scale * cycle[(b - 1) % 4]
            return delta

        return self.center + np.stack([r * cos, r * sin], axis=-1), series

    def inverse_taylor(self, pts: np.ndarray):
        """The inverse, and its series from log(z + dz) - log z = sum_k
        (-1)^(k+1) (dz / z)^k / k, z = (x - c_x) + i (y - c_y), dz = dx +
        i dy: row alpha = (a, b) is (-1)^(k+1) C(k, a) i^b / (k z^k), k = a
        + b; the angle moves by its imaginary part, the radius by the
        factor taylor.exp of its real part."""
        v = pts - self.center
        r = np.hypot(v[..., 0], v[..., 1])
        th = np.arctan2(v[..., 1], v[..., 0])
        dth = np.mod(th - self.theta_c + np.pi, 2.0 * np.pi) - np.pi

        def series(order: int, keep=slice(None)) -> np.ndarray:
            if not order:
                return np.zeros((2, 1) + (1,) * (pts.ndim - 1))
            v = pts[keep] - self.center
            z = v[..., 0] + 1j * v[..., 1]
            inv = 1.0 / np.where(z != 0.0, z, 1.0)  # the center is singular
            powers = [None, inv]
            for _ in range(1, order):
                powers.append(powers[-1] * inv)
            log = np.zeros((len(taylor.index(order, 2)),) + inv.shape,
                           dtype=complex)
            for k, (a, b) in enumerate(multi_indices(order, 2)):
                if k:
                    log[k] = ((-1) ** (a + b + 1) * math.comb(a + b, a)
                              * 1j**b / (a + b)) * powers[a + b]
            grow = taylor.exp(log.real, order, 2)
            delta = np.stack([grow * (np.hypot(v[..., 0], v[..., 1])
                                      / -self.depth), log.imag / self.width])
            delta[0, 0] = 0.0
            return delta

        return np.stack([(self.radius - r) / self.depth, dth / self.width],
                        axis=-1), series

    def box(self) -> tuple[np.ndarray, np.ndarray]:
        """The box of the annular sector |xi_0|, |xi_1| <= 1, which holds
        the unit ball's image: x and y are bilinear in the radius and in
        cos and sin of the angle, so their extremes sit at the end radii
        and at the arc's ends or the axis directions it crosses."""
        lo, hi = self.theta_c - self.width, self.theta_c + self.width
        quarter = np.pi / 2.0
        axes = np.arange(math.ceil(lo / quarter), math.floor(hi / quarter) + 1)
        th = np.concatenate(([lo, hi], axes * quarter))
        r = np.array([self.radius - self.depth, self.radius + self.depth])
        reach = r[:, None, None] * np.stack([np.cos(th), np.sin(th)])
        return _guarded(self.center + reach.min(axis=(0, 2)),
                        self.center + reach.max(axis=(0, 2)))

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "center": [float(c) for c in self.center],
            "radius": self.radius,
            "theta_c": self.theta_c,
            "width": self.width,
            "depth": self.depth,
            "half_exact": self.half_exact,
            "extension": self.extension,
        }


Chart = AffineChart | PolarSectorChart


# ---------------------------------------------------------------------------
# the domains


class Domain:
    """A closed set Q on the line or in the plane, with exact membership.

    Subclasses set kind (the payload and --domain name) and bbox and define
    params and the closure predicate q, which takes one broadcastable
    coordinate array per axis.  open is None when the open set is the
    lattice interior of Q, else a predicate like q.  Only the chartable
    kinds have charts, interior_chart and probes: a pathological boundary
    is the obstruction under study, not an implementation gap.
    """

    kind: str
    dim = 2
    bbox: tuple[tuple[float, ...], tuple[float, ...]]
    open = None

    def params(self) -> dict:
        return {}

    @classmethod
    def required_fields(cls) -> tuple[str, ...]:
        """The init fields with no default: the kind's parameter, if any."""
        return tuple(f.name for f in fields(cls)
                     if f.init and f.default is MISSING)

    def check_resolution(self, h: float) -> None:
        """Raise ResolutionTooCoarseError when h cannot resolve the domain."""

    def charts(self) -> list[Chart]:
        """Finite atlas covering the boundary."""
        raise UnsupportedDomainError(
            f"domain kind {self.kind!r} has no chartable boundary"
        )

    def interior_chart(self) -> AffineChart:
        """Pseudo-chart whose 0.9-ball carries the interior bump, well inside Q."""
        raise UnsupportedDomainError(f"no interior bump for {self.kind!r}")

    def probes(self) -> tuple[np.ndarray, np.ndarray]:
        """N_PROBES (point, outward normal) pairs, no boundary corner."""
        raise UnsupportedDomainError(f"no boundary probes for {self.kind!r}")

    def charted(self, s, t, depth: float):
        """Where on the boundary the atlas answers, within depth of a face."""
        return True


# Comb geometry: tooth n occupies a_n <= s <= b_n, 0 < t <= 1, with
# b_n = 2^-n and a_n = (3/4) b_n, so the gap below it is c_n = b_n / 4
# wide; the base B is the closed square minus the open positive quadrant.

def comb_c(n: int) -> float:
    return math.ldexp(0.25, -n)


def comb_in_base(s, t):
    """Membership in B: inside the closed square, not in the open quadrant."""
    s = np.asarray(s)
    t = np.asarray(t)
    inside = (np.abs(s) <= 1.0) & (np.abs(t) <= 1.0)
    return inside & ~((s > 0.0) & (t > 0.0))


def comb_tooth_index_array(s: np.ndarray) -> np.ndarray:
    """Vectorized tooth lookup; -1 where no tooth contains s.

    Exact for every float: with s = m * 2^e and 0.5 <= m < 1, s is b_n
    exactly when m = 0.5 (n = 1 - e), lies in [a_n, b_n) exactly when
    m >= 0.75 (n = -e), and falls in a gap otherwise.
    """
    s = np.asarray(s, dtype=np.float64)
    m, e = np.frexp(s)
    right_edge = m == 0.5
    on_tooth = (right_edge | (m >= 0.75)) & (s > 0.0) & (s <= 1.0)
    return np.where(on_tooth, right_edge - e.astype(np.int64), -1)


@dataclass(frozen=True)
class Comb(Domain):
    """The base B plus teeth 0..n_teeth; n_teeth=None keeps every tooth."""

    n_teeth: int | None

    kind = "comb"
    bbox = ((-1.0, -1.0), (1.0, 1.0))

    def __post_init__(self):
        if self.n_teeth is not None and self.n_teeth < 0:
            raise ValueError("n_teeth must be >= 0")

    def params(self) -> dict:
        return {"nTeeth": self.n_teeth}

    def check_resolution(self, h: float) -> None:
        half_gap = comb_c(self.n_teeth) / 2.0
        if h > half_gap:
            raise ResolutionTooCoarseError(
                f"h={h} cannot resolve tooth {self.n_teeth} (c_n/2 = {half_gap})"
            )

    def q(self, s, t):
        tooth = comb_tooth_index_array(s)  # >= 0 only where 0 < s <= 1
        on_tooth = tooth >= 0
        if self.n_teeth is not None:
            on_tooth &= tooth <= self.n_teeth
        return comb_in_base(s, t) | (on_tooth & (t > 0.0) & (t <= 1.0))


def gap_segment_index_array(s) -> np.ndarray:
    """Vectorized island lookup: 0 on [-1, 0], n on [2^-n, (3/2) 2^-n], else -1.

    Exact for every float: with s = m * 2^e and 0.5 <= m < 1, a positive s
    lies on island n = 1 - e exactly when m <= 0.75, and islands need n >= 1.
    """
    s = np.asarray(s, dtype=np.float64)
    m, e = np.frexp(s)
    on_island = (s > 0.0) & (e <= 0) & (m <= 0.75)
    out = np.where(on_island, 1 - e.astype(np.int64), -1)
    return np.where((s >= -1.0) & (s <= 0.0), 0, out)


@dataclass(frozen=True)
class GapIntervals(Domain):
    """[-1, 0] and the islands [2^-n, (3/2) 2^-n], n = 1..n_segments, on the
    line; n_segments=None keeps every island."""

    n_segments: int | None

    kind = "gap1d"
    dim = 1
    bbox = ((-1.0,), (1.0,))

    def __post_init__(self):
        if self.n_segments is not None and self.n_segments < 1:
            raise ValueError("n_segments must be >= 1")

    def params(self) -> dict:
        return {"nSegments": self.n_segments}

    def check_resolution(self, h: float) -> None:
        s_min = math.ldexp(1.0, -self.n_segments)
        if h > s_min / 4.0:
            raise ResolutionTooCoarseError(
                f"h={h} cannot resolve segment {self.n_segments} "
                f"(s_n/4 = {s_min / 4})"
            )

    def q(self, s):
        seg = gap_segment_index_array(s)
        if self.n_segments is None:
            return seg >= 0
        return (seg >= 0) & (seg <= self.n_segments)


@dataclass(frozen=True)
class CantorSlit(Domain):
    """Q = [-1, 1]^2; the open set is the open square minus the slits, the
    level-depth Cantor cover columns crossed with [0, 1].  The slits have
    empty interior in the limit, so Q is the closure of the open set.
    """

    depth: int
    cover: CantorApprox = field(init=False, repr=False, compare=False)
    # the cover's ends rounded inward to floats: the least float >= each
    # left end and the greatest float <= each right end, so a float lies
    # in an interval exactly when it lies between that interval's two
    lows: np.ndarray = field(init=False, repr=False, compare=False)
    highs: np.ndarray = field(init=False, repr=False, compare=False)

    kind = "cantor_slit"
    bbox = ((-1.0, -1.0), (1.0, 1.0))

    def __post_init__(self):
        cover = cantor_level(self.depth)
        # the nearest float to an end lies within half a step of it, far
        # inside its interval or its gap: one that falls outside the cover
        # steps one float toward its interval
        lows, highs = [], []
        for a, b in cover.intervals:
            lo, hi = float(a), float(b)
            lows.append(lo if cover.contains(lo) else math.nextafter(lo, 2.0))
            highs.append(hi if cover.contains(hi) else math.nextafter(hi, -1.0))
        object.__setattr__(self, "cover", cover)
        object.__setattr__(self, "lows", np.array(lows))
        object.__setattr__(self, "highs", np.array(highs))

    def params(self) -> dict:
        return {"depth": self.depth}

    def check_resolution(self, h: float) -> None:
        half_third = Fraction(1, 3**self.depth) / 2
        if Fraction(h) > half_third:
            raise ResolutionTooCoarseError(
                f"h={h} cannot resolve depth-{self.depth} intervals "
                f"(3^-d/2 = {float(half_third)})"
            )

    def q(self, s, t):
        return (np.abs(s) <= 1.0) & (np.abs(t) <= 1.0)

    def open(self, s, t):
        # the last interval starting at or before s holds it, if any does
        i = np.searchsorted(self.lows, s, side="right") - 1
        in_cover = (i >= 0) & (s <= self.highs[i])
        slit = in_cover & ((t >= 0.0) & (t <= 1.0))
        return (np.abs(s) < 1.0) & (np.abs(t) < 1.0) & ~slit


@dataclass(frozen=True)
class Rectangle(Domain):
    """Axis-aligned closed rectangle; atlas of four edges and four corners."""

    bounds: tuple[tuple[float, float], tuple[float, float]] = (
        (0.0, 1.0), (0.0, 1.0))

    kind = "rectangle"

    def __post_init__(self):
        object.__setattr__(self, "bounds",
                           tuple(tuple(map(float, b)) for b in self.bounds))

    @property
    def bbox(self):
        (x0, x1), (y0, y1) = self.bounds
        return (x0, y0), (x1, y1)

    def params(self) -> dict:
        return {"bounds": [list(pair) for pair in self.bounds]}

    def q(self, s, t):
        (s0, s1), (t0, t1) = self.bounds
        return (s >= s0) & (s <= s1) & (t >= t0) & (t <= t1)

    def charts(self) -> list[Chart]:
        (x0, x1), (y0, y1) = self.bounds
        lx, ly = x1 - x0, y1 - y0
        m = min(lx, ly)
        normal = 0.7 * m
        r_c = 0.9 * m
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        charts: list[Chart] = [
            AffineChart((cx, y0), [[0.0, lx / 2], [normal, 0.0]],
                        "edge", "half"),
            AffineChart((x1, cy), [[-normal, 0.0], [0.0, ly / 2]],
                        "edge", "half"),
            AffineChart((cx, y1), [[0.0, lx / 2], [-normal, 0.0]],
                        "edge", "half"),
            AffineChart((x0, cy), [[normal, 0.0], [0.0, ly / 2]],
                        "edge", "half"),
        ]
        for corner, (sx, sy) in (
            ((x0, y0), (1.0, 1.0)),
            ((x1, y0), (-1.0, 1.0)),
            ((x1, y1), (-1.0, -1.0)),
            ((x0, y1), (1.0, -1.0)),
        ):
            charts.append(
                AffineChart(corner, [[sx * r_c, 0.0], [0.0, sy * r_c]],
                            "corner", "quarter")
            )
        return charts

    def interior_chart(self) -> AffineChart:
        (x0, x1), (y0, y1) = self.bounds
        return AffineChart(
            (0.5 * (x0 + x1), 0.5 * (y0 + y1)),
            [[0.45 * (x1 - x0), 0.0], [0.0, 0.45 * (y1 - y0)]],
            "interior", "none",
        )

    def probes(self) -> tuple[np.ndarray, np.ndarray]:
        (x0, x1), (y0, y1) = self.bounds
        per = N_PROBES // 4
        # stay a tenth of the edge away from each corner
        fx = x0 + (x1 - x0) * (0.1 + 0.8 * (np.arange(per) + 0.5) / per)
        fy = y0 + (y1 - y0) * (0.1 + 0.8 * (np.arange(per) + 0.5) / per)
        pts, normals = [], []
        for x, y, nx, ny in (
            (fx, np.full(per, y0), 0.0, -1.0),
            (fx, np.full(per, y1), 0.0, 1.0),
            (np.full(per, x0), fy, -1.0, 0.0),
            (np.full(per, x1), fy, 1.0, 0.0),
        ):
            pts.append(np.stack([x, y], axis=-1))
            normals.append(np.tile([nx, ny], (per, 1)))
        return np.concatenate(pts), np.concatenate(normals)


@dataclass(frozen=True)
class Disk(Domain):
    """Closed disk; atlas of four overlapping annular sectors."""

    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 1.0

    kind = "disk"

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(map(float, self.center)))
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def bbox(self):
        (cx, cy), r = self.center, self.radius
        return (cx - r, cy - r), (cx + r, cy + r)

    def params(self) -> dict:
        return {"center": list(self.center), "radius": self.radius}

    def q(self, s, t):
        cs, ct = self.center
        return (s - cs) ** 2 + (t - ct) ** 2 <= self.radius**2

    def charts(self) -> list[Chart]:
        return [
            PolarSectorChart(self.center, self.radius,
                             theta_c=k * math.pi / 2.0,
                             width=0.35 * math.pi, depth=0.5 * self.radius)
            for k in range(4)
        ]

    def interior_chart(self) -> AffineChart:
        r = 0.8 * self.radius
        return AffineChart(self.center, [[r, 0.0], [0.0, r]],
                           "interior", "none")

    def probes(self) -> tuple[np.ndarray, np.ndarray]:
        thetas = (np.arange(N_PROBES) + 0.5) * (2.0 * np.pi / N_PROBES)
        normals = np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
        return np.array(self.center) + self.radius * normals, normals


@dataclass(frozen=True)
class HalfBall(Domain):
    """The closed right half of the unit disk; only the flat face s = 0 is
    charted, the curved arc is scenery, not the wall under study."""

    kind = "half_ball"
    bbox = ((0.0, -1.0), (1.0, 1.0))

    def q(self, s, t):
        return (s**2 + t**2 <= 1.0) & (s >= 0.0)

    def charts(self) -> list[Chart]:
        return [
            AffineChart((0.0, 0.0), np.eye(2), "identity", "half")
        ]

    def interior_chart(self) -> AffineChart:
        return AffineChart((0.45, 0.0), [[0.4, 0.0], [0.0, 0.55]],
                           "interior", "none")

    def probes(self) -> tuple[np.ndarray, np.ndarray]:
        ts = np.linspace(-0.85, 0.85, N_PROBES)
        pts = np.stack([np.zeros_like(ts), ts], axis=-1)
        return pts, np.tile([-1.0, 0.0], (N_PROBES, 1))

    def charted(self, s, t, depth: float):
        # The chart's bump has support radius 0.9: the face endpoints
        # (0, +-1) sit outside it, so the face stops short at |t| = 0.85.
        return (np.abs(s) <= depth) & (np.abs(t) <= 0.85)


# kind -> its class
KINDS = {cls.kind: cls for cls in (Comb, GapIntervals, CantorSlit,
                                    Rectangle, Disk, HalfBall)}
# the kinds with an atlas of their boundary
CHARTABLE = tuple(kind for kind, cls in KINDS.items()
                  if cls.charts is not Domain.charts)


def regular_q_member(domain: Domain, s, t):
    """Closure membership of a chartable domain; the others raise."""
    if domain.kind not in CHARTABLE:
        raise UnsupportedDomainError(f"{domain.kind} is not a regular domain")
    return domain.q(np.asarray(s, dtype=np.float64),
                    np.asarray(t, dtype=np.float64))


@dataclass(eq=False)
class DomainMask:
    """One of a domain's masks on a lattice, rasterized when it is read, on
    lattice lines: predicate's set, or, with of, the lattice interior of
    that mask's set.

    held() rasterizes the whole mask in one predicate call and keeps it as
    a GridMask, which member and count read.  rows(block), a run of whole
    rows, slices the held mask, or else rasterizes the run: read in row
    order, block after block, as grid.walk reads it, each row is made once
    and only the last block is kept, with the two rows of of's set at its
    end that the next block's interior reads, so a reader of row blocks
    holds no array the size of the lattice.  each_block(fn) runs fn on the
    held mask's blocks now, or else on each run of rows as it is made,
    until the last row is made or fn raises.
    """

    grid: GridSpec
    axes: tuple[np.ndarray, ...]  # the lattice's axis coordinates
    predicate: Callable[..., np.ndarray] | None
    of: DomainMask | None = None
    _held: GridMask | None = field(default=None, init=False, repr=False)
    _last: tuple | None = field(default=None, init=False, repr=False)
    _carried: tuple | None = field(default=None, init=False, repr=False)
    _pending: list = field(default_factory=list, init=False, repr=False)

    def _raster(self, lo: int, hi: int) -> np.ndarray:
        """The predicate on rows lo:hi, broadcast to their shape."""
        if hi <= lo:
            return np.zeros((0,) + self.grid.extents[1:], dtype=bool)
        lines = np.ix_(self.axes[0][lo:hi], *self.axes[1:])
        return np.broadcast_to(self.predicate(*lines),
                               (hi - lo,) + self.grid.extents[1:])

    def _interior(self, r0: int, r1: int) -> np.ndarray:
        """Rows r0:r1 of the lattice interior of of's set, read off its rows
        r0 - 1 to r1; the last block's two rows at r0 - 1 are reused."""
        n = self.grid.extents[0]
        lo, hi = max(r0 - 1, 0), min(r1 + 1, n)
        start, kept = self._carried or (-1, None)
        if start == lo and lo + len(kept) <= hi:
            strip = np.concatenate((kept, self.of._raster(lo + len(kept), hi)))
        else:
            strip = self.of._raster(lo, hi)
        out = np.zeros((r1 - r0,) + self.grid.extents[1:], dtype=bool)
        a, b = max(r0, 1), min(r1, n - 1)
        if a < b:
            interior_rows(strip[a - 1 - lo:b + 1 - lo], out[a - r0:b - r0])
        tail = strip[-2:].copy()
        self._carried = (hi - len(tail), tail)
        return out

    def held(self) -> GridMask:
        """The whole mask, rasterized the first time and kept."""
        if self._held is None:
            self._last = self._carried = None
            self._held = (interior_of(self.of.held()) if self.of is not None
                          else GridMask(self.grid,
                                        self._raster(0, self.grid.extents[0])))
            pending, self._pending = self._pending, []
            for fn in pending:
                self._held.each_block(fn)
        return self._held

    @property
    def member(self) -> np.ndarray:
        return self.held().member

    @property
    def count(self) -> int:
        return self.held().count

    def rows(self, rows: slice) -> np.ndarray:
        if self._held is not None:
            return self._held.rows(rows)
        if self._last is not None and self._last[0] == rows:
            return self._last[1]
        self._last = None  # dropped before the next block is made
        r0, r1, _ = rows.indices(self.grid.extents[0])
        sub = (self._raster(r0, r1) if self.of is None
               else self._interior(r0, r1))
        checks, self._pending = self._pending, []  # dropped if one raises
        for fn in checks:
            fn(slice(r0, r1), sub)
        if r1 < self.grid.extents[0]:
            self._pending = checks
        self._last = (rows, sub)
        return sub

    def each_block(self, fn: Callable[[slice, np.ndarray], None]) -> None:
        if self._held is not None:
            self._held.each_block(fn)
        else:
            self._pending.append(fn)
            self._last = None  # a block made before fn is made again


def build_domain(domain: Domain, h: float,
                 masks: tuple[str, ...] = ("q", "open")
                 ) -> tuple[DomainMask, ...]:
    """The masks named in masks, in that order, on the lattice of step h
    over the bbox: "q" the closure Q, "open" the open set, for a kind with
    no open predicate the lattice interior of Q.  Each is a DomainMask,
    rasterized when read: held whole, one predicate call each (the open
    set's interior holds Q, the "q" mask when both are named), or one row
    block at a time, as a domain scan reads it.

    The predicates get broadcastable axes (np.ix_): work on one coordinate
    runs once per lattice line.
    """
    domain.check_resolution(h)
    grid = GridSpec.cover(*domain.bbox, h)
    axes = tuple(grid.axis_coords(a) for a in range(grid.dim))
    q = DomainMask(grid, axes, domain.q)
    built = {"q": q}
    if "open" in masks:
        built["open"] = (DomainMask(grid, axes, None, q) if domain.open is None
                         else DomainMask(grid, axes, domain.open))
    return tuple(built[name] for name in masks)
