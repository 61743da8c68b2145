"""Domain constructors: Cantor approximations, slit square, comb, gap intervals.

Rasterization convention: a lattice point belongs to a mask iff its exact
coordinates satisfy the defining inequalities.  All comparison data (tooth
edges, segment endpoints) is dyadic and therefore exact in float64; Cantor
interval endpoints are thirds, so those comparisons run through Fraction.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DepthTooLargeError,
    ResolutionTooCoarseError,
    UnsupportedDomainError,
)
from .grid import GridMask, GridSpec, interior_of

DEFAULT_INTERVAL_CAP = 2**20


@dataclass(frozen=True)
class CantorApprox:
    """Level-d middle-thirds cover of the Cantor set: 2^d closed intervals."""

    depth: int
    intervals: tuple[tuple[Fraction, Fraction], ...]

    def contains(self, s) -> bool:
        """Exact membership of s in the union of intervals."""
        q = Fraction(s)
        lefts = [a for a, _ in self.intervals]
        i = bisect.bisect_right(lefts, q) - 1
        if i < 0:
            return False
        a, b = self.intervals[i]
        return a <= q <= b

    def gaps(self) -> list[tuple[Fraction, Fraction]]:
        """Open gaps between consecutive intervals."""
        out = []
        for (_, b), (a2, _) in zip(self.intervals, self.intervals[1:]):
            out.append((b, a2))
        return out

    def total_length(self) -> Fraction:
        return sum((b - a for a, b in self.intervals), Fraction(0))


def cantor_level(depth: int, cap: int = DEFAULT_INTERVAL_CAP) -> CantorApprox:
    """Remove open middle thirds depth times, starting from [0, 1]."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if 2**depth > cap:
        raise DepthTooLargeError(f"2^{depth} intervals exceeds cap {cap}")
    intervals = [(Fraction(0), Fraction(1))]
    for _ in range(depth):
        refined = []
        for a, b in intervals:
            third = (b - a) / 3
            refined.append((a, a + third))
            refined.append((b - third, b))
        intervals = refined
    return CantorApprox(depth, tuple(intervals))


@dataclass(frozen=True)
class DomainSpec:
    """A named domain plus the convention tying its open set to its closure.

    omega_convention is "interior" when the open set is the lattice interior
    of Q, and "slit" when it is an open square with closed slits removed
    (the closure of the open set is then strictly smaller than Q at any
    finite depth).
    """

    kind: str
    depth: int | None = None
    n_teeth: int | None = None
    n_segments: int | None = None
    bounds: tuple[tuple[float, float], ...] | None = None
    center: tuple[float, float] | None = None
    radius: float | None = None

    @property
    def omega_convention(self) -> str:
        return "slit" if self.kind == "cantor_slit" else "interior"

    @property
    def dim(self) -> int:
        return 1 if self.kind == "gap1d" else 2

    def domain_id(self) -> str:
        return self.kind

    def params(self) -> dict:
        out: dict = {}
        if self.depth is not None:
            out["depth"] = self.depth
        if self.n_teeth is not None:
            out["nTeeth"] = self.n_teeth
        if self.n_segments is not None:
            out["nSegments"] = self.n_segments
        if self.bounds is not None:
            out["bounds"] = [list(pair) for pair in self.bounds]
        if self.center is not None:
            out["center"] = list(self.center)
        if self.radius is not None:
            out["radius"] = self.radius
        return out


def cantor_slit_square(depth: int) -> DomainSpec:
    return DomainSpec("cantor_slit", depth=depth)


def comb(n_teeth: int) -> DomainSpec:
    return DomainSpec("comb", n_teeth=n_teeth)


def gap_intervals(n_segments: int) -> DomainSpec:
    return DomainSpec("gap1d", n_segments=n_segments)


def half_ball() -> DomainSpec:
    return DomainSpec("half_ball")


def rectangle(bounds=((0.0, 1.0), (0.0, 1.0))) -> DomainSpec:
    return DomainSpec("rectangle", bounds=tuple(tuple(map(float, b)) for b in bounds))


def disk(center=(0.0, 0.0), radius=1.0) -> DomainSpec:
    return DomainSpec("disk", center=tuple(map(float, center)), radius=float(radius))


# Comb geometry: tooth n occupies a_n <= s <= b_n, 0 < t <= 1, with
# b_n = 2^-n and a_n = (3/4) b_n; the base B is the closed square minus
# the open positive quadrant.

def comb_b(n: int) -> float:
    return math.ldexp(1.0, -n)


def comb_a(n: int) -> float:
    return math.ldexp(0.75, -n)


def comb_c(n: int) -> float:
    return math.ldexp(0.25, -n)


def comb_tooth_index(s: float) -> int | None:
    """Index n with a_n <= s <= b_n, or None."""
    if not 0.0 < s <= 1.0:
        return None
    guess = int(math.floor(-math.log2(s)))
    for n in (guess - 1, guess, guess + 1):
        if n >= 0 and comb_a(n) <= s <= comb_b(n):
            return n
    return None


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


def comb_q_member(s, t, n_teeth: int):
    """Exact membership in the comb closure Q with teeth 0..n_teeth."""
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    member = comb_in_base(s, t)
    teeth_band = (s > 0.0) & (t > 0.0) & (t <= 1.0)
    if teeth_band.any():
        idx = comb_tooth_index_array(np.where(teeth_band, s, -1.0))
        member = member | (teeth_band & (idx >= 0) & (idx <= n_teeth))
    return member


def build_comb(n_teeth: int, h: float) -> tuple[GridMask, GridMask]:
    """Comb closure mask Q over [-1, 1]^2 and its lattice interior."""
    if n_teeth < 0:
        raise ValueError("n_teeth must be >= 0")
    if h > comb_c(n_teeth) / 2.0:
        raise ResolutionTooCoarseError(
            f"h={h} cannot resolve tooth {n_teeth} (c_n/2 = {comb_c(n_teeth) / 2})"
        )
    grid = GridSpec.cover((-1.0, -1.0), (1.0, 1.0), h)
    ss, tt = grid.coord_grids()
    q = GridMask(grid, comb_q_member(ss, tt, n_teeth))
    return q, interior_of(q)


def build_gap_intervals(n_segments: int, h: float) -> tuple[GridMask, GridMask]:
    """1-D union of [-1, 0] and the shrinking islands [2^-n, (3/2) 2^-n]."""
    if n_segments < 1:
        raise ValueError("n_segments must be >= 1")
    s_min = math.ldexp(1.0, -n_segments)
    if h > s_min / 4.0:
        raise ResolutionTooCoarseError(
            f"h={h} cannot resolve segment {n_segments} (s_n/4 = {s_min / 4})"
        )
    grid = GridSpec.cover((-1.0,), (1.0,), h)
    (ss,) = grid.coord_grids()
    member = (ss >= -1.0) & (ss <= 0.0)
    for n in range(1, n_segments + 1):
        s_n = math.ldexp(1.0, -n)
        member |= (ss >= s_n) & (ss <= 1.5 * s_n)
    q = GridMask(grid, member)
    return q, interior_of(q)


def gap_segment_index(s: float) -> int | None:
    """Index of the island containing s: 0 for [-1, 0], n >= 1 for the islands."""
    if -1.0 <= s <= 0.0:
        return 0
    if not 0.0 < s <= 1.5 * 0.5:
        return None
    guess = int(math.floor(-math.log2(s)))
    for n in (guess, guess + 1):
        if n >= 1:
            s_n = math.ldexp(1.0, -n)
            if s_n <= s <= 1.5 * s_n:
                return n
    return None


def build_cantor_slit_square(
    depth: int, h: float
) -> tuple[GridMask, GridMask, CantorApprox]:
    """Closed square Q = [-1, 1]^2 and the open square minus depth-d slits.

    The slits are the level-depth Cantor cover columns crossed with [0, 1].
    Q deliberately keeps every lattice point: the slit set has empty interior
    in the limit, so the closure of the open set is the whole square.
    """
    approx = cantor_level(depth)
    third = Fraction(1, 3**depth) if depth else Fraction(1)
    if Fraction(h) > third / 2:
        raise ResolutionTooCoarseError(
            f"h={h} cannot resolve depth-{depth} intervals (3^-d/2 = {float(third / 2)})"
        )
    grid = GridSpec.cover((-1.0, -1.0), (1.0, 1.0), h)
    s_coords = grid.axis_coords(0)
    t_coords = grid.axis_coords(1)
    q = GridMask(grid, np.ones(grid.extents, dtype=bool))
    in_cover = np.array([approx.contains(s) for s in s_coords], dtype=bool)
    open_square = (
        (s_coords[:, None] > -1.0)
        & (s_coords[:, None] < 1.0)
        & (t_coords[None, :] > -1.0)
        & (t_coords[None, :] < 1.0)
    )
    slit = in_cover[:, None] & (t_coords[None, :] >= 0.0) & (t_coords[None, :] <= 1.0)
    omega = GridMask(grid, open_square & ~slit)
    return q, omega, approx


def regular_q_member(spec: DomainSpec, s, t):
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if spec.kind == "rectangle":
        (s0, s1), (t0, t1) = spec.bounds
        return (s >= s0) & (s <= s1) & (t >= t0) & (t <= t1)
    if spec.kind == "disk":
        cs, ct = spec.center
        return (s - cs) ** 2 + (t - ct) ** 2 <= spec.radius**2
    if spec.kind == "half_ball":
        return (s**2 + t**2 <= 1.0) & (s >= 0.0)
    raise UnsupportedDomainError(f"{spec.kind} is not a regular domain")


def build_regular(spec: DomainSpec, h: float) -> tuple[GridMask, GridMask]:
    """Masks for the chartable domains (rectangle, disk, half ball)."""
    if spec.kind == "rectangle":
        (s0, s1), (t0, t1) = spec.bounds
        grid = GridSpec.cover((s0, t0), (s1, t1), h)
    elif spec.kind == "disk":
        cs, ct = spec.center
        r = spec.radius
        grid = GridSpec.cover((cs - r, ct - r), (cs + r, ct + r), h)
    elif spec.kind == "half_ball":
        grid = GridSpec.cover((0.0, -1.0), (1.0, 1.0), h)
    else:
        raise UnsupportedDomainError(f"{spec.kind} is not a regular domain")
    ss, tt = grid.coord_grids()
    q = GridMask(grid, regular_q_member(spec, ss, tt))
    return q, interior_of(q)


def build_domain(spec: DomainSpec, h: float) -> tuple[GridMask, GridMask]:
    """Dispatch to the kind-specific builder; returns (Q mask, open-set mask)."""
    if spec.kind == "comb":
        return build_comb(spec.n_teeth, h)
    if spec.kind == "gap1d":
        return build_gap_intervals(spec.n_segments, h)
    if spec.kind == "cantor_slit":
        q, omega, _ = build_cantor_slit_square(spec.depth, h)
        return q, omega
    return build_regular(spec, h)
