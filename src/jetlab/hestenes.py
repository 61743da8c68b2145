"""Reflection extension of order i across a flat wall.

A jet living on one side of the hyperplane x_axis = boundary is continued to
the other side by sampling at the shrinking reflected depths t/l, l = 1..i+1,
and combining with weights a_0..a_i.  The weights solve

    sum_{l=1}^{i+1} (-l)^(-j) a_{l-1} = 1   for j = 0..i,

which makes the continuation match all derivatives through order i at the
wall and reproduce polynomials of degree <= i identically.

The system is a Vandermonde system at the nodes -1/l and is hopeless in
floating point beyond order 8 or so, so it is solved in exact rational
arithmetic; floats are derived afterwards.  The weights alternate in sign and
grow quickly (their absolute sum is ~6.3e6 at order 6), so the combination
itself is accumulated in extended precision before rounding once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import MaskMismatchError, ProbeOutsideMaskError
from .grid import (
    GridMask, GridSpec, Jet, JetEvaluator, SampledJet, multi_indices,
)

MAX_ORDER = 12


def _solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination with exact rational pivots (partial pivoting)."""
    n = len(rhs)
    a = [row[:] for row in matrix]
    b = list(rhs)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            raise ZeroDivisionError("singular system")
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            if factor == 0:
                continue
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
            b[r] -= factor * b[col]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, n):
            acc -= a[r][c] * x[c]
        x[r] = acc / a[r][r]
    return x


@dataclass(frozen=True)
class HestenesCoefficients:
    """Exact reflection weights a_0..a_i with float renderings on the side."""

    order: int
    values: tuple[Fraction, ...]

    def floats(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.values)

    def abs_sum(self) -> float:
        """Absolute weight mass; the naive operator-norm factor, reported only."""
        return float(sum(abs(v) for v in self.values))

    def residual(self, j: int) -> Fraction:
        """Exact defect of equation j; zero for a correct solve."""
        total = Fraction(0)
        for l, a in enumerate(self.values, start=1):
            total += Fraction((-1) ** j, l**j) * a
        return total - 1

    def weight_longdouble(self, l: int, j: int) -> np.longdouble:
        """a_{l-1} * (-1/l)^j rounded once into extended precision."""
        q = self.values[l - 1] * Fraction((-1) ** j, l**j)
        return _fraction_longdouble(q)


def _fraction_longdouble(q: Fraction) -> np.longdouble:
    num, den = q.numerator, q.denominator
    if abs(num) < 2**62 and den < 2**62:
        return np.longdouble(num) / np.longdouble(den)
    return np.longdouble(float(q))


def solve_coefficients(i: int) -> HestenesCoefficients:
    """Weights for the order-i reflection; exact, orders 0..12."""
    if not 0 <= i <= MAX_ORDER:
        raise ValueError(f"order must lie in [0, {MAX_ORDER}], got {i}")
    n = i + 1
    matrix = [
        [Fraction((-1) ** j, l**j) for l in range(1, n + 1)] for j in range(n)
    ]
    rhs = [Fraction(1)] * n
    return HestenesCoefficients(i, tuple(_solve_exact(matrix, rhs)))


@dataclass(eq=False)
class HalfSpaceExtension:
    """Jet evaluator defined on both sides of the wall.

    source(points, order) must be evaluable wherever the signed depth
    inward * (x_axis - boundary) is >= 0; each component at the reflected
    points is combined per the weight formula, the alpha component picking
    up the factor (-1/l)^j with j its order along the axis.  max_depth, when
    set, bounds how far past the wall evaluation may reach (the deepest probe
    sits at depth/l = depth, so this is also the guarantee required of the
    source side).
    """

    coeffs: HestenesCoefficients
    source: JetEvaluator
    axis: int = 0
    boundary: float = 0.0
    inward: float = 1.0
    max_depth: float | None = None

    @property
    def order(self) -> int:
        return self.coeffs.order

    def jet_many(self, points, order: int) -> Jet:
        """One source jet for the points inside, one per reflected probe."""
        pts = np.asarray(points, dtype=np.float64)
        alphas = multi_indices(order, pts.shape[-1])
        tau = self.inward * (pts[..., self.axis] - self.boundary)
        inside = tau >= 0.0
        out = {alpha: np.zeros(pts.shape[:-1], dtype=np.float64)
               for alpha in alphas}
        if inside.any():
            src = self.source(pts[inside], order)
            for alpha in alphas:
                out[alpha][inside] = src[alpha]
        mirrored = ~inside
        if mirrored.any():
            depth = -tau[mirrored]
            if self.max_depth is not None and float(depth.max()) > self.max_depth:
                raise ProbeOutsideMaskError(
                    f"reflection depth {depth.max():.6g} exceeds the available "
                    f"{self.max_depth:.6g} past the wall"
                )
            probes = pts[mirrored]
            acc = {alpha: np.zeros(probes.shape[0], dtype=np.longdouble)
                   for alpha in alphas}
            for l in range(1, self.order + 2):
                reflected = probes.copy()
                reflected[..., self.axis] = (
                    self.boundary + self.inward * depth / l
                )
                vals = self.source(reflected, order)
                for alpha in alphas:
                    weight = self.coeffs.weight_longdouble(l, alpha[self.axis])
                    acc[alpha] += weight * np.asarray(vals[alpha]).astype(
                        np.longdouble
                    )
            for alpha in alphas:
                out[alpha][mirrored] = acc[alpha].astype(np.float64)
        return out

    def partial_many(self, points, alpha) -> np.ndarray:
        alpha = tuple(alpha)
        return self.jet_many(points, sum(alpha))[alpha]

    def partial(self, point, alpha) -> float:
        pts = np.asarray(point, dtype=np.float64).reshape(1, -1)
        return float(self.partial_many(pts, alpha)[0])


def extend_analytic(source: JetEvaluator, i: int, axis: int = 0,
                    boundary: float = 0.0, inward: float = 1.0,
                    max_depth: float | None = None) -> HalfSpaceExtension:
    return HalfSpaceExtension(
        solve_coefficients(i), source, axis, boundary, inward, max_depth
    )


def corner_extension(source: JetEvaluator, i: int,
                     axes: tuple[int, int] = (0, 1),
                     boundary: tuple[float, float] = (0.0, 0.0),
                     inward: tuple[float, float] = (1.0, 1.0),
                     max_depth: float | None = None) -> HalfSpaceExtension:
    """Tensor reflection off two walls meeting at a corner.

    The inner extension clears the second wall for every probe the outer one
    emits; the per-axis derivative factors compose independently, so
    products s^p t^q with p, q <= i are still reproduced exactly.
    """
    coeffs = solve_coefficients(i)
    inner = HalfSpaceExtension(
        coeffs, source, axes[1], boundary[1], inward[1], max_depth
    )
    return HalfSpaceExtension(
        coeffs, inner.jet_many, axes[0], boundary[0], inward[0], max_depth
    )


@dataclass(eq=False)
class LatticeExtensionResult:
    """Extended lattice jet plus the accounting the nearest-sample rule costs.

    probe_offset_max is the largest distance between an exact reflected depth
    t/l and the lattice sample actually used; it is O(h) and exactly 0 when
    every depth divides evenly (as it does for l = 1).
    """

    jet: SampledJet
    coeffs: HestenesCoefficients
    width: int
    probe_offset_max: float


def extend_half_space_lattice(
    jet: SampledJet,
    coeffs: HestenesCoefficients,
    width: int,
    axis: int = 0,
    boundary: float = 0.0,
    inward: float = 1.0,
) -> LatticeExtensionResult:
    """Continue a sampled jet `width` lattice steps past the wall.

    Off-lattice reflected depths fall back to the nearest sample along the
    axis; raises ProbeOutsideMask when a needed sample is not in the jet's
    mask (including when the band would reach deeper than the data).
    """
    if width < 0:
        raise ValueError("width must be nonnegative")
    if not 0 <= axis < jet.grid.dim:
        raise ValueError(
            f"axis {axis} is not an axis of a {jet.grid.dim}-D jet "
            f"(0 to {jet.grid.dim - 1})"
        )
    h = jet.grid.h
    sign = 1.0 if inward >= 0 else -1.0
    old_coords = jet.grid.axis_coords(axis)
    tau_old = sign * (old_coords - boundary)
    for k in np.nonzero(tau_old < -0.25 * h)[0]:
        if _take_line(jet.mask.member, axis, int(k)).any():
            raise MaskMismatchError(
                "source mask has members past the wall; it must sit on one side"
            )
    # the window grows by `width` lines on the outward side of the wall
    origin = list(jet.grid.origin)
    offset = 0
    if sign > 0:
        origin[axis] = float(old_coords[0]) - width * h
        offset = width
    extents = list(jet.grid.extents)
    extents[axis] += width
    grid = GridSpec(tuple(origin), h, tuple(extents))
    placed = [slice(None)] * len(extents)
    placed[axis] = slice(offset, offset + jet.grid.extents[axis])
    placed = tuple(placed)
    base_member = np.zeros(grid.extents, dtype=bool)
    base_member[placed] = jet.mask.member
    member = base_member.copy()
    components = {}
    for alpha, arr in jet.components.items():
        full = np.zeros(grid.extents, dtype=np.float64)
        full[placed] = arr
        components[alpha] = full

    coords = grid.axis_coords(axis)
    tau = sign * (coords - boundary)
    band = [int(k) for k in np.nonzero(tau < -0.25 * h)[0]]
    source_depth = float(tau.max(initial=0.0))
    deepest = max((-float(tau[k]) for k in band), default=0.0)
    if deepest > source_depth + 0.5 * h:
        raise ProbeOutsideMaskError(
            f"band reaches depth {deepest:.6g} but the source data stops at "
            f"{source_depth:.6g}; refusing to extrapolate"
        )
    probe_offset_max = 0.0
    n_terms = coeffs.order + 2
    for k in band:
        depth = -float(tau[k])
        probe_rows = []
        for l in range(1, n_terms):
            target = boundary + sign * depth / l
            m = int(round((target - coords[0]) / h))
            if not 0 <= m < coords.shape[0]:
                raise ProbeOutsideMaskError(
                    f"probe at axis coordinate {target:.6g} falls off the grid"
                )
            probe_offset_max = max(
                probe_offset_max, abs(float(coords[m] - target))
            )
            probe_rows.append(m)
        covered = np.ones_like(_take_line(base_member, axis, k))
        for m in probe_rows:
            covered &= _take_line(base_member, axis, m)
        if not covered.any():
            continue
        for alpha, arr in components.items():
            j = alpha[axis]
            acc = np.zeros(int(covered.sum()), dtype=np.longdouble)
            for l, m in zip(range(1, n_terms), probe_rows):
                src_line = _take_line(arr, axis, m)
                acc += coeffs.weight_longdouble(l, j) * src_line[
                    covered
                ].astype(np.longdouble)
            dst = _take_line(arr, axis, k)
            dst[covered] = acc.astype(np.float64)
        _take_line(member, axis, k)[...] |= covered
    new_mask = GridMask(grid, member)
    out = SampledJet(jet.order, grid, new_mask, components)
    return LatticeExtensionResult(out, coeffs, width, probe_offset_max)


def _take_line(arr: np.ndarray, axis: int, index: int) -> np.ndarray:
    """Writable view of the lattice line at index along axis (axis kept)."""
    slicer: list = [slice(None)] * arr.ndim
    slicer[axis] = slice(index, index + 1)
    return arr[tuple(slicer)]


def interface_mismatch(ext: HalfSpaceExtension, tangential, h: float,
                       orders: range | None = None) -> dict[int, float]:
    """One-sided derivative disagreement across the wall, per order.

    Uses second-order stencils from both sides at the given tangential
    coordinates; order 0 compares boundary-value extrapolations.  The
    disagreement of a correct order-i extension shrinks as h^2 for
    derivative orders <= i.
    """
    if orders is None:
        orders = range(ext.order + 1)
    tang = np.asarray(tangential, dtype=np.float64)
    if tang.ndim != 2:
        raise ValueError("tangential must have shape (M, dim - 1)")
    dim = tang.shape[1] + 1
    axis = ext.axis

    def at(depth: float) -> np.ndarray:
        pts = np.zeros((tang.shape[0], dim), dtype=np.float64)
        cols = [c for c in range(dim) if c != axis]
        for c_out, c_in in zip(cols, range(tang.shape[1])):
            pts[:, c_out] = tang[:, c_in]
        pts[:, axis] = ext.boundary + depth
        return pts

    alpha0 = tuple(0 for _ in range(dim))
    u = {
        k: ext.partial_many(at(ext.inward * k * h), alpha0)
        for k in (-3, -2, -1, 0, 1, 2, 3)
    }
    out: dict[int, float] = {}
    for j in orders:
        if j == 0:
            left = 3.0 * u[-1] - 3.0 * u[-2] + u[-3]
            right = 3.0 * u[1] - 3.0 * u[2] + u[3]
        elif j == 1:
            right = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
            left = (3.0 * u[0] - 4.0 * u[-1] + u[-2]) / (2.0 * h)
        elif j == 2:
            right = (2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]) / h**2
            left = (2.0 * u[0] - 5.0 * u[-1] + 4.0 * u[-2] - u[-3]) / h**2
        else:
            raise ValueError("interface mismatch implemented for orders <= 2")
        out[j] = float(np.max(np.abs(right - left)))
    return out
