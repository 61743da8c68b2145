"""Reflection extension of order i across a flat wall.

A jet living on one side of the hyperplane x_axis = boundary is continued to
the other side by sampling at the shrinking reflected depths t/l, l = 1..i+1,
and combining with weights a_0..a_i.  The weights solve

    sum_{l=1}^{i+1} (-l)^(-j) a_{l-1} = 1   for j = 0..i,

which makes the continuation match all derivatives through order i at the
wall and reproduce polynomials of degree <= i identically.

This Vandermonde system at the nodes -1/l is hopeless in floating point
beyond order 8 or so.  Its solution is the Lagrange basis at those nodes
evaluated at 1, a_{l-1} = prod_{m != l} (1 + 1/m) / (1/m - 1/l), taken in
exact rationals; floats are derived afterwards.  The weights alternate in
sign and grow quickly (their absolute sum is ~6.3e6 at order 6), so
HalfSpaceExtension.jet_many, the one place they are summed, accumulates in
extended precision before rounding once at the end.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import MaskMismatchError, ProbeOutsideMaskError
from .grid import (MAX_ORDER, GridMask, GridSpec, Jet, JetEvaluator,
                   SampledJet, multi_indices)


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

    def weight_longdouble(self, l: int, j: int) -> np.longdouble:
        """a_{l-1} * (-1/l)^j rounded once into extended precision."""
        return _weight(self.values[l - 1], l, j)


@functools.cache
def _weight(a: Fraction, l: int, j: int) -> np.longdouble:
    """a * (-1/l)^j in extended precision, computed once per (a, l, j)."""
    q = a * Fraction((-1) ** j, l**j)
    if abs(q.numerator) < 2**62 and q.denominator < 2**62:
        return np.longdouble(q.numerator) / np.longdouble(q.denominator)
    return np.longdouble(float(q))


def solve_coefficients(i: int) -> HestenesCoefficients:
    """Weights for the order-i reflection; exact, orders 0..12."""
    if not 0 <= i <= MAX_ORDER:
        raise ValueError(f"order must lie in [0, {MAX_ORDER}], got {i}")
    nodes = range(1, i + 2)
    return HestenesCoefficients(i, tuple(
        math.prod(((1 + Fraction(1, m)) / (Fraction(1, m) - Fraction(1, l))
                   for m in nodes if m != l), start=Fraction(1))
        for l in nodes
    ))


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
        """One source jet per reflected probe, then the outputs and one
        source jet for the points inside."""
        pts = np.asarray(points, dtype=np.float64)
        alphas = multi_indices(order, pts.shape[-1])
        tau = self.inward * (pts[..., self.axis] - self.boundary)
        inside = tau >= 0.0
        mirrored = ~inside
        acc = {}
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
        out = {alpha: np.zeros(pts.shape[:-1], dtype=np.float64)
               for alpha in alphas}
        for alpha in list(acc):
            out[alpha][mirrored] = acc.pop(alpha).astype(np.float64)
        if inside.any():
            src = self.source(pts[inside], order)
            for alpha in alphas:
                out[alpha][inside] = src[alpha]
        return out

    def partial_many(self, points, alpha) -> np.ndarray:
        """The alpha component of jet_many; perfbench's tracer wraps it."""
        alpha = tuple(alpha)
        return self.jet_many(points, sum(alpha))[alpha]


def corner_extension(source: JetEvaluator, i: int,
                     max_depth: float | None) -> HalfSpaceExtension:
    """Tensor reflection off the walls xi_0 = 0 and xi_1 = 0, which meet at
    the origin with the source side the quarter xi_0, xi_1 >= 0.

    The inner extension clears the second wall for every probe the outer one
    emits; the per-axis derivative factors compose independently, so
    products s^p t^q with p, q <= i are still reproduced exactly.
    """
    coeffs = solve_coefficients(i)
    inner = HalfSpaceExtension(coeffs, source, axis=1, max_depth=max_depth)
    return HalfSpaceExtension(coeffs, inner.jet_many, max_depth=max_depth)


@dataclass(eq=False)
class LatticeExtensionResult:
    """Extended lattice jet plus the accounting the nearest-sample rule costs.

    probe_offset_max is the largest distance between an exact reflected depth
    t/l and the lattice sample actually used; it is O(h) and exactly 0 when
    every depth divides evenly (as it does for l = 1).
    """

    jet: SampledJet
    probe_offset_max: float


def extend_half_space_lattice(
    jet: SampledJet,
    coeffs: HestenesCoefficients,
    width: int,
    axis: int,
    boundary: float,
    inward: float,
) -> LatticeExtensionResult:
    """Continue a sampled jet `width` lattice steps past the wall.

    The lines more than h/4 past the wall are HalfSpaceExtension over the
    sampled jet, each reflected depth read at the nearest lattice line (half
    even, in the widened grid's frame); a band point joins the mask when all
    its probes are on the jet's mask.  Raises MaskMismatch when the mask
    reaches past the wall, ProbeOutsideMask when the band would reach deeper
    than the data or a probe falls off the grid.
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
    if np.compress(sign * (old_coords - boundary) < -0.25 * h,
                   jet.mask.member, axis=axis).any():
        raise MaskMismatchError(
            "source mask has members past the wall; it must sit on one side"
        )
    # the window grows by `width` lines on the outward side of the wall
    origin = list(jet.grid.origin)
    pad = [(0, 0)] * jet.grid.dim
    pad[axis] = (width, 0) if sign > 0 else (0, width)
    if sign > 0:
        origin[axis] = float(old_coords[0]) - width * h
    grid = GridSpec(tuple(origin), h, tuple(
        n + sum(p) for n, p in zip(jet.grid.extents, pad)))
    # the depths of its end lines, as axis_coords computes them, decide the
    # refusal before anything window-sized is allocated
    ends = sign * (grid.origin[axis]
                   + np.array([0, grid.extents[axis] - 1]) * h - boundary)
    deepest = -float(ends[0 if sign > 0 else 1])
    source_depth = max(0.0, float(ends.max()))
    if deepest > source_depth + 0.5 * h:
        raise ProbeOutsideMaskError(
            f"band reaches depth {deepest:.6g} but the source data stops at "
            f"{source_depth:.6g}; refusing to extrapolate"
        )
    member = np.pad(jet.mask.member, pad)
    components = {alpha: np.pad(arr, pad)
                  for alpha, arr in jet.components.items()}
    coords = grid.axis_coords(axis)
    offsets = [0.0]

    def nearest(pts: np.ndarray, order: int) -> Jet:
        """The widened jet at the nearest lattice point, NaN off the mask."""
        index = np.rint((pts - grid.origin) / h).astype(np.intp)
        off = ((index < 0) | (index >= grid.extents)).any(axis=-1)
        if off.any():
            raise ProbeOutsideMaskError(
                f"probe at axis coordinate {pts[off.argmax(), axis]:.6g} "
                f"falls off the grid"
            )
        index = tuple(index.T)
        offsets.append(float(np.max(np.abs(coords[index[axis]] - pts[:, axis]),
                                    initial=0.0)))
        return {alpha: np.where(member[index], arr[index], np.nan)
                for alpha, arr in components.items()}

    band = sign * (coords - boundary) < -0.25 * h
    lines = band.reshape([-1 if a == axis else 1 for a in range(grid.dim)])
    where = np.nonzero(np.broadcast_to(lines, grid.extents))
    values = HalfSpaceExtension(coeffs, nearest, axis, boundary, sign).jet_many(
        grid.points(where), jet.order)
    covered = ~np.isnan(values[(0,) * grid.dim])
    hit = tuple(i[covered] for i in where)
    for alpha, arr in components.items():
        arr[hit] = values[alpha][covered]
    member[hit] = True
    out = SampledJet(jet.order, GridMask(grid, member), components)
    return LatticeExtensionResult(out, max(offsets))


def interface_mismatch(ext: HalfSpaceExtension, tangential,
                       h: float) -> dict[int, float]:
    """One-sided derivative disagreement across the wall, per order 0..i.

    Uses second-order stencils from both sides at the given tangential
    coordinates; order 0 compares boundary-value extrapolations.  The
    disagreement of a correct order-i extension shrinks as h^2 for
    derivative orders <= i.  It differentiates the values by stencils, where
    glue.interface_jet_mismatch extrapolates each jet component: on exp1d
    at order 2, h = 2^-9 -> 2^-10, these fall by 4.03x and the component
    extrapolations by 8.01x, O(h^3), outside the [3.5, 4.5] band acceptance
    3 reads, so the two readings stay apart.
    """
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
        k: ext.jet_many(at(ext.inward * k * h), 0)[alpha0]
        for k in (-3, -2, -1, 0, 1, 2, 3)
    }
    out: dict[int, float] = {}
    for j in range(ext.order + 1):
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
