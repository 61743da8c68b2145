"""Gluing pipeline: boundary charts, local reflection extensions pulled
through the charts, a subordinate partition of unity, and the blended global
extension.

Charts map the unit ball of reference coordinates onto a neighborhood of a
boundary piece so that the domain side corresponds to the half-ball xi_0 >= 0
(or, at rectangle corners, to the quarter xi_0, xi_1 >= 0; no single C^1
chart flattens a corner, so those use a two-axis tensor reflection instead).
All reference-to-world differentiation is closed form through order 2.

The blend convention off the covered zone is zero: a window point reached by
no bump gets value 0, never an extrapolation.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import domains
from .domains import DomainSpec
from .errors import CoverGapError, UnsupportedDomainError
from .functions import AnalyticJet
from .grid import (
    GridMask, GridSpec, SampledJet, dilate_box, interior_of, multi_indices,
)
from .hestenes import (
    HalfSpaceExtension,
    corner_extension,
    extend_analytic,
)

Evaluator = Callable[[np.ndarray, tuple[int, ...]], np.ndarray]

BUMP_SHRINK = 0.9
_BUMP_GUARD = 1.0 - 1.0 / 745.0
_CHUNK_ROWS = 65536


# ---------------------------------------------------------------------------
# charts


@dataclass(eq=False)
class AffineChart:
    """phi(xi) = center + A @ xi; Jacobians constant, Hessians zero."""

    center: np.ndarray
    matrix: np.ndarray
    kind: str  # identity | edge | corner | interior
    half_exact: bool
    extension: str  # half | quarter | none

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        self._inv = np.linalg.inv(self.matrix)

    def forward(self, xi: np.ndarray) -> np.ndarray:
        return self.center + xi @ self.matrix.T

    def inverse(self, pts: np.ndarray) -> np.ndarray:
        return (pts - self.center) @ self._inv.T

    def jac_forward(self, xi: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.matrix, xi.shape[:-1] + (2, 2))

    def hess_forward(self, xi: np.ndarray) -> np.ndarray:
        return np.zeros(xi.shape[:-1] + (2, 2, 2))

    def jac_inverse(self, pts: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self._inv, pts.shape[:-1] + (2, 2))

    def hess_inverse(self, pts: np.ndarray) -> np.ndarray:
        return np.zeros(pts.shape[:-1] + (2, 2, 2))

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "center": [float(c) for c in self.center],
            "matrix": [[float(v) for v in row] for row in self.matrix],
            "half_exact": self.half_exact,
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
    kind: str = "polar"
    half_exact: bool = True
    extension: str = "half"

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)

    def _theta(self, xi: np.ndarray) -> np.ndarray:
        return self.theta_c + self.width * xi[..., 1]

    def forward(self, xi: np.ndarray) -> np.ndarray:
        th = self._theta(xi)
        r = self.radius - self.depth * xi[..., 0]
        return self.center + np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)

    def inverse(self, pts: np.ndarray) -> np.ndarray:
        v = pts - self.center
        r = np.hypot(v[..., 0], v[..., 1])
        th = np.arctan2(v[..., 1], v[..., 0])
        dth = np.mod(th - self.theta_c + np.pi, 2.0 * np.pi) - np.pi
        return np.stack(
            [(self.radius - r) / self.depth, dth / self.width], axis=-1
        )

    def jac_forward(self, xi: np.ndarray) -> np.ndarray:
        th = self._theta(xi)
        r = self.radius - self.depth * xi[..., 0]
        J = np.empty(xi.shape[:-1] + (2, 2))
        J[..., 0, 0] = -self.depth * np.cos(th)
        J[..., 1, 0] = -self.depth * np.sin(th)
        J[..., 0, 1] = -r * self.width * np.sin(th)
        J[..., 1, 1] = r * self.width * np.cos(th)
        return J

    def hess_forward(self, xi: np.ndarray) -> np.ndarray:
        th = self._theta(xi)
        r = self.radius - self.depth * xi[..., 0]
        H = np.zeros(xi.shape[:-1] + (2, 2, 2))
        dw = self.depth * self.width
        H[..., 0, 0, 1] = dw * np.sin(th)
        H[..., 0, 1, 0] = dw * np.sin(th)
        H[..., 1, 0, 1] = -dw * np.cos(th)
        H[..., 1, 1, 0] = -dw * np.cos(th)
        H[..., 0, 1, 1] = -r * self.width**2 * np.cos(th)
        H[..., 1, 1, 1] = -r * self.width**2 * np.sin(th)
        return H

    def jac_inverse(self, pts: np.ndarray) -> np.ndarray:
        v = pts - self.center
        x, y = v[..., 0], v[..., 1]
        r2 = x * x + y * y
        r = np.sqrt(r2)
        safe_r = np.where(r > 0, r, 1.0)
        safe_r2 = np.where(r2 > 0, r2, 1.0)
        J = np.empty(pts.shape[:-1] + (2, 2))
        J[..., 0, 0] = -x / (self.depth * safe_r)
        J[..., 0, 1] = -y / (self.depth * safe_r)
        J[..., 1, 0] = -y / (safe_r2 * self.width)
        J[..., 1, 1] = x / (safe_r2 * self.width)
        return J

    def hess_inverse(self, pts: np.ndarray) -> np.ndarray:
        v = pts - self.center
        x, y = v[..., 0], v[..., 1]
        r2 = x * x + y * y
        safe = np.where(r2 > 0, r2, 1.0)
        r3 = safe ** 1.5
        r4 = safe * safe
        H = np.empty(pts.shape[:-1] + (2, 2, 2))
        H[..., 0, 0, 0] = -(y * y) / (self.depth * r3)
        H[..., 0, 0, 1] = x * y / (self.depth * r3)
        H[..., 0, 1, 0] = x * y / (self.depth * r3)
        H[..., 0, 1, 1] = -(x * x) / (self.depth * r3)
        H[..., 1, 0, 0] = 2.0 * x * y / (self.width * r4)
        H[..., 1, 0, 1] = (y * y - x * x) / (self.width * r4)
        H[..., 1, 1, 0] = (y * y - x * x) / (self.width * r4)
        H[..., 1, 1, 1] = -2.0 * x * y / (self.width * r4)
        return H

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


def chart_ball_radius(chart: Chart, pts: np.ndarray) -> np.ndarray:
    xi = chart.inverse(np.asarray(pts, dtype=np.float64))
    return np.hypot(xi[..., 0], xi[..., 1])


def chart_image_contains(chart: Chart, pts: np.ndarray) -> np.ndarray:
    return chart_ball_radius(chart, pts) < 1.0


def chart_roundtrip_defect(chart: Chart, pts: np.ndarray) -> float:
    """max |phi(phi^-1(p)) - p| over the sample; identity check currency."""
    back = chart.forward(chart.inverse(pts))
    return float(np.max(np.abs(back - pts))) if len(pts) else 0.0


def make_charts(spec: DomainSpec) -> list[Chart]:
    """Finite atlas covering the boundary of a chartable domain.

    half_ball: one identity chart around the flat face.  rectangle: four
    edge charts plus four corner charts.  disk: four overlapping annular
    sectors.  The pathological kinds are refused: their boundary is the
    obstruction, not an implementation gap.
    """
    kind = spec.kind
    if kind == "half_ball":
        return [
            AffineChart((0.0, 0.0), np.eye(2), "identity", True, "half")
        ]
    if kind == "rectangle":
        (x0, x1), (y0, y1) = spec.bounds
        lx, ly = x1 - x0, y1 - y0
        m = min(lx, ly)
        normal = 0.7 * m
        r_c = 0.9 * m
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        charts: list[Chart] = [
            AffineChart((cx, y0), [[0.0, lx / 2], [normal, 0.0]],
                        "edge", True, "half"),
            AffineChart((x1, cy), [[-normal, 0.0], [0.0, ly / 2]],
                        "edge", True, "half"),
            AffineChart((cx, y1), [[0.0, lx / 2], [-normal, 0.0]],
                        "edge", True, "half"),
            AffineChart((x0, cy), [[normal, 0.0], [0.0, ly / 2]],
                        "edge", True, "half"),
        ]
        for corner, (sx, sy) in (
            ((x0, y0), (1.0, 1.0)),
            ((x1, y0), (-1.0, 1.0)),
            ((x1, y1), (-1.0, -1.0)),
            ((x0, y1), (1.0, -1.0)),
        ):
            charts.append(
                AffineChart(corner, [[sx * r_c, 0.0], [0.0, sy * r_c]],
                            "corner", False, "quarter")
            )
        return charts
    if kind == "disk":
        cx, cy = spec.center
        charts = []
        for k in range(4):
            charts.append(
                PolarSectorChart(
                    (cx, cy),
                    spec.radius,
                    theta_c=k * math.pi / 2.0,
                    width=0.35 * math.pi,
                    depth=0.5 * spec.radius,
                )
            )
        return charts
    raise UnsupportedDomainError(
        f"domain kind {kind!r} has no chartable boundary"
    )


def _interior_chart(spec: DomainSpec) -> AffineChart:
    """Pseudo-chart whose 0.9-ball carries the interior bump, well inside Q."""
    if spec.kind == "half_ball":
        return AffineChart((0.45, 0.0), [[0.4, 0.0], [0.0, 0.55]],
                           "interior", False, "none")
    if spec.kind == "rectangle":
        (x0, x1), (y0, y1) = spec.bounds
        return AffineChart(
            (0.5 * (x0 + x1), 0.5 * (y0 + y1)),
            [[0.45 * (x1 - x0), 0.0], [0.0, 0.45 * (y1 - y0)]],
            "interior", False, "none",
        )
    if spec.kind == "disk":
        r = 0.8 * spec.radius
        return AffineChart(spec.center, [[r, 0.0], [0.0, r]],
                           "interior", False, "none")
    raise UnsupportedDomainError(f"no interior bump for {spec.kind!r}")


# ---------------------------------------------------------------------------
# chain rule through a map, closed form to order 2


def _unit_alpha(axis: int, dim: int = 2) -> tuple[int, ...]:
    return tuple(1 if k == axis else 0 for k in range(dim))


def _pair_alpha(a: int, b: int, dim: int = 2) -> tuple[int, ...]:
    out = [0] * dim
    out[a] += 1
    out[b] += 1
    return tuple(out)


def _axis_pair(alpha: tuple[int, ...]) -> tuple[int, int]:
    axes = []
    for k, a in enumerate(alpha):
        axes.extend([k] * a)
    return axes[0], axes[1]


def chain_eval(f: Evaluator, mapped: np.ndarray, jac: np.ndarray | None,
               hess: np.ndarray | None, alpha: tuple[int, ...]) -> np.ndarray:
    """Partial of f composed with a map, given the map's jet at the points."""
    total = sum(alpha)
    if total == 0:
        return f(mapped, alpha)
    dim = len(alpha)
    if total == 1:
        c = alpha.index(1)
        out = np.zeros(mapped.shape[:-1])
        for a in range(dim):
            out += f(mapped, _unit_alpha(a, dim)) * jac[..., a, c]
        return out
    if total == 2:
        c, d = _axis_pair(alpha)
        out = np.zeros(mapped.shape[:-1])
        for a in range(dim):
            for b in range(dim):
                out += (
                    f(mapped, _pair_alpha(a, b, dim))
                    * jac[..., a, c]
                    * jac[..., b, d]
                )
            out += f(mapped, _unit_alpha(a, dim)) * hess[..., a, c, d]
        return out
    raise ValueError("chart differentiation is closed-form through order 2")


def pullback(source: Evaluator, chart: Chart) -> Evaluator:
    """u = x o phi on reference coordinates."""

    def u(xi: np.ndarray, alpha: tuple[int, ...]) -> np.ndarray:
        total = sum(alpha)
        mapped = chart.forward(xi)
        jac = chart.jac_forward(xi) if total >= 1 else None
        hess = chart.hess_forward(xi) if total >= 2 else None
        return chain_eval(source, mapped, jac, hess, tuple(alpha))

    return u


def pushforward(ball_eval: Evaluator, chart: Chart) -> Evaluator:
    """y = ubar o phi^-1 back on world coordinates."""

    def y(pts: np.ndarray, alpha: tuple[int, ...]) -> np.ndarray:
        total = sum(alpha)
        xi = chart.inverse(pts)
        jac = chart.jac_inverse(pts) if total >= 1 else None
        hess = chart.hess_inverse(pts) if total >= 2 else None
        return chain_eval(ball_eval, xi, jac, hess, tuple(alpha))

    return y


@dataclass(eq=False)
class LocalExtension:
    """One chart's extended field y = ubar o phi^-1, world coordinates.

    Valid inside the chart image; the blend only ever queries it inside the
    0.9-ball where its bump is positive.
    """

    chart: Chart
    order: int
    source: Evaluator
    reflected: HalfSpaceExtension
    world: Evaluator

    def partial_many(self, pts, alpha) -> np.ndarray:
        return self.world(np.asarray(pts, dtype=np.float64), tuple(alpha))


def local_extend(source: Evaluator, chart: Chart, order: int) -> LocalExtension:
    u = pullback(source, chart)
    pad = 1.0 + 1e-9
    if chart.extension == "quarter":
        reflected = corner_extension(u, order, max_depth=pad)
    elif chart.extension == "half":
        reflected = extend_analytic(u, order, axis=0, max_depth=pad)
    else:
        raise UnsupportedDomainError(
            f"chart kind {chart.kind!r} does not carry an extension"
        )
    return LocalExtension(chart, order, source, reflected,
                          pushforward(reflected.partial_many, chart))


# ---------------------------------------------------------------------------
# bumps and the partition of unity


def bump_ball_partials(xi: np.ndarray, alpha: tuple[int, ...]) -> np.ndarray:
    """Partials of exp(-1/(1 - (|xi|/0.9)^2)) in reference coordinates.

    Hard zero (all orders) once the exponent would underflow; the true value
    there is below 5e-324 so nothing is lost.
    """
    c2 = BUMP_SHRINK**2
    q = (xi[..., 0] ** 2 + xi[..., 1] ** 2) / c2
    act = q < _BUMP_GUARD
    qa = np.where(act, q, 0.0)
    w = 1.0 / (1.0 - qa)
    f = np.where(act, np.exp(-w), 0.0)
    total = sum(alpha)
    if total == 0:
        return f
    f1 = -f * w**2
    if total == 1:
        c = alpha.index(1)
        return f1 * (2.0 * xi[..., c] / c2)
    if total == 2:
        cc, dd = _axis_pair(alpha)
        f2 = f * w**4 - 2.0 * f * w**3
        out = f2 * (2.0 * xi[..., cc] / c2) * (2.0 * xi[..., dd] / c2)
        if cc == dd:
            out = out + f1 * (2.0 / c2)
        return out
    raise ValueError("bump partials available through order 2")


@dataclass(eq=False)
class Bump:
    """Unnormalized bump riding on one chart's reference ball."""

    chart: Chart
    index: int
    label: str

    def raw_many(self, pts: np.ndarray, alpha: tuple[int, ...]) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        rho = chart_ball_radius(self.chart, pts)
        near = rho < BUMP_SHRINK
        out = np.zeros(pts.shape[:-1])
        if near.any():
            sub = pts[near]
            total = sum(alpha)
            xi = self.chart.inverse(sub)
            jac = self.chart.jac_inverse(sub) if total >= 1 else None
            hess = self.chart.hess_inverse(sub) if total >= 2 else None
            out[near] = chain_eval(bump_ball_partials, xi, jac, hess,
                                   tuple(alpha))
        return out

    def support_contains(self, pts: np.ndarray) -> np.ndarray:
        return chart_ball_radius(self.chart, pts) < BUMP_SHRINK


def _required_boundary(spec: DomainSpec, mask: GridMask) -> np.ndarray:
    """Boundary lattice points the atlas must cover.

    For half_ball only the flat face is charted (the curved arc is scenery,
    not the wall under study), so the requirement restricts to it.
    """
    inner = mask.member & ~interior_of(mask).member
    if spec.kind != "half_ball":
        return inner
    # Single chart, bump support radius 0.9: the face endpoints (0, +-1)
    # sit outside any bump, so the coverage claim stops short of them.
    s, t = mask.grid.coord_grids()
    flat = (s <= mask.grid.h * 0.5) & (np.abs(t) <= 0.85)
    return inner & flat


@dataclass(eq=False)
class BumpPartition:
    """Normalized partition chi_nu = b_nu / sum(b) where the sum is positive.

    assignment[nu] is the least index among the local-extension domains
    (chart images first, then Q itself) containing bump nu's support on the
    check lattice.
    """

    spec: DomainSpec
    order: int
    charts: list[Chart]
    bumps: list[Bump]
    assignment: list[int]
    sum_residual: float
    checked_points: int
    grid: GridSpec

    def raw_all(self, pts: np.ndarray,
                alphas: list[tuple[int, ...]]) -> list[dict]:
        return [
            {alpha: b.raw_many(pts, alpha) for alpha in alphas}
            for b in self.bumps
        ]

    def chi_many(self, nu: int, pts, alpha) -> np.ndarray:
        """Normalized bump partial; zero wherever the bump sum vanishes."""
        pts = np.asarray(pts, dtype=np.float64)
        alpha = tuple(alpha)
        betas = [b for b in multi_indices(sum(alpha), 2)]
        raw = self.raw_all(pts, betas)
        S = {b: sum(r[b] for r in raw) for b in betas}
        return _chi_from_raw(raw[nu], S, alpha)


def _chi_from_raw(raw_nu: dict, S: dict, alpha: tuple[int, ...]) -> np.ndarray:
    """Quotient rule for b/S with the convention 0 where S = 0.

    Every term is built from ratios (raw/S, S_beta/S); powers of S as
    denominators would underflow in the bump tails where S ~ 1e-300.
    """
    s0 = S[(0, 0)]
    covered = s0 > 0.0
    s_safe = np.where(covered, s0, 1.0)

    def r(term: dict, beta: tuple[int, ...]) -> np.ndarray:
        return term[beta] / s_safe

    total = sum(alpha)
    if total == 0:
        out = r(raw_nu, (0, 0))
    elif total == 1:
        out = r(raw_nu, alpha) - r(raw_nu, (0, 0)) * r(S, alpha)
    elif total == 2:
        c, d = _axis_pair(alpha)
        ec, ed = _unit_alpha(c), _unit_alpha(d)
        q0 = r(raw_nu, (0, 0))
        out = (
            r(raw_nu, alpha)
            - r(raw_nu, ec) * r(S, ed)
            - r(raw_nu, ed) * r(S, ec)
            - q0 * r(S, alpha)
            + 2.0 * q0 * r(S, ec) * r(S, ed)
        )
    else:
        raise ValueError("partition partials available through order 2")
    return np.where(covered, out, 0.0)


def build_partition(charts: list[Chart], spec: DomainSpec, order: int,
                    grid: GridSpec | None = None) -> BumpPartition:
    """Bumps on every chart plus one interior bump, normalized and checked.

    The lattice argument fixes where the subordination and cover checks run;
    the default is a coarse grid over the domain's bounding box plus margin.
    Raises CoverGap if some required boundary lattice point has zero bump
    sum.
    """
    if grid is None:
        lo, hi = _bbox(spec)
        pad = 0.125
        grid = GridSpec.cover(
            (lo[0] - pad, lo[1] - pad), (hi[0] + pad, hi[1] + pad), 2.0**-6
        )
    bumps = [
        Bump(chart, nu, f"{chart.kind}-{nu}")
        for nu, chart in enumerate(charts)
    ]
    interior = _interior_chart(spec)
    bumps.append(Bump(interior, len(charts), "interior"))

    s, t = grid.coord_grids()
    pts = np.stack([s.ravel(), t.ravel()], axis=-1)
    q_member = domains.regular_q_member(spec, pts[:, 0], pts[:, 1])
    q_mask = GridMask(grid, q_member.reshape(grid.extents))

    raw0 = [b.raw_many(pts, (0, 0)) for b in bumps]
    total0 = sum(raw0)

    required = _required_boundary(spec, q_mask).ravel()
    uncovered = required & ~(total0 > 0.0)
    if uncovered.any():
        where = pts[uncovered][0]
        raise CoverGapError(
            f"{int(uncovered.sum())} required boundary lattice points have "
            f"zero bump sum, first at ({where[0]:.6g}, {where[1]:.6g})"
        )

    # subordination: least covering domain per bump, checked on the lattice
    image_preds = [chart_image_contains(c, pts) for c in charts]
    image_preds.append(q_member)
    assignment = []
    for nu, b in enumerate(bumps):
        supp = b.support_contains(pts)
        chosen = None
        for i, dom in enumerate(image_preds):
            if not (supp & ~dom).any():
                chosen = i
                break
        if chosen is None:
            raise CoverGapError(
                f"bump {b.label} is not subordinate to any extension domain"
            )
        assignment.append(chosen)

    # residual of sum(chi) - 1 on the two-sided boundary collar
    collar = _boundary_collar(q_mask, width=0.05)
    collar = _restrict_flat(collar, spec, grid)
    collar_pts = pts[collar.ravel()]
    if len(collar_pts):
        s0 = np.zeros(len(collar_pts))
        for b in bumps:
            s0 += b.raw_many(collar_pts, (0, 0))
        if not (s0 > 0.0).all():
            bad = collar_pts[~(s0 > 0.0)][0]
            raise CoverGapError(
                f"boundary collar point ({bad[0]:.6g}, {bad[1]:.6g}) has "
                "zero bump sum"
            )
        chi_sum = np.zeros(len(collar_pts))
        for b in bumps:
            chi_sum += b.raw_many(collar_pts, (0, 0)) / s0
        residual = float(np.max(np.abs(chi_sum - 1.0)))
    else:
        residual = 0.0
    return BumpPartition(
        spec, order, list(charts), bumps, assignment, residual,
        int(len(collar_pts)), grid,
    )


def _bbox(spec: DomainSpec) -> tuple[tuple[float, float], tuple[float, float]]:
    if spec.kind == "rectangle":
        (x0, x1), (y0, y1) = spec.bounds
        return (x0, y0), (x1, y1)
    if spec.kind == "disk":
        cx, cy = spec.center
        r = spec.radius
        return (cx - r, cy - r), (cx + r, cy + r)
    if spec.kind == "half_ball":
        return (0.0, -1.0), (1.0, 1.0)
    raise UnsupportedDomainError(f"no bounding box for {spec.kind!r}")


def _boundary_collar(q_mask: GridMask, width: float) -> np.ndarray:
    inner = q_mask.member & ~interior_of(q_mask).member
    steps = max(1, int(math.ceil(width / q_mask.grid.h)))
    return dilate_box(inner, steps)


def _restrict_flat(collar: np.ndarray, spec: DomainSpec,
                   grid: GridSpec) -> np.ndarray:
    if spec.kind != "half_ball":
        return collar
    s, t = grid.coord_grids()
    return collar & (np.abs(s) <= 0.2) & (np.abs(t) <= 0.85)


# ---------------------------------------------------------------------------
# the glued global field


@dataclass(eq=False)
class GlobalField:
    """The extension as an evaluator: x itself on Q, the blend outside.

    Outside Q the value is sum over bumps of chi_nu times the assigned local
    extension, assembled by the Leibniz rule; points no bump reaches are 0.
    """

    spec: DomainSpec
    order: int
    source: AnalyticJet
    charts: list[Chart]
    partition: BumpPartition
    local_exts: list[LocalExtension]

    def jet_many(self, pts, alphas: list[tuple[int, ...]]) -> dict:
        pts = np.asarray(pts, dtype=np.float64)
        in_q = domains.regular_q_member(self.spec, pts[..., 0], pts[..., 1])
        out = {alpha: np.zeros(pts.shape[:-1]) for alpha in alphas}
        if in_q.any():
            sub = pts[in_q]
            for alpha in alphas:
                out[alpha][in_q] = self.source.partial_many(sub, alpha)
        outside = ~in_q
        if not outside.any():
            return out
        pout = pts[outside]
        max_total = max(sum(a) for a in alphas)
        betas = multi_indices(min(2, max_total), 2)
        raw = self.partition.raw_all(pout, betas)
        S = {b: sum(r[b] for r in raw) for b in betas}
        acc = {alpha: np.zeros(len(pout)) for alpha in alphas}
        for nu, bump in enumerate(self.partition.bumps):
            sel = raw[nu][(0, 0)] > 0.0
            if not sel.any():
                continue
            sub = pout[sel]
            raw_sel = {b: raw[nu][b][sel] for b in betas}
            S_sel = {b: S[b][sel] for b in betas}
            target = self._assigned(nu)
            y_cache: dict[tuple[int, ...], np.ndarray] = {}
            for alpha in alphas:
                term = np.zeros(len(sub))
                for beta, gamma, coeff in _leibniz_terms(alpha):
                    chi_b = _chi_from_raw(raw_sel, S_sel, beta)
                    if gamma not in y_cache:
                        y_cache[gamma] = target(sub, gamma)
                    term += coeff * chi_b * y_cache[gamma]
                acc[alpha][sel] += term
        for alpha in alphas:
            out[alpha][outside] = acc[alpha]
        return out

    def _assigned(self, nu: int) -> Evaluator:
        i_nu = self.partition.assignment[nu]
        if i_nu < len(self.local_exts):
            return self.local_exts[i_nu].partial_many
        return self.source.partial_many

    def partial_many(self, pts, alpha) -> np.ndarray:
        return self.jet_many(pts, [tuple(alpha)])[tuple(alpha)]

    def partial(self, point, alpha) -> float:
        pts = np.asarray(point, dtype=np.float64).reshape(1, 2)
        return float(self.partial_many(pts, alpha)[0])


def _leibniz_terms(alpha: tuple[int, ...]):
    terms = []
    for b0 in range(alpha[0] + 1):
        for b1 in range(alpha[1] + 1):
            beta = (b0, b1)
            gamma = (alpha[0] - b0, alpha[1] - b1)
            coeff = float(math.comb(alpha[0], b0) * math.comb(alpha[1], b1))
            terms.append((beta, gamma, coeff))
    return terms


@dataclass(eq=False)
class GlobalExtensionResult:
    field: GlobalField
    jet: SampledJet | None
    q_mask: GridMask | None
    window: GridSpec | None
    sum_residual: float
    uncovered_points: int


def _worker_count(workers: int | None) -> int:
    if workers is not None:
        return max(1, workers)
    env = os.environ.get("JETLAB_THREADS", "1")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def _eval_chunked(field: GlobalField, pts: np.ndarray,
                  alphas: list[tuple[int, ...]],
                  workers: int) -> dict:
    """Fixed-size chunks so results are identical for any worker count."""
    n = len(pts)
    out = {alpha: np.zeros(n) for alpha in alphas}
    spans = [(k, min(k + _CHUNK_ROWS, n)) for k in range(0, n, _CHUNK_ROWS)]

    def run(span):
        lo, hi = span
        return lo, hi, field.jet_many(pts[lo:hi], alphas)

    if workers <= 1 or len(spans) <= 1:
        results = map(run, spans)
        for lo, hi, chunk in results:
            for alpha in alphas:
                out[alpha][lo:hi] = chunk[alpha]
        return out
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for lo, hi, chunk in pool.map(run, spans):
            for alpha in alphas:
                out[alpha][lo:hi] = chunk[alpha]
    return out


def global_extend(x: AnalyticJet, spec: DomainSpec, order: int,
                  h: float = 2.0**-5, margin: float = 0.5,
                  workers: int | None = None,
                  materialize: bool = True) -> GlobalExtensionResult:
    """Glue local reflections into one field over a margin-padded window.

    Values on Q-lattice points come straight from x; the blend only fills
    the complement.  materialize=False skips the lattice pass and returns
    the field alone (the interface scan needs nothing else).
    """
    if order > 2:
        raise ValueError(
            "chartable extension is closed-form through order 2; "
            "the flat-wall operator alone goes higher"
        )
    charts = make_charts(spec)
    lo, hi = _bbox(spec)
    steps = max(1, int(math.ceil(margin / h - 1e-9)))
    window = GridSpec.cover(
        (lo[0] - steps * h, lo[1] - steps * h),
        (hi[0] + steps * h, hi[1] + steps * h),
        h,
    )
    partition = build_partition(charts, spec, order, grid=window)
    locals_ = [
        local_extend(x.partial_many, chart, order) for chart in charts
    ]
    field = GlobalField(spec, order, x, charts, partition, locals_)
    if not materialize:
        return GlobalExtensionResult(
            field, None, None, window, partition.sum_residual, 0
        )
    s, t = window.coord_grids()
    pts = np.stack([s.ravel(), t.ravel()], axis=-1)
    q_member = domains.regular_q_member(spec, pts[:, 0], pts[:, 1])
    q_mask = GridMask(window, q_member.reshape(window.extents))
    alphas = multi_indices(order, 2)
    values = _eval_chunked(field, pts, alphas, _worker_count(workers))
    components = {
        alpha: values[alpha].reshape(window.extents) for alpha in alphas
    }
    all_mask = GridMask(window, np.ones(window.extents, dtype=bool))
    jet = SampledJet(order, window, all_mask, components)
    # count window points the blend could not reach (value convention 0)
    raw0 = [b.raw_many(pts[~q_member], (0, 0)) for b in partition.bumps]
    uncovered = int((sum(raw0) <= 0.0).sum()) if len(raw0) else 0
    return GlobalExtensionResult(
        field, jet, q_mask, window, partition.sum_residual, uncovered
    )


# ---------------------------------------------------------------------------
# interface scan


def _boundary_probes(spec: DomainSpec, n_probes: int):
    """(point, outward normal) pairs along the boundary, corners excluded."""
    if spec.kind == "disk":
        cx, cy = spec.center
        r = spec.radius
        thetas = (np.arange(n_probes) + 0.5) * (2.0 * np.pi / n_probes)
        normals = np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
        pts = np.array([cx, cy]) + r * normals
        return pts, normals
    if spec.kind == "rectangle":
        (x0, x1), (y0, y1) = spec.bounds
        per = max(4, n_probes // 4)
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
    if spec.kind == "half_ball":
        ts = np.linspace(-0.85, 0.85, n_probes)
        pts = np.stack([np.zeros_like(ts), ts], axis=-1)
        normals = np.tile([-1.0, 0.0], (n_probes, 1))
        return pts, normals
    raise UnsupportedDomainError(f"no boundary probes for {spec.kind!r}")


def interface_jet_mismatch(field: GlobalField, h: float = 2.0**-10,
                           n_probes: int = 256) -> dict[tuple[int, ...], float]:
    """Per-component disagreement of one-sided boundary extrapolations.

    For each probe, every jet component is extrapolated to the boundary
    point from three samples inside and three outside along the normal
    (second-order extrapolation 3f(h) - 3f(2h) + f(3h)); the mismatch is
    the largest absolute difference.  O(h^2) for a C^1-matched extension.
    """
    pts, normals = _boundary_probes(field.spec, n_probes)
    alphas = multi_indices(field.order, 2)
    samples_in = [
        field.jet_many(pts - k * h * normals, alphas) for k in (1, 2, 3)
    ]
    samples_out = [
        field.jet_many(pts + k * h * normals, alphas) for k in (1, 2, 3)
    ]
    out = {}
    for alpha in alphas:
        inner = (
            3.0 * samples_in[0][alpha]
            - 3.0 * samples_in[1][alpha]
            + samples_in[2][alpha]
        )
        outer = (
            3.0 * samples_out[0][alpha]
            - 3.0 * samples_out[1][alpha]
            + samples_out[2][alpha]
        )
        out[alpha] = float(np.max(np.abs(outer - inner)))
    return out
