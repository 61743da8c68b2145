"""Gluing pipeline: boundary charts, local reflection extensions pulled
through the charts, a subordinate partition of unity, and the blended global
extension.

The charts come from the domain (jetlab.domains).  Each maps the unit ball of
reference coordinates onto a neighborhood of a boundary piece so that the
domain side corresponds to the half-ball xi_0 >= 0 (or, at rectangle corners,
to the quarter xi_0, xi_1 >= 0; no single C^1 chart flattens a corner, so
those use a two-axis tensor reflection instead).

Every layer is a plain jet evaluator of jetlab.grid or a function of a
chart: a local extension is the reflected pullback pushed forward through
its chart, a bump is its chart (bump_jet), and the global field pairs each
bump with one extension.  Each layer asks its source for one whole jet per
point set and differentiates it in jetlab.taylor's arithmetic, at any
order up to ORDER_CAP.  A window point off Q that no bump reaches gets
value 0, never an extrapolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import domains, taylor
from .domains import Chart, Domain
from .errors import CoverGapError, UnsupportedDomainError
from .functions import AnalyticJet
from .grid import (
    GridMask, GridSpec, Jet, JetEvaluator, SampledJet, dilate_box,
    interior_of, multi_indices, sample,
)
from .hestenes import HalfSpaceExtension, corner_extension, solve_coefficients

BUMP_SHRINK = 0.9
ORDER_CAP = 4  # the highest order the glue's tests verify


# ---------------------------------------------------------------------------
# local extensions through a chart


def _compose(f: JetEvaluator, mapping: Callable) -> JetEvaluator:
    """f o mapping, a chart's Taylor call, whose series is built once f
    has returned and whose value is dropped once the series is built."""

    def composed(pts: np.ndarray, order: int) -> Jet:
        value, series = mapping(pts)
        f_jet = f(value, order)
        delta = series(order)
        del value, series
        return taylor.substitute(f_jet, delta, order, 2)

    return composed


def local_extend(source: JetEvaluator, chart: Chart,
                 order: int) -> JetEvaluator:
    """One chart's extended field y = ubar o phi^-1, world coordinates,
    where ubar reflects the pullback u = x o phi on reference coordinates;
    valid inside the chart image, where the blend queries it only inside
    the 0.9-ball that the chart's bump is positive on."""
    u = _compose(source, chart.forward_taylor)
    pad = 1.0 + 1e-9
    if chart.extension == "quarter":
        reflected = corner_extension(u, order, max_depth=pad)
    elif chart.extension == "half":
        reflected = HalfSpaceExtension(solve_coefficients(order), u,
                                       max_depth=pad)
    else:
        raise UnsupportedDomainError(
            f"chart kind {chart.kind!r} does not carry an extension"
        )
    return _compose(reflected.jet_many, chart.inverse_taylor)


# ---------------------------------------------------------------------------
# bumps and the partition of unity


def bump_ball_jet(xi: np.ndarray, order: int) -> Jet:
    """Partials of exp(-1/u) at the polynomial u = 1 - |xi|^2 / 0.9^2, in
    reference coordinates: taylor.exp_neg_recip, hard zero (all orders)
    past its cutoff."""
    c2 = BUMP_SHRINK**2
    u0 = 1.0 - (xi[..., 0] ** 2 + xi[..., 1] ** 2) / c2
    u = taylor.from_jet({(0, 0): u0, (1, 0): -2.0 * xi[..., 0] / c2,
                         (0, 1): -2.0 * xi[..., 1] / c2, (2, 0): -2.0 / c2,
                         (0, 2): -2.0 / c2}, order)
    return taylor.to_jet(taylor.exp_neg_recip(u, order, 2), order, 2)


def bump_jet(chart: Chart, pts: np.ndarray,
             order: int) -> tuple[np.ndarray, Jet]:
    """Unnormalized bump riding on the chart's reference ball at the (n, 2)
    world points; each chart, the interior one included, carries one.  The
    points inside chart.box() are mapped through the chart's inverse once,
    which gives their reference radius and the bump's jet at those of
    radius below BUMP_SHRINK (zero at the others); the points outside it
    get radius inf."""
    (x0, y0), (x1, y1) = chart.box()
    s, t = pts[:, 0], pts[:, 1]
    boxed = np.flatnonzero((s >= x0) & (s <= x1) & (t >= y0) & (t <= y1))
    xi, series = chart.inverse_taylor(pts[boxed])
    radius = np.hypot(xi[:, 0], xi[:, 1])
    rho = np.full(len(pts), np.inf)
    rho[boxed] = radius
    near = radius < BUMP_SHRINK
    return rho, taylor.substitute(bump_ball_jet(xi[near], order),
                                  series(order, near), order, 2)


@dataclass(eq=False)
class BumpPartition:
    """Normalized partition chi_nu = b_nu / sum(b) where the sum is positive.

    Bump nu rides on charts[nu]: the boundary charts, then the domain's
    interior chart.  assignment[nu] is the least index among the
    local-extension domains (chart images first, then Q itself) containing
    bump nu's support on the check lattice; q_mask is Q on that lattice, and
    unreached the lattice points where every bump vanishes.
    """

    charts: list[Chart]
    assignment: list[int]
    sum_residual: float
    checked_points: int
    q_mask: GridMask
    unreached: GridMask


def _chi(b: np.ndarray, S: np.ndarray, order: int) -> np.ndarray:
    """The series of one bump's b/S where S_0 > 0, by taylor.div, which
    forms no power of S_0 (~1e-300 in the bump tails).  Past the value the
    numerator is the smaller of b and S - b (b/S = 1 - (S - b)/S), whose
    terms cancel less near a support's edge: where one bump alone reaches,
    chi is exactly 1."""
    flip = S[0] - b[0] < b[0]
    chi = taylor.div(np.where(flip, S - b, b), S, order, 2)
    chi[1:] *= np.where(flip, -1.0, 1.0)
    chi[0] = b[0] / S[0]
    return chi


def build_partition(charts: list[Chart], domain: Domain,
                    grid: GridSpec) -> BumpPartition:
    """Bumps on every chart plus one interior bump, normalized and checked.

    The subordination and cover checks run on the lattice grid, where Q and
    the charted faces are read on lattice lines, as build_domain reads them.
    Raises CoverGap if some required boundary lattice point has zero bump
    sum.
    """
    charts = [*charts, domain.interior_chart()]

    axes = np.ix_(*(grid.axis_coords(a) for a in range(grid.dim)))
    q_mask = GridMask(grid, np.broadcast_to(domain.q(*axes), grid.extents))
    # Q's lattice boundary; the two-sided collar around it is where
    # sum(chi) - 1 is measured
    ring = q_mask.member & ~interior_of(q_mask).member
    steps = max(1, int(math.ceil(0.05 / grid.h)))
    collar = (dilate_box(ring, steps) & domain.charted(*axes, 0.2)).ravel()
    # boundary lattice points the atlas must cover
    required = (ring & domain.charted(*axes, 0.5 * grid.h)).ravel()
    pts = grid.points(np.indices(grid.extents).reshape(grid.dim, -1))

    # the reference radius of each chart's bump gives its support (the
    # 0.9-ball) and its image (the unit ball)
    supports, images, collar_bumps = [], [], []
    bump_sum = np.zeros(len(pts))
    for chart in charts:
        rho, jet = bump_jet(chart, pts, 0)
        near = rho < BUMP_SHRINK
        supports.append(near)
        images.append(rho < 1.0)
        bump = np.zeros(len(pts))
        bump[near] = jet[(0, 0)]
        bump_sum += bump
        collar_bumps.append(bump[collar])
    unreached = ~(bump_sum > 0.0)

    uncovered = required & unreached
    if uncovered.any():
        where = pts[uncovered][0]
        raise CoverGapError(
            f"{int(uncovered.sum())} required boundary lattice points have "
            f"zero bump sum, first at ({where[0]:.6g}, {where[1]:.6g})"
        )

    # subordination: least covering domain per bump, checked on the lattice
    extension_domains = images[:-1] + [q_mask.member.ravel()]
    assignment = []
    for nu, supp in enumerate(supports):
        chosen = next((i for i, dom in enumerate(extension_domains)
                       if not (supp & ~dom).any()), None)
        if chosen is None:
            raise CoverGapError(
                f"bump {nu} ({charts[nu].kind} chart) is not subordinate to "
                "any extension domain"
            )
        assignment.append(chosen)

    # residual of sum(chi) - 1 on the collar
    collar_pts = pts[collar]
    if len(collar_pts):
        s0 = bump_sum[collar]
        if not (s0 > 0.0).all():
            bad = collar_pts[~(s0 > 0.0)][0]
            raise CoverGapError(
                f"boundary collar point ({bad[0]:.6g}, {bad[1]:.6g}) has "
                "zero bump sum"
            )
        chi_sum = np.zeros(len(collar_pts))
        for bump in collar_bumps:
            chi_sum += bump / s0
        residual = float(np.max(np.abs(chi_sum - 1.0)))
    else:
        residual = 0.0
    return BumpPartition(charts, assignment, residual, int(len(collar_pts)),
                         q_mask, GridMask(grid, unreached.reshape(grid.extents)))


# ---------------------------------------------------------------------------
# the glued global field


@dataclass(eq=False)
class GlobalField:
    """The extension as an evaluator: x itself on Q, the blend outside.

    extensions holds one local extension per boundary chart, then x itself
    for Q; bump nu is paired with extensions[partition.assignment[nu]].
    Outside Q the value is sum over bumps of chi_nu times that extension,
    the Cauchy product.
    """

    domain: Domain
    order: int
    charts: list[Chart]
    partition: BumpPartition
    extensions: list[JetEvaluator]

    def jet_many(self, pts, order: int) -> Jet:
        """The blend off Q first, then the outputs and x's own jet on Q,
        so no output is held while an extension runs."""
        pts = np.asarray(pts, dtype=np.float64)
        in_q = domains.regular_q_member(self.domain, pts[..., 0], pts[..., 1])
        outside = ~in_q
        blend = self._blend(pts[outside], order) if outside.any() else {}
        out = {alpha: np.zeros(pts.shape[:-1])
               for alpha in multi_indices(order, 2)}
        for alpha in list(blend):
            out[alpha][outside] = blend.pop(alpha)
        if in_q.any():
            own = self.extensions[-1](pts[in_q], order)
            for alpha, vals in out.items():
                vals[in_q] = own[alpha]
        return out

    def _blend(self, pout: np.ndarray, order: int) -> Jet:
        """sum over bumps of chi_nu times its extension at points off Q,
        each product the Cauchy product of their series."""
        # each bump's series at the points of its support, and their sum
        bumps = []
        S = np.zeros((len(taylor.index(order, 2)), len(pout)))
        for chart in self.partition.charts:
            rho, raw = bump_jet(chart, pout, order)
            near = np.flatnonzero(rho < BUMP_SHRINK)
            bumps.append((near, taylor.from_jet(raw, order)))
            # a row at a time, which numpy runs faster than S[:, near]
            for row, vals in zip(S, bumps[-1][1]):
                row[near] += vals
        acc = np.zeros_like(S)
        for (near, b), i_nu in zip(bumps, self.partition.assignment):
            sel = b[0] > 0.0
            if not sel.any():
                continue
            idx = near[sel]
            # the extension runs first, so no chi is held while it runs
            y = taylor.from_jet(self.extensions[i_nu](pout[idx], order), order)
            chi = _chi(np.compress(sel, b, axis=1), np.take(S, idx, axis=1),
                       order)
            for row, vals in zip(acc, taylor.mul(chi, y, order, 2)):
                row[idx] += vals
            del y, chi, vals
        return taylor.to_jet(acc, order, 2)


@dataclass(eq=False)
class GlobalExtensionResult:
    field: GlobalField
    jet: SampledJet
    q_mask: GridMask
    window: GridSpec
    sum_residual: float
    uncovered_points: int


def global_extend(x: AnalyticJet, domain: Domain, order: int, h: float,
                  margin: float) -> GlobalExtensionResult:
    """Glue local reflections into one field over a margin-padded window.

    Values on Q-lattice points come straight from x, which must be defined
    at every one of them; the blend only fills the complement.  grid.sample
    walks the window in row blocks, which bounds the blend's temporaries.
    """
    if order > ORDER_CAP:
        raise ValueError(f"the glued extension runs to order {ORDER_CAP}, the "
                         f"highest its tests verify; got order {order}")
    charts = domain.charts()
    lo, hi = domain.bbox
    steps = max(1, int(math.ceil(margin / h - 1e-9)))
    window = GridSpec.cover(
        (lo[0] - steps * h, lo[1] - steps * h),
        (hi[0] + steps * h, hi[1] + steps * h),
        h,
    )
    partition = build_partition(charts, domain, window)
    q_mask = partition.q_mask
    # Q's values are x's own, so a field tied to a region must cover Q
    x.check_mask(q_mask, "Q lattice point")
    extensions = [local_extend(x.jet_many, chart, order) for chart in charts]
    extensions.append(x.jet_many)
    field = GlobalField(domain, order, charts, partition, extensions)
    all_mask = GridMask(window, np.ones(window.extents, dtype=bool))
    jet = sample(field.jet_many, all_mask, order)
    # window points off Q the blend could not reach (value convention 0)
    uncovered = int((partition.unreached.member & ~q_mask.member).sum())
    return GlobalExtensionResult(
        field, jet, q_mask, window, partition.sum_residual, uncovered
    )


# ---------------------------------------------------------------------------
# interface scan


def interface_jet_mismatch(field: GlobalField,
                           h: float) -> dict[tuple[int, ...], float]:
    """Per-component disagreement of one-sided boundary extrapolations.

    At each of the domain's 256 boundary probes, every jet component is
    extrapolated to the boundary point from three samples inside and three
    outside along the normal (second-order extrapolation 3f(h) - 3f(2h) +
    f(3h)); the mismatch is the largest absolute difference.  O(h^2) for a
    C^1-matched extension.  The six offsets go through one jet_many call.
    """
    pts, normals = field.domain.probes()
    steps = np.array([-1, -2, -3, 1, 2, 3])  # inside, then outside
    probes = pts + (steps * h)[:, None, None] * normals
    jet = field.jet_many(probes.reshape(-1, 2), field.order)
    out = {}
    for alpha in multi_indices(field.order, 2):
        f = jet[alpha].reshape(len(steps), -1)
        inner = 3.0 * f[0] - 3.0 * f[1] + f[2]
        outer = 3.0 * f[3] - 3.0 * f[4] + f[5]
        out[alpha] = float(np.max(np.abs(outer - inner)))
    return out
