"""Gluing pipeline: boundary charts, local reflection extensions pulled
through the charts, a subordinate partition of unity, and the blended global
extension.

The charts come from the domain (jetlab.domains).  Each maps the unit ball of
reference coordinates onto a neighborhood of a boundary piece so that the
domain side corresponds to the half-ball xi_0 >= 0 (or, at rectangle corners,
to the quarter xi_0, xi_1 >= 0; no single C^1 chart flattens a corner, so
those use a two-axis tensor reflection instead).  All reference-to-world
differentiation is closed form through order 2.

Every layer is a plain jet evaluator of jetlab.grid or a function of a
chart: a local extension is the reflected pullback pushed forward through
its chart, a bump is its chart (bump_jet, one map through its inverse of
the points in its box), and the global field pairs each bump with one
extension.  Each
layer asks its source for one whole jet per point set and applies the chain
and Leibniz rules to whole jets, so no lower-order partial is derived twice.

The blend convention off the covered zone is zero: a window point reached by
no bump gets value 0, never an extrapolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import domains
from .domains import Chart, Domain
from .errors import CoverGapError, UnsupportedDomainError
from .functions import AnalyticJet
from .grid import (
    GridMask, GridSpec, Jet, JetEvaluator, SampledJet, dilate_box,
    interior_of, multi_indices, sample,
)
from .hestenes import HalfSpaceExtension, corner_extension, solve_coefficients

BUMP_SHRINK = 0.9
_BUMP_GUARD = 1.0 - 1.0 / 745.0


# ---------------------------------------------------------------------------
# chain rule through a map, closed form to order 2


def _unit_alpha(axis: int, dim: int = 2) -> tuple[int, ...]:
    return tuple(1 if k == axis else 0 for k in range(dim))


def _pair_alpha(a: int, b: int, dim: int) -> tuple[int, ...]:
    out = [0] * dim
    out[a] += 1
    out[b] += 1
    return tuple(out)


def _axis_pair(alpha: tuple[int, ...]) -> tuple[int, int]:
    axes = []
    for k, a in enumerate(alpha):
        axes.extend([k] * a)
    return axes[0], axes[1]


def chain_jet(f_jet: Jet, jac, hess, order: int) -> Jet:
    """Jet of f o map from f's jet at the mapped points and the map's
    Jacobian and Hessian at the points, as a chart's derivative call gives
    them: per-point arrays, or a constant matrix and no Hessian.  A constant
    zero entry adds no term; the sums start at +0, which adding +-0 keeps,
    and x + (+-0) = x, so the bits are those of the full sum."""
    if order > 2:
        raise ValueError("chart differentiation is closed-form through order 2")
    dim = len(next(iter(f_jet)))
    shape = f_jet[(0,) * dim].shape
    const = jac is not None and jac.ndim == 2

    def live(a: int, c: int) -> bool:
        return not const or jac[a, c] != 0.0

    out = {}
    for alpha in multi_indices(order, dim):
        total = sum(alpha)
        if total == 0:
            out[alpha] = f_jet[alpha]
        elif total == 1:
            c = alpha.index(1)
            comp = np.zeros(shape)
            for a in range(dim):
                if live(a, c):
                    comp += f_jet[_unit_alpha(a, dim)] * jac[..., a, c]
            out[alpha] = comp
        else:
            c, d = _axis_pair(alpha)
            comp = np.zeros(shape)
            for a in range(dim):
                for b in range(dim):
                    if live(a, c) and live(b, d):
                        comp += (
                            f_jet[_pair_alpha(a, b, dim)]
                            * jac[..., a, c]
                            * jac[..., b, d]
                        )
                if hess is not None:
                    comp += f_jet[_unit_alpha(a, dim)] * hess[..., a, c, d]
            out[alpha] = comp
    return out


def _compose(f: JetEvaluator, mapping: Callable,
             derivatives: Callable) -> JetEvaluator:
    """f o mapping.  The map's derivatives are taken once f has returned,
    so none of them is held while f runs."""

    def composed(pts: np.ndarray, order: int) -> Jet:
        f_jet = f(mapping(pts), order)
        return chain_jet(f_jet, *derivatives(pts, order), order)

    return composed


def pullback(source: JetEvaluator, chart: Chart) -> JetEvaluator:
    """u = x o phi on reference coordinates."""
    return _compose(source, chart.forward, chart.forward_derivatives)


def pushforward(ball_eval: JetEvaluator, chart: Chart) -> JetEvaluator:
    """y = ubar o phi^-1 back on world coordinates."""
    return _compose(ball_eval, chart.inverse, chart.inverse_derivatives)


def local_extend(source: JetEvaluator, chart: Chart,
                 order: int) -> JetEvaluator:
    """One chart's extended field y = ubar o phi^-1, world coordinates.

    Valid inside the chart image; the blend only ever queries it inside the
    0.9-ball where the chart's bump is positive.
    """
    u = pullback(source, chart)
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
    return pushforward(reflected.jet_many, chart)


# ---------------------------------------------------------------------------
# bumps and the partition of unity


def bump_ball_jet(xi: np.ndarray, order: int) -> Jet:
    """Partials of exp(-1/(1 - (|xi|/0.9)^2)) in reference coordinates.

    Hard zero (all orders) once the exponent would underflow; the true value
    there is below 5e-324 so nothing is lost.
    """
    if order > 2:
        raise ValueError("bump partials available through order 2")
    c2 = BUMP_SHRINK**2
    q = (xi[..., 0] ** 2 + xi[..., 1] ** 2) / c2
    act = q < _BUMP_GUARD
    qa = np.where(act, q, 0.0)
    w = 1.0 / (1.0 - qa)
    f = np.where(act, np.exp(-w), 0.0)
    f1 = -f * w**2 if order >= 1 else None
    f2 = f * w**4 - 2.0 * f * w**3 if order >= 2 else None
    out = {}
    for alpha in multi_indices(order, 2):
        total = sum(alpha)
        if total == 0:
            out[alpha] = f
        elif total == 1:
            out[alpha] = f1 * (2.0 * xi[..., alpha.index(1)] / c2)
        else:
            cc, dd = _axis_pair(alpha)
            comp = f2 * (2.0 * xi[..., cc] / c2) * (2.0 * xi[..., dd] / c2)
            if cc == dd:
                comp = comp + f1 * (2.0 / c2)
            out[alpha] = comp
    return out


def bump_jet(chart: Chart, pts: np.ndarray,
             order: int) -> tuple[np.ndarray, Jet]:
    """Unnormalized bump riding on the chart's reference ball at the (n, 2)
    world points; each chart, the interior one included, carries one.  The
    points inside chart.box() are mapped through chart.inverse once, which
    gives their reference radius and the bump's jet at those of radius
    below BUMP_SHRINK (zero at the others); the points outside it get
    radius inf."""
    (x0, y0), (x1, y1) = chart.box()
    s, t = pts[:, 0], pts[:, 1]
    boxed = np.flatnonzero((s >= x0) & (s <= x1) & (t >= y0) & (t <= y1))
    xi = chart.inverse(pts[boxed])
    radius = np.hypot(xi[:, 0], xi[:, 1])
    rho = np.full(len(pts), np.inf)
    rho[boxed] = radius
    near = radius < BUMP_SHRINK
    jet = chain_jet(bump_ball_jet(xi[near], order),
                    *chart.inverse_derivatives(pts[boxed[near]], order), order)
    return rho, jet


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


def _chi_jet(raw: Jet, S: Jet, order: int) -> Jet:
    """Quotient rule for one bump's b/S with the convention 0 where S = 0.

    Every term is built from ratios (raw/S, S_beta/S), each taken once;
    powers of S as denominators would underflow in the bump tails where
    S ~ 1e-300.
    """
    s0 = S[(0, 0)]
    covered = s0 > 0.0
    s_safe = np.where(covered, s0, 1.0)
    q = {beta: raw[beta] / s_safe for beta in raw}
    qs = {beta: S[beta] / s_safe for beta in S if sum(beta)}
    q0 = q[(0, 0)]
    out = {}
    for alpha in multi_indices(order, 2):
        total = sum(alpha)
        if total == 0:
            chi = q0
        elif total == 1:
            chi = q[alpha] - q0 * qs[alpha]
        else:  # bump_jet refuses orders past 2
            c, d = _axis_pair(alpha)
            ec, ed = _unit_alpha(c), _unit_alpha(d)
            chi = (
                q[alpha]
                - q[ec] * qs[ed]
                - q[ed] * qs[ec]
                - q0 * qs[alpha]
                + 2.0 * q0 * qs[ec] * qs[ed]
            )
        out[alpha] = np.where(covered, chi, 0.0)
    return out


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
    assembled by the Leibniz rule; points no bump reaches are 0.
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
        """sum over bumps of chi_nu times its extension at points off Q."""
        alphas = multi_indices(order, 2)
        # each bump's jet at the points of its support, and their sum
        bumps = []
        S = {b: np.zeros(len(pout)) for b in alphas}
        for chart in self.partition.charts:
            rho, raw = bump_jet(chart, pout, order)
            near = np.flatnonzero(rho < BUMP_SHRINK)
            bumps.append((near, raw))
            for b in alphas:
                S[b][near] += raw[b]
        acc = {alpha: np.zeros(len(pout)) for alpha in alphas}
        for (near, raw), i_nu in zip(bumps, self.partition.assignment):
            sel = raw[(0, 0)] > 0.0
            if not sel.any():
                continue
            idx = near[sel]
            chi = _chi_jet({b: raw[b][sel] for b in alphas},
                           {b: S[b][idx] for b in alphas}, order)
            y = self.extensions[i_nu](pout[idx], order)
            for alpha in alphas:
                term = np.zeros(len(idx))
                for beta, gamma, coeff in _leibniz_terms(alpha):
                    term += coeff * chi[beta] * y[gamma]
                acc[alpha][idx] += term
        return acc


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
    if order > 2:
        raise ValueError(
            "chartable extension is closed-form through order 2; "
            "the flat-wall operator alone goes higher"
        )
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
