"""Reference implementations the tests compare jetlab against.

jetlab itself runs on numpy alone; scipy is a test dependency and serves
here as an independent implementation of the lattice morphology.  The
scalar lookups, the finite-difference stencil and the chart round trip are
the plain per-value versions of what jetlab computes in bulk; chi_many reads
one normalized bump partial off a partition.  The order2_ functions are the
glue's chain rule, bump, partition quotient and chart derivatives as they
were written by hand through order 2, the reference for jetlab.taylor;
order3_mollifier_derivs is exp(-1/t) by its hand polynomials through
order 3.  scatter_sample and
full_lattice_scan are the whole-lattice, one-component-at-a-time versions of
AnalyticJet.sample and the membership scan, which walk row blocks instead.
per_line_lattice_extension is the lattice reflection one band line at a time,
with its own copy of the weighted sum, where jetlab runs the band through
HalfSpaceExtension.jet_many.  reflection_residual and cramer_coefficients
check the reflection weights against the linear system they solve.
six_call_interface_mismatch is the interface scan with one jet_many call
per probe offset, where jetlab stacks the six offsets into one call.
coord_grids is the meshgrid of a lattice's coordinates, which jetlab reads
on np.ix_ lattice lines instead.
"""

import math
from fractions import Fraction

import numpy as np
from scipy import ndimage

from jetlab.certify import CertTerm, Certificate
from jetlab.errors import (
    MaskMismatchError, PointOutsideRegionError, ProbeOutsideMaskError,
)
from jetlab import domains, taylor
from jetlab.glue import BUMP_SHRINK, _chi, bump_jet
from jetlab.grid import GridMask, GridSpec, SampledJet, alpha_key, multi_indices
from jetlab.hestenes import LatticeExtensionResult
from jetlab.spaces import MembershipVerdict


def erosion(member: np.ndarray) -> np.ndarray:
    """Cross-structure erosion, off-lattice points absent."""
    cross = ndimage.generate_binary_structure(member.ndim, 1)
    return ndimage.binary_erosion(member, structure=cross, border_value=0)


def coord_grids(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Meshgrid of the lattice coordinates, one array per axis, "ij"
    indexing."""
    axes = [grid.axis_coords(a) for a in range(grid.dim)]
    return tuple(np.meshgrid(*axes, indexing="ij"))


def box_dilation(member: np.ndarray, iterations: int = 1) -> np.ndarray:
    """The 3^dim box dilation, applied iterations times."""
    box = np.ones((3,) * member.ndim, dtype=bool)
    return ndimage.binary_dilation(member, structure=box,
                                   iterations=iterations)


def connected_component_count(mask) -> int:
    """Number of 2*dim-connected components of a GridMask."""
    cross = ndimage.generate_binary_structure(mask.grid.dim, 1)
    _, n = ndimage.label(mask.member, structure=cross)
    return int(n)


def comb_tooth_index(s: float) -> int | None:
    """Index n with a_n <= s <= b_n, or None."""
    if not 0.0 < s <= 1.0:
        return None
    guess = int(math.floor(-math.log2(s)))
    for n in (guess - 1, guess, guess + 1):
        if n >= 0 and math.ldexp(0.75, -n) <= s <= math.ldexp(1.0, -n):
            return n
    return None


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


class NoNeighborError(Exception):
    """A finite-difference stencil found no usable neighbor on either side."""


def fd_partial(jet, alpha: tuple[int, ...], axis: int,
               index: tuple[int, ...]) -> float:
    """Finite-difference estimate of the axis-partial of component alpha.

    Central second-order when both axis neighbors are masked, one-sided
    first-order toward the single available neighbor otherwise.
    """
    alpha = tuple(alpha)
    arr = jet.components[alpha]
    member = jet.mask.member
    if not member[index]:
        raise NoNeighborError(f"point {index} is not in the mask")
    lo = list(index)
    hi = list(index)
    lo[axis] -= 1
    hi[axis] += 1
    has_lo = lo[axis] >= 0 and member[tuple(lo)]
    has_hi = hi[axis] < jet.grid.extents[axis] and member[tuple(hi)]
    h = jet.grid.h
    if has_lo and has_hi:
        return float((arr[tuple(hi)] - arr[tuple(lo)]) / (2.0 * h))
    if has_hi:
        return float((arr[tuple(hi)] - arr[index]) / h)
    if has_lo:
        return float((arr[index] - arr[tuple(lo)]) / h)
    raise NoNeighborError(f"no axis-{axis} neighbor of {index} in the mask")


def chart_roundtrip_defect(chart, pts: np.ndarray) -> float:
    """max |phi(phi^-1(p)) - p| over the sample; identity check currency."""
    back = chart.forward_taylor(chart.inverse_taylor(pts)[0])[0]
    return float(np.max(np.abs(back - pts))) if len(pts) else 0.0


def chi_many(partition, nu: int, pts, alpha) -> np.ndarray:
    """Normalized bump partial; zero wherever the bump sum vanishes."""
    pts = np.asarray(pts, dtype=np.float64)
    alpha = tuple(alpha)
    order = sum(alpha)
    raw = []
    for chart in partition.charts:
        rho, near_jet = bump_jet(chart, pts, order)
        full = np.zeros((len(taylor.index(order, 2)), len(pts)))
        full[:, rho < BUMP_SHRINK] = taylor.from_jet(near_jet, order)
        raw.append(full)
    S = sum(raw)
    covered = S[0] > 0.0
    chi = np.zeros_like(S)
    chi[:, covered] = _chi(raw[nu][:, covered], S[:, covered], order)
    return taylor.to_jet(chi, order, 2)[alpha]


# The glue's calculus as it was written by hand through order 2, before
# jetlab.taylor replaced it: the reference the Taylor path is compared
# with at orders 0, 1 and 2.


def _unit_alpha(axis: int) -> tuple[int, int]:
    return (1, 0) if axis == 0 else (0, 1)


def _pair_alpha(a: int, b: int) -> tuple[int, int]:
    out = [0, 0]
    out[a] += 1
    out[b] += 1
    return tuple(out)


def _axis_pair(alpha: tuple[int, ...]) -> tuple[int, int]:
    axes = [k for k, a in enumerate(alpha) for _ in range(a)]
    return axes[0], axes[1]


def order2_chain_jet(f_jet, jac, hess, order: int) -> dict:
    """Jet of f o map from f's jet at the mapped points and the map's
    per-point Jacobian (..., 2, 2) and Hessian (..., 2, 2, 2)."""
    shape = f_jet[(0, 0)].shape
    out = {}
    for alpha in multi_indices(order, 2):
        total = sum(alpha)
        if total == 0:
            out[alpha] = f_jet[alpha]
        elif total == 1:
            c = alpha.index(1)
            comp = np.zeros(shape)
            for a in range(2):
                comp += f_jet[_unit_alpha(a)] * jac[..., a, c]
            out[alpha] = comp
        else:
            c, d = _axis_pair(alpha)
            comp = np.zeros(shape)
            for a in range(2):
                for b in range(2):
                    comp += (f_jet[_pair_alpha(a, b)] * jac[..., a, c]
                             * jac[..., b, d])
                comp += f_jet[_unit_alpha(a)] * hess[..., a, c, d]
            out[alpha] = comp
    return out


# f(t) = exp(-1/t) for t > 0, continued by zero.  f^(k)(t) = f(t) * p_k(1/t).
_MOLL_POLYS = (
    ((0, 1.0),),
    ((2, 1.0),),
    ((4, 1.0), (3, -2.0)),
    ((6, 1.0), (5, -6.0), (4, 6.0)),
)


def order3_mollifier_derivs(t, order: int) -> list[np.ndarray]:
    """Derivatives 0..order <= 3 of exp(-1/t), zero for t <= 1/745, where
    the value underflows."""
    t = np.asarray(t, dtype=np.float64)
    active = t > 1.0 / 745.0
    u = np.where(active, 1.0 / np.where(active, t, 1.0), 0.0)
    f = np.where(active, np.exp(-u), 0.0)
    out = []
    for k in range(order + 1):
        poly = np.zeros_like(t)
        for power, coeff in _MOLL_POLYS[k]:
            poly += coeff * u**power
        out.append(f * poly)
    return out


def order2_bump_ball_jet(xi: np.ndarray, order: int) -> dict:
    """Partials of exp(-1/(1 - (|xi|/0.9)^2)) through order 2, by hand,
    zero once the exponent passes -745, where the value underflows."""
    c2 = BUMP_SHRINK**2
    q = (xi[..., 0] ** 2 + xi[..., 1] ** 2) / c2
    act = q < 1.0 - 1.0 / 745.0
    w = 1.0 / (1.0 - np.where(act, q, 0.0))
    f = np.where(act, np.exp(-w), 0.0)
    f1 = -f * w**2
    f2 = f * w**4 - 2.0 * f * w**3
    out = {}
    for alpha in multi_indices(order, 2):
        total = sum(alpha)
        if total == 0:
            out[alpha] = f
        elif total == 1:
            out[alpha] = f1 * (2.0 * xi[..., alpha.index(1)] / c2)
        else:
            c, d = _axis_pair(alpha)
            comp = f2 * (2.0 * xi[..., c] / c2) * (2.0 * xi[..., d] / c2)
            if c == d:
                comp = comp + f1 * (2.0 / c2)
            out[alpha] = comp
    return out


def order2_chi_jet(raw, S, order: int) -> dict:
    """Quotient rule for one bump's b/S through order 2, 0 where S = 0,
    from the ratios raw/S and S_beta/S."""
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
        else:
            c, d = _axis_pair(alpha)
            ec, ed = _unit_alpha(c), _unit_alpha(d)
            chi = (q[alpha] - q[ec] * qs[ed] - q[ed] * qs[ec]
                   - q0 * qs[alpha] + 2.0 * q0 * qs[ec] * qs[ed])
        out[alpha] = np.where(covered, chi, 0.0)
    return out


def order2_forward_derivatives(chart, xi: np.ndarray):
    """The forward map's Jacobian (..., 2, 2) and Hessian (..., 2, 2, 2)."""
    shape = xi.shape[:-1]
    if isinstance(chart, domains.AffineChart):
        return (np.broadcast_to(chart.matrix, shape + (2, 2)),
                np.zeros(shape + (2, 2, 2)))
    th = chart.theta_c + chart.width * xi[..., 1]
    r = chart.radius - chart.depth * xi[..., 0]
    cos, sin = np.cos(th), np.sin(th)
    J = np.empty(shape + (2, 2))
    J[..., 0, 0] = -chart.depth * cos
    J[..., 1, 0] = -chart.depth * sin
    J[..., 0, 1] = -r * chart.width * sin
    J[..., 1, 1] = r * chart.width * cos
    H = np.zeros(shape + (2, 2, 2))
    dw = chart.depth * chart.width
    H[..., 0, 0, 1] = H[..., 0, 1, 0] = dw * sin
    H[..., 1, 0, 1] = H[..., 1, 1, 0] = -dw * cos
    H[..., 0, 1, 1] = -r * chart.width**2 * cos
    H[..., 1, 1, 1] = -r * chart.width**2 * sin
    return J, H


def order2_inverse_derivatives(chart, pts: np.ndarray):
    """The inverse map's Jacobian and Hessian, from x^2 + y^2."""
    shape = pts.shape[:-1]
    if isinstance(chart, domains.AffineChart):
        return (np.broadcast_to(np.linalg.inv(chart.matrix), shape + (2, 2)),
                np.zeros(shape + (2, 2, 2)))
    v = pts - chart.center
    x, y = v[..., 0], v[..., 1]
    r2 = x * x + y * y
    r = np.sqrt(r2)
    depth, width = chart.depth, chart.width
    J = np.empty(shape + (2, 2))
    J[..., 0, 0] = -x / (depth * r)
    J[..., 0, 1] = -y / (depth * r)
    J[..., 1, 0] = -y / (r2 * width)
    J[..., 1, 1] = x / (r2 * width)
    r3 = r2**1.5
    r4 = r2 * r2
    H = np.empty(shape + (2, 2, 2))
    H[..., 0, 0, 0] = -(y * y) / (depth * r3)
    H[..., 0, 0, 1] = H[..., 0, 1, 0] = x * y / (depth * r3)
    H[..., 0, 1, 1] = -(x * x) / (depth * r3)
    H[..., 1, 0, 0] = 2.0 * x * y / (width * r4)
    H[..., 1, 0, 1] = H[..., 1, 1, 0] = (y * y - x * x) / (width * r4)
    H[..., 1, 1, 1] = -2.0 * x * y / (width * r4)
    return J, H


def six_call_interface_mismatch(field, h: float) -> dict:
    """glue.interface_jet_mismatch with one jet_many call per offset."""
    pts, normals = field.domain.probes()
    samples_in = [
        field.jet_many(pts - k * h * normals, field.order) for k in (1, 2, 3)
    ]
    samples_out = [
        field.jet_many(pts + k * h * normals, field.order) for k in (1, 2, 3)
    ]
    out = {}
    for alpha in multi_indices(field.order, 2):
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


def scatter_sample(jet, mask, order: int) -> dict:
    """Components of jet on the mask: every masked point at once, one
    jet_many call and one scatter per alpha."""
    pts = mask.grid.points(np.nonzero(mask.member))
    inside = True if jet.member is None else jet.member(*pts.T)
    if not np.all(inside):
        bad = pts[~inside][0]
        raise PointOutsideRegionError(
            f"mask point {tuple(float(v) for v in bad)} lies outside the "
            f"region of {jet.name}"
        )
    idx = np.nonzero(mask.member)
    components = {}
    for alpha in multi_indices(order, mask.grid.dim):
        arr = np.zeros(mask.grid.extents, dtype=np.float64)
        arr[idx] = jet.jet_many(pts, sum(alpha))[alpha]
        components[alpha] = arr
    return components


def reflection_residual(coeffs, j: int) -> Fraction:
    """sum_l (-l)^(-j) a_{l-1} - 1, exactly; zero for a correct solve."""
    return sum(Fraction(-1, l) ** j * a
               for l, a in enumerate(coeffs.values, start=1)) - 1


def _det(m):
    """Laplace expansion along the first row, exact on Fractions."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** c * m[0][c] * _det([r[:c] + r[c + 1:] for r in m[1:]])
               for c in range(len(m)))


def cramer_coefficients(i: int) -> tuple[Fraction, ...]:
    """The order-i weights by Cramer's rule on sum_l (-l)^(-j) a_{l-1} = 1,
    j = 0..i: independent of the closed form, and meant for small i."""
    m = [[Fraction(-l) ** -j for l in range(1, i + 2)] for j in range(i + 1)]
    return tuple(_det([[1 if c == k else v for c, v in enumerate(row)]
                       for row in m]) / _det(m) for k in range(i + 1))


def _central_triples(member: np.ndarray, axis: int):
    """Boolean array marking points whose both axis neighbors are masked."""
    ok = np.zeros_like(member)
    sl_mid = [slice(None)] * member.ndim
    sl_lo = [slice(None)] * member.ndim
    sl_hi = [slice(None)] * member.ndim
    sl_mid[axis] = slice(1, -1)
    sl_lo[axis] = slice(0, -2)
    sl_hi[axis] = slice(2, None)
    ok[tuple(sl_mid)] = (
        member[tuple(sl_mid)] & member[tuple(sl_lo)] & member[tuple(sl_hi)]
    )
    return ok


def _adjacent_pairs(member: np.ndarray, axis: int):
    """Mask pairs (p, p+e_axis) with both endpoints inside."""
    sl_lo = [slice(None)] * member.ndim
    sl_hi = [slice(None)] * member.ndim
    sl_lo[axis] = slice(0, -1)
    sl_hi[axis] = slice(1, None)
    return member[tuple(sl_lo)] & member[tuple(sl_hi)], tuple(sl_lo), tuple(sl_hi)


def _shift_diff(arr: np.ndarray, axis: int) -> np.ndarray:
    sl_lo = [slice(None)] * arr.ndim
    sl_hi = [slice(None)] * arr.ndim
    sl_lo[axis] = slice(0, -2)
    sl_hi[axis] = slice(2, None)
    out = np.zeros_like(arr)
    sl_mid = [slice(None)] * arr.ndim
    sl_mid[axis] = slice(1, -1)
    out[tuple(sl_mid)] = arr[tuple(sl_hi)] - arr[tuple(sl_lo)]
    return out


def full_lattice_scan(jet, space: str, tol: float = 1e-2,
                      c_factor: float = 10.0,
                      tol_by_order: dict | None = None) -> MembershipVerdict:
    """The membership scan with full-lattice arrays per (alpha, axis): the
    sup by boolean gather, the witness by argmax over the whole lattice."""
    h = jet.grid.h
    dim = jet.grid.dim
    member = jet.mask.member
    sup_all = max(
        float(np.max(np.abs(jet.components[a][member]))) for a in jet.alphas()
    )
    c_bound = c_factor * max(1.0, sup_all) * h

    fd_defect = 0.0
    fd_witness = None
    for alpha in jet.alphas():
        total = sum(alpha)
        if total == 0:
            continue
        for axis in range(dim):
            if alpha[axis] == 0:
                continue
            lower = list(alpha)
            lower[axis] -= 1
            lower = tuple(lower)
            triple = _central_triples(member, axis)
            if not triple.any():
                continue
            est = _shift_diff(jet.components[lower], axis) / (2.0 * h)
            defect = np.where(triple, np.abs(est - jet.components[alpha]), 0.0)
            worst = float(defect.max())
            if worst > fd_defect:
                fd_defect = worst
                k = np.unravel_index(int(defect.argmax()), defect.shape)
                fd_witness = (alpha, lower, axis, k, float(est[k]),
                              float(jet.components[alpha][k]))

    # each order's modulus and the first of its maxima in (alpha, axis,
    # row-major) order
    modulus: dict[int, float] = {}
    mod_witness = {}
    for alpha in jet.alphas():
        order = sum(alpha)
        arr = jet.components[alpha]
        for axis in range(dim):
            pair, sl_lo, sl_hi = _adjacent_pairs(member, axis)
            if not pair.any():
                continue
            step = np.where(pair, np.abs(arr[sl_hi] - arr[sl_lo]), 0.0)
            worst = float(step.max())
            if worst > modulus.get(order, 0.0):
                modulus[order] = worst
                k = np.unravel_index(int(step.argmax()), step.shape)
                mod_witness[order] = (alpha, axis, k, worst)
    tolerances = {"fd_bound": c_bound, "modulus": tol}
    if tol_by_order:
        tolerances.update({f"modulus_order_{k}": v
                           for k, v in tol_by_order.items()})

    bad_fd = fd_defect > c_bound
    # the witness of a modulus violation is that of the highest bad order
    bad_mod_order = None
    for order, value in sorted(modulus.items()):
        if value > (tol_by_order or {}).get(order, tol):
            bad_mod_order = order
    if not bad_fd and bad_mod_order is None:
        return MembershipVerdict(
            space, "consistent-at-resolution", h, tolerances,
            fd_defect, modulus, None,
        )
    if bad_fd:
        alpha, lower, axis, k, est, declared = fd_witness
        lo = list(k)
        hi = list(k)
        lo[axis] -= 1
        hi[axis] += 1
        term = CertTerm(
            n=0,
            base=jet.grid.coord(tuple(lo)),
            probe=jet.grid.coord(tuple(hi)),
            quotient=est,
            note=(
                f"finite difference of {alpha_key(lower)} along axis {axis} "
                f"is {est:.6g} but component {alpha_key(alpha)} declares "
                f"{declared:.6g}"
            ),
        )
        gap = abs(est - declared)
    else:
        alpha, axis, k, worst = mod_witness[bad_mod_order]
        hi = list(k)
        hi[axis] += 1
        term = CertTerm(
            n=0,
            base=jet.grid.coord(tuple(k)),
            probe=jet.grid.coord(tuple(hi)),
            quotient=worst,
            note=(
                f"component {alpha_key(alpha)} jumps by {worst:.6g} across "
                f"one lattice step on axis {axis}"
            ),
        )
        gap = worst
    cert = Certificate(
        domain="lattice-scan",
        claim=f"not-in-{space}-at-resolution",
        terms=(term,),
        interior_limit=0.0,
        interior_witness=(),
        gap=gap,
        diverges=False,
        n_max=0,
        config={"h": h, **{str(k): float(v) for k, v in tolerances.items()}},
    )
    return MembershipVerdict(
        space, "violation", h, tolerances, fd_defect, modulus, cert
    )


def _take_line(arr: np.ndarray, axis: int, index: int) -> np.ndarray:
    """Writable view of the lattice line at index along axis (axis kept)."""
    slicer: list = [slice(None)] * arr.ndim
    slicer[axis] = slice(index, index + 1)
    return arr[tuple(slicer)]


def per_line_lattice_extension(jet, coeffs, width: int, axis: int = 0,
                               boundary: float = 0.0,
                               inward: float = 1.0) -> LatticeExtensionResult:
    """extend_half_space_lattice one band line at a time: widen the window,
    then for each line past the wall snap every reflected depth to the
    nearest lattice line and sum the weighted samples where all are masked."""
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
    # a zero depth reads +0.0; tau.max(initial=0.0) gave -0.0 or 0.0 by
    # numpy's reduction order when the wall sits on the first line
    source_depth = max(0.0, float(tau.max()))
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
    out = SampledJet(jet.order, GridMask(grid, member), components)
    return LatticeExtensionResult(out, probe_offset_max)
