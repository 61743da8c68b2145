"""Charts, bumps, partition of unity, and the blended global extension."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from jetlab import domains, glue
from jetlab.errors import CoverGapError, UnsupportedDomainError
from jetlab.functions import AnalyticJet, get_function, polynomial_jet
from jetlab.glue import (
    bump_ball_jet,
    build_partition,
    bump_jet,
    chain_jet,
    global_extend,
    interface_jet_mismatch,
    local_extend,
)
from jetlab import grid
from jetlab.grid import (
    GridMask, GridSpec, dilate_box, interior_of, multi_indices, row_blocks,
)
from jetlab.hestenes import (
    HalfSpaceExtension, corner_extension, solve_coefficients,
)
from lattice_oracles import (
    box_dilation, chart_roundtrip_defect, chi_many, coord_grids, erosion,
    six_call_interface_mismatch,
)


def ball_points(n, radius=0.95, seed=3):
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(0, 1, n))
    th = rng.uniform(0, 2 * np.pi, n)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)


ALL_SPECS = [domains.Rectangle(), domains.Disk(), domains.HalfBall()]


def coarse_lattice(spec):
    """Step 2^-6 over the domain's bounding box padded by 1/8."""
    (x0, y0), (x1, y1) = spec.bbox
    return GridSpec.cover((x0 - 0.125, y0 - 0.125), (x1 + 0.125, y1 + 0.125),
                          2.0**-6)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_chart_roundtrip(spec):
    xi = ball_points(200)
    for chart in spec.charts():
        world = chart.forward(xi)
        assert chart_roundtrip_defect(chart, world) < 1e-12
        assert np.max(np.abs(chart.inverse(world) - xi)) < 1e-12


def dense(jac, hess, shape):
    """A derivative call's answer as full arrays over points of the given
    shape: a constant matrix broadcast, a missing Hessian all zero."""
    return (np.broadcast_to(jac, shape + (2, 2)),
            np.zeros(shape + (2, 2, 2)) if hess is None else hess)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_chart_jacobians_match_finite_differences(spec):
    xi = ball_points(40, radius=0.8)
    eps = 1e-6
    for chart, order in itertools.product(spec.charts(), [0, 1, 2]):
        affine = isinstance(chart, domains.AffineChart)
        # the forward map at xi and the inverse at its image, each with its
        # Jacobian and Hessian tolerances
        for at, value, derivatives, tol_j, tol_h in (
            (xi, chart.forward, chart.forward_derivatives, 1e-6, 1e-5),
            (chart.forward(xi), chart.inverse, chart.inverse_derivatives,
             1e-5, 2e-4),
        ):
            jac, hess = derivatives(at, order)
            # an affine chart gives its constant matrix at every order
            assert (jac is None) == (order == 0 and not affine)
            assert (hess is None) == (order < 2 or affine)
            if order == 0:
                continue

            def jacobian(p):
                return dense(*derivatives(p, 1), p.shape[:-1])[0]

            J, H = dense(jac, hess, at.shape[:-1])
            # the order-2 call adds the Hessian to the order-1 Jacobian
            assert np.array_equal(J, jacobian(at))
            for c in range(2):
                step = np.zeros_like(at)
                step[:, c] = eps
                fd_j = (value(at + step) - value(at - step)) / (2 * eps)
                assert np.max(np.abs(fd_j - J[..., :, c])) < tol_j
                if order == 2:
                    fd_h = (jacobian(at + step) - jacobian(at - step)) / (
                        2 * eps)
                    assert np.max(np.abs(fd_h - H[..., :, :, c])) < tol_h


# every chart a bump rides on: each regular domain's atlas and interior chart
BUMP_CHARTS = [chart for spec in ALL_SPECS
               for chart in [*spec.charts(), spec.interior_chart()]]
_COORD = st.floats(-3.0, 3.0)


@st.composite
def any_chart(draw):
    """A bump chart or a chart of random shape: the domains' charts are
    round numbers, which round kindly; these need the box's guard."""
    kind = draw(st.sampled_from(["bump", "affine", "polar"]))
    if kind == "bump":
        return draw(st.sampled_from(BUMP_CHARTS))
    center = (draw(_COORD), draw(_COORD))
    if kind == "affine":
        matrix = np.array([[draw(st.floats(-1.0, 1.0)) for _ in range(2)]
                           for _ in range(2)])
        assume(abs(np.linalg.det(matrix)) > 1e-3)
        return domains.AffineChart(center, matrix, "edge", "half")
    return domains.PolarSectorChart(
        center, radius=draw(st.floats(0.5, 2.0)),
        theta_c=draw(st.floats(-4.0, 4.0)), width=draw(st.floats(0.2, 1.5)),
        depth=draw(st.floats(0.1, 0.5)))


def reach(chart, axis: int, side: float) -> np.ndarray:
    """Where the unit circle's image reaches furthest toward side along
    axis.  An affine chart's reaches it at the unit vector along that row
    of its matrix.  A polar chart's box meets the image only at xi =
    (+-1, 0) when the angle there is an axis direction, so the farthest of
    the four axis points stands in."""
    if isinstance(chart, domains.AffineChart):
        row = chart.matrix[axis]
        return chart.forward(side * row[None] / np.hypot(*row))[0]
    ring = chart.forward(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
                                   [0.0, -1.0]]))
    return ring[np.argmax(side * ring[:, axis])]


@st.composite
def just_outside_a_box(draw):
    """A chart and a point just outside its box: on one edge's line, 1 to
    4 floats outward, at a coordinate along the edge drawn from the whole
    edge or from near where the unit circle's image reaches furthest
    toward that edge, and stepped a few floats either way."""
    chart = draw(any_chart())
    lo, hi = chart.box()
    axis = draw(st.integers(0, 1))
    other = 1 - axis
    side = draw(st.sampled_from([-1.0, 1.0]))
    across = float(hi[axis] if side > 0 else lo[axis])
    for _ in range(draw(st.integers(1, 4))):
        across = math.nextafter(across, side * math.inf)
    touch = float(reach(chart, axis, side)[other])
    along = draw(st.one_of(
        st.floats(float(lo[other]) - 0.1, float(hi[other]) + 0.1),
        st.floats(-1e-7, 1e-7).map(lambda d: touch + d), st.just(touch)))
    toward = draw(st.sampled_from([-math.inf, math.inf]))
    for _ in range(draw(st.integers(0, 4))):
        along = math.nextafter(along, toward)
    point = np.empty((1, 2))
    point[0, axis], point[0, other] = across, along
    return chart, point


@settings(max_examples=1000, deadline=None)
@given(just_outside_a_box())
def test_no_point_outside_a_box_maps_into_the_unit_ball(case):
    # bump_jet gives the points outside chart.box() radius inf unmapped;
    # mapped as bump_jet maps the others, each has radius at least 1, so
    # neither the bump's support nor the chart's image loses a point
    chart, point = case
    assert not in_box(chart, point).any()
    xi = chart.inverse(point)
    assert np.hypot(xi[..., 0], xi[..., 1])[0] >= 1.0


_ENTRY = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(-4.0, 4.0, allow_subnormal=False))


@settings(max_examples=200, deadline=None)
@given(st.lists(_ENTRY, min_size=4, max_size=4), st.integers(0, 2**32 - 1),
       st.integers(0, 2))
def test_a_constant_matrix_chains_as_its_broadcast_array(entries, seed,
                                                         order):
    # an affine chart's matrix, its zero entries skipped, and no Hessian
    # give the bits of the per-point arrays with every term summed
    matrix = np.array(entries).reshape(2, 2)
    rng = np.random.default_rng(seed)
    n = 64
    f_jet = {alpha: np.where(rng.random(n) < 0.2,
                             rng.choice([0.0, -0.0], n), rng.normal(size=n))
             for alpha in multi_indices(2, 2)}
    got = chain_jet(f_jet, matrix, None, order)
    want = chain_jet(f_jet, np.broadcast_to(matrix, (n, 2, 2)),
                     np.zeros((n, 2, 2, 2)), order)
    assert list(got) == list(want) == multi_indices(order, 2)
    for alpha, arr in want.items():
        assert np.array_equal(got[alpha].view(np.int64), arr.view(np.int64))


def test_atlas_shapes():
    assert len(domains.HalfBall().charts()) == 1
    rect = domains.Rectangle().charts()
    assert len(rect) == 8
    assert [c.kind for c in rect] == ["edge"] * 4 + ["corner"] * 4
    assert [c.extension for c in rect] == ["half"] * 4 + ["quarter"] * 4
    disk = domains.Disk().charts()
    assert len(disk) == 4
    assert all(c.half_exact for c in disk)
    with pytest.raises(UnsupportedDomainError):
        domains.Comb(4).charts()


def test_half_exact_charts_put_domain_side_at_nonnegative_xi0():
    spec = domains.Disk()
    chart = spec.charts()[0]
    pts = ball_points(300, radius=0.99, seed=9)
    world = chart.forward(pts)
    inside = np.hypot(world[:, 0], world[:, 1]) <= 1.0
    assert np.array_equal(inside, pts[:, 0] >= -1e-12)


def test_bump_partials_match_finite_differences():
    xi = ball_points(60, radius=0.85, seed=5)
    eps = 1e-6
    f = bump_ball_jet(xi, 0)[(0, 0)]
    assert (f > 0).all()
    for c, alpha in ((0, (1, 0)), (1, (0, 1))):
        dxi = np.zeros_like(xi)
        dxi[:, c] = eps
        fd = (bump_ball_jet(xi + dxi, 0)[(0, 0)]
              - bump_ball_jet(xi - dxi, 0)[(0, 0)]) / (2 * eps)
        got = bump_ball_jet(xi, 1)[alpha]
        assert np.max(np.abs(fd - got)) < 1e-7
    for alpha, (c, d) in (((2, 0), (0, 0)), ((1, 1), (0, 1)),
                          ((0, 2), (1, 1))):
        dxi = np.zeros_like(xi)
        dxi[:, d] = eps
        e_c = (1, 0) if c == 0 else (0, 1)
        fd = (bump_ball_jet(xi + dxi, 1)[e_c]
              - bump_ball_jet(xi - dxi, 1)[e_c]) / (2 * eps)
        got = bump_ball_jet(xi, 2)[alpha]
        assert np.max(np.abs(fd - got)) < 1e-6


def test_bump_hard_zero_outside_support():
    xi = np.array([[0.9, 0.0], [0.95, 0.2]])
    for alpha in [(0, 0), (1, 0), (0, 2)]:
        vals = bump_ball_jet(xi, sum(alpha))[alpha]
        assert vals[0] == 0.0 and vals[1] == 0.0
    # just inside the underflow guard the value is positive but tiny
    v = bump_ball_jet(np.array([[0.8993, 0.0]]), 0)[(0, 0)]
    assert 0.0 < v[0] < 1e-100


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_partition_covers_and_sums_to_one(spec):
    charts = spec.charts()
    part = build_partition(charts, spec, coarse_lattice(spec))
    assert part.sum_residual < 1e-9
    assert part.checked_points > 500
    # least-index subordination; the interior bump rides on Q (last index)
    n = len(charts)
    if spec.kind == "half_ball":
        assert part.assignment == [0, 0]
    else:
        assert part.assignment == list(range(n + 1))
        assert part.assignment[-1] == n


@pytest.mark.parametrize("width", [0.01, 0.05, 0.125, 0.3, 0.5])
def test_boundary_collar_matches_iterated_box_dilation(width):
    h = 2.0**-4
    grid = GridSpec((-1.0, -1.0), h, (33, 41))
    s, t = coord_grids(grid)
    rng = np.random.default_rng(5)
    members = [
        s**2 + t**2 <= 0.6,
        rng.random(grid.extents) < 0.3,
        np.zeros(grid.extents, dtype=bool),
        np.ones(grid.extents, dtype=bool),
    ]
    steps = max(1, int(np.ceil(width / h)))
    for member in members:
        # the partition's collar: the ring of Q, box-dilated steps times
        ring = member & ~interior_of(GridMask(grid, member)).member
        got = dilate_box(ring, steps)
        want = box_dilation(member & ~erosion(member), steps)
        assert np.array_equal(got, want)


def stacked_point_partition_sets(domain, grid):
    """(Q, collar radius, collar, required points) as build_partition once
    read them: Q by regular_q_member on the stacked points of a meshgrid,
    and Q's lattice boundary taken twice, once for the collar and once for
    the points the atlas must cover."""
    s, t = coord_grids(grid)
    pts = np.stack([s.ravel(), t.ravel()], axis=-1)
    q_member = domains.regular_q_member(domain, pts[:, 0], pts[:, 1])
    q_mask = GridMask(grid, q_member.reshape(grid.extents))
    inner = q_mask.member & ~interior_of(q_mask).member
    steps = max(1, int(math.ceil(0.05 / grid.h)))
    collar = dilate_box(inner, steps) & domain.charted(s, t, 0.2)
    inner = q_mask.member & ~interior_of(q_mask).member
    required = inner & domain.charted(s, t, 0.5 * grid.h)
    return q_mask.member, steps, collar, required


@pytest.mark.parametrize("h", [2.0**-k for k in range(3, 8)],
                         ids=lambda h: f"2^{int(math.log2(h))}")
@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_partition_reads_the_lattice_as_the_stacked_points_did(spec, h,
                                                               monkeypatch):
    # the window of global_extend at the default margin
    pad = math.ceil(0.5 / h) * h
    (x0, y0), (x1, y1) = spec.bbox
    window = GridSpec.cover((x0 - pad, y0 - pad), (x1 + pad, y1 + pad), h)
    q, steps, collar, required = stacked_point_partition_sets(spec, window)
    interiors, dilations, charted = [], [], {}

    def spy_interior(mask):
        interiors.append(mask.member)
        return interior_of(mask)

    def spy_dilate(member, radius):
        dilations.append((member, radius, dilate_box(member, radius)))
        return dilations[-1][-1]

    charted_of = type(spec).charted

    def spy_charted(self, s, t, depth):
        charted[depth] = np.broadcast_to(charted_of(self, s, t, depth),
                                         window.extents)
        return charted[depth]

    def pointwise_q(*args):
        raise AssertionError("Q read point by point")

    monkeypatch.setattr(glue, "interior_of", spy_interior)
    monkeypatch.setattr(glue, "dilate_box", spy_dilate)
    monkeypatch.setattr(type(spec), "charted", spy_charted)
    monkeypatch.setattr(domains, "regular_q_member", pointwise_q)
    part = build_partition(spec.charts(), spec, window)
    assert part.q_mask.member.tobytes() == q.tobytes()
    # Q's lattice boundary is taken once and feeds the collar and the
    # required points
    assert len(interiors) == 1 and np.array_equal(interiors[0], q)
    [(ring, radius, dilated)] = dilations
    assert radius == steps
    assert (dilated & charted[0.2]).tobytes() == collar.tobytes()
    assert (ring & charted[0.5 * h]).tobytes() == required.tobytes()
    assert part.checked_points == int(collar.sum())


def in_box(chart, pts):
    """Whether each (n, 2) point lies in the chart's box, edges included."""
    lo, hi = chart.box()
    return ((pts >= lo) & (pts <= hi)).all(axis=-1)


@pytest.mark.parametrize("spec,boxed", [
    (domains.Rectangle(), [1485, 1287, 1287, 1485, 3249, 2565, 2025, 2565]),
    (domains.Disk(), [3485] * 4),
    (domains.HalfBall(), [4225]),
], ids=["rectangle", "disk", "half_ball"])
def test_partition_maps_the_lattice_through_each_chart_once(spec, boxed):
    # of the 9409 lattice points each chart maps exactly those in its box
    grid = GridSpec.cover((-1.5, -1.5), (1.5, 1.5), 2.0**-5)
    charts = spec.charts()
    sizes = count_inverse_points(charts)
    build_partition(charts, spec, grid)
    pts = grid.points(np.indices(grid.extents).reshape(2, -1))
    assert sizes == [[int(in_box(chart, pts).sum())] for chart in charts]
    assert sizes == [[n] for n in boxed]


def test_partition_chi_zero_far_outside():
    spec = domains.Disk()
    part = build_partition(spec.charts(), spec, coarse_lattice(spec))
    far = np.array([[5.0, 5.0], [-3.0, 0.0]])
    for nu in range(len(part.charts)):
        assert np.array_equal(chi_many(part, nu, far, (0, 0)), np.zeros(2))


def test_partition_chi_partials_match_finite_differences():
    spec = domains.Disk()
    part = build_partition(spec.charts(), spec, coarse_lattice(spec))
    pts = np.array([[1.02, 0.3], [0.2, 1.05], [-1.03, 0.15]])
    eps = 1e-6
    for nu in range(len(part.charts)):
        for c, alpha in ((0, (1, 0)), (1, (0, 1))):
            d = np.zeros_like(pts)
            d[:, c] = eps
            fd = (chi_many(part, nu, pts + d, (0, 0))
                  - chi_many(part, nu, pts - d, (0, 0))) / (2 * eps)
            got = chi_many(part, nu, pts, alpha)
            assert np.max(np.abs(fd - got)) < 1e-6


def test_thin_atlas_raises_cover_gap():
    spec = domains.Disk()
    with pytest.raises(CoverGapError):
        build_partition(spec.charts()[:2], spec, coarse_lattice(spec))


def test_local_extension_reproduces_linear_fields():
    spec = domains.Rectangle()
    charts = spec.charts()
    x = get_function("sum_st", depth=4)
    # past the bottom edge (chart 0) and past the (0,0) corner (chart 4)
    cases = [(charts[0], np.array([[0.5, -0.1], [0.3, -0.02]])),
             (charts[4], np.array([[-0.05, -0.05], [-0.1, 0.02]]))]
    for chart, pts in cases:
        assert (bump_jet(chart, pts, 0)[0] < 1.0).all()
        ext = local_extend(x.jet_many, chart, 1)
        got = ext(pts, 0)[(0, 0)]
        want = pts[:, 0] + pts[:, 1]
        assert np.max(np.abs(got - want)) < 1e-10
        for alpha in [(1, 0), (0, 1)]:
            assert np.max(np.abs(ext(pts, 1)[alpha] - 1.0)) < 1e-9


def test_local_extension_of_zero_is_zero():
    spec = domains.Disk()
    chart = spec.charts()[0]
    z = polynomial_jet("z", {})
    ext = local_extend(z.jet_many, chart, 1)
    pts = np.array([[1.05, 0.0], [1.01, 0.2]])
    for alpha in [(0, 0), (1, 0), (0, 1)]:
        assert np.array_equal(ext(pts, sum(alpha))[alpha], np.zeros(2))


def test_local_extension_error_quadratic_in_distance():
    # order-1 reflection: value error past the wall is O(d^2)
    spec = domains.Disk()
    chart = spec.charts()[0]
    x = get_function("sin_cos", depth=4)
    ext = local_extend(x.jet_many, chart, 1)
    errs = []
    for d in (1e-2, 5e-3, 2.5e-3):
        p = np.array([[1.0 + d, 0.0]])
        got = ext(p, 0)[(0, 0)][0]
        errs.append(abs(got - np.sin(1.0 + d)))
    assert errs[0] < 5e-4
    assert 3.5 < errs[0] / errs[1] < 4.5
    assert 3.5 < errs[1] / errs[2] < 4.5


def counting_sin_cos():
    """sin_cos whose closed-form evaluator records every call."""
    x = get_function("sin_cos", depth=4)
    calls = []
    leaf = x.evaluator

    def evaluator(pts, order):
        calls.append(order)
        return leaf(pts, order)

    x.evaluator = evaluator
    return x, calls


@pytest.mark.parametrize("k,walls,pts", [
    (0, 1, [[0.5, -0.1], [0.3, -0.02]]),
    (4, 2, [[-0.05, -0.05], [-0.1, -0.02]]),
], ids=["edge", "corner"])
def test_local_jet_asks_the_source_once_per_probe(k, walls, pts):
    # past the bottom edge (chart 0) and past both walls of the (0,0) corner
    # (chart 4): one whole-jet leaf call per reflected probe, 3 probes per
    # wall at order 2
    chart = domains.Rectangle().charts()[k]
    pts = np.array(pts)
    assert (bump_jet(chart, pts, 0)[0] < 1.0).all()
    assert (chart.inverse(pts)[:, :walls] < 0.0).all()
    want = 3**walls
    x, calls = counting_sin_cos()
    local_extend(x.jet_many, chart, 2)(pts, 2)
    assert calls == [2] * want


def test_partial_many_is_the_projection_of_jet_many():
    rng = np.random.default_rng(11)
    x = get_function("sin_cos", depth=4)
    box = rng.uniform(-0.5, 0.5, (300, 2))
    cases = [
        (HalfSpaceExtension(solve_coefficients(2), x.jet_many, axis=1), box),
        (corner_extension(x.jet_many, 2, max_depth=None), box),
    ]
    for ext, pts in cases:
        jet = ext.jet_many(pts, 2)
        for alpha in multi_indices(2, 2):
            assert np.array_equal(ext.partial_many(pts, alpha), jet[alpha])


def test_interior_chart_carries_no_extension():
    spec = domains.Disk()
    part = build_partition(spec.charts(), spec, coarse_lattice(spec))
    assert part.charts[-1].kind == "interior"

    def s_leaf(p, order):
        return {(0, 0): p[..., 0]}

    with pytest.raises(UnsupportedDomainError):
        local_extend(AnalyticJet("s", 2, s_leaf).jet_many,
                     part.charts[-1], 1)


def test_global_extension_exact_for_linear_field():
    spec = domains.Rectangle()
    x = get_function("sum_st", depth=4)
    res = global_extend(x, spec, 1, h=2.0**-5, margin=0.5)
    s, t = coord_grids(res.window)
    err = np.abs(res.jet.components[(0, 0)] - (s + t))
    assert float(err.max()) < 1e-6
    assert res.uncovered_points == 0
    assert res.sum_residual < 1e-9
    # on Q the values are the source's own samples, bit for bit
    q = res.q_mask.member
    assert np.array_equal(res.jet.components[(0, 0)][q], (s + t)[q])
    for alpha in [(1, 0), (0, 1)]:
        assert float(np.abs(res.jet.components[alpha] - 1.0).max()) < 1e-6


def test_global_extension_of_constant_is_constant():
    spec = domains.Rectangle()
    one = polynomial_jet("one", {(0, 0): 1.0})
    res = global_extend(one, spec, 2, h=2.0**-5, margin=0.5)
    assert float(np.abs(res.jet.components[(0, 0)] - 1.0).max()) < 1e-12
    for alpha in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        assert float(np.abs(res.jet.components[alpha]).max()) < 1e-9


def test_global_partials_match_finite_differences_outside():
    spec = domains.Disk()
    x = get_function("sin_cos", depth=4)
    res = global_extend(x, spec, 2, h=2.0**-5, margin=0.5)
    pts = np.array([[1.05, 0.2], [-0.3, 1.08], [0.75, 0.75]])
    eps = 1e-5
    for c, alpha in ((0, (1, 0)), (1, (0, 1))):
        d = np.zeros_like(pts)
        d[:, c] = eps
        fd = (res.field.jet_many(pts + d, 0)[(0, 0)]
              - res.field.jet_many(pts - d, 0)[(0, 0)]) / (2 * eps)
        got = res.field.jet_many(pts, 1)[alpha]
        assert np.max(np.abs(fd - got)) < 1e-5
    # one second-order component via first partials
    d = np.zeros_like(pts)
    d[:, 1] = eps
    fd = (res.field.jet_many(pts + d, 1)[(1, 0)]
          - res.field.jet_many(pts - d, 1)[(1, 0)]) / (2 * eps)
    got = res.field.jet_many(pts, 2)[(1, 1)]
    assert np.max(np.abs(fd - got)) < 1e-4


def test_global_extension_order_cap():
    with pytest.raises(ValueError):
        global_extend(get_function("sin_cos", depth=4),
                      domains.Disk(), 3, h=2.0**-5, margin=0.5)


@pytest.mark.parametrize(
    "spec,bound",
    [(domains.Disk(), 1e-4), (domains.HalfBall(), 1e-4)],
    ids=lambda v: v.kind if hasattr(v, "kind") else str(v),
)
def test_interface_scan_small_mismatch(spec, bound):
    x = get_function("sin_cos", depth=4)
    res = global_extend(x, spec, 1, h=2.0**-5, margin=0.5)
    mm = interface_jet_mismatch(res.field, h=2.0**-8)
    assert set(mm) == {(0, 0), (1, 0), (0, 1)}
    assert max(mm.values()) < bound


@pytest.mark.parametrize("spec", [domains.Disk(), domains.Rectangle(),
                                  domains.HalfBall()],
                         ids=lambda spec: spec.kind)
def test_interface_scan_in_one_call_equals_one_call_per_offset(spec):
    x = get_function("sin_cos", depth=4)
    field = global_extend(x, spec, 2, h=2.0**-5, margin=0.5).field
    calls = []
    blend = field.jet_many

    def counted(pts, order):
        calls.append(len(pts))
        return blend(pts, order)

    field.jet_many = counted
    for h in (2.0**-10, 2.0**-7):
        calls.clear()
        mismatch = interface_jet_mismatch(field, h)
        assert calls == [6 * domains.N_PROBES]
        want = six_call_interface_mismatch(field, h)
        assert list(mismatch) == list(want)
        assert [np.float64(v).view(np.int64) for v in mismatch.values()] == [
            np.float64(v).view(np.int64) for v in want.values()]


def test_half_ball_face_partition_is_identity():
    # one boundary chart: its normalized bump is exactly 1 on the face
    spec = domains.HalfBall()
    part = build_partition(spec.charts(), spec, coarse_lattice(spec))
    ts = np.linspace(-0.85, 0.85, 41)
    pts = np.stack([np.zeros_like(ts), ts], axis=-1)
    chi0 = chi_many(part, 0, pts, (0, 0))
    assert np.max(np.abs(chi0 - 1.0)) == 0.0
    for alpha in [(1, 0), (0, 1)]:
        assert np.max(np.abs(chi_many(part, 0, pts, alpha))) == 0.0


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.kind)
def test_window_jet_is_one_jet_many_over_the_window(spec):
    x = get_function("sin_cos", depth=4)
    res = global_extend(x, spec, 2, h=2.0**-5, margin=0.5)
    everywhere = np.nonzero(np.ones(res.window.extents, dtype=bool))
    want = res.field.jet_many(res.window.points(everywhere), 2)
    assert list(res.jet.components) == list(want)
    for alpha, arr in want.items():
        got = res.jet.components[alpha].ravel()
        assert np.array_equal(got.view(np.int64), arr.view(np.int64))


def test_window_walk_asks_once_per_row_block_for_each_point(monkeypatch):
    # at 2^-7 the half-ball's window spans two row blocks
    calls = []

    def counted_sample(evaluator, mask, order):
        def counted(pts, order):
            calls.append(pts.copy())
            return evaluator(pts, order)

        return grid.sample(counted, mask, order)

    monkeypatch.setattr(glue, "sample", counted_sample)
    res = global_extend(get_function("sin_cos", depth=4), domains.HalfBall(),
                        1, h=2.0**-7, margin=0.5)
    window = res.window
    # each block's lattice points in one array, each window point once
    blocks = list(row_blocks(window.extents))
    assert len(calls) == len(blocks) == 2
    assert [pts.shape[:-1] for pts in calls] == [
        (rows.stop - rows.start, window.extents[1]) for rows in blocks]
    everywhere = np.nonzero(np.ones(window.extents, dtype=bool))
    assert np.concatenate(calls).reshape(-1, 2).tobytes() == window.points(
        everywhere).tobytes()


@pytest.mark.parametrize("spec,before", [
    (domains.Disk(), 27.3), (domains.Rectangle(), 27.5),
    (domains.HalfBall(), 23.3),
], ids=["disk", "rectangle", "half_ball"])
def test_global_extend_holds_no_block_outputs_across_extensions(spec,
                                                                before):
    # tracemalloc peaks at 2^-7 were 27.3 / 27.5 / 23.3 MB while a row
    # block's outputs and each pushforward's Jacobian and Hessian were held
    # across the extensions; blend first and derivatives after the source
    # measured 22.5 / 21.9 / 17.8 MB
    x = get_function("sin_cos", depth=4)
    tracemalloc.start()
    try:
        global_extend(x, spec, 2, h=2.0**-7, margin=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.9 * before * 1e6


def count_inverse_points(charts):
    """Wrap each chart's inverse; the list of point counts per chart."""
    sizes = [[] for _ in charts]
    for chart, seen in zip(charts, sizes):
        inverse = chart.inverse

        def counted(pts, _inverse=inverse, _seen=seen):
            _seen.append(len(pts))
            return _inverse(pts)

        chart.inverse = counted
    return sizes


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_bump_ball_jet_sees_only_its_support(spec, monkeypatch):
    radii = []

    def counted(xi, order):
        radii.append(np.hypot(xi[..., 0], xi[..., 1]))
        return bump_ball_jet(xi, order)

    monkeypatch.setattr(glue, "bump_ball_jet", counted)
    global_extend(get_function("sin_cos", depth=4), spec, 2, h=2.0**-5,
                  margin=0.5)
    seen = np.concatenate(radii)
    assert len(seen) > 0
    assert (seen < glue.BUMP_SHRINK).all()


@pytest.mark.parametrize("spec,mapped", [
    (domains.Rectangle(), [52, 55] * 2 + [118] * 4 + [0]),
    (domains.Disk(), [119] * 4 + [4]),
    (domains.HalfBall(), [93, 0]),
], ids=["rectangle", "disk", "half_ball"])
def test_blend_maps_its_points_through_each_bump_chart_once(spec, mapped):
    res = global_extend(get_function("sin_cos", depth=4), spec, 2,
                        h=2.0**-5, margin=0.5)
    # the extensions hold the inverse they were built with, so only the
    # bumps see the wrapped one
    sizes = count_inverse_points(res.field.partition.charts)
    (x0, y0), (x1, y1) = spec.bbox
    pts = np.stack(np.meshgrid(np.linspace(x0 - 0.3, x1 + 0.3, 23),
                               np.linspace(y0 - 0.3, y1 + 0.3, 19)),
                   axis=-1).reshape(-1, 2)
    outside = ~domains.regular_q_member(spec, pts[:, 0], pts[:, 1])
    res.field.jet_many(pts, 2)
    # of the points off Q, each chart maps exactly those in its box
    assert sizes == [[int((outside & in_box(chart, pts)).sum())]
                     for chart in res.field.partition.charts]
    assert sizes == [[n] for n in mapped]


@pytest.mark.parametrize("spec,inverse_points,bump_points", [
    (domains.Rectangle(), [2215] * 4 + [4245] * 4 + [841],
     [1275] * 4 + [2621] * 4 + [517]),
    (domains.Disk(), [6693] * 4 + [2669], [2289] * 4 + [1669]),
    (domains.HalfBall(), [5597, 910], [3061, 569]),
], ids=["rectangle", "disk", "half_ball"])
def test_global_extend_chart_and_bump_points_are_pinned(
        spec, inverse_points, bump_points, monkeypatch):
    # at 2^-5 the window is one row block: each chart maps its boxed part
    # once for the partition and its boxed exterior once for the blend, and
    # a boundary chart's extension maps the exterior points its bump reaches
    charts, interior = spec.charts(), spec.interior_chart()
    sizes = count_inverse_points([*charts, interior])
    monkeypatch.setattr(type(spec), "charts", lambda self: charts)
    monkeypatch.setattr(type(spec), "interior_chart", lambda self: interior)
    seen = {id(c): 0 for c in [*charts, interior]}

    def counted(chart, pts, order):
        rho, jet = bump_jet(chart, pts, order)
        seen[id(chart)] += len(jet[(0, 0)])
        return rho, jet

    monkeypatch.setattr(glue, "bump_jet", counted)
    global_extend(get_function("sin_cos", depth=4), spec, 2, h=2.0**-5,
                  margin=0.5)
    assert [len(s) for s in sizes] == [3] * len(charts) + [2]
    assert [sum(s) for s in sizes] == inverse_points
    assert list(seen.values()) == bump_points
