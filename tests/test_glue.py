"""Charts, bumps, partition of unity, and the blended global extension."""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from jetlab import domains, glue, io, taylor
from jetlab.cli import main
from jetlab.errors import CoverGapError, UnsupportedDomainError
from jetlab.functions import AnalyticJet, get_function, polynomial_jet
from jetlab.glue import (
    bump_ball_jet,
    build_partition,
    bump_jet,
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
from jetlab.taylor import substitute
from test_digests import PROP2, PROP2_LOW, content_digest, sha256
from lattice_oracles import (
    box_dilation, chart_roundtrip_defect, chi_many, coord_grids, erosion,
    order2_bump_ball_jet, order2_chain_jet, order2_chi_jet,
    order2_forward_derivatives, order2_inverse_derivatives,
    six_call_interface_mismatch,
)


def ball_points(n, radius=0.95, seed=3):
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(0, 1, n))
    th = rng.uniform(0, 2 * np.pi, n)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)


ALL_SPECS = [domains.Rectangle(), domains.Disk(), domains.HalfBall()]


def forward(chart, xi):
    """The chart's map at reference points: its Taylor call's value."""
    return chart.forward_taylor(xi)[0]


def inverse(chart, pts):
    """The chart's inverse at world points: its Taylor call's value."""
    return chart.inverse_taylor(pts)[0]


def coarse_lattice(spec):
    """Step 2^-6 over the domain's bounding box padded by 1/8."""
    (x0, y0), (x1, y1) = spec.bbox
    return GridSpec.cover((x0 - 0.125, y0 - 0.125), (x1 + 0.125, y1 + 0.125),
                          2.0**-6)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_chart_roundtrip(spec):
    xi = ball_points(200)
    for chart in spec.charts():
        world = forward(chart, xi)
        assert chart_roundtrip_defect(chart, world) < 1e-12
        assert np.max(np.abs(inverse(chart, world) - xi)) < 1e-12


def chart_partials(call, order: int, shape) -> dict:
    """A Taylor call's answer as partials: alpha -> (2, *shape) array of
    each component's d^alpha, alpha! times the series' row, a constant
    row broadcast, and 0 for a row past those the series holds."""
    delta = call[1](order)
    rows = taylor.index(order, 2)
    return {alpha: math.factorial(alpha[0]) * math.factorial(alpha[1])
            * np.broadcast_to(delta[:, k] if k < delta.shape[1] else 0.0,
                              (2,) + shape)
            for alpha, k in rows.items()}


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_chart_jacobians_match_finite_differences(spec):
    xi = ball_points(40, radius=0.8)
    eps = 1e-6
    for chart in spec.charts():
        affine = isinstance(chart, domains.AffineChart)
        # the forward map at xi and the inverse at its image, each with its
        # Jacobian, Hessian, third- and fourth-derivative tolerances
        for at, taylor_call, tols in (
            (xi, chart.forward_taylor, (1e-6, 1e-5, 1e-5, 1e-5)),
            (forward(chart, xi), chart.inverse_taylor,
             (1e-5, 2e-4, 2e-4, 2e-4)),
        ):
            shape = at.shape[:-1]
            lower = None
            call = taylor_call(at)
            for order in range(5):
                # an affine chart's series is constant at every order and
                # holds its rows through degree 1 alone
                if affine:
                    assert call[1](order).shape[1:] == (min(order, 1) * 2 + 1,
                                                        1)
                got = chart_partials(call, order, shape)
                # each order's call extends the one below it
                if lower is not None:
                    for alpha, arr in lower.items():
                        assert np.array_equal(got[alpha], arr)
                lower = got
            # d_c of each partial of order k - 1 against the order-k one
            for alpha, arr in got.items():
                if sum(alpha) == 0:
                    continue
                c = 0 if alpha[0] else 1
                below = (alpha[0] - (c == 0), alpha[1] - (c == 1))
                step = np.zeros_like(at)
                step[:, c] = eps
                if sum(below) == 0:
                    fd = (taylor_call(at + step)[0]
                          - taylor_call(at - step)[0]).T / (2 * eps)
                else:
                    ahead = chart_partials(taylor_call(at + step), 4, shape)
                    behind = chart_partials(taylor_call(at - step), 4, shape)
                    fd = (ahead[below] - behind[below]) / (2 * eps)
                assert np.max(np.abs(fd - arr)) < tols[sum(alpha) - 1]


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
        return forward(chart, side * row[None] / np.hypot(*row))[0]
    ring = forward(chart, np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
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
    xi = inverse(chart, point)
    assert np.hypot(xi[..., 0], xi[..., 1])[0] >= 1.0


_ENTRY = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(-4.0, 4.0, allow_subnormal=False))


@settings(max_examples=200, deadline=None)
@given(st.lists(_ENTRY, min_size=4, max_size=4), st.integers(0, 2**32 - 1),
       st.integers(0, 4))
def test_a_constant_matrix_chains_as_its_broadcast_array(entries, seed,
                                                         order):
    # an affine chart's constant series gives the bits of its per-point
    # broadcast, -0.0 entries included
    matrix = np.array(entries).reshape(2, 2)
    rng = np.random.default_rng(seed)
    n = 64
    f_jet = {alpha: np.where(rng.random(n) < 0.2,
                             rng.choice([0.0, -0.0], n), rng.normal(size=n))
             for alpha in multi_indices(4, 2)}
    chart = domains.AffineChart((0.0, 0.0), np.eye(2), "edge", "half")
    chart.matrix = matrix
    delta = chart.forward_taylor(np.zeros((n, 2)))[1](order)
    assert delta.shape[2:] == (1,)
    got = substitute(f_jet, delta, order, 2)
    want = substitute(f_jet, np.broadcast_to(delta, delta.shape[:2] + (n,)),
                      order, 2)
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
    world = forward(chart, pts)
    inside = np.hypot(world[:, 0], world[:, 1]) <= 1.0
    assert np.array_equal(inside, pts[:, 0] >= -1e-12)


def test_bump_partials_match_finite_differences():
    xi = ball_points(60, radius=0.85, seed=5)
    eps = 1e-6
    f = bump_ball_jet(xi, 0)[(0, 0)]
    assert (f > 0).all()
    # d_c of each partial of order k - 1 against the order-k one; the
    # tolerances of orders 1 and 2 as before
    for order, tol in ((1, 1e-7), (2, 1e-6), (3, 1e-5)):
        got = bump_ball_jet(xi, order)
        for alpha in multi_indices(order, 2):
            if sum(alpha) != order:
                continue
            c = 0 if alpha[0] else 1
            below = (alpha[0] - (c == 0), alpha[1] - (c == 1))
            dxi = np.zeros_like(xi)
            dxi[:, c] = eps
            fd = (bump_ball_jet(xi + dxi, order - 1)[below]
                  - bump_ball_jet(xi - dxi, order - 1)[below]) / (2 * eps)
            assert np.max(np.abs(fd - got[alpha])) < tol


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
    # d_c of each partial of order k - 1 against the order-k one; orders 2
    # and 3 join order 1 at its tolerance
    for nu in range(len(part.charts)):
        for alpha in multi_indices(3, 2):
            if sum(alpha) == 0:
                continue
            c = 0 if alpha[0] else 1
            below = (alpha[0] - (c == 0), alpha[1] - (c == 1))
            d = np.zeros_like(pts)
            d[:, c] = eps
            fd = (chi_many(part, nu, pts + d, below)
                  - chi_many(part, nu, pts - d, below)) / (2 * eps)
            got = chi_many(part, nu, pts, alpha)
            assert np.max(np.abs(fd - got)) < 1e-6


def test_thin_atlas_raises_cover_gap():
    spec = domains.Disk()
    with pytest.raises(CoverGapError):
        build_partition(spec.charts()[:2], spec, coarse_lattice(spec))


class RiddenDisk(domains.Disk):
    """The disk whose interior bump rides on its fourth boundary chart."""

    def interior_chart(self):
        return domains.Disk().charts()[3]


def thin_disk_charts(depth):
    return [dataclasses.replace(chart, depth=depth)
            for chart in domains.Disk().charts()]


# The partition's three refusals on the disk's window at 2^-6, padded by
# 0.5, each message recorded while the partition was held whole: a chart
# left out, an interior bump riding on a boundary chart left out of the
# atlas, and charts too thin to reach 0.05 past the boundary.
PARTITION_REFUSALS = {
    "cover": (lambda: (domains.Disk().charts()[1:], domains.Disk()),
              "69 required boundary lattice points have zero bump sum, "
              "first at (0.84375, -0.53125)"),
    "subordination": (lambda: (domains.Disk().charts()[:3], RiddenDisk()),
                      "bump 3 (polar chart) is not subordinate to any "
                      "extension domain"),
    "collar": (lambda: (thin_disk_charts(0.04), domains.Disk()),
               "boundary collar point (-1.0625, -0.0625) has zero bump sum"),
}


@pytest.mark.parametrize("chunk", [2**7, 2**16])
@pytest.mark.parametrize("case", sorted(PARTITION_REFUSALS))
def test_partition_refuses_after_its_walk_as_it_did_whole(case, chunk,
                                                          monkeypatch):
    # with row blocks of one row and with the whole window as one block
    monkeypatch.setattr(grid, "CHUNK_POINTS", chunk)
    make, message = PARTITION_REFUSALS[case]
    charts, domain = make()
    window = GridSpec.cover((-1.5, -1.5), (1.5, 1.5), 2.0**-6)
    with pytest.raises(CoverGapError) as refusal:
        build_partition(charts, domain, window)
    assert str(refusal.value) == message


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
    assert (inverse(chart, pts)[:, :walls] < 0.0).all()
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
    jet = res.jet.held()
    s, t = coord_grids(res.window)
    err = np.abs(jet.components[(0, 0)] - (s + t))
    assert float(err.max()) < 1e-6
    assert res.uncovered_points == 0
    assert res.sum_residual < 1e-9
    # on Q the values are the source's own samples, bit for bit
    q = res.q_mask.member
    assert np.array_equal(jet.components[(0, 0)][q], (s + t)[q])
    for alpha in [(1, 0), (0, 1)]:
        assert float(np.abs(jet.components[alpha] - 1.0).max()) < 1e-6


def test_global_extension_of_constant_is_constant():
    spec = domains.Rectangle()
    one = polynomial_jet("one", {(0, 0): 1.0})
    jet = global_extend(one, spec, 2, h=2.0**-5, margin=0.5).jet.held()
    assert float(np.abs(jet.components[(0, 0)] - 1.0).max()) < 1e-12
    for alpha in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        assert float(np.abs(jet.components[alpha]).max()) < 1e-9


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
    # past order 2, where the polar charts' series and the chain rule run
    # beyond the formulas they replaced: third partials via second ones
    field = global_extend(x, spec, 3, h=2.0**-5, margin=0.5).field
    for c, below, alpha in ((0, (1, 1), (2, 1)), (1, (0, 2), (0, 3))):
        d = np.zeros_like(pts)
        d[:, c] = eps
        fd = (field.jet_many(pts + d, 2)[below]
              - field.jet_many(pts - d, 2)[below]) / (2 * eps)
        got = field.jet_many(pts, 3)[alpha]
        assert np.max(np.abs(fd - got)) < 1e-4


def test_global_extension_order_cap():
    with pytest.raises(ValueError, match="runs to order 4"):
        global_extend(get_function("sin_cos", depth=4),
                      domains.Disk(), 5, h=2.0**-5, margin=0.5)


# The Taylor path against the order-2 formulas it replaced: each partial
# within ORACLE_RTOL of the largest partial of its jet over the sample.
ORACLE_RTOL = 1e-14


def assert_jets_close(got, want):
    assert list(got) == list(want)
    scale = max(float(np.max(np.abs(arr))) for arr in want.values())
    for alpha, arr in want.items():
        assert np.max(np.abs(got[alpha] - arr)) <= ORACLE_RTOL * scale


def order2_partials(J, H, order):
    """The map partials the order-2 formulas give, keyed as
    chart_partials keys them."""
    out = {}
    for alpha in multi_indices(order, 2):
        if sum(alpha) == 1:
            out[alpha] = np.moveaxis(J[..., :, alpha.index(1)], -1, 0)
        elif sum(alpha) == 2:
            c, d = [k for k in range(2) for _ in range(alpha[k])]
            out[alpha] = np.moveaxis(H[..., :, c, d], -1, 0)
    return out


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_taylor_glue_matches_the_order_2_formulas(spec, order):
    xi = ball_points(300, radius=0.85, seed=7)
    x = get_function("sin_cos", depth=4)
    for chart in [*spec.charts(), spec.interior_chart()]:
        world, series = chart.forward_taylor(xi)
        # each map's series against its Jacobian and Hessian
        for call, at, oracle in (
                (chart.forward_taylor, xi, order2_forward_derivatives),
                (chart.inverse_taylor, world, order2_inverse_derivatives)):
            got = chart_partials(call(at), order, at.shape[:-1])
            want = order2_partials(*oracle(chart, at), order)
            if want:
                assert_jets_close({a: got[a] for a in want}, want)
        # the chain rule: sin_cos pulled back through the chart
        f_jet = x.jet_many(world, order)
        assert_jets_close(
            substitute(f_jet, series(order), order, 2),
            order2_chain_jet(f_jet, *order2_forward_derivatives(chart, xi),
                             order))
        # the bump in reference coordinates, and pushed through the chart
        assert_jets_close(bump_ball_jet(xi, order),
                          order2_bump_ball_jet(xi, order))
        rho, got = bump_jet(chart, world, order)
        near = world[rho < glue.BUMP_SHRINK]
        assert len(near) > 250
        assert_jets_close(got, order2_chain_jet(
            order2_bump_ball_jet(inverse(chart, near), order),
            *order2_inverse_derivatives(chart, near), order))
    # the partition quotient at points off, on and inside Q's boundary
    part = build_partition(spec.charts(), spec, coarse_lattice(spec))
    pts, normals = spec.probes()
    pts = np.concatenate([pts + k * normals for k in (0.1, 0.05, 0.0, -0.1)])
    raw = []
    for chart in part.charts:
        rho, jet = bump_jet(chart, pts, order)
        full = {alpha: np.zeros(len(pts)) for alpha in jet}
        for alpha, vals in jet.items():
            full[alpha][rho < glue.BUMP_SHRINK] = vals
        raw.append(full)
    S = {alpha: sum(r[alpha] for r in raw) for alpha in raw[0]}
    # the quotient rule's terms are products of up to order ratios
    # S_beta/S_0, and they cancel where one bump alone reaches, so each
    # point's bound is ORACLE_RTOL times the largest such product there
    s0 = np.where(S[(0, 0)] > 0.0, S[(0, 0)], 1.0)
    ratio = np.maximum(1.0, np.max([np.abs(arr) / s0 for arr in S.values()],
                                   axis=0))
    for nu in range(len(part.charts)):
        want = order2_chi_jet(raw[nu], S, order)
        for alpha, arr in want.items():
            got = chi_many(part, nu, pts, alpha)
            assert (np.abs(got - arr) <= ORACLE_RTOL * ratio**order).all()


# a polynomial of degree <= i and its window at the reflection orders the
# glue goes to past 2
@st.composite
def polynomial_case(draw):
    order = draw(st.sampled_from([3, 4]))
    spec = draw(st.sampled_from([domains.Rectangle(), domains.HalfBall()]))
    coeff = st.floats(-1.0, 1.0).filter(lambda c: abs(c) >= 2.0**-10)
    terms = draw(st.dictionaries(st.sampled_from(multi_indices(order, 2)),
                                 coeff, min_size=1))
    return order, spec, terms


@settings(max_examples=12, deadline=None)
@given(polynomial_case())
def test_glue_reproduces_polynomials_at_orders_3_and_4(case):
    # rectangle and half-ball charts are affine, so a polynomial of degree
    # <= i pulls back to one, the order-i reflection reproduces it and the
    # bumps sum to 1: every partial comes back at every window point a bump
    # reaches, up to rounding that the reflection weights' absolute sum
    # amplifies, squared through a corner's tensor reflection, relative to
    # the largest partial there
    order, spec, terms = case
    p = polynomial_jet("p", terms)
    res = global_extend(p, spec, order, h=2.0**-4, margin=0.5)
    reached = ~res.field.partition.unreached.member
    assert (reached & ~res.q_mask.member).sum() > 100
    want = p.jet_many(res.window.points(np.nonzero(reached)), order)
    scale = max(float(np.max(np.abs(arr))) for arr in want.values())
    mass = solve_coefficients(order).abs_sum()
    assert mass == {3: 831, 4: 13569}[order]
    if spec.kind == "rectangle":
        mass = mass**2
    bound = 32 * np.finfo(np.float64).eps * mass * scale
    jet = res.jet.held()
    for alpha, arr in want.items():
        assert np.max(np.abs(jet.components[alpha][reached] - arr)) <= bound


def component_jets(call, order: int, shape) -> list[dict]:
    """A chart map's Taylor call as one Jet per component."""
    partials = chart_partials(call, order, shape)
    partials[(0, 0)] = np.moveaxis(call[0], -1, 0)
    return [{alpha: arr[i] for alpha, arr in partials.items()}
            for i in range(2)]


@pytest.mark.parametrize("order", [3, 4])
def test_polar_series_chain_exactly_at_orders_3_and_4(order):
    # past the order-2 formulas, through the chain rule's general path: a
    # polar chart's inverse pulled back through its forward series, and its
    # forward map pushed through its inverse series, give the identity's
    # jet, and |x - c|^2 pulls back to the polynomial (R - depth xi_0)^2;
    # the partials involved stay below 50, and 1e-12 is about 60 times the
    # largest error measured
    xi = ball_points(200, radius=0.85, seed=3)
    for chart in domains.Disk().charts():
        world, series = chart.forward_taylor(xi)
        back, inverse_series = chart.inverse_taylor(world)
        for outer, inner, at in (
                (chart.inverse_taylor(world), series, xi),
                (chart.forward_taylor(back), inverse_series, world)):
            for i, f_jet in enumerate(component_jets(outer, order, (200,))):
                got = substitute(f_jet, inner(order), order, 2)
                for alpha in multi_indices(order, 2):
                    want = (at[:, i] if sum(alpha) == 0
                            else float(alpha[i] == 1 == sum(alpha)))
                    assert np.max(np.abs(got[alpha] - want)) < 1e-12
        v = world - chart.center
        square = {alpha: np.zeros(len(xi)) for alpha in multi_indices(order, 2)}
        square.update({(0, 0): (v**2).sum(-1), (1, 0): 2.0 * v[:, 0],
                       (0, 1): 2.0 * v[:, 1], (2, 0): 2.0, (0, 2): 2.0})
        r = chart.radius - chart.depth * xi[:, 0]
        want = {(0, 0): r**2, (1, 0): -2.0 * chart.depth * r,
                (2, 0): 2.0 * chart.depth**2}
        got = substitute(square, series(order), order, 2)
        for alpha, arr in got.items():
            assert np.max(np.abs(arr - want.get(alpha, 0.0))) < 1e-12


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
    jet = res.jet.held()
    assert list(jet.components) == list(want)
    for alpha, arr in want.items():
        got = jet.components[alpha].ravel()
        assert np.array_equal(got.view(np.int64), arr.view(np.int64))


def test_window_walk_asks_once_per_row_block_for_each_point(monkeypatch):
    # at 2^-7 the half-ball's window spans two row blocks
    calls = []

    def counted_spool(evaluator, window, order):
        def counted(pts, order):
            calls.append(pts.copy())
            return evaluator(pts, order)

        return grid.spool(counted, window, order)

    monkeypatch.setattr(glue, "spool", counted_spool)
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


@pytest.mark.parametrize("kind,before", [
    ("disk", 58.6), ("rectangle", 48.0), ("half_ball", 44.4),
], ids=["disk", "rectangle", "half_ball"])
def test_extend_prop2_holds_no_window_sized_float_array(kind, before, tmp_path,
                                                        capsys):
    # tracemalloc peaks of the command at 2^-8 were 58.6 / 48.0 / 44.4 MB
    # while the partition held the window's points and bump values and the
    # window's jet was held whole, written from memory; a partition checked
    # one row block at a time and a jet spooled to files measured 30.2 /
    # 35.4 / 25.4 MB.  A first run at 2^-4 makes the imports and caches.
    argv = ["extend", "prop2", "--function", "sin_cos", "--domain", kind,
            "--order", "2", "--out", str(tmp_path / "prop2.json"), "--h"]
    assert main(argv + ["0.0625"]) == 0
    tracemalloc.start()
    try:
        assert main(argv + ["0.00390625"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.8 * before * 1e6


def count_inverse_points(charts):
    """Wrap each chart's inverse Taylor call, the one call that maps world
    points through it; the list of point counts per chart."""
    sizes = [[] for _ in charts]
    for chart, seen in zip(charts, sizes):
        inverse = chart.inverse_taylor

        def counted(pts, _inverse=inverse, _seen=seen):
            _seen.append(len(pts))
            return _inverse(pts)

        chart.inverse_taylor = counted
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
    # the extensions hold the inverse Taylor call they were built with, so
    # only the bumps see the wrapped one
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


# The three benchmark `extend prop2` commands at 2^-7, whose windows span
# several row blocks where the digest pins' windows are one: the sha256 of
# each stripped payload, and of the half-ball's --csv file, recorded while
# the partition and the window's jet were held whole.
BENCHMARK_PROP2 = {
    "disk": "b521458c9a744ee51397eb990f2e7de4342fbd5e244fb57b7addccefdba38226",
    "rectangle":
        "cefff638d764a7432e0e71fb1d8947aec17638d2d5797775118a2967cec2e600",
    "half_ball":
        "c65931e6d495058fca13b3ce305e7fe8937d2ae1b401a973064c775108e06903",
}
BENCHMARK_PROP2_CSV = (
    "half_ball",
    "fa87a4a7ad4f3b6a992b61d7c9be96103f8aff12fd7fd8c7bca7b564fcad7a36")


@pytest.mark.parametrize("kind", sorted(BENCHMARK_PROP2))
def test_the_benchmark_prop2_commands_write_their_pinned_bytes(kind, tmp_path,
                                                               capsys):
    out, csv = tmp_path / "prop2.json", tmp_path / "prop2.csv"
    argv = ["extend", "prop2", "--function", "sin_cos", "--domain", kind,
            "--order", "2", "--h", "0.0078125", "--margin", "0.5",
            "--out", str(out)]
    with_csv = kind == BENCHMARK_PROP2_CSV[0]
    assert main(argv + (["--csv", str(csv)] if with_csv else [])) == 0
    digest = BENCHMARK_PROP2[kind]
    assert sha256(io.strip_provenance(out.read_text())) == digest
    if with_csv:
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
            BENCHMARK_PROP2_CSV[1])


# Each pin of tests/test_digests.py's PROP2 and PROP2_LOW again, with row
# blocks of one or a few rows, so the partition and the window walk cross
# many block seams.
PROP2_PINS = {**{(kind, 2, "0.0625"): pins for kind, pins in PROP2.items()},
              **{(kind, order, "0.03125"): pins
                 for (kind, order), pins in PROP2_LOW.items()}}


@pytest.mark.parametrize("chunk", [2**7, 2**9])
@pytest.mark.parametrize("pin", sorted(PROP2_PINS), ids=lambda p: "-".join(
    map(str, p[:2])))
def test_the_prop2_pins_hold_across_row_blocks(pin, chunk, tmp_path,
                                               monkeypatch, capsys):
    monkeypatch.setattr(grid, "CHUNK_POINTS", chunk)
    kind, order, h = pin
    out = tmp_path / "prop2.json"
    assert main(["extend", "prop2", "--function", "sin_cos", "--domain", kind,
                 "--order", str(order), "--h", h, "--out", str(out)]) == 0
    digest, content = PROP2_PINS[pin]
    assert sha256(io.strip_provenance(out.read_text())) == digest
    assert content_digest(out) == content
