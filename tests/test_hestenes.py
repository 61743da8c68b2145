"""Reflection extension: exact weights, reproduction, interface smoothness."""

import math
from fractions import Fraction

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jetlab.errors import JetlabError, MaskMismatchError, ProbeOutsideMaskError
from jetlab.functions import AnalyticJet, get_function, polynomial_jet
from jetlab.grid import GridMask, GridSpec, SampledJet, multi_indices
from jetlab.hestenes import (
    HalfSpaceExtension,
    corner_extension,
    extend_half_space_lattice,
    interface_mismatch,
    solve_coefficients,
)
from lattice_oracles import (
    coord_grids, cramer_coefficients, per_line_lattice_extension,
    reflection_residual,
)


def test_spot_values_match_independent_solve():
    assert cramer_coefficients(0) == (1,)
    assert cramer_coefficients(1) == (-3, 4)
    assert cramer_coefficients(2) == (6, -32, 27)
    for i in range(3):
        assert solve_coefficients(i).values == cramer_coefficients(i)


def test_residuals_exactly_zero_up_to_cap():
    for i in range(13):
        coeffs = solve_coefficients(i)
        for j in range(i + 1):
            assert reflection_residual(coeffs, j) == 0
        assert all(isinstance(v, Fraction) for v in coeffs.values)


def test_order_cap():
    with pytest.raises(ValueError):
        solve_coefficients(13)
    with pytest.raises(ValueError):
        solve_coefficients(-1)


def test_abs_sum_growth_reported():
    # no assertion on the growth itself, just that the report is coherent
    c = solve_coefficients(6)
    assert c.abs_sum() == pytest.approx(sum(abs(v) for v in c.floats()), rel=1e-12)
    assert c.abs_sum() > 1e6


@pytest.mark.parametrize("i", range(7))
@pytest.mark.parametrize("g_name", ["one", "s", "sin"])
def test_monomial_reproduction(i, g_name):
    rng = np.random.default_rng(42)
    pts = np.stack([
        rng.uniform(-1.0, 1.0, 1000),       # s free
        rng.uniform(-1.0, 0.0, 1000),       # t past the wall
    ], axis=-1)
    g_funcs = {
        "one": lambda s: np.ones_like(s),
        "s": lambda s: s,
        "sin": np.sin,
    }
    g = g_funcs[g_name]
    for j in range(i + 1):

        def source(p, order):
            assert order == 0
            return {(0, 0): p[..., 1] ** j * g(p[..., 0])}

        ext = HalfSpaceExtension(solve_coefficients(i),
                                 AnalyticJet("src", 2, source).jet_many,
                                 axis=1)
        got = ext.jet_many(pts, 0)[(0, 0)]
        want = pts[..., 1] ** j * g(pts[..., 0])
        scale = np.maximum(1.0, np.abs(want))
        assert np.max(np.abs(got - want) / scale) < 1e-9


def test_exp_formula_and_order():
    ext = HalfSpaceExtension(
        solve_coefficients(2),
        get_function("exp1d", depth=4).jet_many, axis=0)
    got = float(ext.jet_many(np.array([[-0.1]]), 0)[(0,)][0])
    direct = 6 * math.exp(0.1) - 32 * math.exp(0.05) + 27 * math.exp(0.1 / 3)
    assert got == pytest.approx(direct, rel=1e-15)
    # order-2 matching leaves an O(t^3) gap to the true exponential;
    # the j = 3 defect is (0.1^3/6) * (sum a_l/l^3 + 1) = 4/6 * 1e-3
    assert abs(got - math.exp(-0.1)) < 1e-3
    assert abs(got - math.exp(-0.1)) > 1e-4


def test_extension_is_identity_inside():
    jet = get_function("exp1d", depth=4)
    ext = HalfSpaceExtension(solve_coefficients(2), jet.jet_many, axis=0)
    pts = np.array([[0.3], [0.0], [0.9]])
    assert np.array_equal(ext.jet_many(pts, 0)[(0,)], np.exp(pts[:, 0]))


def test_linearity():
    u = polynomial_jet("u", {(3, 0): 1.0})
    v = polynomial_jet("v", {(1, 1): 1.0})
    w = polynomial_jet("w", {(3, 0): 2.0, (1, 1): -5.0})
    pts = np.array([[0.4, -0.3], [0.1, -0.7], [0.9, -0.05]])
    for alpha in [(0, 0), (0, 1), (1, 1)]:
        k = sum(alpha)
        eu, ev, ew = (
            HalfSpaceExtension(solve_coefficients(2), f.jet_many, axis=1)
            .jet_many(pts, k)[alpha] for f in (u, v, w))
        assert np.max(np.abs(ew - (2 * eu - 5 * ev))) < 1e-12


def test_zero_source():
    z = polynomial_jet("z", {})
    ext = HalfSpaceExtension(solve_coefficients(2), z.jet_many, axis=0)
    pts = np.array([[-0.5, 0.1], [0.5, 0.3]])
    assert np.array_equal(ext.jet_many(pts, 0)[(0, 0)], np.zeros(2))


def test_derivative_factor():
    # d/dt of the extension of t^2 equals 2t below the wall too
    u = polynomial_jet("t2", {(0, 2): 1.0})
    ext = HalfSpaceExtension(solve_coefficients(2), u.jet_many, axis=1)
    pts = np.array([[0.0, -0.25], [0.0, -0.8]])
    got = ext.jet_many(pts, 1)[(0, 1)]
    assert np.max(np.abs(got - 2 * pts[:, 1])) < 1e-9


def test_max_depth_guard():
    jet = get_function("exp1d", depth=4)
    ext = HalfSpaceExtension(solve_coefficients(1), jet.jet_many, axis=0,
                             max_depth=0.2)
    ext.jet_many(np.array([[-0.15]]), 0)
    with pytest.raises(ProbeOutsideMaskError):
        ext.jet_many(np.array([[-0.25]]), 0)


def test_corner_extension_reproduces_products():
    # s^p t^q for p, q <= i through two nested reflections
    i = 2
    u = polynomial_jet("pq", {(2, 1): 1.0, (1, 2): 0.5})
    ext = corner_extension(u.jet_many, i, max_depth=None)
    pts = np.array([[-0.3, -0.4], [-0.8, -0.1], [0.2, -0.5], [-0.5, 0.2]])
    want = pts[:, 0] ** 2 * pts[:, 1] + 0.5 * pts[:, 0] * pts[:, 1] ** 2
    got = ext.jet_many(pts, 0)[(0, 0)]
    assert np.max(np.abs(got - want)) < 1e-9
    want_d = 2 * pts[:, 0] * pts[:, 1] + 0.5 * pts[:, 1] ** 2
    got_d = ext.jet_many(pts, 1)[(1, 0)]
    assert np.max(np.abs(got_d - want_d)) < 1e-9


def test_interface_mismatch_decay():
    ext = HalfSpaceExtension(
        solve_coefficients(2),
        get_function("exp1d", depth=4).jet_many, axis=0)
    tang = np.zeros((1, 0))
    m_coarse = interface_mismatch(ext, tang, h=2.0**-9)
    m_fine = interface_mismatch(ext, tang, h=2.0**-10)
    for order in (0, 1, 2):
        assert m_fine[order] < 1e-4
    ratio = max(m_coarse.values()) / max(m_fine.values())
    assert 3.5 <= ratio <= 4.5


def unit_mask(lo, hi, h):
    g = GridSpec.cover(lo, hi, h)
    return GridMask(g, np.ones(g.extents, dtype=bool))


def test_lattice_extension_widens_grid():
    h = 2.0**-6
    mask = unit_mask((0.0,), (1.0,), h)
    jet = get_function("exp1d", depth=4).sample(mask, order=2)
    coeffs = solve_coefficients(2)
    res = extend_half_space_lattice(jet, coeffs, width=8, axis=0,
                                    boundary=0.0, inward=1.0)
    assert res.jet.grid.origin == (-0.125,)
    assert res.jet.mask.count == mask.count + 8
    assert res.probe_offset_max <= 0.5 * h
    # values on the original region are copied bit for bit
    assert np.array_equal(res.jet.components[(0,)][8:], jet.components[(0,)])
    # deepest line follows the nearest-sample formula
    want = (6 * math.exp(0.125) - 32 * math.exp(0.0625)
            + 27 * math.exp(0.046875))
    assert res.jet.components[(0,)][0] == pytest.approx(want, rel=1e-14)


def test_lattice_extension_other_direction():
    h = 2.0**-6
    mask = unit_mask((-1.0,), (0.0,), h)
    jet = get_function("exp1d", depth=4).sample(mask, order=2)
    res = extend_half_space_lattice(
        jet, solve_coefficients(2), width=4, axis=0, boundary=0.0,
        inward=-1.0)
    assert res.jet.grid.origin == (-1.0,)
    assert res.jet.grid.extents == (69,)
    want = (6 * math.exp(-0.0625) - 32 * math.exp(-0.03125)
            + 27 * math.exp(-0.015625))
    assert res.jet.components[(0,)][-1] == pytest.approx(want, rel=1e-14)


def test_lattice_extension_errors():
    h = 2.0**-6
    mask = unit_mask((-1.0,), (1.0,), h)
    jet = get_function("exp1d", depth=4).sample(mask, order=1)
    with pytest.raises(MaskMismatchError):
        extend_half_space_lattice(jet, solve_coefficients(1), width=2, axis=0,
                                  boundary=0.0, inward=1.0)
    small = unit_mask((0.0,), (4 * h,), h)
    jet2 = get_function("exp1d", depth=4).sample(small, order=1)
    with pytest.raises(ProbeOutsideMaskError):
        extend_half_space_lattice(jet2, solve_coefficients(1), width=8, axis=0,
                                  boundary=0.0, inward=1.0)
    with pytest.raises(ValueError):
        extend_half_space_lattice(jet2, solve_coefficients(1), width=-1,
                                  axis=0, boundary=0.0, inward=1.0)


def test_lattice_extension_2d_partials():
    h = 2.0**-5
    mask = unit_mask((0.0, 0.0), (1.0, 1.0), h)
    jet = get_function("chi", depth=4).sample(mask, order=2)  # s t^2
    res = extend_half_space_lattice(jet, solve_coefficients(2), width=2,
                                    axis=1, boundary=0.0, inward=1.0)
    # t-partial picks up the (-1/l)^j factor; on-lattice probes at depth 2h:
    # 2h/1 = 2h, 2h/2 = h exact, 2h/3 snaps to h
    arr = res.jet.components[(0, 1)]
    s_idx = 16  # s = 0.5
    got = arr[s_idx, 0]
    w = [6.0, -32.0, 27.0]
    probes = [2 * h, h, h]
    want = sum(
        wl * (-1.0 / l) * 2 * 0.5 * tp
        for wl, l, tp in zip(w, (1, 2, 3), probes)
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_half_space_extension_order_property():
    ext = HalfSpaceExtension(solve_coefficients(3), lambda p, a: p[..., 0])
    assert ext.order == 3


def test_band_deeper_than_the_data_is_refused_before_the_window():
    h = 2.0**-4
    mask = unit_mask((0.0, 0.0), (1.0, 1.0), h)
    jet = get_function("sin_cos", depth=4).sample(mask, order=2)
    tracemalloc.start()
    try:
        with pytest.raises(ProbeOutsideMaskError,
                           match="refusing to extrapolate"):
            extend_half_space_lattice(jet, solve_coefficients(2),
                                      width=10**6, axis=0, boundary=0.0,
                                      inward=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@st.composite
def lattice_cases(draw):
    """A random jet on a 1-D or 2-D lattice and a wall near or on it."""
    dim = draw(st.sampled_from([1, 2]))
    axis = draw(st.integers(0, dim - 1))
    h = 2.0 ** -draw(st.integers(2, 6))
    extents = tuple(draw(st.integers(2, 16)) for _ in range(dim))
    origin = tuple(draw(st.integers(-8, 8)) * h for _ in range(dim))
    inward = draw(st.sampled_from([1.0, -1.0]))
    shift = draw(st.sampled_from([0.0, 0.25, -0.25, 0.5, -0.5])
                 | st.floats(-0.5, 0.5))
    line = draw(st.integers(-3, extents[axis] + 2))
    boundary = origin[axis] + (line + shift) * h
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = GridSpec(origin, h, extents)
    member = rng.random(extents) < draw(st.sampled_from([0.5, 0.9, 1.0]))
    if draw(st.integers(0, 4)):  # mostly a mask on one side of the wall
        tau = inward * (coord_grids(grid)[axis] - boundary)
        member &= tau >= -0.25 * h
    order = draw(st.integers(0, 2))
    components = {alpha: np.where(member, rng.standard_normal(extents), 0.0)
                  for alpha in multi_indices(order, dim)}
    jet = SampledJet(order, GridMask(grid, member), components)
    coeffs = solve_coefficients(draw(st.integers(0, 3)))
    return jet, coeffs, draw(st.integers(0, 9)), axis, boundary, inward


def _extension_outcome(extend, case):
    try:
        return extend(*case)
    except (ValueError, JetlabError) as err:
        return type(err), str(err)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.int64)


@settings(max_examples=300, deadline=None)
@given(lattice_cases())
def test_lattice_extension_matches_per_line_oracle(case):
    got = _extension_outcome(extend_half_space_lattice, case)
    want = _extension_outcome(per_line_lattice_extension, case)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    assert got.jet.grid == want.jet.grid
    assert np.array_equal(got.jet.mask.member, want.jet.mask.member)
    for alpha, arr in want.jet.components.items():
        assert np.array_equal(_bits(got.jet.components[alpha]), _bits(arr))
    assert np.array_equal(_bits(got.probe_offset_max),
                          _bits(want.probe_offset_max))
