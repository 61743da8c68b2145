"""Closed-form fields: staircase, mollifier, counterexample jets."""

import contextlib
import dataclasses
import io as stdio
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jetlab import domains, functions, io, taylor
from jetlab.cli import main
from jetlab.errors import PointOutsideRegionError
from jetlab.exact import (
    DEFAULT_PHI_DEPTH,
    cantor_level,
    cantor_phi,
    comb_field,
    example1_xbar,
    staircase,
)
from jetlab.functions import (
    cantor_phi_array,
    function_names,
    get_function,
    polynomial_jet,
)
from jetlab.grid import GridMask, GridSpec, multi_indices, row_blocks, walk

from lattice_oracles import (coord_grids, order3_mollifier_derivs,
                             scatter_sample)


def staircase_oracle(x, splits=80):
    # independent construction via the self-similarity
    #   phi(x) = phi(3x)/2 on [0,1/3], 1/2 on [1/3,2/3], 1/2 + phi(3x-2)/2 above,
    # applied a bounded number of times on exact rationals
    x = Fraction(x)
    if x <= 0:
        return Fraction(0)
    if x >= 1:
        return Fraction(1)
    lo, scale = Fraction(0), Fraction(1)
    for _ in range(splits):
        if x <= Fraction(1, 3):
            x *= 3
            scale /= 2
        elif x >= Fraction(2, 3):
            x = 3 * x - 2
            lo += scale / 2
            scale /= 2
        else:
            return lo + scale / 2
        if x == 0:
            return lo
        if x == 1:
            return lo + scale
    return lo + scale / 2  # within scale/2 = 2^-splits of the limit


SAMPLE_POINTS = [
    Fraction(1, 3), Fraction(2, 3), Fraction(1, 9), Fraction(7, 9),
    Fraction(1, 4), Fraction(3, 4), Fraction(1, 2), Fraction(5, 27),
    Fraction(13, 27), Fraction(1, 81), Fraction(17, 32), Fraction(99, 100),
    Fraction(1, 3**10), Fraction(7, 10),
]


@pytest.mark.parametrize("x", SAMPLE_POINTS)
def test_cantor_phi_matches_recursive_oracle(x):
    assert cantor_phi(x) == pytest.approx(float(staircase_oracle(x)), abs=1e-15)


def test_cantor_phi_special_values():
    assert cantor_phi(0) == 0.0
    assert cantor_phi(1) == 1.0
    assert cantor_phi(-0.3) == 0.0
    assert cantor_phi(1.7) == 1.0
    # a ternary digit 1 terminates the walk exactly
    assert cantor_phi(Fraction(1, 3)) == 0.5
    assert cantor_phi(Fraction(1, 2)) == 0.5
    assert cantor_phi(Fraction(1, 4)) == pytest.approx(1 / 3, abs=1e-15)
    # phi(3^-n) = 2^-n, the certificate's engine
    for n in range(1, 21):
        assert cantor_phi(Fraction(1, 3**n)) == 0.5**n


def test_cantor_phi_monotone():
    xs = sorted(SAMPLE_POINTS)
    vals = [cantor_phi(x) for x in xs]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_cantor_phi_constant_on_gaps():
    for lo, hi in cantor_level(4).gaps():
        width = hi - lo
        a = cantor_phi(lo + width / 4)
        b = cantor_phi(lo + width / 2)
        c = cantor_phi(lo + 3 * width / 4)
        assert a == b == c


def test_cantor_phi_array_matches_scalar():
    xs = np.array([0.0, 0.1, 0.25, 0.5, 0.99, 1.0])
    vals = cantor_phi_array(xs)
    for x, v in zip(xs, vals):
        assert v == cantor_phi(float(x))
    assert cantor_phi_array([[0.25, 0.5]]).shape == (1, 2)


def mollifier_derivs(t, order: int) -> list:
    """Derivatives 0..order of exp(-1/t) as example1's leaf reads them: b!
    times row b of taylor.exp_neg_recip on the series of t."""
    series = taylor.from_jet({(0,): t, (1,): 1.0}, order)
    moll = taylor.exp_neg_recip(series, order, 1)
    return list(taylor.to_jet(moll, order, 1).values())


def test_mollifier_values_at_one():
    e1 = math.exp(-1.0)
    f0, f1, f2, f3 = (float(v) for v in mollifier_derivs(1.0, 3))
    assert f0 == pytest.approx(e1, rel=1e-15)
    assert f1 == pytest.approx(e1, rel=1e-15)      # f * t^-2
    assert f2 == pytest.approx(-e1, rel=1e-15)     # f * (t^-4 - 2 t^-3)
    assert f3 == pytest.approx(e1, rel=1e-15)      # f * (t^-6 - 6t^-5 + 6t^-4)


def test_mollifier_values_at_half():
    e2 = math.exp(-2.0)
    f0, f1, f2, f3 = (float(v) for v in mollifier_derivs(0.5, 3))
    assert f0 == pytest.approx(e2, rel=1e-15)
    assert f1 == pytest.approx(4 * e2, rel=1e-15)
    assert f2 == pytest.approx(0.0, abs=1e-18)     # 16 - 2*8 = 0
    assert f3 == pytest.approx(-32 * e2, rel=1e-14)


def test_mollifier_derivatives_against_finite_differences():
    h = 1e-6
    for t in (0.3, 0.7, 1.2):
        rows = mollifier_derivs(np.array([t - h, t, t + h]), 3)
        for k in range(3):
            fd = (rows[k][2] - rows[k][0]) / (2 * h)
            assert fd == pytest.approx(float(rows[k + 1][1]), rel=1e-7)


def test_mollifier_cutoff_is_hard_zero():
    for t in (-1.0, 0.0, 1e-4, 1.0 / 746.0):
        assert all(float(v) == 0.0 for v in mollifier_derivs(t, 3))
    val, der = (float(v) for v in mollifier_derivs(0.5, 1))
    assert val == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert der == pytest.approx(4 * math.exp(-2.0), rel=1e-15)
    # every order through grid.MAX_ORDER, and none past it
    assert len(mollifier_derivs(0.5, 12)) == 13
    with pytest.raises(ValueError):
        mollifier_derivs(0.5, 13)


def test_mollifier_is_the_hand_polynomials_through_order_3():
    t = np.array([-1.0, 0.0, 1.0 / 746.0, 1.0 / 744.0, 0.01, 0.3, 0.5, 1.0,
                  1.2, 7.0])
    for got, want in zip(mollifier_derivs(t, 3),
                         order3_mollifier_derivs(t, 3)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_example1_reads_the_mollifier_at_s_1():
    # phi(1) = 1, so the leaf's t-partials at s = 1 are the mollifier's
    t = np.array([1.0 / 744.0, 0.01, 0.3, 0.5, 1.0])
    leaf = get_function("example1", depth=3).evaluator
    got = leaf(np.stack([np.ones_like(t), t], axis=-1), 5)
    for b, want in enumerate(mollifier_derivs(t, 5)):
        assert got[(0, b)].tobytes() == want.tobytes()


def test_polynomial_jet_partials():
    p = polynomial_jet("p", {(2, 1): 3.0})  # 3 s^2 t
    jet = p.jet_many(np.array([[2.0, 5.0]]), 3)
    want = {(0, 0): 60.0, (1, 0): 60.0, (1, 1): 12.0, (2, 0): 30.0,
            (2, 1): 6.0, (3, 0): 0.0, (0, 2): 0.0}
    assert {alpha: jet[alpha][0] for alpha in want} == want


def test_example3_values():
    # the exact comb field; base: chi itself
    half, s = Fraction(1, 2), Fraction(4, 5)
    assert comb_field((-half, half), (0, 0)) == Fraction(-1, 8)
    assert comb_field((-half, 1), (1, 0)) == 1
    # tooth 0 spans [0.75, 1]: the abscissa restarts at the tooth root
    assert comb_field((s, half), (0, 0)) == Fraction(1, 20) / 4
    assert comb_field((Fraction(3, 4), half), (0, 0)) == 0
    assert comb_field((s, half), (1, 0)) == Fraction(1, 4)
    assert comb_field((s, half), (0, 1)) == Fraction(1, 20)
    assert comb_field((s, half), (1, 1)) == 1
    assert comb_field((s, half), (0, 2)) == Fraction(1, 10)
    # gap points and far field are off the comb
    assert comb_field((Fraction(7, 10), half), (0, 0)) == 0
    assert comb_field((s, Fraction(3, 2)), (0, 0)) == 0


def one_point_mask(*coords):
    """The mask of a lattice that is the one point coords."""
    grid = GridSpec(coords, 1.0, (1,) * len(coords))
    return GridMask(grid, np.ones(grid.extents, dtype=bool))


def test_example3_jet_region():
    jet = get_function("example3", depth=4)
    inside = [[-0.5, 0.5], [-0.9, 1.0], [-0.5, 1.0], [-2.0**-10, 1.0]]
    assert jet.member(*np.array(inside).T).all()
    assert jet.jet_many(np.array([[-0.5, 0.5]]), 0)[(0, 0)][0] == -0.125
    with pytest.raises(PointOutsideRegionError, match=r"\(0\.7, 0\.5\)"):
        jet.check_mask(one_point_mask(0.7, 0.5), "point")
    with pytest.raises(ValueError):
        jet.jet_many(np.array([[-0.5, 0.5]]), 13)
    # derivative slope on the negative side at t = 1 is exactly 1
    for s in (-0.9, -0.5, -2.0**-10):
        assert jet.jet_many(np.array([[s, 1.0]]), 1)[(1, 0)][0] == 1.0


def test_example3_samples_every_tooth():
    h = 2.0**-9
    q6, _ = domains.build_domain(domains.Comb(6), h)
    full = functions.example3_jet()
    jet = full.sample(q6, order=1)
    assert jet.mask.count == q6.count


def test_gap1d_values():
    # the exact staircase
    assert staircase(Fraction(-1, 2), (0,)) == Fraction(-1, 2)
    assert staircase(0, (0,)) == 0
    assert staircase(Fraction(1, 2), (0,)) == 0  # island 1 starts at 2^-1
    assert staircase(Fraction(3, 4), (0,)) == Fraction(1, 4)
    assert staircase(Fraction(5, 8), (1,)) == 1
    assert staircase(Fraction(2, 5), (0,)) == 0  # gap
    jet = get_function("gap1d", depth=4)
    with pytest.raises(PointOutsideRegionError, match=r"\(0\.4,\)"):
        jet.check_mask(one_point_mask(0.4), "point")
    jet.check_mask(one_point_mask(0.625), "point")
    assert jet.jet_many(np.array([[0.625]]), 1)[(1,)][0] == 1.0


def test_example1_xbar():
    e1 = math.exp(-1.0)
    depth = DEFAULT_PHI_DEPTH
    assert example1_xbar(Fraction(1, 2), 1, depth) == pytest.approx(
        0.5 * e1, rel=1e-15)
    # the closure extension vanishes off the open block
    assert example1_xbar(0, 1, depth) == 0.0
    assert example1_xbar(-0.5, 0.5, depth) == 0.0
    assert example1_xbar(0.5, -0.5, depth) == 0.0
    # d_n engine: xbar(3^-n, 1) = 2^-n / e
    for n in (1, 5, 20):
        got = example1_xbar(Fraction(1, 3**n), 1, depth)
        assert got == pytest.approx(0.5**n * e1, rel=1e-14)
    with pytest.raises(PointOutsideRegionError):
        example1_xbar(1.5, 0.5, depth)


def test_example1_jet_membership():
    jet = get_function("example1", depth=4)
    pts = np.array([
        [1.0 / 3.0, 0.5],   # slit column (approximately; 1/3 rounds into the cover)
        [0.5, 0.5],         # gap column
        [0.5, -0.5],        # below the slits
        [1.0, 0.5],         # closed edge, not in the open square
    ])
    member = jet.member(*pts.T)
    assert member.tolist() == [False, True, True, False]
    # s-partials vanish identically on the open set
    at_half = jet.jet_many(np.array([[0.5, 0.5]]), 1)
    assert at_half[(1, 0)][0] == 0.0
    assert at_half[(0, 0)][0] == pytest.approx(
        0.5 * math.exp(-2.0), rel=1e-15)
    with pytest.raises(PointOutsideRegionError):
        jet.check_mask(one_point_mask(1.0 / 3.0, 0.5), "point")


@pytest.mark.parametrize("name,order,inside,outside", [
    # base, tooth 1 ([3/8, 1/2] x (0, 1]); a gap, above a tooth, far field
    ("example3", 2, [[-0.5, 0.5], [0.5, -0.5], [0.4375, 0.5]],
     [[0.3, 0.5], [0.4375, 1.5], [1.5, 0.0]]),
    # [-1, 0] and islands 1 and 2; the gaps beside them and the far field
    ("gap1d", 1, [[-0.5], [0.625], [0.3125]], [[0.8], [0.4], [-1.5]]),
    # the gap column at 1/2; slit columns of the depth-4 cover, the edge
    ("example1", 3, [[0.5, 0.5], [0.5, 0.875]],
     [[0.1, 0.5], [0.9, 0.25], [1.0, 0.5]]),
])
def test_jet_many_is_the_leaf_on_member_and_0_off_it(name, order, inside,
                                                      outside):
    field = get_function(name, depth=4)
    pts = np.array(inside + outside, dtype=np.float64)
    n = len(inside)
    assert field.member(*pts.T).tolist() == [True] * n + [False] * (
        len(pts) - n)
    leaf = field.evaluator(pts, order)
    # the leaf's formulas reach past the region; jet_many stops at it
    assert (leaf[(0,) * field.dim][n:] != 0.0).any()
    got = field.jet_many(pts, order)
    for alpha in multi_indices(order, field.dim):
        want = leaf.get(alpha, np.zeros(len(pts)))
        assert got[alpha][:n].tobytes() == want[:n].tobytes(), alpha
        assert got[alpha][n:].tobytes() == np.zeros(len(pts) - n).tobytes()


def test_sample_on_lattice():
    jet = get_function("chi", depth=4)
    g = GridSpec((0.0, 0.0), 0.5, (3, 3))
    mask = GridMask(g, np.ones((3, 3), dtype=bool))
    sj = jet.sample(mask, order=2)
    assert sj.components[(0, 0)][2, 2] == 1.0  # s t^2 at (1, 1)
    assert sj.components[(1, 1)][1, 1] == 1.0  # 2t at (0.5, 0.5)
    # the comb field's leaf serves every order through grid.MAX_ORDER;
    # [-1, 0]^2 lies in its base
    base = GridMask(GridSpec((-1.0, -1.0), 0.5, (3, 3)),
                    np.ones((3, 3), dtype=bool))
    comb = get_function("example3", depth=4)
    assert (comb.sample(base, order=3).components[(1, 2)] == 2.0).all()
    with pytest.raises(ValueError, match=r"order must lie in \[0, 12\]"):
        comb.sample(base, order=13)


def test_example3_serves_order_3_at_every_point():
    # s t^2 has d_s d_t^2 = 2, its last nonzero partial: the leaf reports
    # it at order 3, beside the zeros of the others
    jet = functions.example3_jet()
    pts = np.array([[-0.5, -0.5], [-0.25, 0.75], [0.4375, 0.5]])
    assert jet.jet_many(pts, 2)[(0, 2)].tolist() == [-1.0, -0.5, 0.125]
    third = jet.jet_many(pts, 3)
    assert third[(1, 2)].tolist() == [2.0, 2.0, 2.0]
    for alpha in ((3, 0), (2, 1), (0, 3)):
        assert third[alpha].tolist() == [0.0, 0.0, 0.0]
    q, _ = domains.build_domain(domains.Comb(3), 2.0**-6)
    sampled = jet.sample(q, 3)
    assert (sampled.components[(1, 2)][q.member] == 2.0).all()
    with pytest.raises(ValueError, match=r"order must lie in \[0, 12\]"):
        jet.jet_many(pts, 13)


def test_example3_partial_1_2_is_the_difference_of_its_lower_partials():
    # central differences of (0, 2) along s and (1, 1) along t, on the base
    # and on tooth 1 ([3/8, 1/2] x (0, 1])
    jet = functions.example3_jet()
    pts = np.array([[-0.5, -0.5], [-0.25, 0.75], [0.4375, 0.5]])
    step = 2.0**-10
    got = jet.jet_many(pts, 3)[(1, 2)]
    for lower, axis in (((0, 2), 0), ((1, 1), 1)):
        shift = np.zeros(2)
        shift[axis] = step
        lo, hi = (jet.jet_many(pts + sign * shift, 2)[lower]
                  for sign in (-1, 1))
        assert np.abs((hi - lo) / (2 * step) - got).max() < 1e-9


def test_example1_refuses_an_order_past_max_order_off_its_block():
    # s <= 0 holds no point of the mollifier's block, yet order 13 is
    # refused, and order 4 served
    jet = get_function("example1", depth=3)
    pts = np.array([[-0.5, 0.5], [0.0, -0.5], [-0.75, -0.25]])
    assert not jet.jet_many(pts, 4)[(0, 4)].any()
    with pytest.raises(ValueError, match=r"order must lie in \[0, 12\]"):
        jet.jet_many(pts, 13)
    _, omega = domains.build_domain(domains.CantorSlit(3), 2.0**-6)
    s, _ = coord_grids(omega.grid)
    left = GridMask(omega.grid, omega.member & (s <= 0.0))
    assert left.count > 0
    with pytest.raises(ValueError, match=r"order must lie in \[0, 12\]"):
        jet.sample(left, 13)


def test_registry():
    assert "example1" in functions.function_names()
    assert functions.function_names() == sorted(functions.function_names())
    with pytest.raises(KeyError):
        get_function("nope", depth=4)
    # example1's region is a cover of the depth; no other field reads one
    assert [name for name in function_names()
            if name == functions.DEPTH_FIELD] == ["example1"]
    # s = 0.15 lies in the level-1 cover's first third, in a level-2 gap
    assert get_function("example1", depth=2).member(
        np.array(0.15), np.array(0.5))
    assert not get_function("example1", depth=1).member(
        np.array(0.15), np.array(0.5))
    assert get_function("sin_cos", depth=4).jet_many(
        np.array([[0.3, 0.4]]), 2)[(1, 1)][0] == pytest.approx(
            -math.cos(0.3) * math.sin(0.4), rel=1e-15)


def thinned(mask: GridMask, seed: int) -> GridMask:
    """mask with about 30% of its points and 10% of its rows dropped."""
    rng = np.random.default_rng(seed)
    member = mask.member & (rng.random(mask.grid.extents) < 0.7)
    member[rng.random(mask.grid.extents[0]) < 0.1] = False
    member[:3] = False
    return GridMask(mask.grid, member)


def full_mask(origin, h, extents) -> GridMask:
    return GridMask(GridSpec(origin, h, extents), np.ones(extents, dtype=bool))


# function, order, mask: the 2-D lattices span row blocks that do not divide
# them; the one-row lattice is one block longer than the block size
SAMPLE_CASES = {
    "sin_cos": ("sin_cos", 3,
                lambda: full_mask((-1.0, -1.0), 2.0**-7, (300, 301))),
    "chi-one-row": ("chi", 2,
                    lambda: full_mask((0.25, -1.0), 2.0**-7, (1, 70001))),
    "example1": ("example1", 3, lambda: domains.build_domain(
        domains.CantorSlit(3), 2.0**-7)[1]),
    "example3": ("example3", 2, lambda: domains.build_domain(
        domains.Comb(3), 2.0**-7)[0]),
    "gap1d": ("gap1d", 2, lambda: domains.build_domain(
        domains.GapIntervals(4), 2.0**-16)[0]),
    "exp1d": ("exp1d", 3, lambda: full_mask((-1.0,), 2.0**-16, (70001,))),
}


@pytest.mark.parametrize("case", sorted(SAMPLE_CASES))
def test_sample_matches_the_scatter_oracle(case):
    name, order, make = SAMPLE_CASES[case]
    jet = get_function(name, depth=3)
    for mask in (make(), thinned(make(), seed=len(case))):
        got = jet.sample(mask, order).components
        want = scatter_sample(jet, mask, order)
        assert list(got) == list(want)
        for alpha in want:
            assert np.array_equal(got[alpha], want[alpha])
            assert got[alpha].tobytes() == want[alpha].tobytes()


def test_sample_names_the_first_point_outside_the_region():
    # the open set plus closed-square points from the second row block on
    q, omega = domains.build_domain(domains.CantorSlit(3), 2.0**-7)
    blocks = list(row_blocks(q.grid.extents))
    assert len(blocks) == 2
    member = omega.member.copy()
    member[blocks[1]] |= q.member[blocks[1]]
    mask = GridMask(q.grid, member)
    jet = get_function("example1", depth=3)
    with pytest.raises(PointOutsideRegionError) as got:
        jet.sample(mask, 1)
    with pytest.raises(PointOutsideRegionError) as want:
        scatter_sample(jet, mask, 1)
    assert str(got.value) == str(want.value)


def test_a_domain_mask_is_checked_as_its_blocks_are_rasterized():
    # held, a DomainMask is checked at once; streamed, each block is
    # checked as the walk rasterizes it, before the leaf sees it, and the
    # check, once it has refused, is not run again.  The disk's first point
    # off the comb field's region lies past its first row block.
    h = 2.0**-8
    field = get_function("example3", depth=4)
    held, = domains.build_domain(domains.Disk(), h, ("q",))
    held.held()
    with pytest.raises(PointOutsideRegionError) as at_once:
        field.check_mask(held, "mask point")
    mask, = domains.build_domain(domains.Disk(), h, ("q",))
    field.check_mask(mask, "mask point")
    seen = []

    def leaf(pts, order):
        seen.append(pts[0, 0, 0])
        return field.evaluator(pts, order)

    with pytest.raises(PointOutsideRegionError) as streamed:
        for _ in walk(leaf, mask, 0):
            pass
    assert str(streamed.value) == str(at_once.value)
    first = next(rows for rows in row_blocks(mask.grid.extents)
                 if mask.rows(rows).any())
    assert seen and seen[0] == mask.grid.axis_coords(0)[first.start]
    assert len(list(walk(field.evaluator, mask, 0))) > len(seen)


def test_sample_calls_the_leaf_once_per_row_block(monkeypatch):
    _, omega = domains.build_domain(domains.CantorSlit(4), 2.0**-9)
    jet = get_function("example1", depth=4)
    leaf = jet.evaluator
    calls, phis, moll = [], [], []

    def evaluator(pts, order):
        calls.append((order, pts.shape))
        return leaf(pts, order)

    def counted_phi(s):
        phis.append(np.shape(s))
        return cantor_phi_array(s)

    exp_neg_recip = taylor.exp_neg_recip

    def counted_mollifier(u, order, dim):
        moll.append((order, u.shape[1:]))
        return exp_neg_recip(u, order, dim)

    jet.evaluator = evaluator
    monkeypatch.setattr(functions, "cantor_phi_array", counted_phi)
    monkeypatch.setattr(taylor, "exp_neg_recip", counted_mollifier)
    jet.sample(omega, 3)
    blocks = [rows for rows in row_blocks(omega.grid.extents)
              if omega.member[rows].any()]
    assert len(blocks) > 10
    # each call holds a block's lattice points
    cols = omega.grid.extents[1]
    assert calls == [(3, (rows.stop - rows.start, cols, 2))
                     for rows in blocks]
    # the blocks with s <= 0 hold no point of the field's support; in the
    # others phi runs on the block's column of abscissae and the mollifier
    # on the ordinate axis, once per lattice line
    assert 0 < len(moll) == len(phis) < len(blocks)
    assert moll == [(3, (1, cols))] * len(moll)
    assert phis == [(rows.stop - rows.start, 1)
                    for rows in blocks[-len(phis):]]


@pytest.mark.parametrize("name", function_names())
def test_a_leaf_gives_the_same_bits_on_lattice_lines_and_on_points(name):
    # a lattice block, and the same points flattened and shuffled: every
    # partial the leaf gives, broadcast to the points, has the same bits
    field = get_function(name, depth=4)
    g = GridSpec((-1.0,) * field.dim, 2.0**-5, (65,) * field.dim)
    lattice = np.stack(np.meshgrid(*(g.axis_coords(a) for a in range(g.dim)),
                                   indexing="ij"), axis=-1)
    block = lattice[16:60]
    order = np.random.default_rng(7).permutation(block.size // g.dim)
    points = block.reshape(-1, g.dim)[order]
    for k in served_orders(field):
        on_block = field.evaluator(block, k)
        on_points = field.evaluator(points, k)
        assert set(on_block) == set(on_points)
        for alpha, arr in on_block.items():
            flat = np.broadcast_to(arr, block.shape[:-1]).reshape(-1)[order]
            want = np.broadcast_to(on_points[alpha], points.shape[:-1])
            assert flat.view(np.int64).tolist() == (
                want.view(np.int64).tolist()), (alpha, k)
        # jet_many gives each partial at the points' shape
        assert {arr.shape for arr in field.jet_many(block, k).values()} == {
            block.shape[:-1]}


def fraction_digit_walk(s, depth=DEFAULT_PHI_DEPTH):
    """The Cantor function's ternary-to-binary digit map in Fraction
    arithmetic, digit by digit."""
    if s <= 0:
        return 0.0
    if s >= 1:
        return 1.0
    x, value, weight = Fraction(s), Fraction(0), Fraction(1, 2)
    for _ in range(depth):
        x *= 3
        digit = int(x)
        x -= digit
        if digit:
            value += weight
        if digit == 1 or x == 0:
            break
        weight /= 2
    return float(value)


_THIRDS = st.builds(lambda k, n: Fraction(k, 3**n), st.sampled_from([1, 2]),
                    st.integers(0, 40))
_DYADICS = st.builds(lambda k, n: Fraction(k, 2**n), st.integers(0, 2**12),
                     st.integers(0, 60))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_THIRDS, _THIRDS.map(float), _DYADICS,
                 st.floats(-0.5, 1.5, allow_nan=False)),
       st.sampled_from([0, 1, 5, 20, DEFAULT_PHI_DEPTH]))
@example(Fraction(1, 3**33), DEFAULT_PHI_DEPTH)
@example(2.0**-1074, DEFAULT_PHI_DEPTH)
@example(float(Fraction(2, 3**12)), DEFAULT_PHI_DEPTH)
def test_cantor_phi_is_the_fraction_digit_walk(s, depth):
    assert cantor_phi(s, depth) == fraction_digit_walk(s, depth)


def served_orders(field):
    """The orders 0..4 the field's leaf serves: the others raise."""
    for order in range(5):
        try:
            field.evaluator(np.zeros((1, field.dim)), order)
        except ValueError:
            continue
        yield order


coords = st.floats(-1.0, 1.0, allow_nan=False)


def comb_piece(pts: np.ndarray) -> np.ndarray:
    """The comb field's piece of each point: n on tooth n, -1 on the base.
    The field is s t^2 on the base and (s - a_n) t^2 on tooth n, C^1 across
    a tooth's root t = 0, where its (0, 2) partial steps from 2s to
    2(s - a_n)."""
    return np.where(pts[:, 1] > 0.0,
                    domains.comb_tooth_index_array(pts[:, 0]), -1)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(function_names()),
       st.lists(st.tuples(coords, coords), min_size=1, max_size=16))
@example("example3", [(1.0, 0.0), (0.875, 2.0**-13), (-0.5, 0.0)])
def test_a_leaf_leaves_out_only_partials_that_vanish(name, points):
    # a partial a leaf leaves out is a derivative of its lower partial, so
    # the lower partial's central difference vanishes wherever its stencil
    # lies in the region, and on one piece of a field stated piecewise;
    # 2^-12 is narrower than any depth-4 slit
    field = get_function(name, depth=4)
    pts = np.array(points)[:, :field.dim]
    step = 2.0**-12
    for order in served_orders(field):
        kept = set(field.evaluator(pts, order))
        # the same partials at any points: they depend on the order alone
        assert kept == set(field.evaluator(np.zeros((1, field.dim)), order))
        for alpha in set(multi_indices(order, field.dim)) - kept:
            for axis in range(field.dim):
                if not alpha[axis]:
                    continue
                lower = tuple(a - (b == axis) for b, a in enumerate(alpha))
                shift = np.zeros(field.dim)
                shift[axis] = step
                ends = (pts - shift, pts + shift)
                inside = np.ones(len(pts), dtype=bool)
                if field.member is not None:
                    for p in (ends[0], pts, ends[1]):
                        inside &= field.member(*p.T)
                if name == "example3":
                    inside &= ((comb_piece(ends[0]) == comb_piece(pts))
                               & (comb_piece(pts) == comb_piece(ends[1])))
                lo, hi = (field.jet_many(end[inside], order)[lower]
                          for end in ends)
                assert np.abs(hi - lo).max(initial=0.0) / (2 * step) < 1e-9


def test_the_fields_leave_out_their_zero_partials():
    left_out = {
        ("example1", 3): {(1, 0), (2, 0), (1, 1), (3, 0), (2, 1), (1, 2)},
        ("example3", 2): {(2, 0)},
        ("gap1d", 4): {(2,), (3,), (4,)},
        ("chi", 3): {(2, 0), (3, 0), (2, 1), (0, 3)},
        ("sum_st", 2): {(2, 0), (1, 1), (0, 2)},
        ("sin_cos", 3): set(),
        ("exp1d", 3): set(),
    }
    assert {name for name, _ in left_out} == set(function_names())
    for (name, order), want in left_out.items():
        field = get_function(name, depth=4)
        kept = field.evaluator(np.zeros((1, field.dim)), order)
        assert set(multi_indices(order, field.dim)) - set(kept) == want


def test_scalar_readers_read_a_partial_left_out_as_zero():
    assert comb_field((Fraction(4, 5), Fraction(1, 2)), (2, 0)) == 0
    assert comb_field((Fraction(-1, 2), Fraction(1, 2)), (2, 0)) == 0
    assert staircase(Fraction(5, 8), (2,)) == 0
    assert staircase(Fraction(-1, 2), (3,)) == 0


# Dyadic abscissae with few significant bits: on the base and past it, and
# m * 2^-n for m in [1/2, 1] and [1, 2], which puts s on a_n (m = 3/4), b_n
# (m = 1/2, 1), a tooth, a gap between teeth, an island or the gap past it.
# With an ordinate of 8 fraction bits every comb partial, at most three
# factors, is a binary64 number.
_BASE = st.integers(-2**12 - 8, 2**12 + 8).map(lambda k: Fraction(k, 2**12))
_TEETH = st.builds(lambda k, n: Fraction(k, 2**(10 + n)),
                   st.integers(2**9, 2**10), st.integers(0, 1000))
_ISLANDS = st.builds(lambda k, n: Fraction(k, 2**(10 + n)),
                     st.integers(2**10, 2**11), st.integers(0, 1000))
_ORDINATE = st.integers(-2**8 - 4, 2**8 + 4).map(lambda k: Fraction(k, 2**8))


def _read(jet, *coords):
    """The jet's partials through order 3 at the point coords, binary64
    numbers themselves, as exact rationals."""
    assert all(Fraction(float(c)) == c for c in coords)
    values = jet.jet_many(np.array([[float(c) for c in coords]]), 3)
    return {alpha: Fraction(float(v[0])) for alpha, v in values.items()}


@settings(max_examples=200, deadline=None)
@given(st.one_of(_BASE, _TEETH), _ORDINATE)
@example(Fraction(0.8), Fraction(0.5))
@example(Fraction(-0.5), Fraction(0.5))
@example(Fraction(-0.5), Fraction(1))
@example(Fraction(0.75), Fraction(0.5))
@example(Fraction(0.7), Fraction(0.5))
@example(Fraction(0.8), Fraction(1.5))
@example(Fraction(3, 4) / 2**1072, Fraction(1))
@example(Fraction(1, 2**1072), Fraction(1))
@example(-Fraction(1, 2**1074), Fraction(1))
def test_the_exact_comb_field_is_its_jet(s, t):
    # the certificates' Fraction field and the lattices' numpy field agree
    # at every partial, on the base, the teeth, the gaps and off the comb
    jet = _read(functions.example3_jet(), s, t)
    assert jet == {alpha: comb_field((s, t), alpha) for alpha in jet}


@settings(max_examples=200, deadline=None)
@given(st.one_of(_BASE, _ISLANDS))
@example(Fraction(-0.5))
@example(Fraction(0))
@example(Fraction(0.5))
@example(Fraction(0.75))
@example(Fraction(0.625))
@example(Fraction(0.4))
@example(Fraction(1, 2**1074))
def test_the_exact_staircase_is_its_jet(s):
    jet = _read(functions.gap1d_jet(), s)
    assert jet == {alpha: staircase(s, alpha) for alpha in jet}


@pytest.mark.parametrize("name,args", [
    ("example1", ["--domain", "cantor_slit", "--depth", "3", "--mask",
                  "open", "--order", "3", "--h", str(2.0**-6)]),
    ("example3", ["--domain", "comb", "--n-teeth", "3", "--order", "2",
                  "--h", str(2.0**-6)]),
    ("gap1d", ["--domain", "gap1d", "--n-segments", "4", "--order", "3",
               "--h", str(2.0**-8)]),
    ("chi", ["--domain", "rectangle", "--order", "4", "--h", str(2.0**-5)]),
])
def test_field_sample_pads_the_partials_a_leaf_leaves_out(name, args,
                                                           tmp_path,
                                                           monkeypatch):
    # the same field with a leaf that returns every partial, zeros for the
    # ones its own leaf leaves out
    field = get_function(name, depth=3)
    dense = dataclasses.replace(field, evaluator=field.jet_many)
    texts = []
    for jet in (field, dense):
        monkeypatch.setattr(functions, "get_function",
                            lambda _name, _depth, jet=jet: jet)
        out = tmp_path / f"{len(texts)}.json"
        with contextlib.redirect_stdout(stdio.StringIO()):
            assert main(["field", "sample", "--function", name, *args,
                         "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert io.strip_provenance(texts[0]) == io.strip_provenance(texts[1])
