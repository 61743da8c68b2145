"""Domain constructors and rasterization."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jetlab import domains, exact, grid
from jetlab.errors import (
    DepthTooLargeError,
    ResolutionTooCoarseError,
    UnsupportedDomainError,
)
from jetlab.grid import GridSpec, interior_of, walk
from jetlab.spaces import reduce_blocks
from lattice_oracles import (
    comb_tooth_index, connected_component_count, gap_segment_index,
)


def ternary_cover_intervals(depth):
    # oracle built from digit strings, not from the middle-thirds recursion:
    # the level-d cover is { [sum d_k 3^-k, same + 3^-d] : d_k in {0, 2} }
    out = []
    for digits in itertools.product((0, 2), repeat=depth):
        lo = sum(Fraction(d, 3**k) for k, d in enumerate(digits, start=1))
        out.append((lo, lo + Fraction(1, 3**depth)))
    return sorted(out)


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 5])
def test_cantor_level_matches_digit_oracle(depth):
    approx = exact.cantor_level(depth)
    assert list(approx.intervals) == ternary_cover_intervals(depth)
    assert sum(b - a for a, b in approx.intervals) == Fraction(2, 3) ** depth


def test_cantor_contains_exact():
    approx = exact.cantor_level(3)
    assert approx.contains(Fraction(0))
    assert approx.contains(Fraction(1))
    assert approx.contains(Fraction(1, 3))  # interval endpoint stays in
    assert not approx.contains(Fraction(1, 2))
    assert not approx.contains(Fraction(4, 10))
    # 1/4 is in the true Cantor set, hence in every cover level
    for d in range(7):
        assert exact.cantor_level(d).contains(Fraction(1, 4))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8), st.data())
def test_the_slit_cover_test_is_the_exact_one(depth, data):
    # the open set's float test against the cover's exact one: at random
    # floats, at the nearest float to each end, at the inward-rounded
    # bounds, and at the next float on either side of each
    slit = domains.CantorSlit(depth)
    ends = [float(e) for pair in slit.cover.intervals for e in pair]
    ends += [*slit.lows, *slit.highs]
    ends += [math.nextafter(e, d) for e in ends for d in (-2.0, 2.0)]
    s = np.array(data.draw(st.lists(
        st.one_of(st.floats(-1.5, 1.5, allow_nan=False), st.sampled_from(ends)),
        min_size=1, max_size=64)))
    in_cover = np.array([slit.cover.contains(v) for v in s])
    # at an ordinate of the slits, open is the square minus the cover
    for t in (np.full(len(s), 0.5), np.array(0.5)):
        assert np.array_equal(slit.open(s, t), (np.abs(s) < 1.0) & ~in_cover)
    assert all(slit.cover.contains(v) for v in (*slit.lows, *slit.highs))
    assert not any(slit.cover.contains(math.nextafter(v, -2.0))
                   for v in slit.lows)


def test_cantor_gaps():
    approx = exact.cantor_level(2)
    gaps = approx.gaps()
    assert len(gaps) == 3
    assert gaps[0] == (Fraction(1, 9), Fraction(2, 9))
    assert gaps[1] == (Fraction(1, 3), Fraction(2, 3))
    assert all(a < b for a, b in gaps)


def test_cantor_level_caps():
    with pytest.raises(ValueError):
        exact.cantor_level(-1)
    with pytest.raises(DepthTooLargeError):
        exact.cantor_level(25)


def test_cantor_level_cap_is_checked_without_forming_the_power():
    assert len(exact.cantor_level(3, cap=8).intervals) == 8
    for depth, cap in ((4, 8), (3, 7), (10**300, 2**20)):
        with pytest.raises(DepthTooLargeError):
            exact.cantor_level(depth, cap=cap)


def test_comb_geometry():
    # tooth n spans [0.75, 1] * 2^-n; gaps have width 2^-n / 4
    assert domains.comb_c(2) == 0.0625
    assert comb_tooth_index(0.8) == 0
    assert comb_tooth_index(0.75) == 0
    assert comb_tooth_index(0.5) == 1  # b_1, shared edge value
    assert comb_tooth_index(0.7) is None
    assert comb_tooth_index(-0.5) is None
    assert comb_tooth_index(2.0) is None
    s = np.array([0.8, 0.7, 0.375, 1.0, -0.2, 3e-9])
    idx = domains.comb_tooth_index_array(s)
    assert idx.tolist() == [0, -1, 1, 0, -1, 28]


def tooth_oracle(values):
    out = [comb_tooth_index(v) for v in values]
    return np.array([-1 if n is None else n for n in out])


@pytest.mark.parametrize("h", [2.0**-10, 2.0**-14])
def test_comb_tooth_index_array_on_lattice_coordinates(h):
    s = GridSpec.cover((-1.0,), (1.0,), h).axis_coords(0)
    assert np.array_equal(domains.comb_tooth_index_array(s), tooth_oracle(s))


def test_comb_tooth_index_array_at_edges_and_specials():
    edges = []
    for n in range(1075):
        for v in (math.ldexp(0.75, -n), math.ldexp(1.0, -n)):
            edges += [v, np.nextafter(v, 0.0), np.nextafter(v, 2.0)]
    specials = [0.0, -0.0, 1.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324]
    s = np.array(edges + specials)
    got = domains.comb_tooth_index_array(s)
    assert np.array_equal(got, tooth_oracle(s))
    assert got[-2] == 1074 and got.dtype == np.int64
    # 2-D input keeps its shape; a scalar gives a 0-d array
    got_2d = domains.comb_tooth_index_array(s.reshape(-1, 2))
    assert np.array_equal(got_2d, got.reshape(-1, 2))
    assert domains.comb_tooth_index_array(0.5).shape == ()


def test_comb_membership():
    # base: the square minus the open positive quadrant
    assert domains.comb_in_base(-0.5, 0.5)
    assert domains.comb_in_base(0.5, -0.5)
    assert domains.comb_in_base(0.0, 1.0)
    assert not domains.comb_in_base(0.5, 0.5)
    assert not domains.comb_in_base(-1.5, 0.0)
    q = domains.Comb(6).q
    assert q(0.8, 0.5)
    assert q(0.8, 1.0)
    assert not q(0.7, 0.5)  # in the gap between teeth 1 and 0
    assert not q(0.8, 1.5)
    assert not q(2.0**-8, 0.5)  # tooth 8 exists but is excluded
    assert q(2.0**-6 * 0.75, 0.5)


def test_build_comb():
    h = 2.0**-9
    q, omega = domains.build_domain(domains.Comb(6), h)
    assert q.grid.extents == (1025, 1025)
    assert omega.count < q.count
    # teeth are thinner than their gaps, so they contribute separate
    # components above t = 0 while the base is one slab
    assert connected_component_count(q) == 1
    assert np.array_equal(omega.member, interior_of(q).member)
    with pytest.raises(ResolutionTooCoarseError):
        domains.build_domain(domains.Comb(6), 2.0**-7)
    with pytest.raises(ValueError):
        domains.build_domain(domains.Comb(-1), h)


def test_build_gap_intervals():
    h = 2.0**-10
    q, omega = domains.build_domain(domains.GapIntervals(8), h)
    assert q.grid.dim == 1
    # [-1,0] plus 8 islands
    assert connected_component_count(q) == 9
    assert connected_component_count(omega) == 9
    # the gap between I_2 and I_1: 1.5*2^-2 = 0.375 < 0.5
    ss = q.grid.axis_coords(0)
    gap_pts = (ss > 0.375) & (ss < 0.5)
    assert gap_pts.any()
    assert not q.member[gap_pts].any()
    with pytest.raises(ResolutionTooCoarseError):
        domains.build_domain(domains.GapIntervals(8), 2.0**-8)
    with pytest.raises(ValueError):
        domains.build_domain(domains.GapIntervals(0), h)


def test_gap_segment_index():
    assert gap_segment_index(-0.5) == 0
    assert gap_segment_index(0.0) == 0
    assert gap_segment_index(0.5) == 1
    assert gap_segment_index(0.75) == 1
    assert gap_segment_index(0.4) is None
    assert gap_segment_index(0.8) is None
    assert gap_segment_index(2.0**-5 * 1.25) == 5


def test_build_cantor_slit_square():
    h = 2.0**-8
    slit = domains.CantorSlit(4)
    q, omega = domains.build_domain(slit, h)
    approx = slit.cover
    assert q.count == q.grid.point_count  # Q keeps the whole closed square
    assert approx.depth == 4
    # slit columns are removed from the open square for 0 <= t <= 1
    s_idx = np.nonzero(q.grid.axis_coords(0) == 0.0)[0][0]
    t_pos = q.grid.axis_coords(1)
    inside_slit = (t_pos >= 0.0) & (t_pos <= 1.0)
    assert not omega.member[s_idx][inside_slit].any()
    assert omega.member[s_idx][t_pos < 0.0].any()
    # a gap column survives (up to the open square's own edge)
    s_gap = np.nonzero(q.grid.axis_coords(0) == 0.5)[0][0]
    assert omega.member[s_gap][inside_slit & (t_pos < 1.0)].all()
    with pytest.raises(ResolutionTooCoarseError):
        domains.build_domain(domains.CantorSlit(4), 2.0**-6)


def test_regular_membership_exact():
    rect = domains.Rectangle()
    assert domains.regular_q_member(rect, 0.0, 0.0)
    assert domains.regular_q_member(rect, 1.0, 1.0)
    assert not domains.regular_q_member(rect, 1.0 + 1e-12, 0.5)
    d = domains.Disk()
    assert domains.regular_q_member(d, 0.6, 0.8)  # on the circle exactly
    assert not domains.regular_q_member(d, 0.6, 0.8 + 1e-8)
    hb = domains.HalfBall()
    assert domains.regular_q_member(hb, 0.0, -1.0)
    assert not domains.regular_q_member(hb, -1e-12, 0.0)
    with pytest.raises(UnsupportedDomainError):
        domains.regular_q_member(domains.Comb(3), 0.0, 0.0)


def test_build_regular_extents():
    q, omega = domains.build_domain(domains.Rectangle(), 2.0**-4)
    assert q.grid.extents == (17, 17)
    assert q.count == 17 * 17
    q2, _ = domains.build_domain(domains.Disk(), 2.0**-4)
    assert q2.grid.extents == (33, 33)
    assert q2.count < 33 * 33
    q3, _ = domains.build_domain(domains.HalfBall(), 2.0**-4)
    assert q3.grid.origin == (0.0, -1.0)


def test_build_domain_dispatch():
    for spec, h in [
        (domains.Comb(4), 2.0**-9),
        (domains.GapIntervals(4), 2.0**-9),
        (domains.CantorSlit(3), 2.0**-7),
        (domains.Rectangle(), 2.0**-4),
        (domains.Disk(), 2.0**-4),
        (domains.HalfBall(), 2.0**-4),
    ]:
        q, omega = domains.build_domain(spec, h)
        assert q.count >= omega.count
        assert q.grid == omega.grid


@pytest.mark.parametrize("h", [2.0**-5, 2.0**-6])
@pytest.mark.parametrize("kind", sorted(domains.KINDS))
def test_build_domain_rasterizes_only_the_masks_named(kind, h, monkeypatch):
    cls = domains.KINDS[kind]
    domain = cls(*(2 for _ in cls.required_fields()))
    q, omega = domains.build_domain(domain, h)
    calls = []
    for name in ("q", "open"):
        predicate = getattr(cls, name)
        if predicate is not None:
            def counted(self, *axes, _name=name, _predicate=predicate):
                calls.append(_name)
                return _predicate(self, *axes)
            monkeypatch.setattr(cls, name, counted)
    for masks, want in [(("q",), [q]), (("open",), [omega]),
                        (("open", "q"), [omega, q])]:
        calls.clear()
        got = domains.build_domain(domain, h, masks)
        assert len(got) == len(want)
        for mask, expected in zip(got, want):
            assert mask.grid == expected.grid
            assert np.array_equal(mask.member, expected.member)
        # each predicate once, and q for an open set with no predicate of
        # its own (its lattice interior), never one no mask needs
        needed = set(masks) if cls.open is not None else {"q"}
        assert sorted(calls) == sorted(needed)


@pytest.mark.parametrize("chunk", [2**6, 2**9])
@pytest.mark.parametrize("h", [2.0**-5, 2.0**-6, 2.0**-7])
@pytest.mark.parametrize("name", ["q", "open"])
@pytest.mark.parametrize("kind", sorted(domains.KINDS))
def test_a_scan_rasterizes_each_row_once_as_the_whole_mask(kind, name, h,
                                                          chunk, monkeypatch):
    # The rows a scan's walk reads, stacked, are the held mask bit for bit,
    # the lattice interior across block seams included; the predicate sees
    # each lattice row once (Q's rows, for an interior), and no predicate
    # another mask needs runs.  Small chunks cut the lattice into many row
    # blocks, one row each at 2^6 points in the plane.
    cls = domains.KINDS[kind]
    domain = cls(*(2 for _ in cls.required_fields()))
    whole = domains.build_domain(domain, h)[("q", "open").index(name)].member
    runs = {"q": [], "open": []}
    for pred in ("q", "open"):
        predicate = getattr(cls, pred)
        if predicate is not None:
            def counted(self, *axes, _pred=pred, _predicate=predicate):
                runs[_pred].append(np.shape(axes[0])[0])
                return _predicate(self, *axes)
            monkeypatch.setattr(cls, pred, counted)
    monkeypatch.setattr(grid, "CHUNK_POINTS", chunk)
    mask, = domains.build_domain(domain, h, (name,))
    read, rasterize = [], mask.rows

    def rows(block):
        sub = rasterize(block)
        if not read or read[-1][0] != block:
            read.append((block, sub.copy()))
        return sub

    mask.rows = rows
    dim = mask.grid.dim
    leaf = lambda pts, order: {(0,) * dim: np.zeros(pts.shape[:-1])}
    reduction = reduce_blocks(walk(leaf, mask, 0), mask, 0, True)
    assert len(read) > 1 or dim == 1
    assert [block for block, _ in read] == list(
        grid.row_blocks(mask.grid.extents))
    assert np.concatenate([sub for _, sub in read]).tobytes() == (
        whole.tobytes())
    assert reduction.mask.count == whole.sum()
    made = name if cls.open is not None else "q"
    assert sum(runs[made]) == mask.grid.extents[0]
    assert not runs[({"q", "open"} - {made}).pop()]


def test_each_kind_is_its_class():
    assert {kind: cls.__name__ for kind, cls in domains.KINDS.items()} == {
        "comb": "Comb", "gap1d": "GapIntervals", "cantor_slit": "CantorSlit",
        "rectangle": "Rectangle", "disk": "Disk", "half_ball": "HalfBall"}
    # a kind's parameter is its one required field; the regular kinds
    # build from their defaults
    assert [cls.required_fields() for cls in domains.KINDS.values()] == [
        ("n_teeth",), ("n_segments",), ("depth",), (), (), ()]
    assert domains.CantorSlit(3).depth == 3
    # the chartable kinds are those with an atlas, and no other has one
    assert domains.CHARTABLE == ("rectangle", "disk", "half_ball")
    for kind, cls in domains.KINDS.items():
        domain = cls(*(2 for _ in cls.required_fields()))
        if kind in domains.CHARTABLE:
            assert domain.charts()
        else:
            with pytest.raises(UnsupportedDomainError):
                domain.charts()


def test_spec_params():
    assert domains.Comb(6).params() == {"nTeeth": 6}
    assert domains.Disk((0.5, 0.0), 2.0).params() == {
        "center": [0.5, 0.0], "radius": 2.0}
    assert domains.Rectangle().params()["bounds"] == [[0.0, 1.0], [0.0, 1.0]]
    assert domains.GapIntervals(3).dim == 1
    assert domains.HalfBall().dim == 2
    # the comb's open set is the lattice interior of Q; the slit square's
    # is not: its slits carve the interior of the closed square
    q, omega = domains.build_domain(domains.Comb(6), 2.0**-9)
    assert np.array_equal(omega.member, interior_of(q).member)
    q, omega = domains.build_domain(domains.CantorSlit(4), 2.0**-8)
    assert not np.array_equal(omega.member, interior_of(q).member)


def gap_oracle(values):
    out = [gap_segment_index(v) for v in values]
    return np.array([-1 if n is None else n for n in out])


@pytest.mark.parametrize("h", [2.0**-10, 2.0**-14])
def test_gap_segment_index_array_on_lattice_coordinates(h):
    s = GridSpec.cover((-1.0,), (1.0,), h).axis_coords(0)
    assert np.array_equal(domains.gap_segment_index_array(s), gap_oracle(s))


def test_gap_segment_index_array_at_island_endpoints():
    ends = [-1.0, 0.0]
    for n in range(1, 1075):
        s_n = math.ldexp(1.0, -n)
        ends += [s_n, 1.5 * s_n]
    s = np.array([v for e in ends
                  for v in (e, np.nextafter(e, -2.0), np.nextafter(e, 2.0))])
    got = domains.gap_segment_index_array(s)
    assert np.array_equal(got, gap_oracle(s))
    assert got.dtype == np.int64
