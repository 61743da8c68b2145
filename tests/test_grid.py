"""Lattice, mask, and jet container behavior."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from jetlab.errors import MaskMismatchError
from jetlab.grid import (
    MAX_ORDER,
    GridMask,
    GridSpec,
    SampledJet,
    alpha_key,
    coordinate_lines,
    dilate_box,
    interior_of,
    multi_indices,
    row_blocks,
    sample,
    walk,
)
from lattice_oracles import (
    NoNeighborError, box_dilation, connected_component_count, coord_grids,
    erosion, fd_partial,
)


def brute_multi_indices(order, dim):
    # independent enumeration: filter the full cube, sort by (total, tuple)
    import itertools

    all_ = [
        a for a in itertools.product(range(order + 1), repeat=dim)
        if sum(a) <= order
    ]
    return sorted(all_, key=lambda a: (sum(a), a))


@pytest.mark.parametrize("order,dim", [(0, 1), (3, 1), (0, 2), (1, 2), (2, 2), (5, 2)])
def test_multi_indices_matches_brute_force(order, dim):
    assert multi_indices(order, dim) == brute_multi_indices(order, dim)


def test_multi_indices_counts():
    # dim 2: C(order+2, 2) indices
    for order in range(6):
        n = len(multi_indices(order, 2))
        assert n == (order + 1) * (order + 2) // 2
    assert len(multi_indices(4, 1)) == 5


def test_multi_indices_rejects_bad_args():
    with pytest.raises(ValueError):
        multi_indices(-1, 2)
    with pytest.raises(ValueError):
        multi_indices(2, 0)
    # the order bound is checked before anything is listed
    assert len(multi_indices(MAX_ORDER, 2)) == 91
    with pytest.raises(ValueError, match="got order 13 in 2-D"):
        multi_indices(MAX_ORDER + 1, 2)


def test_alpha_key_round_trip():
    # the jet reader reads a key back by this table of its order's keys
    for alpha in multi_indices(3, 2) + multi_indices(3, 1):
        assert tuple(map(int, alpha_key(alpha).split(","))) == alpha
    assert alpha_key((1, 0)) == "1,0"


def test_grid_coords_exact_dyadic():
    g = GridSpec((0.0, -1.0), 2.0**-4, (17, 33))
    assert g.dim == 2
    assert g.point_count == 17 * 33
    xs = g.axis_coords(0)
    assert xs[0] == 0.0 and xs[-1] == 1.0
    assert g.coord((16, 32)) == (1.0, 1.0)
    # dyadic spacing keeps every coordinate exact
    assert xs[5] == 5 * 2.0**-4
    X, Y = coord_grids(g)
    assert X.shape == (17, 33)
    assert Y[0, 0] == -1.0


def test_grid_cover():
    g = GridSpec.cover((0.0,), (1.0,), 2.0**-3)
    assert g.extents == (9,)
    with pytest.raises(ValueError):
        GridSpec.cover((0.0,), (1.0,), 0.3)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec((0.0,), -1.0, (4,))
    with pytest.raises(ValueError):
        GridSpec((0.0, 0.0), 0.5, (4,))
    with pytest.raises(ValueError):
        GridSpec((0.0, 0.0, 0.0), 0.5, (4, 4, 4))
    with pytest.raises(ValueError):
        GridSpec((0.0,), 0.5, (0,))


def test_mask_basics():
    g = GridSpec((0.0,), 0.5, (5,))
    m = GridMask(g, np.array([1, 0, 1, 1, 0], dtype=bool))
    assert m.count == 3
    assert g.points(np.nonzero(m.member)).tolist() == [[0.0], [1.0], [1.5]]
    assert not m.member.flags.writeable
    with pytest.raises(MaskMismatchError):
        GridMask(g, np.ones(4, dtype=bool))


def test_interior_closure_boundary_2d():
    g = GridSpec((0.0, 0.0), 1.0, (5, 5))
    member = np.zeros((5, 5), dtype=bool)
    member[1:4, 1:4] = True
    m = GridMask(g, member)

    inner = interior_of(m)
    expect_inner = np.zeros((5, 5), dtype=bool)
    expect_inner[2, 2] = True
    assert np.array_equal(inner.member, expect_inner)

    assert dilate_box(m.member, 1).sum() == 25


def test_interior_lattice_edge_never_interior():
    g = GridSpec((0.0,), 1.0, (4,))
    m = GridMask(g, np.ones(4, dtype=bool))
    assert np.array_equal(interior_of(m).member, [False, True, True, False])


def test_closure_recovers_corners():
    # interior of a fat rectangle loses corners under the cross, the box
    # dilation puts them back
    g = GridSpec((0.0, 0.0), 1.0, (7, 7))
    member = np.zeros((7, 7), dtype=bool)
    member[1:6, 1:6] = True
    m = GridMask(g, member)
    again = dilate_box(interior_of(m).member, 1)
    assert np.array_equal(again, member)


def test_component_count():
    g = GridSpec((0.0,), 1.0, (9,))
    m = GridMask(g, np.array([1, 1, 0, 1, 0, 0, 1, 1, 1], dtype=bool))
    assert connected_component_count(m) == 3
    g2 = GridSpec((0.0, 0.0), 1.0, (4, 4))
    mem = np.zeros((4, 4), dtype=bool)
    mem[0, 0] = mem[1, 1] = True  # diagonal neighbors are not connected
    assert connected_component_count(GridMask(g2, mem)) == 2


def oracle_masks():
    """Random 1-D and 2-D masks plus the degenerate shapes and fills."""
    rng = np.random.default_rng(11)
    shapes = [(1,), (2,), (3,), (17,), (1, 1), (1, 9), (9, 1), (2, 2),
              (2, 7), (13, 11), (40, 33)]
    for shape in shapes:
        yield np.zeros(shape, dtype=bool)
        yield np.ones(shape, dtype=bool)
        for density in (0.2, 0.5, 0.85):
            yield rng.random(shape) < density


def test_interior_matches_cross_erosion():
    for member in oracle_masks():
        g = GridSpec((0.0,) * member.ndim, 1.0, member.shape)
        got = interior_of(GridMask(g, member)).member
        assert np.array_equal(got, erosion(member)), member.shape


@pytest.mark.parametrize("radius", [1, 2, 3, 5, 8])
def test_dilate_box_matches_iterated_box_dilation(radius):
    for member in oracle_masks():
        got = dilate_box(member, radius)
        assert got.dtype == bool
        assert np.array_equal(got, box_dilation(member, radius)), member.shape


def make_jet(g, mask, fn, order=1):
    comps = {}
    grids = coord_grids(g)
    for alpha in multi_indices(order, g.dim):
        comps[alpha] = fn(alpha, *grids)
    return SampledJet(order, mask, comps)


def test_sampled_jet_validation():
    g = GridSpec((0.0,), 1.0, (4,))
    m = GridMask(g, np.array([1, 1, 1, 0], dtype=bool))
    with pytest.raises(ValueError, match="missing component"):
        SampledJet(1, m, {(0,): np.zeros(4)})
    bad = {(0,): np.array([0.0, np.nan, 0.0, 0.0]), (1,): np.zeros(4)}
    with pytest.raises(ValueError, match="not finite"):
        SampledJet(1, m, bad)
    # off-mask junk is zeroed
    comps = {(0,): np.array([1.0, 2.0, 3.0, 99.0]), (1,): np.ones(4)}
    jet = SampledJet(1, m, comps)
    assert jet.components[(0,)][3] == 0.0
    assert not jet.components[(0,)].flags.writeable


def test_sampled_jet_adopts_clean_arrays_only():
    g = GridSpec((0.0,), 1.0, (4,))
    m = GridMask(g, np.array([1, 1, 1, 0], dtype=bool))
    clean = np.array([1.0, -0.0, 3.0, 0.0])
    jet = SampledJet(0, m, {(0,): clean})
    assert np.shares_memory(jet.components[(0,)], clean)
    assert not jet.components[(0,)].flags.writeable
    assert clean.flags.writeable
    # -0.0 and nan off the mask are not zero bit for bit: copied and cleaned
    for junk in (-0.0, np.nan, np.inf):
        arr = np.array([1.0, 2.0, 3.0, junk])
        got = SampledJet(0, m, {(0,): arr}).components[(0,)]
        assert not np.shares_memory(got, arr)
        assert got.tobytes() == np.array([1.0, 2.0, 3.0, 0.0]).tobytes()
    with pytest.raises(ValueError, match="not finite"):
        SampledJet(0, m, {(0,): np.array([1.0, np.inf, 3.0, 0.0])})


def test_fd_partial_stencils():
    g = GridSpec((0.0,), 0.25, (5,))
    m = GridMask(g, np.array([1, 1, 1, 1, 0], dtype=bool))
    jet = make_jet(g, m, lambda a, x: x**2 if a == (0,) else 2 * x)
    # central at an interior point: exact for quadratics
    assert fd_partial(jet, (0,), 0, (1,)) == pytest.approx(0.5, abs=1e-12)
    # one-sided at the left edge
    assert fd_partial(jet, (0,), 0, (0,)) == pytest.approx(0.25, abs=1e-12)
    # one-sided at the right edge of the mask (index 3, neighbor 4 missing)
    assert fd_partial(jet, (0,), 0, (3,)) == pytest.approx(
        (0.75**2 - 0.5**2) / 0.25, abs=1e-12)
    with pytest.raises(NoNeighborError):
        fd_partial(jet, (0,), 0, (4,))
    lone = GridMask(g, np.array([0, 0, 1, 0, 0], dtype=bool))
    jet2 = make_jet(g, lone, lambda a, x: x)
    with pytest.raises(NoNeighborError):
        fd_partial(jet2, (0,), 0, (2,))


def test_sample_passes_each_masked_point_once_per_non_empty_block():
    # three row blocks of 218 rows; the middle one is emptied
    g = GridSpec((-1.0, 0.5), 2.0**-6, (600, 300))
    rng = np.random.default_rng(4)
    member = rng.random(g.extents) < 0.6
    blocks = list(row_blocks(g.extents))
    assert len(blocks) == 3
    member[blocks[1]] = False
    mask = GridMask(g, member)
    calls = []

    def evaluator(pts, order):  # s + 2t to order 1; (0, 1) as a scalar
        calls.append(pts.copy())
        return {(0, 0): pts[..., 0] + 2.0 * pts[..., 1],
                (1, 0): np.ones(pts.shape[:-1]), (0, 1): np.float64(2.0)}

    jet = sample(evaluator, mask, 1)
    # one call per non-empty block, on all its lattice points: each point
    # of those blocks once, in row-major order
    s, t = coord_grids(g)
    lattice = np.stack((s, t), axis=-1)
    assert [pts.shape for pts in calls] == [lattice[blocks[0]].shape,
                                            lattice[blocks[2]].shape]
    assert np.concatenate(calls).tobytes() == np.concatenate(
        (lattice[blocks[0]], lattice[blocks[2]])).tobytes()
    assert np.array_equal(jet.components[(0, 0)],
                          np.where(member, s + 2.0 * t, 0.0))
    assert np.array_equal(jet.components[(0, 1)], np.where(member, 2.0, 0.0))
    # walk yields the blocks sample stores, and the held jet serves them again
    # as slices over the same row blocks, the emptied one among them
    walked = {rows.start: block for rows, block in walk(evaluator, mask, 1)}
    assert list(walked) == [blocks[0].start, blocks[2].start]
    held = list(jet.blocks())
    assert [rows for rows, _ in held] == blocks
    for rows, block in held:
        for alpha, arr in block.items():
            assert np.shares_memory(arr, jet.components[alpha])
            if rows.start in walked:
                assert arr.tobytes() == walked[rows.start][alpha].tobytes()


def test_walk_stores_plus_zero_off_the_mask():
    # whatever a leaf gives at a point off the mask, -0.0, nan or inf, the
    # walk's block holds +0.0 there and the leaf's own bits on the mask
    g = GridSpec((0.0,), 0.5, (6,))
    member = np.array([True, False, True, False, True, False])
    given_ = np.array([-0.0, -0.0, np.nan, np.nan, -np.inf, np.inf])
    [(_, block)] = walk(lambda pts, order: {(0,): given_},
                        GridMask(g, member), 0)
    want = np.where(member, given_, 0.0)
    assert block[(0,)].view(np.int64).tolist() == want.view(np.int64).tolist()


_BITS = st.sampled_from([0.0, -0.0, 1.0, -1.0, np.nan, -np.nan, np.inf])


def constant_along(arr: np.ndarray, axis: int) -> bool:
    """Whether arr holds the same bits at every index along axis."""
    bits = arr.view(np.int64)
    return bool((bits == bits.take([0], axis=axis)).all())


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 3), st.integers(0, 3),
                                    st.integers(1, 2)), elements=_BITS))
@example(np.zeros((0, 2)))
@example(np.array([[-0.0, np.nan]]))
@example(np.array([[0.0, np.nan], [-0.0, np.nan]]))
@example(np.stack(np.meshgrid([0.0, -0.0, 1.0], [np.nan, 2.0],
                              indexing="ij"), axis=-1))
def test_coordinate_lines_cut_exactly_where_a_coordinate_is_constant(pts):
    # empty, single-point, +-0.0 and nan columns among them: an axis is
    # cut to length 1 exactly when the coordinate's bits do not vary on it
    for a, line in enumerate(coordinate_lines(pts)):
        coord = pts[..., a]
        assert line.ndim == coord.ndim
        for axis, n in enumerate(coord.shape):
            cut = n > 1 and constant_along(coord, axis)
            assert line.shape[axis] == (1 if cut else n)
        # the line broadcasts back to the coordinate, bit for bit
        back = np.broadcast_to(line, coord.shape)
        assert back.view(np.int64).tolist() == coord.view(np.int64).tolist()


def test_coordinate_lines_of_a_lattice_block_are_its_axes():
    g = GridSpec((-1.0, -0.5), 2.0**-4, (20, 9))
    s, t = coord_grids(g)
    got = coordinate_lines(np.stack((s, t), axis=-1)[3:11])
    want = np.ix_(g.axis_coords(0)[3:11], g.axis_coords(1))
    assert [line.tobytes() for line in got] == [w.tobytes() for w in want]
    assert [line.shape for line in got] == [(8, 1), (1, 9)]
    # arbitrary points are their own coordinates
    pts = np.array([[0.5, 0.25], [0.5, -0.25], [-0.0, 0.25]])
    assert [line.tobytes() for line in coordinate_lines(pts)] == [
        pts[:, 0].tobytes(), pts[:, 1].tobytes()]
