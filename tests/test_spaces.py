"""Norms, restriction, extension upper bounds, membership scans."""

import contextlib
import hashlib
import dataclasses
import io as stdio
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from jetlab import domains, functions, grid, io
from jetlab.cli import DEFAULTS, main
from jetlab.errors import (
    EmptyMaskError,
    MaskMismatchError,
    NotAnExtensionError,
    PointOutsideRegionError,
)
from jetlab.functions import function_names, get_function, polynomial_jet
from jetlab.grid import (
    GridMask,
    GridSpec,
    SampledJet,
    multi_indices,
    row_blocks,
    walk,
)
from jetlab.spaces import (
    check_membership_e,
    check_membership_f,
    h_norm_upper_bound,
    norm_report,
    reduce_blocks,
    restrict_to_omega,
)

from lattice_oracles import full_lattice_scan


def comb_masks(h=2.0**-6, n_teeth=3):
    return domains.build_domain(domains.Comb(n_teeth), h=h)


def random_jet(mask, order, seed):
    rng = np.random.default_rng(seed)
    components = {}
    for alpha in multi_indices(order, mask.grid.dim):
        arr = np.zeros(mask.grid.extents)
        arr[mask.member] = rng.uniform(-5.0, 5.0, mask.count)
        components[alpha] = arr
    return SampledJet(order, mask, components)


def test_norm_hand_value():
    g = GridSpec.cover((0.0,), (1.0,), 0.25)
    mask = GridMask(g, np.ones(5, dtype=bool))
    jet = SampledJet(
        1, mask,
        {(0,): np.array([0.0, -3.0, 1.0, 0.5, 2.0]),
         (1,): np.array([1.0, 1.0, -4.0, 0.0, 0.0])},
    )
    rep = norm_report(jet, "F", "Q")
    assert rep.per_alpha[(0,)] == 3.0
    assert rep.per_alpha[(1,)] == 4.0
    assert rep.overall == 4.0
    assert rep.space == "F"
    assert rep.point_count == 5
    assert rep.to_payload()["per_alpha"] == {"0": 3.0, "1": 4.0}


def test_norm_report_reads_the_sup_over_the_mask():
    g = GridSpec((0.0,), 1.0, (4,))
    m = GridMask(g, np.array([1, 0, 1, 0], dtype=bool))
    jet = SampledJet(0, m, {(0,): np.array([1.0, -50.0, -3.0, 50.0])})
    assert norm_report(jet, "F", "Q").overall == 3.0
    zeros = SampledJet(0, m, {(0,): np.array([-0.0, 1.0, -0.0, 1.0])})
    zero = norm_report(zeros, "F", "Q").overall
    assert zero == 0.0 and not np.signbit(zero)
    empty = SampledJet(0, GridMask(g, np.zeros(4, dtype=bool)),
                       {(0,): np.zeros(4)})
    for read in (lambda: norm_report(empty, "F", "Q"),
                 lambda: check_membership_f(empty, DEFAULTS["tol"])):
        with pytest.raises(EmptyMaskError):
            read()
    # a walked block carries no SampledJet; the reducer checks it instead
    nan_leaf = walk(lambda pts, order: {(0,): np.full(len(pts), np.nan)},
                    m, 0)
    with pytest.raises(ValueError, match="not finite on the mask"):
        reduce_blocks(nan_leaf, m, 0, False)


def test_norm_algebra_on_random_jets():
    q, omega = comb_masks()
    for seed in range(12):
        x = random_jet(q, 1, seed)
        y = random_jet(q, 1, 1000 + seed)
        nx = norm_report(x, "F", "Q").overall
        ny = norm_report(y, "F", "Q").overall
        # exact homogeneity, dyadic factor
        scaled = SampledJet(1, q, {
            a: -2.0 * arr for a, arr in x.components.items()})
        assert norm_report(scaled, "F", "Q").overall == 2.0 * nx
        summed = SampledJet(1, q, {
            a: x.components[a] + y.components[a] for a in x.alphas()})
        assert norm_report(summed, "F", "Q").overall <= nx + ny
        # restriction never increases the norm
        omega_x = restrict_to_omega(x, omega)
        assert norm_report(omega_x, "E", "Omega").overall <= nx


def test_restriction_zeroes_dropped_points():
    q, omega = comb_masks()
    x = random_jet(q, 1, 5)
    r = restrict_to_omega(x, omega)
    gone = q.member & ~omega.member
    assert gone.any()
    assert (r.components[(0, 0)][gone] == 0.0).all()
    assert np.array_equal(
        r.components[(0, 0)][omega.member], x.components[(0, 0)][omega.member]
    )


def test_restriction_rejects_foreign_masks():
    q, omega = comb_masks()
    x = random_jet(omega, 1, 2)
    with pytest.raises(MaskMismatchError):
        restrict_to_omega(x, q)  # superset, not subset
    other = GridSpec.cover((-1.0, -1.0), (1.0, 1.0), 2.0**-5)
    foreign = GridMask(other, np.ones(other.extents, dtype=bool))
    with pytest.raises(MaskMismatchError):
        restrict_to_omega(x, foreign)


def test_h_upper_bound_accepts_true_extension():
    spec = domains.Rectangle()
    q, _ = domains.build_domain(spec, h=2.0**-4)
    x = get_function("sum_st", depth=4).sample(q, order=1)
    window = GridSpec.cover((-0.5, -0.5), (1.5, 1.5), 2.0**-4)
    all_mask = GridMask(window, np.ones(window.extents, dtype=bool))
    xbar = get_function("sum_st", depth=4).sample(all_mask, order=1)
    rep = h_norm_upper_bound(x, xbar)
    assert rep.space == "H-upper"
    assert rep.overall == 3.0  # |s + t| peaks at the window corner
    assert rep.overall >= norm_report(x, "F", "Q").overall


def test_h_upper_bound_rejects_non_extensions():
    spec = domains.Rectangle()
    q, _ = domains.build_domain(spec, h=2.0**-4)
    x = get_function("sum_st", depth=4).sample(q, order=1)
    window = GridSpec.cover((-0.5, -0.5), (1.5, 1.5), 2.0**-4)
    all_mask = GridMask(window, np.ones(window.extents, dtype=bool))
    # wrong values on Q
    wrong = get_function("sin_cos", depth=4).sample(all_mask, order=1)
    with pytest.raises(NotAnExtensionError):
        h_norm_upper_bound(x, wrong)
    # window that misses part of Q
    small = GridSpec.cover((0.25, 0.25), (1.5, 1.5), 2.0**-4)
    small_mask = GridMask(small, np.ones(small.extents, dtype=bool))
    clipped = get_function("sum_st", depth=4).sample(small_mask, 1)
    with pytest.raises(NotAnExtensionError):
        h_norm_upper_bound(x, clipped)
    # misaligned lattice
    shifted = GridSpec((-0.5 + 0.3 * 2.0**-4, -0.5), 2.0**-4, window.extents)
    sh_mask = GridMask(shifted, np.ones(shifted.extents, dtype=bool))
    sh = get_function("sum_st", depth=4).sample(sh_mask, order=1)
    with pytest.raises(MaskMismatchError):
        h_norm_upper_bound(x, sh)
    # coarser lattice
    coarse_g = GridSpec.cover((-0.5, -0.5), (1.5, 1.5), 2.0**-3)
    coarse_mask = GridMask(coarse_g, np.ones(coarse_g.extents, dtype=bool))
    coarse = get_function("sum_st", depth=4).sample(coarse_mask, 1)
    with pytest.raises(MaskMismatchError):
        h_norm_upper_bound(x, coarse)


def test_smooth_field_scans_consistent():
    q, omega = comb_masks(h=2.0**-7, n_teeth=2)
    jet = get_function("sin_cos", depth=4).sample(q, order=1)
    verdict = check_membership_f(jet, DEFAULTS["tol"])
    assert verdict.consistent
    assert verdict.certificate is None
    assert verdict.fd_defect <= verdict.tolerances["fd_bound"]
    assert max(verdict.modulus.values()) < 1e-2
    r = restrict_to_omega(jet, omega)
    assert check_membership_e(r, DEFAULTS["tol"]).consistent


def test_scan_catches_jump_discontinuity():
    g = GridSpec.cover((0.0,), (1.0,), 2.0**-6)
    mask = GridMask(g, np.ones(g.extents, dtype=bool))
    xs = g.axis_coords(0)
    step = np.where(xs < 0.5, 0.0, 1.0)
    jet = SampledJet(0, mask, {(0,): step})
    verdict = check_membership_f(jet, DEFAULTS["tol"])
    assert not verdict.consistent
    assert verdict.verdict == "violation"
    cert = verdict.certificate
    assert cert is not None
    assert cert.claim == "not-in-F-at-resolution"
    assert cert.gap == 1.0
    term = cert.terms[0]
    # the witness pair straddles the jump at s = 1/2
    assert abs(term.base[0] - 0.5) <= 2.0**-6 + 1e-12
    assert "jumps by 1" in term.note


def test_scan_catches_wrong_declared_partial():
    g = GridSpec.cover((0.0,), (1.0,), 2.0**-6)
    mask = GridMask(g, np.ones(g.extents, dtype=bool))
    xs = g.axis_coords(0)
    jet = SampledJet(
        1, mask,
        {(0,): np.sin(xs), (1,): np.cos(xs) + 0.5},
    )
    verdict = check_membership_f(jet, DEFAULTS["tol"])
    assert not verdict.consistent
    assert verdict.fd_defect == pytest.approx(0.5, abs=1e-3)
    assert "finite difference" in verdict.certificate.terms[0].note


def test_scan_round_trips_through_payload():
    g = GridSpec.cover((0.0,), (1.0,), 2.0**-5)
    mask = GridMask(g, np.ones(g.extents, dtype=bool))
    xs = g.axis_coords(0)
    jet = SampledJet(0, mask, {(0,): np.where(xs < 0.5, 0.0, 1.0)})
    verdict = check_membership_f(jet, DEFAULTS["tol"])
    payload = verdict.to_payload()
    assert payload["verdict"] == "violation"
    assert payload["certificate"]["claim"] == "not-in-F-at-resolution"
    assert payload["tolerances"]["modulus"] == DEFAULTS["tol"]


def test_tol_by_order_overrides_flat_tolerance():
    # first derivative of |sin| has a genuine O(1) kink step at the origin
    g = GridSpec.cover((-1.0,), (1.0,), 2.0**-8)
    mask = GridMask(g, np.ones(g.extents, dtype=bool))
    xs = g.axis_coords(0)
    jet = SampledJet(
        1, mask, {(0,): np.abs(np.sin(xs)), (1,): np.sign(xs) * np.cos(xs)}
    )
    strict = check_membership_f(jet, tol=1e-2)
    assert not strict.consistent
    lax = check_membership_f(jet, tol=1e-2, tol_by_order={1: 3.0})
    assert lax.consistent
    assert lax.modulus[1] > 0.9


def test_comb_field_passes_f_scan_on_fine_lattice():
    q, _ = comb_masks(h=2.0**-8, n_teeth=4)
    jet = get_function("example3", depth=4).sample(q, order=1)
    verdict = check_membership_f(jet, DEFAULTS["tol"])
    assert verdict.consistent
    assert verdict.h == 2.0**-8


def test_scan_e_on_open_mask_skips_straddling_pairs():
    # a jump across a single excluded lattice point passes the open scan
    # but fails the closed one; the scans differ only through the mask
    g = GridSpec.cover((0.0,), (1.0,), 2.0**-5)
    full = GridMask(g, np.ones(g.extents, dtype=bool))
    punctured = full.member.copy()
    punctured[16] = False  # s = 1/2
    xs = g.axis_coords(0)
    vals = np.where(xs < 0.5, 0.0, 1.0)
    jet_q = SampledJet(0, full, {(0,): vals})
    assert not check_membership_f(jet_q, DEFAULTS["tol"]).consistent
    omega = GridMask(g, punctured)
    jet_o = SampledJet(0, omega, {(0,): np.where(punctured, vals, 0.0)})
    assert check_membership_e(jet_o, DEFAULTS["tol"]).consistent


def test_modulus_witness_is_of_the_highest_bad_order():
    # the order-0 modulus 0.0157 fails h/2; the order-1 jumps, 3.1e-05, do
    # not, so the witness is an order-0 jump
    h = 2.0**-6
    q, _ = domains.build_domain(domains.Rectangle(), h)
    jet = polynomial_jet("p", {(1, 0): 1.0, (2, 0): 1e-3}).sample(q, 1)
    verdict = check_membership_f(jet, h / 2)
    assert verdict.modulus[0] > h / 2 > verdict.modulus[1]
    term = verdict.certificate.terms[0]
    assert term.note.startswith("component 0,0 jumps by 0.0156")
    assert term.quotient == verdict.certificate.gap == verdict.modulus[0]
    assert_same_verdict(jet, "F", tol=h / 2)


# lattice extents of the scan oracle cases: row blocks that do not divide the
# lattice, one row, one column, a 1-D lattice of two blocks, and two rows of
# one-row blocks, with no triples along axis 0
SCAN_SHAPES = {
    "blocks": (300, 301),
    "one-row": (1, 70001),
    "one-column": (70001, 1),
    "1d": (70001,),
    "two-rows": (2, 40000),
}


def tied_jet(shape, h, order, seed):
    """Components of small integers on a thinned mask with empty rows, so
    that every scan maximum is tied many times over."""
    rng = np.random.default_rng(seed)
    g = GridSpec((0.0,) * len(shape), h, shape)
    member = rng.random(shape) < 0.8
    if shape[0] > 2:
        member[rng.random(shape[0]) < 0.1] = False
        member[:2] = False
    components = {
        alpha: np.where(member, rng.integers(0, 3, shape), 0.0)
        for alpha in multi_indices(order, len(shape))
    }
    return SampledJet(order, GridMask(g, member), components)


def assert_same_verdict(jet, space, tol=DEFAULTS["tol"], **kwargs):
    checker = check_membership_e if space == "E" else check_membership_f
    got = checker(jet, tol, **kwargs).to_payload()
    want = full_lattice_scan(jet, space, tol, **kwargs).to_payload()
    assert io.dumps(got) == io.dumps(want)
    return got


@pytest.mark.parametrize("h", [1.0, 2.0**-6], ids=["modulus", "fd"])
@pytest.mark.parametrize("case", sorted(SCAN_SHAPES))
def test_scan_matches_the_full_lattice_oracle(case, h):
    # h = 1 keeps the finite-difference defect under its bound, so the
    # modulus witness is reported; h = 2^-6 reports the fd witness
    shape = SCAN_SHAPES[case]
    jet = tied_jet(shape, h, 2, seed=len(case))
    for space in ("F", "E"):
        got = assert_same_verdict(jet, space)
        assert got["verdict"] == "violation"
        note = got["certificate"]["terms"][0]["note"]
        assert ("jumps by" in note) == (h == 1.0)


@pytest.mark.parametrize("case,h", [
    ("blocks", 1.0), ("blocks", 2.0**-6), ("1d", 1.0), ("1d", 2.0**-6),
    ("two-rows", 1.0),
], ids=["blocks-modulus", "blocks-fd", "1d-modulus", "1d-fd",
        "two-rows-modulus"])
def test_scan_witness_straddles_a_row_block_seam(case, h):
    # every component is 0 on the span rows before the second block, and
    # from its first row on every order-2 component (a modulus witness: the
    # pair from the row above) or order-1 one (an fd witness: the triple
    # from two rows above) is 10; a halo off by one row would move either
    jet = tied_jet(SCAN_SHAPES[case], h, 2, seed=len(case))
    seam = list(row_blocks(jet.grid.extents))[1].start
    span = 1 if h == 1.0 else 2
    member = jet.mask.member.copy()
    member[seam - span:seam + span + 1] = True
    components = {}
    for alpha, arr in jet.components.items():
        arr = arr.copy()
        arr[seam - span:seam] = 0.0
        if sum(alpha) == 3 - span:
            arr[seam:] = 10.0
        components[alpha] = arr
    jet = SampledJet(2, GridMask(jet.grid, member), components)
    got = assert_same_verdict(jet, "F")
    term = got["certificate"]["terms"][0]
    assert Fraction(*term["base"][0]) == (seam - span) * Fraction(h)
    assert ("jumps by 10" in term["note"]) == (h == 1.0)


@pytest.mark.parametrize("side", ["zero-then-nonzero", "nonzero-then-zero"])
@pytest.mark.parametrize("h", [1.0, 2.0**-6], ids=["modulus", "fd"])
def test_a_component_zero_on_whole_blocks_is_scanned_exactly(side, h):
    # every component is 0 on the whole row block on one side of the seam;
    # on the other the components of one order are 10: order 2 for the
    # modulus witness, and for the fd one order 1 after the seam or order
    # 0 before it.  Each witness is the first stencil across the seam, read
    # in the second block, whose own rows or halo rows are all 0
    g = GridSpec((0.0, 0.0), h, (300, 301))
    seam = list(row_blocks(g.extents))[1].start
    loud = slice(seam, None) if side == "zero-then-nonzero" else slice(seam)
    order = 2 if h == 1.0 else int(side == "zero-then-nonzero")
    components = {}
    for alpha in multi_indices(2, 2):
        components[alpha] = np.zeros(g.extents)
        if sum(alpha) == order:
            components[alpha][loud] = 10.0
    jet = SampledJet(2, GridMask(g, np.ones(g.extents, bool)), components)
    for space in ("F", "E"):
        term = assert_same_verdict(jet, space)["certificate"]["terms"][0]
        assert seam - 2 <= Fraction(*term["base"][0]) / Fraction(h) < seam


@pytest.mark.parametrize("shape,heights", [
    ((218, 301), [217, 1]), ((219, 301), [217, 2]), ((220, 301), [217, 3]),
    ((3, 2**16), [1, 1, 1]),
], ids=["last-1", "last-2", "last-3", "one-row-blocks"])
@pytest.mark.parametrize("h", [1.0, 2.0**-6], ids=["modulus", "fd"])
def test_scan_reads_the_seam_of_a_short_block_as_the_oracle(shape, heights,
                                                            h):
    # the stencils that start in the carried rows are read from a join of
    # them and the block's first rows, which a short block may not fill.
    # Every component is 0 on the first block and small integers after it:
    # the largest jumps tie at the seam and past it, and the witness is the
    # seam's, folded first; the largest defect lies past the seam
    assert [r.stop - r.start for r in row_blocks(shape)] == heights
    rng = np.random.default_rng(len(heights) + heights[-1])
    member = rng.random(shape) < 0.8
    components = {}
    for alpha in multi_indices(2, 2):
        components[alpha] = np.where(member, rng.integers(0, 3, shape), 0.0)
        components[alpha][:heights[0]] = 0.0
    jet = SampledJet(2, GridMask(GridSpec((0.0, 0.0), h, shape), member),
                     components)
    for space in ("F", "E"):
        got = assert_same_verdict(jet, space)
        assert got["verdict"] == "violation"
        base = Fraction(*got["certificate"]["terms"][0]["base"][0])
        assert heights[0] - 2 <= base / Fraction(h)
        assert (base / Fraction(h) < heights[0]) == (h == 1.0)


def test_scan_matches_the_oracle_on_a_consistent_field():
    g = GridSpec((-1.0, -1.0), 2.0**-8, (300, 301))
    member = np.random.default_rng(5).random(g.extents) < 0.8
    member[100:120] = False
    jet = get_function("sin_cos", depth=4).sample(
        GridMask(g, member), 2)
    tols = {"tol_by_order": {0: 0.01, 1: 0.01, 2: 0.01}}
    assert assert_same_verdict(jet, "F", **tols)["verdict"] == (
        "consistent-at-resolution")


@pytest.mark.parametrize("bumps,first", [
    ([(250, 7), (230, 300), (299, 0), (250, 3)], 229),
    ([(250, 7), (230, 300), (100, 5), (250, 3)], 99),
], ids=["second-block", "both-blocks"])
def test_scan_witness_is_the_first_of_tied_maxima(bumps, first):
    # equal unit bumps; the witness is the first axis-0 pair in row-major
    # order that touches one, whether or not an earlier row block holds a bump
    g = GridSpec((0.0, 0.0), 1.0, (300, 301))
    assert [rows.start for rows in row_blocks((299, 301))] == [0, 217]
    vals = np.zeros(g.extents)
    for k in bumps:
        vals[k] = 1.0
    jet = SampledJet(0, GridMask(g, np.ones(g.extents, bool)),
                     {(0, 0): vals})
    verdict = assert_same_verdict(jet, "F")
    term = verdict["certificate"]["terms"][0]
    col = dict((r - 1, c) for r, c in bumps)[first]
    assert term["base"] == [[first, 1], [col, 1]]
    assert term["probe"] == [[first + 1, 1], [col, 1]]


def test_norm_and_scan_share_each_sup():
    # one walk of the blocks serves the report and the scan, and they read
    # as a walk for each would
    q, _ = comb_masks()
    jet = random_jet(q, 2, seed=3)
    walked = []

    def blocks():
        for rows, block in jet.blocks():
            walked.append(rows)
            yield rows, block

    reduction = reduce_blocks(blocks(), q, 2, True)
    assert walked == list(row_blocks(q.grid.extents))
    report = norm_report(reduction, "F", "Q")
    assert report == norm_report(jet, "F", "Q")
    assert report.overall == max(
        float(np.abs(arr[q.member]).max()) for arr in jet.components.values())
    assert io.dumps(check_membership_f(reduction, DEFAULTS["tol"])
                    .to_payload()) == io.dumps(
        check_membership_f(jet, DEFAULTS["tol"]).to_payload())
    sups_only = reduce_blocks(jet.blocks(), q, 2, False)
    assert norm_report(sups_only, "F", "Q") == report
    with pytest.raises(ValueError, match="has no scan"):
        check_membership_f(sups_only, DEFAULTS["tol"])


CANTOR_E3 = ["space", "norm", "--domain", "cantor_slit", "--depth", "4",
             "--function", "example1", "--space", "E", "--order", "3",
             "--check"]


def test_one_pass_norm_evaluates_each_masked_point_once(monkeypatch):
    # one leaf call per non-empty row block, on that block's lattice points,
    # each point once: the halo rows are carried to the next block, not
    # evaluated again; each block holds the 4 partials that are not 0,
    # phi(s) times a t-partial
    h = 2.0**-8
    _, omega = domains.build_domain(domains.CantorSlit(4), h)
    calls, held = [], []
    field = get_function("example1", depth=4)
    leaf = field.evaluator

    def counted(pts, order):
        calls.append(pts.copy())
        return leaf(pts, order)

    def walked(evaluator, mask, order):
        for rows, block in walk(evaluator, mask, order):
            held.append(list(block))
            yield rows, block

    field.evaluator = counted
    monkeypatch.setattr(functions, "get_function", lambda name, depth: field)
    monkeypatch.setattr(grid, "walk", walked)
    with contextlib.redirect_stdout(stdio.StringIO()):
        assert main(CANTOR_E3 + ["--h", str(h)]) == 1
    blocks = [rows for rows in row_blocks(omega.grid.extents)
              if omega.member[rows].any()]
    assert len(blocks) > 1
    lattice = np.stack(np.meshgrid(*(omega.grid.axis_coords(a)
                                     for a in range(2)), indexing="ij"), -1)
    assert [pts.shape[:-1] for pts in calls] == [
        omega.member[rows].shape for rows in blocks]
    assert np.concatenate(calls).tobytes() == np.concatenate(
        [lattice[rows] for rows in blocks]).tobytes()
    assert held == [[(0, 0), (0, 1), (0, 2), (0, 3)]] * len(blocks)


COMB_F = ["space", "norm", "--domain", "comb", "--n-teeth", "4",
          "--function", "example3", "--space", "F", "--order", "1", "--check"]


@pytest.mark.parametrize("argv, domain, space", [
    (COMB_F, domains.Comb(4), "F"),
    (CANTOR_E3, domains.CantorSlit(4), "E"),
], ids=["comb-F", "cantor-E3"])
def test_a_scan_checks_the_region_once_per_row_block(argv, domain, space,
                                                     monkeypatch):
    # the region predicate runs on lattice lines, as the rasterizer's
    # does: a column of the block's abscissae by the whole ordinate axis,
    # never on the gathered points
    h = 2.0**-8
    q, omega = domains.build_domain(domain, h)
    mask = omega if space == "E" else q
    field = get_function(argv[argv.index("--function") + 1], 4)
    region = field.member
    shapes = []

    def counted(*coords):
        shapes.append([np.shape(c) for c in coords])
        return region(*coords)

    monkeypatch.setattr(functions, "get_function", lambda name, depth:
                        dataclasses.replace(field, member=counted))
    with contextlib.redirect_stdout(stdio.StringIO()):
        assert main(argv + ["--h", str(h)]) in (0, 1)
    blocks = [rows for rows in row_blocks(mask.grid.extents)
              if mask.member[rows].any()]
    assert len(blocks) > 1
    cols = mask.grid.extents[1]
    assert shapes == [[(rows.stop - rows.start, 1), (1, cols)]
                      for rows in blocks]


def test_one_pass_norm_holds_a_few_row_blocks():
    # the cantor E order-3 scan at 2^-9 never holds its 10 components over
    # the lattice (84 MB): the leaf's output, its block, the window with its
    # halo and the stencil temporaries are a few block jets of the 4
    # partials that are not 0, beside the masks
    h = 2.0**-9
    q, omega = domains.build_domain(domains.CantorSlit(4), h)
    rows = next(row_blocks(omega.grid.extents))
    block_jet = 4 * omega.member[rows].size * 8
    masks = q.member.nbytes + omega.member.nbytes
    assert 10 * omega.member.size * 8 > 15 * block_jet
    out = stdio.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = main(CANTOR_E3 + ["--h", str(h)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and "membership: violation" in out.getvalue()
    assert peak < 6 * block_jet + masks


def s_leaf(pts, order):
    """The whole order-1 jet of the field s."""
    s = pts[..., 0]
    return {(0, 0): s.copy(), (1, 0): np.ones_like(s),
            (0, 1): np.zeros_like(s)}


@pytest.mark.parametrize("left_out", [(1, 0), (0, 0)])
def test_a_partial_left_out_is_scanned_as_zero(left_out):
    # a leaf that wrongly leaves out a partial of s that is not 0 gets the
    # verdict and the note of the leaf that returns zeros for it: the fd
    # check stays wherever a partial left out meets one that is there
    q, _ = comb_masks(h=2.0**-6)

    def omitting(pts, order):
        jet = s_leaf(pts, order)
        del jet[left_out]
        return jet

    def zeroed(pts, order):
        jet = s_leaf(pts, order)
        jet[left_out] = np.zeros_like(jet[left_out])
        return jet

    omitted, dense = (
        check_membership_f(reduce_blocks(walk(leaf, q, 1), q, 1, True),
                           tol=0.1)
        for leaf in (omitting, zeroed))
    assert omitted.verdict == "violation"
    assert omitted.to_payload() == dense.to_payload()
    assert omitted.certificate.terms[0].note.startswith(
        "finite difference of 0,0 along axis 0")


def test_a_leaf_whose_partials_change_between_blocks_is_refused():
    # the halo carries the partials of the first block, so a leaf that
    # leaves out a partial in some blocks only cannot be scanned
    q, _ = domains.build_domain(domains.Rectangle(), 2.0**-9)

    def fickle(pts, order):
        jet = s_leaf(pts, order)
        if pts[..., 0].max() < 0.5:
            del jet[(0, 1)]
        return jet

    assert len(list(row_blocks(q.grid.extents))) > 2
    for scan in (False, True):
        with pytest.raises(ValueError, match="depend on the order alone"):
            reduce_blocks(walk(fickle, q, 1), q, 1, scan)


# each domain at its coarsest dyadic h = 2^-k that check_resolution takes
RELATION_DOMAINS = [
    (domains.Comb(3), 6),
    (domains.GapIntervals(3), 5),
    (domains.CantorSlit(2), 5),
    (domains.Rectangle(), 3),
    (domains.Disk(), 3),
    (domains.HalfBall(), 3),
]


def reduced_on(field, mask, order, scan):
    """field on mask through the region check, the walk and the reducer."""
    field.check_mask(mask, "mask point")
    return reduce_blocks(walk(field.evaluator, mask, order), mask, order, scan)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(function_names()),
       st.sampled_from(RELATION_DOMAINS), st.integers(0, 1), st.integers(0, 2),
       st.sampled_from([2**6, 2**9, grid.CHUNK_POINTS]))
def test_the_readings_obey_their_exact_relations(name, domain_at, finer,
                                                 order, chunk):
    # The h lattice is the even points of the h/2 one, with the same bits
    # (GridSpec.cover anchors both at the bbox corner), and the open mask
    # lies in Q.  So, with no tolerance: each sup, defect and jump over the
    # open mask is at most Q's (E <= F), and each sup over Q(h) is at most
    # Q(h/2)'s (F(h) <= F(h/2)).  A field enters where Q is in its region.
    # Small chunks split these coarse lattices into many row blocks.
    domain, coarsest = domain_at
    field = get_function(name, depth=2)
    if field.dim != domain.dim:
        reject()
    h = 2.0 ** -(coarsest + finer)
    with mock.patch.object(grid, "CHUNK_POINTS", chunk):
        q, omega = domains.build_domain(domain, h)
        try:
            f = reduced_on(field, q, order, True)
        except PointOutsideRegionError:
            reject()
        e = reduced_on(field, omega, order, True)
        half, _ = domains.build_domain(domain, h / 2)
        f_half = reduced_on(field, half, order, False)
    for alpha, sup in e.sups.items():
        assert sup <= f.sups[alpha]
    for key, (defect, *_) in e.defects.items():
        assert defect <= f.defects[key][0]
    for key, (jump, *_) in e.jumps.items():
        assert jump <= f.jumps[key][0]
    shared = half.member[(slice(None, None, 2),) * q.grid.dim]
    assert np.array_equal(shared & q.member, q.member)
    for alpha, sup in f.sups.items():
        assert sup <= f_half.sups[alpha]


# The three `certificates` scans of perfbench at 2^-10, stdout byte for
# byte: each sha256 was recorded while the scan still rasterized its whole
# mask before the walk.
BENCHMARK_SCANS = {
    "comb_example3_F1": (
        ["--domain", "comb", "--n-teeth", "6", "--function", "example3",
         "--space", "F", "--order", "1"], 0,
        "9630db5830fd730e96db85d01c36b7d33174541735b06efab362beb9bab4df58"),
    "cantor_example1_E1": (
        ["--domain", "cantor_slit", "--depth", "4", "--function", "example1",
         "--space", "E", "--order", "1"], 0,
        "7a0c746404b39d2d6a766c64638123b2024dabc2663b7ebb0b1f3e372659a046"),
    "cantor_example1_E3": (
        ["--domain", "cantor_slit", "--depth", "4", "--function", "example1",
         "--space", "E", "--order", "3"], 1,
        "a6f291330c252296102f95fdd176e897d1d72910fa7ed925bc421db898604853"),
}


@pytest.mark.parametrize("case", sorted(BENCHMARK_SCANS))
def test_the_benchmark_scans_print_their_pinned_bytes(case, capsys):
    args, code, digest = BENCHMARK_SCANS[case]
    assert main(["space", "norm", *args, "--h", str(2.0**-10),
                 "--check"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("case", sorted(BENCHMARK_SCANS))
def test_a_domain_scan_holds_no_array_the_size_of_its_lattice(case):
    # the mask is rasterized one row block at a time as the walk reaches
    # it, so doubling the lattice's side leaves the tracemalloc peak where
    # it was; the peaks rose 4.8 -> 12.9 MB (cantor E1), 7.7 -> 12.9 MB
    # (cantor E3) and 6.2 -> 12.9 MB (comb F) from 2^-9 to 2^-10 while the
    # scan held its whole mask
    args, code, _ = BENCHMARK_SCANS[case]
    peaks = []
    for h in (2.0**-9, 2.0**-10):
        out = stdio.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                assert main(["space", "norm", *args, "--h", str(h),
                             "--check"]) == code
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 0.5e6
