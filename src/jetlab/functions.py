"""Closed-form jets: the Cantor function and the fields whose boundary
behavior the certificates exercise, each at every order through
grid.MAX_ORDER.

Evaluators are vectorized over point arrays of shape (..., dim).  Each leaf
reads its points through grid.coordinate_lines and computes by
broadcasting, so on a block of lattice points the Cantor function, the
tooth lookup, the mollifier and the trig run once per lattice line.  The
slit-square field's one-sided mollifier exp(-1/t) is
taylor.exp_neg_recip on the series of t.  The certificates read the exact
statements of the same fields, at rational points such as 3^-n, from
jetlab.exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import domains, grid, taylor
from .errors import PointOutsideRegionError
from .exact import COMB_PARTIALS, cantor_phi
from .grid import (GridMask, Jet, JetEvaluator, RowMask, SampledJet,
                   coordinate_lines, multi_indices)


def cantor_phi_array(values) -> np.ndarray:
    """Vectorized Cantor function; memoized over the distinct inputs."""
    vals = np.asarray(values, dtype=np.float64)
    uniq, inverse = np.unique(vals, return_inverse=True)
    table = np.array([cantor_phi(v) for v in uniq], dtype=np.float64)
    return table[inverse].reshape(vals.shape)


@dataclass(eq=False)
class AnalyticJet:
    """A field with closed-form partials, optionally tied to a region.

    evaluator(points, order) is the leaf below every jet_many: it consumes an
    (..., dim) array and returns the jet there, the partials with
    |alpha| <= order, computing the work the partials share once per call;
    it computes its formulas only, whatever they give off the region.
    It hands over what it returns: grid.walk zeroes a partial off the mask
    in place when nothing else references it, so an array the leaf keeps
    past its call is shared read-only, as exp1d's value is.
    It may leave out a partial that is identically zero on the region at
    that order, the same ones at every point; jet_many and sample fill
    those with zeros, and the walk of a norm scan skips them.
    A field has no order of its own: a leaf that cannot serve an order
    raises ValueError for it at every point.  member(*coords), when present,
    is the exact region predicate of a domain, called with one broadcastable
    coordinate array per axis, the one statement of the region: check_mask
    tests a mask against it on lattice lines before a walk of the bare leaf
    (sample, space norm and glue.global_extend refuse a mask with a point
    outside it), and jet_many, the reader at any points, is 0 off it.
    """

    name: str
    dim: int
    evaluator: JetEvaluator
    member: Callable[..., np.ndarray] | None = None

    def check_mask(self, mask: RowMask, what: str) -> None:
        """Raise naming the first masked point off the region, in row-major
        order.  member runs once per row block holding a masked point, on
        np.ix_ axes, the block's rows by the whole lattice line, as a
        domain's rasterizer reads them.  The blocks come from
        mask.each_block: a held mask's now, a DomainMask's as each is
        rasterized, so a domain scan checks each block before its walk
        evaluates it."""
        if self.member is None:
            return
        grid = mask.grid
        axes = [grid.axis_coords(a) for a in range(grid.dim)]

        def check(rows: slice, sub: np.ndarray) -> None:
            if not sub.any():
                return
            off = sub & ~self.member(*np.ix_(axes[0][rows], *axes[1:]))
            if off.any():
                k = np.argwhere(off)[0]
                k[0] += rows.start
                bad = grid.coord(tuple(int(v) for v in k))
                raise PointOutsideRegionError(
                    f"{what} {bad} lies outside the region of {self.name}")

        mask.each_block(check)

    def jet_many(self, points, order: int) -> Jet:
        """Every partial with |alpha| <= order at the points' shape, from one
        evaluator call; the ones it leaves out, and every partial off
        member, are zeros."""
        pts = np.asarray(points, dtype=np.float64)
        shape = pts.shape[:-1]
        jet = self.evaluator(pts, order)
        if self.member is not None:
            inside = self.member(*coordinate_lines(pts))
            jet = {a: np.where(inside, arr, 0.0) for a, arr in jet.items()}
        out = {}
        for alpha in multi_indices(order, self.dim):
            arr = np.asarray(jet.get(alpha, 0.0), dtype=np.float64)
            out[alpha] = arr if arr.shape == shape else np.broadcast_to(
                arr, shape)
        return out

    def sample(self, mask: GridMask, order: int) -> SampledJet:
        """Every component on the masked lattice points, by grid.sample,
        once the mask is checked against the region."""
        self.check_mask(mask, "mask point")
        return grid.sample(self.evaluator, mask, order)


def polynomial_jet(name: str,
                   terms: dict[tuple[int, ...], float]) -> AnalyticJet:
    """Jet of a planar polynomial given as {exponent tuple: coefficient}.

    The leaf leaves out every partial past every term's degree."""

    def partial(coords: list[np.ndarray],
                alpha: tuple[int, ...]) -> np.ndarray:
        out = np.float64(0.0)
        for powers, coeff in terms.items():
            if any(a > p for a, p in zip(alpha, powers)):
                continue
            term = np.float64(coeff)
            for a, p in zip(alpha, powers):
                term *= math.perm(p, a)  # the falling factorial p!/(p-a)!
            for x, (a, p) in zip(coords, zip(alpha, powers)):
                if p - a > 0:
                    term = term * x ** (p - a)
            out = out + term  # from +0.0, so a -0.0 term sums to +0.0
        return np.asarray(out)

    def evaluator(pts: np.ndarray, order: int) -> Jet:
        coords = coordinate_lines(pts)
        return {alpha: partial(coords, alpha)
                for alpha in multi_indices(order, 2)
                if any(all(a <= p for a, p in zip(alpha, powers))
                       for powers in terms)}

    return AnalyticJet(name, 2, evaluator)


def chi_jet() -> AnalyticJet:
    """chi(s, t) = s t^2, the comb field's template."""
    return polynomial_jet("chi", {(1, 2): 1.0})


def sum_st_jet() -> AnalyticJet:
    return polynomial_jet("sum_st", {(1, 0): 1.0, (0, 1): 1.0})


def sin_cos_jet() -> AnalyticJet:
    """sin(s) cos(t) with partials of any requested order."""

    def evaluator(pts: np.ndarray, order: int) -> Jet:
        s, t = coordinate_lines(pts)
        sin_s, cos_s = np.sin(s), np.cos(s)
        sin_t, cos_t = np.sin(t), np.cos(t)
        s_cycle = (sin_s, cos_s, -sin_s, -cos_s)
        t_cycle = (cos_t, -sin_t, -cos_t, sin_t)
        return {(a, b): s_cycle[a % 4] * t_cycle[b % 4]
                for a, b in multi_indices(order, 2)}

    return AnalyticJet("sin_cos", 2, evaluator)


def exp1d_jet() -> AnalyticJet:
    """exp(s) on the line; every partial is exp itself."""

    def evaluator(pts: np.ndarray, order: int) -> Jet:
        value = np.exp(coordinate_lines(pts)[0])
        value.setflags(write=False)  # shared by every partial
        return {alpha: value for alpha in multi_indices(order, 1)}

    return AnalyticJet("exp1d", 1, evaluator)


# the regions of the comb and staircase fields: every tooth, every island
_COMB = domains.Comb(None)
_GAPS = domains.GapIntervals(None)


def _example3_eval(pts: np.ndarray, order: int) -> Jet:
    """Comb field: chi(s, t) on the base, its shifted copy on each tooth."""
    s, t = coordinate_lines(pts)
    # the tooth lookup gives the shifted abscissa: s on the base, s - a_n
    # on tooth n, where the comb meets the open positive quadrant
    tooth = domains.comb_tooth_index_array(s)
    shifted = s - np.ldexp(0.75, -tooth.astype(np.int32))
    on_tooth = (tooth >= 0) & ((t > 0.0) & (t <= 1.0))
    sloc = np.where(on_tooth, shifted, s)
    return {alpha: COMB_PARTIALS[alpha](sloc, t)
            for alpha in multi_indices(order, 2) if alpha in COMB_PARTIALS}


def example3_jet() -> AnalyticJet:
    """The comb counterexample field, at every order."""
    return AnalyticJet("example3", 2, _example3_eval, _COMB.q)


def _gap1d_eval(pts: np.ndarray, order: int) -> Jet:
    """Slope 1 on every piece; the leaf leaves out orders 2 and up."""
    s, = coordinate_lines(pts)
    seg = domains.gap_segment_index_array(s)
    n_safe = np.where(seg > 0, seg, 1).astype(np.int32)
    shift = np.where(seg > 0, np.ldexp(1.0, -n_safe), 0.0)
    out = {(0,): s - shift}
    if order >= 1:
        out[(1,)] = np.ones(s.shape)
    return out


def gap1d_jet() -> AnalyticJet:
    """Identity-slope staircase on [-1, 0] and the islands [2^-n, (3/2)2^-n]."""
    return AnalyticJet("gap1d", 1, _gap1d_eval, _GAPS.q)


def _example1_eval(pts: np.ndarray, order: int) -> Jet:
    s, t = coordinate_lines(pts)
    # every s-partial vanishes off the slit columns, so the leaf leaves
    # them out
    block = ((s > 0.0) & (s <= 1.0)) & ((t > 0.0) & (t <= 1.0))
    out = {(0,) + beta: np.zeros(block.shape)
           for beta in multi_indices(order, 1)}
    if block.any():
        # multiplied on the block only: off it the partials stay +0.0,
        # where phi = 0 times a negative derivative would give -0.0; the
        # t-partials are b! times row b of exp(-1/t)'s series in t
        phi = cantor_phi_array(s)
        t_series = taylor.from_jet({(0,): t, (1,): 1.0}, order)
        moll = taylor.exp_neg_recip(t_series, order, 1)
        for (b,), d in taylor.to_jet(moll, order, 1).items():
            np.multiply(phi, d, out=out[(0, b)], where=block)
    return out


def example1_jet(depth: int) -> AnalyticJet:
    """Slit-square field phi(s) exp(-1/t) on the open square minus the slits.

    Defined (with all partials, at every order) on the open set only; the
    slit columns of the level-depth cover are excluded by the membership
    predicate.
    """
    return AnalyticJet("example1", 2, _example1_eval,
                       domains.CantorSlit(depth).open)


# name -> the factory of its jet
_REGISTRY = {
    "example1": example1_jet,
    "example3": example3_jet,
    "gap1d": gap1d_jet,
    "chi": chi_jet,
    "sum_st": sum_st_jet,
    "sin_cos": sin_cos_jet,
    "exp1d": exp1d_jet,
}
# the one field that reads a cover depth: its region is the slit square's
DEPTH_FIELD = "example1"


def get_function(name: str, depth: int | None) -> AnalyticJet:
    """CLI-addressable field lookup; depth goes to DEPTH_FIELD alone."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown function {name!r}; "
                       f"choices: {function_names()}")
    return _REGISTRY[name](depth) if name == DEPTH_FIELD else _REGISTRY[name]()


def function_names() -> list[str]:
    return sorted(_REGISTRY)
