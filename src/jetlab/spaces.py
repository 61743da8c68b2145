"""Sup-norms of sampled jets, the restriction morphism, quotient-norm upper
bounds, and resolution-qualified membership scans.

Terminology used throughout: F is the norm over the closed mask Q, E the
same computation over the open mask, G the norm of a global window jet, and
H-upper the G-norm of one particular extension, which bounds the
(uncomputable) quotient norm from above.  A membership scan never proves
membership; it reports consistency at the sampled resolution or a concrete
violation carried as a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .certify import CertTerm, Certificate
from .errors import EmptyMaskError, MaskMismatchError, NotAnExtensionError
from .grid import (GridMask, GridSpec, Jet, RowMask, SampledJet, alpha_key,
                   multi_indices)

DEFAULT_C_FACTOR = 10.0


@dataclass(frozen=True)
class NormReport:
    """Per-component sups and their max over one mask."""

    space: str
    order: int
    mask_label: str
    per_alpha: dict
    overall: float
    point_count: int

    def to_payload(self) -> dict:
        return {
            "space": self.space,
            "order": self.order,
            "mask": self.mask_label,
            "overall": self.overall,
            "per_alpha": {
                alpha_key(a): v for a, v in self.per_alpha.items()
            },
            "point_count": self.point_count,
        }


def norm_report(jet: SampledJet | Reduction, space: str,
                mask_label: str) -> NormReport:
    """The jet's sups read as the space's norm: F on Q, E on the open mask,
    G on a window."""
    sups = _reduced(jet, False).sups
    return NormReport(space, jet.order, mask_label, dict(sups),
                      max(sups.values()), jet.mask.count)


def restrict_to_omega(jet: SampledJet, omega: GridMask) -> SampledJet:
    """Same values on the smaller mask; the discrete restriction morphism."""
    if omega.grid != jet.grid:
        raise MaskMismatchError("restriction mask lives on a different lattice")
    if (omega.member & ~jet.mask.member).any():
        raise MaskMismatchError("restriction mask is not a subset of the jet's")
    components = {
        alpha: np.where(omega.member, arr, 0.0)
        for alpha, arr in jet.components.items()
    }
    return SampledJet(jet.order, omega, components)


def h_norm_upper_bound(x: SampledJet, xbar: SampledJet) -> NormReport:
    """G-norm of one extension; an upper bound for the quotient norm.

    Verifies first that xbar actually restricts to x on x's mask (same
    lattice spacing, window translated by whole steps) to within 1e-9.
    """
    tol = 1e-9
    if abs(x.grid.h - xbar.grid.h) > 1e-15:
        raise MaskMismatchError("extension uses a different lattice spacing")
    if x.order > xbar.order:
        raise MaskMismatchError("extension carries fewer components")
    h = x.grid.h
    offset = []
    for a in range(x.grid.dim):
        shift = (x.grid.origin[a] - xbar.grid.origin[a]) / h
        k = round(shift)
        if abs(shift - k) > 1e-9:
            raise MaskMismatchError("extension lattice is not aligned")
        offset.append(int(k))
    idx = np.nonzero(x.mask.member)
    big_idx = tuple(idx[a] + offset[a] for a in range(x.grid.dim))
    for a in range(x.grid.dim):
        if big_idx[a].size and (
            big_idx[a].min() < 0 or big_idx[a].max() >= xbar.grid.extents[a]
        ):
            raise NotAnExtensionError("extension window does not contain Q")
    if not xbar.mask.member[big_idx].all():
        raise NotAnExtensionError("extension mask does not cover Q")
    worst = 0.0
    for alpha in x.alphas():
        diff = np.abs(
            xbar.components[alpha][big_idx] - x.components[alpha][idx]
        )
        if diff.size:
            worst = max(worst, float(diff.max()))
    if worst > tol:
        raise NotAnExtensionError(
            f"restriction to Q differs from x by {worst:.3g} (tolerance {tol:g})"
        )
    return norm_report(xbar, "H-upper", "window")


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of a resolution-h scan; violations carry their evidence."""

    space: str
    verdict: str  # consistent-at-resolution | violation
    h: float
    tolerances: dict
    fd_defect: float
    modulus: dict  # per derivative order
    certificate: Certificate | None

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent-at-resolution"

    def to_payload(self) -> dict:
        payload = {
            "space": self.space,
            "verdict": self.verdict,
            "h": self.h,
            "tolerances": {str(k): v for k, v in self.tolerances.items()},
            "fd_defect": self.fd_defect,
            "modulus": {str(k): v for k, v in self.modulus.items()},
        }
        if self.certificate is not None:
            payload["certificate"] = self.certificate.to_payload()
        return payload


def _stencils(arr: np.ndarray, axis: int, span: int) -> list[np.ndarray]:
    """arr at the span + 1 points, j = 0..span steps along axis, of each
    stencil that arr holds whole."""
    if axis == 0:
        rows = max(0, len(arr) - span)
        return [arr[j:rows + j] for j in range(span + 1)]
    cols = max(0, arr.shape[1] - span)
    return [arr[:, j:cols + j] for j in range(span + 1)]


def _pieces(axis: int, span: int, held: int,
            rows: int) -> list[tuple[int, int]]:
    """The window row ranges whose stencils along axis, span steps long,
    are those ending past the window's first held rows, in row order:
    along axis 0 the seam, where they start in the held rows, then the
    block's own rows; along axis 1 the block's rows."""
    if axis or not held:
        return [(held, held + rows)]
    return [(max(0, held - span), held + min(span, rows)), (held, held + rows)]


def _lower(alpha: tuple[int, ...], axis: int) -> tuple[int, ...]:
    """alpha with one derivative fewer along axis."""
    return tuple(a - (b == axis) for b, a in enumerate(alpha))


def _fold(tables: dict, key, ok: np.ndarray, values: np.ndarray, row: int,
          stencil: tuple = ()) -> None:
    """Keep the largest of values over the ok bases if it beats the table's,
    with its first base in row-major order (row the lattice row of values'
    first) and the stencil arrays' values there.  values is the caller's
    temporary: it is made absolute and zeroed off ok in place."""
    np.abs(values, out=values)
    np.copyto(values, 0.0, where=~ok)
    i = int(values.argmax())
    top = float(values.flat[i])
    if top > tables.get(key, (0.0,))[0]:
        k = np.unravel_index(i, values.shape)
        tables[key] = (top, (int(k[0]) + row,) + tuple(int(v) for v in k[1:]),
                       tuple(float(arr[k]) for arr in stencil))


@dataclass(frozen=True)
class MaskCount:
    """What a walk keeps of the mask it read by row blocks: its lattice and
    its number of points, summed block by block."""

    grid: GridSpec
    count: int


@dataclass(frozen=True)
class Reduction:
    """What one walk of a jet's row blocks keeps: each component's sup and,
    for a scan, the largest finite-difference defect and one-step jump of
    each (alpha, axis), with the first base holding it in row-major order;
    None without the scan."""

    mask: MaskCount
    order: int
    sups: dict
    # (alpha, axis) -> (defect, base, (low[base], low[probe], declared[mid]))
    defects: dict | None
    jumps: dict | None  # (alpha, axis) -> (jump, base, ())


def reduce_blocks(blocks: Iterable[tuple[slice, Jet]], mask: RowMask,
                  order: int, scan: bool) -> Reduction:
    """Fold a jet's (rows, block) pairs, in row order and 0 off the mask,
    into its sups and, if scan, the scan's tables, dropping each block:
    fold's views of a block die when it returns, and the block is dropped
    before the next is asked for, so a walk's next block is evaluated
    with no array of the last one alive but the halo rows' copies.

    The mask is read by row blocks, mask.rows(block) for each block given,
    and its points are counted block by block: blocks holds every row
    block with a masked point, as grid.walk and SampledJet.blocks give
    them.  A block may leave out partials that are 0 on the mask, the same
    ones in every block: they keep sup 0, have no jump, and their
    finite-difference pairs are checked against 0 wherever they meet a
    partial that is there.
    The last 2 rows of each component and of the mask ride along to the
    next block, so each stencil along axis 0 is read once, in the block
    holding its last point: those that start in the carried rows from a
    join of a few rows at the seam, folded first, the others from the
    block itself.
    A block that does not follow on from the last starts afresh: a stencil
    across the skipped rows has a point off the mask.  A component that is
    0 over its whole window, halo rows included, is left out of the folds,
    which keep only a strict > over 0."""
    alphas = multi_indices(order, mask.grid.dim)
    sups = dict.fromkeys(alphas, 0.0)
    defects, jumps = ({}, {}) if scan else (None, None)
    live = None
    halo: Jet = {}
    halo_mask = None
    count, carried, next_row = 0, 0, 0

    def fold(rows: slice, block: Jet) -> None:
        """Fold one block into the tables; its views die on return."""
        nonlocal live, halo, halo_mask, count, carried, next_row
        sub = mask.rows(rows)
        count += int(np.count_nonzero(sub))
        present = [a for a in alphas if a in block]
        if live is None:
            live = present
        elif present != live:
            raise ValueError(
                f"rows {rows.start}:{rows.stop} hold the partials {present} "
                f"but the first block {live}; the partials left out must "
                f"depend on the order alone")
        tops = {}
        for alpha in live:
            tops[alpha] = float(np.abs(block[alpha]).max())
            if not math.isfinite(tops[alpha]):
                raise ValueError(f"component {alpha} is not finite on the mask")
            sups[alpha] = max(sups[alpha], tops[alpha])
        if not scan:
            return
        held = carried if rows.start == next_row else 0
        height = rows.stop - rows.start

        def window(alpha, r0: int, r1: int) -> np.ndarray:
            """Rows r0:r1 of the held halo rows stacked on the block: a
            view of the block, or a join of a few rows at the seam."""
            if r0 >= held:
                return block[alpha][r0 - held:r1 - held]
            return np.concatenate((halo[alpha][r0:], block[alpha][:r1 - held]))

        # the components nonzero somewhere in the window: the others'
        # differences are all 0
        moving = [a for a in live if tops[a] or (held and halo[a].any())]
        start = rows.start - held
        inside = np.concatenate((halo_mask, sub)) if held else sub
        for axis in range(mask.grid.dim):
            for r0, r1 in _pieces(axis, 1, held, height):
                ends = _stencils(inside[r0:r1], axis, 1)
                ok = ends[0] & ends[1]
                for alpha in moving if ok.any() else ():
                    lo, hi = _stencils(window(alpha, r0, r1), axis, 1)
                    _fold(jumps, (alpha, axis), ok, np.subtract(hi, lo),
                          start + r0)
            for r0, r1 in _pieces(axis, 2, held, height):
                ends = _stencils(inside[r0:r1], axis, 2)
                ok = ends[0] & ends[1] & ends[2]
                zero = (np.broadcast_to(0.0, ok.shape),) * 3
                for alpha in alphas if ok.any() else ():
                    lower = _lower(alpha, axis)
                    if not alpha[axis] or (lower not in moving
                                           and alpha not in moving):
                        continue
                    lo, _, hi = (_stencils(window(lower, r0, r1), axis, 2)
                                 if lower in live else zero)
                    mid = (_stencils(window(alpha, r0, r1), axis, 2)
                           if alpha in live else zero)[1]
                    defect = np.subtract(hi, lo)
                    defect /= 2.0 * mask.grid.h
                    defect -= mid
                    _fold(defects, (alpha, axis), ok, defect, start + r0,
                          (lo, hi, mid))
                    del defect  # freed before the next one is made
        last = max(0, held + height - 2)
        halo = {a: np.array(window(a, last, held + height)) for a in live}
        halo_mask = np.array(inside[last:])
        carried, next_row = held + height - last, rows.stop

    for rows, block in blocks:
        fold(rows, block)
        del block  # dropped before the next block is asked for
    if not count:
        raise EmptyMaskError("sup over an empty mask")
    return Reduction(MaskCount(mask.grid, count), order, sups, defects, jumps)


def _reduced(jet: SampledJet | Reduction, scan: bool) -> Reduction:
    """A held jet's blocks folded, or a Reduction as it is."""
    if not isinstance(jet, Reduction):
        return reduce_blocks(jet.blocks(), jet.mask, jet.order, scan)
    if scan and jet.defects is None:
        raise ValueError("a reduction of the sups alone has no scan")
    return jet


def _verdict(r: Reduction, space: str, tol: float,
             tol_by_order: dict | None) -> MembershipVerdict:
    """The tables reduced in (alpha, axis) order with strict >: the defect
    against DEFAULT_C_FACTOR * max(1, sup) * h, each order's modulus against
    its tolerance.  The witness is the first maximum of the defect if that
    is too large, else of the highest order whose modulus is."""
    grid = r.mask.grid
    h = grid.h
    c_bound = DEFAULT_C_FACTOR * max(1.0, max(r.sups.values())) * h
    fd_defect, fd_witness = 0.0, None
    modulus, jump_witness = {}, {}
    for alpha in multi_indices(r.order, grid.dim):
        order = sum(alpha)
        for axis in range(grid.dim):
            defect = r.defects.get((alpha, axis))
            if defect and defect[0] > fd_defect:
                fd_defect, fd_witness = defect[0], (alpha, axis) + defect[1:]
            jump = r.jumps.get((alpha, axis))
            if jump and jump[0] > modulus.get(order, 0.0):
                modulus[order] = jump[0]
                jump_witness[order] = (alpha, axis, jump[1])
    tolerances = {"fd_bound": c_bound, "modulus": tol}
    if tol_by_order:
        tolerances.update({f"modulus_order_{k}": v
                           for k, v in tol_by_order.items()})

    bad_fd = fd_defect > c_bound
    bad_mod = [order for order, value in modulus.items()
               if value > (tol_by_order or {}).get(order, tol)]
    if not bad_fd and not bad_mod:
        return MembershipVerdict(space, "consistent-at-resolution", h,
                                 tolerances, fd_defect, modulus, None)
    if bad_fd:
        alpha, axis, base, (low_base, low_probe, declared) = fd_witness
        lower = _lower(alpha, axis)
        probe = list(base)
        probe[axis] += 2
        quotient = est = (low_probe - low_base) / (2.0 * h)
        gap = abs(est - declared)
        note = (
            f"finite difference of {alpha_key(lower)} along axis {axis} "
            f"is {est:.6g} but component {alpha_key(alpha)} declares "
            f"{declared:.6g}"
        )
    else:
        alpha, axis, base = jump_witness[bad_mod[-1]]
        probe = list(base)
        probe[axis] += 1
        quotient = gap = modulus[bad_mod[-1]]
        note = (
            f"component {alpha_key(alpha)} jumps by {gap:.6g} across "
            f"one lattice step on axis {axis}"
        )
    cert = Certificate(
        domain="lattice-scan",
        claim=f"not-in-{space}-at-resolution",
        terms=(CertTerm(n=0, base=grid.coord(base),
                        probe=grid.coord(tuple(probe)),
                        quotient=quotient, note=note),),
        interior_limit=0.0,
        interior_witness=(),
        gap=gap,
        diverges=False,
        n_max=0,
        config={"h": h, **{str(k): float(v) for k, v in tolerances.items()}},
    )
    return MembershipVerdict(space, "violation", h, tolerances, fd_defect,
                             modulus, cert)


def check_membership_f(jet: SampledJet | Reduction, tol: float,
                       tol_by_order: dict | None = None) -> MembershipVerdict:
    """Scan a jet on a closed mask Q for C^i-consistency at resolution h.

    Declared partials must match central differences of the next component
    down (within DEFAULT_C_FACTOR * max(1, sup) * h), and every component's
    one-step modulus of continuity must stay below the tolerance.  jet may
    be the Reduction of a walk that folded the scan.
    """
    return _verdict(_reduced(jet, True), "F", tol, tol_by_order)


def check_membership_e(jet: SampledJet | Reduction, tol: float,
                       tol_by_order: dict | None = None) -> MembershipVerdict:
    """Same scan over an open mask: the bounded-uniformly-continuous reading.

    Pairs and triples never straddle excluded points, so a field may pass
    here while failing the closed-mask scan; that asymmetry is the point.
    """
    return _verdict(_reduced(jet, True), "E", tol, tol_by_order)
