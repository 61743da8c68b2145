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

from dataclasses import dataclass

import numpy as np

from .certify import CertTerm, Certificate
from .errors import MaskMismatchError, NotAnExtensionError
from .grid import GridMask, SampledJet, alpha_key, row_blocks

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


def norm_report(jet: SampledJet, space: str, mask_label: str) -> NormReport:
    """The jet's sups read as the space's norm: F on Q, E on the open mask,
    G on a window."""
    per = dict(jet.sups)
    return NormReport(
        space, jet.order, mask_label, per, max(per.values()), jet.mask.count
    )


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
    return SampledJet(jet.order, jet.grid, omega, components)


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


def _stencil(arr: np.ndarray, axis: int, rows: slice, span: int,
             j: int) -> np.ndarray:
    """arr at the bases in rows of the stencils spanning span steps along
    axis, shifted j steps along it.

    A base is a lattice point k whose k + span * e_axis is still on the
    lattice; rows selects whole axis-0 rows of bases.
    """
    if axis == 0:
        return arr[rows.start + j:rows.stop + j]
    return arr[rows, j:arr.shape[1] - span + j]


def _stencil_bases(member: np.ndarray, axis: int, span: int) -> np.ndarray:
    """Over the bases along axis: all span + 1 stencil points are masked."""
    rows = slice(0, member.shape[0] - (span if axis == 0 else 0))
    out = _stencil(member, axis, rows, span, 0).copy()
    for j in range(1, span + 1):
        out &= _stencil(member, axis, rows, span, j)
    return out


def _block_max(bases: np.ndarray, values, floor: float):
    """The largest values(rows) over the True bases if it exceeds floor, and
    the base of its first occurrence in row-major order; else (floor, None).

    values(rows) gives the values at one block of rows of bases, so the walk
    holds one block's temporaries at a time.
    """
    worst, base = floor, None
    for rows in row_blocks(bases.shape):
        ok = bases[rows]
        if not ok.any():
            continue
        block = np.where(ok, values(rows), 0.0)
        top = float(block.max())
        if top > worst:
            i = np.unravel_index(int(block.argmax()), block.shape)
            worst = top
            base = (int(i[0]) + rows.start,) + tuple(int(v) for v in i[1:])
    return worst, base


def _scan(jet: SampledJet, space: str, tol: float,
          tol_by_order: dict | None) -> MembershipVerdict:
    h = jet.grid.h
    dim = jet.grid.dim
    member = jet.mask.member
    sup_all = max(jet.sups.values())
    c_bound = DEFAULT_C_FACTOR * max(1.0, sup_all) * h
    triples = {a: _stencil_bases(member, a, 2)
               for a in range(dim) if member.shape[a] > 2}
    pairs = {a: _stencil_bases(member, a, 1)
             for a in range(dim) if member.shape[a] > 1}

    fd_defect = 0.0
    fd_witness = None
    for alpha in jet.alphas():
        for axis, triple in triples.items():
            if alpha[axis] == 0:
                continue
            lower = list(alpha)
            lower[axis] -= 1
            lower = tuple(lower)
            low = jet.components[lower]
            declared = jet.components[alpha]
            fd_defect, base = _block_max(triple, lambda rows: np.abs(
                (_stencil(low, axis, rows, 2, 2)
                 - _stencil(low, axis, rows, 2, 0)) / (2.0 * h)
                - _stencil(declared, axis, rows, 2, 1)), fd_defect)
            if base is not None:
                fd_witness = (alpha, lower, axis, base)

    modulus: dict[int, float] = {}
    mod_witness = None
    for alpha in jet.alphas():
        order = sum(alpha)
        arr = jet.components[alpha]
        for axis, pair in pairs.items():
            worst, base = _block_max(pair, lambda rows: np.abs(
                _stencil(arr, axis, rows, 1, 1)
                - _stencil(arr, axis, rows, 1, 0)), modulus.get(order, 0.0))
            if base is not None:
                modulus[order] = worst
                mod_witness = (alpha, axis, base, worst)
    tolerances = {"fd_bound": c_bound, "modulus": tol}
    if tol_by_order:
        tolerances.update({f"modulus_order_{k}": v
                           for k, v in tol_by_order.items()})

    bad_fd = fd_defect > c_bound
    bad_mod = any(value > (tol_by_order or {}).get(order, tol)
                  for order, value in modulus.items())
    if not bad_fd and not bad_mod:
        return MembershipVerdict(
            space, "consistent-at-resolution", h, tolerances,
            fd_defect, modulus, None,
        )
    if bad_fd:
        alpha, lower, axis, base = fd_witness
        mid = list(base)
        mid[axis] += 1
        probe = list(base)
        probe[axis] += 2
        low = jet.components[lower]
        est = float((low[tuple(probe)] - low[base]) / (2.0 * h))
        declared = float(jet.components[alpha][tuple(mid)])
        quotient = est
        gap = abs(est - declared)
        note = (
            f"finite difference of {alpha_key(lower)} along axis {axis} "
            f"is {est:.6g} but component {alpha_key(alpha)} declares "
            f"{declared:.6g}"
        )
    else:
        alpha, axis, base, gap = mod_witness
        probe = list(base)
        probe[axis] += 1
        quotient = gap
        note = (
            f"component {alpha_key(alpha)} jumps by {gap:.6g} across "
            f"one lattice step on axis {axis}"
        )
    cert = Certificate(
        domain="lattice-scan",
        claim=f"not-in-{space}-at-resolution",
        terms=(CertTerm(n=0, base=jet.grid.coord(base),
                        probe=jet.grid.coord(tuple(probe)),
                        quotient=quotient, note=note),),
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


def check_membership_f(jet: SampledJet, tol: float,
                       tol_by_order: dict | None = None) -> MembershipVerdict:
    """Scan a jet on a closed mask Q for C^i-consistency at resolution h.

    Declared partials must match central differences of the next component
    down (within DEFAULT_C_FACTOR * max(1, sup) * h), and every component's
    one-step modulus of continuity must stay below the tolerance.
    """
    return _scan(jet, "F", tol, tol_by_order)


def check_membership_e(jet: SampledJet, tol: float,
                       tol_by_order: dict | None = None) -> MembershipVerdict:
    """Same scan over an open mask: the bounded-uniformly-continuous reading.

    Pairs and triples never straddle excluded points, so a field may pass
    here while failing the closed-mask scan; that asymmetry is the point.
    """
    return _scan(jet, "E", tol, tol_by_order)
