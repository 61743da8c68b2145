"""Reference implementations the tests compare jetlab against.

jetlab itself runs on numpy alone; scipy is a test dependency and serves
here as an independent implementation of the lattice morphology.  The
scalar lookups, the finite-difference stencil and the chart round trip are
the plain per-value versions of what jetlab computes in bulk; chi_many reads
one normalized bump partial off a partition.
"""

import math

import numpy as np
from scipy import ndimage

from jetlab.domains import comb_a, comb_b
from jetlab.glue import _chi_from_raw
from jetlab.grid import multi_indices


def erosion(member: np.ndarray) -> np.ndarray:
    """Cross-structure erosion, off-lattice points absent."""
    cross = ndimage.generate_binary_structure(member.ndim, 1)
    return ndimage.binary_erosion(member, structure=cross, border_value=0)


def box_dilation(member: np.ndarray, iterations: int = 1) -> np.ndarray:
    """The 3^dim box dilation, applied iterations times."""
    box = np.ones((3,) * member.ndim, dtype=bool)
    return ndimage.binary_dilation(member, structure=box,
                                   iterations=iterations)


def connected_component_count(mask) -> int:
    """Number of 2*dim-connected components of a GridMask."""
    cross = ndimage.generate_binary_structure(mask.grid.dim, 1)
    _, n = ndimage.label(mask.member, structure=cross)
    return int(n)


def comb_tooth_index(s: float) -> int | None:
    """Index n with a_n <= s <= b_n, or None."""
    if not 0.0 < s <= 1.0:
        return None
    guess = int(math.floor(-math.log2(s)))
    for n in (guess - 1, guess, guess + 1):
        if n >= 0 and comb_a(n) <= s <= comb_b(n):
            return n
    return None


def gap_segment_index(s: float) -> int | None:
    """Index of the island containing s: 0 for [-1, 0], n >= 1 for the islands."""
    if -1.0 <= s <= 0.0:
        return 0
    if not 0.0 < s <= 1.5 * 0.5:
        return None
    guess = int(math.floor(-math.log2(s)))
    for n in (guess, guess + 1):
        if n >= 1:
            s_n = math.ldexp(1.0, -n)
            if s_n <= s <= 1.5 * s_n:
                return n
    return None


class NoNeighborError(Exception):
    """A finite-difference stencil found no usable neighbor on either side."""


def fd_partial(jet, alpha: tuple[int, ...], axis: int,
               index: tuple[int, ...]) -> float:
    """Finite-difference estimate of the axis-partial of component alpha.

    Central second-order when both axis neighbors are masked, one-sided
    first-order toward the single available neighbor otherwise.
    """
    alpha = tuple(alpha)
    arr = jet.components[alpha]
    member = jet.mask.member
    if not member[index]:
        raise NoNeighborError(f"point {index} is not in the mask")
    lo = list(index)
    hi = list(index)
    lo[axis] -= 1
    hi[axis] += 1
    has_lo = lo[axis] >= 0 and member[tuple(lo)]
    has_hi = hi[axis] < jet.grid.extents[axis] and member[tuple(hi)]
    h = jet.grid.h
    if has_lo and has_hi:
        return float((arr[tuple(hi)] - arr[tuple(lo)]) / (2.0 * h))
    if has_hi:
        return float((arr[tuple(hi)] - arr[index]) / h)
    if has_lo:
        return float((arr[index] - arr[tuple(lo)]) / h)
    raise NoNeighborError(f"no axis-{axis} neighbor of {index} in the mask")


def chart_roundtrip_defect(chart, pts: np.ndarray) -> float:
    """max |phi(phi^-1(p)) - p| over the sample; identity check currency."""
    back = chart.forward(chart.inverse(pts))
    return float(np.max(np.abs(back - pts))) if len(pts) else 0.0


def chi_many(partition, nu: int, pts, alpha) -> np.ndarray:
    """Normalized bump partial; zero wherever the bump sum vanishes."""
    pts = np.asarray(pts, dtype=np.float64)
    alpha = tuple(alpha)
    betas = multi_indices(sum(alpha), 2)
    raw = partition.raw_all(pts, sum(alpha))
    S = {b: sum(r[b] for r in raw) for b in betas}
    return _chi_from_raw(raw[nu], S, alpha)
