"""Exact statements without numpy: the Cantor cover and function, and the
fields the certificates evaluate.

A certificate evaluates its field at points such as 3^-n and 3/4 * 2^-n, so
every field here takes Fraction coordinates.  The comb field and the
staircase compute in Fraction and return the exact rational; their tooth
and island lookups are the frexp rules of domains.comb_tooth_index_array
and domains.gap_segment_index_array written for one exact number.  The
vectorized jets of functions read the same comb partials (COMB_PARTIALS),
taylor.exp_neg_recip the same mollifier cutoff, and domains the same
Cantor cover.

This module imports no numpy, so certify and replay start without it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DepthTooLargeError, PointOutsideRegionError

DEFAULT_INTERVAL_CAP = 2**20
DEFAULT_PHI_DEPTH = 60

# Below this t the mollifier exp(-1/t) underflows to zero anyway and the
# inverse powers would overflow, so everything is clamped to exact zero.
MOLL_CUTOFF = 1.0 / 745.0

# the comb field's closed-form partials in the tooth-shifted abscissa sloc,
# for arrays and Fractions alike: every nonzero partial of s t^2, the last
# (1, 2); the others, (2, 0) and every one past (1, 2), vanish
COMB_PARTIALS = {
    (0, 0): lambda sloc, t: sloc * t * t,
    (1, 0): lambda sloc, t: t * t,
    (0, 1): lambda sloc, t: 2 * sloc * t,
    (1, 1): lambda sloc, t: 2 * t,
    (0, 2): lambda sloc, t: 2 * sloc,
    (1, 2): lambda sloc, t: 2,
}

_HALF = Fraction(1, 2)
_THREE_QUARTERS = Fraction(3, 4)


@dataclass(frozen=True)
class CantorApprox:
    """Level-d middle-thirds cover of the Cantor set: 2^d closed intervals."""

    depth: int
    intervals: tuple[tuple[Fraction, Fraction], ...]
    lefts: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lefts", tuple(a for a, _ in self.intervals))

    def contains(self, s) -> bool:
        """Exact membership of s in the union of intervals."""
        q = Fraction(s)
        i = bisect.bisect_right(self.lefts, q) - 1
        if i < 0:
            return False
        a, b = self.intervals[i]
        return a <= q <= b

    def gaps(self) -> list[tuple[Fraction, Fraction]]:
        """Open gaps between consecutive intervals."""
        out = []
        for (_, b), (a2, _) in zip(self.intervals, self.intervals[1:]):
            out.append((b, a2))
        return out


def cantor_level(depth: int, cap: int = DEFAULT_INTERVAL_CAP) -> CantorApprox:
    """Remove open middle thirds depth times, starting from [0, 1]."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth >= cap.bit_length():  # 2^depth > cap, without forming 2^depth
        raise DepthTooLargeError(f"2^{depth} intervals exceeds cap {cap}")
    intervals = [(Fraction(0), Fraction(1))]
    for _ in range(depth):
        refined = []
        for a, b in intervals:
            third = (b - a) / 3
            refined.append((a, a + third))
            refined.append((b - third, b))
        intervals = refined
    return CantorApprox(depth, tuple(intervals))


def cantor_phi(s, depth: int = DEFAULT_PHI_DEPTH) -> float:
    """Cantor-Lebesgue function by the ternary-to-binary digit map.

    Exact once a ternary digit 1 appears or the expansion terminates; after
    depth digits the remainder is truncated, an error of at most 2^-depth.
    Accepts float, int, or Fraction.
    """
    if s <= 0:
        return 0.0
    if s >= 1:
        return 1.0
    # s = num / den; the binary digits so far are those of bits / 2^n
    num, den = Fraction(s).as_integer_ratio()
    bits = n = 0
    while n < depth:
        digit, num = divmod(3 * num, den)
        bits, n = 2 * bits + (digit > 0), n + 1
        if digit == 1 or num == 0:
            break
    return bits / (1 << n)


def example1_xbar(s, t, phi_depth: int) -> float:
    """The continuous closure extension of the slit-square field on Q.

    Exact-rational friendly: s may be a Fraction (needed at s = 3^-n where
    float rounding would disturb the ternary digits).
    """
    if not (-1 <= s <= 1 and -1 <= t <= 1):
        raise PointOutsideRegionError(f"({s}, {t}) is outside the closed square")
    if not (0 < s <= 1 and 0 < t <= 1):
        return 0.0
    t = float(t)
    f = math.exp(-1.0 / t) if t > MOLL_CUTOFF else 0.0
    return cantor_phi(s, phi_depth) * f


def _frexp(s: Fraction) -> tuple[Fraction, int]:
    """(m, e) with s = m * 2^e and 1/2 <= m < 1, for s > 0: math.frexp."""
    e = s.numerator.bit_length() - s.denominator.bit_length() + 1
    if s < Fraction(2) ** (e - 1):
        e -= 1
    return s / Fraction(2) ** e, e


def comb_tooth(s: Fraction) -> int:
    """The tooth n with a_n = (3/4) 2^-n <= s <= b_n = 2^-n, else -1: s is
    b_n exactly when m = 1/2 (n = 1 - e), and lies in [a_n, b_n) exactly
    when m >= 3/4 (n = -e)."""
    if not 0 < s <= 1:
        return -1
    m, e = _frexp(s)
    if m == _HALF:
        return 1 - e
    return -e if m >= _THREE_QUARTERS else -1


def gap_island(s: Fraction) -> int:
    """0 on [-1, 0], n on the island [2^-n, (3/2) 2^-n], else -1: a
    positive s lies on island n = 1 - e exactly when m <= 3/4, n >= 1."""
    if -1 <= s <= 0:
        return 0
    if s < 0:
        return -1
    m, e = _frexp(s)
    return 1 - e if e <= 0 and m <= _THREE_QUARTERS else -1


def comb_field(point, alpha: tuple[int, int]) -> Fraction:
    """The comb field's partial alpha, of any order, at an exact point: chi =
    s t^2 on the base B, its copy (s - a_n) t^2 on tooth n, 0 off the comb."""
    s, t = map(Fraction, point)
    n = comb_tooth(s)
    on_tooth = n >= 0 and 0 < t <= 1
    in_base = abs(s) <= 1 and abs(t) <= 1 and not (s > 0 and t > 0)
    partial = COMB_PARTIALS.get(alpha)
    if not (on_tooth or in_base) or partial is None:
        return Fraction(0)
    sloc = s - _THREE_QUARTERS / 2**n if on_tooth else s
    return Fraction(partial(sloc, t))


def staircase(s, alpha: tuple[int]) -> Fraction:
    """The gap1d staircase's partial alpha at an exact s: s on [-1, 0],
    s - 2^-n on island n, slope 1 on each, 0 off them."""
    s = Fraction(s)
    n = gap_island(s)
    if n < 0 or alpha[0] > 1:
        return Fraction(0)
    if alpha[0] == 1:
        return Fraction(1)
    return s - Fraction(1, 2**n) if n else s
