"""Replayable certificates for the counterexample fields.

Each certificate records a difference-quotient sequence toward a boundary
accumulation point together with the interior derivative limit it
contradicts.  Point coordinates are stored as exact rationals so a replay
can reproduce every quotient to 1e-12 even at probes like 3^-n, which are
not representable in binary floating point.

The comb and staircase certificates are tolerance-free: every quotient is
the rational 0 and the gap is exactly 1.  The slit-square certificate is a
divergence: quotients grow like (3/2)^n and cross the configured ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import functions
from .domains import cantor_level
from .errors import JetlabError, ReplayMismatchError

GAP_TOLERANCE = 1e-9
REPLAY_TOLERANCE = 1e-12
DEFAULT_N_MAX = 20
DEFAULT_CEILING = 1e3


def _as_fractions(point) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in point)


def _pair_list(point: tuple[Fraction, ...]) -> list:
    return [[c.numerator, c.denominator] for c in point]


def _point_from_pairs(pairs) -> tuple[Fraction, ...]:
    return tuple(Fraction(int(num), int(den)) for num, den in pairs)


@dataclass(frozen=True)
class CertTerm:
    """One row of evidence: a quotient or witness value at exact points."""

    n: int
    base: tuple
    probe: tuple
    quotient: float
    note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "base", _as_fractions(self.base))
        object.__setattr__(self, "probe", _as_fractions(self.probe))

    def to_payload(self) -> dict:
        payload = {
            "n": self.n,
            "base": _pair_list(self.base),
            "probe": _pair_list(self.probe),
            "quotient": self.quotient,
        }
        if self.note:
            payload["note"] = self.note
        return payload

    @staticmethod
    def from_payload(payload: dict) -> "CertTerm":
        return CertTerm(
            int(payload["n"]),
            _point_from_pairs(payload["base"]),
            _point_from_pairs(payload["probe"]),
            float(payload["quotient"]),
            payload.get("note", ""),
        )


@dataclass(frozen=True)
class Certificate:
    """A separation claim with the finite evidence for it.

    Valid iff gap exceeds the configured tolerance, or the divergence flag
    is set and some |d_n| crosses the ceiling at n <= n_max.
    """

    domain: str
    claim: str
    terms: tuple
    interior_limit: float
    interior_witness: tuple
    gap: float
    diverges: bool
    n_max: int
    config: dict = field(default_factory=dict)
    first_exceed_n: int | None = None

    def validate(self) -> bool:
        tol = float(self.config.get("gap_tolerance", GAP_TOLERANCE))
        if self.diverges:
            ceiling = float(self.config.get("ceiling", DEFAULT_CEILING))
            crossed = [
                t.n for t in self.terms
                if t.n <= self.n_max and abs(t.quotient) > ceiling
            ]
            return bool(crossed) and self.first_exceed_n == min(crossed)
        return self.gap > tol

    def to_payload(self) -> dict:
        return {
            "domain": self.domain,
            "claim": self.claim,
            "n_max": self.n_max,
            "interior_limit": self.interior_limit,
            "gap": self.gap,
            "diverges": self.diverges,
            "first_exceed_n": self.first_exceed_n,
            "terms": [t.to_payload() for t in self.terms],
            "interior_witness": [t.to_payload() for t in self.interior_witness],
            "config": dict(self.config),
        }

    @staticmethod
    def from_payload(payload: dict) -> "Certificate":
        first = payload.get("first_exceed_n")
        try:
            return Certificate(
                payload["domain"],
                payload["claim"],
                tuple(CertTerm.from_payload(t) for t in payload["terms"]),
                float(payload["interior_limit"]),
                tuple(
                    CertTerm.from_payload(t)
                    for t in payload.get("interior_witness", [])
                ),
                float(payload["gap"]),
                bool(payload["diverges"]),
                int(payload["n_max"]),
                dict(payload.get("config", {})),
                None if first is None else int(first),
            )
        except KeyError as err:
            raise JetlabError(
                f"certificate artifact lacks the key {err}") from None

    def csv_rows(self) -> list[list]:
        dim = len(self.terms[0].base) if self.terms else 2
        head = ["n"]
        head += [f"base_{k}" for k in range(dim)]
        head += [f"probe_{k}" for k in range(dim)]
        head += ["d_n"]
        rows = [head]
        for t in self.terms:
            rows.append(
                [t.n]
                + [float(c) for c in t.base]
                + [float(c) for c in t.probe]
                + [t.quotient]
            )
        return rows


def certify_comb(n_max: int = DEFAULT_N_MAX) -> Certificate:
    """Difference quotients along the tooth tips against the base slope.

    x vanishes at every tooth root (a_n, 1) and at (0, 1), so each quotient
    is exactly 0, while the first partial on the base equals 1 along the
    whole approach s -> 0 from the left.  The gap is exactly 1.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    base = (Fraction(0), Fraction(1))
    base_val = functions.example3_value(0.0, 1.0)
    terms = []
    for n in range(1, n_max + 1):
        a_n = Fraction(3, 4) / 2**n
        val = functions.example3_value(float(a_n), 1.0)
        d_n = float((Fraction(val) - Fraction(base_val)) / a_n)
        terms.append(CertTerm(
            n, base, (a_n, Fraction(1)), d_n,
            note="quotient across the gap between teeth",
        ))
    witness = []
    for k in range(1, n_max + 1):
        s = -Fraction(1, 2**k)
        val = functions.example3_value(float(s), 1.0, alpha=(1, 0))
        witness.append(CertTerm(
            k, (s, Fraction(1)), (s, Fraction(1)), val,
            note="first partial on the base block",
        ))
    limit = 1.0
    gap = abs(limit - terms[-1].quotient)
    return Certificate(
        domain="comb",
        claim="not-in-H",
        terms=tuple(terms),
        interior_limit=limit,
        interior_witness=tuple(witness),
        gap=gap,
        diverges=False,
        n_max=n_max,
        config={"gap_tolerance": GAP_TOLERANCE},
    )


def certify_gap1d(n_max: int = DEFAULT_N_MAX) -> Certificate:
    """The one-dimensional version: islands sliding toward the origin."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    base = (Fraction(0),)
    base_val = functions.gap1d_value(0.0)
    terms = []
    for n in range(1, n_max + 1):
        s_n = Fraction(1, 2**n)
        val = functions.gap1d_value(float(s_n))
        d_n = float((Fraction(val) - Fraction(base_val)) / s_n)
        terms.append(CertTerm(
            n, base, (s_n,), d_n,
            note="quotient from the origin to island n",
        ))
    witness = []
    for k in range(1, n_max + 1):
        s = -Fraction(1, 2**k)
        val = functions.gap1d_value(float(s), alpha=(1,))
        witness.append(CertTerm(
            k, (s,), (s,), val, note="slope on the base interval",
        ))
    limit = 1.0
    gap = abs(limit - terms[-1].quotient)
    return Certificate(
        domain="gap1d",
        claim="not-in-H",
        terms=tuple(terms),
        interior_limit=limit,
        interior_witness=tuple(witness),
        gap=gap,
        diverges=False,
        n_max=n_max,
        config={"gap_tolerance": GAP_TOLERANCE},
    )


def certify_cantor_slit(n_max: int = DEFAULT_N_MAX,
                        ceiling: float = DEFAULT_CEILING,
                        depth: int = 4,
                        phi_depth: int = functions.DEFAULT_PHI_DEPTH) -> Certificate:
    """Divergent quotients of the continuous closure extension along t = 1.

    d_n = xbar(3^-n, 1) / 3^-n = (3/2)^n / e blows past any ceiling, while
    the first partial vanishes identically inside the domain (witnessed at
    gap midpoints of the level-depth cover, where the staircase factor is
    locally constant).
    """
    if not 2 <= n_max <= 30:
        raise ValueError("n_max must lie in [2, 30]")
    base = (Fraction(0), Fraction(1))
    base_val = functions.example1_xbar(Fraction(0), Fraction(1),
                                       phi_depth=phi_depth)
    terms = []
    first_exceed = None
    for n in range(1, n_max + 1):
        s = Fraction(1, 3**n)
        val = functions.example1_xbar(s, Fraction(1), phi_depth=phi_depth)
        d_n = float((Fraction(val) - Fraction(base_val)) / s)
        if first_exceed is None and abs(d_n) > ceiling:
            first_exceed = n
        terms.append(CertTerm(
            n, base, (s, Fraction(1)), d_n,
            note="quotient of the closure extension along the top edge",
        ))
    approx = cantor_level(depth)
    witness = []
    for k, (lo, hi) in enumerate(approx.gaps()):
        mid = (lo + hi) / 2
        delta = (hi - lo) / 4
        t_w = Fraction(1, 2)
        left = functions.example1_xbar(mid - delta, t_w, phi_depth=phi_depth)
        right = functions.example1_xbar(mid + delta, t_w, phi_depth=phi_depth)
        fd = float((Fraction(right) - Fraction(left)) / (2 * delta))
        witness.append(CertTerm(
            k, (mid - delta, t_w), (mid + delta, t_w), fd,
            note="first-partial difference quotient inside a cover gap",
        ))
    if first_exceed is None:
        raise ValueError(
            f"quotients reach only {abs(terms[-1].quotient):.6g} by "
            f"n = {n_max}; raise n_max or lower the ceiling ({ceiling:g})"
        )
    gap = abs(0.0 - terms[-1].quotient)
    return Certificate(
        domain="cantor_slit",
        claim="not-in-F-extension",
        terms=tuple(terms),
        interior_limit=0.0,
        interior_witness=tuple(witness),
        gap=gap,
        diverges=True,
        n_max=n_max,
        config={
            "gap_tolerance": GAP_TOLERANCE,
            "ceiling": ceiling,
            "depth": depth,
            "phi_depth": phi_depth,
        },
        first_exceed_n=first_exceed,
    )


_BUILDERS = {
    "comb": certify_comb,
    "gap1d": certify_gap1d,
    "cantor_slit": certify_cantor_slit,
}


def certify(domain: str, **kwargs) -> Certificate:
    if domain not in _BUILDERS:
        raise KeyError(
            f"no certificate builder for {domain!r}; choices: {sorted(_BUILDERS)}"
        )
    return _BUILDERS[domain](**kwargs)


# Package-level alias; the bare name would shadow this module there.
build_certificate = certify


def _replay_value(cert: Certificate, term: CertTerm) -> float:
    if cert.domain == "comb":
        val = functions.example3_value(float(term.probe[0]),
                                       float(term.probe[1]))
        base = functions.example3_value(float(term.base[0]),
                                        float(term.base[1]))
        step = term.probe[0] - term.base[0]
        return float((Fraction(val) - Fraction(base)) / step)
    if cert.domain == "gap1d":
        val = functions.gap1d_value(float(term.probe[0]))
        base = functions.gap1d_value(float(term.base[0]))
        step = term.probe[0] - term.base[0]
        return float((Fraction(val) - Fraction(base)) / step)
    if cert.domain == "cantor_slit":
        phi_depth = int(cert.config.get("phi_depth",
                                        functions.DEFAULT_PHI_DEPTH))
        val = functions.example1_xbar(term.probe[0], term.probe[1],
                                      phi_depth=phi_depth)
        base = functions.example1_xbar(term.base[0], term.base[1],
                                       phi_depth=phi_depth)
        step = term.probe[0] - term.base[0]
        return float((Fraction(val) - Fraction(base)) / step)
    raise ValueError(f"certificate domain {cert.domain!r} has no replayer")


def _replay_witness(cert: Certificate, term: CertTerm) -> float:
    if cert.domain == "comb":
        return functions.example3_value(
            float(term.base[0]), float(term.base[1]), alpha=(1, 0)
        )
    if cert.domain == "gap1d":
        return functions.gap1d_value(float(term.base[0]), alpha=(1,))
    if cert.domain == "cantor_slit":
        phi_depth = int(cert.config.get("phi_depth",
                                        functions.DEFAULT_PHI_DEPTH))
        left = functions.example1_xbar(term.base[0], term.base[1],
                                       phi_depth=phi_depth)
        right = functions.example1_xbar(term.probe[0], term.probe[1],
                                        phi_depth=phi_depth)
        step = term.probe[0] - term.base[0]
        return float((Fraction(right) - Fraction(left)) / step)
    raise ValueError(f"certificate domain {cert.domain!r} has no replayer")


def replay_certificate(cert: Certificate,
                       tolerance: float = REPLAY_TOLERANCE) -> bool:
    """Recompute every term independently; mismatches raise at first index."""
    for idx, term in enumerate(cert.terms):
        fresh = _replay_value(cert, term)
        if abs(fresh - term.quotient) > tolerance * max(1.0, abs(term.quotient)):
            raise ReplayMismatchError(idx, "quotient", term.quotient, fresh)
    for idx, term in enumerate(cert.interior_witness):
        fresh = _replay_witness(cert, term)
        if abs(fresh - term.quotient) > tolerance:
            raise ReplayMismatchError(idx, "interior_witness", term.quotient,
                                      fresh)
    if cert.diverges:
        ceiling = float(cert.config.get("ceiling", DEFAULT_CEILING))
        crossed = [
            t.n for t in cert.terms
            if t.n <= cert.n_max and abs(t.quotient) > ceiling
        ]
        first = min(crossed) if crossed else None
        if first != cert.first_exceed_n or first is None:
            raise ReplayMismatchError(
                -1, "first_exceed_n", cert.first_exceed_n, first
            )
    else:
        gap = abs(cert.interior_limit - cert.terms[-1].quotient)
        if abs(gap - cert.gap) > tolerance:
            raise ReplayMismatchError(-1, "gap", cert.gap, gap)
        tol = float(cert.config.get("gap_tolerance", GAP_TOLERANCE))
        if not gap > tol:
            raise ReplayMismatchError(-1, "gap", cert.gap, gap)
    return True
