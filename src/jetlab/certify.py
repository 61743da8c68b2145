"""Replayable certificates for the counterexample fields.

Each certificate records a difference-quotient sequence toward a boundary
accumulation point together with the interior derivative limit it
contradicts.  Point coordinates are stored as exact rationals so a replay
can reproduce every quotient to 1e-12 even at probes like 3^-n, which are
not representable in binary floating point.

A kind is a field, a witness and a probe sequence (see Kind), defined once
in KINDS.  The builder and the replay take every quotient through the same
_quotient, so a stored term cannot be computed one way and checked another.

The comb and staircase certificates are tolerance-free: their fields are
exact rationals (jetlab.exact), every quotient is the rational 0 and the gap
is exactly 1.  The slit-square certificate is a divergence: quotients grow
like (3/2)^n and cross the configured ceiling.

Nothing here imports numpy.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction

from . import DEFAULT_CEILING, exact, io
from .errors import JetlabError, ReplayMismatchError

GAP_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CertTerm:
    """One row of evidence: a quotient or witness value at exact points."""

    n: int
    base: tuple
    probe: tuple
    quotient: float
    note: str

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(map(Fraction, self.base)))
        object.__setattr__(self, "probe", tuple(map(Fraction, self.probe)))

    def to_payload(self) -> dict:
        payload = {
            "n": self.n,
            "base": [io.fraction_pair(c) for c in self.base],
            "probe": [io.fraction_pair(c) for c in self.probe],
            "quotient": self.quotient,
        }
        if self.note:
            payload["note"] = self.note
        return payload

    @staticmethod
    def from_payload(payload, path: str) -> "CertTerm":
        """The term to_payload wrote at key path path; a value of another
        JSON type raises JetlabError naming its key path."""
        payload = io.json_value(payload, "an object", path)

        def point(key):
            pairs = io.json_value(payload[key], "a list", f"{path}.{key}")
            return tuple(io.pair_fraction(p, f"{path}.{key}[{i}]")
                         for i, p in enumerate(pairs))

        return CertTerm(
            io.json_value(payload["n"], "an int", f"{path}.n"),
            point("base"),
            point("probe"),
            float(io.json_value(payload["quotient"], "a finite number",
                                f"{path}.quotient")),
            io.json_value(payload.get("note", ""), "a string", f"{path}.note"),
        )


def _first_crossing(terms, n_max: int, config: dict) -> int | None:
    """The first n <= n_max with |d_n| above the configured ceiling."""
    ceiling = float(config.get("ceiling", DEFAULT_CEILING))
    return min(
        (t.n for t in terms if t.n <= n_max and abs(t.quotient) > ceiling),
        default=None,
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
    config: dict
    first_exceed_n: int | None = None

    def validate(self) -> bool:
        if self.diverges:
            first = _first_crossing(self.terms, self.n_max, self.config)
            return first is not None and self.first_exceed_n == first
        return self.gap > float(self.config.get("gap_tolerance", GAP_TOLERANCE))

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
        """The certificate to_payload wrote: each value at the JSON type its
        writer writes, or JetlabError naming the key path of the first that
        is not."""
        def value(key, kind):
            return io.json_value(payload[key], kind, key)

        def terms(key):
            return tuple(CertTerm.from_payload(t, f"{key}[{i}]")
                         for i, t in enumerate(value(key, "a list")))

        try:
            first = payload.get("first_exceed_n")
            config = io.json_value(payload.get("config", {}), "an object",
                                   "config")
            for key, v in config.items():
                io.json_value(v, "a finite number", f"config.{key}")
            return Certificate(
                value("domain", "a string"),
                value("claim", "a string"),
                terms("terms"),
                float(value("interior_limit", "a finite number")),
                terms("interior_witness") if "interior_witness" in payload
                else (),
                float(value("gap", "a finite number")),
                value("diverges", "a bool"),
                value("n_max", "an int"),
                dict(config),
                None if first is None
                else value("first_exceed_n", "an int"),
            )
        except KeyError as err:
            raise JetlabError(
                f"certificate artifact lacks the key {err}") from None
        except JetlabError as err:
            raise JetlabError(
                f"certificate artifact is malformed: {err}") from None

    def csv_rows(self) -> list[list]:
        dim = len(self.terms[0].base) if self.terms else 2
        head = ["n", *(f"base_{k}" for k in range(dim)),
                *(f"probe_{k}" for k in range(dim)), "d_n"]
        return [head] + [
            [t.n, *map(float, t.base), *map(float, t.probe), t.quotient]
            for t in self.terms
        ]


@dataclass(frozen=True)
class Kind:
    """What jetlab knows about one certificate kind.

    Quotients of the exact field value(point, config) run from base to
    probe(n), n = 1..n_max.  witness(kind, base, probe, config) is the
    interior derivative at each row (k, base, probe) of witness_points(n_max,
    config) and equals interior_limit.  build is the kind's public builder,
    and n_max must lie in [2, max_n].
    """

    claim: str
    dim: int
    base: tuple
    probe: Callable[[int], tuple]
    value: Callable[[tuple, dict], Fraction | float]
    witness: Callable[..., float]
    witness_points: Callable[[int, dict], Iterable]
    interior_limit: float
    diverges: bool
    build: Callable[..., Certificate]
    note: str
    witness_note: str
    max_n: int


def _quotient(kind: Kind, base, probe, config: dict) -> float:
    """(f(probe) - f(base)) / (probe_0 - base_0), in exact rationals."""
    return float((Fraction(kind.value(probe, config))
                  - Fraction(kind.value(base, config))) / (probe[0] - base[0]))


def _base_block(n_max: int, rest: tuple) -> Iterable:
    """Witness rows at s = -2^-k, k = 1..n_max: the approach on the base."""
    for k in range(1, n_max + 1):
        point = (-Fraction(1, 2**k),) + rest
        yield k, point, point


def _cover_gaps(n_max: int, config: dict) -> list:
    """Witness rows across the middle half of each gap of the level-depth
    cover at t = 1/2, where the staircase factor is locally constant."""
    t_w = Fraction(1, 2)
    rows = []
    for k, (lo, hi) in enumerate(exact.cantor_level(config["depth"]).gaps()):
        mid, delta = (lo + hi) / 2, (hi - lo) / 4
        rows.append((k, (mid - delta, t_w), (mid + delta, t_w)))
    return rows


def _build(domain: str, n_max: int, config: dict) -> Certificate:
    """The certificate of KINDS[domain] under config, with n_max terms."""
    kind = KINDS[domain]
    if not 2 <= n_max <= kind.max_n:
        raise ValueError(f"n_max must lie in [2, {kind.max_n}]")
    rows = [(n, kind.base, kind.probe(n)) for n in range(1, n_max + 1)]
    witness_rows = kind.witness_points(n_max, config)
    terms = [CertTerm(n, base, probe, _quotient(kind, base, probe, config),
                      note=kind.note)
             for n, base, probe in rows]
    witness = tuple(
        CertTerm(k, base, probe, kind.witness(kind, base, probe, config),
                 note=kind.witness_note)
        for k, base, probe in witness_rows
    )
    first = _first_crossing(terms, n_max, config) if kind.diverges else None
    if kind.diverges and first is None:
        raise ValueError(
            f"quotients reach only {abs(terms[-1].quotient):.6g} by "
            f"n = {n_max}; raise n_max or lower the ceiling "
            f"({config['ceiling']:g})"
        )
    return Certificate(
        domain=domain,
        claim=kind.claim,
        terms=tuple(terms),
        interior_limit=kind.interior_limit,
        interior_witness=witness,
        gap=abs(kind.interior_limit - terms[-1].quotient),
        diverges=kind.diverges,
        n_max=n_max,
        config=config,
        first_exceed_n=first,
    )


def certify_comb(n_max: int) -> Certificate:
    """Difference quotients along the tooth tips against the base slope.

    x vanishes at every tooth root (a_n, 1) and at (0, 1), so each quotient
    is exactly 0, while the first partial on the base equals 1 along the
    whole approach s -> 0 from the left.  The gap is exactly 1.
    """
    return _build("comb", n_max, {"gap_tolerance": GAP_TOLERANCE})


def certify_gap1d(n_max: int) -> Certificate:
    """The one-dimensional version: islands sliding toward the origin."""
    return _build("gap1d", n_max, {"gap_tolerance": GAP_TOLERANCE})


def certify_cantor_slit(n_max: int, ceiling: float, depth: int) -> Certificate:
    """Divergent quotients of the continuous closure extension along t = 1.

    d_n = xbar(3^-n, 1) / 3^-n = (3/2)^n / e blows past any ceiling, while
    the first partial vanishes identically inside the domain (witnessed at
    gap midpoints of the level-depth cover, where the staircase factor is
    locally constant).  The config records phi_depth, the ternary digits
    the Cantor function reads (exact.DEFAULT_PHI_DEPTH); a replay reads it
    back from there.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1: the level-0 cover has "
                         "no gap to witness the interior limit in")
    return _build("cantor_slit", n_max, {
        "gap_tolerance": GAP_TOLERANCE, "ceiling": ceiling, "depth": depth,
        "phi_depth": exact.DEFAULT_PHI_DEPTH,
    })


KINDS = {
    "comb": Kind(
        claim="not-in-H",
        dim=2,
        base=(Fraction(0), Fraction(1)),
        probe=lambda n: (Fraction(3, 4) / 2**n, Fraction(1)),
        value=lambda p, config: exact.comb_field(p, (0, 0)),
        witness=lambda kind, base, probe, config: float(
            exact.comb_field(base, (1, 0))),
        witness_points=lambda n_max, config: _base_block(n_max, (Fraction(1),)),
        interior_limit=1.0,
        diverges=False,
        build=certify_comb,
        note="quotient across the gap between teeth",
        witness_note="first partial on the base block",
        # 3/4 * 2^-n is a binary64 number up to n = 1072: csv_rows writes
        # each coordinate as a float
        max_n=1072,
    ),
    "gap1d": Kind(
        claim="not-in-H",
        dim=1,
        base=(Fraction(0),),
        probe=lambda n: (Fraction(1, 2**n),),
        value=lambda p, config: exact.staircase(p[0], (0,)),
        witness=lambda kind, base, probe, config: float(
            exact.staircase(base[0], (1,))),
        witness_points=lambda n_max, config: _base_block(n_max, ()),
        interior_limit=1.0,
        diverges=False,
        build=certify_gap1d,
        note="quotient from the origin to island n",
        witness_note="slope on the base interval",
        # 2^-n is a binary64 number up to n = 1074
        max_n=1074,
    ),
    "cantor_slit": Kind(
        claim="not-in-F-extension",
        dim=2,
        base=(Fraction(0), Fraction(1)),
        probe=lambda n: (Fraction(1, 3**n), Fraction(1)),
        value=lambda p, config: exact.example1_xbar(
            p[0], p[1], phi_depth=int(config.get("phi_depth",
                                                 exact.DEFAULT_PHI_DEPTH))),
        witness=_quotient,
        witness_points=_cover_gaps,
        interior_limit=0.0,
        diverges=True,
        build=certify_cantor_slit,
        note="quotient of the closure extension along the top edge",
        witness_note="first-partial difference quotient inside a cover gap",
        max_n=30,
    ),
}


def certify(domain: str, **kwargs) -> Certificate:
    if domain not in KINDS:
        raise KeyError(
            f"no certificate builder for {domain!r}; choices: {sorted(KINDS)}"
        )
    return KINDS[domain].build(**kwargs)


def _replayable_kind(cert: Certificate) -> Kind:
    """The kind of cert, once its terms (n = 1, 2, ...) and witness rows are
    exactly the kind's points, compared before any coordinate is a float."""
    kind = KINDS.get(cert.domain)
    if kind is None:
        raise JetlabError(f"certificate domain {cert.domain!r} has no replayer")
    if not (cert.terms and cert.interior_witness):
        raise JetlabError(f"{cert.domain} certificate needs at least one term "
                          "and one interior witness")
    for term in cert.terms + cert.interior_witness:
        if not len(term.base) == len(term.probe) == kind.dim:
            raise JetlabError(f"{cert.domain} certificate term {term.n} has "
                              f"a point that is not {kind.dim}-D")
    if max(cert.n_max, len(cert.terms)) > kind.max_n:
        raise JetlabError(f"{cert.domain} certificate runs past n = "
                          f"{kind.max_n}, the kind's largest n_max")
    for n, term in enumerate(cert.terms, 1):
        if term.probe[0] == term.base[0]:
            raise JetlabError(f"quotient probe and base share the first "
                              f"coordinate {term.base[0]}")
        if (term.n, term.base, term.probe) != (n, kind.base, kind.probe(n)):
            raise JetlabError(f"{cert.domain} certificate term {n} is not at "
                              f"the kind's points")
    stored = [(w.n, w.base, w.probe) for w in cert.interior_witness]
    try:
        rows = list(itertools.islice(
            kind.witness_points(cert.n_max, cert.config), len(stored) + 1))
    except (KeyError, TypeError, ValueError) as err:
        raise JetlabError(f"{cert.domain} certificate config gives no witness "
                          f"points: {err!r}") from None
    if stored != rows:
        raise JetlabError(f"{cert.domain} certificate interior witnesses are "
                          f"not the kind's witness rows")
    return kind


def replay_certificate(cert: Certificate, tolerance: float) -> bool:
    """Recompute every term independently; mismatches raise at first index.

    Witnesses must also equal the interior limit, and the gap (or the first
    crossing) must match before validate() decides.  Evidence that does not
    fit the kind raises JetlabError.
    """
    kind = _replayable_kind(cert)
    for idx, term in enumerate(cert.terms):
        fresh = _quotient(kind, term.base, term.probe, cert.config)
        if not abs(fresh - term.quotient) <= tolerance * max(1.0, abs(term.quotient)):
            raise ReplayMismatchError(idx, "quotient", term.quotient, fresh)
    for idx, term in enumerate(cert.interior_witness):
        fresh = kind.witness(kind, term.base, term.probe, cert.config)
        if not abs(fresh - term.quotient) <= tolerance:
            raise ReplayMismatchError(idx, "interior_witness", term.quotient,
                                      fresh)
        if not abs(fresh - cert.interior_limit) <= tolerance:
            raise ReplayMismatchError(idx, "interior_limit",
                                      cert.interior_limit, fresh)
    if cert.diverges:
        field_name, stored = "first_exceed_n", cert.first_exceed_n
        fresh = _first_crossing(cert.terms, cert.n_max, cert.config)
        agree = fresh == stored
    else:
        field_name, stored = "gap", cert.gap
        fresh = abs(cert.interior_limit - cert.terms[-1].quotient)
        agree = abs(fresh - stored) <= tolerance
    if not (agree and cert.validate()):
        raise ReplayMismatchError(-1, field_name, stored, fresh)
    return True
