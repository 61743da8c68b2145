"""Certificates: exact terms, replay, tamper detection, round-trips."""

import json
import math
from dataclasses import replace
from fractions import Fraction

import pytest

from jetlab import certify as cert_mod
from jetlab import io
from jetlab.certify import (
    Certificate,
    certify_cantor_slit,
    certify_comb,
    certify_gap1d,
    replay_certificate,
)
from jetlab.cli import DEFAULTS
from jetlab.errors import JetlabError, ReplayMismatchError


def test_comb_quotients_exactly_zero():
    cert = certify_comb(n_max=20)
    assert cert.claim == "not-in-H"
    assert len(cert.terms) == 20
    for t in cert.terms:
        assert t.quotient == 0.0
        assert t.probe[0] == Fraction(3, 4) / 2**t.n
        assert t.probe[1] == 1
    for w in cert.interior_witness:
        assert w.quotient == 1.0
    assert cert.gap == 1.0
    assert cert.validate()


def test_gap1d_certificate_exact():
    cert = certify_gap1d(n_max=12)
    assert cert.domain == "gap1d"
    assert all(t.quotient == 0.0 for t in cert.terms)
    assert all(w.quotient == 1.0 for w in cert.interior_witness)
    assert cert.gap == 1.0
    assert cert.validate()
    assert replay_certificate(cert, DEFAULTS["replay_tolerance"])


def test_cantor_slit_quotients_follow_growth_law():
    cert = certify_cantor_slit(n_max=20, ceiling=1e3, depth=4)
    assert cert.claim == "not-in-F-extension"
    assert cert.diverges
    for t in cert.terms:
        want = (1.5 ** t.n) / math.e
        assert abs(t.quotient - want) <= 1e-10 * want
    # (3/2)^n / e first tops 1e3 at n = 20
    assert cert.first_exceed_n == 20
    assert cert.validate()
    # inside the gaps the field is flat in s
    assert all(w.quotient == 0.0 for w in cert.interior_witness)
    assert len(cert.interior_witness) == 2**4 - 1


def test_cantor_slit_unreachable_ceiling_refused():
    with pytest.raises(ValueError):
        certify_cantor_slit(n_max=5, ceiling=1e3, depth=4)


def test_n_max_bounds():
    for builder in (certify_comb, certify_gap1d):
        with pytest.raises(ValueError):
            builder(n_max=1)
    with pytest.raises(ValueError):
        certify_cantor_slit(n_max=31, ceiling=1e3, depth=4)
    with pytest.raises(ValueError):
        certify_cantor_slit(n_max=1, ceiling=1e3, depth=4)


def test_dispatch():
    assert cert_mod.certify("comb", n_max=4).domain == "comb"
    with pytest.raises(KeyError):
        cert_mod.certify("moebius")


@pytest.mark.parametrize("make", [
    lambda: certify_comb(n_max=6),
    lambda: certify_gap1d(n_max=6),
    lambda: certify_cantor_slit(n_max=20, ceiling=1e3, depth=4),
], ids=["comb", "gap1d", "cantor_slit"])
def test_replay_round_trip_through_json(make):
    cert = make()
    assert replay_certificate(cert, DEFAULTS["replay_tolerance"])
    text = io.dumps(cert.to_payload())
    back = Certificate.from_payload(json.loads(text))
    assert back == cert
    assert replay_certificate(back, DEFAULTS["replay_tolerance"])


def test_tampered_quotient_is_caught():
    cert = certify_comb(n_max=6)
    bad_terms = list(cert.terms)
    bad_terms[3] = replace(bad_terms[3], quotient=0.25)
    tampered = replace(cert, terms=tuple(bad_terms))
    with pytest.raises(ReplayMismatchError) as err:
        replay_certificate(tampered, DEFAULTS["replay_tolerance"])
    assert err.value.index == 3
    assert err.value.field == "quotient"
    assert err.value.stored == 0.25
    assert err.value.recomputed == 0.0


def test_tampered_witness_is_caught():
    cert = certify_gap1d(n_max=6)
    bad = list(cert.interior_witness)
    bad[0] = replace(bad[0], quotient=0.0)
    tampered = replace(cert, interior_witness=tuple(bad))
    with pytest.raises(ReplayMismatchError) as err:
        replay_certificate(tampered, DEFAULTS["replay_tolerance"])
    assert err.value.field == "interior_witness"
    assert err.value.index == 0


def test_tampered_gap_is_caught():
    cert = certify_comb(n_max=6)
    tampered = replace(cert, gap=0.5)
    with pytest.raises(ReplayMismatchError) as err:
        replay_certificate(tampered, DEFAULTS["replay_tolerance"])
    assert err.value.field == "gap"


def test_tampered_limit_is_caught():
    # every witness replays to 1.0; the gap alone agrees with the fake limit
    cert = certify_gap1d(n_max=6)
    tampered = replace(cert, interior_limit=0.5, gap=0.5)
    with pytest.raises(ReplayMismatchError) as err:
        replay_certificate(tampered, DEFAULTS["replay_tolerance"])
    assert err.value.field == "interior_limit"
    assert err.value.index == 0
    assert err.value.stored == 0.5
    assert err.value.recomputed == 1.0


def test_nan_quotient_is_caught():
    # nan compares false with every bound, so it must not read as agreement
    cert = certify_comb(n_max=6)
    bad_terms = list(cert.terms)
    bad_terms[2] = replace(bad_terms[2], quotient=math.nan)
    with pytest.raises(ReplayMismatchError) as err:
        replay_certificate(replace(cert, terms=tuple(bad_terms)),
                           DEFAULTS["replay_tolerance"])
    assert err.value.field == "quotient"
    assert err.value.index == 2


@pytest.mark.parametrize("tamper, field", [
    (lambda c: replace(c, config={"gap_tolerance": 2.0}), "gap"),
    (lambda c: replace(c, config={**c.config, "ceiling": 1e9},
                       first_exceed_n=None), "first_exceed_n"),
    (lambda c: replace(c, n_max=19), "first_exceed_n"),
], ids=["gap-under-tolerance", "no-crossing", "crossing-past-n_max"])
def test_replay_refuses_evidence_that_proves_nothing(tamper, field):
    # every term reproduces, but the claim no longer follows from them
    cert = (certify_comb(6) if field == "gap"
            else certify_cantor_slit(20, 1e3, 4))
    with pytest.raises(ReplayMismatchError) as err:
        replay_certificate(tamper(cert), DEFAULTS["replay_tolerance"])
    assert err.value.field == field


def _with_term(cert, index, **change):
    terms = list(cert.terms)
    terms[index] = replace(terms[index], **change)
    return replace(cert, terms=tuple(terms))


def _with_witness(cert, index, **change):
    rows = list(cert.interior_witness)
    rows[index] = replace(rows[index], **change)
    return replace(cert, interior_witness=tuple(rows))


@pytest.mark.parametrize("make, tamper, message", [
    (certify_comb, lambda c: _with_term(c, 0, probe=(5, 1)),
     "comb certificate term 1 is not at the kind's points"),
    (certify_comb, lambda c: _with_term(c, 2, base=(0, Fraction(1, 2))),
     "comb certificate term 3 is not at the kind's points"),
    (certify_gap1d, lambda c: _with_term(c, 1, n=7),
     "gap1d certificate term 2 is not at the kind's points"),
    (certify_gap1d, lambda c: replace(c, terms=c.terms[1:]),
     "gap1d certificate term 1 is not at the kind's points"),
    (certify_gap1d, lambda c: _with_witness(c, 0, base=(Fraction(-1, 4),),
                                            probe=(Fraction(-1, 4),)),
     "interior witnesses are not the kind's witness rows"),
    (certify_comb, lambda c: replace(c, n_max=5),
     "interior witnesses are not the kind's witness rows"),
    (certify_cantor_slit, lambda c: replace(c, config={**c.config, "depth": 3}),
     "interior witnesses are not the kind's witness rows"),
    (certify_cantor_slit,
     lambda c: replace(c, config={k: v for k, v in c.config.items()
                                  if k != "depth"}),
     "config gives no witness points"),
], ids=["probe-moved", "base-moved", "renumbered", "first-term-dropped",
        "witness-moved", "n_max-moved", "depth-moved", "no-depth"])
def test_replay_refuses_points_that_are_not_the_kinds(make, tamper, message):
    # the points are checked before any quotient is recomputed
    cert = make(20, 1e3, 4) if make is certify_cantor_slit else make(6)
    with pytest.raises(JetlabError, match=message):
        replay_certificate(tamper(cert), DEFAULTS["replay_tolerance"])


def test_tampered_first_exceed_is_caught():
    cert = certify_cantor_slit(n_max=20, ceiling=1e3, depth=4)
    tampered = replace(cert, first_exceed_n=19)
    with pytest.raises(ReplayMismatchError) as err:
        replay_certificate(tampered, DEFAULTS["replay_tolerance"])
    assert err.value.field == "first_exceed_n"


def test_probe_points_survive_json_exactly():
    # 3^-20 is not a binary float; the payload must carry it as a rational
    cert = certify_cantor_slit(n_max=20, ceiling=1e3, depth=4)
    payload = cert.to_payload()
    last = payload["terms"][-1]
    assert last["probe"][0] == [1, 3**20]
    back = Certificate.from_payload(payload)
    assert back.terms[-1].probe[0] == Fraction(1, 3**20)


def test_csv_rows_shape():
    cert = certify_gap1d(n_max=5)
    rows = cert.csv_rows()
    assert rows[0] == ["n", "base_0", "probe_0", "d_n"]
    assert len(rows) == 6
    assert rows[1][0] == 1
    assert rows[-1][3] == 0.0


def test_validate_rejects_tiny_gap():
    cert = certify_comb(n_max=6)
    weak = replace(cert, gap=1e-12)
    assert not weak.validate()
