"""End-to-end acceptance gate.

Each test covers one headline guarantee of the package at its stated
tolerance and prints a single PASS line (or FAIL, before the traceback)
so the gate can be read off a captured run at a glance:

    pytest tests/test_acceptance.py -s

1. reflection weights are exact rationals, cross-checked by Cramer
2. the flat-wall extension reproduces t^j * g(s) to 1e-9 relative
3. one-sided derivatives of the extended exponential meet at the wall
4. the chart/partition pipeline reproduces fields and glues smoothly
5. comb certificate: quotients 0, witness 1, gap 1, F-scan consistent
6. 1-D gap certificate: same exactness, F-scan consistent
7. slit-square certificate: quotients grow as 1.5^n/e, E-scan passes
8. sup-norm algebra holds exactly on random jets
9. the CLI is byte-deterministic and its artifacts round-trip
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from jetlab import domains, io
from jetlab.certify import certify_cantor_slit, certify_comb, certify_gap1d
from jetlab.cli import DEFAULTS, main as cli_main
from jetlab.functions import AnalyticJet, get_function
from jetlab.glue import global_extend, interface_jet_mismatch
from jetlab.grid import GridMask, SampledJet, multi_indices
from jetlab.hestenes import (
    HalfSpaceExtension, interface_mismatch, solve_coefficients,
)
from jetlab.spaces import (
    check_membership_e,
    check_membership_f,
    h_norm_upper_bound,
    norm_report,
    restrict_to_omega,
)

from lattice_oracles import (
    coord_grids, cramer_coefficients, reflection_residual,
)


@contextmanager
def criterion(number, label, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, (
        f"criterion {number} overran its budget: "
        f"{elapsed:.2f}s >= {limit_seconds}s"
    )
    print(f"ACCEPTANCE {number} {label}: PASS ({elapsed:.2f}s)")


def test_01_reflection_weights_exact():
    with criterion(1, "reflection-weights-exact", 1.0):
        for i in range(13):
            c = solve_coefficients(i)
            assert all(isinstance(v, Fraction) for v in c.values)
            for j in range(i + 1):
                assert reflection_residual(c, j) == 0
        assert solve_coefficients(0).values == (Fraction(1),)
        assert solve_coefficients(1).values == (Fraction(-3), Fraction(4))
        assert solve_coefficients(2).values == (
            Fraction(6), Fraction(-32), Fraction(27))
        for i in range(3):
            assert solve_coefficients(i).values == cramer_coefficients(i)


def test_02_monomial_reproduction():
    with criterion(2, "monomial-reproduction", 1.0):
        rng = np.random.default_rng(42)
        pts = np.stack([
            rng.uniform(-1.0, 1.0, 1000),
            rng.uniform(-1.0, 0.0, 1000),
        ], axis=-1)
        g_funcs = {
            "one": lambda s: np.ones_like(s),
            "s": lambda s: s,
            "sin": np.sin,
        }
        for i in range(7):
            for g in g_funcs.values():
                for j in range(i + 1):

                    def source(p, order, _j=j, _g=g):
                        assert order == 0
                        return {(0, 0): p[..., 1] ** _j * _g(p[..., 0])}

                    ext = HalfSpaceExtension(
                        solve_coefficients(i),
                        AnalyticJet("src", 2, source).jet_many, axis=1)
                    got = ext.jet_many(pts, 0)[(0, 0)]
                    want = pts[..., 1] ** j * g(pts[..., 0])
                    scale = np.maximum(1.0, np.abs(want))
                    assert np.max(np.abs(got - want) / scale) < 1e-9


def test_03_interface_smoothness():
    with criterion(3, "interface-smoothness", 1.0):
        ext = HalfSpaceExtension(
            solve_coefficients(2),
            get_function("exp1d", depth=4).jet_many, axis=0)
        tang = np.zeros((1, 0))
        fine = interface_mismatch(ext, tang, h=2.0**-10)
        coarse = interface_mismatch(ext, tang, h=2.0**-9)
        for order in (0, 1, 2):
            assert fine[order] < 1e-4
        ratio = max(coarse.values()) / max(fine.values())
        assert 3.5 <= ratio <= 4.5


def test_04_global_extension_pipeline():
    with criterion(4, "global-extension-pipeline", 30.0):
        rect = global_extend(
            get_function("sum_st", depth=4), domains.Rectangle(), 1,
            h=2.0**-5, margin=0.5)
        s, t = coord_grids(rect.window)
        err = np.abs(rect.jet.components[(0, 0)] - (s + t))
        assert float(err.max()) < 1e-6
        assert rect.sum_residual < 1e-9

        disk = global_extend(
            get_function("sin_cos", depth=4), domains.Disk(), 1,
            h=2.0**-5, margin=0.5)
        mm = interface_jet_mismatch(disk.field, h=2.0**-10)
        assert set(mm) == {(0, 0), (1, 0), (0, 1)}
        assert max(mm.values()) <= 1e-3
        assert disk.sum_residual < 1e-9


def test_05_comb_certificate_and_membership():
    with criterion(5, "comb-certificate", 10.0):
        cert = certify_comb(n_max=20)
        assert cert.claim == "not-in-H"
        assert len(cert.terms) == 20
        # the contradiction: quotients pin the global value to 0 while
        # the interior t-partial stays 1 on every witness
        assert all(term.quotient == 0.0 for term in cert.terms)
        assert all(w.quotient == 1.0 for w in cert.interior_witness)
        assert cert.gap == 1.0
        assert cert.validate()

        q, _ = domains.build_domain(domains.Comb(6), 2.0**-10)
        jet = get_function("example3", depth=4).sample(q, 1)
        assert check_membership_f(jet, DEFAULTS["tol"]).consistent


def test_06_gap1d_certificate_and_membership():
    with criterion(6, "gap1d-certificate", 1.0):
        cert = certify_gap1d(n_max=20)
        assert all(term.quotient == 0.0 for term in cert.terms)
        assert all(w.quotient == 1.0 for w in cert.interior_witness)
        assert cert.gap == 1.0
        assert cert.validate()

        q, _ = domains.build_domain(domains.GapIntervals(8), 2.0**-10)
        jet = get_function("gap1d", depth=4).sample(q, 1)
        assert check_membership_f(jet, DEFAULTS["tol"]).consistent


def test_07_cantor_slit_certificate_and_membership():
    with criterion(7, "cantor-slit-certificate", 10.0):
        cert = certify_cantor_slit(n_max=20, ceiling=1e3, depth=4)
        assert cert.claim == "not-in-F-extension"
        for term in cert.terms:
            want = 1.5 ** term.n / math.e
            assert abs(term.quotient - want) <= 1e-10 * want
        assert cert.terms[-1].quotient == 1223.2935876132797
        assert cert.diverges
        assert cert.first_exceed_n == 20
        assert all(w.quotient == 0.0 for w in cert.interior_witness)
        assert cert.validate()

        # the same field is a consistent member on the open side: every
        # s-partial vanishes and the t-partials obey their moduli
        _, omega = domains.build_domain(domains.CantorSlit(4), 2.0**-9)
        jet = get_function("example1", depth=4).sample(omega, 3)
        for alpha, arr in jet.components.items():
            if alpha[0] >= 1:
                assert float(np.abs(arr).max()) <= 1e-10
        verdict = check_membership_e(
            jet, DEFAULTS["tol"], tol_by_order={1: 0.02, 2: 0.1, 3: 2.0})
        assert verdict.consistent


def test_08_norm_algebra_exact():
    with criterion(8, "norm-algebra-exact", 5.0):
        q, omega = domains.build_domain(domains.Comb(3), 2.0**-6)
        rng = np.random.default_rng(7)
        alphas = multi_indices(1, 2)
        for _ in range(100):
            comps_x = {}
            comps_y = {}
            for alpha in alphas:
                ax = np.zeros(q.grid.extents)
                ay = np.zeros(q.grid.extents)
                ax[q.member] = rng.uniform(-5.0, 5.0, q.count)
                ay[q.member] = rng.uniform(-5.0, 5.0, q.count)
                comps_x[alpha] = ax
                comps_y[alpha] = ay
            x = SampledJet(1, q, comps_x)
            y = SampledJet(1, q, comps_y)
            nx = norm_report(x, "F", "Q").overall
            ny = norm_report(y, "F", "Q").overall

            lam = float(rng.uniform(0.25, 4.0)) * float(rng.choice([-1.0, 1.0]))
            # scaling by any float is exact: rounding is monotone, so the
            # max of the scaled samples is the scaled max
            scaled = SampledJet(1, q, {
                a: lam * arr for a, arr in x.components.items()})
            summed = SampledJet(1, q, {
                a: x.components[a] + y.components[a] for a in alphas})
            assert norm_report(scaled, "F", "Q").overall == abs(lam) * nx
            assert norm_report(summed, "F", "Q").overall <= nx + ny
            omega_x = restrict_to_omega(x, omega)
            assert norm_report(omega_x, "E", "Omega").overall <= nx

            # any window jet agreeing with x on the mask bounds the
            # quotient norm from above
            all_mask = GridMask(q.grid, np.ones(q.grid.extents, dtype=bool))
            comps_bar = {}
            for alpha in alphas:
                arr = rng.uniform(-5.0, 5.0, q.grid.extents)
                arr[q.member] = comps_x[alpha][q.member]
                comps_bar[alpha] = arr
            xbar = SampledJet(1, all_mask, comps_bar)
            assert nx <= h_norm_upper_bound(x, xbar).overall


def _run_everywhere(tmp_path, monkeypatch, argv_lists):
    """Run each argv twice in separate directories; return both file maps."""
    snapshots = []
    for name in ("run1", "run2"):
        cwd = tmp_path / name
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        for argv in argv_lists:
            assert cli_main(argv) == 0, argv
        snapshots.append({
            p.name: p.read_bytes() for p in sorted(cwd.iterdir())
        })
    return snapshots


def test_09_cli_determinism_and_round_trip(tmp_path, monkeypatch, capsys):
    with criterion(9, "cli-determinism", 30.0):
        h6 = io.format_float(2.0**-6)
        commands = [
            ["domain", "build", "--domain", "comb", "--n-teeth", "4",
             "--h", io.format_float(2.0**-7),
             "--out", "comb.json", "--csv", "comb.csv"],
            ["field", "sample", "--function", "sin_cos",
             "--domain", "rectangle", "--order", "1",
             "--h", io.format_float(2.0**-5), "--out", "field.json"],
            ["hestenes", "coeffs", "--order", "4", "--out", "coeffs.json"],
            ["field", "sample", "--function", "exp1d", "--domain", "gap1d",
             "--n-segments", "1", "--order", "2", "--h", h6,
             "--out", "line.json"],
            ["hestenes", "extend", "--in", "line.json", "--order", "2",
             "--width", "8", "--axis", "0", "--boundary", "-1.0",
             "--out", "ext.json"],
            ["extend", "prop2", "--domain", "disk", "--function", "sin_cos",
             "--order", "1", "--h", io.format_float(2.0**-4),
             "--out", "prop2.json"],
            ["space", "norm", "--domain", "comb", "--n-teeth", "4",
             "--function", "example3", "--space", "F",
             "--h", io.format_float(2.0**-8), "--check",
             "--out", "norm.json"],
            ["certify", "comb", "--n-max", "10", "--out", "cert_comb.json",
             "--csv", "cert_comb.csv"],
            ["certify", "gap1d", "--n-max", "10", "--out", "cert_gap.json"],
            ["certify", "cantorslit", "--n-max", "20",
             "--out", "cert_slit.json"],
            ["replay", "--cert", "cert_comb.json"],
        ]
        first, second = _run_everywhere(tmp_path, monkeypatch, commands)
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"

        # every JSON artifact reloads to the value that produced it
        for name, blob in first.items():
            if not name.endswith(".json"):
                continue
            payload = json.loads(io.strip_provenance(blob.decode()))
            assert json.loads(io.dumps(payload)) == payload
        capsys.readouterr()
