"""Command-line behavior: artifacts, exit codes, determinism."""

import argparse
import binascii
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import jetlab
from jetlab import cli, domains, functions, io
from jetlab.certify import KINDS, CertTerm, Certificate, replay_certificate
from jetlab.cli import DEFAULTS, build_parser, main
from jetlab.errors import PointOutsideRegionError
from jetlab.grid import GridMask, GridSpec, SampledJet, row_blocks

from lattice_oracles import coord_grids, scatter_sample


def run(argv):
    return main(argv)


def test_domain_build_artifact(tmp_path, capsys):
    out = tmp_path / "comb.json"
    code = run([
        "domain", "build", "--domain", "comb", "--n-teeth", "4",
        "--h", str(2.0**-7), "--out", str(out),
    ])
    assert code == 0
    payload = io.read_artifact(str(out))
    assert payload["kind"] == "comb"
    assert payload["q_count"] > payload["open_count"] > 0
    mask = io.mask_from_payload(payload["q"])
    assert mask.count == payload["q_count"]
    assert "wrote" in capsys.readouterr().out


def test_domain_build_rejects_coarse_h(tmp_path, capsys):
    out = tmp_path / "x.json"
    code = run([
        "domain", "build", "--domain", "comb", "--n-teeth", "8",
        "--h", "0.25", "--out", str(out),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_field_sample_round_trip(tmp_path):
    out = tmp_path / "field.json"
    code = run([
        "field", "sample", "--function", "sin_cos", "--domain", "rectangle",
        "--order", "1", "--h", str(2.0**-5), "--out", str(out),
    ])
    assert code == 0
    jet = io.jet_from_payload(io.read_artifact(str(out))["jet"])
    assert jet.order == 1
    s, t = coord_grids(jet.grid)
    assert np.allclose(jet.components[(0, 0)], np.sin(s) * np.cos(t))


def test_hestenes_coeffs_prints_exact_values(tmp_path, capsys):
    code = run(["hestenes", "coeffs", "--order", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "rational: 6 -32 27" in out
    assert "abs_sum:  65.0" in out


def test_hestenes_extend_pipeline(tmp_path):
    field = tmp_path / "f.json"
    ext = tmp_path / "ext.json"
    assert run([
        "field", "sample", "--function", "exp1d", "--domain", "gap1d",
        "--n-segments", "1", "--order", "2", "--h", str(2.0**-6),
        "--out", str(field),
    ]) == 0
    # that jet lives on [-1, 1]; the wall for the extension sits at -1
    assert run([
        "hestenes", "extend", "--in", str(field), "--order", "2",
        "--width", "8", "--axis", "0", "--boundary", "-1.0",
        "--out", str(ext),
    ]) == 0
    payload = io.read_artifact(str(ext))
    assert payload["width"] == 8
    big = io.jet_from_payload(payload["jet"])
    assert big.grid.origin[0] == -1.0 - 8 * 2.0**-6
    assert payload["probe_offset_max"] <= 2.0**-7


def test_extend_prop2_disk(tmp_path):
    out = tmp_path / "disk.json"
    code = run([
        "extend", "prop2", "--domain", "disk", "--function", "sin_cos",
        "--order", "1", "--h", str(2.0**-4), "--out", str(out),
    ])
    assert code == 0
    payload = io.read_artifact(str(out))
    meta = payload["metadata"]
    assert len(meta["charts"]) == 4
    assert meta["sum_residual"] < 1e-9
    # the square window's corners sit beyond every bump; they are reported,
    # not silently extrapolated
    assert meta["uncovered_points"] > 0
    assert max(meta["interface_mismatch"].values()) < 1e-3


def test_space_norm_stdout_and_check(tmp_path, capsys):
    # h must be fine enough that the value modulus 2h stays under the 0.01
    # default tolerance
    code = run([
        "space", "norm", "--domain", "comb", "--n-teeth", "4",
        "--function", "example3", "--space", "F", "--h", str(2.0**-8),
        "--check",
    ])
    assert code == 0
    out = capsys.readouterr().out
    line = out.splitlines()[0]
    doc = json.loads(line)
    assert doc["norm"]["space"] == "F"
    assert doc["membership"]["verdict"] == "consistent-at-resolution"
    assert "overall F-norm" in out


def test_space_norm_check_fails_on_discontinuous_artifact(tmp_path, capsys):
    g = GridSpec.cover((0.0,), (1.0,), 2.0**-5)
    mask = GridMask(g, np.ones(g.extents, dtype=bool))
    xs = g.axis_coords(0)
    jet = SampledJet(0, mask, {(0,): np.where(xs < 0.5, 0.0, 1.0)})
    path = tmp_path / "bad.json"
    io.write_artifact(str(path), {"jet": io.jet_to_payload(jet)}, {})
    code = run(["space", "norm", "--field", str(path), "--check"])
    assert code == 1
    assert "violation" in capsys.readouterr().out


@pytest.mark.parametrize("field,space,code", [
    (["--function", "example3", "--domain", "comb", "--n-teeth", "3",
      "--order", "1", "--h", str(2.0**-6)], "F", 1),
    (["--function", "example1", "--domain", "cantor_slit", "--depth", "4",
      "--order", "1", "--h", str(2.0**-8)], "E", 0),
], ids=["comb-F-violation", "cantor-E-consistent"])
def test_space_norm_reads_the_same_from_field_and_domain(field, space, code,
                                                         tmp_path, capsys):
    # the walk of the leaf and the read of its sampled artifact give the
    # same norm and membership bytes; only the source differs
    path = tmp_path / "field.json"
    assert run(["field", "sample", *field, "--mask",
                "open" if space == "E" else "q", "--out", str(path)]) == 0
    capsys.readouterr()
    reports = []
    for source in (field, ["--field", str(path)]):
        assert run(["space", "norm", *source, "--space", space,
                    "--check"]) == code
        line = capsys.readouterr().out.splitlines()[0]
        reports.append(line[line.index(',"norm":'):])
    assert reports[0] == reports[1]
    assert '"membership":' in reports[0]


def test_space_norm_g_check_is_a_usage_error(tmp_path, capsys):
    # G printed the F report under another label; it is no choice of --space
    g = GridSpec.cover((0.0,), (1.0,), 2.0**-5)
    mask = GridMask(g, np.ones(g.extents, dtype=bool))
    jet = SampledJet(0, mask, {(0,): g.axis_coords(0)})
    path = tmp_path / "field.json"
    io.write_artifact(str(path), {"jet": io.jet_to_payload(jet)}, {})
    out = tmp_path / "norm.json"
    for flags in (["--check", "--out", str(out)], []):
        with pytest.raises(SystemExit) as exc:
            run(["space", "norm", "--field", str(path), "--space", "G",
                 *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "invalid choice: 'G'" in captured.err
        assert captured.out == ""
    assert not out.exists()


def test_space_norm_requires_a_source(capsys):
    assert run(["space", "norm", "--space", "F"]) == 2


def test_certify_and_replay_comb(tmp_path, capsys):
    cert_path = tmp_path / "comb_cert.json"
    csv_path = tmp_path / "comb_cert.csv"
    assert run([
        "certify", "comb", "--n-max", "10",
        "--out", str(cert_path), "--csv", str(csv_path),
    ]) == 0
    cert = Certificate.from_payload(io.read_artifact(str(cert_path)))
    assert replay_certificate(cert, DEFAULTS["replay_tolerance"])
    assert len(csv_path.read_text().splitlines()) == 11
    assert run(["replay", "--cert", str(cert_path)]) == 0
    out = capsys.readouterr().out
    assert "all 10 terms reproduce" in out


def test_certify_cantorslit_reports_divergence(tmp_path, capsys):
    cert_path = tmp_path / "cs.json"
    assert run(["certify", "cantorslit", "--out", str(cert_path)]) == 0
    assert "first |d_n| > 1000 at n = 20" in capsys.readouterr().out
    payload = io.read_artifact(str(cert_path))
    assert payload["domain"] == "cantor_slit"
    assert payload["first_exceed_n"] == 20


def test_certify_unreachable_ceiling_exits_2(tmp_path, capsys):
    code = run([
        "certify", "cantorslit", "--n-max", "5", "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_replay_rejects_tampered_file(tmp_path, capsys):
    cert_path = tmp_path / "gap.json"
    assert run(["certify", "gap1d", "--out", str(cert_path)]) == 0
    doc = json.loads(cert_path.read_text())
    doc["terms"][2]["quotient"] = 0.125
    cert_path.write_text(io.dumps(doc))
    assert run(["replay", "--cert", str(cert_path)]) == 1
    assert "replay failed" in capsys.readouterr().err


@pytest.mark.parametrize("kind, last", [("comb", 1072), ("gap1d", 1074)])
def test_certify_and_replay_refuse_a_point_that_float_rounds(kind, last,
                                                             tmp_path, capsys):
    # the fields are exact rationals, but the CSV writes each coordinate as
    # a float: the comb probe 3/4 * 2^-n and the gap1d probe 2^-n are
    # binary64 numbers up to n = last, the kind's largest n_max, and one
    # term further is refused before any row is built
    good = tmp_path / "good.json"
    csv = tmp_path / "good.csv"
    assert run(["certify", kind, "--n-max", str(last), "--out", str(good),
                "--csv", str(csv)]) == 0
    assert run(["replay", "--cert", str(good)]) == 0
    capsys.readouterr()
    head, *rows = [line.split(",") for line in csv.read_text().splitlines()]
    column = head.index("probe_0")
    spec = KINDS[kind]
    assert [Fraction(float(row[column])) for row in rows] == [
        spec.probe(n)[0] for n in range(1, last + 1)]
    n = last + 1
    bad = tmp_path / "bad.json"
    assert run(["certify", kind, "--n-max", str(n), "--out", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: n_max must lie in [2, {last}]\n"
    assert not bad.exists()
    # the same certificate written by hand is refused on replay
    doc = json.loads(good.read_text())
    doc["terms"].append(CertTerm(n, spec.base, spec.probe(n), 0.0,
                                 spec.note).to_payload())
    *_, (k, base, probe) = spec.witness_points(n, {})
    doc["interior_witness"].append(
        CertTerm(k, base, probe, 1.0, spec.witness_note).to_payload())
    doc["n_max"] = n
    bad.write_text(io.dumps(doc))
    assert run(["replay", "--cert", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: {kind} certificate runs past n = {last}, the kind's "
        f"largest n_max\n")


def test_artifacts_identical_across_directories(tmp_path, monkeypatch):
    # same command string, different working directories: identical bytes
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    d1.mkdir()
    d2.mkdir()
    argv = ["certify", "comb", "--n-max", "8", "--out", "cert.json"]
    monkeypatch.chdir(d1)
    assert run(argv) == 0
    monkeypatch.chdir(d2)
    assert run(argv) == 0
    assert (d1 / "cert.json").read_bytes() == (d2 / "cert.json").read_bytes()


def test_provenance_differs_but_payload_matches(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["certify", "gap1d", "--n-max", "6", "--out", str(a)]) == 0
    assert run(["certify", "gap1d", "--n-max", "6", "--out", str(b)]) == 0
    ta, tb = a.read_text(), b.read_text()
    assert ta != tb  # --out path rides in the provenance block
    assert io.strip_provenance(ta) == io.strip_provenance(tb)


def test_defaults_are_pinned():
    # provenance records DEFAULTS and perfbench/README.md names its keys
    expected = {
        "h": 2.0**-10, "h_prop2": 2.0**-5, "order": 1, "n_max": 20,
        "tol": 1e-2, "margin": 0.5, "ceiling": 1e3, "depth": 4,
        "n_teeth": 6, "n_segments": 8, "replay_tolerance": 1e-12,
    }
    assert list(DEFAULTS.items()) == list(expected.items())
    assert [type(v) for v in DEFAULTS.values()] == [
        type(v) for v in expected.values()]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["domain", "build", "--domain", "klein"])
    assert exc.value.code == 2


def test_thread_env_is_ignored(tmp_path, monkeypatch):
    # extend prop2 is single-threaded; no command reads the variable
    monkeypatch.setenv("JETLAB_THREADS", "two")
    assert run(["certify", "gap1d", "--out", str(tmp_path / "g.json")]) == 0
    assert run(["extend", "prop2", "--domain", "disk", "--function", "sin_cos",
                "--out", str(tmp_path / "p.json")]) == 0


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(jetlab.__file__))
    code = ("import jetlab.cli, sys; assert not any("
            "m.split('.')[0] == 'scipy' for m in sys.modules); "
            "assert 'concurrent.futures' not in sys.modules; "
            "assert 'base64' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# the command line in a child; after it, whether numpy is loaded, the
# threads the process holds and its OPENBLAS_NUM_THREADS
_CHILD = """
import os, sys
sys.modules.pop("tempfile", None)
from jetlab.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
tasks = (len(os.listdir("/proc/self/task"))
         if os.path.isdir("/proc/self/task") else -1)
print("numpy" in sys.modules, tasks, os.environ.get("OPENBLAS_NUM_THREADS"),
      "tempfile" in sys.modules)
sys.exit(code)
"""


def _child(argv, cwd, **env):
    """(numpy loaded, thread count, OPENBLAS_NUM_THREADS, tempfile loaded)
    after the command argv, run in a child whose environment sets only env
    of that variable.  A site hook may import tempfile before the child's
    code runs; the child drops it first, so only an import by jetlab shows."""
    src = os.path.dirname(os.path.dirname(jetlab.__file__))
    base = {k: v for k, v in os.environ.items()
            if k != "OPENBLAS_NUM_THREADS"}
    done = subprocess.run([sys.executable, "-c", _CHILD, *argv],
                          env=dict(base, PYTHONPATH=src, **env), cwd=cwd,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    numpy, tasks, blas, temp = done.stdout.splitlines()[-1].split()
    return numpy == "True", int(tasks), blas, temp == "True"


def test_help_starts_without_numpy(tmp_path):
    assert not _child(["--help"], tmp_path)[0]


def test_help_imports_only_what_it_runs(tmp_path):
    # the parser needs none of the commands' modules
    code = ("import sys\n"
            "sys.modules.pop('tempfile', None)  # a site hook's import\n"
            "from jetlab.cli import main\n"
            "try:\n"
            "    main(['--help'])\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(*sorted(m for m in ('jetlab.certify', 'jetlab.io', "
            "'fractions', 'json', 'csv', 'tempfile') if m in sys.modules))\n")
    src = os.path.dirname(os.path.dirname(jetlab.__file__))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == ""


@pytest.mark.parametrize("kind", ["comb", "gap1d", "cantorslit"])
def test_certify_and_replay_start_without_numpy(kind, tmp_path):
    numpy, _, _, temp = _child(["certify", kind, "--out", "c.json",
                                "--csv", "c.csv"], tmp_path)
    assert not numpy and not temp
    numpy, _, _, temp = _child(["replay", "--cert", "c.json"], tmp_path)
    assert not numpy and not temp


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="no /proc/self/task to count threads in")
def test_an_array_command_runs_one_blas_thread(tmp_path):
    argv = ["domain", "build", "--domain", "disk", "--h", "0.25",
            "--out", "d.json"]
    assert _child(argv, tmp_path)[:3] == (True, 1, "1")
    # a value the caller set is left as given
    assert _child(argv, tmp_path, OPENBLAS_NUM_THREADS="2")[2] == "2"


def test_perfbench_tracer_finds_every_name_it_wraps(tmp_path):
    # perfbench/traced_cli.py wraps src/ names looked up by getattr at start,
    # so a renamed or deleted one fails this before it fails a benchmark run
    src = os.path.dirname(os.path.dirname(jetlab.__file__))
    script = os.path.join(os.path.dirname(src), "perfbench", "traced_cli.py")
    env = dict(os.environ, PYTHONPATH=src)
    trace = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, script, str(trace), "coeffs", "hestenes", "coeffs",
         "--order", "2"],
        env=env, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    spans = json.loads(trace.read_text())["spans"]
    assert spans[0][0] == "cli.main"
    # the after-hook of global_extend reads fields of its result
    done = subprocess.run(
        [sys.executable, script, str(trace), "prop2", "extend", "prop2",
         "--function", "sin_cos", "--domain", "disk", "--order", "2",
         "--h", "0.0625", "--out", str(tmp_path / "prop2.json")],
        env=env, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    counters = json.loads(trace.read_text())["counters"]
    assert counters["glue.window_points"] == 2401
    assert counters["glue.exterior_points"] == 1604
    assert counters["glue.uncovered_points"] == 820
    # the after-hook of build_domain counts the lattice of the one mask a
    # domain scan asks for, and the scan's after-hook the points of the mask
    # the walk streamed, summed block by block; the cantor E scan fails its
    # check at 2^-5
    done = subprocess.run(
        [sys.executable, script, str(trace), "norm", "space", "norm",
         "--domain", "cantor_slit", "--depth", "2", "--function", "example1",
         "--space", "E", "--order", "1", "--h", "0.03125", "--check"],
        env=env, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 1, done.stderr
    traced = json.loads(trace.read_text())
    assert "domains.build" in [span[0] for span in traced["spans"]]
    assert traced["counters"]["domains.lattice_points"] == 4225
    assert traced["counters"]["spaces.scan_points"] == 3553


def test_a_domain_scan_rasterizes_only_the_mask_it_reads(capsys):
    # tracemalloc peaks of this scan were 16.9 MB while build_domain
    # rasterized Q beside the open set the scan reads, and 12.8 MB with the
    # open set alone; the bound is 0.85 x 16.32 MB, the first peak measured
    # with only the scan's own modules loaded
    argv = ["space", "norm", "--domain", "cantor_slit", "--depth", "4",
            "--function", "example1", "--space", "E", "--order", "1",
            "--h", str(2.0**-10), "--check"]
    tracemalloc.start()
    try:
        code = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "membership: consistent" in capsys.readouterr().out
    assert peak < 0.85 * 16.32e6


@pytest.mark.parametrize("args", [
    ["--domain", "disk", "--function", "example3"],
    ["--domain", "half_ball", "--function", "example1"],
    ["--domain", "rectangle", "--function", "example1", "--order", "2"],
], ids=["disk-example3", "half_ball-example1", "rectangle-example1"])
def test_prop2_refuses_a_field_off_its_region(args, tmp_path, capsys):
    out = tmp_path / "p.json"
    assert run(["extend", "prop2", *args, "--out", str(out)]) == 2
    assert "outside the region" in capsys.readouterr().err
    assert not out.exists()


def test_prop2_refuses_a_field_not_finite_in_a_late_row_block(
        tmp_path, monkeypatch, capsys):
    # the disk's window at 2^-7 spans three row blocks.  The field's (0, 1)
    # partial is nan from s < -0.5, in the first block, and its value from
    # s > 0.5, in the second; the refusal, raised once the walk is done,
    # names the value, the first partial that is not finite anywhere
    sin_cos = functions.get_function("sin_cos", None)

    def leaf(pts, order):
        s = pts[..., 0]
        bad = {(0, 0): s > 0.5, (0, 1): s < -0.5}
        return {alpha: np.where(bad.get(alpha, False), np.nan, arr)
                for alpha, arr in sin_cos.evaluator(pts, order).items()}

    monkeypatch.setattr(functions, "get_function", lambda name, depth:
                        functions.AnalyticJet("sin_cos", 2, leaf))
    spools = []

    class Recorded(io.Spool):
        def __init__(self):
            super().__init__()
            spools.append(self)

    monkeypatch.setattr(io, "Spool", Recorded)
    spool_dir = tmp_path / "spool"
    spool_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spool_dir))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "p.json"
    out.write_text("old\n")
    assert run(["extend", "prop2", "--domain", "disk", "--function",
                "sin_cos", "--h", str(2.0**-7), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: component (0, 0) is not finite on the mask\n")
    assert out.read_text() == "old\n"
    assert os.listdir(out_dir) == ["p.json"]
    assert len(spools) == 3 and all(s.file.closed for s in spools)
    assert os.listdir(spool_dir) == []


def test_field_sample_past_the_comb_fields_order_is_a_usage_error(
        tmp_path, capsys):
    # the comb field serves every order through grid.MAX_ORDER = 12
    out = tmp_path / "f.json"
    args = ["field", "sample", "--domain", "comb", "--function", "example3",
            "--n-teeth", "3", "--h", str(2.0**-6), "--out", str(out)]
    assert run([*args, "--order", "3"]) == 0
    assert io.read_artifact(str(out))["jet"]["order"] == 3
    out.unlink()
    capsys.readouterr()
    assert run([*args, "--order", "13"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: order must lie in [0, 12] and dim be >= 1, got "
                   "order 13 in 2-D\n")
    assert not out.exists()


def test_region_error_prints_plain_floats(tmp_path, capsys):
    out = tmp_path / "f.json"
    assert run(["field", "sample", "--domain", "disk", "--function",
                "example3", "--h", "0.03125", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: mask point (0.15625, 0.03125) lies outside the region of "
        "example3\n")


@pytest.mark.parametrize("argv, err", [
    (["space", "norm", "--domain", "cantor_slit", "--depth", "3",
      "--function", "example1", "--space", "F", "--h", "0.0078125"],
     "error: mask point (-1.0, -1.0) lies outside the region of example1\n"),
    (["extend", "prop2", "--domain", "half_ball", "--function", "example1"],
     "error: Q lattice point (0.0, -1.0) lies outside the region of "
     "example1\n"),
], ids=["space-norm", "extend-prop2"])
def test_region_refusal_text_is_pinned(argv, err, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == err
    assert not out.exists()


def test_space_norm_names_the_first_point_off_the_region_past_block_0(
        tmp_path, capsys):
    # the disk's left half lies in the comb's base, so its first point off
    # the comb field's region, in row-major order, is in a later row block
    h = 2.0**-8
    q, _ = domains.build_domain(domains.Disk(), h)
    with pytest.raises(PointOutsideRegionError) as want:
        scatter_sample(functions.get_function("example3", 4), q, 0)
    assert str(want.value) == ("mask point (0.01953125, 0.00390625) lies "
                               "outside the region of example3")
    row = round((0.01953125 - q.grid.origin[0]) / h)
    assert row >= next(row_blocks(q.grid.extents)).stop
    out = tmp_path / "n.json"
    assert run(["space", "norm", "--domain", "disk", "--function", "example3",
                "--space", "F", "--h", str(h), "--check",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {want.value}\n"
    assert not out.exists()


H_COMMANDS = {
    "domain build": ["domain", "build", "--domain", "comb"],
    "field sample": ["field", "sample", "--function", "sin_cos", "--domain",
                     "rectangle"],
    "space norm": ["space", "norm", "--function", "sin_cos", "--domain",
                   "disk"],
    "extend prop2": ["extend", "prop2", "--function", "sin_cos", "--domain",
                     "disk"],
}


@pytest.mark.parametrize("h", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", sorted(H_COMMANDS))
def test_bad_h_is_a_usage_error(command, h, tmp_path, capsys):
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        run(H_COMMANDS[command] + ["--h", h, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--h" in err and "positive finite" in err
    assert not out.exists()


BOUND_FLAGS = {
    "--margin": ["extend", "prop2", "--function", "sin_cos", "--domain",
                 "disk"],
    "--tol": ["space", "norm", "--function", "sin_cos", "--domain", "disk",
              "--check"],
    "--ceiling": ["certify", "cantorslit"],
}


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("flag", sorted(BOUND_FLAGS))
def test_bad_positive_flag_is_a_usage_error(flag, value, tmp_path, capsys):
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        run(BOUND_FLAGS[flag] + [flag, value, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert f"error: argument {flag}" in err and "positive finite" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_bad_replay_tolerance_is_a_usage_error(value, tmp_path, capsys):
    # a tampered certificate that nan or inf used to let through
    cert_path = tmp_path / "gap.json"
    assert run(["certify", "gap1d", "--n-max", "4", "--out",
                str(cert_path)]) == 0
    doc = json.loads(cert_path.read_text())
    doc["terms"][0]["quotient"] = 0.5
    doc["gap"] = 7.0
    cert_path.write_text(io.dumps(doc))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["replay", "--cert", str(cert_path), "--tolerance", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --tolerance" in err and "positive finite" in err
    assert run(["replay", "--cert", str(cert_path)]) == 1


# wall flags of `hestenes extend` -> (value, accepted?)
WALL_FLAGS = {
    "--boundary": {"nan": False, "inf": False, "0": True},
    "--inward": {"nan": False, "inf": False, "0": False},
}


@pytest.mark.parametrize("value", ["nan", "inf", "0"])
@pytest.mark.parametrize("flag", sorted(WALL_FLAGS))
def test_hestenes_extend_wall_flags(flag, value, tmp_path, capsys):
    field = tmp_path / "f.json"
    out = tmp_path / "ext.json"
    assert run(["field", "sample", "--function", "sin_cos", "--domain",
                "rectangle", "--h", "0.125", "--out", str(field)]) == 0
    argv = ["hestenes", "extend", "--in", str(field), "--width", "4",
            flag, value, "--out", str(out)]
    if WALL_FLAGS[flag][value]:
        assert run(argv) == 0
        assert "extended 81 -> 117 points" in capsys.readouterr().out
        return
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}" in err
    assert ("finite number" if flag == "--boundary" else "1 or -1") in err
    assert not out.exists()


SAMPLE_2D = ["--function", "sin_cos", "--domain", "rectangle", "--h", "0.125"]
SAMPLE_1D = ["--function", "exp1d", "--domain", "gap1d", "--n-segments", "1",
             "--h", "0.015625"]


@pytest.mark.parametrize("sample,axis", [
    (SAMPLE_2D, "-1"), (SAMPLE_2D, "2"), (SAMPLE_2D, "7"), (SAMPLE_1D, "1"),
])
def test_hestenes_extend_rejects_a_foreign_axis(sample, axis, tmp_path,
                                                capsys):
    field = tmp_path / "f.json"
    out = tmp_path / "ext.json"
    assert run(["field", "sample", *sample, "--out", str(field)]) == 0
    capsys.readouterr()
    assert run(["hestenes", "extend", "--in", str(field), "--width", "4",
                "--axis", axis, "--out", str(out)]) == 2
    assert f"error: axis {axis} is not an axis of a" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["space", "norm", "--field", "{missing}"],
    ["hestenes", "extend", "--in", "{missing}", "--width", "4",
     "--out", "{tmp}/out.json"],
    ["replay", "--cert", "{missing}"],
    ["certify", "gap1d", "--n-max", "4", "--out", "{tmp}/no/dir/c.json"],
    ["domain", "build", "--domain", "rectangle", "--h", "0.25",
     "--out", "{tmp}/no/dir/d.json"],
], ids=["norm-field", "hestenes-in", "replay-cert", "certify-out",
        "build-out"])
def test_missing_file_is_a_usage_error(argv, tmp_path, capsys):
    fill = {"missing": str(tmp_path / "absent.json"), "tmp": str(tmp_path)}
    argv = [a.format(**fill) for a in argv]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err
    # named after the path given, not a temporary file beside it
    named = next(a for a in argv if "absent" in a or "no/dir" in a)
    assert err.rstrip().endswith(f"'{named}'")


def _write_without(path, payload, key):
    payload = dict(payload)
    del payload[key]
    io.write_artifact(str(path), payload, {})


def test_jet_artifact_without_grid_is_a_usage_error(tmp_path, capsys):
    field = tmp_path / "field.json"
    assert run(["field", "sample", "--function", "sin_cos", "--domain",
                "rectangle", "--h", "0.25", "--out", str(field)]) == 0
    jet = io.read_artifact(str(field))["jet"]
    bad = tmp_path / "bad.json"
    _write_without(bad, jet, "grid")
    capsys.readouterr()
    assert run(["space", "norm", "--field", str(bad)]) == 2
    assert run(["hestenes", "extend", "--in", str(bad), "--width", "2",
                "--out", str(tmp_path / "ext.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("error: jet artifact lacks the key 'grid'") == 2


def _set_extents(jet, extents):
    return {**jet, "grid": {**jet["grid"], "extents": extents}}


def _set_array(jet, key, **fields):
    """The jet with fields of its mask ("mask") or a component replaced;
    a callable field maps the old value to the new."""
    def change(node):
        return {k: fields[k](v) if callable(fields.get(k)) else fields.get(k, v)
                for k, v in node.items()}
    if key == "mask":
        return {**jet, "mask": change(jet["mask"])}
    return {**jet, "components": {**jet["components"],
                                  key: change(jet["components"][key])}}


def _bytes_of(change):
    """A map of base64 text: decode, change the bytes, encode."""
    def of(text):
        data = change(bytearray(binascii.a2b_base64(text)))
        return binascii.b2a_base64(bytes(data), newline=False).decode("ascii")
    return of


def _set_pad_bit(data):
    data[-1] |= 0x80  # the field's 25 points leave 7 pad bits
    return data


# a sampled field's jet (25 points), broken one way each, and the reason
# its reader gives
MALFORMED_JET = {
    "jet-not-an-object": (lambda jet: [1, 2], "list indices"),
    "grid-not-an-object": (lambda jet: {**jet, "grid": 5},
                           "'int' object is not subscriptable"),
    "components-not-an-object": (lambda jet: {**jet, "components": []},
                                 "'list' object has no attribute 'items'"),
    "extents-not-a-list": (lambda jet: _set_extents(jet, 3),
                           "'int' object is not iterable"),
    "data-not-base64": (lambda jet: _set_array(
        jet, "0,1", data=lambda d: d[:8] + "*" + d[9:]),
        "Only base64 data is allowed"),
    "data-padding-dropped": (lambda jet: _set_array(
        jet, "mask", data=lambda d: d.rstrip("=")), "Incorrect padding"),
    "data-padding-doubled": (lambda jet: _set_array(
        jet, "0,0", data=lambda d: d + "="), "Excess data after padding"),
    "data-a-float-short": (lambda jet: _set_array(
        jet, "1,0", data=_bytes_of(lambda b: b[:-8])),
        "array data holds 192 bytes, not 200"),
    "data-a-byte-long": (lambda jet: _set_array(
        jet, "mask", data=_bytes_of(lambda b: b + b"\0")),
        "array data holds 5 bytes, not 4"),
    "pad-bit-set": (lambda jet: _set_array(
        jet, "mask", data=_bytes_of(_set_pad_bit)),
        "array pad bits are not zero"),
    "dtype-unknown": (lambda jet: _set_array(jet, "0,0", dtype="<f4"),
                      "array dtype '<f4' is not '<f8'"),
    "mask-dtype-float": (lambda jet: _set_array(jet, "mask", dtype="<f8"),
                         "array dtype '<f8' is not 'bool'"),
    "format-version-1": (lambda jet: {**jet, "format_version": 1},
                         "format_version 1 is not 2"),
    "format-version-3": (lambda jet: {**jet, "format_version": 3},
                         "format_version 3 is not 2"),
    "shape-past-point-count": (lambda jet: _set_array(
        jet, "0,1", shape=[26]), "array shape [26] is not [25]"),
    "shape-of-the-lattice": (lambda jet: _set_array(
        jet, "mask", shape=[5, 5]), "array shape [5, 5] is not [25]"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_JET))
def test_malformed_jet_artifact_is_a_usage_error(case, tmp_path, capsys):
    field = tmp_path / "field.json"
    assert run(["field", "sample", "--function", "sin_cos", "--domain",
                "rectangle", "--h", "0.25", "--out", str(field)]) == 0
    doc = json.loads(field.read_text())
    assert doc["jet"]["grid"]["extents"] == [5, 5]
    bad = tmp_path / "bad.json"
    breaker, reason = MALFORMED_JET[case]
    jet = breaker(doc["jet"])
    assert jet != doc["jet"]
    bad.write_text(json.dumps({**doc, "jet": jet}))
    capsys.readouterr()
    assert run(["space", "norm", "--field", str(bad)]) == 2
    assert run(["hestenes", "extend", "--in", str(bad), "--width", "2",
                "--out", str(tmp_path / "ext.json")]) == 2
    err = capsys.readouterr().err
    assert err.count(f"error: jet artifact is malformed: {reason}") == 2
    assert "Traceback" not in err
    assert not (tmp_path / "ext.json").exists()


def _must(path: str, kind: str, text: str) -> str:
    return f"{path} must be {kind}, not {text}"


# a sampled field's jet with one value no writer writes, and the refusal,
# which names its key path: a value of a JSON type its writer never writes,
# with that value as JSON, or a component key that names no partial of the
# jet's order, refused before its array is decoded
MISTYPED_JET = {
    "order-true": (lambda jet: {**jet, "order": True},
                   _must("order", "an int", "true")),
    "order-float": (lambda jet: {**jet, "order": 1.0},
                    _must("order", "an int", "1.0")),
    "h-string": (lambda jet: {**jet, "grid": {**jet["grid"], "h": "0.25"}},
                 _must("grid.h", "a finite number", '"0.25"')),
    "extents-float": (lambda jet: _set_extents(jet, [5.0, 5.0]),
                      _must("grid.extents[0]", "an int", "5.0")),
    "origin-strings": (lambda jet: {**jet, "grid": {
        **jet["grid"], "origin": ["0", "0"]}},
        _must("grid.origin[0]", "a finite number", '"0"')),
    "format-version-float": (lambda jet: {**jet, "format_version": 2.0},
                             _must("format_version", "an int", "2.0")),
    "extra-component": (lambda jet: {**jet, "components": {
        **jet["components"], "9,9": jet["components"]["0,0"]}},
        "components.9,9 names no partial of an order-1 jet in 2-D"),
    "extra-component-undecodable": (lambda jet: {**jet, "components": {
        **jet["components"], "9,9": {"dtype": "<f8", "shape": "no array",
                                     "data": "!"}}},
        "components.9,9 names no partial of an order-1 jet in 2-D"),
}


@pytest.mark.parametrize("case", sorted(MISTYPED_JET))
def test_a_jet_value_no_writer_writes_is_a_usage_error(case, tmp_path,
                                                       capsys):
    field = tmp_path / "field.json"
    assert run(["field", "sample", "--function", "sin_cos", "--domain",
                "rectangle", "--h", "0.25", "--out", str(field)]) == 0
    doc = json.loads(field.read_text())
    breaker, refusal = MISTYPED_JET[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**doc, "jet": breaker(doc["jet"])}))
    capsys.readouterr()
    assert run(["space", "norm", "--field", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: jet artifact is malformed: {refusal}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("token", ["+1", "01", "1.", ".5", "1e5.3", ""])
def test_refused_number_in_a_long_array_is_a_usage_error(token, tmp_path,
                                                         capsys):
    # the token lands in the first component's shape; "" leaves a trailing
    # comma
    field = tmp_path / "field.json"
    assert run(["field", "sample", "--function", "sin_cos", "--domain",
                "rectangle", "--h", "0.03125", "--out", str(field)]) == 0
    text = field.read_text()
    close = text.index("]", text.index('"components":'))
    bad = tmp_path / "bad.json"
    bad.write_text(f"{text[:close]},{token}{text[close:]}")
    with pytest.raises(ValueError) as refused:
        json.loads(bad.read_text())
    capsys.readouterr()
    assert run(["space", "norm", "--field", str(bad)]) == 2
    assert run(["hestenes", "extend", "--in", str(bad), "--width", "2",
                "--out", str(tmp_path / "ext.json")]) == 2
    err = capsys.readouterr().err
    assert err.count(f"error: {refused.value}\n") == 2
    assert "Traceback" not in err
    assert not (tmp_path / "ext.json").exists()


def test_jet_artifact_of_a_huge_order_is_refused_at_once(tmp_path, capsys):
    # C(order + 2, 2) components are due; enumerating their multi-indices
    # first would take hours at this order
    field = tmp_path / "field.json"
    assert run(["field", "sample", "--function", "sin_cos", "--domain",
                "rectangle", "--h", "0.25", "--out", str(field)]) == 0
    doc = json.loads(field.read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**doc, "jet": {**doc["jet"], "order": 10**6}}))
    capsys.readouterr()
    for argv in (["space", "norm", "--field", str(bad)],
                 ["hestenes", "extend", "--in", str(bad), "--width", "2",
                  "--out", str(tmp_path / "ext.json")]):
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err == ("error: missing components: an order-1000000 jet in "
                       "2-D has 500001500001, found 3\n")
    assert not (tmp_path / "ext.json").exists()


def test_certificate_without_domain_is_a_usage_error(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert run(["certify", "gap1d", "--n-max", "4", "--out", str(cert)]) == 0
    bad = tmp_path / "bad.json"
    _write_without(bad, io.read_artifact(str(cert)), "domain")
    capsys.readouterr()
    assert run(["replay", "--cert", str(bad)]) == 2
    assert ("error: certificate artifact lacks the key 'domain'"
            in capsys.readouterr().err)


def _first_term(doc, **change):
    doc["terms"][0].update(change)
    return doc


# a gap1d certificate, broken one way each -> what the error names
MALFORMED = {
    "no-terms": (lambda d: {**d, "terms": []}, "needs at least one term"),
    "zero-denominator": (lambda d: _first_term(d, base=[[1, 0]]),
                         "malformed: terms[0].base[0][1] must be above 0"),
    "zero-step": (lambda d: _first_term(d, probe=d["terms"][0]["base"]),
                  "share the first coordinate"),
    "terms-not-a-list": (lambda d: {**d, "terms": 5}, "malformed"),
    "relabelled": (lambda d: {**d, "domain": "cantor_slit"}, "not 2-D"),
    "base-of-2": (lambda d: _first_term(d, base=[[0, 1], [1, 1]]), "not 1-D"),
    "no-witness": (lambda d: {**d, "interior_witness": []},
                   "one interior witness"),
    "config-null": (lambda d: {**d, "config": {"gap_tolerance": None}},
                    "config.gap_tolerance must be a finite number, not null"),
    "lattice-scan": (lambda d: {**d, "domain": "lattice-scan"},
                     "'lattice-scan' has no replayer"),
    "not-an-object": (lambda d: [d], "its JSON is not an object"),
    "base-past-float-range": (lambda d: _first_term(d, base=[[10**400, 1]]),
                              "term 1 is not at the kind's points"),
    "quotient-past-float-range": (lambda d: _first_term(d, quotient=10**400),
                                  "terms[0].quotient must be a finite number"),
    "config-past-float-range": (
        lambda d: {**d, "config": {"gap_tolerance": 10**400}},
        "config.gap_tolerance must be a finite number"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_certificate_is_a_usage_error(case, tmp_path, capsys):
    break_it, message = MALFORMED[case]
    cert = tmp_path / "cert.json"
    assert run(["certify", "gap1d", "--n-max", "4", "--out", str(cert)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(break_it(json.loads(cert.read_text()))))
    capsys.readouterr()
    assert run(["replay", "--cert", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def _set(doc, path, value):
    """doc with the value at key path path (keys and list indices) set."""
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


CANTOR = ["cantorslit", "--n-max", "6", "--ceiling", "2", "--depth", "2"]
# a value of a JSON type no writer writes -> the key path the error names
MISTYPED = {
    "probe-entry-float": (["comb"], ("terms", 0, "probe", 0, 0), 3.9,
                          "terms[0].probe[0][0] must be an int"),
    "probe-entry-string": (["comb"], ("terms", 0, "probe", 0, 0), "3",
                           "terms[0].probe[0][0] must be an int"),
    "pair-entry-bool": (["comb"], ("terms", 1, "base", 1, 1), True,
                        "terms[1].base[1][1] must be an int"),
    "negative-denominator": (["comb"], ("terms", 0, "probe", 0),
                             [-3, -8], "terms[0].probe[0][1] must be above 0"),
    "pair-of-3": (["comb"], ("terms", 0, "probe", 0), [3, 8, 1],
                  "terms[0].probe[0] must be a [numerator, denominator]"),
    "term-n-float": (["comb"], ("terms", 0, "n"), 1.5,
                     "terms[0].n must be an int"),
    "witness-n-bool": (["comb"], ("interior_witness", 0, "n"), True,
                       "interior_witness[0].n must be an int"),
    "quotient-bool": (["comb"], ("terms", 2, "quotient"), False,
                      "terms[2].quotient must be a finite number"),
    "note-number": (["comb"], ("terms", 0, "note"), 1,
                    "terms[0].note must be a string"),
    "term-not-an-object": (["comb"], ("terms", 0), [1, 2],
                           "terms[0] must be an object"),
    "n-max-float": (["comb"], ("n_max",), 6.7, "n_max must be an int"),
    "diverges-string": (["comb"], ("diverges",), "false",
                        "diverges must be a bool"),
    "gap-string": (["comb"], ("gap",), "1", "gap must be a finite number"),
    "interior-limit-bool": (["comb"], ("interior_limit",), True,
                            "interior_limit must be a finite number"),
    "gap-tolerance-bool": (["comb"], ("config", "gap_tolerance"), True,
                           "config.gap_tolerance must be a finite number"),
    "config-a-list": (["comb"], ("config",), [["gap_tolerance", 1e-9]],
                      "config must be an object"),
    "domain-list": (["comb"], ("domain",), ["comb"],
                    "domain must be a string"),
    "claim-null": (["comb"], ("claim",), None, "claim must be a string"),
    "first-exceed-bool": (CANTOR, ("first_exceed_n",), True,
                          "first_exceed_n must be an int"),
    "first-exceed-float": (CANTOR, ("first_exceed_n",), 3.0,
                           "first_exceed_n must be an int"),
    "ceiling-bool": (CANTOR, ("config", "ceiling"), True,
                     "config.ceiling must be a finite number"),
    "depth-string": (CANTOR, ("config", "depth"), "2",
                     "config.depth must be a finite number"),
}


@pytest.mark.parametrize("case", sorted(MISTYPED))
def test_replay_refuses_a_value_no_writer_writes(case, tmp_path, capsys):
    which, path, value, message = MISTYPED[case]
    cert = tmp_path / "cert.json"
    assert run(["certify", *which, "--out", str(cert)]) == 0
    capsys.readouterr()
    assert run(["replay", "--cert", str(cert)]) == 0
    assert "terms reproduce" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_set(json.loads(cert.read_text()), path, value)))
    assert run(["replay", "--cert", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: certificate artifact is malformed: {message}")
    assert "Traceback" not in captured.err


def test_moved_comb_probe_is_a_usage_error(tmp_path, capsys):
    # the quotient from (0, 1) to (5, 1) is 0 as well; only the point is wrong
    cert = tmp_path / "cert.json"
    assert run(["certify", "comb", "--n-max", "6", "--out", str(cert)]) == 0
    doc = json.loads(cert.read_text())
    doc["terms"][0]["probe"] = [[5, 1], [1, 1]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["replay", "--cert", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error: comb certificate term 1 is not at the kind's points" in err
    assert "Traceback" not in err


def test_certify_cantorslit_depth_0_exits_2(tmp_path, capsys):
    # the level-0 cover has no gap, so no interior witness
    out = tmp_path / "cs.json"
    assert run(["certify", "cantorslit", "--depth", "0",
                "--out", str(out)]) == 2
    assert "error: depth must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["extend", "prop2", "--domain", "disk", "--function", "gap1d"],
    ["field", "sample", "--domain", "gap1d", "--function", "sin_cos"],
    ["space", "norm", "--domain", "comb", "--function", "exp1d"],
], ids=["extend-prop2", "field-sample", "space-norm"])
def test_dimension_mismatch_is_a_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    function = argv[argv.index("--function") + 1]
    domain = argv[argv.index("--domain") + 1]
    assert f"function {function} is" in err and f"domain {domain} is" in err
    assert not out.exists()


@pytest.mark.parametrize("mask,space,code", [
    ("q", "F", 0), ("open", "E", 0), ("q", "E", 2), ("open", "F", 2),
])
def test_space_norm_field_reads_only_the_mask_its_space_names(
        mask, space, code, tmp_path, capsys):
    field = tmp_path / "field.json"
    assert run(["field", "sample", "--function", "sin_cos", "--domain",
                "rectangle", "--h", "0.125", "--mask", mask,
                "--out", str(field)]) == 0
    capsys.readouterr()
    assert run(["space", "norm", "--field", str(field),
                "--space", space]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
        assert captured.err == (
            f"error: {field} holds a jet on mask {mask!r}; space {space} "
            f"reads mask {'open' if space == 'E' else 'q'!r}\n")
    else:
        report = json.loads(captured.out.splitlines()[0])["norm"]
        assert report["mask"] == ("Omega" if space == "E" else "Q")
        assert report["point_count"] == (49 if mask == "open" else 81)


@pytest.mark.parametrize("space", ["F", "E"])
def test_space_norm_reads_a_bare_jet_under_either_space(space, tmp_path,
                                                        capsys):
    # a bare jet payload's "mask" is its bit array, not a recorded name
    field = tmp_path / "field.json"
    assert run(["field", "sample", "--function", "sin_cos", "--domain",
                "rectangle", "--h", "0.125", "--mask", "open",
                "--out", str(field)]) == 0
    bare = tmp_path / "bare.json"
    io.write_artifact(str(bare), io.read_artifact(str(field))["jet"], {})
    capsys.readouterr()
    assert run(["space", "norm", "--field", str(bare), "--space", space]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[0])["norm"]
    assert report["point_count"] == 49


def test_a_lattice_too_large_to_allocate_is_a_usage_error(tmp_path):
    # the address-space cap makes the allocation fail at once, whatever
    # the machine's overcommit policy
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2**32, 2**32))

    src = os.path.dirname(os.path.dirname(jetlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["domain", "build", "--domain", "rectangle", "--h", "1e-6"],
                 ["extend", "prop2", "--domain", "rectangle", "--function",
                  "sin_cos", "--h", str(2.0**-20)]):
        done = subprocess.run(
            [sys.executable, "-m", "jetlab", *argv,
             "--out", str(tmp_path / "big.json")],
            env=env, cwd=tmp_path, capture_output=True, text=True,
            preexec_fn=cap_address_space)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "big.json").exists()


@pytest.mark.parametrize("flag,value", [
    ("--depth", "9"), ("--n-teeth", "3"), ("--n-segments", "5"),
])
def test_prop2_takes_no_flag_of_another_domain(flag, value, tmp_path,
                                               capsys):
    out = tmp_path / "p.json"
    with pytest.raises(SystemExit) as exc:
        run(["extend", "prop2", "--domain", "disk", "--function", "sin_cos",
             flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind,flag,value", [
    ("comb", "--ceiling", "5"), ("comb", "--depth", "9"),
    ("gap1d", "--ceiling", "5"), ("gap1d", "--depth", "2"),
])
def test_certify_takes_no_flag_its_kind_does_not_read(kind, flag, value,
                                                      tmp_path, capsys):
    out = tmp_path / "c.json"
    with pytest.raises(SystemExit) as exc:
        run(["certify", kind, "--n-max", "6", flag, value, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag} {value}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--domain", "comb", "--function", "example3"],
    ["--domain", "disk"],
    ["--function", "sin_cos"],
], ids=["both", "domain", "function"])
def test_space_norm_field_takes_no_domain_or_function(flags, tmp_path,
                                                      capsys):
    path = tmp_path / "field.json"
    assert run(["field", "sample", "--function", "sin_cos", "--domain",
                "disk", "--h", "0.25", "--out", str(path)]) == 0
    capsys.readouterr()
    assert run(["space", "norm", "--field", str(path), *flags,
                "--space", "F"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: space norm --field does not read")
    assert all(flag in captured.err for flag in flags if flag.startswith("--"))


@pytest.mark.parametrize("argv, err", [
    (["space", "norm", "--field", "field.json", "--h", "0.5", "--order", "3",
      "--depth", "9"],
     "space norm --field does not read --depth, --order, --h"),
    (["domain", "build", "--domain", "disk", "--n-teeth", "3",
      "--out", "out.json"], "domain build --domain disk does not read "
                            "--n-teeth"),
    (["space", "norm", "--field", "field.json", "--tol", "0.5"],
     "space norm --field does not read --tol"),
    (["field", "sample", "--domain", "rectangle", "--function", "sin_cos",
      "--depth", "3", "--out", "out.json"],
     "field sample --domain rectangle --function sin_cos does not read "
     "--depth"),
], ids=["field-h-order-depth", "disk-n-teeth", "tol-without-check",
        "rectangle-sin_cos-depth"])
def test_an_unread_flag_is_named(argv, err, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["field", "sample", "--function", "sin_cos", "--domain",
                "rectangle", "--h", "0.25", "--out", "field.json"]) == 0
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", [
    ["field", "sample", "--out", "f.json"], ["space", "norm"],
], ids=["field-sample", "space-norm"])
@pytest.mark.parametrize("order", [13, 10**5])
def test_an_order_past_max_order_is_refused_at_once(command, order, tmp_path,
                                                    monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    assert run([*command, "--function", "sin_cos", "--domain", "rectangle",
                "--h", "0.5", "--order", str(order)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == (
        "", "error: order must lie in [0, 12] and dim be >= 1, got order "
        f"{order} in 2-D\n")
    assert not (tmp_path / "f.json").exists()


@pytest.mark.parametrize("space", ["F", "E"])
def test_space_norm_field_reports_a_prop2_jet_on_its_window(space, tmp_path,
                                                            capsys):
    field = tmp_path / "p.json"
    assert run(["extend", "prop2", "--domain", "disk", "--function",
                "sin_cos", "--h", "0.25", "--out", str(field)]) == 0
    capsys.readouterr()
    assert run(["space", "norm", "--field", str(field),
                "--space", space]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[0])["norm"]
    assert (report["mask"], report["point_count"]) == ("window", 169)
    # a hestenes extend artifact holds Q and the band past its wall: 25
    # points of Q and 10 reflected ones
    sampled, extended = tmp_path / "f.json", tmp_path / "e.json"
    assert run(["field", "sample", "--function", "sin_cos", "--domain",
                "rectangle", "--h", "0.25", "--out", str(sampled)]) == 0
    assert run(["hestenes", "extend", "--in", str(sampled), "--width", "2",
                "--out", str(extended)]) == 0
    capsys.readouterr()
    assert run(["space", "norm", "--field", str(extended),
                "--space", space]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[0])["norm"]
    assert (report["mask"], report["point_count"]) == ("extended", 35)


def test_prop2_glues_to_order_4_and_refuses_order_5(tmp_path, capsys):
    field = tmp_path / "p.json"
    argv = ["extend", "prop2", "--domain", "disk", "--function", "sin_cos",
            "--out", str(field)]
    assert run([*argv, "--order", "5"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: the glued extension runs to order 4, the highest "
                   "its tests verify; got order 5\n")
    assert not field.exists()
    assert run([*argv, "--order", "3", "--h", "0.03125"]) == 0
    capsys.readouterr()
    assert run(["space", "norm", "--field", str(field)]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[0])["norm"]
    assert (report["order"], report["mask"]) == (3, "window")
    assert len(report["per_alpha"]) == 10


def leaf_parsers(parser, words=()):
    """(command words, parser) of each subcommand that runs."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield words, parser
    for name, sub in (subs[0].choices.items() if subs else ()):
        yield from leaf_parsers(sub, words + (name,))


# each --domain choice on a lattice it resolves, its parameter given
KIND_FLAGS = {
    "comb": ["--domain", "comb", "--n-teeth", "1", "--h", "0.0625"],
    "gap1d": ["--domain", "gap1d", "--n-segments", "2", "--h", "0.0625"],
    "cantor_slit": ["--domain", "cantor_slit", "--depth", "1",
                    "--h", "0.0625"],
    "rectangle": ["--domain", "rectangle", "--h", "0.25"],
    "disk": ["--domain", "disk", "--h", "0.25"],
    "half_ball": ["--domain", "half_ball", "--h", "0.25"],
}
FIELD_OF = {kind: "exp1d" if kind == "gap1d" else "sin_cos"
            for kind in KIND_FLAGS}

# per subcommand, a command for each of its paths: every --domain choice,
# example1 (which reads --depth), and space norm's --field with and
# without --check
PATHS = {
    ("domain", "build"): [[*KIND_FLAGS[k], "--out", "out.json"]
                          for k in KIND_FLAGS],
    ("field", "sample"): [
        *([*KIND_FLAGS[k], "--function", FIELD_OF[k], "--out", "out.json"]
          for k in KIND_FLAGS),
        [*KIND_FLAGS["cantor_slit"], "--function", "example1", "--mask",
         "open", "--out", "out.json"]],
    ("hestenes", "coeffs"): [["--order", "2"]],
    ("hestenes", "extend"): [["--in", "field.json", "--width", "2",
                              "--out", "out.json"]],
    ("extend", "prop2"): [["--domain", k, "--function", "sin_cos",
                           "--h", "0.25", "--out", "out.json"]
                          for k in ("rectangle", "disk", "half_ball")],
    ("space", "norm"): [
        *([*KIND_FLAGS[k], "--function", FIELD_OF[k]] for k in KIND_FLAGS),
        ["--field", "field.json"], ["--field", "field.json", "--check"]],
    ("certify", "comb"): [["--out", "out.json"]],
    ("certify", "gap1d"): [["--out", "out.json"]],
    ("certify", "cantorslit"): [["--out", "out.json"]],
    ("replay",): [["--cert", "cert.json"]],
}

# a value for each flag a path's command does not give already
FLAG_VALUES = {
    "--domain": "disk", "--function": "sin_cos", "--field": "field.json",
    "--depth": "2", "--n-teeth": "2", "--n-segments": "3", "--h": "0.125",
    "--order": "2", "--mask": "open", "--space": "E", "--tol": "0.5",
    "--check": None, "--margin": "0.25", "--axis": "1", "--boundary": "0.0",
    "--inward": "1", "--n-max": "6", "--ceiling": "4", "--csv": "out.csv",
    "--tolerance": "1e-9", "--out": "other.json",
}


@pytest.fixture
def noted_reads(monkeypatch):
    """The flag dests the command of the last main call read once the
    unread-flag rule let it run; empty when the rule refused it."""
    read = set()

    class Noted(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    rule = cli._check_flags

    def rule_then_note(args):
        read.clear()
        rule(args)
        args.__class__ = Noted

    monkeypatch.setattr(cli, "_check_flags", rule_then_note)
    return read


def test_every_subcommand_has_its_paths():
    assert sorted(words for words, _ in leaf_parsers(build_parser())) == (
        sorted(PATHS))


@pytest.mark.parametrize("words", sorted(PATHS), ids="-".join)
def test_a_flag_given_is_read_or_refused(words, noted_reads, tmp_path,
                                         monkeypatch, capsys):
    # each flag the subcommand accepts, given to each of its paths, is read
    # by that path's command, or exits 2 naming it, with no traceback and
    # nothing written; and some path reads it
    parser = dict(leaf_parsers(build_parser()))[words]
    dests = {a.option_strings[-1]: a.dest for a in parser._actions
             if a.option_strings and a.dest != "help"}
    monkeypatch.chdir(tmp_path)
    assert run(["field", "sample", "--function", "sin_cos", "--domain",
                "rectangle", "--h", "0.25", "--out", "field.json"]) == 0
    assert run(["certify", "comb", "--n-max", "6", "--out", "cert.json"]) == 0
    inputs = set(os.listdir())
    read_somewhere = set()
    for path in PATHS[words]:
        given = [flag for flag in path if flag in dests]
        for flag in [None, *(f for f in dests if f not in given)]:
            argv = [*words, *path]
            if flag is not None:
                value = FLAG_VALUES[flag]
                argv += [flag] if value is None else [flag, value]
            capsys.readouterr()
            code = run(argv)
            err = capsys.readouterr().err
            written = set(os.listdir()) - inputs
            for name in written:
                os.remove(name)
            assert "Traceback" not in err, argv
            if flag is None:
                assert code in (0, 1), (argv, err)
                assert {dests[f] for f in given} <= noted_reads, argv
                read_somewhere.update(given)
            elif dests[flag] in noted_reads:
                read_somewhere.add(flag)
            else:
                assert code == 2 and flag in err and not written, (argv, err)
    assert read_somewhere == set(dests)
