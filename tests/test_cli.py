"""Command-line behavior: artifacts, exit codes, determinism."""

import json

import numpy as np
import pytest

from jetlab import io
from jetlab.certify import Certificate, replay_certificate
from jetlab.cli import main
from jetlab.grid import GridMask, GridSpec, SampledJet


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
    s, t = jet.grid.coord_grids()
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
    jet = SampledJet(0, g, mask, {(0,): np.where(xs < 0.5, 0.0, 1.0)})
    path = tmp_path / "bad.json"
    io.write_artifact(str(path), {"jet": io.jet_to_payload(jet)})
    code = run(["space", "norm", "--field", str(path), "--check"])
    assert code == 1
    assert "violation" in capsys.readouterr().out


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
    assert replay_certificate(cert)
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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["domain", "build", "--domain", "klein"])
    assert exc.value.code == 2


def test_bad_thread_env_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("JETLAB_THREADS", "two")
    # commands without --workers ignore the variable
    assert run(["certify", "gap1d", "--out", str(tmp_path / "g.json")]) == 0
    with pytest.raises(SystemExit) as exc:
        run(["extend", "prop2", "--domain", "disk", "--function", "sin_cos",
             "--out", str(tmp_path / "p.json")])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
