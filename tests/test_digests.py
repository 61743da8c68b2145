"""Payload digests pinned byte for byte.

Each digest is the sha256 of a payload's deterministic JSON text (or of a
command's stdout report, or of a CSV file), recorded before the code it
covers was rewritten: the domains before one class per kind, the scan reports
before sampling and scanning walked the lattice in row blocks, the CSV files
and the ``hestenes extend`` payload before floats were formatted in bulk, the
certificates before each kind was defined once, the order-0 and order-1
``extend prop2`` payloads before every layer of the glue became a plain jet
evaluator.  A rasterizer, a membership
predicate, a chart, a scan or a certificate kind that moves a single lattice
point, float bit, rational or witness changes a digest here.
"""

import hashlib

import pytest

from jetlab import domains, io
from jetlab.cli import main


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


MASKS = {
    "comb": (lambda: domains.comb(3), 2.0**-6,
             "51031b5c49180145e5b19c03f2994f49f277f413a2f623a2596b395c6b606b35"),
    "gap1d": (lambda: domains.gap_intervals(4), 2.0**-8,
              "54febed7788913d6f2e3f65a7296e6861b225314aea6284dda87938aa937c9f3"),
    "cantor_slit": (lambda: domains.cantor_slit_square(3), 2.0**-7,
                    "ca656bed2eadd54295a1eccb511534a85d028b3096fd7080d306b088f243c24a"),
    "rectangle": (domains.rectangle, 2.0**-4,
                  "4f36d3d8425aba6d8ebbd8e70363eebed62611ef51f3643ed42ac3e0716e6a6d"),
    "disk": (domains.disk, 2.0**-4,
             "1a8758b8af833af07948c47c0e4424c33e0a7a80f83cbc41967db548d522be45"),
    "half_ball": (domains.half_ball, 2.0**-4,
                  "35224a8386b84a984e7815afe1cb119ea835b7dc2bd2389d1dd5c6d8975e82df"),
}


@pytest.mark.parametrize("kind", sorted(MASKS))
def test_domain_mask_digest(kind):
    make, h, digest = MASKS[kind]
    domain = make()
    q, open_mask = domains.build_domain(domain, h)
    payload = {
        "kind": domain.kind,
        "params": domain.params(),
        "q": io.mask_to_payload(q),
        "open": io.mask_to_payload(open_mask),
    }
    assert sha256(io.dumps(payload)) == digest


PROP2 = {
    "rectangle": "27409facff06fa0e426ae0af45aad8877375762cac4204a734a4808e5b9ef368",
    "disk": "033123e36e85c21c8b05fde56af23c0309260fbcf0c78dab2d6df313cb4de057",
    "half_ball": "00ff9a0cc107e24dbd7528cc23f451d5c18cbc76e1c598d799a585d279951025",
}


@pytest.mark.parametrize("kind", sorted(PROP2))
def test_extend_prop2_digest(kind, tmp_path, capsys):
    out = tmp_path / "prop2.json"
    assert main(["extend", "prop2", "--function", "sin_cos", "--domain", kind,
                 "--order", "2", "--h", "0.0625", "--out", str(out)]) == 0
    assert sha256(io.strip_provenance(out.read_text())) == PROP2[kind]


# The glued extension at orders 0 and 1, where the blend and the interface
# scan run on shorter jets than the order-2 pins above.
PROP2_LOW = {
    ("disk", 0): "075b697640024c0e2edcca65c31445ba7ed3a7ace6f9765d3bdcd9cddf5c567c",
    ("disk", 1): "60c4344ee470b6c7f0123e747320e18dd28f87ee8554a756cdaca98b3b6124b5",
    ("half_ball", 0): "39aa937a6010ac2a9f315cb8d1746d4f401e5095fc4b75f609a1f444d536cd41",
    ("half_ball", 1): "3b06d7715084ad4a2e7a134f9baaa934b0db2350ed39b5e36418cf372ff1e29f",
    ("rectangle", 0): "72455952c371f4f189424fe96f3f691af04cbcb22983ce2d838251f1f14231d6",
    ("rectangle", 1): "13b939dfae95ba59f4da6642b01f8f7614341b30e5dc8fbaef77a57f27061e93",
}


@pytest.mark.parametrize("kind,order", sorted(PROP2_LOW),
                         ids=lambda v: str(v))
def test_extend_prop2_low_order_digest(kind, order, tmp_path, capsys):
    out = tmp_path / "prop2.json"
    assert main(["extend", "prop2", "--function", "sin_cos", "--domain", kind,
                 "--order", str(order), "--h", "0.03125",
                 "--out", str(out)]) == 0
    assert sha256(io.strip_provenance(out.read_text())) == (
        PROP2_LOW[(kind, order)])


# The closed-form fields of the irregular domains, sampled on their masks.
SAMPLES = {
    "example3": (["--domain", "comb", "--n-teeth", "3", "--order", "2",
                  "--h", "0.015625", "--mask", "q"],
                 "0d022b578ab5766bea0f8fb6d3072acebe4a1f560728e86b5937ef56630467ee"),
    "gap1d": (["--domain", "gap1d", "--n-segments", "4", "--order", "2",
               "--h", "0.00390625", "--mask", "q"],
              "07f5be0f094f003867d31e1c20af8f47428bb77525a6e0f10a90251624e631ef"),
    "example1": (["--domain", "cantor_slit", "--depth", "3", "--order", "3",
                  "--h", "0.0078125", "--mask", "open"],
                 "3cf6ca2b81f850680a5e70b7cc3e3a238c4d329f2793b7581188b4cf54ad9a9d"),
}


@pytest.mark.parametrize("function", sorted(SAMPLES))
def test_field_sample_digest(function, tmp_path, capsys):
    args, digest = SAMPLES[function]
    out = tmp_path / "field.json"
    assert main(["field", "sample", "--function", function, *args,
                 "--out", str(out)]) == 0
    assert sha256(io.strip_provenance(out.read_text())) == digest


# `space norm --check` reports on stdout: norms, verdict and certificate.
# The comb and cantor order-3 scans are violations whose witness is the first
# of several tied maxima in row-major order.
SCANS = {
    "comb_example3_F1": (
        ["--domain", "comb", "--n-teeth", "3", "--function", "example3",
         "--space", "F", "--order", "1", "--h", "0.015625"], 1,
        "d899aed78fd6029e357e5a0fc0966e69468ee7395767d6fac38a00d8a3a8f097"),
    "cantor_example1_E1": (
        ["--domain", "cantor_slit", "--depth", "4", "--function", "example1",
         "--space", "E", "--order", "1", "--h", "0.00390625"], 0,
        "e8c4262253d492088ef1455dab7ba2d07af6215633405c04f662d5ccf9b0578a"),
    "cantor_example1_E3": (
        ["--domain", "cantor_slit", "--depth", "4", "--function", "example1",
         "--space", "E", "--order", "3", "--h", "0.00390625"], 1,
        "1414a42527b50c562430375929928abe15b03f89477945b2cecdf051ee77c91e"),
    "sin_cos_rectangle_field_F": (
        ["--field", "field.json", "--space", "F"], 0,
        "977d9cf8da6b5e82da54c659d73088da0e27e30665cbed0fb0d09865d1ba6b75"),
}


@pytest.mark.parametrize("case", sorted(SCANS))
def test_scan_report_digest(case, tmp_path, monkeypatch, capsys):
    args, code, digest = SCANS[case]
    monkeypatch.chdir(tmp_path)  # the --field path is the report's source
    if "--field" in args:
        assert main(["field", "sample", "--function", "sin_cos", "--domain",
                     "rectangle", "--order", "1", "--h", "0.0078125",
                     "--out", "field.json"]) == 0
        capsys.readouterr()
    assert main(["space", "norm", *args, "--check"]) == code
    assert sha256(capsys.readouterr().out) == digest


# `field sample --csv` files, byte for byte: the rectangle file has 66,049
# rows, more than one encoding block.
CSVS = {
    "sin_cos_rectangle": (
        ["--function", "sin_cos", "--domain", "rectangle", "--order", "1",
         "--h", "0.00390625", "--mask", "q"],
        "17cc0653ab38aa898efe9ac26e9be2fb810488d0c7a9162d53c74b44f4422f4f"),
    "example3_comb": (
        ["--function", "example3", "--domain", "comb", "--n-teeth", "3",
         "--order", "2", "--h", "0.015625", "--mask", "q"],
        "874f29c67fd1b01d08385d0bb399d5a93af840b74f4786bea60e6729e206775b"),
}


@pytest.mark.parametrize("case", sorted(CSVS))
def test_field_sample_csv_digest(case, tmp_path, capsys):
    args, digest = CSVS[case]
    out = tmp_path / "field.csv"
    assert main(["field", "sample", *args, "--out", str(tmp_path / "f.json"),
                 "--csv", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_hestenes_extend_digest(tmp_path, capsys):
    field, out = tmp_path / "field.json", tmp_path / "extended.json"
    assert main(["field", "sample", "--function", "sin_cos", "--domain",
                 "rectangle", "--order", "2", "--h", "0.0625",
                 "--out", str(field)]) == 0
    assert main(["hestenes", "extend", "--in", str(field), "--order", "2",
                 "--width", "4", "--axis", "0", "--out", str(out)]) == 0
    assert sha256(io.strip_provenance(out.read_text())) == (
        "43a7bf5a1d39d9411b8259e87969e20942d67e9953fce481e13bce6cdd516c2f")


# `certify --n-max 20` payloads and the stdout of replaying each of them.
CERTS = {
    "comb": ("20451b98179255cfced8e7fb4c756739c38fa56434a2f9f49e92f57061a7bff7",
             "4a3c6c5e5a5b2b5b4b06b88bb679e5bd401cb28b4a1c971431d00293dcf5990a"),
    "gap1d": ("6f8aee10734f316838b8cd3500a0e6d1b66999313a8e1241660eed0568298561",
              "132d69068762a36f17518fa5e90657a8f95100eae6df5cfb32737a3f8a3e7f41"),
    "cantorslit": (
        "e2a4869230349070a9f3c217185579e237efb30c0a041522617756615239d982",
        "b7c84728a12e7ef28739105f6e8911dc17519431d7bb31742d34e5f8d3570271"),
}


@pytest.mark.parametrize("which", sorted(CERTS))
def test_certificate_digest(which, tmp_path, capsys):
    payload_digest, replay_digest = CERTS[which]
    out = tmp_path / "cert.json"
    assert main(["certify", which, "--n-max", "20", "--out", str(out)]) == 0
    assert sha256(io.strip_provenance(out.read_text())) == payload_digest
    capsys.readouterr()
    assert main(["replay", "--cert", str(out)]) == 0
    assert sha256(capsys.readouterr().out) == replay_digest


def test_certificate_csv_digest(tmp_path, capsys):
    out = tmp_path / "cert.csv"
    assert main(["certify", "cantorslit", "--n-max", "20",
                 "--out", str(tmp_path / "cert.json"), "--csv", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "b250ca6e84e81504b20344971ccbca6ab501a235aca855f6d601d08c379c6013")
