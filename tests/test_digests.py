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

Each pinned mask and jet payload also has a content digest, taken of what
``io.read_artifact`` reads back and so independent of how the arrays are
encoded: a change of the array format moves the text digest and keeps the
content digest.  The content digests were recorded with the version 1
arrays (JSON lists); the text digests of those payloads are of the version 2
arrays (base64), and the content digests did not move between the two.
"""

import hashlib

import numpy as np
import pytest

from jetlab import domains, io
from jetlab.cli import main
from jetlab.grid import alpha_key


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def content_digest(path) -> str:
    """sha256 of an artifact's content as ``io.read_artifact`` reads it.

    Each mask and jet payload is decoded by ``io.mask_from_payload`` or
    ``io.jet_from_payload``, and each of its arrays counts by key path,
    dtype, shape and raw little-endian bytes.  Every other value counts by
    key path, type and repr; an ndarray the reader returns for a list counts
    as that list.
    """
    digest = hashlib.sha256()

    def add(key, text, data=b""):
        digest.update(f"{key}\t{text}\n".encode("ascii"))
        digest.update(data)

    def visit(key, node):
        if isinstance(node, dict) and "grid" in node and "mask" in node:
            arrays = {}
            if "components" in node:
                jet = io.jet_from_payload(node)
                mask = jet.mask
                add(f"{key}/order", repr(jet.order))
                arrays = {f"{key}/components/{alpha_key(a)}": jet.components[a]
                          for a in jet.alphas()}
            else:
                mask = io.mask_from_payload(node)
            visit(f"{key}/grid", io.grid_to_payload(mask.grid))
            for name, arr in {f"{key}/mask": mask.member, **arrays}.items():
                arr = arr.astype(arr.dtype.newbyteorder("<"), order="C")
                add(name, f"{arr.dtype.str} {arr.shape}", arr.tobytes())
        elif isinstance(node, dict):
            for k, value in node.items():
                visit(f"{key}/{k}", value)
        elif isinstance(node, (list, np.ndarray)):
            for i, value in enumerate(node.tolist()
                                      if isinstance(node, np.ndarray) else node):
                visit(f"{key}/{i}", value)
        else:
            add(key, f"{type(node).__name__} {node!r}")

    visit("", io.read_artifact(str(path)))
    return digest.hexdigest()


MASKS = {
    "comb": (lambda: domains.Comb(3), 2.0**-6,
             "0bf602881769d5797f1481b7cf4a5a6df5319f21cf3a11866ae4b4df1cecfed4",
             "42f453f7899a7165620fc76fb8ed0ae67f21f1ab9c41fa21b6118a8619183fd0"),
    "gap1d": (lambda: domains.GapIntervals(4), 2.0**-8,
              "ae1826cad5ad3b04452dcd89e1822edba09b45df2c1ec991a6c91fcae6fe6ad0",
              "2ba7686b4ee9294f562c18728367494b8f37b93d0fec26e9cdb46d0b2a762e6b"),
    "cantor_slit": (lambda: domains.CantorSlit(3), 2.0**-7,
                    "0f262754f5e46a1ff67aa484cdb3408d30f393cd90f78242fd78e0fb121d6f37",
                    "81c65811379f9e18d543c33a62c69c9ff8be086984f5e0ca3d5bca379a5644bd"),
    "rectangle": (domains.Rectangle, 2.0**-4,
                  "a9e47ef3e86af0a1cd82e879c2b5e3bc032ccd1e6db0676e3971a4a7c27f4da6",
                  "4a273ddef8aaa1d98a04e1a4d31a12a219c2f0f284c88ad2b6ac8294949552d0"),
    "disk": (domains.Disk, 2.0**-4,
             "584e55251ed223d2b31b4485b2d7f31c8e65b1b8df7cf16fad2bb9aa7450bf11",
             "2994eb6884c7336498f7c54d8852a57dbe90b4c0ecddb5c612c08e1fea247b6f"),
    "half_ball": (domains.HalfBall, 2.0**-4,
                  "e25c57efba1299bea03d866eed9d04f374246fa2eb239a28b374aecfbee9aa95",
                  "ef286a256a660513d9def48afffad4dd3b99908e85be5f66aacbdf900be4d344"),
}


@pytest.mark.parametrize("kind", sorted(MASKS))
def test_domain_mask_digest(kind, tmp_path):
    make, h, digest, content = MASKS[kind]
    domain = make()
    q, open_mask = domains.build_domain(domain, h)
    payload = {
        "kind": domain.kind,
        "params": domain.params(),
        "q": io.mask_to_payload(q),
        "open": io.mask_to_payload(open_mask),
    }
    assert sha256(io.dumps(payload)) == digest
    path = tmp_path / "domain.json"
    io.write_artifact(str(path), payload, {})
    assert content_digest(path) == content


# The order-2 pins below and the disk and rectangle order-1 pins of
# PROP2_LOW were taken again when the glue's chain rule, bump, partition
# quotient and blend became jetlab.taylor's arithmetic, whose sums run in
# another order; the order-0 pins and the half-ball order-1 pin held.  The
# disk and rectangle pins were taken again when the bump and the partition
# quotient became taylor's exp and division recurrences; the half-ball pins
# held.
PROP2 = {
    "rectangle": ("6b92a48ce5b0aa8cafa10abd18de4fddfb8ea60705d0823f0f6ad3e91d3a4090",
                  "d8b5c59634d4f1945d365602e620dbb9769010a60bb08039416a14203445ba50"),
    "disk": ("31c63922b5c82edf7c17e679398f0df893d6cfff274e07782b7e02db21a482ce",
             "d12d7da7c8e0c8dc636995a24b0bf524a137eaddfd556c9b2174fdf978d1b0e3"),
    "half_ball": ("9e30ec4653c3e5cbee8072e2f7d8b50be6b80456d31c3c6ec90e20d873c67596",
                  "4aeeb693fc12b3fc06f323db679b16ead72bf813a99574997f9d21d3dc9c3a8d"),
}


@pytest.mark.parametrize("kind", sorted(PROP2))
def test_extend_prop2_digest(kind, tmp_path, capsys):
    out = tmp_path / "prop2.json"
    assert main(["extend", "prop2", "--function", "sin_cos", "--domain", kind,
                 "--order", "2", "--h", "0.0625", "--out", str(out)]) == 0
    digest, content = PROP2[kind]
    assert sha256(io.strip_provenance(out.read_text())) == digest
    assert content_digest(out) == content


# The glued extension at orders 0 and 1, where the blend and the interface
# scan run on shorter jets than the order-2 pins above.
PROP2_LOW = {
    ("disk", 0): (
        "cb98cfec60b9fbaef739384beb2267ce34155e350f9fdb434e337d16f2b7a0f5",
        "564b78a3bd702282aedfe0472c25c59e8da45d3821eff6b555b9f53ae3fc2f85"),
    ("disk", 1): (
        "040b90f008d9a2ad7c3414c390b56a59c8ce8340aa4021d6e38f450e1ecc5bbe",
        "590c1440c7d90409dcb1a69a27c48faf19b4af42e7b239a2b97693e61ca9ba3e"),
    ("half_ball", 0): (
        "327390e97ff5b13540ca7840daaac20aa8a7d7fbda48688c7850a1d35c1cee2f",
        "9414e3c9bdfb4faad6d1e968304fe5c20b78f80e79df66e98076dc4fdca7e6f4"),
    ("half_ball", 1): (
        "e2701df8c2b2de73dbcb23a7fc875c883b49a33d28b52f52a60fd453219bb5f9",
        "5ef1e397c09007f1c4b804163f34faf287decf1f49a6d78324c5b090b31e0d4f"),
    ("rectangle", 0): (
        "fbcdbb475c3ea3fff3b7627435a7ee2bba4ecadeab23507d40d0c3db5a18967c",
        "b9920753b87aff7e230cc4d013f1824e26456332b4410d6c9aa7619321b903cf"),
    ("rectangle", 1): (
        "b7ad77231061dbf7b373d1bfa1eef716ad93bbe87302f8a7d14050e5720e634c",
        "bef167880202fcf1ebfe4dab9bf0313799c47f556208aac6ac71145cb2708bed"),
}


@pytest.mark.parametrize("kind,order", sorted(PROP2_LOW),
                         ids=lambda v: str(v))
def test_extend_prop2_low_order_digest(kind, order, tmp_path, capsys):
    out = tmp_path / "prop2.json"
    assert main(["extend", "prop2", "--function", "sin_cos", "--domain", kind,
                 "--order", str(order), "--h", "0.03125",
                 "--out", str(out)]) == 0
    digest, content = PROP2_LOW[(kind, order)]
    assert sha256(io.strip_provenance(out.read_text())) == digest
    assert content_digest(out) == content


# The closed-form fields of the irregular domains, sampled on their masks.
# The example1 pin, an order-3 sample, was taken again when its mollifier
# became taylor.exp_neg_recip, whose sums round otherwise.
SAMPLES = {
    "example3": (["--domain", "comb", "--n-teeth", "3", "--order", "2",
                  "--h", "0.015625", "--mask", "q"],
                 "e83795622d4e8eccab54df2e006e278088f2ffce66c64be073d52c1371cfb327",
                 "3534f472dcfbaefb89ec8501439b7128898e9f2aee0c5764ac46eba4cef3f7fd"),
    "gap1d": (["--domain", "gap1d", "--n-segments", "4", "--order", "2",
               "--h", "0.00390625", "--mask", "q"],
              "3e37df94786b908818c616f5e7321482c1309474f827283fc3b0f969a6ce95ac",
              "b5a42575c5e45d18b118cafe0a97f9f9e70757ba865cac5a8b68d4679ef9ec25"),
    "example1": (["--domain", "cantor_slit", "--depth", "3", "--order", "3",
                  "--h", "0.0078125", "--mask", "open"],
                 "b4b7a3e01ffcd8c922aa83dbf09c35a7cffef1504467083650160129647bcaf0",
                 "11dcb842481d252dd252ff1ea66d340830309cb70ee37f5ab56203954b948560"),
}


@pytest.mark.parametrize("function", sorted(SAMPLES))
def test_field_sample_digest(function, tmp_path, capsys):
    args, digest, content = SAMPLES[function]
    out = tmp_path / "field.json"
    assert main(["field", "sample", "--function", function, *args,
                 "--out", str(out)]) == 0
    assert sha256(io.strip_provenance(out.read_text())) == digest
    assert content_digest(out) == content


# `space norm --check` reports on stdout: norms, verdict and certificate.
# The comb and cantor order-3 scans are violations whose witness is the first
# of several tied maxima in row-major order.  The cantor order-3 pin was taken
# again with the example1 sample pin, for the last digits of its norms; its
# verdict and witness held.
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
        "ed5de92af1c78ac0b8220cbec3be9ee4174bda83a8329b6950701692152ad4db"),
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
        "e92a2d510deb950be05a873254c01d3456fefcf8886d111b1495cfa4991ee7dd")
    assert content_digest(out) == (
        "befc18b65fa0a7da1ad2391f12a6ce476fb9ef4fe726c7dec7940a24e3c127bd")


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
