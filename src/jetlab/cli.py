"""Command-line surface.

Every artifact the commands write is deterministic: fixed key order, fixed
float formatting, no timestamps.  The provenance block carries the command
line and the active defaults; it is the part excluded from byte-for-byte
comparisons between runs.

Exit codes: 0 success, 1 a requested verification failed (membership or
replay), 2 usage or validation errors, unreadable inputs, unwritable
outputs or a lattice too large to allocate.

Each command imports the modules it runs and calls into them through the
module (domains.build_domain, functions.get_function, ...), so a wrapper
set on a module attribute, as perfbench/traced_cli.py sets them, applies.
The parser imports none of them, so --help loads the package, this module
and jetlab.errors alone; certify and io import no numpy, so certify and
replay start without it.  main runs OpenBLAS on one thread unless the
caller set OPENBLAS_NUM_THREADS: jetlab is single-threaded, and its only
BLAS calls are the (n, 2) @ (2, 2) maps of affine charts.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys

from . import DEFAULT_CEILING, __version__
from .errors import JetlabError, ReplayMismatchError

DEFAULTS = {
    "h": 2.0**-10,
    "h_prop2": 2.0**-5,
    "order": 1,
    "n_max": 20,
    "tol": 1e-2,
    "margin": 0.5,
    "ceiling": DEFAULT_CEILING,
    "depth": 4,
    "n_teeth": 6,
    "n_segments": 8,
    "replay_tolerance": 1e-12,
}

# the domain kinds' parameter flags (Domain.required_fields)
_PARAMS = ("depth", "n_teeth", "n_segments")


def _module(name: str):
    return importlib.import_module(f".{name}", __package__)


class _Choices:
    """argparse choices that names() lists when argparse first reads them."""

    def __init__(self, names):
        self.names = names

    def __contains__(self, name) -> bool:
        return name in self.names()

    def __iter__(self):
        return iter(self.names())


_FUNCTIONS = _Choices(lambda: _module("functions").function_names())
_KINDS = _Choices(lambda: _module("domains").KINDS)
_CHARTABLE = _Choices(lambda: _module("domains").CHARTABLE)


def _provenance(argv: list[str]) -> dict:
    return {
        "tool": "jetlab",
        "version": __version__,
        "command": "jetlab " + " ".join(argv),
        "defaults": dict(DEFAULTS),
    }


def _float_type(accepts, what: str):
    """The argparse type of a float for which accepts(value) holds."""
    def number(text: str) -> float:  # argparse names it for a non-number
        value = float(text)
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"must be {what}, not {text!r}")
        return value
    return number


_positive_float = _float_type(lambda v: math.isfinite(v) and v > 0.0,
                              "a positive finite number")
_finite_float = _float_type(math.isfinite, "a finite number")
_sign = _float_type(lambda v: v in (1.0, -1.0), "1 or -1")  # a wall side


def _add_choice_arg(p: argparse.ArgumentParser, flag: str,
                    choices: _Choices, required: bool) -> None:
    # a metavar: argparse would otherwise list the choices as it adds them
    p.add_argument(flag, required=required, choices=choices,
                   metavar=flag[2:].upper(), help="one of %(choices)s")


def _add_domain_args(p: argparse.ArgumentParser,
                     required: bool = True) -> None:
    _add_choice_arg(p, "--domain", _KINDS, required)
    for name in _PARAMS:
        p.add_argument("--" + name.replace("_", "-"), type=int)


def _check_flags(args) -> None:
    """Refuse each flag given that the chosen path does not read; set
    DEFAULTS on each None-default flag it reads: a kind's parameter
    (--depth also DEPTH_FIELD's) and space norm's --h, --order and --tol."""
    flags = vars(args)
    if "domain" not in flags:  # a command with no --domain reads every flag
        return
    path = f"{args.command} {args.subcommand}"
    reads = {"tol"} if flags.get("check", True) else set()
    if flags.get("field") is not None:
        path += " --field"
    else:
        path += "".join(f" --{k} {flags[k]}" for k in ("domain", "function")
                        if flags.get(k) is not None)
        reads |= {"function", "domain", "order", "h"}
        if flags.get("domain"):
            kind = _module("domains").KINDS[args.domain]
            reads.update(kind.required_fields())
        if flags.get("function") == _module("functions").DEPTH_FIELD:
            reads.add("depth")
            flags.setdefault("depth", None)  # extend prop2 has no --depth
    unread = ["--" + k.replace("_", "-")
              for k in ("function", "domain", *_PARAMS, "order", "h", "tol")
              if k not in reads and flags.get(k) is not None]
    if unread:
        raise JetlabError(f"{path} does not read {', '.join(unread)}")
    for k in reads:
        if flags.get(k, 0) is None:
            if k not in DEFAULTS:  # space norm's --domain or --function
                raise JetlabError("space norm needs --field or (--domain "
                                  "and --function)")
            flags[k] = DEFAULTS[k]


def _domain_and_function(args):
    """The --domain object, built by its kind's class, and the --function
    jet (None for domain build), checked to share a dim."""
    from . import domains, functions
    kind = domains.KINDS[args.domain]
    domain = kind(*(getattr(args, name) for name in kind.required_fields()))
    if "function" not in args:
        return domain, None
    jet = functions.get_function(args.function, getattr(args, "depth", None))
    if jet.dim != domain.dim:
        raise JetlabError(f"function {args.function} is {jet.dim}-D but "
                          f"domain {domain.kind} is {domain.dim}-D")
    return domain, jet


def _cmd_domain_build(args, argv) -> int:
    from . import domains, io
    domain, _ = _domain_and_function(args)
    q, open_mask = domains.build_domain(domain, args.h)
    payload = {
        "kind": domain.kind,
        "params": domain.params(),
        "h": args.h,
        "q": io.mask_to_payload(q),
        "open": io.mask_to_payload(open_mask),
        "q_count": q.count,
        "open_count": open_mask.count,
    }
    io.write_artifact(args.out, payload, _provenance(argv))
    if args.csv:
        io.mask_to_csv(q, args.csv)
    print(f"wrote {args.out}: {q.count} Q points, {open_mask.count} open points")
    return 0


def _cmd_field_sample(args, argv) -> int:
    from . import domains, io
    domain, jet = _domain_and_function(args)
    # held whole: sample walks the held mask, and the jet keeps it
    q, open_mask = (m.held() for m in domains.build_domain(domain, args.h))
    mask = open_mask if args.mask == "open" else q
    sampled = jet.sample(mask, order=args.order)
    payload = {
        "function": args.function,
        "domain": domain.kind,
        "mask": args.mask,
        "jet": io.jet_to_payload(sampled),
    }
    io.write_artifact(args.out, payload, _provenance(argv))
    if args.csv:
        io.jet_to_csv(sampled, args.csv)
    print(f"wrote {args.out}: order {args.order} jet on {mask.count} points")
    return 0


def _cmd_hestenes_coeffs(args, argv) -> int:
    from . import hestenes, io
    coeffs = hestenes.solve_coefficients(args.order)
    floats = " ".join(io.format_float(v) for v in coeffs.floats())
    rationals = " ".join(map(str, coeffs.values))
    print(f"order {args.order}")
    print(f"rational: {rationals}")
    print(f"decimal:  {floats}")
    print(f"abs_sum:  {io.format_float(coeffs.abs_sum())}")
    if args.out:
        payload = {
            "order": args.order,
            "values": [io.fraction_pair(v) for v in coeffs.values],
            "floats": list(coeffs.floats()),
            "abs_sum": coeffs.abs_sum(),
        }
        io.write_artifact(args.out, payload, _provenance(argv))
    return 0


def _cmd_hestenes_extend(args, argv) -> int:
    from . import hestenes, io
    jet = io.read_jet(args.infile)
    coeffs = hestenes.solve_coefficients(args.order)
    result = hestenes.extend_half_space_lattice(
        jet, coeffs, width=args.width, axis=args.axis,
        boundary=args.boundary, inward=args.inward,
    )
    out_payload = {
        "jet": io.jet_to_payload(result.jet),
        "order": args.order,
        "width": args.width,
        "probe_offset_max": result.probe_offset_max,
    }
    io.write_artifact(args.out, out_payload, _provenance(argv))
    print(
        f"wrote {args.out}: extended {jet.mask.count} -> "
        f"{result.jet.mask.count} points, probe offset "
        f"{io.format_float(result.probe_offset_max)}"
    )
    return 0


def _cmd_extend_prop2(args, argv) -> int:
    from . import glue, grid, io
    domain, jet = _domain_and_function(args)
    result = glue.global_extend(jet, domain, args.order, h=args.h,
                                margin=args.margin)
    try:
        mismatch = glue.interface_jet_mismatch(result.field, h=DEFAULTS["h"])
        payload = {
            "domain": domain.kind,
            "function": args.function,
            "order": args.order,
            "h": args.h,
            "margin": args.margin,
            "jet": io.jet_to_payload(result.jet),
            "metadata": {
                "charts": [c.describe() for c in result.field.charts],
                "assignment": list(result.field.partition.assignment),
                "sum_residual": result.sum_residual,
                "uncovered_points": result.uncovered_points,
                "interface_mismatch": {
                    grid.alpha_key(a): v for a, v in mismatch.items()
                },
            },
        }
        io.write_artifact(args.out, payload, _provenance(argv))
        if args.csv:
            io.jet_to_csv(result.jet.held(), args.csv)
    finally:
        result.jet.close()
    worst = max(mismatch.values())
    print(
        f"wrote {args.out}: window {result.window.extents}, "
        f"partition residual {result.sum_residual:.3g}, "
        f"interface mismatch {worst:.3g}"
    )
    return 0


def _cmd_space_norm(args, argv) -> int:
    from . import domains, grid, io, spaces
    label = "Omega" if args.space == "E" else "Q"
    wanted = "open" if args.space == "E" else "q"  # the mask the space reads
    if args.field:
        payload = io.read_artifact(args.field)
        # field sample records the mask it sampled beside the jet
        recorded = payload.get("mask") if "jet" in payload else None
        if isinstance(recorded, str) and recorded != wanted:
            raise JetlabError(f"{args.field} holds a jet on mask {recorded!r}; "
                              f"space {args.space} reads mask {wanted!r}")
        jet = io.jet_from_payload(payload.get("jet", payload))
        mask, order, blocks = jet.mask, jet.order, jet.blocks()
        source = args.field
        # extend prop2 writes the glued window, hestenes extend Q and a band
        label = ("window" if "margin" in payload else
                 "extended" if "width" in payload else label)
    else:
        domain, analytic = _domain_and_function(args)
        # rasterized one row block at a time as the walk reaches it, each
        # block checked against the field's region before it is evaluated
        mask, = domains.build_domain(domain, args.h, (wanted,))
        order = args.order
        analytic.check_mask(mask, "mask point")
        blocks = grid.walk(analytic.evaluator, mask, order)
        source = f"{args.function} on {domain.kind}"
    # one walk of the blocks serves the report and the scan
    reduction = spaces.reduce_blocks(blocks, mask, order, args.check)
    report = spaces.norm_report(reduction, args.space, label)
    out_payload = {"source": source, "norm": report.to_payload()}
    verdict = None
    if args.check:
        checker = (spaces.check_membership_e if args.space == "E"
                   else spaces.check_membership_f)
        verdict = checker(reduction, tol=args.tol)
        out_payload["membership"] = verdict.to_payload()
    if args.out:
        io.write_artifact(args.out, out_payload, _provenance(argv))
    else:
        sys.stdout.write(io.dumps(out_payload) + "\n")
    print(f"overall {args.space}-norm {io.format_float(report.overall)}")
    if verdict is not None:
        print(f"membership: {verdict.verdict}")
        if not verdict.consistent:
            return 1
    return 0


def _cmd_certify(args, argv) -> int:
    import csv

    from . import certify, io
    name = {"cantorslit": "cantor_slit"}.get(args.which, args.which)
    # a kind's parser holds exactly the flags its builder reads
    kwargs = {key: getattr(args, key) for key in ("n_max", "ceiling", "depth")
              if key in args}
    cert = certify.certify(name, **kwargs)
    if not cert.validate():
        print("certificate failed its own validity invariant", file=sys.stderr)
        return 1
    io.write_artifact(args.out, cert.to_payload(), _provenance(argv))
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [io.format_float(v) if isinstance(v, float) else v
                 for v in row] for row in cert.csv_rows())
    if cert.diverges:
        print(
            f"wrote {args.out}: diverges, first |d_n| > "
            f"{cert.config['ceiling']:g} at n = {cert.first_exceed_n}"
        )
    else:
        print(f"wrote {args.out}: gap {io.format_float(cert.gap)}")
    return 0


def _cmd_replay(args, argv) -> int:
    from . import certify, io
    payload = io.read_artifact(args.cert)
    cert = certify.Certificate.from_payload(payload)
    try:
        certify.replay_certificate(cert, tolerance=args.tolerance)
    except ReplayMismatchError as err:
        print(f"replay failed: {err}", file=sys.stderr)
        return 1
    print(f"replay of {cert.domain} certificate: all "
          f"{len(cert.terms)} terms reproduce")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetlab",
        description="Extension operators, norms, and counterexample "
                    "certificates on rasterized planar domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("domain", help="rasterize domains")
    dsub = p.add_subparsers(dest="subcommand", required=True)
    pb = dsub.add_parser("build", help="build Q and open-set masks")
    _add_domain_args(pb)
    pb.add_argument("--h", type=_positive_float, default=DEFAULTS["h"])
    pb.add_argument("--out", required=True)
    pb.add_argument("--csv")
    pb.set_defaults(func=_cmd_domain_build)

    p = sub.add_parser("field", help="sample closed-form fields")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    pf = fsub.add_parser("sample", help="sample a field on a domain mask")
    _add_choice_arg(pf, "--function", _FUNCTIONS, required=True)
    _add_domain_args(pf)
    pf.add_argument("--order", type=int, default=DEFAULTS["order"])
    pf.add_argument("--h", type=_positive_float, default=DEFAULTS["h"])
    pf.add_argument("--mask", choices=("q", "open"), default="q")
    pf.add_argument("--out", required=True)
    pf.add_argument("--csv")
    pf.set_defaults(func=_cmd_field_sample)

    p = sub.add_parser("hestenes", help="flat-wall reflection extension")
    hsub = p.add_subparsers(dest="subcommand", required=True)
    pc = hsub.add_parser("coeffs", help="solve the reflection weights")
    pc.add_argument("--order", type=int, required=True)
    pc.add_argument("--out")
    pc.set_defaults(func=_cmd_hestenes_coeffs)
    pe = hsub.add_parser("extend", help="extend a sampled jet past the wall")
    pe.add_argument("--in", dest="infile", required=True)
    pe.add_argument("--order", type=int, default=DEFAULTS["order"])
    pe.add_argument("--width", type=int, required=True)
    pe.add_argument("--axis", type=int, default=0)
    pe.add_argument("--boundary", type=_finite_float, default=0.0)
    pe.add_argument("--inward", type=_sign, default=1.0)
    pe.add_argument("--out", required=True)
    pe.set_defaults(func=_cmd_hestenes_extend)

    p = sub.add_parser("extend", help="global extension pipeline")
    esub = p.add_subparsers(dest="subcommand", required=True)
    pp = esub.add_parser("prop2", help="chart, reflect, and glue")
    _add_choice_arg(pp, "--domain", _CHARTABLE, required=True)
    _add_choice_arg(pp, "--function", _FUNCTIONS, required=True)
    pp.add_argument("--order", type=int, default=DEFAULTS["order"])
    pp.add_argument("--h", type=_positive_float, default=DEFAULTS["h_prop2"],
                    help="lattice step of the exported window jet "
                         "(finer than 2^-7 gets large)")
    pp.add_argument("--margin", type=_positive_float,
                    default=DEFAULTS["margin"])
    pp.add_argument("--out", required=True)
    pp.add_argument("--csv")
    pp.set_defaults(func=_cmd_extend_prop2)

    p = sub.add_parser("space", help="norms and membership scans")
    ssub = p.add_subparsers(dest="subcommand", required=True)
    pn = ssub.add_parser("norm", help="sup-norm report of a sampled jet")
    pn.add_argument("--field", help="jet artifact to read")
    _add_choice_arg(pn, "--function", _FUNCTIONS, required=False)
    _add_domain_args(pn, required=False)
    pn.add_argument("--space", choices=("F", "E"), default="F")
    pn.add_argument("--order", type=int)
    pn.add_argument("--h", type=_positive_float)
    pn.add_argument("--tol", type=_positive_float, help="tolerance of --check")
    pn.add_argument("--check", action="store_true",
                    help="also run the membership scan; exit 1 on violation")
    pn.add_argument("--out")
    pn.set_defaults(func=_cmd_space_norm)

    p = sub.add_parser("certify", help="build counterexample certificates")
    ksub = p.add_subparsers(dest="which", required=True)
    for which in ("comb", "gap1d", "cantorslit"):
        pk = ksub.add_parser(which)
        pk.add_argument("--n-max", type=int, default=DEFAULTS["n_max"])
        if which == "cantorslit":
            pk.add_argument("--ceiling", type=_positive_float,
                            default=DEFAULTS["ceiling"])
            pk.add_argument("--depth", type=int, default=DEFAULTS["depth"])
        pk.add_argument("--out", required=True)
        pk.add_argument("--csv")
        pk.set_defaults(func=_cmd_certify)

    p = sub.add_parser("replay", help="recompute a stored certificate")
    p.add_argument("--cert", required=True)
    p.add_argument("--tolerance", type=_positive_float,
                   default=DEFAULTS["replay_tolerance"])
    p.set_defaults(func=_cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # before any command imports numpy; a value the caller set stays
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args, argv)
    except (JetlabError, ValueError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
