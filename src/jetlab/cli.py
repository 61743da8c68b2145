"""Command-line surface.

Every artifact the commands write is deterministic: fixed key order, fixed
float formatting, no timestamps.  The provenance block carries the command
line and the active defaults; it is the part excluded from byte-for-byte
comparisons between runs.

Exit codes: 0 success, 1 a requested verification failed (membership or
replay), 2 usage or validation errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__, certify, domains, functions, glue, hestenes, io, spaces
from .errors import JetlabError, ReplayMismatchError
from .grid import alpha_key

DEFAULTS = {
    "h": 2.0**-10,
    "h_prop2": 2.0**-5,
    "order": 1,
    "n_max": 20,
    "tol": 1e-2,
    "margin": 0.5,
    "ceiling": 1e3,
    "depth": 4,
    "n_teeth": 6,
    "n_segments": 8,
    "replay_tolerance": 1e-12,
}

_DOMAIN_KINDS = ("comb", "gap1d", "cantor_slit", "rectangle", "disk",
                 "half_ball")


def _provenance(argv: list[str]) -> dict:
    return {
        "tool": "jetlab",
        "version": __version__,
        "command": "jetlab " + " ".join(argv),
        "defaults": dict(DEFAULTS),
    }


def _add_domain_args(p: argparse.ArgumentParser, kinds=_DOMAIN_KINDS) -> None:
    p.add_argument("--domain", required=True, choices=kinds)
    p.add_argument("--depth", type=int, default=DEFAULTS["depth"],
                   help="cover level for cantor_slit")
    p.add_argument("--n-teeth", type=int, default=DEFAULTS["n_teeth"])
    p.add_argument("--n-segments", type=int, default=DEFAULTS["n_segments"])


def _domain_spec(args) -> domains.DomainSpec:
    kind = args.domain
    if kind == "comb":
        return domains.comb(args.n_teeth)
    if kind == "gap1d":
        return domains.gap_intervals(args.n_segments)
    if kind == "cantor_slit":
        return domains.cantor_slit_square(args.depth)
    if kind == "rectangle":
        return domains.rectangle()
    if kind == "disk":
        return domains.disk()
    return domains.half_ball()


def _cmd_domain_build(args, argv) -> int:
    spec = _domain_spec(args)
    q, open_mask = domains.build_domain(spec, args.h)
    payload = {
        "kind": spec.kind,
        "params": spec.params(),
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
    spec = _domain_spec(args)
    q, open_mask = domains.build_domain(spec, args.h)
    jet = functions.get_function(args.function, order=args.order,
                                 depth=args.depth)
    mask = open_mask if args.mask == "open" else q
    sampled = jet.sample(mask, order=args.order)
    payload = {
        "function": args.function,
        "domain": spec.kind,
        "mask": args.mask,
        "jet": io.jet_to_payload(sampled),
    }
    io.write_artifact(args.out, payload, _provenance(argv))
    if args.csv:
        io.jet_to_csv(sampled, args.csv)
    print(f"wrote {args.out}: order {args.order} jet on {mask.count} points")
    return 0


def _cmd_hestenes_coeffs(args, argv) -> int:
    coeffs = hestenes.solve_coefficients(args.order)
    floats = " ".join(io.format_float(v) for v in coeffs.floats())
    rationals = " ".join(
        f"{v.numerator}/{v.denominator}" if v.denominator != 1
        else str(v.numerator)
        for v in coeffs.values
    )
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
    payload = io.read_artifact(args.infile)
    jet = io.jet_from_payload(payload.get("jet", payload))
    coeffs = hestenes.solve_coefficients(args.order)
    result = hestenes.extend_half_space_lattice(
        jet, coeffs, width=args.width, axis=args.axis,
        boundary=args.boundary, inward=args.inward,
    )
    out_payload = {
        "jet": io.jet_to_payload(result.jet),
        "order": args.order,
        "width": result.width,
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
    spec = _domain_spec(args)
    jet = functions.get_function(args.function, order=max(args.order, 2),
                                 depth=args.depth)
    result = glue.global_extend(
        jet, spec, args.order, h=args.h, margin=args.margin,
        workers=args.workers,
    )
    mismatch = glue.interface_jet_mismatch(result.field, h=DEFAULTS["h"])
    payload = {
        "domain": spec.kind,
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
                alpha_key(a): v for a, v in mismatch.items()
            },
        },
    }
    io.write_artifact(args.out, payload, _provenance(argv))
    if args.csv:
        io.jet_to_csv(result.jet, args.csv)
    worst = max(mismatch.values())
    print(
        f"wrote {args.out}: window {result.window.extents}, "
        f"partition residual {result.sum_residual:.3g}, "
        f"interface mismatch {worst:.3g}"
    )
    return 0


def _cmd_space_norm(args, argv) -> int:
    if args.field:
        payload = io.read_artifact(args.field)
        jet = io.jet_from_payload(payload.get("jet", payload))
        label = args.field
    else:
        if not args.function or not args.domain:
            print("space norm needs --field or (--domain and --function)",
                  file=sys.stderr)
            return 2
        spec = _domain_spec(args)
        q, open_mask = domains.build_domain(spec, args.h)
        analytic = functions.get_function(args.function, order=args.order,
                                          depth=args.depth)
        mask = open_mask if args.space == "E" else q
        jet = analytic.sample(mask, order=args.order)
        label = f"{args.function} on {spec.kind}"
    report = spaces.norm_report(
        jet, args.space, "Omega" if args.space == "E" else "Q"
    )
    out_payload = {"source": label, "norm": report.to_payload()}
    verdict = None
    if args.check:
        checker = (spaces.check_membership_e if args.space == "E"
                   else spaces.check_membership_f)
        verdict = checker(jet, tol=args.tol)
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
    name = {"cantorslit": "cantor_slit"}.get(args.which, args.which)
    kwargs = {"n_max": args.n_max}
    if name == "cantor_slit":
        kwargs.update(ceiling=args.ceiling, depth=args.depth)
    cert = certify.certify(name, **kwargs)
    if not cert.validate():
        print("certificate failed its own validity invariant", file=sys.stderr)
        return 1
    io.write_artifact(args.out, cert.to_payload(), _provenance(argv))
    if args.csv:
        rows = cert.csv_rows()
        with open(args.csv, "w") as fh:
            for row in rows:
                fh.write(",".join(
                    io.format_float(v) if isinstance(v, float) else str(v)
                    for v in row
                ) + "\n")
    if cert.diverges:
        print(
            f"wrote {args.out}: diverges, first |d_n| > "
            f"{cert.config['ceiling']:g} at n = {cert.first_exceed_n}"
        )
    else:
        print(f"wrote {args.out}: gap {io.format_float(cert.gap)}")
    return 0


def _cmd_replay(args, argv) -> int:
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
    pb.add_argument("--h", type=float, default=DEFAULTS["h"])
    pb.add_argument("--out", required=True)
    pb.add_argument("--csv")
    pb.set_defaults(func=_cmd_domain_build)

    p = sub.add_parser("field", help="sample closed-form fields")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    pf = fsub.add_parser("sample", help="sample a field on a domain mask")
    pf.add_argument("--function", required=True,
                    choices=functions.function_names())
    _add_domain_args(pf)
    pf.add_argument("--order", type=int, default=DEFAULTS["order"])
    pf.add_argument("--h", type=float, default=DEFAULTS["h"])
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
    pe.add_argument("--boundary", type=float, default=0.0)
    pe.add_argument("--inward", type=float, default=1.0)
    pe.add_argument("--out", required=True)
    pe.set_defaults(func=_cmd_hestenes_extend)

    p = sub.add_parser("extend", help="global extension pipeline")
    esub = p.add_subparsers(dest="subcommand", required=True)
    pp = esub.add_parser("prop2", help="chart, reflect, and glue")
    _add_domain_args(pp, kinds=("rectangle", "disk", "half_ball"))
    pp.add_argument("--function", required=True,
                    choices=functions.function_names())
    pp.add_argument("--order", type=int, default=DEFAULTS["order"])
    pp.add_argument("--h", type=float, default=DEFAULTS["h_prop2"],
                    help="lattice step of the exported window jet "
                         "(finer than 2^-7 gets large)")
    pp.add_argument("--margin", type=float, default=DEFAULTS["margin"])
    pp.add_argument("--workers", type=int,
                    default=os.environ.get("JETLAB_THREADS", "1"))
    pp.add_argument("--out", required=True)
    pp.add_argument("--csv")
    pp.set_defaults(func=_cmd_extend_prop2)

    p = sub.add_parser("space", help="norms and membership scans")
    ssub = p.add_subparsers(dest="subcommand", required=True)
    pn = ssub.add_parser("norm", help="sup-norm report of a sampled jet")
    pn.add_argument("--field", help="jet artifact to read")
    pn.add_argument("--function", choices=functions.function_names())
    pn.add_argument("--domain", choices=_DOMAIN_KINDS)
    pn.add_argument("--depth", type=int, default=DEFAULTS["depth"])
    pn.add_argument("--n-teeth", type=int, default=DEFAULTS["n_teeth"])
    pn.add_argument("--n-segments", type=int, default=DEFAULTS["n_segments"])
    pn.add_argument("--space", choices=("F", "E", "G"), default="F")
    pn.add_argument("--order", type=int, default=DEFAULTS["order"])
    pn.add_argument("--h", type=float, default=DEFAULTS["h"])
    pn.add_argument("--tol", type=float, default=DEFAULTS["tol"])
    pn.add_argument("--check", action="store_true",
                    help="also run the membership scan; exit 1 on violation")
    pn.add_argument("--out")
    pn.set_defaults(func=_cmd_space_norm)

    p = sub.add_parser("certify", help="build counterexample certificates")
    p.add_argument("which", choices=("comb", "gap1d", "cantorslit"))
    p.add_argument("--n-max", type=int, default=DEFAULTS["n_max"])
    p.add_argument("--ceiling", type=float, default=DEFAULTS["ceiling"])
    p.add_argument("--depth", type=int, default=DEFAULTS["depth"])
    p.add_argument("--out", required=True)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("replay", help="recompute a stored certificate")
    p.add_argument("--cert", required=True)
    p.add_argument("--tolerance", type=float,
                   default=DEFAULTS["replay_tolerance"])
    p.set_defaults(func=_cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except JetlabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
