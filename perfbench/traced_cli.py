"""Run one ``jetlab`` command with spans around the calls into each layer.

Usage::

    python perfbench/traced_cli.py <trace-out.json> <command-id> <jetlab args...>

The wrappers are installed at runtime from this file; nothing under ``src/``
is changed.  Spans (name, start, end, parent index) and exact counters are
kept in memory and written to ``<trace-out.json>`` when the command returns.
The process exits with the command's own exit code.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import Counter

from jetlab import certify, cli, domains, functions, glue, grid, hestenes, io, spaces

_now = time.perf_counter


class Tracer:
    """In-memory span and counter store for one command."""

    def __init__(self, command_id: str):
        self.command_id = command_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _now(), None, parent])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = _now()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a spanned call; ``after`` sees the result."""
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def spanned(*args, **kwargs):
            index = self.begin(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, spanned)

    def count_calls(self, owner, attr: str, counter: str) -> None:
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def counted(*args, **kwargs):
            self.counters[counter] += 1
            return inner(*args, **kwargs)

        setattr(owner, attr, counted)

    def counting_evaluator(self, evaluator):
        """Source evaluator that records calls, points and time."""

        def evaluate(pts, alpha):
            n = math.prod(pts.shape[:-1])
            self.counters["functions.eval_calls"] += 1
            self.counters["functions.eval_points"] += n
            if self.inside("glue.extend"):
                self.counters["functions.eval_points_in_extend"] += n
            index = self.begin("functions.eval")
            try:
                return evaluator(pts, alpha)
            finally:
                self.end(index)

        return evaluate

    def to_payload(self) -> dict:
        return {
            "id": self.command_id,
            "spans": self.spans,
            "counters": dict(self.counters),
        }


def _file_bytes(counter: str, tracer: Tracer, path_arg: int):
    def after(args, _result):
        tracer.counters[counter] += os.path.getsize(args[path_arg])
    return after


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the CLI calls into."""
    t = tracer
    c = t.counters

    def built_domain(_args, result):
        c["domains.lattice_points"] += result[0].grid.point_count

    t.wrap(domains, "build_domain", "domains.build", built_domain)
    t.wrap(domains, "regular_q_member", "domains.q_member")

    t.wrap(grid.GridMask, "__post_init__", "grid.construct")
    t.wrap(grid.SampledJet, "__post_init__", "grid.construct")

    def got_function(_args, jet):
        jet.evaluator = t.counting_evaluator(jet.evaluator)

    t.wrap(functions, "get_function", "functions.get", got_function)
    t.wrap(functions.AnalyticJet, "sample", "functions.sample")

    def reflected(_args, _result):
        c["hestenes.reflect_calls"] += 1

    def lattice_extended(args, result):
        c["hestenes.band_points"] += result.jet.mask.count - args[0].mask.count

    t.wrap(hestenes.HalfSpaceExtension, "partial_many", "hestenes.reflect",
           reflected)
    t.wrap(hestenes, "extend_half_space_lattice", "hestenes.lattice",
           lattice_extended)
    t.count_calls(hestenes.HestenesCoefficients, "weight_longdouble",
                  "hestenes.weight_calls")

    def extended(_args, result):
        c["glue.window_points"] += result.window.point_count
        c["glue.exterior_points"] += int((~result.q_mask.member).sum())
        c["glue.uncovered_points"] += int(result.uncovered_points)

    t.wrap(glue, "global_extend", "glue.extend", extended)
    t.wrap(glue, "build_partition", "glue.partition")
    t.wrap(glue, "interface_jet_mismatch", "glue.interface")

    def scanned(args, _result):
        c["spaces.scan_points"] += args[0].mask.count

    t.wrap(spaces, "norm_report", "spaces.norm")
    t.wrap(spaces, "check_membership_f", "spaces.scan", scanned)
    t.wrap(spaces, "check_membership_e", "spaces.scan", scanned)

    def built_cert(_args, cert):
        c["certify.terms"] += len(cert.terms)

    def replayed(args, _result):
        c["certify.terms"] += len(args[0].terms)

    t.wrap(certify, "certify", "certify.build", built_cert)
    t.wrap(certify, "replay_certificate", "certify.replay", replayed)

    t.wrap(io, "write_artifact", "io.write", _file_bytes("io.write_bytes", t, 0))
    t.wrap(io, "read_artifact", "io.read", _file_bytes("io.read_bytes", t, 0))
    t.wrap(io, "jet_to_csv", "io.csv", _file_bytes("io.csv_bytes", t, 1))
    t.wrap(io, "mask_to_csv", "io.csv", _file_bytes("io.csv_bytes", t, 1))
    for name in ("mask_to_payload", "jet_to_payload", "mask_from_payload",
                 "jet_from_payload"):
        t.wrap(io, name, "io.convert")


def main(argv: list[str]) -> int:
    out_path, command_id, args = argv[0], argv[1], argv[2:]
    tracer = Tracer(command_id)
    install(tracer)
    root = tracer.begin("cli.main")
    try:
        code = cli.main(args)
    except SystemExit as exc:  # argparse errors; same codes as sys.exit
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        tracer.end(root)
        with open(out_path, "w", encoding="ascii") as fh:
            json.dump(tracer.to_payload(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
