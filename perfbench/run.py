"""Closed-loop benchmark of the ``jetlab`` command line.

Usage::

    python3 perfbench/run.py --workload {artifacts,glue,certificates,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload is a fixed list of ``jetlab`` commands.  One client runs them
in a closed loop: every command is a fresh child process, started only after
the previous one has exited.  A pass runs every command once; passes repeat
while another one fits in ``--seconds``.  The seed only permutes the order
of independent command groups, so the work is the same for every seed.

``--trace 0`` measures end to end with no instrumentation.  ``--trace 1``
alternates untraced passes with passes traced through ``traced_cli.py``,
and reports per-layer self times, exact counters and the tracing overhead.
Outputs of every command are checked after it exits, outside the timed
interval.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the metric
names and units are those of ``BENCHMARK.json``.  See
``perfbench/README.md`` for the workloads and the baseline they showed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SEED_DIGESTS = HERE / "seed_digests.json"

# Dyadic lattice steps, written out so no CLI default is ever used.
H7 = "0.0078125"      # 2^-7
H9 = "0.001953125"    # 2^-9
H10 = "0.0009765625"  # 2^-10

SETUP_REPEATS = 5
# A run must exit within 180 s; a child still running this long is killed.
RUN_LIMIT_S = 170.0

# JETLAB_THREADS and every other variable of the caller's shell stay out.
CHILD_ENV = {
    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    "PYTHONPATH": str(SRC),
    "LC_ALL": "C.UTF-8",
}


# ---------------------------------------------------------------------------
# output checks: each returns (ok, note); a note on a passing command is
# printed every run (known verdicts), a note on a failing one says why


def _expect(pattern: str):
    def check(rc: int, out: str):
        if rc != 0:
            return False, f"exit {rc}"
        if not re.search(pattern, out):
            return False, f"stdout lacks {pattern!r}"
        return True, None
    return check


def _check_prop2(rc: int, out: str):
    if rc != 0:
        return False, f"exit {rc}"
    m = re.search(r"partition residual (\S+), interface mismatch (\S+)", out)
    if not m:
        return False, "no residual/mismatch line"
    residual, mismatch = float(m.group(1)), float(m.group(2))
    if not residual < 1e-9:
        return False, f"partition residual {residual:g} >= 1e-9"
    if not mismatch <= 1e-3:
        return False, f"interface mismatch {mismatch:g} > 1e-3"
    return True, None


def _check_cantor_e3(rc: int, out: str):
    """Exit 1 with 'violation' is the code's genuine verdict, not a crash.

    The modulus tolerance is a flat 1e-2 that does not scale with h, so the
    order-3 scan reads 'violation'.  That stays visible, and is not a failure.
    """
    m = re.search(r"membership: (\S+)", out)
    if rc not in (0, 1) or not m:
        return False, f"exit {rc}" if rc not in (0, 1) else "no verdict"
    verdict = m.group(1)
    if rc == 1 and verdict == "violation":
        return True, ("known verdict: violation (exit 1) under the flat 1e-2 "
                      "modulus tolerance")
    return True, f"verdict now {verdict} (exit {rc})"


_CONSISTENT = r"membership: consistent-at-resolution"


@dataclass(frozen=True)
class Command:
    name: str          # unique id, also the key of the seed digest
    metric: str        # per-subcommand wall-time sum it adds to
    argv: tuple[str, ...]
    check: object
    artifact: str | None = None  # file written with --out
    csv: str | None = None       # file written with --csv


def _cmd(name, metric, check, *argv, artifact=None, csv=None) -> Command:
    return Command(name, metric, tuple(argv), check, artifact, csv)


def _prop2(domain: str) -> list[Command]:
    out = f"prop2_{domain}.json"
    return [_cmd(f"prop2_{domain}", "extend_prop2_s", _check_prop2,
                 "extend", "prop2", "--function", "sin_cos", "--domain",
                 domain, "--order", "2", "--h", H7, "--margin", "0.5",
                 "--out", out, artifact=out)]


def _certify(which: str, check_pattern: str, *extra: str) -> list[Command]:
    out = f"cert_{which}.json"
    return [
        _cmd(f"certify_{which}", "certify_replay_s", _expect(check_pattern),
             "certify", which, "--n-max", "20", *extra, "--out", out,
             artifact=out),
        _cmd(f"replay_{which}", "certify_replay_s",
             _expect(r"all 20 terms reproduce"), "replay", "--cert", out),
    ]


def _cantor_e(order: str, check) -> list[Command]:
    return [_cmd(f"norm_cantor_e{order}", "space_norm_s", check,
                 "space", "norm", "--domain", "cantor_slit", "--depth", "4",
                 "--function", "example1", "--space", "E", "--order", order,
                 "--h", H10, "--check")]


# Each workload is a list of groups.  Commands inside a group depend on each
# other and keep their order; the seed permutes the groups.
WORKLOADS: dict[str, list[list[Command]]] = {
    # io writes beside reads: mask encoder, float encoder plus the per-point
    # CSV loop, read-reflect-rewrite, and a read plus scan with no write.
    "artifacts": [
        [_cmd("domain_build_comb", "domain_build_s",
              _expect(r"3677185 Q points, 3654671 open points"),
              "domain", "build", "--domain", "comb", "--n-teeth", "6",
              "--h", H10, "--out", "comb_mask.json",
              artifact="comb_mask.json")],
        [_cmd("field_sample_sin_cos", "field_sample_s",
              _expect(r"order 1 jet on 263169 points"),
              "field", "sample", "--function", "sin_cos", "--domain",
              "rectangle", "--order", "1", "--h", H9, "--mask", "q",
              "--out", "field.json", "--csv", "field.csv",
              artifact="field.json", csv="field.csv"),
         _cmd("hestenes_extend_field", "hestenes_extend_s",
              _expect(r"extended 263169 -> 296001 points"),
              "hestenes", "extend", "--in", "field.json", "--order", "2",
              "--width", "64", "--axis", "0", "--boundary", "0",
              "--inward", "1", "--out", "extended.json",
              artifact="extended.json"),
         _cmd("norm_field_f", "space_norm_s", _expect(_CONSISTENT),
              "space", "norm", "--field", "field.json", "--space", "F",
              "--check")],
    ],
    # analytic reflection, chain rule, Leibniz blending and the interface
    # scan; polar charts, edge and corner charts, and both kinds.
    "glue": [_prop2("disk"), _prop2("rectangle"), _prop2("half_ball")],
    # each negative claim beside its positive reading: rasterizing, sampling
    # irregular regions, scans and exact-rational certificates; tiny io.
    "certificates": [
        _certify("comb", r"gap 1\.0\b"),
        [_cmd("norm_comb_f", "space_norm_s", _expect(_CONSISTENT),
              "space", "norm", "--domain", "comb", "--n-teeth", "6",
              "--function", "example3", "--space", "F", "--order", "1",
              "--h", H10, "--check")],
        _certify("cantorslit", r"diverges, first \|d_n\| > 1000 at n = 20\b",
                 "--ceiling", "1000", "--depth", "4"),
        _cantor_e("1", _expect(_CONSISTENT)),
        _cantor_e("3", _check_cantor_e3),
    ],
}

SUBCOMMAND_METRICS = ("domain_build_s", "field_sample_s", "hestenes_extend_s",
                      "space_norm_s", "extend_prop2_s", "certify_replay_s")


# ---------------------------------------------------------------------------
# running children


@dataclass
class Outcome:
    command: Command
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    rc: int
    ok: bool = True
    note: str | None = None
    written: int = 0
    digest: str | None = None
    trace: dict | None = None


def _spawn(argv: list[str], cwd: Path, stem: str, deadline: float):
    """Run one child to completion; return (wall, rusage, exit code)."""
    with open(cwd / f"{stem}.out", "wb") as out, \
            open(cwd / f"{stem}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=CHILD_ENV,
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        killer = threading.Timer(max(0.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode


def stripped_payload(text: str) -> str:
    """Artifact text without its provenance block.

    The writer puts provenance last, so this equals
    ``jetlab.io.strip_provenance`` without re-encoding the whole document.
    """
    cut = text.rfind(',"provenance":{')
    return text[:cut] + "}" if cut >= 0 else text.rstrip("\n")


def _digest(cmd: Command, cwd: Path, stdout: str) -> str:
    if cmd.artifact:
        text = (cwd / cmd.artifact).read_text(encoding="ascii")
    elif cmd.name.startswith("norm_"):
        text = stdout.split("\n", 1)[0]  # the report JSON precedes the summary
    else:
        text = stdout
    return hashlib.sha256(stripped_payload(text).encode("ascii")).hexdigest()


def run_command(cmd: Command, cwd: Path, deadline: float,
                traced: bool = False) -> Outcome:
    stem = cmd.name
    if traced:
        trace_path = cwd / f"{stem}.trace.json"
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_path),
                cmd.name, *cmd.argv]
    else:
        argv = [sys.executable, "-m", "jetlab", *cmd.argv]
    wall, usage, rc = _spawn(argv, cwd, stem, deadline)
    res = Outcome(cmd, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0, rc)
    # checks run here, outside the timed interval
    out = (cwd / f"{stem}.out").read_text(errors="replace")
    err = (cwd / f"{stem}.err").read_text(errors="replace")
    if rc == 2 or rc < 0:
        res.ok, res.note = False, f"exit {rc}: {err.strip()[-200:]}"
    elif "Traceback" in err:
        res.ok, res.note = False, "traceback: " + err.strip()[-200:]
    elif not out.strip():
        res.ok, res.note = False, "no output"
    else:
        res.ok, res.note = cmd.check(rc, out)
    for name in (cmd.artifact, cmd.csv):
        if name is None:
            continue
        path = cwd / name
        if not path.is_file() or path.stat().st_size == 0:
            res.ok, res.note = False, f"{name} missing or empty"
        else:
            res.written += path.stat().st_size
    if res.ok:
        res.digest = _digest(cmd, cwd, out)
    if traced:
        if trace_path.is_file():
            res.trace = json.loads(trace_path.read_text())
        else:
            res.ok, res.note = False, "no trace written"
    return res


def measure_setup(cwd: Path, deadline: float) -> list[float]:
    """Wall times of ``jetlab --help``: interpreter, imports and parser."""
    argv = [sys.executable, "-m", "jetlab", "--help"]
    _spawn(argv, cwd, "setup", deadline)  # untimed: bytecode cache warm-up
    times = []
    for _ in range(SETUP_REPEATS):
        wall, _, rc = _spawn(argv, cwd, "setup", deadline)
        if rc != 0:
            raise RuntimeError(f"jetlab --help exited {rc}")
        times.append(wall)
    return times


def run_pass(order: list[Command], cwd: Path, deadline: float,
             traced: bool = False) -> list[Outcome]:
    outcomes = []
    for cmd in order:
        res = run_command(cmd, cwd, deadline, traced)
        outcomes.append(res)
        if res.rc < 0:  # killed at the run limit: stop here
            break
    return outcomes


# ---------------------------------------------------------------------------
# metrics


def pass_metrics(outcomes: list[Outcome]) -> dict[str, float]:
    """Totals of one pass."""
    m = {
        "run_s": sum(r.wall_s for r in outcomes),
        "cpu_s": sum(r.cpu_s for r in outcomes),
        "peak_rss_mb": max(r.maxrss_mb for r in outcomes),
        "written_mb": sum(r.written for r in outcomes) / 1e6,
    }
    for r in outcomes:
        m[r.command.metric] = m.get(r.command.metric, 0.0) + r.wall_s
    return m


def median_by_command(passes: list[list[Outcome]],
                      attr: str) -> dict[Command, float]:
    values: dict[Command, list[float]] = {}
    for outcomes in passes:
        for r in outcomes:
            values.setdefault(r.command, []).append(getattr(r, attr))
    return {cmd: statistics.median(v) for cmd, v in values.items()}


def run_metrics(passes: list[list[Outcome]]) -> dict[str, float]:
    """One typical pass: each command's median over the passes, summed.

    A slow spell of the machine hits single commands, so the per-command
    median discards it once a run has three passes.
    """
    walls = median_by_command(passes, "wall_s")
    totals = [pass_metrics(p) for p in passes]
    m = {
        "run_s": sum(walls.values()),
        "cpu_s": sum(median_by_command(passes, "cpu_s").values()),
        "peak_rss_mb": statistics.median(t["peak_rss_mb"] for t in totals),
        "written_mb": statistics.median(t["written_mb"] for t in totals),
    }
    for cmd, wall in walls.items():
        m[cmd.metric] = m.get(cmd.metric, 0.0) + wall
    return m


def _outermost(spans: list, i: int) -> bool:
    name, p = spans[i][0], spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return False
        p = spans[p][3]
    return True


def trace_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer self time and span count, inclusive span times, counters.

    A span's self time is its duration minus that of its direct children;
    ``<span>_s`` sums the outermost spans of that name.
    """
    m: Counter = Counter()
    for trace in traces:
        spans = trace["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            layer = name.split(".", 1)[0]
            m[f"{layer}.self_s"] += (end - start) - child[i]
            m[f"{layer}.spans"] += 1
            if _outermost(spans, i):
                m[f"{name}_s"] += end - start
        m.update(trace["counters"])
    write_s = m["io.write_s"]
    m["io.write_mb_per_s"] = m["io.write_bytes"] / 1e6 / write_s if write_s else 0.0
    exterior = m["glue.exterior_points"]
    m["functions.evals_per_exterior_point"] = (
        m["functions.eval_points_in_extend"] / exterior if exterior else 0.0
    )
    return dict(m)


# Counters that must repeat exactly between traced passes and seeds.
EXACT_COUNTERS = ("functions.eval_calls", "functions.eval_points",
                  "functions.eval_points_in_extend", "glue.window_points",
                  "glue.exterior_points", "glue.uncovered_points",
                  "hestenes.weight_calls", "hestenes.reflect_calls",
                  "hestenes.band_points", "domains.lattice_points",
                  "spaces.scan_points", "certify.terms", "io.write_bytes",
                  "io.read_bytes", "io.csv_bytes")


# ---------------------------------------------------------------------------
# a run


@dataclass
class RunResult:
    workload: str
    lines: list[str] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)
    metrics: dict[str, dict] = field(default_factory=dict)
    traced_passes: list[list[Outcome]] = field(default_factory=list)
    correct: bool = True

    def say(self, text: str = "") -> None:
        self.lines.append(text)


def _order(workload: str, seed: int) -> list[Command]:
    groups = list(WORKLOADS[workload])
    random.Random(seed).shuffle(groups)
    return [cmd for group in groups for cmd in group]


def _report_outcomes(res: RunResult, outcomes: list[Outcome],
                     seed_digests: dict, seen: set) -> None:
    for r in outcomes:
        if not r.ok:
            res.say(f"  FAILED {r.command.name}: {r.note}")
        elif r.note and r.command.name not in seen:
            res.say(f"  {r.command.name}: {r.note}")
        if r.ok and r.command.name not in seen:
            seen.add(r.command.name)
            recorded = seed_digests.get(r.command.name)
            if recorded is not None and recorded != r.digest:
                res.say(f"  payload digest changed since the seed: "
                        f"{r.command.name}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 units: dict[str, str], e2e: list[str],
                 per_layer: list[str]) -> RunResult:
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    budget_end = start + seconds
    res = RunResult(workload)
    cwd = WORK / workload
    shutil.rmtree(cwd, ignore_errors=True)
    cwd.mkdir(parents=True)
    order = _order(workload, seed)
    seed_digests = json.loads(SEED_DIGESTS.read_text())
    seen: set = set()
    res.say(f"== workload {workload}  seed {seed}  seconds {seconds:g}  "
            f"trace {int(trace)}")
    res.say("closed loop, 1 client, 1 child process at a time; order: "
            + ", ".join(c.name for c in order))

    if not trace:
        setup = measure_setup(cwd, deadline)
    passes: list[list[Outcome]] = []
    traced_passes: list[list[Outcome]] = []
    pass_walls: list[float] = []
    while True:
        t0 = time.perf_counter()
        # a traced run alternates untraced and traced passes, starting untraced
        traced = trace and len(passes) > len(traced_passes)
        outcomes = run_pass(order, cwd, deadline, traced)
        (traced_passes if traced else passes).append(outcomes)
        pass_walls.append(time.perf_counter() - t0)
        _report_outcomes(res, outcomes, seed_digests, seen)
        if any(r.rc < 0 for r in outcomes):
            break
        next_end = time.perf_counter() + statistics.median(pass_walls)
        if next_end > budget_end and (not trace or traced_passes):
            break
    all_outcomes = [r for p in passes + traced_passes for r in p]
    res.outcomes = all_outcomes
    res.correct = all(r.ok for r in all_outcomes) and all(
        len(p) == len(order) for p in passes + traced_passes)

    if not trace:
        values = run_metrics(passes)
        values["setup_s"] = statistics.median(setup)
        ranges = {k: [t[k] for t in map(pass_metrics, passes)]
                  for k in values if k != "setup_s"}
        ranges["setup_s"] = setup
        res.say(f"end to end over {len(passes)} pass(es), per-command "
                f"medians summed [pass min .. max]; setup_s is the median of "
                f"{len(setup)} starts [min .. max]:")
        shown = e2e + [k for k in SUBCOMMAND_METRICS if k in values]
        for name in shown:
            unit = units.get(name, "s")
            res.say(f"  {name:<20} {values[name]:12.4f} {unit:<6}"
                    f" [{min(ranges[name]):.4f} .. {max(ranges[name]):.4f}]")
            if name in e2e:
                res.metrics[name] = {"value": values[name], "unit": unit}
        failed = sum(not r.ok for r in all_outcomes)
        res.say(f"  {'failed_frac':<20} {failed / len(all_outcomes):12.4f} "
                f"{'1':<6} [{failed} of {len(all_outcomes)} commands failed]")
    elif traced_passes and res.correct:
        res.traced_passes = traced_passes
        _trace_report(res, passes, units, per_layer)
    return res


def _trace_report(res: RunResult, untraced: list[list[Outcome]],
                  units: dict[str, str], per_layer: list[str]) -> None:
    traced_passes = res.traced_passes
    per_pass = [trace_metrics([r.trace for r in p if r.trace])
                for p in traced_passes]
    first = per_pass[0]
    for other in per_pass[1:]:
        for k in EXACT_COUNTERS:
            if other.get(k, 0) != first.get(k, 0):
                res.correct = False
                res.say(f"  counter {k} differs between traced passes: "
                        f"{first.get(k, 0)} vs {other.get(k, 0)}")
    values = {}
    for k in sorted({k for m in per_pass for k in m}):
        vals = [m.get(k, 0.0) for m in per_pass]
        values[k] = statistics.median(vals) if k.endswith("_s") else vals[0]

    res.say(f"tracing overhead: median traced wall over {len(traced_passes)} "
            f"pass(es) against the median untraced wall over {len(untraced)} "
            f"pass(es) of this run")
    base = median_by_command(untraced, "wall_s")
    tr = median_by_command(traced_passes, "wall_s")
    for cmd, wall in tr.items():
        res.say(f"  {cmd.name:<24} untraced {base[cmd]:8.3f} s  traced "
                f"{wall:8.3f} s  overhead {100 * (wall / base[cmd] - 1):+6.1f}%")
    total_b, total_t = sum(base.values()), sum(tr.values())
    res.say(f"  {'pass':<24} untraced {total_b:8.3f} s  traced "
            f"{total_t:8.3f} s  overhead {100 * (total_t / total_b - 1):+6.1f}%")

    res.say("layer self time (span minus child spans) and span count:")
    for layer in ("cli", "domains", "grid", "functions", "hestenes", "glue",
                  "spaces", "certify", "io"):
        res.say(f"  {layer:<10} {values.get(layer + '.self_s', 0.0):10.4f} s"
                f"  {int(values.get(layer + '.spans', 0)):>9} spans")
    res.say("per-layer metrics:")
    for k, v in values.items():
        if k.endswith(".spans") or k.endswith(".self_s") and k != "cli.self_s":
            continue
        unit = units.get(k, "s" if k.endswith("_s") else "count")
        res.say(f"  {k:<38} {v:16.4f} {unit}")
    res.say("by command (first traced pass): in-process time cli.main_s, "
            "io.write_s and all io self time with their shares of it, and "
            "source evaluations per exterior window point")
    for r in traced_passes[0]:
        m = trace_metrics([r.trace])
        main_s = m["cli.main_s"]
        write_s, io_s = m.get("io.write_s", 0.0), m.get("io.self_s", 0.0)
        res.say(f"  {r.command.name:<22} {main_s:7.3f} s  io.write_s "
                f"{write_s:7.3f} s ({100 * write_s / main_s:4.1f}%)  io "
                f"{io_s:7.3f} s ({100 * io_s / main_s:4.1f}%)  evals/point "
                f"{m['functions.evals_per_exterior_point']:6.1f}")
    res.metrics = {k: {"value": values.get(k, 0), "unit": units[k]}
                   for k in per_layer}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "jetlab" / "cli.py").is_file() or not spec_path.is_file():
        print(f"no jetlab sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(name, args.seed, seconds, bool(args.trace), units,
                           e2e, per_layer)
        print("\n".join(res.lines), flush=True)
        if args.trace:
            _save_trace(res, args.seed)
        results.append(res)
        shutil.rmtree(WORK / name, ignore_errors=True)

    if len(results) == 1:
        metrics = results[0].metrics
    else:
        metrics = {f"{r.workload}.{k}": v for r in results
                   for k, v in r.metrics.items()}
    summary = {
        "correct": all(r.correct for r in results),
        "attempted": sum(len(r.outcomes) for r in results),
        "failed": sum(not o.ok for r in results for o in r.outcomes),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


def _save_trace(res: RunResult, seed: int) -> None:
    doc = {
        "workload": res.workload,
        "seed": seed,
        "passes": [[{"id": f"{i}:{r.command.name}", "argv": list(r.command.argv),
                     "wall_s": r.wall_s, "spans": r.trace["spans"],
                     "counters": r.trace["counters"]}
                    for r in p if r.trace]
                   for i, p in enumerate(res.traced_passes)],
    }
    path = WORK / f"trace-{res.workload}.json"
    path.write_text(json.dumps(doc))
    print(f"spans written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
