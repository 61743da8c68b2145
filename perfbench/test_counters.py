"""Checks of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench -q``.  The
counter test runs every workload traced, twice, and takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from jetlab import io  # noqa: E402

# Counters the issue for the benchmark names as exact: they must not depend on
# the seed, the run or the machine.
NAMED_EXACT = ("functions.eval_points", "glue.exterior_points",
               "io.write_bytes", "hestenes.weight_calls")


def test_fast_strip_matches_io_strip_provenance(tmp_path):
    path = tmp_path / "artifact.json"
    payload = {"kind": "x", "h": 0.5, "mask": [0, 1, 1],
               "nested": {"provenance": "not the block", "v": [1.0, 1e-5]}}
    io.write_artifact(str(path), payload, {"tool": "jetlab", "command": "a,\"b"})
    text = path.read_text()
    assert run.stripped_payload(text) == io.strip_provenance(text)
    bare = io.dumps({"source": "s", "norm": {"overall": 2.0}})
    assert run.stripped_payload(bare) == io.strip_provenance(bare)


def test_seed_permutes_independent_groups_only():
    for workload, groups in run.WORKLOADS.items():
        names = sorted(c.name for g in groups for c in g)
        orders = set()
        for seed in range(12):
            order = [c.name for c in run._order(workload, seed)]
            assert sorted(order) == names
            for group in groups:
                positions = [order.index(c.name) for c in group]
                assert positions == sorted(positions)
                assert positions == list(range(positions[0],
                                               positions[0] + len(group)))
            orders.add(tuple(order))
        assert len(orders) > 1, workload


def test_seed_digests_name_every_command():
    recorded = set(json.loads(run.SEED_DIGESTS.read_text()))
    assert recorded == {c.name for g in run.WORKLOADS.values()
                        for grp in g for c in grp}


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "glue", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_exact_counters_repeat_across_runs_and_seeds(workload):
    cwd = run.WORK / f"test-{workload}"
    shutil.rmtree(cwd, ignore_errors=True)
    cwd.mkdir(parents=True)
    try:
        counters = []
        for seed in (1, 2):
            order = run._order(workload, seed)
            outcomes = run.run_pass(order, cwd, time.perf_counter() + 600,
                                    traced=True)
            assert all(r.ok for r in outcomes), [r.note for r in outcomes]
            metrics = run.trace_metrics([r.trace for r in outcomes])
            counters.append({k: metrics.get(k, 0) for k in run.EXACT_COUNTERS})
        assert counters[0] == counters[1]
        assert set(NAMED_EXACT) <= set(run.EXACT_COUNTERS)
        assert counters[0]["io.write_bytes"] > 0
        assert counters[0]["functions.eval_points"] > 0
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
