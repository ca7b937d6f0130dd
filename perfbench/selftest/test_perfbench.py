"""Self-test of the benchmark at a tiny size (under a minute).

Run from the repository root:

    python3 -m pytest perfbench/selftest -q

Checks that every workload prints all end-to-end metrics with their
units, that the traced run's counters repeat exactly for one seed, that
every public rodbend function re-bound from one module into another is
wrapped by the tracer, and that the benchmark refuses to run without the
rodbend sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
sys.path.insert(0, BENCH)
import workloads  # noqa: E402
COUNTERS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def _run(workload: str, trace: int, cwd: str = ROOT, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


# every workload, including near_critical, which BENCHMARK.json leaves out
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_present_with_units(workload):
    metrics = _result(_run(workload, trace=0))["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for name, entry in metrics.items():
        assert isinstance(entry["value"], (int, float)) and entry["value"] > 0, name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    first = _result(_run(workload, trace=1))["metrics"]
    second = _result(_run(workload, trace=1))["metrics"]
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    assert {k: first[k]["value"] for k in COUNTERS} == {k: second[k]["value"] for k in COUNTERS}
    assert sum(first[k]["value"] for k in COUNTERS if k.endswith(".calls")) > 0


def test_every_rebound_public_function_is_wrapped():
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]);"
        "import tracer; t = tracer.Tracer(); n = tracer.install(t);"
        "print(json.dumps({'patched': n, 'missing': tracer.unwrapped_rebindings(),"
        " 'names': t.names}))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code, BENCH], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["missing"] == []
    # binding sites the layer counters depend on
    for name in ("special_functions.hyp_3f2", "series_tools.compose",
                 "elastica.cumulative_moment", "redundancy.roller_consistency", "cli.main"):
        assert name in out["names"]


def test_refuses_without_rodbend_sources():
    bare = os.path.join(BENCH, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__", "selftest"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _run("midrange", trace=0, cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare)
