"""rodbend benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): midrange and cli_cold, the two that
BENCHMARK.json lists, and near_critical, which reports the library's
known near-critical defects and is left out of BENCHMARK.json because
today's code fails about half of its operations (README.md). The
program under test is the rodbend package in ``src/`` next to this
directory; nothing is installed.

A run builds the seeded input pool, computes an mpmath reference for
every input (oracle.py) before any timing, measures set-up time in three
fresh worker processes, starts one more worker that runs the workload
(worker.py), and measures set-up in two more fresh processes. With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs a fixed list of operations once untraced and once with spans
around every public rodbend function (tracer.py) and prints the
per-layer metrics. Human-readable lines come
first; the last line of standard output is one JSON object. Details of
the run, including every failure by operation kind and error class, go
to perfbench/out/.

Worker processes run one at a time, with BLAS and OpenMP pinned to one
thread. The timed loop's metrics are scaled to the host's nominal speed,
measured by a calibration kernel between operations (README.md explains
why); the uncorrected values are printed too.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import parse_importtime  # noqa: E402
from worker import child_env  # noqa: E402

# set-up is timed in fresh processes before and after the timed loop:
# import time drifts with the host over tens of seconds, and samples
# spread over the run follow that drift better than samples in a row
SETUP_SAMPLES_BEFORE = 3
SETUP_SAMPLES_AFTER = 2
# the calibration kernel's time (worker.calibration_ns) at the host's
# nominal speed; time metrics are scaled to it
NOMINAL_CALIBRATION_NS = 500_000
# every run must end within 180 s; workers are stopped before that
RUN_LIMIT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not produce a valid result."""


def _spawn(job: dict, deadline: float, importtime: bool = False) -> tuple[dict, int, str]:
    """Run one worker to completion; returns (result, spawn time, stderr).

    The worker gets its own process group, so that on timeout the CLI
    processes it may have started are killed with it.
    """
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd.append(os.path.join(HERE, "worker.py"))
    spawned = time.perf_counter_ns()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT, env=child_env(ROOT),
                            start_new_session=True)
    try:
        out, err = proc.communicate(json.dumps(job), timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker ({job['mode']}) did not finish within the run's time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker ({job['mode']}) exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out), spawned, err


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _end_to_end(run: dict, setup: list[float], slowdown: float) -> dict:
    """The end-to-end metrics; loop times are divided by the run's host slowdown.

    Set-up samples come in already divided by the slowdown measured in
    their own process.
    """
    lat = run["latency_ms"]
    return {
        "ops_per_s": run["passed"] / run["wall_s"] * slowdown,
        "latency_p50_ms": lat["p50"] / slowdown,
        "latency_p90_ms": lat["p90"] / slowdown,
        "pass_frac": run["passed"] / run["attempted"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": run["peak_rss_mb"],
    }, lat


def _per_layer(spec: dict, result: dict, import_probe: dict) -> dict:
    stats = dict(result["stats"])
    for key, value in import_probe.items():
        stats.setdefault(key, value)
    untraced = result["untraced"]["passed"] / result["untraced"]["wall_s"]
    traced = result["run"]["passed"] / result["run"]["wall_s"]
    stats["trace.ops_per_s_untraced"] = untraced
    stats["trace.ops_per_s"] = traced
    stats["trace.overhead_pct"] = (untraced - traced) / untraced * 100.0 if untraced else 0.0
    return {m["name"]: stats.get(m["name"], 0) for m in spec["per_layer"]}


def _import_probe(samples: list[tuple[dict, int, str]]) -> dict:
    parsed = [parse_importtime(stderr) for _, _, stderr in samples]
    probe = {f"cli.{k}": statistics.median(p[k] for p in parsed) for k in parsed[0]}
    probe["cli.interpreter_ms"] = statistics.median(
        (res["started_ns"] - spawned) / 1e6 for res, spawned, _ in samples)
    return probe


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = _load_spec()
    pool = workloads.build(workload, seed)
    ops = workloads.traced_ops(workload, pool, seconds) if trace else pool
    t0 = time.perf_counter()
    oracle.attach_references(ops)
    oracle_s = time.perf_counter() - t0

    job = {"root": ROOT, "workload": workload, "seed": seed, "seconds": seconds,
           "warmup": workloads.warmup_ops(workload)}
    setup_job = dict(job, mode="setup")
    # set-up: import rodbend and warm up in fresh processes, one at a time
    samples = [_spawn(setup_job, deadline, importtime=trace)
               for _ in range(SETUP_SAMPLES_BEFORE)]
    machine = dict(samples[0][0]["machine"], seed=seed)

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    job.update(mode="traced" if trace else "timed", ops=ops, spans_path=stem + ".spans.jsonl")
    result, _, _ = _spawn(job, deadline)
    samples += [_spawn(setup_job, deadline, importtime=trace)
                for _ in range(SETUP_SAMPLES_AFTER)]
    setup_raw = [(res["ready_ns"] - spawned) / 1e9 for res, spawned, _ in samples]
    setup_slowdowns = [res["calibration_ns"] / NOMINAL_CALIBRATION_NS for res, _, _ in samples]
    setup = [s / k for s, k in zip(setup_raw, setup_slowdowns)]
    run_ = result["run"]
    slowdown = run_["calibration_ns"] / NOMINAL_CALIBRATION_NS
    metrics_e2e, lat = _end_to_end(run_, setup, slowdown)
    raw, _ = _end_to_end(run_, setup_raw, 1.0)
    if trace:
        probe = {} if workload == "cli_cold" else _import_probe(samples)
        metrics = _per_layer(spec, result, probe)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: metrics_e2e[m["name"]] for m in spec["end_to_end"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine, "oracle": {"references": len(ops), "seconds": oracle_s,
                                       "accuracy_target": workloads.ACCURACY_TARGET},
        "host_slowdown": slowdown, "raw_end_to_end": raw,
        "setup_s_samples": setup_raw, "setup_slowdowns": setup_slowdowns,
        "attempted": run_["attempted"], "passed": run_["passed"],
        "failed": run_["attempted"] - run_["passed"],
        "failed_frac": (run_["attempted"] - run_["passed"]) / run_["attempted"],
        "failures": run_["failures"], "failure_examples": run_["failure_examples"],
        "latency": lat, "end_to_end": metrics_e2e,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report


def _print_report(r: dict) -> None:
    m = r["machine"]
    print(f"perfbench {r['workload']} seed={r['seed']} seconds={r['seconds']} trace={int(r['trace'])}")
    print(f"machine: python {m['python']}  numpy {m['numpy']}  scipy {m['scipy']}  nproc {m['nproc']}")
    o = r["oracle"]
    print(f"oracle: {o['references']} mpmath references in {o['seconds']:.2f} s; "
          f"accuracy target {o['accuracy_target']:g} relative")
    print(f"operations: attempted {r['attempted']}  passed {r['passed']}  failed {r['failed']}  "
          f"failed_frac {r['failed_frac']:.4f}")
    for key, count in sorted(r["failures"].items()):
        print(f"  failed: {key}: {count}")
    lat = r["latency"]
    print(f"latency: {lat['samples']} samples, {lat['above_p90']} above p90")
    print(f"host slowdown {r['host_slowdown']:.3f} (calibration kernel vs nominal); uncorrected: "
          + "  ".join(f"{k} {v:.6g}" for k, v in r["raw_end_to_end"].items()))
    for name, entry in r["metrics"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rodbend", "__init__.py")):
        print(f"perfbench: no rodbend sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, oracle.OracleError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    _print_report(report)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
