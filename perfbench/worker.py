"""One benchmark worker process: set up, then run a workload's operations.

Reads a job (JSON) on standard input and writes its result (JSON) on
standard output. Modes:

- ``setup``: import rodbend, warm up, report when ready, time the
  calibration kernel, exit;
- ``timed``: as setup, then a closed loop (one client, the next call
  starts when the previous one returned) over the input pool until
  ``seconds`` have passed;
- ``traced``: as setup, then a fixed list of operations, first untraced
  and then again with spans around every public rodbend function.

For cli_cold the operations are fresh ``python -m rodbend.cli``
processes, one at a time; the traced pass starts them through
launcher.py under ``python -X importtime`` instead.
"""

import time

STARTED_NS = time.perf_counter_ns()

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402

import workloads  # noqa: E402
from check import check  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_TIMEOUT_S = 60

# host-speed calibration: a fixed pure-Python kernel, timed between
# operations about every 100 ms (about 0.5% of the run), and a few times
# at the end of a set-up process
CALIBRATION_INTERVAL_NS = 100_000_000
SETUP_CALIBRATION_RUNS = 5

# latencies go into a fixed histogram of log-spaced bins, 0.1% wide, from
# 1 us to about 480 s, so that the worker's memory (and peak_rss_mb) does
# not grow with the number of operations a run completes
HIST_MIN_MS = 1e-3
HIST_LOG_RATIO = math.log(1.001)
HIST_BINS = 20_000


def _calibration_kernel() -> int:
    total = 0
    for i in range(6000):
        total += i * 7 % 13
    return total


def calibration_ns() -> int:
    """Time of one run of the calibration kernel, in ns."""
    t0 = time.perf_counter_ns()
    _calibration_kernel()
    return time.perf_counter_ns() - t0


def _import_rodbend(job):
    import rodbend
    import rodbend.cli  # noqa: F401  (the CLI workload's setup is this import)

    expected = os.path.join(job["root"], "src", "rodbend")
    if os.path.dirname(os.path.abspath(rodbend.__file__)) != expected:
        raise SystemExit(f"imported rodbend from {rodbend.__file__}, expected {expected}")
    return rodbend


class PythonOps:
    """Calls into rodbend's public API, one operation kind each."""

    def __init__(self, rb):
        self.rb = rb
        self.rod = rb.RodProperties.from_stiffness(workloads.L, workloads.EJ)

    def __call__(self, op):
        rb, rod, k, a = self.rb, self.rod, op["kind"], op["args"]
        # look names up on the package at call time, so installed spans are seen
        if k == "solve_roller":
            return rb.solve_roller(rod, a["load"], "root_find").X
        if k == "solve_builtin":
            return rb.solve_builtin(rod, a["load"], "closed").X
        if k == "tip_uniform":
            return rb.tip_deflection_uniform(rod, a["load"])
        if k == "tip_shear":
            return rb.tip_deflection_shear(rod, a["load"])
        if k == "hyp_3f2":
            return rb.hyp_3f2(*a["params"], a["z"])
        if k == "gauss_2f1":
            return rb.gauss_2f1(*a["params"], a["z"])
        if k == "appell_f1":
            return rb.appell_f1(a["a"], a["b1"], a["b2"], a["c"], a["x1"], a["x2"], method="auto")
        if k == "lauricella_fd3":
            return rb.lauricella_fd3(a["a"], a["b"], a["c"], a["x"], method="auto")
        raise ValueError(f"unknown operation kind {k!r}")


def child_env(root: str) -> dict:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class CliOps:
    """Operations that are fresh CLI processes, started one at a time."""

    def __init__(self, job, traced_dir=None):
        self.root = job["root"]
        self.env = child_env(self.root)
        self.traced_dir = traced_dir
        self.launches: list[dict] = []

    def __call__(self, op):
        argv = op["args"]["argv"]
        if self.traced_dir is None:
            cmd = [sys.executable, "-m", "rodbend.cli", *argv]
        else:
            spans = os.path.join(self.traced_dir, f"launch-{len(self.launches)}.jsonl")
            cmd = [sys.executable, "-X", "importtime", os.path.join(HERE, "launcher.py"),
                   spans, *argv]
        spawned = time.perf_counter_ns()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        if self.traced_dir is not None:
            self.launches.append({"spans": spans, "spawned_ns": spawned, "stderr": proc.stderr})
        if proc.returncode != 0:
            raise CliExit(proc.returncode, proc.stderr.strip().splitlines()[-1:] or [""])
        return proc.stdout


class CliExit(Exception):
    def __init__(self, code, last_line):
        super().__init__(f"exit {code}: {last_line[0]}")
        self.code = code


class LatencyHistogram:
    """Per-operation latencies, counted in HIST_BINS log-spaced bins."""

    def __init__(self):
        self.counts = array("q", [0]) * HIST_BINS
        self.samples = 0

    def add(self, ms: float) -> None:
        b = int(math.log(max(ms, HIST_MIN_MS) / HIST_MIN_MS) / HIST_LOG_RATIO)
        self.counts[min(b, HIST_BINS - 1)] += 1
        self.samples += 1

    def _quantile(self, q: float) -> tuple[float, int]:
        """The q-quantile, interpolated geometrically inside its bin, and that bin."""
        rank = q * self.samples
        seen = 0
        for b, count in enumerate(self.counts):
            if count and seen + count >= rank:
                inside = (rank - seen) / count
                return HIST_MIN_MS * math.exp((b + inside) * HIST_LOG_RATIO), b
            seen += count
        raise ValueError("empty histogram")

    def summary(self) -> dict:
        p50, _ = self._quantile(0.5)
        p90, b90 = self._quantile(0.9)
        return {"p50": p50, "p90": p90, "samples": self.samples,
                "above_p90": sum(self.counts[b90 + 1:])}


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _error_class(exc: Exception) -> str:
    if isinstance(exc, CliExit):
        return f"exit{exc.code}"
    return type(exc).__name__


def run_ops(call, ops, deadline_ns=None, tracer=None, children=False) -> dict:
    """Closed loop over ops (cycling until the deadline when one is given).

    Between operations the calibration kernel is timed about every
    100 ms; its time is left out of the loop's wall time. Peak RSS (of
    this process, or of its largest child when ``children``) is read
    right after the loop, before any result is built.
    """
    latencies = LatencyHistogram()
    calibration = array("q")
    failures: Counter = Counter()
    examples: dict = {}
    passed = 0
    clock = time.perf_counter_ns
    start = next_calibration = clock()
    calibrating_ns = 0
    i = 0
    while True:
        now = clock()
        if now >= next_calibration:
            calibration.append(calibration_ns())
            next_calibration = clock()
            calibrating_ns += next_calibration - now
            next_calibration += CALIBRATION_INTERVAL_NS
        if deadline_ns is None:
            if i == len(ops):
                break
        elif clock() >= deadline_ns:
            break
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        try:
            raw = call(op)
            error = None
        except Exception as exc:  # every failure is counted, by kind and class
            raw, error = None, _error_class(exc)
            examples.setdefault(f"{op['label']} {error}", str(exc)[:200])
        t1 = clock()
        latencies.add((t1 - t0) / 1e6)
        if error is None and not check(op, raw):
            error = "inaccurate"
        if error is None:
            passed += 1
        else:
            failures[f"{op['label']} {error}"] += 1
        i += 1
    wall_s = (clock() - start - calibrating_ns) / 1e9
    rss = peak_rss_mb(children)
    if not latencies.samples:
        raise SystemExit("no operation was attempted")
    return {"attempted": i, "passed": passed, "wall_s": wall_s, "peak_rss_mb": rss,
            "latency_ms": latencies.summary(), "failures": dict(failures),
            "failure_examples": examples, "calibration_ns": statistics.median(calibration)}


def _warm_up(job, call):
    for op in job["warmup"]:
        try:
            call(op)
        except Exception:  # a failure during warm-up shows again in the timed loop
            pass


def _timed(job, call):
    deadline = time.perf_counter_ns() + int(job["seconds"] * 1e9)
    return run_ops(call, job["ops"], deadline_ns=deadline, children=isinstance(call, CliOps))


def _traced_python(job, call):
    from tracer import Tracer, install, span_stats

    untraced = run_ops(call, job["ops"])
    tracer = Tracer()
    install(tracer)
    traced = run_ops(call, job["ops"], tracer=tracer)
    tracer.dump(job["spans_path"], workload=job["workload"], seed=job["seed"])
    stats = span_stats(tracer.names, tracer.spans)
    stats["special_functions.hyp_3f2.near_unit_calls"] = tracer.near_unit_calls
    return untraced, traced, stats


def _traced_cli(job):
    from tracer import parse_importtime, span_stats, write_spans

    untraced = run_ops(CliOps(job), job["ops"], children=True)
    spans_dir = job["spans_path"] + ".d"
    os.makedirs(spans_dir, exist_ok=True)
    cli = CliOps(job, traced_dir=spans_dir)
    traced = run_ops(cli, job["ops"], children=True)
    ids: dict = {}   # function name -> index in the merged trace
    spans, starts, imports, near_unit = [], [], [], 0
    for op_id, launch in enumerate(cli.launches):
        imports.append(parse_importtime(launch["stderr"]))
        try:
            with open(launch["spans"], encoding="utf-8") as fh:
                header = json.loads(fh.readline())
                local = [json.loads(line) for line in fh]
        except FileNotFoundError:   # the launcher died before writing; counted above
            continue
        os.remove(launch["spans"])
        starts.append((header["started_ns"] - launch["spawned_ns"]) / 1e6)
        near_unit += header["near_unit_calls"]
        index = {fid: ids.setdefault(name, len(ids)) for fid, name in enumerate(header["functions"])}
        base = len(spans)
        for fid, t0, t1, parent, _, raised in local:
            spans.append([index[fid], t0, t1, parent + base if parent >= 0 else -1, op_id, raised])
    os.rmdir(spans_dir)
    names = list(ids)
    write_spans(job["spans_path"], names, spans, workload=job["workload"], seed=job["seed"])
    stats = span_stats(names, spans)
    stats["special_functions.hyp_3f2.near_unit_calls"] = near_unit
    stats["cli.interpreter_ms"] = statistics.median(starts) if starts else 0.0
    for key in ("import_numpy_ms", "import_scipy_ms", "import_rodbend_ms"):
        stats[f"cli.{key}"] = statistics.median(d[key] for d in imports) if imports else 0.0
    return untraced, traced, stats


def main() -> int:
    job = json.load(sys.stdin)
    cli = job["workload"] == "cli_cold"
    if cli and job["mode"] != "setup":
        call = CliOps(job)
        ready_ns = time.perf_counter_ns()
    else:
        rb = _import_rodbend(job)
        call = PythonOps(rb)
        if not cli:
            _warm_up(job, call)
        ready_ns = time.perf_counter_ns()
    result = {"started_ns": STARTED_NS, "ready_ns": ready_ns}
    if job["mode"] == "setup":
        import numpy
        import scipy

        result["machine"] = {"python": platform.python_version(), "numpy": numpy.__version__,
                             "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0))}
        result["calibration_ns"] = statistics.median(
            calibration_ns() for _ in range(SETUP_CALIBRATION_RUNS))
    elif job["mode"] == "timed":
        result["run"] = _timed(job, call)
    else:
        untraced, traced, stats = _traced_cli(job) if cli else _traced_python(job, call)
        result.update(untraced=untraced, run=traced, stats=stats)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
