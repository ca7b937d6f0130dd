"""Spans around every call into rodbend's public functions.

The benchmark installs these wrappers from its own files; the library
is not changed. A function is wrapped once and the wrapper is stored at
every binding site: the defining module, every rodbend module that
imported the name (``redundancy.hyp_3f2``, ``elastica.hyp_3f2``,
``redundancy.compose``, ...), and the package namespace. Calls that go
through a module attribute at run time (``elastica.cumulative_moment``
from ``integrate_deflection``, ``compose`` from inside
``lagrange_revert``) therefore reach the wrapper too.

Private helpers are not wrapped, so their time counts as self time of
the public function that calls them. In particular special_functions'
private call into ``quadrature._adaptive`` (the Euler-integral route of
F1 and FD3) is special_functions self time, not quadrature time.

Spans (function, start, end, parent span, operation id, raised) are kept
in memory and written out when the run ends; busy and self times are
derived from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

LAYERS = ("special_functions", "quadrature", "elastica", "series_tools", "redundancy", "cli")

# hyp_3f2 arguments at or above this count as near the unit circle
NEAR_UNIT_Z = 0.99


class Tracer:
    """In-memory span recorder; one per process.

    Spans are stored column-wise in typed arrays, which the garbage
    collector does not scan, so recording cost stays flat as spans pile up.
    """

    def __init__(self):
        self.names: list[str] = []      # "<layer>.<fn>" per function index
        self.fn = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.near_unit_calls = 0
        self.op_id = -1
        self._stack: list[int] = []

    def wrap(self, layer: str, name: str, fn):
        fid = len(self.names)
        self.names.append(f"{layer}.{name}")
        stack, clock = self._stack, time.perf_counter_ns
        fns, starts, ends, parents, ops, raised = (
            self.fn, self.start, self.end, self.parent, self.op, self.raised)
        near_unit = layer == "special_functions" and name == "hyp_3f2"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if near_unit:
                z = args[5] if len(args) > 5 else kwargs.get("x", 0.0)
                if abs(z) >= NEAR_UNIT_Z:
                    self.near_unit_calls += 1
            idx = len(fns)
            fns.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            raised.append(1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                raised[idx] = 0
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__perfbench_traced__ = True
        return traced

    @property
    def spans(self) -> list:
        """Rows [fn, start_ns, end_ns, parent, op, raised]."""
        return [list(row) for row in zip(self.fn, self.start, self.end, self.parent,
                                         self.op, self.raised)]

    def dump(self, path: str, **header) -> None:
        write_spans(path, self.names, self.spans, **header)


def write_spans(path: str, names: list[str], spans: list, **header) -> None:
    """JSON lines: a header naming the functions, then one span per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"functions": names, **header}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def rodbend_modules():
    """The package and its submodules, imported."""
    pkg = importlib.import_module("rodbend")
    mods = [pkg] + [importlib.import_module(f"rodbend.{m}") for m in LAYERS + ("errors",)]
    return mods


def _public_functions(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for name in names:
        obj = getattr(mod, name)
        if callable(obj) and not isinstance(obj, type) and getattr(obj, "__module__", None) == mod.__name__:
            yield name, obj


def install(tracer: Tracer) -> int:
    """Wrap every public rodbend function at every binding site; returns sites patched."""
    mods = rodbend_modules()
    originals = {}
    for mod in mods[1:]:
        layer = mod.__name__.rsplit(".", 1)[1]
        if layer not in LAYERS:
            continue
        for name, fn in _public_functions(mod):
            originals[id(fn)] = tracer.wrap(layer, name, fn)
    patched = 0
    for mod in mods:
        for attr, value in list(vars(mod).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
                patched += 1
    return patched


def unwrapped_rebindings() -> list[str]:
    """Public rodbend functions re-bound in another rodbend module but not wrapped."""
    missing = []
    for mod in rodbend_modules():
        for attr, value in vars(mod).items():
            home = getattr(value, "__module__", None) or ""
            if (not attr.startswith("_") and callable(value) and not isinstance(value, type)
                    and home.startswith("rodbend.") and home != mod.__name__
                    and not getattr(value, "__perfbench_traced__", False)):
                missing.append(f"{mod.__name__}.{attr}")
    return missing


def span_stats(names: list[str], spans: list) -> dict:
    """Per-function and per-layer calls, failures, busy and self time (ms).

    Busy time of a function (or layer) is the wall time during which at
    least one of its spans is open: spans nested inside another span of
    the same function (or layer) are not added twice. Self time is a
    span's duration minus the durations of its direct child spans.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    stats: dict = {}

    def bump(key, value):
        stats[key] = stats.get(key, 0) + value

    for i, (fid, start, end, parent, _op, raised) in enumerate(spans):
        name = names[fid]
        layer = name.split(".", 1)[0]
        dur = end - start
        bump(f"{name}.calls", 1)
        bump(f"{name}.failed", 1 if raised else 0)
        bump(f"{name}.self_ms", (dur - child_ns[i]) / 1e6)
        bump(f"{layer}.self_ms", (dur - child_ns[i]) / 1e6)
        same_fn = same_layer = False
        p = parent
        while p >= 0 and not same_fn:
            pname = names[spans[p][0]]
            same_fn = pname == name
            same_layer = same_layer or pname.split(".", 1)[0] == layer
            p = spans[p][3]
        if not same_fn:
            bump(f"{name}.busy_ms", dur / 1e6)
        if not same_layer:
            bump(f"{layer}.busy_ms", dur / 1e6)
    return stats


def parse_importtime(stderr: str) -> dict:
    """Import times (ms) from the standard error of ``python -X importtime``.

    numpy and scipy: the self time of every module imported on their
    behalf, that is of their own modules and of whatever those pulled in
    that no other tracked package owns; the two never overlap. rodbend:
    the cumulative time of importing the package, numpy and scipy included,
    which is what a user of ``import rodbend`` waits for.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|", 2)
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, int(own), int(cumulative), name.strip().split(".", 1)[0]))
    owned = {"numpy": 0, "scipy": 0}
    rodbend = 0
    # importtime prints a module after its children; walking backwards
    # visits ancestors first, with the open ancestors on a stack
    stack: list[tuple[int, str | None, bool]] = []  # (depth, owner, inside rodbend)
    for depth, own, cumulative, top in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        owner, in_rodbend = stack[-1][1:] if stack else (None, False)
        if top in owned:
            owner = top
        if owner is not None:
            owned[owner] += own
        if top == "rodbend" and not in_rodbend:
            rodbend += cumulative
        stack.append((depth, owner, in_rodbend or top == "rodbend"))
    return {"import_numpy_ms": owned["numpy"] / 1000.0, "import_scipy_ms": owned["scipy"] / 1000.0,
            "import_rodbend_ms": rodbend / 1000.0}
