"""Correctness checks of rodbend outputs against the oracle's references.

A value passes when it is finite and within ACCURACY_TARGET of its
reference, relative to the reference's magnitude; a deflection profile
(``rodbend deflect``) is judged relative to its largest deflection, so points near the clamped wall
(where y -> 0) are held to the same absolute accuracy as the rest, and
a series partial sum relative to the sum of its terms' magnitudes, the
scale its floating-point summation error follows.
"""

from __future__ import annotations

import json
import math

from workloads import ACCURACY_TARGET


def close(got, ref: float, scale: float) -> bool:
    return (isinstance(got, (int, float)) and math.isfinite(got)
            and abs(got - ref) <= ACCURACY_TARGET * scale)


def _all_close(got, ref, scale) -> bool:
    return len(got) == len(ref) and all(close(g, r, scale) for g, r in zip(got, ref))


def check(op: dict, out) -> bool:
    """True when the output of one operation matches its reference."""
    ref = op["ref"]
    if op["kind"] == "cli":
        return _check_cli(op["args"]["check"], ref, out)
    return close(out, ref, abs(ref))


def _check_cli(kind: str, ref: dict, stdout: str) -> bool:
    try:
        doc = json.loads(stdout)
    except ValueError:
        return False
    if kind == "solve":
        return close(doc.get("X"), ref["X"], abs(ref["X"]))
    if kind == "eval":
        return close(doc.get("value"), ref["value"], abs(ref["value"]))
    if kind == "deflect":
        samples = doc.get("samples", [])
        exact = [s.get("y_exact_m") for s in samples]
        linear = [s.get("y_linearized_m") for s in samples]
        return (_all_close(exact, ref["y_exact"], max(abs(v) for v in ref["y_exact"]))
                and _all_close(linear, ref["y_linearized"],
                               max(abs(v) for v in ref["y_linearized"])))
    # table
    rows = doc.get("rows", [])
    x_ref = ref["reference_X"]
    if not close(doc.get("reference_X"), x_ref, abs(x_ref)) or len(rows) != len(ref["X_n"]):
        return False
    for row, x_n, terms, gap in zip(rows, ref["X_n"], ref["abs_terms"], ref["rel_gap"]):
        if not (close(row.get("X_n"), x_n, terms)
                and close(row.get("rel_gap"), gap, terms / abs(x_ref))):
            return False
    return True
