"""Seeded inputs for the benchmark workloads.

BENCHMARK.json lists midrange and cli_cold. near_critical is run by
hand: it shows the known near-critical defects, so it cannot pass.

Every workload uses the rod L = 1 m, EJ = 200 N m^2 and draws loads as a
fraction f of the critical load of the load shape at hand. Inputs are
stratified: each operation kind gets one draw per stratum of its range,
so two seeds give different values with the same spread, and a run's
throughput depends on the code more than on the luck of the draw.

This module imports neither rodbend nor mpmath: the oracle and the
worker both read the operations it builds.
"""

from __future__ import annotations

import math
import random

L = 1.0
EJ = 200.0

# critical loads for L = 1, EJ = 200
Q_CRIT_UNIFORM = 6.0 * EJ / L ** 3      # uniform load, roller problem (1200 N/m)
Q_CRIT_BUILTIN = 12.0 * EJ / L ** 3     # clamped-clamped combined load (2400 N/m)
P_CRIT_SHEAR = 2.0 * EJ / L ** 2        # tip force (400 N)
M_CRIT_MOMENT = EJ / L                  # tip couple (200 N m)

WORKLOADS = ("midrange", "near_critical", "cli_cold")

# one relative accuracy target for every output: the loosest default
# tolerance a public rodbend routine promises (deflection_profile and
# integrate_deflection, rtol = 1e-10); the root finder (1e-12) and the
# special functions (1e-13) promise more, so a result within 1e-10 of
# the exact value is a solution for every operation kind
ACCURACY_TARGET = 1e-10

# the 3F2 kernels the rod problems use: (a1, a2, a3, b1, b2)
KERNEL_UNIFORM = (0.5, 1.0, 1.5, 7.0 / 6.0, 5.0 / 3.0)
KERNEL_SHEAR = (0.5, 1.0, 1.5, 1.25, 1.75)
KERNEL_BUILTIN_2F1 = (0.5, 2.0 / 3.0, 5.0 / 3.0)

PROFILE_POINTS = 201   # the grid of deflection_profile and of ``rodbend deflect``


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of n equal strata of [lo, hi]."""
    width = (hi - lo) / n
    return [lo + (i + rng.random()) * width for i in range(n)]


def _log_strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One log-uniform draw from each of n equal log-strata of [lo, hi]."""
    return [math.exp(v) for v in _strata(rng, n, math.log(lo), math.log(hi))]


def _op(kind: str, label: str, **args) -> dict:
    return {"kind": kind, "label": label, "args": args}


def _rod_ops(kind: str, fractions: list[float]) -> list[dict]:
    """Solver and tip-deflection operations at the given load fractions."""
    scale = {
        "solve_roller": Q_CRIT_UNIFORM,
        "solve_builtin": Q_CRIT_BUILTIN,
        "tip_uniform": Q_CRIT_UNIFORM,
        "tip_shear": P_CRIT_SHEAR,
    }[kind]
    return [_op(kind, kind, load=f * scale, f=f) for f in fractions]


def midrange(rng: random.Random) -> list[dict]:
    """Mix of single public calls at f in [0.02, 0.9], one equal share per group.

    The five groups are the roller root-find solve, the built-in closed
    solve, the two tip closed forms, the 3F2 and 2F1 series (z = f^2 <
    0.81) and the F1 and FD3 automatic routes; a group of two functions
    splits its share evenly. Per pass: 32 roller and 32 built-in solves,
    16 of each of the other six functions. Equal counts per function
    would put exactly half of the operations in the four cheap kinds
    (about 0.02 ms each, against 0.2 to 0.6 ms for the rest), and the
    median latency would jump across that gap from run to run.
    """
    lo, hi = 0.02, 0.9
    ops = []
    for kind in ("solve_roller", "solve_builtin"):
        ops += _rod_ops(kind, _strata(rng, 32, lo, hi))
    for kind in ("tip_uniform", "tip_shear"):
        ops += _rod_ops(kind, _strata(rng, 16, lo, hi))
    for i, f in enumerate(_strata(rng, 16, lo, hi)):
        params = KERNEL_UNIFORM if i % 2 == 0 else KERNEL_SHEAR
        ops.append(_op("hyp_3f2", "hyp_3f2", params=list(params), z=f * f))
    for i, f in enumerate(_strata(rng, 16, lo, hi)):
        params = KERNEL_BUILTIN_2F1 if i % 2 == 0 else (0.5, 0.5, 1.5)
        ops.append(_op("gauss_2f1", "gauss_2f1", params=list(params), z=f * f))
    for f in _strata(rng, 16, lo, hi):
        a = rng.uniform(0.5, 1.5)
        ops.append(_op("appell_f1", "appell_f1", a=a, b1=rng.uniform(0.2, 1.0),
                       b2=rng.uniform(0.2, 1.0), c=a + rng.uniform(1.0, 2.0),
                       x1=0.95 * f, x2=-0.6 * f))
    for f in _strata(rng, 16, lo, hi):
        a = rng.uniform(0.5, 1.5)
        ops.append(_op("lauricella_fd3", "lauricella_fd3", a=a,
                       b=[rng.uniform(0.2, 1.0) for _ in range(3)],
                       c=a + rng.uniform(1.0, 2.0), x=[0.95 * f, -0.6 * f, 0.5 * f]))
    rng.shuffle(ops)
    return ops


def _van_der_corput_order(n: int) -> list[int]:
    """0..n-1 in bit-reversed order, so that every prefix is spread over the range."""
    bits = max(1, (n - 1).bit_length())
    order = (int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits))
    return [v for v in order if v < n]


def near_critical(rng: random.Random) -> list[dict]:
    """Solvers and tip closed forms with 1 - f log-uniform in [1e-5, 1e-2].

    Every input clears the library's 1e-6 critical margin, so each has
    an answer. Cost grows like 1/(1 - f), so 48 log-strata per kind keep
    the heavy tail and the median of a pass the same from seed to seed,
    and each round of four operations (one per kind) takes its strata in
    bit-reversed order, so that the part of a pass that a run completes
    covers the whole range.
    """
    kinds = ("solve_roller", "solve_builtin", "tip_uniform", "tip_shear")
    strata = 48
    eps = {kind: _log_strata(rng, strata, 1e-5, 1e-2) for kind in kinds}
    order = _van_der_corput_order(strata)
    ops = []
    for r in range(strata):
        block = [_rod_ops(kind, [1.0 - eps[kind][(order[r] + k * strata // 4) % strata]])[0]
                 for k, kind in enumerate(kinds)]
        rng.shuffle(block)
        ops += block
    return ops


_ROD_ARGS = ["--L", "1", "--EJ", "200"]


def cli_cold(rng: random.Random) -> list[dict]:
    """One fresh CLI process per operation, six command kinds per round.

    Each of the 16 rounds holds one table roller and one table builtin,
    one roller root-find solve, one built-in closed solve, one deflect
    and one eval. Over the rounds --n runs through 5..20 once, in the
    same bit-reversed order for every seed: the cost of table roller
    grows like n^4, and a run completes only part of the rounds, so a
    seeded choice of n would decide the tail latency. Tables use f in
    [0.05, 0.45], inside the built-in series' 2F1 domain.
    """
    rounds = 16
    table_n = [5 + v for v in _van_der_corput_order(rounds)]
    f_tab_r = _strata(rng, rounds, 0.05, 0.45)
    f_tab_b = _strata(rng, rounds, 0.05, 0.45)
    f_sol_r = _strata(rng, rounds, 0.05, 0.9)
    f_sol_b = _strata(rng, rounds, 0.05, 0.9)
    f_def = _strata(rng, rounds, 0.05, 0.9)
    for seq in (f_tab_r, f_tab_b, f_sol_r, f_sol_b, f_def):
        rng.shuffle(seq)
    deflect_flags = [("--q", Q_CRIT_UNIFORM, "UniformLoad"), ("--P", P_CRIT_SHEAR, "TipShear"),
                     ("--M0", M_CRIT_MOMENT, "TipMoment")]
    eval_kinds = ["3f2", "2f1", "f1", "fd3"]
    ops = []
    for r in range(rounds):
        q = f_tab_r[r] * Q_CRIT_UNIFORM
        block = [
            _op("cli", "cli:table roller", check="table", problem="roller", load=q,
                n=table_n[r], argv=["table", "roller", *_ROD_ARGS, "--q", repr(q),
                                    "--n", str(table_n[r])]),
        ]
        q = f_tab_b[r] * Q_CRIT_BUILTIN
        n = table_n[(r + rounds // 2) % rounds]
        block.append(_op("cli", "cli:table builtin", check="table", problem="builtin",
                         load=q, n=n, argv=["table", "builtin", *_ROD_ARGS, "--q", repr(q),
                                            "--n", str(n)]))
        q = f_sol_r[r] * Q_CRIT_UNIFORM
        block.append(_op("cli", "cli:solve roller", check="solve", problem="roller", load=q,
                         argv=["solve", "roller", *_ROD_ARGS, "--q", repr(q),
                               "--method", "root-find"]))
        q = f_sol_b[r] * Q_CRIT_BUILTIN
        block.append(_op("cli", "cli:solve builtin", check="solve", problem="builtin", load=q,
                         argv=["solve", "builtin", *_ROD_ARGS, "--q", repr(q),
                               "--method", "closed"]))
        flag, crit, shape = deflect_flags[r % 3]
        load = f_def[r] * crit
        block.append(_op("cli", "cli:deflect", check="deflect", shape=shape, load=load,
                         argv=["deflect", *_ROD_ARGS, flag, repr(load)]))
        block.append(_eval_op(rng, eval_kinds[r % 4]))
        rng.shuffle(block)
        ops += block
    return ops


def _eval_op(rng: random.Random, fn: str) -> dict:
    f = rng.uniform(0.05, 0.9)
    if fn == "3f2":
        params = [*KERNEL_UNIFORM, f * f]
    elif fn == "2f1":
        params = [*KERNEL_BUILTIN_2F1, f * f]
    elif fn == "f1":
        a = rng.uniform(0.5, 1.5)
        params = [a, rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0),
                  a + rng.uniform(1.0, 2.0), 0.95 * f, -0.6 * f]
    else:
        a = rng.uniform(0.5, 1.5)
        params = [a, *(rng.uniform(0.2, 1.0) for _ in range(3)),
                  a + rng.uniform(1.0, 2.0), 0.95 * f, -0.6 * f, 0.5 * f]
    return _op("cli", "cli:eval", check="eval", function=fn, params=params,
               argv=["eval", fn, *(repr(p) for p in params)])


_BUILDERS = {
    "midrange": midrange,
    "near_critical": near_critical,
    "cli_cold": cli_cold,
}


def build(workload: str, seed: int) -> list[dict]:
    """The input pool of one workload; the same seed gives the same pool."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def warmup_ops(workload: str) -> list[dict]:
    """One operation per kind, at the lowest load of a fixed pool: cheap set-up calls."""
    if workload == "cli_cold":
        return []   # each CLI process is cold by design
    chosen: dict = {}
    for op in build(workload, -1):
        best = chosen.get(op["label"])
        if best is None or op["args"].get("f", 0.0) < best["args"].get("f", 0.0):
            chosen[op["label"]] = op
    return list(chosen.values())


# fixed operation counts for the traced run, per second of --seconds, so
# that counters repeat exactly for a given seed and run length
TRACED_OPS_PER_SECOND = {
    "midrange": 100,
    "near_critical": 1,
    "cli_cold": 0.5,
}


def traced_ops(workload: str, pool: list[dict], seconds: int) -> list[dict]:
    """The first k operations of the pool, cycling, k fixed by the run length."""
    k = max(1, round(TRACED_OPS_PER_SECOND[workload] * seconds))
    return [pool[i % len(pool)] for i in range(k)]
