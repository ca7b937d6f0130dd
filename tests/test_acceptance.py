"""Acceptance gate: one criterion per test, one printed verdict line each.

Every test prints "CRITERION k: PASS/FAIL - ..." with the measured
numbers before asserting, so a red criterion still reports what the
library actually produced.
"""

import time
from fractions import Fraction as F

import mpmath as mp
import numpy as np
from numpy.random import default_rng

from rodbend.elastica import (
    RodProperties,
    TipMoment,
    TipShear,
    UniformLoad,
    tip_deflection_moment,
    tip_deflection_shear,
    tip_deflection_uniform,
)
from rodbend.quadrature import IntegrandSpec, integrate, integrate_deflection
from rodbend.redundancy import (
    builtin_reaction_series,
    max_bending_stress_report,
    roller_reaction_series,
    solve_builtin,
    solve_roller,
    stabilized_from,
)
from rodbend.special_functions import (
    appell_f1,
    gauss_2f1,
    gauss_summation,
    lauricella_fd3,
    reduce_f1_to_3f2,
    reduce_fd3_unit_arg,
)

from _oracle import gamma_ratio

ROD = RodProperties.from_stiffness(1.0, 200.0)
Q = 1000.0


def report(k: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {k}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_roller_sample():
    t0 = time.perf_counter()
    x_lin = solve_roller(ROD, Q, method="linearized").X
    x_root = solve_roller(ROD, Q, method="root_find").X
    dt = time.perf_counter() - t0
    ratio = 375.0 / x_root - 1.0
    ok = x_lin == 375.0 and abs(ratio - 0.078) <= 0.005 and dt < 1.0
    report(1, ok, f"linearized={x_lin} N, root={x_root:.10f} N, "
                  f"375/X*-1={ratio:.6f} (want 0.078+-0.005), runtime={dt:.3f} s")
    assert x_lin == 375.0
    assert abs(ratio - 0.078) <= 0.005
    assert dt < 1.0


def test_criterion_2_roller_series_coefficients():
    want = [F(3, 8), F(-153, 143360), F(-47277, 267177164800),
            F(-4596133617, 200130658356428800)]
    series = roller_reaction_series(order=7)
    got = [series.coefficient(2 * k + 1) for k in range(4)]
    ok = got == want
    report(2, ok, f"reaction coefficients {'all exact' if ok else 'mismatch: ' + repr(got)} "
                  f"(orders w^1..w^7, zero tolerance)")
    assert got == want


def test_criterion_3_builtin_sample():
    # n_terms is the largest index k, so n_terms=4 sums the five terms
    # w^1..w^9; 95.16 N m (14.19 %) is that partial sum. Every b_k is
    # positive, so the sums rise towards the closed(hyp_approx) limit.
    x_lin = solve_builtin(ROD, Q, method="linearized").X
    x4 = solve_builtin(ROD, Q, method="series", n_terms=4).X
    x11 = solve_builtin(ROD, Q, method="series", n_terms=11).X
    x_lim = solve_builtin(ROD, Q, method="closed", integral_mode="hyp_approx").X
    pct = (x4 - x_lin) / x_lin * 100.0
    gap = (x_lim - x11) / x_lim
    want_b = [F(1, 12), F(11, 34560), F(77, 19906560)]
    series = builtin_reaction_series(order=5)
    got_b = [series.coefficient(2 * k + 1) for k in range(3)]

    lin_ok = abs(x_lin - 1000.0 / 12.0) == 0.0
    val_ok = abs(x4 - 95.16) <= 0.05
    pct_ok = abs(pct - 14.19) <= 0.3
    coeff_ok = got_b == want_b
    conv_ok = x4 < x11 < x_lim and gap < 2e-4
    ok = lin_ok and val_ok and pct_ok and coeff_ok and conv_ok
    report(3, ok,
           f"linearized={x_lin:.4f} N m ({'ok' if lin_ok else 'bad'}), "
           f"series(4)={x4:.6f} N m vs 95.16+-0.05 ({'ok' if val_ok else 'MISS'}), "
           f"above linearized {pct:.4f}% vs 14.19+-0.3 ({'ok' if pct_ok else 'MISS'}), "
           f"coefficients {'exact' if coeff_ok else 'mismatch'}, "
           f"series(11)={x11:.6f} N m < closed(hyp_approx)={x_lim:.6f} N m, "
           f"gap {gap:.3e} vs < 2e-4 ({'ok' if conv_ok else 'MISS'})")
    assert lin_ok
    assert coeff_ok
    assert val_ok, f"series(4) = {x4} is not within 95.16 +- 0.05"
    assert pct_ok, f"deviation {pct}% is not within 14.19 +- 0.3"
    assert x4 < x11 < x_lim, f"partial sums {x4}, {x11} do not rise towards {x_lim}"
    assert gap < 2e-4, f"series(11) is {gap:.3e} below its limit {x_lim}"


def test_criterion_4_stabilization():
    roller_trace = solve_roller(ROD, Q, method="series", n_terms=20).trace
    builtin_trace = solve_builtin(ROD, Q, method="series", n_terms=20).trace
    s_roller = stabilized_from(roller_trace)
    s_builtin = stabilized_from(builtin_trace)
    ok = (s_roller is not None and s_roller <= 7
          and s_builtin is not None and s_builtin <= 11)
    report(4, ok, f"relative changes < 1e-4 from n={s_roller} on (roller, need <=7) "
                  f"and n={s_builtin} on (built-in, need <=11)")
    assert s_roller is not None and s_roller <= 7
    assert s_builtin is not None and s_builtin <= 11


def test_criterion_5_closed_forms_match_quadrature():
    rng = default_rng(20260819)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        length = rng.uniform(0.5, 3.0)
        ej = rng.uniform(50.0, 500.0)
        rod = RodProperties.from_stiffness(length, ej)
        frac = rng.uniform(0.05, 0.9)
        q = frac * 6.0 * ej / length ** 3
        p = rng.uniform(0.05, 0.9) * 2.0 * ej / length ** 2
        m0 = rng.uniform(0.05, 0.9) * ej / length * rng.choice([-1.0, 1.0])
        pairs = [
            (tip_deflection_uniform(rod, q),
             integrate_deflection(UniformLoad(q), rod, 0.0)),
            (tip_deflection_shear(rod, -p),
             integrate_deflection(TipShear(p), rod, 0.0)),
            (tip_deflection_moment(rod, m0),
             integrate_deflection(TipMoment(m0), rod, 0.0)),
        ]
        for closed, quad in pairs:
            worst = max(worst, abs(closed - quad) / abs(closed))
    dt = time.perf_counter() - t0
    ok = worst < 1e-8 and dt < 30.0
    report(5, ok, f"50 random rods x 3 load types: worst relative gap "
                  f"closed-form vs quadrature = {worst:.3e} (need < 1e-8), "
                  f"runtime = {dt:.2f} s (need < 30)")
    assert worst < 1e-8
    assert dt < 30.0


def _euler_2f1_at_unit(a: float, b: float, c: float) -> float:
    # 2F1(a, b; c; 1) * Beta(b, c - b) by direct quadrature of the Euler
    # integrand; independent of the log-gamma route
    spec = IntegrandSpec(
        f=lambda u: u ** (b - 1.0) * (1.0 - u) ** (c - a - b - 1.0),
        lo=0.0, hi=1.0,
        lo_exponent=b - 1.0, hi_exponent=c - a - b - 1.0,
        rtol=1e-11, atol=1e-15,
    )
    val, _ = integrate(spec)
    with mp.workdps(30):
        return gamma_ratio([c], [b, c - b]) * val


def test_criterion_6_identity_suite():
    rng = default_rng(1803)
    worst = {"f1_to_2f1": 0.0, "fd3_unit_arg": 0.0, "f1_to_3f2": 0.0, "gauss_sum": 0.0}

    # F1(a; b, b; a+1; x, -x) = 2F1(a/2, b; a/2+1; x^2),
    # integral representation on the left, power series on the right
    for _ in range(100):
        a = rng.uniform(0.05, 4.0)
        b = rng.uniform(0.05, 1.0)
        x = rng.uniform(-0.8, 0.8)
        lhs = appell_f1(a, b, b, a + 1.0, x, -x, method="integral")
        rhs = gauss_2f1(0.5 * a, b, 0.5 * a + 1.0, x * x)
        worst["f1_to_2f1"] = max(worst["f1_to_2f1"], abs(lhs - rhs) / abs(rhs))

    # three-variable function with one argument at 1 against its
    # two-variable reduction, integral vs series routes
    for _ in range(100):
        a = rng.uniform(0.3, 2.5)
        b1 = rng.uniform(0.05, 0.9)
        b2 = rng.uniform(0.05, 0.9)
        b3 = rng.uniform(0.05, 0.9)
        c = a + b3 + rng.uniform(0.4, 2.0)
        x = rng.uniform(-0.7, 0.7)
        y = rng.uniform(-0.7, 0.7)
        lhs = lauricella_fd3(a, (b1, b2, b3), c, (x, y, 1.0), method="integral")
        rhs = reduce_fd3_unit_arg(a, b1, b2, b3, c, x, y)
        worst["fd3_unit_arg"] = max(worst["fd3_unit_arg"], abs(lhs - rhs) / abs(rhs))

    # F1(a; b, b; c; x, -x) against its 3F2 form
    for _ in range(100):
        a = rng.uniform(0.3, 2.5)
        b = rng.uniform(0.05, 0.9)
        c = a + rng.uniform(0.4, 2.0)
        x = rng.uniform(-0.75, 0.75)
        lhs = appell_f1(a, b, b, c, x, -x, method="integral")
        rhs = reduce_f1_to_3f2(a, b, c, x)
        worst["f1_to_3f2"] = max(worst["f1_to_3f2"], abs(lhs - rhs) / abs(rhs))

    # Gauss summation against direct quadrature of the Euler integral;
    # exponents stay above -0.35 so the integrable endpoint mass is
    # representable in double precision
    for _ in range(100):
        b = rng.uniform(0.65, 1.6)
        s = rng.uniform(0.65, 2.0)  # s = c - a - b
        a = rng.uniform(0.1, 1.5)
        c = a + b + s
        lhs = gauss_summation(a, b, c)
        rhs = _euler_2f1_at_unit(a, b, c)
        worst["gauss_sum"] = max(worst["gauss_sum"], abs(lhs - rhs) / abs(rhs))

    ok = all(v < 1e-9 for v in worst.values())
    report(6, ok, "worst relative gap over 100 random points each: "
           + ", ".join(f"{k}={v:.3e}" for k, v in worst.items())
           + " (need < 1e-9, dual code paths)")
    for name, v in worst.items():
        assert v < 1e-9, f"identity {name} off by {v}"


def test_criterion_7_quadratic_linearized_limit():
    fits = {}
    for name, q0, solve in (("roller", 600.0, lambda q: solve_roller(ROD, q, method="root_find").X),
                            ("builtin", 600.0, lambda q: solve_builtin(ROD, q, method="closed").X)):
        qs = [q0, q0 / 2.0, q0 / 4.0]
        lin = {"roller": lambda q: 3.0 * q / 8.0, "builtin": lambda q: q / 12.0}[name]
        defects = [abs(solve(q) - lin(q)) / lin(q) for q in qs]
        slope = np.polyfit(np.log(qs), np.log(defects), 1)[0]
        fits[name] = slope
    ok = all(abs(s - 2.0) <= 0.1 for s in fits.values())
    report(7, ok, f"fitted defect exponents: roller={fits['roller']:.4f}, "
                  f"builtin={fits['builtin']:.4f} (need 2.0 +- 0.1)")
    for s in fits.values():
        assert abs(s - 2.0) <= 0.1


def test_criterion_8_stiffness_dependence():
    x200 = solve_roller(ROD, Q, method="root_find").X
    x400 = solve_roller(RodProperties.from_stiffness(1.0, 400.0), Q, method="root_find").X
    x_inf = solve_roller(RodProperties.from_stiffness(1.0, 1e9), Q, method="root_find").X
    rel_2x = abs(x400 - x200) / x200
    rel_inf = abs(x_inf - 375.0) / 375.0
    ok = rel_2x > 1e-3 and rel_inf < 1e-6
    report(8, ok, f"X(EJ=200)={x200:.6f}, X(EJ=400)={x400:.6f}, relative gap "
                  f"{rel_2x:.3e} (need > 1e-3); X(EJ=1e9) within {rel_inf:.3e} "
                  f"of 375 (need < 1e-6)")
    assert rel_2x > 1e-3
    assert rel_inf < 1e-6


def test_criterion_9_max_moment_report():
    sol = solve_roller(ROD, Q, method="root_find")
    rep = max_bending_stress_report(sol)
    m_lin = rep["M_max_linearized_Nm"]
    drop = rep["stress_drop_pct_of_nonlinear"]
    ok = m_lin == 70.3125 and abs(drop - 16.0) <= 2.0
    report(9, ok, f"linearized peak moment {m_lin} N m (want 70.3125 exactly); "
                  f"linearized edge stress exceeds nonlinear by {drop:.4f}% "
                  f"(want 16 +- 2)")
    assert m_lin == 70.3125
    assert abs(drop - 16.0) <= 2.0
