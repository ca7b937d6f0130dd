"""Redundant-reaction solvers: series, root finding, closed forms, reports."""

import math
import re
import time
from fractions import Fraction as F

import pytest

from rodbend import redundancy, special_functions
from rodbend.elastica import RodProperties, tip_deflection_shear, tip_deflection_uniform
from rodbend.errors import (
    BracketError,
    DomainError,
    InfeasibleLoadError,
    NearCriticalLoadError,
    UsageError,
)
from rodbend.redundancy import (
    ConsistencyEquation,
    RedundancySolution,
    builtin_reaction_series,
    builtin_tip_integral,
    max_bending_stress_report,
    roller_consistency,
    roller_reaction_series,
    solve_builtin,
    solve_roller,
    stabilized_from,
)

ROD = RodProperties.from_stiffness(1.0, 200.0)
Q = 1000.0

# reference roots of the scaled consistency equation at L=1, q=1000, EJ=200,
# found independently by high-precision bisection on the hypergeometric form
ROOT_EXPANSION = 347.6368432063616888
ROOT_DISPLACEMENT = 356.2970653152939935


# -------------------------------------------------------- consistency equation

def test_lhs_is_odd():
    eq = ConsistencyEquation("expansion", ROD, Q)
    for y in (0.1, 0.45, 0.9):
        assert eq.lhs(-y) == -eq.lhs(y)


def test_lhs_strictly_increasing_and_unbounded_toward_one():
    eq = ConsistencyEquation("expansion", ROD, Q)
    ys = [0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.99, 0.999]
    vals = [eq.lhs(y, rtol=1e-10) for y in ys]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # divergent tail: the last sample has left Y itself far behind
    assert vals[-1] > 6.0


def test_target_value_for_reference_rod():
    eq = ConsistencyEquation("expansion", ROD, Q)
    assert eq.target() == pytest.approx(1.44568474701092, rel=1e-12)


def test_root_satisfies_scaled_equation():
    eq = ConsistencyEquation("expansion", ROD, Q)
    x_root = solve_roller(ROD, Q, method="root_find").X
    y_root = x_root * ROD.L ** 2 / (2.0 * ROD.EJ)
    assert eq.lhs(y_root) == pytest.approx(eq.target(), rel=1e-11)


def test_consistency_equation_refuses_an_unknown_kernel():
    with pytest.raises(UsageError, match="kernel must be one of"):
        ConsistencyEquation("nope", ROD, Q)


def test_consistency_equation_refuses_a_load_the_rod_cannot_carry():
    with pytest.raises(InfeasibleLoadError) as excinfo:
        ConsistencyEquation("expansion", ROD, 1e9)
    assert excinfo.type is InfeasibleLoadError
    assert str(excinfo.value) == "q = 1e+09 violates q < 6*EJ/L^3 = 1200 N/m"
    with pytest.raises(UsageError, match="q must be nonnegative"):
        ConsistencyEquation("expansion", ROD, -1.0)


# ------------------------------------------------------------ tip-kernel bits

# float.hex of the tip closed forms at (L, EJ) and a fraction f of each
# bound: q = f * (6 EJ/L^3), the uniform bound and the radius of the 2F1
# approximation, and X = f * (2 EJ/L^2), the tip-shear bound. Columns:
# tip_deflection_uniform(q), tip_deflection_shear(X),
# builtin_tip_integral(q, "hyp_approx"), ConsistencyEquation target(q).
_TIP_KERNEL_BITS = {
    (1.0, 200.0, 0.1): ("0x1.3464859463f0ap-4", "-0x1.1202344aae258p-4",
                        "0x1.9a6c4de29cd4cp-6", "0x1.ce96c85e95e8ep-4"),
    (1.0, 200.0, 0.6): ("0x1.10c00e6ac5e5ep-1", "-0x1.db2e188c4440ap-2",
                        "0x1.4e2455a151c43p-3", "0x1.992015a028d8ep-1"),
    (1.0, 200.0, 0.95): ("0x1.9812f9679adc3p+0", "-0x1.3ed8242b4afc8p+0",
                         "0x1.5381573cc23c4p-2", "0x1.320e3b0db4254p+1"),
    (1.3, 350.0, 0.1): ("0x1.90e9140db51f5p-4", "-0x1.643610c77bfdbp-4",
                        "0x1.0ac665d34c572p-5", "0x1.ce96c85e95e8ep-4"),
    (1.3, 350.0, 0.6): ("0x1.629345f13477ap-1", "-0x1.34ddf65b2c5d2p-1",
                        "0x1.b2626f51b718ap-3", "0x1.992015a028d8ap-1"),
    (1.3, 350.0, 0.95): ("0x1.093f888357dbfp+1", "-0x1.9e7f623847e19p+0",
                         "0x1.b95b57cefc819p-2", "0x1.320e3b0db4251p+1"),
}


@pytest.mark.parametrize("L, EJ, f", sorted(_TIP_KERNEL_BITS), ids=str)
def test_tip_kernel_bits_are_pinned(L, EJ, f):
    rod = RodProperties.from_stiffness(L, EJ)
    q, X = f * (6.0 * EJ / L ** 3), f * (2.0 * EJ / L ** 2)
    got = (tip_deflection_uniform(rod, q).hex(), tip_deflection_shear(rod, X).hex(),
           builtin_tip_integral(rod, q, mode="hyp_approx").hex(),
           ConsistencyEquation("expansion", rod, q).target().hex())
    assert got == _TIP_KERNEL_BITS[L, EJ, f]


# ------------------------------------------------------------- roller solver

def test_roller_linearized_reaction():
    sol = solve_roller(ROD, Q, method="linearized")
    assert sol.X == 375.0
    assert sol.units == "N"
    assert sol.method == "linearized"
    assert sol.deviation_pct == 0.0
    assert sol.trace == ()


def test_roller_root_expansion_kernel():
    sol = solve_roller(ROD, Q, method="root_find")
    assert sol.X == pytest.approx(ROOT_EXPANSION, rel=1e-9)
    assert sol.deviation_pct == pytest.approx(7.8711901, abs=1e-5)
    assert abs(sol.residual) < 1e-8


def test_roller_root_displacement_kernel():
    sol = solve_roller(ROD, Q, method="root_find", kernel="displacement")
    assert sol.X == pytest.approx(ROOT_DISPLACEMENT, rel=1e-9)
    assert sol.deviation_pct == pytest.approx(5.2492531, abs=1e-5)


def test_root_find_sums_the_load_side_once_and_never_at_the_cap(monkeypatch):
    # at q = 1000 the bracket top is the cap 0.999 * 2EJ/L^2; every 3F2 the
    # solve sums goes through the summation loop, which solve_roller calls
    # through the one _roller_residual that serves the root finder and the
    # reported residual
    args = []
    loop = special_functions._sum_ratios

    def counting(block, params, x, rtol):
        args.append(x)
        return loop(block, params, x, rtol)

    monkeypatch.setattr(special_functions, "_sum_ratios", counting)
    monkeypatch.setattr(redundancy, "_sum_ratios", counting)
    solve_roller(ROD, Q, method="root_find")
    load_arg = ROD.L ** 6 * Q ** 2 / (36.0 * ROD.EJ ** 2)
    y_cap = 2.0 * ROD.EJ / ROD.L ** 2 * 0.999
    cap_arg = ROD.L ** 4 * y_cap ** 2 / (4.0 * ROD.EJ ** 2)
    assert 1.1 * 3.0 * Q * ROD.L / 8.0 > y_cap
    # once for the root finder and the reported residual together
    assert args.count(load_arg) == 1
    assert max(args) < cap_arg
    # 1 load side + 22 bisection and secant probes + 1 for the residual
    assert len(args) == 24


def test_displacement_kernel_closes_tip_displacement():
    # at the displacement-kernel root the uniform-load sag is cancelled
    # exactly by the lift of the reaction treated as a tip shear
    x_root = solve_roller(ROD, Q, method="root_find", kernel="displacement", rtol=1e-14).X
    sag = tip_deflection_uniform(ROD, Q)
    lift = tip_deflection_shear(ROD, x_root)
    assert abs(sag + lift) < 1e-9 * abs(sag)


def test_expansion_kernel_does_not_close_tip_displacement():
    x_root = solve_roller(ROD, Q, method="root_find", kernel="expansion").X
    sag = tip_deflection_uniform(ROD, Q)
    lift = tip_deflection_shear(ROD, x_root)
    assert abs(sag + lift) > 1e-3 * abs(sag)


def test_roller_series_reference_values():
    sol = solve_roller(ROD, Q, method="series", n_terms=7)
    assert sol.method == "series(7)"
    assert sol.trace[0][1] == 375.0
    assert sol.X == pytest.approx(347.65011089582157, rel=1e-12)


def test_roller_series_approaches_root_from_trace():
    sol = solve_roller(ROD, Q, method="series", n_terms=20)
    assert sol.X == pytest.approx(347.63685999503605, rel=1e-12)
    assert abs(sol.X - ROOT_EXPANSION) / ROOT_EXPANSION < 1e-6


def test_roller_methods_agree_at_moderate_loads():
    for q in (100.0, 200.0, 300.0, 360.0):
        x_series = solve_roller(ROD, q, method="series", n_terms=7).X
        x_root = solve_roller(ROD, q, method="root_find").X
        assert abs(x_series - x_root) / x_root < 1e-6


def test_roller_roots_at_half_and_quarter_load():
    assert solve_roller(ROD, 500.0, method="root_find").X == pytest.approx(
        184.15835346516192, rel=1e-10)
    assert solve_roller(ROD, 250.0, method="root_find").X == pytest.approx(
        93.33297773108619, rel=1e-10)


def test_roller_zero_load():
    sol = solve_roller(ROD, 0.0, method="root_find")
    assert sol.X == 0.0
    assert sol.deviation_pct == 0.0


def test_roller_deviation_sign_is_positive():
    # the linearized formula overestimates the reaction
    for method in ("root_find", "series"):
        assert solve_roller(ROD, Q, method=method).deviation_pct > 0.0


# ------------------------------------------------------------ exact coefficients

def test_roller_series_coefficients_exact():
    s = roller_reaction_series(order=9)
    assert s.coefficient(1) == F(3, 8)
    assert s.coefficient(3) == F(-153, 143360)
    assert s.coefficient(5) == F(-47277, 267177164800)
    assert s.coefficient(7) == F(-4596133617, 200130658356428800)
    assert s.coefficient(9) == F(-109561857375393, 372979505365709225984000)


def test_builtin_series_coefficients_exact():
    s = builtin_reaction_series(order=7)
    assert s.coefficient(1) == F(1, 12)
    assert s.coefficient(3) == F(11, 34560)
    assert s.coefficient(5) == F(77, 19906560)
    assert s.coefficient(7) == F(39877, 630639820800)


@pytest.mark.parametrize("build", [roller_reaction_series, builtin_reaction_series])
def test_reaction_series_radius_is_six(build):
    # Domb-Sykes: the ratios r_k = a_k / a_(k-1) of the coefficients a_k of
    # w^(2k+1) approach 1/R^2 linearly in 1/k, so 30 r_30 - 29 r_29 removes
    # the 1/k term; w = 6 is the roller's critical load
    s = build(61)
    a = [s.coefficient(2 * k + 1) for k in range(31)]
    r29, r30 = a[29] / a[28], a[30] / a[29]
    radius = float(30 * r30 - 29 * r29) ** -0.5
    assert abs(radius - 6.0) < 0.01


def test_kernel_changes_cubic_coefficient_but_not_linear():
    disp = roller_reaction_series(order=3, kernel="displacement")
    assert disp.coefficient(1) == F(3, 8)
    assert disp.coefficient(3) != F(-153, 143360)


# ------------------------------------------------------------- built-in solver

def test_builtin_linearized_end_moment():
    sol = solve_builtin(ROD, Q, method="linearized")
    assert sol.X == pytest.approx(1000.0 / 12.0, rel=1e-15)
    assert sol.units == "N m"
    assert sol.residual is None


def test_builtin_series_partial_sums():
    sol = solve_builtin(ROD, Q, method="series", n_terms=4)
    assert sol.trace[0][1] == pytest.approx(83.33333333333333, rel=1e-14)
    assert sol.trace[1][1] == pytest.approx(91.29050925925925, rel=1e-12)
    assert sol.X == pytest.approx(95.16013089444073, rel=1e-12)


def test_builtin_series_converged_values():
    assert solve_builtin(ROD, Q, method="series", n_terms=11).X == pytest.approx(
        95.6815720722438, rel=1e-12)
    assert solve_builtin(ROD, Q, method="series", n_terms=20).X == pytest.approx(
        95.69534887410185, rel=1e-12)


def test_builtin_tip_integral_both_modes():
    assert builtin_tip_integral(ROD, Q, mode="quadrature") == pytest.approx(
        0.22072840604112143, rel=1e-9)
    assert builtin_tip_integral(ROD, Q, mode="hyp_approx") == pytest.approx(
        0.2547671086182601, rel=1e-12)
    assert builtin_tip_integral(ROD, 0.0) == 0.0


def test_builtin_closed_both_modes():
    quad = solve_builtin(ROD, Q, method="closed", integral_mode="quadrature")
    approx = solve_builtin(ROD, Q, method="closed", integral_mode="hyp_approx")
    assert quad.method == "closed(quadrature)"
    assert quad.X == pytest.approx(84.18956038383605, rel=1e-9)
    assert approx.X == pytest.approx(95.69559819137936, rel=1e-12)


def test_builtin_series_limit_is_the_approx_closure():
    # the series route analytically continues the 2F1 approximation, so
    # its limit must sit on closed(hyp_approx), not on the exact integral
    x_series = solve_builtin(ROD, Q, method="series", n_terms=11).X
    x_approx = solve_builtin(ROD, Q, method="closed", integral_mode="hyp_approx").X
    x_quad = solve_builtin(ROD, Q, method="closed", integral_mode="quadrature").X
    assert abs(x_series - x_approx) / x_approx < 0.01
    assert abs(x_quad - x_approx) / x_approx > 0.10


def test_builtin_closed_at_half_and_quarter_load():
    assert solve_builtin(ROD, 500.0, method="closed").X == pytest.approx(
        41.7709205952723, rel=1e-9)
    assert solve_builtin(ROD, 250.0, method="closed").X == pytest.approx(
        20.846279287674978, rel=1e-9)


def test_builtin_2f1_routes_refused_past_their_radius():
    # the 2F1 argument w^2/36, w = qL^3/EJ, reaches 1 at q = 1200 N/m,
    # half the built-in bound; the end moment can never exceed EJ/L
    q_radius = 6.0 * ROD.EJ / ROD.L ** 3
    below, above = math.nextafter(q_radius, 0.0), math.nextafter(q_radius, math.inf)
    assert solve_builtin(ROD, below, method="series", n_terms=11).X < ROD.EJ / ROD.L
    for q in (q_radius, above, 2000.0, 2399.0):
        with pytest.raises(NearCriticalLoadError, match="series diverges at and past its radius"):
            solve_builtin(ROD, q, method="series", n_terms=11)
    # at w = 6 the 2F1 still converges (c > a + b), by Gauss summation
    assert solve_builtin(ROD, q_radius, method="closed", integral_mode="hyp_approx").X < ROD.EJ
    for q in (above, 1500.0, 2399.0):
        with pytest.raises(NearCriticalLoadError, match=re.escape("use --method closed")):
            solve_builtin(ROD, q, method="closed", integral_mode="hyp_approx")
    assert solve_builtin(ROD, 2000.0, method="closed").X < ROD.EJ / ROD.L


def test_builtin_closed_near_critical_quadrature_refused_with_exit_2_class():
    # q = 2399.99 and 2399.997 pass both gates (margins 4.2e-6 and 1.3e-6
    # against 1e-6), but the deflection quadrature cannot reach rtol 1e-13
    # within its subdivision budget; that is a near-critical load, not a
    # usage error
    for q, margin in ((2399.99, "4.167e-06"), (2399.997, "1.250e-06")):
        with pytest.raises(NearCriticalLoadError, match=re.escape(margin)) as info:
            solve_builtin(ROD, q, method="closed")
        assert "deflection quadrature stopped at error" in str(info.value)
    assert solve_builtin(ROD, 2399.9, method="closed").X == pytest.approx(
        143.992502312244, rel=1e-12)


def test_builtin_deviation_sign_is_negative():
    # nonlinear end moments exceed the linearized value, either route
    assert solve_builtin(ROD, Q, method="closed").deviation_pct < 0.0
    assert solve_builtin(ROD, Q, method="series", n_terms=11).deviation_pct < 0.0


def test_builtin_zero_load():
    sol = solve_builtin(ROD, 0.0, method="closed")
    assert sol.X == 0.0
    assert sol.deviation_pct == 0.0


# --------------------------------------------------------------- stabilization

def test_roller_trace_stabilizes_at_six():
    trace = solve_roller(ROD, Q, method="series", n_terms=20).trace
    assert stabilized_from(trace) == 6


def test_builtin_trace_stabilizes_at_eleven():
    trace = solve_builtin(ROD, Q, method="series", n_terms=20).trace
    assert stabilized_from(trace) == 11


def test_stabilized_from_edge_cases():
    assert stabilized_from([]) is None
    assert stabilized_from([(0, 1.0)]) is None
    assert stabilized_from([(0, 1.0), (1, 2.0), (2, 3.0)]) is None
    assert stabilized_from([(0, 1.0), (1, 1.0 + 1e-6)]) == 1
    # a late kick resets the stabilization point
    assert stabilized_from([(0, 1.0), (1, 1.0), (2, 2.0), (3, 2.0)]) == 3


def test_stabilized_from_respects_tolerance():
    trace = [(0, 1.0), (1, 1.001), (2, 1.0010001)]
    assert stabilized_from(trace, tol=1e-4) == 2
    assert stabilized_from(trace, tol=1e-2) == 1


# ------------------------------------------------------ invariance and scaling

def test_scaled_root_invariant_under_rod_rescaling():
    # the dimensionless root Y = X L^2 / (2 EJ) depends on w = L^3 q / EJ only
    s1 = solve_roller(ROD, 1000.0, method="root_find")
    s2 = solve_roller(RodProperties.from_stiffness(2.0, 400.0), 250.0, method="root_find")
    y1 = s1.X * 1.0 ** 2 / (2.0 * 200.0)
    y2 = s2.X * 2.0 ** 2 / (2.0 * 400.0)
    assert abs(y1 - y2) <= 1e-10 * abs(y1)


def test_stiffness_dependence_of_roller_root():
    x200 = solve_roller(ROD, Q, method="root_find").X
    x400 = solve_roller(RodProperties.from_stiffness(1.0, 400.0), Q, method="root_find").X
    assert x400 == pytest.approx(368.31670693032385, rel=1e-10)
    assert abs(x400 - x200) / x200 > 1e-3


def test_rigid_limit_recovers_linearized_reaction():
    x_rigid = solve_roller(RodProperties.from_stiffness(1.0, 1e9), Q,
                           method="root_find").X
    assert abs(x_rigid - 375.0) / 375.0 < 1e-6


def test_relative_defect_scales_quadratically_in_load():
    # (X_lin - X) / X ~ w^2, so halving q shrinks the defect 4x
    for solver, kwargs in ((solve_roller, {"method": "root_find"}),
                           (solve_builtin, {"method": "closed",
                                            "integral_mode": "hyp_approx"})):
        defects = []
        for q in (400.0, 200.0):
            x = solver(ROD, q, **kwargs).X
            lin = solver(ROD, q, method="linearized").X
            defects.append(abs(x - lin) / lin)
        ratio = defects[0] / defects[1]
        assert 3.7 < ratio < 4.3


# ----------------------------------------------------------------- validation

def test_negative_load_rejected():
    with pytest.raises(UsageError):
        solve_roller(ROD, -1.0, method="linearized")
    with pytest.raises(UsageError):
        solve_builtin(ROD, -1.0, method="linearized")


@pytest.mark.parametrize("q", [math.nan, math.inf])
@pytest.mark.parametrize("solve, kwargs", [
    (solve_roller, {"method": "linearized"}),
    (solve_roller, {"method": "series"}),
    (solve_roller, {"method": "root_find"}),
    (solve_builtin, {"method": "linearized"}),
    (solve_builtin, {"method": "series"}),
    (solve_builtin, {"method": "closed"}),
    (solve_builtin, {"method": "closed", "integral_mode": "hyp_approx"}),
], ids=lambda v: v.__name__ if callable(v) else "-".join(v.values()))
def test_non_finite_load_rejected(solve, kwargs, q):
    with pytest.raises(UsageError, match="finite"):
        solve(ROD, q, **kwargs)


def test_infeasible_loads_rejected():
    with pytest.raises(InfeasibleLoadError):
        solve_roller(ROD, 1200.0, method="root_find")
    with pytest.raises(InfeasibleLoadError):
        solve_builtin(ROD, 2400.0, method="closed")


def test_near_critical_roller_load_fails_to_bracket():
    with pytest.raises(BracketError):
        solve_roller(ROD, 1199.0, method="root_find")


# loads the gate accepts whose 3F2 argument rounds to 1: the load side of
# the first, the reaction side at the tip-shear bound of the second
_EDGE_OF_THE_3F2_DOMAIN = {
    "root_find, load side": lambda: solve_roller(
        RodProperties.from_stiffness(1.3, 350.0), 955.8488848429675, "root_find"),
    "roller_consistency, reaction side": lambda: roller_consistency(
        RodProperties.from_stiffness(0.7, 50.0), 0.0, 204.08163265306123),
}


@pytest.mark.parametrize("case", sorted(_EDGE_OF_THE_3F2_DOMAIN))
def test_edge_of_the_3f2_domain_refused_at_once(case):
    start = time.perf_counter()
    with pytest.raises(DomainError, match=re.escape("3F2 series needs |x| < 1, got x=1.0")):
        _EDGE_OF_THE_3F2_DOMAIN[case]()
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf],
                         ids=["nan", "zero", "negative", "inf"])
@pytest.mark.parametrize("method", ["linearized", "series", "root_find"])
def test_solve_roller_refuses_a_bad_tolerance(method, bad):
    with pytest.raises(UsageError) as excinfo:
        solve_roller(ROD, Q, method=method, rtol=bad)
    assert str(excinfo.value) == f"tolerance must be finite and positive, got {bad}"


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf],
                         ids=["nan", "zero", "negative", "inf"])
@pytest.mark.parametrize("q", [Q, 0.0], ids=["loaded", "unloaded"])
@pytest.mark.parametrize("call", [
    lambda q, rtol: solve_builtin(ROD, q, "linearized", rtol=rtol),
    lambda q, rtol: solve_builtin(ROD, q, "series", rtol=rtol),
    lambda q, rtol: solve_builtin(ROD, q, "closed", rtol=rtol),
    lambda q, rtol: solve_builtin(ROD, q, "closed", integral_mode="hyp_approx", rtol=rtol),
    lambda q, rtol: builtin_tip_integral(ROD, q, rtol=rtol),
    lambda q, rtol: builtin_tip_integral(ROD, q, mode="hyp_approx", rtol=rtol),
], ids=["linearized", "series", "closed", "closed-hyp_approx", "integral-quadrature",
        "integral-hyp_approx"])
def test_builtin_refuses_a_bad_tolerance(call, q, bad):
    with pytest.raises(UsageError) as excinfo:
        call(q, bad)
    assert str(excinfo.value) == f"tolerance must be finite and positive, got {bad}"


@pytest.mark.parametrize("q", [Q, 0.0], ids=["loaded", "unloaded"])
@pytest.mark.parametrize("call", [
    lambda q: solve_builtin(ROD, q, "linearized", integral_mode="bogus"),
    lambda q: solve_builtin(ROD, q, "series", integral_mode="bogus"),
    lambda q: solve_builtin(ROD, q, "closed", integral_mode="bogus"),
    lambda q: builtin_tip_integral(ROD, q, mode="bogus"),
    lambda q: builtin_tip_integral(ROD, q, mode="bogus", rtol=-1.0),
], ids=["linearized", "series", "closed", "integral", "integral-bad-rtol"])
def test_builtin_refuses_an_unknown_integral_mode(call, q):
    with pytest.raises(UsageError, match=re.escape(
            "mode must be 'quadrature' or 'hyp_approx', got 'bogus'")):
        call(q)


def test_unknown_method_and_kernel_rejected():
    with pytest.raises(UsageError):
        solve_roller(ROD, Q, method="newton")
    with pytest.raises(UsageError):
        solve_roller(ROD, Q, method="root_find", kernel="fourier")
    with pytest.raises(UsageError):
        solve_builtin(ROD, Q, method="root_find")
    with pytest.raises(UsageError):
        builtin_tip_integral(ROD, Q, mode="series")


@pytest.mark.parametrize("kwargs", [
    dict(method="newton"),
    dict(method="root_find", kernel="fourier"),
    dict(method="root_find", rtol=0.0),
    dict(method="series", n_terms=-1),
    dict(method="series", n_terms=51),
    dict(method="series", n_terms=2.5),
], ids=["method", "kernel", "rtol", "n_terms-negative", "n_terms-above", "n_terms-float"])
def test_solve_roller_refuses_usage_before_any_sum(monkeypatch, kwargs):
    def no_sum(*args):
        raise AssertionError("a 3F2 was summed")

    monkeypatch.setattr(redundancy, "_sum_ratios", no_sum)
    with pytest.raises(UsageError):
        solve_roller(ROD, Q, **kwargs)


def test_consistency_residual_rejects_infeasible_reaction():
    with pytest.raises(InfeasibleLoadError):
        roller_consistency(ROD, Q, 400.0)
    with pytest.raises(InfeasibleLoadError, match=re.escape("P = -400 violates |P| < 2*EJ/L^2 = 400 N")):
        roller_consistency(ROD, Q, -400.0)


def test_series_order_validation():
    with pytest.raises(UsageError):
        roller_reaction_series(order=0)
    with pytest.raises(UsageError):
        builtin_reaction_series(order=0)
    with pytest.raises(UsageError):
        solve_roller(ROD, Q, method="series", n_terms=-1)
    with pytest.raises(UsageError):
        solve_builtin(ROD, Q, method="series", n_terms=-1)


def test_series_order_is_bounded(monkeypatch):
    # a cold build grows about as order^4, seconds past order 101
    # (n_terms 50); the refusal comes before any coefficient is built
    def no_build(*args):
        raise AssertionError("a coefficient was built")

    monkeypatch.setattr(redundancy, "hyp3f2_taylor", no_build)
    for build in (roller_reaction_series, builtin_reaction_series):
        with pytest.raises(UsageError, match=re.escape("[1, 101], got 103")):
            build(103)
    for solve in (solve_roller, solve_builtin):
        with pytest.raises(UsageError, match=re.escape("[0, 50], got 51")):
            solve(ROD, Q, method="series", n_terms=51)
    # a bool or a non-integer is refused as a usage error that is also a
    # TypeError, before any coefficient is built
    for build in (roller_reaction_series, builtin_reaction_series):
        for bad in (3.5, 3.0, True):
            with pytest.raises(UsageError, match=re.escape(
                    f"series order must be an integer, got {bad!r}")) as excinfo:
                build(bad)
            assert isinstance(excinfo.value, TypeError)
    for solve in (solve_roller, solve_builtin):
        for bad in (2.5, 2.0, True):
            with pytest.raises(UsageError, match=re.escape(
                    f"n_terms must be an integer, got {bad!r}")) as excinfo:
                solve(ROD, 500.0, method="series", n_terms=bad)
            assert isinstance(excinfo.value, TypeError)


# -------------------------------------------------------------------- reports

def test_roller_stress_report():
    sol = solve_roller(ROD, Q, method="root_find")
    rep = max_bending_stress_report(sol)
    assert rep["M_max_linearized_Nm"] == 70.3125
    assert rep["M_max_nonlinear_Nm"] == pytest.approx(60.425687377244245, rel=1e-9)
    assert rep["x_peak_linearized_m"] == 0.375
    assert rep["x_peak_nonlinear_m"] == pytest.approx(0.34763684320636, rel=1e-9)
    assert rep["stress_drop_pct_of_linearized"] == pytest.approx(14.0612446, abs=1e-5)
    assert rep["stress_drop_pct_of_nonlinear"] == pytest.approx(16.3619365, abs=1e-5)


def test_builtin_stress_report():
    sol = solve_builtin(ROD, Q, method="closed", integral_mode="quadrature")
    rep = max_bending_stress_report(sol)
    assert rep["M_end_linearized_Nm"] == pytest.approx(83.33333333333333, rel=1e-14)
    assert rep["M_end_nonlinear_Nm"] == pytest.approx(84.18956038383605, rel=1e-9)
    assert rep["M_midspan_linearized_Nm"] == pytest.approx(-41.66666666666667, rel=1e-14)
    # the end section stays the critical one
    assert rep["M_max_nonlinear_Nm"] == rep["M_end_nonlinear_Nm"]
    assert rep["stress_change_pct_of_linearized"] == pytest.approx(1.0274725, abs=1e-5)


def test_roller_stress_report_zero_load():
    sol = solve_roller(ROD, 0.0, method="linearized")
    rep = max_bending_stress_report(sol)
    assert rep["M_max_linearized_Nm"] == 0.0
    assert rep["stress_drop_pct_of_nonlinear"] == 0.0


# float.hex of every numeric report field, in the report's order, of the
# roller root and the built-in closed end moment at q = frac * k * EJ / L^3,
# k * EJ / L^3 the problem's feasible bound (k = 6 roller, 12 built-in)
REPORT_FIELDS = {
    "roller": ("M_max_linearized_Nm", "M_max_nonlinear_Nm", "x_peak_linearized_m",
               "x_peak_nonlinear_m", "stress_drop_pct_of_linearized",
               "stress_drop_pct_of_nonlinear"),
    "builtin": ("M_end_linearized_Nm", "M_end_nonlinear_Nm", "M_midspan_linearized_Nm",
                "M_midspan_nonlinear_Nm", "M_max_linearized_Nm", "M_max_nonlinear_Nm",
                "stress_change_pct_of_linearized", "stress_change_pct_of_nonlinear"),
}
REPORT_BITS = [
    ('roller', 1.0, 200.0, 0.0, (
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
    )),
    ('roller', 1.0, 200.0, 0.3, (
        '0x1.94ffffffffffep+4', '0x1.8d8f49cc7648bp+4', '0x1.8000000000000p-2',
        '0x1.7c74d7017ab33p-2', '0x1.d64c97c98290cp+0', '0x1.df19cccdf3de4p+0',
    )),
    ('roller', 1.0, 200.0, 0.8, (
        '0x1.0e00000000001p+6', '0x1.d61cbf15938ccp+5', '0x1.8000000000000p-2',
        '0x1.664a5652ec932p-2', '0x1.9e263e50bb8f2p+3', '0x1.dbb7b1b64f70bp+3',
    )),
    ('builtin', 1.0, 200.0, 0.0, (
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        '0x0.0p+0', '0x0.0p+0',
    )),
    ('builtin', 1.0, 200.0, 0.3, (
        '0x1.dffffffffffffp+5', '0x1.e28397fccb8dcp+5', '-0x1.dfffffffffffep+4',
        '-0x1.daf8d00668e44p+4', '0x1.dffffffffffffp+5', '0x1.e28397fccb8dcp+5',
        '0x1.0c29feaa25c16p-1', '0x1.0ac44ef50fa5ap-1',
    )),
    ('builtin', 1.0, 200.0, 0.8, (
        '0x1.4000000000001p+7', '0x1.4ce5b4eacdb0cp+7', '-0x1.4000000000000p+6',
        '-0x1.2634962a649eap+6', '0x1.4000000000001p+7', '0x1.4ce5b4eacdb0cp+7',
        '0x1.01f2225811cdbp+2', '0x1.efe79b28a0531p+1',
    )),
    ('roller', 1.3, 350.0, 0.0, (
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
    )),
    ('roller', 1.3, 350.0, 0.3, (
        '0x1.10989d89d89d8p+5', '0x1.0b96990e8ab11p+5', '0x1.f333333333333p-2',
        '0x1.ee97e44eb91c4p-2', '0x1.d64c97c982880p+0', '0x1.df19cccdf3d52p+0',
    )),
    ('roller', 1.3, 350.0, 0.8, (
        '0x1.6b76276276277p+6', '0x1.3c6bf6c4ad289p+6', '0x1.f333333333333p-2',
        '0x1.d1c709d2338c2p-2', '0x1.9e263e50bb8f2p+3', '0x1.dbb7b1b64f709p+3',
    )),
    ('builtin', 1.3, 350.0, 0.0, (
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
        '0x0.0p+0', '0x0.0p+0',
    )),
    ('builtin', 1.3, 350.0, 0.3, (
        '0x1.4313b13b13b13p+6', '0x1.44c4e1604dee5p+6', '-0x1.4313b13b13b14p+5',
        '-0x1.3fb150f09f370p+5', '0x1.4313b13b13b13p+6', '0x1.44c4e1604dee5p+6',
        '0x1.0c29feaa25d6ep-1', '0x1.0ac44ef50fbaep-1',
    )),
    ('builtin', 1.3, 350.0, 0.8, (
        '0x1.aec4ec4ec4ec7p+7', '0x1.c021873c14e41p+7', '-0x1.aec4ec4ec4ec6p+6',
        '-0x1.8c0bb67424fd2p+6', '0x1.aec4ec4ec4ec7p+7', '0x1.c021873c14e41p+7',
        '0x1.01f2225811ccap+2', '0x1.efe79b28a0512p+1',
    )),

]


@pytest.mark.parametrize("problem, L, EJ, frac, bits", REPORT_BITS,
                         ids=[f"{p}-L{L}-EJ{EJ}-{f}" for p, L, EJ, f, _ in REPORT_BITS])
def test_stress_report_bits(problem, L, EJ, frac, bits):
    rod = RodProperties.from_stiffness(L, EJ)
    if problem == "roller":
        q = frac * 6.0 * EJ / L ** 3
        sol = solve_roller(rod, q, method="root_find")
    else:
        q = frac * 12.0 * EJ / L ** 3
        sol = solve_builtin(rod, q, method="closed")
    rep = max_bending_stress_report(sol)
    assert list(rep) == ["problem", *REPORT_FIELDS[problem]]
    assert rep["problem"] == problem
    assert tuple(rep[key].hex() for key in REPORT_FIELDS[problem]) == bits


def test_stress_report_rejects_unknown_problem():
    # only a record built by hand can name another problem
    sol = RedundancySolution("arch", ROD, Q, "linearized", 375.0, "N", 0.0, 0.0)
    with pytest.raises(UsageError, match=re.escape(
            "problem must be 'roller' or 'builtin', got 'arch'")):
        max_bending_stress_report(sol)


def test_solution_json_schema():
    sol = solve_roller(ROD, Q, method="series", n_terms=2)
    obj = sol.json_obj()
    assert obj["problem"] == "roller"
    assert obj["method"] == "series(2)"
    assert obj["units"] == "N"
    assert obj["trace"] == [{"n": 0, "X_n": sol.trace[0][1]},
                            {"n": 1, "X_n": sol.trace[1][1]},
                            {"n": 2, "X_n": sol.trace[2][1]}]
    assert isinstance(obj["deviation_pct"], float)
