"""Redundant-reaction solvers: series, root finding, closed forms, reports."""

import math
import re
import sys
import threading
import time
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodbend import redundancy, special_functions
from rodbend.elastica import (
    RodProperties,
    tip_deflection_moment,
    tip_deflection_shear,
    tip_deflection_uniform,
)
from rodbend.errors import (
    BracketError,
    DomainError,
    InfeasibleLoadError,
    NearCriticalLoadError,
    UsageError,
)
from rodbend.redundancy import (
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

from _oracle import builtin_end_moment
from _oracle import builtin_tip_integral as exact_tip_integral

ROD = RodProperties.from_stiffness(1.0, 200.0)
Q = 1000.0

# reference roots of the scaled consistency equation at L=1, q=1000, EJ=200,
# found independently by high-precision bisection on the hypergeometric form
ROOT_EXPANSION = 347.6368432063616888
ROOT_DISPLACEMENT = 356.2970653152939935


# ------------------------------------------------------------ tip-kernel bits

# float.hex of the tip closed forms at (L, EJ) and a fraction f of each
# bound: q = f * (6 EJ/L^3), the uniform bound and the radius of the 2F1
# approximation, and X = f * (2 EJ/L^2), the tip-shear bound. Columns:
# tip_deflection_uniform(q), tip_deflection_shear(X) and
# builtin_tip_integral(q, "hyp_approx").
_TIP_KERNEL_BITS = {
    (1.0, 200.0, 0.1): ("0x1.3464859463f0ap-4", "-0x1.1202344aae258p-4", "0x1.9a6c4de29cd4cp-6"),
    (1.0, 200.0, 0.6): ("0x1.10c00e6ac5e5ep-1", "-0x1.db2e188c4440ap-2", "0x1.4e2455a151c43p-3"),
    (1.0, 200.0, 0.95): ("0x1.9812f9679adc3p+0", "-0x1.3ed8242b4afc8p+0", "0x1.5381573cc23c4p-2"),
    (1.3, 350.0, 0.1): ("0x1.90e9140db51f5p-4", "-0x1.643610c77bfdbp-4", "0x1.0ac665d34c572p-5"),
    (1.3, 350.0, 0.6): ("0x1.629345f13477ap-1", "-0x1.34ddf65b2c5d2p-1", "0x1.b2626f51b718ap-3"),
    (1.3, 350.0, 0.95): ("0x1.093f888357dbfp+1", "-0x1.9e7f623847e19p+0", "0x1.b95b57cefc819p-2"),
}


@pytest.mark.parametrize("L, EJ, f", sorted(_TIP_KERNEL_BITS), ids=str)
def test_tip_kernel_bits_are_pinned(L, EJ, f):
    rod = RodProperties.from_stiffness(L, EJ)
    q, X = f * (6.0 * EJ / L ** 3), f * (2.0 * EJ / L ** 2)
    got = (tip_deflection_uniform(rod, q).hex(), tip_deflection_shear(rod, X).hex(),
           builtin_tip_integral(rod, q, mode="hyp_approx").hex())
    assert got == _TIP_KERNEL_BITS[L, EJ, f]


# ------------------------------------------------------------- roller solver

def test_roller_linearized_reaction():
    sol = solve_roller(ROD, Q, method="linearized")
    assert sol.X == 375.0
    assert sol.units == "N"
    assert sol.method == "linearized"
    assert sol.deviation_pct == 0.0
    assert sol.trace == ()


def test_roller_linearized_past_the_tip_shear_bound():
    # 3qL/8 = 412.5 N passes 2EJ/L^2 = 400 N from q = 16EJ/(3L^3) = 1066.7 N/m
    # on; the load itself is feasible up to 1200 N/m. The reaction-side 3F2
    # is undefined past the bound, so there is no residual, as for built-in
    sol = solve_roller(ROD, 1100.0, method="linearized")
    assert sol.X == 412.5
    assert sol.residual is None
    assert sol.deviation_pct == 0.0
    assert solve_roller(ROD, Q, method="linearized").residual is not None


def test_roller_root_expansion_kernel():
    sol = solve_roller(ROD, Q, method="root_find")
    assert sol.X == pytest.approx(ROOT_EXPANSION, rel=1e-9)
    assert sol.deviation_pct == pytest.approx(7.8711901, abs=1e-5)
    assert abs(sol.residual) < 1e-8


def test_roller_root_displacement_kernel():
    sol = solve_roller(ROD, Q, method="root_find", kernel="displacement")
    assert sol.X == pytest.approx(ROOT_DISPLACEMENT, rel=1e-9)
    assert sol.deviation_pct == pytest.approx(5.2492531, abs=1e-5)


def _count_3f2_sums(monkeypatch):
    """The argument of every 3F2 a solve sums, as it passes either summation
    loop: the one that sums the value alone, or the one that sums the slope
    beside it."""
    args = []

    def counted(loop):
        def counting(params, x, rtol):
            args.append(x)
            return loop(params, x, rtol)
        return counting

    for name in ("_sum_ratios", "_sum_value"):
        counting = counted(getattr(special_functions, name))
        monkeypatch.setattr(special_functions, name, counting)
        monkeypatch.setattr(redundancy, name, counting)
    return args


def test_root_find_sums_the_load_side_once_and_never_at_the_cap(monkeypatch):
    # the bracket top is the cap 0.999 * 2EJ/L^2; every 3F2 the solve sums
    # goes through a summation loop, the load side through the one
    # _roller_residual that serves the root finder and the reported residual
    args = _count_3f2_sums(monkeypatch)
    solve_roller(ROD, Q, method="root_find")
    load_arg = ROD.L ** 6 * Q ** 2 / (36.0 * ROD.EJ ** 2)
    y_cap = 2.0 * ROD.EJ / ROD.L ** 2 * 0.999
    cap_arg = ROD.L ** 4 * y_cap ** 2 / (4.0 * ROD.EJ ** 2)
    # once for the root finder and the reported residual together
    assert args.count(load_arg) == 1
    assert max(args) < cap_arg
    # 1 load side + 1 Newton step from the Pade seed, its value and slope
    # from one sum, + 1 for the residual at the last iterate
    assert len(args) == 3


def test_only_the_newton_step_sums_the_slope(monkeypatch):
    # the load side and the reported residual read F alone, so they take the
    # value loop; the one Newton step from the seed takes the slope loop
    slopes = []
    loop = redundancy._sum_ratios

    def counting(params, x, rtol):
        slopes.append(x)
        return loop(params, x, rtol)

    monkeypatch.setattr(redundancy, "_sum_ratios", counting)
    sol = solve_roller(ROD, Q, method="root_find")
    assert len(slopes) == 1
    roller_consistency(ROD, Q, sol.X)
    solve_roller(ROD, Q, method="series")
    assert len(slopes) == 1


@pytest.mark.parametrize("kernel", ["expansion", "displacement"])
@pytest.mark.parametrize("rod", [ROD, RodProperties.from_stiffness(1.7, 350.0)], ids=["L1", "L1.7"])
def test_roller_seed_never_exceeds_the_linearized_reaction(rod, kernel):
    # so the bracket top needs no 1.1 * 3qL/8 term: the iterates start from
    # the seed, or from the cap below it
    critical = 6.0 * rod.EJ / rod.L ** 3
    for f in [i / 400 for i in range(1, 400)] + [1.0 - 10.0 ** -k for k in range(3, 13)]:
        q = f * critical
        assert redundancy._roller_seed(rod, q, kernel) <= 3.0 * q * rod.L / 8.0, f


def _pade(a, m):
    """The [m/m] Pade approximant P/Q, Q(0) = 1, of sum_k a_k t^k from its
    exact a_0 ... a_2m: (p_0 ... p_m), (q_0 ... q_m) as Fractions."""
    # sum_(i <= m) q_i a_(j-i) = 0 for j = m+1 ... 2m, by Gauss-Jordan elimination
    rows = [[a[j - i] if j >= i else F(0) for i in range(1, m + 1)] + [-a[j]]
            for j in range(m + 1, 2 * m + 1)]
    for c in range(m):
        pivot = next(r for r in range(c, m) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(m):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [u - f * v for u, v in zip(rows[r], rows[c])]
    q = [F(1)] + [rows[i][m] / rows[i][i] for i in range(m)]
    return [sum(q[i] * a[j - i] for i in range(j + 1)) for j in range(m + 1)], q


@pytest.mark.parametrize("kernel", ["expansion", "displacement"])
def test_seed_table_is_the_pade_approximant_of_the_reaction_series(kernel):
    # the stored floats are the exact [7/7] approximant's coefficients, rounded
    a = roller_reaction_series(29, kernel).coefficients[1::2]
    p, q = _pade(a, 7)
    assert redundancy._SEED_PADE[kernel] == (tuple(map(float, p)), tuple(map(float, q)))
    # Q times the series, less P, vanishes through t^14
    assert not any(sum(q[i] * a[j - i] for i in range(8)) for j in range(8, 15))


@pytest.mark.parametrize("kernel", ["expansion", "displacement"])
def test_seed_denominator_is_positive_up_to_the_critical_load(kernel):
    # Q(t) > 0 for t = w^2 in [0, 36]: on a grid of spacing h it stays above
    # h/2 times a bound on |Q'|, so it has no zero between the grid points
    qs = redundancy._SEED_PADE[kernel][1]
    slope = sum(k * abs(c) * 36.0 ** (k - 1) for k, c in enumerate(qs) if k)
    n = 36_000
    lowest = min(sum(c * (36.0 * i / n) ** k for k, c in enumerate(qs)) for i in range(n + 1))
    assert lowest > slope * 36.0 / n + 1e-12, (lowest, slope)


def test_root_find_builds_no_series(monkeypatch):
    # the seed is read from the stored table: no reversion, no composition
    def refuse(*args):
        raise AssertionError("a root-find solve built a reaction series")

    for name in ("lagrange_revert", "compose", "_roller_series_cached"):
        monkeypatch.setattr(redundancy, name, refuse)
    for kernel in ("expansion", "displacement"):
        for q in (300.0, 1000.0, 1187.9):
            solve_roller(ROD, q, method="root_find", kernel=kernel)


@pytest.mark.parametrize("kernel", ["expansion", "displacement"])
def test_root_find_from_the_series_seeds_takes_few_sums(monkeypatch, kernel):
    # the Pade seed is within 4e-8 of the root up to 0.9 of critical, so one
    # Newton step meets the stop: the load side, that step and the residual
    args = _count_3f2_sums(monkeypatch)
    for rod in (ROD, RodProperties.from_stiffness(1.7, 350.0)):
        critical = 6.0 * rod.EJ / rod.L ** 3
        for f in (0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            args.clear()
            solve_roller(rod, f * critical, method="root_find", kernel=kernel)
            assert len(args) == 3, (rod.L, f)
        args.clear()
        solve_roller(rod, 0.99 * critical, method="root_find", kernel=kernel)
        assert len(args) <= 5, rod.L


@pytest.mark.parametrize("kernel, q", [("expansion", 1197.8), ("expansion", 1197.9),
                                       ("displacement", 1187.9), ("displacement", 1188.0)])
def test_root_find_from_the_cap_takes_few_sums(monkeypatch, kernel, q):
    # the Pade seed passes the cap here (from q = 1197.73 for the expansion
    # kernel, 1187.80 for the displacement one), so the steps start from the
    # cap, where each sum takes thousands of terms
    args = _count_3f2_sums(monkeypatch)
    solve_roller(ROD, q, method="root_find", kernel=kernel)
    assert max(args) == ROD.L ** 4 * (2.0 * ROD.EJ / ROD.L ** 2 * 0.999) ** 2 / (4.0 * ROD.EJ ** 2)
    assert len(args) <= 10


@pytest.mark.parametrize("kernel", ["expansion", "displacement"])
def test_root_find_iterates_stay_below_the_bracket_top(monkeypatch, kernel):
    # the seed lies below the root only at loads under 0.65 of critical (by at
    # most 7e-15 of it); from 0.65 on it lies at or above the root, so the
    # steps fall from min(seed, top) and no iterate passes the top
    hi = 2.0 * ROD.EJ / ROD.L ** 2 * 0.999
    critical = 6.0 * ROD.EJ / ROD.L ** 3
    find = redundancy._find_roller_root
    iterates = []

    def watched(rod, q, kernel, residual, rtol):
        def r(x):
            iterates.append(x)
            return residual(x)
        return find(rod, q, kernel, r, rtol)

    monkeypatch.setattr(redundancy, "_find_roller_root", watched)
    for i in range(1, 2000):
        q = i / 2000 * critical
        try:
            X = solve_roller(ROD, q, method="root_find", kernel=kernel).X
        except BracketError:
            continue  # no root below the top: refused from the top itself
        if i >= 1300:
            assert redundancy._roller_seed(ROD, q, kernel) >= X, i
    assert iterates and max(iterates) <= hi


def test_root_find_stops_where_a_step_no_longer_moves_the_iterate(monkeypatch):
    # no error bound reaches rtol = 1e-300 (the sums round at 1e-16), so the
    # steps stop once one is within an ulp of the iterate
    args = _count_3f2_sums(monkeypatch)
    sol = solve_roller(ROD, Q, method="root_find", rtol=1e-300)
    assert len(args) <= 6
    assert sol.X == pytest.approx(ROOT_EXPANSION, rel=1e-13)


def test_root_find_refuses_steps_that_never_settle():
    # a residual whose Newton step is -1 N at every iterate meets neither stop
    def residual(x):
        return -8.0, 1.0, 1e-3

    with pytest.raises(BracketError, match="did not settle on a root within 60 steps"):
        redundancy._find_roller_root(ROD, Q, "expansion", residual, 1e-12)


@pytest.mark.parametrize("b", [(F(7, 6), F(5, 3)), (F(5, 4), F(7, 4))], ids=["expansion",
                                                                             "displacement"])
def test_slope_sum_is_the_3f2_with_a1_raised_and_its_index_bound_holds(b):
    # S = sum (2k + 1) t_k z^k is 3F2(3/2, 1, 3/2; b1, b2; z), as a1 = 1/2
    params = (0.5, 1.0, 1.5, float(b[0]), float(b[1]))
    f, s = special_functions._sum_ratios(params, 0.5, 1e-13)
    assert f == special_functions.hyp_3f2(*params, 0.5)
    assert s == pytest.approx(special_functions.hyp_3f2(1.5, 1.0, 1.5, *params[3:], 0.5), rel=1e-11)
    # the root finder's curvature bound: (k + 1)(k + 3/2)^2 <= (k + g)(k + b1)(k + b2)
    # for g = _SLOPE_INDEX, a cubic difference whose coefficients are all nonnegative
    g = F(redundancy._SLOPE_INDEX)
    gap = [g + b[0] + b[1] - 4, g * (b[0] + b[1]) + b[0] * b[1] - F(21, 4),
           g * b[0] * b[1] - F(9, 4)]
    assert all(c >= 0 for c in gap), gap


@pytest.mark.parametrize("kernel", ["expansion", "displacement"])
def test_roller_series_coefficients_past_the_first_are_negative(kernel):
    # every partial sum of the series lies above its limit, the root, so a
    # truncated series overestimates the reaction
    coefficients = roller_reaction_series(41, kernel).coefficients
    assert coefficients[1] == F(3, 8)
    assert all(c < 0 for c in coefficients[3::2])


@pytest.mark.parametrize("q", [1e-160, 1e-200, 1.2e-297])
def test_root_find_keeps_tiny_loads(q):
    # the kernel argument underflows to 0 at these loads, and the seed's
    # higher powers of w with it
    X = solve_roller(ROD, q, method="root_find").X
    assert abs(X / (3.0 * q * ROD.L / 8.0) - 1.0) <= 1e-15


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.floats(1e-3, 0.98), st.sampled_from(["expansion", "displacement"]))
def test_root_find_lands_between_residual_signs(f, kernel):
    q = f * 6.0 * ROD.EJ / ROD.L ** 3
    X = solve_roller(ROD, q, method="root_find", kernel=kernel).X
    assert roller_consistency(ROD, q, X * (1.0 - 1e-9), kernel) > 0.0
    assert roller_consistency(ROD, q, X * (1.0 + 1e-9), kernel) < 0.0


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
    # q = 2399.997 passes both gates (margin 1.3e-6 against 1e-6), but the
    # deflection quadrature cannot reach rtol 1e-13 within its subdivision
    # budget; that is a near-critical load, not a usage error
    with pytest.raises(NearCriticalLoadError, match=re.escape("1.250e-06")) as info:
        solve_builtin(ROD, 2399.997, method="closed", integral_mode="quadrature")
    assert "deflection quadrature stopped at error" in str(info.value)
    # the default series route refuses it sooner: its partial sum passes L
    with pytest.raises(NearCriticalLoadError, match=re.escape("within the first 10 terms")):
        solve_builtin(ROD, 2399.997, method="closed")
    # closer to critical than q = 2333.9 the tip integral passes L, and the
    # closed map's value there would be its mirror root: refused too
    with pytest.raises(NearCriticalLoadError, match=re.escape("tip-couple bound EJ/L = 200 N m")):
        solve_builtin(ROD, 2399.9, method="closed")


@pytest.mark.parametrize("q", [1000.0, 2300.0, 2330.0])
def test_builtin_closed_matches_mpmath_up_to_near_critical(q):
    # 2330 is w = 11.65, just below w = 11.669, where the tip integral reaches L
    with mp.workdps(40):
        want = builtin_end_moment(q)
    assert abs(solve_builtin(ROD, q, method="closed").X - want) <= 1e-13 * want


@pytest.mark.parametrize("q", [2333.9, 2399.9, 2399.99])
def test_builtin_closed_refused_where_the_tip_integral_passes_L(q):
    # X = 2EJ I/(L^2 + I^2) peaks at EJ/L when I = L (w = 11.669) and falls
    # past it: that value cancels no tip couple, so the route refuses it
    with pytest.raises(NearCriticalLoadError, match=re.escape("tip-couple bound EJ/L = 200 N m")):
        solve_builtin(ROD, q, method="closed")
    with mp.workdps(40), pytest.raises(ValueError, match="reaches L"):
        builtin_end_moment(q)


def test_builtin_closed_quadrature_refused_where_the_tip_integral_passes_L():
    # the quadrature mode integrates past I = L without complaint, so the
    # closed map's own I >= L check refuses it
    for q, i_val in ((2334.0, "1.00044"), (2380.0, "1.25741"), (2399.9, "2.35292")):
        with pytest.raises(NearCriticalLoadError, match=f"^tip integral I = {re.escape(i_val)} m "
                                                        "reaches L = 1 m: "):
            solve_builtin(ROD, q, method="closed", integral_mode="quadrature")
    # q = 2333 is w = 11.665, where I = 0.99714 L: X = 199.9992 N m
    X = solve_builtin(ROD, 2333.0, method="closed", integral_mode="quadrature").X
    assert 199.999 < X < ROD.EJ / ROD.L


def test_builtin_closed_moment_cancels_the_tip_integral():
    # the closed X is the inverse of the tip-couple deflection: over 0.02-0.97
    # of critical, tip_deflection_moment(X) gives back -I to 1e-12 of I
    q_crit = 12.0 * ROD.EJ / ROD.L ** 3
    for i in range(96):
        q = (0.02 + 0.01 * i) * q_crit
        X = solve_builtin(ROD, q, method="closed").X
        tip = builtin_tip_integral(ROD, q)
        assert abs(tip_deflection_moment(ROD, X) + tip) <= 1e-12 * tip, q


# ------------------------------------------------ built-in tip-integral series

def _exact_j(n):
    """J_n = int_0^1 (1 - 3s^2 + 2s^3)^n ds exactly, from the integer
    coefficients of the expanded power; independent of Pfaff's sum."""
    power = [1]
    for _ in range(n):
        nxt = [0] * (len(power) + 3)
        for i, a in enumerate(power):
            nxt[i] += a
            nxt[i + 2] -= 3 * a
            nxt[i + 3] += 2 * a
        power = nxt
    den = math.lcm(*range(1, len(power) + 1))
    return F(sum(a * (den // (i + 1)) for i, a in enumerate(power)), den)


def test_tip_series_coefficients_match_exact_rationals():
    # c_k = C(2k, k)/4^k J_(2k+1); the float build sums Pfaff's positive
    # terms in order, and stays within 16 ulps of the exact value (11.3 here)
    redundancy._phi_series(0.9)  # w = 10.8 builds c_0 .. c_152
    for k in range(40):
        exact = F(math.comb(2 * k, k), 4 ** k) * _exact_j(2 * k + 1)
        assert abs(F(redundancy._PHI_COEFFICIENTS[k]) - exact) <= 2 ** -49 * exact, k


# phi's value as float.hex and its term count, recorded before the loop
# read its kept coefficients by iteration
@pytest.mark.parametrize("r, bits, terms", [
    (0.1, "0x1.9add8ebf26709p-5", 8),
    (0.5, "0x1.1727fbd07d100p-2", 24),
    (0.9, "0x1.6a00d71a585e4p-1", 153),
])
def test_tip_series_bits_are_pinned(r, bits, terms):
    phi, summed = redundancy._phi_series(r)
    assert (phi.hex(), summed) == (bits, terms)


def test_tip_series_coefficients_built_by_threads(monkeypatch):
    # more threads than cores, switching often, all building one fresh list:
    # each coefficient is appended once, at its own index
    rs = (0.1, 0.5, 0.9, 0.95)
    monkeypatch.setattr(redundancy, "_PHI_COEFFICIENTS", [])
    want = {r: redundancy._phi_series(r) for r in rs}
    built = list(redundancy._PHI_COEFFICIENTS)
    monkeypatch.setattr(redundancy, "_PHI_COEFFICIENTS", [])
    wrong = []

    def work(offset):
        for i in range(2 * len(rs)):
            r = rs[(offset + i) % len(rs)]
            if redundancy._phi_series(r) != want[r]:
                wrong.append(r)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert redundancy._PHI_COEFFICIENTS == built


@pytest.mark.parametrize("w, terms", [(1.0, 7), (5.0, 19), (8.0, 41), (10.8, 153), (11.669, 567)])
def test_tip_series_term_counts_are_pinned(w, terms):
    # the work of the series route: terms summed before the tail bound stops it
    assert redundancy._phi_series(w / 12.0)[1] == terms


@pytest.mark.parametrize("rod", [ROD, RodProperties.from_stiffness(1.3, 350.0)], ids=str)
def test_tip_series_agrees_with_the_quadrature_below_w_star(rod):
    # the dual route over w = qL^3/EJ in (0, 11.669): the series, stopped at
    # 2^-53 of its sum, against the quadrature at rtol 1e-13
    for w in [0.1 * i for i in range(1, 117)] + [11.65, 11.669]:
        q = w * rod.EJ / rod.L ** 3
        series = builtin_tip_integral(rod, q)
        quad = builtin_tip_integral(rod, q, mode="quadrature")
        assert abs(series - quad) <= 1e-13 * quad, w
        x_series = solve_builtin(rod, q, "closed").X
        x_quad = solve_builtin(rod, q, "closed", integral_mode="quadrature").X
        assert abs(x_series - x_quad) <= 1e-13 * x_quad, w


@pytest.mark.parametrize("w", [0.05, 1.0, 3.0, 6.0, 9.0, 10.8, 11.5, 11.669])
def test_tip_series_matches_mpmath(w):
    # the tail bound leaves at most one ulp and the compensated sum about one
    # more; the float r = qL^3/(12 EJ) and the coefficients add a few: the
    # worst of 180 random loads in (0, 11.669) was 4.9e-16, the quadrature's 8.0e-16
    q = w * ROD.EJ / ROD.L ** 3
    with mp.workdps(40):
        want = exact_tip_integral(q)
    assert abs(builtin_tip_integral(ROD, q) - want) <= 1e-15 * want


@pytest.mark.parametrize("q", [2333.866341032603, 2333.87, 2334.0, 2360.0, 2399.9,
                               2399.999999, math.nextafter(2400.0, 0.0)])
def test_tip_series_refuses_past_w_star_in_bounded_time(monkeypatch, q):
    # past w = 11.669, where I = L, a partial sum reaches L and the route
    # refuses at once: after 437 terms at the first load here, within
    # 1e-10 N/m above it, and after 10 near w = 12. The coefficients are
    # built afresh, so the time includes the cold build
    monkeypatch.setattr(redundancy, "_PHI_COEFFICIENTS", [])
    start = time.perf_counter()
    with pytest.raises(NearCriticalLoadError, match=re.escape("tip-couple bound EJ/L = 200 N m")):
        solve_builtin(ROD, q, method="closed")
    with pytest.raises(NearCriticalLoadError, match=r"reaches L = 1 m within the first \d+ terms"):
        builtin_tip_integral(ROD, q)
    assert time.perf_counter() - start < 0.5
    assert len(redundancy._PHI_COEFFICIENTS) < 600


@pytest.mark.parametrize("gap", [1e-7, 1e-5])
def test_hyp_approx_refused_before_summing_near_its_radius(gap):
    # ln(rtol)/ln(x) terms, x = (w/6)^2, pass the loop's 10^6 budget from
    # 1 - w/6 = 1.5e-5 on at rtol 1e-13: refused as near-critical before any
    # term is summed, not summed to the budget and failed as a domain error
    q = 1200.0 * (1.0 - gap)
    start = time.perf_counter()
    with pytest.raises(NearCriticalLoadError, match=r"more than 1000000 terms.*--method closed"):
        builtin_tip_integral(ROD, q, mode="hyp_approx")
    with pytest.raises(NearCriticalLoadError, match=r"more than 1000000 terms.*--method closed"):
        solve_builtin(ROD, q, "closed", integral_mode="hyp_approx")
    assert time.perf_counter() - start < 0.1
    # the budget is the caller's rtol's: 6.9e5 terms reach rtol 1e-6 at 1e-5
    if gap == 1e-5:
        assert 0.0 < builtin_tip_integral(ROD, q, mode="hyp_approx", rtol=1e-6) < ROD.L


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
    # a step to zero moves infinitely far, a step from zero to zero not at all
    assert stabilized_from([(0, 1.0), (1, 0.0)]) is None
    assert stabilized_from([(0, 1.0), (1, 0.0), (2, 0.0)]) == 2


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


@pytest.mark.parametrize("bad, shown", [(math.nan, "nan"), (0.0, "0.0"), (-1.0, "-1.0"),
                                        (math.inf, "inf"), (10 ** 400, "inf")],
                         ids=["nan", "zero", "negative", "inf", "huge-int"])
@pytest.mark.parametrize("method", ["linearized", "series", "root_find"])
def test_solve_roller_refuses_a_bad_tolerance(method, bad, shown):
    # an int past the float range is admitted as inf, and refused by the range check
    with pytest.raises(UsageError) as excinfo:
        solve_roller(ROD, Q, method=method, rtol=bad)
    assert str(excinfo.value) == f"tolerance must be finite and positive, got {shown}"


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
            "mode must be 'series', 'quadrature' or 'hyp_approx', got 'bogus'")):
        call(q)


def test_unknown_method_and_kernel_rejected():
    with pytest.raises(UsageError):
        solve_roller(ROD, Q, method="newton")
    with pytest.raises(UsageError):
        solve_roller(ROD, Q, method="root_find", kernel="fourier")
    with pytest.raises(UsageError):
        solve_builtin(ROD, Q, method="root_find")
    with pytest.raises(UsageError):
        builtin_tip_integral(ROD, Q, mode="exact")


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
    monkeypatch.setattr(redundancy, "_sum_value", no_sum)
    with pytest.raises(UsageError):
        solve_roller(ROD, Q, **kwargs)


def test_linearized_and_series_sum_nothing_they_do_not_report(monkeypatch):
    # past q = 16EJ/(3L^3) the linearized 3qL/8 passes the tip-shear bound
    # 2EJ/L^2 = 400 N, where the residual is not read: the load side was summed
    # anyway, 10^6 terms near q = 1200 and then a DomainError
    def no_sum(*args):
        raise AssertionError("a 3F2 was summed")

    monkeypatch.setattr(redundancy, "_sum_ratios", no_sum)
    monkeypatch.setattr(redundancy, "_sum_value", no_sum)
    sol = solve_roller(ROD, 1199.999, method="linearized")
    assert (sol.X, sol.residual) == (3.0 * 1199.999 / 8.0, None)
    with pytest.raises(InfeasibleLoadError, match=re.escape("violates |P| < 2*EJ/L^2 = 400 N")):
        solve_roller(ROD, 1199.999, method="series", n_terms=3)


@pytest.mark.parametrize("kernel", ["expansion", "displacement"])
@pytest.mark.parametrize("method", ["linearized", "series"])
def test_linearized_and_series_report_the_consistency_residual(method, kernel):
    sol = solve_roller(ROD, Q, method=method, kernel=kernel)
    assert sol.residual.hex() == roller_consistency(ROD, Q, sol.X, kernel).hex()


@pytest.mark.parametrize("kernel", ["expansion", "displacement"])
@pytest.mark.parametrize("q", [1e-3, 300.0, Q, 1150.0])
def test_solve_roller_reports_the_consistency_residual(q, kernel):
    # the same function gives both: no second writing of the residual
    sol = solve_roller(ROD, q, method="root_find", kernel=kernel)
    assert sol.residual.hex() == roller_consistency(ROD, q, sol.X, kernel).hex()


@pytest.mark.parametrize("rtol", [0.0, -1e-13, math.nan, math.inf])
def test_consistency_residual_refuses_rtol_after_its_gates(monkeypatch, rtol):
    def no_sum(*args):
        raise AssertionError("a 3F2 was summed")

    monkeypatch.setattr(redundancy, "_sum_ratios", no_sum)
    monkeypatch.setattr(redundancy, "_sum_value", no_sum)
    with pytest.raises(UsageError, match="tolerance"):
        roller_consistency(ROD, Q, 300.0, rtol=rtol)
    # the load and X gates speak first
    with pytest.raises(UsageError, match="nonnegative"):
        roller_consistency(ROD, -1.0, 300.0, rtol=rtol)
    with pytest.raises(InfeasibleLoadError):
        roller_consistency(ROD, 1200.0, 300.0, rtol=rtol)
    with pytest.raises(InfeasibleLoadError):
        roller_consistency(ROD, Q, 400.0, rtol=rtol)


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
    # a cold build grows about as order^4, about 0.4 s for the roller
    # series at order 101 (n_terms 50); the refusal past it comes before
    # any coefficient is built
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


def test_cold_series_builds_at_the_order_cap_stay_fast():
    # both series at order 101 build in about 0.45 s on integer vectors, and
    # took about 5 s with one Fraction gcd per coefficient product
    redundancy._roller_series_cached.cache_clear()
    builtin_reaction_series.cache_clear()
    start = time.perf_counter()
    roller_reaction_series(101)
    builtin_reaction_series(101)
    assert time.perf_counter() - start < 2.5


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
# k * EJ / L^3 the problem's feasible bound (k = 6 roller, 12 built-in).
# Re-pinned: the two roller rows at 0.3 when the root finder came to start
# from the Pade seed (the root's relative error against a 30-digit mpmath
# root: 1.71e-15 -> 2.24e-16 at L = 1, 1.79e-15 -> 3.51e-16 at L = 1.3)
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
        '0x1.dffffffffffffp+5', '0x1.e28397fccb8dap+5', '-0x1.dfffffffffffep+4',
        '-0x1.daf8d00668e48p+4', '0x1.dffffffffffffp+5', '0x1.e28397fccb8dap+5',
        '0x1.0c29feaa25b41p-1', '0x1.0ac44ef50f987p-1',
    )),
    ('builtin', 1.0, 200.0, 0.8, (
        '0x1.4000000000001p+7', '0x1.4ce5b4eacdb0ap+7', '-0x1.4000000000000p+6',
        '-0x1.2634962a649eep+6', '0x1.4000000000001p+7', '0x1.4ce5b4eacdb0ap+7',
        '0x1.01f2225811cb3p+2', '0x1.efe79b28a04e6p+1',
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
        '0x1.4313b13b13b13p+6', '0x1.44c4e1604dee2p+6', '-0x1.4313b13b13b14p+5',
        '-0x1.3fb150f09f376p+5', '0x1.4313b13b13b13p+6', '0x1.44c4e1604dee2p+6',
        '0x1.0c29feaa25b93p-1', '0x1.0ac44ef50f9d8p-1',
    )),
    ('builtin', 1.3, 350.0, 0.8, (
        '0x1.aec4ec4ec4ec7p+7', '0x1.c021873c14e3fp+7', '-0x1.aec4ec4ec4ec6p+6',
        '-0x1.8c0bb67424fd6p+6', '0x1.aec4ec4ec4ec7p+7', '0x1.c021873c14e3fp+7',
        '0x1.01f2225811cacp+2', '0x1.efe79b28a04dap+1',
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
