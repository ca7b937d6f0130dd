"""Adaptive quadrature: examples, error honesty, deflection integral."""

import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from rodbend import quadrature
from rodbend.elastica import RodProperties, TipMoment, TipShear, UniformLoad
from rodbend.errors import InfeasibleLoadError, NearCriticalLoadError, UsageError
from rodbend.quadrature import IntegrandSpec, integrate, integrate_deflection
from rodbend.redundancy import solve_builtin
from rodbend.special_functions import appell_f1, lauricella_fd3

from _oracle import gauss_kronrod
from test_elastica import NOT_NUMBER_IDS, NOT_NUMBERS

ROD = RodProperties.from_stiffness(1.0, 200.0)


def test_polynomial_is_exact():
    val, est = integrate(IntegrandSpec(f=lambda x: x * x, lo=0.0, hi=1.0))
    assert abs(val - 1.0 / 3.0) < 1e-15
    assert est < 1e-13


def test_arcsine_endpoint_singularity():
    # int_0^1 u / sqrt(1 - u^2) du = 1
    spec = IntegrandSpec(f=lambda u: u / np.sqrt(1.0 - u * u),
                         lo=0.0, hi=1.0, hi_exponent=-0.5)
    val, est = integrate(spec)
    assert abs(val - 1.0) < 1e-7
    assert abs(val - 1.0) <= 10.0 * est


def test_beta_function_both_endpoints():
    # Beta(1/2, 1/2) = pi
    spec = IntegrandSpec(f=lambda u: 1.0 / np.sqrt(u * (1.0 - u)),
                         lo=0.0, hi=1.0, lo_exponent=-0.5, hi_exponent=-0.5)
    val, est = integrate(spec)
    assert abs(val - math.pi) < 1e-6
    assert abs(val - math.pi) <= 10.0 * est


@pytest.mark.parametrize("p", [-0.5, -0.9])
def test_hinted_power_at_a_zero_endpoint_within_1e_15(p):
    # offsets from a zero endpoint are clamped only at the smallest normal
    # float, so the substituted piece keeps its tail
    val, _ = integrate(IntegrandSpec(f=lambda x: x ** p, lo=0.0, hi=1.0, lo_exponent=p))
    assert abs(val - 1.0 / (1.0 + p)) <= 1e-15 / (1.0 + p)


def test_hinted_power_near_minus_one_is_covered_by_its_estimate():
    # x^-0.99: the clamped tail is not negligible, and the estimate says so
    val, est = integrate(IntegrandSpec(f=lambda x: x ** -0.99, lo=0.0, hi=1.0, lo_exponent=-0.99))
    assert abs(val - 100.0) <= est


def test_additivity_over_split_interval():
    def f(x):
        return np.exp(-x) * np.sin(3.0 * x)

    whole, _ = integrate(IntegrandSpec(f=f, lo=0.0, hi=2.0, rtol=1e-12))
    left, _ = integrate(IntegrandSpec(f=f, lo=0.0, hi=0.7, rtol=1e-12))
    right, _ = integrate(IntegrandSpec(f=f, lo=0.7, hi=2.0, rtol=1e-12))
    assert abs(whole - (left + right)) < 1e-12


def test_error_estimate_honesty_battery():
    cases = [
        (lambda x: np.cos(10.0 * x), 0.0, 1.0, None, None, math.sin(10.0) / 10.0),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, None, None, math.pi / 4.0),
        (lambda x: np.sqrt(x), 0.0, 1.0, 0.5, None, 2.0 / 3.0),
        (lambda x: np.log(x), 0.0, 1.0, -0.1, None, -1.0),
        (lambda u: u / np.sqrt(1.0 - u * u), 0.0, 1.0, None, -0.5, 1.0),
    ]
    for f, lo, hi, plo, phi, exact in cases:
        val, est = integrate(IntegrandSpec(f=f, lo=lo, hi=hi,
                                           lo_exponent=plo, hi_exponent=phi))
        assert abs(val - exact) <= 10.0 * est + 1e-14


def test_steep_but_smooth_integrand():
    val, _ = integrate(IntegrandSpec(f=lambda x: np.exp(-100.0 * x * x),
                                     lo=-1.0, hi=1.0, rtol=1e-12))
    assert abs(val - math.sqrt(math.pi) / 10.0) < 1e-12


def test_reversed_interval_rejected():
    with pytest.raises(UsageError):
        IntegrandSpec(f=lambda x: x, lo=1.0, hi=0.0)


def test_nonintegrable_hint_rejected():
    with pytest.raises(UsageError):
        IntegrandSpec(f=lambda x: x, lo=0.0, hi=1.0, lo_exponent=-1.0)


def test_nonpositive_rtol_rejected():
    with pytest.raises(UsageError):
        IntegrandSpec(f=lambda x: x, lo=0.0, hi=1.0, rtol=0.0)


@pytest.mark.parametrize("kwargs, message", [
    (dict(atol=math.nan), "atol must be finite and nonnegative"),
    (dict(atol=math.inf), "atol must be finite and nonnegative"),
    (dict(atol=-1.0), "atol must be finite and nonnegative"),
    (dict(rtol=math.inf), "tolerance must be finite and positive, got inf"),
    (dict(max_subdivisions=0), "max_subdivisions must be at least 1"),
    (dict(max_subdivisions=-5), "max_subdivisions must be at least 1"),
], ids=["atol-nan", "atol-inf", "atol-negative", "rtol-inf", "subdivisions-0",
        "subdivisions-negative"])
def test_nonsense_tolerances_rejected(kwargs, message):
    # each of these used to integrate u^2 over [0, 1] as if nothing were wrong
    with pytest.raises(UsageError, match=message):
        IntegrandSpec(f=lambda u: u * u, lo=0.0, hi=1.0, **kwargs)


# None is no hint, so it is no refusal there
NOT_NUMBER_HINTS = [(v, i) for v, i in zip(NOT_NUMBERS, NOT_NUMBER_IDS) if v is not None]


@pytest.mark.parametrize("v", [v for v, _ in NOT_NUMBER_HINTS],
                         ids=[i for _, i in NOT_NUMBER_HINTS])
@pytest.mark.parametrize("field", ["lo_exponent", "hi_exponent"])
def test_hints_that_are_not_numbers_refused(field, v):
    # a bool hint was taken as 1 or 0
    with pytest.raises(UsageError, match=f"^{field} must be a real number") as excinfo:
        IntegrandSpec(f=lambda u: u * u, lo=0.0, hi=1.0, **{field: v})
    assert isinstance(excinfo.value, TypeError)


def test_hints_and_tolerances_are_stored_as_floats():
    spec = IntegrandSpec(abs, 0, 1, Fraction(-1, 2), np.float32(0.25), np.float64(1e-12), 0)
    assert (spec.lo_exponent, spec.hi_exponent, spec.rtol, spec.atol) == (-0.5, 0.25, 1e-12, 0.0)
    assert all(type(v) is float for v in (spec.lo_exponent, spec.hi_exponent, spec.rtol,
                                          spec.atol))


def test_zero_atol_and_one_subdivision_accepted():
    val, _ = integrate(IntegrandSpec(f=lambda u: u * u, lo=0.0, hi=1.0, atol=0.0,
                                     max_subdivisions=1))
    assert abs(val - 1.0 / 3.0) < 1e-15


def test_undeclared_nonintegrable_singularity_raises():
    # 1/x on (0, 1] with no hint: either the endpoint panel sees inf or
    # the subdivision budget runs out; both are usage errors, not NaN
    spec = IntegrandSpec(f=lambda x: 1.0 / x, lo=0.0, hi=1.0,
                         max_subdivisions=512)
    with pytest.raises(UsageError):
        integrate(spec)


@pytest.mark.parametrize("f, where", [
    # 0.5 is the center node of the first panel on [0, 1]
    (lambda x: math.nan if x == 0.5 else 1.0, "[0.0, 1.0]"),
    (lambda x: math.inf if x == 0.5 else 1.0, "[0.0, 1.0]"),
    # an unhinted pole: once a node rounds to 1.0, 0.0 ** -0.5 raises ZeroDivisionError
    (lambda u: (1.0 - u) ** -0.5, "[0.9999999999999432, 1.0]"),
], ids=["nan", "inf", "pole"])
def test_one_non_finite_node_value_refused(f, where):
    with pytest.raises(UsageError, match=re.escape(f"integrand not finite inside {where}")):
        integrate(IntegrandSpec(f=f, lo=0.0, hi=1.0))


# ------------------------------------------------------------- the rule

def test_rule_is_g20_k41_to_the_last_bit():
    with mp.workdps(50):
        xg, wg, xk, wk = gauss_kronrod(20)
    assert quadrature._XK == tuple(float(x) for x in xk)
    assert quadrature._WK == tuple(float(w) for w in wk)
    assert quadrature._WG == tuple(float(w) for w in wg)
    # G20 has no center node: its nodes are the odd entries of the K41 half
    assert quadrature._XK[1::2] == tuple(float(x) for x in xg)
    # the panel's non-finite check relies on every Kronrod weight being positive
    assert len(quadrature._KW) == 41 and min(quadrature._KW) > 0.0


def test_one_panel_pairs_the_mirrored_nodes_with_their_weights():
    # a panel's integrand maps the list of its 41 nodes to the list of values
    # there. An entire integrand: both rules agree to rounding
    value, est = quadrature._panel(lambda xs: [math.exp(x) for x in xs], 0.0, 1.0)
    assert abs(value - (math.e - 1.0)) < 1e-15 and est < 1e-15
    # poles at +-0.2i: G20 is off by about 4e-4, K41 by 1e-7, inside the estimate
    value, est = quadrature._panel(lambda xs: [1.0 / (1.0 + 25.0 * x * x) for x in xs], -1.0, 1.0)
    assert abs(value - 0.4 * math.atan(5.0)) < 1e-6 < est < 1e-3


def _panel_node_by_node(f, lo, hi):
    """A G20/K41 panel written out: f called at one node at a time, left to
    right, and each rule's weighted values added in that order."""
    half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
    k41 = g20 = 0.0
    for i, (x, w) in enumerate(zip(quadrature._NODES, quadrature._KW)):
        v = f(mid + half * x)
        k41 += w * v
        if i % 2:
            g20 += quadrature._GW[i // 2] * v
    return half * k41, abs(half * k41 - half * g20)


@pytest.mark.parametrize("f, lo, hi", [
    (math.exp, 0.0, 1.0),
    (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0),
    (lambda x: math.sqrt(x) * math.cos(7.0 * x), 0.25, 3.5),
], ids=["exp", "runge", "sqrt-cos"])
def test_panel_is_the_node_by_node_sum_to_the_bit(f, lo, hi):
    got = quadrature._panel(lambda xs: [f(x) for x in xs], lo, hi)
    assert [v.hex() for v in got] == [v.hex() for v in _panel_node_by_node(f, lo, hi)]


# integrand evaluations, counted as panels x 41 nodes: the built-in closed
# solve at q = 1000 on its quadrature route, the F1/FD3 integral-route cases of
# test_special_functions._FD_ROUTE_BITS and a two-piece hinted integral.
# The two halves of an Euler integral, and the two pieces of integrate(),
# share one error budget: the unit-argument FD3, the 0.8 cases and the
# two-piece integral took 164 when each piece met rtol on its own. The
# unit-argument FD3 went from 82 back to 164 when the Euler substitution
# came to make the endpoint power t^3 (its relative error against mpmath
# 3.6e-16 -> 5.3e-16)
EVALUATIONS = {
    "built-in closed": (
        lambda: solve_builtin(ROD, 1000.0, method="closed", integral_mode="quadrature"), 41),
    "F1 auto, integral": (lambda: appell_f1(1.0, 0.6, 0.4, 2.3, 0.7, -0.4), 82),
    "F1 auto, integral at 0.8": (lambda: appell_f1(1.0, 0.6, 0.4, 2.3, 0.8, -0.4), 82),
    "FD3 auto, integral": (lambda: lauricella_fd3(1.0, (0.6, 0.4, 0.5), 2.3, (0.7, -0.4, 0.3)), 82),
    "FD3 auto, integral at 0.8": (
        lambda: lauricella_fd3(1.0, (0.6, 0.4, 0.5), 2.3, (0.8, -0.4, 0.3)), 82),
    "FD3 auto, unit argument": (lambda: lauricella_fd3(0.5, (0.3, 0.3, 0.3), 1.5, (0.2, 0.1, 1.0)),
                                164),
    "two-piece hinted": (lambda: integrate(IntegrandSpec(
        f=lambda u: math.sqrt(u * (1.0 - u)) * math.exp(-10.0 * u) / (1.01 - u), lo=0.0, hi=1.0,
        lo_exponent=0.5, hi_exponent=0.5, rtol=1e-12)), 82),
}


@pytest.mark.parametrize("case", sorted(EVALUATIONS))
def test_integrand_evaluations_are_pinned(monkeypatch, case):
    panels = []
    panel = quadrature._panel

    def counting(f, lo, hi):
        panels.append((lo, hi))
        return panel(f, lo, hi)

    monkeypatch.setattr(quadrature, "_panel", counting)
    call, evaluations = EVALUATIONS[case]
    call()
    assert len(panels) * 41 == evaluations


# ------------------------------------------------------------- deflection

def test_deflection_vanishes_at_wall():
    assert integrate_deflection(UniformLoad(1000.0), ROD, ROD.L) == 0.0


def test_deflection_uniform_tip_sample():
    got = integrate_deflection(UniformLoad(1000.0), ROD, 0.0)
    assert abs(got - 0.9637898313406952) < 1e-10


def test_deflection_tip_moment_matches_closed_form():
    from rodbend.elastica import tip_deflection_moment

    for m0 in (30.0, 95.0, -120.0):
        got = integrate_deflection(TipMoment(m0), ROD, 0.0, rtol=1e-12)
        want = tip_deflection_moment(ROD, m0)
        assert abs(got - want) < 1e-10


def test_deflection_zero_load_is_zero_everywhere():
    for x in (0.0, 0.25, 0.5):
        y = integrate_deflection(UniformLoad(0.0), ROD, x)
        assert y == 0.0


def test_deflection_sign_follows_load_direction():
    assert integrate_deflection(TipShear(300.0), ROD, 0.0) > 0.0
    assert integrate_deflection(TipShear(-300.0), ROD, 0.0) < 0.0


def test_infeasible_load_refused():
    with pytest.raises(InfeasibleLoadError):
        integrate_deflection(UniformLoad(1300.0), ROD, 0.0)


def test_near_critical_load_refused():
    # q within a 1e-6 margin of 6 EJ / L^3: the integrand is real but the
    # curvature bound is too close to trust the quadrature
    q_crit = 6.0 * ROD.EJ / ROD.L ** 3
    with pytest.raises(NearCriticalLoadError):
        integrate_deflection(UniformLoad(q_crit * (1.0 - 1e-8)), ROD, 0.0)


def test_outside_span_rejected():
    with pytest.raises(UsageError):
        integrate_deflection(UniformLoad(100.0), ROD, -0.1)
    with pytest.raises(UsageError):
        integrate_deflection(UniformLoad(100.0), ROD, ROD.L * 1.5)


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf],
                         ids=["nan", "zero", "negative", "inf"])
@pytest.mark.parametrize("x", [0.0, ROD.L], ids=["tip", "wall"])
def test_deflection_refuses_a_bad_tolerance(x, bad):
    with pytest.raises(UsageError, match="tolerance must be finite and positive"):
        integrate_deflection(UniformLoad(100.0), ROD, x, rtol=bad)


def test_deflection_is_one_hint_free_integral():
    # the same bits as integrate() of the same integrand without hints
    load = UniformLoad(1000.0)

    def integrand(xi):
        h = load.H(xi, ROD.L)
        return h / math.sqrt((ROD.EJ - h) * (ROD.EJ + h))

    for x in (0.0, 0.3):
        value, _ = integrate(IntegrandSpec(f=integrand, lo=x, hi=ROD.L, rtol=1e-12))
        assert integrate_deflection(load, ROD, x, rtol=1e-12) == -value
