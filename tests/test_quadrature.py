"""Adaptive quadrature: examples, error honesty, deflection integral."""

import math

import numpy as np
import pytest

from rodbend.elastica import RodProperties, TipMoment, TipShear, UniformLoad
from rodbend.errors import InfeasibleLoadError, NearCriticalLoadError, UsageError
from rodbend.quadrature import IntegrandSpec, integrate, integrate_deflection

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


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_one_non_finite_node_value_refused(bad):
    # 0.5 is the center node of the first panel on [0, 1]
    spec = IntegrandSpec(f=lambda x: bad if x == 0.5 else 1.0, lo=0.0, hi=1.0)
    with pytest.raises(UsageError, match="integrand not finite"):
        integrate(spec)


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
