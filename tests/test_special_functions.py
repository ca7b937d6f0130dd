"""Hypergeometric building blocks: examples, identities, domain errors.

Identity tests evaluate both sides through genuinely different code
paths (double series vs one-dimensional integral, series vs log-gamma
formula) so a shared bug cannot cancel out.
"""

import math
import re
import subprocess
import sys
import threading
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodbend import quadrature, special_functions
from rodbend.errors import DomainError, UsageError
from rodbend.quadrature import integrate
from rodbend.special_functions import (
    appell_f1,
    gauss_2f1,
    gauss_summation,
    hyp_3f2,
    lauricella_fd3,
    pochhammer,
    reduce_f1_to_3f2,
    reduce_fd3_unit_arg,
)

from _oracle import gamma_ratio, hyp2f1, lauricella_fd, src_env
from test_elastica import NOT_NUMBER_IDS, NOT_NUMBERS


def rel_err(got, want):
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------- pochhammer

def test_pochhammer_zero_order_is_one():
    assert pochhammer(3.7, 0) == 1.0
    assert pochhammer(Fraction(1, 2), 0) == 1


def test_pochhammer_integer_rising_factorial():
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6
    assert pochhammer(1, 5) == math.factorial(5)


def test_pochhammer_exact_for_fractions():
    got = pochhammer(Fraction(1, 2), 3)
    assert got == Fraction(15, 8)
    assert isinstance(got, Fraction)


def test_pochhammer_negative_integer_truncates_to_zero():
    assert pochhammer(-2, 3) == 0
    assert pochhammer(-2, 2) == (-2) * (-1)


def test_pochhammer_takes_any_real_lam_as_a_float():
    # a rational lam stays exact; any other real one is summed as its float
    for lam in (np.float32(2.5), np.float64(2.5)):
        got = pochhammer(lam, 3)
        assert type(got) is float and got == 2.5 * 3.5 * 4.5


@pytest.mark.parametrize("v", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
def test_pochhammer_refuses_a_non_number(v):
    # pochhammer(True, 2) was 2
    with pytest.raises(UsageError, match="^pochhammer lam must be a real number") as excinfo:
        pochhammer(v, 2)
    assert isinstance(excinfo.value, TypeError)


def test_pochhammer_rejects_negative_order():
    with pytest.raises(UsageError):
        pochhammer(1.0, -1)


# ----------------------------------------------------------------- gauss_2f1

def test_2f1_at_zero():
    assert gauss_2f1(0.3, 1.7, 2.2, 0.0) == 1.0


def test_2f1_log_value():
    # 2F1(1,1;2;x) = -ln(1-x)/x
    assert rel_err(gauss_2f1(1.0, 1.0, 2.0, 0.5), 2.0 * math.log(2.0)) < 1e-13


def test_2f1_arcsin_value():
    x = 0.6
    want = math.asin(x) / x
    assert rel_err(gauss_2f1(0.5, 0.5, 1.5, x * x), want) < 1e-13


def test_2f1_binomial_value():
    # 2F1(a,b;b;x) = (1-x)^-a independently of b
    assert rel_err(gauss_2f1(0.7, 1.3, 1.3, 0.4), (1.0 - 0.4) ** -0.7) < 1e-13


def test_2f1_rejects_argument_outside_domain():
    with pytest.raises(DomainError):
        gauss_2f1(0.5, 0.5, 1.5, 1.2)
    with pytest.raises(DomainError):
        gauss_2f1(0.5, 0.5, 1.5, -1.0)


def test_2f1_divergent_at_one_rejected():
    with pytest.raises(DomainError):
        gauss_2f1(1.0, 1.0, 2.0, 1.0)


def test_2f1_rejects_nonpositive_integer_c():
    with pytest.raises(DomainError):
        gauss_2f1(0.5, 0.5, -1.0, 0.3)


# ----------------------------------------------------------- gauss_summation

# an FD3 whose unit slot leaves the (1-u) power c - a - b2 = 8.2e-4: rounding
# c - a before subtracting b2 put it 1.4e-13 off mpmath
_ROUNDED_POWER_FD3 = (0.8301892836705042, (1.8516880831856661, 1.366844359538565,
                                           -1.4411580482979631),
                      2.1978505842605904, (0.4911277174856681, 1.0, 0.24849961047453273))


def test_gauss_summation_sample():
    # Gamma(2)Gamma(1)/Gamma(3/2)^2 = 4/pi
    assert rel_err(gauss_summation(0.5, 0.5, 2.0), 4.0 / math.pi) < 1e-13
    # the FD3's a, b2 and c: c - a - b = 8.2e-4 sits near the pole of Gamma at
    # 0, where a rounding of c - a is amplified by about c/(c - a - b); with
    # c - a rounded first the value was 1.4e-13 off
    a, b, c = _ROUNDED_POWER_FD3[0], _ROUNDED_POWER_FD3[1][1], _ROUNDED_POWER_FD3[2]
    with mp.workdps(30):
        want = gamma_ratio([c, mp.mpf(c) - a - b], [mp.mpf(c) - a, mp.mpf(c) - b])
    assert rel_err(gauss_summation(a, b, c), want) < 1e-13


def test_gauss_summation_matches_beta_integral():
    # independent route: 2F1(a,b;c;1) via the Euler integral; exponents
    # stay above -0.35 so the quadrature's endpoint-representability
    # floor sits far below the comparison tolerance
    rng = np.random.default_rng(42)
    for _ in range(100):
        a = rng.uniform(0.1, 1.5)
        b = rng.uniform(0.65, 1.6)
        c = a + b + rng.uniform(0.65, 2.0)
        val, est = integrate(
            lambda u: u ** (b - 1.0) * (1.0 - u) ** (c - a - b - 1.0), 0.0, 1.0,
            lo_exponent=b - 1.0 if b < 1.0 else None,
            hi_exponent=c - a - b - 1.0 if c - a - b < 1.0 else None,
            rtol=1e-12,
        )
        with mp.workdps(30):
            inv_beta = gamma_ratio([c], [b, c - b])
        want = inv_beta * val
        got = gauss_summation(a, b, c)
        assert rel_err(got, want) < 1e-9
        assert abs(got - want) <= 10.0 * est * inv_beta + 1e-13


# Each case puts one to three of the Gamma arguments c, c-a-b, c-a, c-b
# (c-a-b is always positive) on the negative axis, so both signs of
# Gamma there are exercised: negative on (-1, 0) and (-3, -2), positive
# on (-2, -1).
@pytest.mark.parametrize("a, b, c", [
    (-0.8, -0.9, -0.3),   # c in (-1, 0)
    (2.1, -1.9, 0.7),     # c-a in (-2, -1)
    (-2.9, 3.2, 0.6),     # c-b in (-3, -2)
    (-0.9, -2.4, -1.3),   # c in (-2, -1), c-a in (-1, 0)
    (-2.9, -0.9, -2.4),   # c in (-3, -2), c-b in (-2, -1)
    (-2.0, -0.7, -2.5),   # c in (-3, -2), c-a in (-1, 0), c-b in (-2, -1)
])
def test_gauss_summation_negative_gamma_arguments(a, b, c):
    want = (math.gamma(c) * math.gamma(c - a - b)
            / (math.gamma(c - a) * math.gamma(c - b)))
    assert rel_err(gauss_summation(a, b, c), want) < 1e-13


@pytest.mark.parametrize("a, b, c", [
    (2.0, -1.0, 2.0),    # c - a = 0: the terminating series 1 + 2*(-1)/2
    (2.5, -1.5, 1.5),    # c - a = -1, and the series does not terminate
    (-1.5, 2.5, 1.5),    # the same with a and b swapped: c - b = -1
])
def test_gauss_summation_denominator_pole_is_zero(a, b, c):
    assert gauss_summation(a, b, c) == 0.0
    assert gauss_2f1(a, b, c, 1.0) == 0.0
    with mp.workdps(30):
        assert hyp2f1(a, b, c, 1.0) == 0


def test_gauss_summation_refuses_a_pole_of_c():
    # c = -2 is refused even though c - a = -1 would make the value 0
    with pytest.raises(DomainError, match="gamma argument -2.0"):
        gauss_summation(-1.0, -1.5, -2.0)


def test_gauss_summation_rejects_divergent_parameters():
    with pytest.raises(DomainError):
        gauss_summation(1.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        gauss_summation(1.0, 1.5, 2.0)


def test_2f1_at_one_delegates_to_summation():
    a, b, c = 0.5, 0.25, 2.0
    assert rel_err(gauss_2f1(a, b, c, 1.0), gauss_summation(a, b, c)) < 1e-12


# ------------------------------------------------------------------- hyp_3f2

@pytest.mark.parametrize("fn, args", [
    (gauss_2f1, (-1.0, 2.0, 1.0, 0.5)),            # 1 - 2*0.5
    (hyp_3f2, (-1.0, 2.0, 1.0, 1.0, 1.0, 0.5)),    # the same sum
])
def test_terminating_series_with_zero_sum_stops(fn, args):
    # the sum ends after two terms; at 0 = 0 a strict stop test never held
    # and the loop ran to its 10^6-term cap, then raised DomainError
    assert fn(*args) == 0.0


def test_3f2_at_zero():
    assert hyp_3f2(0.5, 1.0, 1.5, 7.0 / 6.0, 5.0 / 3.0, 0.0) == 1.0


def test_3f2_reduces_to_2f1_on_matched_pair():
    # a3 = b2 cancels, leaving 2F1(a1, a2; b1; x)
    got = hyp_3f2(0.5, 1.0, 1.3, 1.5, 1.3, 0.49)
    want = gauss_2f1(0.5, 1.0, 1.5, 0.49)
    assert rel_err(got, want) < 1e-13


def test_3f2_first_terms_match_direct_sum():
    a = (0.5, 1.0, 1.5, 1.25, 1.75)
    x = 0.3
    direct = sum(
        pochhammer(a[0], k) * pochhammer(a[1], k) * pochhammer(a[2], k)
        / (pochhammer(a[3], k) * pochhammer(a[4], k) * math.factorial(k)) * x ** k
        for k in range(60)
    )
    assert rel_err(hyp_3f2(*a, x), direct) < 1e-12


def test_3f2_rejects_argument_outside_domain():
    with pytest.raises(DomainError):
        hyp_3f2(0.5, 1.0, 1.5, 1.25, 1.75, 1.0)


def test_3f2_rejects_nonpositive_integer_lower():
    with pytest.raises(DomainError):
        hyp_3f2(0.5, 1.0, 1.5, 0.0, 1.75, 0.3)


# ----------------------------------------------------------------- appell_f1

def test_f1_at_origin():
    assert appell_f1(2.0, 0.5, 0.5, 3.0, 0.0, 0.0) == 1.0


def test_f1_degenerates_to_2f1_when_one_argument_vanishes():
    got = appell_f1(1.2, 0.7, 0.4, 2.5, 0.35, 0.0, method="series")
    want = gauss_2f1(1.2, 0.7, 2.5, 0.35)
    assert rel_err(got, want) < 1e-12


def test_f1_symmetry_under_argument_swap():
    a, b1, b2, c = 1.5, 0.6, 0.9, 2.8
    lhs = appell_f1(a, b1, b2, c, 0.3, -0.45)
    rhs = appell_f1(a, b2, b1, c, -0.45, 0.3)
    assert rel_err(lhs, rhs) < 1e-12


def test_f1_series_equals_integral_route():
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(60):
        a = rng.uniform(0.2, 2.5)
        c = a + rng.uniform(0.2, 2.0)
        b1, b2 = rng.uniform(0.1, 1.5, size=2)
        x1, x2 = rng.uniform(-0.5, 0.5, size=2)
        cases.append((a, b1, b2, c, x1, x2))
    # one-sided and opposite-sign arguments near the unit circle, where
    # the shell sum needs the most shells
    for x1, x2 in [(0.01, 0.9), (0.9, 0.01), (0.9, -0.9), (0.99, -0.99)]:
        cases.append((1.5, 0.6, 0.9, 2.8, x1, x2))
    for args in cases:
        via_series = appell_f1(*args, method="series")
        via_integral = appell_f1(*args, method="integral")
        assert rel_err(via_series, via_integral) < 1e-10, args


def test_near_unit_f1_series_agrees_with_the_integral():
    # about 13 000 shells: linear in their number by the shell recurrence,
    # quadratic when every shell convolved the factor series
    args = (1.5, 0.6, 0.9, 2.8, 0.999, 0.01)
    via_series = appell_f1(*args, method="series")
    assert rel_err(via_series, appell_f1(*args, method="integral")) < 1e-9


def test_f1_series_is_fd3_series_with_an_empty_slot():
    # F1 and FD3 share one shell sum; an empty third slot adds exact zeros
    rng = np.random.default_rng(17)
    for _ in range(20):
        a, c = rng.uniform(0.2, 2.5, size=2)
        b1, b2 = rng.uniform(-1.0, 1.5, size=2)
        x1, x2 = rng.uniform(-0.9, 0.9, size=2)
        f1 = appell_f1(a, b1, b2, c, x1, x2, method="series")
        fd3 = lauricella_fd3(a, (b1, b2, 0.0), c, (x1, x2, 0.0), method="series")
        assert f1.hex() == fd3.hex()


def test_shell_series_cap_error_names_the_function(monkeypatch):
    monkeypatch.setattr(special_functions, "_MAX_SHELLS", 5)
    with pytest.raises(DomainError, match="F1 series did not converge within 5 shells"):
        appell_f1(1.5, 0.6, 0.9, 2.8, 0.9, -0.9, method="series")
    with pytest.raises(DomainError, match="FD3 series did not converge within 5 shells"):
        lauricella_fd3(1.5, (0.6, 0.9, 0.5), 2.8, (0.9, -0.9, 0.5), method="series")


def test_hyp_series_cap_raises_domain_error(monkeypatch):
    # the 2F1/3F2 loop gives up at _MAX_TERMS, read at each call
    monkeypatch.setattr(special_functions, "_MAX_TERMS", 64)
    with pytest.raises(DomainError, match="^series did not converge within 64 terms$"):
        gauss_2f1(0.5, 0.5, 1.5, 0.999)
    with pytest.raises(DomainError, match="^series did not converge within 64 terms$"):
        hyp_3f2(0.5, 1.0, 1.5, 1.25, 1.75, 0.999)


def test_f1_identity_antisymmetric_arguments():
    # F1(a; b, b; a+1; x, -x) = 2F1(a/2, b; a/2+1; x^2), both sides independent
    rng = np.random.default_rng(11)
    for _ in range(120):
        a = rng.uniform(0.05, 3.95)
        b = rng.uniform(0.05, 0.95)
        x = rng.uniform(-0.8, 0.8)
        lhs = appell_f1(a, b, b, a + 1.0, x, -x, method="integral")
        rhs = gauss_2f1(a / 2.0, b, a / 2.0 + 1.0, x * x)
        assert rel_err(lhs, rhs) < 1e-9


def test_f1_integral_route_rejects_bad_parameters():
    with pytest.raises(DomainError, match="c > a > 0"):
        appell_f1(3.0, 0.5, 0.5, 2.0, 0.1, 0.1, method="integral")


def test_f1_integral_route_rejects_singular_integrand():
    with pytest.raises(DomainError, match="singular"):
        appell_f1(1.0, 0.5, 0.5, 2.0, 1.0, 0.1, method="integral")


def test_f1_series_route_rejects_large_arguments():
    with pytest.raises(DomainError):
        appell_f1(1.0, 0.5, 0.5, 2.0, -1.2, 0.1, method="series")


def test_f1_unknown_method_is_usage_error():
    with pytest.raises(UsageError):
        appell_f1(1.0, 0.5, 0.5, 2.0, 0.1, 0.1, method="quadrature")


# ------------------------------------------------------------- lauricella_fd3

def test_fd3_zero_third_slot_equals_f1():
    a, b1, b2, c = 2.0, 0.5, 0.5, 3.0
    got = lauricella_fd3(a, (b1, b2, 0.0), c, (0.3, -0.3, 0.0))
    want = appell_f1(a, b1, b2, c, 0.3, -0.3)
    assert rel_err(got, want) < 1e-12


def test_fd3_sample_with_unit_argument_dual_route():
    # distributed-load shape: z = L^3 q / (6 EJ) for the reference rod
    z = 1000.0 / (6.0 * 200.0)
    direct = lauricella_fd3(2.0, (0.5, 0.5, 2.0 / 3.0), 3.0, (z, -z, 1.0))
    reduced = reduce_fd3_unit_arg(2.0, 0.5, 0.5, 2.0 / 3.0, 3.0, z, -z)
    assert rel_err(direct, reduced) < 1e-9


def test_fd3_shear_shape_with_unit_argument_dual_route():
    w = -(1.0 ** 2) * 348.0 / (2.0 * 200.0)
    direct = lauricella_fd3(2.0, (0.5, 0.5, 0.5), 3.0, (w, -w, 1.0))
    reduced = reduce_fd3_unit_arg(2.0, 0.5, 0.5, 0.5, 3.0, w, -w)
    assert rel_err(direct, reduced) < 1e-9


def test_fd3_integral_equals_triple_series():
    rng = np.random.default_rng(13)
    for _ in range(40):
        a = rng.uniform(0.2, 2.0)
        c = a + rng.uniform(0.3, 2.0)
        b = rng.uniform(0.1, 1.0, size=3)
        x = rng.uniform(-0.5, 0.5, size=3)
        via_series = lauricella_fd3(a, tuple(b), c, tuple(x), method="series")
        via_integral = lauricella_fd3(a, tuple(b), c, tuple(x), method="integral")
        assert rel_err(via_series, via_integral) < 1e-10


# FD3 series values of the numpy implementation this pure-Python series
# replaced, as float.hex; inputs fixed before the values were recorded. The
# rows marked re-pinned moved by 1 to 4 ulps when the shell coefficients came
# from their recurrence instead of a convolution (relative error against
# mpmath: 2.51e-14 -> 2.57e-14, 1.71e-15 -> 9.3e-16, 6.77e-15 -> 6.6e-15)
_FD3_SERIES_BITS = [
    ((0.5, (1.0, 0.5, 0.25), 1.5, (0.3, -0.2, 0.1)), "0x1.18753a41ee196p+0"),
    ((1.0, (0.5, 0.5, 0.5), 2.0, (0.5, 0.25, -0.5)), "0x1.1fd2af5063d93p+0"),
    ((2.0, (1.0, -0.5, 0.75), 1.5, (0.4, 0.4, 0.4)), "0x1.2de4ba3a738f9p+1"),
    ((-0.5, (1.0, 1.0, 1.0), 1.0, (0.2, -0.3, 0.6)), "0x1.5cfb5a9feba16p-1"),
    ((1.5, (2.0, 0.5, 1.0), 2.5, (-0.8, 0.1, 0.05)), "0x1.07a65bdaf2ab4p-1"),  # re-pinned
    ((0.25, (0.5, 1.5, -1.0), 3.0, (0.9, -0.9, 0.5)), "0x1.d40539affd0bcp-1"),
    ((3.0, (0.5, 0.5, 0.5), 1.25, (0.1, 0.2, 0.3)), "0x1.23a893fa984e5p+1"),  # re-pinned
    ((1.0, (1.0, 2.0, 3.0), 4.0, (0.7, 0.0, -0.6)), "0x1.a76fcdba29ffdp-1"),
    ((0.75, (-2.0, 1.0, 0.5), 1.75, (0.6, 0.6, -0.6)), "0x1.5b94f256fb733p-1"),
    ((1.25, (0.3, 0.7, 1.1), 2.25, (-0.5, -0.5, -0.5)), "0x1.3e66381512479p-1"),  # re-pinned
]


@pytest.mark.parametrize("args, bits", _FD3_SERIES_BITS)
def test_fd3_series_bits_unchanged(args, bits):
    a, b, c, x = args
    assert lauricella_fd3(a, b, c, x, method="series").hex() == bits


# 3F2 and 2F1 series values of the loops that computed each term ratio
# inline, as float.hex, for the library's kernels; z = 0.999 needs about
# 14 000 to 19 000 terms, and the last two rows terminate on a
# nonpositive-integer upper parameter
_UNIFORM = (0.5, 1.0, 1.5, 7.0 / 6.0, 5.0 / 3.0)
_SHEAR = (0.5, 1.0, 1.5, 1.25, 1.75)
_BUILTIN = (0.5, 2.0 / 3.0, 5.0 / 3.0)
_ARCSIN = (0.5, 0.5, 1.5)
_HYP_SERIES_BITS = [
    (hyp_3f2, _UNIFORM, -0.5, "0x1.b4ac75abc1598p-1"),
    (hyp_3f2, _UNIFORM, 0.1, "0x1.0a915714612d5p+0"),
    (hyp_3f2, _UNIFORM, 0.81, "0x1.cf4222a67f722p+0"),
    (hyp_3f2, _UNIFORM, 0.99, "0x1.0d13b9fb28f40p+2"),
    (hyp_3f2, _UNIFORM, 0.999, "0x1.cbbdb19af972dp+2"),
    (hyp_3f2, _SHEAR, -0.5, "0x1.bbed883f2b5b8p-1"),
    (hyp_3f2, _SHEAR, 0.1, "0x1.0959bc3e9875ap+0"),
    (hyp_3f2, _SHEAR, 0.81, "0x1.a8f9af1668639p+0"),
    (hyp_3f2, _SHEAR, 0.99, "0x1.8d9f4cdd4eddfp+1"),
    (hyp_3f2, _SHEAR, 0.999, "0x1.14285f90823c3p+2"),
    (gauss_2f1, _BUILTIN, -0.5, "0x1.d6144af4180e6p-1"),
    (gauss_2f1, _BUILTIN, 0.1, "0x1.056029041dfccp+0"),
    (gauss_2f1, _BUILTIN, 0.81, "0x1.4cfb4592077bbp+0"),
    (gauss_2f1, _BUILTIN, 0.99, "0x1.9a19bc9143e23p+0"),
    (gauss_2f1, _BUILTIN, 0.999, "0x1.af06915c7a453p+0"),
    (gauss_2f1, _ARCSIN, -0.5, "0x1.dcca28fed0f2cp-1"),
    (gauss_2f1, _ARCSIN, 0.1, "0x1.04788f343e021p+0"),
    (gauss_2f1, _ARCSIN, 0.81, "0x1.3e8320b14e7cap+0"),
    (gauss_2f1, _ARCSIN, 0.99, "0x1.7a60ad1e198a8p+0"),
    (gauss_2f1, _ARCSIN, 0.999, "0x1.8a3967d1787ebp+0"),
    (hyp_3f2, (-3.0, 1.0, 1.5, 7.0 / 6.0, 5.0 / 3.0), 0.7, "0x1.3bf5ccc985031p-3"),
    (gauss_2f1, (0.5, -4.0, 5.0 / 3.0), -0.9, "0x1.a5685bc01a36ep+1"),
]


@pytest.mark.parametrize("fn, params, z, bits", _HYP_SERIES_BITS)
def test_hyp_series_bits_unchanged(fn, params, z, bits):
    # twice: the first call may fill the ratio memo, the second reads it
    assert fn(*params, z).hex() == bits
    assert fn(*params, z).hex() == bits


# the summation loop's (F, S) as float.hex, recorded before its stop test
# lost its abs() calls: negative arguments and mixed-sign parameters, so
# that terms (and, in the 2F1 rows, partial sums) take both signs, and a
# terminating 2F1 whose sum is exactly 0 (1 - 2 * 0.5), stopped by the
# test's <= on three zero terms
_SUM_RATIOS_BITS = [
    ((-2.5, 1.3, 0.7, -1.5, 2.2), -0.6, "0x1.3607b9a06a99ap+0", "0x1.97ba339c8a12fp+1"),
    ((-4.5, 1.5, 0.8, -0.5, 1.2), -0.7, "-0x1.7047c80526050p+6", "-0x1.2c19fb87cdd58p+9"),
    (_UNIFORM, -0.95, "0x1.88d29179b1286p-1", "0x1.d9b103e277846p-2"),
    ((-3.5, 2.0, 0.5), 0.9, "0x1.c2d6bd564ce7ep-3", "-0x1.ce58a3f3cc26dp-1"),
    ((2.5, -1.7, -0.3), 0.8, "-0x1.a79b9cd385eb3p+3", "-0x1.4a3f0e5d47b2dp+7"),
    ((-2.7, 1.9, -1.3), 0.85, "-0x1.500904d5b8fb1p+3", "-0x1.c92c0ec85f63ep+7"),
    ((-1.0, 2.0, 1.0), 0.5, "0x0.0p+0", "-0x1.0000000000000p+1"),
]


@pytest.mark.parametrize("params, x, f_bits, s_bits", _SUM_RATIOS_BITS)
def test_sum_ratios_bits_unchanged(params, x, f_bits, s_bits):
    f, s = special_functions._sum_ratios(params, x, 1e-13)
    assert (f.hex(), s.hex()) == (f_bits, s_bits)


# gauss_2f1, hyp_3f2 and the roller's load side and residual sum F alone
# (_sum_value); the roller's Newton step sums F and S (_sum_ratios). The two
# loops must give F the same bits
@pytest.mark.parametrize("params, x, f_bits", [row[:3] for row in _SUM_RATIOS_BITS])
def test_value_loop_gives_the_slope_loops_value_to_the_bit(params, x, f_bits):
    assert special_functions._sum_value(params, x, 1e-13).hex() == f_bits


def test_value_loop_gives_the_slope_loops_value_on_seeded_draws():
    # negative arguments and parameters of either sign, at two tolerances
    rng = np.random.default_rng(35)
    for _ in range(300):
        params = tuple(float(v) for v in rng.uniform(-4.0, 4.0, size=rng.choice([3, 5])))
        x, rtol = float(rng.uniform(-0.95, 0.95)), float(rng.choice([1e-13, 1e-6]))
        want = special_functions._sum_ratios(params, x, rtol)[0]
        assert special_functions._sum_value(params, x, rtol).hex() == want.hex(), (params, x)


@pytest.mark.parametrize("params, x", [(_ARCSIN, 1.0), (_ARCSIN, -1.0), (_UNIFORM, 1.5),
                                       (_UNIFORM, -3.0), (_BUILTIN, math.nan)])
def test_value_loop_refuses_what_the_slope_loop_refuses(monkeypatch, params, x):
    errors = []
    for loop in (special_functions._sum_ratios, special_functions._sum_value):
        with pytest.raises(DomainError) as excinfo:
            loop(params, x, 1e-13)
        errors.append(str(excinfo.value))
    # and both give up at the term cap with the same message
    monkeypatch.setattr(special_functions, "_MAX_TERMS", 64)
    for loop in (special_functions._sum_ratios, special_functions._sum_value):
        with pytest.raises(DomainError) as excinfo:
            loop(params, 0.999, 1e-13)
        errors.append(str(excinfo.value))
    assert errors[0] == errors[1] and errors[2] == errors[3] == "series did not converge within 64 terms"


def test_ratio_tables_stay_bounded():
    # many parameter tuples, then two long sums: more blocks than are kept
    calls = [("hyp_3f2", (0.25 + i / 8, 1.0, 1.5, 7.0 / 6.0, 5.0 / 3.0, 0.5)) for i in range(16)]
    calls += [("gauss_2f1", (*_BUILTIN, 0.999)), ("hyp_3f2", (*_UNIFORM, 0.999))]
    special_functions._ratio_block.cache_clear()
    got = [getattr(special_functions, fn)(*args).hex() for fn, args in calls]
    info = special_functions._ratio_block.cache_info()
    assert info.misses > info.maxsize >= info.currsize
    # an int parameter tuple is summed as floats, through the same bounded memo
    gauss_2f1(1, 1, 2, 0.5)
    assert special_functions._ratio_block.cache_info().currsize == info.currsize
    # a fresh process, summing in reverse order, returns the same values
    probe = ("import ast, sys; from rodbend import special_functions as sf\n"
             "calls = ast.literal_eval(sys.argv[1])\n"
             "print(' '.join(getattr(sf, fn)(*args).hex() for fn, args in calls))")
    result = subprocess.run([sys.executable, "-c", probe, repr(calls[::-1])], env=src_env(),
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.split() == got[::-1]


@pytest.mark.parametrize("fn, params, z", [
    (gauss_2f1, (1, 2, 3), 0.4),
    (gauss_2f1, (Fraction(1, 2), Fraction(1, 2), Fraction(3, 2)), 0.4),
    (gauss_2f1, tuple(np.float32(v) for v in _ARCSIN), 0.4),
    (gauss_2f1, tuple(np.float64(v) for v in _BUILTIN), -0.7),
    (hyp_3f2, (1, 1, 2, 3, 4), 0.4),
    (hyp_3f2, (Fraction(1, 2), 1, Fraction(3, 2), Fraction(3, 2), Fraction(1, 2)), 0.4),
    (hyp_3f2, tuple(np.float32(v) for v in _UNIFORM), 0.8),
    (hyp_3f2, tuple(np.float64(v) for v in _UNIFORM), 0.8),
], ids=["2f1-int", "2f1-fraction", "2f1-float32", "2f1-float64",
        "3f2-int", "3f2-fraction", "3f2-float32", "3f2-float64"])
def test_hyp_series_params_take_the_float_path(fn, params, z):
    # any real parameter type is converted to float before the sum: the bits
    # of the float call, its ratios kept in the memo
    block = special_functions._ratio_block
    block.cache_clear()
    got = fn(*params, z)
    kept = block.cache_info()
    assert kept.currsize > 0
    floats = tuple(float(v) for v in params)
    assert type(got) is float and got.hex() == fn(*floats, z).hex()
    # the float call reads only the blocks kept by the first
    assert block.cache_info().misses == kept.misses
    # a string parameter is still refused, as before the conversion
    with pytest.raises(TypeError):
        fn("0.5", *floats[1:], z)


def test_ratio_tables_shared_by_threads():
    # more threads than cores, switching often, all filling the same memo
    cases = [case for case in _HYP_SERIES_BITS if case[2] != 0.999]
    special_functions._ratio_block.cache_clear()
    wrong = []

    def work(offset):
        for i in range(2 * len(cases)):
            fn, params, z, bits = cases[(offset + i) % len(cases)]
            if fn(*params, z).hex() != bits:
                wrong.append((fn.__name__, params, z))

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
    # every kept block equals the same block computed afresh
    block = special_functions._ratio_block
    for _, params, _, _ in cases:
        assert block(params, 0) == block.__wrapped__(params, 0)


def _fd3_partial_sum_exact(a, b, c, x, order):
    """Triple series with Fraction arithmetic, truncated at total degree."""
    total = Fraction(0)
    for m1 in range(order + 1):
        for m2 in range(order + 1 - m1):
            for m3 in range(order + 1 - m1 - m2):
                num = (pochhammer(a, m1 + m2 + m3)
                       * pochhammer(b[0], m1) * pochhammer(b[1], m2)
                       * pochhammer(b[2], m3))
                den = (pochhammer(c, m1 + m2 + m3)
                       * math.factorial(m1) * math.factorial(m2) * math.factorial(m3))
                total += Fraction(num, den) * x[0] ** m1 * x[1] ** m2 * x[2] ** m3
    return total


def test_degeneracy_chain_is_exact_in_rational_arithmetic():
    # FD3 with one zero argument collapses to F1, F1 with one zero to 2F1;
    # with rational parameters the truncated sums agree exactly.
    a, c = Fraction(2), Fraction(3)
    b = (Fraction(1, 2), Fraction(1, 2), Fraction(2, 3))
    x, y = Fraction(1, 4), Fraction(-1, 4)
    order = 12
    fd3 = _fd3_partial_sum_exact(a, b, c, (x, y, Fraction(0)), order)
    f1 = _fd3_partial_sum_exact(a, (b[0], b[1], Fraction(0)), c, (x, y, Fraction(1, 2)), order)
    assert fd3 == f1  # b3=0 and x3=0 kill the third index identically
    f1_one_var = _fd3_partial_sum_exact(a, (b[0], Fraction(0), Fraction(0)), c,
                                        (x, Fraction(1, 2), Fraction(1, 2)), order)
    two_f1 = sum(Fraction(pochhammer(a, k) * pochhammer(b[0], k),
                          pochhammer(c, k) * math.factorial(k)) * x ** k
                 for k in range(order + 1))
    assert f1_one_var == two_f1


def test_fd3_rejects_argument_above_one():
    with pytest.raises(DomainError):
        lauricella_fd3(2.0, (0.5, 0.5, 0.5), 3.0, (0.3, 0.3, 1.5))


def test_fd3_unit_argument_needs_convergent_parameters():
    # at x3 = 1 the series needs c > a + b3
    with pytest.raises(DomainError):
        lauricella_fd3(2.0, (0.5, 0.5, 1.5), 3.0, (0.3, 0.3, 1.0))


def test_fd3_wrong_arity_is_usage_error():
    with pytest.raises(UsageError):
        lauricella_fd3(2.0, (0.5, 0.5), 3.0, (0.3, 0.3, 0.3))


# ------------------------------------------------------------------ reductions

def test_reduce_fd3_unit_arg_dual_route_battery():
    rng = np.random.default_rng(17)
    for _ in range(120):
        a = rng.uniform(0.2, 1.8)
        b1, b2 = rng.uniform(0.1, 1.2, size=2)
        b3 = rng.uniform(0.1, 0.8)
        c = a + b3 + rng.uniform(0.3, 1.5)
        x, y = rng.uniform(-0.7, 0.7, size=2)
        direct = lauricella_fd3(a, (b1, b2, b3), c, (x, y, 1.0))
        reduced = reduce_fd3_unit_arg(a, b1, b2, b3, c, x, y)
        assert rel_err(direct, reduced) < 1e-9


@pytest.mark.parametrize("args, message", [
    ((0.5, 0.3, 0.3, 1.0, 1.5, 0.2, 0.1), "reduction needs c > a + b3, got c=1.5, a+b3=1.5"),
    ((-0.5, 0.3, 0.3, 0.3, 1.5, 0.2, 0.1), "reduction needs c > a > 0, got a=-0.5, c=1.5"),
], ids=["c-a-b3", "a"])
def test_reduce_fd3_unit_arg_refuses_its_domain(args, message):
    with pytest.raises(DomainError) as excinfo:
        reduce_fd3_unit_arg(*args)
    assert str(excinfo.value) == message


def test_reduce_fd3_unit_arg_without_a_unit_slot_weight_is_its_f1():
    # b3 = 0: the Gamma ratio is 1 and F1(a; b1, b2; c; x, y) is returned as summed
    got = reduce_fd3_unit_arg(0.5, 0.3, 0.3, 0.0, 1.5, 0.2, 0.1)
    assert got.hex() == appell_f1(0.5, 0.3, 0.3, 1.5, 0.2, 0.1, method="series").hex()


def test_reduce_fd3_unit_arg_takes_the_integral_past_the_shell_cap():
    # ln(1e-13)/ln(0.99999) = 3.0e6 shells, past the 10^5-shell cap of the series
    start = time.perf_counter()
    reduced = reduce_fd3_unit_arg(1.5, 0.6, 0.9, 0.3, 3.5, 0.99999, 0.01)
    assert time.perf_counter() - start < 1.0
    direct = lauricella_fd3(1.5, (0.6, 0.9, 0.3), 3.5, (0.99999, 0.01, 1.0))
    assert direct == pytest.approx(2.222969891258134, rel=1e-15)
    assert rel_err(reduced, direct) < 1e-12


def test_reduce_f1_to_3f2_at_zero():
    assert reduce_f1_to_3f2(2.0, 0.5, 3.0, 0.0) == 1.0


def test_reduce_f1_to_3f2_sample():
    got = reduce_f1_to_3f2(2.0, 0.5, 3.0, 0.4)
    want = appell_f1(2.0, 0.5, 0.5, 3.0, 0.4, -0.4)
    assert rel_err(got, want) < 1e-10


def test_reduce_f1_to_3f2_explicit_3f2_form():
    got = reduce_f1_to_3f2(2.0, 2.0 / 3.0, 8.0 / 3.0, 0.3)
    want = hyp_3f2(1.5, 1.0, 2.0 / 3.0, 11.0 / 6.0, 4.0 / 3.0, 0.09)
    assert rel_err(got, want) < 1e-13


def test_reduce_f1_to_3f2_dual_route_battery():
    rng = np.random.default_rng(19)
    for _ in range(120):
        a = rng.uniform(0.2, 2.5)
        b = rng.uniform(0.1, 1.2)
        c = a + rng.uniform(0.3, 1.5)
        x = rng.uniform(-0.7, 0.7)
        lhs = appell_f1(a, b, b, c, x, -x, method="integral")
        rhs = reduce_f1_to_3f2(a, b, c, x)
        assert rel_err(lhs, rhs) < 1e-9


def test_reduce_f1_to_3f2_rejects_large_argument():
    with pytest.raises(DomainError):
        reduce_f1_to_3f2(2.0, 0.5, 3.0, 1.0)


@pytest.mark.parametrize("c", [0.0, -1.0, -2.0, -3.0])
def test_reduce_f1_to_3f2_refusal_names_c(c):
    # the refusal named c/2 or (c+1)/2, the 3F2's lower parameter, not c
    with pytest.raises(DomainError,
                       match=f"^F1 reduction: lower parameter {c} is a nonpositive integer$"):
        reduce_f1_to_3f2(2.0, 0.5, c, 0.4)


def test_reduce_f1_to_3f2_takes_a_negative_half_integer_c():
    assert math.isfinite(reduce_f1_to_3f2(2.0, 0.5, -0.5, 0.4))


# ---------------------------------------------------------- non-finite input

# one valid call per guarded function, arguments in signature order
_FINITE_CALLS = {
    "gauss_2f1": (gauss_2f1, (0.5, 0.5, 1.5, 0.36)),
    "gauss_summation": (gauss_summation, (0.5, 0.5, 2.0)),
    "hyp_3f2": (hyp_3f2, (0.5, 1.0, 1.5, 1.25, 1.75, 0.81)),
    "appell_f1": (appell_f1, (2.0, 0.5, 0.5, 3.0, 0.1, 0.2)),
    "lauricella_fd3": (lambda a, b1, b2, b3, c, x1, x2, x3:
                       lauricella_fd3(a, (b1, b2, b3), c, (x1, x2, x3)),
                       (0.5, 0.5, 0.5, 0.5, 2.0, 0.1, 0.2, 0.3)),
    "reduce_fd3_unit_arg": (reduce_fd3_unit_arg, (0.5, 0.3, 0.3, 0.3, 1.5, 0.2, 0.1)),
    "reduce_f1_to_3f2": (reduce_f1_to_3f2, (0.5, 0.3, 1.5, 0.4)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400],
                         ids=["nan", "inf", "-inf", "huge-int", "-huge-int"])
@pytest.mark.parametrize("name", sorted(_FINITE_CALLS))
def test_non_finite_input_rejected_before_summing(name, bad):
    fn, args = _FINITE_CALLS[name]
    fn(*args)
    for i in range(len(args)):
        with pytest.raises(UsageError, match="must be finite"):
            fn(*args[:i], bad, *args[i + 1:])


@pytest.mark.parametrize("v", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
@pytest.mark.parametrize("name", sorted(_FINITE_CALLS))
def test_non_numbers_rejected_before_summing(name, v):
    # FD3 parsed a string parameter, and 2F1 took True as 1.0
    fn, args = _FINITE_CALLS[name]
    for i in range(len(args)):
        with pytest.raises(UsageError, match="every parameter and argument must be a real "
                                             "number") as excinfo:
            fn(*args[:i], v, *args[i + 1:])
        assert isinstance(excinfo.value, TypeError)


# ------------------------------------------------------------- bad tolerance

# one call per function that takes rtol; each ends at once whatever rtol is
# (reduce_fd3_unit_arg has |x| > 1, so its F1 factor takes the integral)
_RTOL_CALLS = {
    "gauss_2f1": lambda rtol: gauss_2f1(0.5, 0.5, 1.5, 0.36, rtol=rtol),
    "hyp_3f2": lambda rtol: hyp_3f2(0.5, 1.0, 1.5, 1.25, 1.75, 0.81, rtol=rtol),
    "appell_f1": lambda rtol: appell_f1(2.0, 0.5, 0.5, 3.0, 0.1, 0.2, rtol=rtol),
    "lauricella_fd3": lambda rtol: lauricella_fd3(0.5, (0.5, 0.5, 0.5), 2.0, (0.1, 0.2, 0.3),
                                                  rtol=rtol),
    "reduce_fd3_unit_arg": lambda rtol: reduce_fd3_unit_arg(0.5, 0.3, 0.3, 0.3, 1.5, -1.5, 0.1,
                                                            rtol=rtol),
    "reduce_f1_to_3f2": lambda rtol: reduce_f1_to_3f2(0.5, 0.3, 1.5, 0.4, rtol=rtol),
}


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1e-13, math.inf, -math.inf],
                         ids=["nan", "zero", "negative", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(_RTOL_CALLS))
def test_bad_tolerance_rejected_before_summing(name, bad):
    call = _RTOL_CALLS[name]
    call(1e-13)
    with pytest.raises(UsageError) as excinfo:
        call(bad)
    assert str(excinfo.value) == f"tolerance must be finite and positive, got {bad}"


@pytest.mark.parametrize("v", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
@pytest.mark.parametrize("name", sorted(_RTOL_CALLS))
def test_tolerance_that_is_not_a_number_rejected(name, v):
    with pytest.raises(UsageError, match="^tolerance must be a real number") as excinfo:
        _RTOL_CALLS[name](v)
    assert isinstance(excinfo.value, TypeError)


@pytest.mark.parametrize("bad", [0.0, math.inf], ids=["zero", "inf"])
@pytest.mark.parametrize("method", ["series", "integral"])
def test_bad_tolerance_rejected_on_every_fd_route(method, bad):
    # (a NaN or negative rtol kept the shell sum going to its cap of 10^5 shells)
    with pytest.raises(UsageError, match="tolerance must be finite and positive"):
        appell_f1(1.0, 0.5, 0.5, 2.0, 0.3, -0.2, method=method, rtol=bad)
    with pytest.raises(UsageError, match="tolerance must be finite and positive"):
        lauricella_fd3(1.0, (0.5, 0.5, 0.5), 2.0, (0.3, -0.2, 0.1), method=method, rtol=bad)


# ------------------------------------------------------------- auto route

# the Euler integral agrees with mpmath here (0.0134412754929980755...); the
# shell series sums mixed-sign terms that grow before they fall, and ends
# 2.6e-12 off although every shell passed the rtol test
_CANCELLING_F1 = (3.626693539595829, 19.813230262329455, 11.539534347785853,
                  4.346561089754035, -0.291118913172465, -0.0630040792495487)

_AUTO_ROUTES = {
    "F1 max|x| 0.3": (lambda: appell_f1(1.0, 0.5, 0.8, 2.0, 0.3, -0.2), "series"),
    "F1 max|x| 0.6": (lambda: appell_f1(1.0, 0.5, 0.8, 2.0, 0.6, -0.2), "integral"),
    "F1 max|x| 0.3 at rtol 1e-30": (
        lambda: appell_f1(1.0, 0.5, 0.8, 2.0, 0.3, -0.2, rtol=1e-30), "integral"),
    "F1 sum |b x| > 1": (lambda: appell_f1(1.0, 25.0, 0.5, 2.0, 0.05, 0.01), "integral"),
    "F1 cancelling": (lambda: appell_f1(*_CANCELLING_F1), "integral"),
    "F1 c <= a": (lambda: appell_f1(2.0, 0.5, 0.5, 1.5, 0.3, -0.2), "series"),
    "F1 at the origin": (lambda: appell_f1(1.0, 0.5, 0.8, 2.0, 0.0, 0.0), "series"),
    "FD3 max|x| 0.3": (lambda: lauricella_fd3(1.0, (0.5, 0.8, 0.3), 2.0, (0.3, -0.2, 0.1)),
                       "series"),
    "FD3 max|x| 0.6": (lambda: lauricella_fd3(1.0, (0.5, 0.8, 0.3), 2.0, (0.6, -0.2, 0.1)),
                       "integral"),
    "FD3 unit argument": (lambda: lauricella_fd3(0.5, (0.3, 0.3, 0.3), 1.5, (0.2, 0.1, 1.0)),
                          "integral"),
    "FD3 c <= a": (lambda: lauricella_fd3(2.0, (0.5, 0.8, 0.3), 1.5, (0.3, -0.2, 0.1)),
                   "series"),
}


# sum |b_i x_i| within an ulp of 1: added left to right it is 1.0 on the
# first input, so "auto" sums the series, and 1.0000000000000002 on the
# second, so it takes the integral. Built-in sum() compensates from Python
# 3.12 on and found the reverse; the routes differ by 36 and 12 ulps here
@pytest.mark.parametrize("b, x, route", [
    ((1.2, 1.6, 2.7), (0.02, 0.07, 0.32), "series"),
    ((2.9, 0.8, 0.4), (-0.28, -0.1, 0.27), "integral"),
], ids=["sum 1.0", "sum 1.0000000000000002"])
def test_auto_route_at_a_unit_weight_sum_is_the_same_on_every_python(b, x, route):
    other = {"series": "integral", "integral": "series"}[route]
    got = lauricella_fd3(1.0, b, 2.5, x)
    assert got.hex() == lauricella_fd3(1.0, b, 2.5, x, method=route).hex()
    assert got != lauricella_fd3(1.0, b, 2.5, x, method=other)


@pytest.mark.parametrize("case", sorted(_AUTO_ROUTES))
def test_auto_takes_the_cheaper_valid_route(monkeypatch, case):
    taken = []
    fd_series, irt_integral = special_functions._fd_series, special_functions._irt_integral

    def series(*args, **kwargs):
        taken.append("series")
        return fd_series(*args, **kwargs)

    def integral(*args, **kwargs):
        taken.append("integral")
        return irt_integral(*args, **kwargs)

    monkeypatch.setattr(special_functions, "_fd_series", series)
    monkeypatch.setattr(special_functions, "_irt_integral", integral)
    call, route = _AUTO_ROUTES[case]
    call()
    assert taken == [route]


@pytest.mark.parametrize("rtol", [1e-6, None], ids=["1e-6", "default"])
@pytest.mark.parametrize("call", [
    lambda **kw: appell_f1(1.0, 0.5, 0.8, 2.0, 0.6, -0.2, method="integral", **kw),
    lambda **kw: lauricella_fd3(1.0, (0.5, 0.8, 0.3), 2.0, (0.6, -0.2, 0.1), method="integral",
                                **kw),
], ids=["F1", "FD3"])
def test_euler_integral_runs_at_the_callers_tolerance(monkeypatch, call, rtol):
    # no preset tightens the request: the quadrature sees the rtol passed
    seen = []
    adaptive = special_functions._adaptive

    def spy(pieces, rtol, atol, start=0.0):
        seen.append(rtol)
        return adaptive(pieces, rtol, atol, start)

    monkeypatch.setattr(special_functions, "_adaptive", spy)
    call() if rtol is None else call(rtol=rtol)
    assert seen == [1e-13 if rtol is None else rtol]


# an endpoint power (plus one) near 0: substituted with s = 3/own, every
# Kronrod node had e = 0, so K41 equalled G20 and the rule stopped on
# G(0) 0.5^own/own alone, 1.0e-7, 3.6e-7 and 1.0e-9 from these values
@pytest.mark.parametrize("a, c", [(1e-6, 1.0), (1.0, 1.0 + 1e-6), (1e-8, 1.0)],
                         ids=["a 1e-6", "c-a 1e-6", "a 1e-8"])
def test_euler_integral_at_a_tiny_endpoint_power(a, c):
    got = appell_f1(a, 0.5, 0.5, c, 0.7, -0.4)
    assert got.hex() == appell_f1(a, 0.5, 0.5, c, 0.7, -0.4, method="integral").hex()
    with mp.workdps(30):
        want = lauricella_fd(a, (0.5, 0.5), c, (0.7, -0.4))[0]
    assert rel_err(got, want) <= 1e-13


# the exact endpoint part G(0) 0.5^own/own overflows: 1/own at a subnormal
# a, and G(0) = (1 - x1)^(-b1) = 0.01^-200 at c - a = 0.01
@pytest.mark.parametrize("args", [(1e-320, 0.5, 0.5, 1.0, 0.7, -0.4),
                                  (0.5, 200.0, 0.5, 0.51, 0.99, 0.1)], ids=["1/own", "G(0)"])
def test_euler_integral_refuses_an_endpoint_part_that_overflows(args):
    with pytest.raises(UsageError, match=re.escape("integrand not finite inside [0.0, 1.0]")):
        appell_f1(*args)


def _euler_draws():
    """40 seeded F1/FD3 inputs of the integral route, 10 in each family:
    an endpoint power (a or c - a) from 1e-9 to 0.05, both from 0.05 to 4,
    both from 4 to 20, and an FD3 with a unit slot whose (1-u) power
    c - a - b_unit is from 1e-6 to 3; |x_i| <= 0.6 elsewhere."""
    rng = np.random.default_rng(3535)
    draws = []
    for i in range(40):
        family = i // 10
        n = 3 if family == 3 else 2 + i % 2
        b = [float(v) for v in rng.uniform(-2.0, 2.0, size=n)]
        x = [float(v) for v in rng.uniform(-0.6, 0.6, size=n)]
        if family == 0:
            tiny, other = 10.0 ** rng.uniform(-9.0, math.log10(0.05)), rng.uniform(0.3, 3.0)
            a, c = (tiny, tiny + other) if i % 4 < 2 else (other, other + tiny)
        elif family == 1:
            a = rng.uniform(0.05, 4.0)
            c = a + rng.uniform(0.05, 4.0)
        elif family == 2:
            a = rng.uniform(4.0, 20.0)
            c = a + rng.uniform(4.0, 20.0)
        else:
            slot = i % 3
            a, x[slot] = rng.uniform(0.2, 3.0), 1.0
            c = a + max(b[slot], 0.0) + 10.0 ** rng.uniform(-6.0, math.log10(3.0))
        draws.append((float(a), b, float(c), x))
    return draws


def test_euler_integral_draws_are_within_rtol_of_the_oracle(monkeypatch):
    panels = []
    panel = quadrature._panel

    def counting(f, lo, hi):
        panels.append((lo, hi))
        return panel(f, lo, hi)

    monkeypatch.setattr(quadrature, "_panel", counting)
    for a, b, c, x in _euler_draws() + [_ROUNDED_POWER_FD3]:
        if len(x) == 2:
            got = appell_f1(a, *b, c, *x, method="integral")
        else:
            got = lauricella_fd3(a, b, c, x, method="integral")
        rest = [(bi, xi) for bi, xi in zip(b, x) if xi != 1.0]
        with mp.workdps(30):
            # a unit slot: G(c) G(c-a-b_unit) / (G(c-a) G(c-b_unit)) times the
            # FD of the other slots with c lowered by b_unit, on the exact inputs
            unit = mp.fsum(bi for bi, xi in zip(b, x) if xi == 1.0)
            c = mp.mpf(c)
            want = mp.gammaprod([c, c - a - unit], [c - a, c - unit]) * lauricella_fd(
                a, [bi for bi, _ in rest], c - unit, [xi for _, xi in rest])[0]
        assert rel_err(got, want) <= 1e-13, (a, b, c, x)
    # 41-node panels over all 40 draws: 2.65 per call, and 2 for the
    # rounded-power FD3. Substituted with s = 3/own and no exact part, the
    # draws took 228, and 8 of them (the tiny endpoint powers below 1e-4)
    # missed 1e-13 by up to 1.2e-5
    assert len(panels) == 106 + 2


# F1 and FD3 values on each route, as float.hex: the route choice, the
# unit-slot folding and the domain checks that F1 and FD3 share must not
# move a bit. Re-pinned: "F1 series" by one ulp when the shells came from
# their recurrence (relative error against mpmath 7.98e-14 -> 8.00e-14),
# "FD3 auto, unit argument" when the two halves of the Euler integral came
# to share one error budget (7.0e-16 -> 3.6e-16); four of the six
# integral-route cases by one or two ulps when the Euler substitution came
# to make the endpoint power t^3: "F1 auto, integral at 0.8" 2.8e-16 ->
# 4.5e-16, "F1 cancelling, auto" 1.2e-16 -> 2.5e-16, "FD3 auto, integral at
# 0.8" 1.0e-16 -> 4.2e-16, "FD3 auto, unit argument" 3.6e-16 -> 5.3e-16
_FD_ROUTE_BITS = {
    "F1 auto, series": (lambda: appell_f1(1.0, 0.6, 0.4, 2.3, 0.2, -0.12),
                        "0x1.0954d5f53eacbp+0"),
    "F1 auto, integral": (lambda: appell_f1(1.0, 0.6, 0.4, 2.3, 0.7, -0.4),
                          "0x1.3631aa1ad0c4dp+0"),
    "F1 series": (lambda: appell_f1(1.0, 0.6, 0.4, 2.3, 0.7, -0.4, method="series"),
                  "0x1.3631aa1ad0a98p+0"),
    "F1 cancelling, auto": (lambda: appell_f1(*_CANCELLING_F1), "0x1.b87197545892ap-7"),
    "FD3 auto, unit argument": (
        lambda: lauricella_fd3(0.5, (0.3, 0.3, 0.3), 1.5, (0.2, 0.1, 1.0)),
        "0x1.4df62b7f2ddc4p+0"),
    "FD3 auto, integral": (
        lambda: lauricella_fd3(1.0, (0.6, 0.4, 0.5), 2.3, (0.7, -0.4, 0.3)),
        "0x1.5039245447ac8p+0"),
    "F1 auto, integral at 0.8": (lambda: appell_f1(1.0, 0.6, 0.4, 2.3, 0.8, -0.4),
                                 "0x1.4a7045c48083ep+0"),
    "FD3 auto, integral at 0.8": (
        lambda: lauricella_fd3(1.0, (0.6, 0.4, 0.5), 2.3, (0.8, -0.4, 0.3)),
        "0x1.6724eb6536acbp+0"),
}


@pytest.mark.parametrize("case", sorted(_FD_ROUTE_BITS))
def test_fd_route_bits_unchanged(case):
    call, bits = _FD_ROUTE_BITS[case]
    assert call().hex() == bits


# F1 and FD3 with 0 to 3 live factors (a zero b_i or x_i drops its factor),
# as float.hex on the series and the integral route, recorded when the
# shell recurrence kept a growing list of coefficients and the Euler
# integrand multiplied in one factor per live slot. The shell loop now runs
# a fixed three-slot window with zero steps past the live factors, and the
# integrand a two- or three-factor expression padded with exact ones, so
# every count of live factors must give the same bits. The integral bits of
# "F1, 2 live", "FD3, 2 live" and "FD3, 3 live" were re-pinned when the
# Euler substitution came to make the endpoint power t^3 (relative error
# against mpmath 1.9e-16 -> 1.3e-17 and 2.4e-16 -> 4.4e-17)
_LIVE_FACTOR_BITS = {
    "F1, 0 live": (lambda m: appell_f1(1.0, 0.0, 0.6, 2.3, 0.4, 0.0, method=m),
                   ("0x1.0000000000000p+0", "0x1.0000000000000p+0")),
    "F1, 1 live": (lambda m: appell_f1(1.0, 0.6, 0.4, 2.3, 0.4, 0.0, method=m),
                   ("0x1.21a1b2a1b11b2p+0", "0x1.21a1b2a1b11c7p+0")),
    "F1, 2 live": (lambda m: appell_f1(1.0, 0.6, 0.4, 2.3, 0.4, -0.3, method=m),
                   ("0x1.13856b0c4c33cp+0", "0x1.13856b0c4c367p+0")),
    "FD3, 0 live": (lambda m: lauricella_fd3(1.0, (0.0, 0.5, 0.7), 2.3, (0.4, 0.0, 0.0), method=m),
                    ("0x1.0000000000000p+0", "0x1.0000000000000p+0")),
    "FD3, 1 live": (lambda m: lauricella_fd3(1.0, (0.6, 0.0, 0.7), 2.3, (0.4, -0.3, 0.0), method=m),
                    ("0x1.21a1b2a1b11b2p+0", "0x1.21a1b2a1b11c7p+0")),
    "FD3, 2 live": (lambda m: lauricella_fd3(1.0, (0.6, 0.4, 0.0), 2.3, (0.4, -0.3, 0.2), method=m),
                    ("0x1.13856b0c4c33cp+0", "0x1.13856b0c4c367p+0")),
    "FD3, 3 live": (lambda m: lauricella_fd3(1.0, (0.6, 0.4, 0.5), 2.3, (0.4, -0.3, 0.2), method=m),
                    ("0x1.21340b1adb30ap+0", "0x1.21340b1adb31ep+0")),
}

# the integral route alone: a unit slot folded into the (1-u) power, beside
# 0 to 2 live factors, and the reduction of the same FD3 to an F1 series
_UNIT_SLOT_BITS = {
    "FD3 unit slot, 0 live": (lambda: lauricella_fd3(0.5, (0.0, 0.4, 0.6), 2.5, (0.4, 0.0, 1.0)),
                              "0x1.39f308cc40517p+0"),
    "FD3 unit slot, 1 live": (lambda: lauricella_fd3(0.5, (0.3, 0.0, 0.6), 2.5, (0.4, -0.3, 1.0)),
                              "0x1.458b1f7ed08fbp+0"),
    "FD3 unit slot, 2 live": (lambda: lauricella_fd3(0.5, (0.3, 0.4, 0.6), 2.5, (0.4, -0.3, 1.0)),
                              "0x1.3be7ce8a07cadp+0"),
    "reduce_fd3_unit_arg": (
        lambda: reduce_fd3_unit_arg(0.5, 0.3, 0.4, 0.6, 2.5, 0.4, -0.3), "0x1.3be7ce8a07c99p+0"),
}


# Live factors in every slot order, as float.hex on the series and the
# integral route, recorded before the shell window and the Euler integrand
# were set up in scalars. A pattern names each slot: a digit is the live
# factor _SLOT_LIVE[digit], "b" a factor with b_i = 0, "x" one with x_i = 0,
# "u" a unit argument (the integral route alone); three slots are an FD3,
# two an F1. The live factors are chosen so that their order moves the last
# bits, so a slot read out of turn shows. Integral bits re-pinned when the
# Euler substitution came to make the endpoint power t^3, with the relative
# error against mpmath: the six orders of "012", 2.0e-16-3.4e-16 -> 8.5e-17;
# "x12", "1b2" and "12x", 2.0e-16 -> 3.6e-17; the unit slots "u01", "0u1"
# and "10u", 9.5e-17 -> 2.7e-16, "xu0" 6.2e-17 -> 1.4e-16 and "uxb"
# 1.9e-16 -> 4.5e-17
_SLOT_LIVE = ((0.62, 0.41), (-0.73, -0.24), (1.41, 0.32))
_SLOT_DEAD = {"b": (0.0, 0.5), "x": (0.7, 0.0), "u": (0.6, 1.0)}


def _slot_call(pattern, method="auto"):
    bx = [_SLOT_LIVE[int(ch)] if ch.isdigit() else _SLOT_DEAD[ch] for ch in pattern]
    b, x = tuple(v[0] for v in bx), tuple(v[1] for v in bx)
    if len(pattern) == 3:
        return lauricella_fd3(1.0, b, 2.3, x, method=method)
    return appell_f1(1.0, *b, 2.3, *x, method=method)


_SLOT_BITS = {
    "012": ("0x1.941dfe786f810p+0", "0x1.941dfe786f830p+0"),
    "021": ("0x1.941dfe786f810p+0", "0x1.941dfe786f830p+0"),
    "102": ("0x1.941dfe786f810p+0", "0x1.941dfe786f830p+0"),
    "120": ("0x1.941dfe786f80fp+0", "0x1.941dfe786f830p+0"),
    "201": ("0x1.941dfe786f810p+0", "0x1.941dfe786f830p+0"),
    "210": ("0x1.941dfe786f80fp+0", "0x1.941dfe786f830p+0"),
    "x01": ("0x1.3b030c8ffcc4ap+0", "0x1.3b030c8ffcc62p+0"),
    "0b1": ("0x1.3b030c8ffcc4ap+0", "0x1.3b030c8ffcc62p+0"),
    "01x": ("0x1.3b030c8ffcc4ap+0", "0x1.3b030c8ffcc62p+0"),
    "b02": ("0x1.7428d868a319ap+0", "0x1.7428d868a31b5p+0"),
    "0x2": ("0x1.7428d868a319ap+0", "0x1.7428d868a31b5p+0"),
    "02b": ("0x1.7428d868a319ap+0", "0x1.7428d868a31b5p+0"),
    "x10": ("0x1.3b030c8ffcc4ap+0", "0x1.3b030c8ffcc62p+0"),
    "1b0": ("0x1.3b030c8ffcc4ap+0", "0x1.3b030c8ffcc62p+0"),
    "10x": ("0x1.3b030c8ffcc4ap+0", "0x1.3b030c8ffcc62p+0"),
    "x12": ("0x1.5c54eac23952bp+0", "0x1.5c54eac239534p+0"),
    "1b2": ("0x1.5c54eac23952bp+0", "0x1.5c54eac239534p+0"),
    "12x": ("0x1.5c54eac23952bp+0", "0x1.5c54eac239534p+0"),
    "b20": ("0x1.7428d868a319ap+0", "0x1.7428d868a31b5p+0"),
    "2x0": ("0x1.7428d868a319ap+0", "0x1.7428d868a31b5p+0"),
    "20b": ("0x1.7428d868a319ap+0", "0x1.7428d868a31b5p+0"),
    "x21": ("0x1.5c54eac23952bp+0", "0x1.5c54eac239535p+0"),
    "2b1": ("0x1.5c54eac23952bp+0", "0x1.5c54eac239535p+0"),
    "21x": ("0x1.5c54eac23952bp+0", "0x1.5c54eac239535p+0"),
    "0bx": ("0x1.23fc50723e63cp+0", "0x1.23fc50723e667p+0"),
    "b0x": ("0x1.23fc50723e63cp+0", "0x1.23fc50723e667p+0"),
    "bx0": ("0x1.23fc50723e63cp+0", "0x1.23fc50723e667p+0"),
    "1bx": ("0x1.13246b2b10f53p+0", "0x1.13246b2b10f52p+0"),
    "b1x": ("0x1.13246b2b10f53p+0", "0x1.13246b2b10f52p+0"),
    "bx1": ("0x1.13246b2b10f53p+0", "0x1.13246b2b10f52p+0"),
    "2bx": ("0x1.420833b643b0ap+0", "0x1.420833b643b20p+0"),
    "b2x": ("0x1.420833b643b0ap+0", "0x1.420833b643b20p+0"),
    "bx2": ("0x1.420833b643b0ap+0", "0x1.420833b643b20p+0"),
    "01": ("0x1.3b030c8ffcc4ap+0", "0x1.3b030c8ffcc62p+0"),
    "10": ("0x1.3b030c8ffcc4ap+0", "0x1.3b030c8ffcc62p+0"),
    "0b": ("0x1.23fc50723e63cp+0", "0x1.23fc50723e667p+0"),
    "x1": ("0x1.13246b2b10f53p+0", "0x1.13246b2b10f52p+0"),
    "2x": ("0x1.420833b643b0ap+0", "0x1.420833b643b20p+0"),
    "b2": ("0x1.420833b643b0ap+0", "0x1.420833b643b20p+0"),
}
_UNIT_SLOT_PATTERN_BITS = {
    "u01": "0x1.3bf84c1834718p+1",
    "0u1": "0x1.3bf84c1834718p+1",
    "10u": "0x1.3bf84c1834718p+1",
    "u2b": "0x1.466fecb865771p+1",
    "xu0": "0x1.1dc0acfaabe33p+1",
    "b1u": "0x1.05ab1a2380399p+1",
    "2ux": "0x1.466fecb865771p+1",
    "uxb": "0x1.db6db6db6db6fp+0",
}
_LIVE_FACTOR_BITS.update({f"slots {p}": (lambda m, p=p: _slot_call(p, m), bits)
                          for p, bits in _SLOT_BITS.items()})
_UNIT_SLOT_BITS.update({f"slots {p}": (lambda p=p: _slot_call(p), bits)
                        for p, bits in _UNIT_SLOT_PATTERN_BITS.items()})


@pytest.mark.parametrize("case", sorted(_LIVE_FACTOR_BITS))
def test_live_factor_counts_keep_their_bits_on_both_routes(case):
    call, bits = _LIVE_FACTOR_BITS[case]
    assert (call("series").hex(), call("integral").hex()) == bits


@pytest.mark.parametrize("case", sorted(_UNIT_SLOT_BITS))
def test_unit_slot_bits_unchanged(case):
    call, bits = _UNIT_SLOT_BITS[case]
    assert call().hex() == bits


# F1 input -> error class; a usage error wins over a domain error
_F1_ERRORS = {
    "unit x1 on auto": ({"x1": 1.0}, DomainError),
    "unit x1 on integral": ({"x1": 1.0, "method": "integral"}, DomainError),
    "unit x1 on series": ({"x1": 1.0, "method": "series"}, DomainError),
    "x1 = 1.5 on auto": ({"x1": 1.5}, DomainError),
    "x1 = 1.5 on integral": ({"x1": 1.5, "method": "integral"}, DomainError),
    "NaN with a unit x1": ({"x1": 1.0, "x2": math.nan}, UsageError),
    "NaN with a unit x1 on integral": ({"x1": 1.0, "x2": math.nan, "method": "integral"},
                                       UsageError),
    "unknown method": ({"method": "quadrature"}, UsageError),
    "unknown method with a unit x1": ({"x1": 1.0, "method": "quadrature"}, UsageError),
}


@pytest.mark.parametrize("case", sorted(_F1_ERRORS))
def test_f1_error_classes(case):
    kwargs, error = _F1_ERRORS[case]
    args = {"x1": 0.3, "x2": -0.2, **kwargs}
    with pytest.raises(error) as excinfo:
        appell_f1(1.0, 0.5, 0.5, 2.0, **args)
    assert type(excinfo.value) is error


def test_auto_refuses_the_cancelling_series():
    via_series = appell_f1(*_CANCELLING_F1, method="series")
    via_integral = appell_f1(*_CANCELLING_F1, method="integral")
    assert rel_err(via_series, 0.0134412754929980755) > 1e-12
    assert rel_err(via_integral, 0.0134412754929980755) < 1e-15
    assert appell_f1(*_CANCELLING_F1).hex() == via_integral.hex()


@st.composite
def _fd_args(draw, n):
    """a, b, c, x in the box a in [0.02, 5], c - a in [0.005, 5], b_i in
    [-25, 25], |x_i| <= 0.45; half the draws scale b down so that
    sum |b_i x_i| <= 1, where auto may take the series."""
    a = draw(st.floats(0.02, 5.0))
    c = a + draw(st.floats(0.005, 5.0))
    b = draw(st.lists(st.floats(-25.0, 25.0), min_size=n, max_size=n))
    x = draw(st.lists(st.floats(-0.45, 0.45), min_size=n, max_size=n))
    weight = sum(abs(bi * xi) for bi, xi in zip(b, x))
    if draw(st.booleans()) and weight > 1.0:
        b = [bi * draw(st.floats(0.0, 1.0)) / weight for bi in b]
    return a, b, c, x


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_fd_args(2))
def test_f1_auto_stays_within_rtol_of_the_integral(args):
    a, (b1, b2), c, (x1, x2) = args
    via_integral = appell_f1(a, b1, b2, c, x1, x2, method="integral")
    assert rel_err(appell_f1(a, b1, b2, c, x1, x2), via_integral) <= 1e-13


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_fd_args(3))
def test_fd3_auto_stays_within_rtol_of_the_integral(args):
    a, b, c, x = args
    via_integral = lauricella_fd3(a, b, c, x, method="integral")
    assert rel_err(lauricella_fd3(a, b, c, x), via_integral) <= 1e-13


@st.composite
def _fd_series_args(draw, n):
    """a, b, c, x in n variables with max|x_i| = m <= 0.9: b_i and x_i of
    either sign, each b_i possibly zero or a nonpositive integer, each x_i
    but the first possibly zero."""
    a = draw(st.floats(-3.0, 5.0))
    c = draw(st.floats(0.1, 5.0))
    b = draw(st.lists(st.floats(-5.0, 5.0) | st.sampled_from([0.0, -1.0, -2.0, -3.0]),
                      min_size=n, max_size=n))
    m = draw(st.floats(0.0, 0.9))
    x = [m * draw(st.sampled_from([-1.0, 1.0]))]
    x += [m * draw(st.floats(-1.0, 1.0) | st.just(0.0)) for _ in range(n - 1)]
    return a, b, c, x


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3]).flatmap(_fd_series_args))
def test_fd_series_is_within_its_tail_and_rounding_of_the_oracle(args):
    a, b, c, x = args
    if len(x) == 2:
        got = appell_f1(a, *b, c, *x, method="series")
    else:
        got = lauricella_fd3(a, b, c, x, method="series")
    with mp.workdps(30):
        want, shells = lauricella_fd(a, b, c, x)
        # the shells the float sum takes: up to the third in a row at or
        # below rtol times the partial sum
        partial, quiet, size = 0, 0, 0
        for count, shell in enumerate(shells, 1):
            partial += shell
            size += abs(shell)
            quiet = quiet + 1 if abs(shell) <= 1e-13 * abs(partial) else 0
            if quiet == 3:
                break
        # the stop leaves the tail after a last shell of at most rtol |sum|,
        # about |last shell| m / (1 - m); each of the S shells rounds at
        # about eps times the shell sizes
        m = max(abs(v) for v in x)
        tail = 1e-13 * abs(want) * m / (1 - m)
        assert abs(got - want) <= tail + count * sys.float_info.epsilon * size
