"""Hypergeometric building blocks: examples, identities, domain errors.

Identity tests evaluate both sides through genuinely different code
paths (double series vs one-dimensional integral, series vs log-gamma
formula) so a shared bug cannot cancel out.
"""

import math
import subprocess
import sys
import threading
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodbend import special_functions
from rodbend.errors import DomainError, UsageError
from rodbend.quadrature import IntegrandSpec, integrate
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

from _oracle import gamma_ratio, hyp2f1, src_env


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

def test_gauss_summation_sample():
    # Gamma(2)Gamma(1)/Gamma(3/2)^2 = 4/pi
    assert rel_err(gauss_summation(0.5, 0.5, 2.0), 4.0 / math.pi) < 1e-13


def test_gauss_summation_matches_beta_integral():
    # independent route: 2F1(a,b;c;1) via the Euler integral; exponents
    # stay above -0.35 so the quadrature's endpoint-representability
    # floor sits far below the comparison tolerance
    rng = np.random.default_rng(42)
    for _ in range(100):
        a = rng.uniform(0.1, 1.5)
        b = rng.uniform(0.65, 1.6)
        c = a + b + rng.uniform(0.65, 2.0)
        spec = IntegrandSpec(
            f=lambda u: u ** (b - 1.0) * (1.0 - u) ** (c - a - b - 1.0),
            lo=0.0, hi=1.0,
            lo_exponent=b - 1.0 if b < 1.0 else None,
            hi_exponent=c - a - b - 1.0 if c - a - b < 1.0 else None,
            rtol=1e-12,
        )
        val, est = integrate(spec)
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
# replaced, as float.hex; inputs fixed before the values were recorded
_FD3_SERIES_BITS = [
    ((0.5, (1.0, 0.5, 0.25), 1.5, (0.3, -0.2, 0.1)), "0x1.18753a41ee196p+0"),
    ((1.0, (0.5, 0.5, 0.5), 2.0, (0.5, 0.25, -0.5)), "0x1.1fd2af5063d93p+0"),
    ((2.0, (1.0, -0.5, 0.75), 1.5, (0.4, 0.4, 0.4)), "0x1.2de4ba3a738f9p+1"),
    ((-0.5, (1.0, 1.0, 1.0), 1.0, (0.2, -0.3, 0.6)), "0x1.5cfb5a9feba16p-1"),
    ((1.5, (2.0, 0.5, 1.0), 2.5, (-0.8, 0.1, 0.05)), "0x1.07a65bdaf2ab7p-1"),
    ((0.25, (0.5, 1.5, -1.0), 3.0, (0.9, -0.9, 0.5)), "0x1.d40539affd0bcp-1"),
    ((3.0, (0.5, 0.5, 0.5), 1.25, (0.1, 0.2, 0.3)), "0x1.23a893fa984e1p+1"),
    ((1.0, (1.0, 2.0, 3.0), 4.0, (0.7, 0.0, -0.6)), "0x1.a76fcdba29ffdp-1"),
    ((0.75, (-2.0, 1.0, 0.5), 1.75, (0.6, 0.6, -0.6)), "0x1.5b94f256fb733p-1"),
    ((1.25, (0.3, 0.7, 1.1), 2.25, (-0.5, -0.5, -0.5)), "0x1.3e66381512478p-1"),
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


def test_ratio_tables_stay_bounded():
    # many parameter tuples, then two long sums: more blocks than are kept
    calls = [("hyp_3f2", (0.25 + i / 8, 1.0, 1.5, 7.0 / 6.0, 5.0 / 3.0, 0.5)) for i in range(16)]
    calls += [("gauss_2f1", (*_BUILTIN, 0.999)), ("hyp_3f2", (*_UNIFORM, 0.999))]
    special_functions._ratio_block.cache_clear()
    got = [getattr(special_functions, fn)(*args).hex() for fn, args in calls]
    info = special_functions._ratio_block.cache_info()
    assert info.misses > info.maxsize >= info.currsize
    # a parameter tuple that is not all floats is summed without being kept
    gauss_2f1(1, 1, 2, 0.5)
    assert special_functions._ratio_block.cache_info().currsize == info.currsize
    # a fresh process, summing in reverse order, returns the same values
    probe = ("import ast, sys; from rodbend import special_functions as sf\n"
             "calls = ast.literal_eval(sys.argv[1])\n"
             "print(' '.join(getattr(sf, fn)(*args).hex() for fn, args in calls))")
    result = subprocess.run([sys.executable, "-c", probe, repr(calls[::-1])], env=src_env(),
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.split() == got[::-1]


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(_FINITE_CALLS))
def test_non_finite_input_rejected_before_summing(name, bad):
    fn, args = _FINITE_CALLS[name]
    fn(*args)
    for i in range(len(args)):
        with pytest.raises(UsageError, match="must be finite"):
            fn(*args[:i], bad, *args[i + 1:])


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


# F1 and FD3 values on each route, as float.hex: the route choice, the
# unit-slot folding and the domain checks that F1 and FD3 share must not
# move a bit
_FD_ROUTE_BITS = {
    "F1 auto, series": (lambda: appell_f1(1.0, 0.6, 0.4, 2.3, 0.2, -0.12),
                        "0x1.0954d5f53eacbp+0"),
    "F1 auto, integral": (lambda: appell_f1(1.0, 0.6, 0.4, 2.3, 0.7, -0.4),
                          "0x1.3631aa1ad0c4ep+0"),
    "F1 series": (lambda: appell_f1(1.0, 0.6, 0.4, 2.3, 0.7, -0.4, method="series"),
                  "0x1.3631aa1ad0a99p+0"),
    "F1 cancelling, auto": (lambda: appell_f1(*_CANCELLING_F1), "0x1.b871975458929p-7"),
    "FD3 auto, unit argument": (
        lambda: lauricella_fd3(0.5, (0.3, 0.3, 0.3), 1.5, (0.2, 0.1, 1.0)),
        "0x1.4df62b7f2ddc4p+0"),
    "FD3 auto, integral": (
        lambda: lauricella_fd3(1.0, (0.6, 0.4, 0.5), 2.3, (0.7, -0.4, 0.3)),
        "0x1.5039245447ac8p+0"),
}


@pytest.mark.parametrize("case", sorted(_FD_ROUTE_BITS))
def test_fd_route_bits_unchanged(case):
    call, bits = _FD_ROUTE_BITS[case]
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
