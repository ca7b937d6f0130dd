"""Exact-rational power series: composition, reversion, Taylor sources."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodbend.errors import DomainError, UsageError
from rodbend.series_tools import (
    PowerSeries,
    compose,
    hyp3f2_taylor,
    identity_series,
    lagrange_revert,
)

from test_elastica import NOT_NUMBER_IDS, NOT_NUMBERS


def odd_series(*coeffs, order=None):
    # build [0, c0, 0, c1, ...]
    flat = []
    for c in coeffs:
        flat.append(F(0))
        flat.append(F(c))
    return PowerSeries.from_coefficients(flat, order=order if order is not None else len(flat) - 1)


# ----------------------------------------------------------------- container

def test_coefficients_are_fractions():
    s = odd_series(1, -2)
    assert all(isinstance(c, F) for c in s.coefficients)


def test_coefficient_beyond_truncation_rejected():
    s = odd_series(1, -2)  # order 3
    assert s.coefficient(3) == -2
    with pytest.raises(UsageError):
        s.coefficient(4)


def test_parity_violation_rejected():
    with pytest.raises(UsageError):
        PowerSeries.from_coefficients([F(1), F(1)], order=1)


def test_order_shorter_than_coefficients_rejected():
    with pytest.raises(UsageError):
        PowerSeries((F(0), F(1), F(0), F(1)), order=2)


def test_from_coefficients_slices_to_requested_order():
    s = PowerSeries.from_coefficients([F(0), F(1), F(0), F(1)], order=2)
    assert s.order == 2
    assert s.coefficients == (F(0), F(1), F(0))


@pytest.mark.parametrize("order", [2.5, True, "3"])
def test_from_coefficients_refuses_a_non_integer_order(order):
    with pytest.raises(UsageError, match="order must be an integer"):
        PowerSeries.from_coefficients([F(0), F(1), F(0), F(1)], order=order)


def test_evaluate_horner_matches_direct_sum():
    s = odd_series(1, -1, 3)
    w = 0.37
    direct = w - w ** 3 + 3 * w ** 5
    assert abs(s.evaluate(w) - direct) < 1e-15


@pytest.mark.parametrize("v", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
def test_evaluate_refuses_a_non_number(v):
    # evaluate(True) on x + x^3 was 2.0
    with pytest.raises(UsageError, match="^x must be a real number") as excinfo:
        odd_series(1, 1).evaluate(v)
    assert isinstance(excinfo.value, TypeError)


def test_json_object_uses_numerator_denominator_pairs():
    s = odd_series(F(3, 8))
    obj = s.json_obj()
    assert obj["coefficients"][1] == {"power": 1, "numerator": 3, "denominator": 8}


# ---------------------------------------------------------------- compose

def test_compose_linear_identity():
    s = odd_series(2, -5, 7)
    ident = identity_series(s.order)
    got = compose(s, ident)
    assert got.coefficients == s.coefficients


def test_compose_odd_with_odd_is_odd():
    f = odd_series(1, 1)
    g = odd_series(1, -2)
    h = compose(f, g)
    assert all(h.coefficient(k) == 0 for k in range(0, h.order + 1, 2))


def test_compose_against_hand_expansion():
    # f(t) = t + t^3, g(w) = w - 2 w^3:
    # f(g(w)) = w - 2w^3 + (w - 2w^3)^3 = w - w^3 - 6 w^5 + ...
    f = odd_series(1, 1, 0)
    g = odd_series(1, -2, 0)
    h = compose(f, g)
    assert h.coefficient(1) == 1
    assert h.coefficient(3) == -1
    assert h.coefficient(5) == -6


# ------------------------------------------------------------ lagrange_revert

def test_revert_cubic_example():
    f = odd_series(1, 1, 0, 0)  # x + x^3, room up to x^7
    g = lagrange_revert(f)
    assert [g.coefficient(k) for k in (1, 3, 5, 7)] == [1, -1, 3, -12]


def test_revert_round_trip_is_identity():
    f = odd_series(1, F(1, 3), F(-2, 7), F(5, 11))
    g = lagrange_revert(f)
    h = compose(f, g)
    assert h.coefficients == identity_series(h.order).coefficients


def test_revert_round_trip_other_direction():
    f = odd_series(1, F(-3, 5), F(1, 2), 0)
    g = lagrange_revert(f)
    h = compose(g, f)
    assert h.coefficients == identity_series(h.order).coefficients


def test_revert_requires_unit_linear_term_scaling():
    f = odd_series(2, 1)
    g = lagrange_revert(f)
    # g'(0) = 1/f'(0)
    assert g.coefficient(1) == F(1, 2)
    round_trip = compose(f, g)
    assert round_trip.coefficient(1) == 1
    assert round_trip.coefficient(3) == 0


# coefficient 1 is any nonzero rational; the others are zero about half
# the time, so interior gaps and short stored tails both occur
_LINEAR = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(lambda c: c != 0)
_COEFF = st.one_of(st.just(F(0)), st.fractions(min_value=-5, max_value=5, max_denominator=7))


def test_revert_rejects_vanishing_linear_term():
    f = PowerSeries.from_coefficients([F(0), F(0), F(0), F(1)], order=3)
    with pytest.raises(UsageError):
        lagrange_revert(f)


# ------------------------------------- the kernels against plain-Fraction arithmetic

def _reference_mul(a, b, order):
    out = [F(0)] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > order:
            continue
        for j in range(min(len(b) - 1, order - i) + 1):
            if b[j] != 0:
                out[i + j] += ai * b[j]
    return out


def reference_compose(outer, inner):
    """Horner over the outer coefficients, one Fraction product at a time."""
    order = min(outer.order, inner.order)
    inner_c = list(inner.coefficients[: order + 1])
    acc = [F(0)] * (order + 1)
    for c in reversed(outer.coefficients[: order + 1]):
        acc = _reference_mul(acc, inner_c, order)
        acc[0] += c
    return tuple(acc)


def reference_revert(f):
    """Lagrange inversion with each power of h = y/f(y) from Miller's recurrence
    (Knuth, TAOCP vol. 2, 4.7): p_0 = h_0^n, k h_0 p_k = sum_j ((n+1) j - k) h_j p_(k-j).
    h is even, so only its even coefficients are summed."""
    order = f.order
    f1 = f.coefficient(1)
    h = [1 / f1] + [F(0)] * (order - 1)
    for k in range(2, order, 2):
        h[k] = -sum(f.coefficient(j + 1) * h[k - j] for j in range(2, k + 1, 2)) / f1
    g = [F(0)] * (order + 1)
    for n in range(1, order + 1, 2):
        p = [h[0] ** n] + [F(0)] * (n - 1)
        for k in range(2, n, 2):
            p[k] = sum(((n + 1) * j - k) * h[j] * p[k - j]
                       for j in range(2, k + 1, 2)) / (k * h[0])
        g[n] = p[n - 1] / n
    return tuple(g)


@st.composite
def odd_series_draw(draw, head=st.just(())):
    """An odd series, order 0 to 15, whose coefficients start with a draw of
    ``head`` and go on with a stored tail of any length; the draws at even
    powers are zeroed."""
    head = list(draw(head))
    order = draw(st.integers(min_value=max(len(head) - 1, 0), max_value=15))
    coeffs = head + draw(st.lists(_COEFF, max_size=order + 1 - len(head)))
    coeffs = [c if k % 2 else F(0) for k, c in enumerate(coeffs)]
    return PowerSeries.from_coefficients(coeffs, order=order)


@settings(max_examples=150, deadline=None)
@given(odd_series_draw(), odd_series_draw())
def test_compose_equals_fraction_reference(outer, inner):
    got = compose(outer, inner)
    assert got.coefficients == reference_compose(outer, inner)
    assert got.order == min(outer.order, inner.order)


@settings(max_examples=150, deadline=None)
@given(odd_series_draw(head=st.tuples(st.just(F(0)), _LINEAR)))
def test_revert_equals_fraction_reference(f):
    g = lagrange_revert(f)
    assert g.coefficients == reference_revert(f)


def test_reaction_series_at_order_61_equal_fraction_reference():
    from rodbend import redundancy
    from rodbend.elastica import BuiltInCombined, TipShear, UniformLoad

    order = 61
    load = redundancy._tip_series(*UniformLoad.tip, order)
    d, r, _ = TipShear.tip
    for kernel, shape in redundancy._KERNEL_SHAPES.items():
        reaction = redundancy._tip_series(-d, r, shape.tip[2], order)
        inverse = PowerSeries(reference_revert(reaction), order)
        assert lagrange_revert(reaction).coefficients == inverse.coefficients
        expected = reference_compose(inverse, load)
        assert redundancy.roller_reaction_series(order, kernel).coefficients == expected
    phi = redundancy._tip_series(*BuiltInCombined.tip, order)
    outer = PowerSeries.from_coefficients(
        [k % 2 * 2 * (-1) ** (k // 2) for k in range(order + 1)])
    assert redundancy.builtin_reaction_series(order).coefficients == reference_compose(outer, phi)


# ------------------------------------------------------------- hyp3f2_taylor

def test_hyp3f2_taylor_order_one_is_identity():
    params = (F(1, 2), F(1), F(3, 2), F(5, 4), F(7, 4))
    s = hyp3f2_taylor(params, order=1)
    assert s.coefficients == (F(0), F(1))


def test_hyp3f2_taylor_cubic_coefficient():
    params = (F(1, 2), F(1), F(3, 2), F(5, 4), F(7, 4))
    s = hyp3f2_taylor(params, order=3)
    assert s.coefficient(3) == F(12, 35)


def test_hyp3f2_taylor_matches_float_series():
    from rodbend.special_functions import hyp_3f2

    params = (F(1, 2), F(1), F(3, 2), F(7, 6), F(5, 3))
    s = hyp3f2_taylor(params, order=25)
    y = 0.3
    direct = y * hyp_3f2(0.5, 1.0, 1.5, 7.0 / 6.0, 5.0 / 3.0, y * y, rtol=1e-16)
    assert abs(s.evaluate(y) - direct) < 1e-12


@pytest.mark.parametrize("params, lower", [
    ((1, 1, 1, 0, 1), "0"), ((1, 1, 1, -1, 1), "-1"), ((1, 1, 1, 1, -2), "-2"),
])
def test_hyp3f2_taylor_refuses_a_nonpositive_integer_lower_parameter(params, lower):
    with pytest.raises(DomainError, match=f"^3F2 Taylor series: lower parameter {lower} is a "
                                          "nonpositive integer$"):
        hyp3f2_taylor(params, order=5)


@pytest.mark.parametrize("v", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
def test_exact_inputs_that_are_not_numbers_refused(v):
    # Fraction() took True as 1 and parsed "1/2"; both are usage errors now
    for build, name in ((lambda: hyp3f2_taylor((v, 1, 1, 2, 2), 3),
                         "3F2 Taylor series: every parameter"),
                        (lambda: PowerSeries((F(0), v), 1), "coefficient"),
                        (lambda: PowerSeries.from_coefficients([0, v]), "coefficient")):
        with pytest.raises(UsageError, match=f"^{name} must be a real number") as excinfo:
            build()
        assert isinstance(excinfo.value, TypeError)


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_exact_inputs_that_are_not_finite_refused(v):
    with pytest.raises(UsageError, match="^3F2 Taylor series: every parameter must be finite"):
        hyp3f2_taylor((1, 1, v, 2, 2), 3)
    with pytest.raises(UsageError, match="^coefficient must be finite"):
        PowerSeries((0, v), 1)


def test_exact_inputs_keep_ints_and_fractions_and_take_floats_exactly():
    s = PowerSeries((0, 3, 0, F(1, 3), 0.0, 0.1, 0, np.float32(0.1)), 7)
    assert s.coefficients == (F(0), F(3), F(0), F(1, 3), F(0), F(0.1), F(0),
                              F(float(np.float32(0.1))))
    assert all(type(c) is F for c in s.coefficients)
    # a float32 parameter gives the series of its float, an int the exact one
    assert hyp3f2_taylor((np.float32(0.5), 1, 1.5, 2, 2), 5) == hyp3f2_taylor((0.5, 1, 1.5, 2, 2), 5)
    assert hyp3f2_taylor((F(1, 2), 1, F(3, 2), 2, 2), 3).coefficient(3) == F(3, 16)


def test_hyp3f2_taylor_is_odd():
    params = (F(1, 2), F(1), F(3, 2), F(7, 6), F(5, 3))
    s = hyp3f2_taylor(params, order=9)
    assert all(s.coefficient(k) == 0 for k in (0, 2, 4, 6, 8))


# ----------------------------------------------- reversion against root finding

def test_reverted_series_matches_root_at_moderate_load():
    # the series inverse of the consistency equation must agree with
    # bisection on the same kernel well inside the convergence region
    from rodbend.elastica import RodProperties
    from rodbend.redundancy import roller_reaction_series, solve_roller

    rod = RodProperties.from_stiffness(1.0, 200.0)
    series = roller_reaction_series(order=51)
    for q in (150.0, 300.0, 450.0, 600.0):
        w = rod.L ** 3 * q / rod.EJ
        x_series = rod.EJ / rod.L ** 2 * series.evaluate(w)
        x_root = solve_roller(rod, q, method="root_find").X
        assert abs(x_series - x_root) / x_root < 1e-9
