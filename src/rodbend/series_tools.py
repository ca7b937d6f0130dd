"""Truncated power series over exact rationals, with Lagrange reversion.

Coefficients are exact rationals, `Fraction` in every series, and only
become floats at evaluation time, so reversion results can be compared
for exact equality. Every series is odd (only odd powers), because the
reaction expansions are: their kernels Y 3F2(Y^2) and load-side series
are odd, and so are their reversions and compositions.

Composition and reversion run on integer vectors: the coefficients over
one common denominator. A product is one integer convolution, and the
common factor of a vector is divided out once per step, not by a gcd per
coefficient product. Composition is Horner over the outer coefficients
in the square of the inner series, at half the length. Reversion is
Lagrange inversion: the n-th coefficient of the inverse is read off the
n-th power of y/f(y), an even series, and each power is the last one
times its square. Both cost O(N^3)
integer products at order N. A cold roller reaction series (one
reversion, one composition) takes about 15 ms at order 41 and 0.4 s at
order 101 (Python 3.11, 2 shared vCPUs), where one `Fraction` product at
a time took 110 ms and 3.8 s.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from ._value import Frozen, set_field
from .errors import DomainError, UsageError, _count, _exact, _integer, _real

__all__ = ["PowerSeries", "identity_series", "compose", "lagrange_revert", "hyp3f2_taylor"]


class PowerSeries(Frozen):
    """Odd series: coefficients indexed by power, valid through ``order`` inclusive."""

    __slots__ = ("coefficients", "order")

    def __init__(self, coefficients: Sequence, order: int):
        _count("order", order)
        if order < len(coefficients) - 1:
            raise UsageError("truncation order below the highest stored power")
        # the library's own series pass Fractions, which skip the call
        coefficients = tuple(c if type(c) is Fraction else _exact("coefficient", c)
                             for c in coefficients)
        if any(coefficients[0::2]):
            raise UsageError("odd series has a nonzero even coefficient")
        set_field(self, "coefficients", coefficients)
        set_field(self, "order", order)

    @classmethod
    def from_coefficients(cls, coeffs: Sequence, order: int | None = None) -> "PowerSeries":
        if order is None:
            order = len(coeffs) - 1
        _count("order", order)  # before the slice, which takes no float or str
        return cls(coefficients=coeffs[: order + 1], order=order)

    def coefficient(self, n: int) -> Fraction:
        _count("coefficient index", n)
        if n > self.order:
            raise UsageError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coefficients[n] if n < len(self.coefficients) else Fraction(0)

    def evaluate(self, x: float) -> float:
        """Horner evaluation in float at a finite real x."""
        x = _real("x", x)
        if not math.isfinite(x):
            raise UsageError(f"x must be finite, got {x}")
        total = 0.0
        for c in reversed(self.coefficients):
            total = total * x + float(c)
        return total

    def json_obj(self):
        """Coefficients as exact numerator/denominator pairs."""
        return {
            "order": self.order,
            "coefficients": [
                {"power": k, "numerator": c.numerator, "denominator": c.denominator}
                for k, c in enumerate(self.coefficients)
            ],
        }


def identity_series(order: int) -> PowerSeries:
    _count("order", order)
    coeffs = [Fraction(0)] * (order + 1)
    if order >= 1:
        coeffs[1] = Fraction(1)
    return PowerSeries(tuple(coeffs), order)


def _integers(coeffs: Sequence[Fraction], n: int) -> tuple[list[int], int]:
    """The first ``n`` coefficients, zero-padded, as integer numerators over one denominator."""
    coeffs = list(coeffs[:n]) + [Fraction(0)] * (n - len(coeffs))
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """Integer coefficients of a*b through the last power of ``a``; b is as long as a."""
    n = len(a) - 1
    rb = b[n::-1]
    return [sum(map(mul, a[: k + 1], rb[n - k:])) for k in range(n + 1)]


def _reduce(nums: list[int], den: int) -> tuple[list[int], int]:
    """nums/den with the common factor of the numerators and the denominator divided out."""
    g = gcd(den, *nums)
    return ([c // g for c in nums], den // g) if g > 1 else (nums, den)


def _horner(outer: tuple[list[int], int], inner: tuple[list[int], int]) -> tuple[list[int], int]:
    """sum_k outer_k inner^k on integer vectors of one length; inner has no constant term."""
    (p, p_den), (s, s_den) = outer, inner
    acc, den = [0] * len(p), 1
    for c in reversed(p):
        acc, den = _convolve(acc, s), den * s_den
        acc[0] += c * den
        acc, den = _reduce(acc, den)
    return acc, den * p_den


def compose(outer: PowerSeries, inner: PowerSeries) -> PowerSeries:
    """outer(inner(x)) truncated to the common order."""
    order = min(outer.order, inner.order)
    # outer(y) = y P(y^2) and inner(x) = x I(t) with t = x^2, so
    # outer(inner(x)) = x I(t) P(t I(t)^2): Horner in t, at half the length
    n = (order + 1) // 2
    inner_t, i_den = _integers(inner.coefficients[1::2], n)
    square = [0] + _convolve(inner_t, inner_t)[: n - 1]
    acc, den = _horner(_integers(outer.coefficients[1::2], n), (square, i_den * i_den))
    den *= i_den
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[1::2] = (Fraction(c, den) for c in _convolve(acc, inner_t))
    return PowerSeries(tuple(coeffs), order)


def lagrange_revert(f: PowerSeries) -> PowerSeries:
    """Series g with f(g(x)) = x through the truncation order.

    Lagrange inversion: g_n = [y^(n-1)] h(y)^n / n with h = y/f(y).
    h is the reciprocal of f(y)/y, even because f is odd, so a series in
    u = y^2. Its odd powers come one from the last, h^(m+2) = h^m h^2, as
    integer vectors through degree order - 1, so the whole reversion costs
    O(order^3) integer operations, and only the odd coefficients of g are
    computed.
    """
    if f.order < 1 or f.coefficient(1) == 0:
        raise UsageError("reversion needs a nonzero linear coefficient")
    order = f.order
    # f(y)/y = fu/fu_den and its reciprocal h, both in u = y^2 through u^(n-1);
    # h_k = -sum_j fu_j h_(k-j) / fu_0 over one denominator that grows by fu_0
    n = (order + 1) // 2
    fu, fu_den = _integers(f.coefficients[1::2], n)
    h, h_den = [fu_den], fu[0]
    for k in range(1, n):
        s = sum(map(mul, fu[1:k + 1], reversed(h)))
        h, h_den = _reduce([c * fu[0] for c in h] + [-s], h_den * fu[0])
    square, square_den = _reduce(_convolve(h, h), h_den * h_den)
    g = [Fraction(0)] * (order + 1)
    power, den = h, h_den
    for k in range(n):
        # power/den = h^m with m = 2k + 1, and [y^(m-1)] h^m = [u^k] h^m
        m = 2 * k + 1
        g[m] = Fraction(power[k], den * m)
        if k + 1 < n:
            power, den = _reduce(_convolve(power, square), den * square_den)
    return PowerSeries(tuple(g), order)


def hyp3f2_taylor(params: Sequence, order: int) -> PowerSeries:
    """Odd series f(Y) = sum_k t_k Y^(2k+1), t_k the k-th 3F2 series term.

    ``params`` is (a1, a2, a3, b1, b2); exact rationals are preserved.
    f(Y) = Y * 3F2(a1, a2, a3; b1, b2; Y^2) truncated at ``order``.
    """
    _integer("order", order)
    if order < 1:
        raise UsageError("order must be at least 1")
    a1, a2, a3, b1, b2 = (_exact("3F2 Taylor series: every parameter", p) for p in params)
    for b in (b1, b2):
        if b <= 0 and b.denominator == 1:
            raise DomainError(f"3F2 Taylor series: lower parameter {b} is a nonpositive integer")
    coeffs = [Fraction(0)] * (order + 1)
    term = Fraction(1)
    coeffs[1] = term
    k = 0
    while 2 * (k + 1) + 1 <= order:
        term *= (a1 + k) * (a2 + k) * (a3 + k)
        term /= (b1 + k) * (b2 + k) * (1 + k)
        k += 1
        coeffs[2 * k + 1] = term
    return PowerSeries(tuple(coeffs), order)
