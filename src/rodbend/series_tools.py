"""Truncated power series over exact rationals, with Lagrange reversion.

Coefficients stay `Fraction` through every operation and only become
floats at evaluation time, so reversion results can be compared for
exact equality. Series carry a parity tag: odd series (only odd powers)
revert to odd series, which is what the reaction expansions rely on.

Reversion is Lagrange inversion: the n-th coefficient of the inverse is
read off the n-th power of y/f(y), and each power comes from Miller's
recurrence in O(n^2) rational operations, so reverting to order N costs
O(N^3) with no series composition. Composition (Horner over the outer
coefficients, also O(N^3)) now dominates the cost of building a
reaction series.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ._value import Frozen, set_field
from .errors import UsageError, _integer

__all__ = ["PowerSeries", "identity_series", "compose", "lagrange_revert", "hyp3f2_taylor"]


class PowerSeries(Frozen):
    """Coefficients indexed by power, valid through ``order`` inclusive."""

    __slots__ = ("coefficients", "order", "parity")

    def __init__(self, coefficients: Sequence, order: int, parity: str = "general"):
        _integer("order", order)
        if parity not in ("odd", "general"):
            raise UsageError(f"parity must be 'odd' or 'general', got {parity!r}")
        if order < len(coefficients) - 1:
            raise UsageError("truncation order below the highest stored power")
        if parity == "odd" and any(c != 0 for c in coefficients[0::2]):
            raise UsageError("odd series has a nonzero even coefficient")
        set_field(self, "coefficients", tuple(Fraction(c) for c in coefficients))
        set_field(self, "order", order)
        set_field(self, "parity", parity)  # "odd" | "general"

    @classmethod
    def from_coefficients(cls, coeffs: Sequence, order: int | None = None,
                          parity: str = "general") -> "PowerSeries":
        coeffs = tuple(Fraction(c) for c in coeffs)
        if order is None:
            order = len(coeffs) - 1
        return cls(coefficients=coeffs[: order + 1], order=order, parity=parity)

    def coefficient(self, n: int) -> Fraction:
        if n > self.order:
            raise UsageError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coefficients[n] if n < len(self.coefficients) else Fraction(0)

    def evaluate(self, x: float, n_terms: int | None = None) -> float:
        """Horner evaluation in float; ``n_terms`` caps the powers used."""
        coeffs = self.coefficients
        if n_terms is not None:
            coeffs = coeffs[:n_terms]
        total = 0.0
        for c in reversed(coeffs):
            total = total * x + float(c)
        return total

    def json_obj(self):
        """Coefficients as exact numerator/denominator pairs."""
        return {
            "order": self.order,
            "parity": self.parity,
            "coefficients": [
                {"power": k, "numerator": c.numerator, "denominator": c.denominator}
                for k, c in enumerate(self.coefficients)
            ],
        }


def identity_series(order: int, parity: str = "odd") -> PowerSeries:
    _integer("order", order)
    coeffs = [Fraction(0)] * (order + 1)
    if order >= 1:
        coeffs[1] = Fraction(1)
    return PowerSeries(tuple(coeffs), order, parity)


def _mul(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > order:
            continue
        top = min(len(b) - 1, order - i)
        for j in range(top + 1):
            if b[j] != 0:
                out[i + j] += ai * b[j]
    return out


def compose(outer: PowerSeries, inner: PowerSeries) -> PowerSeries:
    """outer(inner(x)) truncated to the common order; inner(0) must be 0."""
    if inner.coefficient(0) != 0:
        raise UsageError("inner series must have zero constant term")
    order = min(outer.order, inner.order)
    inner_c = list(inner.coefficients[: order + 1])
    # Horner over the outer coefficients, highest power first
    acc = [Fraction(0)] * (order + 1)
    for c in reversed(outer.coefficients[: order + 1]):
        acc = _mul(acc, inner_c, order)
        acc[0] += c
    parity = "odd" if outer.parity == "odd" and inner.parity == "odd" else "general"
    if parity == "odd":
        acc = [c if k % 2 == 1 else Fraction(0) for k, c in enumerate(acc)]
    return PowerSeries(tuple(acc), order, parity)


def lagrange_revert(f: PowerSeries) -> PowerSeries:
    """Series g with f(g(x)) = x through the truncation order.

    Lagrange inversion: g_n = [y^(n-1)] h(y)^n / n with h = y/f(y).
    h is the reciprocal of f(y)/y, and each power h^n is built only
    through degree n-1 by J.C.P. Miller's recurrence (Knuth, TAOCP
    vol. 2, 4.7), p_0 = h_0^n and

        k h_0 p_k = sum_{j=1..k} ((n+1) j - k) h_j p_(k-j),

    so the whole reversion costs O(order^3) rational operations. Odd
    input has even h and yields odd output; only the even powers of h
    and the odd coefficients of g are then computed.
    """
    if f.coefficient(0) != 0:
        raise UsageError("reversion needs f(0) = 0")
    if f.order < 1 or f.coefficient(1) == 0:
        raise UsageError("reversion needs a nonzero linear coefficient")
    order = f.order
    step = 2 if f.parity == "odd" else 1
    f1 = f.coefficient(1)
    h = [1 / f1] + [Fraction(0)] * (order - 1)
    for k in range(step, order, step):
        h[k] = -sum(f.coefficient(j + 1) * h[k - j] for j in range(step, k + 1, step)) / f1
    g = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1, step):
        p = [h[0] ** n] + [Fraction(0)] * (n - 1)
        for k in range(step, n, step):
            p[k] = sum(((n + 1) * j - k) * h[j] * p[k - j]
                       for j in range(step, k + 1, step)) / (k * h[0])
        g[n] = p[n - 1] / n
    return PowerSeries(tuple(g), order, f.parity)


def hyp3f2_taylor(params: Sequence, order: int) -> PowerSeries:
    """Odd series f(Y) = sum_k t_k Y^(2k+1), t_k the k-th 3F2 series term.

    ``params`` is (a1, a2, a3, b1, b2); exact rationals are preserved.
    f(Y) = Y * 3F2(a1, a2, a3; b1, b2; Y^2) truncated at ``order``.
    """
    _integer("order", order)
    if order < 1:
        raise UsageError("order must be at least 1")
    a1, a2, a3, b1, b2 = (Fraction(p) for p in params)
    coeffs = [Fraction(0)] * (order + 1)
    term = Fraction(1)
    coeffs[1] = term
    k = 0
    while 2 * (k + 1) + 1 <= order:
        term *= (a1 + k) * (a2 + k) * (a3 + k)
        term /= (b1 + k) * (b2 + k) * (1 + k)
        k += 1
        coeffs[2 * k + 1] = term
    return PowerSeries(tuple(coeffs), order, "odd")
