"""Exact-rational series reversion, from toy examples to reaction series.

All coefficients stay exact rationals end to end; nothing here is
floating point until the final evaluation, which is why the reaction
coefficients can be printed as exact rationals.
"""

from fractions import Fraction as F

from rodbend import (
    PowerSeries,
    builtin_reaction_series,
    compose,
    hyp3f2_taylor,
    identity_series,
    lagrange_revert,
    roller_reaction_series,
)


def main():
    print("=== toy example: invert f(x) = x + x^3 ===")
    f = PowerSeries([F(0), F(1), F(0), F(1), F(0), F(0), F(0), F(0)], 7)
    g = lagrange_revert(f)
    print("g coefficients:", [str(g.coefficient(k)) for k in (1, 3, 5, 7)])
    round_trip = compose(f, g)
    print("f(g(x)) == x exactly:",
          round_trip.coefficients == identity_series(round_trip.order).coefficients)

    print("\n=== the odd kernel being inverted ===")
    kernel = hyp3f2_taylor((F(1, 2), F(1), F(3, 2), F(7, 6), F(5, 3)), order=7)
    print("f(Y) = Y*3F2(1/2,1,3/2;7/6,5/3;Y^2) =",
          " + ".join(f"({kernel.coefficient(k)}) Y^{k}" for k in (1, 3, 5, 7)), "+ ...")

    print("\n=== roller reaction series (scaled load w = L^3 q/EJ) ===")
    s = roller_reaction_series(order=9)
    for k in range(5):
        print(f"  a_{k} = {s.coefficient(2 * k + 1)}")

    print("\n=== built-in end-moment series ===")
    b = builtin_reaction_series(order=9)
    for k in range(5):
        print(f"  b_{k} = {b.coefficient(2 * k + 1)}")

    print("\n=== float evaluation at the sample rod (w = 5) ===")
    w = 5.0
    print(f"roller  X ~ (EJ/L^2) * {s.evaluate(w):.12f} = {200.0 * s.evaluate(w):.8f} N")
    print(f"builtin X ~ (EJ/L)   * {b.evaluate(w):.12f} = {200.0 * b.evaluate(w):.8f} N m")


if __name__ == "__main__":
    main()
