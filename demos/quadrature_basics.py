"""Adaptive quadrature with endpoint-singularity handling.

The integrator refuses to guess: integrable endpoint singularities must
be declared through exponent hints, and the returned error estimate is
meant to be honest rather than optimistic.
"""

import math

from rodbend import IntegrandSpec, integrate


def show(label, spec, exact):
    value, err = integrate(spec)
    gap = abs(value - exact)
    print(f"{label:<38} value={value:.15f}  est_err={err:.2e}  true_err={gap:.2e}")


def main():
    print("=== smooth integrands ===")
    show("x^2 on [0,1] (=1/3)",
         IntegrandSpec(f=lambda x: x * x, lo=0.0, hi=1.0), 1.0 / 3.0)
    # integrands are called once per node with a float, so plain math works
    show("cos(10x) on [0,pi] (=0)",
         IntegrandSpec(f=lambda x: math.cos(10.0 * x), lo=0.0, hi=math.pi), 0.0)
    show("runge 1/(1+25x^2) on [-1,1]",
         IntegrandSpec(f=lambda x: 1.0 / (1.0 + 25.0 * x * x), lo=-1.0, hi=1.0),
         2.0 / 5.0 * math.atan(5.0))

    print("\n=== integrable endpoint singularities (declared) ===")
    show("1/sqrt(x) on [0,1] (=2)",
         IntegrandSpec(f=lambda x: x ** -0.5, lo=0.0, hi=1.0, lo_exponent=-0.5), 2.0)
    show("log(x) on [0,1] (=-1)",
         IntegrandSpec(f=lambda x: math.log(x), lo=0.0, hi=1.0, lo_exponent=-0.1), -1.0)
    # Beta(1/2, 1/2): singular at both ends
    show("1/sqrt(x(1-x)) on [0,1] (=pi)",
         IntegrandSpec(f=lambda x: (x * (1.0 - x)) ** -0.5, lo=0.0, hi=1.0,
                       lo_exponent=-0.5, hi_exponent=-0.5), math.pi)

    print("\n=== what refusal looks like ===")
    # an undeclared 1/x blows up: the integrator raises instead of
    # silently returning garbage
    try:
        integrate(IntegrandSpec(f=lambda x: 1.0 / x, lo=0.0, hi=1.0))
    except Exception as exc:
        print(f"undeclared 1/x -> {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    main()
