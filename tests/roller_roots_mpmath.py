"""Write ``tests/golden/roller_roots_mpmath.json``: 30-digit roller roots.

For each kernel and each load of ``root_find_bits`` in ``test_golden.py``
on the rod L = 1, EJ = 200, the root X of the roller consistency condition

    3 L q 3F2(1/2, 1, 3/2; 7/6, 5/3; L^6 q^2 / (36 EJ^2))
        = 8 X 3F2(1/2, 1, 3/2; b1, b2; L^4 X^2 / (4 EJ^2)),

with (b1, b2) = (7/6, 5/3) for the "expansion" kernel and (5/4, 7/4) for
"displacement", found by mpmath at 40 digits and written to 30. A load
whose root does not lie below the root finder's bracket top
min(1.1 * 3qL/8, 0.999 * 2EJ/L^2) is left out, as the solver refuses it.
Each load is the exact float the golden test passes. Nothing here imports
rodbend; mpmath is not a test extra, so the file is committed:

    python tests/roller_roots_mpmath.py
"""

from __future__ import annotations

import json
import pathlib

import mpmath as mp

L, EJ = 1.0, 200.0
# the loads of test_golden.root_find_bits, as fractions of q_crit = 6 EJ / L^3
FRACTIONS = (0.02, 0.1, 0.25, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 0.99, 0.995)
BRACKET_Q = 1199.0
KERNELS = {"expansion": ["7/6", "5/3"], "displacement": ["5/4", "7/4"]}

OUT = pathlib.Path(__file__).with_name("golden") / "roller_roots_mpmath.json"


def hyp3f2(lower, z):
    """3F2(1/2, 1, 3/2; lower; z) by its series, with rational parameters:
    mpmath's default route near z = 1 takes up to a minute per value."""
    return mp.hyper(["1/2", 1, "3/2"], lower, z, force_series=True, maxterms=10 ** 6)


def root(kernel: str, q: float):
    """The root X, or None when it does not lie below the bracket top."""
    Lm, EJm, qm = mp.mpf(L), mp.mpf(EJ), mp.mpf(q)
    load = 3 * Lm * qm * hyp3f2(KERNELS["expansion"], Lm ** 6 * qm ** 2 / (36 * EJm ** 2))

    def residual(X):
        return load - 8 * X * hyp3f2(KERNELS[kernel], Lm ** 4 * X ** 2 / (4 * EJm ** 2))

    top = min(mp.mpf(1.1 * 3.0 * q * L / 8.0), mp.mpf(2.0 * EJ / L ** 2 * 0.999))
    if residual(top) >= 0:
        return None
    return mp.findroot(residual, (mp.mpf(0), top), solver="anderson")


def main() -> None:
    loads = [f * 1200.0 for f in FRACTIONS] + [BRACKET_Q]
    cases = []
    with mp.workdps(40):
        for kernel in KERNELS:
            for q in loads:
                X = root(kernel, q)
                if X is not None:
                    cases.append({"kernel": kernel, "q": q.hex(), "X": mp.nstr(X, 30)})
    OUT.write_text(json.dumps(cases, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUT.name}: {len(cases)} roots")


if __name__ == "__main__":
    main()
