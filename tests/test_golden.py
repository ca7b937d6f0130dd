"""Byte-for-byte regression of the CLI on a fixed command set.

Each file ``tests/golden/<name>.txt`` holds the exact standard output of
one command below. The set covers the README commands, every deflection
load kind, both convergence tables and the series routes of ``eval``;
none of them evaluates a Gamma function, so a refactor of the series,
quadrature, solver or formatting layers must leave every byte in place.
No command loads numpy, so the pinned bits are those of CPython float
arithmetic (correctly rounded +, -, *, / and the C library's ``pow``),
not of a vectorised ``pow`` or a BLAS dot product chosen per CPU.
Each ``tests/golden/<name>.err`` holds the exit code and the exact
standard error of one refused command in ``ERRORS``: infeasible and
near-critical loads at every gate, a failed reaction bracket, the
built-in 2F1-approximation routes at and past their radius, and a
built-in load that passes the gates but whose deflection quadrature
cannot reach the tolerance.
Each ``tests/golden/<name>.json`` holds the exact numerator/denominator
coefficients (``PowerSeries.json_obj``) of one reaction series to order
41, which any change to the exact-rational series layer must reproduce.
``tests/golden/roller_root_find_bits.json`` holds the exact bits
(``float.hex``) of the root-find reaction and its residual for both
kernels from 0.02 to 0.995 of the critical load, or the error class and
message where the bracket fails, so a faster root finder must land on
the same floats. Those floats are also checked against the roots of the
same equations, which mpmath solves at 30 digits on every run
(``_oracle.roller_root``): a new load needs its entry in
``ROOT_FIND_FRACTIONS`` and its bits from this script, and no other file.

Regenerate the files only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

import mpmath as mp
import pytest

from rodbend.cli import main
from rodbend.elastica import RodProperties
from rodbend.errors import RodBendError
from rodbend.redundancy import builtin_reaction_series, roller_reaction_series, solve_roller

from _oracle import roller_root

GOLDEN_DIR = pathlib.Path(__file__).with_name("golden")

_ROD = ["--L", "1", "--EJ", "200"]

COMMANDS = {
    # README "Command line" section (deflect to stdout instead of --out)
    "readme_solve_roller_root_find": ["solve", "roller", *_ROD, "--q", "1000", "--method", "root-find"],
    "readme_solve_builtin_series": ["solve", "builtin", *_ROD, "--q", "1000", "--method", "series", "--n", "11"],
    "readme_deflect_q_csv": ["deflect", *_ROD, "--q", "1000", "--format", "csv"],
    "readme_table_builtin_json": ["table", "builtin", *_ROD, "--q", "1000", "--n", "14"],
    "readme_eval_2f1": ["eval", "2f1", "0.5", "0.5", "1.5", "0.36"],
    # other solve routes
    "solve_roller_linearized_csv": ["solve", "roller", *_ROD, "--q", "1000", "--method", "linearized",
                                    "--format", "csv"],
    "solve_roller_series_csv": ["solve", "roller", *_ROD, "--q", "1000", "--method", "series", "--n", "7",
                                "--format", "csv"],
    "solve_builtin_closed": ["solve", "builtin", *_ROD, "--q", "1000", "--method", "closed"],
    "solve_builtin_series_csv": ["solve", "builtin", *_ROD, "--q", "1000", "--method", "series", "--n", "11",
                                 "--format", "csv"],
    # one deflection profile per load kind
    "deflect_P_csv": ["deflect", *_ROD, "--P", "300", "--format", "csv"],
    "deflect_M0_csv": ["deflect", *_ROD, "--M0", "150", "--format", "csv"],
    # convergence tables in both formats
    "table_roller_json": ["table", "roller", *_ROD, "--q", "1000", "--n", "10"],
    "table_roller_csv": ["table", "roller", *_ROD, "--q", "1000", "--n", "10", "--format", "csv"],
    "table_builtin_csv": ["table", "builtin", *_ROD, "--q", "1000", "--n", "14", "--format", "csv"],
    # series routes of eval, |x| < 1
    "eval_2f1_negative_x_csv": ["eval", "2f1", "1", "1", "2", "-0.5", "--format", "csv"],
    "eval_3f2": ["eval", "3f2", "0.5", "1", "1.5", "1.1666666666666667", "1.6666666666666667", "0.25"],
    "eval_3f2_csv": ["eval", "3f2", "0.5", "1", "1.5", "1.25", "1.75", "0.81", "--format", "csv"],
    # shell-series routes of F1 and FD3 (FD3 pins the parameter order a, b1..b3, c, x1..x3)
    "eval_f1": ["eval", "f1", "1.2", "0.7", "0.4", "2.5", "0.2", "-0.1"],
    "eval_fd3_csv": ["eval", "fd3", "0.5", "0.3", "0.7", "0.2", "1.7", "0.2", "-0.1", "0.15",
                     "--format", "csv"],
}

ERRORS = {
    "error_solve_roller_infeasible": ["solve", "roller", *_ROD, "--q", "1300", "--method", "root-find"],
    "error_solve_builtin_at_bound": ["solve", "builtin", *_ROD, "--q", "2400", "--method", "closed"],
    "error_table_roller_at_bound": ["table", "roller", *_ROD, "--q", "1200"],
    "error_deflect_q_at_bound": ["deflect", *_ROD, "--q", "1200"],
    "error_deflect_P_at_bound": ["deflect", *_ROD, "--P", "400"],
    "error_deflect_M0_near_critical": ["deflect", *_ROD, "--M0", "199.9999"],
    "error_solve_roller_bracket": ["solve", "roller", *_ROD, "--q", "1199", "--method", "root-find"],
    "error_deflect_negative_q": ["deflect", *_ROD, "--q", "-1300"],
    "error_solve_builtin_series_at_radius": ["solve", "builtin", *_ROD, "--q", "1200", "--method", "series",
                                             "--n", "11"],
    "error_solve_builtin_series_past_radius": ["solve", "builtin", *_ROD, "--q", "2000", "--method", "series",
                                               "--n", "11"],
    "error_table_builtin_past_radius": ["table", "builtin", *_ROD, "--q", "1500"],
    "error_solve_builtin_closed_near_critical": ["solve", "builtin", *_ROD, "--q", "2399.99",
                                                 "--method", "closed"],
}

SERIES = {
    "series_roller_expansion_41": lambda: roller_reaction_series(41, "expansion"),
    "series_roller_displacement_41": lambda: roller_reaction_series(41, "displacement"),
    "series_builtin_41": lambda: builtin_reaction_series(41),
}

# fractions of the roller bound q_crit = 6 EJ / L^3 = 1200 N/m; from about
# 0.807 on, the bracket top sits at the 0.999 * 2 EJ / L^2 cap
ROOT_FIND_FRACTIONS = (0.02, 0.1, 0.25, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 0.99, 0.995)
ROOT_FIND_LOADS = tuple(f * 1200.0 for f in ROOT_FIND_FRACTIONS) + (1199.0,)
ROOT_FIND_KERNELS = ("expansion", "displacement")


def root_find_bits() -> list[dict]:
    """Bits of ``solve_roller(..., "root_find")`` on the reference rod, or its refusal."""
    rod = RodProperties.from_stiffness(1.0, 200.0)
    cases = []
    for kernel in ROOT_FIND_KERNELS:
        for q in ROOT_FIND_LOADS:
            case = {"kernel": kernel, "q": q.hex()}
            try:
                sol = solve_roller(rod, q, "root_find", kernel=kernel)
            except RodBendError as exc:
                case["error"] = f"{type(exc).__name__}: {exc}"
            else:
                case["X"] = sol.X.hex()
                case["residual"] = sol.residual.hex()
            cases.append(case)
    return cases


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of one in-process CLI run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_cli_error(argv: list[str]) -> str:
    """``exit <code>`` and the standard error of a run that prints no output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if out.getvalue():
        raise AssertionError(f"refused command wrote standard output: {out.getvalue()!r}")
    return f"exit {code}\n{err.getvalue()}"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name):
    code, out = run_cli(COMMANDS[name])
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_cli_error_matches_golden(name):
    got = run_cli_error(ERRORS[name])
    assert got == (GOLDEN_DIR / f"{name}.err").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(SERIES))
def test_series_coefficients_match_golden(name):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    assert SERIES[name]().json_obj() == golden


def test_roller_root_find_bits_match_golden():
    golden = json.loads((GOLDEN_DIR / "roller_root_find_bits.json").read_text(encoding="utf-8"))
    assert root_find_bits() == golden


def test_roller_root_find_is_within_4e_13_of_the_mpmath_roots():
    # the worst case, 3.2e-13 at 0.99 of critical with the displacement
    # kernel, is set by the 3F2 sums at their default rtol 1e-13. A load
    # whose root does not lie below the root finder's bracket top has no
    # root here, as the solver refuses it (3 of the 28 cases).
    solved = {(c["kernel"], c["q"]): c["X"] for c in root_find_bits() if "X" in c}
    with mp.workdps(30):
        roots = {(kernel, q.hex()): roller_root(kernel, q)
                 for kernel in ROOT_FIND_KERNELS for q in ROOT_FIND_LOADS}
        roots = {case: X for case, X in roots.items() if X is not None}
        assert sorted(solved) == sorted(roots)
        for case, exact in roots.items():
            assert abs(float.fromhex(solved[case]) - exact) <= 4e-13 * exact, case


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in sorted(COMMANDS.items()):
        code, out = run_cli(argv)
        if code != 0:
            raise SystemExit(f"{name}: exit {code}")
        (GOLDEN_DIR / f"{name}.txt").write_text(out, encoding="utf-8")
        print(f"wrote {name}.txt")
    for name, argv in sorted(ERRORS.items()):
        text = run_cli_error(argv)
        if text.startswith("exit 0"):
            raise SystemExit(f"{name}: exit 0")
        (GOLDEN_DIR / f"{name}.err").write_text(text, encoding="utf-8")
        print(f"wrote {name}.err")
    for name, build in sorted(SERIES.items()):
        text = json.dumps(build().json_obj(), indent=2) + "\n"
        (GOLDEN_DIR / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"wrote {name}.json")
    text = json.dumps(root_find_bits(), indent=2) + "\n"
    (GOLDEN_DIR / "roller_root_find_bits.json").write_text(text, encoding="utf-8")
    print("wrote roller_root_find_bits.json")
