"""Command-line interface: exit codes, output shapes, determinism."""

import functools
import importlib
import json
import math
import subprocess
import sys
import time

import pytest

import rodbend
from rodbend import __version__, cli
from rodbend.elastica import RodProperties, tip_deflection_moment, tip_deflection_shear

from _oracle import src_env

ROD_ARGS = ["--L", "1", "--EJ", "200"]
ROD = RodProperties.from_stiffness(1.0, 200.0)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------- solve

def test_solve_roller_linearized_json(capsys):
    code, out, err = run(capsys, "solve", "roller", *ROD_ARGS,
                         "--q", "1000", "--method", "linearized")
    assert code == 0
    assert err == ""
    obj = json.loads(out)
    assert obj["version"] == __version__
    assert obj["X"] == 375.0
    assert obj["units"] == "N"
    assert obj["method"] == "linearized"


def test_solve_roller_linearized_past_the_tip_shear_bound(capsys):
    # the caller gives q; 3qL/8 past 2EJ/L^2 is an answer, not a refused P
    code, out, err = run(capsys, "solve", "roller", *ROD_ARGS,
                         "--q", "1100", "--method", "linearized")
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["X"] == 412.5
    assert obj["residual"] is None


def test_solve_roller_root_find(capsys):
    code, out, _ = run(capsys, "solve", "roller", *ROD_ARGS,
                       "--q", "1000", "--method", "root-find")
    assert code == 0
    obj = json.loads(out)
    assert obj["X"] == pytest.approx(347.6368432063617, rel=1e-9)
    assert obj["deviation_pct"] == pytest.approx(7.87119, abs=1e-4)


def test_solve_builtin_series(capsys):
    code, out, _ = run(capsys, "solve", "builtin", *ROD_ARGS,
                       "--q", "1000", "--method", "series", "--n", "12")
    assert code == 0
    obj = json.loads(out)
    assert obj["method"] == "series(12)"
    assert obj["X"] == pytest.approx(95.68682702685003, rel=1e-12)
    assert len(obj["trace"]) == 13


def test_solve_csv_layout(capsys):
    code, out, _ = run(capsys, "solve", "roller", *ROD_ARGS,
                       "--q", "1000", "--method", "linearized", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == f"# rodbend {__version__}"
    assert lines[1] == "# problem=roller method=linearized units=N"
    assert lines[2].startswith("# X=375 ")
    assert lines[3] == "n,X_N"
    assert lines[4] == "0,375"


def test_solve_infeasible_load_exits_2(capsys):
    code, out, err = run(capsys, "solve", "roller", *ROD_ARGS,
                         "--q", "1300", "--method", "root-find")
    assert code == 2
    assert out == ""
    assert "q < 6*EJ/L^3" in err


def test_solve_builtin_closed_near_critical_exits_2(capsys):
    # the tip integral's series passes L within its first 10 terms
    code, out, err = run(capsys, "solve", "builtin", *ROD_ARGS,
                         "--q", "2399.997", "--method", "closed")
    assert code == 2
    assert out == ""
    assert "tip integral I reaches L = 1 m within the first 10 terms" in err


def test_solve_roller_root_find_just_below_the_uniform_load_bound_exits_2(capsys):
    # the load side's 3F2 would need more than 10^6 terms: refused before
    # summing, not summed to the loop's budget (exit 3)
    code, out, err = run(capsys, "solve", "roller", *ROD_ARGS, "--q", "1199.999",
                         "--method", "root-find")
    assert (code, out) == (2, "")
    assert "the uniform load's tip 3F2 needs more than 1000000 terms" in err


def test_table_builtin_just_below_the_radius_exits_2(capsys):
    # the reference closed(hyp_approx) would need more than 10^6 2F1 terms:
    # refused before summing, not summed to the loop's budget (exit 3)
    code, out, err = run(capsys, "table", "builtin", *ROD_ARGS, "--q", "1199.99988", "--n", "5")
    assert code == 2
    assert out == ""
    assert "more than 1000000 terms" in err and "use --method closed" in err


def test_solve_builtin_closed_past_the_tip_couple_bound_exits_2(capsys):
    # the closed map answers while the tip integral is below L (w < 11.669)
    code, out, err = run(capsys, "solve", "builtin", *ROD_ARGS, "--q", "2330", "--method", "closed")
    assert (code, err) == (0, "")
    assert json.loads(out)["X"] < 200.0
    for q in ("2333.9", "2399.9", "2399.99"):
        code, out, err = run(capsys, "solve", "builtin", *ROD_ARGS, "--q", q, "--method", "closed")
        assert (code, out) == (2, "")
        assert "tip-couple bound EJ/L = 200 N m" in err


def test_solve_nan_load_exits_1(capsys):
    code, out, err = run(capsys, "solve", "builtin", *ROD_ARGS,
                         "--q", "nan", "--method", "series", "--n", "3")
    assert code == 1
    assert out == ""
    assert "q must be finite" in err


def test_solve_series_requires_n(capsys):
    code, _, err = run(capsys, "solve", "roller", *ROD_ARGS,
                       "--q", "1000", "--method", "series")
    assert code == 1
    assert "--n" in err


@pytest.mark.parametrize("problem, method", [
    ("roller", "root-find"), ("roller", "linearized"), ("builtin", "closed"),
    ("builtin", "linearized"),
])
def test_solve_refuses_n_without_series(capsys, problem, method):
    # --n used to be dropped in silence
    code, out, err = run(capsys, "solve", problem, *ROD_ARGS,
                         "--q", "1000", "--method", method, "--n", "3")
    assert (code, out) == (1, "")
    assert err == f"rodbend: error: --n applies to --method series only, not {method}\n"


def test_solve_method_problem_mismatch(capsys):
    code, _, err = run(capsys, "solve", "roller", *ROD_ARGS,
                       "--q", "1000", "--method", "closed")
    assert code == 1
    assert "root-find" in err
    code, _, err = run(capsys, "solve", "builtin", *ROD_ARGS,
                       "--q", "1000", "--method", "root-find")
    assert code == 1
    assert "closed" in err


# ------------------------------------------------------------- rod arguments

def test_missing_stiffness_arguments(capsys):
    code, _, err = run(capsys, "solve", "roller", "--L", "1",
                       "--q", "10", "--method", "linearized")
    assert code == 1
    assert "--EJ is required" in err
    code, _, err = run(capsys, "solve", "roller", "--EJ", "200",
                       "--q", "10", "--method", "linearized")
    assert code == 1
    assert "--L" in err


@pytest.mark.parametrize("flags", [["--E", "210e9"], ["--J", "2"], ["--E", "100", "--J", "2"]],
                         ids=["E", "J", "E-and-J"])
def test_modulus_and_inertia_flags_are_unrecognized(capsys, flags):
    # a rod is L and EJ; no flag is taken by its prefix, so --E is not read as --EJ
    code, out, err = run(capsys, "solve", "roller", "--L", "1", *flags,
                         "--q", "10", "--method", "linearized")
    assert (code, out) == (1, "")
    assert f"unrecognized arguments: {' '.join(flags)}" in err


# --------------------------------------------------------------------- deflect

def test_deflect_csv_zero_load(capsys):
    code, out, _ = run(capsys, "deflect", *ROD_ARGS, "--q", "0", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == f"# rodbend {__version__}"
    assert lines[1] == "x_m,y_exact_m,y_linearized_m"
    assert len(lines) == 2 + 201
    for row in lines[2:]:
        _, y_exact, y_lin = row.split(",")
        assert y_exact == "0"
        assert y_lin == "0"


def test_deflect_json_uniform_load(capsys):
    code, out, _ = run(capsys, "deflect", *ROD_ARGS, "--q", "1000")
    assert code == 0
    obj = json.loads(out)
    assert obj["L_m"] == 1.0
    samples = obj["samples"]
    assert len(samples) == 201
    assert samples[0]["x_m"] == 0.0
    assert samples[0]["y_exact_m"] == pytest.approx(0.9637898313406952, rel=1e-9)
    assert samples[0]["y_linearized_m"] == pytest.approx(0.625, rel=1e-12)
    assert samples[-1]["x_m"] == 1.0
    assert samples[-1]["y_exact_m"] == 0.0


def test_deflect_tip_shear_and_couple(capsys):
    # a downward tip force P corresponds to a reaction of -P in the
    # closed tip formula, so the CLI quadrature must mirror it
    code, out, _ = run(capsys, "deflect", *ROD_ARGS, "--P", "300")
    assert code == 0
    tip = json.loads(out)["samples"][0]["y_exact_m"]
    assert tip == pytest.approx(tip_deflection_shear(ROD, -300.0), rel=1e-9)
    code, out, _ = run(capsys, "deflect", *ROD_ARGS, "--M0", "-120")
    assert code == 0
    tip = json.loads(out)["samples"][0]["y_exact_m"]
    assert tip == pytest.approx(tip_deflection_moment(ROD, -120.0), rel=1e-9)


def test_deflect_requires_exactly_one_load(capsys):
    code, _, err = run(capsys, "deflect", *ROD_ARGS)
    assert code == 1
    assert "exactly one" in err
    code, _, err = run(capsys, "deflect", *ROD_ARGS, "--q", "10", "--P", "5")
    assert code == 1


# ----------------------------------------------------------------------- table

def test_table_builtin_json(capsys):
    code, out, _ = run(capsys, "table", "builtin", *ROD_ARGS, "--q", "1000", "--n", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["reference_method"] == "closed(hyp_approx)"
    assert obj["reference_X"] == pytest.approx(95.69559819137936, rel=1e-12)
    rows = obj["rows"]
    assert len(rows) == 6
    assert rows[0]["X_n"] == pytest.approx(83.33333333333333, rel=1e-12)
    # partial sums climb toward the reference from below
    xs = [r["X_n"] for r in rows]
    assert all(b > a for a, b in zip(xs, xs[1:]))
    gaps = [r["rel_gap"] for r in rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_table_roller_converges_to_root(capsys):
    code, out, _ = run(capsys, "table", "roller", *ROD_ARGS, "--q", "1000", "--n", "8")
    assert code == 0
    obj = json.loads(out)
    assert obj["reference_method"] == "root_find"
    assert obj["rows"][8]["rel_gap"] < 1e-4


def test_table_csv_layout(capsys):
    code, out, _ = run(capsys, "table", "roller", *ROD_ARGS, "--q", "1000",
                       "--n", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[2] == "n,X_N,rel_gap_vs_reference"
    assert len(lines) == 3 + 4


def test_table_rejects_negative_n(capsys):
    code, _, err = run(capsys, "table", "roller", *ROD_ARGS, "--q", "1000", "--n", "-1")
    assert code == 1


@pytest.mark.parametrize("n", ["-1", "51"])
def test_table_checks_n_before_the_reference(capsys, n):
    # near critical the reference solve would fail with exit 2 first
    code, _, err = run(capsys, "table", "roller", *ROD_ARGS, "--q", "1199", "--n", n)
    assert code == 1
    assert f"[0, 50], got {n}" in err


@pytest.mark.parametrize("argv", [
    ["table", "roller", *ROD_ARGS, "--q", "100", "--n", "51"],
    ["solve", "builtin", *ROD_ARGS, "--q", "100", "--method", "series", "--n", "51"],
], ids=["table-roller", "solve-builtin-series"])
def test_series_index_past_the_limit_exits_1_at_once(capsys, argv):
    # an order-103 series would take seconds to build; the refusal comes first
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert "[0, 50], got 51" in err


# ------------------------------------------------------------------------ eval

def test_eval_gauss_2f1(capsys):
    code, out, _ = run(capsys, "eval", "2f1", "1", "1", "2", "0.5")
    assert code == 0
    obj = json.loads(out)
    assert obj["function"] == "2f1"
    assert obj["value"] == pytest.approx(2.0 * math.log(2.0), rel=1e-12)
    assert obj["error_estimate"] > 0.0


def test_eval_lauricella_at_origin(capsys):
    code, out, _ = run(capsys, "eval", "fd3", "2", "0.5", "0.5", "0.5", "3", "0", "0", "0")
    assert code == 0
    assert json.loads(out)["value"] == 1.0


def test_eval_gauss_summation(capsys):
    code, out, _ = run(capsys, "eval", "gauss-sum", "0.5", "0.5", "2")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(4.0 / math.pi, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["2f1", "-1", "2", "1", "0.5"],
    ["3f2", "-1", "2", "1", "1", "1", "0.5"],
    ["gauss-sum", "2", "-1", "2"],
], ids=["2f1", "3f2", "gauss-sum"])
def test_eval_exact_zero(capsys, argv):
    # 1 + 2*(-1)*0.5 and 1 + 2*(-1)/2 = 0: once exit 3, after 10^6 terms
    # for the series and at a denominator Gamma pole for gauss-sum
    code, out, _ = run(capsys, "eval", *argv)
    assert code == 0
    assert json.loads(out)["value"] == 0.0


def test_eval_wrong_arity_exits_1(capsys):
    code, _, err = run(capsys, "eval", "2f1", "1", "1", "2")
    assert code == 1
    assert "takes 4 parameters" in err


def test_eval_domain_error_exits_3(capsys):
    code, _, err = run(capsys, "eval", "gauss-sum", "1", "1", "2")
    assert code == 3
    assert "domain error" in err


@pytest.mark.parametrize("argv", [
    ["2f1", "0.5", "0.5", "1.5", "nan"],
    ["2f1", "0.5", "0.5", "1.5", "inf"],
    ["3f2", "0.5", "1", "1.5", "1.25", "1.75", "nan"],
    ["f1", "nan", "0.5", "0.5", "2", "0.1", "0.2"],
    ["fd3", "nan", "0.5", "0.5", "0.5", "2", "0.1", "0.2", "0.3"],
    ["gauss-sum", "0.5", "inf", "3"],
], ids=["2f1-nan", "2f1-inf", "3f2", "f1", "fd3", "gauss-sum"])
def test_eval_non_finite_input_exits_1(argv):
    # a fresh process with a timeout: unguarded, these sum 10^6 terms
    # or (fd3) run for minutes
    result = subprocess.run([sys.executable, "-m", "rodbend.cli", "eval", *argv], env=src_env(),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 1
    assert result.stdout == ""
    assert "must be finite" in result.stderr


def test_eval_csv_layout(capsys):
    code, out, _ = run(capsys, "eval", "gauss-sum", "0.5", "0.5", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "function,value,error_estimate"
    assert lines[2].startswith("gauss-sum,1.27323954473516")


# ------------------------------------------------------------- shared plumbing

def test_output_is_deterministic(capsys):
    argv = ("solve", "roller", *ROD_ARGS, "--q", "1000", "--method", "root-find")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_out_file_writing(tmp_path, capsys):
    target = tmp_path / "solution.json"
    code, out, _ = run(capsys, "solve", "roller", *ROD_ARGS,
                       "--q", "1000", "--method", "linearized", "--out", str(target))
    assert code == 0
    assert out == ""
    obj = json.loads(target.read_text(encoding="utf-8"))
    assert obj["X"] == 375.0


@pytest.mark.parametrize("argv", [
    ["eval", "2f1", "0.5", "0.5", "1.5", "0.36", "--out", "{tmp}/missing/x.json"],
    ["eval", "2f1", "0.5", "0.5", "1.5", "0.36", "--out", "{tmp}"],
], ids=["missing-directory", "is-a-directory"])
def test_unwritable_out_path_exits_1(tmp_path, capsys, argv):
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"rodbend: error: cannot write {argv[-1]}: ")
    assert err.count("\n") == 1


class _FullStream:
    def write(self, text):
        raise OSError(28, "No space left on device")


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_standard_output_exits_0(capsys, monkeypatch):
    # a reader that has gone, as in `rodbend ... | head -c0`, is no error
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = cli.main(["eval", "2f1", "0.5", "0.5", "1.5", "0.36"])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_unwritable_standard_output_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _FullStream())
    code = cli.main(["eval", "2f1", "0.5", "0.5", "1.5", "0.36"])
    assert code == 1
    assert capsys.readouterr().err == (
        "rodbend: error: cannot write standard output: No space left on device\n")


# a command with two faults reports the rod first, then --rtol, then the
# subcommand's own checks
@pytest.mark.parametrize("argv, message", [
    (["solve", "roller", "--EJ", "200", "--q", "1000", "--method", "closed", "--rtol", "-1"],
     "--L is required"),
    (["solve", "roller", *ROD_ARGS, "--q", "1000", "--method", "closed", "--rtol", "-1"],
     "tolerance must be finite and positive, got -1.0"),
    (["table", "roller", *ROD_ARGS, "--q", "1000", "--n", "51", "--rtol", "0"],
     "tolerance must be finite and positive, got 0.0"),
    (["deflect", *ROD_ARGS, "--rtol", "0"],
     "tolerance must be finite and positive, got 0.0"),
    (["eval", "2f1", "1", "2", "--rtol", "0"],
     "tolerance must be finite and positive, got 0.0"),
], ids=["solve-rod", "solve-rtol", "table-rtol", "deflect-rtol", "eval-rtol"])
def test_error_report_order(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"rodbend: error: {message}\n"


def test_rtol_flag_must_be_positive(capsys):
    code, _, err = run(capsys, "solve", "roller", *ROD_ARGS,
                       "--q", "1000", "--method", "linearized", "--rtol", "0")
    assert code == 1
    assert "positive" in err


@pytest.mark.parametrize("argv", [
    ["eval", "2f1", "0.5", "0.5", "1.5", "0.36"],
    ["solve", "builtin", *ROD_ARGS, "--q", "1000", "--method", "closed"],
], ids=["eval-flag", "solve-flag"])
def test_infinite_rtol_exits_1(capsys, argv):
    # an infinite tolerance would stop every series and quadrature at once
    code, out, err = run(capsys, *argv, "--rtol", "inf")
    assert code == 1
    assert out == ""
    assert "finite" in err


def test_missing_subcommand_exits_1(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()


def test_unknown_problem_exits_1(capsys):
    code, _, _ = run(capsys, "solve", "arch", *ROD_ARGS, "--q", "1", "--method", "linearized")
    assert code == 1


def _modules_after(code, argv=()):
    """Full names of the modules in sys.modules of a fresh process after ``code``."""
    probe = f"import sys\n{code}\nprint(' '.join(sorted(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", probe, *argv], env=src_env(),
                            capture_output=True, text=True, timeout=120, check=True)
    return set(result.stdout.split())


def _packages_after(code, argv=()):
    """Top-level packages in sys.modules of a fresh process after ``code``."""
    return {m.split(".")[0] for m in _modules_after(code, argv)}


def _modules_loaded(argv=None):
    """Modules of a fresh process after ``import rodbend.cli`` and, when
    ``argv`` is given, one ``main(argv)``."""
    return _modules_after("import contextlib, io; import rodbend.cli\n"
                          "if sys.argv[1:]:\n"
                          "    with contextlib.redirect_stdout(io.StringIO()):\n"
                          "        assert rodbend.cli.main(sys.argv[1:]) == 0", argv or ())


def _packages_loaded(argv=None):
    """Top-level packages of the same process as ``_modules_loaded``."""
    return {m.split(".")[0] for m in _modules_loaded(argv)}


@functools.lru_cache(maxsize=None)
def _bare_modules():
    # what the interpreter loads before any code runs (site hooks included)
    return frozenset(_modules_after("pass"))


def _bare_packages():
    return frozenset(m.split(".")[0] for m in _bare_modules())


def _third_party(packages):
    return packages - {"rodbend"} - set(sys.stdlib_module_names) - _bare_packages()


def test_cli_import_loads_no_scipy():
    # rodbend has no runtime dependency, and no test needs scipy either; the
    # runtime import path must not load it (perfbench imports it on its own)
    assert "scipy" not in _packages_loaded()


@pytest.mark.parametrize("argv", [
    None,
    ["solve", "roller", *ROD_ARGS, "--q", "1000", "--method", "root-find"],
    ["solve", "builtin", *ROD_ARGS, "--q", "1000", "--method", "closed"],
    ["deflect", *ROD_ARGS, "--q", "1000"],
    ["table", "roller", *ROD_ARGS, "--q", "1000", "--n", "5"],
    ["table", "builtin", *ROD_ARGS, "--q", "1000", "--n", "5"],
    ["eval", "3f2", "0.5", "1", "1.5", "1.25", "1.75", "0.81"],
    ["eval", "f1", "0.5", "0.3", "0.7", "1.7", "0.4", "-0.6"],
    ["eval", "fd3", "0.5", "0.3", "0.7", "0.2", "1.7", "0.4", "-0.6", "0.9"],
], ids=["import", "solve-roller", "solve-builtin-closed", "deflect", "table-roller",
        "table-builtin", "eval-3f2", "eval-f1", "eval-fd3"])
def test_cli_loads_numpy_only_for_arrays(argv):
    # rodbend has no runtime dependency: every command runs on the standard
    # library alone, so it loads no third-party package, numpy included
    assert _third_party(_packages_loaded(argv)) == set()


def test_probe_sees_an_explicit_numpy_import():
    # positive control for the probe above
    assert _third_party(_packages_after("import numpy")) == {"numpy"}


def test_list_position_raises_without_loading_numpy():
    probe = ("import rodbend\n"
             "rod = rodbend.RodProperties.from_stiffness(1.0, 200.0)\n"
             "load = rodbend.UniformLoad(1000.0)\n"
             "for call in (lambda x: rodbend.bending_moment(load, x, rod),\n"
             "             lambda x: rodbend.cumulative_moment(load, x, rod),\n"
             "             lambda x: rodbend.linearized_deflection(load, rod, x)):\n"
             "    try:\n"
             "        call([0.0, 0.5, 1.0])\n"
             "    except TypeError:\n"
             "        continue\n"
             "    raise SystemExit('a list position was accepted')")
    assert "numpy" not in _packages_after(probe)


COMMANDS = {
    "solve-roller": ["solve", "roller", *ROD_ARGS, "--q", "1000", "--method", "root-find"],
    "solve-builtin-closed": ["solve", "builtin", *ROD_ARGS, "--q", "1000", "--method", "closed"],
    "deflect-q": ["deflect", *ROD_ARGS, "--q", "1000"],
    "deflect-P": ["deflect", *ROD_ARGS, "--P", "100", "--format", "csv"],
    "deflect-M0": ["deflect", *ROD_ARGS, "--M0", "50"],
    "table-roller": ["table", "roller", *ROD_ARGS, "--q", "1000", "--n", "5"],
    "table-builtin": ["table", "builtin", *ROD_ARGS, "--q", "1000", "--n", "5"],
    "eval-2f1": ["eval", "2f1", "0.5", "0.5", "1.5", "0.36"],
    "eval-3f2": ["eval", "3f2", "0.5", "1", "1.5", "1.25", "1.75", "0.81"],
    "eval-f1": ["eval", "f1", "0.5", "0.3", "0.7", "1.7", "0.4", "-0.6"],
    "eval-fd3": ["eval", "fd3", "0.5", "0.3", "0.7", "0.2", "1.7", "0.4", "-0.6", "0.9"],
    "eval-gauss-sum": ["eval", "gauss-sum", "0.5", "0.5", "2"],
}


def _rodbend_loads(argv):
    """Modules that importing rodbend.cli and running ``argv`` add to a bare interpreter."""
    return _modules_loaded(argv) - _bare_modules()


def test_import_rodbend_loads_no_module_of_its_own():
    loaded = _modules_after("import rodbend") - _bare_modules()
    assert {m for m in loaded if m.startswith("rodbend")} == {"rodbend"}
    assert not {"dataclasses", "inspect"} & loaded


@pytest.mark.parametrize("module", sorted(set(rodbend._MODULE_OF.values())))
def test_module_all_equals_its_names_in_the_package_table(module):
    # the public names are kept by hand twice: in each module's __all__ and
    # in the package's name -> module table, through which they resolve
    names = sorted(n for n, m in rodbend._MODULE_OF.items() if m == module)
    assert sorted(importlib.import_module(f"rodbend.{module}").__all__) == names


def test_every_public_name_resolves():
    # dir() lists each public name before its module is loaded
    assert set(rodbend.__all__) <= set(dir(rodbend))
    for name in rodbend.__all__:
        module = importlib.import_module(f"rodbend.{rodbend._MODULE_OF[name]}")
        assert getattr(rodbend, name) is getattr(module, name)


@pytest.mark.parametrize("name", [None, *COMMANDS], ids=["import-cli", *COMMANDS])
def test_no_command_loads_dataclasses_or_inspect(name):
    # each costs about 10 ms of a cold start; the value classes need neither
    assert not {"dataclasses", "inspect"} & _rodbend_loads(COMMANDS.get(name))


@pytest.mark.parametrize("name", [n for n in COMMANDS if n.startswith("eval")])
def test_eval_loads_only_the_special_functions(name):
    loaded = _rodbend_loads(COMMANDS[name])
    assert "rodbend.special_functions" in loaded
    assert not {"rodbend.elastica", "rodbend.redundancy", "rodbend.series_tools",
                "fractions"} & loaded


@pytest.mark.parametrize("name", [n for n in COMMANDS if n.startswith("deflect")])
def test_deflect_loads_no_series_code(name):
    loaded = _rodbend_loads(COMMANDS[name])
    assert "rodbend.elastica" in loaded
    # a cold ``import fractions`` costs milliseconds; only the series code needs it
    assert not {"rodbend.redundancy", "rodbend.series_tools", "fractions"} & loaded


@pytest.mark.parametrize("name", [n for n in COMMANDS if n.startswith("solve")])
def test_solve_loads_no_series_code(name):
    # redundancy imports series_tools and fractions only where a series is built
    loaded = _rodbend_loads(COMMANDS[name])
    assert "rodbend.redundancy" in loaded
    assert not {"rodbend.series_tools", "fractions"} & loaded
