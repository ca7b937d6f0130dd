"""Command-line interface.

Four subcommands: ``solve`` (redundant reactions), ``deflect`` (exact
and linearized deflection profiles side by side), ``table`` (series
convergence tables) and ``eval`` (direct special-function evaluation).
Output is JSON by default, CSV on request, and byte-identical for
identical configurations. JSON is one object, ``version`` first. CSV
is the header ``# rodbend <version>``, the comment lines (``solve``:
``# problem=... method=... units=...`` and ``# X=... deviation_pct=...``;
``table``: ``# problem=... reference_method=... reference_X=...``; none
for ``deflect`` and ``eval``), a column line and one line per row.

Exit codes: 0 success, 1 usage error, 2 infeasible load, 3
special-function domain or convergence error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import (DEFAULT_RTOL, BracketError, DomainError, InfeasibleLoadError, UsageError,
                     _check_rtol)

_HEADER = f"# rodbend {__version__}"

# name: (arity, call on the special_functions module, the parameters and rtol)
_EVAL = {
    "2f1": (4, lambda sf, p, rtol: sf.gauss_2f1(*p, rtol=rtol)),        # a b c x
    "3f2": (6, lambda sf, p, rtol: sf.hyp_3f2(*p, rtol=rtol)),          # a1 a2 a3 b1 b2 x
    "f1": (6, lambda sf, p, rtol: sf.appell_f1(*p, rtol=rtol)),         # a b1 b2 c x1 x2
    "fd3": (8, lambda sf, p, rtol: sf.lauricella_fd3(p[0], p[1:4], p[4], p[5:8], rtol=rtol)),
    "gauss-sum": (3, lambda sf, p, rtol: sf.gauss_summation(*p)),       # a b c
}


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


class _Parser(argparse.ArgumentParser):
    # no flag is taken by its prefix (--E would read as --EJ), subcommands' included
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with 2 on bad usage; 2 is reserved for infeasible loads here
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_rod_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--L", type=float, help="rod length [m]")
    p.add_argument("--EJ", type=float, help="flexural stiffness [N m^2]")


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rtol", type=float, default=DEFAULT_RTOL,
                   help=f"relative tolerance for numeric evaluation (default {DEFAULT_RTOL:g})")
    p.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    p.add_argument("--out", default=None, help="output file (default standard output)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rodbend",
                     description="Exact large-deflection rod bending and redundant reactions")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a statically indeterminate problem")
    p_solve.add_argument("problem", choices=("roller", "builtin"))
    _add_rod_args(p_solve)
    p_solve.add_argument("--q", type=float, required=True, help="distributed load [N/m]")
    p_solve.add_argument("--method", required=True,
                         choices=("linearized", "series", "root-find", "closed"))
    p_solve.add_argument("--n", type=int, default=None,
                         help="largest series index, n+1 terms (method=series)")
    _add_common_args(p_solve)

    p_def = sub.add_parser("deflect", help="deflection profile, exact and linearized")
    _add_rod_args(p_def)
    p_def.add_argument("--q", type=float, default=None, help="uniform load [N/m]")
    p_def.add_argument("--P", type=float, default=None, help="tip force [N], positive downward")
    p_def.add_argument("--M0", type=float, default=None, help="tip couple [N m]")
    _add_common_args(p_def)

    p_tab = sub.add_parser("table", help="series convergence table")
    p_tab.add_argument("problem", choices=("roller", "builtin"))
    _add_rod_args(p_tab)
    p_tab.add_argument("--q", type=float, required=True, help="distributed load [N/m]")
    p_tab.add_argument("--n", type=int, default=20, help="largest series index (default 20)")
    _add_common_args(p_tab)

    p_eval = sub.add_parser("eval", help="evaluate a special function")
    p_eval.add_argument("function", choices=sorted(_EVAL))
    p_eval.add_argument("params", type=float, nargs="*", help="function parameters")
    _add_common_args(p_eval)

    return parser


def _resolve_rod(args):
    from .elastica import RodProperties
    for flag in ("L", "EJ"):
        if getattr(args, flag) is None:
            raise UsageError(f"--{flag} is required")
    return RodProperties(args.L, args.EJ)


def _emit(text: str, out_path: str | None) -> None:
    text += "\n"
    try:
        if out_path is None:
            sys.stdout.write(text)
        else:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except BrokenPipeError:
        pass  # the reader of standard output has gone
    except OSError as exc:
        raise UsageError(f"cannot write {out_path or 'standard output'}: {exc.strerror}") from None


def _render(args, obj: dict, comments: list[str], columns: str, rows) -> str:
    """JSON of ``obj`` after the version, or CSV: header, comments, columns, rows."""
    if args.format == "json":
        return json.dumps({"version": __version__, **obj}, indent=2)
    lines = [_HEADER, *comments, columns]
    lines += (",".join(c if isinstance(c, str) else _fmt(c) for c in row) for row in rows)
    return "\n".join(lines)


def cmd_solve(args) -> str:
    from .redundancy import solve_builtin, solve_roller
    rod = _resolve_rod(args)
    _check_rtol(args.rtol)
    method = args.method.replace("-", "_")
    if method == "series" and args.n is None:
        raise UsageError("--method series requires --n")
    if method != "series" and args.n is not None:
        raise UsageError(f"--n applies to --method series only, not {args.method}")
    if args.problem == "roller":
        if method == "closed":
            raise UsageError("the roller problem has no closed method; use root-find")
        solution = solve_roller(rod, args.q, method=method, n_terms=args.n or 0, rtol=args.rtol)
    else:
        if method == "root_find":
            raise UsageError("the built-in problem is root-free; use closed")
        solution = solve_builtin(rod, args.q, method=method, n_terms=args.n or 0, rtol=args.rtol)
    comments = [
        f"# problem={solution.problem} method={solution.method} units={solution.units}",
        f"# X={_fmt(solution.X)} deviation_pct={_fmt(solution.deviation_pct)}",
    ]
    return _render(args, solution.json_obj(), comments, f"n,X_{solution.units.replace(' ', '')}",
                   solution.trace or ((0, solution.X),))


def _deflect_load(args):
    from .elastica import TipMoment, TipShear, UniformLoad
    # each load shape has one field, named as its flag
    given = [(shape, v) for shape in (UniformLoad, TipShear, TipMoment)
             if (v := getattr(args, shape.__slots__[0])) is not None]
    if len(given) != 1:
        raise UsageError("give exactly one of --q, --P, --M0")
    (shape, value), = given
    return shape(value)


def cmd_deflect(args) -> str:
    from .elastica import deflection_profile, linearized_deflection
    rod = _resolve_rod(args)
    _check_rtol(args.rtol)
    load = _deflect_load(args)
    exact = deflection_profile(load, rod, rtol=args.rtol)
    rows = [(x, y, linearized_deflection(load, rod, x)) for x, y in exact.samples]
    samples = [{"x_m": x, "y_exact_m": y, "y_linearized_m": yl} for x, y, yl in rows]
    return _render(args, {"L_m": rod.L, "samples": samples}, [],
                   "x_m,y_exact_m,y_linearized_m", rows)


def cmd_table(args) -> str:
    from .redundancy import _check_n_terms, solve_builtin, solve_roller
    rod = _resolve_rod(args)
    _check_rtol(args.rtol)
    _check_n_terms(args.n)  # a bad --n is a usage error, whatever the reference says
    if args.problem == "roller":
        reference = solve_roller(rod, args.q, method="root_find", rtol=args.rtol)
        series = solve_roller(rod, args.q, method="series", n_terms=args.n)
    else:
        reference = solve_builtin(rod, args.q, method="closed",
                                  integral_mode="hyp_approx", rtol=args.rtol)
        series = solve_builtin(rod, args.q, method="series", n_terms=args.n)
    x_ref = reference.X
    rows = [(n, x, abs(x - x_ref) / abs(x_ref) if x_ref != 0.0 else 0.0) for n, x in series.trace]
    obj = {"problem": args.problem, "reference_method": reference.method, "reference_X": x_ref,
           "rows": [{"n": n, "X_n": x, "rel_gap": g} for n, x, g in rows]}
    comments = [f"# problem={args.problem} reference_method={reference.method} "
                f"reference_X={_fmt(x_ref)}"]
    columns = f"n,X_{series.units.replace(' ', '')},rel_gap_vs_reference"
    return _render(args, obj, comments, columns, rows)


def cmd_eval(args) -> str:
    from . import special_functions
    _check_rtol(args.rtol)
    name, p = args.function, args.params
    arity, call = _EVAL[name]
    if len(p) != arity:
        raise UsageError(f"{name} takes {arity} parameters, got {len(p)}")
    value = call(special_functions, p, args.rtol)
    # the requested tolerance scaled by |value|: neither a bound nor an
    # achieved error, which the series and quadrature do not report yet
    estimate = max(abs(value) * args.rtol, 1e-300)
    return _render(args, {"function": name, "value": value, "error_estimate": estimate}, [],
                   "function,value,error_estimate", [(name, value, estimate)])


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"solve": cmd_solve, "deflect": cmd_deflect, "table": cmd_table, "eval": cmd_eval}
    try:
        _emit(handlers[args.command](args), args.out)
    except UsageError as exc:
        print(f"rodbend: error: {exc}", file=sys.stderr)
        return 1
    except (InfeasibleLoadError, BracketError) as exc:
        print(f"rodbend: infeasible load: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"rodbend: domain error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
