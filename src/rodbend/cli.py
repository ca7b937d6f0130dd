"""Command-line interface.

Four subcommands: ``solve`` (redundant reactions), ``deflect`` (exact
and linearized deflection profiles side by side), ``table`` (series
convergence tables) and ``eval`` (direct special-function evaluation).
Output is JSON by default, CSV on request, and byte-identical for
identical configurations; the only non-data line is a version header.

Exit codes: 0 success, 1 usage error, 2 infeasible load, 3
special-function domain or convergence error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import BracketError, DomainError, InfeasibleLoadError, UsageError

_HEADER = f"# rodbend {__version__}"

_EVAL_ARITY = {
    "2f1": 4,       # a b c x
    "3f2": 6,       # a1 a2 a3 b1 b2 x
    "f1": 6,        # a b1 b2 c x1 x2
    "fd3": 8,       # a b1 b2 b3 c x1 x2 x3
    "gauss-sum": 3  # a b c
}


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; 2 is reserved for infeasible loads here
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_rod_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--L", type=float, help="rod length [m]")
    p.add_argument("--E", type=float, help="Young modulus [N/m^2]")
    p.add_argument("--J", type=float, help="second moment of area [m^4]")
    p.add_argument("--EJ", type=float, help="flexural stiffness [N m^2] (instead of --E/--J)")


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rtol", type=float, default=1e-13,
                   help="relative tolerance for numeric evaluation (default 1e-13)")
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
    p_eval.add_argument("function", choices=sorted(_EVAL_ARITY))
    p_eval.add_argument("params", type=float, nargs="*", help="function parameters")
    _add_common_args(p_eval)

    return parser


def _resolve_rtol(args) -> float:
    from .special_functions import _check_rtol
    _check_rtol(args.rtol)
    return args.rtol


def _resolve_rod(args):
    from .elastica import RodProperties
    has_ej = args.EJ is not None
    has_pair = args.E is not None or args.J is not None
    if args.L is None:
        raise UsageError("--L is required")
    if has_ej and has_pair:
        raise UsageError("give either --EJ or both --E and --J, not both")
    if has_ej:
        return RodProperties.from_stiffness(args.L, args.EJ)
    if args.E is None or args.J is None:
        raise UsageError("give either --EJ or both --E and --J")
    return RodProperties(L=args.L, E=args.E, J=args.J)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        try:
            sys.stdout.write(text)
            if not text.endswith("\n"):
                sys.stdout.write("\n")
        except BrokenPipeError:
            pass
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2)


def cmd_solve(args) -> str:
    from .redundancy import solve_builtin, solve_roller
    rod, rtol = _resolve_rod(args), _resolve_rtol(args)
    method = args.method.replace("-", "_")
    if method == "series" and args.n is None:
        raise UsageError("--method series requires --n")
    n = args.n if args.n is not None else 0
    if args.problem == "roller":
        if method == "closed":
            raise UsageError("the roller problem has no closed method; use root-find")
        solution = solve_roller(rod, args.q, method=method, n_terms=n, rtol=rtol)
    else:
        if method == "root_find":
            raise UsageError("the built-in problem is root-free; use closed")
        solution = solve_builtin(rod, args.q, method=method, n_terms=n, rtol=rtol)

    if args.format == "json":
        return _json_text({"version": __version__, **solution.json_obj()})
    unit_col = "X_N" if solution.problem == "roller" else "X_Nm"
    lines = [
        _HEADER,
        f"# problem={solution.problem} method={solution.method} units={solution.units}",
        f"# X={_fmt(solution.X)} deviation_pct={_fmt(solution.deviation_pct)}",
        f"n,{unit_col}",
    ]
    rows = solution.trace if solution.trace else ((0, solution.X),)
    for n_k, x_k in rows:
        lines.append(f"{n_k},{_fmt(x_k)}")
    return "\n".join(lines)


def _deflect_load(args):
    from .elastica import TipMoment, TipShear, UniformLoad
    given = [name for name, v in (("--q", args.q), ("--P", args.P), ("--M0", args.M0))
             if v is not None]
    if len(given) != 1:
        raise UsageError("give exactly one of --q, --P, --M0")
    if args.q is not None:
        return UniformLoad(args.q)
    if args.P is not None:
        return TipShear(args.P)
    return TipMoment(args.M0)


def cmd_deflect(args) -> str:
    from .elastica import deflection_profile, linearized_deflection
    rod, rtol = _resolve_rod(args), _resolve_rtol(args)
    load = _deflect_load(args)
    exact = deflection_profile(load, rod, rtol=rtol)
    y_lin = [linearized_deflection(load, rod, x) for x, _ in exact.samples]

    if args.format == "json":
        samples = [
            {"x_m": x, "y_exact_m": y, "y_linearized_m": yl}
            for (x, y), yl in zip(exact.samples, y_lin)
        ]
        return _json_text({"version": __version__, "L_m": rod.L, "samples": samples})
    lines = [_HEADER, "x_m,y_exact_m,y_linearized_m"]
    for (x, y), yl in zip(exact.samples, y_lin):
        lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(yl)}")
    return "\n".join(lines)


def cmd_table(args) -> str:
    from .redundancy import _check_n_terms, solve_builtin, solve_roller
    rod, rtol = _resolve_rod(args), _resolve_rtol(args)
    _check_n_terms(args.n)  # a bad --n is a usage error, whatever the reference says
    if args.problem == "roller":
        reference = solve_roller(rod, args.q, method="root_find", rtol=rtol)
        series = solve_roller(rod, args.q, method="series", n_terms=args.n)
        unit_col = "X_N"
    else:
        reference = solve_builtin(rod, args.q, method="closed",
                                  integral_mode="hyp_approx", rtol=rtol)
        series = solve_builtin(rod, args.q, method="series", n_terms=args.n)
        unit_col = "X_Nm"
    x_ref = reference.X
    rows = [
        (n, x_n, abs(x_n - x_ref) / abs(x_ref) if x_ref != 0.0 else 0.0)
        for n, x_n in series.trace
    ]

    if args.format == "json":
        return _json_text({
            "version": __version__,
            "problem": args.problem,
            "reference_method": reference.method,
            "reference_X": x_ref,
            "rows": [{"n": n, "X_n": x, "rel_gap": g} for n, x, g in rows],
        })
    lines = [
        _HEADER,
        f"# problem={args.problem} reference_method={reference.method} reference_X={_fmt(x_ref)}",
        f"n,{unit_col},rel_gap_vs_reference",
    ]
    for n, x, g in rows:
        lines.append(f"{n},{_fmt(x)},{_fmt(g)}")
    return "\n".join(lines)


def cmd_eval(args) -> str:
    from .special_functions import appell_f1, gauss_2f1, gauss_summation, hyp_3f2, lauricella_fd3
    rtol = _resolve_rtol(args)
    name = args.function
    p = args.params
    arity = _EVAL_ARITY[name]
    if len(p) != arity:
        raise UsageError(f"{name} takes {arity} parameters, got {len(p)}")
    if name == "2f1":
        value = gauss_2f1(p[0], p[1], p[2], p[3], rtol=rtol)
    elif name == "3f2":
        value = hyp_3f2(p[0], p[1], p[2], p[3], p[4], p[5], rtol=rtol)
    elif name == "f1":
        value = appell_f1(p[0], p[1], p[2], p[3], p[4], p[5], rtol=rtol)
    elif name == "fd3":
        value = lauricella_fd3(p[0], (p[1], p[2], p[3]), p[4], (p[5], p[6], p[7]), rtol=rtol)
    else:
        value = gauss_summation(p[0], p[1], p[2])
    # the requested tolerance scaled by |value|: neither a bound nor an
    # achieved error, which the series and quadrature do not report yet
    estimate = max(abs(value) * rtol, 1e-300)
    obj = {"version": __version__, "function": name, "value": value, "error_estimate": estimate}
    if args.format == "json":
        return _json_text(obj)
    return "\n".join([
        _HEADER,
        "function,value,error_estimate",
        f"{name},{_fmt(value)},{_fmt(estimate)}",
    ])


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"solve": cmd_solve, "deflect": cmd_deflect,
                "table": cmd_table, "eval": cmd_eval}
    try:
        text = handlers[args.command](args)
        out_path = getattr(args, "out", None)
        _emit(text, out_path)
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
