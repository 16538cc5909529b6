"""Command-line front end: spectrum, central, solve, tables.

Exit codes: 0 success, 1 numerical or data failure, 2 usage error. All
floating-point output is written with 9 significant digits in text form and
full round-trip precision in json/csv form, and identical flags produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from . import bounds as bnd
from . import boundary as bd
from . import expansion as xp
from . import modes as md
from .geometry import DomainError
from .roots import NonConvergenceError, SymmetryClass

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=1.0, help="aspect ratio in (0, 1]")
    p.add_argument("--quad-order", type=int, default=32, dest="quad_order")
    p.add_argument("--root-tol", type=float, default=1e-12, dest="root_tol")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--builtin", default=None, help="builtin data, e.g. x2-y2 or coshcos:2.5")
    p.add_argument("--data", default=None, help="CSV file with header arclength,value")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steklov-rect",
        description="Steklov eigenfunctions on rectangles: spectra, expansions, "
        "certified central values, Robin/Neumann solves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="list modes sorted by eigenvalue")
    _add_common(p)
    p.add_argument("--jmax", type=int, default=6, help="max index per (class, family) sequence")
    p.add_argument("--classes", default=None, help="comma list among I,II,III,IV")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("central", help="estimate the value at the center with a certificate")
    _add_common(p)
    _add_data_flags(p)
    p.add_argument("--m", type=int, default=12, help="class-I modes per family")
    p.set_defaults(func=cmd_central)

    p = sub.add_parser("solve", help="solve a Dirichlet/Robin/Neumann problem")
    _add_common(p)
    _add_data_flags(p)
    p.add_argument("--mode", choices=("dirichlet", "robin", "neumann"), required=True)
    p.add_argument("--t", type=float, default=1.0, help="Robin parameter in (0, 1]")
    p.add_argument("--m", type=int, default=12, help="number of non-constant modes")
    p.add_argument("--eval", default=None, dest="eval_points", help='points "x,y;x,y;..."')
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("tables", help="recompute the reference tables and deviations")
    _add_common(p)
    p.set_defaults(func=cmd_tables)
    return parser


def _check_numerics(args) -> None:
    if not (math.isfinite(args.root_tol) and args.root_tol > 0.0):
        raise UsageError(f"--root-tol must be positive and finite, got {args.root_tol}")
    if args.quad_order < 2:
        raise UsageError(f"--quad-order must be >= 2, got {args.quad_order}")


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha <= 1.0):
        raise UsageError(
            f"--alpha must be in (0, 1], got {alpha}; rotate the rectangle so the "
            "longer half-side is scaled to 1"
        )


def _parse_classes(raw: Optional[str]) -> Optional[list[SymmetryClass]]:
    if raw is None:
        return None
    try:
        return [SymmetryClass(tok.strip()) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"--classes must list I,II,III,IV: {exc}") from exc


def _parse_eval(raw: Optional[str]) -> list[tuple[float, float]]:
    if not raw:
        return []
    pts = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            xs, ys = chunk.split(",")
            pts.append((float(xs), float(ys)))
        except ValueError as exc:
            raise UsageError(f'--eval expects "x,y;x,y;...", bad chunk {chunk!r}') from exc
    return pts


def _load_data(args) -> bd.BoundaryFunction:
    if (args.builtin is None) == (args.data is None):
        raise UsageError("exactly one of --builtin or --data is required")
    if args.builtin is not None:
        try:
            return bd.builtin_boundary(args.builtin)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    return bd.load_boundary_csv(args.data, args.alpha)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _mode_row(mode: md.SteklovMode) -> dict:
    cls, fam, idx = mode.label()
    return {
        "class": cls,
        "family": fam,
        "index": idx,
        "nu": mode.nu,
        "delta": mode.delta,
        "scale": mode.scale,
    }


def cmd_spectrum(args) -> int:
    _check_alpha(args.alpha)
    if args.jmax < 0:
        raise UsageError(f"--jmax must be >= 0, got {args.jmax}")
    classes = _parse_classes(args.classes)
    modes = md.spectrum(args.alpha, args.jmax, classes=classes, tol=args.root_tol)
    rows = [_mode_row(m) for m in modes]
    if args.format == "json":
        _emit(args, json.dumps({"alpha": args.alpha, "modes": rows}, indent=2) + "\n")
    elif args.format == "csv":
        lines = ["class,family,index,nu,delta,scale"]
        for r in rows:
            lines.append(
                f"{r['class']},{r['family'] or '-'},{'-' if r['index'] is None else r['index']},"
                f"{r['nu']!r},{r['delta']!r},{r['scale']!r}"
            )
        _emit(args, "\n".join(lines) + "\n")
    else:
        lines = [f"spectrum  alpha={_fmt(args.alpha)}  jmax={args.jmax}",
                 f"{'class':<6}{'family':<8}{'index':<7}{'nu':>15}{'delta':>15}{'scale':>15}"]
        for r in rows:
            lines.append(
                f"{r['class']:<6}{r['family'] or '-':<8}"
                f"{'-' if r['index'] is None else r['index']:<7}"
                f"{_fmt(r['nu']):>15}{_fmt(r['delta']):>15}{_fmt(r['scale']):>15}"
            )
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_central(args) -> int:
    _check_alpha(args.alpha)
    if args.m < 0:
        raise UsageError(f"--m must be >= 0, got {args.m}")
    h = _load_data(args)
    e = xp.expand_for_central(h, args.alpha, args.m, order=args.quad_order, tol=args.root_tol)
    res = xp.central_value(e, tol=args.root_tol)
    if args.format == "json":
        doc = {"alpha": args.alpha, "value": res.value, "m": res.m,
               "bound": res.bound, "data_norm": res.data_norm}
        _emit(args, json.dumps(doc, indent=2) + "\n")
    elif args.format == "csv":
        _emit(args, "value,m,bound,data_norm\n"
              f"{res.value!r},{res.m},{res.bound!r},{res.data_norm!r}\n")
    else:
        _emit(
            args,
            f"central value  alpha={_fmt(args.alpha)}  m={res.m}\n"
            f"value     = {_fmt(res.value)}\n"
            f"bound     = {_fmt(res.bound)}  (certified |error| <= bound)\n"
            f"data_norm = {_fmt(res.data_norm)}\n",
        )
    return 0


def cmd_solve(args) -> int:
    _check_alpha(args.alpha)
    if args.m < 0:
        raise UsageError(f"--m must be >= 0, got {args.m}")
    eta = _load_data(args)
    points = _parse_eval(args.eval_points)
    if args.mode == "robin" and not (0.0 < args.t <= 1.0):
        raise UsageError(f"--t must be in (0, 1], got {args.t}")
    if args.mode == "dirichlet":
        e = xp.expand_dirichlet(eta, args.alpha, args.m, order=args.quad_order, tol=args.root_tol)
    elif args.mode == "robin":
        e = xp.solve_robin(eta, args.alpha, args.t, args.m, order=args.quad_order, tol=args.root_tol)
    else:
        e = xp.solve_neumann(eta, args.alpha, args.m, order=args.quad_order, tol=args.root_tol)
    xs, ys = [x for x, _ in points], [y for _, y in points]
    values = list(zip(xs, ys, xp.evaluate_interior(e, xs, ys).tolist()))
    doc = xp.expansion_to_dict(e)
    if args.format == "json":
        out = {"expansion": doc, "values": [{"x": x, "y": y, "value": v} for x, y, v in values]}
        _emit(args, json.dumps(out, indent=2) + "\n")
    elif args.format == "csv":
        lines = ["record,class,family,index,nu,delta,coefficient,x,y,value",
                 f"mean,,,,,,{e.mean_term!r},,,"]
        for t in doc["terms"]:
            lines.append(
                f"term,{t['class']},{t['family'] or ''},"
                f"{'' if t['index'] is None else t['index']},"
                f"{t['nu']!r},{t['delta']!r},{t['coefficient']!r},,,"
            )
        for x, y, v in values:
            lines.append(f"value,,,,,,,{x!r},{y!r},{v!r}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        lines = [
            f"{args.mode} solution  alpha={_fmt(args.alpha)}  M={e.truncation_M}"
            + (f"  t={_fmt(e.t)}" if e.t is not None else ""),
            f"mean term = {_fmt(e.mean_term)}",
            f"{'class':<6}{'family':<8}{'index':<7}{'nu':>15}{'delta':>15}{'coefficient':>16}",
        ]
        for t in doc["terms"]:
            lines.append(
                f"{t['class']:<6}{t['family'] or '-':<8}"
                f"{'-' if t['index'] is None else t['index']:<7}"
                f"{_fmt(t['nu']):>15}{_fmt(t['delta']):>15}{_fmt(t['coefficient']):>16}"
            )
        for x, y, v in values:
            lines.append(f"value at ({_fmt(x)}, {_fmt(y)}) = {_fmt(v)}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_tables(args) -> int:
    report = bnd.reproduce_tables(root_tol=args.root_tol)
    if args.format == "json":
        doc = [
            {"name": r.label, "computed": r.computed, "published": r.published,
             "rel_dev": r.rel_dev, "ok": r.ok}
            for r in report.rows
        ]
        _emit(args, json.dumps(doc, indent=2) + "\n")
    elif args.format == "csv":
        _emit(args, report.to_csv())
    else:
        _emit(args, report.to_text())
    if not report.ok:
        for r in report.failures:
            print(
                f"FAIL {r.label}: computed {r.computed!r} vs published {r.published!r} "
                f"(rel dev {r.rel_dev:.3e} > {r.tol:.1e})",
                file=sys.stderr,
            )
        return 1
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _check_numerics(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        bd.BoundaryDataError,
        xp.IncompatibleDataError,
        md.InvalidModeError,
        NonConvergenceError,
        DomainError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
