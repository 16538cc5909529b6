"""Command-line front end: spectrum, central, solve, tables.

Exit codes: 0 success, 1 numerical or data failure, 2 usage error. All
floating-point output is written with 9 significant digits in text form (more for
a header's alpha or t that needs them) and full round-trip precision in json/csv
form, and identical flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

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


def _fmt_arg(x: float) -> str:  # alpha or t in a header: 9 digits only when they read back as x
    return _fmt(x) if float(_fmt(x)) == x else repr(x)


def _add_common(p: argparse.ArgumentParser, modes: bool = True) -> None:
    if modes:  # the rectangle, and the spacing of doubles its roots may lie at
        p.add_argument("--alpha", type=float, default=1.0, help="aspect ratio in (0, 1]")
        p.add_argument("--root-tol", type=float, default=1e-12, dest="root_tol")
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--quad-order", type=int, default=32, dest="quad_order")
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
    p.add_argument("--t", type=float, default=None, help="Robin parameter in (0, 1], default 1")
    p.add_argument("--m", type=int, default=12, help="number of non-constant modes")
    p.add_argument("--eval", default=None, dest="eval_points", help='points "x,y;x,y;..."')
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("tables", help="recompute the reference tables and deviations")
    _add_common(p, modes=False)
    p.set_defaults(func=cmd_tables)
    return parser


def _check_numerics(args) -> None:
    if "root_tol" in args and not (math.isfinite(args.root_tol) and args.root_tol > 0.0):
        raise UsageError(f"--root-tol must be positive and finite, got {args.root_tol}")
    if "quad_order" in args and not 2 <= args.quad_order <= bd._MAX_ORDER:
        raise UsageError(f"--quad-order must be in [2, {bd._MAX_ORDER}], got {args.quad_order}")


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
        classes = [SymmetryClass(tok.strip()) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"--classes must list I,II,III,IV: {exc}") from exc
    if not classes:
        raise UsageError(f"--classes must list at least one of I,II,III,IV, got {raw!r}")
    return classes


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
            point = float(xs), float(ys)
        except ValueError as exc:
            raise UsageError(f'--eval expects "x,y;x,y;...", bad chunk {chunk!r}') from exc
        if not all(map(math.isfinite, point)):
            raise UsageError(f"--eval coordinates must be finite, got chunk {chunk!r}")
        pts.append(point)
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


def _emit(args, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(header: Sequence[str], rows: Sequence[dict], none: str) -> list[str]:
    """The header line, then one line a row of row.get(name) for each name: a float as its
    repr (str of a float is its repr), and None or a name the row lacks as none."""
    def cell(v) -> str:
        return none if v is None else str(v)

    return [",".join(header)] + [",".join(cell(r.get(name)) for name in header) for r in rows]


def _text(columns: Sequence[tuple[str, str]], rows: Sequence[dict]) -> list[str]:
    """The header line, then one line a row in fixed-width columns: each (name, layout) pair,
    e.g. ("nu", " {:>14}"), lays out the name, then row[name], a float with _fmt and None as -."""
    def cell(v) -> str:
        return "-" if v is None else _fmt(v) if isinstance(v, float) else str(v)

    return ["".join(layout.format(name) for name, layout in columns)] + [
        "".join(layout.format(cell(r[name])) for name, layout in columns) for r in rows]


# a space opens each right-aligned column, so a value that fills its width stays apart from the one before
_MODE_COLUMNS = (("class", "{:<6}"), ("family", "{:<8}"), ("index", "{:<7}"),
                 ("nu", " {:>14}"), ("delta", " {:>14}"))


def cmd_spectrum(args) -> int:
    _check_alpha(args.alpha)
    if args.jmax < 0:
        raise UsageError(f"--jmax must be >= 0, got {args.jmax}")
    classes = _parse_classes(args.classes)
    modes = md.spectrum(args.alpha, args.jmax, classes=classes, tol=args.root_tol)
    rows = [{**m._row(), "scale": m.scale} for m in modes]
    if args.format == "json":
        _emit(args, [json.dumps({"alpha": args.alpha, "modes": rows}, indent=2)])
    elif args.format == "csv":
        _emit(args, _csv(("class", "family", "index", "nu", "delta", "scale"), rows, "-"))
    else:
        _emit(args, [f"spectrum  alpha={_fmt_arg(args.alpha)}  jmax={args.jmax}",
                     *_text(_MODE_COLUMNS + (("scale", " {:>14}"),), rows)])
    return 0


def _warn_if_vacuous(res: xp.CentralValueResult) -> None:
    """Log a warning when the certificate rules nothing out: bound >= |value| + data_norm."""
    if res.data_norm is not None and res.bound >= abs(res.value) + res.data_norm:
        import logging  # here, not at the top: start-up is most of a CLI call

        logging.getLogger(__name__).warning(
            "warning: the certified bound %s is at least |value| + data_norm = %s, so it says "
            "nothing about the value; a larger --m tightens it", _fmt(res.bound),
            _fmt(abs(res.value) + res.data_norm))


def cmd_central(args) -> int:
    _check_alpha(args.alpha)
    if args.m < 0:
        raise UsageError(f"--m must be >= 0, got {args.m}")
    h = _load_data(args)
    e = xp.expand_for_central(h, args.alpha, args.m, order=args.quad_order, tol=args.root_tol)
    res = xp.central_value(e)
    _warn_if_vacuous(res)
    doc = {"alpha": args.alpha, "value": res.value, "m": res.m,
           "bound": res.bound, "data_norm": res.data_norm}
    if args.format == "json":
        _emit(args, [json.dumps(doc, indent=2)])
    elif args.format == "csv":
        _emit(args, _csv(("value", "m", "bound", "data_norm"), [doc], ""))
    else:
        _emit(args, [f"central value  alpha={_fmt_arg(args.alpha)}  m={res.m}",
                     f"value     = {_fmt(res.value)}",
                     f"bound     = {_fmt(res.bound)}  (certified |error| <= bound)",
                     f"data_norm = {_fmt(res.data_norm)}"])
    return 0


def cmd_solve(args) -> int:
    _check_alpha(args.alpha)
    if args.m < 0:
        raise UsageError(f"--m must be >= 0, got {args.m}")
    eta = _load_data(args)
    points = _parse_eval(args.eval_points)
    if args.mode != "robin" and args.t is not None:
        raise UsageError(f"--t is the Robin parameter; --mode {args.mode} takes none")
    t = 1.0 if args.t is None else args.t
    if not (0.0 < t <= 1.0):
        raise UsageError(f"--t must be in (0, 1], got {t}")
    if args.mode == "dirichlet":
        e = xp.expand_dirichlet(eta, args.alpha, args.m, order=args.quad_order, tol=args.root_tol)
    elif args.mode == "robin":
        e = xp.solve_robin(eta, args.alpha, t, args.m, order=args.quad_order, tol=args.root_tol)
    else:
        e = xp.solve_neumann(eta, args.alpha, args.m, order=args.quad_order, tol=args.root_tol)
    xs, ys = [x for x, _ in points], [y for _, y in points]
    values = [{"x": x, "y": y, "value": v}
              for x, y, v in zip(xs, ys, xp.evaluate_interior(e, xs, ys).tolist())]
    doc = xp.expansion_to_dict(e)
    if args.format == "json":
        _emit(args, [json.dumps({"expansion": doc, "values": values}, indent=2)])
    elif args.format == "csv":
        rows = [{"record": "mean", "coefficient": e.mean_term},
                *({"record": "term", **r} for r in doc["terms"]),
                *({"record": "value", **v} for v in values)]
        header = ("record", "class", "family", "index", "nu", "delta", "coefficient", "x", "y", "value")
        _emit(args, _csv(header, rows, ""))
    else:
        title = f"{args.mode} solution  alpha={_fmt_arg(args.alpha)}  M={e.truncation_M}"
        if e.t is not None:
            title += f"  t={_fmt_arg(e.t)}"
        _emit(args, [title, f"mean term = {_fmt(e.mean_term)}",
                     *_text(_MODE_COLUMNS + (("coefficient", " {:>15}"),), doc["terms"]),
                     *(f"value at ({_fmt(v['x'])}, {_fmt(v['y'])}) = {_fmt(v['value'])}" for v in values)])
    return 0


def cmd_tables(args) -> int:
    report = bnd.reproduce_tables()
    rows = [{"name": r.label, "computed": r.computed, "published": r.published,
             "rel_dev": r.rel_dev, "ok": r.ok}
            for r in report.rows]
    if args.format == "json":
        _emit(args, [json.dumps(rows, indent=2)])
    elif args.format == "csv":
        _emit(args, _csv(("name", "computed", "published", "rel_dev"), rows, ""))
    else:
        columns = (("name", "{:<22}"), ("computed", "{:>16}"), ("published", "{:>16}"),
                   ("rel_dev", "{:>12}"), ("ok", "  {}"))
        cells = [{**r, "rel_dev": f"{r['rel_dev']:.2e}", "ok": "yes" if r["ok"] else "NO"} for r in rows]
        _emit(args, [*_text(columns, cells), "",
                     f"{len(rows)} rows, {'all within tolerance' if report.ok else 'FAILURES PRESENT'}"])
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
    except (bd.BoundaryDataError, xp.IncompatibleDataError, md.InvalidModeError,
            NonConvergenceError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
