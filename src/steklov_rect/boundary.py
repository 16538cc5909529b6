"""Functions on the rectangle boundary and their inner products.

Integrals use composite Gauss-Legendre panels per edge. Gauss nodes are
interior to panels, so corner values of the data are never touched and
traces may be discontinuous at corners. The panel count scales with the
highest oscillation frequency in play (an integrand cos(nu t) needs panels
proportional to nu).
"""

from __future__ import annotations

import csv
import math
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.interpolate import make_interp_spline

from .geometry import Edge, Rectangle
from .modes import SteklovMode, _trace_block, trace_on_edge

__all__ = [
    "BoundaryFunction",
    "AnalyticBoundaryFunction",
    "SampledBoundaryFunction",
    "ModeTrace",
    "LinearCombination",
    "constant_function",
    "EdgeCoverageError",
    "BoundaryDataError",
    "edge_quadrature",
    "inner_product",
    "mean",
    "boundary_norm",
    "coefficient",
    "coefficients",
    "default_panels",
    "load_boundary_csv",
    "builtin_boundary",
    "BUILTIN_NAMES",
]

_EDGE_ORDER = (Edge.RIGHT, Edge.TOP, Edge.LEFT, Edge.BOTTOM)


class BoundaryDataError(ValueError):
    """Sampled boundary data violates the documented format."""


class EdgeCoverageError(BoundaryDataError):
    """A sampled function does not cover some edge with enough points."""


class BoundaryFunction:
    """Evaluation contract for data on the boundary of a rectangle.

    Subclasses implement edge_values(rect, edge, t) for arrays of edge
    coordinates at non-corner points. freq_hint is the dominant oscillation
    frequency (0 for smooth data) and drives the default panel count.
    """

    rect: Optional[Rectangle] = None
    freq_hint: float = 0.0

    def edge_values(self, rect: Rectangle, edge: Edge, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_rect(self, rect: Rectangle) -> None:
        if self.rect is not None and self.rect.alpha != rect.alpha:
            raise BoundaryDataError(
                f"boundary data defined on alpha={self.rect.alpha}, used with alpha={rect.alpha}"
            )


class AnalyticBoundaryFunction(BoundaryFunction):
    """Boundary data given by a rule (x, y) -> value, vectorized over numpy arrays."""

    def __init__(self, fn: Callable, freq_hint: float = 0.0, name: Optional[str] = None):
        self.fn = fn
        self.freq_hint = float(freq_hint)
        self.name = name

    def edge_values(self, rect: Rectangle, edge: Edge, t: np.ndarray) -> np.ndarray:
        x, y = rect.edge_xy(edge, t)
        return np.asarray(self.fn(x, y), dtype=float)

    def __repr__(self) -> str:  # pragma: no cover
        return f"AnalyticBoundaryFunction({self.name or self.fn})"


def constant_function(c: float) -> AnalyticBoundaryFunction:
    c = float(c)
    return AnalyticBoundaryFunction(lambda x, y: np.full_like(np.asarray(x, float), c), name=f"const:{c}")


class ModeTrace(BoundaryFunction):
    """The boundary trace of a resolved mode, kept on the edge parameterization."""

    def __init__(self, mode: SteklovMode):
        self.mode = mode
        self.rect = mode.rect
        self.freq_hint = mode.nu

    def edge_values(self, rect: Rectangle, edge: Edge, t: np.ndarray) -> np.ndarray:
        self._check_rect(rect)
        return np.asarray(trace_on_edge(self.mode, edge, t), dtype=float)


class LinearCombination(BoundaryFunction):
    """sum_i weight_i * fn_i, useful for synthetic data and linearity checks."""

    def __init__(self, terms: Sequence[tuple[float, BoundaryFunction]]):
        self.terms = [(float(w), f) for w, f in terms]
        self.freq_hint = max((f.freq_hint for _, f in self.terms), default=0.0)
        rects = [f.rect for _, f in self.terms if f.rect is not None]
        self.rect = rects[0] if rects else None

    def edge_values(self, rect: Rectangle, edge: Edge, t: np.ndarray) -> np.ndarray:
        out = np.zeros_like(np.asarray(t, dtype=float))
        for w, f in self.terms:
            out = out + w * f.edge_values(rect, edge, t)
        return out


class SampledBoundaryFunction(BoundaryFunction):
    """Boundary data sampled as (arc length, value) pairs.

    Arc length runs counterclockwise from (1, -alpha); samples must be
    strictly increasing in [0, perimeter) with at least two per edge.
    Interpolation is per-edge splines (cubic when enough points), never
    across corners, so per-edge smooth data with corner kinks is fine.
    """

    def __init__(self, rect: Rectangle, arclength: Sequence[float], values: Sequence[float]):
        s = np.asarray(arclength, dtype=float)
        v = np.asarray(values, dtype=float)
        if s.ndim != 1 or s.shape != v.shape:
            raise BoundaryDataError("arclength and values must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(v))):
            raise BoundaryDataError("arclength and values must be finite")
        if np.any(np.diff(s) <= 0):
            raise BoundaryDataError("arclength samples must be strictly increasing")
        if s.size and (s[0] < 0.0 or s[-1] >= rect.perimeter):
            raise BoundaryDataError(f"arclength must lie in [0, {rect.perimeter})")
        self.rect = rect
        self._splines: dict[Edge, Callable] = {}
        for edge in _EDGE_ORDER:
            ts, vs = self._edge_samples(rect, edge, s, v)
            if ts.size < 2:
                raise EdgeCoverageError(
                    f"edge {edge.name} has {ts.size} samples; at least 2 required"
                )
            k = min(3, ts.size - 1)
            self._splines[edge] = make_interp_spline(ts, vs, k=k)

    @staticmethod
    def _edge_samples(rect: Rectangle, edge: Edge, s: np.ndarray, v: np.ndarray):
        a = rect.alpha
        spans = {
            Edge.RIGHT: (0.0, 2 * a),
            Edge.TOP: (2 * a, 2 * a + 2.0),
            Edge.LEFT: (2 * a + 2.0, 4 * a + 2.0),
            Edge.BOTTOM: (4 * a + 2.0, 4 * a + 4.0),
        }
        lo, hi = spans[edge]
        mask = (s >= lo) & (s < hi)
        ts = np.array([rect.arclength_to_point(si).t for si in s[mask]])
        vs = v[mask]
        order = np.argsort(ts)
        return ts[order], vs[order]

    def edge_values(self, rect: Rectangle, edge: Edge, t: np.ndarray) -> np.ndarray:
        self._check_rect(rect)
        return np.asarray(self._splines[edge](np.asarray(t, dtype=float)), dtype=float)


def load_boundary_csv(path, alpha: float) -> SampledBoundaryFunction:
    """Read sampled boundary data: header ``arclength,value``, '#' comments."""
    rect = Rectangle(alpha)
    arclength: list[float] = []
    values: list[float] = []
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise BoundaryDataError(f"{path}: empty boundary data file")
    header = [c.strip().lower() for c in rows[0]]
    if header[:2] != ["arclength", "value"]:
        raise BoundaryDataError(f"{path}: expected header 'arclength,value', got {rows[0]}")
    for r in rows[1:]:
        try:
            arclength.append(float(r[0]))
            values.append(float(r[1]))
        except (IndexError, ValueError) as exc:
            raise BoundaryDataError(f"{path}: bad row {r}") from exc
    return SampledBoundaryFunction(rect, arclength, values)


# ---------------------------------------------------------------------------
# Quadrature

_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order < 2:
        raise ValueError(f"quadrature order must be >= 2, got {order}")
    if order not in _GAUSS_CACHE:
        _GAUSS_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GAUSS_CACHE[order]


def default_panels(freq: float) -> int:
    """Panels per edge for integrands oscillating like cos(freq * t)."""
    return max(4, math.ceil(freq / math.pi))


def edge_quadrature(
    rect: Rectangle, edge: Edge, order: int, panels: int
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights in the edge coordinate."""
    nodes, weights = _gauss(order)
    lo, hi = rect.edge_range(edge)
    width = (hi - lo) / panels
    starts = lo + width * np.arange(panels)
    pts = (starts[:, None] + 0.5 * width * (nodes[None, :] + 1.0)).ravel()
    wts = np.tile(0.5 * width * weights, panels)
    return pts, wts


def inner_product(
    u: BoundaryFunction,
    v: BoundaryFunction,
    rect: Optional[Rectangle] = None,
    order: int = 32,
    panels: Optional[int] = None,
) -> float:
    """Mean-normalized boundary inner product: perimeter^-1 * integral of u*v.

    The default panel count follows the combined frequency hint of the two
    factors (a product of two oscillations oscillates at the sum frequency).
    Deterministic for fixed order and panels: edges are accumulated in a
    fixed order.
    """
    if rect is None:
        rect = u.rect or v.rect
        if rect is None:
            raise ValueError("rect must be given when neither function carries one")
    if panels is None:
        panels = default_panels(u.freq_hint + v.freq_hint)
    total = 0.0
    for edge in _EDGE_ORDER:
        pts, wts = edge_quadrature(rect, edge, order, panels)
        total += float(np.dot(wts, u.edge_values(rect, edge, pts) * v.edge_values(rect, edge, pts)))
    return total / rect.perimeter


_ONE = constant_function(1.0)


def mean(
    u: BoundaryFunction,
    rect: Optional[Rectangle] = None,
    order: int = 32,
    panels: Optional[int] = None,
) -> float:
    """Boundary mean of u, i.e. its inner product with the constant 1."""
    return inner_product(u, _ONE, rect=rect, order=order, panels=panels)


def boundary_norm(
    u: BoundaryFunction,
    rect: Optional[Rectangle] = None,
    order: int = 32,
    panels: Optional[int] = None,
) -> float:
    """Mean L2 boundary norm sqrt(<u, u>); nan for data that is not finite.

    The Gauss weights are positive, so <u, u> is never negative; it is nan
    exactly when the data is, and that nan must reach the caller.
    """
    return math.sqrt(inner_product(u, u, rect=rect, order=order, panels=panels))


def coefficients(u: BoundaryFunction, modes: Sequence[SteklovMode], order: int = 32) -> list[float]:
    """Expansion coefficients <u, mode trace> against boundary-normalized modes.

    Each mode keeps the rule inner_product would give it, with panels
    default_panels(u.freq_hint + nu). Modes with the same panel count share
    one grid per edge and one evaluation of u on it; the traces of the modes
    of one kind are built as one block. Every coefficient is the same sum of
    the same per-edge dot products as inner_product's, so bit for bit equal.
    """
    groups: dict[tuple[float, int], list[int]] = {}
    for i, mode in enumerate(modes):
        groups.setdefault((mode.alpha, default_panels(u.freq_hint + mode.nu)), []).append(i)
    totals = [0.0] * len(modes)
    for (alpha, panels), members in groups.items():
        rect = Rectangle(alpha)
        kinds: dict[tuple, list[int]] = {}
        for i in members:
            kinds.setdefault((modes[i].kind, modes[i].symmetry_class, modes[i].family), []).append(i)
        for edge in _EDGE_ORDER:
            pts, wts = edge_quadrature(rect, edge, order, panels)
            hv = u.edge_values(rect, edge, pts)
            x, y = rect.edge_xy(edge, pts)
            x, y = (x[:1], y) if edge in (Edge.RIGHT, Edge.LEFT) else (x, y[:1])
            for idx in kinds.values():
                prod = hv * _trace_block([modes[i] for i in idx], x, y)
                for i, row in zip(idx, prod):
                    totals[i] += float(np.dot(wts, row))
    return [totals[i] / modes[i].rect.perimeter for i in range(len(modes))]


def coefficient(u: BoundaryFunction, mode: SteklovMode, order: int = 32) -> float:
    """Expansion coefficient <u, mode trace> against a boundary-normalized mode."""
    return coefficients(u, [mode], order)[0]


# ---------------------------------------------------------------------------
# Built-in boundary data: exact harmonic functions, so runs are self-checking.

def _poly(fn: Callable, name: str) -> Callable[[str | None], AnalyticBoundaryFunction]:
    def make(param: Optional[str]) -> AnalyticBoundaryFunction:
        if param is not None:
            raise ValueError(f"builtin '{name}' takes no parameter")
        return AnalyticBoundaryFunction(fn, name=name)

    return make


def _finite(name: str, param: str) -> float:
    value = float(param)
    if not math.isfinite(value):
        raise ValueError(f"builtin '{name}' needs a finite parameter, got {param!r}")
    return value


def _const(param: Optional[str]) -> AnalyticBoundaryFunction:
    if param is None:
        raise ValueError("builtin 'const' needs a value, e.g. const:7")
    return constant_function(_finite("const", param))


def _osc(kind: str):
    def make(param: Optional[str]) -> AnalyticBoundaryFunction:
        if param is None:
            raise ValueError(f"builtin '{kind}' needs a frequency, e.g. {kind}:2.5")
        nu = _finite(kind, param)
        if kind == "coshcos":
            fn = lambda x, y: np.cosh(nu * x) * np.cos(nu * y)
        elif kind == "sinhsin":
            fn = lambda x, y: np.sinh(nu * x) * np.sin(nu * y)
        elif kind == "coscosh":
            fn = lambda x, y: np.cos(nu * x) * np.cosh(nu * y)
        else:  # sinsinh
            fn = lambda x, y: np.sin(nu * x) * np.sinh(nu * y)
        return AnalyticBoundaryFunction(fn, freq_hint=abs(nu), name=f"{kind}:{param}")

    return make


_BUILTINS: dict[str, Callable[[Optional[str]], AnalyticBoundaryFunction]] = {
    "const": _const,
    "x": _poly(lambda x, y: x + 0.0 * y, "x"),
    "y": _poly(lambda x, y: y + 0.0 * x, "y"),
    "xy": _poly(lambda x, y: x * y, "xy"),
    "x2-y2": _poly(lambda x, y: x * x - y * y, "x2-y2"),
    "x3-3xy2": _poly(lambda x, y: x**3 - 3 * x * y * y, "x3-3xy2"),
    "3x2y-y3": _poly(lambda x, y: 3 * x * x * y - y**3, "3x2y-y3"),
    "x4-6x2y2+y4": _poly(lambda x, y: x**4 - 6 * x * x * y * y + y**4, "x4-6x2y2+y4"),
    "4x3y-4xy3": _poly(lambda x, y: 4 * x**3 * y - 4 * x * y**3, "4x3y-4xy3"),
    "coshcos": _osc("coshcos"),
    "sinhsin": _osc("sinhsin"),
    "coscosh": _osc("coscosh"),
    "sinsinh": _osc("sinsinh"),
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin_boundary(ident: str) -> AnalyticBoundaryFunction:
    """Resolve a builtin name like 'x2-y2' or 'coshcos:2.365'.

    Every entry is harmonic on the whole plane, so its interior values are
    known exactly through the attached .fn callable.
    """
    name, _, param = ident.partition(":")
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin '{name}'; choices: {', '.join(BUILTIN_NAMES)}")
    return _BUILTINS[name](param if param else None)
