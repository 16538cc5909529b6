"""Functions on the rectangle boundary and their inner products.

Integrals use composite Gauss-Legendre panels per edge. Gauss nodes are
interior to panels, so corner values of the data are never touched and
traces may be discontinuous at corners. The panel count scales with the
highest oscillation frequency in play (an integrand cos(nu t) needs panels
proportional to nu); an expansion takes its mean, norm and coefficients from
one grid sized for its largest nu.
"""

from __future__ import annotations

import csv
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import Edge, Rectangle
from .modes import SteklovMode, _factor_block, evaluate

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
    "project",
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
        return np.asarray(evaluate(self.mode, *rect.edge_xy(edge, t)), dtype=float)


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
    across corners, so per-edge smooth data with corner kinks is fine. Each
    sample goes to the edge and coordinate Rectangle.arclength_to_edge gives
    it, so one at a corner's arc length stays at that corner.
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
        self._splines: dict[Edge, _EdgeSpline] = {}
        edges, t = rect.arclength_to_edge(s)
        for edge in _EDGE_ORDER:
            ts, vs = t[edges == edge], v[edges == edge]
            if ts.size < 2:
                raise EdgeCoverageError(
                    f"edge {edge.name} has {ts.size} samples; at least 2 required"
                )
            order = np.argsort(ts)
            if np.any(np.diff(ts[order]) == 0):  # arc lengths a rounding apart, near a corner
                raise BoundaryDataError(f"two samples fall on one point of edge {edge.name}")
            self._splines[edge] = _EdgeSpline(ts[order], vs[order])

    def edge_values(self, rect: Rectangle, edge: Edge, t: np.ndarray) -> np.ndarray:
        self._check_rect(rect)
        return self._splines[edge](np.asarray(t, dtype=float))


def _solve_tridiagonal(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """x with a_i x_{i-1} + b_i x_i + c_i x_{i+1} = d_i (a_0 = c_{n-1} = 0) by cyclic
    reduction, one numpy pass per halving; no pivoting, so b must dominate."""
    n = b.size
    if n == 1:
        return d / b
    if n % 2 == 0:  # the equation x_n = 0 makes the length odd
        a, b, c, d = np.append(a, 0.0), np.append(b, 1.0), np.append(c, 0.0), np.append(d, 0.0)
    f, g = -a[1::2] / b[:-2:2], -c[1::2] / b[2::2]  # odd rows absorb their neighbours
    x = np.zeros(b.size + 2)  # x_k at k + 1, between two zeros
    x[2:-1:2] = _solve_tridiagonal(f * a[:-2:2], b[1::2] + f * c[:-2:2] + g * a[2::2],
                                   g * c[2::2], d[1::2] + f * d[:-2:2] + g * d[2::2])
    x[1::2] = (d[::2] - a[::2] * x[:-2:2] - c[::2] * x[2::2]) / b[::2]
    return x[1 : n + 1]


class _EdgeSpline:
    """Interpolant of samples (t, y) on one edge, t increasing, in cubic Hermite form: not-a-knot
    cubic from 4 samples, parabola for 3, line for 2, end pieces extended past the ends."""

    def __init__(self, t: np.ndarray, y: np.ndarray):
        secant = np.diff(y) / (h := np.diff(t))
        s = np.repeat(secant, 2)  # the line through two samples
        if t.size > 2:
            # CubicSpline's not-a-knot rows: h_1 s_0 + w0 s_1 = r0, w1 s_{n-2} + h_{n-3} s_{n-1} = r1
            # and h_i s_{i-1} + 2 (h_{i-1} + h_i) s_i + h_{i-1} s_{i+1} = r_i for i = 1..n-2
            w0, w1 = t[2] - t[0], t[-1] - t[-3]
            r0 = ((h[0] + 2.0 * w0) * h[1] * secant[0] + h[0] ** 2 * secant[1]) / w0
            r1 = (h[-1] ** 2 * secant[-2] + (2.0 * w1 + h[-1]) * h[-2] * secant[-1]) / w1
            s = (h[1] * secant[:1] + h[0] * secant[1:2]) / w0  # the parabola's middle slope
            if t.size > 3:  # rows 1 and n-2 less the end rows, with nothing left to cancel
                r = 3.0 * (h[1:] * secant[:-1] + h[:-1] * secant[1:])
                r[0] = (h[1] ** 2 * secant[0] + h[0] * (2.0 * h[0] + 3.0 * h[1]) * secant[1]) / w0
                r[-1] = (h[-2] ** 2 * secant[-1] + h[-1] * (3.0 * h[-2] + 2.0 * h[-1]) * secant[-2]) / w1
                diag = np.concatenate(([w0], 2.0 * (h[1:-2] + h[2:-1]), [w1]))
                s = _solve_tridiagonal(np.append(0.0, h[2:]), diag, np.append(h[:-2], 0.0), r)
            s = np.concatenate(([(r0 - w0 * s[0]) / h[1]], s, [(r1 - w1 * s[-1]) / h[-2]]))
        self.t, self.y, self.s = t, y, s

    def __call__(self, x: np.ndarray) -> np.ndarray:
        t, y, s = self.t, self.y, self.s
        i = np.clip(np.searchsorted(t, x, side="right") - 1, 0, t.size - 2)
        # an end piece is one cubic over two intervals; its wider form rounds less
        j = np.where(i == 0, min(2, t.size - 1), i + 1)
        i = np.where(j == t.size - 1, max(t.size - 3, 0), i)
        near_j = t[j] - x < x - t[i]  # expand about the nearer end of the piece
        i, j = np.where(near_j, j, i), np.where(near_j, i, j)
        h, dx = t[j] - t[i], x - t[i]
        secant = (y[j] - y[i]) / h
        c2, c3 = (3.0 * secant - 2.0 * s[i] - s[j]) / h, (s[i] + s[j] - 2.0 * secant) / (h * h)
        return y[i] + dx * (s[i] + dx * (c2 + dx * c3))


def load_boundary_csv(path, alpha: float) -> SampledBoundaryFunction:
    """Read sampled boundary data: header ``arclength,value``, '#' comments."""
    rect = Rectangle(alpha)
    with open(path, newline="") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.lstrip().startswith("#")]
    if not lines:
        raise BoundaryDataError(f"{path}: empty boundary data file")
    first = next(csv.reader(lines[:1]))
    if [c.strip().lower() for c in first][:2] != ["arclength", "value"]:
        raise BoundaryDataError(f"{path}: expected header 'arclength,value', got {first}")
    data = np.empty((0, 2))
    if len(lines) > 1:  # loadtxt warns on no data
        try:
            data = np.loadtxt(lines[1:], delimiter=",", usecols=(0, 1), ndmin=2, quotechar='"', comments=None)
        except ValueError as exc:
            raise BoundaryDataError(f"{path}: bad row: {exc}") from exc
    return SampledBoundaryFunction(rect, data[:, 0], data[:, 1])


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


def mean(u: BoundaryFunction, rect: Optional[Rectangle] = None, order: int = 32) -> float:
    """Boundary mean of u, i.e. its inner product with the constant 1."""
    return inner_product(u, _ONE, rect=rect, order=order)


def boundary_norm(u: BoundaryFunction, rect: Optional[Rectangle] = None, order: int = 32) -> float:
    """Mean L2 boundary norm sqrt(<u, u>); nan for data that is not finite.

    The Gauss weights are positive, so <u, u> is never negative; it is nan
    exactly when the data is, and that nan must reach the caller.
    """
    return math.sqrt(inner_product(u, u, rect=rect, order=order))


# Entries (modes x nodes) of a factor block built at once: larger blocks only raise peak memory.
_BLOCK_ENTRIES = 1 << 13


def project(
    u: BoundaryFunction, rect: Rectangle, modes: Sequence[SteklovMode], order: int = 32
) -> tuple[float, float, list[float]]:
    """Boundary mean, mean L2 norm and coefficients <u, mode trace> of u, from one grid.

    One composite Gauss grid per edge, with default_panels(u.freq_hint +
    largest nu) panels, carries every integral, and u is evaluated on it once.
    A mode is the product of an x and a y factor; opposite edges share their
    nodes, so on each pair the factor along the edges is one block per
    (class, family), multiplied by the weighted data of both edges at once.
    """
    panels = default_panels(u.freq_hint + max((m.nu for m in modes), default=0.0))
    kinds: dict[tuple, list[int]] = {}
    for i, mode in enumerate(modes):
        kinds.setdefault((mode.kind, mode.symmetry_class, mode.family), []).append(i)
    total, square, coeffs = 0.0, 0.0, np.zeros(len(modes))
    pairs = (((Edge.RIGHT, Edge.LEFT), (1.0, -1.0)), ((Edge.TOP, Edge.BOTTOM), (rect.alpha, -rect.alpha)))
    for pair, ends in pairs:
        t, w = edge_quadrature(rect, pair[0], order, panels)
        hv = np.stack([u.edge_values(rect, edge, t) for edge in pair], axis=1)  # nodes x edges
        wh = w[:, None] * hv
        total += float(np.sum(wh))
        square += float(np.sum(wh * hv))
        vertical = pair[0] == Edge.RIGHT
        x, y = (np.array(ends), t) if vertical else (t, np.array(ends))
        rows = max(1, _BLOCK_ENTRIES // t.size)
        for idx in kinds.values():
            for k in range(0, len(idx), rows):
                part = idx[k : k + rows]
                fx, fy = _factor_block([modes[i] for i in part], x, y)
                along, across = (fy, fx) if vertical else (fx, fy)
                coeffs[part] += np.sum((along @ wh) * across, axis=1)
    per = rect.perimeter
    return total / per, math.sqrt(square / per), (coeffs / per).tolist()


def coefficients(u: BoundaryFunction, modes: Sequence[SteklovMode], order: int = 32) -> list[float]:
    """Expansion coefficients <u, mode trace> against boundary-normalized modes of one rectangle."""
    if not modes:
        return []
    return project(u, modes[0].rect, modes, order)[2]


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
