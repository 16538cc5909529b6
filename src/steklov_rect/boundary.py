"""Functions on the rectangle boundary and their inner products.

Integrals use composite Gauss-Legendre panels per edge. Gauss nodes are
interior to panels, so corner values of the data are never touched and
traces may be discontinuous at corners. The panel count scales with the
highest oscillation frequency in play (an integrand cos(nu t) needs panels
proportional to nu times the edge's length); an expansion takes its mean,
norm and coefficients from one grid, each pair of opposite edges sized for
its largest nu.
"""

from __future__ import annotations

import csv
import math
import os
import stat
import threading
from collections import OrderedDict
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .geometry import Edge, Rectangle, _edge_runs
from .modes import InvalidModeError, SteklovMode, _block_factors, _mode_table, _ModeTable, evaluate
from .roots import Family

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
    "coefficient",
    "project",
    "default_panels",
    "load_boundary_csv",
    "builtin_boundary",
    "BUILTIN_NAMES",
]

class BoundaryDataError(ValueError):
    """Sampled boundary data violates the documented format."""


class EdgeCoverageError(BoundaryDataError):
    """A sampled function does not cover some edge with enough points."""


class _Grid(NamedTuple):
    """A quadrature grid on the whole boundary: nodes tv of the vertical edges and th of the
    horizontal ones, and the points (x, y) at which project evaluates the data, pair by pair:
    (1, t) and (-1, t) for each t in tv, then (t, alpha) and (t, -alpha) for each t in th."""

    tv: np.ndarray
    th: np.ndarray
    x: np.ndarray
    y: np.ndarray


def _boundary_grid(rect: Rectangle, tv: np.ndarray, th: np.ndarray) -> _Grid:
    n = 2 * tv.size
    x, y = np.empty(n + 2 * th.size), np.empty(n + 2 * th.size)
    x[:n:2], x[1:n:2], x[n::2], x[n + 1::2] = 1.0, -1.0, th, th
    y[:n:2], y[1:n:2], y[n::2], y[n + 1::2] = tv, tv, rect.alpha, -rect.alpha
    return _Grid(tv, th, x, y)


def _rule_values(fn: Callable, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """fn(x, y) as a float array of the points' shape; a scalar result is broadcast."""
    v = np.asarray(fn(x, y), dtype=float)
    if v.shape == x.shape:
        return v
    try:
        return np.broadcast_to(v, x.shape).copy()
    except ValueError:
        raise BoundaryDataError(
            f"boundary rule returned values of shape {v.shape} for points of shape {x.shape}") from None


class BoundaryFunction:
    """Evaluation contract for data on the boundary of a rectangle.

    Subclasses implement edge_values(rect, edge, t) for arrays of edge
    coordinates at non-corner points; it is the only method they must
    implement. project asks for the data on its whole grid at once, through
    _grid_values, which by default calls edge_values once per edge; analytic
    data and linear combinations evaluate their rules once on all four edges.
    freq_hint is the dominant oscillation frequency (0 for smooth data) and
    drives the default panel count.
    """

    rect: Optional[Rectangle] = None
    freq_hint: float = 0.0

    def edge_values(self, rect: Rectangle, edge: Edge, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _grid_values(self, rect: Rectangle, grid: _Grid) -> np.ndarray:
        """Values at grid.x, grid.y: on RIGHT and LEFT at each node tv, then on TOP and
        BOTTOM at each node th."""
        return np.concatenate([np.stack([self.edge_values(rect, edge, t) for edge in pair], axis=1).ravel()
                               for pair, t in (((Edge.RIGHT, Edge.LEFT), grid.tv),
                                               ((Edge.TOP, Edge.BOTTOM), grid.th))])

    def _check_rect(self, rect: Rectangle) -> None:
        if self.rect is not None and self.rect.alpha != rect.alpha:
            raise BoundaryDataError(
                f"boundary data defined on alpha={self.rect.alpha}, used with alpha={rect.alpha}"
            )


class AnalyticBoundaryFunction(BoundaryFunction):
    """Boundary data given by a rule (x, y) -> value over numpy arrays, refused off its rect if it has one."""

    def __init__(self, fn: Callable, freq_hint: float = 0.0, name: Optional[str] = None):
        self.fn = fn
        self.freq_hint = _check_freq_hint(float(freq_hint))
        self.name = name

    def edge_values(self, rect: Rectangle, edge: Edge, t: np.ndarray) -> np.ndarray:
        self._check_rect(rect)
        return _rule_values(self.fn, *rect.edge_xy(edge, t))

    def _grid_values(self, rect: Rectangle, grid: _Grid) -> np.ndarray:
        self._check_rect(rect)
        return _rule_values(self.fn, grid.x, grid.y)

    def __repr__(self) -> str:  # pragma: no cover
        return f"AnalyticBoundaryFunction({self.name or self.fn})"


def constant_function(c: float) -> AnalyticBoundaryFunction:
    c = float(c)
    return AnalyticBoundaryFunction(lambda x, y: np.full_like(np.asarray(x, float), c), name=f"const:{c}")


class ModeTrace(AnalyticBoundaryFunction):
    """The boundary trace of a resolved mode: the rule evaluate(mode, x, y) on mode.rect."""

    def __init__(self, mode: SteklovMode):
        super().__init__(lambda x, y: evaluate(mode, x, y), mode.nu)
        self.mode = mode
        self.rect = mode.rect


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

    def _grid_values(self, rect: Rectangle, grid: _Grid) -> np.ndarray:
        out = np.zeros_like(grid.x)
        for w, f in self.terms:
            out = out + w * f._grid_values(rect, grid)
        return out


class SampledBoundaryFunction(BoundaryFunction):
    """Boundary data sampled as (arc length, value) pairs.

    Arc length runs counterclockwise from (1, -alpha); samples must be
    strictly increasing in [0, perimeter) with at least two per edge.
    Interpolation is per-edge splines (cubic when enough points), never
    across corners, so per-edge smooth data with corner kinks is fine. The
    samples fall in one run per edge, RIGHT, TOP, LEFT, BOTTOM, each sample at
    the edge and coordinate Rectangle.arclength_to_edge gives it, so one at a
    corner's arc length stays at that corner; the TOP and LEFT runs, along
    which t descends, are reversed to make their knots.
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
        runs = _edge_runs(rect.alpha, s)  # s is sorted, and in [0, perimeter) its own remainder
        for edge, ts, vs in zip(Edge, runs, np.split(v, np.cumsum([r.size for r in runs[:-1]]))):
            if ts.size < 2:
                raise EdgeCoverageError(f"edge {edge.name} has {ts.size} samples; at least 2 required")
            if edge in (Edge.TOP, Edge.LEFT):  # t descends along these edges
                ts, vs = ts[::-1], vs[::-1]
            if np.any(np.diff(ts) == 0):  # arc lengths a rounding apart, near a corner
                raise BoundaryDataError(f"two samples fall on one point of edge {edge.name}")
            # copies: searchsorted would copy reversed knots at every evaluation, and a view of
            # the values would keep the whole table they were read with
            self._splines[edge] = _EdgeSpline(np.ascontiguousarray(ts), np.ascontiguousarray(vs))

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
    cubic from 4 samples, parabola for 3, line for 2, end pieces extended past the ends. The
    interior slopes solve the spline's tridiagonal rows; each end slope comes from its end
    piece's x^3 coefficient."""

    def __init__(self, t: np.ndarray, y: np.ndarray):
        secant = np.diff(y) / (h := np.diff(t))
        if t.size == 2:
            s = np.repeat(secant, 2)  # the line through two samples
        else:
            # CubicSpline's not-a-knot rows: h_1 s_0 + w0 s_1 = r0, w1 s_{n-2} + h_{n-3} s_{n-1} = r1
            # and h_i s_{i-1} + 2 (h_{i-1} + h_i) s_i + h_{i-1} s_{i+1} = r_i for i = 1..n-2
            w0, w1 = t[2] - t[0], t[-1] - t[-3]
            d2 = np.diff(secant) / (t[2:] - t[:-2])  # second divided differences
            s = (h[1] * secant[:1] + h[0] * secant[1:2]) / w0  # the parabola's middle slope
            ends = np.zeros(2)  # the x^3 coefficients of the end pieces: a parabola's are 0
            if t.size > 3:  # rows 1 and n-2 less the end rows, with nothing left to cancel
                r = 3.0 * (h[1:] * secant[:-1] + h[:-1] * secant[1:])
                r[0] = (h[1] ** 2 * secant[0] + h[0] * (2.0 * h[0] + 3.0 * h[1]) * secant[1]) / w0
                r[-1] = (h[-2] ** 2 * secant[-1] + h[-1] * (3.0 * h[-2] + 2.0 * h[-1]) * secant[-2]) / w1
                diag = np.concatenate(([w0], 2.0 * (h[1:-2] + h[2:-1]), [w1]))
                s = _solve_tridiagonal(np.append(0.0, h[2:]), diag, np.append(h[:-2], 0.0), r)
                ends[:] = (d2[1] - d2[0]) / (t[3] - t[0])  # 4 samples: one cubic
            if t.size > 4:
                # the second derivative at t_2 and t_{n-3}, the mean of its two sides weighted by
                # their gaps, matched by the end pieces q + D (x - t_0)(x - t_1)(x - t_2), q the
                # parabola through their samples
                m = (2.0 * (s[[0, -3]] - s[[2, -1]]) + 6.0 * (secant[[2, -2]] - secant[[1, -3]])) / (
                    h[[1, -3]] + h[[2, -2]])
                ends = (0.5 * m - d2[[0, -1]]) / np.array([w0 + h[1], -(w1 + h[-2])])
            # s_0 = q'(t_0) + D h_0 w0, and its mirror: the end rows solved without dividing by h_1,
            # which would amplify the rounding of s_1 by w0 / h_1 where the second gap is short
            s = np.concatenate(([secant[0] - h[0] * (d2[0] - w0 * ends[0])], s,
                                [secant[-1] + h[-1] * (d2[-1] + w1 * ends[1])]))
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


# np.loadtxt opens a str path through np.lib._datasource, which decompresses by these suffixes
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _load_rows(rows: str | list[str], skip: int) -> np.ndarray:
    return np.loadtxt(rows, skiprows=skip, encoding="utf-8-sig", delimiter=",", usecols=(0, 1),
                      ndmin=2, quotechar='"', comments=None)


def _undecodable(fh, exc: UnicodeDecodeError) -> str:
    """The byte a read of the text file fh could not decode, and its offset in the file: the bytes
    that read decoded end where fh's binary stream stands. A pipe has no offset to give."""
    byte = f"byte 0x{exc.object[exc.start]:02x}"
    try:
        return f"{byte} at offset {fh.buffer.tell() - len(exc.object) + exc.start} ({exc.reason})"
    except OSError:
        return f"{byte} ({exc.reason})"


def load_boundary_csv(path, alpha: float) -> SampledBoundaryFunction:
    """Read sampled boundary data: UTF-8 text (a BOM is accepted), a header
    ``arclength,value``, then one sample per line; a line of only spaces or tabs is blank,
    and a line whose first non-blank character is '#' is a comment.

    The header is the first line that is neither blank nor a comment. Lines end at \\n, \\r\\n
    or \\r, as in numpy's text-mode open. Only the lines up to the header and one character
    more are read here; if that character is no line end, numpy parses a regular file named
    without a compressed suffix by its absolute path, in C chunks, skipping those lines. A
    blank or comment line after the header fails that parse, as a bad row or a byte that is
    not UTF-8 does: numpy's ValueError is the one rule that sends a file to the fallback,
    which reads the whole text and parses its non-blank, non-comment lines after the header,
    and also reports a bad row. A pipe or a compressed name goes there at once.
    """
    rect = Rectangle(alpha)
    with open(path, encoding="utf-8-sig") as fh:
        try:
            header, skip = "", 0
            while not header.strip() or header.lstrip().startswith("#"):
                if not (line := fh.readline()):
                    raise BoundaryDataError(f"{path}: empty boundary data file")
                header, skip = line.removesuffix("\n"), skip + 1
            first = next(csv.reader([header]))
            if [c.strip().lower() for c in first][:2] != ["arclength", "value"]:
                raise BoundaryDataError(f"{path}: expected header 'arclength,value', got {first}")
            # numpy opens the file again by name: a pipe would read empty the second time, a
            # compressed suffix would be decompressed, and a file without rows would warn
            data, rest = None, fh.read(1)
            if (rest not in ("", "\n") and stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
                    and isinstance(path, (str, bytes, os.PathLike))
                    and not os.fsdecode(path).lower().endswith(_COMPRESSED)):
                try:  # absolute: never read as a URL
                    data = _load_rows(os.fsdecode(os.path.abspath(path)), skip)
                except ValueError:  # numpy skips only empty lines and reads no comments
                    pass
            if data is None:  # the lines after the header that are neither blank nor comments
                rest += fh.read()
                rows = [ln for ln in rest.split("\n") if ln.strip() and not ln.lstrip().startswith("#")]
        except UnicodeDecodeError as exc:
            raise BoundaryDataError(f"{path}: not UTF-8 text: {_undecodable(fh, exc)}") from exc
    if data is None:
        try:
            data = _load_rows(rows, 0) if rows else np.empty((0, 2))  # loadtxt warns on no data
        except ValueError as exc:
            raise BoundaryDataError(f"{path}: bad row: {exc}") from exc
    return SampledBoundaryFunction(rect, data[:, 0], data[:, 1])


# ---------------------------------------------------------------------------
# Quadrature

_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on (-1, 1), each averaged with its mirror image (a
    rounding apart), so the nodes are odd and the weights even bit for bit; an odd order's
    middle node is exactly 0."""
    if not 2 <= order <= _MAX_ORDER:
        raise ValueError(f"quadrature order must be in [2, {_MAX_ORDER}], got {order}")
    if order not in _GAUSS_CACHE:
        nodes, weights = np.polynomial.legendre.leggauss(order)
        _GAUSS_CACHE[order] = 0.5 * (nodes - nodes[::-1]), 0.5 * (weights + weights[::-1])
    return _GAUSS_CACHE[order]


# leggauss solves a dense order x order eigenproblem: time grows as order^3, memory as order^2
_MAX_ORDER = 1024
# more panels than this would take gigabytes, for modes or data beyond any quadrature here
_MAX_PANELS = 2**15


def _check_freq_hint(hint: float) -> float:
    """A freq_hint, which sizes the grid: a negative one would shrink it below what the modes
    need, and nan or inf leave no panel count."""
    if not 0.0 <= hint < math.inf:
        raise BoundaryDataError(f"freq_hint must be finite and >= 0, got {hint!r}")
    return hint


def default_panels(freq: float) -> int:
    """Panels per edge for integrands oscillating like cos(freq * t)."""
    panels = max(4, math.ceil(freq / math.pi))
    if panels > _MAX_PANELS:
        raise BoundaryDataError(
            f"frequency {freq:g} needs {panels:.3g} quadrature panels per edge, over {_MAX_PANELS}")
    return panels


def _panel_grid(half: float, order: int, panels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The composite Gauss rule of `panels` equal panels on (-half, half): the panel centres
    c_p, the node offsets d_k about a centre and the weights of those nodes. Node k of panel
    p is c_p + d_k; c and d are odd bit for bit, so the nodes are mirror-symmetric about 0."""
    nodes, weights = _gauss(order)
    width = 2.0 * half / panels
    return width * (np.arange(panels) - 0.5 * (panels - 1)), 0.5 * width * nodes, 0.5 * width * weights


def edge_quadrature(
    rect: Rectangle, edge: Edge, order: int, panels: int
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights in the edge coordinate, mirror-symmetric about
    0 bit for bit: the nodes c_p + d_k of _panel_grid, panel by panel."""
    centres, offsets, weights = _panel_grid(rect.edge_range(edge)[1], order, panels)
    return (centres[:, None] + offsets).ravel(), np.tile(weights, panels)


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
    fixed order. No library code calls it: project takes every integral an
    expansion needs on one grid, and this edge-by-edge sum is the reference
    it is tested against.
    """
    if rect is None:
        rect = u.rect or v.rect
        if rect is None:
            raise ValueError("rect must be given when neither function carries one")
    if panels is None:
        panels = default_panels(_check_freq_hint(u.freq_hint) + _check_freq_hint(v.freq_hint))
    total = 0.0
    for edge in Edge:
        pts, wts = edge_quadrature(rect, edge, order, panels)
        total += float(np.dot(wts, u.edge_values(rect, edge, pts) * v.edge_values(rect, edge, pts)))
    return total / rect.perimeter


def project(
    u: BoundaryFunction, rect: Rectangle, modes: Sequence[SteklovMode], order: int = 32
) -> tuple[float, float, list[float]]:
    """Boundary mean, mean L2 norm and coefficients <u, mode trace> of u, from one grid.

    One composite Gauss grid per pair of opposite edges carries every integral,
    and u is evaluated on it once. A pair of half-length L (1 for top and
    bottom, alpha for left and right) gets default_panels(L * (u.freq_hint +
    largest nu)) panels, the same resolution per period on both pairs.
    A mode is the product of an x and a y factor; opposite edges share their
    nodes, so on each pair the factor along the edges is summed against the
    weighted data per (class, family), and the factor across them is taken
    at one end. Both factors are even or odd and the grid symmetric, so the
    data is folded by both parities: onto the nodes t >= 0 of one edge.
    There, node t of panel p is c_p + d_k, with c_p the panel centre, and
    addition formulas make the factor along the edges a sum of two products
    of a (mode, panel) and a (mode, node) table: two matrix products a block.
    The modes are gathered and grouped by (class, family) into one table,
    whose grid and tables are kept as the solvers keep theirs (_plan). Data
    with a value that is not finite, or whose mean or mean square overflows,
    raises BoundaryDataError.
    """
    if any(m.alpha != rect.alpha for m in modes):
        raise InvalidModeError(f"modes of another rectangle projected on alpha={rect.alpha}")
    mean, norm, coeffs = _project(u, rect, _mode_table(modes), order)
    return mean, norm, coeffs.tolist()


def _layout(panels: int, order: int) -> tuple[int, int, int]:
    """How a pair's grid of panels x order nodes folds onto its nodes t >= 0: (q, half, pad), q the
    panels centred at t >= 0, half the nodes t < 0 (an odd grid's middle node t = 0 stays above,
    unpaired), pad the zeros for the nodes t < 0 of a middle panel, so the upper half is q panels."""
    q, size = (panels + 1) // 2, panels * order
    return q, size // 2, q * order - (size - size // 2)


def _gather(panels: int, order: int, start: int, zero: int) -> np.ndarray:
    """Where _fold finds the mirror images of each folded node (_layout) of a pair whose nodes start
    at row `start` of the weighted values, one row per node (edge A, edge B): a (2, q * order) array
    of the rows at t and at -t, of the smallest unsigned type that holds them (uint16 below 65536
    nodes). The pad rows and the image at -t of an odd grid's middle node t = 0 read the zero row
    `zero`."""
    _, half, pad = _layout(panels, order)
    up = np.arange(half, panels * order)
    down = panels * order - 1 - up  # the node at -t: the middle node t = 0 is its own
    index = start + np.stack([up, down])
    index[1, down == up] = zero
    return np.concatenate([np.full((2, pad), zero), index], axis=1).astype(np.min_scalar_type(zero))


def _tables(table: _ModeTable, alpha: float, order: int, grids: Sequence[tuple],
            nodes: Sequence[np.ndarray]) -> Iterator[tuple]:
    """The tables of _apply, one slice of table.blocks and pair of edges of a plan's grids
    at a time: (rows, pair, parities, across, tables), with pair 0 for the vertical edges and 1
    for the horizontal ones, parities (even along, even across) naming the folded data the slice
    reads, across the factors at the pair's end, and tables one of
    - (factors along the edges at the folded nodes,) for the constant and the xy mode,
    - (e^(nu d), e^(L + nu c), e^(L - nu c)) where the factor along the edges is hyperbolic,
    - (cos nu d, sin nu d, cos nu c, sin nu c) where it is trigonometric,
    with c the centres of the folded panels and d the node offsets."""
    pairs, ups = [], []  # (centres at t >= 0, offsets) per pair, and the nodes of the folded data
    for (centres, offsets, _), t in zip(grids, nodes):
        q, half, pad = _layout(centres.size, order)
        pairs.append((centres[centres.size - q:], offsets))
        ups.append(np.concatenate([np.zeros(pad), t[half:]]))
    # x factors at x = 1 (across the vertical pair), then at the folded nodes of the horizontal
    # pair; y factors at y = alpha, then at those of the vertical pair
    x, y = np.concatenate([[1.0], ups[1]]), np.concatenate([[alpha], ups[0]])
    width = 2 * max(order, *(centres.size for centres, _ in pairs))  # of the widest table
    for part, eq, nu, log_scale, (even_x, even_y) in table.blocks(width):
        # the constant and the xy mode keep their factors at the nodes; a separated mode's
        # factor along the edges comes from the tables below
        fx, fy = _block_factors(table.modes, part, eq, nu, log_scale, *((x, y) if eq is None else (x[:1], y[:1])))
        for pair, (centres, offsets) in enumerate(pairs):
            vertical = pair == 0
            along, across = (fy, fx[:, 0]) if vertical else (fx, fy[:, 0])
            parities = (even_y, even_x) if vertical else (even_x, even_y)
            if eq is None:
                yield part, pair, parities, across, (along[:, 1:],)
                continue
            nc, nd = nu * centres, nu * offsets
            if (eq.family == Family.Y) == vertical:  # hyperbolic along the edges
                yield part, pair, parities, across, (np.exp(nd), np.exp(log_scale + nc), np.exp(log_scale - nc))
            else:
                yield part, pair, parities, across, (np.cos(nd), np.sin(nd), np.cos(nc), np.sin(nc))


class _Plan(NamedTuple):
    """All of a projection on one grid that depends on the mode table and the grid only: the number
    of modes; per pair of edges, the vertical pair (half-length alpha) first, the centres and offsets
    of its _panel_grid with its weights, each twice (edge A, edge B, as the values lie), its nodes
    (tv, then th, of _Grid), the _gather of its folded nodes' mirror images and the (even along, even
    across) parities of the folded data its slices read, with (even, even), which the mean reads; and
    _tables' items. Beside the tables of its items, a plan holds 1.25 values per node below 65536
    nodes: the node, and its gather's two uint16 per folded node. The boundary points, 4 values per
    node, are made from the nodes at each call (_boundary_grid, a few us)."""

    size: int
    grids: tuple[tuple, ...]
    nodes: tuple[np.ndarray, np.ndarray]
    gathers: tuple[np.ndarray, ...]
    parities: tuple[frozenset, ...]
    items: Iterable[tuple]


def _streamed_plan(table: _ModeTable, alpha: float, order: int, panels: tuple[int, int]) -> _Plan:
    """The plan of a table's modes on a grid of panels, its tables streamed: each slice's are built
    as _apply reaches it and dropped after."""
    evens = {g.even for g in table.groups} | {(True, True)}  # (even x, even y), as along the horizontal pair
    panel_grids = (_panel_grid(half, order, n) for half, n in zip((alpha, 1.0), panels))
    grids = tuple((centres, offsets, np.repeat(weights, 2)) for centres, offsets, weights in panel_grids)
    tv, th = ((centres[:, None] + offsets).ravel() for centres, offsets, _ in grids)
    zero = tv.size + th.size  # the row after the weighted values, which _fold sets to 0
    gathers = _gather(panels[0], order, 0, zero), _gather(panels[1], order, tv.size, zero)
    return _Plan(len(table.modes), grids, (tv, th), gathers,
                 (frozenset((ey, ex) for ex, ey in evens), frozenset(evens)),
                 _tables(table, alpha, order, grids, (tv, th)))


# projection plans kept per process: a plan of more than _TABLE_VALUES values (1 MB), counting per pair
# of n panels, q of them folded, 2 (order + q) values of tables per mode and (n + q) order values of
# nodes and gather, is streamed and not kept; at order 32, M = 400 modes take about 0.66 MB in their
# tables and 0.03 MB in nodes and gathers, and the 24 modes of a central value at m = 12 8-42 KB in
# nodes and gathers. The entries share one budget of 12 such entries, about 12 MB, and each is
# charged its arrays' and its key's bytes over 8 plus _HELD_EXTRA (512 bytes) per array and per entry,
# above what an array object (about 170 bytes) or an empty entry (about 360) takes, so entries of few
# modes count too
_TABLE_VALUES = 1 << 17
_HELD_EXTRA = 64


class _Store:
    """Values kept per key while the charges of the entries stay within budget values, the least
    recently used dropped first to make room. A miss calls build() for the value and the arrays it
    holds, and is charged their bytes and the key's bytes in values of 8 bytes. Keys name contents (a
    mode table's key, coordinates' bytes), so any table of the same modes finds the entry, which holds
    no table. The bookkeeping runs under a lock; a miss builds its value outside it."""

    def __init__(self, budget: int):
        self.budget = budget
        self._lock = threading.Lock()
        self.clear()

    def clear(self) -> None:
        with self._lock:
            self.entries: OrderedDict = OrderedDict()  # key -> (charge, value)
            self.charged = self.hits = self.misses = 0

    def __call__(self, key: tuple, build: Callable[[], tuple[object, Sequence[np.ndarray]]]):
        with self._lock:
            entry = self.entries.get(key)
            if entry is not None:
                self.hits += 1
                self.entries.move_to_end(key)
                return entry[1]
            self.misses += 1
        value, arrays = build()
        held = sum(a.nbytes for a in arrays) + sum(len(k) for k in key if isinstance(k, bytes))
        charge = held // 8 + _HELD_EXTRA * (len(arrays) + 1)
        with self._lock:
            if key not in self.entries:  # else another thread kept the same value meanwhile
                while self.entries and self.charged + charge > self.budget:
                    self.charged -= self.entries.popitem(last=False)[1][0]
                self.entries[key] = charge, value
                self.charged += charge
        return value


_kept_tables = _Store(12 * _TABLE_VALUES)


def _plan(table: _ModeTable, alpha: float, order: int, panels: tuple[int, int]) -> _Plan:
    """The plan of a table's modes on a grid of panels, kept per (table.key, alpha, order, panels)
    (_kept_tables) with its tables as a list, unless it passes _TABLE_VALUES values: then streamed."""
    layouts = [(n, _layout(n, order)[0]) for n in panels]
    if sum(2 * len(table.modes) * (order + q) + order * (n + q) for n, q in layouts) > _TABLE_VALUES:
        return _streamed_plan(table, alpha, order, panels)

    def build():
        plan = _streamed_plan(table, alpha, order, panels)
        plan = plan._replace(items=list(plan.items))
        return plan, [*(a for grid in plan.grids for a in grid), *plan.nodes, *plan.gathers,
                      *(a for rows, _, _, across, tables in plan.items for a in (rows, across, *tables))]

    return _kept_tables((table.key, alpha, order, panels), build)


def _fold(u: BoundaryFunction, rect: Rectangle, plan: _Plan, order: int) -> tuple[float, float, list[dict]]:
    """The boundary mean and mean L2 norm of u on the plan's grid, and per pair of edges its weighted
    values folded onto the nodes t >= 0 of one edge (_layout), as q panels x order nodes, by each
    (even along, even across) parity the plan's slices read: (a +- b) +- (c +- d) of the four mirror
    images the pair's gather lines up. The one check of the data: one with a value that is not
    finite, or whose mean or mean square overflows, raises BoundaryDataError."""
    with np.errstate(over="ignore", invalid="ignore"):  # such data is refused below
        values = u._grid_values(rect, _boundary_grid(rect, *plan.nodes))
        weighted = np.empty(values.size + 2)  # and the zero row the gathers read for pad and t = 0
        weighted[-2:] = 0.0
        rows = weighted.reshape(-1, 2)  # node by node: edge A, edge B
        total, square, folds, start = 0.0, 0.0, [], 0
        for (centres, _, weights), gather, parities in zip(plan.grids, plan.gathers, plan.parities):
            end = start + centres.size * weights.size
            hv = values[start:end].reshape(centres.size, weights.size)  # panels x (nodes x edges)
            wh = np.multiply(hv, weights, out=weighted[start:end].reshape(hv.shape))
            square += float((wh * hv).sum())  # contiguous: the sum of the squares adds it in this order
            images = rows.take(gather, axis=0)  # [at t, at -t] x folded nodes x [A, B]
            a, b, c, d = images[0, :, 0], images[1, :, 0], images[0, :, 1], images[1, :, 1]
            sides, folded = {}, {}
            for even_along, even_across in parities:
                if even_along not in sides:
                    sides[even_along] = (a + b, c + d) if even_along else (a - b, c - d)
                one, other = sides[even_along]
                folded[even_along, even_across] = (one + other if even_across else one - other).reshape(-1, order)
            total += float(folded[True, True].sum())  # data odd along or across the pair folds to 0
            folds.append(folded)
            start = end
    mean, norm = total / rect.perimeter, math.sqrt(square / rect.perimeter)
    if not (math.isfinite(mean) and math.isfinite(norm)):
        what = ("not finite" if not np.isfinite(values).all() else "finite, but its mean square overflows"
                if math.isfinite(mean) else "finite, but its mean overflows")
        raise BoundaryDataError(f"boundary data is {what}: mean = {mean!r}, norm = {norm!r}")
    return mean, norm, folds


def _apply(plan: _Plan, folds: Sequence[dict]) -> np.ndarray:
    """The integrals over the boundary of the folded data (_fold) against the plan's modes, in the
    order of its table's modes: the perimeter times the coefficients. Each slice's rows are written
    once, (0.0 + its vertical pair's part) + its horizontal pair's, the sums two += into zeros make."""
    coeffs = np.empty(plan.size)
    for part, pair, (even_along, even_across), across, tables in plan.items:
        data = folds[pair][even_along, even_across]
        if len(tables) == 1:
            sums = (tables[0] @ data.ravel()) * across
        else:
            if len(tables) == 3:  # with log_scale L,
                # e^L cosh or sinh nu (c + d) = (e^(L + nu c) e^(nu d) +- e^(L - nu c) e^(-nu d)) / 2,
                # where e^(-nu d_k) = e^(nu d_(K-1-k)) on the symmetric nodes
                ed, ep, em = tables
                sums = 0.5 * (ep * (ed @ data.T) + (1.0 if even_along else -1.0) * em * (ed @ data[:, ::-1].T))
            else:  # cos nu (c + d) = cos nu c cos nu d - sin nu c sin nu d, sin likewise
                cosd, sind, cc, sc = tables
                cd, sd = cosd @ data.T, sind @ data.T
                sums = cc * cd - sc * sd if even_along else sc * cd + cc * sd
            sums = sums.sum(axis=1) * across
        if pair == 0:  # _tables gives each slice's pairs in turn
            vertical = sums
        else:
            coeffs[part] = (0.0 + vertical) + sums
    return coeffs


def _project(u: BoundaryFunction, rect: Rectangle, table: _ModeTable, order: int) -> tuple[float, float, np.ndarray]:
    """project against the modes of a table, all of them of rect, with the coefficients as one array
    in the order of the table's modes: the data folded on the grid of the table's plan, then the plan
    applied to the folds. Per call, only the boundary points, the data and its folds are made, unless
    the plan is streamed."""
    freq = _check_freq_hint(u.freq_hint) + table.max_nu  # the constant and the xy mode have nu = 0
    plan = _plan(table, rect.alpha, order, (default_panels(rect.alpha * freq), default_panels(freq)))
    mean, norm, folds = _fold(u, rect, plan, order)
    return mean, norm, _apply(plan, folds) / rect.perimeter


def coefficient(u: BoundaryFunction, mode: SteklovMode, order: int = 32) -> float:
    """Expansion coefficient <u, mode trace> against a boundary-normalized mode."""
    return project(u, mode.rect, [mode], order)[2][0]


# ---------------------------------------------------------------------------
# Built-in boundary data: exact harmonic functions, so runs are self-checking. Powers are
# written as products: x * x * x is exactly odd in x on floats, numpy's x**3 is not.

_POLYNOMIALS: dict[str, Callable] = {
    "x": lambda x, y: x + 0.0 * y,
    "y": lambda x, y: y + 0.0 * x,
    "xy": lambda x, y: x * y,
    "x2-y2": lambda x, y: x * x - y * y,
    "x3-3xy2": lambda x, y: x * x * x - 3 * x * y * y,
    "3x2y-y3": lambda x, y: 3 * x * x * y - y * y * y,
    "x4-6x2y2+y4": lambda x, y: x * x * x * x - 6 * x * x * y * y + y * y * y * y,
    "4x3y-4xy3": lambda x, y: 4 * x * x * x * y - 4 * x * y * y * y,
}

_WAVES: dict[str, tuple[Callable, Callable]] = {
    "coshcos": (np.cosh, np.cos),
    "sinhsin": (np.sinh, np.sin),
    "coscosh": (np.cos, np.cosh),
    "sinsinh": (np.sin, np.sinh),
}

BUILTIN_NAMES = tuple(sorted(["const", *_POLYNOMIALS, *_WAVES]))


def builtin_boundary(ident: str) -> AnalyticBoundaryFunction:
    """Resolve a builtin name like 'x2-y2', 'const:7' or 'coshcos:2.365'.

    Every entry is harmonic on the whole plane, so its interior values are
    known exactly through the attached .fn callable.
    """
    name, _, param = ident.partition(":")
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown builtin '{name}'; choices: {', '.join(BUILTIN_NAMES)}")
    if name in _POLYNOMIALS:
        if param:
            raise ValueError(f"builtin '{name}' takes no parameter")
        return AnalyticBoundaryFunction(_POLYNOMIALS[name], name=name)
    if not param:
        raise ValueError("builtin 'const' needs a value, e.g. const:7" if name == "const"
                         else f"builtin '{name}' needs a frequency, e.g. {name}:2.5")
    value = float(param)
    if not math.isfinite(value):
        raise ValueError(f"builtin '{name}' needs a finite parameter, got {param!r}")
    if name == "const":
        return constant_function(value)
    f, g = _WAVES[name]
    return AnalyticBoundaryFunction(lambda x, y: f(value * x) * g(value * y), abs(value), f"{name}:{param}")
