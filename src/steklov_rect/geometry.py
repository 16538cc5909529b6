"""Rectangle domains (-1,1) x (-alpha,alpha) and their boundary parameterization."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["Edge", "Rectangle", "BoundaryPoint", "DomainError", "CornerError"]

# Slack of the boundary tests: a point this far past an edge is inside, this near a corner at it.
_TOL = 1e-12


class DomainError(ValueError):
    """A point lies outside the closed rectangle or off the named edge."""


class CornerError(ValueError):
    """The requested quantity is undefined at a corner of the rectangle."""


class Edge(enum.IntEnum):
    """Boundary edges, numbered counterclockwise starting from the right side.

    The edge coordinate t is y on the vertical edges (RIGHT/LEFT) and x on
    the horizontal edges (TOP/BOTTOM).
    """

    RIGHT = 1   # x = +1,      t = y in [-alpha, alpha]
    TOP = 2     # y = +alpha,  t = x in [-1, 1]
    LEFT = 3    # x = -1,      t = y in [-alpha, alpha]
    BOTTOM = 4  # y = -alpha,  t = x in [-1, 1]


@dataclass(frozen=True)
class BoundaryPoint:
    """A non-ambiguous point on the boundary: edge, edge coordinate, and x/y."""

    edge: Edge
    t: float
    x: float
    y: float


@dataclass(frozen=True)
class Rectangle:
    """The domain (-1,1) x (-alpha,alpha) with aspect ratio alpha in (0,1].

    Wider-than-tall rectangles are handled by rotating the data a quarter
    turn and rescaling so the half-width is 1, hence the restriction on alpha.
    """

    alpha: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"aspect ratio must satisfy 0 < alpha <= 1, got {self.alpha}")

    @property
    def perimeter(self) -> float:
        return 4.0 * (1.0 + self.alpha)

    def edge_range(self, edge: Edge) -> tuple[float, float]:
        """Range of the edge coordinate t on the given edge."""
        if edge in (Edge.RIGHT, Edge.LEFT):
            return (-self.alpha, self.alpha)
        return (-1.0, 1.0)

    def edge_xy(self, edge: Edge, t):
        """Cartesian coordinates of edge points; t may be an array."""
        t = np.asarray(t, dtype=float)
        if edge == Edge.RIGHT:
            return np.full_like(t, 1.0), t
        if edge == Edge.TOP:
            return t, np.full_like(t, self.alpha)
        if edge == Edge.LEFT:
            return np.full_like(t, -1.0), t
        return t, np.full_like(t, -self.alpha)

    def boundary_point(self, edge: Edge, t: float) -> BoundaryPoint:
        lo, hi = self.edge_range(edge)
        if not (lo <= t <= hi):
            raise DomainError(f"t={t} outside {edge.name} range [{lo}, {hi}]")
        x, y = self.edge_xy(edge, t)
        return BoundaryPoint(edge, float(t), float(x), float(y))

    def contains(self, x, y) -> bool:
        """True when (x, y) lies in the closed rectangle (within _TOL)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return bool(np.all(np.abs(x) <= 1.0 + _TOL) and np.all(np.abs(y) <= self.alpha + _TOL))

    # Arc length runs counterclockwise from the vertex (1, -alpha):
    # RIGHT upward, TOP leftward, LEFT downward, BOTTOM rightward.
    def arclength_to_edge(self, s) -> tuple[np.ndarray, np.ndarray]:
        """Edges and edge coordinates t of arc lengths s (an array or a number): s is taken
        modulo the perimeter and sorted, and _edge_runs maps the sorted values."""
        with np.errstate(invalid="ignore"):  # inf maps to nan, as with Python's %
            s0 = np.mod(np.asarray(s, dtype=float), self.perimeter)
        order = np.argsort(s0, axis=None, kind="stable")
        runs = _edge_runs(self.alpha, np.ravel(s0)[order])
        edges, t = np.empty(np.shape(s0), dtype=np.int64), np.empty(np.shape(s0))
        edges.flat[order] = np.repeat(np.array(Edge), [r.size for r in runs])
        t.flat[order] = np.concatenate(runs)
        return edges, t

    def arclength_to_point(self, s: float) -> BoundaryPoint:
        edge, t = self.arclength_to_edge(float(s))
        return self.boundary_point(Edge(int(edge)), float(t))

    def arclength_of(self, edge: Edge, t: float) -> float:
        a = self.alpha
        if edge == Edge.RIGHT:
            return t + a
        if edge == Edge.TOP:
            return 2 * a + (1.0 - t)
        if edge == Edge.LEFT:
            return 2 * a + 2.0 + (a - t)
        return 4 * a + 2.0 + (t + 1.0)

    def is_corner(self, edge: Edge, t: float) -> bool:
        lo, hi = self.edge_range(edge)
        return t <= lo + _TOL or t >= hi - _TOL

    def __str__(self) -> str:  # pragma: no cover
        return f"(-1,1)x(-{self.alpha},{self.alpha})"


def _edge_runs(alpha: float, s: np.ndarray) -> list[np.ndarray]:
    """The edge coordinates t of sorted arc lengths s (nan last), in runs of RIGHT, TOP, LEFT and
    BOTTOM, each in the order of s. The edge spans are subtracted in turn, and a run ends where
    what is left stops being below its edge's span: the test and t come from one difference, so
    an arc length that rounds onto a corner lands there, on the edge t belongs to."""
    a, runs = alpha, []
    for span, t_of in ((2 * a, lambda d: -a + d), (2.0, lambda d: 1.0 - d), (2 * a, lambda d: a - d)):
        n = int(np.searchsorted(s, span))  # the count of s < span
        runs.append(t_of(s[:n]))
        s = s[n:] - span
    runs.append(-1.0 + s)
    return runs


def check_interior(rect: Rectangle, x, y) -> None:
    """Raise DomainError unless all points lie in the closed rectangle."""
    if not rect.contains(x, y):
        raise DomainError(f"point outside the closed rectangle {rect}")
