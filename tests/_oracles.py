"""Independent numerical oracles used to freeze expected values in tests.

Everything here deliberately avoids the library's own evaluation paths:
roots come from scipy's brentq on directly-written residuals or from
Newton's iteration in 50-digit mpmath on the pole-free product form, boundary
integrals from scipy's fixed_quad on directly-written profiles. The one
exception, paired_inner_product, sums on the library's own edge grid, so that
a quadrature on that grid is compared with a plain per-edge sum on the same
nodes; select_arclength_to_edge is the library's earlier arc-length map, kept
to compare its replacement with bit for bit.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.integrate import fixed_quad
from scipy.optimize import brentq

from steklov_rect import Edge
from steklov_rect.boundary import edge_quadrature


def root_in(fn, lo, hi):
    """Tight brentq root in (lo, hi), nudged off the endpoints."""
    span = hi - lo
    return brentq(fn, lo + 1e-12 * span + 1e-300, hi - 1e-12 * span, xtol=1e-15, rtol=8.9e-16)


def mp_root(eq, start, dps=50):
    """The root of eq's determining equation next to start, to dps digits.

    tan(a v) = -sign * S(b v) / C(b v) times cos(a v) C(b v) is
    sin(a v) C(b v) + sign * cos(a v) S(b v) = 0, which has no poles; C, S
    are cosh, sinh for the tanh equations and sinh, cosh for the coth ones,
    so C' = S and S' = C. Newton's iteration runs in mpmath from start.
    """
    with mpmath.workdps(dps):
        a, b, s = mpmath.mpf(eq.tan_scale), mpmath.mpf(eq.hyp_scale), eq.sign
        S, C = (mpmath.cosh, mpmath.sinh) if eq.uses_coth else (mpmath.sinh, mpmath.cosh)
        v = mpmath.mpf(start)
        for _ in range(50):
            sa, ca, Sb, Cb = mpmath.sin(a * v), mpmath.cos(a * v), S(b * v), C(b * v)
            step = (sa * Cb + s * ca * Sb) / (a * ca * Cb + b * sa * Sb - s * a * sa * Sb + s * b * ca * Cb)
            v -= step
            if abs(step) <= abs(v) * mpmath.mpf(10) ** (20 - dps):
                return v
    raise AssertionError(f"mpmath Newton iteration from {start} did not settle")


def select_arclength_to_edge(alpha, s):
    """Edges and edge coordinates of arc lengths s, each chosen from the four edges' tests and
    formulas by a whole-array np.select, as Rectangle.arclength_to_edge did before it mapped
    sorted runs."""
    a = alpha
    with np.errstate(invalid="ignore"):
        s0 = np.mod(np.asarray(s, dtype=float), 4.0 * (1.0 + a))
    s1 = s0 - 2 * a
    s2 = s1 - 2.0
    s3 = s2 - 2 * a
    on = [s0 < 2 * a, s1 < 2.0, s2 < 2 * a]
    edges = np.select(on, [Edge.RIGHT, Edge.TOP, Edge.LEFT], Edge.BOTTOM)
    return edges, np.select(on, [-a + s0, 1.0 - s1, a - s2], -1.0 + s3)


def ulps(got, want):
    """|got - want| in units of the spacing of doubles at got."""
    return float(abs(mpmath.mpf(got) - want)) / float(np.spacing(got))


def boundary_integral(fn_xy, alpha, n=160):
    """integral over the rectangle boundary of fn(x, y), single high-order panel per edge."""
    total = 0.0
    # x = 1 and x = -1, y in (-alpha, alpha)
    for xfix in (1.0, -1.0):
        val, _ = fixed_quad(lambda y: fn_xy(np.full_like(y, xfix), y), -alpha, alpha, n=n)
        total += val
    # y = alpha and y = -alpha, x in (-1, 1)
    for yfix in (alpha, -alpha):
        val, _ = fixed_quad(lambda x: fn_xy(x, np.full_like(x, yfix)), -1.0, 1.0, n=n)
        total += val
    return total


def boundary_mean(fn_xy, alpha, n=160):
    return boundary_integral(fn_xy, alpha, n=n) / (4.0 * (1.0 + alpha))


def paired_inner_product(u, v, rect, order, panels_v, panels_h):
    """boundary.inner_product's edge-by-edge sum of u*v over the perimeter, on the grid of
    edge_quadrature with panels_v panels on the vertical edges and panels_h on the horizontal
    ones: the reference for a grid whose two pairs of edges differ in panel count."""
    total = 0.0
    for edge in Edge:
        panels = panels_v if edge in (Edge.RIGHT, Edge.LEFT) else panels_h
        pts, wts = edge_quadrature(rect, edge, order, panels)
        total += float(np.dot(wts, u.edge_values(rect, edge, pts) * v.edge_values(rect, edge, pts)))
    return total / rect.perimeter


def raw_profile(even_x: bool, even_y: bool, hyp_in_x: bool, nu: float):
    """Unnormalized separated eigenfunction profile, written directly."""

    def fn(x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        if hyp_in_x:
            hx = np.cosh(nu * x) if even_x else np.sinh(nu * x)
            ty = np.cos(nu * y) if even_y else np.sin(nu * y)
            return hx * ty
        tx = np.cos(nu * x) if even_x else np.sin(nu * x)
        hy = np.cosh(nu * y) if even_y else np.sinh(nu * y)
        return tx * hy

    return fn


def fd_laplacian(fn, x, y, h=1e-4):
    """Five-point finite-difference Laplacian."""
    return (fn(x + h, y) + fn(x - h, y) + fn(x, y + h) + fn(x, y - h) - 4.0 * fn(x, y)) / (h * h)


def fd_normal_derivative(fn, x, y, nx, ny, h=1e-6):
    """Second-order one-sided normal derivative, stepping inward from (x, y)."""
    f0 = fn(x, y)
    f1 = fn(x - nx * h, y - ny * h)
    f2 = fn(x - 2 * nx * h, y - 2 * ny * h)
    return (3.0 * f0 - 4.0 * f1 + f2) / (2.0 * h)


def rect_tail_series(m, alpha):
    """The central tail on a rectangle as its series: math.fsum of the per-term bounds
    sqrt(per 2.56/alpha) exp(-(j-1/2) pi/alpha) and sqrt(per 2.56) exp(-alpha (j-1/2) pi)
    over j > m, taken until the geometric remainder is below 1e-17."""
    per = 4.0 * (1.0 + alpha)
    terms, j = [], m + 1
    while True:
        x = math.sqrt(per * 2.56 / alpha) * math.exp(-(j - 0.5) * math.pi / alpha)
        y = math.sqrt(per * 2.56) * math.exp(-alpha * (j - 0.5) * math.pi)
        if x / (1.0 - math.exp(-math.pi / alpha)) + y / (1.0 - math.exp(-alpha * math.pi)) < 1e-17:
            return math.fsum(terms)
        terms += [x, y]
        j += 1
