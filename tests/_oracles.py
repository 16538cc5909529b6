"""Independent numerical oracles used to freeze expected values in tests.

Everything here deliberately avoids the library's own evaluation paths:
roots come from scipy's brentq on directly-written residuals or from
Newton's iteration in 50-digit mpmath on the pole-free product form, boundary
integrals from scipy's fixed_quad on directly-written profiles. The one
exception, paired_inner_product, sums on the library's own edge grid, so that
a quadrature on that grid is compared with a plain per-edge sum on the same
nodes; select_arclength_to_edge is the library's earlier arc-length map, and
fold_by_mirrors and apply_by_increments its earlier fold and apply of a
projection plan, kept to compare their replacements with bit for bit. The
centre's Poisson kernel is summed from its separation-of-variables series in
long double (an x87 long double, eps 1.1e-19, as on x86-64 Linux), and
centre_tail_gap reads only the starting points of its roots from the library.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.integrate import fixed_quad
from scipy.optimize import brentq

from steklov_rect import Edge, Family, ModeId, Rectangle, SymmetryClass, resolve
from steklov_rect.boundary import _boundary_grid, edge_quadrature
from steklov_rect.roots import DeterminingEquation


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


def fold_by_mirrors(u, rect, plan, order):
    """boundary._fold as it was before plans kept their gathers, for finite data: the nodes rebuilt
    from the plan's grids, and per pair the weighted values at -t mirrored, with a zero row for an
    odd grid's middle node, added to or taken from those at t, and zero-padded below."""
    nodes = [(centres[:, None] + offsets).ravel() for centres, offsets, _ in plan.grids]
    values = u._grid_values(rect, _boundary_grid(rect, *nodes))
    total, square, folds = 0.0, 0.0, []
    cut = 2 * nodes[0].size
    for (centres, _, doubled), t, hv, parities in zip(plan.grids, nodes, (values[:cut], values[cut:]), plan.parities):
        weights = doubled[::2]  # the plan keeps each node's weight twice, for its two edges
        q, half = (centres.size + 1) // 2, t.size // 2
        pad = q * order - (t.size - half)
        hv = hv.reshape(t.size, 2)
        wh = (hv.reshape(centres.size, order, 2) * weights[:, None]).reshape(t.size, 2)
        square += float((wh * hv).sum())
        mirror = np.concatenate([np.zeros((t.size % 2, 2)), wh[half - 1 :: -1]])
        below = np.zeros((pad, 2))
        sides, folded = {}, {}
        for even_along, even_across in parities:
            if even_along not in sides:
                sides[even_along] = np.concatenate([below, wh[half:] + mirror if even_along else wh[half:] - mirror])
            part = sides[even_along]
            folded[even_along, even_across] = (part[:, 0] + part[:, 1] if even_across
                                               else part[:, 0] - part[:, 1]).reshape(q, order)
        total += float(folded[True, True].sum())
        folds.append(folded)
    return total / rect.perimeter, math.sqrt(square / rect.perimeter), folds


def apply_by_increments(plan, folds):
    """boundary._apply as it was: each slice's part on each pair of edges added into zeros with +=."""
    coeffs = np.zeros(plan.size)
    for part, pair, (even_along, even_across), across, tables in plan.items:
        data = folds[pair][even_along, even_across]
        if len(tables) == 1:
            coeffs[part] += (tables[0] @ data.ravel()) * across
            continue
        if len(tables) == 3:
            ed, ep, em = tables
            sums = 0.5 * (ep * (ed @ data.T) + (1.0 if even_along else -1.0) * em * (ed @ data[:, ::-1].T))
        else:
            cosd, sind, cc, sc = tables
            cd, sd = cosd @ data.T, sind @ data.T
            sums = cc * cd - sc * sd if even_along else sc * cd + cc * sd
        coeffs[part] += sums.sum(axis=1) * across
    return coeffs


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


# ---------------------------------------------------------------------------
# The centre's Poisson kernel, by separation of variables, in long double

_LD = np.longdouble
_PI = 4 * np.arctan(_LD(1))


def _gauss_long(order):
    """Gauss-Legendre nodes and weights on (-1, 1) in long double: numpy's nodes refined by Newton's
    iteration on the three-term recurrence of the Legendre polynomial of degree order."""
    x = np.polynomial.legendre.leggauss(order)[0].astype(_LD)
    for _ in range(3):
        p0, p1 = np.ones_like(x), x
        for k in range(2, order + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = order * (x * p1 - p0) / (x * x - 1)
        x = x - p1 / dp
    return x, 2 / ((1 - x * x) * dp * dp)


def _long_rule(half, panels, order=20):
    """Nodes and weights in long double of `panels` equal Gauss panels of `order` nodes on (-half, half)."""
    x, w = _gauss_long(order)
    width = 2 * _LD(half) / panels
    centres = width * (np.arange(panels, dtype=_LD) - _LD(panels - 1) / 2)
    return (centres[:, None] + width / 2 * x).ravel(), np.tile(width / 2 * w, panels)


def centre_kernel(alpha, t, horizontal):
    """The Poisson kernel P0 of the centre of (-1, 1) x (-alpha, alpha) at edge coordinates t (long
    double) on the horizontal or the vertical edges: the sum over odd n of cos(n pi t / (2 L)) /
    (2 L cosh(n pi H / (2 L))), L the half-length of those edges and H that of the others, up to the
    terms below 1e-21 of the first. u(0, 0) is the integral of u P0 over the boundary."""
    L, H = (_LD(1), _LD(alpha)) if horizontal else (_LD(alpha), _LD(1))
    n = np.arange(1, 2 * math.ceil(16 * L / H) + 2, 2).astype(_LD)
    return np.cos(np.multiply.outer(t, n * _PI / (2 * L))) @ (1 / (2 * L * np.cosh(n * _PI * H / (2 * L))))


def centre_by_kernel(h, alpha, panels=100, order=20):
    """u(0, 0) of the harmonic function u with boundary values h on (-1, 1) x (-alpha, alpha): the
    integral of h against centre_kernel, `panels` Gauss panels of `order` nodes per edge, the kernel
    and the sum in long double. h is a rule h(x, y) over numpy arrays, or a BoundaryFunction (such as
    sampled data), read through its edge_values."""
    rect, total = Rectangle(alpha), _LD(0)
    for pair, half in (((Edge.RIGHT, Edge.LEFT), alpha), ((Edge.TOP, Edge.BOTTOM), 1.0)):
        t, w = _long_rule(half, panels, order)
        weights, tf = w * centre_kernel(alpha, t, half == 1.0), t.astype(float)
        for edge in pair:
            v = h.edge_values(rect, edge, tf) if hasattr(h, "edge_values") else h(*rect.edge_xy(edge, tf))
            total += np.sum(weights * np.asarray(v, dtype=_LD))
    return float(total)


def centre_tail_gap(alpha, m, order=20):
    """sqrt(P) ||P0 - w_m|| on the boundary of (-1, 1) x (-alpha, alpha), of perimeter P, with
    w_m = (1 + sum_j s_j(0) phi_j) / P over the first m class-I modes phi_j of each family: the
    largest error of the centre value from the mean and those m coefficients, over data of mean L2
    norm 1 (Cauchy-Schwarz, attained). In long double: the roots from mp_root, started at the
    library's, and the profiles cosh(nu u) cos(nu v) with their boundary integrals I in closed form,
    so that s_j(0) phi_j / P = profile / I. The integrand is even in x and y: the right and the top
    edge are summed twice, each in panels narrow enough for the highest frequency in play."""
    per, a = 4 * (1 + _LD(alpha)), _LD(alpha)
    modes = []  # (nu, half-length along the hyperbolic variable, along the trig one, family)
    for fam in Family:
        eq = DeterminingEquation(SymmetryClass.I, fam, alpha)
        for j in range(1, m + 1):
            nu = mp_root(eq, resolve(ModeId.separated(SymmetryClass.I, fam, j), alpha).nu)
            modes.append((_LD(float(nu)) + _LD(float(nu - float(nu))), *((1, a) if fam == Family.X else (a, 1)), fam))
    k = max([8 * math.pi / alpha] + [float(nu) for nu, *_ in modes])
    total = _LD(0)
    for horizontal, half in ((False, alpha), (True, 1.0)):
        t, w = _long_rule(half, math.ceil(half * k / 2) + 1, order)
        x, y = (t, np.full_like(t, a)) if horizontal else (np.full_like(t, _LD(1)), t)
        gap = centre_kernel(alpha, t, horizontal) - 1 / per
        for nu, hu, hv, fam in modes:
            u, v = (x, y) if fam == Family.X else (y, x)
            integral = (2 * np.cosh(nu * hu) ** 2 * (hv + np.sin(2 * nu * hv) / (2 * nu))
                        + 2 * np.cos(nu * hv) ** 2 * (hu + np.sinh(2 * nu * hu) / (2 * nu)))
            gap -= np.cosh(nu * u) * np.cos(nu * v) / integral
        total += 2 * np.sum(w * gap * gap)
    return float(np.sqrt(per * total))
