"""Explicit decay bounds for the central-value coefficients, the certified
central-value tails built from them, and the reference tables.

The even-even expansion coefficients on the square obey
c_j < 2.56 * exp(-2 nu_j) and the mode values at the center obey
s_j(0,0) <= 4.53 * exp(-nu_j); rectangles carry analogous bounds per family.
Actual and bound values both leave the double range for large nu and small
alpha, so records carry logarithms and strictness is asserted in log space.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Rectangle
from .modes import Family, SymmetryClass, _log_norm, _stream
from .roots import DeterminingEquation
from . import stable

__all__ = [
    "BoundKind",
    "DecayBound",
    "check_square_bounds",
    "check_rect_bounds",
    "nu_orderings",
    "square_center_tail",
    "rect_center_tail",
    "TableRow",
    "TableReport",
    "reproduce_tables",
]


class BoundKind(enum.Enum):
    SQUARE_CJ = "square_cj"                     # c_j < 2.56 exp(-2 nu_j)
    SQUARE_CENTER = "square_center"             # s_j(0,0) <= 4.53 exp(-nu_j)
    RECT_C1_STRONG = "rect_c1_strong"           # c_1j < (2.56/alpha) exp(-2 nu1_j)
    RECT_C1_SMALL_ALPHA = "rect_c1_small_alpha"  # c_1j < 4 nu1_j exp(-2 alpha nu1_j)
    RECT_C2 = "rect_c2"                         # c_2j < 2.56 exp(-2 alpha nu2_j)


@dataclass(frozen=True)
class DecayBound:
    """One strict bound record; ok() compares in log space, immune to underflow."""

    kind: BoundKind
    alpha: float
    j: int
    nu: float
    log_actual: float
    log_bound: float

    @property
    def actual_value(self) -> float:
        return stable.exp_or_inf(self.log_actual)

    @property
    def bound_value(self) -> float:
        return stable.exp_or_inf(self.log_bound)

    @property
    def ok(self) -> bool:
        return self.log_actual < self.log_bound


def _class_one(alpha: float, family: Family, j_max: int) -> tuple[list[float], list[float]]:
    """Class-I roots nu_1..nu_jmax of one family and the logs of their normalization integrals."""
    eq = DeterminingEquation(SymmetryClass.I, family, alpha)
    nu = np.array([mode.nu for mode in _stream(eq, j_max)])
    return nu.tolist(), _log_norm(eq, nu).tolist()


def check_square_bounds(j_max: int) -> list[DecayBound]:
    """Strict decay records for the square, j = 1..j_max."""
    if j_max < 1:
        raise ValueError(f"j_max must be >= 1, got {j_max}")
    out: list[DecayBound] = []
    for j, (nu, log_i) in enumerate(zip(*_class_one(1.0, Family.X, j_max)), start=1):
        out += [
            DecayBound(BoundKind.SQUARE_CJ, 1.0, j, nu, -log_i, math.log(2.56) - 2.0 * nu),
            DecayBound(BoundKind.SQUARE_CENTER, 1.0, j, nu, 0.5 * (math.log(8.0) - log_i),
                       math.log(4.53) - nu),
        ]
    return out


def check_rect_bounds(alpha: float, j_max: int) -> list[DecayBound]:
    """Strict decay records for a rectangle with alpha < 1, j = 1..j_max."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"rectangle bounds need 0 < alpha < 1, got {alpha}")
    if j_max < 1:
        raise ValueError(f"j_max must be >= 1, got {j_max}")
    (nu1s, log_is), (nu2s, log_js) = (_class_one(alpha, fam, j_max) for fam in Family)
    out: list[DecayBound] = []
    for j, (nu1, nu2, log_i, log_j) in enumerate(zip(nu1s, nu2s, log_is, log_js), start=1):
        out += [
            DecayBound(BoundKind.RECT_C1_STRONG, alpha, j, nu1, -log_i, math.log(2.56 / alpha) - 2.0 * nu1),
            DecayBound(BoundKind.RECT_C1_SMALL_ALPHA, alpha, j, nu1, -log_i,
                       math.log(4.0 * nu1) - 2.0 * alpha * nu1),
            DecayBound(BoundKind.RECT_C2, alpha, j, nu2, -log_j, math.log(2.56) - 2.0 * alpha * nu2),
        ]
    return out


def nu_orderings(alpha: float, j_max: int) -> list[tuple]:
    """Rows (j, alpha*nu2, alpha*nu1, nu2, nu1) for the two class-I root families.

    The verified ordering is alpha*nu2 < alpha*nu1 < nu2 < nu1: the family-2
    root always lies slightly *above* alpha times the family-1 root, by a gap
    of about exp(-2 alpha nu2).
    """
    (nu1s, _), (nu2s, _) = (_class_one(alpha, fam, j_max) for fam in Family)
    return [(j, alpha * nu2, alpha * nu1, nu2, nu1) for j, (nu1, nu2) in enumerate(zip(nu1s, nu2s), start=1)]


# ---------------------------------------------------------------------------
# Certified central-value tails, per unit of the data norm ||h||.

# On the square each omitted index j contributes at most 2 * 4.53 * exp(-nu_j),
# and consecutive nu are at least pi/2 apart, which the geometric sum uses.
_PAIR_BOUND = 9.06
_CENTER_COEFF = 0.41
_CENTER_COEFF_MIN_INDEX = 3


def square_center_tail(m: int) -> float:
    """Certified |h(0,0) - h_m(0,0)| / ||h|| on the square.

    The closed 0.41 * exp(-nu_m) coefficient is valid from m = 3 on; below
    that the geometric tail summed from nu_{m+1} is used, which is valid for
    every m. The root is read from the solved class-I x-family stream, so it
    is the expansion's own root.
    """
    j = m if m >= _CENTER_COEFF_MIN_INDEX else m + 1
    nu = _stream(DeterminingEquation(SymmetryClass.I, Family.X, 1.0), j)[-1].nu
    if m >= _CENTER_COEFF_MIN_INDEX:
        return _CENTER_COEFF * math.exp(-nu)
    return _PAIR_BOUND * math.exp(-nu) / (1.0 - math.exp(-math.pi))


def rect_center_tail(m: int, alpha: float) -> float:
    """Certified central tail on a strict rectangle from per-term bounds.

    Each omitted class-I term j > m of family X/Y contributes at most
    sqrt(perimeter * c_bound), with c_bound taken at the lower end of the
    analytic root window nu_j in ((j-1/2) pi/a, j pi/a): family X gives
    sqrt(per 2.56/alpha) exp(-(j-1/2) pi/alpha), family Y
    sqrt(per 2.56) exp(-alpha (j-1/2) pi). Both are geometric in j, so the
    tail is their two closed-form sums and needs no root solving.
    """
    per = Rectangle(alpha).perimeter
    x_step, y_step = math.pi / alpha, alpha * math.pi
    return (math.sqrt(per * 2.56 / alpha) * math.exp(-(m + 0.5) * x_step) / -math.expm1(-x_step)
            + math.sqrt(per * 2.56) * math.exp(-(m + 0.5) * y_step) / -math.expm1(-y_step))


# ---------------------------------------------------------------------------
# Reference tables: published nine-digit values for the square.

TABLE1_NU = (2.36502037, 5.49780392, 8.63937983, 11.7809725, 14.9225651, 18.0641578)
TABLE1_DNU = (3.13278355, 3.14157591, 3.14159262, 3.14159265, 3.14159265)
TABLE1_DELTA = (2.32363775, 5.49761947, 8.63937929, 11.7809724, 14.9225651, 18.0641578)
TABLE2_CENTER = (0.36925721, 1.6382475e-2, 7.079865e-4, 3.0594874e-5, 1.3221244e-6, 5.7134174e-8)
TABLE3_C = (1.7043861e-2, 3.35481862e-5, 6.26556108e-8, 1.17005787e-10, 2.18501606e-13, 4.08039237e-16)
TABLE3_RATIO = (1.9683443e-3, 1.8676303e-3, 1.8674431e-3, 1.8674427e-3, 1.8674427e-3)
TABLE4_RELERR = (0.039, 1.7e-3, 7.26e-5)

TOL_TABLE1 = 5e-8
TOL_TABLE23 = 1e-6
# The published relative-error coefficients carry only two significant digits;
# matching them to better than their own rounding is not possible, so the
# acceptance tolerance is the printed half-ulp scale.
TOL_TABLE4 = 2e-2


@dataclass(frozen=True)
class TableRow:
    table: int
    label: str
    computed: float
    published: float
    tol: float

    @property
    def rel_dev(self) -> float:
        return abs(self.computed - self.published) / abs(self.published)

    @property
    def ok(self) -> bool:
        return self.rel_dev <= self.tol


@dataclass(frozen=True)
class TableReport:
    rows: tuple[TableRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def failures(self) -> list[TableRow]:
        return [r for r in self.rows if not r.ok]


def reproduce_tables() -> TableReport:
    """Recompute every published square-spectrum table entry and its deviation.

    Emits nu_j, their first differences and eigenvalues, the central mode
    values, the expansion coefficients c_j = 1/I(1, nu_j) with ratios, and
    the certified relative-error coefficients for the central value
    (square_center_tail for m = 1, 2, 3).
    """
    eq = DeterminingEquation(SymmetryClass.I, Family.X, 1.0)
    modes = _stream(eq, 6)
    nus = [mode.nu for mode in modes]
    cs = [math.exp(-log_i) for log_i in _log_norm(eq, np.array(nus)).tolist()]

    rows = [TableRow(1, f"nu_{j}", nu, TABLE1_NU[j - 1], TOL_TABLE1) for j, nu in enumerate(nus, start=1)]
    rows += [TableRow(1, f"dnu_{j}", nus[j - 1] - nus[j - 2], TABLE1_DNU[j - 2], TOL_TABLE1)
             for j in range(2, 7)]
    rows += [TableRow(1, f"delta_{j}", m.delta, TABLE1_DELTA[j - 1], TOL_TABLE1)
             for j, m in enumerate(modes, start=1)]
    # a class-I mode's value at (0,0) is its scale
    rows += [TableRow(2, f"center_{j}", m.scale, TABLE2_CENTER[j - 1], TOL_TABLE23)
             for j, m in enumerate(modes, start=1)]
    rows += [TableRow(3, f"c_{j}", c, TABLE3_C[j - 1], TOL_TABLE23) for j, c in enumerate(cs, start=1)]
    rows += [TableRow(3, f"c_{j}/c_{j-1}", cs[j - 1] / cs[j - 2], TABLE3_RATIO[j - 2], TOL_TABLE23)
             for j in range(2, 7)]
    tails = [square_center_tail(m) for m in range(1, 4)]
    rows += [TableRow(4, f"relerr_m{m}", v, TABLE4_RELERR[m - 1], TOL_TABLE4)
             for m, v in enumerate(tails, start=1)]
    return TableReport(tuple(rows))
