"""Roots of the eight transcendental equations tan(a*nu) +/- tanh/coth(b*nu) = 0.

Each symmetry class and variable family of separated harmonic Steklov
eigenfunctions on the rectangle has one such determining equation. The
positive roots nu parameterize the spectrum, one root per pole-to-pole
window of the tangent term, so brackets can be written down analytically.
Taken through arctan on its bracket, an equation has no poles, and Newton's
iteration on that form reaches every root to full double precision.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

__all__ = [
    "SymmetryClass",
    "Family",
    "DeterminingEquation",
    "PoleProximityError",
    "NonConvergenceError",
    "residual",
    "bracket",
    "solve_nu",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-12

_POLE_GUARD = 1e-8  # relative guard band around poles of the tangent term, for residual

_PI_HI, _PI_LO = math.pi, 1.2246467991473532e-16  # pi as a double, and the part it misses

# nu - arctan(tanh nu) = artanh(t) - arctan(t) = t**3 * sum_n 2 t**(4n) / (4n + 3), t = tanh(nu); the
# coefficients of the series in t**4, highest power first, as np.polyval reads them
_GAP_SERIES = (2.0 / (4.0 * np.arange(32) + 3.0))[::-1]


class SymmetryClass(enum.Enum):
    """Parity of the eigenfunction in (x, y)."""

    I = "I"      # even, even
    II = "II"    # odd, odd
    III = "III"  # even, odd
    IV = "IV"    # odd, even

    @property
    def even_x(self) -> bool:
        return self in (SymmetryClass.I, SymmetryClass.III)

    @property
    def even_y(self) -> bool:
        return self in (SymmetryClass.I, SymmetryClass.IV)


class Family(enum.Enum):
    """Which variable carries the hyperbolic factor of the eigenfunction."""

    X = "x"  # hyperbolic in x: tan(alpha*nu) vs tanh/coth(nu)
    Y = "y"  # hyperbolic in y: tan(nu) vs tanh/coth(alpha*nu)


_CLASS_ORDER = {SymmetryClass.I: 0, SymmetryClass.II: 1, SymmetryClass.III: 2, SymmetryClass.IV: 3}
_FAMILY_ORDER = {Family.X: 0, Family.Y: 1}


class PoleProximityError(ArithmeticError):
    """nu is too close to a pole of the tangent term to evaluate reliably."""


class NonConvergenceError(ArithmeticError):
    """A root lies where doubles are spaced wider than the tolerance asked for."""


@dataclass(frozen=True)
class DeterminingEquation:
    """residual(nu) = tan(a*nu) + sign * hyp(b*nu) for one (class, family)."""

    symmetry_class: SymmetryClass
    family: Family
    alpha: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")

    @cached_property
    def tan_scale(self) -> float:
        """a: the tangent argument is a*nu."""
        return self.alpha if self.family == Family.X else 1.0

    @cached_property
    def hyp_scale(self) -> float:
        """b: the hyperbolic argument is b*nu."""
        return 1.0 if self.family == Family.X else self.alpha

    @cached_property
    def hyp_cosh(self) -> bool:
        """Whether the hyperbolic variable is even: the factor in it is cosh, else sinh."""
        return self.symmetry_class.even_x if self.family == Family.X else self.symmetry_class.even_y

    @cached_property
    def trig_cos(self) -> bool:
        """Whether the trig variable is even: the factor in it is cos, else sin."""
        return self.symmetry_class.even_y if self.family == Family.X else self.symmetry_class.even_x

    @cached_property
    def uses_coth(self) -> bool:
        # Equating the edge ratios F'/F (tanh or coth) and G'/G (-tan or cot)
        # gives tan = -tanh/-coth for a cos trig factor but tan = 1/tanh etc.
        # for a sin factor, so the equation carries tanh exactly when the two
        # factor parities agree (cosh*cos, sinh*sin) and coth when they differ.
        return self.hyp_cosh != self.trig_cos

    @cached_property
    def sign(self) -> int:
        """+1 when the equation reads tan = -hyp (a cos factor), -1 when tan = +hyp (sin)."""
        return 1 if self.trig_cos else -1


def residual(eq: DeterminingEquation, nu):
    """Left-minus-right side of the determining equation at nu > 0 (a number or an array).

    A diagnostic, which solve_nu does not call. Raises PoleProximityError within a
    relative guard band of the tangent poles, where cancellation dominates the value.
    """
    nu = np.asarray(nu, dtype=float)
    if np.any(nu <= 0.0):
        raise ValueError(f"nu must be positive, got {nu}")
    theta = eq.tan_scale * nu
    # distance from theta to the nearest pole (k + 1/2)*pi of tan
    pole = (np.floor(theta / math.pi) + 0.5) * math.pi
    if np.any(np.abs(theta - pole) < _POLE_GUARD * np.maximum(1.0, np.abs(theta))):
        raise PoleProximityError(f"nu={nu} within guard distance of a tangent pole")
    hyp = np.tanh(eq.hyp_scale * nu)
    value = np.tan(theta) + eq.sign * (1.0 / hyp if eq.uses_coth else hyp)
    return float(value) if value.ndim == 0 else value


def bracket(eq: DeterminingEquation, j):
    """Interval containing exactly the j-th positive root, free of interior poles.

    j may be an int array; lo and hi are then arrays of the same shape. The
    tangent term sweeps all reals once per pole-to-pole window while the
    hyperbolic term stays in (0,1) or (1,inf), so each window holds exactly
    one root; which half-window, and whether window 0 contributes, depends on
    the sign and on tanh vs coth:

    * tan = -tanh: roots where tan is in (-1,0); none in window 0.
    * tan = +tanh: roots where tan is in (0,1); window 0 has a root only for
      the X family with alpha < 1 (at alpha = 1 that root collapses into the
      nu = 0 double root replaced by the xy eigenfunction).
    * tan = +coth: roots where tan > 1, one per window starting at window 0.
    * tan = -coth: roots where tan < -1; none in window 0.
    """
    if np.any(np.asarray(j) < 1):
        raise ValueError(f"root index must be >= 1, got {j}")
    half = 0.5 * math.pi / eq.tan_scale
    if eq.sign > 0:  # tan = -tanh or tan = -coth: the upper half of window j
        return ((2 * j - 1) * half, 2 * j * half)
    # tan = +tanh or tan = +coth: the lower half of window k
    k = j - (1 if eq.uses_coth or eq.tan_scale < eq.hyp_scale else 0)
    return (2 * k * half, (2 * k + 1) * half)


def solve_nu(eq: DeterminingEquation, j, tol: float = DEFAULT_TOL):
    """The j-th strictly positive root of the determining equation, to full double precision.

    j is an int, or an int array of indices solved together (the roots come
    back as an array of the same shape). On its bracket, with a = tan_scale
    and b = hyp_scale, tan(a*nu) = -sign * hyp(b*nu) reads, without poles,
    F(nu) = a*nu - m*pi + sigma * arctan(tanh(b*nu)) = 0: m is the multiple
    of pi nearest a*nu at the bracket's midpoint, less sign/2 for coth
    (arctan coth = pi/2 - arctan tanh), and sigma is sign, negated for coth.
    F' = a + sigma * b / cosh(2*b*nu) is positive from the midpoint to the
    root, which lies above the midpoint where F is concave (sigma = 1) and
    below it where F is convex, so Newton's iteration from the midpoint
    approaches the root from one side; the class II, family x root j = 1 at
    alpha >= 0.7 is the exception (_first_ii_x).

    tol only decides refusal: NonConvergenceError is raised exactly when the
    spacing of doubles at a root is wider than tol (_check_root_tol).
    """
    js = np.asarray(j).ravel()
    a, b, s = eq.tan_scale, eq.hyp_scale, eq.sign
    with np.errstate(over="ignore", invalid="ignore"):  # a bracket past the largest double makes nu nan
        lo, hi = bracket(eq, js)
        x = 0.5 * lo + 0.5 * hi  # the brackets' midpoints, where lo + hi may pass the largest double
        m = np.round(a * x / math.pi) - (0.5 * s if eq.uses_coth else 0.0)
    sigma = -s if eq.uses_coth else s
    done = (js == 1) & (eq.symmetry_class is SymmetryClass.II and eq.family is Family.X and 0.7 <= eq.alpha < 1)
    if done.any():
        x[done] = _first_ii_x(eq.alpha)
    prev = x
    with np.errstate(over="ignore", invalid="ignore"):  # 2 b x overflows to an e of 0 near the largest double
        for _ in range(64):  # a root takes a handful of steps
            if done.all():
                break
            e = np.exp(-2.0 * b * x)  # 1/cosh(2*b*x) = 2e / (1 + e*e), with no overflow
            f = (a * x - m * _PI_HI) - m * _PI_LO + sigma * np.arctan(np.tanh(b * x))
            step = f / (a + sigma * b * (2.0 * e / (1.0 + e * e)))
            new = np.where(done, x, x - step)
            # a step below the spacing of doubles, or a return to the iterate before, is rounding
            done = done | ~(np.abs(step) >= np.spacing(x)) | (new == prev)
            prev, x = x, new
    _check_root_tol(((eq, int(j), float(nu)) for j, nu in zip(js, x)), float(x.max(initial=0.0)), tol)
    return float(x[0]) if np.ndim(j) == 0 else x.reshape(np.shape(j))


def _check_root_tol(roots: Iterable[tuple[DeterminingEquation, int, float]], largest: float, tol: float) -> None:
    """Raise NonConvergenceError if a root lies where doubles are spaced wider than tol.

    roots yields (equation, j, nu) of the roots in use, and largest is their largest nu. The
    spacing never falls as nu grows, so one np.spacing at largest decides; roots is read only to
    name a root past the largest double (whose spacing, nan, no tol accepts) or else the first
    (class, family) in tie-break order with a root past tol, at its lowest such j.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    widest = float(np.spacing(largest))
    if widest <= tol:
        return
    eq, j, nu = min((r for r in roots if not np.spacing(r[2]) <= tol), key=lambda r: (
        math.isfinite(r[2]), _CLASS_ORDER[r[0].symmetry_class], _FAMILY_ORDER[r[0].family], r[1]))
    where = (f"class {eq.symmetry_class.value}, family {eq.family.value}, alpha={eq.alpha!r} (tan({eq.tan_scale!r}*nu)"
             f" = {'-' if eq.sign > 0 else '+'}{'coth' if eq.uses_coth else 'tanh'}({eq.hyp_scale!r}*nu))")
    if not math.isfinite(nu):
        raise NonConvergenceError(f"{where}: root j={j} overflows doubles at this alpha")
    raise NonConvergenceError(
        f"{where}: root j={j} at nu={nu!r} lies where doubles are {float(np.spacing(nu))!r} apart, "
        f"wider than tol={tol!r}; the smallest root tol (--root-tol) accepted is {widest!r}")


def _first_ii_x(alpha: float) -> float:
    """Class II, family x, j = 1 for 0.7 <= alpha < 1: the nu > 0 with arctan(tanh nu) / nu = alpha.

    As alpha -> 1 the root merges into nu = 0 and F loses it to cancellation.
    f(nu) = d(nu) / nu - (1 - alpha), d(nu) = nu - arctan(tanh nu), does not:
    1 - alpha is exact, and d comes from its series in tanh(nu)**4, whose
    terms fall by 4 or more each for nu < 0.89 (alpha > 0.7). f rises from
    -(1 - alpha) but has an inflection at nu = 0.63, so Newton's iteration from
    the root of f's leading term 2 nu**2 / 3 is kept in a bracket.
    """
    c = 1.0 - alpha
    lo, hi = 0.0, math.pi / (4.0 * alpha)  # arctan(tanh nu) < pi/4 puts the root below hi
    x, prev = min(math.sqrt(1.5 * c), hi), hi
    for _ in range(64):
        t = math.tanh(x)
        d = t**3 * np.polyval(_GAP_SERIES, t**4)
        f = d / x - c
        lo, hi = (x, hi) if f < 0.0 else (lo, x)
        # f' = (nu d' - d) / nu**2 with d' = 1 - 1/cosh(2 nu) = 2 sinh(nu)**2 / cosh(2 nu)
        new = x - f * x * x / (2.0 * x * math.sinh(x) ** 2 / math.cosh(2.0 * x) - d)
        new = new if lo <= new <= hi else 0.5 * (lo + hi)
        if abs(new - x) < math.ulp(x) or new == prev:
            break
        prev, x = x, new
    return float(new)
