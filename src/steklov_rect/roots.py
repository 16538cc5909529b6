"""Roots of the eight transcendental equations tan(a*nu) +/- tanh/coth(b*nu) = 0.

Each symmetry class and variable family of separated harmonic Steklov
eigenfunctions on the rectangle has one such determining equation. The
positive roots nu parameterize the spectrum, one root per pole-to-pole
window of the tangent term, so brackets can be written down analytically
and bisection is guaranteed to converge.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SymmetryClass",
    "Family",
    "DeterminingEquation",
    "PoleProximityError",
    "BracketError",
    "NonConvergenceError",
    "residual",
    "bracket",
    "solve_nu",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-12

# Bisection alone when tol is coarser than this; below it, a Newton polish
# runs so the default tolerance reaches full double precision.
_POLISH_CUTOFF = 1e-9

# Relative guard band around poles of the tangent term.
_POLE_GUARD = 1e-8


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


class PoleProximityError(ArithmeticError):
    """nu is too close to a pole of the tangent term to evaluate reliably."""


class BracketError(ArithmeticError):
    """The analytic bracket failed to show a sign change (should not happen)."""


class NonConvergenceError(ArithmeticError):
    """Iteration budget exhausted; the tolerance is below what doubles allow."""


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
    def uses_coth(self) -> bool:
        # Equating the edge ratios F'/F (tanh or coth) and G'/G (-tan or cot)
        # gives tan = -tanh/-coth for a cos trig factor but tan = 1/tanh etc.
        # for a sin factor, so the equation carries tanh exactly when the two
        # factor parities agree (cosh*cos, sinh*sin) and coth when they differ.
        if self.family == Family.X:
            hyp_even, trig_even = self.symmetry_class.even_x, self.symmetry_class.even_y
        else:
            hyp_even, trig_even = self.symmetry_class.even_y, self.symmetry_class.even_x
        return hyp_even != trig_even

    @cached_property
    def sign(self) -> int:
        """+1 when the equation reads tan = -hyp, -1 when tan = +hyp."""
        cls, fam = self.symmetry_class, self.family
        if cls == SymmetryClass.I:
            return +1
        if cls == SymmetryClass.II:
            return -1
        if cls == SymmetryClass.III:
            return -1 if fam == Family.X else +1
        return +1 if fam == Family.X else -1


def _residual(eq: DeterminingEquation, nu: np.ndarray) -> np.ndarray:
    """tan(a*nu) + sign * hyp(b*nu) at every nu of an array, with no pole guard."""
    hyp = np.tanh(eq.hyp_scale * nu)
    if eq.uses_coth:
        hyp = 1.0 / hyp
    return np.tan(eq.tan_scale * nu) + eq.sign * hyp


def _near_pole(eq: DeterminingEquation, nu: np.ndarray) -> np.ndarray:
    """Which nu lie within the relative guard band around a pole of the tangent term."""
    theta = eq.tan_scale * nu
    # Distance from theta to the nearest pole (k + 1/2)*pi of tan.
    k = np.floor(theta / math.pi)
    return np.abs(theta - (k + 0.5) * math.pi) < _POLE_GUARD * np.maximum(1.0, np.abs(theta))


def residual(eq: DeterminingEquation, nu):
    """Left-minus-right side of the determining equation at nu > 0 (a number or an array).

    Raises PoleProximityError within a relative guard band of the tangent
    poles, where the value would be dominated by cancellation; callers must
    shrink their interval instead of trusting a value there.
    """
    nu = np.asarray(nu, dtype=float)
    if np.any(nu <= 0.0):
        raise ValueError(f"nu must be positive, got {nu}")
    if np.any(_near_pole(eq, nu)):
        raise PoleProximityError(f"nu={nu} within guard distance of a tangent pole")
    value = _residual(eq, nu)
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


def _safe_endpoints(eq: DeterminingEquation, lo: np.ndarray, hi: np.ndarray):
    """Nudge bracket endpoints inward past pole guards until signs differ.

    Each bracket is nudged on its own: a pole hit widens its nudge, equal
    signs narrow it. Returns the nudged (lo, hi) and whether the residual is
    negative at lo. No nu between the two nudged ends lies in a guard band.
    """
    span = hi - lo
    nudge = np.maximum(2.0 * _POLE_GUARD * np.maximum(1.0, hi * eq.tan_scale) / eq.tan_scale, 1e-13 * span)
    out_lo, out_hi, out_neg = np.empty_like(lo), np.empty_like(hi), np.empty(lo.shape, dtype=bool)
    todo = np.arange(lo.size)
    for _ in range(8):
        a = np.maximum(lo[todo] + nudge[todo], 1e-300)
        b = hi[todo] - nudge[todo]
        neg_a, neg_b = np.signbit(_residual(eq, a)), np.signbit(_residual(eq, b))
        pole = _near_pole(eq, a) | _near_pole(eq, b)
        ok = ~pole & (neg_a != neg_b)
        done = todo[ok]
        out_lo[done], out_hi[done], out_neg[done] = a[ok], b[ok], neg_a[ok]
        nudge[todo] *= np.where(pole, 4.0, np.where(ok, 1.0, 0.25))
        todo = todo[~ok]
        if todo.size == 0:
            return out_lo, out_hi, out_neg
    raise BracketError(f"no sign change on bracket ({lo[todo[0]]}, {hi[todo[0]]}) for {eq}")


def solve_nu(eq: DeterminingEquation, j, tol: float = DEFAULT_TOL):
    """The j-th strictly positive root of the determining equation.

    j is an int, or an int array of indices solved together (the roots
    come back as an array of the same shape). Each root is localized within
    tol: plain bisection down to that width for coarse tolerances,
    bisection plus a bracketed Newton polish for tight ones. Every root runs
    the iteration it would run alone; the array only shares the numpy
    calls. Roots are strictly increasing in j and successive differences
    approach pi / tan_scale.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    js = np.asarray(j)
    lo, hi = bracket(eq, js.ravel())
    # the iterates stay between the nudged ends, so no residual below needs the pole guard,
    # and the residual keeps its sign at lo
    lo, hi, neg_lo = _safe_endpoints(eq, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    coarse = max(tol, _POLISH_CUTOFF) if tol >= _POLISH_CUTOFF else 1e-6
    while (act := hi - lo > coarse).any():
        mid = 0.5 * (lo + hi)
        fm = _residual(eq, mid)
        up = act & (np.signbit(fm) == neg_lo)  # the root lies above mid
        down = act ^ up
        if not fm.all():  # an exact root closes its bracket onto mid
            zero = act & (fm == 0.0)
            up, down = up | zero, down | zero
        lo, hi = np.where(up, mid, lo), np.where(down, mid, hi)
    x = 0.5 * (lo + hi)
    if tol < _POLISH_CUTOFF:
        x = _polish(eq, js.ravel(), x, lo, hi, neg_lo, tol)
    return float(x[0]) if js.ndim == 0 else x.reshape(js.shape)


def _polish(eq, js, x, lo, hi, neg_lo, tol):
    """Newton polish, kept inside the bracket so tangent poles stay out of reach."""
    a, b, s, coth = eq.tan_scale, eq.hyp_scale, eq.sign, eq.uses_coth
    out, todo = np.empty_like(x), np.arange(x.size)  # todo: the roots still polishing
    for _ in range(60):
        if todo.size == 0:
            return out
        f = _residual(eq, x)
        below = np.signbit(f) == neg_lo
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        t = np.tan(a * x)
        # past b*x = 350 sech^2 / csch^2 are far below an ulp of the tan term
        g = (np.sinh if coth else np.cosh)(np.minimum(b * x, 350.0))
        step = f / (a * (1.0 + t * t) + s * ((-b if coth else b) / (g * g)))
        x_new = x - step
        outside = ~((lo < x_new) & (x_new < hi))
        x_new = np.where(outside, 0.5 * (lo + hi), x_new)
        step = np.where(outside, x_new - x, step)
        x = x_new
        # converge only when the requested localization is certified, either
        # by a small nonzero Newton step or by the bracket width itself
        done = ((0.0 < np.abs(step)) & (np.abs(step) <= 0.25 * tol)) | (hi - lo <= tol)
        out[todo[done]] = x[done]
        todo, x, lo, hi, neg_lo = todo[~done], x[~done], lo[~done], hi[~done], neg_lo[~done]
    if todo.size == 0:
        return out
    raise NonConvergenceError(
        f"root polish for {eq}, j={js[todo[0]]} did not reach tol={tol}; "
        "tolerance is likely below double precision"
    )
