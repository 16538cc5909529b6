"""Reference computations that the benchmark checks the program against.

Nothing here calls into steklov_rect. Roots come from scipy's brentq on the
eight determining equations written out below and must lie in their analytic
quarter-windows; normalizations come from closed-form edge integrals in
mpmath; harmonic inputs carry their exact values; the
published table values are copied from the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import mpmath
import numpy as np
from scipy.integrate import fixed_quad
from scipy.optimize import brentq

# Central values may exceed the truncation certificate by rounding and
# quadrature error, which the certificate does not cover. 1e-13 * ||h||
# is about 450 ulp of the data scale (see README).
CENTRAL_ALLOWANCE = 1e-13

ROOT_RTOL = 1e-12
SCALE_RTOL = 1e-11
DELTA_RTOL = 1e-13

_PARITY = {"I": (True, True), "II": (False, False), "III": (True, False), "IV": (False, True)}

# tan(a*nu) = sign * hyp(b*nu) for each (class, family); a = alpha, b = 1 for
# family x (hyperbolic factor in x), a = 1, b = alpha for family y.
EQUATIONS = {
    ("I", "x"): ("tanh", -1), ("I", "y"): ("tanh", -1),
    ("II", "x"): ("tanh", +1), ("II", "y"): ("tanh", +1),
    ("III", "x"): ("coth", +1), ("III", "y"): ("coth", -1),
    ("IV", "x"): ("coth", -1), ("IV", "y"): ("coth", +1),
}
CLASSES = ("I", "II", "III", "IV")
FAMILIES = ("x", "y")


class CheckError(AssertionError):
    """An output of the program disagrees with the reference."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def _scales(family: str, alpha: float) -> tuple[float, float]:
    return (alpha, 1.0) if family == "x" else (1.0, alpha)


def _hyp(kind: str, u: float) -> float:
    return math.tanh(u) if kind == "tanh" else 1.0 / math.tanh(u)


def window(cls: str, family: str, alpha: float, j: int) -> tuple[float, float]:
    """Closed quarter-window of nu that holds the j-th root.

    tan(theta) lies in (-1, 0), (0, 1), (1, inf) or (-inf, -1) according to
    the right-hand side, which pins theta = a*nu to a quarter period.
    """
    hyp, sign = EQUATIONS[(cls, family)]
    a, b = _scales(family, alpha)
    pi = math.pi
    if hyp == "tanh" and sign < 0:
        lo, hi = j * pi - pi / 4, j * pi
    elif hyp == "tanh":
        k = j - 1 if a < b else j  # window 0 has a root only when tan starts below tanh
        lo, hi = k * pi, k * pi + pi / 4
    elif sign > 0:
        lo, hi = (j - 1) * pi + pi / 4, (j - 1) * pi + pi / 2
    else:
        lo, hi = j * pi - pi / 2, j * pi - pi / 4
    return lo / a, hi / a


@lru_cache(maxsize=None)
def root(cls: str, family: str, alpha: float, j: int) -> float:
    """j-th positive root by brentq on the pole-free half period around its window."""
    hyp, sign = EQUATIONS[(cls, family)]
    a, b = _scales(family, alpha)

    def f(nu: float) -> float:
        return math.tan(a * nu) - sign * _hyp(hyp, b * nu)

    wlo, whi = window(cls, family, alpha, j)
    half = 0.5 * math.pi / a
    # the half period between a zero and a pole of tan that contains the window
    k = math.floor(a * wlo / (0.5 * math.pi) + 1e-9)
    lo, hi = k * half, (k + 1) * half
    lo = lo * (1.0 + 1e-12) if lo > 0 else 1e-9 / max(a, b)
    hi = hi * (1.0 - 1e-12)
    nu = brentq(f, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=400)
    slack = 1e-12 * whi
    require(wlo - slack <= nu <= whi + slack, f"reference root {nu} outside window {(wlo, whi)}")
    return nu


def eigenvalue(cls: str, family: str, alpha: float, nu: float) -> float:
    even_x, even_y = _PARITY[cls]
    hyp_even = even_x if family == "x" else even_y
    u = nu if family == "x" else alpha * nu
    return nu * math.tanh(u) if hyp_even else nu / math.tanh(u)


def _int_sq(kind: str, nu, half: float):
    """integral over (-half, half) of kind(nu t)^2, in mpmath."""
    L = mpmath.mpf(half)
    if kind == "cos":
        return L + mpmath.sin(2 * nu * L) / (2 * nu)
    if kind == "sin":
        return L - mpmath.sin(2 * nu * L) / (2 * nu)
    if kind == "cosh":
        return mpmath.sinh(2 * nu * L) / (2 * nu) + L
    return mpmath.sinh(2 * nu * L) / (2 * nu) - L


@lru_cache(maxsize=None)
def scale(cls: str, family: str, alpha: float, nu: float) -> float:
    """Boundary-normalization multiplier sqrt(perimeter / integral of profile^2)."""
    even_x, even_y = _PARITY[cls]
    with mpmath.workdps(40):
        n = mpmath.mpf(nu)
        al = mpmath.mpf(alpha)
        f = {"cos": mpmath.cos, "sin": mpmath.sin, "cosh": mpmath.cosh, "sinh": mpmath.sinh}
        if family == "x":  # hyp(nu x) * trig(nu y)
            hyp = "cosh" if even_x else "sinh"
            trig = "cos" if even_y else "sin"
            total = 2 * f[hyp](n) ** 2 * _int_sq(trig, n, alpha) + 2 * f[trig](n * al) ** 2 * _int_sq(hyp, n, 1.0)
        else:  # trig(nu x) * hyp(nu y)
            trig = "cos" if even_x else "sin"
            hyp = "cosh" if even_y else "sinh"
            total = 2 * f[hyp](n * al) ** 2 * _int_sq(trig, n, 1.0) + 2 * f[trig](n) ** 2 * _int_sq(hyp, n, alpha)
        return float(mpmath.sqrt(4 * (1 + al) / total))


def check_mode(cls: str, family: str, index: int, alpha: float, nu: float,
               delta: float | None = None, scale_value: float | None = None) -> None:
    """A separated mode's root, eigenvalue and normalization against the reference."""
    want = root(cls, family, alpha, index)
    require(abs(nu - want) <= ROOT_RTOL * want + 1e-14,
            f"root {cls}{family}{index} at alpha={alpha}: {nu!r} vs reference {want!r}")
    if delta is not None:
        d = eigenvalue(cls, family, alpha, want)
        require(abs(delta - d) <= DELTA_RTOL * d,
                f"eigenvalue {cls}{family}{index} at alpha={alpha}: {delta!r} vs {d!r}")
    if scale_value is not None:
        s = scale(cls, family, alpha, want)
        if s > 1e-290:
            require(abs(scale_value - s) <= SCALE_RTOL * s,
                    f"scale {cls}{family}{index} at alpha={alpha}: {scale_value!r} vs {s!r}")
        else:
            require(scale_value <= 1e-280, f"scale {cls}{family}{index} should underflow")


def spectrum_order(alpha: float, jmax: int) -> list[tuple[float, str, str, int]]:
    """(delta, class, family, index) of every separated mode with index <= jmax, sorted."""
    rows = []
    for cls in CLASSES:
        for fam in FAMILIES:
            for j in range(1, jmax + 1):
                rows.append((eigenvalue(cls, fam, alpha, root(cls, fam, alpha, j)), cls, fam, j))
    return sorted(rows)


# ---------------------------------------------------------------------------
# Harmonic inputs with exact values and boundary integrals.

POLYS = {
    "const:1": lambda x, y: np.ones_like(x),
    "x": lambda x, y: x,
    "y": lambda x, y: y,
    "xy": lambda x, y: x * y,
    "x2-y2": lambda x, y: x * x - y * y,
    "x3-3xy2": lambda x, y: x**3 - 3 * x * y * y,
    "3x2y-y3": lambda x, y: 3 * x * x * y - y**3,
}
CUBIC_BASIS = tuple(POLYS)

WAVES = {
    "coshcos": lambda n, x, y: np.cosh(n * x) * np.cos(n * y),
    "coscosh": lambda n, x, y: np.cos(n * x) * np.cosh(n * y),
    "sinhsin": lambda n, x, y: np.sinh(n * x) * np.sin(n * y),
    "sinsinh": lambda n, x, y: np.sin(n * x) * np.sinh(n * y),
}
# At a root of its (class, family) equation a wave is a Steklov
# eigenfunction: its outward normal derivative is delta times its trace.
WAVE_MODES = {"coshcos": ("I", "x"), "coscosh": ("I", "y"), "sinhsin": ("II", "x"), "sinsinh": ("II", "y")}


@dataclass
class Harmonic:
    """sum of weight * term, each term a harmonic polynomial or a cosh/cos wave.

    terms holds (weight, name, nu); nu is None for polynomials.
    """

    terms: list = field(default_factory=list)

    def value(self, x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        out = np.zeros(x.shape)
        for w, name, nu in self.terms:
            out = out + w * (POLYS[name](x, y) if nu is None else WAVES[name](nu, x, y))
        return out

    def builtin_names(self) -> list[tuple[float, str]]:
        """(weight, steklov-rect builtin identifier) per term."""
        return [(w, name if nu is None else f"{name}:{nu!r}") for w, name, nu in self.terms]

    def boundary_norm(self, alpha: float) -> float:
        """sqrt(perimeter^-1 * boundary integral of h^2), one 96-point Gauss rule per edge.

        Exact to rounding for the low-frequency data it is used on (cubic
        polynomials, waves with nu <= 3).
        """
        sq = lambda x, y: self.value(x, y) ** 2
        total = 0.0
        for xf in (1.0, -1.0):
            total += fixed_quad(lambda y: sq(np.full_like(y, xf), y), -alpha, alpha, n=96)[0]
        for yf in (alpha, -alpha):
            total += fixed_quad(lambda x: sq(x, np.full_like(x, yf)), -1.0, 1.0, n=96)[0]
        return math.sqrt(total / (4.0 * (1.0 + alpha)))


def random_cubic(rng) -> Harmonic:
    """Random harmonic polynomial of degree <= 3."""
    return Harmonic([(float(w), name, None) for w, name in zip(rng.normal(size=len(CUBIC_BASIS)), CUBIC_BASIS)])


def boundary_xy(s, alpha: float):
    """Arc length (counterclockwise from (1, -alpha)) to boundary coordinates."""
    s = np.asarray(s, dtype=float)
    a = alpha
    x = np.empty_like(s)
    y = np.empty_like(s)
    right = s < 2 * a
    top = (s >= 2 * a) & (s < 2 * a + 2)
    left = (s >= 2 * a + 2) & (s < 4 * a + 2)
    bottom = s >= 4 * a + 2
    x[right], y[right] = 1.0, -a + s[right]
    x[top], y[top] = 1.0 - (s[top] - 2 * a), a
    x[left], y[left] = -1.0, a - (s[left] - 2 * a - 2)
    x[bottom], y[bottom] = -1.0 + (s[bottom] - 4 * a - 2), -a
    return x, y


def write_samples_csv(path, h: Harmonic, alpha: float, n: int, rng) -> None:
    """n samples of h on the boundary, jittered off the corners, as arclength,value CSV."""
    per = 4.0 * (1.0 + alpha)
    s = (np.arange(n) + rng.uniform(0.1, 0.9, size=n)) * (per / n)
    x, y = boundary_xy(s, alpha)
    v = h.value(x, y)
    with open(path, "w") as fh:
        fh.write("arclength,value\n")
        fh.write("\n".join(f"{a!r},{b!r}" for a, b in zip(s.tolist(), v.tolist())))
        fh.write("\n")


# ---------------------------------------------------------------------------
# Published reference tables for the square (nine significant digits).

PUBLISHED = {}
for _j, _v in enumerate((2.36502037, 5.49780392, 8.63937983, 11.7809725, 14.9225651, 18.0641578), 1):
    PUBLISHED[f"nu_{_j}"] = (_v, 5e-8)
for _j, _v in enumerate((3.13278355, 3.14157591, 3.14159262, 3.14159265, 3.14159265), 2):
    PUBLISHED[f"dnu_{_j}"] = (_v, 5e-8)
for _j, _v in enumerate((2.32363775, 5.49761947, 8.63937929, 11.7809724, 14.9225651, 18.0641578), 1):
    PUBLISHED[f"delta_{_j}"] = (_v, 5e-8)
for _j, _v in enumerate((0.36925721, 1.6382475e-2, 7.079865e-4, 3.0594874e-5, 1.3221244e-6, 5.7134174e-8), 1):
    PUBLISHED[f"center_{_j}"] = (_v, 1e-6)
for _j, _v in enumerate((1.7043861e-2, 3.35481862e-5, 6.26556108e-8, 1.17005787e-10, 2.18501606e-13, 4.08039237e-16), 1):
    PUBLISHED[f"c_{_j}"] = (_v, 1e-6)
for _j, _v in enumerate((1.9683443e-3, 1.8676303e-3, 1.8674431e-3, 1.8674427e-3, 1.8674427e-3), 2):
    PUBLISHED[f"c_{_j}/c_{_j - 1}"] = (_v, 1e-6)
# the relative-error coefficients are printed with two significant digits
for _m, _v in enumerate((0.039, 1.7e-3, 7.26e-5), 1):
    PUBLISHED[f"relerr_m{_m}"] = (_v, 2e-2)
