"""Truncated expansions of boundary data in the Steklov basis.

A Dirichlet expansion reproduces harmonic boundary data; evaluating the
series inside the rectangle solves the Dirichlet problem, and a reweighting
of the same coefficients solves Robin problems (Neumann as the t -> 0
limit). The center of the rectangle is special: only the even-even modes
contribute there and their values shrink geometrically, which yields a
certified error bound for the central value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import boundary as bd
from .bounds import rect_center_tail, square_center_tail
from .geometry import Rectangle, check_interior
from .modes import (
    Family,
    ModeId,
    SteklovMode,
    SymmetryClass,
    _mode_at,
    _mode_factors,
    _stream_modes,
    first_modes,
    resolve,
)
from .roots import DEFAULT_TOL, DeterminingEquation

__all__ = [
    "ExpansionTerm",
    "SteklovExpansion",
    "CentralValueResult",
    "EnergyTail",
    "IncompatibleDataError",
    "expand_dirichlet",
    "expand_for_central",
    "solve_robin",
    "solve_neumann",
    "evaluate_interior",
    "central_value",
    "energy_tail",
    "expansion_to_dict",
    "expansion_from_dict",
    "save_expansion",
    "load_expansion",
]

class IncompatibleDataError(ValueError):
    """Neumann data with nonzero boundary mean has no solution."""


@dataclass(frozen=True)
class ExpansionTerm:
    mode: SteklovMode
    coefficient: float


@dataclass(frozen=True)
class SteklovExpansion:
    """Mean term plus coefficients against modes sorted by eigenvalue.

    kind is "dirichlet" or "robin"; t is the Robin interpolation parameter
    (None for Dirichlet, 0 for Neumann). data_norm is the mean-L2 boundary
    norm of the data the expansion was built from; it is not serialized, so
    expansions loaded from JSON carry None and report an infinite
    central-value bound.
    """

    alpha: float
    kind: str
    t: Optional[float]
    mean_term: float
    terms: tuple[ExpansionTerm, ...]
    quad_order: int
    data_norm: Optional[float] = None

    @property
    def truncation_M(self) -> int:
        return len(self.terms)

    @property
    def rect(self) -> Rectangle:
        return Rectangle(self.alpha)


@dataclass(frozen=True)
class CentralValueResult:
    """Center value with a certified error radius in terms of the data norm."""

    value: float
    m: int
    bound: float
    data_norm: Optional[float]


@dataclass(frozen=True)
class EnergyTail:
    """Finite-energy diagnostic: sum (1 + delta_j) c_j^2 and its tail share."""

    total: float
    tail_ratio: float


def _build(
    h: bd.BoundaryFunction,
    alpha: float,
    modes: Sequence[SteklovMode],
    order: int,
    kind: str,
    t: Optional[float],
) -> SteklovExpansion:
    """Coefficients of h against modes; with t set, each is divided by (1-t)*delta + t.

    The mean, the norm and the coefficients come from one quadrature grid.

    t = 0 is the Neumann problem: it needs data of zero boundary mean, up to
    1e-9 * (1 + ||h||) so quadrature-level noise on the mean does not
    spuriously reject valid data, and its mean term is 0.
    """
    rect = Rectangle(alpha)
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing data is reported below
        raw_mean, norm, coeffs = bd.project(h, rect, modes, order)
    if not (math.isfinite(raw_mean) and math.isfinite(norm)):
        raise bd.BoundaryDataError(
            f"boundary data is not finite: mean = {raw_mean!r}, norm = {norm!r}"
        )
    if t == 0.0:
        limit = 1e-9 * (1.0 + norm)
        if abs(raw_mean) > limit:
            raise IncompatibleDataError(
                f"Neumann data must have zero boundary mean; |mean| = {abs(raw_mean):.3e} > {limit:.3e}"
            )
        mean_term = 0.0
    else:
        mean_term = raw_mean if t is None else raw_mean / t
    terms = []
    for mode, c in zip(modes, coeffs):
        if t is not None:
            c = c / ((1.0 - t) * mode.delta + t)
        terms.append(ExpansionTerm(mode, c))
    return SteklovExpansion(alpha, kind, t, mean_term, tuple(terms), order, norm)


def expand_dirichlet(
    h: bd.BoundaryFunction,
    alpha: float,
    M: int,
    order: int = 32,
    classes: Optional[Sequence[SymmetryClass]] = None,
    tol: float = DEFAULT_TOL,
) -> SteklovExpansion:
    """Expansion of boundary data against the first M modes in eigenvalue order.

    classes restricts the mode set; data with a known parity pattern only
    excites the matching classes, so restricting spends the whole truncation
    budget on modes that can contribute.
    """
    if M < 0:
        raise ValueError(f"M must be >= 0, got {M}")
    modes = first_modes(alpha, M, classes=classes, tol=tol)
    return _build(h, alpha, modes, order, "dirichlet", None)


def expand_for_central(
    h: bd.BoundaryFunction,
    alpha: float,
    m: int,
    order: int = 32,
    tol: float = DEFAULT_TOL,
) -> SteklovExpansion:
    """Expansion holding exactly the first m modes of each class-I family.

    Only class I is nonzero at the origin, and the certified central-value
    bound is indexed by how many complete class-I pairs are present, so this
    is the natural truncation for central-value work.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    eqs = [DeterminingEquation(SymmetryClass.I, fam, alpha) for fam in Family]
    modes = [mode for eq in eqs for mode in _stream_modes(eq, np.arange(1, m + 1), tol)]
    return _build(h, alpha, sorted(modes, key=SteklovMode.sort_key), order, "dirichlet", None)


def solve_robin(
    eta: bd.BoundaryFunction,
    alpha: float,
    t: float,
    M: int,
    order: int = 32,
    classes: Optional[Sequence[SymmetryClass]] = None,
    tol: float = DEFAULT_TOL,
) -> SteklovExpansion:
    """Solution of (1-t) * normal derivative + t * h = eta on the boundary.

    Coefficients are the Dirichlet ones divided by (1-t)*delta + t; at t = 1
    the divisor is exactly 1.0, so the result matches expand_dirichlet bit
    for bit under identical quadrature.
    """
    if not (0.0 < t <= 1.0):
        raise ValueError(f"Robin parameter must satisfy 0 < t <= 1, got {t}")
    if M < 0:
        raise ValueError(f"M must be >= 0, got {M}")
    modes = first_modes(alpha, M, classes=classes, tol=tol)
    return _build(eta, alpha, modes, order, "robin", t)


def solve_neumann(
    eta: bd.BoundaryFunction,
    alpha: float,
    M: int,
    order: int = 32,
    classes: Optional[Sequence[SymmetryClass]] = None,
    tol: float = DEFAULT_TOL,
) -> SteklovExpansion:
    """Mean-zero solution of the Neumann problem, the t -> 0 limit of Robin.

    Coefficients are the Dirichlet ones divided by delta. Solvable only for
    (numerically) mean-zero data: a boundary mean above 1e-9 * (1 + ||eta||)
    raises IncompatibleDataError.
    """
    if M < 0:
        raise ValueError(f"M must be >= 0, got {M}")
    modes = first_modes(alpha, M, classes=classes, tol=tol)
    return _build(eta, alpha, modes, order, "robin", 0.0)


def _axis(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct coordinates of a point array and each point's index into them.

    Coordinates are told apart by their bits, so -0.0 and 0.0 stay distinct
    and every factor sees exactly the coordinate it would see point by point.
    """
    keys, inv = np.unique(a.ravel().view(np.int64), return_inverse=True)
    return keys.view(float), inv.ravel()


def evaluate_interior(e: SteklovExpansion, x, y):
    """Value of the truncated series at points of the closed rectangle.

    Accuracy is guaranteed on compact interior subsets; on the boundary the
    finite sum is still well defined but only converges in the mean. Each
    term is the product of an x and a y factor, evaluated once per distinct
    coordinate: on a grid that is M * (nx + ny) factor values, not M * nx * ny.
    """
    check_interior(e.rect, x, y)
    xa, ya = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    (xs, ix), (ys, iy) = _axis(xa), _axis(ya)
    out = np.full(xa.shape, e.mean_term, dtype=float)
    for term in e.terms:
        fx, fy = _mode_factors(term.mode, xs, ys)
        out = out + term.coefficient * (fx[ix] * fy[iy]).reshape(out.shape)
    return float(out) if out.ndim == 0 else out


def _class_one_prefix(e: SteklovExpansion, family: Family) -> list[ExpansionTerm]:
    """Class-I terms of one family forming a complete index prefix 1..m."""
    by_index = {t.mode.index: t for t in e.terms
                if t.mode.symmetry_class == SymmetryClass.I and t.mode.family == family}
    out: list[ExpansionTerm] = []
    while len(out) + 1 in by_index:
        out.append(by_index[len(out) + 1])
    return out


def central_value(e: SteklovExpansion, tol: float = DEFAULT_TOL) -> CentralValueResult:
    """Value at the origin with a certified error radius.

    Only class-I terms are summed (all other classes vanish at the origin
    identically). m is the number of complete class-I pairs present; the
    bound covers everything the truncation omitted, scaled by the data norm
    recorded at expansion time (infinite when that norm is unknown), plus the
    sum's rounding: (k + 2) eps times the sum of the magnitudes of its k + 1 terms.
    """
    fam_x, fam_y = _class_one_prefix(e, Family.X), _class_one_prefix(e, Family.Y)
    value = e.mean_term
    for term in fam_x + fam_y:
        value += term.coefficient * term.mode.scale  # evaluate at (0,0) = scale
    m = min(len(fam_x), len(fam_y))
    if e.data_norm is None:
        return CentralValueResult(value, m, math.inf, None)
    per_norm = (square_center_tail(m, tol, [t.mode.nu for t in fam_x]) if e.alpha == 1.0
                else rect_center_tail(m, e.alpha))
    magnitude = abs(e.mean_term) + sum(abs(t.coefficient * t.mode.scale) for t in fam_x + fam_y)
    rounding = (len(fam_x) + len(fam_y) + 2) * np.finfo(float).eps * magnitude
    return CentralValueResult(value, m, per_norm * e.data_norm + rounding, e.data_norm)


def energy_tail(e: SteklovExpansion, quintile: float = 0.2) -> EnergyTail:
    """sum (1 + delta) c^2 over all terms (mean term included) plus the share
    contributed by the top-eigenvalue quintile, a cheap convergence read."""
    contributions = [e.mean_term**2]
    contributions += [(1.0 + t.mode.delta) * t.coefficient**2 for t in e.terms]
    total = float(sum(contributions))
    n_terms = len(e.terms)
    n_tail = math.ceil(quintile * n_terms)
    if n_tail == 0 or total == 0.0:
        return EnergyTail(total, 0.0)
    tail = float(sum(contributions[-n_tail:]))
    return EnergyTail(total, tail / total)


# ---------------------------------------------------------------------------
# JSON export/import. Floats serialize via repr, which round-trips exactly
# (17 significant digits suffice for any double).


def _term_dict(term: ExpansionTerm) -> dict:
    mode = term.mode
    cls, fam, idx = mode.label()
    return {
        "class": cls,
        "family": fam,
        "index": idx,
        "nu": mode.nu,
        "delta": mode.delta,
        "coefficient": term.coefficient,
    }


def expansion_to_dict(e: SteklovExpansion) -> dict:
    doc = {"alpha": e.alpha, "kind": e.kind}
    if e.t is not None:
        doc["t"] = e.t
    doc["mean_term"] = e.mean_term
    doc["terms"] = [_term_dict(t) for t in e.terms]
    doc["quadrature_order"] = e.quad_order
    return doc


def _mode_from_dict(d: dict, alpha: float) -> SteklovMode:
    cls = SymmetryClass(d["class"])
    if d["family"] is None:
        return resolve(ModeId.xy(), alpha)
    # keep the stored nu/delta bit-exact; only the normalization is recomputed
    mode_id = ModeId.separated(cls, Family(d["family"]), int(d["index"]))
    return _mode_at(mode_id, alpha, float(d["nu"]), float(d["delta"]))


def expansion_from_dict(doc: dict) -> SteklovExpansion:
    alpha = float(doc["alpha"])
    terms = tuple(
        ExpansionTerm(_mode_from_dict(d, alpha), float(d["coefficient"])) for d in doc["terms"]
    )
    return SteklovExpansion(
        alpha,
        str(doc["kind"]),
        float(doc["t"]) if "t" in doc else None,
        float(doc["mean_term"]),
        terms,
        int(doc["quadrature_order"]),
        None,
    )


def save_expansion(e: SteklovExpansion, path) -> None:
    with open(path, "w") as fh:
        json.dump(expansion_to_dict(e), fh, indent=2)
        fh.write("\n")


def load_expansion(path) -> SteklovExpansion:
    with open(path) as fh:
        return expansion_from_dict(json.load(fh))
