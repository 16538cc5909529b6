"""Truncated expansions of boundary data in the Steklov basis.

A Dirichlet expansion reproduces harmonic boundary data; evaluating the
series inside the rectangle solves the Dirichlet problem, and a reweighting
of the same coefficients solves Robin problems (Neumann as the t -> 0
limit). The center of the rectangle is special: only the even-even modes
contribute there and their values shrink geometrically, which yields a
certified error bound for the central value.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import boundary as bd
from .bounds import rect_center_tail, square_center_tail
from .geometry import Rectangle, check_interior
from .modes import (
    Family,
    InvalidModeError,
    ModeId,
    SteklovMode,
    SymmetryClass,
    _block_factors,
    _check_nu,
    _check_tol,
    _first_modes_table,
    _log_scale,
    _merged,
    _mode_table,
    _ModeTable,
    _window_deltas,
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
    """No solution: Neumann data of nonzero boundary mean, or a Robin mean term mean / t that overflows."""


@dataclass(frozen=True)
class ExpansionTerm:
    mode: SteklovMode
    coefficient: float


@dataclass(frozen=True)
class SteklovExpansion:
    """Mean term plus coefficients against modes sorted by eigenvalue.

    t is the Robin interpolation parameter in [0, 1] (None for Dirichlet, 0
    for Neumann), and kind is derived from it: "dirichlet" when t is None, else
    "robin". data_norm is the mean-L2 boundary norm of the data the
    expansion was built from; it is not serialized, so expansions loaded
    from JSON carry None and report an infinite central-value bound. The
    mean term must be finite, and data_norm finite and >= 0.

    The computations read the terms' modes as a table (_table) and their coefficients as one array
    (_coefficients). An expansion the constructor makes derives both from its terms once; one
    _build makes holds the two it was projected with and builds its terms only when they are read
    (_LazyTerms).
    """

    alpha: float
    t: Optional[float]
    mean_term: float
    terms: tuple[ExpansionTerm, ...]
    quad_order: int
    data_norm: Optional[float] = None

    def __post_init__(self):
        if self.t is not None and not 0.0 <= self.t <= 1.0:
            raise ValueError(f"Robin parameter t must lie in [0, 1], got {self.t}")
        if not math.isfinite(self.mean_term):
            raise ValueError(f"mean_term must be finite, got {self.mean_term}")
        if self.data_norm is not None and not 0.0 <= self.data_norm < math.inf:  # also False for NaN
            raise ValueError(f"data_norm must be finite and >= 0, got {self.data_norm}")
        if any(term.mode.alpha != self.alpha for term in self.terms):
            raise InvalidModeError(f"a term's mode is of another rectangle than alpha={self.alpha}")

    @property
    def kind(self) -> str:
        return "dirichlet" if self.t is None else "robin"

    @property
    def truncation_M(self) -> int:
        return len(self._coefficients)

    @property
    def rect(self) -> Rectangle:
        return Rectangle(self.alpha)

    @functools.cached_property
    def _table(self) -> _ModeTable:
        """The terms' modes as a table, grouped once per expansion; _build stores its mode set's."""
        return _mode_table([term.mode for term in self.terms])

    @functools.cached_property
    def _coefficients(self) -> np.ndarray:
        """The terms' coefficients as one array, in the order of the table's modes; _build stores its own."""
        return np.array([term.coefficient for term in self.terms], dtype=float)


class _LazyTerms:
    """SteklovExpansion.terms of an expansion _build made: built from its table's modes and its
    coefficients on first access, and kept in the instance, as the constructor keeps its terms."""

    def __get__(self, e, owner=None):
        if e is None:
            return self
        e.__dict__["terms"] = terms = tuple(map(ExpansionTerm, e._table.modes, e._coefficients.tolist()))
        return terms


SteklovExpansion.terms = _LazyTerms()  # set after @dataclass, which would read a class attribute as a default


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
    table: _ModeTable,
    order: int,
    t: Optional[float],
) -> SteklovExpansion:
    """Coefficients of h against the modes of a table; with t set, each is divided by
    (1-t)*delta + t, with delta the table's eigenvalue array.

    The mean, the norm and the coefficients come from one quadrature grid, and the projection's
    plan is kept per mode set and grid under one memory budget (boundary._kept_tables). The
    expansion keeps the table and the coefficients as one array beside it, so evaluate_interior
    reuses its grouping and factors, and no term is built unless the terms are read.

    t = 0 is the Neumann problem: it needs data of zero boundary mean, up to
    1e-9 * (1 + ||h||) so quadrature-level noise on the mean does not
    spuriously reject valid data, and its mean term is 0. A Robin mean / t must not overflow.
    Data whose mean or norm is not finite is refused; the message tells data with a value that
    is not finite from finite data whose mean or mean square overflows.
    """
    rect = Rectangle(alpha)
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing data is reported below
        raw_mean, norm, coeffs = bd._project(h, rect, table, order, keep=True)
        if not (math.isfinite(raw_mean) and math.isfinite(norm)):
            finite = np.isfinite(bd._data_on_grid(h, rect, table, order)).all()
            what = ("not finite" if not finite else "finite, but its mean square overflows"
                    if math.isfinite(raw_mean) else "finite, but its mean overflows")
            raise bd.BoundaryDataError(f"boundary data is {what}: mean = {raw_mean!r}, norm = {norm!r}")
    if t == 0.0:
        limit = 1e-9 * (1.0 + norm)
        if abs(raw_mean) > limit:
            raise IncompatibleDataError(
                f"Neumann data must have zero boundary mean; |mean| = {abs(raw_mean):.3e} > {limit:.3e}"
            )
        mean_term = 0.0
    else:
        mean_term = raw_mean if t is None else raw_mean / t
        if not math.isfinite(mean_term):
            raise IncompatibleDataError(f"Robin mean term mean / t = {raw_mean:.3e} / {t:.3e} overflows")
    if t is not None:
        coeffs = coeffs / ((1.0 - t) * table.delta + t)
    # the constructor's fields and, in place of the terms, the two arrays they would give; the fields
    # pass __post_init__'s checks, and the table's modes are of alpha, by construction
    e = object.__new__(SteklovExpansion)
    e.__dict__.update(alpha=alpha, t=t, mean_term=mean_term, quad_order=order, data_norm=norm,
                      _table=table, _coefficients=coeffs)
    return e


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
    table = _first_modes_table(alpha, M, classes)
    _check_tol(table.modes, table.max_nu, tol)
    return _build(h, alpha, table, order, None)


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
    # the 2m modes' projection plan is kept like the solvers' (boundary._kept_tables): it takes
    # about a quarter of a call to build and one lookup to find again
    table = _central_table(alpha, m)
    _check_tol(table.modes, table.max_nu, tol)
    return _build(h, alpha, table, order, None)


# expand_for_central's mode sets kept per process, the least recently used dropped first: four
# rectangles at m = 3..12 take 40; one of m = 12 takes about 2 KB beside its modes
_CENTRAL_SETS = 64


@functools.lru_cache(maxsize=_CENTRAL_SETS)
def _central_table(alpha: float, m: int) -> _ModeTable:
    """The table of the first m modes of each class-I family, merged by sort_key."""
    return _mode_table(_merged([(DeterminingEquation(SymmetryClass.I, fam, alpha), m) for fam in Family], ()))


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
    table = _first_modes_table(alpha, M, classes)
    _check_tol(table.modes, table.max_nu, tol)
    return _build(eta, alpha, table, order, t)


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
    table = _first_modes_table(alpha, M, classes)
    _check_tol(table.modes, table.max_nu, tol)
    return _build(eta, alpha, table, order, 0.0)


def _axis(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct coordinates of a point array and each point's index into them.

    Coordinates are told apart by their bits, so -0.0 and 0.0 stay distinct
    and every factor sees exactly the coordinate it would see point by point.
    A 2-d array whose rows all equal its first row, or whose columns all equal
    its first column (a meshgrid's coordinates), sorts that one line only.
    """
    bits = a.view(np.int64)
    if bits.ndim == 2 and bits.size:
        if (bits == bits[0]).all():
            keys, ix = _axis(a[0])
            return keys, np.tile(ix, bits.shape[0])
        if (bits == bits[:, :1]).all():
            keys, ix = _axis(a[:, 0])
            return keys, np.repeat(ix, bits.shape[1])
    bits = bits.ravel()
    s = np.sort(bits)
    keys = np.concatenate([s[:1], s[1:][s[1:] != s[:-1]]])
    return keys.view(float), np.searchsorted(keys, bits)


# factor sets kept per process, the least recently used dropped first: the blocks of one mode table
# at one set of distinct coordinates, of at most _FACTOR_VALUES values (1 MB) each; M = 400 modes
# on a 100x100 grid take about 0.64 MB
_FACTOR_SETS = 4
_FACTOR_VALUES = 1 << 17


@dataclass(frozen=True)
class _Contents:
    """A mode table of a rectangle that equals and hashes as its key, (table.key, alpha), the contents
    its factors depend on: keyed on it, a cache finds its entry again from any table of the same modes."""

    key: tuple[bytes, float]
    table: _ModeTable = field(compare=False)


@functools.lru_cache(maxsize=_FACTOR_SETS)
def _kept_factors(contents: _Contents, width: int, xs: bytes, ys: bytes) -> list[tuple]:
    """(rows, x factors, y factors) at the coordinates whose bits are xs and ys of each slice
    table.blocks(width) gives, for the table of contents; an entry made from one table is found
    from every table of the same contents."""
    table, xs, ys = contents.table, np.frombuffer(xs), np.frombuffer(ys)
    return [(rows, *_block_factors(table.modes, rows, eq, nu, log_scale, xs, ys))
            for rows, eq, nu, log_scale, _ in table.blocks(width)]


def _factors(e: SteklovExpansion, width: int, xs: np.ndarray, ys: np.ndarray) -> list[tuple]:
    """e's factors at xs and ys, kept per process (_kept_factors) unless they exceed _FACTOR_VALUES
    values, then built without the cache."""
    kept = len(e._table.modes) * (xs.size + ys.size) <= _FACTOR_VALUES
    return (_kept_factors if kept else _kept_factors.__wrapped__)(
        _Contents((e._table.key, e.alpha), e._table), width, xs.tobytes(), ys.tobytes())


def evaluate_interior(e: SteklovExpansion, x, y):
    """Value of the truncated series at points of the closed rectangle.

    Accuracy is guaranteed on compact interior subsets; on the boundary the
    finite sum is still well defined but only converges in the mean. Each
    term is the product of an x and a y factor, evaluated once per distinct
    coordinate (_axis sorts the bits of one line of a tensor grid, else of
    every coordinate), in blocks of terms of one (class, family); the
    factors are kept per mode table and coordinates (_factors), to the same
    bits. When the distinct coordinates span no more pairs than
    there are points (a grid, a line, a point), each block sums on all pairs
    as one matrix product, else point by point; the values equal the
    term-by-term sum to rounding, not bit for bit.
    """
    check_interior(e.rect, x, y)
    xa, ya = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    (xs, ix), (ys, iy) = _axis(xa), _axis(ya)
    grid = xs.size * ys.size <= xa.size
    total = np.zeros((xs.size, ys.size) if grid else xa.size)
    c = e._coefficients
    width = max(xs.size, ys.size) if grid else xa.size  # of the widest array a slice builds
    for rows, fx, fy in _factors(e, width, xs, ys):
        if grid:
            total += (c[rows, None] * fx).T @ fy
        else:
            total += np.einsum("k,kn,kn->n", c[rows], fx.take(ix, 1), fy.take(iy, 1))
    out = (e.mean_term + (total[ix, iy] if grid else total)).reshape(xa.shape)
    return float(out) if out.ndim == 0 else out


def _class_one_prefix(e: SteklovExpansion, family: Family) -> list[int]:
    """The rows of e's table of the class-I modes of one family that form a complete index prefix
    1..m, in index order, read from the rows of their group; of modes of one index, the last counts."""
    modes = e._table.modes
    rows = next((g.rows.tolist() for g in e._table.groups
                 if g.eq is not None and g.eq.symmetry_class == SymmetryClass.I and g.eq.family == family), [])
    by_index = {modes[r].index: r for r in rows}
    out: list[int] = []
    while len(out) + 1 in by_index:
        out.append(by_index[len(out) + 1])
    return out


def central_value(e: SteklovExpansion) -> CentralValueResult:
    """Value at the origin with a certified error radius.

    Only class-I terms are summed (all other classes vanish at the origin
    identically). m is the number of complete class-I pairs present; the
    bound covers everything the truncation omitted, scaled by the data norm
    recorded at expansion time (infinite when that norm is unknown), plus the
    sum's rounding: (k + 2) eps times the sum of the magnitudes of its k + 1 terms.
    Robin and Neumann divide the tail by the least (1-t) delta + t of an omitted
    class-I term, at the lower ends of the (m+1)-th root windows (no root solve).
    """
    fam_x, fam_y = _class_one_prefix(e, Family.X), _class_one_prefix(e, Family.Y)
    rows, modes = fam_x + fam_y, e._table.modes
    parts = [c * modes[r].scale for r, c in zip(rows, e._coefficients[rows].tolist())]  # evaluate at (0,0) = scale
    value = e.mean_term
    for part in parts:
        value += part
    m = min(len(fam_x), len(fam_y))
    if e.data_norm is None:
        return CentralValueResult(value, m, math.inf, None)
    per_norm = square_center_tail(m) if e.alpha == 1.0 else rect_center_tail(m, e.alpha)
    if e.t is not None:
        eqs = [DeterminingEquation(SymmetryClass.I, fam, e.alpha) for fam in Family]
        per_norm /= min((1.0 - e.t) * float(_window_deltas(eq, np.array([m + 1]))[0][0]) + e.t for eq in eqs)
    magnitude = abs(e.mean_term) + sum(map(abs, parts))
    rounding = (len(parts) + 2) * np.finfo(float).eps * magnitude
    return CentralValueResult(value, m, float(per_norm * e.data_norm + rounding), e.data_norm)


_TAIL_SHARE = 0.2  # of the terms, those of the highest eigenvalues, that energy_tail calls the tail


def energy_tail(e: SteklovExpansion) -> EnergyTail:
    """sum (1 + delta) c^2 over all terms (mean term included) plus the share
    contributed by the top-eigenvalue quintile, a cheap convergence read."""
    # a list of floats, which sum adds one by one
    contributions = [e.mean_term**2] + ((1.0 + e._table.delta) * e._coefficients**2).tolist()
    total = float(sum(contributions))
    n_tail = math.ceil(_TAIL_SHARE * e.truncation_M)
    if n_tail == 0 or total == 0.0:
        return EnergyTail(total, 0.0)
    tail = float(sum(contributions[-n_tail:]))
    return EnergyTail(total, tail / total)


# ---------------------------------------------------------------------------
# JSON export/import. Floats serialize via repr, which round-trips exactly
# (17 significant digits suffice for any double).


def expansion_to_dict(e: SteklovExpansion) -> dict:
    doc = {"alpha": e.alpha, "kind": e.kind}
    if e.t is not None:
        doc["t"] = e.t
    doc["mean_term"] = e.mean_term
    doc["terms"] = [{**mode._row(), "coefficient": c} for mode, c in zip(e._table.modes, e._coefficients.tolist())]
    doc["quadrature_order"] = e.quad_order
    return doc


def _finite(d: dict, key: str) -> float:
    """d[key] as a float; a NaN or an infinity is refused."""
    value = float(d[key])
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value}")
    return value


def _mode_from_dict(d: dict, alpha: float) -> SteklovMode:
    cls = SymmetryClass(d["class"])
    if d["family"] is None:  # as SteklovMode._row writes them: the constant is class I, xy class II
        unseparated = {SymmetryClass.I: ModeId.constant(), SymmetryClass.II: ModeId.xy()}
        if cls not in unseparated:
            raise ValueError(f"a class {cls.value} term needs a family")
        return resolve(unseparated[cls], alpha)
    # keep the stored nu/delta bit-exact; only the normalization is recomputed
    mode_id = ModeId.separated(cls, Family(d["family"]), int(d["index"]))
    nu = _check_nu(float(d["nu"]))
    log_scale = float(_log_scale(DeterminingEquation(cls, mode_id.family, alpha), nu))
    return SteklovMode(mode_id, alpha, nu, _finite(d, "delta"), log_scale)


def expansion_from_dict(doc: dict) -> SteklovExpansion:
    """The expansion a document describes; its kind must be the one its t gives, and its
    numbers (nu, delta, coefficients, mean term) must be finite."""
    alpha = float(doc["alpha"])
    t = float(doc["t"]) if "t" in doc else None
    terms = tuple(
        ExpansionTerm(_mode_from_dict(d, alpha), _finite(d, "coefficient")) for d in doc["terms"]
    )
    e = SteklovExpansion(alpha, t, float(doc["mean_term"]), terms, int(doc["quadrature_order"]), None)
    if doc["kind"] != e.kind:
        raise ValueError(f"kind {doc['kind']!r} contradicts t = {t}: expected {e.kind!r}")
    return e


def save_expansion(e: SteklovExpansion, path) -> None:
    with open(path, "w") as fh:
        json.dump(expansion_to_dict(e), fh, indent=2)
        fh.write("\n")


def load_expansion(path) -> SteklovExpansion:
    with open(path) as fh:
        return expansion_from_dict(json.load(fh))
