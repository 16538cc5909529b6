"""Resolved Steklov modes on a rectangle: eigenvalues, normalization, evaluation.

A separated eigenfunction is a product of one hyperbolic and one trig factor,
s(x,y) = F(nu x) G(nu y) or G(nu x) F(nu y), picked by symmetry class (parity
pattern) and family (which variable is hyperbolic). On top of those sit the
constant mode and, on the square, the degenerate mode x*y. Every mode is
returned boundary-normalized: the mean square of its trace over the boundary
equals 1.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .geometry import BoundaryPoint, CornerError, Edge, Rectangle, check_interior
from .roots import (DEFAULT_TOL, DeterminingEquation, Family, SymmetryClass, _CLASS_ORDER, _FAMILY_ORDER,
                    _check_root_tol, bracket, solve_nu)
from . import stable

__all__ = [
    "ModeKind",
    "ModeId",
    "SteklovMode",
    "InvalidModeError",
    "eigenvalue",
    "normalization_integral",
    "log_normalization_integral",
    "resolve",
    "evaluate",
    "normal_derivative",
    "spectrum",
    "first_modes",
]

# one shared equation per (class, family, alpha), so modes read its cached parities
_equation = functools.lru_cache(maxsize=256)(DeterminingEquation)


class InvalidModeError(ValueError):
    """Mode identity inconsistent with the rectangle (e.g. xy with alpha != 1)."""


class ModeKind(enum.Enum):
    CONSTANT = "constant"
    XY = "xy"
    SEPARATED = "separated"


@dataclass(frozen=True)
class ModeId:
    """Identity of a mode: constant, the square's xy mode, or (class, family, j)."""

    kind: ModeKind
    symmetry_class: Optional[SymmetryClass] = None
    family: Optional[Family] = None
    index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind == ModeKind.SEPARATED:
            if self.symmetry_class is None or self.family is None or self.index is None:
                raise InvalidModeError("separated modes need class, family and index")
            if self.index < 1:
                raise InvalidModeError(f"mode index must be >= 1, got {self.index}")
        else:
            if self.symmetry_class is not None or self.family is not None or self.index is not None:
                raise InvalidModeError(f"{self.kind.value} mode carries no class/family/index")

    @classmethod
    def constant(cls) -> "ModeId":
        return cls(ModeKind.CONSTANT)

    @classmethod
    def xy(cls) -> "ModeId":
        return cls(ModeKind.XY)

    @classmethod
    def separated(cls, symmetry_class: SymmetryClass, family: Family, index: int) -> "ModeId":
        return cls(ModeKind.SEPARATED, symmetry_class, family, index)

    def sort_key(self) -> tuple:
        """Tie-break for equal eigenvalues: constant, xy, then class/family/index."""
        if self.kind == ModeKind.CONSTANT:
            return (-1, -1, 0)
        if self.kind == ModeKind.XY:
            return (_CLASS_ORDER[SymmetryClass.II], -1, 0)
        return (_CLASS_ORDER[self.symmetry_class], _FAMILY_ORDER[self.family], self.index)


@dataclass(frozen=True)
class SteklovMode:
    """A fully resolved, boundary-normalized mode.

    log_scale is the log of the normalization multiplier and the only stored
    encoding of it: scale = exp(log_scale) and norm_sq = exp(-2 log_scale),
    the boundary mean square of the *unnormalized* profile, both leave the
    double range for very large nu, so all evaluation goes through log_scale.
    """

    mode_id: ModeId
    alpha: float
    nu: float
    delta: float
    log_scale: float

    @property
    def scale(self) -> float:
        return stable.exp_or_inf(self.log_scale)

    @property
    def norm_sq(self) -> float:
        return stable.exp_or_inf(-2.0 * self.log_scale)

    @property
    def rect(self) -> Rectangle:
        return Rectangle(self.alpha)

    @property
    def equation(self) -> DeterminingEquation:
        """The determining equation of a separated mode's (class, family)."""
        return _equation(self.symmetry_class, self.family, self.alpha)

    @property
    def kind(self) -> ModeKind:
        return self.mode_id.kind

    @property
    def symmetry_class(self) -> Optional[SymmetryClass]:
        return self.mode_id.symmetry_class

    @property
    def family(self) -> Optional[Family]:
        return self.mode_id.family

    @property
    def index(self) -> Optional[int]:
        return self.mode_id.index

    def sort_key(self) -> tuple:
        return (self.delta,) + self.mode_id.sort_key()

    @functools.cached_property
    def _block(self) -> int:
        """The key _mode_table groups by: one code per kind and (class, family)."""
        if self.kind != ModeKind.SEPARATED:
            return 1 if self.kind == ModeKind.XY else 0
        return 2 + 2 * _CLASS_ORDER[self.symmetry_class] + _FAMILY_ORDER[self.family]

    def _row(self) -> dict:
        """class, family, index, nu and delta as written out: the constant is class I, xy class II,
        both with no family or index."""
        if self.kind == ModeKind.SEPARATED:
            cls, family, index = self.symmetry_class.value, self.family.value, self.index
        else:
            cls, family, index = "I" if self.kind == ModeKind.CONSTANT else "II", None, None
        return {"class": cls, "family": family, "index": index, "nu": self.nu, "delta": self.delta}


def _delta(eq: DeterminingEquation, nu):
    """Eigenvalues nu * tanh(b nu) (a cosh factor) or nu * coth(b nu) (sinh) at roots nu."""
    t = np.tanh(eq.hyp_scale * nu)
    return nu * t if eq.hyp_cosh else nu / t


def _log_norm(eq: DeterminingEquation, nu):
    """log of the boundary integral of the squared unnormalized profiles of roots nu.

    The hyperbolic variable runs over (-b, b) and the trig variable over
    (-a, a). Each edge integral is the mean square of one factor times the
    square of the other at the edge; everything is scaled by exp(-2 b nu)
    so arbitrarily large nu stays finite.
    """
    a, b = eq.tan_scale, eq.hyp_scale
    u_hyp, u_trig = b * nu, a * nu
    trig = np.cos(u_trig) if eq.trig_cos else np.sin(u_trig)
    mean_sq_trig = stable.mean_sq_trig(u_trig, eq.trig_cos)
    # a root past half the largest double makes 4 u_hyp inf, and a tiny sinh factor scaled 0 (below)
    with np.errstate(over="ignore", divide="ignore"):
        # 2 * [ F(u_hyp)^2 * int G^2  +  G(u_trig)^2 * int F^2 ], scaled by e^{-2 u_hyp}
        log_scaled = np.log(2.0 * (
            stable.hyp_scaled(u_hyp, eq.hyp_cosh) ** 2 * a * mean_sq_trig
            + trig**2 * b * stable.mean_sq_hyp_scaled(u_hyp, eq.hyp_cosh)
        ))
    if not eq.hyp_cosh:  # sinh(u) e^-u = u and its scaled mean square 2 u^2 / 3 below u = 2^-500,
        # where their squares underflow: there the log takes u^2 out of both terms
        log_scaled = np.where(u_hyp < 2.0**-500, 2.0 * np.log(u_hyp)
                              + np.log(2.0 * (a * mean_sq_trig + trig**2 * b / 1.5)), log_scaled)
    with np.errstate(over="ignore"):  # 2 u_hyp is inf for u_hyp past half the largest double
        return 2.0 * u_hyp + log_scaled


def _log_scale(eq: DeterminingEquation, nu):
    """log of the multipliers that make the modes of roots nu boundary-normalized."""
    return -0.5 * (_log_norm(eq, nu) - math.log(Rectangle(eq.alpha).perimeter))


def _check_nu(nu: float) -> float:
    """nu itself, for a positive finite nu; the closed forms below hold only there."""
    if not 0.0 < nu < math.inf:  # also False for NaN
        raise ValueError(f"nu must be positive and finite, got {nu}")
    return nu


def eigenvalue(
    symmetry_class: SymmetryClass, family: Family, nu: float, alpha: float
) -> float:
    """Steklov eigenvalue delta = (normal derivative)/(trace) of the profile.

    The ratio is nu * tanh or nu * coth of the hyperbolic argument at its
    edge (tanh for a cosh factor, coth for sinh); the determining equation
    makes the other edge pair agree, which the tests verify independently.
    """
    return float(_delta(DeterminingEquation(symmetry_class, family, alpha), _check_nu(nu)))


def log_normalization_integral(
    symmetry_class: SymmetryClass, family: Family, nu: float, alpha: float
) -> float:
    """log of the boundary integral of the squared unnormalized profile; finite for any nu."""
    return float(_log_norm(DeterminingEquation(symmetry_class, family, alpha), _check_nu(nu)))


def normalization_integral(
    symmetry_class: SymmetryClass, family: Family, nu: float, alpha: float
) -> float:
    """Boundary integral of the squared unnormalized profile; inf past the double range."""
    return stable.exp_or_inf(log_normalization_integral(symmetry_class, family, nu, alpha))


def resolve(mode_id: ModeId, alpha: float, tol: float = DEFAULT_TOL) -> SteklovMode:
    """Fully populate a mode: root, eigenvalue, normalization. Deterministic."""
    Rectangle(alpha)  # validates alpha
    if mode_id.kind == ModeKind.CONSTANT:
        return SteklovMode(mode_id, alpha, 0.0, 0.0, 0.0)
    if mode_id.kind == ModeKind.XY:
        if alpha != 1.0:
            raise InvalidModeError(f"the xy mode exists only on the square, got alpha={alpha}")
        # mean square of x*y over the boundary is 1/3; log(sqrt(3)) keeps
        # scale == math.sqrt(3.0) to the last bit, 0.5*log(3) does not
        return SteklovMode(mode_id, alpha, 0.0, 1.0, math.log(math.sqrt(3.0)))
    eq = DeterminingEquation(mode_id.symmetry_class, mode_id.family, alpha)
    mode = _modes_at(eq, np.array([mode_id.index]))[0]
    _check_tol([mode], mode.nu, tol)
    return mode


def _separated_factors(
    eq: DeterminingEquation, nu, log_scale, x, y, d_hyp: bool = False, d_trig: bool = False
):
    """(x factor, y factor) of normalized separated modes; the profile is their product.

    nu and log_scale are one mode's, or arrays for several modes of eq's
    (class, family) that broadcast against x and y. d_hyp differentiates the
    hyperbolic factor, d_trig the trig one; the nu prefactor of the
    derivative is left to the caller.
    """
    u, v = (x, y) if eq.family == Family.X else (y, x)  # hyperbolic, trig variable
    uh = nu * np.asarray(u, dtype=float)
    vt = nu * np.asarray(v, dtype=float)
    hyp_part = stable.signed_exp_hyp(uh, log_scale, eq.hyp_cosh ^ d_hyp)  # derivative swaps cosh <-> sinh
    trig_part = np.cos(vt) if eq.trig_cos ^ d_trig else np.sin(vt)
    if d_trig and eq.trig_cos:  # d/dv cos = -sin
        trig_part = -trig_part
    return (hyp_part, trig_part) if eq.family == Family.X else (trig_part, hyp_part)


def _mode_factors(mode: SteklovMode, x, y):
    """(x factor, y factor) of any mode at coordinates x and y; the mode is their product."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if mode.kind == ModeKind.CONSTANT:
        return np.ones(x.shape), np.ones(y.shape)
    if mode.kind == ModeKind.XY:
        return mode.scale * x, y
    return _separated_factors(mode.equation, mode.nu, mode.log_scale, x, y)


# Entries (modes x points) of a factor block built at once: larger ones raise peak memory and,
# past the cache, cost more per entry.
_BLOCK_ENTRIES = 1 << 13


class _Group(NamedTuple):
    """The modes of one kind and (class, family) in a _ModeTable: their rows, the equation of
    their (class, family) (None for the constant and the xy mode), their nu and log_scale as
    columns, and whether their x and y factors are even (cosh, cos, the constant) rather than odd."""

    rows: np.ndarray
    eq: Optional[DeterminingEquation]
    nu: np.ndarray
    log_scale: np.ndarray
    even: tuple[bool, bool]


@dataclass(frozen=True, eq=False)
class _ModeTable:
    """Modes in order, their eigenvalues as an array, and their groups by kind and (class,
    family) in the order of each group's first mode; its arrays are never written. A table
    equals and hashes as itself only, so caches can key on it. max_nu is the largest nu (0
    without modes), and key the bytes of the modes' block codes, nu and log_scale: tables of
    one key on one rectangle have the same groups and factors, so caches can key on it too."""

    modes: tuple[SteklovMode, ...]
    delta: np.ndarray
    groups: tuple[_Group, ...]
    max_nu: float
    key: bytes

    def blocks(self, width: int) -> Iterator[tuple]:
        """(rows, equation, nu, log_scale, (even_x, even_y)) of slices of the groups, each of at
        most _BLOCK_ENTRIES // width modes (or of one mode)."""
        step = max(1, _BLOCK_ENTRIES // max(1, width))
        for g in self.groups:
            for k in range(0, g.rows.size, step):
                part = slice(k, k + step)
                yield g.rows[part], g.eq, g.nu[part], g.log_scale[part], g.even

    @functools.cached_property
    def class_one(self) -> tuple[list[int], list[int], np.ndarray]:
        """The rows of the class-I modes of family x, then of family y, that form a complete index
        prefix 1..m, each in index order (of modes of one index, the last counts), and the scales of
        the modes of both in turn: their values at the origin, where no other mode is nonzero."""
        prefixes = []
        for family in (Family.X, Family.Y):
            rows = next((g.rows.tolist() for g in self.groups if g.eq is not None
                         and g.eq.symmetry_class == SymmetryClass.I and g.eq.family == family), [])
            by_index = {self.modes[r].index: r for r in rows}
            prefix: list[int] = []
            while len(prefix) + 1 in by_index:
                prefix.append(by_index[len(prefix) + 1])
            prefixes.append(prefix)
        fam_x, fam_y = prefixes
        return fam_x, fam_y, np.array([self.modes[r].scale for r in fam_x + fam_y], dtype=float)


def _mode_table(modes: Sequence[SteklovMode]) -> _ModeTable:
    """The table of modes, gathered and grouped in one pass."""
    n = len(modes)
    codes = np.fromiter((mode._block for mode in modes), int, n)
    delta = np.fromiter((mode.delta for mode in modes), float, n)
    nus = np.fromiter((mode.nu for mode in modes), float, n)[:, None]
    log_scales = np.fromiter((mode.log_scale for mode in modes), float, n)[:, None]
    _, first = np.unique(codes, return_index=True)
    groups = []
    for i0 in np.sort(first).tolist():
        rows = np.flatnonzero(codes == codes[i0])
        m0 = modes[i0]
        cls = m0.symmetry_class  # None for the constant and the xy mode
        even = (m0.kind == ModeKind.CONSTANT,) * 2 if cls is None else (cls.even_x, cls.even_y)
        groups.append(_Group(rows, None if cls is None else m0.equation, nus[rows], log_scales[rows], even))
    key = codes.tobytes() + nus.tobytes() + log_scales.tobytes()
    return _ModeTable(tuple(modes), delta, tuple(groups), float(nus.max(initial=0.0)), key)


def _block_factors(modes: Sequence[SteklovMode], part, eq, nu, log_scale, x, y):
    """(x factors, y factors) at 1-d x and y of the modes of one slice _ModeTable.blocks gives;
    nu and log_scale are read for separated modes only."""
    if eq is not None:
        return _separated_factors(eq, nu, log_scale, x, y)
    return tuple(map(np.array, zip(*(_mode_factors(modes[i], x, y) for i in part))))


def evaluate(mode: SteklovMode, x, y):
    """Boundary-normalized eigenfunction value(s) on the closed rectangle."""
    check_interior(mode.rect, x, y)
    out = np.multiply(*_mode_factors(mode, x, y))
    return float(out) if out.ndim == 0 else out


def gradient(mode: SteklovMode, x, y):
    """(d/dx, d/dy) of the normalized eigenfunction."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if mode.kind == ModeKind.CONSTANT:
        z = np.zeros(np.broadcast(x, y).shape)
        return z, z.copy()
    if mode.kind == ModeKind.XY:
        return mode.scale * y, mode.scale * x
    args = (mode.equation, mode.nu, mode.log_scale, x, y)
    d_hyp = mode.nu * np.multiply(*_separated_factors(*args, d_hyp=True))
    d_trig = mode.nu * np.multiply(*_separated_factors(*args, d_trig=True))
    return (d_hyp, d_trig) if mode.family == Family.X else (d_trig, d_hyp)


_OUTWARD = {Edge.RIGHT: (1.0, 0.0), Edge.TOP: (0.0, 1.0), Edge.LEFT: (-1.0, 0.0), Edge.BOTTOM: (0.0, -1.0)}


def normal_derivative(mode: SteklovMode, point: BoundaryPoint) -> float:
    """Outward normal derivative at a non-corner boundary point.

    Computed from the analytic gradient, so the Steklov identity
    normal_derivative = delta * trace is a genuine check, not a definition.
    """
    rect = mode.rect
    if rect.is_corner(point.edge, point.t):
        raise CornerError(f"normal undefined at corner of {rect}: t={point.t} on {point.edge.name}")
    nx, ny = _OUTWARD[point.edge]
    dx, dy = gradient(mode, point.x, point.y)
    return float(nx * dx + ny * dy)


def _streams(classes: Optional[Sequence[SymmetryClass]]) -> list[tuple[SymmetryClass, Family]]:
    """The (class, family) sequences passing the class filter, in tie-break order."""
    return [(c, f) for c in SymmetryClass if classes is None or c in classes for f in Family]


def _modes_at(eq: DeterminingEquation, js: np.ndarray) -> list[SteklovMode]:
    """The modes of indices js of one (class, family): roots, eigenvalues and scales as arrays,
    with no limit on the spacing of doubles at a root (callers check their tol)."""
    nu = solve_nu(eq, js, math.inf)
    cls, fam, alpha = eq.symmetry_class, eq.family, eq.alpha
    return [
        SteklovMode(ModeId.separated(cls, fam, j), alpha, n, d, s)
        for j, n, d, s in zip(js.tolist(), nu.tolist(), _delta(eq, nu).tolist(), _log_scale(eq, nu).tolist())
    ]


# (class, family) streams kept per process, the least recently used dropped first: the eight
# streams of each of eight rectangles; a solved mode takes about 250 bytes
_STREAMS = 64


@functools.lru_cache(maxsize=_STREAMS)
def _solved(eq: DeterminingEquation) -> list[tuple[SteklovMode, ...]]:
    """A one-item list holding the modes of eq's stream solved so far, from index 1."""
    return [()]


def _stream(eq: DeterminingEquation, count: int) -> list[SteklovMode]:
    """The first count modes of eq's (class, family) stream, as a new list.

    The stream is kept per process (_solved) and extended by the indices it
    lacks, in one solve, and stored whole. Every root runs the iteration it
    would run alone, so the modes are those a cold solve of indices
    1..count gives; a solve that raises leaves the stream as it was.
    """
    cell = _solved(eq)
    modes = cell[0]  # read once: another thread may store a shorter stream meanwhile, never a wrong one
    if count > len(modes):
        modes = cell[0] = modes + tuple(_modes_at(eq, np.arange(len(modes) + 1, count + 1)))
    return list(modes[:count])


def _window_deltas(eq: DeterminingEquation, js: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues at the two ends of the root windows of indices js.

    delta = nu tanh(b nu) or nu coth(b nu) rises with nu, so these bound the
    eigenvalue of each mode from below and above without solving its root.
    """
    # ends past the largest double, or a tanh(b nu) that underflows, make an eigenvalue inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lo, hi = bracket(eq, js)
        low = _delta(eq, lo)
        # nu coth(b nu) is 0/0 at nu = 0, where a window may start; it falls to 1/b there
        return np.where(np.isnan(low), 1.0 / eq.hyp_scale, low), _delta(eq, hi)


def _merged(prefixes: Sequence[tuple[DeterminingEquation, int]], extra: Sequence[SteklovMode]) -> list[SteklovMode]:
    """The extra modes and the first n modes of each (eq, n) stream of prefixes, as a new list
    sorted by sort_key (eigenvalue, then class, family and index)."""
    modes = list(extra)
    for eq, n in prefixes:
        modes += _stream(eq, n)
    modes.sort(key=SteklovMode.sort_key)
    return modes


# mode sets kept per process, the least recently used dropped first; one of M = 400 modes
# takes about 17 KB beside its modes, which it shares with the streams
_MODE_SETS = 32


@functools.lru_cache(maxsize=_MODE_SETS)
def _first_table(alpha: float, count: int, classes: tuple[SymmetryClass, ...]) -> _ModeTable:
    """The table of the first count modes of the given classes; see first_modes."""
    eqs = [_equation(cls, fam, alpha) for cls, fam in _streams(classes)]
    if count == 0:
        return _mode_table([])
    if not eqs:
        raise InvalidModeError(f"filter yields only 0 modes, {count} requested")
    extra = [resolve(ModeId.xy(), alpha)] if alpha == 1.0 and SymmetryClass.II in classes else []
    # no stream holds more than count of the first count modes
    windows = [_window_deltas(eq, np.arange(1, count + 1)) for eq in eqs]
    uppers = np.concatenate([high for _, high in windows] + [[mode.delta for mode in extra]])
    level = np.partition(uppers, count - 1)[count - 1]
    # low rises with j, so the modes whose window starts below level are a prefix of each stream
    return _mode_table(_merged([(eq, int(np.count_nonzero(low <= level))) for eq, (low, _) in zip(eqs, windows)],
                               extra)[:count])


def _first_modes_table(alpha: float, count: int, classes: Optional[Sequence[SymmetryClass]]) -> _ModeTable:
    """first_modes' modes as a table, built once per process for each (alpha, count, classes);
    classes given in any order or with repeats share one entry."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    Rectangle(alpha)  # validates alpha
    return _first_table(alpha, count, tuple(c for c in SymmetryClass if classes is None or c in classes))


def _check_tol(modes: Sequence[SteklovMode], largest: float, tol: float) -> None:
    """roots._check_root_tol on the roots of modes, of which largest is the largest."""
    _check_root_tol(((m.equation, m.index, m.nu) for m in modes if m.kind == ModeKind.SEPARATED), largest, tol)


def first_modes(
    alpha: float,
    count: int,
    classes: Optional[Sequence[SymmetryClass]] = None,
    tol: float = DEFAULT_TOL,
) -> list[SteklovMode]:
    """The first `count` non-constant modes in ascending-eigenvalue order.

    classes restricts the modes to those symmetry classes (all four when
    None); the xy mode counts as class II. The eigenvalues at the upper ends
    of the root windows give a level that at least `count` modes stay
    below; only modes whose window starts below it are taken, a prefix of
    each (class, family) stream (_stream, which solves a root once per
    process), and the candidates are sorted once by sort_key (_merged, as
    spectrum's are). Ties (the square is full of them) break by class then
    family order. The merged set is kept per process (_first_table), so a
    repeated request only copies it into a new list. tol only refuses (_check_tol).
    """
    table = _first_modes_table(alpha, count, classes)
    _check_tol(table.modes, table.max_nu, tol)
    return list(table.modes)


def spectrum(
    alpha: float,
    j_max: int,
    classes: Optional[Sequence[SymmetryClass]] = None,
    tol: float = DEFAULT_TOL,
) -> list[SteklovMode]:
    """All modes with per-sequence index <= j_max, sorted by eigenvalue.

    classes restricts the modes to those symmetry classes (all four when
    None). The constant mode is included when class I passes the filter, and
    the xy mode on the square when class II does.
    """
    if j_max < 0:
        raise ValueError(f"j_max must be >= 0, got {j_max}")
    extra: list[SteklovMode] = []
    if classes is None or SymmetryClass.I in classes:
        extra.append(resolve(ModeId.constant(), alpha))
    if alpha == 1.0 and (classes is None or SymmetryClass.II in classes):
        extra.append(resolve(ModeId.xy(), alpha))
    modes = _merged([(DeterminingEquation(cls, fam, alpha), j_max) for cls, fam in _streams(classes)], extra)
    _check_tol(modes, max((mode.nu for mode in modes), default=0.0), tol)
    return modes
