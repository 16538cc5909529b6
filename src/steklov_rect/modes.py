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
import heapq
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import BoundaryPoint, CornerError, Edge, Rectangle, check_interior
from .roots import DEFAULT_TOL, DeterminingEquation, Family, SymmetryClass, solve_nu
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

_CLASS_ORDER = {SymmetryClass.I: 0, SymmetryClass.II: 1, SymmetryClass.III: 2, SymmetryClass.IV: 3}
_FAMILY_ORDER = {Family.X: 0, Family.Y: 1}


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

    def label(self) -> tuple[str, Optional[str], Optional[int]]:
        """(class, family, index) as written out: constant is class I, xy class II."""
        if self.kind == ModeKind.CONSTANT:
            return SymmetryClass.I.value, None, None
        if self.kind == ModeKind.XY:
            return SymmetryClass.II.value, None, None
        return self.symmetry_class.value, self.family.value, self.index


def eigenvalue(
    symmetry_class: SymmetryClass, family: Family, nu: float, alpha: float
) -> float:
    """Steklov eigenvalue delta = (normal derivative)/(trace) of the profile.

    The ratio is nu * tanh or nu * coth of the hyperbolic argument at its
    edge (tanh for a cosh factor, coth for sinh); the determining equation
    makes the other edge pair agree, which the tests verify independently.
    """
    if nu <= 0.0:
        raise ValueError(f"nu must be positive, got {nu}")
    hyp_even = symmetry_class.even_x if family == Family.X else symmetry_class.even_y
    arg = nu if family == Family.X else alpha * nu
    if hyp_even:
        return nu * math.tanh(arg)
    return nu / math.tanh(arg)


def _profile_parts(symmetry_class: SymmetryClass, family: Family):
    """(hyp_is_cosh, trig_is_cos): factor kinds for the hyperbolic/trig variables."""
    if family == Family.X:
        return symmetry_class.even_x, symmetry_class.even_y
    return symmetry_class.even_y, symmetry_class.even_x


def log_normalization_integral(
    symmetry_class: SymmetryClass, family: Family, nu: float, alpha: float
) -> float:
    """log of the boundary integral of the squared unnormalized profile.

    Each of the four edge integrals is an elementary mean-square of a single
    trig/hyperbolic factor times the squared complementary factor at the
    fixed coordinate; everything is evaluated scaled by exp(-2*nu*L_hyp) so
    arbitrarily large nu stays finite.
    """
    if nu <= 0.0:
        raise ValueError(f"nu must be positive, got {nu}")
    hyp_cosh, trig_cos = _profile_parts(symmetry_class, family)
    hyp_sq = stable.cosh_sq_scaled if hyp_cosh else stable.sinh_sq_scaled
    hyp_mean = stable.mean_sq_cosh_scaled if hyp_cosh else stable.mean_sq_sinh_scaled
    trig = math.cos if trig_cos else math.sin
    trig_mean = stable.mean_sq_cos if trig_cos else stable.mean_sq_sin

    if family == Family.X:
        # hyperbolic along x on (-1,1), trig along y on (-alpha,alpha)
        u_hyp, l_hyp = nu, 1.0
        u_trig, l_trig = nu * alpha, alpha
    else:
        u_hyp, l_hyp = nu * alpha, alpha
        u_trig, l_trig = nu, 1.0
    # 2 * [ F(u_hyp)^2 * int G^2  +  G(u_trig)^2 * int F^2 ], scaled by e^{-2 u_hyp}
    scaled = 2.0 * (
        hyp_sq(u_hyp) * l_trig * trig_mean(u_trig)
        + trig(u_trig) ** 2 * l_hyp * hyp_mean(u_hyp)
    )
    return 2.0 * u_hyp + math.log(scaled)


def normalization_integral(
    symmetry_class: SymmetryClass, family: Family, nu: float, alpha: float
) -> float:
    """Boundary integral of the squared unnormalized profile; inf past the double range."""
    return stable.exp_or_inf(log_normalization_integral(symmetry_class, family, nu, alpha))


def _mode_at(mode_id: ModeId, alpha: float, nu: float, delta: float) -> SteklovMode:
    """The boundary-normalized mode with the given root and eigenvalue."""
    if mode_id.kind == ModeKind.CONSTANT:
        log_scale = 0.0
    elif mode_id.kind == ModeKind.XY:
        # mean square of x*y over the boundary is 1/3; log(sqrt(3)) keeps
        # scale == math.sqrt(3.0) to the last bit, 0.5*log(3) does not
        log_scale = math.log(math.sqrt(3.0))
    else:
        log_total = log_normalization_integral(mode_id.symmetry_class, mode_id.family, nu, alpha)
        log_scale = -0.5 * (log_total - math.log(Rectangle(alpha).perimeter))
    return SteklovMode(mode_id, alpha, nu, delta, log_scale)


def resolve(mode_id: ModeId, alpha: float, tol: float = DEFAULT_TOL) -> SteklovMode:
    """Fully populate a mode: root, eigenvalue, normalization. Deterministic."""
    Rectangle(alpha)  # validates alpha
    if mode_id.kind == ModeKind.CONSTANT:
        return _mode_at(mode_id, alpha, 0.0, 0.0)
    if mode_id.kind == ModeKind.XY:
        if alpha != 1.0:
            raise InvalidModeError(f"the xy mode exists only on the square, got alpha={alpha}")
        return _mode_at(mode_id, alpha, 0.0, 1.0)
    eq = DeterminingEquation(mode_id.symmetry_class, mode_id.family, alpha)
    nu = solve_nu(eq, mode_id.index, tol)
    return _mode_at(mode_id, alpha, nu, eigenvalue(mode_id.symmetry_class, mode_id.family, nu, alpha))


def _separated_factors(
    symmetry_class: SymmetryClass, family: Family, nu, log_scale, x, y,
    d_hyp: bool = False, d_trig: bool = False,
):
    """(x factor, y factor) of normalized separated modes; the profile is their product.

    nu and log_scale are one mode's, or arrays for several modes of one
    (class, family) that broadcast against x and y. d_hyp differentiates the
    hyperbolic factor, d_trig the trig one; the nu prefactor of the
    derivative is left to the caller.
    """
    hyp_cosh, trig_cos = _profile_parts(symmetry_class, family)
    u, v = (x, y) if family == Family.X else (y, x)  # hyperbolic, trig variable
    uh = nu * np.asarray(u, dtype=float)
    vt = nu * np.asarray(v, dtype=float)

    use_cosh = hyp_cosh ^ d_hyp  # derivative swaps cosh <-> sinh
    if use_cosh:
        hyp_part = stable.signed_exp_cosh(uh, log_scale)
    else:
        hyp_part = stable.signed_exp_sinh(uh, log_scale)

    use_cos = trig_cos ^ d_trig
    trig_part = np.cos(vt) if use_cos else np.sin(vt)
    if d_trig and trig_cos:  # d/dv cos = -sin
        trig_part = -trig_part
    return (hyp_part, trig_part) if family == Family.X else (trig_part, hyp_part)


def _mode_factors(mode: SteklovMode, x, y):
    """(x factor, y factor) of any mode at coordinates x and y; the mode is their product."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if mode.kind == ModeKind.CONSTANT:
        return np.ones(x.shape), np.ones(y.shape)
    if mode.kind == ModeKind.XY:
        return mode.scale * x, y
    return _separated_factors(mode.symmetry_class, mode.family, mode.nu, mode.log_scale, x, y)


def _trace_block(modes: Sequence[SteklovMode], x, y) -> np.ndarray:
    """Values of modes of one kind (one (class, family) when separated) at 1-d x and y.

    Row i holds modes[i]; x and y broadcast against each other, so an edge
    passes its fixed coordinate as a single value.
    """
    m0 = modes[0]
    if m0.kind != ModeKind.SEPARATED:
        return np.array([np.multiply(*_mode_factors(m, x, y)) for m in modes])
    nu = np.array([[m.nu] for m in modes])
    log_scale = np.array([[m.log_scale] for m in modes])
    fx, fy = _separated_factors(m0.symmetry_class, m0.family, nu, log_scale, x, y)
    return fx * fy


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
    args = (mode.symmetry_class, mode.family, mode.nu, mode.log_scale, x, y)
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


def first_modes(
    alpha: float,
    count: int,
    classes: Optional[Sequence[SymmetryClass]] = None,
    tol: float = DEFAULT_TOL,
) -> list[SteklovMode]:
    """The first `count` non-constant modes in ascending-eigenvalue order.

    classes restricts the modes to those symmetry classes (all four when
    None); the xy mode counts as class II. Merges the per-(class, family)
    sequences lazily; each sequence is strictly increasing in delta, so a
    heap of one candidate per sequence suffices. Ties (the square is full of
    them) break by class then family order.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    heap: list[tuple] = []
    for cls, fam in _streams(classes):
        mode = resolve(ModeId.separated(cls, fam, 1), alpha, tol)
        heapq.heappush(heap, (mode.sort_key(), mode))
    if alpha == 1.0 and (classes is None or SymmetryClass.II in classes):
        mode = resolve(ModeId.xy(), alpha, tol)
        heapq.heappush(heap, (mode.sort_key(), mode))
    out: list[SteklovMode] = []
    while heap and len(out) < count:
        _, mode = heapq.heappop(heap)
        out.append(mode)
        if mode.kind == ModeKind.SEPARATED:
            nxt = resolve(
                ModeId.separated(mode.symmetry_class, mode.family, mode.index + 1), alpha, tol
            )
            heapq.heappush(heap, (nxt.sort_key(), nxt))
    if len(out) < count:
        raise InvalidModeError(f"filter yields only {len(out)} modes, {count} requested")
    return out


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
    ids: list[ModeId] = []
    if classes is None or SymmetryClass.I in classes:
        ids.append(ModeId.constant())
    if alpha == 1.0 and (classes is None or SymmetryClass.II in classes):
        ids.append(ModeId.xy())
    for cls, fam in _streams(classes):
        ids.extend(ModeId.separated(cls, fam, j) for j in range(1, j_max + 1))
    return sorted((resolve(mid, alpha, tol) for mid in ids), key=SteklovMode.sort_key)
