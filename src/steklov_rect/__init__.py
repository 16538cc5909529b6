"""Steklov eigenfunctions on rectangles, in closed form.

The eigenfunctions of the harmonic Steklov problem on (-1,1) x (-alpha,alpha)
are products of trig and hyperbolic factors whose frequencies solve eight
explicit transcendental equations. This package solves those equations with
guaranteed brackets, builds the boundary-normalized eigenbasis, expands
boundary data in it, evaluates harmonic functions inside the rectangle
(with a certified error radius at the center), and solves Dirichlet, Robin
and Neumann problems for Laplace's equation.
"""

from .geometry import BoundaryPoint, CornerError, DomainError, Edge, Rectangle
from .roots import (
    DeterminingEquation,
    Family,
    NonConvergenceError,
    PoleProximityError,
    SymmetryClass,
    bracket,
    residual,
    solve_nu,
)
from .modes import (
    InvalidModeError,
    ModeId,
    ModeKind,
    SteklovMode,
    eigenvalue,
    evaluate,
    first_modes,
    normal_derivative,
    normalization_integral,
    log_normalization_integral,
    resolve,
    spectrum,
)
from .boundary import (
    AnalyticBoundaryFunction,
    BoundaryDataError,
    BoundaryFunction,
    EdgeCoverageError,
    LinearCombination,
    ModeTrace,
    SampledBoundaryFunction,
    builtin_boundary,
    coefficient,
    constant_function,
    inner_product,
    load_boundary_csv,
)
from .expansion import (
    CentralValueResult,
    EnergyTail,
    ExpansionTerm,
    IncompatibleDataError,
    SteklovExpansion,
    central_value,
    energy_tail,
    evaluate_interior,
    expand_dirichlet,
    expand_for_central,
    expansion_from_dict,
    expansion_to_dict,
    load_expansion,
    save_expansion,
    solve_neumann,
    solve_robin,
)
from .bounds import (
    BoundKind,
    DecayBound,
    TableReport,
    TableRow,
    check_rect_bounds,
    check_square_bounds,
    nu_orderings,
    reproduce_tables,
)

__version__ = "0.1.0"
