"""Solver for the radial boundary value problem of epitaxial deposition.

The stationary height profile phi(r) of a film growing on the unit disk
reduces, through w = r phi', to the singular second-order problem

    r**2 w'' - r w' = w**2 / 2 + lam * r**4 / 2,    w'(0) = 0,

closed by one of three right-boundary conditions on w at r = 1.  The
package solves it by a polynomial correction-functional iteration plus
shooting on the quadratic start coefficient, recovers phi, tabulates
pointwise residuals, tracks the two coexisting solution branches and
locates the critical deposition rate where they merge, and cross-checks
everything against an independent Runge-Kutta integrator.
"""

from .critical import (
    CriticalEstimate,
    InvalidBracket,
    NotTwoBranches,
    SweepRecord,
    branch_gap,
    depth_sensitivity,
    find_critical_lambda,
    sweep,
)
from .oracle import (
    IvpConfig,
    IvpOverflow,
    ivp_integrate,
    ivp_trajectory,
    oracle_branches,
    profile_from_trajectory,
    series_start,
    step_halving_order,
)
from .polyring import (
    NonIntegrableDefect,
    RPoly,
    add,
    apply_vim_kernel,
    differentiate,
    evaluate,
    mul,
)
from .recover import (
    NonRecoverable,
    Profile,
    ResidualTable,
    linear_approximation,
    recover_phi,
    residual_table,
    solve_profile,
)
from .shooting import (
    BoundaryKind,
    BranchLabel,
    BranchRoot,
    boundary_residual,
    find_branches,
)
from .vim import (
    APoly,
    DomainError,
    IterationBudgetExceeded,
    IterationOverflow,
    VimProblem,
    iterate,
    iterate_from,
    multiplier,
    multiplier_residuals,
    ode_defect,
    symbolic_iterate,
    vim_step,
)

__version__ = "0.1.0"

__all__ = [
    "APoly",
    "BoundaryKind",
    "BranchLabel",
    "BranchRoot",
    "CriticalEstimate",
    "DomainError",
    "InvalidBracket",
    "IterationBudgetExceeded",
    "IterationOverflow",
    "IvpConfig",
    "IvpOverflow",
    "NonIntegrableDefect",
    "NonRecoverable",
    "NotTwoBranches",
    "Profile",
    "RPoly",
    "ResidualTable",
    "SweepRecord",
    "VimProblem",
    "add",
    "apply_vim_kernel",
    "boundary_residual",
    "branch_gap",
    "depth_sensitivity",
    "differentiate",
    "evaluate",
    "find_branches",
    "find_critical_lambda",
    "iterate",
    "iterate_from",
    "ivp_integrate",
    "ivp_trajectory",
    "linear_approximation",
    "mul",
    "multiplier",
    "multiplier_residuals",
    "ode_defect",
    "oracle_branches",
    "profile_from_trajectory",
    "recover_phi",
    "residual_table",
    "series_start",
    "solve_profile",
    "step_halving_order",
    "sweep",
    "symbolic_iterate",
    "vim_step",
]
