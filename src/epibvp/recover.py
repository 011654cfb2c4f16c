"""Height-profile recovery and pointwise residual tables.

The physical height profile phi is tied to the working unknown by
w = r phi' together with phi(1) = 0.  For a polynomial w with no constant
or linear term the recovery is exact term by term,

    c_k r**k   ->   c_k (r**k - 1) / k,        k >= 2,

so no quadrature enters.  The constant term is built so that Horner
evaluation of phi at r = 1 returns exactly zero.

The module also evaluates residual tables (the pointwise defect of an
approximate solution on the standard grid 0.0, 0.1, ..., 0.9) and the
closed-form small-|lam| approximations for the three boundary conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .polyring import RPoly, evaluate
from .vim import VimProblem, _defect_at, iterate

if TYPE_CHECKING:  # pragma: no cover
    from .shooting import BoundaryKind

__all__ = [
    "NonRecoverable",
    "Profile",
    "ResidualTable",
    "TABLE_GRID",
    "PROFILE_GRID",
    "recover_phi",
    "residual_table",
    "linear_approximation",
    "solve_profile",
]

TABLE_GRID = tuple(np.linspace(0.0, 0.9, 10))

# the grid on which profiles are compared and their sup norms taken
PROFILE_GRID = np.linspace(0.0, 1.0, 101)
PROFILE_GRID.setflags(write=False)


class NonRecoverable(ValueError):
    """The unknown has r**0 or r**1 terms, so w / r is not integrable at 0."""


@dataclass(frozen=True)
class Profile:
    """A recovered height profile together with its provenance."""

    phi: RPoly
    w: RPoly
    a_star: float
    bc: "BoundaryKind"
    lam: float


@dataclass(frozen=True)
class ResidualTable:
    """Pointwise defect of an approximate solution on a radial grid."""

    grid: tuple
    values: tuple
    lam: float = 0.0

    def max_abs(self) -> float:
        """Largest |value|; NaN when any value is NaN."""
        return float(np.max(np.abs(self.values)))


def recover_phi(w: RPoly) -> RPoly:
    """Integrate w / r from the right boundary: phi' r = w, phi(1) = 0.

    The constant coefficient is chosen to cancel the Horner partial sum of
    the remaining terms at r = 1, so ``evaluate(phi, 1.0)`` is exactly zero.
    """
    c = w.coeffs
    if c[:2].any():
        raise NonRecoverable(
            "profile recovery requires zero r**0 and r**1 coefficients"
        )
    coeffs = np.zeros(c.size)
    coeffs[2:] = c[2:] / np.arange(2, c.size, dtype=float)
    homogeneous = RPoly(np.concatenate([[0.0], coeffs[1:]]))
    coeffs[0] = -evaluate(homogeneous, 1.0)
    return RPoly(coeffs)


def residual_table(w: RPoly, lam: float, grid=None) -> ResidualTable:
    """Evaluate the exact polynomial defect of w at the grid points.

    The defect is formed from the coefficients (never by finite
    differences), so an exact solution would produce an identically zero
    table and the r = 0 entry vanishes structurally.  Each value is the
    exact defect of the float coefficients at the float grid point,
    correctly rounded to float, so cancellation among large coefficients
    on steep branches cannot turn it into rounding noise.  It is exact for
    those float coefficients only: on steep roots their rounding moves the
    table from that of the exact depth-n iterate by up to 5e-3 relative
    (dirichlet, lam = -100, against a 60-digit iteration).  The sums run in
    fixed-point integers with a bound on their truncation, raising the
    precision wherever the bound leaves the rounding open
    (:func:`epibvp.vim._defect_at`).  A coefficient or rate that is not
    finite gives NaN entries, as does a grid point that is not finite, and
    a defect beyond the float range reads as -inf or inf.
    """
    pts = TABLE_GRID if grid is None else tuple(float(g) for g in grid)
    values = tuple(_defect_at(w.coeffs, lam, pts).tolist())
    return ResidualTable(grid=tuple(pts), values=values, lam=lam)


def linear_approximation(bc: "BoundaryKind", lam: float) -> Profile:
    """Closed-form solution of the linearised problem (w**2 term dropped).

    For each boundary condition the solution is w = lam/16 r**2 (r**2 - c)
    with c = 1 (Dirichlet), 2 (first Navier), 3 (second Navier); the
    recovered profiles are lam/64 (r**2-1)**2, lam/64 (r**4 - 4 r**2 + 3)
    and lam/64 (r**4 - 6 r**2 + 5) respectively.
    """
    if not math.isfinite(lam):
        raise ValueError(f"the rate must be finite, got {lam!r}")
    # dividing first keeps -c * lam from overflowing near the float limit;
    # lam / 16 is exact outside the subnormal range, so no other rate moves
    a_star = -bc.linear_root_coefficient * (lam / 16.0)
    w = RPoly([0.0, 0.0, a_star, 0.0, lam / 16.0])
    return Profile(phi=recover_phi(w), w=w, a_star=a_star, bc=bc, lam=lam)


def solve_profile(a_star: float, lam: float, bc: "BoundaryKind",
                  n_iter: int | None = None) -> Profile:
    """Run the iteration at a resolved root and recover its profile."""
    n = bc.default_iterations if n_iter is None else n_iter
    w = iterate(VimProblem(lam=lam, a=a_star, n_iter=n))
    return Profile(phi=recover_phi(w), w=w, a_star=a_star, bc=bc, lam=lam)
