"""Parameter sweeps, branch-gap tracking and the critical deposition rate.

The two solution branches approach each other as the deposition rate
increases and disappear past a fold.  Exactly at the fold the boundary
functional has a double root that sign-change bracketing cannot see, so
the critical rate is located by bisecting on the branch *count* (two
branches below, none above) rather than by solving at the fold itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import shooting
from .polyring import evaluate
from .recover import PROFILE_GRID, _sup_norm, solve_profile
from .shooting import BoundaryKind, BranchLabel

__all__ = [
    "InvalidBracket",
    "NotTwoBranches",
    "BranchSummary",
    "SweepRecord",
    "CriticalEstimate",
    "FOLD_SEPARATION",
    "sweep",
    "branch_gap",
    "find_critical_lambda",
    "depth_sensitivity",
]

FOLD_SEPARATION = 1e-6

# branch counting during the bisection does not need the fine default scan;
# a coarser grid only biases the estimate by (spacing)**2 through the
# square-root closing of the gap, far below the tolerances in use
_BISECTION_GRID_POINTS = 1500


class InvalidBracket(ValueError):
    """Bracket endpoints do not satisfy the two-branches/no-branches predicate."""


class NotTwoBranches(ValueError):
    """The operation needs a record with exactly two branches."""


@dataclass(frozen=True)
class BranchSummary:
    a_star: float
    sup_norm_phi: float
    label: BranchLabel


@dataclass(frozen=True)
class SweepRecord:
    """Branch census at one deposition rate."""

    lam: float
    bc: BoundaryKind
    branch_count: int
    branches: tuple
    fold_flag: bool


@dataclass(frozen=True)
class CriticalEstimate:
    """Bisection result for the fold location."""

    bc: BoundaryKind
    lambda_crit: float
    bracket: tuple
    n_iter_used: int


def _summarise(root: shooting.BranchRoot, n_iter: int | None) -> BranchSummary:
    profile = solve_profile(root.a_star, root.lam, root.bc, n_iter)
    return BranchSummary(a_star=root.a_star, sup_norm_phi=_sup_norm(profile.phi),
                         label=root.label)


def sweep(lambdas, bc: BoundaryKind, *, n_iter: int | None = None,
          window=shooting.DEFAULT_WINDOW,
          grid_points: int = shooting.DEFAULT_GRID_POINTS) -> list:
    """Census the branches at each deposition rate, flagging near-folds."""
    records = []
    for lam in lambdas:
        roots = shooting.find_branches(float(lam), bc, window, grid_points,
                                       n_iter=n_iter)
        branches = tuple(_summarise(root, n_iter) for root in roots)
        fold = bool(
            len(roots) == 2
            and abs(roots[1].a_star - roots[0].a_star) < FOLD_SEPARATION
        )
        records.append(SweepRecord(lam=float(lam), bc=bc,
                                   branch_count=len(roots),
                                   branches=branches, fold_flag=fold))
    return records


def branch_gap(record: SweepRecord, *, n_iter: int | None = None) -> float:
    """Sup-norm distance between the two branch profiles on a 101-point grid."""
    if record.branch_count != 2:
        raise NotTwoBranches(
            f"record at lam={record.lam} has {record.branch_count} branches"
        )
    profiles = [
        solve_profile(summary.a_star, record.lam, record.bc, n_iter)
        for summary in record.branches
    ]
    first = evaluate(profiles[0].phi, PROFILE_GRID)
    second = evaluate(profiles[1].phi, PROFILE_GRID)
    return float(np.max(np.abs(first - second)))


def _branch_count(lam: float, bc: BoundaryKind, n_iter: int | None,
                  window, grid_points: int) -> int:
    return len(shooting.find_branches(lam, bc, window, grid_points,
                                      n_iter=n_iter))


def find_critical_lambda(bc: BoundaryKind, lo: float, hi: float, tol: float,
                         *, n_iter: int | None = None,
                         window=shooting.DEFAULT_WINDOW,
                         grid_points: int = _BISECTION_GRID_POINTS
                         ) -> CriticalEstimate:
    """Bisect on the predicate "two branches exist" until hi - lo <= tol.

    Requires at least two branches at lo and none at hi; anything else
    raises :class:`InvalidBracket`.
    """
    if not (lo < hi) or not tol > 0.0:
        raise InvalidBracket("need lo < hi and tol > 0")
    n = bc.default_iterations if n_iter is None else n_iter
    if _branch_count(lo, bc, n, window, grid_points) < 2:
        raise InvalidBracket(f"fewer than two branches at lo = {lo}")
    if _branch_count(hi, bc, n, window, grid_points) != 0:
        raise InvalidBracket(f"branches persist at hi = {hi}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _branch_count(mid, bc, n, window, grid_points) >= 2:
            lo = mid
        else:
            hi = mid
    return CriticalEstimate(bc=bc, lambda_crit=0.5 * (lo + hi),
                            bracket=(lo, hi), n_iter_used=n)


def depth_sensitivity(bc: BoundaryKind, lo: float, hi: float, tol: float,
                      *, window=shooting.DEFAULT_WINDOW,
                      grid_points: int = _BISECTION_GRID_POINTS) -> dict:
    """Critical-rate estimates one iteration depth below and one above the
    default.

    The fold location depends on the truncation depth, and at deeper
    truncation it can move past the requested bracket; the bracket's upper
    end is then widened (up to four times its span) before giving up and
    recording ``None``.  Values are reported for disclosure, never asserted
    against a bound.
    """
    base = bc.default_iterations
    out = {}
    for depth in (base - 1, base + 1):
        estimate = None
        span = hi - lo
        for factor in (1.0, 2.0, 4.0):
            try:
                estimate = find_critical_lambda(
                    bc, lo, lo + factor * span, tol, n_iter=depth,
                    window=window, grid_points=grid_points)
                break
            except InvalidBracket:
                continue
        out[depth] = None if estimate is None else estimate.lambda_crit
    return out
