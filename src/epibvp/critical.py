"""Parameter sweeps, branch-gap tracking and the critical deposition rate.

The two solution branches approach each other as the deposition rate
increases and disappear past a fold.  Exactly at the fold the boundary
functional has a double root that sign-change bracketing cannot see, so
the critical rate is reported as a bracket of the branch *count* (two
branches below, none above).  Newton's method on the fold system
B(a, lam) = 0, dB/da = 0 (Moore & Spence 1980), with derivatives by
central differences of the block kernel, estimates the fold first; the
count bisection then probes either side of that estimate, so that it
usually closes the bracket in two scans, and falls back to midpoints
whenever the estimate is missing or a probe does not resolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import shooting
from .polyring import evaluate
# solve_profile is not called here; perfbench's tracer test checks that a
# name a caller module bound by import is traced, on this binding
from .recover import PROFILE_GRID, solve_profile  # noqa: F401
from .shooting import BoundaryKind
from .vim import _iterate_coeffs

__all__ = [
    "InvalidBracket",
    "NotTwoBranches",
    "SweepRecord",
    "CriticalEstimate",
    "sweep",
    "branch_gap",
    "find_critical_lambda",
    "depth_sensitivity",
]

# branch counting during the bisection does not need the fine default scan;
# a coarser grid only biases the estimate by (spacing)**2 through the
# square-root closing of the gap, far below the tolerances in use
_BISECTION_GRID_POINTS = 1500


class InvalidBracket(ValueError):
    """Bracket endpoints do not satisfy the two-branches/no-branches predicate."""


class NotTwoBranches(ValueError):
    """The operation needs a record with exactly two branches."""


@dataclass(frozen=True)
class SweepRecord:
    """Branch census at one deposition rate: the roots that
    :func:`shooting.find_branches` returned there."""

    lam: float
    bc: BoundaryKind
    branch_count: int
    branches: tuple


@dataclass(frozen=True)
class CriticalEstimate:
    """Bisection result for the fold location."""

    bc: BoundaryKind
    lambda_crit: float
    bracket: tuple
    n_iter_used: int


def sweep(lambdas, bc: BoundaryKind, *, n_iter: int | None = None,
          window=shooting.DEFAULT_WINDOW,
          grid_points: int = shooting.DEFAULT_GRID_POINTS) -> list:
    """Census the branches at each deposition rate."""
    records = []
    for lam in lambdas:
        roots = shooting.find_branches(float(lam), bc, window, grid_points,
                                       n_iter=n_iter)
        records.append(SweepRecord(lam=float(lam), bc=bc,
                                   branch_count=len(roots),
                                   branches=tuple(roots)))
    return records


def branch_gap(record: SweepRecord) -> float:
    """Sup-norm distance between the two branch profiles on a 101-point grid."""
    if record.branch_count != 2:
        raise NotTwoBranches(
            f"record at lam={record.lam} has {record.branch_count} branches"
        )
    first, second = (evaluate(root.phi, PROFILE_GRID)
                     for root in record.branches)
    return float(np.max(np.abs(first - second)))


def _branch_count(lam: float, bc: BoundaryKind, n_iter: int | None,
                  window, grid_points: int) -> int:
    return len(shooting.find_branches(lam, bc, window, grid_points,
                                      n_iter=n_iter))


# Newton on the fold system: step budget, relative step size taken as
# converged, and the relative difference step (about eps**(1/4), which
# balances truncation and rounding in the second differences)
_NEWTON_STEPS = 20
_NEWTON_RTOL = 1e-8
_DIFF_STEP = 1e-4

# the count bisection probes the fold estimate this many tolerances to
# either side, so that two resolving probes leave a bracket inside tol
_PROBE_OFFSET = 0.45


def _fold_estimate(roots, bc: BoundaryKind, n: int, lo: float, hi: float):
    """Fold rate of the n-step boundary functional near the closest root
    pair at lo, or None.

    Runs Newton on (a, lam) for B = 0, dB/da = 0 from the midpoint of that
    pair at lam = lo.  B, B_a, B_aa, B_lam and B_alam are central
    differences over a 3 x 3 stencil of kernel rows.  There is no estimate
    when a step is singular or not finite, when lam leaves (lo, hi), or
    when the steps have not settled after ``_NEWTON_STEPS``.
    """
    a_star = [root.a_star for root in roots]
    i = min(range(len(a_star) - 1), key=lambda j: a_star[j + 1] - a_star[j])
    a, lam = 0.5 * (a_star[i] + a_star[i + 1]), lo
    for _ in range(_NEWTON_STEPS):
        h = _DIFF_STEP * max(1.0, abs(a))
        d = _DIFF_STEP * max(1.0, abs(lam))
        # g[row, col] = B(a + (col - 1) h, lam + (row - 1) d)
        g = np.array([
            shooting._boundary_rows(
                _iterate_coeffs(np.array([a - h, a, a + h]), lam + j * d, n),
                bc)[0]
            for j in (-1, 0, 1)
        ])
        b = g[1, 1]
        b_a = (g[1, 2] - g[1, 0]) / (2.0 * h)
        b_aa = (g[1, 2] - 2.0 * b + g[1, 0]) / (h * h)
        b_lam = (g[2, 1] - g[0, 1]) / (2.0 * d)
        b_alam = (g[2, 2] - g[2, 0] - g[0, 2] + g[0, 0]) / (4.0 * h * d)
        det = b_a * b_alam - b_lam * b_aa
        if det == 0.0 or not math.isfinite(det):
            return None
        step_a = (b_a * b_lam - b * b_alam) / det
        step_lam = (b * b_aa - b_a * b_a) / det
        a, lam = a + step_a, lam + step_lam
        if not (math.isfinite(a) and lo < lam < hi):
            return None
        if (abs(step_a) <= _NEWTON_RTOL * max(1.0, abs(a))
                and abs(step_lam) <= _NEWTON_RTOL * max(1.0, abs(lam))):
            return float(lam)
    return None


def find_critical_lambda(bc: BoundaryKind, lo: float, hi: float, tol: float,
                         *, n_iter: int | None = None,
                         window=shooting.DEFAULT_WINDOW,
                         grid_points: int = _BISECTION_GRID_POINTS
                         ) -> CriticalEstimate:
    """Bisect on the predicate "two branches exist" until hi - lo <= tol.

    Requires finite lo < hi and tol > 0, at least two branches at lo and
    none at hi; anything else raises :class:`InvalidBracket` (the bounds
    before any scan).  The first two probes sit 0.45 tol below and above
    the Newton fold estimate when they lie inside the bracket; every
    later probe is the midpoint.  Each probe keeps the predicate at the
    bracket ends.  The search also stops when the midpoint rounds to an
    end, so a tol below the floating-point spacing returns the tightest
    bracket instead of looping.
    """
    if not (all(math.isfinite(x) for x in (lo, hi, tol))
            and lo < hi and tol > 0.0):
        raise InvalidBracket("need finite lo < hi and tol > 0")
    n = bc.default_iterations if n_iter is None else n_iter
    roots = shooting.find_branches(lo, bc, window, grid_points, n_iter=n)
    if len(roots) < 2:
        raise InvalidBracket(f"fewer than two branches at lo = {lo}")
    if _branch_count(hi, bc, n, window, grid_points) != 0:
        raise InvalidBracket(f"branches persist at hi = {hi}")
    fold = _fold_estimate(roots, bc, n, lo, hi)
    probes = [] if fold is None else [fold - _PROBE_OFFSET * tol,
                                      fold + _PROBE_OFFSET * tol]
    while hi - lo > tol:
        probes = [p for p in probes if lo < p < hi]
        mid = probes.pop(0) if probes else 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
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
