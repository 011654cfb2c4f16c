"""Parameter sweeps, branch-gap tracking and the critical deposition rate.

The two solution branches approach each other as the deposition rate
increases and disappear past a fold.  Exactly at the fold the boundary
functional has a double root that sign-change bracketing cannot see, so
the critical rate is reported as a bracket of the branch *count* (two
branches below, none above).  Newton's method on the fold system
B(a, lam) = 0, dB/da = 0 (Moore & Spence 1980), with the exact
derivatives that the monomial kernel carries, finds the fold first; the
count bisection probes either side of it, so that it usually closes the
bracket in two counts.  A count is one root search of
:func:`shooting._accepted`, on the Chebyshev proxy, without profiles or
labels; it has no grid, so it sees the pair up to the fold itself.  The
same fold at the neighbouring depths, checked by the count on either
side, is the depth sensitivity.
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
from .vim import MAX_DEPTH, IterationOverflow, _iterate_tangents

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
    """Count bracket and Newton fold (None if none) of the critical rate."""

    bc: BoundaryKind
    lambda_crit: float
    bracket: tuple
    n_iter_used: int
    a_fold: float | None = None
    lambda_star: float | None = None


def sweep(lambdas, bc: BoundaryKind, *, n_iter: int | None = None,
          window=shooting.DEFAULT_WINDOW) -> list:
    """Census the branches at each deposition rate."""
    records = []
    for lam in lambdas:
        roots = shooting.find_branches(float(lam), bc, window, n_iter=n_iter)
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


# Newton on the fold system: step budget and converged relative step size
_NEWTON_STEPS = 20
_NEWTON_RTOL = 1e-8

# the count probes sit this many tolerances to either side of the fold, so
# that two resolving probes leave a bracket inside tol
_PROBE_OFFSET = 0.45


def _fold(bc: BoundaryKind, n: int, a: float, lam: float,
          lo: float = -math.inf, hi: float = math.inf):
    """The fold (a, lam) of the n-step functional by Newton on B = 0, B_a = 0
    from (a, lam), with the exact Jacobian of one kernel call per step; None
    when a step is singular or not finite, the iterates overflow, the steps
    do not settle in ``_NEWTON_STEPS``, or lam ends outside (lo, hi)."""
    for _ in range(_NEWTON_STEPS):
        try:
            rows = _iterate_tangents(a, lam, n, second=True)
        except IterationOverflow:
            return None
        b, b_a, b_lam, b_aa, b_alam = shooting._boundary_rows(
            np.vstack(rows), bc).tolist()
        det = b_a * b_alam - b_lam * b_aa
        if det == 0.0 or not math.isfinite(det):
            return None
        step_a = (b_a * b_lam - b * b_alam) / det
        step_lam = (b * b_aa - b_a * b_a) / det
        a, lam = a + step_a, lam + step_lam
        if not (math.isfinite(a) and math.isfinite(lam)):
            return None
        if (abs(step_a) <= _NEWTON_RTOL * max(1.0, abs(a))
                and abs(step_lam) <= _NEWTON_RTOL * max(1.0, abs(lam))):
            return (a, lam) if lo < lam < hi else None
    return None


def _check_bracket(lo: float, hi: float, tol: float):
    """Raise InvalidBracket unless lo < hi and tol > 0 are finite."""
    if not (all(math.isfinite(x) for x in (lo, hi, tol))
            and lo < hi and tol > 0.0):
        raise InvalidBracket("need finite lo < hi and tol > 0")


def _fold_at_lo(bc: BoundaryKind, n: int, lo: float, hi: float, tol: float,
                window):
    """:func:`_fold` in (lo, hi) from the closest root pair at lo; raises
    InvalidBracket unless :func:`_check_bracket` passes and lo has a pair."""
    _check_bracket(lo, hi, tol)
    a_star = [root["a_star"]
              for root in shooting._accepted(lo, bc, window, n)]
    if len(a_star) < 2:
        raise InvalidBracket(f"fewer than two branches at lo = {lo}")
    i = min(range(len(a_star) - 1), key=lambda j: a_star[j + 1] - a_star[j])
    return _fold(bc, n, 0.5 * (a_star[i] + a_star[i + 1]), lo, lo, hi)


def find_critical_lambda(bc: BoundaryKind, lo: float, hi: float, tol: float,
                         *, n_iter: int | None = None,
                         window=shooting.DEFAULT_WINDOW) -> CriticalEstimate:
    """Bisect on the predicate "two branches exist" until hi - lo <= tol.

    Requires finite lo < hi and tol > 0, at least two branches at lo and
    none at hi; anything else raises :class:`InvalidBracket` (the bounds
    before any count).  The first two probes sit 0.45 tol below and above
    the Newton fold when they lie inside the bracket; every later probe is
    the midpoint.  Each probe keeps the predicate at the bracket ends.
    The search also stops when the midpoint rounds to an end, so a tol
    below the floating-point spacing returns the tightest bracket instead
    of looping.
    """
    n = bc.default_iterations if n_iter is None else n_iter
    fold = _fold_at_lo(bc, n, lo, hi, tol, window)
    if shooting._accepted(hi, bc, window, n):
        raise InvalidBracket(f"branches persist at hi = {hi}")
    a_fold, lambda_star = fold or (None, None)
    probes = [] if fold is None else [lambda_star - _PROBE_OFFSET * tol,
                                      lambda_star + _PROBE_OFFSET * tol]
    while hi - lo > tol:
        probes = [p for p in probes if lo < p < hi]
        mid = probes.pop(0) if probes else 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if len(shooting._accepted(mid, bc, window, n)) >= 2:
            lo = mid
        else:
            hi = mid
    return CriticalEstimate(bc=bc, lambda_crit=0.5 * (lo + hi),
                            bracket=(lo, hi), n_iter_used=n,
                            a_fold=a_fold, lambda_star=lambda_star)


def depth_sensitivity(bc: BoundaryKind, lo: float, hi: float, tol: float,
                      *, n_iter: int | None = None,
                      window=shooting.DEFAULT_WINDOW) -> dict:
    """Fold rates one iteration depth below and one above n_iter (the
    default depth when None), for disclosure.

    Newton's method at each neighbouring depth starts from the depth-n
    fold found from the roots at lo, and may end beyond hi.  A value is
    kept when the count at its depth shows two branches 0.45 tol below it
    and none 0.45 tol above; else, and for a depth outside 1..MAX_DEPTH,
    it is None.  The count merges a pair only where the rounding count of
    its readings covers the gap, about 1e-11 below a fold, so the check
    passes at any tol well above that.  lo, hi and tol are checked as in
    :func:`find_critical_lambda`, except hi's count.
    """
    n = bc.default_iterations if n_iter is None else n_iter
    seed = _fold_at_lo(bc, n, lo, hi, tol, window)
    out = dict.fromkeys((n - 1, n + 1))
    for depth in out:
        fold = (_fold(bc, depth, *seed)
                if seed is not None and 1 <= depth <= MAX_DEPTH else None)
        if fold is None:
            continue
        lam = fold[1]
        offset = _PROBE_OFFSET * tol
        if (len(shooting._accepted(lam - offset, bc, window, depth)) >= 2
                and not shooting._accepted(lam + offset, bc, window, depth)):
            out[depth] = lam
    return out
