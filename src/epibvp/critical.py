"""Parameter sweeps, branch-gap tracking and the critical deposition rate.

The two solution branches approach each other as the deposition rate
increases and disappear past a fold.  Exactly at the fold the boundary
functional has a double root that sign-change bracketing cannot see, so
the critical rate is reported as a bracket of the branch *count* (two
branches below, none above).  Newton's method on the fold system
B(a, lam) = 0, dB/da = 0 (Moore & Spence 1980), with the derivatives
that the collocation kernel steps along with B, finds the fold, and
the count 0.45 tol to either side of it certifies it (:func:`_certified`);
where Newton from lo finds none, a count bisection raises lo to a new seed.
A count is one root search of :func:`shooting._accepted`, on the Chebyshev
proxy; a count builds no profiles or labels, and a residual table only
where :func:`recover._capped` cannot settle the cap from its float
enclosure of the table, and then drops it.  It sees the pair until about
1e-11 below the fold.  The same fold at the neighbouring depths, under
the same certificate, is the depth sensitivity.
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
from .vim import MAX_DEPTH, IterationOverflow

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
    """Newton fold of the critical rate and the count bracket around it."""

    bc: BoundaryKind
    lambda_crit: float
    bracket: tuple
    n_iter_used: int
    a_fold: float
    lambda_star: float


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

# the certificate counts this many tolerances to either side of the fold
_PROBE_OFFSET = 0.45


def _fold(bc: BoundaryKind, n: int, a: float, lam: float,
          lo: float = -math.inf, hi: float = math.inf):
    """The fold (a, lam) of the n-step functional by Newton on B = 0, B_a = 0
    from (a, lam), with the Jacobian of one collocation reading per step; None
    when a step is singular or not finite, the iterates overflow, the steps
    do not settle in ``_NEWTON_STEPS``, or lam ends outside (lo, hi)."""
    for _ in range(_NEWTON_STEPS):
        try:
            readings, _ = shooting._readings(a, lam, bc, n, order=2)
        except IterationOverflow:
            return None
        b, b_a, b_lam, b_aa, b_alam = readings[:, 0].tolist()
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


def _roots_at_lo(bc: BoundaryKind, n: int, lo: float, hi: float, tol: float,
                 window) -> list:
    """The roots a* that the count finds at lo; raises InvalidBracket unless
    lo < hi and tol > 0 are finite and lo has a pair."""
    if not (all(math.isfinite(x) for x in (lo, hi, tol))
            and lo < hi and tol > 0.0):
        raise InvalidBracket("need finite lo < hi and tol > 0")
    a_star = [root["a_star"] for root in shooting._accepted(lo, bc, window, n)]
    if len(a_star) < 2:
        raise InvalidBracket(f"fewer than two branches at lo = {lo}")
    return a_star


def _seed(bc: BoundaryKind, n: int, lo: float, hi: float, tol: float,
          window, a_star: list):
    """:func:`_fold` in (lo, hi) from the closest pair of the roots a* at lo,
    else from that at each lo that a count bisection raises; InvalidBracket
    once hi - lo <= tol or a midpoint rounds to an end."""
    while True:
        if len(a_star) >= 2:
            low, high = min(zip(a_star, a_star[1:]), key=lambda p: p[1] - p[0])
            fold = _fold(bc, n, 0.5 * (low + high), lo, lo, hi)
            if fold is not None:
                return fold
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or mid == lo or mid == hi:
            raise InvalidBracket(f"Newton finds no fold in [{lo}, {hi}]")
        a_star = [root["a_star"]
                  for root in shooting._accepted(mid, bc, window, n)]
        if len(a_star) >= 2:
            lo = mid
        else:
            hi = mid


def _certified(bc: BoundaryKind, depth: int, lam: float, tol: float, window,
               lo: float = -math.inf, hi: float = math.inf):
    """(lam - 0.45 tol, lam + 0.45 tol) cut to (lo, hi) if at most tol wide
    and the depth-``depth`` count shows two branches or more at its lower end
    and none at its upper end, else None; a cut end keeps its known count."""
    offset = _PROBE_OFFSET * tol
    lower, upper = max(lo, lam - offset), min(hi, lam + offset)
    if upper - lower > tol:
        return None
    if lower > lo and len(shooting._accepted(lower, bc, window, depth)) < 2:
        return None
    if upper < hi and shooting._accepted(upper, bc, window, depth):
        return None
    return lower, upper


def _neighbours(bc: BoundaryKind, n: int, a_fold: float, lambda_star: float,
                tol: float, window) -> dict:
    """Depth n -+ 1 -> :func:`_fold` from the depth-n fold if certified;
    a count that overflows does not certify."""
    out = dict.fromkeys((n - 1, n + 1))
    for depth in [depth for depth in out if 1 <= depth <= MAX_DEPTH]:
        fold = _fold(bc, depth, a_fold, lambda_star)
        try:
            if fold is not None and _certified(bc, depth, fold[1], tol,
                                               window):
                out[depth] = fold[1]
        except IterationOverflow:
            pass
    return out


def find_critical_lambda(bc: BoundaryKind, lo: float, hi: float, tol: float,
                         *, n_iter: int | None = None,
                         window=shooting.DEFAULT_WINDOW) -> CriticalEstimate:
    """The Newton fold and a count bracket around it at most tol wide: at
    least two branches at its lower end and none at its upper end.

    Raises :class:`InvalidBracket` unless lo < hi and tol > 0 are finite
    (checked before any count), lo has two branches and hi none, the search
    of :func:`_seed` finds a fold and :func:`_certified` holds around it;
    the count merges a pair about 1e-11 below the fold, so a tol near that
    can be refused.
    """
    n = bc.default_iterations if n_iter is None else n_iter
    a_star = _roots_at_lo(bc, n, lo, hi, tol, window)
    if shooting._accepted(hi, bc, window, n):
        raise InvalidBracket(f"branches persist at hi = {hi}")
    a_fold, lambda_star = _seed(bc, n, lo, hi, tol, window, a_star)
    bracket = _certified(bc, n, lambda_star, tol, window, lo, hi)
    if bracket is None:
        raise InvalidBracket(f"the count does not certify tol = {tol!r}")
    lo, hi = bracket
    return CriticalEstimate(bc=bc, lambda_crit=0.5 * (lo + hi),
                            bracket=bracket, n_iter_used=n,
                            a_fold=a_fold, lambda_star=lambda_star)


def depth_sensitivity(bc: BoundaryKind, lo: float, hi: float, tol: float,
                      *, n_iter: int | None = None,
                      window=shooting.DEFAULT_WINDOW) -> dict:
    """Fold rates one iteration depth below and one above n_iter (the
    default depth when None), for disclosure.

    Newton's method at each neighbouring depth starts from the depth-n
    fold that :func:`find_critical_lambda` finds, without counting hi, and
    may end beyond hi.  A value is kept when the count at its depth
    certifies it; else, and for a depth outside 1..MAX_DEPTH or whose
    count overflows, it is None.
    """
    n = bc.default_iterations if n_iter is None else n_iter
    a_star = _roots_at_lo(bc, n, lo, hi, tol, window)
    a_fold, lambda_star = _seed(bc, n, lo, hi, tol, window, a_star)
    return _neighbours(bc, n, a_fold, lambda_star, tol, window)
