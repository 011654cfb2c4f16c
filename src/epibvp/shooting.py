"""Shooting on the free coefficient of the quadratic start term.

The left boundary behaviour (w'(0) = 0, w -> 0) is built into the iterates,
so the only degree of freedom is the coefficient ``a`` of w0 = a r**2.  The
right boundary condition turns into a scalar equation B(a) = 0 which is
scanned on a grid and bracketed; each bracket is then solved by Newton
steps on the exact derivative dB/da, which the kernel carries next to the
iterate, with bisection as the safeguard.  Each root reports its noise
band, rounding-noise floor / |dB/da|: how far the root is determined.

The scan reads only the sign of B and whether |B| clears its noise floor.
B after the last step is a quadratic form in the row before it, so the
scan runs the kernel to depth n - 1 and takes the last step only where a
rounding bound on that form cannot fix both facts (see :func:`_scan`).

Two genuine solution branches coexist below the critical deposition rate.
At large |a| the float value of B is dominated by rounding and changes
sign in dense bands.  A root is accepted by two rules only:

* its grid cell is a sign change of B, the nearest readings on either
  side that rise above their rounding-noise floor have opposite signs, and
  no other sign change lies between those two readings;
* the exact residual table of its iterate (:func:`recover.residual_table`,
  the figure ``solve`` and ``residual-table`` print) has a maximum of at
  most ``DEFAULT_RESIDUAL_CAP``; a NaN maximum fails.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import recover
from .polyring import RPoly, _kernel_weights, evaluate
from .vim import (_check_depth, _euler_symbol, _iterate_coeffs,
                  _iterate_tangents, _r_powers, _run, _start_rows)

__all__ = [
    "BoundaryKind",
    "BranchLabel",
    "BranchRoot",
    "boundary_residual",
    "find_branches",
    "DEFAULT_WINDOW",
    "DEFAULT_GRID_POINTS",
    "DEFAULT_RESIDUAL_CAP",
]

DEFAULT_WINDOW = (-120.0, 20.0)
DEFAULT_GRID_POINTS = 4000
DEFAULT_RESIDUAL_CAP = 10.0


class _Named(Enum):
    """An enum of lower-case names, parsed by :meth:`parse`."""

    @classmethod
    def parse(cls, text: str):
        try:
            return cls(text.strip().lower())
        except ValueError:
            # "BoundaryKind" reads "boundary kind" in the message
            noun = " ".join(re.findall("[A-Z][a-z]*", cls.__name__)).lower()
            names = ", ".join(member.value for member in cls)
            raise ValueError(f"unknown {noun} {text!r}; expected one of {names}")


class BoundaryKind(_Named):
    """The three right-boundary conditions on w at r = 1."""

    DIRICHLET = "dirichlet"
    NAVIER_ONE = "navier1"
    NAVIER_TWO = "navier2"

    def residual(self, w1: float, w1_prime: float) -> float:
        """Boundary functional on the endpoint pair (w(1), w'(1))."""
        if self is BoundaryKind.DIRICHLET:
            return w1
        if self is BoundaryKind.NAVIER_ONE:
            return w1_prime
        return w1 - w1_prime

    @property
    def functional(self) -> tuple:
        """(alpha, beta) with B = alpha w(1) + beta w'(1), read off
        :meth:`residual`; B itself is always formed by :meth:`residual`,
        since 0 * inf would turn an overflowed w'(1) into NaN."""
        return self.residual(1.0, 0.0), self.residual(0.0, 1.0)

    @property
    def default_iterations(self) -> int:
        """Iteration depth used for this condition unless overridden."""
        return 6 if self is BoundaryKind.DIRICHLET else 7

    @property
    def linear_root_coefficient(self) -> float:
        """c in the small-|lam| closed form w = lam/16 r**2 (r**2 - c), whose
        B = lam/16 (alpha (1 - c) + beta (4 - 2 c)) vanishes at
        c = (alpha + 4 beta) / (alpha + 2 beta): exactly 1, 2 or 3."""
        alpha, beta = self.functional
        return (alpha + 4.0 * beta) / (alpha + 2.0 * beta)


class BranchLabel(_Named):
    LOWER = "lower"
    UPPER = "upper"
    POSITIVE = "positive"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class BranchRoot:
    """One resolved solution branch at fixed (lam, bc), with its evidence:
    the iterate w at a_star, the profile phi recovered from it and the
    exact residual table of w."""

    a_star: float
    bc: BoundaryKind
    lam: float
    label: BranchLabel
    bracket: tuple
    # noise band floor / |dB/da| at a_star: the root is determined only to
    # within this distance
    band: float
    w: RPoly = field(repr=False)
    phi: RPoly = field(repr=False)
    table: recover.ResidualTable = field(repr=False)


# start values per kernel call in the scan: as many rows as hold 2**15
# coefficients of the last iterate, and at least 64 (254 rows at depth 7).
# Over four 4000-point scans at depths 6 to 8, 2**13 and 2**14
# coefficients took 1.3 and 1.2 times as long, and 2**16 and 2**17 were
# as fast within the run-to-run spread of 10 %.  The last step, whose
# arrays are the largest, takes at most 64 rows per call: one call per
# block was as fast, but raised the peak memory of a 36-case branch
# census from 34.7 to 35.5 MB
_BLOCK = 64
_BLOCK_COEFFS = 2 ** 15


def _block_rows(n: int) -> int:
    _check_depth(n)
    return max(_BLOCK, _BLOCK_COEFFS // (2 ** n + 1))


def _boundary_rows(c: np.ndarray, bc: BoundaryKind):
    """Boundary functional of each row, and its rounding-noise floor.

    w(1) and w'(1) are plain coefficient sums.  On steep branches the
    coefficients cancel massively, and |B| cannot be resolved below eps
    times the absolute coefficient mass |alpha| sum |c_k| + |beta| sum k |c_k|
    of B = alpha w(1) + beta w'(1); the floor is 8 eps times that mass.
    """
    # the power of r in each column of an iterate stored in s = r**2
    k = 2.0 * np.arange(c.shape[1])
    b = bc.residual(c.sum(axis=1), (c * k).sum(axis=1))
    size = np.abs(c)
    masses = size.sum(axis=1), (size * k).sum(axis=1)
    # a zero weight adds nothing, even where its sum overflows
    scale = sum(abs(weight) * mass
                for weight, mass in zip(bc.functional, masses) if weight)
    return b, 8.0 * np.finfo(float).eps * scale


def boundary_residual(a: float, lam: float, bc: BoundaryKind,
                      n_iter: int | None = None) -> float:
    """Right-boundary functional of the n_iter-step iterate started at a r**2."""
    n = bc.default_iterations if n_iter is None else n_iter
    return float(_boundary_rows(_iterate_coeffs(a, lam, n), bc)[0][0])


# a certified mass below this keeps every intermediate of the last step
# finite: they are at most 32 m**2 times the mass, and m <= 513
_MASS_LIMIT = 2.0 ** 960


@lru_cache(maxsize=None)
def _last_step_forms(m: int, bc: BoundaryKind):
    """B after one more step from a row c of m columns, as forms in c,
    the forms on |c| that bound its mass, and the certification factor.

    With kernel weights W, Euler symbol E and g_j = alpha + 2 j beta the
    weight of column j in B = alpha w(1) + beta w'(1), the step maps c_j
    to c_j + W_j (E_j c_j - (c*c)_j / 2 - lam / 2 [j = 2]), so

        B = sum_j g_j (1 + W_j E_j) c_j - c^T H c / 2 - lam g_2 W_2 / 2

    with the Hankel matrix H_il = g_{i+l} W_{i+l}.  The mass M is the same
    forms on |c| with s_j = |alpha| + 2 j |beta| for g_j and |W|, and
    1 + |W_j E_j| for 1 + W_j E_j.  The cache holds vectors only: each
    Hankel matrix is a read-only view on its 2 m - 1 entries.
    """
    alpha, beta = bc.functional
    k = 2.0 * np.arange(2 * m - 1)
    kernel = _kernel_weights(2 * m - 1, 2)
    g, s = alpha + beta * k, abs(alpha) + abs(beta) * k
    linear = kernel[:m] * _euler_symbol(m, 2)
    gw, sw = -0.5 * g * kernel, 0.5 * s * np.abs(kernel)
    value = (g[:m] * (1.0 + linear), sliding_window_view(gw, m), gw[2])
    mass = (s[:m] * (1.0 + np.abs(linear)), sliding_window_view(sw, m), sw[2])
    for form in (value[0], mass[0]):
        form.setflags(write=False)
    # Higham's gamma_n = n u / (1 - n u) for n = 4 m + 16, u = eps / 2
    nu = (4 * m + 16) * 0.5 * np.finfo(float).eps
    gamma = nu / (1.0 - nu)
    factor = (8.0 * np.finfo(float).eps + 2.0 * gamma) * (1.0 + gamma) ** 3
    return value, mass, factor


def _certify(c: np.ndarray, lam: float, bc: BoundaryKind):
    """Read B after one more step from each row of c without forming the
    step, and tell the rows whose reading certifies the exact one: where
    |B^| > factor * M^, with M^ < ``_MASS_LIMIT``, the exact reading has the
    sign of B^ and clears its noise floor (see :func:`_scan`)."""
    value, mass, factor = _last_step_forms(c.shape[1], bc)

    def form(x, linear, hankel, forcing, rate):
        return np.einsum("ij,ij->i", x @ hankel + linear, x) + rate * forcing

    with np.errstate(over="ignore", invalid="ignore"):
        b = form(c, *value, lam)
        bound = form(np.abs(c), *mass, abs(lam))
        sure = ((np.abs(b) > factor * bound + np.finfo(float).tiny)
                & (bound < _MASS_LIMIT))
    return b, sure


def _scan(a, lam: float, bc: BoundaryKind, n: int):
    """Boundary functional at the start values a and whether each reading
    clears its rounding-noise floor, read a block of :func:`_block_rows`
    rows at a time.

    The first n - 1 steps run through the kernel.  :func:`_certify` then
    reads B from the last rows c (m columns) without the last convolution,
    and only the rows it cannot certify take the last step and
    :func:`_boundary_rows`; their readings equal :func:`boundary_residual`
    bit for bit.  A certified reading B^ has the sign of the exact one,
    which is resolved.  The bound counts roundings (Higham 2002, ch. 3):
    each term of the exact reading passes through at most 3 m + 4 of them
    (m in the convolution, 4 in the step, 2 m in the boundary sums), and
    each term of B^ and of the mass M^ through at most 2 m + 5, so with
    gamma = gamma_{4 m + 16} the exact reading lies within 2 gamma M of
    B^, its floor is at most 8 eps (1 + gamma) M, and M <= (1 + gamma) M^;
    one more factor 1 + gamma covers the rounding of the threshold, and
    ``tiny`` any underflow.  Overflowing rows are never certified and
    raise :class:`IterationOverflow` as in the kernel.
    """
    block = _block_rows(n)
    b = np.empty(a.size)
    resolved = np.ones(a.size, dtype=bool)
    for start in range(0, a.size, block):
        c = _run(_start_rows(a[start:start + block]), lam, n, 2,
                 stop=n - 1)[0]
        b_hat, sure = _certify(c, lam, bc)
        b[start:start + c.shape[0]] = b_hat
        uncertain = np.flatnonzero(~sure)
        for i in range(0, uncertain.size, _BLOCK):
            rest = uncertain[i:i + _BLOCK]
            exact, floor = _boundary_rows(
                _run(c[rest], lam, n, 2, start=n - 1)[0], bc)
            b[start + rest] = exact
            resolved[start + rest] = np.abs(exact) > floor
    return b, resolved


# a Newton step this many float spacings of a or shorter ends the polish
_STEP_ULPS = 4


def _polish(lo, hi, f_lo, lam: float, bc: BoundaryKind, n: int):
    """Solve sign-change brackets [lo, hi] in lockstep by safeguarded
    Newton steps, down to the noise floor or float resolution.  Only the
    sign of f_lo, the functional at lo, is read.

    Each step reads the functional, its noise floor and its exact
    a-derivative at every open bracket's point from one call of
    :func:`vim._iterate_tangents`.  A bracket starts
    from its midpoint, or from the exact candidate a = 0 when it
    straddles zero, so that the trivial branch is reported as an exact
    zero root.  Each reading shrinks the bracket by its sign; the next
    point is the Newton point, or the midpoint when the Newton point
    leaves the bracket or fails to halve the previous step.  A bracket
    stops when B reads zero or below its floor, or when the next step is
    at most ``_STEP_ULPS`` float spacings of a.  Per bracket this returns
    the last point evaluated, |B| and its floor there, the noise band
    floor / |dB/da| and the iterate row.  A bracket with lo == hi
    returns lo.
    """
    lo, hi, f_lo = lo.copy(), hi.copy(), f_lo.copy()
    x = np.where((lo < 0.0) & (hi > 0.0), 0.0, 0.5 * (lo + hi))
    step = hi - lo
    achieved, floor, band = np.empty((3, lo.size))
    rows = np.empty((lo.size, 0))
    idx = np.arange(lo.size)
    while idx.size:
        c, c_a = _iterate_tangents(x[idx], lam, n)
        f, f_floor = _boundary_rows(c, bc)
        slope = _boundary_rows(c_a, bc)[0]
        if rows.shape[1] < c.shape[1]:
            rows = np.zeros((lo.size, c.shape[1]))
        achieved[idx], floor[idx], rows[idx] = np.abs(f), f_floor, c
        with np.errstate(divide="ignore"):
            band[idx] = f_floor / np.abs(slope)
        left = f * f_lo[idx] > 0.0
        lo[idx[left]], f_lo[idx[left]] = x[idx[left]], f[left]
        hi[idx[~left]] = x[idx[~left]]
        with np.errstate(divide="ignore", invalid="ignore"):
            target = x[idx] - f / slope
        new_step = np.abs(target - x[idx])
        bisect = ~((target > lo[idx]) & (target < hi[idx])
                   & (2.0 * new_step <= step[idx]))
        target[bisect] = 0.5 * (lo[idx[bisect]] + hi[idx[bisect]])
        new_step = np.abs(target - x[idx])
        done = ((np.abs(f) <= f_floor)
                | (new_step <= _STEP_ULPS * np.spacing(np.abs(x[idx]))))
        idx, target, new_step = idx[~done], target[~done], new_step[~done]
        x[idx], step[idx] = target, new_step
    return x, achieved, floor, band, rows


def _labels(a_star, phis, lam: float) -> list:
    """Branch labels of the roots at a_star with profiles phis, read from
    each profile once on :data:`recover.PROFILE_GRID`.

    For lam < 0 the label is the sign of phi at r = 1/2 (positive or
    negative solution); a profile that changes sign on [0, 1] triggers a
    soft warning, since sign-definiteness is expected but not enforced.
    For lam >= 0 the root whose phi has the smallest sup norm is lower,
    ties going to the smaller a, and every other root is upper; a lower
    profile that rises above an upper one triggers a soft warning, once
    per such pair.
    """
    values = [evaluate(phi, recover.PROFILE_GRID) for phi in phis]
    sups = [float(np.max(np.abs(v))) for v in values]
    if lam < 0.0:
        for a, v, sup in zip(a_star, values, sups):
            tol = 1e-9 * max(1.0, sup)
            if (v > tol).any() and (v < -tol).any():
                warnings.warn(
                    f"branch at a={a:.6g} is not sign-definite on [0, 1]",
                    RuntimeWarning,
                    stacklevel=3,
                )
        # PROFILE_GRID[50] is r = 1/2 exactly
        return [BranchLabel.POSITIVE if v[50] >= 0.0 else BranchLabel.NEGATIVE
                for v in values]
    if not values:
        return []
    lowest = min(range(len(values)), key=lambda i: (sups[i], a_star[i]))
    labels = [BranchLabel.UPPER] * len(values)
    labels[lowest] = BranchLabel.LOWER
    for i, upper in enumerate(values):
        if i != lowest and np.any(values[lowest] > upper
                                  + 1e-9 * max(1.0, sups[i])):
            warnings.warn(
                "branch profiles are not pointwise ordered on [0, 1]",
                RuntimeWarning,
                stacklevel=3,
            )
    return labels


def _accepted(lam: float, bc: BoundaryKind, window, grid_points: int,
              n_iter: int | None = None, limit: int | None = None) -> list:
    """The roots :func:`find_branches` accepts, sorted by a, as dicts of
    a_star, bracket, band, iterate w and residual table.  With a limit,
    blocks of :func:`_block_rows` rows are scanned from the window's upper
    end, each bracket is decided once a resolved reading bounds it on the
    left, and the scan stops at ``limit`` roots: the top ones of the list.
    A bracket's fate depends only on the readings between the resolved
    readings around it, whose signs and resolution do not depend on the
    block, so both schedules decide alike."""
    if not math.isfinite(lam):
        raise ValueError(f"the rate must be finite, got {lam!r}")
    lo, hi = float(window[0]), float(window[1])
    # a width that overflows would fill the grid with inf and NaN
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ValueError(f"window must be finite with lo < hi, got {window!r}")
    if grid_points < 100:
        raise ValueError("grid_points must be at least 100")
    n = bc.default_iterations if n_iter is None else n_iter

    xs = np.linspace(lo, hi, grid_points)
    index = np.arange(grid_points)
    # only the signs of the readings and whether they clear their floor
    # count, which is what the scan certifies; a reading not taken is NaN
    fs = np.full(grid_points, np.nan)
    resolved = np.zeros(grid_points, dtype=bool)
    block = grid_points if limit is None else _block_rows(n)
    found, decided = [], grid_points
    for stop in range(grid_points, 0, -block):
        start = max(stop - block, 0)
        fs[start:stop], resolved[start:stop] = _scan(xs[start:stop], lam,
                                                     bc, n)
        sign = np.append(np.sign(fs), 0.0)  # the slot for "no such reading"

        # a bracket is a grid interval with a sign change, or a grid point
        # where the functional vanishes
        zero = fs == 0.0
        b_lo = np.flatnonzero(zero | (sign[:-1] * sign[1:] < 0.0))
        b_hi = np.where(zero[b_lo], b_lo, b_lo + 1)

        # a sign change between readings below the noise floor is rounding
        # noise unless the resolved readings around it change sign as well;
        # those prove a root between them but not which crossing it is, so
        # they vouch for a bracket only when it is the only one between them
        last = np.maximum.accumulate(np.where(resolved, index, -1))
        first = np.minimum.accumulate(
            np.where(resolved, index, grid_points)[::-1])[::-1]
        left = last[b_lo]
        _, shared, count = np.unique(left, return_inverse=True,
                                     return_counts=True)
        # decide the brackets from the first resolved reading up, which no
        # reading below can change, or all that are left at the lower end
        edge = first[start] if start else 0
        kept = ((sign[left] * sign[first[b_hi]] < 0.0) & (count[shared] == 1)
                & (edge <= b_lo) & (b_lo < decided))
        decided, b_lo, b_hi = edge, b_lo[kept], b_hi[kept]

        a_star, achieved, floor, band, rows = _polish(
            xs[b_lo], xs[b_hi], sign[b_lo], lam, bc, n)
        # each bracket is its own grid cell and its root stays inside it, so
        # the roots are distinct and already sorted by a
        batch = []
        for i, row in enumerate(rows):
            bracket = (float(xs[b_lo[i]]), float(xs[b_hi[i]]))
            if achieved[i] > floor[i]:
                warnings.warn(
                    f"bracket [{bracket[0]:.6g}, {bracket[1]:.6g}] did not "
                    f"resolve below tolerance (|B| = {achieved[i]:.3e}); "
                    "dropping", RuntimeWarning, stacklevel=3)
                continue
            w = RPoly(_r_powers(row))
            table = recover.residual_table(w, lam)
            # a NaN maximum fails the comparison and rejects the root
            if table.max_abs() <= DEFAULT_RESIDUAL_CAP:
                batch.append(dict(a_star=float(a_star[i]), bracket=bracket,
                                  band=float(band[i]), w=w, table=table))
        found = batch + found
        if limit is not None and len(found) >= limit:
            break
    return found


def find_branches(lam: float, bc: BoundaryKind,
                  window: tuple = DEFAULT_WINDOW,
                  grid_points: int = DEFAULT_GRID_POINTS,
                  *,
                  n_iter: int | None = None) -> list:
    """Locate and label every genuine solution branch inside the a-window.

    Scans the boundary functional on a uniform grid and solves each grid
    cell where it changes sign (or each grid point where it vanishes) by
    the safeguarded Newton polish of :func:`_polish`.  A cell is solved
    only when the nearest readings on either side that rise above the
    rounding-noise floor of their own evaluation have opposite signs and
    enclose no other sign change, and a root is kept only when the exact
    residual table of its iterate has a maximum of at most
    ``DEFAULT_RESIDUAL_CAP``.  An empty list is the expected non-existence
    signal above the critical deposition rate, not a failure.

    A root is kept only when the polish brought |B| to its noise floor;
    any other is dropped with a warning.  The polish stops there, so a
    root is fixed only to within its ``band``:
    1e-11 or less on most roots, up to about 2e-6 near a = -50, and on the
    steep Dirichlet branch, whose functional cannot be evaluated below the
    cancellation noise of its coefficients, from about 1e-5 at a = -70 to
    about 1 at a = -97.  Each root
    stays inside its own grid cell, so the roots are distinct and come out
    sorted by a, labelled by :func:`_labels`.  Each root carries the
    iterate, profile and residual table that the cap and the labels read;
    they equal :func:`recover.solve_profile` and
    :func:`recover.residual_table` at its a_star bit for bit.
    """
    found = [dict(f, phi=recover.recover_phi(f["w"]))
             for f in _accepted(lam, bc, window, grid_points, n_iter)]
    labels = _labels([f["a_star"] for f in found],
                     [f["phi"] for f in found], lam)
    return [BranchRoot(bc=bc, lam=lam, label=label, **f)
            for f, label in zip(found, labels)]
