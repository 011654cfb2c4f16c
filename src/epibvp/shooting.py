"""Shooting on the free coefficient of the quadratic start term.

The left boundary behaviour (w'(0) = 0, w -> 0) is built into the iterates,
so the only degree of freedom is the coefficient ``a`` of w0 = a r**2.  The
right boundary condition turns into a scalar equation B(a) = 0.

At depth n, B is a polynomial of degree 2**n in a.  The roots come from a
piecewise Chebyshev interpolant of B read from the collocation kernel
(:func:`vim._collocation_readings`), whose readings stay accurate where
the monomial coefficients cancel: the real eigenvalues of each piece's
colleague matrix (see :func:`_proxy_roots`).  A root is accepted by two
rules only:

* after one Newton step on the collocation a-tangent, B reads opposite
  signs at the ends of an interval around it, wider than the root's band
  (the reading's error bound over |dB/da|) and narrower than the gap to
  the next root: the interval is the root's ``bracket``;
* the exact residual table of its monomial iterate
  (:func:`recover.residual_table`, the figure ``solve`` and
  ``residual-table`` print) has a maximum of at most
  ``DEFAULT_RESIDUAL_CAP``; a NaN maximum fails.

:func:`recover._capped` gives that verdict, and builds the table only
where a float enclosure of it leaves the verdict open, so a search builds
no table for most roots and keeps none: a root's ``table`` is built from
its iterate when read.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import recover
from .polyring import RPoly, evaluate
from .vim import (COLLOCATION_POINTS, VimProblem, _check_depth,
                  _collocation_readings, _rounding_gamma, iterate)

__all__ = [
    "BoundaryKind",
    "BranchLabel",
    "BranchRoot",
    "boundary_residual",
    "find_branches",
    "DEFAULT_WINDOW",
    "DEFAULT_RESIDUAL_CAP",
]

DEFAULT_WINDOW = (-120.0, 20.0)
# the cap of recover's verdict (:func:`recover._capped`) on each root
DEFAULT_RESIDUAL_CAP = recover._CAP


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
    the iterate w at a_star, the profile phi recovered from it and, as
    :attr:`table`, the exact residual table of w."""

    a_star: float
    bc: BoundaryKind
    lam: float
    label: BranchLabel
    bracket: tuple
    # the reading's error bound / |dB/da| at a_star: the root is determined
    # only to within this distance
    band: float
    w: RPoly = field(repr=False)
    phi: RPoly = field(repr=False)
    # largest |phi| on recover.PROFILE_GRID, which the labels compare
    sup_norm: float = field(repr=False)

    @property
    def table(self) -> recover.ResidualTable:
        """:func:`recover.residual_table` of w, built on each read."""
        return recover.residual_table(self.w, self.lam)


def _readings(a, lam: float, bc: BoundaryKind, n: int,
              p: int = COLLOCATION_POINTS, *, order: int = 0):
    """B of the depth-n collocation iterate at each a, with ``order`` 1
    B_a below it and with ``order`` 2 B_a, B_lam, B_aa and B_alam (see
    :func:`vim._collocation_readings`); and the absolute sums of B's last
    quadrature sums."""
    readings, size = _collocation_readings(a, lam, n, p, order=order)
    b = bc.residual(readings[..., 0], readings[..., 1])
    alpha, beta = bc.functional
    size = abs(alpha) * size[0, :, 0] + abs(beta) * size[0, :, 1]
    return (b if order else b[0]), size


def boundary_residual(a: float, lam: float, bc: BoundaryKind,
                      n_iter: int | None = None) -> float:
    """Right-boundary functional of the n_iter-step iterate started at
    a r**2, read from the collocation kernel: exact up to rounding for
    2**n_iter <= ``COLLOCATION_POINTS``, an estimate beyond."""
    for name, value in (("a", a), ("the rate", lam)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    n = bc.default_iterations if n_iter is None else n_iter
    return float(_readings(a, lam, bc, n)[0][0])


# the proxy of B on the window: pieces at the start, most splits of a
# piece, and the largest ratio of the two halves' largest readings
_PIECES = 4
_SPLITS = 8
_SPAN = 1e8


def _chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolants through the values at
    the d + 1 points cos(pi j / d), one interpolant per row (DCT-I by FFT)."""
    d = values.shape[-1] - 1
    ext = np.concatenate((values, values[..., -2:0:-1]), axis=-1)
    c = np.fft.rfft(ext, axis=-1).real / d
    c[..., [0, d]] /= 2.0
    return c


def _piece_roots(c: np.ndarray) -> np.ndarray:
    """Real roots in [-1, 1] of the Chebyshev series c: the real
    eigenvalues there of its colleague matrix (``chebroots``), and none
    without it when c_0 dominates.  Since |T_k| <= 1 on [-1, 1], the
    series has no root there when |c_0| - sum_{k>=1} |c_k| is positive;
    it must exceed d eps sum_k |c_k| for degree d, a margin for the
    eigensolver's backward error, so that a skipped piece is one whose
    eigenvalues it would not have put in [-1, 1] either."""
    mass = np.abs(c).sum()
    if 2.0 * abs(c[0]) - mass > (c.size - 1) * np.finfo(float).eps * mass:
        return np.empty(0)
    r = np.polynomial.chebyshev.chebroots(c)
    # LAPACK returns a real eigenvalue with imaginary part 0
    return r.real[(r.imag == 0.0) & (np.abs(r) <= 1.0)]


def _proxy_roots(lo: float, hi: float, lam: float, bc: BoundaryKind,
                 n: int) -> np.ndarray:
    """Real roots in [lo, hi] of piecewise Chebyshev interpolants of the
    collocation B, sorted; a root on a shared edge may come twice.

    B is a polynomial of degree 2**n in a.  Each piece reads it at
    d + 1 second-kind Chebyshev points, d = min(2**n, p), so with
    2**n <= p the interpolant is B itself up to rounding.  Its
    coefficients are chopped below the rounding count of its largest
    reading (:func:`vim._rounding_gamma` times the largest absolute sums
    of its readings), and its real roots in [-1, 1] are the eigenvalues
    of the colleague matrix (``chebroots``; Boyd, SIAM J. Numer. Anal.
    40, 2002).  A piece is split in two, at most ``_SPLITS`` times, when
    its top quarter of coefficients does not chop (for 2**n > d) or when
    the largest readings of its two halves differ by more than ``_SPAN``:
    a chop scale set by the large half would hide the roots of the small
    one.
    """
    degree = min(2 ** n, COLLOCATION_POINTS)
    x = np.cos(np.pi * np.arange(degree + 1) / degree)
    half = np.full(_PIECES, 0.5 * (hi - lo) / _PIECES)
    mid = lo + half * (2.0 * np.arange(_PIECES) + 1.0)
    roots = []
    for splits in range(_SPLITS + 1):
        points = mid[:, None] + half[:, None] * x
        values, size = (r.reshape(points.shape) for r in
                        _readings(points, lam, bc, n))
        coeffs = _chebyshev_coefficients(values)
        floor = _rounding_gamma(COLLOCATION_POINTS, n) * size.max(axis=1)
        small = np.abs(coeffs) <= floor[:, None]
        left = np.abs(values[:, x <= 0.0]).max(axis=1)
        right = np.abs(values[:, x >= 0.0]).max(axis=1)
        unresolved = (2 ** n > degree) & ~small[:, 3 * degree // 4:].all(1)
        split = ((np.maximum(left, right) > _SPAN * np.minimum(left, right))
                 | unresolved) & (splits < _SPLITS)
        for i in np.flatnonzero(~split):
            # a constant, or a piece that reads noise alone, has no roots
            top = np.flatnonzero(~small[i])[-1:]
            if top.any():
                r = _piece_roots(coeffs[i, :top[0] + 1])
                roots.append(mid[i] + half[i] * r)
        mid, half = mid[split], 0.5 * half[split]
        mid, half = np.concatenate((mid - half, mid + half)), np.tile(half, 2)
        if not mid.size:
            break
    return np.sort(np.concatenate(roots)) if roots else np.empty(0)


def _labels(a_star, phis, lam: float) -> tuple:
    """Branch labels of the roots at a_star with profiles phis, and the sup
    norms of the profiles, read from each profile once on
    :data:`recover.PROFILE_GRID`.

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
                for v in values], sups
    if not values:
        return [], sups
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
    return labels, sups


def _starts(lo: float, hi: float, lam: float, bc: BoundaryKind,
            n: int) -> tuple:
    """The roots of :func:`_proxy_roots` and, where B(0) reads exactly 0,
    a = 0, with B and B_a at each.  0 is read in the same call as the
    roots: the order-1 value rows equal the order-0 ones bit for bit, so
    B(0) reads as it would alone."""
    start = _proxy_roots(lo, hi, lam, bc, n)
    zero = lo <= 0.0 <= hi
    if zero:
        start = np.append(start, 0.0)
    (b, b_a), _ = _readings(start, lam, bc, n, order=1)
    if zero and b[-1] != 0.0:
        start, b, b_a = start[:-1], b[:-1], b_a[:-1]
    return start, b, b_a


def _accepted(lam: float, bc: BoundaryKind, window,
              n_iter: int | None = None) -> list:
    """The roots :func:`find_branches` accepts, sorted by a, as dicts of
    a_star, bracket, band and iterate w.

    Each root of :func:`_proxy_roots` takes one Newton step with the
    collocation a-tangent; where B(0) reads exactly 0, a = 0 is a root.
    Points closer than their bands plus 8 eps max(1, |a|) are one root, an
    exact 0 winning.  The band is (e + |B_p - B_2p|) / |B_a| at the root,
    with e the rounding count of the reading (:func:`vim._rounding_gamma`).  A
    root is kept when B reads opposite signs at a* -+ delta, delta =
    16 band + |Newton step| + 8 eps max(1, |a*|), but below half the gap
    to either neighbour, and when the exact residual table of its
    monomial iterate has a maximum of at most ``DEFAULT_RESIDUAL_CAP``, as
    :func:`recover._capped` decides it.
    """
    if not math.isfinite(lam):
        raise ValueError(f"the rate must be finite, got {lam!r}")
    lo, hi = float(window[0]), float(window[1])
    # a width that overflows would put the pieces' points at inf and NaN
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ValueError(f"window must be finite with lo < hi, got {window!r}")
    n = bc.default_iterations if n_iter is None else n_iter
    _check_depth(n)

    start, b, b_a = _starts(lo, hi, lam, bc, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(b == 0.0, start, start - b / b_a)
    inside = np.isfinite(a) & (lo <= a) & (a <= hi)
    a, first = np.unique(a[inside], return_index=True)
    step = np.abs(a - start[inside][first])
    if not a.size:
        return []
    (b, b_a), size = _readings(a, lam, bc, n, order=1)
    fine, _ = _readings(a, lam, bc, n, 2 * COLLOCATION_POINTS)
    error = _rounding_gamma(COLLOCATION_POINTS, n) * size
    with np.errstate(divide="ignore", invalid="ignore"):
        band = (error + np.abs(b - fine)) / np.abs(b_a)
    floor = 8.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(a))

    # merge the points that the bands cannot tell apart, keeping an exact 0
    close = np.diff(a) <= band[1:] + band[:-1] + floor[1:]
    zero = a == 0.0
    keep = (np.append(True, ~close) & ~np.append(close & zero[1:], False)
            | zero)
    a, step, band, floor = a[keep], step[keep], band[keep], floor[keep]
    gap = np.diff(a, prepend=-np.inf, append=np.inf)
    delta = np.minimum(16.0 * band + step + floor,
                       0.5 * np.minimum(gap[:-1], gap[1:]))
    sides, _ = _readings(np.concatenate((a - delta, a + delta)), lam, bc, n)
    kept = np.flatnonzero(np.sign(sides[:a.size]) * np.sign(sides[a.size:])
                          < 0.0)

    found = []
    for i in kept:
        w = iterate(VimProblem(lam=lam, a=a[i], n_iter=n))
        if recover._capped(w, lam):
            found.append(dict(a_star=float(a[i]),
                              bracket=(float(a[i] - delta[i]),
                                       float(a[i] + delta[i])),
                              band=float(band[i]), w=w))
    return found


def find_branches(lam: float, bc: BoundaryKind,
                  window: tuple = DEFAULT_WINDOW,
                  *,
                  n_iter: int | None = None) -> list:
    """Locate and label every genuine solution branch inside the a-window.

    Finds the real roots of a piecewise Chebyshev proxy of the boundary
    functional, steps each once by Newton and keeps it when the functional
    changes sign across its bracket and the exact residual table of its
    iterate has a maximum of at most ``DEFAULT_RESIDUAL_CAP`` (see
    :func:`_accepted` and :func:`recover._capped`).  An empty list is the
    expected non-existence signal above the critical deposition rate, not
    a failure.

    A root is fixed to within its ``band``, the reading's error bound over
    |dB/da|: a rounding bound of the collocation reading plus its change
    from p to 2 p points.  The roots are distinct and come out sorted by
    a, labelled by :func:`_labels`.  Each root carries the iterate and
    profile that the cap and the labels read, and the profile's sup norm
    that the labels compare; they equal :func:`recover.solve_profile` at
    its a_star bit for bit.  No table is kept: a root's ``table`` is
    :func:`recover.residual_table` of its iterate, built when it is read.
    """
    found = [dict(f, phi=recover.recover_phi(f["w"]))
             for f in _accepted(lam, bc, window, n_iter)]
    labels, sups = _labels([f["a_star"] for f in found],
                           [f["phi"] for f in found], lam)
    return [BranchRoot(bc=bc, lam=lam, label=label, sup_norm=sup, **f)
            for f, label, sup in zip(found, labels, sups)]
