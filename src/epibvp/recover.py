"""Height-profile recovery and pointwise residual tables.

The physical height profile phi is tied to the working unknown by
w = r phi' together with phi(1) = 0.  For a polynomial w with no constant
or linear term the recovery is exact term by term,

    c_k r**k   ->   c_k (r**k - 1) / k,        k >= 2,

so no quadrature enters.  The constant term is built so that Horner
evaluation of phi at r = 1 returns exactly zero.

The module also evaluates residual tables (the pointwise defect of an
approximate solution on the standard grid 0.0, 0.1, ..., 0.9), exactly
and correctly rounded (:func:`residual_table`), and judges a table
against the residual cap that :func:`epibvp.shooting.find_branches`
applies, from a float enclosure of it where that settles the verdict
(:func:`_capped`).  It also gives the closed-form small-|lam|
approximations for the three boundary conditions.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .polyring import RPoly, evaluate
from .vim import VimProblem, iterate

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


# Start precision in bits of residual_table; a point whose rounding it
# leaves open is evaluated again at twice the precision.  On the branch
# roots of the benchmark's census and oracle seeds no table entry needed a
# second precision, and at 128 bits 75 of 22 866 sampled entries did
_PRECISION = 160

# points per packed block
_BLOCK_POINTS = 16

# guard bits of the power recursion in _pack: its error grows by below one
# unit of 2**-(p + _GUARD) per step, so it stays below 2**-p for up to
# 2**32 steps (an iterate's powers take at most 2**10 + 1)
_GUARD = 32


def _truncate(m: int, shift: int):
    """trunc(m * 2**shift) and whether it is exact."""
    if shift >= 0:
        return m << shift, True
    t = abs(m) >> -shift
    return (t if m >= 0 else -t), t << -shift == abs(m)


# the kept blocks hold TABLE_GRID and the 101 points of ``solve`` (1 and 7
# blocks) at the tops 128 and 256 of the default depths 6 and 7
@lru_cache(maxsize=16)
def _pack(points: tuple, top: int, step: int, p: int):
    """The powers k = 0, step, ..., top of at most :data:`_BLOCK_POINTS`
    points at precision p.

    X_k approximates x**k 2**p from below in magnitude.  With x = num /
    2**q, num odd, it is the exact integer x**k 2**p for q k <= p;
    otherwise it is off by below 2: a recursion at p + :data:`_GUARD` bits
    truncates once per step, and it is exact up to q k <= p + _GUARD, and
    at every k when |x| > 1.  The X_k of all points go into one int per
    power, a signed slot of G bits per point, so that sum_k C_k X_k for
    every point is one dot product; G holds any sum_k k (k - 2) C_k X_k
    with |C_k| < 2**p.  Per point the block keeps the last k with an exact
    X_k, num**4, q and the bit lengths of the |X_k|.  Returns (packed
    powers, G, per-point rows); the last blocks packed are kept.
    """
    rows, powers = [], []
    for x in points:
        num, den = x.as_integer_ratio()
        q = den.bit_length() - 1
        guarded = p + _GUARD if abs(num) <= den else max(p + _GUARD, q * top)
        factor, shift, drop = abs(num) ** step, q * step, guarded - p
        y, xs = 1 << guarded, []
        for _ in range(0, top + 1, step):
            xs.append(y >> drop)
            y = y * factor >> shift
        if num < 0 and step == 1:
            xs[1::2] = map(operator.neg, xs[1::2])
        bits = tuple(map(int.bit_length, xs))
        rows.append((p // q if q else top, num ** 4, q, bits))
        powers.append(xs)
    # |X_k| is largest at k = 0 for |x| <= 1 and at the top above
    size = max(max(row[3][0], row[3][-1]) for row in rows)
    weights = sum(max(1, abs(k * (k - 2))) for k in range(0, top + 1, step))
    slot = p + size + weights.bit_length() + 1
    shifts = [slot * j for j in range(len(points))]
    packed = tuple(sum(map(operator.lshift, column, shifts))
                   for column in zip(*powers))
    return packed, slot, tuple(rows)


def _unpack(total: int, slot: int, count: int) -> list:
    """The count signed slot-bit values that make up total."""
    mask, out = (1 << slot) - 1, []
    for _ in range(count):
        v = total & mask
        if v >> slot - 1:
            v -= mask + 1
        out.append(v)
        total = (total - v) >> slot
    return out


def _fixed_point(c: np.ndarray, ks: np.ndarray, lam: float, e: int, p: int,
                 step: int, blocks) -> list:
    """The defect at the points of the packed blocks at precision p, each
    the correctly rounded float or None where p leaves the rounding open.

    With C_k = trunc(c_k 2**(p - e)), the X_k of :func:`_pack` and s =
    2 p - e, the sums W of C_k X_k and L of k (k - 2) C_k X_k are 2**s w(x)
    and 2**s times the linear part, and N = 2 L 2**s - W**2 - trunc(lam
    x**4 2**(2 s)) is the defect times 2**(2 s + 1).  A truncated C_k or
    forcing term is off by below 1 and an inexact X_k by below 2, and
    none where it is exact, so the exact value lies within B of N, B
    summed from those errors; it is certain when N - B and N + B round to
    the same float, and B is 0 once every input is exact.
    """
    ks_list = ks.tolist()
    highest = ks_list[-1] if ks_list else 0
    # C_k = trunc(m 2**shift) for c_k = m 2**(exp - 53), |m| < 2**53
    mant, exp = np.frexp(c[ks])
    m = (mant * 2.0 ** 53).astype(np.int64)
    shift = exp - 53 + p - e
    cut = np.clip(-shift, 0, 63)
    kept = np.abs(m) >> cut
    loose = ks[kept << cut != np.abs(m)].tolist()
    c_int = list(map(operator.lshift, np.where(m < 0, -kept, kept).tolist(),
                     np.maximum(shift, 0).tolist()))
    l_int = list(map(operator.mul, (ks * (ks - 2)).tolist(), c_int))
    loose_k = sum(abs(k * (k - 2)) for k in loose)
    # the C_k that meet an inexact X_k, those of the k above a point's last
    # exact power, are bounded by all of them
    mass_c, mass_l = sum(map(abs, c_int)), sum(map(abs, l_int))
    num_lam, den_lam = lam.as_integer_ratio()
    t = den_lam.bit_length() - 1
    s = 2 * p - e
    den = 1 << 2 * s + 1

    def to_float(n):
        try:
            return n / den
        except OverflowError:
            return math.inf if n > 0 else -math.inf

    out = []
    for packed, slot, rows in blocks:
        picked = [packed[k // step] for k in ks_list]
        ws = _unpack(sum(map(operator.mul, c_int, picked)), slot, len(rows))
        lins = _unpack(sum(map(operator.mul, l_int, picked)), slot, len(rows))
        for w, lin, (last, num4, q, bits) in zip(ws, lins, rows):
            # |x**k| 2**p over the truncated k, monotone in k: at most that
            # at the first or the last, |X_k| + 2 where X_k is inexact
            big = 0
            if loose:
                ends = max(bits[loose[0] // step], bits[loose[-1] // step])
                big = (1 << ends) - 1 + 2 * (loose[-1] > last)
            inexact = 2 * (highest > last)
            b_w = len(loose) * big + inexact * mass_c
            b_l = loose_k * big + inexact * mass_l
            forcing, exact_forcing = _truncate(num_lam * num4,
                                               2 * s - t - 4 * q)
            n = (lin << s + 1) - w * w - forcing
            b = (b_l << s + 1) + (2 * abs(w) + b_w) * b_w + (not exact_forcing)
            lo, hi = to_float(n - b), to_float(n + b)
            # the sign of a zero counts
            same = lo == hi and math.copysign(1, lo) == math.copysign(1, hi)
            out.append(lo if same else None)
    return out


def residual_table(w: RPoly, lam: float, grid=None) -> ResidualTable:
    """Evaluate the exact polynomial defect of w at the grid points.

    The defect r**2 w'' - r w' - w**2/2 - lam r**4/2 is formed from the
    coefficients (never by finite differences), so an exact solution would
    produce an identically zero table and the r = 0 entry vanishes
    structurally.  Each value is the exact defect of the float coefficients
    at the float grid point, correctly rounded to float, so cancellation
    among large coefficients on steep branches cannot turn it into rounding
    noise: :func:`epibvp.vim.ode_defect` forms w**2 by float convolution,
    and on the steep Dirichlet branch (coefficients near 1e11, defect of
    order one) its rounding errors exceed the defect itself.  It is exact
    for those float coefficients only: on steep roots their rounding moves
    the table from that of the exact depth-n iterate by up to 5e-3 relative
    (dirichlet, lam = -100, against a 60-digit iteration).

    The sums are exact integer sums at a fixed-point precision of
    :data:`_PRECISION` bits, with a bound on what the truncation to that
    precision can move (:func:`_fixed_point`); a point whose rounding the
    bound leaves open is evaluated again at twice the precision (Ziv 1991),
    and at a high enough precision every input is exact and the bound is
    zero.  Blocks of :data:`_BLOCK_POINTS` points share their powers in
    packed ints (:func:`_pack`), which keeps the last 16 blocks packed.  A
    coefficient or rate that is not finite gives NaN entries, as does a
    grid point that is not finite, and a defect beyond the float range
    reads as -inf or inf.
    """
    pts = TABLE_GRID if grid is None else tuple(float(g) for g in grid)
    c, r = w.coeffs, np.array(pts, dtype=float)
    out = np.full(r.size, np.nan)
    if np.isfinite(c).all() and np.isfinite(lam):
        ks = np.flatnonzero(c)
        top = int(ks[-1]) if ks.size else 0
        # iterates hold even powers only, and so do their packed powers
        step = 1 if (ks % 2).any() else 2
        e = math.frexp(np.abs(c).max())[1] if ks.size else 0
        # s = 2 p - e stays nonnegative, and |C_k| < 2**p
        p = max(_PRECISION, -(-e // 2))
        todo = np.flatnonzero(np.isfinite(r))
        while todo.size:
            blocks = (_pack(tuple(r[todo[i:i + _BLOCK_POINTS]].tolist()),
                            top, step, p)
                      for i in range(0, todo.size, _BLOCK_POINTS))
            # an open rounding reads NaN, which no certain value is
            got = np.array(_fixed_point(c, ks, float(lam), e, p, step, blocks),
                           dtype=float)
            out[todo] = got
            todo = todo[np.isnan(got)]
            p *= 2
    return ResidualTable(grid=pts, values=tuple(out.tolist()), lam=lam)


# the largest table maximum a branch root may have, published as
# shooting.DEFAULT_RESIDUAL_CAP; an exact maximum above it by at most half
# its spacing rounds to it, which the table accepts, and one above
# _ABOVE_CAP does not
_CAP = 10.0
_ABOVE_CAP = float(np.nextafter(_CAP, math.inf))


def _defect_enclosure(c: np.ndarray, lam: float, r) -> tuple:
    """(d, e): the float defect d of the even polynomial with coefficients
    c at the points r, and a bound e with the exact defect that
    :func:`residual_table` rounds in [d - e, d + e] at each point.

    The powers x**k come as powers of x**2 by repeated multiplication, at
    most k - 1 roundings each, and W = sum c_k x**k and L = sum k (k - 2)
    c_k x**k are two inner products of n terms, the weights taking one
    rounding more.  In any summation order, with FMA or without, a term
    then carries at most m = n + top + 1 roundings, so W and L are off by
    at most gamma_m / (1 - gamma_m) times the computed sums of |c_k|
    |x**k| and |k (k - 2) c_k| |x**k| (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., 2002, sections 3.1 and 5.1).  d = L -
    W**2 / 2 - lam x**4 / 2 adds (|W| + E_W) E_W and gamma_10 times its
    three terms; t = 2**-1000 (1 + lam and the coefficient masses) covers
    every underflow, and the factor 1 + 2**-40 the roundings of e itself.
    A value that overflows reads inf or NaN in d or e, so a caller decides
    only where both are finite.
    """
    r = np.asarray(r, dtype=float).reshape(-1)
    # an iterate holds even powers only, so c[1::2] is zero
    cs = c[::2]
    n = cs.size
    k = 2.0 * np.arange(n)
    coeffs = np.stack((cs, k * (k - 2.0) * cs))
    y = r * r
    powers = np.empty((n, r.size))
    powers[0] = 1.0
    powers[1:] = y
    np.multiply.accumulate(powers, axis=0, out=powers)
    u = 0.5 * np.finfo(float).eps
    m = n + k[-1] + 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        (w, lin), (mass_w, mass_l) = (coeffs @ powers,
                                      np.abs(coeffs) @ np.abs(powers))
        half_square = 0.5 * w * w
        forcing = 0.5 * lam * (y * y)
        d = lin - half_square - forcing
        t = 2.0 ** -1000 * (1.0 + abs(lam) + np.abs(coeffs).sum())
        g = m * u / (1.0 - 2.0 * m * u)
        e_w, e_l = g * mass_w + t, g * mass_l + t
        e = (e_l + (np.abs(w) + e_w) * e_w + t + 10.0 * u / (1.0 - 10.0 * u)
             * (np.abs(lin) + half_square + np.abs(forcing)))
    return d, e * (1.0 + 2.0 ** -40)


def _capped(w: RPoly, lam: float) -> bool:
    """Whether the residual table of the iterate w on :data:`TABLE_GRID`
    has a maximum of at most the cap, ``shooting.DEFAULT_RESIDUAL_CAP``.

    The float enclosure [d - e, d + e] of each entry
    (:func:`_defect_enclosure`) accepts when every |d| + e is at most
    the cap and rejects when some |d| - e exceeds the next float above it.
    Rounding is monotone: a float sum at most the cap is an exact one at
    most half a spacing above it, where an entry still rounds to the cap,
    and a float difference above the next float is an exact one above
    it.  Anything else, a value that is not finite included, is decided
    by the exact table, then dropped; a NaN maximum fails and rejects.
    """
    d, e = _defect_enclosure(w.coeffs, lam, TABLE_GRID)
    size = np.abs(d)
    if np.isfinite(size).all() and np.isfinite(e).all():
        if (size + e <= _CAP).all():
            return True
        if (size - e > _ABOVE_CAP).any():
            return False
    return residual_table(w, lam).max_abs() <= _CAP


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
