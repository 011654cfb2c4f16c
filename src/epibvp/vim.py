"""Variational-iteration engine for the radial deposition equation.

The working unknown w(r) solves

    r**2 w'' - r w' = w**2 / 2 + lam * r**4 / 2        on (0, 1),

where ``lam`` is the deposition-rate parameter.  One correction step maps
an approximation w to

    w  +  K[ r**2 w'' - r w' - w**2 / 2 - lam r**4 / 2 ],

with K the closed-form kernel of :func:`epibvp.polyring.apply_vim_kernel`
(weight (t - r)/t**2, obtained from the stationarity conditions of the
correction functional).  Starting from w0 = a r**2 every iterate is a
polynomial with no constant or linear term, so the scheme stays exactly
representable in :class:`~epibvp.polyring.RPoly`.  Such an iterate also
has exactly zero odd coefficients, so the numeric kernel
(:func:`_iterate_coeffs`) stores it as a polynomial in s = r**2 and runs
many start coefficients at once, one row each.  The public functions on
:class:`~epibvp.polyring.RPoly` call the same step arithmetic with every
power of r stored.  The collocation kernel (:func:`_collocation_readings`)
runs the same step on values at Chebyshev points in s instead.

A symbolic mode keeps the initial coefficient ``a`` and the parameter
``lam`` as formal symbols and reproduces the low-order iterates in closed
form; it exists for verification, whereas all root finding re-runs the
numeric iteration per candidate ``a``.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from functools import lru_cache

import numpy as np

from .polyring import NonIntegrableDefect, RPoly, _kernel_weights

__all__ = [
    "DomainError",
    "IterationBudgetExceeded",
    "IterationOverflow",
    "MAX_DEPTH",
    "VimProblem",
    "APoly",
    "ode_defect",
    "vim_step",
    "iterate",
    "iterate_from",
    "symbolic_iterate",
    "multiplier",
    "multiplier_dt",
    "multiplier_dtt",
    "multiplier_residuals",
]


class DomainError(ValueError):
    """A sample point lies outside the multiplier's domain (t <= 0)."""


class IterationBudgetExceeded(ValueError):
    """Requested symbolic depth exceeds the configured budget.

    Each symbolic step squares the term count, so the budget guards against
    accidental blow-up rather than any mathematical obstruction.
    """


class IterationOverflow(ValueError):
    """The iterates left the float64 range: the start values are too large
    in magnitude for the iteration depth."""


@dataclass(frozen=True)
class VimProblem:
    """One numeric iteration run: w0 = a r**2 driven n_iter steps at fixed lam."""

    lam: float
    a: float
    n_iter: int = 7

    def __post_init__(self):
        _check_depth(self.n_iter)


# ---------------------------------------------------------------------------
# numeric path
# ---------------------------------------------------------------------------

# each step doubles the degree, so a row of a depth-d iterate holds 2**d + 1
# coefficients and the squaring costs about 4**d products per row
MAX_DEPTH = 10


@lru_cache(maxsize=None)
def _euler_symbol(n: int, spacing: int) -> np.ndarray:
    # the linear operator r^2 d^2 - r d acts on r^k as multiplication by k(k-2)
    k = spacing * np.arange(n, dtype=float)
    out = k * (k - 2.0)
    out.setflags(write=False)
    return out


def _convolve(c: np.ndarray, d: np.ndarray, out: np.ndarray) -> None:
    """Write the convolution of each column of c with the same column of
    each block d[x] into the columns of out[x]: c holds n coefficients by
    m rows, d a stack of such blocks, out one of 2 n - 1 by m.

    Entry (k, i) of out[x] is sum_j c[j, i] * d[x, k - j, i], summed over a
    read-only window view of the zero-padded blocks, so no (2 n - 1, n, m)
    array is formed.  Each entry adds its products in order of descending
    j from +0, one rounding per product and per sum, so a row's result
    does not depend on its neighbours, on the size of its block or on the
    other blocks in d.  The rows are the contiguous axis, so the sum for
    each entry is a contiguous multiply-add across the rows.
    """
    blocks, n, m = d.shape
    padded = np.zeros((blocks, 3 * n - 2, m))
    padded[:, n - 1:2 * n - 1] = d
    stride = padded.strides[1]
    # window k starts at padded coefficient k
    windows = np.ndarray((blocks, 2 * n - 1, n, m), padded.dtype, padded, 0,
                         (padded.strides[0], stride, stride, padded.itemsize))
    windows.flags.writeable = False
    np.einsum("im,xkim->xkm", c[::-1], windows, out=out)


def _defect_width(n: int, spacing: int, nonlinear: bool) -> int:
    # the square doubles the degree; the forcing column r**4 may lie beyond
    return max(2 * n - 1 if nonlinear else n, 4 // spacing + 1)


def _defect_rows(s: np.ndarray, lam: float, spacing: int,
                 nonlinear: bool) -> np.ndarray:
    """Defect coefficients of the block c = s[0] and, below them, the
    derivative of the defect along each block d of s[1:] (c_a, then c_lam,
    c_aa and c_alam when there are four).

    Coefficient j of a column is that of r**(spacing * j); products of
    such powers stay on the same lattice, so squaring is a plain
    convolution of the coefficients whatever the spacing.  The defect
    -c*c/2 + E c - lam/2 e_4, with Euler symbol E and forcing column e_4,
    has the derivative -c*d - cross + E d - f e_4 along d, with
    cross = c_a*c_a for c_aa and c_a*c_lam for c_alam, f = 1/2 for c_lam,
    and both otherwise 0.  All products with c come from one convolution.
    """
    blocks, n, m = s.shape
    out = np.zeros((blocks, _defect_width(n, spacing, nonlinear), m))
    value, derivatives = out[0], out[1:]
    if nonlinear:
        _convolve(s[0], s, out[:, :2 * n - 1])
        if blocks > 3:
            cross = np.empty((2, 2 * n - 1, m))
            _convolve(s[1], s[1:3], cross)
            derivatives[2:, :2 * n - 1] += cross
        value *= -0.5
        if blocks > 1:
            derivatives *= -1.0
    out[:, :n] += _euler_symbol(n, spacing)[:, None] * s
    value[4 // spacing] -= 0.5 * lam
    if blocks > 2:
        derivatives[1, 4 // spacing] -= 0.5
    return out


def _step_rows(s: np.ndarray, lam: float, spacing: int,
               nonlinear: bool, depth: int = 1) -> np.ndarray:
    """One step of the block c = s[0], c + W (defect) with the kernel
    weights W, and of its derivatives s[1:] (see :func:`_defect_rows`)."""
    out = _defect_rows(s, lam, spacing, nonlinear)
    weights = _kernel_weights(out.shape[1], spacing)[:, None]
    n = s.shape[1]
    value, derivatives = out[0], out[1:]
    # the derivatives finish their step before c is checked: a step that
    # raises has stepped them, with any floating-point warning that gives
    if derivatives.size:
        derivatives *= weights
        derivatives[:, :n] += s[1:]
    # the coefficients of r**0 and r**1; an overflowed row has NaN in all
    if value[:1 // spacing + 1].any():
        if not np.isfinite(value).all():
            raise _overflow(depth)
        raise NonIntegrableDefect(
            "defect has a nonzero r**0 or r**1 coefficient"
        )
    value *= weights
    value[:n] += s[0]
    return out


def _overflow(depth: int) -> IterationOverflow:
    return IterationOverflow(
        f"the iterates overflow float64 at depth {depth}: the start "
        f"values or the rate are too large in magnitude"
    )


def _check_depth(n_iter: int) -> None:
    if n_iter < 1:
        raise ValueError(f"iteration depth {n_iter} is below the minimum of 1")
    if n_iter > MAX_DEPTH:
        raise ValueError(
            f"iteration depth {n_iter} exceeds the maximum of {MAX_DEPTH}"
        )


def _run(c: np.ndarray, lam: float, n_iter: int, spacing: int,
         nonlinear: bool = True, d: np.ndarray | None = None):
    """Run n_iter steps from the rows c; return the rows and their
    derivatives d, stepped along with them (None without), both row-major
    and C-contiguous.  The steps hold c and d as one stack of blocks,
    coefficients by rows, with the rows on the contiguous axis (see
    :func:`_convolve`).  An overflow names depth n_iter."""
    _check_depth(n_iter)
    s = c[None] if d is None else np.concatenate((c[None], d))
    s = np.ascontiguousarray(s.transpose(0, 2, 1))
    for _ in range(n_iter):
        s = _step_rows(s, lam, spacing, nonlinear, n_iter)
    # an overflow in an earlier step trips the check in _step_rows; one in
    # the last step shows only here
    if not np.isfinite(s[0]).all():
        raise _overflow(n_iter)
    s = np.ascontiguousarray(s.transpose(0, 2, 1))
    return s[0], (None if d is None else s[1:])


def _start_rows(a) -> np.ndarray:
    a = np.asarray(a, dtype=float).reshape(-1)
    c = np.zeros((a.size, 2))
    c[:, 1] = a
    return c


def _iterate_coeffs(a, lam: float, n_iter: int) -> np.ndarray:
    """The n_iter-step iterates started at a r**2, one row per value of a.

    Every such iterate has exactly zero odd coefficients, so a row stores
    it as a polynomial in s = r**2: column j holds the coefficient of
    r**(2 j).  Depths outside 1..:data:`MAX_DEPTH` raise ``ValueError``
    before the first step.
    """
    return _run(_start_rows(a), lam, n_iter, 2)[0]


def _iterate_tangents(a, lam: float, n_iter: int, *, second: bool = False):
    """The rows c of :func:`_iterate_coeffs` (bit for bit) and their exact
    derivatives c_a, stored the same way; with ``second`` also c_lam, c_aa
    and c_alam.  c and c_a do not depend on ``second``."""
    c = _start_rows(a)
    d = np.zeros((4 if second else 1, *c.shape))
    d[0, :, 1] = 1.0
    c, d = _run(c, lam, n_iter, 2, d=d)
    return (c, *d)


# ---------------------------------------------------------------------------
# collocation path
# ---------------------------------------------------------------------------

# Chebyshev points in s of the collocation kernel; with 2**n <= P the
# depth-n collocation iterate is the exact one up to rounding
COLLOCATION_POINTS = 64

# stack rows per product of the collocation kernel on 64 points, and on
# p > 64 points the same count of multiply-adds: on a 2-CPU host a product
# of 32 x 64 by 64 x 64 (5 to 7 us) or 128 x 64 by 64 x 64 ran on one BLAS
# thread, one of 256 x 64 by 64 x 64 on two (144 us, against 44 us on
# one); the root search of a fold probe ran fastest with 32
_COLLOCATION_ROWS = 32


@lru_cache(maxsize=None)
def _collocation(p: int):
    """The step and reading matrices of the collocation kernel on the p
    first-kind Chebyshev points s_j of [0, 1]: (L^T, N^T, R_v, R_q).

    With w = s v, one correction step is v <- L v + N q, q = v**2 + lam,

        (L v)(s) = int_0^1 v(s u**2) du,
        (N q)(s) = s / 2 int_0^1 (1 - u) u**2 q(s u**2) du,

    so L s**j = s**j / (2 j + 1) and N s**j = s**(j + 1) / (4 (j + 2)
    (2 j + 3)).  The step after v gives w(1) = (L v)(1) + (N q)(1) and,
    from s (L v)' = (v - L v) / 2, w'(1) = (L v)(1) + v(1) + 1/2
    int_0^1 u**2 q(u**2) du: the columns of v R_v + q R_q.  Every integral
    is a (p + 2)-point Gauss-Legendre rule over the barycentric interpolant
    of the values (weights (-1)**j sin theta_j; Berrut & Trefethen 2004),
    exact for the degrees involved.  The matrices are read-only.
    """
    theta = (2.0 * np.arange(p) + 1.0) * np.pi / (2.0 * p)
    nodes = 0.5 * (1.0 + np.cos(theta))
    weights = (-1.0) ** np.arange(p) * np.sin(theta)

    def basis(x):
        # the p Lagrange basis polynomials at the points x, on a new last axis
        diff = x[..., None] - nodes
        hit = diff == 0.0
        terms = weights / np.where(hit, 1.0, diff)
        out = terms / terms.sum(axis=-1, keepdims=True)
        rows = hit.any(axis=-1)
        out[rows] = hit[rows]
        return out

    u, g = np.polynomial.legendre.leggauss(p + 2)
    u, g = 0.5 * (u + 1.0), 0.5 * g
    kernel = 0.5 * g * (1.0 - u) * u * u
    # one node at a time keeps the basis values at p (p + 2) entries
    rows = [np.stack((g, kernel)) @ basis(s * u * u) for s in nodes]
    step_v, step_q = np.stack(rows, axis=2)
    step_q = step_q * nodes
    edge = basis(u * u)
    at_one = basis(np.ones(1))[0]
    read_v = np.stack((g @ edge, g @ edge + at_one), axis=1)
    read_q = np.stack((kernel @ edge, 0.5 * (g * u * u) @ edge), axis=1)
    out = tuple(np.ascontiguousarray(x)
                for x in (step_v, step_q, read_v, read_q))
    for x in out:
        x.setflags(write=False)
    return out


def _collocate(v: np.ndarray, d: np.ndarray, lam: float, n_iter: int,
               p: int):
    """(w(1), w'(1)) of the n_iter-step collocation iterate from the values
    v and, below, their derivatives along the values d (0 or m rows),
    stepped in the same stack: d <- L d + N (2 v d); and the absolute sums
    |v| |R_v| + |q| |R_q| of those readings.  Each is (1 + k, m, 2)."""
    step_v, step_q, read_v, read_q = _collocation(p)
    m = v.shape[0]
    s = np.vstack((v, d))
    for k in range(n_iter):
        # d has m rows or none, so s[:len(d)] is v or empty like it
        q = np.vstack((s[:m] * s[:m] + lam, 2.0 * s[:len(d)] * s[m:]))
        if k < n_iter - 1:
            s = s @ step_v + q @ step_q
    out = s @ read_v + q @ read_q
    size = np.abs(s) @ np.abs(read_v) + np.abs(q) @ np.abs(read_q)
    return out.reshape(-1, m, 2), size.reshape(-1, m, 2)


def _collocation_readings(a, lam: float, n_iter: int,
                          p: int = COLLOCATION_POINTS, *,
                          tangent: bool = False):
    """(w(1), w'(1)) of the depth-n_iter collocation iterate on p points,
    started at v = a, for each a: an array (1, m, 2), or (2, m, 2) with
    the a-derivatives (w_a(1), w_a'(1)) below; and the absolute sums of
    their last quadrature sums (see :func:`_rounding_gamma`), shaped
    alike.

    B at depth n is a polynomial of degree 2**n in a, as in the monomial
    kernel; with 2**n <= p the readings are those of the exact iterate up
    to rounding.  On p points every product takes a stack of the same
    number of rows (``_COLLOCATION_ROWS`` up to p = 64), the last block
    padded with zeros: the BLAS kernel chosen, and so the rounding of a
    row, can depend on the number of rows, and a reading must not depend
    on the call it came from.  A reading that is not finite raises
    :class:`IterationOverflow`.
    """
    _check_depth(n_iter)
    a = np.asarray(a, dtype=float).reshape(-1)
    k = 2 if tangent else 1
    out, size = np.empty((2, k, a.size, 2))
    # the stack of values and derivatives holds k rows per start value
    scale = max(p, COLLOCATION_POINTS) ** 2 // COLLOCATION_POINTS ** 2
    block = max(1, _COLLOCATION_ROWS // scale // k)
    v = np.empty((block, p))
    d = np.ones(((k - 1) * block, p))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, a.size, block):
            rows = a[start:start + block]
            v[:rows.size] = rows[:, None]
            v[rows.size:] = 0.0
            got, sums = _collocate(v, d, lam, n_iter, p)
            out[:, start:start + rows.size] = got[:, :rows.size]
            size[:, start:start + rows.size] = sums[:, :rows.size]
    if not np.isfinite(out[0]).all():
        raise _overflow(n_iter)
    return out, size


def _rounding_gamma(p: int, n_iter: int) -> float:
    """Higham's gamma_K for K = n_iter (2 p + 8), the roundings a
    collocation reading counts: per step p + 3 (p in each product, one in
    their sum, two in q) and p + 5 in a matrix entry (its quadrature sum
    and barycentric quotient).  gamma_K times the absolute sums of the
    last quadrature sums is the reading's rounding count."""
    nu = n_iter * (2 * p + 8) * 0.5 * np.finfo(float).eps
    return nu / (1.0 - nu)


def _r_powers(row: np.ndarray) -> np.ndarray:
    """Coefficients of r**0, r**1, ... of a row stored in s = r**2."""
    out = np.zeros(2 * row.size - 1)
    out[::2] = row
    return out


def ode_defect(w: RPoly, lam: float, *, nonlinear: bool = True) -> RPoly:
    """Pointwise defect r**2 w'' - r w' - w**2/2 - lam r**4/2 of w.

    The linear part maps r**k to k(k-2) r**k, so for inputs without
    constant or linear terms the defect has none either, and it vanishes
    identically exactly when w solves the equation.  ``nonlinear=False``
    drops the w**2/2 term (the small-|lam| linearisation used in tests).
    """
    return RPoly(_defect_rows(w.coeffs[None, :, None], lam, 1,
                              nonlinear)[0, :, 0])


# Digits of the decimal arithmetic in _defect_at.  Each of the 2n roundings
# of a Horner loop over n terms costs at most 10**(1 - _DIGITS) / 2 of the
# term mass sum |c_k| r**k (Higham 2002, section 5.1), so before the one
# rounding to float a value is off by below 1e-36 of the mass for the
# n <= 2**MAX_DEPTH + 1 terms of an iterate.  On 640 sampled points of
# depth-5 to depth-8 iterates, 30 digits missed the correctly rounded
# value 65 times, 35 and 40 digits never.
_DIGITS = 40


def _defect_at(c: np.ndarray, lam: float, r) -> np.ndarray:
    """Defect of the polynomial with coefficients c at the points r.

    Each value is the defect of the float coefficients at the float point,
    carried in :data:`_DIGITS`-digit decimal arithmetic and rounded once to
    float.  :func:`ode_defect` forms w**2 by float convolution, and on the
    steep Dirichlet branch (coefficients near 1e11, defect of order one)
    its rounding errors exceed the defect itself.  Here the floats enter
    exactly, and one Horner loop from the top nonzero power down carries
    both w(r) and the linear part sum k(k-2) c_k r**k, multiplying by
    r**gap between nonzero powers (for an iterate the gap is always 2).
    A value beyond the float range reads as +-inf; a coefficient or rate
    that is not finite makes every value NaN.
    """
    r = np.asarray(r, dtype=float).reshape(-1)
    if not (np.isfinite(c).all() and np.isfinite(lam)):
        return np.full(r.size, np.nan)
    powers = np.flatnonzero(c)[::-1].tolist()
    gaps = [k - j for k, j in zip(powers, powers[1:] + [0])]
    out = []
    with localcontext(Context(prec=_DIGITS, traps=[])):
        cs = [Decimal(ck) for ck in c[powers].tolist()]
        terms = list(zip(cs, [k * (k - 2) * ck for k, ck in zip(powers, cs)],
                         gaps))
        half_lam = Decimal(lam) / 2
        for x in map(Decimal, r.tolist()):
            x_gap = {g: x ** g for g in set(gaps)}
            w = lin = Decimal(0)
            for ck, lk, g in terms:
                w = (w + ck) * x_gap[g]
                lin = (lin + lk) * x_gap[g]
            out.append(float(lin - w * w / 2 - half_lam * x ** 4))
    return np.array(out)


def vim_step(w: RPoly, lam: float, *, nonlinear: bool = True) -> RPoly:
    """One correction step: w + K[defect(w)].  Doubles the degree at most."""
    return RPoly(_step_rows(w.coeffs[None, :, None], lam, 1,
                            nonlinear)[0, :, 0])


def iterate(prob: VimProblem) -> RPoly:
    """Run n_iter correction steps from w0 = a r**2."""
    row = _iterate_coeffs(prob.a, prob.lam, prob.n_iter)[0]
    return RPoly(_r_powers(row))


def iterate_from(w0: RPoly, lam: float, n_iter: int, *,
                 nonlinear: bool = True) -> RPoly:
    """Run n_iter correction steps from an arbitrary start polynomial."""
    return RPoly(_run(w0.coeffs[None], lam, n_iter, 1, nonlinear)[0][0])


# ---------------------------------------------------------------------------
# symbolic-in-(a, lam) path
# ---------------------------------------------------------------------------

class APoly:
    """Polynomial in the shooting coefficient ``a``, the parameter ``lam``
    and the radius, held as a mapping (a_pow, lam_pow, r_pow) -> coefficient.

    Produced by :func:`symbolic_iterate`; specialising ``a`` and ``lam``
    collapses it to the :class:`~epibvp.polyring.RPoly` the numeric path
    would compute.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        cleaned = {
            key: float(val)
            for key, val in terms.items()
            if val != 0.0
        }
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("APoly is immutable")

    def coefficient(self, a_pow: int, lam_pow: int, r_pow: int) -> float:
        return self.terms.get((a_pow, lam_pow, r_pow), 0.0)

    @property
    def max_a_power(self) -> int:
        return max((k[0] for k in self.terms), default=0)

    @property
    def max_r_power(self) -> int:
        return max((k[2] for k in self.terms), default=0)

    def specialize(self, a: float, lam: float) -> RPoly:
        """Substitute numbers for the symbols and collapse to one variable."""
        coeffs = np.zeros(self.max_r_power + 1)
        for (i, j, k) in sorted(self.terms):
            coeffs[k] += self.terms[(i, j, k)] * a ** i * lam ** j
        return RPoly(coeffs)

    def __repr__(self):
        return f"APoly({self.terms!r})"


def _sym_defect(terms: dict) -> dict:
    defect = {}
    for (i, j, k), c in terms.items():
        scaled = k * (k - 2) * c
        if scaled != 0.0:
            defect[(i, j, k)] = defect.get((i, j, k), 0.0) + scaled
    items = list(terms.items())
    for idx1, ((i1, j1, k1), c1) in enumerate(items):
        for idx2, ((i2, j2, k2), c2) in enumerate(items):
            if idx2 < idx1:
                continue
            key = (i1 + i2, j1 + j2, k1 + k2)
            contrib = -0.5 * c1 * c2
            if idx2 != idx1:
                contrib *= 2.0
            defect[key] = defect.get(key, 0.0) + contrib
    forcing = (0, 1, 4)
    defect[forcing] = defect.get(forcing, 0.0) - 0.5
    return defect


def _sym_kernel(defect: dict) -> dict:
    out = {}
    for (i, j, k), c in defect.items():
        if c == 0.0:
            continue
        if k < 2:
            raise NonIntegrableDefect(
                "symbolic defect has a nonzero r**0 or r**1 coefficient"
            )
        out[(i, j, k)] = -c / (k * (k - 1))
    return out


def symbolic_iterate(n: int, *, max_iterations: int = 8) -> APoly:
    """Iterate with ``a`` and ``lam`` kept symbolic; returns the n-th iterate.

    Term counts square with each step, so depths beyond ``max_iterations``
    raise :class:`IterationBudgetExceeded`.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > max_iterations:
        raise IterationBudgetExceeded(
            f"symbolic depth {n} exceeds the budget of {max_iterations}"
        )
    terms = {(1, 0, 2): 1.0}
    for _ in range(n):
        correction = _sym_kernel(_sym_defect(terms))
        merged = dict(terms)
        for key, c in correction.items():
            merged[key] = merged.get(key, 0.0) + c
        terms = {key: c for key, c in merged.items() if c != 0.0}
    return APoly(terms)


# ---------------------------------------------------------------------------
# Lagrange multiplier of the correction functional
# ---------------------------------------------------------------------------

def multiplier(t: float, r: float) -> float:
    """The kernel weight (t - r) / t**2."""
    return (t - r) / (t * t)


def multiplier_dt(t: float, r: float) -> float:
    """d/dt of the kernel weight: (2r - t) / t**3."""
    return (2.0 * r - t) / t ** 3


def multiplier_dtt(t: float, r: float) -> float:
    """d2/dt2 of the kernel weight: (2t - 6r) / t**4."""
    return (2.0 * t - 6.0 * r) / t ** 4


def multiplier_residuals(samples) -> list:
    """Stationarity residuals of the kernel weight at (t, r) sample pairs.

    Returns one triple per sample:

    * ``1 - mu'(r) r**2 - 2 r mu(r)`` evaluated at t = r (boundary
      stationarity in the varied direction),
    * ``mu(r)`` at t = r (boundary stationarity in the derivative
      direction),
    * ``t**2 mu'' + 4 t mu' + 2 mu`` at (t, r) (interior stationarity).

    All three vanish identically for the weight (t - r)/t**2.  The first
    two are functions of r alone; at r = 0 they are returned as their
    removable-singularity limits (both zero).  Sample points with t <= 0
    raise :class:`DomainError`.
    """
    out = []
    for t, r in samples:
        if t <= 0.0:
            raise DomainError(f"multiplier is undefined for t = {t}")
        if r > 0.0:
            res13 = 1.0 - multiplier_dt(r, r) * r * r - 2.0 * r * multiplier(r, r)
            res14 = multiplier(r, r)
        else:
            res13 = 0.0
            res14 = 0.0
        res15 = (
            t * t * multiplier_dtt(t, r)
            + 4.0 * t * multiplier_dt(t, r)
            + 2.0 * multiplier(t, r)
        )
        out.append((res13, res14, res15))
    return out
