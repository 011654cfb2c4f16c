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
power of r stored.

A symbolic mode keeps the initial coefficient ``a`` and the parameter
``lam`` as formal symbols and reproduces the low-order iterates in closed
form; it exists for verification, whereas all root finding re-runs the
numeric iteration per candidate ``a``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .polyring import NonIntegrableDefect, RPoly
from .polyring import _dd_powers, _kernel_weights, _two_prod

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
def _euler_symbol(n: int, spacing: int = 1) -> np.ndarray:
    # the linear operator r^2 d^2 - r d acts on r^k as multiplication by k(k-2)
    k = spacing * np.arange(n, dtype=float)
    out = k * (k - 2.0)
    out.setflags(write=False)
    return out


def _convolve(c: np.ndarray, d: np.ndarray, out: np.ndarray) -> None:
    """Write the convolution of each row of c with the same row of d into
    the rows of out.

    Row i of the result is sum_j c[i, j] * d[i, k - j]; the sum runs over a
    read-only window view of the zero-padded rows of d, so no
    (rows, 2n - 1, n) array is formed.  Each row is summed in the same
    order whatever the number of rows, so a row's result does not depend
    on its neighbours.
    """
    m, n = d.shape
    padded = np.zeros((m, 3 * n - 2))
    padded[:, n - 1:2 * n - 1] = d
    step = padded.itemsize
    # window k of a row starts at column k; built directly on the buffer,
    # as as_strided would, without its per-call overhead
    windows = np.ndarray((m, 2 * n - 1, n), padded.dtype, padded, 0,
                         (padded.strides[0], step, step))
    windows.flags.writeable = False
    np.einsum("mi,mki->mk", c[:, ::-1], windows, out=out)


def _defect_width(n: int, spacing: int, nonlinear: bool) -> int:
    # the square doubles the degree; the forcing column r**4 may lie beyond
    return max(2 * n - 1 if nonlinear else n, 4 // spacing + 1)


def _defect_rows(c: np.ndarray, lam: float, spacing: int,
                 nonlinear: bool) -> np.ndarray:
    """Defect coefficients of each row of c.

    Column j of a row holds the coefficient of r**(spacing * j); products of
    such powers stay on the same lattice, so squaring is a plain convolution
    of the columns whatever the spacing.
    """
    m, n = c.shape
    out = np.zeros((m, _defect_width(n, spacing, nonlinear)))
    if nonlinear:
        _convolve(c, c, out[:, :2 * n - 1])
        out *= -0.5
    out[:, :n] += _euler_symbol(n, spacing) * c
    out[:, 4 // spacing] -= 0.5 * lam
    return out


def _step_rows(c: np.ndarray, lam: float, spacing: int,
               nonlinear: bool, depth: int = 1) -> np.ndarray:
    d = _defect_rows(c, lam, spacing, nonlinear)
    # the columns of r**0 and r**1; an overflowed row has NaN in every column
    if d[:, :1 // spacing + 1].any():
        if not np.isfinite(d).all():
            raise _overflow(depth)
        raise NonIntegrableDefect(
            "defect has a nonzero r**0 or r**1 coefficient"
        )
    d *= _kernel_weights(d.shape[1], spacing)
    d[:, :c.shape[1]] += c
    return d


def _tangent_rows(c: np.ndarray, d: np.ndarray, spacing: int,
                  nonlinear: bool) -> np.ndarray:
    """One step of the derivatives d of the rows c (c_a, then c_lam, c_aa
    and c_alam when d holds four): the step c + W (-c*c/2 + E c - lam/2 e_4)
    with kernel weights W, Euler symbol E and forcing column e_4 takes d[i]
    to d[i] + W (-c*d[i] - cross + E d[i] - f e_4), with cross = c_a*c_a for
    c_aa and c_a*c_lam for c_alam, f = 1/2 for c_lam, and both otherwise 0.
    """
    k, m, n = d.shape
    size = _defect_width(n, spacing, nonlinear)
    out = np.zeros((k, m, size))
    if nonlinear:
        for i in range(k):
            _convolve(c, d[i], out[i, :, :2 * n - 1])
            if i >= 2:
                cross = np.empty((m, 2 * n - 1))
                _convolve(d[0], d[i - 2], cross)
                out[i, :, :2 * n - 1] += cross
        out *= -1.0
    out[:, :, :n] += _euler_symbol(n, spacing) * d
    if k > 1:
        out[1, :, 4 // spacing] -= 0.5
    out *= _kernel_weights(size, spacing)
    out[:, :, :n] += d
    return out


def _overflow(depth: int) -> IterationOverflow:
    return IterationOverflow(
        f"the iterates overflow float64 at depth {depth}: the start "
        f"values are too large in magnitude"
    )


def _check_depth(n_iter: int) -> None:
    if n_iter < 1:
        raise ValueError(f"iteration depth {n_iter} is below the minimum of 1")
    if n_iter > MAX_DEPTH:
        raise ValueError(
            f"iteration depth {n_iter} exceeds the maximum of {MAX_DEPTH}"
        )


def _run(c: np.ndarray, lam: float, n_iter: int, spacing: int,
         nonlinear: bool = True, d: np.ndarray | None = None, *,
         start: int = 0, stop: int | None = None):
    """Run steps start + 1 to stop (by default n_iter) of an n_iter-step
    run from the rows c; return the rows and the derivatives d carried
    along by :func:`_tangent_rows` (None without).  An overflow names
    depth n_iter."""
    _check_depth(n_iter)
    stop = n_iter if stop is None else stop
    for _ in range(start, stop):
        if d is not None:
            d = _tangent_rows(c, d, spacing, nonlinear)
        c = _step_rows(c, lam, spacing, nonlinear, n_iter)
    # an overflow in an earlier step trips the check in _step_rows; one in
    # the last step shows only here
    if stop == n_iter and not np.isfinite(c).all():
        raise _overflow(n_iter)
    return c, d


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
    return RPoly(_defect_rows(w.coeffs[None], lam, 1, nonlinear)[0])


# the term arrays take about 20 kB per point at depth 7; blocks of points
# keep a 101-point profile grid from holding them all at once
_POINTS_PER_BLOCK = 16


def _defect_at(c: np.ndarray, lam: float, r) -> np.ndarray:
    """Defect of the polynomial with coefficients c at the points r.

    Each value is the defect of the float coefficients at the float point,
    carried to within a few units of eps**2 times the absolute term mass
    and then rounded once.  :func:`ode_defect` forms w**2 by float
    convolution, and on the steep Dirichlet branch (coefficients near 1e11,
    defect of order one) its rounding errors exceed the defect itself.
    Here every term k(k-2) c_k r**k of the linear part and c_k r**k of w is
    split into error-free products of the double-double power r**k, and
    ``math.fsum`` adds them exactly; w(r) is kept as a pair w_hi + w_lo so
    that w(r)**2 enters the final sum to the same accuracy.
    """
    r = np.asarray(r, dtype=float).reshape(-1)
    if r.size > _POINTS_PER_BLOCK:
        return np.concatenate([
            _defect_at(c, lam, r[i:i + _POINTS_PER_BLOCK])
            for i in range(0, r.size, _POINTS_PER_BLOCK)
        ])
    n = c.size
    hi, lo = _dd_powers(r, max(n, 5))
    # iterates have zero odd coefficients; zero terms need no summing
    k = np.flatnonzero(c)
    c, p_hi, p_lo = c[k], hi[:, k], lo[:, k]
    w_terms = np.hstack((*_two_prod(c, p_hi), c * p_lo))
    k_hi, k_lo = _two_prod(_euler_symbol(n)[k], c)
    linear = np.hstack((*_two_prod(k_hi, p_hi), k_hi * p_lo, k_lo * p_hi))
    f_hi, f_lo = _two_prod(lam, hi[:, 4])
    forcing = -0.5 * np.column_stack((f_hi, f_lo, lam * lo[:, 4]))
    out = []
    for w_row, lin_row, f_row in zip(w_terms, linear, forcing):
        w_row = w_row.tolist()
        w_hi = math.fsum(w_row)
        w_lo = math.fsum(w_row + [-w_hi])
        sq_hi, sq_lo = _two_prod(w_hi, w_hi)
        out.append(math.fsum(lin_row.tolist() + f_row.tolist()
                             + [-0.5 * sq_hi, -0.5 * sq_lo, -w_hi * w_lo]))
    return np.array(out)


def vim_step(w: RPoly, lam: float, *, nonlinear: bool = True) -> RPoly:
    """One correction step: w + K[defect(w)].  Doubles the degree at most."""
    return RPoly(_step_rows(w.coeffs[None], lam, 1, nonlinear)[0])


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
