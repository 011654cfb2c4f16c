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
representable in :class:`~epibvp.polyring.RPoly`.  The numeric kernel
(:func:`_run`) steps one such polynomial per call, its coefficients in
powers of r, for :func:`iterate`, :func:`iterate_from`, :func:`vim_step`
and :func:`ode_defect` alike; the exact, correctly rounded defect of a
residual table is :func:`epibvp.recover.residual_table`'s.  The
collocation kernel (:func:`_collocation_readings`) runs the same step on
values at Chebyshev points in s = r**2 instead, each iterate on as many
points as its degree needs, with the derivatives in a and lam, and gives
every boundary reading.

A symbolic mode keeps the initial coefficient ``a`` and the parameter
``lam`` as formal symbols and reproduces the low-order iterates in closed
form; it exists for verification, whereas all root finding re-runs the
numeric iteration per candidate ``a``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

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
    """Requested symbolic depth exceeds the budget of 8 steps.

    Each symbolic step squares the term count, so the budget guards against
    accidental blow-up rather than any mathematical obstruction.
    """


class IterationOverflow(ValueError):
    """The iterates left the float64 range: the start values are too large
    in magnitude for the iteration depth."""


@dataclass(frozen=True)
class VimProblem:
    """One numeric iteration run: w0 = a r**2 driven n_iter steps at fixed
    lam.  A depth outside 1..:data:`MAX_DEPTH` or not an integer, and an a
    that is not finite, raise ``ValueError``."""

    lam: float
    a: float
    n_iter: int = 7

    def __post_init__(self):
        _check_depth(self.n_iter)
        if not math.isfinite(self.a):
            raise ValueError(f"a must be finite, got {self.a!r}")


# ---------------------------------------------------------------------------
# numeric path
# ---------------------------------------------------------------------------

# each step doubles the degree, so a depth-d iterate holds 2**(d + 1) + 1
# coefficients in r and its squaring costs about 4**(d + 1) products
MAX_DEPTH = 10


def _square(c: np.ndarray) -> np.ndarray:
    """The 2 n - 1 coefficients of the square of the n coefficients c.

    Entry k is sum_j c[j] * c[k - j], summed over a read-only window view
    of the zero-padded coefficients, so no (2 n - 1, n) array is formed.
    Each entry adds its products in order of descending j from +0, one
    rounding per product and per sum.  When the odd coefficients are all
    zero, as in every iterate started at a r**2, the even ones are squared
    alone and interleaved with zeros: each sum then skips only its zero
    products, so its value is the same, from about a quarter of the
    products.
    """
    n = c.size
    if n > 2 and not c[1::2].any():
        out = np.zeros(2 * n - 1)
        out[::2] = _square(np.ascontiguousarray(c[::2]))
        return out
    padded = np.zeros(3 * n - 2)
    padded[n - 1:2 * n - 1] = c
    stride = padded.strides[0]
    # window k starts at padded coefficient k
    windows = np.ndarray((2 * n - 1, n), padded.dtype, padded, 0,
                         (stride, stride))
    windows.flags.writeable = False
    return np.einsum("i,ki->k", c[::-1], windows)


def _defect(c: np.ndarray, lam: float, nonlinear: bool) -> np.ndarray:
    """Defect coefficients -c*c/2 + k (k - 2) c_k - lam/2 r**4 of the
    polynomial with coefficients c of r**0, r**1, ...; the linear operator
    r**2 d**2 - r d maps r**k to k (k - 2) r**k."""
    if not math.isfinite(lam):
        raise ValueError(f"the rate must be finite, got {lam!r}")
    n = c.size
    # the square doubles the degree; the forcing r**4 may lie beyond
    out = np.zeros(max(2 * n - 1 if nonlinear else n, 5))
    if nonlinear:
        out[:2 * n - 1] = _square(c)
        out *= -0.5
    k = np.arange(n, dtype=float)
    out[:n] += k * (k - 2.0) * c
    out[4] -= 0.5 * lam
    return out


def _step(c: np.ndarray, lam: float, nonlinear: bool,
          depth: int = 1) -> np.ndarray:
    """One step of the polynomial c: c + W (defect), W the kernel weights."""
    out = _defect(c, lam, nonlinear)
    # the coefficients of r**0 and r**1; an overflowed iterate has NaN in all
    if out[:2].any():
        if not np.isfinite(out).all():
            raise _overflow(depth)
        raise NonIntegrableDefect(
            "defect has a nonzero r**0 or r**1 coefficient"
        )
    out *= _kernel_weights(out.size)
    out[:c.size] += c
    return out


def _overflow(depth: int) -> IterationOverflow:
    return IterationOverflow(
        f"the iterates overflow float64 at depth {depth}: the start "
        f"values or the rate are too large in magnitude"
    )


def _check_depth(n_iter: int) -> None:
    # numpy integers are integral; a bool or a float is not a depth
    if isinstance(n_iter, bool) or not isinstance(n_iter, Integral):
        raise ValueError(f"iteration depth must be an integer, got {n_iter!r}")
    if n_iter < 1:
        raise ValueError(f"iteration depth {n_iter} is below the minimum of 1")
    if n_iter > MAX_DEPTH:
        raise ValueError(
            f"iteration depth {n_iter} exceeds the maximum of {MAX_DEPTH}"
        )


def _run(c: np.ndarray, lam: float, n_iter: int,
         nonlinear: bool = True) -> np.ndarray:
    """Run n_iter steps from the polynomial c; an overflow names n_iter."""
    _check_depth(n_iter)
    for _ in range(n_iter):
        c = _step(c, lam, nonlinear, n_iter)
    # an overflow in an earlier step trips the check in _step; one in the
    # last step shows only here
    if not np.isfinite(c).all():
        raise _overflow(n_iter)
    return c


# ---------------------------------------------------------------------------
# collocation path
# ---------------------------------------------------------------------------

# Chebyshev points in s of the collocation kernel; with 2**n <= P the
# depth-n collocation iterate is the exact one up to rounding
COLLOCATION_POINTS = 64

# stack rows per product of the collocation kernel on 64 points, and on
# p > 64 points the same count of multiply-adds per step on p points; on
# one pinned CPU of a 2-CPU host (medians of 10 interleaved seeds) a fold
# round took 56 ms with 64 rows against 64 ms with 32 and 52 ms with 128,
# and a census pass of 36 find_branches 118 ms against 134 and 121 ms;
# 128 rows won 9 and 8 of 10 fold pairs in two rounds but 5 and 7 of 10
# census pairs, so 64 stays
_COLLOCATION_ROWS = 64


@lru_cache(maxsize=None)
def _gauss(n: int):
    """The n-point Gauss-Legendre rule on [0, 1]: (points, weights),
    read-only.

    The roots of P_n are the eigenvalues of its Jacobi matrix (Golub &
    Welsch 1969) after one Newton step, with P_n and P_n' from the
    three-term recurrence; P_n' at the stepped roots takes one Taylor term
    with P_n'' from Legendre's equation, and the weights are 2 / ((1 -
    x**2) P_n'(x)**2).  numpy's ``leggauss`` takes P_n' at the roots
    before its Newton step: its moments of degree below 2 n erred by up
    to 4e-13 relative at n = 66, these by 3.5e-15 up to n = 130.
    """
    j = np.arange(1.0, n)
    off = j / np.sqrt(4.0 * j * j - 1.0)
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    before, value = np.ones(n), x
    for k in range(2, n + 1):
        before, value = value, ((2 * k - 1) * x * value - (k - 1) * before) / k
    slope = n * (before - x * value) / (1.0 - x * x)
    step = value / slope
    x = x - step
    slope -= step * (2.0 * x * slope - n * (n + 1) * value) / (1.0 - x * x)
    out = 0.5 * (x + 1.0), 1.0 / ((1.0 - x * x) * slope * slope)
    for y in out:
        y.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _chebyshev(p: int):
    """The p first-kind Chebyshev points of [0, 1] and their barycentric
    weights (-1)**j sin theta_j (Berrut & Trefethen 2004)."""
    theta = (2.0 * np.arange(p) + 1.0) * np.pi / (2.0 * p)
    out = 0.5 * (1.0 + np.cos(theta)), (-1.0) ** np.arange(p) * np.sin(theta)
    for x in out:
        x.setflags(write=False)
    return out


def _quadratures(p: int, x: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """sum_k sums[w, k] l_j(x[..., k]), shape (..., w, p), for the p
    Lagrange basis polynomials l_j on the p first-kind Chebyshev points
    s_j, without forming the basis values: with c_j = 1 / (x - s_j) and
    d = sum_j weight_j c_j, l_j(x) = weight_j c_j / d, so the sums are
    weight_j ((sums / d) @ c), two products over c.  A point on a node
    takes the basis values 1 there and 0 elsewhere."""
    nodes, weights = _chebyshev(p)
    with np.errstate(divide="ignore"):
        inverse = 1.0 / (x[..., None] - nodes)
    scale = inverse @ weights
    if not np.isfinite(scale).all():
        hit = np.isinf(inverse)
        rows = hit.any(axis=-1)
        inverse[rows] = hit[rows] / weights
        scale = inverse @ weights
    return weights * ((sums / scale[..., None, :]) @ inverse)


def _basis(p: int, x: np.ndarray) -> np.ndarray:
    """The p Lagrange basis polynomials on the p first-kind Chebyshev
    points at the points x, on a new last axis."""
    return _quadratures(p, x[..., None], np.ones((1, 1)))[..., 0, :]


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
    is the Gauss-Legendre rule of max(p, 32) + 2 points (:func:`_gauss`),
    one rule for all p <= 32, over the barycentric interpolant of the
    values, exact for the degrees involved; the rows of L and N are built
    one node at a time (:func:`_quadratures`).  The matrices are read-only.
    """
    nodes, _ = _chebyshev(p)
    u, g = _gauss(max(p, 32) + 2)
    kernel = 0.5 * g * (1.0 - u) * u * u
    sums = np.stack((g, kernel))
    # (node, sum, basis), the nodes last in the matrices
    step = np.stack([_quadratures(p, s * u * u, sums) for s in nodes])
    step_v, step_q = step.transpose(1, 2, 0)
    step_q = step_q * nodes
    edge = _quadratures(p, u * u, np.stack((g, kernel, 0.5 * g * u * u)))
    at_one = _basis(p, np.ones(1))[0]
    read_v = np.stack((edge[0], edge[0] + at_one), axis=1)
    read_q = np.stack(edge[1:], axis=1)
    out = tuple(np.ascontiguousarray(x)
                for x in (step_v, step_q, read_v, read_q))
    for x in out:
        x.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _prolongation(m: int, size: int) -> np.ndarray:
    """[E | E L^T], (m, 2 size): E the barycentric interpolant from the m
    first-kind Chebyshev points to the size ones, so v E holds on the size
    points the polynomial of degree below m that v holds on the m, and
    v E L^T is its L (:func:`_collocation`) there.  Read-only, one per
    pair (m, size) whatever the depth and the finest level."""
    up = _basis(m, _chebyshev(size)[0]).T
    out = np.hstack((up, up @ _collocation(size)[0]))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _levels(p: int, n_iter: int) -> tuple:
    """(m, M) of each step of the depth-n_iter collocation kernel on p
    points: step i maps the iterate on m = min(2**i, p) points to the M =
    min(2**(i + 1), p) that hold the next one, and the reading to p."""
    m = [min(2 ** i, p) for i in range(n_iter)]
    return tuple(zip(m, m[1:] + [p]))


def _collocate(s: np.ndarray, lam: float, n_iter: int, p: int):
    """(w(1), w'(1)) of the n_iter-step collocation iterate from the stack
    s of k blocks of m rows of start values on one point, the values v
    and the first k - 1 of v_a, v_lam, v_aa and v_alam, each stepped by
    the derivative of the step: v_a <- L v_a + N (2 v v_a), v_lam <- L
    v_lam + N (2 v v_lam + 1), v_aa <- L v_aa + N (2 v_a**2 + 2 v v_aa)
    and v_alam <- L v_alam + N (2 v_a v_lam + 2 v v_alam); and the
    absolute sums |v| |R_v| + |q| |R_q| of those readings.  Each is
    (k, m, 2).

    The i-th iterate is a polynomial of degree 2**i - 1 in s, and so is
    each of its derivatives, so it is held on min(2**i, p) points.  Step
    i prolongs it to the M = min(2**(i + 1), p) points that hold the next
    one (:func:`_levels`, :func:`_prolongation`), forms q there and
    applies N of those points; the reading prolongs the last iterate to the
    p points and reads it with R_v and R_q of p points.  Up to the step on
    p points every iterate is the exact one up to rounding; from there
    each step drops the Chebyshev terms that the one on p points drops.
    """
    step_v, _, read_v, read_q = _collocation(p)
    k, m, _ = s.shape
    s = s.reshape(k * m, -1)
    for i, (width, size) in enumerate(_levels(p, n_iter)):
        last = i == n_iter - 1
        if width < size:
            up = _prolongation(width, size)
            # the reading needs v alone, not its L
            prolonged = s @ (up[:, :size] if last else up)
            v, lv = prolonged[:, :size], prolonged[:, size:]
        else:
            v, lv = s, None
        if k == 1:
            # nothing to differentiate: q in place, no derivative rows
            q = v * v
            q += lam
        else:
            v = v.reshape(k, m, size)
            q = np.empty_like(v)
            q[0] = v[0] * v[0] + lam
            q[1:] = 2.0 * v[0] * v[1:]
            if k > 2:
                q[2] += 1.0
                q[3:] += 2.0 * v[1] * v[1:3]
            q = q.reshape(k * m, size)
        if not last:
            s = ((s @ step_v if lv is None else lv)
                 + q @ _collocation(size)[1])
    v = v.reshape(k * m, p)
    out = v @ read_v + q @ read_q
    sums = np.abs(v) @ np.abs(read_v) + np.abs(q) @ np.abs(read_q)
    return out.reshape(k, m, 2), sums.reshape(k, m, 2)


def _collocation_readings(a, lam: float, n_iter: int,
                          p: int = COLLOCATION_POINTS, *, order: int = 0):
    """(w(1), w'(1)) of the depth-n_iter collocation iterate on p points,
    started at v = a, for each a: an array (1, m, 2); with ``order`` 1 the
    a-derivatives (w_a(1), w_a'(1)) below, (2, m, 2); with ``order`` 2
    the readings of v_a, v_lam, v_aa and v_alam below, (5, m, 2) (see
    :func:`_collocate`); and the absolute sums of their last quadrature
    sums (see :func:`_rounding_gamma`), shaped alike.

    B at depth n is a polynomial of degree 2**n in a, as in the monomial
    kernel; with 2**n <= p the readings are those of the exact iterate up
    to rounding.  A product takes at most ``_COLLOCATION_ROWS`` rows up to
    p = 64 (40 for five blocks), and a short last block whole tiles of 4
    rows padded with zeros: the BLAS kernel, and so the rounding of a row,
    can depend on the number of rows, and a reading must not depend on the
    call it came from.  A reading of w that is not finite raises
    :class:`IterationOverflow`.
    """
    _check_depth(n_iter)
    a = np.asarray(a, dtype=float).reshape(-1)
    # the blocks by order: v; v and v_a; v, v_a, v_lam, v_aa and v_alam
    k = (1, 2, 5)[order]
    out, size = np.empty((2, k, a.size, 2))
    # k blocks of a power of two of rows: the BLAS kernels tile the rows by
    # powers of two, so no block straddles two tiles and a row rounds alike
    # wherever it sits in its block (in 5 blocks of 6 rows it did not)
    scale = max(p, COLLOCATION_POINTS) ** 2 // COLLOCATION_POINTS ** 2
    block = max(1, _COLLOCATION_ROWS // scale // k)
    block = 1 << block.bit_length() - 1
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, a.size, block):
            rows = a[start:start + block]
            # OpenBLAS rounds a row alike in its tiles of 4 and 8 rows, not
            # in its tails of 1 and 2; every start value is a constant, held
            # on one point, and v_a starts at 1, the other derivatives at 0
            s = np.zeros((k, min(block, -(-rows.size // 4) * 4), 1))
            s[0, :rows.size, 0] = rows
            s[1:2] = 1.0
            got, sums = _collocate(s, lam, n_iter, p)
            out[:, start:start + rows.size] = got[:, :rows.size]
            size[:, start:start + rows.size] = sums[:, :rows.size]
    if not np.isfinite(out[0]).all():
        raise _overflow(n_iter)
    return out, size


def _rounding_gamma(p: int, n_iter: int) -> float:
    """gamma_K = K u / (1 - K u), u the unit roundoff, for the chain depth
    K of a collocation reading on p points: the reading's rounding count
    when it multiplies the absolute sums of its last quadrature sums
    (:func:`_collocate`).

    Each step counts the roundings along its own longest chain as Higham
    counts them.  A basis value l_j(x) is formed as weight_j ((1 / d) c_j)
    from c_j = 1 / (x - s_j) (:func:`_quadratures`; 5 roundings, the sum d
    not counted), and a matrix entry of N sums G of them times rule
    weights and takes the factor s (G + 5, G = max(M, 32) + 2 the points
    of the Gauss-Legendre rule).  Step i maps the iterate on m points to M
    points, the pairs (m, M) of :func:`_levels` that the kernel runs.  Its
    longest chain runs through q: the prolongation v E sums m products of
    basis values (m + 5), the square doubles that and adds 1, and lam
    adds 1 (2 m + 12); q N^T sums M products (M + G + 5), and its sum with
    v E L^T adds 1.  The chain through v E L^T is shorter (m + M + G +
    10).  So step i counts M + G + 2 m + 18, a step on p points with
    nothing to prolong M + G + 8 = 2 p + 10, and the reading, whose rows
    take no factor s, one less, counted as a step.

    K adds the counts of the n_iter steps, so it is a heuristic depth, not
    Higham's bound: the error a step inherits enters K once, where the
    square doubles it and L and N scale it, and the sums it is measured
    against are those of the last step alone.  Against exact rational
    iterates (depths 1 to 6, 2**n <= p) the largest reading error was
    0.09 gamma_K times its sums.
    """
    count = sum(size + max(size, 32) + 2 + (2 * m + 18 if m < size else 8)
                for m, size in _levels(p, n_iter))
    nu = count * 0.5 * np.finfo(float).eps
    return nu / (1.0 - nu)


def ode_defect(w: RPoly, lam: float, *, nonlinear: bool = True) -> RPoly:
    """Pointwise defect r**2 w'' - r w' - w**2/2 - lam r**4/2 of w.

    The linear part maps r**k to k(k-2) r**k, so for inputs without
    constant or linear terms the defect has none either, and it vanishes
    identically exactly when w solves the equation.  ``nonlinear=False``
    drops the w**2/2 term (the small-|lam| linearisation used in tests).
    """
    return RPoly(_defect(w.coeffs, lam, nonlinear))


def vim_step(w: RPoly, lam: float, *, nonlinear: bool = True) -> RPoly:
    """One correction step: w + K[defect(w)].  Doubles the degree at most."""
    return RPoly(_step(w.coeffs, lam, nonlinear))


def iterate(prob: VimProblem) -> RPoly:
    """Run n_iter correction steps from w0 = a r**2."""
    return RPoly(_run(np.array([0.0, 0.0, prob.a], dtype=float), prob.lam,
                      prob.n_iter))


def iterate_from(w0: RPoly, lam: float, n_iter: int, *,
                 nonlinear: bool = True) -> RPoly:
    """Run n_iter correction steps from an arbitrary start polynomial."""
    return RPoly(_run(w0.coeffs, lam, n_iter, nonlinear))


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


# deepest symbolic iterate: its term count squares with each step
_SYMBOLIC_BUDGET = 8


def symbolic_iterate(n: int) -> APoly:
    """Iterate with ``a`` and ``lam`` kept symbolic; returns the n-th iterate.

    Term counts square with each step, so depths beyond
    :data:`_SYMBOLIC_BUDGET` (8) raise :class:`IterationBudgetExceeded`.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > _SYMBOLIC_BUDGET:
        raise IterationBudgetExceeded(
            f"symbolic depth {n} exceeds the budget of {_SYMBOLIC_BUDGET}"
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
