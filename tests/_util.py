"""Shared helpers for the test suite."""

from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from epibvp import BoundaryKind, NonIntegrableDefect, find_branches
from epibvp.vim import _collocation, _overflow

GRID_101 = np.linspace(0.0, 1.0, 101)

ALL_BCS = (BoundaryKind.DIRICHLET, BoundaryKind.NAVIER_ONE, BoundaryKind.NAVIER_TWO)


def close(actual, expected, rel=1e-12, floor=1.0):
    """Mixed absolute/relative comparison."""
    return abs(actual - expected) <= rel * max(floor, abs(expected))


def lower_branch_root(lam, bc, n_iter=None):
    """The small-|a| branch root, isolated in a narrow window near zero."""
    roots = find_branches(lam, bc, window=(-2.5, 2.5), n_iter=n_iter)
    assert roots, f"no branch near the origin at lam={lam} [{bc.value}]"
    return min(roots, key=lambda r: abs(r.a_star))


def sup_on_grid(poly, grid=GRID_101):
    from epibvp import evaluate

    return float(np.max(np.abs(evaluate(poly, grid))))


def exact_defect(w, lam, r):
    """Defect r^2 w'' - r w' - w^2/2 - lam r^4/2 of w at r, in exact rationals.

    The float coefficients, the rate and the point are taken at their exact
    binary values; the result is a ``Fraction``.
    """
    r = Fraction(float(r))
    value = linear = Fraction(0)
    for k in reversed(range(w.coeffs.size)):
        ck = Fraction(float(w.coeffs[k]))
        value = value * r + ck
        linear = linear * r + k * (k - 2) * ck
    return linear - value * value / 2 - Fraction(lam) * r ** 4 / 2


def exact_readings(a, lam, n, tangent=True, number=Fraction):
    """(w(1), w'(1), w_a(1), w_a'(1)) of the depth-n iterate started at
    a r**2, in exact rationals from the float a and lam; without
    ``tangent`` only (w(1), w'(1)).  With ``number=Decimal`` the same sums
    are rounded to the precision of the current decimal context, which is
    much faster than exact rationals from depth 8 on; an a or lam that is
    already a ``number`` enters as it is, not rounded to float.

    With w = s v, s = r**2, a step is v <- L v + N (v**2 + lam) with
    L s**j = s**j / (2 j + 1) and N s**j = s**(j + 1) / (4 (j + 2) (2 j + 3));
    v_a steps along as L v_a + N (2 v v_a).
    """
    def enter(x):
        return x if isinstance(x, number) else number(float(x))

    v, v_a = [enter(a)], [number(1)]
    lam = enter(lam)
    for _ in range(n):
        q = [number(0)] * (2 * len(v) - 1)
        q_a = list(q)
        for i, x in enumerate(v):
            q[2 * i] += x * x
            for j in range(i + 1, len(v)):
                q[i + j] += 2 * x * v[j]
            if tangent:
                for j, y in enumerate(v_a):
                    q_a[i + j] += 2 * x * y
        q[0] += lam
        pad = [number(0)] * len(v)
        v = [x / (2 * j + 1) for j, x in enumerate(v)] + pad
        v_a = [x / (2 * j + 1) for j, x in enumerate(v_a)] + pad
        for j in range(len(q)):
            weight = 4 * (j + 2) * (2 * j + 3)
            v[j + 1] += q[j] / weight
            v_a[j + 1] += q_a[j] / weight
    # w = sum v_j r**(2 j + 2), so w'(1) = sum (2 j + 2) v_j
    values = (v, v_a) if tangent else (v,)
    return tuple(total for c in values
                 for total in (sum(c), sum((2 * j + 2) * x
                                           for j, x in enumerate(c))))


# ---------------------------------------------------------------------------
# a frozen copy of the monomial kernel's row-major steps
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _euler_symbol(n, spacing):
    # k (k - 2) for the exponents k = spacing * j
    k = spacing * np.arange(n, dtype=float)
    out = k * (k - 2.0)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _kernel_weights(n, spacing):
    # -1/(k(k-1)) for the exponents k = spacing * j >= 2, zero slots below
    k = spacing * np.arange(n, dtype=float)
    out = np.zeros(n)
    big = k >= 2.0
    out[big] = -1.0 / (k[big] * (k[big] - 1.0))
    out.setflags(write=False)
    return out


def _frozen_convolve(c, d, out):
    # row i of out is the convolution of row i of c with row i of d
    m, n = d.shape
    padded = np.zeros((m, 3 * n - 2))
    padded[:, n - 1:2 * n - 1] = d
    step = padded.itemsize
    windows = as_strided(padded, (m, 2 * n - 1, n),
                         (padded.strides[0], step, step), writeable=False)
    np.einsum("mi,mki->mk", c[:, ::-1], windows, out=out)


def _frozen_run(c, lam, n_iter, spacing, nonlinear=True):
    """The step loop on row-major blocks, one iterate per row, with the
    signature of vim._run.  Kept frozen; the kernel must equal it bit for
    bit."""

    def defect(c):
        m, n = c.shape
        out = np.zeros((m, max(2 * n - 1 if nonlinear else n,
                               4 // spacing + 1)))
        if nonlinear:
            _frozen_convolve(c, c, out[:, :2 * n - 1])
            out *= -0.5
        out[:, :n] += _euler_symbol(n, spacing) * c
        out[:, 4 // spacing] -= 0.5 * lam
        return out

    def step(c):
        d = defect(c)
        if d[:, :1 // spacing + 1].any():
            if not np.isfinite(d).all():
                raise _overflow(n_iter)
            raise NonIntegrableDefect("nonzero r**0 or r**1 coefficient")
        d *= _kernel_weights(d.shape[1], spacing)
        d[:, :c.shape[1]] += c
        return d

    for _ in range(n_iter):
        c = step(c)
    if not np.isfinite(c).all():
        raise _overflow(n_iter)
    return c


def frozen_iterates(a, lam, n_iter):
    """The depth-n_iter iterates started at a r**2, one row per value of a,
    each holding the coefficients of r**0, r**1, ... (:func:`_frozen_run`
    with spacing 1)."""
    a = np.asarray(a, dtype=float).reshape(-1, 1)
    start = np.hstack((np.zeros((a.size, 2)), a))
    return _frozen_run(start, lam, n_iter, 1)


# ---------------------------------------------------------------------------
# a frozen copy of the one-grid collocation kernel
# ---------------------------------------------------------------------------

def frozen_collocation_readings(a, lam, n_iter, p, order=0):
    """The readings and absolute sums of vim._collocation_readings from the
    kernel that ran every step on all p points, one iterate per row, with
    the matrices of vim._collocation(p).  Kept frozen; the multilevel
    kernel equals it in exact arithmetic at every depth."""
    step_v, step_q, read_v, read_q = _collocation(p)
    a = np.asarray(a, dtype=float).reshape(-1)
    k = (1, 2, 5)[order]
    s = np.zeros((k, a.size, p))
    s[0] = a[:, None]
    s[1:2] = 1.0
    s = s.reshape(k * a.size, p)
    for i in range(n_iter):
        v = s.reshape(k, a.size, p)
        q = np.empty_like(v)
        q[0] = v[0] * v[0] + lam
        q[1:] = 2.0 * v[0] * v[1:]
        if k > 2:
            q[2] += 1.0
            q[3:] += 2.0 * v[1] * v[1:3]
        q = q.reshape(k * a.size, p)
        if i < n_iter - 1:
            s = s @ step_v + q @ step_q
    out = s @ read_v + q @ read_q
    size = np.abs(s) @ np.abs(read_v) + np.abs(q) @ np.abs(read_q)
    return out.reshape(k, a.size, 2), size.reshape(k, a.size, 2)


def frozen_rounding_gamma(p, n_iter):
    """gamma_K of the one-grid kernel: K = n_iter (2 p + 8)."""
    nu = n_iter * (2 * p + 8) * 0.5 * np.finfo(float).eps
    return nu / (1.0 - nu)


def frozen_evaluate(c, r):
    """Horner's rule as polyring.evaluate ran it on numpy scalars and
    arrays, on the coefficients c of r**0, r**1, ...  Kept frozen."""
    if np.isscalar(r) or isinstance(r, float):
        acc = 0.0
        for ck in c[::-1]:
            acc = acc * r + ck
        return float(acc)
    r = np.asarray(r, dtype=float)
    acc = np.zeros_like(r)
    for ck in c[::-1]:
        acc = acc * r + ck
    return acc
