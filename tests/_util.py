"""Shared helpers for the test suite."""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from epibvp import (BLOWUP_GUARD, BoundaryKind, IvpOverflow,
                    NonIntegrableDefect, find_branches)
from epibvp.vim import (_basis, _chebyshev, _collocation, _gauss,
                        _overflow, _quadratures)

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


def frozen_collocation_matrices(p):
    """The matrices of vim._collocation(p) as its vectorised build formed
    them, the nodes in passes of at most 2**14 quadrature terms.  Kept
    frozen; the build one node at a time equals it bit for bit."""
    nodes, _ = _chebyshev(p)
    u, g = _gauss(max(p, 32) + 2)
    kernel = 0.5 * g * (1.0 - u) * u * u
    sums = np.stack((g, kernel))
    chunk = max(1, (1 << 14) // (u.size * p))
    step = np.concatenate([_quadratures(p, s[:, None] * u * u, sums)
                           for s in np.split(nodes, range(chunk, p, chunk))])
    step_v, step_q = step.transpose(1, 2, 0)
    step_q = step_q * nodes
    edge = _quadratures(p, u * u, np.stack((g, kernel, 0.5 * g * u * u)))
    at_one = _basis(p, np.ones(1))[0]
    read_v = np.stack((edge[0], edge[0] + at_one), axis=1)
    read_q = np.stack(edge[1:], axis=1)
    return tuple(np.ascontiguousarray(x)
                 for x in (step_v, step_q, read_v, read_q))


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


# ---------------------------------------------------------------------------
# a frozen copy of the oracle's classic RK4 march
# ---------------------------------------------------------------------------

def _rk4_step(w, u, h, f0, fm, f1):
    half = 0.5 * h
    k1 = 2.0 * u + 0.5 * w * w + f0
    w2 = w + half * u
    u2 = u + half * k1
    k2 = 2.0 * u2 + 0.5 * w2 * w2 + fm
    w3 = w + half * u2
    u3 = u + half * k2
    k3 = 2.0 * u3 + 0.5 * w3 * w3 + fm
    w4 = w + h * u3
    u4 = u + h * k3
    k4 = 2.0 * u4 + 0.5 * w4 * w4 + f1
    return (w + h * (u + 2.0 * u2 + 2.0 * u3 + u4) / 6.0,
            u + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0)


def _rk4_start(a, lam, r0):
    # (w, u) at r0 from the two-term series w = a r**2 + c4 r**4,
    # c4 = (a**2 + lam) / 16, the start the march was built with
    c4 = (a * a + lam) / 16.0
    return (a * r0 * r0 + c4 * r0 ** 4,
            r0 * (2.0 * a * r0 + 4.0 * c4 * r0 ** 3))


def _rk4_grid(lam, r0, steps):
    # the step in t and the forcing lam exp(4 t) / 2 at the stage points
    # ln r0, ln r0 + h/2, ..., 0
    t0 = math.log(r0)
    stages = np.linspace(t0, 0.0, 2 * steps + 1)
    return -t0 / steps, (0.5 * lam * np.exp(4.0 * stages)).tolist()


def frozen_rk4(a, lam, r0=1e-4, steps=2000):
    """Endpoint (w, u) at r = 1 of classic RK4 on ``steps`` uniform steps
    in t = ln r from the two-term series start at r0, one call of a float RK4 step
    per step; raises IvpOverflow when |w| passes the blow-up guard.  The
    oracle integrated this way until it took Taylor steps.  Kept frozen."""
    h, f = _rk4_grid(lam, r0, steps)
    w, u = _rk4_start(a, lam, r0)
    for i in range(1, steps + 1):
        w, u = _rk4_step(w, u, h, f[2 * i - 2], f[2 * i - 1], f[2 * i])
        if not abs(w) <= BLOWUP_GUARD:
            r = r0 ** (1.0 - i / steps)
            raise IvpOverflow(f"|w| exceeded {BLOWUP_GUARD:g} at r = {r:.6f}")
    return w, u


@lru_cache(maxsize=None)
def frozen_rk4_endpoints(a_values, lam, r0=1e-4, steps=2000):
    """:func:`frozen_rk4` on every value of the tuple ``a_values`` at once,
    as arrays (w, u) that read NaN where |w| passed the blow-up guard.  The
    step does the scalar march's operations elementwise, so each column
    equals it bit for bit; the reference for the oracle's accuracy."""
    h, f = _rk4_grid(lam, r0, steps)
    w, u = _rk4_start(np.array(a_values), lam, r0)
    peak = np.zeros_like(w)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            w, u = _rk4_step(w, u, h, f[2 * i - 2], f[2 * i - 1], f[2 * i])
            peak = np.fmax(peak, np.abs(w))
            peak[np.isnan(w)] = np.inf
    bad = ~(peak <= BLOWUP_GUARD)
    return np.where(bad, np.nan, w), np.where(bad, np.nan, u)
