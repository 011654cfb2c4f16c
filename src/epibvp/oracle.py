"""Independent cross-check: shoot the equation as an initial value problem.

In the logarithmic radius t = ln r, with u = r w', the equation
r**2 w'' - r w' = w**2 / 2 + lam r**4 / 2 reads

    w_t = u,      u_t = 2 u + w**2 / 2 + lam exp(4 t) / 2,

which is regular on [ln r0, 0]: the singular Euler operator becomes one
with constant coefficients.  It is integrated by Taylor series steps in t
(Corliss & Chang, ACM TOMS 8, 1982; Jorba & Zou, Exp. Math. 14, 2005).
At t0 the coefficients of w(t0 + h) = sum W_k h**k and u(t0 + h) =
sum U_k h**k follow, to the order K = 24 (``_TAYLOR_ORDER``), from

    W_{k+1} = U_k / (k + 1),
    U_{k+1} = (2 U_k + (W*W)_k / 2 + lam exp(4 t0) 4**k / (2 k!)) / (k + 1),

with (W*W)_k = sum_j W_j W_{k-j}.  Over the upper half of the
coefficients, the largest (max(|W_k|, |U_k|) / m)**(1/k), with
m = max(1, |w|, |u|) at t0, estimates the inverse radius of convergence
g, and the step is h = min(0.35 / g, 1, -t0): the last term kept is
about 0.35**K times m.  Measured against m rather than 1, a column that
blows up passes the guard in tens of steps, not hundreds.  The endpoint
pair (w(1), w'(1)) is (w, u) at t = 0.

The origin is singular, and near it the solution is its own Frobenius
series: with s = r**2, w = s v(s) and

    v_0 = a,      v_j = ((v*v)_{j-1} + lam delta_{j1}) / (8 j (j + 1)),

taken to the same order K.  Each column hands off from the series to the
Taylor steps at r_h = max(r0, min(1, sqrt(0.25 / g))), where r0 = 1e-4
(``_R0``) and g is the root test's inverse radius in s over the upper
half of the v_j, measured against m = max(|v_0|, |v_1|).  Below r_h the
series is the solution to rounding, so the steps only cover ln r_h .. 0:
0 to 4 of them on the default window at lam = 15, where a column that
hands off at r = 1 takes its endpoint from the series with no step.

Nothing here shares code with the polynomial solver: profiles are
recovered by trapezoidal quadrature of w / r over the trajectory, sampled
from the series below r_h and from each step's polynomial above, and
branch roots are re-derived from the endpoint state inside the sign
changes of a scan.  A call costs about the same for 1 column as for 64,
so one solver takes all brackets in lockstep, in rounds of two calls:
one reads every bracket at its Chebyshev-Lobatto points, and one checks
the root of each bracket's interpolant 4e-11 to either side.  Where that
pair changes sign the bracket is closed, so each root takes two calls
after the scan; a bracket left open repeats the round on its sampled
cell.  Agreement with the iterative solver is therefore genuine
two-method validation.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "IvpOverflow",
    "BLOWUP_GUARD",
    "series_start",
    "ivp_integrate",
    "ivp_trajectory",
    "profile_from_trajectory",
    "oracle_branches",
]

BLOWUP_GUARD = 1e12

# the order K of the Frobenius series and of the Taylor steps: a step's
# truncation is about 0.35**K of the state, and its work grows as K**2
_TAYLOR_ORDER = 24
# the least series handoff radius, and the first node of ivp_trajectory
_R0 = 1e-4
# each step goes this fraction of the estimated radius of convergence in
# t, and the series handoff this one of it in s = r**2, though never past
# r = 1; the handoff's is smaller, since the series' u = r w' row carries
# factors 2 j + 2 that the root test of its v row does not see
_STEP_FRACTION = 0.35
_SERIES_FRACTION = 0.25
# a column still short of r = 1 after this many steps counts as blown up;
# from the handoff a column that reaches r = 1 takes 0 to 35 steps, one
# that passes the guard about 50
_STEP_BUDGET = 400
# geometric nodes of ivp_trajectory, from r0 to 1
_TRAJECTORY_NODES = 2001


class IvpOverflow(ArithmeticError):
    """Trajectory exceeded the blow-up guard before reaching r = 1.

    Expected for shooting parameters far from a genuine branch; reported so
    sweeps can skip the trajectory rather than abort.
    """


def _root_test(coeffs, scale, upper):
    """Inverse radius of convergence per row: the largest
    (|c_k| / scale)**(1/k) over the coefficients c_k of the upper half,
    whose exponents 1/k are ``upper``."""
    return np.max((np.abs(coeffs) / scale[:, None]) ** upper, axis=1)


def _within_guard(state):
    """Per row of (w, u) states: |w| within the blow-up guard and u
    finite."""
    return (np.abs(state[:, 0]) <= BLOWUP_GUARD) & np.isfinite(state[:, 1])


def _handoff(a, lam: float):
    """The Frobenius series v_0..v_K of v = w / s, one row per shooting
    parameter in the 1-D array ``a``, each row's handoff radius, and the
    series state (w, u) there."""
    order = _TAYLOR_ORDER
    v = np.empty((a.size, order + 1))
    v[:, 0] = a
    v[:, 1] = (a * a + lam) / 16.0
    for j in range(2, order + 1):
        v[:, j] = np.einsum("ij,ij->i", v[:, :j], v[:, j - 1::-1])
        v[:, j] /= 8 * j * (j + 1)
    upper = _constants(order)[3]
    # the inverse radius in s; a zero series (a = lam = 0) reads NaN, and
    # so does one whose a**2 overflows (|a| above 1.3e154), and fmin
    # hands either off at r = 1, where _taylor's guard takes the second
    g = _root_test(v[:, order // 2:],
                   np.maximum(np.abs(v[:, 0]), np.abs(v[:, 1])), upper)
    r = np.maximum(_R0, np.fmin(1.0, np.sqrt(_SERIES_FRACTION / g)))
    return v, r, _series_state(v, r * r)


def _series_state(v, s):
    """(w, u) = (s v(s), r w') of the series with coefficients ``v`` (last
    axis) at s = r**2, by Horner's rule; v and s broadcast."""
    w = u = 0.0
    for j in range(v.shape[-1] - 1, -1, -1):
        w = w * s + v[..., j]
        u = u * s + (2 * j + 2) * v[..., j]
    return s * w, s * u


def series_start(a, lam: float):
    """Handoff radius, at most 1, and the series state (r, w, w') there,
    per shooting parameter; ``a`` may be an array, and each output has its
    shape."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _, r, (w, u) = _handoff(np.asarray(a, dtype=float).reshape(-1), lam)
        return tuple(x.reshape(np.shape(a))[()] for x in (r, w, u / r))


@lru_cache(maxsize=None)
def _constants(order: int):
    """Per-order factors of the recurrence and the step rule: for
    k = 0..order-1, (1, 2) / (k + 1), 1 / (2 (k + 1)) and 4**k / (k + 1)!;
    the exponents 1/k of the upper half, and the powers 0..order."""
    k = np.arange(order, dtype=float)
    rates = np.stack((1.0 / (k + 1.0), 2.0 / (k + 1.0)), axis=1)
    forcing = np.array([4.0 ** j / math.factorial(j + 1)
                        for j in range(order)])
    upper = 1.0 / np.arange(order // 2, order + 1, dtype=float)
    return rates, 0.5 / (k + 1.0), forcing, upper, np.arange(order + 1.0)


def _taylor(a_values, lam: float, dense=None):
    """Endpoint states (w, u) at t = 0 for many shooting parameters at once,
    and the t each column reached.

    Each column starts from its series at its handoff radius and steps on
    its own, unless it hands off at r = 1; a column reads NaN once |w|
    passes the blow-up guard, a value leaves the finite range or the step
    budget runs out, at the handoff as after any step.  The coefficients
    are stored one row per column and the convolutions are summed along
    the row, so a column reads the same bits whatever other columns share
    the call.  Given ``dense`` = (ts, out) for one column, with ts sorted
    from ln r0 to 0, the series writes (w, u) at the nodes ts[j] below the
    handoff into out[:, j], and each step at the nodes it covers, the last
    node excepted.

    Raises ValueError for a rate that is not finite: its forcing is NaN
    from the first step, which would read as blow-up everywhere.
    """
    if not math.isfinite(lam):
        raise ValueError(f"the rate must be finite, got {lam!r}")
    order = _TAYLOR_ORDER
    rates, halves, forcing, upper, powers = _constants(order)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v, r, start = _handoff(np.asarray(a_values, dtype=float).reshape(-1),
                               lam)
        state, t = np.stack(start, axis=1), np.log(r)
        if dense is not None:
            ts, out = dense
            below = slice(np.searchsorted(ts, t[0]))
            out[:, below] = _series_state(v[0], np.exp(2.0 * ts[below]))
        # a column that hands off at r = 1 ends there, with no step
        ok = _within_guard(state)
        blown = ~ok
        live = np.flatnonzero(ok & (t < 0.0))
        for _ in range(_STEP_BUDGET):
            if not live.size:
                break
            t0 = t[live]
            c = np.empty((live.size, 2, order + 1))
            c[:, :, 0] = state[live]
            w_coeffs = c[:, 0]
            force = np.multiply.outer(0.5 * lam * np.exp(4.0 * t0), forcing)
            for k in range(order):
                np.multiply(c[:, 1:, k], rates[k], out=c[:, :, k + 1])
                square = np.einsum("ij,ij->i", w_coeffs[:, :k + 1],
                                   w_coeffs[:, k::-1])
                c[:, 1, k + 1] += square * halves[k] + force[:, k]
            g = _root_test(np.abs(c[:, :, order // 2:]).max(axis=1),
                           np.maximum(1.0, np.abs(c[:, :, 0]).max(axis=1)),
                           upper)
            h = np.minimum(_STEP_FRACTION / np.maximum(g, _STEP_FRACTION),
                           -t0)
            t1 = t0 + h
            if dense is not None:
                ts, out = dense
                nodes = slice(*np.searchsorted(ts, (t0[0], t1[0])))
                out[:, nodes] = c[0] @ ((ts[nodes] - t0[0]) ** powers[:, None])
            # the terms W_k h**k and U_k h**k, formed in place
            c *= (h[:, None] ** powers)[:, None, :]
            new = c.sum(axis=2)
            state[live], t[live] = new, t1
            ok = _within_guard(new)
            blown[live[~ok]] = True
            live = live[ok & (t1 < 0.0)]
    blown[live] = True
    state[blown] = np.nan
    return state[:, 0], state[:, 1], t


def _endpoint(a: float, lam: float, dense=None):
    w, u, t = _taylor(a, lam, dense)
    if np.isnan(w[0]):
        raise IvpOverflow(f"|w| passed {BLOWUP_GUARD:g} or the step budget "
                          f"before r = 1, at r = {math.exp(t[0]):.6f}")
    return float(w[0]), float(u[0])


def ivp_integrate(a: float, lam: float):
    """Integrate to r = 1; returns the endpoint pair (w(1), w'(1)).

    Raises :class:`IvpOverflow` if the trajectory blows up on the way,
    and ValueError for a rate that is not finite.
    """
    return _endpoint(a, lam)


def ivp_trajectory(a: float, lam: float):
    """Integrate to r = 1 sampling the state on the way.

    Returns arrays (r, w, w') on 2001 geometric nodes r = exp(t), from
    exactly r0 = ``_R0`` to exactly 1, read from the series below the
    handoff radius and from each step's polynomial above, so all but the
    last from the series where it hands off at r = 1; the last node is
    :func:`ivp_integrate`'s endpoint.  Dense output feeds the
    quadrature-based profile recovery.
    """
    ts = np.linspace(math.log(_R0), 0.0, _TRAJECTORY_NODES)
    states = np.empty((2, _TRAJECTORY_NODES))
    states[:, -1] = _endpoint(a, lam, (ts, states))
    rs = np.exp(ts)
    rs[0] = _R0
    return rs, states[0], states[1] / rs


def profile_from_trajectory(rs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Recover the height profile on the trajectory nodes.

    phi(r) = -integral of w/t from r to 1, by composite trapezoid; this
    deliberately avoids the polynomial recovery it cross-checks.
    """
    integrand = ws / rs
    segments = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(rs)
    tail = np.concatenate([np.cumsum(segments[::-1])[::-1], [0.0]])
    return -tail


# scan points and root tolerance in the shooting parameter
_GRID_POINTS = 320
_ROOT_TOL = 1e-10
# the zoom: the degree of the interpolant on each bracket, the Newton
# steps on its root, and the offset of the check pair from that root; on
# the 1016 brackets of 519 cases on the default window and three wide
# ones, the first round closed all at degrees 12 and 16, all but 6 at 8,
# all but 25 at 6 and all but 584 at 4, and at degree 12 two steps closed
# all
_ZOOM_DEGREE = 12
_ZOOM_STEPS = 3
_CHECK_OFFSET = 0.4 * _ROOT_TOL


def _zoom_matrix(degree: int):
    """The angles theta_j = pi (D - j) / D, j = 0..D, of the
    Chebyshev-Lobatto points t_j = cos(theta_j), ascending in [-1, 1],
    and the DCT-I matrix M that gives the Chebyshev coefficients of the
    interpolant through values f_j at t_j as f @ M:
    M[j, k] = (2 / D) w_j w_k T_k(t_j), where w is 1/2 at 0 and D and 1
    elsewhere."""
    theta = np.pi * np.arange(degree, -1, -1) / degree
    w = np.ones(degree + 1)
    w[[0, -1]] = 0.5
    cosines = np.cos(np.outer(theta, np.arange(degree + 1.0)))
    return theta, (2.0 / degree) * w[:, None] * cosines * w


_ZOOM_ANGLES, _ZOOM_DCT = _zoom_matrix(_ZOOM_DEGREE)
_ZOOM_NODES = np.cos(_ZOOM_ANGLES)


def _cell_roots(coeffs, theta_lo, theta_hi, f_lo, f_hi):
    """Roots of the Chebyshev series ``coeffs`` (one per row) in the cells
    theta_hi <= theta <= theta_lo of theta = arccos t, where the series
    reads f_lo and f_hi: Newton on sum_k c_k cos(k theta) from the regula
    falsi point of the cell, each step clipped to it.  Elementwise
    arithmetic only, so the bits do not depend on the BLAS kernel, as an
    eigensolver's would.  A zero slope reads NaN, which the check pair
    refuses."""
    k = np.arange(coeffs.shape[1], dtype=float)
    t_lo, t_hi = np.cos(theta_lo), np.cos(theta_hi)
    theta = np.arccos(t_lo + (t_hi - t_lo) * f_lo / (f_lo - f_hi))
    with np.errstate(invalid="ignore", divide="ignore"):
        for _ in range(_ZOOM_STEPS):
            angles = theta[:, None] * k
            value = np.einsum("ij,ij->i", coeffs, np.cos(angles))
            slope = np.einsum("ij,ij->i", coeffs * k, np.sin(angles))
            theta = np.clip(theta + value / slope, theta_hi, theta_lo)
    return np.cos(theta)


def _zoom(residual, lo, hi, f_lo, f_hi):
    """Roots of ``residual`` in the brackets [lo, hi], whose end values
    f_lo and f_hi are finite, nonzero and differ in sign, solved in
    lockstep in rounds of at most two calls.

    ``residual`` maps an array of points to their values.  Each round
    reads every bracket still wider than ``_ROOT_TOL`` at its interior
    Lobatto points and finds its first exact zero, or its first cell where
    the sign changes between finite samples.  A zero sample is the root, a
    bracket of width 0.  Otherwise, where every sample is finite, the root
    in that cell of the degree-D Chebyshev interpolant through the samples
    (Boyd, SIAM J. Numer. Anal. 40, 2002) is read 0.4 ``_ROOT_TOL`` to
    either side by the second call, and where that pair changes sign it is
    the bracket.  Where it does not, or a sample is not finite, the cell
    is.  A bracket ends once it is at most ``_ROOT_TOL`` wide, or when a
    round does not narrow it, as at float resolution, and yields its
    midpoint.
    """
    lo, hi, f_lo, f_hi = (np.array(x, dtype=float, ndmin=1)
                          for x in (lo, hi, f_lo, f_hi))
    live = np.flatnonzero(hi - lo > _ROOT_TOL)
    while live.size:
        width = hi[live] - lo[live]
        mid, half = 0.5 * (lo[live] + hi[live]), 0.5 * width
        xs = mid[:, None] + half[:, None] * _ZOOM_NODES
        xs[:, 0], xs[:, -1] = lo[live], hi[live]
        fs = np.empty_like(xs)
        fs[:, 0], fs[:, -1] = f_lo[live], f_hi[live]
        fs[:, 1:-1] = np.reshape(residual(xs[:, 1:-1].ravel()),
                                 (live.size, -1))
        finite = np.isfinite(fs)
        # j, the first finite sample whose sign is not the left end's: a
        # zero, or the right end of a cell where the sign changes; i, the
        # last finite sample before it, is the number of samples whose
        # running count of finite ones falls short of that at j - 1; both
        # by cumulative sums, since argmax and maximum.accumulate, used
        # nowhere else here, each add 128 kB of peak RSS on first use
        signs = np.sign(fs)
        j = np.sum(np.cumsum(finite & (signs != signs[:, :1]), axis=1) == 0,
                   axis=1)
        rows = np.arange(live.size)
        counts = np.cumsum(finite, axis=1)
        i = np.sum(counts < counts[rows, j - 1, None], axis=1)
        lo[live], f_lo[live] = xs[rows, i], fs[rows, i]
        hi[live], f_hi[live] = xs[rows, j], fs[rows, j]
        zero = f_hi[live] == 0.0
        lo[live[zero]], f_lo[live[zero]] = hi[live[zero]], 0.0
        rows = rows[~zero & finite.all(axis=1)]
        if rows.size:
            t = _cell_roots(np.einsum("ij,jk->ik", fs[rows], _ZOOM_DCT),
                            _ZOOM_ANGLES[j[rows] - 1], _ZOOM_ANGLES[j[rows]],
                            f_lo[live[rows]], f_hi[live[rows]])
            pair = mid[rows] + half[rows] * t + np.array([[-_CHECK_OFFSET],
                                                          [_CHECK_OFFSET]])
            f_pair = np.reshape(residual(pair.ravel()), pair.shape)
            closed = (np.isfinite(f_pair).all(axis=0)
                      & (np.sign(f_pair[0]) != np.sign(f_pair[1])))
            rows = live[rows[closed]]
            lo[rows], hi[rows] = pair[:, closed]
            f_lo[rows], f_hi[rows] = f_pair[:, closed]
        narrowed = hi[live] - lo[live]
        live = live[(narrowed > _ROOT_TOL) & (narrowed < width)]
    return 0.5 * (lo + hi)


def oracle_branches(lam: float, bc, window=(-120.0, 20.0)) -> list:
    """Roots of the boundary functional built from the integrator.

    Scans the window, skips blown-up stretches and solves all sign-change
    brackets together by :func:`_zoom` to ``_ROOT_TOL`` in the shooting
    parameter: three integrator calls in all when its first round closes
    every bracket.  An empty list mirrors branch non-existence above the
    critical rate; a rate that is not finite raises ValueError.
    """
    lo, hi = float(window[0]), float(window[1])
    # a width that overflows would fill the grid with inf and NaN
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ValueError(f"window must be finite with lo < hi, got {window!r}")

    def residual(a):
        w, u, _ = _taylor(a, lam)
        return bc.residual(w, u)

    xs = np.linspace(lo, hi, _GRID_POINTS)
    fs = residual(xs)
    f_lo, f_hi = fs[:-1], fs[1:]
    both = np.isfinite(f_lo) & np.isfinite(f_hi)
    with np.errstate(over="ignore"):
        change = both & (f_lo != 0.0) & (f_hi != 0.0) & ~(f_lo * f_hi > 0.0)
    roots = xs[:-1][both & (f_lo == 0.0)].tolist()
    roots += _zoom(residual, xs[:-1][change], xs[1:][change], f_lo[change],
                   f_hi[change]).tolist()
    if fs[-1] == 0.0:
        roots.append(float(xs[-1]))
    return sorted(roots)
