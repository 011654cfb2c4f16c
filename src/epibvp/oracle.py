"""Independent cross-check: shoot the equation as an initial value problem.

In the logarithmic radius t = ln r, with u = r w', the equation
r**2 w'' - r w' = w**2 / 2 + lam r**4 / 2 reads

    w_t = u,      u_t = 2 u + w**2 / 2 + lam exp(4 t) / 2,

which is regular on [ln r0, 0]: the singular Euler operator becomes one
with constant coefficients.  It is integrated by Taylor series steps in t
(Corliss & Chang, ACM TOMS 8, 1982; Jorba & Zou, Exp. Math. 14, 2005).
At t0 the coefficients of w(t0 + s) = sum W_k s**k and u(t0 + s) =
sum U_k s**k follow, to the order K of the configuration, from

    W_{k+1} = U_k / (k + 1),
    U_{k+1} = (2 U_k + (W*W)_k / 2 + lam exp(4 t0) 4**k / (2 k!)) / (k + 1),

with (W*W)_k = sum_j W_j W_{k-j}.  Over the upper half of the
coefficients, the largest (max(|W_k|, |U_k|) / m)**(1/k), with
m = max(1, |w|, |u|) at t0, estimates the inverse radius of convergence
g, and the step is h = min(0.35 / g, 1, -t0): the last term kept is
about 0.35**K times m.  Measured against m rather than 1, a column that
blows up passes the guard in tens of steps, not hundreds.  The endpoint
pair
(w(1), w'(1)) is (w, u) at t = 0.  The origin is singular, so
integration starts from a small handoff radius r0 where the two-term
series

    w = a r**2 + c4 r**4,      c4 = (a**2 + lam) / 16

supplies the state; the series truncation enters only at O(r0**6).

Nothing here shares code with the polynomial solver: profiles are
recovered by trapezoidal quadrature of w / r over the trajectory, sampled
from each step's polynomial, and branch roots are re-derived from the
endpoint state by an Illinois solve (regula falsi with the retained end's
value halved; Dowell & Jarratt, BIT 11, 1971) inside the sign changes of
a scan.  Agreement with the iterative solver is therefore genuine
two-method validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "IvpOverflow",
    "IvpConfig",
    "BLOWUP_GUARD",
    "series_start",
    "ivp_integrate",
    "ivp_trajectory",
    "profile_from_trajectory",
    "oracle_branches",
]

BLOWUP_GUARD = 1e12

# bounds on the Taylor order: below 8 a step's truncation, about
# 0.35**K, exceeds 1e-4; the work per step grows as K**2
_MIN_ORDER = 8
_MAX_ORDER = 64
# each step goes this fraction of the estimated radius of convergence
_STEP_FRACTION = 0.35
# a column still short of r = 1 after this many steps counts as blown up;
# a column that reaches r = 1 takes 11 to 30 steps, one that passes the
# guard about 60
_STEP_BUDGET = 400
# geometric nodes of ivp_trajectory, from r0 to 1
_TRAJECTORY_NODES = 2001


class IvpOverflow(ArithmeticError):
    """Trajectory exceeded the blow-up guard before reaching r = 1.

    Expected for shooting parameters far from a genuine branch; reported so
    sweeps can skip the trajectory rather than abort.
    """


@dataclass(frozen=True)
class IvpConfig:
    """Integrator settings: series handoff radius and the order of the
    Taylor steps in t = ln r from ln r0 to 0."""

    r0: float = 1e-4
    order: int = 24

    def __post_init__(self):
        if not 0.0 < self.r0 < 1.0:
            raise ValueError("handoff radius must lie in (0, 1)")
        if (isinstance(self.order, bool) or not isinstance(self.order, int)
                or not _MIN_ORDER <= self.order <= _MAX_ORDER):
            raise ValueError(
                f"order must be an int in [{_MIN_ORDER}, {_MAX_ORDER}], "
                f"got {self.order!r}"
            )


def series_start(a, lam: float, r0: float):
    """Series state (w, w') at the handoff radius; ``a`` may be an array."""
    c4 = (a * a + lam) / 16.0
    return a * r0 * r0 + c4 * r0 ** 4, 2.0 * a * r0 + 4.0 * c4 * r0 ** 3


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


def _taylor(a_values, lam: float, cfg: IvpConfig, dense=None):
    """Endpoint states (w, u) at t = 0 for many shooting parameters at once,
    and the t each column reached.

    Each column steps on its own; a column reads NaN once |w| passes the
    blow-up guard, a value leaves the finite range or the step budget runs
    out.  The coefficients are stored one row per column and (W*W)_k is
    summed along the row, so a column reads the same bits whatever other
    columns share the call.  Given ``dense`` = (ts, out) for one column,
    with ts sorted from ln r0 to 0, each step also writes (w, u) at the
    nodes ts[j] it covers into out[:, j], the last node excepted.

    Raises ValueError for a rate that is not finite: its forcing is NaN
    from the first step, which would read as blow-up everywhere.
    """
    if not math.isfinite(lam):
        raise ValueError(f"the rate must be finite, got {lam!r}")
    order = cfg.order
    rates, halves, forcing, upper, powers = _constants(order)
    w, v = series_start(np.asarray(a_values, dtype=float).reshape(-1), lam,
                        cfg.r0)
    state = np.stack((w, cfg.r0 * v), axis=1)
    t = np.full(w.size, math.log(cfg.r0))
    live = np.arange(w.size)
    blown = np.zeros(w.size, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
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
            size = np.abs(c[:, :, order // 2:]).max(axis=1)
            size /= np.maximum(1.0, np.abs(c[:, :, 0]).max(axis=1))[:, None]
            g = np.max(size ** upper, axis=1)
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
            ok = (np.abs(new[:, 0]) <= BLOWUP_GUARD) & np.isfinite(new[:, 1])
            blown[live[~ok]] = True
            live = live[ok & (t1 < 0.0)]
    blown[live] = True
    state[blown] = np.nan
    return state[:, 0], state[:, 1], t


def _endpoint(a: float, lam: float, cfg: IvpConfig, dense=None):
    w, u, t = _taylor(a, lam, cfg, dense)
    if np.isnan(w[0]):
        raise IvpOverflow(f"|w| passed {BLOWUP_GUARD:g} or the step budget "
                          f"before r = 1, at r = {math.exp(t[0]):.6f}")
    return float(w[0]), float(u[0])


def ivp_integrate(a: float, lam: float, cfg: IvpConfig | None = None):
    """Integrate to r = 1; returns the endpoint pair (w(1), w'(1)).

    Raises :class:`IvpOverflow` if the trajectory blows up on the way,
    and ValueError for a rate that is not finite.
    """
    return _endpoint(a, lam, cfg or IvpConfig())


def ivp_trajectory(a: float, lam: float, cfg: IvpConfig | None = None):
    """Integrate to r = 1 sampling the state on the way.

    Returns arrays (r, w, w') on 2001 geometric nodes r = exp(t), from
    exactly r0 to exactly 1, read from each step's polynomial; the last
    node is :func:`ivp_integrate`'s endpoint.  Dense output feeds the
    quadrature-based profile recovery.
    """
    cfg = cfg or IvpConfig()
    ts = np.linspace(math.log(cfg.r0), 0.0, _TRAJECTORY_NODES)
    states = np.empty((2, _TRAJECTORY_NODES))
    states[:, -1] = _endpoint(a, lam, cfg, (ts, states))
    rs = np.exp(ts)
    rs[0] = cfg.r0
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


def _illinois(residual, lo, hi, f_lo, f_hi):
    """Roots of residual in the brackets [lo, hi], where f_lo and f_hi
    differ in sign, solved in lockstep.

    ``residual`` maps an array of points to their values; each iteration
    calls it once, on the points of the brackets still open.  Each bracket
    follows the scalar rule: regula falsi keeps the sign change bracketed;
    when the same end is kept twice in a row its value is halved (the
    Illinois rule), so both ends close in.  A point that falls outside the
    open bracket is replaced by the midpoint.  A bracket stops at an exact
    zero, at a width no more than ``_ROOT_TOL``, or when the midpoint
    rounds to an end, and yields its midpoint.
    """
    # the ends (lo, hi) and their values, one row each
    ends, vals = (np.stack([np.array(x, dtype=float, ndmin=1) for x in pair])
                  for pair in ((lo, hi), (f_lo, f_hi)))
    # the row of the end each bracket's last point replaced, -1 before any
    last = np.full(ends.shape[1], -1)
    live = np.flatnonzero(ends[1] - ends[0] > _ROOT_TOL)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while live.size:
            (a, b), (fa, fb) = ends[:, live], vals[:, live]
            x = b - fb * (b - a) / (fb - fa)
            inside = (a < x) & (x < b)
            mid = 0.5 * (a + b)
            x = np.where(inside, x, mid)
            go = inside | ((mid != a) & (mid != b))
            live, x = live[go], x[go]
            fx = np.asarray(residual(x), dtype=float)
            # an exact zero closes its bracket on the point
            zero = fx == 0.0
            ends[:, live[zero]] = x[zero]
            moved, x, fx = live[~zero], x[~zero], fx[~zero]
            # x replaces the end whose value has its sign, and the kept
            # end's value halves when the same end was replaced last
            row = ((fx < 0.0) == (vals[1, moved] < 0.0)).astype(int)
            vals[1 - row, moved] *= np.where(last[moved] == row, 0.5, 1.0)
            ends[row, moved], vals[row, moved] = x, fx
            last[moved] = row
            live = live[ends[1, live] - ends[0, live] > _ROOT_TOL]
    return 0.5 * (ends[0] + ends[1])


def oracle_branches(lam: float, bc, window=(-120.0, 20.0), *,
                    cfg: IvpConfig | None = None) -> list:
    """Roots of the boundary functional built from the integrator.

    Scans the window, skips blown-up stretches, and solves all sign-change
    brackets together to ``_ROOT_TOL`` in the shooting parameter.  An
    empty list mirrors branch non-existence above the critical rate; a
    rate that is not finite raises ValueError.
    """
    lo, hi = float(window[0]), float(window[1])
    # a width that overflows would fill the grid with inf and NaN
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ValueError(f"window must be finite with lo < hi, got {window!r}")
    cfg = cfg or IvpConfig()

    def residual(a):
        w, u, _ = _taylor(a, lam, cfg)
        return bc.residual(w, u)

    xs = np.linspace(lo, hi, _GRID_POINTS)
    fs = residual(xs)
    f_lo, f_hi = fs[:-1], fs[1:]
    both = np.isfinite(f_lo) & np.isfinite(f_hi)
    with np.errstate(over="ignore"):
        change = both & (f_lo != 0.0) & (f_hi != 0.0) & ~(f_lo * f_hi > 0.0)
    roots = xs[:-1][both & (f_lo == 0.0)].tolist()
    roots += _illinois(residual, xs[:-1][change], xs[1:][change],
                       f_lo[change], f_hi[change]).tolist()
    if fs[-1] == 0.0:
        roots.append(float(xs[-1]))
    return sorted(roots)
