"""Independent cross-check: shoot the equation as an initial value problem.

In the logarithmic radius t = ln r, with u = r w', the equation
r**2 w'' - r w' = w**2 / 2 + lam r**4 / 2 reads

    w_t = u,      u_t = 2 u + w**2 / 2 + lam exp(4 t) / 2,

which is regular on [ln r0, 0]: the singular Euler operator becomes one
with constant coefficients.  It is integrated by classic fourth-order
Runge-Kutta on a fixed number of uniform steps in t, and the endpoint
pair (w(1), w'(1)) is (w, u) at t = 0.  The origin is singular, so
integration starts from a small handoff radius r0 where the two-term
series

    w = a r**2 + c4 r**4,      c4 = (a**2 + lam) / 16

supplies the state; the series truncation enters only at O(r0**6).

Nothing here shares code with the polynomial solver: profiles are
recovered by trapezoidal quadrature of w / r over the stored trajectory,
and branch roots are re-derived from the endpoint state by an Illinois
solve (regula falsi with the retained end's value halved; Dowell &
Jarratt, BIT 11, 1971) inside the sign changes of a scan.  Agreement
with the iterative solver is therefore genuine two-method validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "step_halving_order",
]

BLOWUP_GUARD = 1e12

# bounds on the step count: fewer steps resolve nothing, and at the upper
# bound one oracle_branches call already takes about a minute
_MIN_STEPS = 16
_MAX_STEPS = 10 ** 6


class IvpOverflow(ArithmeticError):
    """Trajectory exceeded the blow-up guard before reaching r = 1.

    Expected for shooting parameters far from a genuine branch; reported so
    sweeps can skip the trajectory rather than abort.
    """


@dataclass(frozen=True)
class IvpConfig:
    """Integrator settings: series handoff radius and the number of uniform
    steps in t = ln r from ln r0 to 0."""

    r0: float = 1e-4
    steps: int = 2000

    def __post_init__(self):
        if not 0.0 < self.r0 < 1.0:
            raise ValueError("handoff radius must lie in (0, 1)")
        if (isinstance(self.steps, bool) or not isinstance(self.steps, int)
                or not _MIN_STEPS <= self.steps <= _MAX_STEPS):
            raise ValueError(
                f"steps must be an int in [{_MIN_STEPS}, {_MAX_STEPS}], "
                f"got {self.steps!r}"
            )


def series_start(a, lam: float, r0: float):
    """Series state (w, w') at the handoff radius; ``a`` may be an array."""
    c4 = (a * a + lam) / 16.0
    return a * r0 * r0 + c4 * r0 ** 4, 2.0 * a * r0 + 4.0 * c4 * r0 ** 3


def _grid(lam: float, cfg: IvpConfig):
    """Step length in t, and the forcing lam exp(4 t) / 2 at the 2 steps + 1
    stage points ln r0, ln r0 + h/2, ..., 0 as a list of floats.

    Raises ValueError for a rate that is not finite: its forcing is NaN at
    every stage, which would read as blow-up everywhere.
    """
    if not math.isfinite(lam):
        raise ValueError(f"the rate must be finite, got {lam!r}")
    t0 = math.log(cfg.r0)
    stages = np.linspace(t0, 0.0, 2 * cfg.steps + 1)
    return -t0 / cfg.steps, (0.5 * lam * np.exp(4.0 * stages)).tolist()


def _march(a: float, lam: float, cfg: IvpConfig, nodes=None, grid=None):
    """Integrate one trajectory to r = 1 by classic RK4; returns the
    endpoint (w, w').

    Raises :class:`IvpOverflow` when |w| passes the blow-up guard.  Given
    ``nodes``, two preallocated arrays (w, u) of one more entry than there
    are steps, it also stores the state at every node.  ``grid`` is
    :func:`_grid` of (lam, cfg), built here when not given.  The step is
    written out on floats; :func:`_integrate_batch` does the same
    operations in the same order on arrays, so both read the same bits.
    """
    h, f = _grid(lam, cfg) if grid is None else grid
    half = 0.5 * h
    w, v = series_start(a, lam, cfg.r0)
    u = cfg.r0 * v
    if nodes is not None:
        ws, us = nodes
        ws[0], us[0] = w, u
    for i, f0, fm, f1 in zip(range(1, cfg.steps + 1),
                              f[0:-1:2], f[1::2], f[2::2]):
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
        w = w + h * (u + 2.0 * u2 + 2.0 * u3 + u4) / 6.0
        u = u + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if not abs(w) <= BLOWUP_GUARD:
            r = cfg.r0 ** (1.0 - i / cfg.steps)
            raise IvpOverflow(f"|w| exceeded {BLOWUP_GUARD:g} at r = {r:.6f}")
        if nodes is not None:
            ws[i], us[i] = w, u
    return w, u


def ivp_integrate(a: float, lam: float, cfg: IvpConfig | None = None):
    """Integrate to r = 1; returns the endpoint pair (w(1), w'(1)).

    Raises :class:`IvpOverflow` if |w| passes the blow-up guard on the way,
    and ValueError for a rate that is not finite.
    """
    return _march(a, lam, cfg or IvpConfig())


def ivp_trajectory(a: float, lam: float, cfg: IvpConfig | None = None):
    """Integrate to r = 1 storing the state at every node.

    Returns arrays (r, w, w') on the geometric nodes r = exp(t), from
    exactly r0 to exactly 1; dense output feeds the quadrature-based
    profile recovery.
    """
    cfg = cfg or IvpConfig()
    ws, us = np.empty(cfg.steps + 1), np.empty(cfg.steps + 1)
    _march(a, lam, cfg, (ws, us))
    rs = np.exp(np.linspace(math.log(cfg.r0), 0.0, cfg.steps + 1))
    rs[0] = cfg.r0
    return rs, ws, us / rs


def profile_from_trajectory(rs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Recover the height profile on the trajectory nodes.

    phi(r) = -integral of w/t from r to 1, by composite trapezoid; this
    deliberately avoids the polynomial recovery it cross-checks.
    """
    integrand = ws / rs
    segments = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(rs)
    tail = np.concatenate([np.cumsum(segments[::-1])[::-1], [0.0]])
    return -tail


def _integrate_batch(a_values: np.ndarray, lam: float, cfg: IvpConfig,
                     grid=None):
    """Endpoint states for many shooting parameters at once.

    Columns whose trajectory blows up (or leaves the finite range) are
    reported as NaN instead of raising.  Columns are independent, so a
    blown-up column integrates on and is masked once at the end: the
    running peak of |w| (NaN once w is) tells which.

    Each step does :func:`_march`'s floating-point operations in the same
    order, as ``out=`` calls into one buffer of shape (4 stages, 3, ...):
    stage j = 1..4 holds the rows (w_j, u_j, k_j), and stage 1's (w, u) is
    the state, so the stage update (w, u) + c (u_j, k_j) is one multiply
    and one add on stacked rows.  Every view is built before the loop:
    per-call dispatch, not arithmetic, dominates at a few hundred columns.
    ``grid`` is as for :func:`_march`.
    """
    h, f = _grid(lam, cfg) if grid is None else grid
    half = 0.5 * h
    w0, v0 = series_start(np.asarray(a_values, dtype=float), lam, cfg.r0)
    stages = np.empty((4, 3) + w0.shape)
    stages[0, 0] = w0
    np.multiply(cfg.r0, v0, out=stages[0, 1])
    w1, w2, w3, w4 = stages[:, 0]
    u1, u2, u3, u4 = stages[:, 1]
    k1, k2, k3, k4 = stages[:, 2]
    rates1, rates2, rates3, rates4 = stages[:, 1:]
    state, start2, start3, start4 = stages[:, :2]
    middle = stages[1:3, 1:]
    doubled = np.empty((2, 2) + w0.shape)
    doubled2, doubled3 = doubled
    total = np.empty((2,) + w0.shape)
    # one call forms (0.5 w_j, 2 u_j) of a stage; the factors fill whole
    # rows, as a broadcast column costs more than the call it saves
    factors = np.empty((2,) + w0.shape)
    factors[0], factors[1] = 0.5, 2.0
    pair = np.empty((2,) + w0.shape)
    half_w, twice_u = pair
    scratch = np.empty_like(w0)
    peak = np.zeros_like(w0)
    mul, add = np.multiply, np.add
    with np.errstate(over="ignore", invalid="ignore"):
        for f0, fm, f1 in zip(f[0:-1:2], f[1::2], f[2::2]):
            # k_j = 2 u_j + 0.5 w_j w_j + forcing, and stage j + 1 starts
            # at (w, u) + c (u_j, k_j)
            mul(state, factors, out=pair)
            mul(half_w, w1, out=k1)
            add(twice_u, k1, out=k1)
            add(k1, f0, out=k1)
            mul(rates1, half, out=start2)
            add(state, start2, out=start2)
            mul(start2, factors, out=pair)
            mul(half_w, w2, out=k2)
            add(twice_u, k2, out=k2)
            add(k2, fm, out=k2)
            mul(rates2, half, out=start3)
            add(state, start3, out=start3)
            mul(start3, factors, out=pair)
            mul(half_w, w3, out=k3)
            add(twice_u, k3, out=k3)
            add(k3, fm, out=k3)
            mul(rates3, h, out=start4)
            add(state, start4, out=start4)
            mul(start4, factors, out=pair)
            mul(half_w, w4, out=k4)
            add(twice_u, k4, out=k4)
            add(k4, f1, out=k4)
            # (w, u) += h ((u, k1) + 2 (u2, k2) + 2 (u3, k3) + (u4, k4)) / 6
            mul(middle, 2.0, out=doubled)
            add(rates1, doubled2, out=total)
            add(total, doubled3, out=total)
            add(total, rates4, out=total)
            mul(total, h, out=total)
            np.divide(total, 6.0, out=total)
            add(state, total, out=state)
            np.abs(w1, out=scratch)
            np.maximum(peak, scratch, out=peak)
    bad = ~(peak <= BLOWUP_GUARD)
    return np.where(bad, np.nan, w1), np.where(bad, np.nan, u1)


# scan points and root tolerance in the shooting parameter
_GRID_POINTS = 320
_ROOT_TOL = 1e-10


def _illinois(residual, lo: float, hi: float, f_lo: float, f_hi: float):
    """Root of residual in [lo, hi], where f_lo and f_hi differ in sign.

    Regula falsi keeps the sign change bracketed; when the same end is
    kept twice in a row its value is halved (the Illinois rule), so both
    ends close in.  A point that falls outside the open bracket is
    replaced by the midpoint.  Stops at an exact zero, at a bracket no
    wider than ``_ROOT_TOL``, or when the midpoint rounds to an end, and
    returns the bracket's midpoint.
    """
    side = 0
    while hi - lo > _ROOT_TOL:
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if x == lo or x == hi:
                break
        f_x = residual(x)
        if f_x == 0.0:
            return x
        if (f_x < 0.0) == (f_hi < 0.0):
            hi, f_hi = x, f_x
            if side == 1:
                f_lo *= 0.5
            side = 1
        else:
            lo, f_lo = x, f_x
            if side == -1:
                f_hi *= 0.5
            side = -1
    return 0.5 * (lo + hi)


def oracle_branches(lam: float, bc, window=(-120.0, 20.0), *,
                    cfg: IvpConfig | None = None) -> list:
    """Roots of the boundary functional built from the integrator.

    Scans the window, skips blown-up stretches, and solves each
    sign-change bracket to ``_ROOT_TOL`` in the shooting parameter.  An
    empty list mirrors branch non-existence above the critical rate; a
    rate that is not finite raises ValueError.
    """
    lo, hi = float(window[0]), float(window[1])
    # a width that overflows would fill the grid with inf and NaN
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ValueError(f"window must be finite with lo < hi, got {window!r}")
    cfg = cfg or IvpConfig()
    # the scan and every Illinois march share one forcing grid
    grid = _grid(lam, cfg)
    xs = np.linspace(lo, hi, _GRID_POINTS)
    w1, v1 = _integrate_batch(xs, lam, cfg, grid)
    finite = np.isfinite(w1) & np.isfinite(v1)
    with np.errstate(invalid="ignore"):
        fs = np.where(finite, bc.residual(w1, v1), np.nan)

    def residual(a: float) -> float:
        w, v = _march(a, lam, cfg, grid=grid)
        return bc.residual(w, v)

    roots = []
    for i in range(_GRID_POINTS - 1):
        f_lo, f_hi = float(fs[i]), float(fs[i + 1])
        if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
            continue
        if f_lo == 0.0:
            roots.append(float(xs[i]))
            continue
        if f_hi == 0.0 or f_lo * f_hi > 0.0:
            continue
        roots.append(_illinois(residual, float(xs[i]), float(xs[i + 1]),
                               f_lo, f_hi))
    if fs.size and fs[-1] == 0.0:
        roots.append(float(xs[-1]))
    return sorted(roots)


def step_halving_order(a: float, lam: float, cfg: IvpConfig | None = None):
    """Empirical convergence order from endpoints at n, 2n and 4n steps.

    Returns (order, coarse difference, fine difference); for a fourth-order
    scheme the coarse difference is about sixteen times the fine one.
    """
    cfg = cfg or IvpConfig(r0=1e-2, steps=1000)
    w_h = ivp_integrate(a, lam, cfg)[0]
    w_h2 = ivp_integrate(a, lam, IvpConfig(cfg.r0, 2 * cfg.steps))[0]
    w_h4 = ivp_integrate(a, lam, IvpConfig(cfg.r0, 4 * cfg.steps))[0]
    d1 = abs(w_h - w_h2)
    d2 = abs(w_h2 - w_h4)
    order = math.log2(d1 / d2) if d2 > 0.0 else math.inf
    return order, d1, d2
