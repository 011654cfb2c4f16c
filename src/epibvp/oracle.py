"""Independent cross-check: shoot the equation as an initial value problem.

The equation is integrated in first-order form

    w' = v,      v' = v / r + w**2 / (2 r**2) + lam r**2 / 2

by classic fourth-order Runge-Kutta at a fixed step.  The origin is
singular, so integration starts from a small handoff radius r0 where the
two-term series

    w = a r**2 + c4 r**4,      c4 = (a**2 + lam) / 16

supplies the state; the series truncation enters only at O(r0**6).

Nothing here shares code with the polynomial solver: profiles are
recovered by trapezoidal quadrature of w / r over the stored trajectory,
and branch roots are re-derived from the endpoint state.  Agreement with
the iterative solver is therefore genuine two-method validation.
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


class IvpOverflow(ArithmeticError):
    """Trajectory exceeded the blow-up guard before reaching r = 1.

    Expected for shooting parameters far from a genuine branch; reported so
    sweeps can skip the trajectory rather than abort.
    """


@dataclass(frozen=True)
class IvpConfig:
    """Integrator settings: series handoff radius and step size."""

    r0: float = 1e-4
    h: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.r0 < 1.0:
            raise ValueError("handoff radius must lie in (0, 1)")
        if not 0.0 < self.h <= 1e-3:
            raise ValueError("step size must lie in (0, 1e-3]")


def series_start(a, lam: float, r0: float):
    """Series state (w, w') at the handoff radius; ``a`` may be an array."""
    c4 = (a * a + lam) / 16.0
    return a * r0 * r0 + c4 * r0 ** 4, 2.0 * a * r0 + 4.0 * c4 * r0 ** 3


def _steps(cfg: IvpConfig):
    n = max(1, int(round((1.0 - cfg.r0) / cfg.h)))
    return n, (1.0 - cfg.r0) / n


def _rk4_step(w, v, r, h, lam2):
    """One classic RK4 step from r to r + h; w and v may be floats or arrays.

    Returns the new state and the new radius.
    """
    half = 0.5 * h
    rm = r + half
    re = r + h
    k1v = v / r + w * w / (2.0 * r * r) + lam2 * r * r
    w2 = w + half * v
    v2 = v + half * k1v
    k2v = v2 / rm + w2 * w2 / (2.0 * rm * rm) + lam2 * rm * rm
    w3 = w + half * v2
    v3 = v + half * k2v
    k3v = v3 / rm + w3 * w3 / (2.0 * rm * rm) + lam2 * rm * rm
    w4 = w + h * v3
    v4 = v + h * k3v
    k4v = v4 / re + w4 * w4 / (2.0 * re * re) + lam2 * re * re
    return (w + h * (v + 2.0 * v2 + 2.0 * v3 + v4) / 6.0,
            v + h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0,
            re)


def _march(a: float, lam: float, cfg: IvpConfig, nodes=None):
    """Integrate one trajectory to r = 1; returns the endpoint (w, w').

    Raises :class:`IvpOverflow` when |w| passes the blow-up guard.  Given
    ``nodes``, three preallocated arrays (r, w, w') of one more entry than
    there are steps, it also stores the state at every node.
    """
    n, h = _steps(cfg)
    w, v = series_start(a, lam, cfg.r0)
    r = cfg.r0
    lam2 = 0.5 * lam
    if nodes is not None:
        rs, ws, vs = nodes
        rs[0], ws[0], vs[0] = r, w, v
    for i in range(1, n + 1):
        w, v, r = _rk4_step(w, v, r, h, lam2)
        if not abs(w) <= BLOWUP_GUARD:
            raise IvpOverflow(f"|w| exceeded {BLOWUP_GUARD:g} at r = {r:.6f}")
        if nodes is not None:
            rs[i], ws[i], vs[i] = r, w, v
    return w, v


def ivp_integrate(a: float, lam: float, cfg: IvpConfig | None = None):
    """Integrate to r = 1; returns the endpoint pair (w(1), w'(1)).

    Raises :class:`IvpOverflow` if |w| passes the blow-up guard on the way.
    """
    return _march(a, lam, cfg or IvpConfig())


def ivp_trajectory(a: float, lam: float, cfg: IvpConfig | None = None):
    """Integrate to r = 1 storing the state at every node.

    Returns arrays (r, w, w'); dense output feeds the quadrature-based
    profile recovery.
    """
    cfg = cfg or IvpConfig()
    nodes = tuple(np.empty(_steps(cfg)[0] + 1) for _ in range(3))
    _march(a, lam, cfg, nodes)
    return nodes


def profile_from_trajectory(rs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Recover the height profile on the trajectory nodes.

    phi(r) = -integral of w/t from r to 1, by composite trapezoid; this
    deliberately avoids the polynomial recovery it cross-checks.
    """
    integrand = ws / rs
    segments = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(rs)
    tail = np.concatenate([np.cumsum(segments[::-1])[::-1], [0.0]])
    return -tail


def _integrate_batch(a_values: np.ndarray, lam: float, cfg: IvpConfig):
    """Endpoint states for many shooting parameters at once.

    Columns whose trajectory blows up (or leaves the finite range) are
    reported as NaN instead of raising.
    """
    n, h = _steps(cfg)
    w, v = series_start(np.asarray(a_values, dtype=float), lam, cfg.r0)
    r = cfg.r0
    lam2 = 0.5 * lam
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n):
            w, v, r = _rk4_step(w, v, r, h, lam2)
            bad = ~(np.abs(w) <= BLOWUP_GUARD)
            if bad.any():
                w = np.where(bad, np.nan, w)
                v = np.where(bad, np.nan, v)
    return w, v


# scan points and bisection tolerance in the shooting parameter
_GRID_POINTS = 320
_ROOT_TOL = 1e-10


def oracle_branches(lam: float, bc, window=(-120.0, 20.0), *,
                    cfg: IvpConfig | None = None) -> list:
    """Roots of the boundary functional built from the integrator.

    Scans the window, skips blown-up stretches, and bisects each
    sign-change bracket to ``_ROOT_TOL`` in the shooting parameter.  An
    empty list mirrors branch non-existence above the critical rate.
    """
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"window must be finite with lo < hi, got {window!r}")
    cfg = cfg or IvpConfig()
    xs = np.linspace(lo, hi, _GRID_POINTS)
    w1, v1 = _integrate_batch(xs, lam, cfg)
    fs = np.array([
        bc.residual(wi, vi) if math.isfinite(wi) and math.isfinite(vi)
        else np.nan
        for wi, vi in zip(w1, v1)
    ])

    def residual(a: float) -> float:
        w, v = ivp_integrate(a, lam, cfg)
        return bc.residual(w, v)

    roots = []
    for i in range(_GRID_POINTS - 1):
        f_lo, f_hi = fs[i], fs[i + 1]
        if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
            continue
        if f_lo == 0.0:
            roots.append(float(xs[i]))
            continue
        if f_hi == 0.0 or f_lo * f_hi > 0.0:
            continue
        b_lo, b_hi = float(xs[i]), float(xs[i + 1])
        g_lo = f_lo
        while b_hi - b_lo > _ROOT_TOL:
            mid = 0.5 * (b_lo + b_hi)
            if mid == b_lo or mid == b_hi:
                break
            f_mid = residual(mid)
            if f_mid == 0.0:
                b_lo = b_hi = mid
                break
            if g_lo * f_mid < 0.0:
                b_hi = mid
            else:
                b_lo, g_lo = mid, f_mid
        roots.append(0.5 * (b_lo + b_hi))
    if fs.size and fs[-1] == 0.0:
        roots.append(float(xs[-1]))
    return sorted(roots)


def step_halving_order(a: float, lam: float, cfg: IvpConfig | None = None):
    """Empirical convergence order from endpoints at h, h/2 and h/4.

    Returns (order, coarse difference, fine difference); for a fourth-order
    scheme the coarse difference is about sixteen times the fine one.
    """
    cfg = cfg or IvpConfig(r0=1e-2, h=1e-3)
    w_h = ivp_integrate(a, lam, cfg)[0]
    w_h2 = ivp_integrate(a, lam, IvpConfig(cfg.r0, cfg.h / 2))[0]
    w_h4 = ivp_integrate(a, lam, IvpConfig(cfg.r0, cfg.h / 4))[0]
    d1 = abs(w_h - w_h2)
    d2 = abs(w_h2 - w_h4)
    order = math.log2(d1 / d2) if d2 > 0.0 else math.inf
    return order, d1, d2
