"""The Runge-Kutta initial-value oracle and its cross-checks."""

import numpy as np
import pytest
import sympy

from epibvp import (
    BoundaryKind,
    IvpConfig,
    IvpOverflow,
    evaluate,
    find_branches,
    ivp_integrate,
    ivp_trajectory,
    oracle_branches,
    profile_from_trajectory,
    recover_phi,
    series_start,
    solve_profile,
    step_halving_order,
    RPoly,
)
from epibvp import oracle
from epibvp.oracle import _integrate_batch

from _util import lower_branch_root


# ---------------------------------------------------------------------------
# configuration and series handoff
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        IvpConfig(r0=0.0)
    with pytest.raises(ValueError):
        IvpConfig(r0=1.5)
    for steps in (0, 15, 10 ** 6 + 1, True, 2000.0, "2000", None):
        with pytest.raises(ValueError, match="steps"):
            IvpConfig(steps=steps)
    assert IvpConfig(steps=16).steps == 16
    assert IvpConfig(steps=10 ** 6).steps == 10 ** 6


def test_series_start_trivial():
    assert series_start(0.0, 0.0, 1e-4) == (0.0, 0.0)


def test_series_start_values():
    w, wp = series_start(1.0, 0.0, 0.01)
    assert w == pytest.approx(1e-4 + 6.25e-10, rel=1e-15)
    assert wp == pytest.approx(0.02 + 2.5e-7, rel=1e-15)


def test_series_coefficient_by_symbolic_substitution():
    # substituting w = a r^2 + c r^4 into the equation forces c = (a^2+lam)/16
    r, a, lam, c = sympy.symbols("r a lam c")
    w = a * r ** 2 + c * r ** 4
    defect = (
        r ** 2 * sympy.diff(w, r, 2)
        - r * sympy.diff(w, r)
        - w ** 2 / 2
        - lam * r ** 4 / 2
    )
    quartic_coeff = sympy.expand(defect).coeff(r, 4)
    solved = sympy.solve(sympy.Eq(quartic_coeff, 0), c)
    assert solved == [(a ** 2 + lam) / 16]


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_trivial_trajectory_stays_zero():
    w1, v1 = ivp_integrate(0.0, 0.0)
    assert w1 == 0.0
    assert v1 == 0.0


def test_endpoint_matches_trajectory():
    for cfg in (IvpConfig(r0=1e-3, steps=1000), IvpConfig()):
        w1, v1 = ivp_integrate(-0.5, 1.0, cfg)
        rs, ws, vs = ivp_trajectory(-0.5, 1.0, cfg)
        assert rs.size == ws.size == vs.size == cfg.steps + 1
        assert rs[0] == cfg.r0
        assert rs[-1] == 1.0
        assert np.all(np.diff(rs) > 0.0)
        # geometric nodes: equal steps in ln r
        assert np.allclose(np.diff(np.log(rs)), -np.log(cfg.r0) / cfg.steps,
                           rtol=1e-9, atol=0.0)
        assert ws[-1] == w1
        assert vs[-1] == v1


def test_blow_up_raises():
    with pytest.raises(IvpOverflow):
        ivp_integrate(50.0, 0.0)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_rate_rejected(lam):
    # a NaN forcing reads as blow-up in every column, which oracle_branches
    # would report as an empty list, the non-existence signal
    message = f"the rate must be finite, got {lam!r}"
    with pytest.raises(ValueError, match=message):
        oracle_branches(lam, BoundaryKind.NAVIER_ONE)
    with pytest.raises(ValueError, match=message):
        ivp_integrate(-10.0, lam)
    with pytest.raises(ValueError, match=message):
        ivp_trajectory(-10.0, lam)


# At a = -113.17 and -72.22 a start formed as a * r0**2 instead of
# (a * r0) * r0 ends a few ulps off; a = 50 blows up
_SHORT = (IvpConfig(r0=1e-2, steps=1600),
          np.concatenate([np.linspace(-120.0, 20.0, 29),
                          [-113.17, -72.22, 50.0]]),
          1)


@pytest.mark.parametrize("lam,cfg,a_values,blown_up", [
    pytest.param(-40.0, *_SHORT, id="-40.0"),
    pytest.param(0.0, *_SHORT, id="0.0"),
    pytest.param(15.0, *_SHORT, id="15.0"),
    # the oracle's own scan: default config and 320 columns; on the wide
    # window a run of columns blows up while the rest integrate on
    pytest.param(15.0, IvpConfig(), np.linspace(-120.0, 20.0, 320), 0,
                 id="scan-15.0"),
    pytest.param(-130.0, IvpConfig(), np.linspace(-300.0, 300.0, 320), 139,
                 id="wide-scan--130.0"),
])
def test_batch_matches_scalar_integration_bit_for_bit(lam, cfg, a_values,
                                                      blown_up):
    # the scan and the bisection of oracle_branches must read the same B:
    # every column equals the scalar march bit for bit, and exactly the
    # columns whose march overflows read NaN
    w, v = _integrate_batch(a_values, lam, cfg)
    overflowed = np.zeros(a_values.size, dtype=bool)
    for i, a in enumerate(a_values):
        try:
            expected = ivp_integrate(float(a), lam, cfg)
        except IvpOverflow:
            overflowed[i] = True
            continue
        assert np.array([w[i], v[i]]).tobytes() == np.array(expected).tobytes()
    assert overflowed.sum() == blown_up
    assert np.array_equal(np.isnan(w), overflowed)
    assert np.array_equal(np.isnan(v), overflowed)


def _reference_march(a, lam, cfg):
    """Reference march: one call of a float RK4 step per step, returning
    a tuple.  Kept frozen; the oracle's march must equal it bit for bit."""

    def rk4_step(w, u, h, f0, fm, f1):
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

    h, f = oracle._grid(lam, cfg)
    w, v = series_start(a, lam, cfg.r0)
    u = cfg.r0 * v
    for i in range(1, cfg.steps + 1):
        w, u = rk4_step(w, u, h, f[2 * i - 2], f[2 * i - 1], f[2 * i])
        if not abs(w) <= oracle.BLOWUP_GUARD:
            r = cfg.r0 ** (1.0 - i / cfg.steps)
            raise IvpOverflow(
                f"|w| exceeded {oracle.BLOWUP_GUARD:g} at r = {r:.6f}")
    return w, u


@pytest.mark.parametrize("a,lam", [
    (-17.2, 15.0), (-87.3, -25.0), (-9.4, 0.0), (3.6, 1.0), (-113.17, -130.0),
])
def test_march_matches_frozen_reference_bit_for_bit(a, lam):
    for cfg in (IvpConfig(), IvpConfig(r0=1e-2, steps=1600)):
        expected = _reference_march(a, lam, cfg)
        assert (np.array(oracle._march(a, lam, cfg)).tobytes()
                == np.array(expected).tobytes())


def test_march_overflow_message_matches_frozen_reference():
    with pytest.raises(IvpOverflow) as expected:
        _reference_march(50.0, 0.0, IvpConfig())
    with pytest.raises(IvpOverflow) as raised:
        oracle._march(50.0, 0.0, IvpConfig())
    assert str(raised.value) == str(expected.value)


def test_fourth_order_convergence():
    root = lower_branch_root(1.0, BoundaryKind.NAVIER_ONE)
    order, d1, d2 = step_halving_order(root.a_star, 1.0,
                                       IvpConfig(r0=1e-2, steps=1000))
    assert order >= 3.8
    assert d1 <= 16.0 * d2 * 1.2


def test_series_start_insensitivity():
    root = lower_branch_root(1.0, BoundaryKind.DIRICHLET)
    endpoints = [
        ivp_integrate(root.a_star, 1.0, IvpConfig(r0=r0, steps=4000))[0]
        for r0 in (1e-5, 1e-4, 1e-3)
    ]
    assert max(endpoints) - min(endpoints) <= 1e-7


def test_vim_root_nearly_closes_the_dirichlet_condition():
    root = lower_branch_root(1.0, BoundaryKind.DIRICHLET)
    w1, _ = ivp_integrate(root.a_star, 1.0)
    assert abs(w1) <= 5e-3


# ---------------------------------------------------------------------------
# profile recovery by quadrature
# ---------------------------------------------------------------------------

def test_profile_quadrature_against_exact_polynomial():
    # feed the trapezoid recovery a known polynomial trajectory
    w = RPoly([0.0, 0.0, -0.5, 0.0, 0.25])
    rs = np.linspace(1e-4, 1.0, 2001)
    ws = evaluate(w, rs)
    phi_exact = evaluate(recover_phi(w), rs)
    phi_trap = profile_from_trajectory(rs, ws)
    assert phi_trap[-1] == 0.0
    assert np.max(np.abs(phi_trap - phi_exact)) <= 1e-6


# ---------------------------------------------------------------------------
# oracle shooting
# ---------------------------------------------------------------------------

def test_oracle_branches_navier_one_zero_rate():
    roots = oracle_branches(0.0, BoundaryKind.NAVIER_ONE)
    assert len(roots) == 2
    assert min(abs(r) for r in roots) <= 1e-9
    nontrivial = min(roots)
    vim_roots = find_branches(0.0, BoundaryKind.NAVIER_ONE)
    vim_upper = min(r.a_star for r in vim_roots)
    assert abs(nontrivial - vim_upper) <= 5e-2


def test_oracle_branches_empty_above_critical():
    assert oracle_branches(40.0, BoundaryKind.NAVIER_ONE) == []


def test_both_methods_agree_on_nonexistence_past_the_fold():
    # one and a half times the critical rate for each boundary kind
    cfg = IvpConfig(steps=1250)
    cases = [
        (BoundaryKind.NAVIER_ONE, 47.91),
        (BoundaryKind.NAVIER_TWO, 17.01),
        (BoundaryKind.DIRICHLET, 253.5),
    ]
    for bc, lam in cases:
        assert find_branches(lam, bc) == []
        assert oracle_branches(lam, bc, cfg=cfg) == []


def test_oracle_cross_check_dirichlet():
    lam = 1.0
    vim_roots = find_branches(lam, BoundaryKind.DIRICHLET)
    ivp_roots = oracle_branches(lam, BoundaryKind.DIRICHLET)
    assert len(vim_roots) == len(ivp_roots) == 2
    for root in vim_roots:
        nearest = min(ivp_roots, key=lambda x: abs(x - root.a_star))
        assert abs(nearest - root.a_star) <= 5e-2


def test_profiles_agree_between_methods():
    lam = 1.0
    bc = BoundaryKind.NAVIER_TWO
    for root in find_branches(lam, bc):
        profile = solve_profile(root.a_star, lam, bc)
        rs, ws, _ = ivp_trajectory(root.a_star, lam)
        phi_ivp = profile_from_trajectory(rs, ws)
        sample = slice(0, rs.size, 50)
        gap = np.max(np.abs(
            evaluate(profile.phi, rs[sample]) - phi_ivp[sample]))
        assert gap <= 5e-2


@pytest.mark.filterwarnings("error")
def test_oracle_window_validation():
    with pytest.raises(ValueError):
        oracle_branches(0.0, BoundaryKind.NAVIER_ONE, window=(3.0, 3.0))
    # the last window's width overflows: linspace would fill the grid with
    # inf and NaN, and the scan would report no branches
    for window in ((-np.inf, 0.0), (0.0, np.inf), (np.nan, 0.0),
                   (-1e308, 1e308)):
        with pytest.raises(ValueError, match="window must be finite"):
            oracle_branches(0.0, BoundaryKind.NAVIER_ONE, window=window)


# oracle_branches roots on the default window, in hex: a drift of one ulp
# in the integrator or the root solve shows here first
_HEX_ROOTS = {
    (BoundaryKind.DIRICHLET, -25.0):
        ("-0x1.5d761eb39bcc6p+6", "0x1.7de6a3ea1cd80p+0"),
    (BoundaryKind.DIRICHLET, 30.0):
        ("-0x1.2271b03fc3c63p+6", "-0x1.ff31488a05096p+0"),
    (BoundaryKind.NAVIER_ONE, -60.0):
        ("-0x1.2228c87f9898cp+5", "0x1.529f115c61e59p+2"),
    (BoundaryKind.NAVIER_ONE, 15.0):
        ("-0x1.13e6910f66746p+4", "-0x1.1c634b1a22192p+1"),
    (BoundaryKind.NAVIER_TWO, -100.0):
        ("-0x1.8ede2ebbda391p+4", "0x1.115527b0d3eb6p+3"),
    (BoundaryKind.NAVIER_TWO, 8.0):
        ("-0x1.c2e1b322fce24p+2", "-0x1.fac086155b012p+0"),
}


@pytest.mark.parametrize("bc,lam", list(_HEX_ROOTS))
def test_oracle_roots_pinned_bit_for_bit(bc, lam):
    roots = oracle_branches(lam, bc)
    assert tuple(float(x).hex() for x in roots) == _HEX_ROOTS[bc, lam]


def test_trajectory_pinned_bit_for_bit():
    a = float.fromhex("-0x1.13e6910f66746p+4")  # navier1 lower root at 15
    rs, ws, vs = ivp_trajectory(a, 15.0)
    assert float(ws[-1]).hex() == "-0x1.89140966d5d62p+2"
    assert float(vs[-1]).hex() == "-0x1.0d80000000000p-47"
    assert float(ws[1000]).hex() == "-0x1.c3fc053a905c1p-10"
    assert float(vs[1000]).hex() == "-0x1.6112a84b3a6fap-2"


# roots from a second integrator: RK4 on 10 000 uniform steps in r from
# r0 = 1e-4, bisected to 1e-10 in the same scan brackets
_PINNED_ROOTS = {
    (BoundaryKind.NAVIER_ONE, 15.0): (-17.243790661658494, -2.221780190697567),
    (BoundaryKind.DIRICHLET, -25.0): (-87.3653512033174, 1.4918005402049608),
    (BoundaryKind.NAVIER_TWO, 0.0): (-9.400751295409728, 3.651413251473236e-12),
}


def _bisection_roots(lam, bc):
    """Reference: plain bisection to 1e-12 in each sign change of the
    oracle's 320-point scan of the default window, on the same integrator."""
    xs = np.linspace(-120.0, 20.0, 320)
    fs = bc.residual(*_integrate_batch(xs, lam, IvpConfig()))
    roots = []
    for lo, hi, f_lo, f_hi in zip(xs[:-1], xs[1:], fs[:-1], fs[1:]):
        if not (np.isfinite(f_lo) and np.isfinite(f_hi)):
            continue
        if f_lo == 0.0:
            roots.append(float(lo))
            continue
        if f_hi == 0.0 or f_lo * f_hi > 0.0:
            continue
        lo, hi = float(lo), float(hi)
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            f_mid = bc.residual(*ivp_integrate(mid, lam))
            if f_mid == 0.0:
                lo = hi = mid
            elif (f_mid < 0.0) == (f_lo < 0.0):
                lo = mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return roots


@pytest.mark.parametrize("bc,lam", list(_PINNED_ROOTS))
def test_illinois_roots(bc, lam, monkeypatch):
    calls = []
    integrate = oracle.ivp_integrate

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(oracle, "ivp_integrate", counted)
    roots = oracle_branches(lam, bc)
    monkeypatch.undo()
    assert len(roots) == len(_PINNED_ROOTS[bc, lam])
    # superlinear: plain bisection to the same tolerance needs about 33
    assert len(calls) <= 12 * len(roots)
    for root, pinned in zip(roots, _PINNED_ROOTS[bc, lam]):
        assert abs(root - pinned) <= 1e-6
    reference = _bisection_roots(lam, bc)
    assert len(reference) == len(roots)
    for root, expected in zip(roots, reference):
        assert abs(root - expected) <= 1e-9


def test_illinois_rule_halves_the_kept_end():
    # plain regula falsi keeps the left end of e**x - 2 on [0, 4] for
    # about 250 evaluations; halving the kept end's value ends it in 11
    calls = []

    def f(x):
        calls.append(x)
        return np.exp(x) - 2.0

    root = oracle._illinois(f, 0.0, 4.0, -1.0, np.exp(4.0) - 2.0)
    assert len(calls) <= 20
    assert abs(root - np.log(2.0)) <= 1e-10
