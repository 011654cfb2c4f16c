"""The Taylor-series initial-value oracle and its cross-checks."""

from fractions import Fraction

import numpy as np
import pytest
import sympy
from numpy._core._multiarray_umath import __cpu_features__

from epibvp import (
    BoundaryKind,
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
    RPoly,
)
from epibvp import oracle
from epibvp.oracle import _taylor

from _util import frozen_rk4, frozen_rk4_endpoints, lower_branch_root


# ---------------------------------------------------------------------------
# series handoff
# ---------------------------------------------------------------------------

def test_series_start_trivial():
    # a zero series hands off at r = 1
    assert series_start(0.0, 0.0) == (1.0, 0.0, 0.0)


def test_handoff_radius_from_the_root_test(oracle_setting):
    # the root test sets the radius, between the floor r0, which holds at
    # huge |a|, and the end r = 1 of the interval
    r, w, wp = series_start(np.array([[-1500.0, -17.24], [1e12, 0.5]]),
                            -2000.0)
    assert r.shape == w.shape == wp.shape == (2, 2)
    assert np.all((1e-4 <= r) & (r <= 1.0))
    assert 0.0805 <= r[0, 0] <= 0.0806
    assert 0.5 <= r[0, 1] <= 0.52 and 0.5 <= r[1, 1] <= 0.52
    assert r[1, 0] == 1e-4
    oracle_setting(r0=1e-8)
    assert 1e-8 < series_start(1e12, -2000.0)[0] < 1e-4


def test_setting_is_read_at_call_time(oracle_setting):
    # the order and the floor are module constants read on every call, so a
    # new setting holds from the next call and the module's own one gives
    # back the default bits
    default = ivp_integrate(-17.2, 15.0)
    oracle_setting(r0=1e-3)
    assert ivp_trajectory(-17.2, 15.0)[0][0] == 1e-3
    # the series hands off at r = 0.65, above either floor
    assert ivp_integrate(-17.2, 15.0) == default
    oracle_setting(order=16)
    assert oracle._handoff(np.array([-17.2]), 15.0)[0].shape == (1, 17)
    w1, v1 = ivp_integrate(-17.2, 15.0)
    # the same endpoint to the lower order's accuracy: measured 1.0e-9 in
    # w and 5.5e-10 in u
    assert (w1, v1) != default
    assert abs(w1 - default[0]) <= 5e-9 and abs(v1 - default[1]) <= 5e-9
    oracle_setting()
    assert (oracle._R0, oracle._TAYLOR_ORDER) == (1e-4, 24)
    assert oracle._handoff(np.array([-17.2]), 15.0)[0].shape == (1, 25)
    assert ivp_integrate(-17.2, 15.0) == default


def _exact_series(a, lam, order):
    """v_0..v_order of the Frobenius series v = w / r**2 by the recurrence
    v_j = ((v*v)_{j-1} + lam delta_{j1}) / (8 j (j + 1)), in the arithmetic
    of a and lam: exact rationals or polynomials."""
    v = [a]
    for j in range(1, order + 1):
        q = sum(v[i] * v[j - 1 - i] for i in range(j)) + (lam if j == 1 else 0)
        v.append(q / (8 * j * (j + 1)))
    return v


def test_series_defect_by_symbolic_substitution():
    # substituting the K-term series w = sum v_j r**(2 j + 2) into the
    # equation leaves no term below r**(2 K + 4)
    order = oracle._TAYLOR_ORDER
    _, r, a, lam = sympy.ring("r a lam", sympy.QQ)
    w = sum(c * r ** (2 * j + 2)
            for j, c in enumerate(_exact_series(a, lam, order)))
    defect = (r ** 2 * w.diff(r).diff(r) - r * w.diff(r) - w ** 2 / 2
              - lam * r ** 4 / 2)
    assert min(k for k, _, _ in defect.monoms()) == 2 * order + 4
    # the integrator's state is this series at the exact binary values of
    # a, lam and the handoff radius, to rounding, where the root test, the
    # floor and the end r = 1 set the radius; measured 2.1e-16 relative at
    # most, and 2.4e-15 at the floor, where the terms grow
    for a_value, lam_value in ((-1500.0, -2000.0), (-17.24, 15.0),
                               (1e12, 0.0), (-0.5, 1.0)):
        exact = _exact_series(Fraction(a_value), Fraction(lam_value), order)
        radius, *start = series_start(a_value, lam_value)
        rho = Fraction(radius)
        expected = (sum(c * rho ** (2 * j + 2) for j, c in enumerate(exact)),
                    sum((2 * j + 2) * c * rho ** (2 * j + 1)
                        for j, c in enumerate(exact)))
        for got, want in zip(start, expected):
            assert abs(Fraction(got) - want) <= Fraction(4e-15) * abs(want)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_trivial_trajectory_stays_zero():
    w1, v1 = ivp_integrate(0.0, 0.0)
    assert w1 == 0.0
    assert v1 == 0.0


def test_endpoint_matches_trajectory(oracle_setting):
    for r0, order in ((1e-3, 16), (1e-4, 24)):
        oracle_setting(r0=r0, order=order)
        w1, v1 = ivp_integrate(-0.5, 1.0)
        rs, ws, vs = ivp_trajectory(-0.5, 1.0)
        assert rs.size == ws.size == vs.size == 2001
        assert rs[0] == r0
        assert rs[-1] == 1.0
        assert np.all(np.diff(rs) > 0.0)
        # geometric nodes: equal steps in ln r
        assert np.allclose(np.diff(np.log(rs)), -np.log(r0) / 2000,
                           rtol=1e-9, atol=0.0)
        assert ws[-1] == w1
        assert vs[-1] == v1


def test_trajectory_samples_match_scaled_endpoints(oracle_setting):
    # at lam = 0, w(c r) solves the equation when w does, from the series
    # start of a c**2, so the sample at node r_j is the endpoint of the
    # integration from a r_j**2 at the handoff radius r0 / r_j
    a = -9.4
    rs, ws, vs = ivp_trajectory(a, 0.0)
    for j in (1, 400, 1000, 1999):
        oracle_setting(r0=rs[0] / rs[j])
        w1, v1 = ivp_integrate(a * rs[j] ** 2, 0.0)
        assert abs(ws[j] - w1) <= 1e-10 * max(1.0, abs(w1))
        assert abs(rs[j] * vs[j] - v1) <= 1e-10 * max(1.0, abs(v1))


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
# (a * r0) * r0 ended a few ulps off under RK4; a = 50 blows up
_SHORT = (1e-2, 16,
          np.concatenate([np.linspace(-120.0, 20.0, 29),
                          [-113.17, -72.22, 50.0]]),
          1)


@pytest.mark.parametrize("lam,r0,order,a_values,blown_up", [
    pytest.param(-40.0, *_SHORT, id="-40.0"),
    pytest.param(0.0, *_SHORT, id="0.0"),
    pytest.param(15.0, *_SHORT, id="15.0"),
    # the oracle's own scan: default setting and 320 columns; on the wide
    # window a run of columns blows up while the rest integrate on; RK4 on
    # 2000 steps blew up on 139 of them
    pytest.param(15.0, 1e-4, 24, np.linspace(-120.0, 20.0, 320), 0,
                 id="scan-15.0"),
    pytest.param(-130.0, 1e-4, 24, np.linspace(-300.0, 300.0, 320), 140,
                 id="wide-scan--130.0"),
])
def test_batch_matches_scalar_integration_bit_for_bit(lam, r0, order,
                                                      a_values, blown_up,
                                                      oracle_setting):
    # the scan and the root solve of oracle_branches must read the same B:
    # a column gives the same bits whatever other columns share its call,
    # and exactly the columns whose scalar integration overflows read NaN
    oracle_setting(r0=r0, order=order)
    w, v, _ = _taylor(a_values, lam)
    overflowed = np.zeros(a_values.size, dtype=bool)
    for i, a in enumerate(a_values):
        try:
            expected = ivp_integrate(float(a), lam)
        except IvpOverflow:
            overflowed[i] = True
            continue
        assert np.array([w[i], v[i]]).tobytes() == np.array(expected).tobytes()
    assert overflowed.sum() == blown_up
    assert np.array_equal(np.isnan(w), overflowed)
    assert np.array_equal(np.isnan(v), overflowed)
    # RK4 on 8000 steps blows up on the same columns
    reference, _ = frozen_rk4_endpoints(tuple(a_values.tolist()), lam, r0,
                                        8000)
    assert np.array_equal(np.isnan(reference), overflowed)


# (lam, r0, shooting parameters): the default window at a large floor r0,
# which its handoff radii, 0.27 to 1, lie above, the wide window, where
# about 140 of 320 columns blow up, and a steep stretch where the root
# test sets a small handoff radius (0.0806 at -1500).
# At 320 points the steep stretch holds a column at the guard, a = -970.22,
# where 8000-step RK4 ends at w = 9.4e11 and 16 000-step RK4 and the
# Taylor steps pass 1e12; at 32 points it holds none
_ACCURACY_GRIDS = [
    pytest.param(15.0, 1e-2, np.linspace(-120.0, 20.0, 32), id="15.0"),
] + [
    pytest.param(lam, 1e-4, np.linspace(-300.0, 300.0, 320), id=f"wide-{lam}")
    for lam in (-130.0, -400.0, -2000.0, 150.0)
] + [
    pytest.param(-2000.0, 1e-4, np.linspace(-1500.0, -500.0, 32),
                 id="steep--2000.0"),
]

# the RK4 references start from the two-term series at this radius: at
# r0 = 1e-2 that start errs by 6.4e-6 relative on the default window
_RK4_R0 = 1e-4


def _distance(w, u, reference):
    """Largest endpoint difference relative to max(1, |reference|), over
    the columns the reference integrates; infinite where (w, u) blew up
    and the reference did not."""
    ref_w, ref_u = reference
    finite = np.isfinite(ref_w)
    gaps = [np.abs(x[finite] - ref[finite]) / np.maximum(1.0, np.abs(ref[finite]))
            for x, ref in ((w, ref_w), (u, ref_u))]
    return float(np.nan_to_num(np.max(gaps), nan=np.inf))


@pytest.mark.parametrize("lam,r0,a_values", _ACCURACY_GRIDS)
def test_endpoints_closer_to_fine_rk4_than_default_rk4(lam, r0, a_values,
                                                       oracle_setting):
    # RK4 on 8000 steps is the reference; the Taylor endpoints lie no
    # further from it than the 2000 steps RK4 the oracle used to take, and
    # blow up on the same columns
    key = tuple(a_values.tolist())
    reference = frozen_rk4_endpoints(key, lam, _RK4_R0, 8000)
    oracle_setting(r0=r0)
    w, u, _ = _taylor(a_values, lam)
    assert np.array_equal(np.isnan(w), np.isnan(reference[0]))
    assert _distance(w, u, reference) <= _distance(
        *frozen_rk4_endpoints(key, lam, _RK4_R0, 2000), reference)


@pytest.mark.parametrize("lam,r0,a_values", _ACCURACY_GRIDS)
def test_order_doubling(lam, r0, a_values, oracle_setting):
    # the endpoints at orders 24 and 48 differ by less than 1e-10 relative,
    # and both lie within the distance of 2000-step RK4 from the reference;
    # a series handoff at 0.35 of the v rows' radius, which overlooks the
    # factors 2 j + 2 of the u rows, read 5.8e-10 to 1.2e-6 here
    key = tuple(a_values.tolist())
    reference = frozen_rk4_endpoints(key, lam, _RK4_R0, 8000)
    coarse = _distance(*frozen_rk4_endpoints(key, lam, _RK4_R0, 2000),
                       reference)
    oracle_setting(r0=r0, order=24)
    w, u, _ = _taylor(a_values, lam)
    oracle_setting(r0=r0, order=48)
    w2, u2, _ = _taylor(a_values, lam)
    assert np.array_equal(np.isnan(w), np.isnan(w2))
    assert _distance(w, u, (w2, u2)) <= 1e-10
    assert _distance(w, u, reference) <= coarse
    assert _distance(w2, u2, reference) <= coarse


def test_blown_up_column_stops_at_the_step_budget(monkeypatch):
    # a column short of r = 1 when the budget runs out reads as blown up;
    # the two ends of the default window at 15 take 4 steps
    monkeypatch.setattr(oracle, "_STEP_BUDGET", 3)
    w, u, t = _taylor(np.array([-120.0, 20.0]), 15.0)
    assert np.isnan(w).all() and np.isnan(u).all()
    assert np.all(t < 0.0)
    with pytest.raises(IvpOverflow, match="step budget"):
        ivp_integrate(20.0, 15.0)


def test_frozen_rk4_batch_equals_the_scalar_march():
    # the reference grids run the frozen march on arrays
    a_values = (-113.17, -17.2, 3.6, 50.0)
    w, u = frozen_rk4_endpoints(a_values, 15.0, 1e-2, 1600)
    for i, a in enumerate(a_values):
        try:
            expected = frozen_rk4(a, 15.0, 1e-2, 1600)
        except IvpOverflow:
            expected = (np.nan, np.nan)
        assert np.array([w[i], u[i]]).tobytes() == np.array(expected).tobytes()
    assert np.isnan(w[-1])


def test_blow_up_is_reported_where_rk4_passes_the_guard():
    # within two steps of 8000-step RK4, which reports the end of the step
    # on which |w| passed the guard
    with pytest.raises(IvpOverflow) as expected:
        frozen_rk4(50.0, 0.0, 1e-4, 8000)
    with pytest.raises(IvpOverflow) as raised:
        ivp_integrate(50.0, 0.0)
    radius = [float(str(e.value).rsplit("r = ", 1)[1])
              for e in (expected, raised)]
    assert abs(np.log(radius[1] / radius[0])) <= 2.0 * -np.log(1e-4) / 8000


def test_series_start_insensitivity(oracle_setting):
    # the series of this root hands off at r = 1, above every floor r0
    # tried, so the endpoints agree bit for bit
    root = lower_branch_root(1.0, BoundaryKind.DIRICHLET)
    assert series_start(root.a_star, 1.0)[0] == 1.0
    endpoints = set()
    for r0 in (1e-5, 1e-4, 1e-3, 1e-2, 0.2, 0.3):
        oracle_setting(r0=r0)
        endpoints.add(ivp_integrate(root.a_star, 1.0))
    assert len(endpoints) == 1


def test_scan_columns_reach_r_1_in_few_steps(monkeypatch):
    # from the handoff each column of the default window at 15 reaches
    # r = 1 in 0 to 4 steps: 30 take none, 225 at most 3, and the 95 at
    # the ends of the window, a <= -80.9 and a >= 18.2, take 4
    monkeypatch.setattr(oracle, "_STEP_BUDGET", 4)
    xs = np.linspace(-120.0, 20.0, 320)
    w, u, t = _taylor(xs, 15.0)
    assert np.isfinite(w).all() and np.isfinite(u).all()
    assert np.all(t == 0.0)
    radius = series_start(xs, 15.0)[0]
    assert np.all((1e-4 <= radius) & (radius <= 1.0))
    # both roots in 2
    monkeypatch.setattr(oracle, "_STEP_BUDGET", 2)
    w, _, _ = _taylor(np.array([-17.2437906707, -2.2217801911]), 15.0)
    assert np.isfinite(w).all()


def test_upper_root_hands_off_at_r_1_with_no_step(monkeypatch):
    # the series of the navier1 upper root at 15 holds to r = 1, so its
    # endpoint is the series state there, and a budget of no step passes
    a = -2.2217801911
    v, r, _ = oracle._handoff(np.array([a]), 15.0)
    assert r[0] == 1.0
    monkeypatch.setattr(oracle, "_STEP_BUDGET", 0)
    expected = oracle._series_state(v[0], 1.0)
    assert (np.array(ivp_integrate(a, 15.0)).tobytes()
            == np.array(expected).tobytes())


def test_columns_that_hand_off_at_r_1_take_no_step(monkeypatch):
    # the handoff reads one root test and each step one more, so a call
    # whose columns all hand off at r = 1 reads one root test in all
    xs = np.linspace(-120.0, 20.0, 320)
    xs = xs[series_start(xs, 15.0)[0] == 1.0]
    assert xs.size == 30
    tests = []
    root_test = oracle._root_test

    def counted(*args):
        tests.append(len(args[0]))
        return root_test(*args)

    monkeypatch.setattr(oracle, "_root_test", counted)
    w, u, t = _taylor(xs, 15.0)
    assert tests == [xs.size]
    assert np.isfinite(w).all() and np.isfinite(u).all()
    assert np.all(t == 0.0)


def test_column_that_ends_at_the_handoff_is_guarded(monkeypatch):
    # a column that takes no step reads NaN where its series state is not
    # finite: at a = 1e200 and -1e200 the series overflows, its root test
    # reads NaN, and it hands off at r = 1
    w, u, t = _taylor(np.array([1e200, -1e200]), 15.0)
    assert np.isnan(w).all() and np.isnan(u).all()
    assert np.all(t == 0.0)
    with pytest.raises(IvpOverflow):
        ivp_integrate(1e200, 15.0)
    # and where it passes the guard: the upper root at 15 ends at
    # w(1) = -1.07, past a guard of 1
    a = -2.2217801911
    monkeypatch.setattr(oracle, "BLOWUP_GUARD", 1.0)
    w, u, t = _taylor(np.array([a]), 15.0)
    assert np.isnan(w).all() and np.isnan(u).all()
    assert t[0] == 0.0
    with pytest.raises(IvpOverflow):
        ivp_integrate(a, 15.0)


# the columns a = -10**e, 0 and 10**e for e = -3, -2.75, ..., 12 that blow
# up, as the least e of each sign that does and whether a = 0 does; the
# same columns blew up when every column stepped on from r <= 0.1
@pytest.mark.parametrize("lam,negative,positive,zero", [
    (-2000.0, 3.0, 1.75, False),
    (0.0, 3.0, 1.75, False),
    (150.0, 3.0, 1.75, False),
    (-1e6, 4.25, 3.25, False),
    (1e6, -3.0, -3.0, True),
])
def test_extreme_columns_blow_up_where_they_did(lam, negative, positive,
                                                zero):
    exponents = np.linspace(-3.0, 12.0, 61)
    a_values = np.concatenate([-10.0 ** exponents[::-1], [0.0],
                               10.0 ** exponents])
    w, u, _ = _taylor(a_values, lam)
    expected = np.concatenate([exponents[::-1] >= negative, [zero],
                               exponents >= positive])
    assert np.array_equal(np.isnan(w), expected)
    assert np.array_equal(np.isnan(u), expected)


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


def test_both_methods_agree_on_nonexistence_past_the_fold(oracle_setting):
    # one and a half times the critical rate for each boundary kind
    oracle_setting(order=16)
    cases = [
        (BoundaryKind.NAVIER_ONE, 47.91),
        (BoundaryKind.NAVIER_TWO, 17.01),
        (BoundaryKind.DIRICHLET, 253.5),
    ]
    for bc, lam in cases:
        assert find_branches(lam, bc) == []
        assert oracle_branches(lam, bc) == []


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


# numpy's dispatch family: its exp and power loops round the last bit
# differently on the AVX-512 kernels (X86_V4) and on the AVX2 ones (X86_V3,
# also under NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"), so
# each family has its own pins
_FAMILY = next((name for name in ("X86_V4", "X86_V3")
                if __cpu_features__.get(name)), "below X86_V3")


def _pinned(table):
    if _FAMILY not in table:
        pytest.fail(f"no pinned values for numpy dispatch family {_FAMILY}")
    return table[_FAMILY]


# oracle_branches roots on the default window, in hex: a drift of one ulp
# in the integrator or the root solve shows here first
_HEX_ROOTS = {
    "X86_V4": {
        (BoundaryKind.DIRICHLET, -25.0):
            ("-0x1.5d761eaf40abcp+6", "0x1.7de6a3e6322bap+0"),
        (BoundaryKind.DIRICHLET, 30.0):
            ("-0x1.2271b03c8c433p+6", "-0x1.ff31488492cbep+0"),
        (BoundaryKind.NAVIER_ONE, -60.0):
            ("-0x1.2228c87ad7a96p+5", "0x1.529f115765776p+2"),
        (BoundaryKind.NAVIER_ONE, 15.0):
            ("-0x1.13e6910bdd4d8p+4", "-0x1.1c634b15dee9ep+1"),
        (BoundaryKind.NAVIER_TWO, -100.0):
            ("-0x1.8ede2eb66b62fp+4", "0x1.115527ac3092ep+3"),
        (BoundaryKind.NAVIER_TWO, 8.0):
            ("-0x1.c2e1b31c60167p+2", "-0x1.fac0860d2785cp+0"),
    },
    "X86_V3": {
        (BoundaryKind.DIRICHLET, -25.0):
            ("-0x1.5d761eaf40abcp+6", "0x1.7de6a3e6322bap+0"),
        (BoundaryKind.DIRICHLET, 30.0):
            ("-0x1.2271b03c8c433p+6", "-0x1.ff31488492cbep+0"),
        (BoundaryKind.NAVIER_ONE, -60.0):
            ("-0x1.2228c87ad7a96p+5", "0x1.529f115765776p+2"),
        (BoundaryKind.NAVIER_ONE, 15.0):
            ("-0x1.13e6910bdd4d8p+4", "-0x1.1c634b15dee9ep+1"),
        (BoundaryKind.NAVIER_TWO, -100.0):
            ("-0x1.8ede2eb66b630p+4", "0x1.115527ac3092ep+3"),
        (BoundaryKind.NAVIER_TWO, 8.0):
            ("-0x1.c2e1b31c60167p+2", "-0x1.fac0860d2785cp+0"),
    },
}


@pytest.mark.parametrize("bc,lam", list(_HEX_ROOTS["X86_V4"]))
def test_oracle_roots_pinned_bit_for_bit(bc, lam):
    roots = oracle_branches(lam, bc)
    assert (tuple(float(x).hex() for x in roots)
            == _pinned(_HEX_ROOTS)[bc, lam])


# w(1), w'(1), and w and w' at node 1000 of the trajectory below
_HEX_TRAJECTORY = {
    "X86_V4": ("-0x1.89140968b3b9ap+2", "0x1.cc3cc2d222c60p-28",
               "-0x1.c3fc053eb81b9p-10", "-0x1.6112a84e7955cp-2"),
    "X86_V3": ("-0x1.89140968b3b9ap+2", "0x1.cc3cc2d222c60p-28",
               "-0x1.c3fc053eb81b9p-10", "-0x1.6112a84e7955cp-2"),
}


def test_trajectory_pinned_bit_for_bit():
    # the navier1 lower root at 15 under 2000-step RK4, where w'(1) read
    # -7.5e-15; the Taylor steps read 6.7e-9
    a = float.fromhex("-0x1.13e6910f66746p+4")
    rs, ws, vs = ivp_trajectory(a, 15.0)
    got = (ws[-1], vs[-1], ws[1000], vs[1000])
    assert tuple(float(x).hex() for x in got) == _pinned(_HEX_TRAJECTORY)


# roots from a second integrator: RK4 on 10 000 uniform steps in r from
# r0 = 1e-4, bisected to 1e-10 in the same scan brackets
_PINNED_ROOTS = {
    (BoundaryKind.NAVIER_ONE, 15.0): (-17.243790661658494, -2.221780190697567),
    (BoundaryKind.DIRICHLET, -25.0): (-87.3653512033174, 1.4918005402049608),
    (BoundaryKind.NAVIER_TWO, 0.0): (-9.400751295409728, 3.651413251473236e-12),
}


def _scan(lam, bc):
    """The oracle's 320-point scan of the default window: the points and
    the residuals there."""
    xs = np.linspace(-120.0, 20.0, oracle._GRID_POINTS)
    return xs, bc.residual(*_taylor(xs, lam)[:2])


def _bisection_roots(lam, bc):
    """Reference: plain bisection to 1e-12 in each sign change of the
    oracle's scan, on the same integrator."""
    xs, fs = _scan(lam, bc)
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


def _counted_integrator_calls(monkeypatch):
    """The list that each integrator call appends its column count to;
    the first entry is the scan's, the rest are the root solve's."""
    columns = []
    taylor = oracle._taylor

    def counted(a_values, *args):
        columns.append(np.size(a_values))
        return taylor(a_values, *args)

    monkeypatch.setattr(oracle, "_taylor", counted)
    return columns


@pytest.mark.parametrize("bc,lam", list(_PINNED_ROOTS))
def test_zoom_roots_match_bisection_in_two_calls(bc, lam, monkeypatch):
    # count the columns the root solve integrates, call by call
    columns = _counted_integrator_calls(monkeypatch)
    roots = oracle_branches(lam, bc)
    monkeypatch.undo()
    assert len(roots) == len(_PINNED_ROOTS[bc, lam])
    # the first round closes every bracket: D - 1 columns and 2 per
    # bracket, where plain bisection needs about 33 per root
    assert columns[0] == oracle._GRID_POINTS
    assert len(columns[1:]) == 2
    assert sum(columns[1:]) <= (oracle._ZOOM_DEGREE + 1) * len(roots)
    for root, pinned in zip(roots, _PINNED_ROOTS[bc, lam]):
        assert abs(root - pinned) <= 1e-6
    reference = _bisection_roots(lam, bc)
    assert len(reference) == len(roots)
    for root, expected in zip(roots, reference):
        assert abs(root - expected) <= 1e-9


def _zoom_degree(monkeypatch, degree):
    """Swap the zoom's interpolant for one of the given degree."""
    angles, dct = oracle._zoom_matrix(degree)
    monkeypatch.setattr(oracle, "_ZOOM_DEGREE", degree)
    monkeypatch.setattr(oracle, "_ZOOM_ANGLES", angles)
    monkeypatch.setattr(oracle, "_ZOOM_DCT", dct)
    monkeypatch.setattr(oracle, "_ZOOM_NODES", np.cos(angles))


@pytest.mark.parametrize("bc,lam", list(_PINNED_ROOTS))
def test_zoom_repeats_on_the_brackets_its_check_leaves_open(bc, lam,
                                                           monkeypatch):
    # at degree 4 the check pair misses most roots of B, and the round
    # repeats on the sampled cell: two rounds here, where plain bisection
    # takes about 33 calls
    _zoom_degree(monkeypatch, 4)
    columns = _counted_integrator_calls(monkeypatch)
    roots = oracle_branches(lam, bc)
    monkeypatch.undo()
    assert len(columns[1:]) > 2
    assert len(columns[1:]) <= 6
    reference = _bisection_roots(lam, bc)
    assert len(reference) == len(roots)
    for root, expected in zip(roots, reference):
        assert abs(root - expected) <= 1e-9


# the pinned cases, and one past the fold with no bracket to solve
@pytest.mark.parametrize("bc,lam", list(_HEX_ROOTS["X86_V4"])
                         + list(_PINNED_ROOTS)
                         + [(BoundaryKind.NAVIER_ONE, 40.0)])
def test_no_integrator_call_on_zero_columns(bc, lam, monkeypatch):
    columns = _counted_integrator_calls(monkeypatch)
    oracle_branches(lam, bc)
    assert columns and all(columns)


def _zoomed(f, lo, hi):
    """The zoom's roots for f in the brackets [lo, hi], and the column
    count of each call it makes to f, none of which may be empty; a zoom
    that makes 100 calls fails rather than runs on."""
    lo, hi = np.atleast_1d(lo), np.atleast_1d(hi)
    calls = []

    def counted(x):
        assert np.size(x), "the zoom called the residual on zero points"
        assert len(calls) < 100, "the zoom did not end"
        calls.append(np.size(x))
        return f(x)

    return oracle._zoom(counted, lo, hi, f(lo), f(hi)), calls


def test_zoom_matrix_gives_the_chebyshev_coefficients():
    rng = np.random.default_rng(7)
    c = rng.standard_normal(oracle._ZOOM_DEGREE + 1)
    values = np.polynomial.chebyshev.chebval(oracle._ZOOM_NODES, c)
    assert np.max(np.abs(values @ oracle._ZOOM_DCT - c)) <= 1e-14
    assert oracle._ZOOM_NODES[0] == -1.0 and oracle._ZOOM_NODES[-1] == 1.0
    assert np.all(np.diff(oracle._ZOOM_NODES) > 0.0)


def test_zoom_closes_smooth_brackets_in_two_calls():
    # e**x - 2 and two zeros of cos, in lockstep: the check pair holds each
    # root, so one round ends all three
    def f(x):
        return np.where(x < 5.0, np.exp(x) - 2.0, np.cos(x))

    roots, calls = _zoomed(f, [0.0, 6.0, 10.0], [1.0, 9.0, 12.0])
    assert calls == [3 * (oracle._ZOOM_DEGREE - 1), 6]
    expected = [np.log(2.0), 2.5 * np.pi, 3.5 * np.pi]
    assert np.max(np.abs(roots - expected)) <= oracle._ROOT_TOL


def test_zoom_repeats_on_the_sampled_cell_at_a_kink():
    # a kink next to the root spoils the interpolant: the check pair keeps
    # its sign, and the second round, on the sampled cell, closes
    def f(x):
        return np.where(x < 0.5, x - 0.45, 19.0 * x - 9.45)

    roots, calls = _zoomed(f, 0.0, 1.0)
    assert calls == [oracle._ZOOM_DEGREE - 1, 2] * 2
    assert abs(roots[0] - 0.45) <= oracle._ROOT_TOL


def test_zoom_passes_over_a_sample_that_is_not_finite():
    # the cell runs between the finite samples on either side of the sign
    # change; it gets no interpolant in the first round, and the second
    # closes on the root
    nan_at = 0.5 + 0.5 * oracle._ZOOM_NODES[3]

    def f(x):
        return np.where(x == nan_at, np.nan, x - 0.37)

    roots, calls = _zoomed(f, 0.0, 1.0)
    assert calls == [oracle._ZOOM_DEGREE - 1] * 2 + [2]
    assert roots.tolist() == [0.37]


def test_zoom_takes_an_exact_zero_sample_as_the_root():
    zero_at = 0.5 + 0.5 * oracle._ZOOM_NODES[4]

    def f(x):
        return np.where(x == zero_at, 0.0, x - zero_at - 1e-3)

    # a bracket of width 0, which ends without a check call
    roots, calls = _zoomed(f, 0.0, 1.0)
    assert calls == [oracle._ZOOM_DEGREE - 1]
    assert roots.tolist() == [zero_at]


def test_zoom_ends_a_bracket_at_float_resolution():
    # near 1e7 one ulp, 1.9e-9, exceeds the tolerance, and the check pair
    # rounds onto one point; the rounds narrow the cell to one ulp, and the
    # round that cannot narrow it ends it (9 rounds here)
    def f(x):
        return (x - 1e7) - 0.37

    roots, calls = _zoomed(f, 1e7, 1e7 + 1.0)
    assert len(calls) <= 24
    assert abs(roots[0] - (1e7 + 0.37)) <= np.spacing(1e7)


def test_zoom_ends_a_bracket_whose_samples_are_all_not_finite():
    # the cell is the whole bracket, so the round does not narrow it
    def f(x):
        return np.where((0.0 < x) & (x < 1.0), np.nan, x - 0.37)

    roots, calls = _zoomed(f, 0.0, 1.0)
    assert calls == [oracle._ZOOM_DEGREE - 1]
    assert roots.tolist() == [0.5]


def test_zoom_roots_do_not_depend_on_the_other_brackets():
    # each bracket gives the same root bits solved alone or beside the
    # others: e**x - 2, two zeros of cos, a kink, a sample that is not
    # finite, a root at float resolution and a bracket already narrower
    # than the tolerance
    nan_at = 30.5 + 0.5 * oracle._ZOOM_NODES[3]

    def f(x):
        return np.select(
            [x < 5.0, x < 15.0, x < 25.0, x < 35.0, x < 45.0],
            [np.exp(np.fmin(x, 5.0)) - 2.0, np.cos(x),
             np.where(x < 20.5, x - 20.45, 19.0 * x - 389.45),
             np.where(x == nan_at, np.nan, x - 30.37), x - 40.0 - 2e-11],
            (x - 1e7) - 0.37)

    lo = np.array([0.0, 6.0, 10.0, 20.0, 30.0, 40.0, 1e7])
    hi = np.array([1.0, 9.0, 12.0, 21.0, 31.0, 40.0 + 5e-11, 1e7 + 1.0])
    roots, _ = _zoomed(f, lo, hi)
    for i in range(lo.size):
        alone, _ = _zoomed(f, lo[i], hi[i])
        assert float(alone[0]).hex() == float(roots[i]).hex()
