"""Profile recovery, residual tables and the closed-form approximations."""

import math
import sys

import numpy as np
import pytest

from epibvp import (
    BoundaryKind,
    BranchLabel,
    NonRecoverable,
    RPoly,
    ResidualTable,
    VimProblem,
    differentiate,
    evaluate,
    find_branches,
    iterate,
    linear_approximation,
    ode_defect,
    recover_phi,
    residual_table,
    solve_profile,
)
from epibvp import recover
from epibvp.recover import TABLE_GRID

from _util import (ALL_BCS, GRID_101, exact_defect, exact_readings,
                   lower_branch_root)

rng = np.random.default_rng(7)


# ---------------------------------------------------------------------------
# recover_phi
# ---------------------------------------------------------------------------

def test_recover_dirichlet_closed_form():
    lam = 1.0
    w = RPoly([0.0, 0.0, -lam / 16.0, 0.0, lam / 16.0])
    phi = recover_phi(w)
    # lam/64 (r^2 - 1)^2 = lam/64 (r^4 - 2 r^2 + 1)
    assert phi.coefficient(0) == pytest.approx(lam / 64.0, rel=1e-15)
    assert phi.coefficient(2) == pytest.approx(-lam / 32.0, rel=1e-15)
    assert phi.coefficient(4) == pytest.approx(lam / 64.0, rel=1e-15)


def test_recover_navier_one_closed_form():
    lam = 1.0
    w = RPoly([0.0, 0.0, -lam / 8.0, 0.0, lam / 16.0])
    phi = recover_phi(w)
    # lam/64 (r^4 - 4 r^2 + 3)
    assert phi.coefficient(0) == pytest.approx(3.0 * lam / 64.0, rel=1e-15)
    assert phi.coefficient(2) == pytest.approx(-lam / 16.0, rel=1e-15)
    assert phi.coefficient(4) == pytest.approx(lam / 64.0, rel=1e-15)


def test_recover_trivial():
    assert recover_phi(RPoly.zero()) == RPoly.zero()


def test_recover_rejects_low_order_terms():
    with pytest.raises(NonRecoverable):
        recover_phi(RPoly([1.0, 0.0, 1.0]))
    with pytest.raises(NonRecoverable):
        recover_phi(RPoly([0.0, 0.5, 1.0]))


def test_recovered_profile_vanishes_at_one():
    for _ in range(20):
        w = RPoly(np.concatenate([[0.0, 0.0], rng.uniform(-3.0, 3.0, size=10)]))
        phi = recover_phi(w)
        assert evaluate(phi, 1.0) == 0.0


def test_recovered_profile_has_flat_start():
    w = RPoly(np.concatenate([[0.0, 0.0], rng.uniform(-3.0, 3.0, size=10)]))
    phi = recover_phi(w)
    assert differentiate(phi).coefficient(0) == 0.0


def test_transformation_identity_random_inputs():
    for _ in range(10):
        w = RPoly(np.concatenate([[0.0, 0.0], rng.uniform(-3.0, 3.0, size=8)]))
        phi = recover_phi(w)
        lhs = GRID_101 * evaluate(differentiate(phi), GRID_101)
        rhs = evaluate(w, GRID_101)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


@pytest.mark.parametrize("bc,lam", [
    (BoundaryKind.NAVIER_ONE, 1.0),
    (BoundaryKind.NAVIER_TWO, 8.0),
    (BoundaryKind.DIRICHLET, 1.0),
])
def test_transformation_identity_on_solved_branches(bc, lam):
    for root in find_branches(lam, bc):
        profile = solve_profile(root.a_star, lam, bc)
        lhs = GRID_101 * evaluate(differentiate(profile.phi), GRID_101)
        rhs = evaluate(profile.w, GRID_101)
        # the identity is exact up to rounding in c_k/k * k; on steep
        # branches the coefficient mass sets the attainable floor
        floor = 8.0 * np.finfo(float).eps * float(np.abs(profile.w.coeffs).sum())
        assert np.max(np.abs(lhs - rhs)) <= max(1e-12, floor)
        assert abs(evaluate(profile.phi, 1.0)) <= 1e-12


def test_navier_two_condition_in_profile_terms():
    # w(1) = w'(1) is the same as a vanishing second derivative of phi at 1
    lam = 8.0
    bc = BoundaryKind.NAVIER_TWO
    for root in find_branches(lam, bc):
        profile = solve_profile(root.a_star, lam, bc)
        phi_second = differentiate(differentiate(profile.phi))
        assert abs(evaluate(phi_second, 1.0)) <= 1e-8


# ---------------------------------------------------------------------------
# residual tables
# ---------------------------------------------------------------------------

def test_residual_table_trivial_branch_is_identically_zero():
    table = residual_table(RPoly.zero(), 0.0)
    assert table.grid == tuple(TABLE_GRID)
    assert all(value == 0.0 for value in table.values)


def test_residual_table_vanishes_at_origin():
    w = RPoly(np.concatenate([[0.0, 0.0], rng.uniform(-2.0, 2.0, size=9)]))
    table = residual_table(w, 3.0)
    assert table.values[0] == 0.0


def test_residual_table_upper_branch_magnitude():
    # the converged iterate nearly solves the equation on the table grid
    roots = find_branches(0.0, BoundaryKind.NAVIER_ONE)
    upper = next(r for r in roots if r.label is BranchLabel.UPPER)
    profile = solve_profile(upper.a_star, 0.0, upper.bc)
    table = residual_table(profile.w, 0.0)
    assert 0.0 < table.max_abs() <= 0.01


def test_residual_table_custom_grid():
    w = RPoly([0.0, 0.0, 1.0])
    table = residual_table(w, 0.0, grid=(0.0, 0.25, 0.5))
    assert table.grid == (0.0, 0.25, 0.5)
    defect_at_half = evaluate(RPoly([0.0, 0.0, 0.0, 0.0, -0.5]), 0.5)
    assert table.values[2] == pytest.approx(defect_at_half, rel=1e-15)


@pytest.mark.parametrize("values,expected", [
    ((0.0, float("nan"), 5.0), float("nan")),
    ((float("nan"), 0.0, 5.0), float("nan")),
    ((0.0, 5.0, float("nan")), float("nan")),
    ((0.0, -7.5, 5.0), 7.5),
])
def test_residual_table_maximum(values, expected):
    # a NaN entry anywhere makes the maximum NaN
    table = ResidualTable(grid=(0.0, 0.1, 0.2), values=values)
    np.testing.assert_equal(table.max_abs(), expected)


def test_residual_table_is_exact_on_steep_branch():
    # the steep Dirichlet root has coefficients near 1e11 and a defect of
    # order one at r = 0.9, where a float-formed defect reads 21.1.  The
    # root lies at a = -87.28214668 (the exact depth-6 functional changes
    # sign across its bracket).  The table maximum moves by up to 5e-4 of
    # itself from one float of a to the next, so it is pinned at one float
    # a near the root, which the search's root lies within 1e-9 of
    lam = -25.0
    roots = find_branches(lam, BoundaryKind.DIRICHLET)
    steep = min(roots, key=lambda r: r.a_star)
    a = -87.28214667753512
    assert steep.a_star == pytest.approx(a, abs=1e-9)
    lo, hi = steep.bracket
    assert exact_readings(lo, lam, 6)[0] > 0 > exact_readings(hi, lam, 6)[0]
    profile = solve_profile(a, lam, steep.bc)
    table = residual_table(profile.w, lam)
    assert table.max_abs() == pytest.approx(0.7103438418588265, rel=1e-9)
    # every entry is the exact defect of the float coefficients, rounded once
    for r, value in zip(table.grid, table.values):
        assert value == float(exact_defect(profile.w, lam, r))


def test_residual_table_is_correctly_rounded_on_a_high_mass_row():
    # the coefficient mass is 2.4e19, so an error of eps**2 times the mass
    # (1.2e-12) would span 600 units in the last place of the value
    lam = -100.0
    w = iterate(VimProblem(lam=lam, a=-86.47151022454172, n_iter=7))
    value = residual_table(w, lam, grid=(0.9,)).values[0]
    assert value == float(exact_defect(w, lam, 0.9)) == -11.787934110327528


@pytest.mark.parametrize("coeffs,lam", [
    ([0.0, 0.0, np.inf], 1.0),
    ([0.0, 0.0, 0.0, -np.inf], 1.0),
    ([0.0, 0.0, np.nan], 1.0),
    ([0.0, 0.0, 1.0], np.inf),
    ([0.0, 0.0, 1.0], np.nan),
])
def test_residual_table_of_non_finite_input_is_nan(coeffs, lam):
    table = residual_table(RPoly(coeffs), lam)
    assert np.isnan(table.values).all()


def test_residual_table_past_the_float_range():
    # 8 * 1e308, the linear term's coefficient, is past the float range,
    # yet the value is the exact defect rounded once
    w = RPoly([0.0, 0.0, 0.0, 0.0, 1e308])
    value = residual_table(w, 1.0, grid=(1e-80,)).values[0]
    assert value == float(exact_defect(w, 1.0, 1e-80))
    # a value past the float range reads as -inf
    table = residual_table(RPoly([0.0, 0.0, 1e200]), 1.0)
    assert table.values == (0.0,) + (-np.inf,) * 9


def test_residual_table_at_the_origin():
    # r**0 enters as 1, so the defect at r = 0 is -c_0**2 / 2
    table = residual_table(RPoly([1.0, 0.0, 1.0]), 2.0, grid=(0.0, 0.5))
    assert table.values == (-0.5, -0.84375)
    assert float(ode_defect(RPoly([1.0, 0.0, 1.0]), 2.0).coeffs[0]) == -0.5
    # an exact zero reads +0.0
    values = residual_table(RPoly([0.0, 3.0, 1.0]), 2.0, grid=(0.0, -0.0))
    assert values.values == (0.0, 0.0)
    assert [math.copysign(1.0, x) for x in values.values] == [1.0, 1.0]


def test_residual_table_of_non_finite_points_is_nan():
    w = RPoly([0.0, 0.0, 1.0])
    values = residual_table(w, 1.0, grid=(0.5, np.nan, np.inf, -np.inf)).values
    assert values[0] == float(exact_defect(w, 1.0, 0.5))
    assert np.isnan(values[1:]).all()


# ---------------------------------------------------------------------------
# the fixed-point evaluator against exact rationals, bit for bit
# ---------------------------------------------------------------------------

EDGE_POINTS = (0.0, -0.0, 1e-80, 1e-320, -0.7, -1.5, 0.3, 0.9, 1.0, 2.5)


def _rounded(value):
    """The exact rational value rounded to float; +-inf past the range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _assert_exact(w, lam, grid, values):
    want = [_rounded(exact_defect(w, lam, r)) for r in grid]
    assert np.array(values).tobytes() == np.array(want).tobytes(), \
        [(r, x, y) for r, x, y in zip(grid, values, want) if x != y]


def test_residual_table_is_exact_on_random_polynomials():
    # mixed signs, magnitudes 1e-300 to 1e308 and some zero coefficients;
    # the largest values overflow to -inf or inf
    seeded = np.random.default_rng(29)
    infinite = 0
    for _ in range(40):
        n = int(seeded.integers(1, 9))
        signs = seeded.choice([-1.0, 1.0], n + 1)
        c = signs[:n] * 10.0 ** seeded.uniform(-300, 308, n)
        c[seeded.random(n) < 0.3] = 0.0
        lam = float(signs[n] * 10.0 ** seeded.uniform(-300, 300))
        w = RPoly(c)
        values = residual_table(w, lam, grid=EDGE_POINTS).values
        _assert_exact(w, lam, EDGE_POINTS, values)
        infinite += int(np.isinf(values).sum())
    assert infinite > 0


@pytest.mark.parametrize("lam,a,grid", [
    (15.0, -3.0, (0.0, 1e-80, 0.9, 1.0)),
    # coefficients up to 6e117: the start precision is raised to keep
    # the scale s = 2 p - e nonnegative
    (-25.0, -87.28214667753512, (0.5, 0.9)),
])
def test_residual_table_is_exact_on_depth_ten_iterates(lam, a, grid):
    w = iterate(VimProblem(lam=lam, a=a, n_iter=10))
    _assert_exact(w, lam, grid, residual_table(w, lam, grid=grid).values)


def test_residual_table_doubles_the_precision_at_a_near_tie(monkeypatch):
    # at r = 1 the defect is -(1 + 2**-53), a tie, minus 1e-60 from the
    # last coefficient, which the start precision truncates to zero: its
    # rounding is left open there and settled at twice the precision
    precisions = []
    fixed_point = recover._fixed_point

    def spy(c, ks, lam, e, p, step, blocks):
        precisions.append(p)
        return fixed_point(c, ks, lam, e, p, step, blocks)

    monkeypatch.setattr(recover, "_fixed_point", spy)
    w, lam = RPoly([1.0, 0.0, 1e-60]), 1.0 + 2.0 ** -52
    value = residual_table(w, lam, grid=(1.0,)).values[0]
    assert precisions == [recover._PRECISION, 2 * recover._PRECISION]
    assert value == float(exact_defect(w, lam, 1.0)) == -1.0000000000000002


@pytest.mark.parametrize("w,lam", [
    (iterate(VimProblem(lam=15.0, a=-3.0, n_iter=6)), 15.0),
    # exact coefficients and no linear part: only the truncated powers in
    # w leave the rounding open
    (RPoly([1.0, 0.0, 1.0]), 1.0),
])
def test_residual_table_from_a_low_start_precision(monkeypatch, w, lam):
    # 8 bits leave the roundings open; the doubled precisions settle each
    monkeypatch.setattr(recover, "_PRECISION", 8)
    _assert_exact(w, lam, TABLE_GRID, residual_table(w, lam).values)


def test_residual_table_kept_powers_equal_fresh_blocks():
    # the 101 points pack 16 to a block; among 202 points their last five
    # share a block with eleven others, and each value is its point's
    lam = -25.0
    w = iterate(VimProblem(lam=lam, a=-87.28214667753512, n_iter=6))
    kept = residual_table(w, lam, grid=GRID_101).values
    fresh = residual_table(w, lam, grid=np.append(GRID_101, GRID_101 + 1e-3))
    assert np.array(kept).tobytes() == np.array(fresh.values[:101]).tobytes()


def test_packed_blocks_are_kept_for_the_default_grids():
    # every block packs through _pack's cache, which keeps the last 16
    # blocks; a 1001-point table takes 63 and evicts TABLE_GRID's, and the
    # cache holds exact integers, so no value depends on what it kept
    lam = -25.0
    w = iterate(VimProblem(lam=lam, a=-87.28214667753512, n_iter=6))
    grid = np.linspace(0.0, 1.0, 1001)
    recover._pack.cache_clear()
    before = residual_table(w, lam).values
    first = residual_table(w, lam, grid=grid).values
    again = residual_table(w, lam, grid=grid).values
    assert np.array(again).tobytes() == np.array(first).tobytes()
    after = residual_table(w, lam).values
    assert np.array(after).tobytes() == np.array(before).tobytes()

    def solve_pair():
        # TABLE_GRID of each root (its table, built when read) and the 101
        # points of ``solve``, at the tops 256 (navier1, depth 7) and 128
        # (dirichlet, depth 6)
        for lam, bc in ((15.0, BoundaryKind.NAVIER_ONE),
                        (-25.0, BoundaryKind.DIRICHLET)):
            for root in find_branches(lam, bc):
                assert root.table.grid == TABLE_GRID
                residual_table(root.w, lam, grid=GRID_101)
        return recover._pack.cache_info().misses

    recover._pack.cache_clear()
    assert solve_pair() == 16
    assert solve_pair() == 16


# ---------------------------------------------------------------------------
# closed-form linear approximations
# ---------------------------------------------------------------------------

def test_linear_approximation_dirichlet_centre_value():
    profile = linear_approximation(BoundaryKind.DIRICHLET, 1.0)
    assert evaluate(profile.phi, 0.0) == pytest.approx(1.0 / 64.0, rel=1e-15)


def test_linear_approximation_navier_two_centre_value():
    profile = linear_approximation(BoundaryKind.NAVIER_TWO, 1.0)
    assert evaluate(profile.phi, 0.0) == pytest.approx(5.0 / 64.0, rel=1e-15)


@pytest.mark.parametrize("bc", ALL_BCS)
def test_linear_approximation_at_zero_rate(bc):
    profile = linear_approximation(bc, 0.0)
    assert profile.phi == RPoly.zero()
    assert profile.w == RPoly.zero()


@pytest.mark.parametrize("bc", ALL_BCS)
def test_linear_approximation_profiles_match_forms(bc):
    lam = 0.5
    profile = linear_approximation(bc, lam)
    c = bc.linear_root_coefficient
    r = GRID_101
    expected_w = lam / 16.0 * r * r * (r * r - c)
    assert np.max(np.abs(evaluate(profile.w, r) - expected_w)) <= 1e-15
    constants = {1: 1.0, 2: 3.0, 3: 5.0}
    expected_phi = lam / 64.0 * (r ** 4 - 2 * c * r * r + constants[c])
    assert np.max(np.abs(evaluate(profile.phi, r) - expected_phi)) <= 1e-15


@pytest.mark.parametrize("bc", ALL_BCS)
@pytest.mark.parametrize("lam", [16.0, -48.0, 1.0, 0.75])
def test_linear_approximation_meets_its_condition_exactly(bc, lam):
    w = linear_approximation(bc, lam).w
    w1, w1_prime = evaluate(w, 1.0), evaluate(differentiate(w), 1.0)
    assert bc.residual(w1, w1_prime) == 0.0


@pytest.mark.parametrize("bc", ALL_BCS)
@pytest.mark.parametrize("lam", [sys.float_info.max, -sys.float_info.max])
def test_linear_approximation_at_the_largest_rates(bc, lam):
    # -c * lam overflows here; lam / 16 first does not
    profile = linear_approximation(bc, lam)
    assert np.isfinite(profile.w.coeffs).all()
    assert np.isfinite(profile.phi.coeffs).all()
    assert np.isfinite(evaluate(profile.w, GRID_101)).all()
    assert np.isfinite(evaluate(profile.phi, GRID_101)).all()
    assert evaluate(profile.phi, 1.0) == 0.0
    assert profile.a_star == profile.w.coeffs[2]


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
def test_linear_approximation_rejects_a_non_finite_rate(lam):
    with pytest.raises(ValueError, match="the rate must be finite"):
        linear_approximation(BoundaryKind.NAVIER_ONE, lam)


@pytest.mark.parametrize("bc", ALL_BCS)
@pytest.mark.parametrize("lam", [0.1, -0.1, 0.05])
def test_lower_branch_matches_linear_regime(bc, lam):
    # dropping the quadratic term costs O(lam^2); 0.05 is the frozen bound
    root = lower_branch_root(lam, bc)
    solved = solve_profile(root.a_star, lam, bc)
    linear = linear_approximation(bc, lam)
    gap = np.max(np.abs(
        evaluate(solved.phi, GRID_101) - evaluate(linear.phi, GRID_101)))
    assert gap <= 0.05 * lam * lam
