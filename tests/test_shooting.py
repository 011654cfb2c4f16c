"""Branch location, classification and root quality."""

import decimal
import math
import warnings

import numpy as np
import pytest

from epibvp import (
    BoundaryKind,
    BranchLabel,
    BranchRoot,
    IterationOverflow,
    RPoly,
    boundary_residual,
    evaluate,
    find_branches,
    recover_phi,
    residual_table,
    solve_profile,
)
from epibvp import recover, shooting
from epibvp.vim import _rounding_gamma

from _util import ALL_BCS, GRID_101, exact_readings, frozen_iterates


# ---------------------------------------------------------------------------
# boundary residual
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bc", ALL_BCS)
def test_trivial_start_satisfies_all_conditions(bc):
    assert boundary_residual(0.0, 0.0, bc) == 0.0


def test_linear_regime_roots_nearly_satisfy_conditions():
    lam = 0.01
    cases = [
        (BoundaryKind.NAVIER_ONE, -lam / 8.0),
        (BoundaryKind.DIRICHLET, -lam / 16.0),
        (BoundaryKind.NAVIER_TWO, -3.0 * lam / 16.0),
    ]
    for bc, a_lin in cases:
        assert abs(boundary_residual(a_lin, lam, bc)) <= 1e-5


def test_residual_is_continuous_in_a():
    bc = BoundaryKind.NAVIER_ONE
    values = [boundary_residual(a, 1.0, bc) for a in np.linspace(-1.0, 1.0, 41)]
    jumps = np.abs(np.diff(values))
    assert np.max(jumps) < 0.5


@pytest.mark.parametrize("bc,lam,a,n", [
    (BoundaryKind.NAVIER_ONE, 15.0, -120.0, 7),
    (BoundaryKind.DIRICHLET, -25.0, -110.0, 6),
])
def test_residual_at_a_steep_start(bc, lam, a, n):
    # the coefficient sums of the monomial iterate cancelled here, to
    # 2.9e16 against an exact 122.05 (navier1) and 5.08 against 4.58
    # (dirichlet); the collocation reading lies within its rounding count
    # plus its change from 64 to 128 points, the band rule of the roots
    (b,), size = shooting._readings(a, lam, bc, n)
    (fine,), _ = shooting._readings(a, lam, bc, n, 128)
    bound = _rounding_gamma(64, n) * size[0] + abs(b - fine)
    value = boundary_residual(a, lam, bc, n)
    assert value == b
    assert abs(decimal.Decimal(value) - _decimal_functional(a, lam, bc, n)) \
        <= bound


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["a", "the rate"])
def test_non_finite_input_to_the_residual_is_named(name, value):
    a, lam = (value, 1.0) if name == "a" else (1.0, value)
    with pytest.raises(ValueError) as caught:
        boundary_residual(a, lam, BoundaryKind.NAVIER_ONE)
    assert str(caught.value) == f"{name} must be finite, got {value!r}"


# ---------------------------------------------------------------------------
# find_branches
# ---------------------------------------------------------------------------

def test_two_branches_at_zero_rate_navier_one():
    roots = find_branches(0.0, BoundaryKind.NAVIER_ONE)
    assert len(roots) == 2
    trivial = min(roots, key=lambda r: abs(r.a_star))
    nontrivial = max(roots, key=lambda r: abs(r.a_star))
    assert abs(trivial.a_star) <= 1e-13
    assert trivial.label is BranchLabel.LOWER
    assert nontrivial.label is BranchLabel.UPPER
    assert nontrivial.a_star < -1.0


def test_no_branches_above_critical_navier_one():
    assert find_branches(40.0, BoundaryKind.NAVIER_ONE) == []


def test_signed_branches_at_negative_rate_navier_two():
    roots = find_branches(-1.0, BoundaryKind.NAVIER_TWO)
    assert len(roots) == 2
    labels = {root.label for root in roots}
    assert labels == {BranchLabel.POSITIVE, BranchLabel.NEGATIVE}
    for root in roots:
        profile = solve_profile(root.a_star, -1.0, root.bc)
        midvalue = evaluate(profile.phi, 0.5)
        if root.label is BranchLabel.POSITIVE:
            assert midvalue > 0.0
        else:
            assert midvalue < 0.0


def test_branch_ordering_navier_one_positive_rate():
    roots = find_branches(15.0, BoundaryKind.NAVIER_ONE)
    assert [root.label for root in roots] == [BranchLabel.UPPER, BranchLabel.LOWER]
    lower = next(r for r in roots if r.label is BranchLabel.LOWER)
    upper = next(r for r in roots if r.label is BranchLabel.UPPER)
    phi_lower = solve_profile(lower.a_star, 15.0, lower.bc).phi
    phi_upper = solve_profile(upper.a_star, 15.0, upper.bc).phi
    low_vals = evaluate(phi_lower, GRID_101)
    up_vals = evaluate(phi_upper, GRID_101)
    assert np.all(low_vals <= up_vals + 1e-9)


def test_signed_branches_navier_one_deep_negative():
    roots = find_branches(-100.0, BoundaryKind.NAVIER_ONE)
    assert {root.label for root in roots} == {
        BranchLabel.POSITIVE,
        BranchLabel.NEGATIVE,
    }


def test_roots_sorted_and_brackets_valid():
    for lam, bc in [(15.0, BoundaryKind.NAVIER_ONE), (8.0, BoundaryKind.NAVIER_TWO)]:
        roots = find_branches(lam, bc)
        a_values = [root.a_star for root in roots]
        assert a_values == sorted(a_values)
        for root in roots:
            lo, hi = root.bracket
            assert lo <= root.a_star <= hi
            if lo != hi:
                assert boundary_residual(lo, lam, bc) * boundary_residual(
                    hi, lam, bc) < 0.0


def test_root_residuals_below_tolerance():
    # one Newton step from the proxy root brings the collocation reading
    # within the root's band times |dB/da|, and the public functional, the
    # same reading, within 1e-11 or a rounding floor of 8 eps times the
    # absolute coefficient mass of the monomial B
    cases = [
        (0.0, BoundaryKind.NAVIER_ONE),
        (15.0, BoundaryKind.NAVIER_ONE),
        (8.0, BoundaryKind.NAVIER_TWO),
        (-160.0, BoundaryKind.NAVIER_TWO),
        (100.0, BoundaryKind.DIRICHLET),
        (-25.0, BoundaryKind.DIRICHLET),
    ]
    for lam, bc in cases:
        for root in find_branches(lam, bc):
            (b, b_a), _ = shooting._readings(root.a_star, lam, bc,
                                             bc.default_iterations,
                                             order=1)
            assert abs(b[0]) <= root.band * abs(b_a[0])
            c = np.abs(frozen_iterates(root.a_star, lam,
                                       bc.default_iterations)[0])
            alpha, beta = bc.functional
            mass = (abs(alpha) * c.sum()
                    + abs(beta) * (np.arange(c.size) * c).sum())
            floor = 8.0 * np.finfo(float).eps * mass
            achieved = abs(boundary_residual(root.a_star, lam, bc))
            assert achieved <= max(1e-11, floor)


@pytest.mark.parametrize("bc", ALL_BCS)
def test_trivial_root_exact_at_zero_rate(bc):
    roots = find_branches(0.0, bc)
    trivial = min(roots, key=lambda r: abs(r.a_star))
    assert abs(trivial.a_star) <= 1e-13


@pytest.mark.parametrize("bc", ALL_BCS)
@pytest.mark.parametrize("window", [(-120.0, 20.0), (-300.0, 300.0),
                                    (-1.0, 0.0), (0.0, 1.0)])
def test_trivial_root_is_exactly_zero(bc, window):
    # B(0) reads exactly 0 at lam = 0; on -300:300 a = 0 is also the edge
    # of two pieces, whose proxy roots near it merge with it
    roots = [root.a_star for root in find_branches(0.0, bc, window)]
    assert roots.count(0.0) == 1
    assert all(a == 0.0 or abs(a) > 1.0 for a in roots)


def test_noise_crossings_are_dropped_navier_one_deep_negative():
    # the functional reads below its noise floor everywhere left of
    # a = -70 here; two sign changes inside that noise used to pass as
    # roots near a = -73.16 and -73.14
    roots = find_branches(-96.0, BoundaryKind.NAVIER_ONE)
    assert len(roots) == 2
    assert {root.label for root in roots} == {
        BranchLabel.POSITIVE,
        BranchLabel.NEGATIVE,
    }


@pytest.mark.parametrize("lam", [-44.0, 8.0, 23.0])
def test_no_roots_among_unresolved_dirichlet_readings(lam):
    # left of about a = -103 every reading of the functional lies under its
    # noise floor; the resolved-sign rule drops the sign changes there near
    # a = -112 to -120 (at lam = 8 their residual tables read 47 and more,
    # above the cap as well)
    roots = find_branches(lam, BoundaryKind.DIRICHLET)
    assert len(roots) == 2
    assert all(root.a_star > -100.0 for root in roots)


# the depth-7 profile of the steep root dips to -1.2 near r = 0.9, where
# the RK4 profile stays positive: the labelling warning is expected
_STEEP_PROFILE = "ignore:branch at a=-85.7288 is not sign-definite"


@pytest.mark.filterwarnings(_STEEP_PROFILE)
def test_one_resolved_sign_change_vouches_for_one_bracket(monkeypatch):
    # the monomial readings from a = -281 to -69 lie under their noise
    # floor here, and the resolved-reading scan found only the root near
    # 10.13; the collocation proxy also finds the steep root.  The RK4
    # oracle on the same window finds -85.6868 and 10.1355.  The steep
    # root's residual table has read 0.5 to 8.6 within a few floats of a*,
    # so the cap is lifted: the cap decides on rounding here
    monkeypatch.setattr(shooting, "DEFAULT_RESIDUAL_CAP", math.inf)
    roots = find_branches(-150.0, BoundaryKind.NAVIER_ONE, window=(-300.0, 300.0))
    assert [root.label for root in roots] == [BranchLabel.POSITIVE,
                                              BranchLabel.NEGATIVE]
    assert abs(roots[0].a_star - -85.7288) < 1e-4
    assert abs(roots[1].a_star - 10.13) < 0.01


def test_steep_navier_one_branch_below_minus_125():
    # the scan of monomial readings lost this branch below lam = -125; its
    # residual table reads 0.015, under the cap (RK4: -67.5161)
    roots = find_branches(-130.0, BoundaryKind.NAVIER_ONE)
    assert len(roots) == 2
    assert abs(roots[0].a_star - -67.5701) < 1e-4
    assert roots[0].table.max_abs() < 0.02


_DEFAULT = shooting.DEFAULT_WINDOW
# every root the parity grid found that the 4000-point scan of monomial
# readings had not: (bc, lam, window, a_star)
_NEW_ROOTS = [
    *[(BoundaryKind.DIRICHLET, lam, _DEFAULT, a) for lam, a in (
        (-100.0, -106.02486), (-95.0, -105.08291), (-90.0, -104.06548),
        (-85.0, -102.97697), (-80.0, -101.82454), (-75.0, -100.61725),
        (-70.0, -99.36492), (-65.0, -98.07715))],
    (BoundaryKind.DIRICHLET, -100.0, (-300.0, 20.0), -106.02486),
    (BoundaryKind.DIRICHLET, -100.0, (-300.0, 300.0), -106.02486),
    *[(BoundaryKind.NAVIER_ONE, lam, _DEFAULT, a) for lam, a in (
        (-150.0, -85.72884), (-145.0, -80.58838), (-140.0, -75.84039),
        (-135.0, -71.50552), (-130.0, -67.57009))],
    (BoundaryKind.NAVIER_ONE, -150.0, (-300.0, 20.0), -85.72884),
    (BoundaryKind.NAVIER_ONE, -150.0, (-300.0, 300.0), -85.72884),
    (BoundaryKind.NAVIER_TWO, -195.0, _DEFAULT, -79.29082),
    (BoundaryKind.NAVIER_TWO, 11.3425551, _DEFAULT, -4.43528),
    (BoundaryKind.NAVIER_TWO, 11.3425551, _DEFAULT, -4.43480),
]


@pytest.mark.filterwarnings(_STEEP_PROFILE)
@pytest.mark.parametrize("bc,lam,window,a_star", _NEW_ROOTS)
def test_roots_the_scan_missed_are_sign_changes_of_the_exact_functional(
        monkeypatch, bc, lam, window, a_star):
    # the exact rational depth-n functional changes sign across each
    # bracket.  The nearest RK4 roots are -109.25 to -98.74 (dirichlet),
    # -85.69 to -67.52 (navier1) and -79.68 (navier2, which has three);
    # the fold pair lies above the RK4 fold (11.3408).  Some of these roots
    # have residual tables up to 8.9, and those tables move by a third
    # within a few ulps of a*, so the cap is lifted
    monkeypatch.setattr(shooting, "DEFAULT_RESIDUAL_CAP", math.inf)
    (root,) = [r for r in find_branches(lam, bc, window)
               if abs(r.a_star - a_star) < 1e-5]
    n = bc.default_iterations
    lo, hi = (bc.residual(*exact_readings(x, lam, n, tangent=False))
              for x in root.bracket)
    assert lo * hi < 0


def _decimal_functional(a, lam, bc, n):
    """B of the depth-n iterate at a in decimal arithmetic, from 60 digits
    up, doubling until two precisions agree to 1e-20 of the value (the
    depth-8 sums at a = -120 cancel by about 45 digits)."""
    previous = None
    for digits in (60, 120, 240, 480, 960):
        with decimal.localcontext(decimal.Context(prec=digits)):
            value = bc.residual(*exact_readings(a, lam, n, tangent=False,
                                                number=decimal.Decimal))
            if previous is not None and abs(value - previous) <= (
                    decimal.Decimal("1e-20") * abs(value)):
                return value
        previous = value
    raise AssertionError(f"B at a = {a!r} does not settle in 960 digits")


@pytest.mark.parametrize("lam,bc,window,n_iter", [
    *[(lam, bc, _DEFAULT, n) for bc in ALL_BCS
      for lam, n in ((15.0, 1), (15.0, 5), (0.0, 6), (-50.0, 7), (8.0, 8))],
    *[(lam, bc, (-300.0, 300.0), None) for bc in ALL_BCS
      for lam in (-300.0, -100.0)],
    (-130.0, BoundaryKind.NAVIER_ONE, _DEFAULT, None),
    (-70.0, BoundaryKind.DIRICHLET, _DEFAULT, None),
    (-120.0, BoundaryKind.NAVIER_TWO, _DEFAULT, None),
    (31.9, BoundaryKind.NAVIER_ONE, _DEFAULT, 8),
    (11.34, BoundaryKind.NAVIER_TWO, _DEFAULT, 6),
    (169.0, BoundaryKind.DIRICHLET, _DEFAULT, 5),
    # with 2**n > 128 the readings on 64 and on 128 points are both
    # truncated
    *[(-100.0, bc, _DEFAULT, 9) for bc in ALL_BCS],
])
def test_branches_are_the_sign_changes_of_the_functional(
        monkeypatch, lam, bc, window, n_iter):
    # with the residual cap lifted, B read in high precision changes sign
    # across every bracket, and every sign change between neighbours of a
    # 41-point grid on the window holds an odd number of roots: no root
    # is missed
    monkeypatch.setattr(shooting, "DEFAULT_RESIDUAL_CAP", math.inf)
    n = bc.default_iterations if n_iter is None else n_iter
    roots = shooting._accepted(lam, bc, window, n_iter)
    for root in roots:
        lo, hi = (_decimal_functional(x, lam, bc, n) for x in root["bracket"])
        assert lo * hi < 0
    grid = np.linspace(*window, 41)
    positive = [_decimal_functional(x, lam, bc, n) > 0 for x in grid]
    for left, right, sign_left, sign_right in zip(grid, grid[1:], positive,
                                                  positive[1:]):
        inside = sum(left < root["a_star"] < right for root in roots)
        assert inside % 2 == (sign_left != sign_right)


@pytest.mark.parametrize("bc", ALL_BCS)
def test_depth_ten_brackets_are_sign_changes_of_the_functional(monkeypatch,
                                                               bc):
    # the deepest iterate has degree 1024 in a, far beyond the 64 and 128
    # points of the two readings; B read in high precision still changes
    # sign across every bracket, the steep roots included
    monkeypatch.setattr(shooting, "DEFAULT_RESIDUAL_CAP", math.inf)
    roots = shooting._accepted(-100.0, bc, _DEFAULT, 10)
    assert len(roots) == 2
    for root in roots:
        lo, hi = (_decimal_functional(x, -100.0, bc, 10)
                  for x in root["bracket"])
        assert lo * hi < 0


@pytest.mark.parametrize("lam,bc,window,n_iter,error,message", [
    # the start values overflow float64 in the collocation step
    (15.0, BoundaryKind.NAVIER_ONE, (-1e200, 0.0), None, IterationOverflow,
     "at depth 7"),
    (0.0, BoundaryKind.NAVIER_TWO, (-1e5, 0.0), 7, IterationOverflow,
     "at depth 7"),
    (15.0, BoundaryKind.DIRICHLET, (-22200.0, -22100.0), 7,
     IterationOverflow, "at depth 7"),
    # the width of the window overflows, so the pieces cannot be cut
    (15.0, BoundaryKind.DIRICHLET, (-1e308, 1e308), None, ValueError,
     "window must be finite"),
])
def test_searches_the_readings_cannot_serve_raise(lam, bc, window, n_iter,
                                                 error, message):
    with pytest.raises(error, match=message):
        find_branches(lam, bc, window, n_iter=n_iter)


# the folds of the benchmark's fold brackets at depths base-1 ... base+1,
# and the tolerance whose probes sit 0.45 tol to either side of them
_FOLDS = {
    BoundaryKind.DIRICHLET: ((168.4576, 168.6749, 168.7394), 0.1),
    BoundaryKind.NAVIER_ONE: ((31.9402, 31.9460, 31.9479), 0.01),
    BoundaryKind.NAVIER_TWO: ((11.3463, 11.3426, 11.3414), 0.01),
}


@pytest.mark.parametrize("lam,bc,n_iter,count", [
    (fold + side * 0.45 * tol, bc, bc.default_iterations + k - 1,
     2 if side < 0 else 0)
    for bc, (folds, tol) in _FOLDS.items()
    for k, fold in enumerate(folds) for side in (-1, 1)])
def test_fold_probes_count_the_pair_on_either_side(lam, bc, n_iter, count):
    # the counts the fold search bisects on: the lower and upper branch
    # just below the fold, none just above
    roots = find_branches(lam, bc, n_iter=n_iter)
    assert len(roots) == count
    assert [root.label for root in roots] == [BranchLabel.UPPER,
                                              BranchLabel.LOWER][:count]


def _bisect(f, lo, hi):
    # down to float resolution, the reference for the Newton step
    f_lo = f(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid


@pytest.mark.filterwarnings(_STEEP_PROFILE)
@pytest.mark.parametrize("bc,lam", [
    (BoundaryKind.NAVIER_ONE, 0.0),
    (BoundaryKind.NAVIER_ONE, 15.0),
    # the steep roots
    (BoundaryKind.DIRICHLET, -25.0),
    (BoundaryKind.NAVIER_ONE, -150.0),
    # the pair 5e-4 apart, 1e-8 below the depth-7 fold
    (BoundaryKind.NAVIER_TWO, 11.3425551),
])
def test_newton_step_matches_bisection(bc, lam):
    # one Newton step from the proxy root lands within the band of the
    # root that bisection of the same collocation reading finds
    n = bc.default_iterations
    roots = find_branches(lam, bc)
    assert roots
    for root in roots:
        if root.a_star == 0.0:
            assert lam == 0.0
            continue
        expected = _bisect(
            lambda a: shooting._readings(np.array([a]), lam, bc, n)[0][0],
            *root.bracket)
        assert abs(root.a_star - expected) <= root.band
    assert (0.0 in [root.a_star for root in roots]) == (lam == 0.0)


@pytest.mark.parametrize("entry", [2.0 * shooting.DEFAULT_RESIDUAL_CAP,
                                   float("nan")])
def test_roots_need_a_residual_table_below_the_cap(monkeypatch, entry):
    def table(w, lam, grid=None):
        values = (0.0, entry) + (0.0,) * 8
        return recover.ResidualTable(grid=recover.TABLE_GRID, values=values,
                                     lam=lam)

    assert len(find_branches(15.0, BoundaryKind.NAVIER_ONE)) == 2
    monkeypatch.setattr(recover, "residual_table", table)
    assert find_branches(15.0, BoundaryKind.NAVIER_ONE) == []


@pytest.mark.parametrize("bc,lam", [
    (BoundaryKind.DIRICHLET, -25.0),
    (BoundaryKind.DIRICHLET, -60.0),
    (BoundaryKind.NAVIER_ONE, -96.0),
    (BoundaryKind.NAVIER_ONE, 29.2),
    (BoundaryKind.NAVIER_TWO, -82.07),
    (BoundaryKind.NAVIER_TWO, 8.0),
])
def test_every_root_carries_a_table_below_the_cap(bc, lam):
    roots = find_branches(lam, bc)
    assert roots
    for root in roots:
        w = solve_profile(root.a_star, lam, bc).w
        assert residual_table(w, lam).max_abs() <= shooting.DEFAULT_RESIDUAL_CAP


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("bc,lam,n_iter", [
    (BoundaryKind.DIRICHLET, -25.0, None),
    (BoundaryKind.DIRICHLET, -60.0, None),
    (BoundaryKind.DIRICHLET, 100.0, None),
    (BoundaryKind.NAVIER_ONE, -96.0, None),
    (BoundaryKind.NAVIER_ONE, 0.0, None),
    (BoundaryKind.NAVIER_ONE, 15.0, 5),
    (BoundaryKind.NAVIER_ONE, 29.2, None),
    (BoundaryKind.NAVIER_TWO, -82.07, None),
    (BoundaryKind.NAVIER_TWO, 11.34, None),
])
def test_roots_carry_the_profile_and_table_of_their_root(bc, lam, n_iter):
    # the evidence a root carries is what a fresh solve at a_star gives
    roots = find_branches(lam, bc, n_iter=n_iter)
    assert roots
    for root in roots:
        profile = solve_profile(root.a_star, lam, bc, n_iter)
        assert _bits(root.w.coeffs) == _bits(profile.w.coeffs)
        assert _bits(root.phi.coeffs) == _bits(profile.phi.coeffs)
        table = residual_table(profile.w, lam)
        assert root.table.grid == table.grid and root.table.lam == lam
        assert _bits(root.table.values) == _bits(table.values)


def test_roots_carry_their_noise_band():
    # the band is the reading's error bound over |B_a|: the rounding count
    # plus the change of the reading from 64 to 128 points; 1e-10 or less
    # on these roots, the steep Dirichlet one included.  A reading does not
    # depend on the other rows of its call, so the band is read again
    # bit for bit
    for lam, bc in [(15.0, BoundaryKind.NAVIER_ONE), (-25.0, BoundaryKind.DIRICHLET)]:
        n = bc.default_iterations
        for root in find_branches(lam, bc):
            (b, b_a), size = shooting._readings(root.a_star, lam, bc, n,
                                                order=1)
            fine, _ = shooting._readings(root.a_star, lam, bc, n, 128)
            error = _rounding_gamma(64, n) * size[0]
            expected = (error + abs(b[0] - fine[0])) / abs(b_a[0])
            assert root.band == expected
            assert 0.0 < root.band <= 1e-10
            lo, hi = root.bracket
            assert lo < root.a_star < hi
            assert hi - lo >= 32.0 * root.band


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_rate_is_rejected(lam):
    with pytest.raises(ValueError, match="finite"):
        find_branches(lam, BoundaryKind.NAVIER_ONE)


@pytest.mark.filterwarnings("error")
def test_window_validation():
    with pytest.raises(ValueError):
        find_branches(1.0, BoundaryKind.NAVIER_ONE, window=(5.0, 5.0))
    # the last window's width overflows: linspace would fill the grid with
    # inf and NaN
    for window in ((-np.inf, 0.0), (0.0, np.inf), (np.nan, 0.0),
                   (-1e308, 1e308)):
        with pytest.raises(ValueError, match="window must be finite"):
            find_branches(1.0, BoundaryKind.NAVIER_ONE, window=window)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _dummy_root(lam, w, a=-1.0):
    return BranchRoot(a_star=a, bc=BoundaryKind.NAVIER_ONE, lam=lam,
                      label=BranchLabel.LOWER, bracket=(a - 0.1, a + 0.1),
                      band=0.0, w=w, phi=recover_phi(w),
                      table=residual_table(w, lam))


def _labels(lam, roots):
    """The labels of roots and the texts of the warnings raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        labels = shooting._labels([root.a_star for root in roots],
                                  [root.phi for root in roots], lam)
    return labels, [str(item.message) for item in caught]


# downward w gives nonnegative dome-shaped profiles, as on real branches;
# phi = (r**2 - 1) (c2 / 2 + c4 (r**2 + 1) / 4) for w = c2 r**2 + c4 r**4
_SMALL = RPoly([0.0, 0.0, -0.1, 0.0, 0.1])   # sup norm 0.025
_MIDDLE = RPoly([0.0, 0.0, -0.5, 0.0, 0.5])
_LARGE = RPoly([0.0, 0.0, -1.0, 0.0, 1.0])   # sup norm 0.25
_ORDERED = "branch profiles are not pointwise ordered on [0, 1]"


@pytest.mark.parametrize("lam", [0.0, 1.0, -1.0])
def test_labels_of_no_roots(lam):
    assert _labels(lam, []) == ([], [])


def test_single_root_is_lower():
    assert _labels(0.5, [_dummy_root(0.5, _LARGE)]) == ([BranchLabel.LOWER], [])


def test_pair_is_ordered_by_sup_norm():
    small, large = _dummy_root(1.0, _SMALL, -2.0), _dummy_root(1.0, _LARGE)
    lower, upper = BranchLabel.LOWER, BranchLabel.UPPER
    assert _labels(1.0, [small, large]) == ([lower, upper], [])
    assert _labels(1.0, [large, small]) == ([upper, lower], [])


def test_smallest_of_three_is_lower_and_the_rest_upper():
    roots = [_dummy_root(0.0, w, a)
             for w, a in ((_LARGE, -3.0), (_SMALL, -2.0), (_MIDDLE, -1.0))]
    assert _labels(0.0, roots) == (
        [BranchLabel.UPPER, BranchLabel.LOWER, BranchLabel.UPPER], [])


def test_exact_sup_norm_tie_goes_to_the_smaller_a():
    left, right = _dummy_root(1.0, _SMALL, -2.0), _dummy_root(1.0, _SMALL, -1.0)
    assert _labels(1.0, [left, right])[0] == [BranchLabel.LOWER,
                                              BranchLabel.UPPER]
    assert _labels(1.0, [right, left])[0] == [BranchLabel.UPPER,
                                              BranchLabel.LOWER]


def test_unordered_pair_warns_once():
    # the upper profile is a trough: the lower dome rises above it
    trough = _dummy_root(1.0, RPoly([0.0, 0.0, 1.0, 0.0, -1.0]))
    labels, caught = _labels(1.0, [_dummy_root(1.0, _SMALL, -2.0), trough])
    assert labels == [BranchLabel.LOWER, BranchLabel.UPPER]
    assert caught == [_ORDERED]
    # once per unordered pair: the ordered upper root adds no warning
    caught = _labels(1.0, [_dummy_root(1.0, _SMALL, -3.0), trough,
                           _dummy_root(1.0, _LARGE)])[1]
    assert caught == [_ORDERED]


def test_label_by_sign_at_negative_rate():
    positive = _dummy_root(-1.0, RPoly([0.0, 0.0, -1.0]), -2.0)
    negative = _dummy_root(-1.0, RPoly([0.0, 0.0, 1.0]))
    assert _labels(-1.0, [positive, negative]) == (
        [BranchLabel.POSITIVE, BranchLabel.NEGATIVE], [])


def test_sign_changing_profile_warns():
    # phi changes sign at r**2 = 1/3 and is positive at r = 1/2
    root = _dummy_root(-1.0, RPoly([0.0, 0.0, -1.0, 0.0, 1.5]))
    assert _labels(-1.0, [root]) == (
        [BranchLabel.POSITIVE],
        ["branch at a=-1 is not sign-definite on [0, 1]"])


def test_boundary_kind_parsing():
    assert BoundaryKind.parse("dirichlet") is BoundaryKind.DIRICHLET
    assert BoundaryKind.parse(" NAVIER1 ") is BoundaryKind.NAVIER_ONE
    with pytest.raises(ValueError):
        BoundaryKind.parse("robin")


@pytest.mark.parametrize("kind,text,message", [
    (BoundaryKind, "robin", "unknown boundary kind 'robin'; expected one of "
                            "dirichlet, navier1, navier2"),
    (BranchLabel, "middle", "unknown branch label 'middle'; expected one of "
                            "lower, upper, positive, negative"),
])
def test_unknown_names_list_the_choices(kind, text, message):
    with pytest.raises(ValueError) as raised:
        kind.parse(text)
    assert str(raised.value) == message


@pytest.mark.parametrize("bc", ALL_BCS)
def test_functional_reproduces_the_residual(bc):
    alpha, beta = bc.functional
    pairs = np.random.default_rng(11).standard_normal((500, 2)) * 1e3
    for w1, w1_prime in pairs.tolist():
        assert alpha * w1 + beta * w1_prime == bc.residual(w1, w1_prime)


def test_default_iteration_depths():
    assert BoundaryKind.DIRICHLET.default_iterations == 6
    assert BoundaryKind.NAVIER_ONE.default_iterations == 7
    assert BoundaryKind.NAVIER_TWO.default_iterations == 7


@pytest.mark.parametrize("depth", [0, -1])
def test_depth_below_one_is_rejected(depth):
    with pytest.raises(ValueError, match="below the minimum"):
        find_branches(15.0, BoundaryKind.NAVIER_ONE, n_iter=depth)
