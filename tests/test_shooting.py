"""Branch location, classification and root quality."""

import warnings

import numpy as np
import pytest

from epibvp import (
    BoundaryKind,
    BranchLabel,
    BranchRoot,
    RPoly,
    boundary_residual,
    evaluate,
    find_branches,
    recover_phi,
    residual_table,
    solve_profile,
)
from epibvp import recover, shooting
from epibvp.vim import IterationOverflow, _iterate_coeffs, _iterate_tangents

from _util import ALL_BCS, GRID_101


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
            achieved = abs(boundary_residual(root.a_star, lam, bc))
            _, floor = shooting._boundary_rows(
                _iterate_coeffs(root.a_star, lam, bc.default_iterations), bc)
            assert achieved <= max(1e-11, floor[0])


def test_grid_refinement_stability():
    bc = BoundaryKind.NAVIER_ONE
    coarse = find_branches(15.0, bc, grid_points=4000)
    fine = find_branches(15.0, bc, grid_points=8000)
    assert len(coarse) == len(fine)
    for c_root, f_root in zip(coarse, fine):
        assert abs(c_root.a_star - f_root.a_star) <= 1e-9


@pytest.mark.parametrize("bc", ALL_BCS)
def test_trivial_root_exact_at_zero_rate(bc):
    roots = find_branches(0.0, bc)
    trivial = min(roots, key=lambda r: abs(r.a_star))
    assert abs(trivial.a_star) <= 1e-13


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


def test_one_resolved_sign_change_vouches_for_one_bracket():
    # on this window every reading from a = -281 to -69 lies under its
    # noise floor, and the resolved readings around that span have opposite
    # signs; 40 of the sign changes inside it, at a = -86.3 to -74.2, have
    # a residual table below the cap
    roots = find_branches(-150.0, BoundaryKind.NAVIER_ONE, window=(-300.0, 300.0))
    assert [root.label for root in roots] == [BranchLabel.NEGATIVE]
    assert abs(roots[0].a_star - 10.13) < 0.01


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


def _recorded_certificates(monkeypatch):
    """The certified mask of every block the scan reads, in order."""
    masks = []
    certify = shooting._certify

    def recorded(c, lam, bc):
        b, sure = certify(c, lam, bc)
        masks.append(sure)
        return b, sure

    monkeypatch.setattr(shooting, "_certify", recorded)
    return masks


def test_scan_equals_point_evaluations(monkeypatch):
    # the signs and the resolution equal those of the pointwise readings
    # at every point, and the values equal them wherever the scan could
    # not certify its reading; by default the blocks hold 992, 504 and
    # 254 rows at depths 5, 6 and 7, and the last step takes 64
    bc, lam = BoundaryKind.NAVIER_ONE, 15.0
    xs = np.linspace(-120.0, 20.0, 1000)
    for depth in (5, 6, 7):
        points = np.array([boundary_residual(x, lam, bc, depth) for x in xs])
        floors = np.concatenate([
            shooting._boundary_rows(_iterate_coeffs(x, lam, depth), bc)[1]
            for x in xs])
        for block in (None, 1, 7, 100):
            with monkeypatch.context() as patch:
                if block is not None:
                    patch.setattr(shooting, "_block_rows", lambda n: block)
                    patch.setattr(shooting, "_BLOCK", block)
                masks = _recorded_certificates(patch)
                values, resolved = shooting._scan(xs, lam, bc, depth)
            sure = np.concatenate(masks)
            # at depth 5 no reading lies near its floor
            assert sure.size == xs.size and sure.mean() > 0.6
            assert sure.all() == (depth == 5)
            assert np.array_equal(np.sign(values), np.sign(points))
            assert np.array_equal(resolved, np.abs(points) > floors)
            assert np.array_equal(values[~sure], points[~sure])


def test_block_rows_follow_the_depth():
    assert [shooting._block_rows(n) for n in (1, 5, 6, 7, 8, 10)] == \
        [10922, 992, 504, 254, 127, 64]
    with pytest.raises(ValueError, match="below the minimum"):
        shooting._block_rows(0)


@pytest.mark.parametrize("bc,lam", [
    (BoundaryKind.NAVIER_ONE, 15.0),
    (BoundaryKind.NAVIER_ONE, -100.0),
    (BoundaryKind.NAVIER_TWO, 8.0),
    (BoundaryKind.DIRICHLET, 15.0),
    (BoundaryKind.DIRICHLET, -25.0),
])
def test_certified_rows_agree_near_roots_and_in_the_noise(bc, lam):
    # rows 1e-12 to 1e-3 from each root and across the noise band at
    # a < -71, where the readings straddle their floors
    n = bc.default_iterations
    offsets = np.geomspace(1e-12, 1e-3, 46)
    a = np.concatenate(
        [root.a_star + side * offsets
         for root in find_branches(lam, bc) for side in (-1.0, 1.0)]
        + [np.linspace(-120.0, -71.0, 700)])
    b_hat, sure = shooting._certify(_iterate_coeffs(a, lam, n - 1), lam, bc)
    b, floor = shooting._boundary_rows(_iterate_coeffs(a, lam, n), bc)
    assert sure.any() and not sure.all()
    assert np.array_equal(np.sign(b_hat[sure]), np.sign(b[sure]))
    assert (np.abs(b[sure]) > floor[sure]).all()


def test_rows_that_overflow_in_the_last_step_are_not_certified():
    # near a = -22150 the first six steps stay finite and the mass bound
    # reads about 1e305, but the last step overflows
    a = np.linspace(-22200.0, -22100.0, 50)
    with pytest.raises(IterationOverflow, match="at depth 7"):
        shooting._scan(a, 15.0, BoundaryKind.NAVIER_ONE, 7)


def _exact_scan(a, lam, bc, n):
    """The scan without certification: every reading from the full kernel."""
    b, floor = shooting._boundary_rows(_iterate_coeffs(a, lam, n), bc)
    return b, np.abs(b) > floor


def _branch_record(lam, bc, window, grid_points, n_iter):
    """Every field of the roots, with the warnings and the exception."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            roots = find_branches(lam, bc, window, grid_points, n_iter=n_iter)
            outcome = [(r.a_star, r.band, r.bracket, r.label, _bits(r.w.coeffs),
                        _bits(r.phi.coeffs), _bits(r.table.values),
                        r.table.grid)
                       for r in roots]
        except Exception as error:
            outcome = (type(error), str(error))
    return outcome, [(w.category, str(w.message)) for w in caught]


_DEFAULT = shooting.DEFAULT_WINDOW
_NAVIER_ONE, _NAVIER_TWO = BoundaryKind.NAVIER_ONE, BoundaryKind.NAVIER_TWO
_DIRICHLET = BoundaryKind.DIRICHLET


@pytest.mark.parametrize("lam,bc,window,grid_points,n_iter", [
    *[(lam, bc, _DEFAULT, 4000, n) for bc in ALL_BCS
      for lam, n in ((15.0, 1), (15.0, 5), (0.0, 6), (-50.0, 7), (8.0, 8))],
    *[(lam, bc, (-300.0, 300.0), 4000, None) for bc in ALL_BCS
      for lam in (-300.0, -100.0)],
    (-130.0, _NAVIER_ONE, _DEFAULT, 4000, None),
    (-70.0, _DIRICHLET, _DEFAULT, 4000, None),
    (-120.0, _NAVIER_TWO, _DEFAULT, 4000, None),
    (31.9, _NAVIER_ONE, _DEFAULT, 1500, 8),
    (11.34, _NAVIER_TWO, _DEFAULT, 1500, 6),
    (169.0, _DIRICHLET, _DEFAULT, 1500, 5),
    (15.0, _NAVIER_ONE, (-1e200, 0.0), 4000, None),
    (15.0, _DIRICHLET, (-1e308, 1e308), 4000, None),
    (0.0, _NAVIER_TWO, (-1e5, 0.0), 4000, 7),
    (15.0, _DIRICHLET, (-22200.0, -22100.0), 4000, 7),
])
def test_certified_scan_gives_the_exact_scans_branches(
        monkeypatch, lam, bc, window, grid_points, n_iter):
    certified = _branch_record(lam, bc, window, grid_points, n_iter)
    monkeypatch.setattr(shooting, "_scan", _exact_scan)
    assert certified == _branch_record(lam, bc, window, grid_points, n_iter)


def test_kernel_calls_per_search(monkeypatch):
    calls = {"_iterate_coeffs": 0, "_iterate_tangents": 0}
    for name in calls:
        def counted(*args, _kernel=getattr(shooting, name), _name=name):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(shooting, name, counted)
    assert len(find_branches(15.0, BoundaryKind.NAVIER_ONE)) == 2
    assert calls["_iterate_tangents"] <= 8
    calls.update(_iterate_coeffs=0)
    # the depth-6 scan of 4000 points, in blocks of 127 rows
    find_branches(15.0, BoundaryKind.DIRICHLET)
    assert calls["_iterate_coeffs"] <= 32


def _bisect_one(f, lo, hi, f_lo):
    # one bracket at a time down to float resolution, the reference for
    # the Newton polish
    if lo < 0.0 < hi and f(0.0) == 0.0:
        return 0.0
    best_x, best_f = lo, abs(f_lo)
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return best_x
        f_mid = f(mid)
        if abs(f_mid) < best_f:
            best_x, best_f = mid, abs(f_mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid


@pytest.mark.parametrize("bc,lam,a_min", [
    (BoundaryKind.NAVIER_ONE, 0.0, -70.0),
    (BoundaryKind.NAVIER_ONE, 15.0, -70.0),
    # includes the steep root and some of the noise crossings around it
    (BoundaryKind.DIRICHLET, -25.0, -90.0),
])
def test_polish_matches_bisection(bc, lam, a_min):
    n = bc.default_iterations
    xs = np.linspace(-120.0, 20.0, 4000)
    values = np.array([boundary_residual(x, lam, bc) for x in xs])
    i = np.flatnonzero(values[:-1] * values[1:] < 0.0)
    i = i[xs[i] > a_min]
    lo, hi = xs[i], xs[i + 1]
    lo, hi = np.append(lo, xs[5]), np.append(hi, xs[5])  # a degenerate bracket
    f_lo = np.array([boundary_residual(x, lam, bc) for x in lo])

    def readings(a):
        c, c_a = _iterate_tangents(a, lam, n)
        b, floor = shooting._boundary_rows(c, bc)
        return b, floor, shooting._boundary_rows(c_a, bc)[0], c

    roots, achieved, floors, bands, rows = shooting._polish(lo, hi, f_lo,
                                                            lam, bc, n)
    assert roots[-1] == lo[-1]
    for k in range(lo.size):
        expected = _bisect_one(lambda a: boundary_residual(a, lam, bc),
                               lo[k], hi[k], f_lo[k])
        assert abs(roots[k] - expected) <= bands[k]
        b, floor, slope, row = readings(np.array([roots[k]]))
        assert achieved[k] == abs(b[0]) and floors[k] == floor[0]
        assert bands[k] == floor[0] / abs(slope[0])
        assert np.array_equal(rows[k], row[0])
    if lam == 0.0:
        assert 0.0 in roots


def test_roots_carry_their_noise_band():
    # off the steep branch a root is fixed to 1e-11 or better; the steep
    # Dirichlet root only to about 2e-2 at lam = -25
    for lam, bc in [(15.0, BoundaryKind.NAVIER_ONE), (-25.0, BoundaryKind.DIRICHLET)]:
        for root in find_branches(lam, bc):
            c, c_a = _iterate_tangents(root.a_star, lam, bc.default_iterations)
            _, floor = shooting._boundary_rows(c, bc)
            slope = shooting._boundary_rows(c_a, bc)[0]
            assert root.band == floor[0] / abs(slope[0])
            assert root.band <= (3e-2 if root.a_star < -80.0 else 1e-11)


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
    with pytest.raises(ValueError):
        find_branches(1.0, BoundaryKind.NAVIER_ONE, grid_points=50)


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


def test_default_iteration_depths():
    assert BoundaryKind.DIRICHLET.default_iterations == 6
    assert BoundaryKind.NAVIER_ONE.default_iterations == 7
    assert BoundaryKind.NAVIER_TWO.default_iterations == 7


@pytest.mark.parametrize("depth", [0, -1])
def test_depth_below_one_is_rejected(depth):
    with pytest.raises(ValueError, match="below the minimum"):
        find_branches(15.0, BoundaryKind.NAVIER_ONE, n_iter=depth)
