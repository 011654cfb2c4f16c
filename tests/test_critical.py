"""Sweeps, gap tracking and fold location."""

import math
import pickle

import numpy as np
import pytest
from scipy.optimize import brentq

from epibvp import (
    BoundaryKind,
    BranchLabel,
    InvalidBracket,
    NotTwoBranches,
    SweepRecord,
    branch_gap,
    critical,
    depth_sensitivity,
    find_branches,
    find_critical_lambda,
    recover,
    shooting,
    sweep,
)
from epibvp.vim import IterationOverflow, _iterate_coeffs, _iterate_tangents


def test_sweep_positive_rates_navier_one():
    records = sweep([0.0, 15.0], BoundaryKind.NAVIER_ONE)
    for record in records:
        assert record.branch_count == 2
        assert len(record.branches) == 2
        assert {b.label for b in record.branches} == {
            BranchLabel.LOWER, BranchLabel.UPPER,
        }


def test_sweep_negative_rates_navier_two():
    records = sweep([-1.0, -160.0], BoundaryKind.NAVIER_TWO)
    for record in records:
        assert record.branch_count == 2
        assert {b.label for b in record.branches} == {
            BranchLabel.POSITIVE, BranchLabel.NEGATIVE,
        }


def test_sweep_supercritical_dirichlet_is_empty():
    (record,) = sweep([200.0], BoundaryKind.DIRICHLET)
    assert record.branch_count == 0
    assert record.branches == ()


def test_sweep_records_sup_norms():
    (record,) = sweep([15.0], BoundaryKind.NAVIER_ONE)
    sup = {b.label: recover._sup_norm(b.phi) for b in record.branches}
    assert sup[BranchLabel.UPPER] > sup[BranchLabel.LOWER] > 0.0


def test_sweep_records_hold_the_roots():
    bc = BoundaryKind.NAVIER_ONE
    (record,) = sweep([15.0], bc)
    assert record.branches == tuple(find_branches(15.0, bc))


def test_sweep_records_survive_pickling():
    # records, roots and all, cross the command line's process pool
    records = sweep([15.0, 40.0], BoundaryKind.NAVIER_ONE)
    again = pickle.loads(pickle.dumps(records))
    assert again == records
    assert all(isinstance(record, SweepRecord) for record in again)
    for root, copy in zip(records[0].branches, again[0].branches):
        assert copy.phi.coeffs.tobytes() == root.phi.coeffs.tobytes()
        assert copy.w.coeffs.tobytes() == root.w.coeffs.tobytes()
        assert np.array(copy.table.values).tobytes() == \
            np.array(root.table.values).tobytes()


def test_branch_gap_requires_two_branches():
    (record,) = sweep([200.0], BoundaryKind.DIRICHLET)
    with pytest.raises(NotTwoBranches):
        branch_gap(record)


def test_branch_gap_decreases_towards_fold_navier_two():
    records = sweep([0.0, 8.0, 10.0], BoundaryKind.NAVIER_TWO)
    gaps = [branch_gap(record) for record in records]
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


def test_gap_monotonicity_all_boundary_kinds():
    # gaps close with growing rate and open as the rate turns more negative
    cases = [
        (BoundaryKind.NAVIER_ONE, [0.0, 15.0, 31.0], [-1.0, -60.0, -100.0]),
        (BoundaryKind.NAVIER_TWO, [0.0, 8.0, 11.34], [-1.0, -50.0, -160.0]),
        (BoundaryKind.DIRICHLET, [0.0, 100.0, 168.5], [-1.0, -10.0, -25.0]),
    ]
    for bc, closing_rates, opening_rates in cases:
        closing = [branch_gap(r) for r in sweep(closing_rates, bc)]
        assert all(g0 > g1 for g0, g1 in zip(closing, closing[1:])), (bc, closing)
        opening = [branch_gap(r) for r in sweep(opening_rates, bc)]
        assert all(g0 < g1 for g0, g1 in zip(opening, opening[1:])), (bc, opening)


def test_critical_rate_navier_two():
    estimate = find_critical_lambda(BoundaryKind.NAVIER_TWO, 5.0, 20.0, 0.05)
    assert estimate.lambda_crit == pytest.approx(11.34, abs=0.5)
    assert estimate.n_iter_used == 7
    lo, hi = estimate.bracket
    assert hi - lo <= 0.05
    assert lo <= estimate.lambda_crit <= hi


def test_critical_bracket_endpoint_predicate():
    # returned bracket endpoints keep the defining two-roots/no-roots property
    estimate = find_critical_lambda(BoundaryKind.NAVIER_TWO, 5.0, 20.0, 0.5)
    lo, hi = estimate.bracket
    assert len(find_branches(lo, BoundaryKind.NAVIER_TWO)) >= 2
    assert len(find_branches(hi, BoundaryKind.NAVIER_TWO)) == 0


def test_gap_is_small_just_below_the_fold():
    # resolve the fold tightly in a narrow window, then census at the last
    # rate where both branches were still seen
    bc = BoundaryKind.NAVIER_TWO
    window = (-4.7, -4.1)
    estimate = find_critical_lambda(bc, 11.33, 11.35, 2e-7, window=window,
                                    grid_points=1500)
    lo, _ = estimate.bracket
    (record,) = sweep([lo], bc, window=window, grid_points=1500)
    assert record.branch_count == 2
    assert branch_gap(record) <= 1e-3


def test_invalid_brackets():
    with pytest.raises(InvalidBracket):
        find_critical_lambda(BoundaryKind.NAVIER_TWO, 5.0, 8.0, 0.1)
    with pytest.raises(InvalidBracket):
        find_critical_lambda(BoundaryKind.NAVIER_TWO, 15.0, 20.0, 0.1)
    with pytest.raises(InvalidBracket):
        find_critical_lambda(BoundaryKind.NAVIER_TWO, 20.0, 5.0, 0.1)
    with pytest.raises(InvalidBracket):
        find_critical_lambda(BoundaryKind.NAVIER_TWO, 5.0, 20.0, -1.0)


def test_depth_sensitivity_reports_neighbouring_depths():
    bc = BoundaryKind.NAVIER_TWO
    values = depth_sensitivity(bc, 5.0, 20.0, 0.5, grid_points=800)
    assert set(values) == {6, 8}
    assert values[6] == pytest.approx(11.34, abs=0.8)
    assert values[8] == pytest.approx(_independent_fold(bc, 5.0, 20.0, 8),
                                      abs=0.5)


# the navier2 fold of the depth-7 functional, by Newton on B = 0, dB/da = 0
# with exact dB/da
NAVIER_TWO_FOLD = (-4.435041378889438, 11.342555130624106)


def test_closest_resolved_pair_is_wider_than_its_bands():
    # a rate 1e-12 below the fold, on a window a few gaps wide: the pair is
    # 2.8e-6 apart and each band grows like 1/gap, but stays below a sixth
    # of the gap.  The scan keeps a pair only with a reading above the noise
    # floor between the roots, so no scanned pair has bands that cover its gap
    bc = BoundaryKind.NAVIER_TWO
    a, lam = NAVIER_TWO_FOLD
    window = (a - 1.2e-5, a + 1.2e-5)
    (record,) = sweep([lam - 1e-12], bc, window=window)
    assert record.branch_count == 2
    roots = record.branches
    gap = roots[1].a_star - roots[0].a_star
    assert 1e-6 < gap < 1e-5
    assert 1e-8 < roots[0].band + roots[1].band < gap / 2.0


# ---------------------------------------------------------------------------
# fold estimate and the count bisection it steers
# ---------------------------------------------------------------------------

# the README and acceptance brackets: (lo, hi, tol)
BRACKETS = {
    BoundaryKind.NAVIER_TWO: (5.0, 20.0, 0.01),
    BoundaryKind.NAVIER_ONE: (20.0, 40.0, 0.01),
    BoundaryKind.DIRICHLET: (140.0, 200.0, 0.1),
}

# what the plain midpoint bisection returns on BRACKETS: (lambda_crit, bracket)
MIDPOINT_RESULTS = {
    BoundaryKind.NAVIER_TWO: (11.339111328125, (11.33544921875, 11.3427734375)),
    BoundaryKind.NAVIER_ONE: (31.9482421875, (31.943359375, 31.953125)),
    BoundaryKind.DIRICHLET: (168.681640625, (168.65234375, 168.7109375)),
}


def _count(lam, bc):
    return len(find_branches(lam, bc, shooting.DEFAULT_WINDOW,
                             critical._BISECTION_GRID_POINTS))


def _midpoint_bisection(bc, lo, hi, tol):
    """The count bisection without a fold estimate: midpoints only."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _count(mid, bc) >= 2:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), (lo, hi)


def _independent_fold(bc, lo, hi, n, points=1001):
    """Fold rate from the extremum of B on a dense a-grid between the
    closest roots at lo, found as a root in lam of that extremum."""
    a = sorted(root.a_star for root in find_branches(lo, bc, n_iter=n))
    i = min(range(len(a) - 1), key=lambda j: a[j + 1] - a[j])
    grid = np.linspace(a[i], a[i + 1], points)

    def reading(lam):
        # the full kernel, so that the reference shares no shortcut with
        # the scan
        return shooting._boundary_rows(_iterate_coeffs(grid, lam, n), bc)[0]

    sign = np.sign(reading(lo)[points // 2])

    def extremum(lam):
        # the vertex of the parabola through the largest reading and its
        # neighbours
        b = sign * reading(lam)
        k = int(np.clip(np.argmax(b), 1, points - 2))
        y0, y1, y2 = b[k - 1:k + 2]
        return y1 - (y2 - y0) ** 2 / (8.0 * (y0 - 2.0 * y1 + y2))

    return brentq(extremum, lo, hi, xtol=1e-12)


def _scan_counter(monkeypatch, limit=None):
    """Count the branch searches (the rates they scan), raising past limit:
    the calls of shooting._accepted, which the fold scan and the count
    probes call and find_branches goes through."""
    rates = []
    scan = shooting._accepted

    def counted(lam, *args, **kwargs):
        rates.append(lam)
        if limit is not None and len(rates) > limit:
            raise AssertionError(f"more than {limit} scans")
        return scan(lam, *args, **kwargs)

    monkeypatch.setattr(shooting, "_accepted", counted)
    return rates


@pytest.mark.parametrize("bc", list(BRACKETS))
def test_midpoint_reference_matches_recorded_results(bc):
    assert _midpoint_bisection(bc, *BRACKETS[bc]) == MIDPOINT_RESULTS[bc]


@pytest.mark.parametrize("bc", list(BRACKETS))
def test_critical_rate_within_tol_of_midpoint_bisection(bc):
    lo, hi, tol = BRACKETS[bc]
    estimate = find_critical_lambda(bc, lo, hi, tol)
    reference, _ = MIDPOINT_RESULTS[bc]
    assert abs(estimate.lambda_crit - reference) <= tol
    b_lo, b_hi = estimate.bracket
    assert lo <= b_lo < b_hi <= hi and b_hi - b_lo <= tol


@pytest.mark.parametrize("bc", list(BRACKETS))
def test_without_an_estimate_the_bisection_is_unchanged(bc, monkeypatch):
    monkeypatch.setattr(critical, "_fold", lambda *args: None)
    estimate = find_critical_lambda(bc, *BRACKETS[bc])
    assert (estimate.lambda_crit, estimate.bracket) == MIDPOINT_RESULTS[bc]
    assert estimate.a_fold is None and estimate.lambda_star is None


@pytest.mark.parametrize("bc", list(BRACKETS))
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_fold_estimate_matches_independent_fold(bc, offset):
    lo, hi, tol = BRACKETS[bc]
    n = bc.default_iterations + offset
    fold = critical._fold_at_lo(bc, n, lo, hi, tol, shooting.DEFAULT_WINDOW,
                                critical._BISECTION_GRID_POINTS)
    assert fold is not None
    assert fold[1] == pytest.approx(_independent_fold(bc, lo, hi, n),
                                    abs=1e-5)


def test_fold_estimate_gives_up_outside_the_bracket():
    # the closest pair at lam = 0 is the trivial root and the steep branch;
    # Newton from their midpoint leaves the bracket on its first step and
    # settles on the depth-5 fold, which counts only when it lies inside
    bc = BoundaryKind.DIRICHLET
    roots = find_branches(0.0, bc, n_iter=5)
    assert len(roots) == 2
    seed = 0.5 * (roots[0].a_star + roots[1].a_star)
    a_fold, lam = critical._fold(bc, 5, seed, 0.0, 0.0, 200.0)
    assert (a_fold, lam) == (pytest.approx(-26.09208, abs=1e-5),
                             pytest.approx(168.45763, abs=1e-5))
    assert critical._fold(bc, 5, seed, 0.0, 0.0, 150.0) is None


def test_fold_estimate_gives_up_when_the_iterates_overflow():
    bc = BoundaryKind.NAVIER_ONE
    with pytest.raises(IterationOverflow):
        _iterate_tangents(-1e10, 0.0, 7, second=True)
    assert critical._fold(bc, 7, -1e10, 0.0) is None


@pytest.mark.parametrize("reading", [
    # B, B_a, B_lam, B_aa, B_alam
    (1.0, 0.0, 0.0, 0.0, 0.0),      # a singular step
    (1.0, 1.0, 0.0, 0.0, 5e-324),   # a step to lam = -inf
    (1.0, 0.0, 1.0, 1.0, 0.0),      # a step of -1 in lam, forever
])
def test_fold_estimate_gives_up_on_a_bad_newton_step(monkeypatch, reading):
    # every kernel call reads the same functional and derivatives
    monkeypatch.setattr(shooting, "_boundary_rows",
                        lambda rows, bc: (np.array(reading), None))
    assert critical._fold(BoundaryKind.NAVIER_ONE, 5, -5.0, 10.0) is None


# the benchmark's fold searches: lo between 2w and w below the reference
# rate, a span of 3w, at the base depth and one above and below
BENCHMARK_FOLDS = {
    BoundaryKind.DIRICHLET: (169.0, 10.0, 0.1),
    BoundaryKind.NAVIER_ONE: (31.94, 1.0, 0.01),
    BoundaryKind.NAVIER_TWO: (11.34, 0.5, 0.01),
}


@pytest.mark.parametrize("bc", list(BENCHMARK_FOLDS))
@pytest.mark.parametrize("shift", [1.0, 2.0])
def test_benchmark_searches_take_four_scans(bc, shift, monkeypatch):
    ref, width, tol = BENCHMARK_FOLDS[bc]
    lo = ref - width * shift
    rates = _scan_counter(monkeypatch)
    for offset in (-1, 0, 1):
        rates.clear()
        estimate = find_critical_lambda(bc, lo, lo + 3.0 * width, tol,
                                        n_iter=bc.default_iterations + offset)
        assert len(rates) == 4, rates
        b_lo, b_hi = estimate.bracket
        assert b_hi - b_lo <= tol


def test_two_branch_probe_stops_at_the_second_root(monkeypatch):
    # the probe below the fold finds the pair at a = -27 ... -4 in the top
    # blocks of the window (-120, 20) and scans no further
    bc = BoundaryKind.NAVIER_ONE
    lo, hi, tol = BRACKETS[bc]
    estimate = find_critical_lambda(bc, lo, hi, tol)
    scanned = []
    scan = shooting._scan

    def counted(a, *args):
        scanned.append(a.size)
        return scan(a, *args)

    monkeypatch.setattr(shooting, "_scan", counted)
    probe = estimate.lambda_star - critical._PROBE_OFFSET * tol
    assert critical._branch_count(probe, bc, None, shooting.DEFAULT_WINDOW,
                                  critical._BISECTION_GRID_POINTS) == 2
    assert 0 < sum(scanned) <= critical._BISECTION_GRID_POINTS // 2
    # the count of the full search is the same
    assert _count(probe, bc) == 2


@pytest.mark.parametrize("bc", list(BRACKETS))
def test_critical_estimate_reports_the_newton_fold(bc):
    # the exact fold of the default depth, next to the count bracket that
    # certifies the scan
    lo, hi, tol = BRACKETS[bc]
    estimate = find_critical_lambda(bc, lo, hi, tol)
    fold = critical._fold_at_lo(bc, bc.default_iterations, lo, hi, tol,
                                shooting.DEFAULT_WINDOW,
                                critical._BISECTION_GRID_POINTS)
    assert (estimate.a_fold, estimate.lambda_star) == fold
    if bc is BoundaryKind.NAVIER_TWO:
        assert estimate.a_fold == pytest.approx(NAVIER_TWO_FOLD[0], abs=1e-9)
        assert estimate.lambda_star == pytest.approx(NAVIER_TWO_FOLD[1],
                                                     abs=1e-9)


@pytest.mark.parametrize("bc", list(BRACKETS))
def test_depth_sensitivity_takes_five_scans(bc, monkeypatch):
    # one scan at lo for the depth-n fold, then a count on either side of
    # the Newton fold at each neighbouring depth
    lo, hi, tol = BRACKETS[bc]
    rates = _scan_counter(monkeypatch)
    values = depth_sensitivity(bc, lo, hi, tol)
    assert len(rates) == 5, rates
    n = bc.default_iterations
    assert set(values) == {n - 1, n + 1}
    for depth, value in values.items():
        assert value == pytest.approx(_independent_fold(bc, lo, hi, depth),
                                      abs=1e-5)


def test_depth_sensitivity_follows_the_fold_past_hi():
    # the depth-6 fold (11.34625) lies above hi; Newton finds it there and
    # the count check certifies it
    bc = BoundaryKind.NAVIER_TWO
    values = depth_sensitivity(bc, 11.30, 11.345, 0.01)
    assert values[6] > 11.345
    assert values[6] == pytest.approx(_independent_fold(bc, 11.30, 11.35, 6),
                                      abs=1e-5)
    assert values[8] == pytest.approx(_independent_fold(bc, 11.30, 11.345, 8),
                                      abs=1e-5)


def test_depth_sensitivity_around_the_depth_used():
    bc = BoundaryKind.NAVIER_TWO
    assert set(depth_sensitivity(bc, 5.0, 20.0, 0.5, n_iter=6)) == {5, 7}
    # a neighbouring depth outside 1..MAX_DEPTH has no value
    values = depth_sensitivity(bc, 5.0, 20.0, 0.5, n_iter=1)
    assert values[0] is None and set(values) == {0, 2}


def test_depth_sensitivity_is_none_where_the_count_cannot_certify():
    # 0.45 tol below either neighbouring fold the 1500-point scan no longer
    # sees the pair, so the count check fails and no value is reported
    values = depth_sensitivity(BoundaryKind.NAVIER_TWO, 5.0, 20.0, 1e-3)
    assert values == {6: None, 8: None}


@pytest.mark.parametrize("with_estimate", [True, False])
def test_tol_below_float_spacing_stops(with_estimate, monkeypatch):
    # the midpoint of adjacent floats is one of them; the search used to
    # scan that rate forever
    if not with_estimate:
        monkeypatch.setattr(critical, "_fold", lambda *args: None)
    rates = _scan_counter(monkeypatch, limit=200)
    estimate = find_critical_lambda(BoundaryKind.NAVIER_TWO, 11.33, 11.35,
                                    1e-300, window=(-4.7, -4.1),
                                    grid_points=200)
    lo, hi = estimate.bracket
    assert np.nextafter(lo, math.inf) == hi
    assert len(set(rates)) == len(rates)


@pytest.mark.parametrize("lo,hi,tol", [
    (math.nan, 20.0, 0.01), (5.0, math.nan, 0.01), (-math.inf, 20.0, 0.01),
    (5.0, math.inf, 0.01), (5.0, 20.0, math.nan), (5.0, 20.0, math.inf),
])
def test_non_finite_bracket_is_rejected_before_any_scan(lo, hi, tol,
                                                        monkeypatch):
    _scan_counter(monkeypatch, limit=0)
    with pytest.raises(InvalidBracket):
        find_critical_lambda(BoundaryKind.NAVIER_TWO, lo, hi, tol)
    with pytest.raises(InvalidBracket):
        depth_sensitivity(BoundaryKind.NAVIER_TWO, lo, hi, tol)
