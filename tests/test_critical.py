"""Sweeps, gap tracking and fold location."""

import math
import pickle
from decimal import Context, Decimal, localcontext

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
    shooting,
    sweep,
)
from epibvp.vim import IterationOverflow

from _util import exact_readings, frozen_iterates


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
    sup = {b.label: b.sup_norm for b in record.branches}
    assert sup[BranchLabel.UPPER] > sup[BranchLabel.LOWER] > 0.0


def test_sweep_records_hold_the_roots():
    bc = BoundaryKind.NAVIER_ONE
    (record,) = sweep([15.0], bc)
    assert record.branches == tuple(find_branches(15.0, bc))


def test_sweep_records_survive_pickling():
    # records, roots and all, come back from the command line's --jobs
    # processes as pickles
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
    estimate = find_critical_lambda(bc, 11.33, 11.35, 2e-7, window=window)
    lo, _ = estimate.bracket
    (record,) = sweep([lo], bc, window=window)
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
    values = depth_sensitivity(bc, 5.0, 20.0, 0.5)
    assert set(values) == {6, 8}
    assert values[6] == pytest.approx(11.34, abs=0.8)
    assert values[8] == pytest.approx(_independent_fold(bc, 5.0, 20.0, 8),
                                      abs=0.5)


# the navier2 fold of the depth-7 functional, by Newton on B = 0, dB/da = 0
# with exact dB/da
NAVIER_TWO_FOLD = (-4.435041378889438, 11.342555130624106)


def test_closest_resolved_pair_is_wider_than_its_bands():
    # a rate 1e-10 below the fold, on a window a few gaps wide: the pair is
    # 2.8e-5 apart and each band grows like 1/gap.  Points closer than
    # their bands are one root, so no pair found has bands that cover its
    # gap; at 1e-12 below the fold (2.6e-6 apart) the rounding count of the
    # readings, 2.3e-12 against a peak B of 1.4e-13, merges the pair
    bc = BoundaryKind.NAVIER_TWO
    a, lam = NAVIER_TWO_FOLD
    window = (a - 1.2e-4, a + 1.2e-4)
    (record,) = sweep([lam - 1e-10], bc, window=window)
    assert record.branch_count == 2
    roots = record.branches
    gap = roots[1].a_star - roots[0].a_star
    assert 1e-5 < gap < 1e-4
    assert 1e-8 < roots[0].band + roots[1].band < gap / 2.0
    (record,) = sweep([lam - 1e-12], bc, window=(a - 1.2e-5, a + 1.2e-5))
    assert record.branch_count == 0


# ---------------------------------------------------------------------------
# fold estimate, the count certificate around it and the seed search
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
    return len(find_branches(lam, bc))


def _midpoint_bisection(bc, lo, hi, tol):
    """The count bisection without a fold estimate: midpoints only."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _count(mid, bc) >= 2:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), (lo, hi)


def _seeded_fold(bc, n, lo, hi, tol):
    """The depth-n fold that the search of find_critical_lambda finds from
    the roots at lo."""
    window = shooting.DEFAULT_WINDOW
    a_star = critical._roots_at_lo(bc, n, lo, hi, tol, window)
    return critical._seed(bc, n, lo, hi, tol, window, a_star)


def _independent_fold(bc, lo, hi, n, points=1001):
    """Fold rate from the extremum of B on a dense a-grid between the
    closest roots at lo, found as a root in lam of that extremum."""
    a = sorted(root.a_star for root in find_branches(lo, bc, n_iter=n))
    i = min(range(len(a) - 1), key=lambda j: a[j + 1] - a[j])
    grid = np.linspace(a[i], a[i + 1], points)

    def reading(lam):
        # the coefficient sums w(1) and w'(1) of the frozen monomial steps'
        # rows, so that the reference shares no kernel with the fold or the
        # count
        c = frozen_iterates(grid, lam, n)
        return bc.residual(c.sum(axis=1),
                           (c * np.arange(c.shape[1])).sum(axis=1))

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


def _search_without_a_fold(monkeypatch, bc, lo, hi, tol, **kwargs):
    """The rates that find_critical_lambda counts when Newton finds no fold
    from any lo: it bisects and then raises, after at most the two ends and
    the steps that halve the bracket to tol, and counts no rate twice."""
    monkeypatch.setattr(critical, "_fold", lambda *args: None)
    rates = _scan_counter(monkeypatch)
    with pytest.raises(InvalidBracket, match="Newton finds no fold"):
        find_critical_lambda(bc, lo, hi, tol, **kwargs)
    assert len(rates) <= math.ceil(math.log2((hi - lo) / tol)) + 2, rates
    assert len(set(rates)) == len(rates)
    return rates


@pytest.mark.parametrize("bc", list(BRACKETS))
def test_without_a_fold_the_seed_search_raises(bc, monkeypatch):
    # the search bisects through the midpoints of the plain count
    # bisection, down to its last bracket
    rates = _search_without_a_fold(monkeypatch, bc, *BRACKETS[bc])
    _, bracket = MIDPOINT_RESULTS[bc]
    assert set(bracket) <= set(rates)


@pytest.mark.parametrize("bc", list(BRACKETS))
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_fold_estimate_matches_independent_fold(bc, offset):
    lo, hi, tol = BRACKETS[bc]
    n = bc.default_iterations + offset
    fold = _seeded_fold(bc, n, lo, hi, tol)
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
        shooting._readings(-1e10, 0.0, bc, 7, order=2)
    assert critical._fold(bc, 7, -1e10, 0.0) is None


@pytest.mark.parametrize("reading", [
    # B, B_a, B_lam, B_aa, B_alam
    (1.0, 0.0, 0.0, 0.0, 0.0),      # a singular step
    (1.0, 1.0, 0.0, 0.0, 5e-324),   # a step to lam = -inf
    (1.0, 0.0, 1.0, 1.0, 0.0),      # a step of -1 in lam, forever
])
def test_fold_estimate_gives_up_on_a_bad_newton_step(monkeypatch, reading):
    # every reading gives the same functional and derivatives
    monkeypatch.setattr(shooting, "_readings",
                        lambda *args, **kwargs: (np.array(reading)[:, None],
                                                 None))
    assert critical._fold(BoundaryKind.NAVIER_ONE, 5, -5.0, 10.0) is None


# the folds of the exact default-depth functionals, to 20 digits
EXACT_FOLDS = {
    BoundaryKind.NAVIER_ONE: ("-8.858528655674031851", "31.945962294477911303"),
    BoundaryKind.NAVIER_TWO: ("-4.435041378889439474", "11.342555130624107854"),
    BoundaryKind.DIRICHLET: ("-26.152327024186080230",
                             "168.674949497522217023"),
}


def _exact_fold(bc, n, a, lam):
    """The fold of the exact depth-n functional by Newton on (B, B_a) in
    60-digit decimal arithmetic from (a, lam), with a forward-difference
    Jacobian at step 1e-25: its error slows the convergence but does not
    move the fixed point."""
    with localcontext(Context(prec=60)):
        h = Decimal("1e-25")
        a, lam = Decimal(a), Decimal(lam)

        def reading(a, lam):
            w1, w1_prime, w1_a, w1_a_prime = exact_readings(a, lam, n,
                                                            number=Decimal)
            return bc.residual(w1, w1_prime), bc.residual(w1_a, w1_a_prime)

        for _ in range(20):
            b, b_a = reading(a, lam)
            (b_1, b_a1), (b_2, b_a2) = reading(a + h, lam), reading(a, lam + h)
            j_aa, j_al = (b_1 - b) / h, (b_2 - b) / h
            j_la, j_ll = (b_a1 - b_a) / h, (b_a2 - b_a) / h
            det = j_aa * j_ll - j_al * j_la
            step_a = (b * j_ll - j_al * b_a) / det
            step_lam = (j_aa * b_a - j_la * b) / det
            a, lam = a - step_a, lam - step_lam
            if abs(step_a) + abs(step_lam) < Decimal("1e-40"):
                return a, lam
    raise AssertionError("the decimal Newton did not settle")


@pytest.mark.parametrize("bc", list(BRACKETS))
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_fold_equals_the_exact_fold(bc, offset):
    # the fold of the collocation readings lies within 1e-13 of the exact
    # one; within 9.1e-16 on these nine
    lo, hi, tol = BRACKETS[bc]
    n = bc.default_iterations + offset
    exact = _exact_fold(bc, n, *EXACT_FOLDS[bc])
    if offset == 0:
        for x, digits in zip(exact, EXACT_FOLDS[bc]):
            assert abs(x - Decimal(digits)) <= Decimal("1e-18")
    fold = _seeded_fold(bc, n, lo, hi, tol)
    for x, y in zip(fold, exact):
        assert abs(Decimal(x) - y) <= Decimal("1e-13") * abs(y)


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


@pytest.mark.parametrize("bc", list(BRACKETS))
def test_critical_estimate_reports_the_newton_fold(bc):
    # the exact fold of the default depth, next to the count bracket that
    # certifies the scan
    lo, hi, tol = BRACKETS[bc]
    estimate = find_critical_lambda(bc, lo, hi, tol)
    fold = _seeded_fold(bc, bc.default_iterations, lo, hi, tol)
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


def test_depth_sensitivity_is_certified_below_tol_2e_3():
    # the 1500-point count scan missed the pair 0.45 tol below either
    # neighbouring fold here and reported None; the proxy count sees it
    values = depth_sensitivity(BoundaryKind.NAVIER_TWO, 5.0, 20.0, 1e-3)
    assert values == {6: pytest.approx(11.346251707, abs=1e-8),
                      8: pytest.approx(11.341378061, abs=1e-8)}


@pytest.mark.parametrize("bc", list(BRACKETS))
def test_count_bracket_holds_the_fold_at_tol_1e_4(bc):
    # the count scans left the bracket up to 7.2e-4 below lambda_star and
    # the sensitivities None below tol 2e-3; the proxy count flips at the
    # fold itself
    lo, hi, _ = BRACKETS[bc]
    estimate = find_critical_lambda(bc, lo, hi, 1e-4)
    b_lo, b_hi = estimate.bracket
    assert b_lo <= estimate.lambda_star <= b_hi and b_hi - b_lo <= 1e-4
    values = depth_sensitivity(bc, lo, hi, 1e-4)
    assert all(isinstance(v, float) and math.isfinite(v)
               for v in values.values())


# brackets whose lo lies so far below the fold that Newton from the
# closest pair there finds none: (bc, lo, hi, tol)
WIDE_BRACKETS = [
    (BoundaryKind.NAVIER_ONE, -100.0, 40.0, 1e-2),
    (BoundaryKind.NAVIER_ONE, -100.0, 40.0, 1e-4),
    (BoundaryKind.DIRICHLET, -100.0, 200.0, 1e-1),
    (BoundaryKind.DIRICHLET, -100.0, 200.0, 1e-4),
    (BoundaryKind.NAVIER_TWO, -190.0, 20.0, 1e-2),
    (BoundaryKind.NAVIER_TWO, -190.0, 20.0, 1e-4),
]


@pytest.mark.parametrize("bc,lo,hi,tol", WIDE_BRACKETS)
def test_wide_bracket_seeds_the_fold_in_five_counts(bc, lo, hi, tol,
                                                    monkeypatch):
    # one count at the midpoint raises lo, and Newton from the pair there
    # finds the fold of the README bracket, which the certificate holds
    reference = find_critical_lambda(bc, *BRACKETS[bc]).lambda_star
    rates = _scan_counter(monkeypatch)
    estimate = find_critical_lambda(bc, lo, hi, tol)
    assert len(rates) <= 5 and 0.5 * (lo + hi) in rates, rates
    b_lo, b_hi = estimate.bracket
    assert b_lo <= estimate.lambda_star <= b_hi and b_hi - b_lo <= tol
    assert estimate.lambda_star == pytest.approx(reference, abs=1e-9)
    values = depth_sensitivity(bc, lo, hi, tol)
    assert all(isinstance(v, float) and math.isfinite(v)
               for v in values.values())


def test_certificate_refuses_a_bracket_that_rounding_widens(monkeypatch):
    # 0.45e-14 to either side of the navier2 fold rounds to rates 1.07e-14
    # apart, wider than tol: refused before any count
    _scan_counter(monkeypatch, limit=0)
    assert critical._certified(BoundaryKind.NAVIER_TWO, 7, NAVIER_TWO_FOLD[1],
                               1e-14, shooting.DEFAULT_WINDOW) is None


@pytest.mark.parametrize("with_estimate", [True, False])
def test_tol_below_float_spacing_stops(with_estimate, monkeypatch):
    # the midpoint of adjacent floats is one of them; the search used to
    # scan that rate forever.  With the fold, both counts of the certificate
    # sit on the fold itself, where the count sees no pair, so the search
    # refuses after the two bracket checks and at most two counts.  Without
    # one, the seed search stops at adjacent floats and refuses
    args = (BoundaryKind.NAVIER_TWO, 11.33, 11.35, 1e-300)
    if with_estimate:
        _scan_counter(monkeypatch, limit=4)
        with pytest.raises(InvalidBracket, match="does not certify"):
            find_critical_lambda(*args, window=(-4.7, -4.1))
        return
    rates = sorted(_search_without_a_fold(monkeypatch, *args,
                                          window=(-4.7, -4.1)))
    assert any(np.nextafter(x, math.inf) == y
               for x, y in zip(rates, rates[1:]))


@pytest.mark.parametrize("bc,lo,hi,window", [
    (BoundaryKind.NAVIER_TWO, 5.0, 20.0, shooting.DEFAULT_WINDOW),
    (BoundaryKind.NAVIER_ONE, 20.0, 40.0, shooting.DEFAULT_WINDOW),
    (BoundaryKind.DIRICHLET, 60.0, 200.0, shooting.DEFAULT_WINDOW),
    (BoundaryKind.NAVIER_TWO, 11.33, 11.35, (-4.7, -4.1)),
])
def test_certified_bracket_holds_the_fold_or_is_refused(bc, lo, hi, window):
    # the count merges the pair about 1e-11 below the fold: at tol 1e-12
    # the bracket of the old probe queue lay 1.05e-11 below lambda_star on
    # dirichlet and 4.8e-12 on navier2 11.33:11.35, and at 1e-14 1.4e-14
    # on navier1.  A bracket either holds the fold and is at most tol
    # wide, or the search refuses it with InvalidBracket
    refused = []
    for tol in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14):
        try:
            estimate = find_critical_lambda(bc, lo, hi, tol, window=window)
        except InvalidBracket:
            refused.append(tol)
            continue
        b_lo, b_hi = estimate.bracket
        assert b_lo <= estimate.lambda_star <= b_hi, tol
        assert b_hi - b_lo <= tol
    # and the count resolves every tol down to 1e-10
    assert all(tol < 1e-10 for tol in refused), refused


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


@pytest.mark.parametrize("depth", [7.5, 7.0, True])
def test_depth_that_is_not_an_integer_is_rejected(depth):
    with pytest.raises(ValueError, match="iteration depth must be an integer"):
        find_critical_lambda(BoundaryKind.NAVIER_ONE, 20.0, 40.0, 0.01,
                             n_iter=depth)
    with pytest.raises(ValueError, match="iteration depth must be an integer"):
        depth_sensitivity(BoundaryKind.NAVIER_ONE, 20.0, 40.0, 0.01,
                          n_iter=depth)
