"""Tests of the benchmark's own helpers.

Run from the root of a source checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


# ---------------------------------------------------------------------------
# tail percentile
# ---------------------------------------------------------------------------

def test_tail_needs_more_than_ten_samples():
    assert stats.tail(range(10)) is None


def test_tail_leaves_exactly_ten_beyond():
    values = list(range(1, 51))[::-1]
    value, percentile, n = stats.tail(values)
    assert (value, percentile, n) == (40, 80.0, 50)
    assert sum(v > value for v in values) == 10


def test_tail_at_the_smallest_sample_count():
    value, percentile, n = stats.tail([5.0] + [9.0] * 10)
    assert (value, n) == (5.0, 11)
    assert percentile == pytest.approx(100.0 / 11)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = __import__("statistics").quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / 14.5)


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------

def span(name, start, end, parent, tag=None):
    return (name, start, end, parent, 0, tag)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("leaf", 2.0, 3.0, 1),
        span("b", 5.0, 7.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_merges_overlapping_children_and_clips_them():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 5.0, 0),
        span("b", 3.0, 6.0, 0),
        span("c", 9.0, 12.0, 0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_summarise_counts_calls_depths_and_children():
    spans = [
        span("shooting.find_branches", 0.0, 1.0, -1, tag=2),
        span("shooting.boundary_residual", 0.1, 0.2, 0, tag=7),
        span("shooting.boundary_residual", 0.3, 0.5, 0, tag=7),
        span("cli.main", 2.0, 3.0, -1, tag="solve"),
    ]
    summary = tracing.summarise(spans)
    assert summary["calls"]["shooting.boundary_residual"] == 2
    assert summary["depth_busy"][7] == pytest.approx(0.3)
    assert summary["results"]["shooting.find_branches"] == 2
    assert summary["child_calls"][("shooting.find_branches",
                                   "shooting.boundary_residual")] == 2
    assert summary["self"]["shooting.find_branches"] == pytest.approx(0.7)
    assert summary["busy"]["cli.main.solve"] == pytest.approx(1.0)


def test_tracer_sees_names_bound_in_the_caller():
    from epibvp import critical, recover, shooting, vim

    original = critical.solve_profile
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert critical.solve_profile is not original
        critical.solve_profile(-1.0, 1.0, shooting.BoundaryKind.NAVIER_ONE)
    finally:
        tracer.uninstall()
    assert critical.solve_profile is original
    assert recover.iterate is vim.iterate
    names = [s[0] for s in tracer.spans]
    assert names[0] == "recover.solve_profile"
    assert "vim.iterate" in names
    assert all(s[3] == 0 for s in tracer.spans[1:] if s[0] == "vim.iterate")


# ---------------------------------------------------------------------------
# seeded generation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda seed, n: wl.point_cases("census", seed, n),
    lambda seed, n: wl.point_cases("oracle", seed, n),
    wl.fold_rounds,
    wl.cli_rounds,
])
def test_same_seed_same_inputs(make):
    assert make(7, 4) == make(7, 4)
    assert make(7, 4) != make(8, 4)


def test_census_and_oracle_streams_differ():
    assert wl.point_cases("census", 3, 2) != wl.point_cases("oracle", 3, 2)


def test_rates_cover_their_range_evenly():
    cases = wl.point_cases("census", 11, 16)
    assert len(cases) == 48
    for bc in wl.BCS:
        lo, hi = wl.lambda_range(bc)
        rates = [c.lam for c in cases if c.bc == bc]
        assert sorted({int(16 * (r - lo) / (hi - lo)) for r in rates}) == list(range(16))


def test_cli_rounds_spread_each_rate_list():
    rounds = wl.cli_rounds(2, 3)
    for bc, rates in rounds[0].sweep:
        lo, hi = wl.lambda_range(bc)
        assert len(rates) == wl.SWEEP_RATES
        assert max(rates) - min(rates) > 0.5 * (hi - lo)
    assert all(0.0 <= lam <= 30.94 for r in rounds for lam in r.table)


def test_fold_brackets_straddle_the_acceptance_band():
    for round_ in wl.fold_rounds(5, 20):
        for search in round_:
            ref, w, tol = wl.REFERENCE[search.bc]
            assert search.lo < ref - w and search.hi > ref + w
            assert search.hi - search.lo == pytest.approx(3 * w)
            assert search.tol == tol


def test_round_count_fills_the_seconds():
    assert wl.rounds_for("fold", 1.0) == 1
    assert wl.rounds_for("census", 9.7 * wl.ROUND_NOMINAL_S["census"]) == 10
    assert wl.rounds_for("census", 10.3 * wl.ROUND_NOMINAL_S["census"]) == 10


# ---------------------------------------------------------------------------
# nominal clock
# ---------------------------------------------------------------------------

def test_a_slow_phase_scales_only_the_calls_made_during_it():
    clock = calibrate.NominalClock()
    # each sample holds half the window; the last ten run at half speed
    sample_s = calibrate.WINDOW_S / 2
    units = [sample_s / calibrate.NOMINAL_UNIT_S] * 10 + [
        sample_s / calibrate.NOMINAL_UNIT_S / 2] * 10
    clock.samples = [(sample_s, units[0])]
    clock.sample = lambda seconds: clock.samples.append((sample_s, units.pop(0)))
    ratios = []
    for _ in range(20):
        _, nominal, raw = clock.call(sum, range(1000))
        ratios.append(nominal / raw)
    assert ratios[9] == pytest.approx(1.0)
    assert ratios[10] == pytest.approx(0.75)
    assert ratios[11] == pytest.approx(0.5)
    assert clock.factor == pytest.approx(16 / 21)


# ---------------------------------------------------------------------------
# failure counting
# ---------------------------------------------------------------------------

def fabricated_runner(branches):
    def census(case):
        outcome = wl.Outcome()
        outcome.time("case", 0.1, 0.1)
        outcome.check(wl.census_failures(case, branches, 10.0))
        return outcome
    return run.Runner("census", SimpleNamespace(census=census))


def test_wrong_branch_count_is_an_unexpected_failure():
    runner = fabricated_runner([])
    runner.run(wl.Case("navier1", 15.0))
    runner.run(wl.Case("navier1", 40.0))
    attempted, failed, correct, codes = runner.summary()
    assert (attempted, failed, correct) == (2, 1, False)
    assert codes == {"branch-count": 1}


def test_known_steep_branch_failure_is_counted_but_correct():
    runner = fabricated_runner([("negative", 2.9, 0.01, 0.0)])
    runner.run(wl.Case("dirichlet", -50.0))
    attempted, failed, correct, codes = runner.summary()
    assert (attempted, failed, correct) == (1, 1, True)
    assert codes == {wl.STEEP_BRANCH_MISSING: 1}


def test_spurious_root_beyond_reach_is_known():
    branches = [("positive", -73.3, 124.0, 0.0), ("positive", -47.0, 0.02, 0.0),
                ("negative", 7.2, 0.04, 0.0)]
    assert wl.census_failures(wl.Case("navier1", -92.0), branches, 10.0) == [
        wl.ROOT_BEYOND_REACH]


def test_known_codes_hold_only_in_their_recorded_range():
    steep_missing = [("negative", 2.9, 0.01, 0.0)]
    assert wl.census_failures(wl.Case("dirichlet", -15.0), steep_missing, 10.0) == [
        "branch-count"]
    assert wl.census_failures(wl.Case("navier1", -50.0), steep_missing, 10.0) == [
        "branch-count"]
    steep_beyond = [("positive", -92.0, 21.0, 0.0), ("negative", 2.9, 0.01, 0.0)]
    assert wl.census_failures(wl.Case("dirichlet", -15.0), steep_beyond, 10.0) == [
        wl.ROOT_BEYOND_REACH]
    assert wl.census_failures(wl.Case("dirichlet", -10.0), steep_beyond, 10.0) == [
        "residual-cap"]
    spurious = [("positive", -74.3, 139.6, 0.0), ("positive", -22.2, 0.004, 0.0),
                ("negative", 7.5, 0.03, 0.0)]
    assert wl.census_failures(wl.Case("navier2", -82.07), spurious, 10.0) == [
        wl.ROOT_BEYOND_REACH]
    spurious_upper = [("upper", -74.5, 2222.0, 0.0), ("upper", -11.9, 0.004, 0.0),
                      ("lower", -6.0, 0.001, 0.0)]
    assert wl.census_failures(wl.Case("navier1", 29.2), spurious_upper, 10.0) == [
        wl.ROOT_BEYOND_REACH]
    too_deep = [("positive", -80.0, 139.6, 0.0)] + spurious[1:]
    assert "residual-cap" in wl.census_failures(wl.Case("navier2", -82.07), too_deep, 10.0)
    extra_and_missing = spurious[:2]
    assert "residual-cap" in wl.census_failures(
        wl.Case("navier2", -82.07), extra_and_missing, 10.0)


def test_dirichlet_deviation_outside_the_recorded_range_is_incorrect():
    def oracle(case):
        outcome = wl.Outcome()
        outcome.check(wl.oracle_failures(case, 2, 2, 0.2))
        return outcome

    runner = run.Runner("oracle", SimpleNamespace(oracle=oracle))
    runner.run(wl.Case("dirichlet", -20.0))
    runner.run(wl.Case("dirichlet", 160.0))
    assert runner.summary()[2] is True
    runner.run(wl.Case("dirichlet", 50.0))
    attempted, failed, correct, codes = runner.summary()
    assert (attempted, failed, correct) == (3, 3, False)
    assert codes == {wl.TRUNCATION_DEVIATION: 2, "deviation": 1}


def test_oracle_count_codes_hold_only_in_their_recorded_range():
    assert wl.oracle_failures(wl.Case("dirichlet", -10.0), 1, 2, 0.0) == [
        "count-mismatch"]
    assert wl.oracle_failures(wl.Case("navier2", 5.0), 3, 2, 0.0, 0) == [
        "count-mismatch"]


def test_census_gate_checks_labels_cap_and_profile_end():
    case = wl.Case("navier2", 5.0)
    good = [("lower", -1.0, 0.001, 0.0), ("upper", -8.0, 0.005, 0.0)]
    assert wl.census_failures(case, good, 10.0) == []
    assert wl.census_failures(
        case, [("lower", -1.0, 0.001, 0.0), ("lower", -8.0, 0.005, 0.0)], 10.0) == ["labels"]
    assert wl.census_failures(
        case, [("lower", -1.0, 11.0, 0.0), ("upper", -8.0, 0.005, 1e-3)], 10.0) == [
        "residual-cap", "phi(1)"]


def test_either_count_is_allowed_inside_the_band():
    for count in (0, 2):
        branches = [("lower", -7.5, 0.0, 0.0), ("upper", -10.2, 0.0, 0.0)][:count]
        assert wl.census_failures(wl.Case("navier1", 31.5), branches, 10.0) == []


def test_oracle_gate_classifies_failures():
    assert wl.oracle_failures(wl.Case("navier1", 5.0), 2, 2, 1e-3) == []
    assert wl.oracle_failures(wl.Case("navier1", 5.0), 2, 2, 0.2) == ["deviation"]
    assert wl.oracle_failures(wl.Case("navier1", 5.0), 2, 1, 0.0) == ["count-mismatch"]
    assert wl.oracle_failures(wl.Case("navier1", -92.0), 3, 2, 0.0, 1) == [
        wl.ROOT_BEYOND_REACH]
    assert wl.oracle_failures(wl.Case("dirichlet", -60.0), 1, 2, 0.0) == [
        wl.STEEP_BRANCH_MISSING]
    assert wl.oracle_failures(wl.Case("dirichlet", 170.0), 0, 2, 0.0) == [
        wl.NEAR_FOLD_COUNT]


def test_fold_gate():
    search = wl.FoldSearch("navier2", 10.5, 12.0, 0.01)
    assert wl.fold_failures(search, 11.34, {6: 11.2, 8: 11.4}, (6, 8)) == []
    assert wl.fold_failures(search, 12.5, {6: 11.2}, (6, 8)) == [
        "lambda-crit", "sensitivity-depths"]


def test_fold_gate_fails_when_a_sensitivity_search_gave_up():
    search = wl.FoldSearch("navier2", 10.5, 12.0, 0.01)
    assert wl.fold_failures(search, 11.34, {6: None, 8: 11.3}, (6, 8)) == [
        "sensitivity-depths"]
    assert wl.fold_failures(search, 11.34, {6: float("nan"), 8: 11.3}, (6, 8)) == [
        "sensitivity-depths"]
