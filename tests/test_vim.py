"""Defect, correction steps, symbolic mode and the multiplier conditions."""

import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from epibvp import (
    BoundaryKind,
    DomainError,
    IterationBudgetExceeded,
    IterationOverflow,
    NonIntegrableDefect,
    RPoly,
    VimProblem,
    boundary_residual,
    evaluate,
    find_branches,
    iterate,
    iterate_from,
    multiplier,
    multiplier_residuals,
    ode_defect,
    solve_profile,
    symbolic_iterate,
    vim_step,
)
from epibvp import vim
from epibvp.vim import (
    MAX_DEPTH,
    _basis,
    _chebyshev,
    _collocation,
    _collocation_readings,
    _gauss,
    _prolongation,
    _quadratures,
    _rounding_gamma,
    _square,
    multiplier_dt,
    multiplier_dtt,
)

from _util import (
    GRID_101,
    _frozen_convolve,
    _frozen_run,
    exact_readings,
    frozen_collocation_matrices,
    frozen_collocation_readings,
    frozen_iterates,
    frozen_rounding_gamma,
    lower_branch_root,
    sup_on_grid,
)

rng = np.random.default_rng(42)


# ---------------------------------------------------------------------------
# defect
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a,lam", [(1.0, 0.0), (2.5, -3.0), (-4.0, 7.5)])
def test_defect_of_start_term(a, lam):
    # hand expansion: the linear operator annihilates r^2, leaving only
    # -(a^2 + lam)/2 t^4 from the square and the forcing
    defect = ode_defect(RPoly([0.0, 0.0, a]), lam)
    expected = RPoly([0.0, 0.0, 0.0, 0.0, -0.5 * (a * a + lam)])
    assert defect == expected


def test_defect_of_trivial_solution():
    assert ode_defect(RPoly.zero(), 0.0) == RPoly.zero()


def test_defect_of_linearised_closed_form_is_second_order_small():
    lam = 0.01
    w = RPoly([0.0, 0.0, -lam / 16.0, 0.0, lam / 16.0])
    defect = ode_defect(w, lam)
    assert sup_on_grid(defect) <= 1e-6


def test_defect_has_no_low_order_terms():
    for _ in range(20):
        coeffs = np.concatenate([[0.0, 0.0], rng.uniform(-2.0, 2.0, size=6)])
        defect = ode_defect(RPoly(coeffs), rng.uniform(-5.0, 5.0))
        assert defect.coefficient(0) == 0.0
        assert defect.coefficient(1) == 0.0


# ---------------------------------------------------------------------------
# one correction step
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a,lam", [(1.0, 0.0), (1.0, 1.0), (-2.0, 3.0), (0.5, -1.0)])
def test_step_from_start_term(a, lam):
    w1 = vim_step(RPoly([0.0, 0.0, a]), lam)
    assert w1.coefficient(2) == a
    assert w1.coefficient(4) == pytest.approx((a * a + lam) / 24.0, rel=1e-14)
    assert w1.degree <= 4


def test_second_step_matches_closed_form():
    # w2 = a^4 r^8/64512 + a^3 r^6/720 + a^2 lam r^8/32256 + a^2 r^4/18
    #    + a lam r^6/720 + a r^2 + lam^2 r^8/64512 + lam r^4/18
    for a, lam in [(1.0, 0.0), (2.0, 5.0), (-3.0, -1.0)]:
        w2 = vim_step(vim_step(RPoly([0.0, 0.0, a]), lam), lam)
        assert w2.coefficient(2) == a
        assert w2.coefficient(4) == pytest.approx((a * a + lam) / 18.0, rel=1e-13)
        assert w2.coefficient(6) == pytest.approx(
            (a ** 3 + a * lam) / 720.0, rel=1e-13)
        assert w2.coefficient(8) == pytest.approx(
            (a ** 4 + 2 * a * a * lam + lam * lam) / 64512.0, rel=1e-13)


def test_step_fixed_point_at_zero():
    assert vim_step(RPoly.zero(), 0.0) == RPoly.zero()


def test_step_degree_bound():
    w = RPoly(np.concatenate([[0.0, 0.0], rng.uniform(-1.0, 1.0, size=7)]))
    assert vim_step(w, 1.0).degree <= 2 * w.degree


# ---------------------------------------------------------------------------
# full iteration
# ---------------------------------------------------------------------------

def test_iterate_trivial():
    assert iterate(VimProblem(lam=0.0, a=0.0, n_iter=7)) == RPoly.zero()


def test_iterate_two_steps_at_unit_coefficient():
    w = iterate(VimProblem(lam=0.0, a=1.0, n_iter=2))
    expected = [0.0, 0.0, 1.0, 0.0, 1.0 / 18.0, 0.0, 1.0 / 720.0, 0.0, 1.0 / 64512.0]
    assert np.allclose(w.coeffs, expected, rtol=1e-14, atol=0.0)


def test_quadratic_coefficient_is_preserved():
    # the defect has minimum degree 4, so the kernel never feeds r^2 back
    for a in rng.uniform(-10.0, 10.0, size=5):
        w = iterate(VimProblem(lam=0.0, a=a, n_iter=7))
        assert w.coefficient(2) == a


def test_iterate_validates_depth():
    for depth in (0, 11):
        with pytest.raises(ValueError):
            VimProblem(lam=0.0, a=1.0, n_iter=depth)


# start counts per call around the row tiles and one block of 64 rows
SHORT_COUNTS = (*range(1, 10), 63, 64, 65)


def test_kernel_rows_do_not_depend_on_their_block():
    # the fold search's Newton step reads the five blocks of one row
    a = np.linspace(-120.0, 20.0, 97)
    readings = _collocation_readings(a, 15.0, 7, order=2)
    for parts in ([a[i:i + 1] for i in (0, 48, 96)],
                  np.split(a, [1, 10, 48, 49, 90]),
                  [a[-n:] for n in SHORT_COUNTS]):
        got = [_collocation_readings(x, 15.0, 7, order=2) for x in parts]
        index = np.searchsorted(a, np.concatenate(parts))
        for i, whole in enumerate(readings):
            assert np.array_equal(np.concatenate([g[i] for g in got], axis=1),
                                  whole[:, index])


# ---------------------------------------------------------------------------
# the kernel against a frozen copy of its row-major steps
# ---------------------------------------------------------------------------

def _same_bytes(actual, expected):
    assert len(actual) == len(expected)
    for x, y in zip(actual, expected):
        assert x.shape == y.shape and x.flags.c_contiguous
        assert x.tobytes() == y.tobytes()


def _iterates(a, lam, depth):
    # the kernel's iterate and the frozen steps' one from a r**2
    return (iterate(VimProblem(lam=lam, a=a, n_iter=depth)).coeffs,
            RPoly(frozen_iterates(a, lam, depth)[0]).coeffs)


# counts of start values: few and many
START_COUNTS = (1, 2, 3, 15, 16, 64, 254)


@pytest.mark.parametrize("rows", START_COUNTS)
@pytest.mark.parametrize("depth", range(1, MAX_DEPTH + 1))
def test_kernel_equals_the_frozen_row_major_steps(depth, rows):
    # one kernel call per start value against one row of a frozen block,
    # whose rows do not depend on each other
    seeded = np.random.default_rng(100 * depth + rows)
    a = seeded.uniform(-120.0, 20.0, rows)
    lam = float(seeded.choice([-300.0, -50.0, 0.0, 15.0, 31.9, 168.7]))
    for x, want in zip(a, frozen_iterates(a, lam, depth)):
        got = iterate(VimProblem(lam=lam, a=x, n_iter=depth)).coeffs
        _same_bytes([got], [RPoly(want).coeffs])


@pytest.mark.parametrize("nonlinear", [True, False])
def test_r_power_steps_equal_the_frozen_row_major_steps(nonlinear):
    # vim_step and iterate_from from start polynomials other than a r**2
    seeded = np.random.default_rng(11)
    for _ in range(20):
        w0 = RPoly(np.concatenate([[0.0, 0.0], seeded.uniform(-3.0, 3.0, 5)]))
        lam = float(seeded.uniform(-50.0, 50.0))
        for depth, actual in ((1, vim_step(w0, lam, nonlinear=nonlinear)),
                              (4, iterate_from(w0, lam, 4,
                                               nonlinear=nonlinear))):
            expected = _frozen_run(w0.coeffs[None], lam, depth, 1,
                                   nonlinear)[0]
            assert actual.coeffs.tobytes() == RPoly(expected).coeffs.tobytes()


def _outcome(run):
    # the coefficients of a run, or the message it raised, and the
    # floating-point warnings it gave
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = [run()]
        except IterationOverflow as exc:
            result = str(exc)
    return result, {str(w.message) for w in caught}


@pytest.mark.parametrize("rows", START_COUNTS)
def test_overflowing_rows_equal_the_frozen_row_major_steps(rows):
    # an iterate that overflows passes through the steps as inf and NaN
    # until a step or the end of the run raises; the shallower runs finish
    # or raise at every depth on the way
    seeded = np.random.default_rng(rows)
    for depth, big in ((4, -1e200), (6, -1e12), (7, -1e5), (8, -1e5),
                       (9, 1e4)):
        a = seeded.uniform(-120.0, 20.0, rows)
        a[seeded.integers(0, rows, 1 + rows // 8)] = big
        for x in a:
            for n in range(1, depth + 1):
                actual, actual_warnings = _outcome(
                    lambda: iterate(VimProblem(lam=1.0, a=x, n_iter=n)).coeffs)
                expected, expected_warnings = _outcome(
                    lambda: RPoly(frozen_iterates(x, 1.0, n)[0]).coeffs)
                assert actual_warnings == expected_warnings
                if isinstance(expected, str):
                    assert actual == expected
                else:
                    _same_bytes(actual, expected)
            if x == big:
                assert isinstance(expected, str)


@pytest.mark.parametrize("bc", list(BoundaryKind))
def test_boundary_readings_equal_the_frozen_row_major_steps(bc):
    # B of the kernel's iterates from the coefficient sums w(1) and w'(1),
    # coefficient k holding the power k
    for lam in (-50.0, 0.0, 15.0):
        for n in (5, 6, 7, 8):
            for a in (-97.3, -33.3, 0.0, 4.1):
                got, want = (bc.residual(c.sum(), (c * np.arange(c.size)).sum())
                             for c in _iterates(a, lam, n))
                assert np.float64(got).tobytes() == np.float64(want).tobytes()


# ---------------------------------------------------------------------------
# collocation kernel
# ---------------------------------------------------------------------------

def test_exact_readings_match_the_monomial_kernel():
    c = iterate(VimProblem(lam=15.0, a=-3.0, n_iter=5)).coeffs
    w1, w1_prime = exact_readings(-3.0, 15.0, 5)[:2]
    k = np.arange(c.size)
    assert float(w1) == pytest.approx(c.sum(), rel=1e-14)
    assert float(w1_prime) == pytest.approx((k * c).sum(), rel=1e-14)


@pytest.mark.parametrize("a,lam", [(-3.0, 15.0), (-17.24, 15.0), (0.5, -3.0),
                                   (-87.28, -25.0), (-99.36, -70.0),
                                   (-60.0, 100.0)])
@pytest.mark.parametrize("n", range(1, 7))
def test_collocation_readings_equal_the_exact_iterate(a, lam, n):
    # with 2**n <= p the collocation iterate is the exact one, so the
    # readings differ from it by rounding alone: within the rounding count
    # of their last sums plus their change from p to 2 p points
    exact = np.array([float(x) for x in exact_readings(a, lam, n)])
    for p in sorted({max(2 ** n, 2), 64}):
        readings, sums = _collocation_readings(a, lam, n, p, order=1)
        fine, _ = _collocation_readings(a, lam, n, 2 * p, order=1)
        bound = (_rounding_gamma(p, n) * sums + np.abs(readings - fine)).ravel()
        assert (np.abs(readings.ravel() - exact) <= bound).all()
        for bc in BoundaryKind:
            alpha, beta = bc.functional
            b, b_a = bc.residual(readings[:, 0, 0], readings[:, 0, 1])
            b_exact = bc.residual(exact[0::2], exact[1::2])
            b_bound = abs(alpha) * bound[0::2] + abs(beta) * bound[1::2]
            assert abs(b - b_exact[0]) <= b_bound[0]
            assert abs(b_a - b_exact[1]) <= b_bound[1]


def test_collocation_matrices_are_built_once_per_size():
    from epibvp.vim import _collocation

    assert _collocation(16) is _collocation(16)
    assert all(not m.flags.writeable for m in _collocation(16))
    # L averages and N of a constant is s / 24
    step_v, step_q, _, _ = _collocation(16)
    assert np.allclose(step_v.sum(axis=0), 1.0, rtol=0.0, atol=1e-14)
    nodes = 0.5 * (1.0 + np.cos((2.0 * np.arange(16) + 1.0) * np.pi / 32))
    assert np.allclose(step_q.sum(axis=0), nodes / 24.0, rtol=0.0,
                       atol=1e-15)


@pytest.mark.parametrize("p", [2 ** i for i in range(1, 8)])
def test_collocation_matrices_equal_the_frozen_chunked_build(p):
    # one node at a time, every matrix is the vectorised build bit for bit
    _same_bytes(_collocation(p), frozen_collocation_matrices(p))


def test_gauss_rules_integrate_their_degrees():
    # the moments of degree below 2 n, in exact rationals from the float
    # points and weights, within what rounding the points to float leaves
    for n in (34, 66, 130):
        u, g = _gauss(n)
        assert u.size == g.size == n and np.all(np.diff(u) > 0.0)
        points = [Fraction(x) for x in u.tolist()]
        weights = [Fraction(x) for x in g.tolist()]
        for k in (0, 1, 2, n, 2 * n - 2, 2 * n - 1):
            moment = sum(w * x ** k for w, x in zip(weights, points))
            assert abs(float(moment * (k + 1)) - 1.0) <= 3e-14, (n, k)


def test_basis_values_are_the_lagrange_products():
    nodes = _chebyshev(16)[0]
    x = np.array([0.1, 0.5, 0.93, 1.0])
    want = np.array([[np.prod([(t - nodes[k]) / (nodes[j] - nodes[k])
                               for k in range(16) if k != j])
                      for j in range(16)] for t in x])
    assert np.allclose(_basis(16, x), want, rtol=0.0, atol=1e-14)
    sums = np.array([[1.0, 2.0, -0.5, 0.0], [0.3, 0.0, 1.0, 1.0]])
    assert np.allclose(_quadratures(16, x, sums), sums @ want, rtol=0.0,
                       atol=1e-14)
    # a point on a node takes the basis values 1 there and 0 elsewhere
    got = _basis(16, nodes[[3, 0]])
    assert np.allclose(got, np.eye(16)[[3, 0]], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("m,size", [(1, 2), (2, 4), (8, 16), (32, 64),
                                    (4, 64), (64, 128)])
def test_prolongation_holds_the_polynomial_and_its_integral(m, size):
    # v E holds on the size points the polynomial of degree below m that
    # v holds on the m points, and v E L^T its L: L s**j = s**j / (2 j + 1)
    up = _prolongation(m, size)
    assert up.shape == (m, 2 * size) and not up.flags.writeable
    nodes, targets = _chebyshev(m)[0], _chebyshev(size)[0]
    for j in range(m):
        got = nodes ** j @ up
        assert np.allclose(got[:size], targets ** j, rtol=0.0, atol=1e-14)
        assert np.allclose(got[size:], targets ** j / (2 * j + 1), rtol=0.0,
                           atol=1e-14)


def test_levels_are_built_once_per_pair_of_sizes():
    # the levels up to 64 points are shared by the finest levels 64 and 128
    # and by every depth; each pair (m, M) is built once and is read-only
    _prolongation.cache_clear()
    for p in (64, 128):
        for depth in (3, 8, 3, 8):
            _collocation_readings([-1.0, 2.0], 1.0, depth, p, order=1)
    pairs = [(1, 2), (2, 4), (4, 8), (8, 16), (16, 32), (32, 64), (4, 64),
             (4, 128), (64, 128)]
    assert _prolongation.cache_info().misses == len(pairs)
    for m, size in pairs:
        assert _prolongation(m, size) is _prolongation(m, size)
        assert not _prolongation(m, size).flags.writeable
    assert _prolongation.cache_info().misses == len(pairs)
    for size in (2, 4, 8, 16, 32, 64, 128):
        assert all(not x.flags.writeable for x in _collocation(size))


@pytest.mark.parametrize("p", [64, 128])
def test_kernel_and_rounding_count_walk_the_same_levels(p, monkeypatch):
    # the kernel prolongs exactly where a level of _levels grows, and the
    # rounding count equals the reference sum below, whose steps derive
    # their sizes on their own
    pairs = []
    prolongation = vim._prolongation

    def spy(m, size):
        pairs.append((m, size))
        return prolongation(m, size)

    monkeypatch.setattr(vim, "_prolongation", spy)
    for depth in range(1, MAX_DEPTH + 1):
        pairs.clear()
        _collocation_readings([-1.0, 2.0], 1.0, depth, p)
        levels = vim._levels(p, depth)
        assert pairs == [(m, size) for m, size in levels if m < size]
        count = 0
        for i in range(depth):
            m = min(2 ** i, p)
            size = p if i == depth - 1 else min(2 * m, p)
            count += size + max(size, 32) + 2 + (2 * m + 18 if m < size
                                                 else 8)
        nu = count * 0.5 * np.finfo(float).eps
        assert _rounding_gamma(p, depth) == nu / (1.0 - nu)


@pytest.mark.parametrize("p", [64, 128])
@pytest.mark.parametrize("depth", range(1, 9))
def test_multilevel_readings_equal_the_one_grid_kernel(p, depth):
    # in exact arithmetic the two kernels hold the same iterate at every
    # depth: the exact one up to p points, and beyond that both drop the
    # same Chebyshev terms on p points; so the readings differ by rounding,
    # within the sum of the two rounding counts
    a = np.concatenate((np.linspace(-120.0, 20.0, 29), [-0.3, 0.0, 1.5]))
    for lam in (-70.0, 0.0, 15.0, 150.0):
        for order in (0, 1, 2):
            want, want_sums = frozen_collocation_readings(a, lam, depth, p,
                                                          order)
            got, sums = _collocation_readings(a, lam, depth, p, order=order)
            bound = (_rounding_gamma(p, depth) * sums
                     + frozen_rounding_gamma(p, depth) * want_sums)
            assert np.all(np.abs(got - want) <= bound), (lam, order)


def test_collocation_overflow_is_named():
    with pytest.raises(IterationOverflow, match="at depth 7"):
        _collocation_readings([-2e5, 1.0], 1.0, 7)


@pytest.mark.parametrize("p", [64, 128])
def test_collocation_rows_do_not_change_across_blocks(p):
    # a reading is the same bit for bit whatever the other rows of its
    # call, their number and its own position among them
    a = np.linspace(-120.0, 20.0, 300)
    for order in (0, 1, 2):
        whole = _collocation_readings(a, 15.0, 7, p, order=order)
        for parts in (np.split(a, [50, 100, 150, 200, 250]),
                      np.split(a[::-1], [1, 3, 70, 197]),
                      [a[i:i + 1] for i in (0, 77, 299)],
                      [a[-n:] for n in SHORT_COUNTS]):
            got = [_collocation_readings(x, 15.0, 7, p, order=order)
                   for x in parts]
            for i, x in enumerate((whole[0], whole[1])):
                joined = np.concatenate([g[i] for g in got], axis=1)
                index = np.searchsorted(a, np.concatenate(parts))
                assert np.array_equal(x[:, index], joined)


@pytest.mark.parametrize("p,count,rows", [
    (64, 1, ([4], [8], [20])),
    (64, 9, ([12], [24], [40, 20])),
    (64, 65, ([64, 4], [64, 64, 8], [40] * 8 + [20])),
    (128, 1, ([4], [8], [10])),
    (128, 17, ([16, 4], [16, 16, 8], [10] * 9)),
])
def test_short_readings_take_whole_tiles_of_rows(monkeypatch, p, count, rows):
    # a short last block stacks whole tiles of 4 rows, and no block more
    # rows than a full one: 64 on 64 points and 16 on 128, 40 and 10 for
    # the five blocks of the fold's readings
    stacks = []
    collocate = vim._collocate

    def spy(s, *args):
        k, m, _ = s.shape
        stacks.append(k * m)
        return collocate(s, *args)

    monkeypatch.setattr(vim, "_collocate", spy)
    for order, want in enumerate(rows):
        stacks.clear()
        _collocation_readings(np.linspace(-3.0, 1.0, count), 15.0, 7, p,
                              order=order)
        assert stacks == want, order


def test_convolution_with_itself_is_the_old_square():
    seeded = np.random.default_rng(7)
    for rows in (1, 5, 16, 40):
        for n in (2, 3, 17, 129):
            c = (seeded.normal(size=(rows, n))
                 * 10.0 ** seeded.integers(-8, 9, (rows, 1)))
            expected = np.empty((rows, 2 * n - 1))
            _frozen_convolve(c, c, expected)
            for x, y in zip(c, expected):
                assert _square(x).tobytes() == y.tobytes()


def test_square_of_even_powers_is_the_old_square():
    # with the odd coefficients zero only the even ones are squared; the
    # sums skip zero products only, so every bit stays
    seeded = np.random.default_rng(8)
    for rows in (1, 5, 16):
        for n in (3, 17, 129, 513):
            c = (seeded.normal(size=(rows, n))
                 * 10.0 ** seeded.integers(-8, 9, (rows, 1)))
            c[:, 1::2] = 0.0
            expected = np.empty((rows, 2 * n - 1))
            _frozen_convolve(c, c, expected)
            for x, y in zip(c, expected):
                assert _square(x).tobytes() == y.tobytes()


def test_convolution_of_small_integer_rows():
    # the products and sums of small integers are exact
    for c in ([1.0], [1.0, 0.0], [2.0, -1.0, 0.0, 3.0], np.arange(-4.0, 5.0)):
        c = np.array(c)
        assert np.array_equal(_square(c), np.convolve(c, c))


A_SAMPLES = np.array([-17.2, -2.2, -0.3, 0.0, 1.5])


def test_derivative_blocks_leave_the_value_readings():
    # the first-order stack steps v on the same rows as v alone; the
    # five-block stack has fewer rows per product, so its B may round
    # apart, within the rounding count of the readings
    a = np.linspace(-120.0, 20.0, 97)
    for lam, depth in ((15.0, 7), (-25.0, 6), (0.0, 1)):
        value, size = _collocation_readings(a, lam, depth)
        first, _ = _collocation_readings(a, lam, depth, order=1)
        assert np.array_equal(first[0], value[0])
        second, _ = _collocation_readings(a, lam, depth, order=2)
        bound = 2.0 * _rounding_gamma(64, depth) * size[0]
        assert np.all(np.abs(second[0] - value[0]) <= bound)


def test_second_order_blocks_leave_the_first_order_ones():
    a = np.linspace(-120.0, 20.0, 97)
    for lam, depth in ((15.0, 7), (-25.0, 6), (0.0, 1), (11.3, 8)):
        first, _ = _collocation_readings(a, lam, depth, order=1)
        second, sums = _collocation_readings(a, lam, depth, order=2)
        assert second.shape == sums.shape == (5, a.size, 2)
        bound = 2.0 * _rounding_gamma(64, depth) * sums[:2]
        assert np.all(np.abs(second[:2] - first) <= bound)


def _symbolic_readings(sym, a, lam, da, dlam):
    """(w(1), w'(1)) of the (da, dlam)-th partial derivative of the
    symbolic iterate at (a, lam), and the absolute masses of their
    terms."""
    exact, mass = np.zeros(2), np.zeros(2)
    for (i, j, k), value in sym.terms.items():
        if i >= da and j >= dlam:
            term = (math.perm(i, da) * math.perm(j, dlam) * value
                    * a ** (i - da) * lam ** (j - dlam))
            # w(1) sums the terms, w'(1) the terms times their power of r
            exact += term, k * term
            mass += abs(term), k * abs(term)
    return exact, mass


# the derivative blocks of _collocation_readings(..., order=2) by the
# orders (da, dlam) they take
DERIVATIVE_ORDERS = {1: (1, 0), 2: (0, 1), 3: (2, 0), 4: (1, 1)}


def _assert_symbolic_derivatives(depth, lam, order):
    # with 2**depth <= p the collocation iterate is the exact one, so each
    # reading differs from the symbolic one by rounding: the rounding count
    # of the reading and of the symbolic terms' absolute mass
    sym = symbolic_iterate(depth)
    for p in sorted({max(2 ** depth, 2), 64}):
        readings, sums = _collocation_readings(A_SAMPLES, lam, depth, p,
                                               order=order)
        for index in range(1, len(readings)):
            for a, got, size in zip(A_SAMPLES, readings[index], sums[index]):
                exact, mass = _symbolic_readings(sym, a, lam,
                                                 *DERIVATIVE_ORDERS[index])
                bound = _rounding_gamma(p, depth) * size + 1e-14 * mass
                assert np.all(np.abs(got - exact) <= bound), (p, index, a)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("lam", [0.0, 15.0, -25.0])
def test_tangents_equal_the_symbolic_derivative(depth, lam):
    # d/da of sum c_ijk a**i lam**j r**k is sum i c_ijk a**(i-1) lam**j r**k
    _assert_symbolic_derivatives(depth, lam, 1)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("lam", [0.0, 15.0, -25.0])
def test_second_order_rows_equal_the_symbolic_derivatives(depth, lam):
    _assert_symbolic_derivatives(depth, lam, 2)


def _assert_central_differences(block, derivatives):
    # the derivative blocks in a and in lam of the block, at depth 7,
    # against its central differences
    lam = 15.0
    h = 1e-5 * np.maximum(1.0, np.abs(A_SAMPLES))
    d = 1e-5 * lam

    def read(a, lam):
        return _collocation_readings(a, lam, 7, order=block)[0][block]

    diffs = ((read(A_SAMPLES + h, lam) - read(A_SAMPLES - h, lam))
             / (2.0 * h[:, None]),
             (read(A_SAMPLES, lam + d) - read(A_SAMPLES, lam - d)) / (2.0 * d))
    readings, _ = _collocation_readings(A_SAMPLES, lam, 7, order=2)
    for exact, diff in zip(readings[derivatives], diffs):
        assert np.all(np.abs(exact - diff)
                      <= 1e-7 * np.maximum(1.0, np.abs(exact)))


def test_tangents_match_central_differences_at_depth_seven():
    # w_a and w_lam from w
    _assert_central_differences(0, [1, 2])


def test_second_order_rows_match_central_differences_at_depth_seven():
    # w_aa and w_alam from w_a
    _assert_central_differences(1, [3, 4])


def test_depth_above_maximum_is_rejected():
    # raised before the first step, so nothing of that size is ever built
    deep = MAX_DEPTH + 1
    with pytest.raises(ValueError, match="exceeds the maximum"):
        iterate(VimProblem(lam=0.0, a=1.0, n_iter=deep))
    with pytest.raises(ValueError, match="exceeds the maximum"):
        iterate_from(RPoly([0.0, 0.0, 1.0]), 0.0, deep)
    with pytest.raises(ValueError, match="exceeds the maximum"):
        find_branches(1.0, BoundaryKind.NAVIER_ONE, n_iter=deep)


@pytest.mark.parametrize("depth", [7.5, 7.0, np.float64(7.0), True, False,
                                   "7"])
def test_depth_that_is_not_an_integer_is_rejected(depth):
    bc = BoundaryKind.NAVIER_ONE
    message = f"iteration depth must be an integer, got {depth!r}"
    for call in (lambda: iterate(VimProblem(lam=1.0, a=-1.0, n_iter=depth)),
                 lambda: iterate_from(RPoly([0.0, 0.0, 1.0]), 1.0, depth),
                 lambda: find_branches(1.0, bc, n_iter=depth),
                 lambda: boundary_residual(-1.0, 1.0, bc, depth)):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_numpy_integer_depths_are_depths():
    bc = BoundaryKind.NAVIER_ONE
    depth = np.int64(7)
    assert (iterate(VimProblem(lam=15.0, a=-17.2, n_iter=depth))
            == iterate(VimProblem(lam=15.0, a=-17.2, n_iter=7)))
    assert boundary_residual(-17.2, 15.0, bc, depth) == boundary_residual(
        -17.2, 15.0, bc, 7)
    assert ([r.a_star for r in find_branches(15.0, bc, n_iter=depth)]
            == [r.a_star for r in find_branches(15.0, bc, n_iter=7)])


@pytest.mark.parametrize("a", [Decimal("-17.2"), Fraction(-86, 5),
                               np.float32(-17.2), -17])
def test_start_values_that_are_not_floats_are_coerced(a):
    # the iterate from a is the one from float(a), in float arithmetic
    got = iterate(VimProblem(lam=15.0, a=a, n_iter=5)).coeffs
    want = iterate(VimProblem(lam=15.0, a=float(a), n_iter=5)).coeffs
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_rate_is_rejected(value):
    w0 = RPoly([0.0, 0.0, 1.0])
    message = f"the rate must be finite, got {value!r}"
    for call in (lambda: iterate(VimProblem(lam=value, a=1.0)),
                 lambda: iterate_from(w0, value, 3),
                 lambda: iterate_from(w0, value, 3, nonlinear=False),
                 lambda: vim_step(w0, value),
                 lambda: ode_defect(w0, value),
                 lambda: ode_defect(w0, value, nonlinear=False),
                 lambda: solve_profile(1.0, value, BoundaryKind.NAVIER_ONE)):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_start_value_is_rejected(value):
    message = f"a must be finite, got {value!r}"
    for call in (lambda: VimProblem(lam=1.0, a=value),
                 lambda: iterate(VimProblem(lam=1.0, a=value, n_iter=3)),
                 lambda: solve_profile(value, 1.0, BoundaryKind.DIRICHLET)):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


@pytest.mark.parametrize("a,depth", [(-1e200, 7), (-1e5, 8), (-1e12, 6),
                                     (-1e5, 7)])
def test_overflowing_start_values_are_named(a, depth):
    # the coefficients overflow to inf and then to NaN, which is what trips
    # the r**0 / r**1 check; at a = -1e5, depth 7 they overflow only in the
    # last step
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IterationOverflow, match=f"overflow.*depth {depth}"):
            iterate(VimProblem(lam=1.0, a=a, n_iter=depth))


def test_last_step_overflow_reaches_the_branch_finder():
    bc = BoundaryKind.NAVIER_ONE
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IterationOverflow, match="depth 7"):
            boundary_residual(-1e5, 1.0, bc, 7)
        with pytest.raises(IterationOverflow, match="depth 7"):
            find_branches(1.0, bc, (-2e5, 0.0), n_iter=7)


def test_finite_low_order_defect_is_still_non_integrable():
    with pytest.raises(NonIntegrableDefect) as caught:
        vim_step(RPoly([0.0, 1.0]), 0.0)
    assert not isinstance(caught.value, IterationOverflow)


def test_structural_invariant_and_no_kernel_failure():
    # polynomial embodiment of the well-definedness properties: no constant
    # or linear term ever appears, so the kernel precondition never trips
    for _ in range(200):
        a = rng.uniform(-10.0, 10.0)
        lam = rng.uniform(-20.0, 20.0)
        n = int(rng.integers(1, 8))
        try:
            w = iterate(VimProblem(lam=lam, a=a, n_iter=n))
        except NonIntegrableDefect as exc:  # pragma: no cover
            pytest.fail(f"kernel precondition tripped at a={a}, lam={lam}: {exc}")
        assert w.coefficient(0) == 0.0
        assert w.coefficient(1) == 0.0


def test_fixed_point_consistency_on_solved_branches():
    # small equation defect forces a small correction: the kernel halves
    # monomial magnitudes at worst
    from epibvp import find_branches

    cases = [
        (1.0, BoundaryKind.NAVIER_ONE),
        (8.0, BoundaryKind.NAVIER_TWO),
        (100.0, BoundaryKind.DIRICHLET),
        (-40.0, BoundaryKind.NAVIER_ONE),
    ]
    for lam, bc in cases:
        for root in find_branches(lam, bc):
            w = iterate(VimProblem(lam=lam, a=root.a_star,
                                   n_iter=bc.default_iterations))
            eps = sup_on_grid(ode_defect(w, lam))
            step_move = sup_on_grid(vim_step(w, lam) - w)
            assert step_move <= 0.5 * eps + 1e-15


def test_contraction_on_lower_branch():
    root = lower_branch_root(1.0, BoundaryKind.NAVIER_ONE)
    w = RPoly([0.0, 0.0, root.a_star])
    diffs = []
    for _ in range(7):
        w_next = vim_step(w, 1.0)
        diffs.append(sup_on_grid(w_next - w))
        w = w_next
    for earlier, later in zip(diffs[1:], diffs[2:]):
        assert later < earlier


# ---------------------------------------------------------------------------
# linearised iteration (nonlinear term switched off)
# ---------------------------------------------------------------------------

def test_linearised_iteration_closed_form():
    # starting from a4 r^4 + a3 r^3 + a2 r^2 the linear scheme contracts the
    # cubic coefficient by 2 and drives the quartic one to lam/16 at rate 3
    lam = 4.0
    a4, a3, a2 = 0.75, -1.3, 2.0
    w = RPoly([0.0, 0.0, a2, a3, a4])
    for n in range(1, 9):
        w = iterate_from(RPoly([0.0, 0.0, a2, a3, a4]), lam, n, nonlinear=False)
        assert w.coefficient(3) == pytest.approx(a3 / 2 ** n, rel=1e-13)
        assert w.coefficient(2) == a2
        expected4 = a4 / 3 ** n + lam / 16.0 - lam / (16.0 * 3 ** n)
        assert w.coefficient(4) == pytest.approx(expected4, rel=1e-12)
        error = abs(w.coefficient(4) - lam / 16.0)
        assert error <= (abs(a4) + lam / 16.0) / 3 ** n * (1.0 + 1e-9)


def test_linearised_error_ratio_is_three():
    lam = 2.0
    a4 = 1.0
    errors = []
    for n in range(1, 8):
        w = iterate_from(RPoly([0.0, 0.0, 0.5, 0.0, a4]), lam, n, nonlinear=False)
        errors.append(abs(w.coefficient(4) - lam / 16.0))
    ratios = [e0 / e1 for e0, e1 in zip(errors, errors[1:])]
    assert all(2.7 <= ratio <= 3.3 for ratio in ratios)


def test_linearised_iteration_keeps_constant_term():
    w0 = RPoly([0.5, 0.0, 1.0])
    w = iterate_from(w0, 1.0, 5, nonlinear=False)
    assert w.coefficient(0) == 0.5


# ---------------------------------------------------------------------------
# symbolic mode
# ---------------------------------------------------------------------------

def test_symbolic_first_iterate():
    sym = symbolic_iterate(1)
    assert sym.coefficient(1, 0, 2) == 1.0
    assert sym.coefficient(2, 0, 4) == pytest.approx(1.0 / 24.0, rel=1e-14)
    assert sym.coefficient(0, 1, 4) == pytest.approx(1.0 / 24.0, rel=1e-14)
    assert len(sym.terms) == 3


def test_symbolic_second_iterate():
    sym = symbolic_iterate(2)
    expected = {
        (1, 0, 2): 1.0,
        (2, 0, 4): 1.0 / 18.0,
        (0, 1, 4): 1.0 / 18.0,
        (3, 0, 6): 1.0 / 720.0,
        (1, 1, 6): 1.0 / 720.0,
        (4, 0, 8): 1.0 / 64512.0,
        (2, 1, 8): 1.0 / 32256.0,
        (0, 2, 8): 1.0 / 64512.0,
    }
    assert set(sym.terms) == set(expected)
    for key, value in expected.items():
        assert sym.coefficient(*key) == pytest.approx(value, rel=1e-14)


def test_symbolic_specialisation_matches_numeric():
    for _ in range(10):
        a = rng.uniform(-5.0, 5.0)
        lam = rng.uniform(-5.0, 5.0)
        n = int(rng.integers(1, 5))
        sym = symbolic_iterate(n).specialize(a, lam)
        num = iterate(VimProblem(lam=lam, a=a, n_iter=n))
        width = max(sym.coeffs.size, num.coeffs.size)
        sc, nc = np.zeros(width), np.zeros(width)
        sc[: sym.coeffs.size] = sym.coeffs
        nc[: num.coeffs.size] = num.coeffs
        scale = np.maximum(1.0, np.abs(nc))
        assert np.max(np.abs(sc - nc) / scale) <= 1e-10


def test_symbolic_specialisation_example():
    w = symbolic_iterate(1).specialize(2.0, 0.0)
    assert w == iterate(VimProblem(lam=0.0, a=2.0, n_iter=1))
    assert w.coefficient(2) == 2.0
    assert w.coefficient(4) == pytest.approx(1.0 / 6.0, rel=1e-14)


def test_symbolic_degree_bounds():
    for n in (1, 2, 3, 4):
        sym = symbolic_iterate(n)
        assert sym.max_a_power <= 2 ** n
        assert sym.max_r_power <= 2 ** (n + 1)


def test_symbolic_budget():
    with pytest.raises(IterationBudgetExceeded,
                       match="exceeds the budget of 8"):
        symbolic_iterate(9)
    with pytest.raises(ValueError):
        symbolic_iterate(0)


# ---------------------------------------------------------------------------
# multiplier stationarity
# ---------------------------------------------------------------------------

def test_multiplier_derivatives_match_finite_differences():
    for _ in range(20):
        t = rng.uniform(0.1, 1.0)
        r = rng.uniform(0.0, 1.0)
        h = 1e-6
        fd1 = (multiplier(t + h, r) - multiplier(t - h, r)) / (2.0 * h)
        assert abs(multiplier_dt(t, r) - fd1) <= 1e-5 * max(1.0, abs(fd1))
        h = 1e-4
        fd2 = (
            multiplier(t + h, r) - 2.0 * multiplier(t, r) + multiplier(t - h, r)
        ) / (h * h)
        assert abs(multiplier_dtt(t, r) - fd2) <= 1e-4 * max(1.0, abs(fd2))


@pytest.mark.parametrize("t,r", [(0.5, 0.5), (1.0, 0.0), (0.3, 0.9)])
def test_multiplier_residuals_at_reference_points(t, r):
    (res13, res14, res15), = multiplier_residuals([(t, r)])
    assert abs(res13) <= 1e-12
    assert abs(res14) <= 1e-12
    assert abs(res15) <= 1e-12


def test_multiplier_residuals_at_random_points():
    samples = [
        (rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.0)) for _ in range(100)
    ]
    for res in multiplier_residuals(samples):
        assert max(abs(v) for v in res) <= 1e-12


def test_multiplier_domain_error():
    with pytest.raises(DomainError):
        multiplier_residuals([(0.0, 0.5)])
    with pytest.raises(DomainError):
        multiplier_residuals([(-0.25, 0.5)])
