"""Defect, correction steps, symbolic mode and the multiplier conditions."""

import math
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

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
    symbolic_iterate,
    vim_step,
)
from epibvp.polyring import _kernel_weights
from epibvp.vim import (
    MAX_DEPTH,
    _collocation_readings,
    _convolve,
    _euler_symbol,
    _iterate_coeffs,
    _iterate_tangents,
    _overflow,
    _r_powers,
    _rounding_gamma,
    _run,
    _start_rows,
    multiplier_dt,
    multiplier_dtt,
)

from _util import GRID_101, exact_readings, lower_branch_root, sup_on_grid

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


def test_even_power_storage_matches_r_power_chain():
    # the kernel stores iterates in s = r**2; the public step keeps every
    # power of r and runs the same arithmetic on the wider lattice
    seeded = np.random.default_rng(2024)
    for a, lam in zip(seeded.uniform(-120.0, 20.0, 200),
                      seeded.uniform(-100.0, 200.0, 200)):
        row = _iterate_coeffs(np.array([a]), lam, 7)[0]
        expanded = _r_powers(row)
        assert not expanded[1::2].any()
        w = RPoly([0.0, 0.0, a])
        for _ in range(7):
            w = vim_step(w, lam)
        chain = np.zeros_like(expanded)
        chain[:w.coeffs.size] = w.coeffs
        assert np.all(np.abs(expanded - chain) <= 4.0 * np.spacing(np.abs(chain)))


def test_kernel_rows_do_not_depend_on_their_block():
    a = np.linspace(-120.0, 20.0, 97)
    together = _iterate_coeffs(a, 15.0, 7)
    for i in (0, 48, 96):
        assert np.array_equal(_iterate_coeffs(a[i:i + 1], 15.0, 7)[0], together[i])
    assert np.array_equal(np.vstack([_iterate_coeffs(a[i:i + 10], 15.0, 7)
                                     for i in range(0, a.size, 10)]), together)
    # the fold search's Newton step runs the kernel on one row at a time
    tangents = _iterate_tangents(a, 15.0, 7, second=True)
    for i in (0, 48, 96):
        for alone, inside in zip(_iterate_tangents(a[i], 15.0, 7, second=True),
                                 tangents):
            assert alone.tobytes() == inside[i:i + 1].tobytes()


# ---------------------------------------------------------------------------
# the kernel against a frozen copy of its row-major steps
# ---------------------------------------------------------------------------

def _frozen_convolve(c, d, out):
    # row i of out is the convolution of row i of c with row i of d
    m, n = d.shape
    padded = np.zeros((m, 3 * n - 2))
    padded[:, n - 1:2 * n - 1] = d
    step = padded.itemsize
    windows = as_strided(padded, (m, 2 * n - 1, n),
                         (padded.strides[0], step, step), writeable=False)
    np.einsum("mi,mki->mk", c[:, ::-1], windows, out=out)


def _frozen_run(c, lam, n_iter, spacing, nonlinear=True, d=None):
    """The step loop on row-major blocks, one iterate per row, with the
    signature of vim._run.  Kept frozen; the kernel must equal it bit for
    bit."""

    def defect(c):
        m, n = c.shape
        out = np.zeros((m, max(2 * n - 1 if nonlinear else n,
                               4 // spacing + 1)))
        if nonlinear:
            _frozen_convolve(c, c, out[:, :2 * n - 1])
            out *= -0.5
        out[:, :n] += _euler_symbol(n, spacing) * c
        out[:, 4 // spacing] -= 0.5 * lam
        return out

    def step(c):
        d = defect(c)
        if d[:, :1 // spacing + 1].any():
            if not np.isfinite(d).all():
                raise _overflow(n_iter)
            raise NonIntegrableDefect("nonzero r**0 or r**1 coefficient")
        d *= _kernel_weights(d.shape[1], spacing)
        d[:, :c.shape[1]] += c
        return d

    def tangent(c, d):
        k, m, n = d.shape
        size = max(2 * n - 1 if nonlinear else n, 4 // spacing + 1)
        out = np.zeros((k, m, size))
        if nonlinear:
            for i in range(k):
                _frozen_convolve(c, d[i], out[i, :, :2 * n - 1])
                if i >= 2:
                    cross = np.empty((m, 2 * n - 1))
                    _frozen_convolve(d[0], d[i - 2], cross)
                    out[i, :, :2 * n - 1] += cross
            out *= -1.0
        out[:, :, :n] += _euler_symbol(n, spacing) * d
        if k > 1:
            out[1, :, 4 // spacing] -= 0.5
        out *= _kernel_weights(size, spacing)
        out[:, :, :n] += d
        return out

    for _ in range(n_iter):
        if d is not None:
            d = tangent(c, d)
        c = step(c)
    if not np.isfinite(c).all():
        raise _overflow(n_iter)
    return c, d


def _frozen_iterate(a, lam, n_iter, second=False):
    c = _start_rows(a)
    d = np.zeros((4 if second else 1, *c.shape))
    d[0, :, 1] = 1.0
    c, d = _frozen_run(c, lam, n_iter, 2, d=d)
    return (c, *d)


def _same_bytes(actual, expected):
    assert len(actual) == len(expected)
    for x, y in zip(actual, expected):
        assert x.shape == y.shape and x.flags.c_contiguous
        assert x.tobytes() == y.tobytes()


# small blocks and large ones
BLOCK_SIZES = (1, 2, 3, 15, 16, 64, 254)


@pytest.mark.parametrize("rows", BLOCK_SIZES)
@pytest.mark.parametrize("depth", range(1, MAX_DEPTH + 1))
def test_kernel_equals_the_frozen_row_major_steps(depth, rows):
    seeded = np.random.default_rng(100 * depth + rows)
    a = seeded.uniform(-120.0, 20.0, rows)
    lam = float(seeded.choice([-300.0, -50.0, 0.0, 15.0, 31.9, 168.7]))
    expected = _frozen_iterate(a, lam, depth, second=True)
    _same_bytes([_iterate_coeffs(a, lam, depth)], expected[:1])
    _same_bytes(_iterate_tangents(a, lam, depth), expected[:2])
    _same_bytes(_iterate_tangents(a, lam, depth, second=True), expected)


@pytest.mark.parametrize("nonlinear", [True, False])
def test_r_power_steps_equal_the_frozen_row_major_steps(nonlinear):
    # vim_step and iterate_from keep every power of r
    seeded = np.random.default_rng(11)
    for _ in range(20):
        w0 = RPoly(np.concatenate([[0.0, 0.0], seeded.uniform(-3.0, 3.0, 5)]))
        lam = float(seeded.uniform(-50.0, 50.0))
        for depth, actual in ((1, vim_step(w0, lam, nonlinear=nonlinear)),
                              (4, iterate_from(w0, lam, 4,
                                               nonlinear=nonlinear))):
            expected = _frozen_run(w0.coeffs[None], lam, depth, 1,
                                   nonlinear)[0][0]
            assert actual.coeffs.tobytes() == RPoly(expected).coeffs.tobytes()


def _outcome(run, a, depth):
    # the rows and derivatives of a run, or the message it raised, and the
    # floating-point warnings it gave
    d = np.zeros((4, a.size, 2))
    d[0, :, 1] = 1.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            c, d = run(_start_rows(a), 1.0, depth, 2, d=d)
            result = [c, *d]
        except IterationOverflow as exc:
            result = str(exc)
    return result, {str(w.message) for w in caught}


@pytest.mark.parametrize("rows", BLOCK_SIZES)
def test_overflowing_rows_equal_the_frozen_row_major_steps(rows):
    # a row that overflows passes through the steps as inf and NaN until
    # a step or the end of the run raises; the shallower runs finish or
    # raise at every depth on the way
    seeded = np.random.default_rng(rows)
    for depth, big in ((4, -1e200), (6, -1e12), (7, -1e5), (8, -1e5),
                       (9, 1e4)):
        a = seeded.uniform(-120.0, 20.0, rows)
        a[seeded.integers(0, rows, 1 + rows // 8)] = big
        for n in range(1, depth + 1):
            actual, actual_warnings = _outcome(_run, a, n)
            expected, expected_warnings = _outcome(_frozen_run, a, n)
            assert actual_warnings == expected_warnings
            if isinstance(expected, str):
                assert actual == expected
            else:
                _same_bytes(actual, expected)
        assert isinstance(expected, str)


@pytest.mark.parametrize("bc", list(BoundaryKind))
def test_boundary_readings_equal_the_frozen_row_major_steps(bc, monkeypatch):
    # boundary_residual reads the kernel through shooting._iterate_coeffs,
    # which is swapped for the frozen steps
    from epibvp import shooting

    cases = [(lam, n) for lam in (-50.0, 0.0, 15.0) for n in (5, 6, 7, 8)]

    def readings():
        return [(np.array([boundary_residual(a, lam, bc, n)
                           for a in (-97.3, -33.3, 0.0, 4.1)]),)
                for lam, n in cases]

    actual = readings()
    monkeypatch.setattr(shooting, "_iterate_coeffs",
                        lambda a, lam, n: _frozen_iterate(a, lam, n)[0])
    for got, want in zip(actual, readings()):
        _same_bytes(got, want)


# ---------------------------------------------------------------------------
# collocation kernel
# ---------------------------------------------------------------------------

def test_exact_readings_match_the_monomial_kernel():
    c = _iterate_coeffs(-3.0, 15.0, 5)[0]
    w1, w1_prime = exact_readings(-3.0, 15.0, 5)[:2]
    k = 2.0 * np.arange(c.size)
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
        readings, sums = _collocation_readings(a, lam, n, p, tangent=True)
        fine, _ = _collocation_readings(a, lam, n, 2 * p, tangent=True)
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


def test_collocation_overflow_is_named():
    with pytest.raises(IterationOverflow, match="at depth 7"):
        _collocation_readings([-2e5, 1.0], 1.0, 7)


@pytest.mark.parametrize("p", [64, 128])
def test_collocation_rows_do_not_change_across_blocks(p):
    # a reading is the same bit for bit whatever the other rows of its
    # call, their number and its own position among them
    a = np.linspace(-120.0, 20.0, 300)
    for tangent in (False, True):
        whole = _collocation_readings(a, 15.0, 7, p, tangent=tangent)
        for parts in (np.split(a, [50, 100, 150, 200, 250]),
                      np.split(a[::-1], [1, 3, 70, 197]),
                      [a[i:i + 1] for i in (0, 77, 299)]):
            got = [_collocation_readings(x, 15.0, 7, p, tangent=tangent)
                   for x in parts]
            for i, x in enumerate((whole[0], whole[1])):
                joined = np.concatenate([g[i] for g in got], axis=1)
                index = np.searchsorted(a, np.concatenate(parts))
                assert np.array_equal(x[:, index], joined)


def test_convolution_with_itself_is_the_old_square():
    seeded = np.random.default_rng(7)
    for rows in (1, 5, 16, 40):
        for n in (2, 3, 17, 129):
            c = (seeded.normal(size=(rows, n))
                 * 10.0 ** seeded.integers(-8, 9, (rows, 1)))
            expected = np.empty((rows, 2 * n - 1))
            actual = np.empty((1, 2 * n - 1, rows))
            _frozen_convolve(c, c, expected)
            block = np.ascontiguousarray(c.T)
            _convolve(block, block[None], actual)
            assert np.array_equal(actual[0].T, expected)


def test_convolution_of_two_rows():
    # columns of the blocks are the rows, of a small block and a large
    # one; the second block of the stack is the first reversed
    for rows in (2, 18):
        c = np.tile([[1.0, 0.0], [2.0, -1.0], [0.0, 3.0]], rows // 2)
        d = np.tile([[4.0, 2.0], [0.0, 1.0], [5.0, 0.0]], rows // 2)
        out = np.empty((2, 5, rows))
        _convolve(c, np.stack([d, d[::-1]]), out)
        for i in range(rows):
            assert np.array_equal(out[0, :, i], np.convolve(c[:, i], d[:, i]))
            assert np.array_equal(out[1, :, i],
                                  np.convolve(c[:, i], d[::-1, i]))


A_SAMPLES = np.array([-17.2, -2.2, -0.3, 0.0, 1.5])


def test_tangent_value_rows_equal_the_kernel_rows():
    a = np.linspace(-120.0, 20.0, 97)
    for lam, depth in ((15.0, 7), (-25.0, 6), (0.0, 1)):
        c, _ = _iterate_tangents(a, lam, depth)
        assert np.array_equal(c, _iterate_coeffs(a, lam, depth))


def test_second_order_rows_leave_the_first_ones_byte_equal():
    a = np.linspace(-120.0, 20.0, 97)
    for lam, depth in ((15.0, 7), (-25.0, 6), (0.0, 1), (11.3, 8)):
        c, c_a = _iterate_tangents(a, lam, depth)
        rows = _iterate_tangents(a, lam, depth, second=True)
        assert len(rows) == 5
        assert rows[0].tobytes() == _iterate_coeffs(a, lam, depth).tobytes()
        assert rows[0].tobytes() == c.tobytes()
        assert rows[1].tobytes() == c_a.tobytes()


def _symbolic_derivative(sym, a, lam, da, dlam, size):
    """The (da, dlam)-th partial derivative of the symbolic iterate at
    (a, lam), by powers of r below size, and the absolute mass of its
    terms."""
    exact = np.zeros(size)
    mass = np.zeros_like(exact)
    for (i, j, k), value in sym.terms.items():
        if i >= da and j >= dlam:
            term = (math.perm(i, da) * math.perm(j, dlam) * value
                    * a ** (i - da) * lam ** (j - dlam))
            exact[k] += term
            mass[k] += abs(term)
    return exact, mass


# the derivative rows of _iterate_tangents(..., second=True) by the orders
# (da, dlam) they take
DERIVATIVE_ORDERS = {1: (1, 0), 2: (0, 1), 3: (2, 0), 4: (1, 1)}


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("lam", [0.0, 15.0, -25.0])
def test_tangents_equal_the_symbolic_derivative(depth, lam):
    # d/da of sum c_ijk a**i lam**j r**k is sum i c_ijk a**(i-1) lam**j r**k;
    # each entry may differ by rounding relative to its absolute term mass
    sym = symbolic_iterate(depth)
    _, c_a = _iterate_tangents(A_SAMPLES, lam, depth)
    for a, row in zip(A_SAMPLES, c_a):
        exact, mass = _symbolic_derivative(sym, a, lam, 1, 0,
                                           2 * row.size - 1)
        assert not exact[1::2].any()
        assert np.all(np.abs(row - exact[::2]) <= 1e-14 * mass[::2])


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("lam", [0.0, 15.0, -25.0])
def test_second_order_rows_equal_the_symbolic_derivatives(depth, lam):
    sym = symbolic_iterate(depth)
    rows = _iterate_tangents(A_SAMPLES, lam, depth, second=True)
    for index, (da, dlam) in DERIVATIVE_ORDERS.items():
        for a, row in zip(A_SAMPLES, rows[index]):
            exact, mass = _symbolic_derivative(sym, a, lam, da, dlam,
                                               2 * row.size - 1)
            assert not exact[1::2].any()
            assert np.all(np.abs(row - exact[::2]) <= 1e-14 * mass[::2]), \
                (index, a)


def test_tangents_match_central_differences_at_depth_seven():
    lam = 15.0
    _, c_a = _iterate_tangents(A_SAMPLES, lam, 7)
    h = 1e-5 * np.maximum(1.0, np.abs(A_SAMPLES))[:, None]
    diff = (_iterate_coeffs(A_SAMPLES + h[:, 0], lam, 7)
            - _iterate_coeffs(A_SAMPLES - h[:, 0], lam, 7)) / (2.0 * h)
    assert np.all(np.abs(c_a - diff) <= 1e-7 * np.maximum(1.0, np.abs(c_a)))


def test_second_order_rows_match_central_differences_at_depth_seven():
    # c_lam from the value rows, c_aa and c_alam from the exact c_a rows
    lam = 15.0
    _, _, c_lam, c_aa, c_alam = _iterate_tangents(A_SAMPLES, lam, 7,
                                                  second=True)
    h = 1e-5 * np.maximum(1.0, np.abs(A_SAMPLES))
    d = 1e-5 * lam
    diffs = (
        (c_lam, _iterate_coeffs(A_SAMPLES, lam + d, 7),
         _iterate_coeffs(A_SAMPLES, lam - d, 7), d),
        (c_aa, _iterate_tangents(A_SAMPLES + h, lam, 7)[1],
         _iterate_tangents(A_SAMPLES - h, lam, 7)[1], h[:, None]),
        (c_alam, _iterate_tangents(A_SAMPLES, lam + d, 7)[1],
         _iterate_tangents(A_SAMPLES, lam - d, 7)[1], d),
    )
    for exact, above, below, step in diffs:
        diff = (above - below) / (2.0 * step)
        assert np.all(np.abs(exact - diff)
                      <= 1e-7 * np.maximum(1.0, np.abs(exact)))


def test_depth_above_maximum_is_rejected():
    # raised before the first step, so nothing of that size is ever built
    deep = MAX_DEPTH + 1
    with pytest.raises(ValueError, match="exceeds the maximum"):
        iterate(VimProblem(lam=0.0, a=1.0, n_iter=deep))
    with pytest.raises(ValueError, match="exceeds the maximum"):
        iterate_from(RPoly([0.0, 0.0, 1.0]), 0.0, deep)
    with pytest.raises(ValueError, match="exceeds the maximum"):
        find_branches(1.0, BoundaryKind.NAVIER_ONE, n_iter=deep)


@pytest.mark.parametrize("a,depth", [(-1e200, 7), (-1e5, 8), (-1e12, 6),
                                     (-1e5, 7)])
def test_overflowing_start_values_are_named(a, depth):
    # the rows overflow to inf and then to NaN in every column, which is
    # what trips the r**0 / r**1 check; at a = -1e5, depth 7 they overflow
    # only in the last step
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IterationOverflow, match=f"overflow.*depth {depth}"):
            _iterate_coeffs(np.array([1.0, a]), 1.0, depth)
        with pytest.raises(IterationOverflow):
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
    with pytest.raises(IterationBudgetExceeded):
        symbolic_iterate(9)
    with pytest.raises(IterationBudgetExceeded):
        symbolic_iterate(3, max_iterations=2)
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
