"""Polynomial arithmetic and the closed-form correction kernel."""

import pickle

import numpy as np
import pytest
from scipy.integrate import quad

from epibvp import (
    NonIntegrableDefect,
    RPoly,
    add,
    apply_vim_kernel,
    differentiate,
    evaluate,
    mul,
)

from _util import frozen_evaluate

rng = np.random.default_rng(20260810)


def random_poly(max_degree=8):
    degree = rng.integers(0, max_degree + 1)
    return RPoly(rng.uniform(-1.0, 1.0, size=degree + 1))


# ---------------------------------------------------------------------------
# add / mul / differentiate / evaluate
# ---------------------------------------------------------------------------

def test_add_monomials():
    p = RPoly.monomial(2)
    assert add(p, p) == RPoly([0.0, 0.0, 2.0])


def test_add_identity():
    p = RPoly([0.5, 0.0, -1.25, 3.0])
    assert add(p, RPoly.zero()) == p


def test_add_assembles_first_iterate():
    # a r^2 plus (a^2 + lam) r^4 / 24 at a=1, lam=0
    quadratic = RPoly([0.0, 0.0, 1.0])
    quartic = RPoly([0.0, 0.0, 0.0, 0.0, 1.0 / 24.0])
    total = add(quadratic, quartic)
    assert total == RPoly([0.0, 0.0, 1.0, 0.0, 1.0 / 24.0])


def test_mul_monomials():
    assert mul(RPoly.monomial(2), RPoly.monomial(2)) == RPoly.monomial(4)


def test_mul_difference_of_squares():
    assert mul(RPoly([1.0, 1.0]), RPoly([1.0, -1.0])) == RPoly([1.0, 0.0, -1.0])


def test_mul_squares_start_term():
    w0 = RPoly([0.0, 0.0, 2.0])
    assert mul(w0, w0) == RPoly([0.0, 0.0, 0.0, 0.0, 4.0])


def test_mul_agrees_pointwise():
    for _ in range(10):
        p, q = random_poly(), random_poly()
        prod = mul(p, q)
        for r in rng.uniform(0.0, 1.0, size=20):
            expected = evaluate(p, r) * evaluate(q, r)
            assert abs(evaluate(prod, r) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_differentiate_quartic():
    assert differentiate(RPoly.monomial(4)) == RPoly([0.0, 0.0, 0.0, 4.0])


def test_differentiate_constant():
    assert differentiate(RPoly([7.0])) == RPoly.zero()


def test_differentiate_scaled_quadratic():
    assert differentiate(RPoly([0.0, 0.0, 3.0])) == RPoly([0.0, 6.0])


def test_differentiate_matches_central_differences():
    p = random_poly()
    dp = differentiate(p)
    h = 1e-6
    for r in np.linspace(0.1, 0.9, 9):
        fd = (evaluate(p, r + h) - evaluate(p, r - h)) / (2.0 * h)
        assert abs(evaluate(dp, r) - fd) <= 1e-6


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_evaluate_is_the_frozen_horner_bit_for_bit():
    # the Python-float scalar path and the in-place array path make the
    # operations of the numpy-scalar Horner loop, signed zeros, infinities
    # and NaNs included
    seeded = np.random.default_rng(11)
    points = [0.0, -0.0, 0.5, -0.7, 1.0, -3.5, 1e3, np.inf, -np.inf, np.nan,
              np.float64(-0.25), np.float32(0.3), 2, -1]
    grid = np.array(points, dtype=float)
    for size in (1, 2, 5, 129):
        for _ in range(6):
            c = seeded.normal(size=size) * 10.0 ** seeded.integers(-5, 6, size)
            c[seeded.random(size) < 0.3] = 0.0
            c[seeded.random(size) < 0.3] = -0.0
            poly = RPoly(c)
            for r in points:
                got, want = evaluate(poly, r), frozen_evaluate(poly.coeffs, r)
                assert type(got) is type(want) is float
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
            for r in (grid, grid.reshape(2, 7), np.array(-0.0), grid[:0]):
                got, want = evaluate(poly, r), frozen_evaluate(poly.coeffs, r)
                assert type(got) is type(want)
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_evaluate_root_at_one():
    assert evaluate(RPoly([-1.0, 0.0, 1.0]), 1.0) == 0.0


def test_evaluate_dirichlet_linear_form_vanishes_at_one():
    lam = 0.7
    p = RPoly([0.0, 0.0, -lam / 16.0, 0.0, lam / 16.0])
    assert abs(evaluate(p, 1.0)) <= 1e-16


def test_evaluate_quartic_at_two():
    assert evaluate(RPoly([0.0, 0.0, 0.0, 0.0, 1.0 / 24.0]), 2.0) == pytest.approx(
        2.0 / 3.0, rel=1e-15
    )


def test_evaluate_degree_zero_exact():
    assert evaluate(RPoly([3.25]), 0.4217) == 3.25


def test_evaluate_independent_of_trailing_zeros():
    p = RPoly([0.2, -0.4, 1.5])
    padded = RPoly([0.2, -0.4, 1.5, 0.0, 0.0])
    assert p == padded
    for r in rng.uniform(0.0, 1.0, size=5):
        assert evaluate(p, r) == evaluate(padded, r)


def test_degree_reporting():
    assert RPoly([0.0, 0.0, 1.0]).degree == 2
    assert RPoly.zero().degree == -1
    assert RPoly([1.0, 0.0]).degree == 0


# ---------------------------------------------------------------------------
# correction kernel
# ---------------------------------------------------------------------------

def kernel_oracle(k):
    # independent quadrature of the kernel weight against t**k on [0, 1]
    value, err = quad(lambda t: (t - 1.0) * t ** (k - 2), 0.0, 1.0)
    assert err < 1e-12
    return value


def test_kernel_quartic_monomial():
    out = apply_vim_kernel(RPoly.monomial(4))
    assert out.degree == 4
    assert abs(out.coefficient(4) - kernel_oracle(4)) <= 1e-10
    assert out.coefficient(4) == pytest.approx(-1.0 / 12.0, rel=1e-15)


def test_kernel_quadratic_monomial():
    out = apply_vim_kernel(RPoly.monomial(2))
    assert abs(out.coefficient(2) - kernel_oracle(2)) <= 1e-10
    assert out.coefficient(2) == pytest.approx(-0.5, rel=1e-15)


def test_kernel_builds_first_iterate():
    # kernel of -(a^2 + lam)/2 t^4 at a = lam = 1 is r^4/12 = 2 r^4/24
    defect = RPoly([0.0, 0.0, 0.0, 0.0, -1.0])
    correction = apply_vim_kernel(defect)
    w1 = add(RPoly([0.0, 0.0, 1.0]), correction)
    assert w1.coefficient(4) == pytest.approx(2.0 / 24.0, rel=1e-15)
    assert w1.coefficient(2) == 1.0


@pytest.mark.parametrize("k", range(2, 11))
def test_kernel_matches_quadrature(k):
    out = apply_vim_kernel(RPoly.monomial(k))
    assert abs(out.coefficient(k) - kernel_oracle(k)) <= 1e-10


def test_kernel_rejects_constant_term():
    with pytest.raises(NonIntegrableDefect):
        apply_vim_kernel(RPoly([1.0, 0.0, 1.0]))


def test_kernel_rejects_linear_term():
    with pytest.raises(NonIntegrableDefect):
        apply_vim_kernel(RPoly([0.0, 1e-30, 1.0]))


def test_kernel_linearity():
    for _ in range(10):
        f = random_poly()
        g = random_poly()
        f = RPoly(np.concatenate([[0.0, 0.0], f.coeffs]))
        g = RPoly(np.concatenate([[0.0, 0.0], g.coeffs]))
        alpha, beta = rng.uniform(-2.0, 2.0, size=2)
        left = apply_vim_kernel(add(alpha * f, beta * g))
        right = add(alpha * apply_vim_kernel(f), beta * apply_vim_kernel(g))
        width = max(left.coeffs.size, right.coeffs.size)
        lc = np.zeros(width)
        rc = np.zeros(width)
        lc[: left.coeffs.size] = left.coeffs
        rc[: right.coeffs.size] = right.coeffs
        assert np.max(np.abs(lc - rc)) <= 1e-12


def test_kernel_preserves_degree():
    for _ in range(10):
        f = RPoly(np.concatenate([[0.0, 0.0], rng.uniform(0.5, 1.0, size=6)]))
        assert apply_vim_kernel(f).degree == f.degree


def test_kernel_output_has_no_low_terms():
    f = RPoly([0.0, 0.0, 1.0, -2.0, 0.5])
    out = apply_vim_kernel(f)
    assert out.coefficient(0) == 0.0
    assert out.coefficient(1) == 0.0


# ---------------------------------------------------------------------------
# ring laws at sampled points
# ---------------------------------------------------------------------------

def test_ring_laws_at_sampled_points():
    for _ in range(20):
        p, q = random_poly(), random_poly()
        total = add(p, q)
        prod = mul(p, q)
        for r in rng.uniform(0.0, 1.0, size=20):
            sum_expected = evaluate(p, r) + evaluate(q, r)
            prod_expected = evaluate(p, r) * evaluate(q, r)
            assert abs(evaluate(total, r) - sum_expected) <= 1e-10 * max(
                1.0, abs(sum_expected)
            )
            assert abs(evaluate(prod, r) - prod_expected) <= 1e-10 * max(
                1.0, abs(prod_expected)
            )


def test_immutability():
    p = RPoly([1.0, 2.0])
    with pytest.raises(AttributeError):
        p.coeffs = np.zeros(3)
    with pytest.raises(ValueError):
        p.coeffs[0] = 5.0


def test_pickle_round_trip():
    # records holding polynomials come back from the command line's --jobs
    # processes as pickles
    for p in (RPoly([0.0, 0.0, 1.5]), RPoly.zero(), RPoly([-0.0, 1e-300, 2.0])):
        copy = pickle.loads(pickle.dumps(p))
        assert copy == p
        assert copy.coeffs.tobytes() == p.coeffs.tobytes()
        with pytest.raises(AttributeError):
            copy.coeffs = np.zeros(3)
        with pytest.raises(ValueError):
            copy.coeffs[0] = 5.0
