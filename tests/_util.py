"""Shared helpers for the test suite."""

from fractions import Fraction

import numpy as np

from epibvp import BoundaryKind, find_branches

GRID_101 = np.linspace(0.0, 1.0, 101)

ALL_BCS = (BoundaryKind.DIRICHLET, BoundaryKind.NAVIER_ONE, BoundaryKind.NAVIER_TWO)


def close(actual, expected, rel=1e-12, floor=1.0):
    """Mixed absolute/relative comparison."""
    return abs(actual - expected) <= rel * max(floor, abs(expected))


def lower_branch_root(lam, bc, n_iter=None):
    """The small-|a| branch root, isolated in a narrow window near zero."""
    roots = find_branches(lam, bc, window=(-2.5, 2.5), n_iter=n_iter)
    assert roots, f"no branch near the origin at lam={lam} [{bc.value}]"
    return min(roots, key=lambda r: abs(r.a_star))


def sup_on_grid(poly, grid=GRID_101):
    from epibvp import evaluate

    return float(np.max(np.abs(evaluate(poly, grid))))


def exact_defect(w, lam, r):
    """Defect r^2 w'' - r w' - w^2/2 - lam r^4/2 of w at r, in exact rationals.

    The float coefficients, the rate and the point are taken at their exact
    binary values; the result is a ``Fraction``.
    """
    r = Fraction(float(r))
    value = linear = Fraction(0)
    for k in reversed(range(w.coeffs.size)):
        ck = Fraction(float(w.coeffs[k]))
        value = value * r + ck
        linear = linear * r + k * (k - 2) * ck
    return linear - value * value / 2 - Fraction(lam) * r ** 4 / 2


def exact_readings(a, lam, n, tangent=True, number=Fraction):
    """(w(1), w'(1), w_a(1), w_a'(1)) of the depth-n iterate started at
    a r**2, in exact rationals from the float a and lam; without
    ``tangent`` only (w(1), w'(1)).  With ``number=Decimal`` the same sums
    are rounded to the precision of the current decimal context, which is
    much faster than exact rationals from depth 8 on.

    With w = s v, s = r**2, a step is v <- L v + N (v**2 + lam) with
    L s**j = s**j / (2 j + 1) and N s**j = s**(j + 1) / (4 (j + 2) (2 j + 3));
    v_a steps along as L v_a + N (2 v v_a).
    """
    v, v_a = [number(float(a))], [number(1)]
    lam = number(float(lam))
    for _ in range(n):
        q = [number(0)] * (2 * len(v) - 1)
        q_a = list(q)
        for i, x in enumerate(v):
            q[2 * i] += x * x
            for j in range(i + 1, len(v)):
                q[i + j] += 2 * x * v[j]
            if tangent:
                for j, y in enumerate(v_a):
                    q_a[i + j] += 2 * x * y
        q[0] += lam
        pad = [number(0)] * len(v)
        v = [x / (2 * j + 1) for j, x in enumerate(v)] + pad
        v_a = [x / (2 * j + 1) for j, x in enumerate(v_a)] + pad
        for j in range(len(q)):
            weight = 4 * (j + 2) * (2 * j + 3)
            v[j + 1] += q[j] / weight
            v_a[j + 1] += q_a[j] / weight
    # w = sum v_j r**(2 j + 2), so w'(1) = sum (2 j + 2) v_j
    values = (v, v_a) if tangent else (v,)
    return tuple(total for c in values
                 for total in (sum(c), sum((2 * j + 2) * x
                                           for j, x in enumerate(c))))
