"""Dense univariate polynomial arithmetic over the radial variable.

Polynomials are stored densely from degree zero: ``coeffs[k]`` holds the
coefficient of ``r**k``.  Every object the solver manipulates (iterates of
the correction scheme, equation defects, recovered height profiles) lives
in this representation.

The module also provides the closed-form integral kernel of the correction
scheme.  Integrating a monomial ``t**k`` (k >= 2) against the weight
``(t - r) / t**2`` from 0 to r gives ``-r**k / (k (k - 1))``; the kernel is
therefore a diagonal map on coefficients and introduces no quadrature
error.  Monomials of degree 0 or 1 make the integral diverge at the
singular endpoint, which is reported as :class:`NonIntegrableDefect`.
"""

from __future__ import annotations

from functools import lru_cache
from numbers import Real

import numpy as np

__all__ = [
    "NonIntegrableDefect",
    "RPoly",
    "add",
    "mul",
    "differentiate",
    "evaluate",
    "apply_vim_kernel",
]


class NonIntegrableDefect(ValueError):
    """Defect has a constant or linear term, so the kernel integral diverges.

    Reaching this from inside the iteration signals a violated structural
    invariant upstream (an iterate with a spurious r**0 or r**1 term).
    """


def _trimmed(values) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.ndim != 1:
        raise ValueError("coefficients must be one-dimensional")
    nonzero = np.flatnonzero(arr)
    arr = arr[: nonzero[-1] + 1] if nonzero.size else arr[:1] * 0.0
    if arr.size == 0:
        arr = np.zeros(1)
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _kernel_weights(n: int) -> np.ndarray:
    # -1/(k(k-1)) for the exponents k >= 2, zero slots below; cached per length
    k = np.arange(n, dtype=float)
    out = np.zeros(n)
    big = k >= 2.0
    out[big] = -1.0 / (k[big] * (k[big] - 1.0))
    out.setflags(write=False)
    return out


class RPoly:
    """Immutable dense polynomial in the radial variable.

    Structural (exact) trailing zeros are trimmed on construction; trimming
    never changes evaluation.  Coefficients are double precision and no
    magnitude-based pruning is ever applied: tiny coefficients of high
    powers still matter near r = 1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _trimmed(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("RPoly is immutable")

    def __reduce__(self):
        # rebuild through the constructor: pickle's default restores slots
        # by setattr, which the class refuses
        return (RPoly, (self.coeffs,))

    @classmethod
    def zero(cls) -> "RPoly":
        return cls([0.0])

    @classmethod
    def monomial(cls, power: int, coefficient: float = 1.0) -> "RPoly":
        if power < 0:
            raise ValueError("power must be nonnegative")
        c = np.zeros(power + 1)
        c[power] = coefficient
        return cls(c)

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient; -1 for the zero polynomial."""
        nonzero = np.flatnonzero(self.coeffs)
        return int(nonzero[-1]) if nonzero.size else -1

    def coefficient(self, power: int) -> float:
        if 0 <= power < self.coeffs.size:
            return float(self.coeffs[power])
        return 0.0

    def __eq__(self, other) -> bool:
        if not isinstance(other, RPoly):
            return NotImplemented
        return self.coeffs.shape == other.coeffs.shape and bool(
            np.all(self.coeffs == other.coeffs)
        )

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    def __add__(self, other: "RPoly") -> "RPoly":
        return add(self, other)

    def __sub__(self, other: "RPoly") -> "RPoly":
        return add(self, other * -1.0)

    def __neg__(self) -> "RPoly":
        return self * -1.0

    def __mul__(self, other):
        if isinstance(other, RPoly):
            return mul(self, other)
        return RPoly(self.coeffs * float(other))

    __rmul__ = __mul__

    def __call__(self, r):
        return evaluate(self, r)

    def __repr__(self):
        return f"RPoly({self.coeffs.tolist()!r})"


def add(p: RPoly, q: RPoly) -> RPoly:
    """Coefficient-wise sum; (p + q)(r) = p(r) + q(r)."""
    a, b = p.coeffs, q.coeffs
    if a.size < b.size:
        a, b = b, a
    out = a.copy()
    out[: b.size] += b
    return RPoly(out)


def mul(p: RPoly, q: RPoly) -> RPoly:
    """Product by direct convolution of the coefficient sequences."""
    return RPoly(np.convolve(p.coeffs, q.coeffs))


def differentiate(p: RPoly) -> RPoly:
    """First derivative: coefficient rule c'[k-1] = k c[k]."""
    c = p.coeffs
    if c.size == 1:
        return RPoly.zero()
    k = np.arange(1, c.size, dtype=float)
    return RPoly(k * c[1:])


def evaluate(p: RPoly, r):
    """Horner evaluation at a scalar or ndarray of points.

    A real scalar is taken as a float and runs on Python floats, an array
    in place; both make the float64 operations acc * r + c_k, one
    rounding each, from acc = 0.
    """
    c = p.coeffs
    if isinstance(r, Real):
        x, acc = float(r), 0.0
        for ck in c[::-1].tolist():
            acc = acc * x + ck
        return acc
    r = np.asarray(r, dtype=float)
    acc = np.zeros_like(r)
    for ck in c[::-1].tolist():
        acc *= r
        acc += ck
    # a 0-d point gives a numpy scalar
    return acc if acc.ndim else acc[()]


def apply_vim_kernel(f: RPoly) -> RPoly:
    """Integrate f against the kernel (t - r)/t**2 from 0 to r, in closed form.

    Acts on monomials as t**k -> -r**k / (k (k - 1)) for k >= 2.  The input
    must have exactly zero coefficients at degrees 0 and 1; otherwise the
    integral diverges at t = 0 and :class:`NonIntegrableDefect` is raised.
    """
    c = f.coeffs
    if c[0] != 0.0 or (c.size > 1 and c[1] != 0.0):
        raise NonIntegrableDefect(
            "kernel input has a nonzero r**0 or r**1 coefficient"
        )
    return RPoly(c * _kernel_weights(c.size))
