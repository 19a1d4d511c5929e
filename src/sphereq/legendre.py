"""Legendre polynomials: values, derivatives of any order, norms, and the
spherical-harmonic dimension count.

Runtime evaluation uses one recurrence, :func:`derivative_recurrence`: for
each derivative order m, the three-term recurrence of P_n^(m) =
(2m-1)!! C_{n-m}^(m+1/2), the Gegenbauer polynomials' own (Szego,
*Orthogonal Polynomials*, 4.7), which costs O(n) for any m and stays
forward-stable on [-1, 1]; at m = 0 it is Bonnet's.  An exact rational
construction from Rodrigues' formula is kept as a small-degree oracle;
expanding it symbolically costs O(2^n), so it is never used for runtime
evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import CapabilityError, ConditioningError, require, whole

#: Largest degree for which the exact rational oracle is built.
N_EXACT_MAX = 60

_DEGREE = "degree must be a non-negative integer"


def legendre_eval(n: int, x):
    """Evaluate P_n(x) by Bonnet's recurrence.

    Parameters
    ----------
    n : int
        Degree, >= 0.
    x : float or ndarray
        Abscissae in [-1, 1].

    Returns
    -------
    float or ndarray with P_n(x), normalized so that P_n(1) = 1.
    """
    return legendre_derivative_eval(n, 0, x)


def legendre_derivative_eval(n: int, m: int, x):
    """Evaluate the m-th derivative d^m P_n / dx^m.

    For ``m == 0`` this is P_n itself; for ``m > n`` the result is exactly
    zero.  Raises :class:`ConditioningError` where (2m-1)!! overflows.
    """
    n = whole(n, _DEGREE)
    m = whole(m, "derivative order must be a non-negative integer")
    arr = np.asarray(x, dtype=float)
    require((arr >= -1.0) & (arr <= 1.0), "legendre argument must lie in [-1, 1]")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    for values in derivative_recurrence(n, m, arr):
        pass
    return float(values[0]) if scalar else values


def derivative_recurrence(n_max: int, m: int, x: np.ndarray) -> Iterator[np.ndarray]:
    """Yield, for each degree k = 0..n_max, P_k^(m)(x) shaped like ``x``.

    P_k^(m) is zero below degree m, (2m-1)!! at degree m and (2m+1)!! x at
    m + 1; above that, P_k^(m) = (2m-1)!! C_{k-m}^(m+1/2)(x) follows the
    Gegenbauer recurrence
    ``(k-m+1) P_{k+1}^(m) = (2k+1) x P_k^(m) - (k+m) P_{k-1}^(m)``,
    which at m = 0 is Bonnet's.  Consumers that need the whole degree range
    (series evaluators) iterate this generator instead of calling
    :func:`legendre_derivative_eval` per degree.  Raises
    :class:`ConditioningError` where (2m-1)!! overflows.
    """
    x = np.asarray(x, dtype=float)
    prev = np.zeros_like(x)
    for _ in range(min(m, n_max + 1)):
        yield prev
    if m > n_max:
        return
    start = math.prod(range(1, 2 * m, 2), start=1.0)  # (2m-1)!!, inf where it overflows
    if start == math.inf:
        raise ConditioningError(f"P_n^({m}) overflows: (2m-1)!! is beyond the float range")
    cur = np.full_like(x, start)
    yield cur
    for k in range(m, n_max):
        prev, cur = cur, ((2 * k + 1) * (x * cur) - (k + m) * prev) / (k - m + 1)
        yield cur


def legendre_norm(n: int) -> float:
    """L2 norm of P_n over [-1, 1]: sqrt(2 / (2n + 1))."""
    n = whole(n, _DEGREE)
    return math.sqrt(1.0 / (n + 0.5))  # 2 / (2n + 1), without an int too large for a float


def harmonic_dimension(d: int, n: int) -> int:
    """Dimension of the space of degree-n spherical harmonics on S^d.

    Computed exactly as C(n+d, d) - C(n+d-2, d), the dimension of the
    homogeneous polynomials of degree n in d + 1 variables less that of
    degree n - 2; for d = 2 this reduces to 2n + 1.  ``math.comb`` works
    from the smaller side, so a huge n or d alone stays cheap.
    """
    d = whole(d, "sphere dimension must be a positive integer", low=1)
    n = whole(n, _DEGREE)
    if n == 0:
        return 1
    return math.comb(n + d, d) - math.comb(n + d - 2, d)


@dataclass(frozen=True)
class PolynomialCoefficients:
    """Exact polynomial sum(coeffs[k] * x^k), coefficients as rationals."""

    degree: int
    coeffs: tuple

    def __post_init__(self):
        degree = whole(self.degree, _DEGREE)
        require(len(self.coeffs) == degree + 1, "coefficient count must equal degree + 1")
        require(degree == 0 or self.coeffs[-1] != 0, "leading coefficient must be nonzero")

    def evaluate(self, x):
        """Horner evaluation; exact when ``x`` is a Fraction or int."""
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def derivative(self) -> "PolynomialCoefficients":
        if self.degree == 0:
            return PolynomialCoefficients(0, (Fraction(0),))
        new = tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1)
        return PolynomialCoefficients(self.degree - 1, new)

    def derivative_order(self, m: int) -> "PolynomialCoefficients":
        poly = self
        for _ in range(m):
            poly = poly.derivative()
        return poly


def rodrigues_coefficients(n: int) -> PolynomialCoefficients:
    """Exact coefficients of P_n from Rodrigues' formula.

    P_n(x) = 1/(2^n n!) d^n/dx^n (x^2 - 1)^n, expanded with rational
    arithmetic.  Limited to ``n <= N_EXACT_MAX`` to keep the expansion cheap.
    """
    n = whole(n, _DEGREE)
    if n > N_EXACT_MAX:
        raise CapabilityError(
            f"exact Rodrigues expansion supported up to degree {N_EXACT_MAX}"
        )
    coeffs = [Fraction(0)] * (n + 1)
    scale = Fraction(1, 2**n * math.factorial(n))
    for k in range((n + 1) // 2, n + 1):
        # d^n/dx^n of binom(n,k) (-1)^(n-k) x^(2k) -> (2k)!/(2k-n)! x^(2k-n)
        c = (
            Fraction(math.comb(n, k) * (-1) ** (n - k))
            * Fraction(math.factorial(2 * k), math.factorial(2 * k - n))
            * scale
        )
        coeffs[2 * k - n] = c
    return PolynomialCoefficients(n, tuple(coeffs))
