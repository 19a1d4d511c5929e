import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from sphereq import kernels, legendre
from sphereq.errors import CapabilityError, ConditioningError, DomainError
from sphereq.kernels import kernel_series_eval
from sphereq.legendre import (
    N_EXACT_MAX,
    PolynomialCoefficients,
    derivative_recurrence,
    harmonic_dimension,
    legendre_derivative_eval,
    legendre_eval,
    legendre_norm,
    rodrigues_coefficients,
)

# abscissae exactly representable as dyadic rationals, away from zeros
RATIONAL_X = [Fraction(k, 16) for k in (-15, -9, -5, -1, 3, 7, 11, 16)]


def test_eval_degree_one_is_identity():
    assert legendre_eval(1, 0.37) == pytest.approx(0.37, abs=1e-15)


def test_eval_at_one_is_one():
    assert legendre_eval(4, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_eval_degree_three_matches_rodrigues_oracle():
    # oracle: exact Rodrigues polynomial evaluated in rational arithmetic
    exact = rodrigues_coefficients(3).evaluate(Fraction(1, 2))
    assert exact == Fraction(-7, 16)
    assert legendre_eval(3, 0.5) == pytest.approx(-0.4375, abs=1e-15)


def test_eval_rejects_bad_arguments():
    with pytest.raises(DomainError):
        legendre_eval(3, 1.5)
    with pytest.raises(DomainError):
        legendre_eval(-1, 0.5)


@pytest.mark.parametrize(
    "fn, args",
    [
        (legendre_eval, (3, math.nan)),
        (legendre_derivative_eval, (3, 1, math.nan)),
        (legendre_derivative_eval, (3, 1, np.array([0.5, math.nan]))),
        (legendre_norm, (math.nan,)),
        (rodrigues_coefficients, (math.nan,)),
        (PolynomialCoefficients, (2.5, (Fraction(1),) * 3)),
    ],
    ids=lambda v: getattr(v, "__name__", repr(v)),
)
def test_nan_and_fractional_degrees_raise_domain_error(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


def test_derivative_degree_two_order_one():
    # oracle: P2 = (3x^2 - 1)/2, so P2' = 3x
    assert legendre_derivative_eval(2, 1, 0.3) == pytest.approx(0.9, rel=1e-14)


def test_derivative_order_exceeding_degree_is_zero():
    assert legendre_derivative_eval(5, 6, 0.2) == 0.0


def test_derivative_bound_attained_at_right_endpoint():
    # |P_n'(x)| <= n(n+1)/2 with equality at x = 1
    assert legendre_derivative_eval(6, 1, 1.0) == pytest.approx(21.0, rel=1e-13)


def test_derivative_order_zero_matches_eval():
    x = np.linspace(-1, 1, 11)
    np.testing.assert_allclose(
        legendre_derivative_eval(7, 0, x), legendre_eval(7, x), rtol=0, atol=0
    )


def test_norm_values():
    assert legendre_norm(0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert legendre_norm(1) == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-15)
    assert legendre_norm(12) == pytest.approx(math.sqrt(2.0 / 25.0), rel=1e-15)


def test_norm_matches_quadrature():
    for n in range(21):
        integral, _ = quad(lambda x: legendre_eval(n, x) ** 2, -1.0, 1.0,
                           epsabs=1e-12, limit=200)
        assert integral == pytest.approx(legendre_norm(n) ** 2, abs=1e-10)


def test_harmonic_dimension_values():
    assert harmonic_dimension(2, 0) == 1
    assert harmonic_dimension(2, 3) == 7
    assert harmonic_dimension(3, 2) == 9


def test_harmonic_dimension_cross_checks():
    # d = 2 collapses to 2n + 1; d = 3 to (n + 1)^2
    for n in range(40):
        assert harmonic_dimension(2, n) == 2 * n + 1
        assert harmonic_dimension(3, n) == (n + 1) ** 2
    # generic d against a floating gamma evaluation
    for d in (4, 5, 7):
        for n in (1, 2, 5, 11):
            expect = (
                (2 * n + d - 1)
                * math.gamma(n + d - 1)
                / (math.gamma(d) * math.gamma(n + 1))
            )
            assert harmonic_dimension(d, n) == pytest.approx(expect, rel=1e-12)


def test_harmonic_dimension_rejects_bad_arguments():
    with pytest.raises(DomainError):
        harmonic_dimension(0, 3)
    with pytest.raises(DomainError):
        harmonic_dimension(2, -1)


def test_rodrigues_small_degrees():
    assert rodrigues_coefficients(0).coeffs == (Fraction(1),)
    assert rodrigues_coefficients(2).coeffs == (
        Fraction(-1, 2),
        Fraction(0),
        Fraction(3, 2),
    )
    assert rodrigues_coefficients(3).coeffs == (
        Fraction(0),
        Fraction(-3, 2),
        Fraction(0),
        Fraction(5, 2),
    )


def test_rodrigues_standardization_and_leading_coefficient():
    for n in range(0, 31, 5):
        poly = rodrigues_coefficients(n)
        assert poly.evaluate(Fraction(1)) == 1
        if n >= 1:
            assert poly.coeffs[-1] != 0


def test_rodrigues_degree_cap():
    rodrigues_coefficients(N_EXACT_MAX)
    with pytest.raises(CapabilityError):
        rodrigues_coefficients(N_EXACT_MAX + 1)


def test_polynomial_coefficients_validation():
    with pytest.raises(ValueError):
        PolynomialCoefficients(2, (Fraction(1), Fraction(2)))
    with pytest.raises(ValueError):
        PolynomialCoefficients(1, (Fraction(1), Fraction(0)))


def test_bonnet_recurrence_residual():
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.0, 1.0, 1000)
    for n in range(1, 51):
        lhs = (2 * n + 1) * x * legendre_eval(n, x)
        rhs = (n + 1) * legendre_eval(n + 1, x) + n * legendre_eval(n - 1, x)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_derivative_difference_identity():
    rng = np.random.default_rng(12)
    x = rng.uniform(-1.0, 1.0, 500)
    for n in range(1, 41):
        lhs = (2 * n + 1) * legendre_eval(n, x)
        rhs = legendre_derivative_eval(n + 1, 1, x) - legendre_derivative_eval(
            n - 1, 1, x
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_boundedness():
    rng = np.random.default_rng(13)
    x = rng.uniform(-1.0, 1.0, 400)
    for n in range(1, 41):
        assert np.max(np.abs(legendre_eval(n, x))) <= 1.0 + 1e-12
        bound = n * (n + 1) / 2.0
        assert np.max(np.abs(legendre_derivative_eval(n, 1, x))) <= bound + 1e-9


def test_recurrence_matches_rodrigues_oracle():
    # values and derivatives against exact rational evaluation, n <= 30, m <= 5
    for n in range(0, 31, 3):
        poly = rodrigues_coefficients(n)
        for m in range(6):
            dpoly = poly.derivative_order(m)
            for xq in RATIONAL_X:
                exact = float(dpoly.evaluate(xq))
                got = legendre_derivative_eval(n, m, float(xq))
                assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))


def test_every_order_to_ten_matches_rodrigues_up_to_the_exact_degree_cap():
    # each order m runs its own three-term recurrence; n <= N_EXACT_MAX, m <= 10
    for n in range(N_EXACT_MAX + 1):
        poly = rodrigues_coefficients(n)
        for m in range(11):
            dpoly = poly.derivative_order(m)
            for xq in RATIONAL_X:
                exact = float(dpoly.evaluate(xq))
                got = legendre_derivative_eval(n, m, float(xq))
                assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))


def test_an_order_above_the_degrees_costs_nothing_and_is_zero():
    x = np.array([[0.5, -0.2], [1.0, -1.0]])
    values = list(derivative_recurrence(5, 10**6, x))
    assert len(values) == 6
    for p in values:
        assert p.shape == x.shape and not p.any()
    got = kernel_series_eval("pycke", 10**6, [0.5, -0.2], 5)
    assert got.value.tolist() == [0.0, 0.0] and got.tail_estimate.tolist() == [0.0, 0.0]


def test_an_overflowing_derivative_raises_conditioning_error():
    # (2m - 1)!! is beyond the float range at m = 200
    with pytest.raises(ConditioningError, match="overflows"):
        legendre_derivative_eval(300, 200, 0.5)
    with pytest.raises(ConditioningError, match="overflows"):
        kernel_series_eval("pycke", 200, 0.5, 300)
    assert legendre_derivative_eval(150, 150, 0.5) == pytest.approx(math.prod(range(1, 300, 2)))


@pytest.mark.parametrize("n, m, x", [(350, 100, 1.0), (600, 120, 0.3), (600, 120, [0.3, 0.2])])
def test_a_derivative_that_overflows_after_a_finite_start_raises_conditioning_error(n, m, x):
    # (2m - 1)!! is finite at m = 100 and 120; a later degree of the
    # recurrence, and so the series, is not
    with pytest.raises(ConditioningError, match="overflows"):
        legendre_derivative_eval(n, m, x)
    with pytest.raises(ConditioningError, match="overflows"):
        kernel_series_eval("pycke", m, x, n)


def test_a_derivative_near_the_float_range_is_still_returned():
    assert legendre_derivative_eval(400, 100, 0.9).hex() == "0x1.87da64b064cefp+978"
    series = kernel_series_eval("pycke", 100, 0.9, 400)
    assert math.isfinite(series.value) and math.isfinite(series.tail_estimate)


def _expression_recurrence(n_max, m, x):
    """derivative_recurrence in its expression form, one fresh array per degree."""
    x = np.asarray(x, dtype=float)
    prev = np.zeros_like(x)
    for _ in range(min(m, n_max + 1)):
        yield prev
    if m > n_max:
        return
    cur = np.full_like(x, math.prod(range(1, 2 * m, 2), start=1.0))
    yield cur
    for k in range(m, n_max):
        prev, cur = cur, ((2 * k + 1) * (x * cur) - (k + m) * prev) / (k - m + 1)
        yield cur


@pytest.mark.parametrize("shape", [(203,), (7, 29)])
@pytest.mark.parametrize("m", range(5))
def test_the_in_place_recurrence_keeps_the_expression_bytes(m, shape, monkeypatch):
    x = np.random.default_rng(m).uniform(-1.0, 1.0, 203)
    x[:4] = (-1.0, -0.0, 0.0, 1.0)
    x = x.reshape(shape)
    n_max = 300
    got = [p.copy() for p in derivative_recurrence(n_max, m, x)]
    want = list(_expression_recurrence(n_max, m, x))
    assert len(got) == len(want) == n_max + 1
    for g, w in zip(got, want):
        assert g.shape == shape and g.tobytes() == w.tobytes()

    def consumers():
        return [
            legendre_derivative_eval(n_max, m, x),
            *kernel_series_eval("pycke", m, x, n_max),
            *kernel_series_eval("cui-freeden", m, x, n_max),
        ]

    fast = consumers()
    monkeypatch.setattr(legendre, "derivative_recurrence", _expression_recurrence)
    monkeypatch.setattr(kernels, "derivative_recurrence", _expression_recurrence)
    for g, w in zip(fast, consumers()):
        assert g.tobytes() == w.tobytes()
