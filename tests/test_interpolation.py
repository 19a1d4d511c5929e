import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from sphereq.errors import (
    CapabilityError,
    ConditioningError,
    ConfigurationError,
    DomainError,
    SingularKernelError,
)
from sphereq.kernels import KernelSpec, _kernel_eval_u, is_singular_at_coincidence, parse_kernel
from sphereq.discrepancy import PointSet
from sphereq.pointgen import candidate_grid, random_unit_points
from sphereq import interpolation
from sphereq.interpolation import (
    epsilon_sweep,
    fit_interpolant,
    franke_eval,
    interpolant_eval,
    loocv_errors_fast,
    loocv_errors_slow,
    monomial_basis,
)

CF = KernelSpec("cui-freeden")


def tetrahedron() -> PointSet:
    return PointSet(
        np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
    )


def franke_by_hand(x, y, z):
    # independent term-by-term oracle for the four-Gaussian target
    return (
        0.75 * math.exp(-((9 * x - 2) ** 2 + (9 * y - 2) ** 2 + (9 * z - 2) ** 2) / 4)
        + 0.75
        * math.exp(
            -((9 * x + 1) ** 2) / 49 - ((9 * y + 1) ** 2) / 10 - ((9 * z + 1) ** 2) / 10
        )
        + 0.5 * math.exp(-((9 * x - 7) ** 2 + (9 * y - 3) ** 2 + (9 * z - 5) ** 2) / 4)
        - 0.2 * math.exp(-((9 * x - 4) ** 2) / 4 - (9 * y - 7) ** 2 - (9 * z - 5) ** 2)
    )


# --- target function ----------------------------------------------------------

def test_franke_north_pole():
    val = franke_eval(np.array([0.0, 0.0, 1.0]))
    assert val == pytest.approx(franke_by_hand(0, 0, 1), rel=1e-14)
    assert val == pytest.approx(3.07e-5, abs=2e-7)


def test_franke_x_axis():
    val = franke_eval(np.array([1.0, 0.0, 0.0]))
    assert val == pytest.approx(franke_by_hand(1, 0, 0), rel=1e-14)
    assert val == pytest.approx(0.0798, abs=2e-4)


def test_franke_defined_off_sphere():
    val = franke_eval(np.array([0.0, 0.0, 0.0]))
    assert val == pytest.approx(franke_by_hand(0, 0, 0), rel=1e-14)
    assert val == pytest.approx(0.6389838, abs=1e-6)


def test_franke_vectorized():
    pts = random_unit_points(7, seed=1).points
    vals = franke_eval(pts)
    for k in range(7):
        assert vals[k] == pytest.approx(franke_by_hand(*pts[k]), rel=1e-14)


# --- monomial tails -------------------------------------------------------------

def test_monomial_counts():
    pts = random_unit_points(5, seed=2).points
    assert monomial_basis(pts, -1).shape == (5, 0)
    assert monomial_basis(pts, 0).shape == (5, 1)
    assert monomial_basis(pts, 1).shape == (5, 4)
    assert monomial_basis(pts, 2).shape == (5, 10)
    assert monomial_basis(pts, -3).shape == (5, 0)  # any negative degree means no tail
    with pytest.raises(DomainError, match="polynomial degree must be an integer"):
        monomial_basis(pts, 1.5)


@pytest.mark.parametrize(
    "p", [[3.0, 0.0, 0.0], [math.nan, 0.0, 1.0], [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]]]
)
def test_interpolant_eval_takes_unit_points_only(p):
    pts = random_unit_points(8, seed=24)
    model = fit_interpolant(pts, franke_eval(pts.points), CF, 1.5, 0.1, 1)
    with pytest.raises(DomainError):
        interpolant_eval(model, p)


def test_interpolant_eval_beyond_the_diameter_and_at_a_singular_center():
    # eps r runs to 6 here, beyond the diameter 2 that the chordal kernel_eval
    # accepts: K is evaluated on the half-chords r (eps / 2), as in the fit,
    # and a singular kernel at a center keeps kernel_eval's refusal
    pts = random_unit_points(12, seed=2)
    model = fit_interpolant(pts, franke_eval(pts.points), parse_kernel("pycke"), 3.0, 0.1, 1)
    assert np.isfinite(interpolant_eval(model, random_unit_points(5, seed=3).points)).all()
    with pytest.raises(SingularKernelError, match="singular at coincidence"):
        interpolant_eval(model, pts.points[4])


# --- fitting ---------------------------------------------------------------------

def test_fit_zero_data_gives_zero_coefficients():
    pts = random_unit_points(12, seed=3)
    model = fit_interpolant(pts, np.zeros(12), CF, epsilon=1.5, sigma=0.0,
                            poly_degree=-1)
    assert np.all(model.w == 0.0)


def test_fit_constant_reproduced_by_tail():
    model = fit_interpolant(tetrahedron(), np.full(4, 3.25), CF, epsilon=1.0,
                            sigma=0.0, poly_degree=0)
    pred = interpolant_eval(model, tetrahedron().points)
    assert np.max(np.abs(pred - 3.25)) < 1e-10


def test_fit_interpolates_franke():
    pts = random_unit_points(20, seed=9)
    y = franke_eval(pts.points)
    model = fit_interpolant(pts, y, CF, epsilon=2.0, sigma=0.0, poly_degree=1)
    assert np.max(np.abs(interpolant_eval(model, pts.points) - y)) < 1e-8


def test_fit_rejects_bad_parameters():
    pts = random_unit_points(5, seed=4)
    with pytest.raises(DomainError):
        fit_interpolant(pts, np.zeros(5), CF, epsilon=0.0)
    with pytest.raises(DomainError):
        fit_interpolant(pts, np.zeros(5), CF, epsilon=1.0, sigma=-0.5)
    with pytest.raises(DomainError):
        fit_interpolant(pts, np.zeros(4), CF)
    dup = PointSet(np.array([[0, 0, 1.0], [0, 0, 1.0], [1, 0, 0.0]]))
    with pytest.raises(DomainError):
        fit_interpolant(dup, np.zeros(3), CF)


def test_singular_kernel_fit_requires_smoothing():
    pts = random_unit_points(8, seed=5)
    y = franke_eval(pts.points)
    with pytest.raises(CapabilityError):
        fit_interpolant(pts, y, KernelSpec("pycke", m=1), epsilon=1.0, sigma=0.0)
    model = fit_interpolant(pts, y, KernelSpec("pycke", m=1), epsilon=1.0, sigma=0.5)
    assert np.all(np.isfinite(model.w))


def test_eval_of_zero_model_is_zero():
    pts = random_unit_points(10, seed=6)
    model = fit_interpolant(pts, np.zeros(10), CF, epsilon=1.0, poly_degree=1)
    grid = candidate_grid(64).points.points
    assert np.max(np.abs(interpolant_eval(model, grid))) < 1e-12


def test_model_export_fields():
    pts = random_unit_points(6, seed=7)
    model = fit_interpolant(pts, franke_eval(pts.points), CF, epsilon=1.5,
                            sigma=0.1, poly_degree=1)
    payload = model.to_json_dict()
    assert set(payload) == {"kernel", "epsilon", "sigma", "degree", "centers", "w", "b"}
    assert payload["kernel"] == "cui-freeden"
    assert len(payload["w"]) == 6
    assert len(payload["b"]) == 4


def test_franke_fit_accuracy_regression():
    # locked from the first run of this configuration
    pts = random_unit_points(200, seed=10)
    y = franke_eval(pts.points)
    model = fit_interpolant(pts, y, CF, epsilon=2.0, sigma=0.0, poly_degree=1)
    grid = candidate_grid(4096).points.points
    err = np.abs(interpolant_eval(model, grid) - franke_eval(grid))
    assert err.max() < 0.31
    assert err.mean() < 0.007


# --- leave-one-out -----------------------------------------------------------------

def test_loocv_zero_data():
    pts = random_unit_points(9, seed=8)
    assert np.all(loocv_errors_slow(pts, np.zeros(9), CF, 1.0, 0.0, 1) == 0.0)
    assert np.all(loocv_errors_fast(pts, np.zeros(9), CF, 1.0, 0.0, 1) == 0.0)


def test_loocv_slow_reproducible():
    pts = random_unit_points(10, seed=11)
    y = franke_eval(pts.points)
    a = loocv_errors_slow(pts, y, CF, 2.0, 0.0, 1)
    b = loocv_errors_slow(pts, y, CF, 2.0, 0.0, 1)
    assert np.array_equal(a, b)


def test_loocv_fast_matches_slow_small_case():
    pts = random_unit_points(10, seed=11)
    y = franke_eval(pts.points)
    slow = loocv_errors_slow(pts, y, CF, 2.0, 0.0, 1)
    fast = loocv_errors_fast(pts, y, CF, 2.0, 0.0, 1)
    assert np.max(np.abs(slow - fast)) < 1e-8


def test_loocv_panel_fast_equals_slow():
    # 20 instances across sizes, smoothing levels and tail degrees
    rng = np.random.default_rng(77)
    cases = []
    for k in range(20):
        n = int(rng.integers(8, 41))
        sigma = (0.0, 0.1)[k % 2]
        degree = (-1, 0, 1)[k % 3]
        cases.append((n, sigma, degree, 1000 + k))
    for n, sigma, degree, seed in cases:
        pts = random_unit_points(n, seed=seed)
        y = franke_eval(pts.points)
        slow = loocv_errors_slow(pts, y, CF, 1.5, sigma, degree)
        fast = loocv_errors_fast(pts, y, CF, 1.5, sigma, degree)
        assert np.max(np.abs(slow - fast)) < 1e-8


def fibonacci_lattice(n, seed):
    """Spherical Fibonacci lattice turned by a seeded random rotation."""
    i = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / n
    rho = np.sqrt(1.0 - z * z)
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    p = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    p /= np.linalg.norm(p, axis=1)[:, None]
    return p @ random_rotation(seed).T


def random_rotation(seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def loocv_by_inverse(p, y, epsilon, sigma, degree):
    # the shortcut from an explicit inverse of the cui-freeden saddle matrix; r is
    # built as the program builds it, diagonal rounding included
    n = len(p)
    r = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * np.clip(p @ p.T, -1.0, 1.0)))
    tail = np.hstack([np.ones((n, 1)), p][: degree + 1]) if degree >= 0 else np.zeros((n, 0))
    m = tail.shape[1]
    g = np.zeros((n + m, n + m))
    g[:n, :n] = 1.0 - 2.0 * np.log1p(epsilon * r / 2.0) + sigma**2 * np.eye(n)
    g[:n, n:], g[n:, :n] = tail, tail.T
    g_inv = np.linalg.inv(g)
    return (g_inv[:n, :n] @ y) / np.diagonal(g_inv)[:n]


@pytest.mark.parametrize("sigma", [0.0, 0.1])
@pytest.mark.parametrize("degree", [-1, 0, 1])
def test_loocv_fast_matches_explicit_inverse(sigma, degree):
    p = fibonacci_lattice(300, seed=5)
    y = franke_eval(p)
    fast = loocv_errors_fast(PointSet(p), y, CF, 2.5, sigma, degree)
    want = loocv_by_inverse(p, y, 2.5, sigma, degree)
    scale = max(np.max(np.abs(want)), np.max(np.abs(y)))
    assert np.max(np.abs(fast - want)) <= 1e-9 * scale


@pytest.mark.parametrize("epsilon", [2.0, 6.0])
def test_loocv_fast_matches_explicit_inverse_at_the_sweep_size(epsilon):
    # the size of the N=1000 sweep, where the factor has 2x2 pivots and the
    # tail rows trade places with kernel rows far up the matrix
    p = fibonacci_lattice(1000, seed=5)
    y = franke_eval(p)
    r = interpolation._distances(PointSet(p))
    g = interpolation._saddle(r, interpolation.monomial_basis(p, 1), CF, epsilon, 0.1)
    ipiv = lapack.dsytrf(g)[1]
    assert np.any(ipiv < 0) and np.min(np.abs(ipiv)) < 400
    fast = loocv_errors_fast(PointSet(p), y, CF, epsilon, 0.1, 1)
    want = loocv_by_inverse(p, y, epsilon, 0.1, 1)
    scale = max(np.max(np.abs(want)), np.max(np.abs(y)))
    assert np.max(np.abs(fast - want)) <= 1e-9 * scale


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 80),
    kind=st.sampled_from(["general", "zero diagonal", "positive definite"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_inverse_diagonal_matches_an_explicit_inverse(n, kind, seed):
    # a zero diagonal forces 2x2 pivots and row interchanges
    a = np.random.default_rng(seed).standard_normal((n, n))
    a += a.T
    if kind == "zero diagonal":
        np.fill_diagonal(a, 0.0)
    elif kind == "positive definite":
        a = a @ a.T + np.eye(n)
    cond = np.linalg.cond(a)
    assume(cond < 1e8)
    inv = np.linalg.inv(a)
    f = np.array(a, order="F")
    factor, ipiv, info = lapack.dsytrf(f, lwork=int(lapack.dsytrf_lwork(n)[0]), overwrite_a=1)
    assert info == 0
    got = interpolation._inverse_diagonal(factor, ipiv)
    tol = 16 * np.finfo(float).eps * cond * np.max(np.abs(inv))
    assert np.max(np.abs(got - np.diagonal(inv))) <= tol


@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_loocv_rank_deficient_tail_raises(sigma):
    # x^2 + y^2 + z^2 = 1 makes the degree-2 monomials linearly dependent on
    # the sphere, so the saddle matrix is singular up to rounding
    pts = random_unit_points(60, seed=22)
    y = franke_eval(pts.points)
    for fit in (loocv_errors_fast, fit_interpolant):  # one factor, one rule
        with pytest.raises(ConditioningError) as info:
            fit(pts, y, CF, 1.5, sigma, 2)
        assert info.value.condition_estimate > 1e15
    with pytest.raises(ConfigurationError):
        epsilon_sweep(pts, y, CF, eps_grid=[1.0, 2.0, 4.0], sigma=sigma, poly_degree=2)


def test_loocv_input_errors_keep_their_types():
    pts = random_unit_points(12, seed=23).points
    dup = PointSet(np.vstack([pts, pts[:1]]))
    y = franke_eval(dup.points)
    with pytest.raises(DomainError):
        loocv_errors_fast(dup, y, CF, 1.5, 0.1, 1)
    with pytest.raises(ConfigurationError):
        epsilon_sweep(dup, y, CF, eps_grid=[1.0, 2.0], sigma=0.1, poly_degree=1)
    pycke = KernelSpec("pycke")
    y = franke_eval(pts)
    with pytest.raises(CapabilityError):
        loocv_errors_fast(PointSet(pts), y, pycke, 1.5, 0.0, 1)
    with pytest.raises(ConfigurationError):
        epsilon_sweep(PointSet(pts), y, pycke, eps_grid=[1.0, 2.0], sigma=0.0)
    with pytest.raises(DomainError):
        loocv_errors_fast(PointSet(pts), y[:-1], CF, 1.5, 0.1, 1)
    with pytest.raises(DomainError):
        epsilon_sweep(PointSet(pts), y[:-1], CF, eps_grid=[1.0])



@pytest.mark.parametrize("name", ["cui-freeden", "pycke", "riesz:s=0.5", "riesz:s=1"])
def test_fit_matches_scipy_symmetric_solve_bit_for_bit(name):
    # the oracle is the symmetric solve fits used before they shared the
    # LOOCV factor: dsysv gives the same bits on well-conditioned problems
    spec = parse_kernel(name)
    sigma = 0.1 if is_singular_at_coincidence(spec) else 0.0
    for n in (8, 40, 200):
        for seed in range(3):
            pts = random_unit_points(n, seed=seed)
            y = franke_eval(pts.points)
            for degree in (-1, 0, 1):
                model = fit_interpolant(pts, y, spec, 1.5, sigma, degree)
                r = interpolation._distances(pts)
                p = interpolation.monomial_basis(pts, degree)
                g = interpolation._saddle(r, p, spec, 1.5, sigma)
                rhs = np.concatenate([y, np.zeros(g.shape[0] - n)])
                with warnings.catch_warnings():
                    warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
                    want = scipy.linalg.solve(g, rhs, assume_a="sym")
                got = np.concatenate([model.w, model.b])
                assert got.tobytes() == want.tobytes(), (n, seed, degree)


@pytest.mark.parametrize("fit", [fit_interpolant, loocv_errors_fast, loocv_errors_slow])
def test_fits_and_loocv_check_their_arguments_alike(fit):
    pts = random_unit_points(12, seed=24)
    y = franke_eval(pts.points)
    for epsilon in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match="shape parameter must be positive"):
            fit(pts, y, CF, epsilon, 0.1, 1)
    for sigma in (-0.1, 1e200):  # sigma^2 enters G, and 1e200**2 overflows
        with pytest.raises(DomainError, match="smoothing parameter must be non-negative"):
            fit(pts, y, CF, 1.5, sigma, 1)
    for short in (y[:-1], y[:1]):
        with pytest.raises(DomainError, match="one observation per center required"):
            fit(pts, short, CF, 1.5, 0.1, 1)
    for degree in (1.5, math.nan):
        with pytest.raises(DomainError, match="polynomial degree must be an integer"):
            fit(pts, y, CF, 1.5, 0.1, degree)
    with pytest.raises(DomainError, match="observations must be finite"):
        fit(pts, np.where(np.arange(12) == 3, math.nan, y), CF, 1.5, 0.1, 1)


def test_sweep_checks_its_data_and_smoothing_like_a_fit():
    pts = random_unit_points(12, seed=24)
    y = franke_eval(pts.points)
    for sigma in (-0.1, 1e200):
        with pytest.raises(DomainError, match="smoothing parameter must be non-negative"):
            epsilon_sweep(pts, y, CF, eps_grid=[1.0, 2.0], sigma=sigma)
    with pytest.raises(DomainError, match="one observation per center required"):
        epsilon_sweep(pts, y[:1], CF, eps_grid=[1.0])
    with pytest.raises(DomainError, match="epsilon grid must be non-empty and positive"):
        epsilon_sweep(pts, y, CF, eps_grid=[1.0, math.nan])
    with pytest.raises(DomainError, match="observations must be finite"):
        epsilon_sweep(pts, np.where(np.arange(12) == 3, math.nan, y), CF, eps_grid=[1.0])


def test_sweep_refuses_a_polynomial_degree_as_a_fit_does():
    pts = random_unit_points(12, seed=2)
    y = franke_eval(pts.points)
    for degree in (2.5, math.nan):
        with pytest.raises(DomainError, match="polynomial degree must be an integer"):
            epsilon_sweep(pts, y, CF, [1.0], 0.0, degree)
    # duplicate centers still fail every grid point
    twice = PointSet(np.vstack([pts.points, pts.points[:1]]))
    with pytest.raises(ConfigurationError, match="every grid point failed to fit"):
        epsilon_sweep(twice, np.append(y, y[0]), CF, [1.0], 0.0, 1)


def test_slow_loocv_raises_where_a_refit_overflows():
    # a refit with y = 1e308 has no finite solution; the fast route raises too
    pts = random_unit_points(12, seed=2)
    y = np.where(np.arange(12) == 1, 1e308, franke_eval(pts.points))
    for loocv in (loocv_errors_slow, loocv_errors_fast):
        with pytest.raises(ConditioningError):
            loocv(pts, y, CF, 1.0, 0.0, -1)


def _saddle_oracle(r, p, spec, epsilon, sigma):
    """The saddle matrix from the value chain at the half-chords (eps * r) / 2,
    as the chordal kernel_eval forms them, also beyond eps * r = 2."""
    n, m = p.shape
    diag = np.arange(n)
    g = np.zeros((n + m, n + m))
    g[:n, :n] = _kernel_eval_u(spec, (epsilon * r) / 2.0)
    if is_singular_at_coincidence(spec):
        g[diag, diag] = 0.0
    g[diag, diag] += sigma**2
    g[:n, n:] = p
    g[n:, :n] = p.T
    return g


@pytest.mark.parametrize(
    "name, sigma",
    [("cui-freeden", 0.0), ("cui-freeden", 0.1), ("pycke", 0.1), ("riesz:s=1", 0.1)],
)
@pytest.mark.parametrize("degree", [-1, 0, 1])
def test_saddle_is_bit_identical_to_a_kernel_eval_of_eps_r(name, sigma, degree):
    spec = parse_kernel(name)
    pts = random_unit_points(90, seed=26)
    r, p = interpolation._distances(pts), interpolation.monomial_basis(pts, degree)
    for eps in (0.5, 1.0, 3.0, 6.0, 0.37):
        g = interpolation._saddle(r, p, spec, eps, sigma)
        assert g.tobytes() == _saddle_oracle(r, p, spec, eps, sigma).tobytes()
    with pytest.raises(DomainError):
        interpolation._saddle(r, p, spec, -1.0, sigma)


@pytest.mark.parametrize("name", ["gine:d1", "ajne:d1"])
@pytest.mark.parametrize("antipodal", [False, True])
def test_saddle_tail_rows_keep_the_derivative_error_and_bytes(name, antipodal):
    # the chain runs over the tail rows of the kernel columns too, at u = 0;
    # a derivative at t = -1 (u >= 1) must raise as the kernel block alone
    # raises, and everything else must return the oracle's bytes
    spec = parse_kernel(name)
    pts = random_unit_points(40, seed=31).points
    if antipodal:
        pts = np.vstack([pts[:39], -pts[:1]])
    r, p = interpolation._distances(PointSet(pts)), interpolation.monomial_basis(pts, 1)
    outcomes = []
    for eps in (0.5, 1.0, 2.0):
        try:
            want = _saddle_oracle(r, p, spec, eps, 0.1)
        except SingularKernelError as err:
            with pytest.raises(SingularKernelError, match=re.escape(str(err))):
                interpolation._saddle(r, p, spec, eps, 0.1)
            outcomes.append("raise")
        else:
            assert interpolation._saddle(r, p, spec, eps, 0.1).tobytes() == want.tobytes()
            outcomes.append("return")
    # eps = 1 reaches u = 1 only at an antipodal pair
    assert outcomes == ["return", "raise" if antipodal else "return", "raise"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_distances_are_bitwise_symmetric(threads):
    # _saddle reads r.T for its Fortran-ordered block, which is G only while
    # numpy forms pts @ pts.T as one symmetric product (syrk, then mirrored)
    script = (
        "from sphereq.interpolation import _distances; "
        "from sphereq.pointgen import random_unit_points; "
        "print([(n, seed) for n in [*range(3, 41), 200, 1000, 1500] for seed in (1, 2) "
        "if (r := _distances(random_unit_points(n, seed))).tobytes() != r.T.copy().tobytes()])"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"


def _chordal_oracle(a, b):
    """The chordal distances as one expression, a new array per op."""
    return np.sqrt(np.maximum(0.0, 2.0 - 2.0 * np.clip(a @ b.T, -1.0, 1.0)))


@pytest.mark.parametrize("n", [*range(1, 61), 1000])
def test_in_place_distances_and_evaluation_equal_the_expression_bit_for_bit(n):
    centers = random_unit_points(n, seed=n)
    r = interpolation._distances(centers)
    assert np.array_equal(r, _chordal_oracle(centers.points, centers.points))
    rng = np.random.default_rng(n)
    model = interpolation.InterpolantModel(
        centers, np.zeros(n), KernelSpec("pycke"), 2.5, 0.0, 1, rng.standard_normal(n),
        rng.standard_normal(4),
    )
    q = random_unit_points(23, seed=n + 1).points
    u = _chordal_oracle(q, centers.points) * (model.epsilon / 2.0)
    want = _kernel_eval_u(model.spec, u) @ model.w + monomial_basis(q, 1) @ model.b
    assert np.array_equal(interpolant_eval(model, q), want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(8, 40),
    sigma=st.sampled_from([0.0, 0.1]),
    degree=st.sampled_from([-1, 0, 1]),
    seed=st.integers(0, 2**31),
    planted=st.sampled_from([(), (math.nan,), (math.inf,), (-math.inf,), (math.inf, math.nan)]),
)
def test_lapack_inf_norm_equals_numpys_on_every_saddle(n, sigma, degree, seed, planted):
    # _factor_solve feeds dlange's norm to dsycon; it must add the same numbers
    # in the same order as numpy's inf-norm
    pts = random_unit_points(n, seed=seed)
    r, p = interpolation._distances(pts), interpolation.monomial_basis(pts, degree)
    g = interpolation._saddle(r, p, CF, 1.5, sigma)
    for k, value in enumerate(planted):
        g[(seed + k) % n, (seed // n + 3 * k) % g.shape[1]] = value
    want = np.linalg.norm(g, np.inf)
    assert np.array_equal(lapack.dlange("I", g), want, equal_nan=True)


def _traced_peak(call) -> int:
    """Bytes that ``call`` allocates at its peak, above what is live before it."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not was_tracing:
            tracemalloc.stop()


def test_a_sweep_holds_only_the_distances_and_g():
    # r (N^2 doubles), G ((N + 4)^2), and N^2 bytes of masks; tracemalloc
    # counts numpy's and LAPACK's buffers
    n = 400
    pts = random_unit_points(n, seed=8)
    y = franke_eval(pts.points)
    epsilon_sweep(pts, y, CF, (1.0,))  # loads scipy and LAPACK before the trace
    peak = _traced_peak(lambda: epsilon_sweep(pts, y, CF, (1.0, 2.0, 4.0)))
    assert peak <= 2.25 * (n + 4) ** 2 * 8


def test_the_distances_are_built_in_one_n_by_n_buffer():
    # r, and the N^2 bytes of the duplicate-center mask
    n = 400
    pts = random_unit_points(n, seed=8)
    assert _traced_peak(lambda: interpolation._distances(pts)) <= 1.25 * n * n * 8


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the chordal diagonal sqrt(2 - 2 x.x) is 1.5e-8, not 0, wherever x.x rounds "
    "below 1, so K_vv depends on the rounding of each norm and the errors move by up "
    "to 6e-8 of max|y| under rotation or permutation",
)
# no explain phase: it spent about 9 s on a failure report that the strict
# xfail discards
@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
@given(
    n=st.integers(8, 40),
    sigma=st.sampled_from([0.0, 0.1]),
    degree=st.sampled_from([-1, 0, 1]),
    seed=st.integers(0, 2**31),
)
def test_loocv_permutation_and_rotation_invariance(n, sigma, degree, seed):
    pts = random_unit_points(n, seed=seed).points
    y = franke_eval(pts)
    base = loocv_errors_fast(PointSet(pts), y, CF, 1.5, sigma, degree)
    perm = np.random.default_rng(seed).permutation(n)
    permuted = loocv_errors_fast(PointSet(pts[perm]), y[perm], CF, 1.5, sigma, degree)
    rotated = pts @ random_rotation(seed).T
    turned = loocv_errors_fast(PointSet(rotated), y, CF, 1.5, sigma, degree)
    deviation = max(np.max(np.abs(permuted - base[perm])), np.max(np.abs(turned - base)))
    assert deviation <= 1e-9 * np.max(np.abs(y))


# --- sweep ----------------------------------------------------------------------------

@pytest.mark.parametrize("sigma", [0.0, 0.1])
@pytest.mark.parametrize("degree", [-1, 0, 1])
def test_sweep_rows_equal_the_per_call_path(sigma, degree):
    pts = random_unit_points(200, seed=24)
    y = franke_eval(pts.points)
    grid = [0.75, 1.5, 3.0, 6.0]
    report = epsilon_sweep(pts, y, CF, eps_grid=grid, sigma=sigma, poly_degree=degree)
    for eps, mse, status in report.rows:
        assert status == "ok"
        assert mse == float(np.mean(loocv_errors_fast(pts, y, CF, eps, sigma, degree) ** 2))


def test_sweep_singleton_grid():
    pts = random_unit_points(15, seed=13)
    y = franke_eval(pts.points)
    report = epsilon_sweep(pts, y, CF, eps_grid=[1.7], sigma=0.0, poly_degree=1)
    assert report.best_epsilon == 1.7
    assert report.rows[0][2] == "ok"


def test_sweep_mse_permutation_invariant():
    pts = random_unit_points(15, seed=14)
    y = franke_eval(pts.points)
    a = epsilon_sweep(pts, y, CF, eps_grid=[0.8, 1.6], sigma=0.0, poly_degree=1)
    perm = PointSet(pts.points[::-1].copy())
    b = epsilon_sweep(perm, y[::-1].copy(), CF, eps_grid=[0.8, 1.6], sigma=0.0,
                      poly_degree=1)
    for (e1, m1, s1), (e2, m2, s2) in zip(a.rows, b.rows):
        assert e1 == e2 and s1 == s2
        assert m1 == pytest.approx(m2, rel=1e-9)


def test_sweep_rejects_bad_grid():
    pts = random_unit_points(15, seed=15)
    y = franke_eval(pts.points)
    with pytest.raises(DomainError):
        epsilon_sweep(pts, y, CF, eps_grid=[])
    with pytest.raises(DomainError):
        epsilon_sweep(pts, y, CF, eps_grid=[-1.0])


def test_sweep_csv_shape():
    pts = random_unit_points(12, seed=16)
    y = franke_eval(pts.points)
    report = epsilon_sweep(pts, y, CF, eps_grid=[1.0, 2.0], sigma=0.0, poly_degree=1)
    text = report.to_csv_text()
    lines = text.strip().splitlines()
    assert lines[0] == "epsilon,mse,status"
    assert len(lines) == 3


# --- properties -------------------------------------------------------------------------

def test_smoothing_monotonicity():
    pts = random_unit_points(25, seed=17)
    y = franke_eval(pts.points)
    norms = []
    for sigma in (0.0, 0.01, 0.1, 1.0):
        model = fit_interpolant(pts, y, CF, epsilon=2.0, sigma=sigma, poly_degree=1)
        resid = interpolant_eval(model, pts.points) - y
        norms.append(float(np.linalg.norm(resid)))
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_tail_orthogonality():
    # degree 2 monomials lose column rank on the sphere (x^2+y^2+z^2 = 1),
    # outside the fit's full-rank precondition, so the tail stops at 1 here
    for seed, degree in ((18, 0), (19, 1), (20, 1)):
        pts = random_unit_points(30, seed=seed)
        y = franke_eval(pts.points)
        model = fit_interpolant(pts, y, CF, epsilon=1.5, sigma=0.05,
                                poly_degree=degree)
        p = monomial_basis(pts.points, degree)
        assert np.max(np.abs(p.T @ model.w)) < 1e-8


def test_permutation_equivariance():
    pts = random_unit_points(18, seed=21)
    y = franke_eval(pts.points)
    model = fit_interpolant(pts, y, CF, epsilon=2.0, sigma=0.0, poly_degree=1)
    perm = np.arange(18)[::-1]
    model_p = fit_interpolant(PointSet(pts.points[perm]), y[perm], CF,
                              epsilon=2.0, sigma=0.0, poly_degree=1)
    assert np.max(np.abs(model.w[perm] - model_p.w)) < 1e-9
    probe = candidate_grid(32).points.points
    assert np.max(
        np.abs(interpolant_eval(model, probe) - interpolant_eval(model_p, probe))
    ) < 1e-10
