import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereq import discrepancy, tables
from sphereq.errors import CapabilityError, ConditioningError, DomainError, SingularKernelError
from sphereq.kernels import KernelSpec, SymbolSequence, kernel_eval, parse_kernel
from sphereq.legendre import derivative_recurrence
from sphereq.summation import block_sum, neumaier_sum
from sphereq.discrepancy import (
    EXCLUDE,
    INCLUDE,
    DiscrepancyReport,
    PointSet,
    WeightedMeasure,
    energy,
    mean_pair_discrepancy,
    measure_inner_product,
    min_generalized_discrepancy,
    pair_dot_matrix,
    rms_discrepancy,
    series_generalized_discrepancy,
    signed_discrepancy,
)

CF = KernelSpec("cui-freeden")
PYCKE = KernelSpec("pycke")
RIESZ1 = KernelSpec("riesz", s=1.0)


def tetrahedron() -> PointSet:
    return PointSet(
        np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
    )


def single() -> PointSet:
    return PointSet(np.array([[0.0, 0.0, 1.0]]))


def antipodal() -> PointSet:
    return PointSet(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))


def random_points(n, seed) -> PointSet:
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, 3))
    return PointSet(pts / np.linalg.norm(pts, axis=1)[:, None])


def brute_pair_sum(pts, spec, include):
    # independent oracle: plain double loop over scalar kernel evaluations
    p = pts.points
    total = 0.0
    for i in range(len(pts)):
        for j in range(len(pts)):
            if i == j and not include:
                continue
            t = min(1.0, max(-1.0, float(np.dot(p[i], p[j]))))
            total += kernel_eval(spec, t)
    return total


def random_rotation(seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


# --- pointset and measure validation ----------------------------------------

def test_pointset_validation():
    with pytest.raises(DomainError):
        PointSet(np.array([[1.0, 1.0, 1.0]]))
    with pytest.raises(DomainError):
        PointSet(np.zeros((0, 3)))
    with pytest.raises(DomainError):
        WeightedMeasure(single(), [1.0, 2.0])


# --- rms --------------------------------------------------------------------

def test_rms_single_point():
    assert rms_discrepancy(single(), CF, INCLUDE).value == 1.0


def test_rms_tetrahedron_matches_brute_force():
    s = brute_pair_sum(tetrahedron(), CF, include=True)
    expect = math.sqrt(s) / 4.0
    report = rms_discrepancy(tetrahedron(), CF, INCLUDE)
    assert report.value == pytest.approx(expect, rel=1e-12)
    assert report.value == pytest.approx(0.32347, abs=1e-4)
    assert not report.negative_sum_flag


def test_rms_negative_sum_clamps():
    report = rms_discrepancy(antipodal(), PYCKE, EXCLUDE)
    assert report.value == 0.0
    assert report.negative_sum_flag
    assert "negative_sum" in report.flags


def test_rms_rejects_singular_diagonal():
    with pytest.raises(SingularKernelError):
        rms_discrepancy(antipodal(), PYCKE, INCLUDE)


def test_coincident_points_detected():
    pts = PointSet(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(SingularKernelError) as err:
        rms_discrepancy(pts, PYCKE, EXCLUDE)
    assert err.value.indices == (0, 1)


def test_coincidence_report_matches_full_matrix_oracle():
    # the scan covers only j > i; the reported pair must still be the
    # row-major first hit of the full matrix
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(5, 301))
        p = random_points(n, int(rng.integers(2**32))).points.copy()
        for _ in range(int(rng.integers(1, 5))):
            src, dst = rng.choice(n, size=2, replace=False)
            p[dst] = p[src]
        t = p[:, 0, None] * p[:, 0] + p[:, 1, None] * p[:, 1] + p[:, 2, None] * p[:, 2]
        np.fill_diagonal(t, -2.0)
        first = tuple(int(v) for v in np.argwhere(t >= 1.0 - 1e-14)[0])
        with pytest.raises(SingularKernelError) as err:
            energy(PointSet(p), PYCKE)
        assert err.value.indices == first


@pytest.mark.parametrize("name", ["gine:d1", "ajne:d1", "gine:d2"])
def test_antipodal_pair_keeps_the_typed_derivative_error(name):
    spec = parse_kernel(name)
    # a lone antipodal pair, and one planted across row blocks of a larger set
    big = random_points(150, 12).points.copy()
    big[3], big[130] = (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)
    for pts in (antipodal(), PointSet(big)):
        for score in (
            lambda: mean_pair_discrepancy(pts, spec, EXCLUDE),
            lambda: rms_discrepancy(pts, spec, EXCLUDE),
            lambda: energy(pts, spec),
        ):
            with pytest.raises(SingularKernelError, match="derivative is singular at t = -1"):
                score()


# --- mean pair and energy ----------------------------------------------------

def test_mean_pair_single_point():
    assert mean_pair_discrepancy(single(), CF, INCLUDE).value == 1.0


def test_mean_pair_antipodal_riesz():
    report = mean_pair_discrepancy(antipodal(), RIESZ1, EXCLUDE)
    assert report.value == pytest.approx(0.25, rel=1e-14)


def test_mean_pair_tetrahedron_matches_brute_force():
    expect = brute_pair_sum(tetrahedron(), CF, include=False) / 16.0
    report = mean_pair_discrepancy(tetrahedron(), CF, EXCLUDE)
    assert report.value == pytest.approx(expect, rel=1e-12)
    assert report.value == pytest.approx(-0.1453642, abs=1e-6)


def test_energy_single_point_is_zero():
    assert energy(single(), CF) == 0.0


def test_energy_equals_mean_pair_exclude_exactly():
    for pts in (tetrahedron(), antipodal(), random_points(17, 5)):
        for spec in (CF, RIESZ1, KernelSpec("gine")):
            assert energy(pts, spec) == mean_pair_discrepancy(pts, spec, EXCLUDE).value


def test_energy_antipodal_riesz():
    assert energy(antipodal(), RIESZ1) == pytest.approx(0.25, rel=1e-14)


# --- series ------------------------------------------------------------------

def test_series_single_point_cui_freeden():
    report = series_generalized_discrepancy(single(), "cui-freeden", 0, 10000)
    # telescoping: sum 1/(n(n+1)) -> 1, so the value approaches sqrt(1/(4pi))
    assert report.value == pytest.approx(math.sqrt(1.0 / (4 * math.pi)), abs=2e-4)
    assert "non_convergent" not in report.flags


def test_series_single_point_pycke_diverges():
    small = series_generalized_discrepancy(single(), "pycke", 0, 1000)
    big = series_generalized_discrepancy(single(), "pycke", 0, 4000)
    assert big.value > small.value
    assert "non_convergent" in big.flags


def test_series_antipodal_matches_closed_form_after_scale():
    # the series weights carry 1/(4pi); the closed cui-freeden form does not
    report = series_generalized_discrepancy(antipodal(), "cui-freeden", 0, 10000)
    closed = rms_discrepancy(antipodal(), CF, INCLUDE)
    assert report.value * math.sqrt(4 * math.pi) == pytest.approx(
        closed.value, rel=2e-3
    )


def test_series_empty_sum_flag():
    report = series_generalized_discrepancy(single(), "gine", 0, 1)
    assert report.value == 0.0
    assert "empty_sum" in report.flags


def test_series_derivative_order_cap():
    with pytest.raises(CapabilityError):
        series_generalized_discrepancy(single(), "cui-freeden", 5, 100)


def test_series_closed_form_coherence_random_sets():
    scale = math.sqrt(4 * math.pi)
    for n in (2, 4, 8):
        pts = random_points(n, 40 + n)
        series = series_generalized_discrepancy(pts, "cui-freeden", 0, 5000)
        closed = rms_discrepancy(pts, CF, INCLUDE)
        assert series.value * scale == pytest.approx(closed.value, rel=2e-3)


# --- series routes against the derivative-stack oracle ------------------------

def _stack_sums(pts, n_max, m):
    """sum_ij P_n^(j)(x_i . x_j) for j = 0..m, n = 0..n_max, as a (m+1, n_max+1)
    array: the derivative stack of the Bonnet recurrence over the Gram matrix."""
    t = pair_dot_matrix(pts).ravel()
    return np.array(
        [[block_sum(row) for row in stack] for stack in derivative_recurrence(n_max, m, t)]
    ).T


def _series_oracle(stack_sums, n_points, family, m, s=None):
    """The series report arithmetic on the derivative-stack sums of order m,
    as the score was computed before the power-sum routes: (value, tail, flags)."""
    n_max = stack_sums.shape[1] - 1
    weights = SymbolSequence(family, s).series_weights(n_max)
    terms = []
    for n in range(1, n_max + 1):
        if weights[n] != 0.0:
            terms.append(weights[n] * stack_sums[m][n])
    flags = []
    if not terms:
        total = tail = 0.0
        flags.append("empty_sum")
    else:
        total = neumaier_sum(terms)
        tail = abs(terms[-1])
        tail_block = abs(neumaier_sum(terms[-max(1, len(terms) // 10) :]))
        if tail_block > 1e-3 * max(1.0, abs(total)):
            flags.append("non_convergent")
    if total < 0.0:
        flags.append("negative_sum")
    return math.sqrt(max(0.0, total)) / n_points, tail, flags


SERIES_FAMILIES = (("pycke", None), ("cui-freeden", None), ("gine", None), ("riesz", 0.5))


@pytest.mark.parametrize("n_points", [4, 15, 86, 151, 400])
def test_series_matches_derivative_stack_oracle(n_points):
    # N <= n_max takes the Gram route, N > n_max the spectral route
    pts = random_points(n_points, 60 + n_points)
    for n_max in (30, 90, 300):
        sums = _stack_sums(pts, n_max, discrepancy.M_SERIES_MAX)
        for m in range(discrepancy.M_SERIES_MAX + 1):
            for family, s in SERIES_FAMILIES:
                value, tail, flags = _series_oracle(sums, n_points, family, m, s)
                report = series_generalized_discrepancy(pts, family, m, n_max, s)
                assert report.value == pytest.approx(value, rel=1e-12, abs=0)
                assert report.tail_estimate == pytest.approx(tail, rel=1e-12, abs=0)
                assert report.flags == flags
                if m == 0 and n_max >= n_points:
                    # the Gram route at m = 0 is the oracle's arithmetic
                    assert (report.value, report.tail_estimate) == (value, tail)


def test_an_overflowing_kernel_sum_raises_instead_of_scoring_zero(monkeypatch):
    # -(2u)^2000 is -inf on the octahedron, and the compensated sum of -inf is
    # NaN, which max(0, .) used to turn into a perfect score of 0
    octahedron = PointSet(np.vstack([np.eye(3), -np.eye(3)]))
    spec = parse_kernel("riesz:s=-2000")
    for score in (rms_discrepancy, mean_pair_discrepancy):
        with pytest.raises(ConditioningError, match="kernel sum is not finite"):
            score(octahedron, spec, INCLUDE)
    with pytest.raises(ConditioningError, match="kernel sum is not finite"):
        tables.centered_pair_discrepancy(octahedron, spec)
    mu = WeightedMeasure(octahedron, np.full(6, 1.0 / 6.0))
    nu = WeightedMeasure(octahedron, np.arange(1.0, 7.0) / 21.0)
    with pytest.raises(ConditioningError, match="kernel sum is not finite"):
        signed_discrepancy(mu, nu, spec)
    # power sums that overflowed
    monkeypatch.setattr(discrepancy, "_power_sums", lambda pts, n_max: np.full(n_max + 1, np.inf))
    with pytest.raises(ConditioningError, match="kernel sum is not finite"):
        series_generalized_discrepancy(octahedron, "cui-freeden", m=0, n_max=10)


def test_series_route_selection(monkeypatch):
    calls = []

    def stub(name):
        def power_sums(pts, n_max):
            calls.append(name)
            return np.zeros(n_max + 1)
        return power_sums

    monkeypatch.setattr(discrepancy, "_power_sums_gram", stub("gram"))
    monkeypatch.setattr(discrepancy, "_power_sums_spectral", stub("spectral"))
    cap = discrepancy.SPECTRAL_NMAX_MAX
    cases = [(90, 90, "gram"), (91, 90, "spectral"), (cap + 2, cap, "spectral"),
             (cap + 2, cap + 1, "gram")]
    for n_points, n_max, route in cases:
        calls.clear()
        series_generalized_discrepancy(random_points(n_points, 1), "pycke", 0, n_max)
        assert calls == [route], (n_points, n_max)


def test_spectral_power_sums_at_the_degree_cap():
    # points 0.02 to 0.3 rad from either pole, where sin(theta)^k underflows
    # below the cap.  Each route alone is off by up to ~1.3e-12 N from an
    # extended-precision evaluation at this degree (20 seeds measured), so
    # they are compared to a few times that.
    rng = np.random.default_rng(17)
    n = 50
    theta = rng.uniform(0.02, 0.3, n)
    theta = np.where(rng.random(n) < 0.5, theta, math.pi - theta)
    phi = rng.uniform(0.0, 2 * math.pi, n)
    raw = np.column_stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )
    pts = PointSet(raw / np.linalg.norm(raw, axis=1)[:, None])
    n_max = discrepancy.SPECTRAL_NMAX_MAX
    spectral = discrepancy._power_sums_spectral(pts, n_max)
    gram = discrepancy._power_sums_gram(pts, n_max)
    assert np.all(np.isfinite(spectral))
    assert np.max(np.abs(spectral - gram)) <= 4e-12 * n


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(2, 40),
    m=st.integers(0, discrepancy.M_SERIES_MAX),
    family=st.sampled_from(["pycke", "cui-freeden"]),
)
def test_series_rotation_and_permutation_invariance(seed, n_points, m, family):
    # n_max = 20 puts N <= 20 on the Gram route and N > 20 on the spectral one
    pts = random_points(n_points, seed)
    order = np.random.default_rng(seed).permutation(n_points)
    moved = (
        PointSet(pts.points @ random_rotation(seed).T),
        PointSet(pts.points[order]),
    )
    base = series_generalized_discrepancy(pts, family, m, 20)
    for other in moved:
        report = series_generalized_discrepancy(other, family, m, 20)
        assert report.value == pytest.approx(base.value, rel=1e-12, abs=0)
        assert report.tail_estimate == pytest.approx(base.tail_estimate, rel=1e-12, abs=0)


# --- min over derivative orders ----------------------------------------------

def test_min_singleton_range():
    m_star, report = min_generalized_discrepancy(tetrahedron(), "cui-freeden", (0,), 500)
    direct = series_generalized_discrepancy(tetrahedron(), "cui-freeden", 0, 500)
    assert m_star == 0
    assert report.value == direct.value


def test_min_tetrahedron_regression():
    m_star, report = min_generalized_discrepancy(
        tetrahedron(), "cui-freeden", (0, 1, 2), 2000
    )
    # regression-locked after first computation
    assert m_star == 0
    assert report.value == pytest.approx(0.0911958530, rel=1e-8)


def test_min_is_bounded_by_order_zero():
    pts = random_points(50, 7)
    _, best = min_generalized_discrepancy(pts, "cui-freeden", (0, 1, 2), 500)
    base = series_generalized_discrepancy(pts, "cui-freeden", 0, 500)
    assert best.value <= base.value


@pytest.mark.parametrize("n_points, n_max", [(40, 60), (151, 90)])
def test_min_report_equals_series_at_the_best_order(n_points, n_max, monkeypatch):
    # one power-sum pass serves every order, on either route
    pts = random_points(n_points, 11)
    passes = []
    power_sums = discrepancy._power_sums

    def counted(*args):
        passes.append(args)
        return power_sums(*args)

    monkeypatch.setattr(discrepancy, "_power_sums", counted)
    for family in ("pycke", "cui-freeden"):
        passes.clear()
        m_star, best = min_generalized_discrepancy(pts, family, (0, 1, 2), n_max)
        assert len(passes) == 1
        direct = [series_generalized_discrepancy(pts, family, m, n_max) for m in (0, 1, 2)]
        assert m_star == min(range(3), key=lambda m: direct[m].value)
        assert best == direct[m_star]


def test_min_validates_every_order():
    with pytest.raises(CapabilityError):
        min_generalized_discrepancy(tetrahedron(), "cui-freeden", (0, 5), 50)
    with pytest.raises(DomainError):
        min_generalized_discrepancy(tetrahedron(), "cui-freeden", (), 50)


# --- signed measures ----------------------------------------------------------

def test_signed_identical_measures():
    mu = WeightedMeasure(tetrahedron(), np.full(4, 0.25))
    assert signed_discrepancy(mu, mu, CF) == 0.0


def test_signed_antipodal_deltas():
    mu = WeightedMeasure(single(), [1.0])
    om = WeightedMeasure(PointSet(np.array([[0.0, 0.0, -1.0]])), [1.0])
    expect = math.sqrt(4.0 * math.log(2.0))
    assert signed_discrepancy(mu, om, CF) == pytest.approx(expect, abs=1e-10)


def test_signed_permutation_invariant():
    tet = tetrahedron()
    mu = WeightedMeasure(tet, np.full(4, 0.25))
    om = WeightedMeasure(PointSet(tet.points[::-1].copy()), np.full(4, 0.25))
    assert signed_discrepancy(mu, om, CF) == pytest.approx(0.0, abs=1e-12)


def test_signed_rejects_singular_kernels():
    mu = WeightedMeasure(single(), [1.0])
    with pytest.raises(CapabilityError) as err:
        signed_discrepancy(mu, mu, PYCKE)
    assert "cui-freeden" in str(err.value)


def test_bilinear_identity_random_measures():
    # sqrt-of-quadratic-form equals the directly expanded stacked form
    rng = np.random.default_rng(21)
    for trial in range(50):
        n1 = int(rng.integers(1, 21))
        n2 = int(rng.integers(1, 21))
        mu = WeightedMeasure(random_points(n1, 100 + trial), rng.normal(size=n1))
        om = WeightedMeasure(random_points(n2, 200 + trial), rng.normal(size=n2))
        stacked_pts = PointSet(np.vstack([mu.points.points, om.points.points]))
        stacked = WeightedMeasure(
            stacked_pts, np.concatenate([mu.weights, -om.weights])
        )
        direct = measure_inner_product(stacked, stacked, CF)
        value = signed_discrepancy(mu, om, CF)
        assert value**2 == pytest.approx(max(0.0, direct), abs=1e-10)


# --- invariances ---------------------------------------------------------------

def test_rotation_invariance():
    pts = random_points(30, 9)
    rot = PointSet(pts.points @ random_rotation(3).T)
    for spec in (CF, RIESZ1):
        a = rms_discrepancy(pts, spec, EXCLUDE).value
        b = rms_discrepancy(rot, spec, EXCLUDE).value
        assert a == pytest.approx(b, abs=1e-10)
        assert energy(pts, spec) == pytest.approx(energy(rot, spec), abs=1e-10)
    a = mean_pair_discrepancy(pts, CF, INCLUDE).value
    b = mean_pair_discrepancy(rot, CF, INCLUDE).value
    assert a == pytest.approx(b, abs=1e-10)


def test_permutation_invariance():
    pts = random_points(25, 10)
    perm = PointSet(pts.points[::-1].copy())
    assert rms_discrepancy(pts, CF, INCLUDE).value == pytest.approx(
        rms_discrepancy(perm, CF, INCLUDE).value, abs=1e-12
    )
    assert mean_pair_discrepancy(pts, CF, EXCLUDE).value == pytest.approx(
        mean_pair_discrepancy(perm, CF, EXCLUDE).value, abs=1e-12
    )
    s1 = series_generalized_discrepancy(pts, "cui-freeden", 0, 300).value
    s2 = series_generalized_discrepancy(perm, "cui-freeden", 0, 300).value
    assert s1 == pytest.approx(s2, abs=1e-12)


def full_matrix_pair_sum(pts, spec, include):
    # plain numpy oracle: the whole N x N matrix, summed exactly by math.fsum
    p = pts.points
    t = np.clip(p[:, 0, None] * p[:, 0] + p[:, 1, None] * p[:, 1] + p[:, 2, None] * p[:, 2], -1, 1)
    np.fill_diagonal(t, 1.0 if include else 0.0)
    k = kernel_eval(spec, t)
    if not include:
        np.fill_diagonal(k, 0.0)
    return math.fsum(k.ravel())


PAIR_SUM_CASES = [
    (KernelSpec("cui-freeden"), INCLUDE),
    (KernelSpec("cui-freeden", m=1), INCLUDE),
    (KernelSpec("cui-freeden", m=2), INCLUDE),
    (KernelSpec("gine"), INCLUDE),
    (RIESZ1, EXCLUDE),
    (PYCKE, EXCLUDE),
]


@pytest.mark.parametrize("n_points", [1, 2, 63, 64, 65, 129, 998])
def test_pair_kernel_sum_matches_full_matrix_fsum(n_points):
    # sizes straddle the 64-row blocks of the upper-triangle sum
    pts = random_points(n_points, 40 + n_points)
    for spec, policy in PAIR_SUM_CASES:
        expect = full_matrix_pair_sum(pts, spec, policy == INCLUDE)
        got = discrepancy._pair_kernel_sum(pts, spec, policy)
        assert abs(got - expect) <= 1e-14 * abs(expect), (spec.name, policy)


def test_pair_kernel_sum_is_byte_identical_across_thread_counts():
    # a plain repeat-run check: every block runs on the calling thread
    pts = random_points(998, 3)
    sums = [
        [discrepancy._pair_kernel_sum(pts, spec, policy).hex() for spec, policy in PAIR_SUM_CASES]
        for _ in range(2)
    ]
    assert sums[0] == sums[1]


def test_dot_rows_are_exactly_symmetric():
    # the upper-triangle pair sum counts each off-diagonal tile twice, which
    # is exact only if t_ij == t_ji bit for bit
    p = random_points(200, 8).points
    full = discrepancy._dot_rows(p, p)
    assert np.array_equal(full, full.T)
    for i0, i1 in ((0, 64), (64, 128), (192, 200)):
        assert np.array_equal(discrepancy._dot_rows(p[i0:], p[i0:i1]), full[i0:i1, i0:].T)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(2, 150),
    m=st.integers(0, 2),
)
def test_closed_form_rotation_and_permutation_invariance(seed, n_points, m):
    # bounded kernels only: a rotation moves t by an ulp, and 1 - t turns
    # that into a relative error of order 1e-16 / u^2 in a close pair's
    # half-chord, which a singular kernel passes on in full.  The m >= 1
    # energies are means of positive values, so nothing cancels.
    pts = random_points(n_points, seed)
    order = np.random.default_rng(seed).permutation(n_points)
    moved = (
        PointSet(pts.points @ random_rotation(seed).T),
        PointSet(pts.points[order]),
    )
    cf = KernelSpec("cui-freeden", m=m)
    positive = KernelSpec("cui-freeden", m=max(m, 1))
    base_rms = rms_discrepancy(pts, cf).value
    base_energy = energy(pts, positive)
    for other in moved:
        assert rms_discrepancy(other, cf).value == pytest.approx(base_rms, rel=1e-13, abs=0)
        assert energy(other, positive) == pytest.approx(base_energy, rel=1e-13, abs=0)


# --- report serialization -------------------------------------------------------

def test_report_json_fields():
    report = rms_discrepancy(tetrahedron(), CF, INCLUDE)
    payload = report.to_json_dict()
    assert set(payload) == {
        "kernel", "m", "method", "diagonal", "N", "n_max", "value", "flags"
    }
    assert payload["kernel"] == "cui-freeden"
    assert payload["method"] == "pairwise_rms"
    assert payload["diagonal"] == "include"
    assert payload["N"] == 4
    assert payload["n_max"] is None
    json.dumps(payload)


def test_series_report_fields():
    report = series_generalized_discrepancy(antipodal(), "cui-freeden", 1, 200)
    payload = report.to_json_dict()
    assert payload["method"] == "series"
    assert payload["n_max"] == 200
    assert payload["m"] == 1
    assert isinstance(report, DiscrepancyReport)
    assert report.tail_estimate is not None


# --- dot builder and unchecked measure path ---------------------------------------

def _explicit_dots(block, pts):
    a, b = block, pts
    t = (a[:, 0][:, None] * b[:, 0] + a[:, 1][:, None] * b[:, 1]) + a[:, 2][:, None] * b[:, 2]
    return np.clip(t, -1.0, 1.0)


def _unit_rows(n, seed):
    p = np.random.default_rng(seed).standard_normal((n, 3))
    return p / np.sqrt(np.sum(p * p, axis=1))[:, None]


@pytest.mark.parametrize(
    "m, n", [(1, 1), (1, 7), (9, 1), (29, 86), (998 - 960, 64), (1, 8192), (64, 998)]
)
def test_dot_rows_equal_explicit_three_term_products(m, n):
    # one einsum contraction must round as the three products added left to
    # right; a build whose einsum fused the multiply and add would fail here
    a, b = _unit_rows(m, m), _unit_rows(n, n + 1)
    expect = _explicit_dots(a, b).view(np.uint64)
    assert np.array_equal(discrepancy._dot_rows(a, b).view(np.uint64), expect)
    # strided and Fortran-ordered inputs
    wide_a, wide_b = np.repeat(a, 2, axis=0), np.hstack([b, b])
    got = discrepancy._dot_rows(wide_a[::2], np.asfortranarray(wide_b[:, :3]))
    assert np.array_equal(got.view(np.uint64), expect)
    # out as a slice of a larger buffer, strided or flat
    big = np.full((m + 3, n + 5), np.nan)
    discrepancy._dot_rows(a, b, out=big[1 : m + 1, 2 : n + 2])
    assert np.array_equal(big[1 : m + 1, 2 : n + 2].view(np.uint64), expect)
    assert np.isnan(big[0]).all() and np.isnan(big[:, :2]).all()
    flat = np.full(m * n + 11, np.nan)
    discrepancy._dot_rows(a, b, out=flat[: m * n].reshape(m, n))
    assert np.array_equal(flat[: m * n].reshape(m, n).view(np.uint64), expect)
    assert np.isnan(flat[m * n :]).all()


def test_single_dot_equals_the_explicit_product():
    # a 1 x 1 output takes another einsum loop, which rounds some pairs
    # differently, so it is formed apart; one node meets one node in the
    # first polish step of a greedy run
    a, b = _unit_rows(200, 7), _unit_rows(200, 8)
    for x, y in zip(a, b):
        got = discrepancy._dot_rows(x[None, :], y[None, :])
        expect = _explicit_dots(x[None, :], y[None, :])
        assert got.view(np.uint64)[0, 0] == expect.view(np.uint64)[0, 0]


@pytest.mark.parametrize("spec", [CF, KernelSpec("cui-freeden", m=1), KernelSpec("gine")])
@pytest.mark.parametrize("n_mu, n_om", [(1, 1), (5, 3), (150, 70)])
def test_measure_inner_product_matches_the_kernel_eval_path(spec, n_mu, n_om):
    rng = np.random.default_rng(n_mu + n_om)
    pa, pb = _unit_rows(n_mu, 3 * n_mu), _unit_rows(n_om, 5 * n_om)
    wa, wb = rng.standard_normal(n_mu), rng.standard_normal(n_om)
    partials = []
    for i0 in range(0, n_mu, 64):
        i1 = min(i0 + 64, n_mu)
        k = kernel_eval(spec, _explicit_dots(pa[i0:i1], pb))
        partials.append(block_sum(k * (wa[i0:i1][:, None] * wb[None, :])))
    got = measure_inner_product(
        WeightedMeasure(PointSet(pa), wa), WeightedMeasure(PointSet(pb), wb), spec
    )
    assert got == neumaier_sum(partials)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pointset_rejects_non_finite_coordinates(bad):
    p = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    p[0, 1] = bad
    with pytest.raises(DomainError, match="finite"):
        PointSet(p)
