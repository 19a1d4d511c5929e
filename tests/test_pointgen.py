import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereq import pointgen
from sphereq.errors import ConfigurationError, DomainError, SingularKernelError
from sphereq.kernels import (
    KernelSpec,
    is_singular_at_coincidence,
    kernel_eval,
    kernel_t_derivative,
    parse_kernel,
)
from sphereq.discrepancy import (
    _COINCIDENCE_T,
    EXCLUDE,
    INCLUDE,
    PointSet,
    mean_pair_discrepancy,
    rms_discrepancy,
)
from sphereq.pointgen import (
    RefineParams,
    candidate_grid,
    greedy_generate,
    greedy_initial,
    greedy_next,
    knn_indices,
    random_unit_points,
    riesz_refine,
)

CF = KernelSpec("cui-freeden")
PYCKE = KernelSpec("pycke")


def _dots(pts, eta):
    """Clipped dots pts[i] . eta, the explicit three-term product."""
    return np.clip(
        (pts[:, 0] * eta[0] + pts[:, 1] * eta[1]) + pts[:, 2] * eta[2], -1.0, 1.0
    )


def _objective_oracle(pts, spec, eta):
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = kernel_eval(spec, _dots(pts, eta))
    return float(np.sum(vals))


def _polish_oracle(eta, pts, spec, step0, tol=1e-10, max_iter=200):
    """Reference polish: one objective evaluation per backtracking trial."""
    f = _objective_oracle(pts, spec, eta)
    for _ in range(max_iter):
        t = _dots(pts, eta)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            dk = np.atleast_1d(kernel_t_derivative(spec, t))
        grad = np.sum(dk[:, None] * pts, axis=0)
        g_t = grad - np.dot(grad, eta) * eta
        g_norm = float(np.sqrt(np.dot(g_t, g_t)))
        if g_norm == 0.0 or not math.isfinite(g_norm):
            break
        direction = g_t / g_norm
        alpha = step0
        moved = False
        while alpha > tol:
            trial = eta - alpha * direction
            trial /= math.sqrt(float(np.dot(trial, trial)))
            try:
                f_trial = _objective_oracle(pts, spec, trial)
            except SingularKernelError:  # trial landed exactly on a node
                f_trial = math.inf
            if f_trial < f:
                step = float(np.sqrt(np.sum((trial - eta) ** 2)))
                eta, f = trial, f_trial
                moved = True
                if step < tol:
                    return eta
                break
            alpha *= 0.5
        if not moved:
            break
    return eta


def tetrahedron() -> PointSet:
    return PointSet(
        np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
    )


# --- random sampling ----------------------------------------------------------

def test_random_points_deterministic():
    a = random_unit_points(1, seed=0)
    b = random_unit_points(1, seed=0)
    assert np.array_equal(a.points, b.points)


def test_random_points_unit_norm():
    pts = random_unit_points(1000, seed=1)
    norms = np.linalg.norm(pts.points, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_random_points_mean_shrinks():
    pts = random_unit_points(10000, seed=2)
    assert np.linalg.norm(pts.points.mean(axis=0)) < 0.05


def test_random_points_rejects_empty():
    with pytest.raises(DomainError):
        random_unit_points(0, seed=1)


# --- candidate grid -------------------------------------------------------------

def test_grid_minimum_separation():
    grid = candidate_grid(16)
    p = grid.points.points
    d2 = 2.0 - 2.0 * np.clip(p @ p.T, -1, 1)
    np.fill_diagonal(d2, np.inf)
    assert math.sqrt(d2.min()) > 0.3


def test_grid_too_small():
    with pytest.raises(DomainError):
        candidate_grid(2)


def test_grid_deterministic():
    assert np.array_equal(candidate_grid(64).points.points,
                          candidate_grid(64).points.points)


# --- greedy -----------------------------------------------------------------------

def test_greedy_initial_deterministic_and_seeded():
    a = greedy_initial(0)
    b = greedy_initial(0)
    c = greedy_initial(1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12


def test_greedy_next_antipode():
    pts = PointSet(np.array([[0.0, 0.0, 1.0]]))
    nxt = greedy_next(pts, PYCKE, candidate_grid(4096))
    assert np.linalg.norm(nxt - np.array([0.0, 0.0, -1.0])) < 1e-6


def test_greedy_next_equatorial_for_first_derivative():
    pts = PointSet(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    nxt = greedy_next(pts, KernelSpec("pycke", m=1), candidate_grid(4096))
    assert abs(nxt[2]) < 1e-6


def test_greedy_next_antipode_second_derivative():
    pts = PointSet(np.array([[0.0, 0.0, 1.0]]))
    nxt = greedy_next(pts, KernelSpec("pycke", m=2), candidate_grid(4096))
    assert np.linalg.norm(nxt - np.array([0.0, 0.0, -1.0])) < 1e-6


def test_greedy_next_all_candidates_singular():
    from sphereq.errors import ConfigurationError

    grid = candidate_grid(16)
    with pytest.raises(ConfigurationError):
        greedy_next(grid.points, PYCKE, grid)


def test_greedy_next_coincidence_is_a_threshold():
    grid = candidate_grid(1024)
    p = grid.points.points
    self_dots = p[:, 0] * p[:, 0] + p[:, 1] * p[:, 1] + p[:, 2] * p[:, 2]
    assert np.any(self_dots < 1.0)  # a node one ulp off its own grid point
    with pytest.raises(ConfigurationError):
        greedy_next(grid.points, PYCKE, grid)


@pytest.mark.parametrize("name", ["pycke", "pycke:d1", "pycke:d2"])
def test_greedy_next_skips_coincident_candidates(name):
    grid = candidate_grid(64)
    nodes = grid.points.points[:5]
    nxt = greedy_next(PointSet(nodes), parse_kernel(name), grid)
    assert abs(np.linalg.norm(nxt) - 1.0) < 1e-12
    assert np.max(nodes @ nxt) < _COINCIDENCE_T


@pytest.mark.parametrize("name", ["pycke", "pycke:d1", "pycke:d2"])
def test_polish_rejects_trial_on_a_node(name):
    # Nodes a and b lie on the great circle y = 0 through eta, a close to
    # eta on the +x side.  Descent from eta steps toward -x, away from a, so
    # the first trial, at step 0.25, is b bit for bit.
    eta = np.array([0.0, 0.0, 1.0])
    b = eta - 0.25 * np.array([1.0, 0.0, 0.0])
    b /= math.sqrt(float(np.dot(b, b)))
    a = np.array([0.0625, 0.0, 1.0]) / math.sqrt(0.0625**2 + 1.0)
    nodes = np.array([a, b])
    assert _dots(nodes, b)[1] == 1.0
    out = pointgen._polish(eta, nodes, parse_kernel(name), 0.25)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    assert np.max(nodes @ out) < _COINCIDENCE_T


@pytest.mark.parametrize("name", ["pycke", "pycke:d1", "pycke:d2"])
def test_polish_passes_over_one_trial_on_a_node(name):
    # Nodes a, b and c lie on the great circle y = 0 through eta; descent
    # from eta steps toward -x.  Of the trials at steps 0.5, 0.25, 0.125, ...
    # the first scores above eta (it lands near c), the second is b bit for
    # bit, and the third must still be taken.
    eta = np.array([0.0, 0.0, 1.0])

    def trial(alpha):
        v = eta - alpha * np.array([1.0, 0.0, 0.0])
        return v / math.sqrt(float(np.dot(v, v)))

    a = np.array([0.0625, 0.0, 1.0]) / math.sqrt(0.0625**2 + 1.0)
    b = trial(0.25)
    c = np.array([-0.52, 0.0, 1.0]) / math.sqrt(0.52**2 + 1.0)
    nodes = np.array([a, b, c])
    trials = [trial(0.5 * 0.5**j) for j in range(33)]  # every step > 1e-10
    on_a_node = [np.any(_dots(nodes, x) == 1.0) for x in trials]
    assert on_a_node == [j == 1 for j in range(33)]
    spec = parse_kernel(name)
    first = pointgen._polish(eta, nodes, spec, 0.5, max_iter=1)
    assert np.array_equal(first, trials[2])
    out = pointgen._polish(eta, nodes, spec, 0.5)
    assert np.array_equal(out, _polish_oracle(eta, nodes, spec, 0.5))


@pytest.mark.parametrize(
    "name", ["pycke", "pycke:d1", "pycke:d2", "cui-freeden", "riesz:s=1"]
)
def test_polish_matches_scalar_oracle(name):
    spec = parse_kernel(name)
    for seed in range(4):
        for n in (1, 7, 40):
            nodes = random_unit_points(n, seed).points
            eta = random_unit_points(1, 100 + seed).points[0]
            for step0 in (0.5, 4.0 / math.sqrt(8192)):
                out = pointgen._polish(eta, nodes, spec, step0)
                assert np.array_equal(out, _polish_oracle(eta, nodes, spec, step0))



def _x_trial(eta, alpha, sign):
    """eta stepped by alpha along sign * e_x, normalized as the polish does."""
    v = eta - alpha * np.array([sign, 0.0, 0.0])
    return v / np.sqrt(np.vecdot(v, v))


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(["pycke", "pycke:d1", "pycke:d2", "cui-freeden", "riesz:s=1"]),
    n=st.integers(1, 60),
    seed=st.integers(0, 2**31),
    step0=st.sampled_from([0.5, 0.125, 4.0 / math.sqrt(8192)]),
    plant=st.sampled_from(["none", "trials", "eta"]),
    j=st.integers(0, 12),
    k=st.integers(0, 12),
)
def test_polish_is_bit_identical_to_the_oracle(name, n, seed, step0, plant, j, k):
    spec = parse_kernel(name)
    if plant == "none":
        nodes = random_unit_points(n, seed).points
        eta = random_unit_points(1, seed + 1).points[0]
    else:
        # Nodes on the great circle y = 0 through eta = e_z give a gradient
        # with no y part, so the first descent direction is +-e_x exactly,
        # whatever the nodes.  Plant a node on the j-th trial toward +x and
        # one on the k-th toward -x, or one on eta itself.
        eta = np.array([0.0, 0.0, 1.0])
        theta = np.random.default_rng(seed).uniform(-math.pi, math.pi, n)
        nodes = np.column_stack([np.sin(theta), np.zeros(n), np.cos(theta)])
        if plant == "trials":
            extra = [_x_trial(eta, step0 * 0.5**j, 1.0), _x_trial(eta, step0 * 0.5**k, -1.0)]
        else:
            extra = [eta]
        nodes = np.vstack([nodes] + extra)
    out = pointgen._polish(eta, nodes, spec, step0)
    if plant == "eta" and is_singular_at_coincidence(spec):
        # the oracle raises here; eta scores +inf and its gradient is not
        # finite, so descent stops where it starts
        assert out.tobytes() == eta.tobytes()
    else:
        assert out.tobytes() == _polish_oracle(eta, nodes, spec, step0).tobytes()


@pytest.mark.parametrize(
    "name",
    ["pycke", "pycke:d1", "pycke:d2", "cui-freeden", "riesz:s=1", "gine", "ajne:d1"],
)
def test_grid_update_matches_a_kernel_eval_grid_sum(name):
    spec = parse_kernel(name)
    grid = candidate_grid(1024).points.points
    near = grid[40] + np.array([0.0, 1e-7, 0.0])  # 1 - t about 5e-15
    xs = [grid[7], near / np.linalg.norm(near), random_unit_points(1, 5).points[0]]
    got, want = np.zeros(len(grid)), np.zeros(len(grid))
    for x in xs:
        t = _dots(grid, x)
        hit = t >= _COINCIDENCE_T if is_singular_at_coincidence(spec) else t > 1.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            vals = kernel_eval(spec, np.where(hit, 0.0, t))
        vals[hit] = np.inf
        want += vals
        got += pointgen._grid_kernel(spec, grid, x)
    assert got.tobytes() == want.tobytes()
    assert np.isinf(got).any() == is_singular_at_coincidence(spec)
    # an antipodal candidate still raises where kernel_eval raises
    if spec.family == "ajne":
        with pytest.raises(SingularKernelError):
            kernel_eval(spec, _dots(grid, -grid[7]))
        with pytest.raises(SingularKernelError):
            pointgen._grid_kernel(spec, grid, -grid[7])

@pytest.mark.parametrize("name", ["pycke", "pycke:d1", "pycke:d2"])
def test_greedy_generate_matches_oracle_polish(name, monkeypatch):
    spec = parse_kernel(name)
    fast = greedy_generate(16, spec, seed=2, grid_size=1024).points
    monkeypatch.setattr(pointgen, "_polish", _polish_oracle)
    oracle = greedy_generate(16, spec, seed=2, grid_size=1024).points
    assert np.array_equal(fast, oracle)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["pycke", "pycke:d1", "pycke:d2", "cui-freeden"]),
    n=st.integers(1, 30),
    seed=st.integers(0, 2**31),
    step0=st.sampled_from([0.5, 0.125, 4.0 / math.sqrt(8192)]),
)
def test_polish_descends_and_stays_on_sphere(name, n, seed, step0):
    spec = parse_kernel(name)
    nodes = random_unit_points(n, seed).points
    eta = random_unit_points(1, seed + 1).points[0]
    out = pointgen._polish(eta, nodes, spec, step0)
    assert _objective_oracle(nodes, spec, out) <= _objective_oracle(nodes, spec, eta)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_greedy_generate_places_every_grid_point_then_stops(monkeypatch):
    monkeypatch.setattr(pointgen, "_polish", lambda eta, *args, **kwargs: eta)
    grid = candidate_grid(256).points.points
    pts = greedy_generate(257, PYCKE, seed=3, grid_size=256).points
    assert np.array_equal(pts[0], greedy_initial(3))
    assert len(np.unique(pts, axis=0)) == 257
    # every grid point is placed exactly once
    assert np.array_equal(np.unique(pts[1:], axis=0), np.unique(grid, axis=0))
    with pytest.raises(ConfigurationError):
        greedy_generate(258, PYCKE, seed=3, grid_size=256)


def test_greedy_generate_two_points_antipodal():
    pts = greedy_generate(2, PYCKE, seed=3, grid_size=2048)
    assert float(np.dot(pts.points[0], pts.points[1])) < -1.0 + 1e-6


def test_greedy_generate_deterministic():
    a = greedy_generate(20, PYCKE, seed=4, grid_size=1024)
    b = greedy_generate(20, PYCKE, seed=4, grid_size=1024)
    assert np.array_equal(a.points, b.points)


def test_greedy_unit_norms():
    pts = greedy_generate(25, KernelSpec("pycke", m=1), seed=5, grid_size=1024)
    assert np.max(np.abs(np.linalg.norm(pts.points, axis=1) - 1.0)) < 1e-12


def test_greedy_monotone_improvement():
    for n in (30, 100, 300):
        big = greedy_generate(n, PYCKE, seed=6, grid_size=2048)
        small = PointSet(big.points[: n // 2])
        d_big = rms_discrepancy(big, CF, INCLUDE).value
        d_small = rms_discrepancy(small, CF, INCLUDE).value
        assert d_big < d_small


# --- k nearest neighbors ------------------------------------------------------------

def test_knn_tetrahedron():
    idx = knn_indices(tetrahedron(), 3)
    for i in range(4):
        assert sorted(idx[i]) == sorted(set(range(4)) - {i})


def test_knn_tie_at_kth_distance_breaks_to_lower_index():
    # each octahedron vertex has four neighbors at one distance: keep the
    # three with the lowest indices
    pts = PointSet(np.vstack([np.eye(3), -np.eye(3)]))
    idx = knn_indices(pts, 3)
    for i in range(6):
        assert list(idx[i]) == sorted(set(range(6)) - {i, (i + 3) % 6})[:3]


def test_knn_antipodal_pair():
    pts = PointSet(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    idx = knn_indices(pts, 1)
    assert idx[0, 0] == 1 and idx[1, 0] == 0


def test_knn_matches_brute_force():
    pts = random_unit_points(100, seed=3)
    idx = knn_indices(pts, 5)
    p = pts.points
    for i in range(100):
        dists = [(float(np.linalg.norm(p[i] - p[j])), j) for j in range(100) if j != i]
        dists.sort()
        expect = [j for _, j in dists[:5]]
        assert list(idx[i]) == expect


def _rings(n_rings, per_ring):
    # regular longitudes on each ring: many neighbors tie at the k-th distance
    z, phi = np.meshgrid(np.linspace(-0.9, 0.9, n_rings),
                         2.0 * np.pi * np.arange(per_ring) / per_ring, indexing="ij")
    rho = np.sqrt(1.0 - z * z)
    p = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=2)
    return PointSet(p.reshape(-1, 3))


@pytest.mark.parametrize("pts", [random_unit_points(300, seed=5), _rings(12, 25)])
@pytest.mark.parametrize("rows", [7, pointgen.KNN_ROWS])
def test_knn_row_blocks_match_full_matrix(pts, rows, monkeypatch):
    monkeypatch.setattr(pointgen, "KNN_ROWS", rows)
    p = pts.points
    d2 = np.maximum(0.0, 2.0 - 2.0 * (p[:, 0][:, None] * p[:, 0][None, :]
                                      + p[:, 1][:, None] * p[:, 1][None, :]
                                      + p[:, 2][:, None] * p[:, 2][None, :]))
    np.fill_diagonal(d2, np.inf)
    expect = np.argsort(d2, axis=1, kind="stable")[:, :6]
    np.testing.assert_array_equal(knn_indices(pts, 6), expect)


@pytest.mark.parametrize("n", [206, 998])
def test_knn_is_identical_across_thread_counts(n):
    # a plain repeat-run check: the scan runs on the calling thread
    pts = random_unit_points(n, seed=n)
    first, again = knn_indices(pts, 12), knn_indices(pts, 12)
    assert first.shape == (n, 12) and first.dtype == np.intp
    assert first.tobytes() == again.tobytes()


def test_knn_k_too_large():
    with pytest.raises(DomainError):
        knn_indices(tetrahedron(), 4)


# --- riesz refinement -----------------------------------------------------------------

def test_refine_antipodal_fixed_point():
    pts = PointSet(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    out, _ = riesz_refine(pts, RefineParams(k_neighbors=1, iterations=10, riesz_s=1.0))
    assert np.max(np.abs(out.points - pts.points)) < 1e-12


def test_refine_deterministic():
    pts = random_unit_points(60, seed=8)
    params = RefineParams(k_neighbors=6, iterations=30, riesz_s=1.0)
    a, ha = riesz_refine(pts, params)
    b, hb = riesz_refine(pts, params)
    assert np.array_equal(a.points, b.points)
    assert ha == hb


def test_refine_improves_over_random():
    for n in (15, 86, 313):
        for seed in (1, 2, 3, 4, 5):
            pts = random_unit_points(n, seed=seed)
            before = mean_pair_discrepancy(pts, CF, INCLUDE).value
            out, _ = riesz_refine(
                pts,
                RefineParams(k_neighbors=min(12, n - 1), iterations=100, riesz_s=1.0),
                history_metric=False,
            )
            after = mean_pair_discrepancy(out, CF, INCLUDE).value
            assert after < before


def test_refine_history_descends_after_warmup():
    pts = random_unit_points(100, seed=6)
    _, hist = riesz_refine(
        pts, RefineParams(k_neighbors=12, iterations=200, riesz_s=1.0)
    )
    diffs = np.diff(np.array(hist)[20:])
    assert np.all(diffs <= 1e-6)


def test_refine_unit_norms():
    pts = random_unit_points(50, seed=9)
    out, _ = riesz_refine(
        pts, RefineParams(k_neighbors=8, iterations=25, riesz_s=1.0),
        history_metric=False,
    )
    assert np.max(np.abs(np.linalg.norm(out.points, axis=1) - 1.0)) < 1e-12


def test_refine_param_validation():
    with pytest.raises(DomainError):
        RefineParams(k_neighbors=0)
    with pytest.raises(DomainError):
        RefineParams(iterations=0)
    with pytest.raises(DomainError):
        RefineParams(riesz_s=-1.0)
    pts = random_unit_points(5, seed=1)
    with pytest.raises(DomainError):
        riesz_refine(pts, RefineParams(k_neighbors=7, iterations=5))


# --- component-major refine and the k-NN selection -------------------------------

def _knn_oracle(p, k):
    d2 = np.maximum(0.0, 2.0 - 2.0 * (p[:, 0][:, None] * p[:, 0][None, :]
                                      + p[:, 1][:, None] * p[:, 1][None, :]
                                      + p[:, 2][:, None] * p[:, 2][None, :]))
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def _refine_oracle(pts, params):
    # the point-major (N, k, 3) loop with full-matrix neighbors
    x = pts.points.copy()
    s = params.riesz_s
    for t in range(params.iterations):
        if t % params.refresh_period == 0:
            neighbors = _knn_oracle(x, params.k_neighbors)
        diff = x[:, None, :] - x[neighbors]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        g = s * np.sum(diff / (dist ** (s + 2.0))[:, :, None], axis=1)
        g_norm = np.sqrt(np.sum(g * g, axis=1))
        delta = np.min(dist, axis=1)
        ok = (g_norm > 0.0) & np.isfinite(g_norm)
        step = np.zeros_like(g_norm)
        step[ok] = delta[ok] / (t + params.offset) / g_norm[ok]
        x = x + step[:, None] * g
        x /= np.sqrt(np.sum(x * x, axis=1))[:, None]
    return x


@pytest.mark.parametrize("n, k", [(2, 1), (13, 1), (13, 12), (206, 1), (206, 12)])
@pytest.mark.parametrize("s", [1.0, 2.5])
def test_refine_equals_the_point_major_loop(n, k, s):
    pts = random_unit_points(n, seed=n + k)
    params = RefineParams(k_neighbors=k, iterations=35, riesz_s=s)
    out, _ = riesz_refine(pts, params, history_metric=False)
    assert out.points.tobytes() == _refine_oracle(pts, params).tobytes()


@st.composite
def _knn_cases(draw):
    if draw(st.booleans()):
        p = random_unit_points(draw(st.integers(2, 300)), seed=draw(st.integers(0, 999))).points
    else:
        p = _rings(draw(st.integers(1, 8)), draw(st.integers(2, 40))).points
    p = p.copy()
    n = len(p)
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=6)):
        p[dst] = p[src]  # planted exact duplicates
    return p, draw(st.integers(1, min(20, n - 1)))


@settings(max_examples=60, deadline=None)
@given(_knn_cases())
def test_knn_equals_a_full_matrix_stable_argsort(case):
    p, k = case
    np.testing.assert_array_equal(knn_indices(PointSet(p), k), _knn_oracle(p, k))


@pytest.mark.parametrize("k", [0, -1, -25])
def test_knn_rejects_a_non_positive_k(k):
    with pytest.raises(DomainError, match="positive"):
        knn_indices(random_unit_points(10, seed=1), k)


def test_refine_names_a_coincident_pair():
    p = random_unit_points(7, seed=3).points.copy()
    p[5] = p[2]
    with pytest.raises(DomainError, match="coincident points at indices 2 and 5"):
        riesz_refine(PointSet(p), RefineParams(k_neighbors=3, iterations=3))


def test_refine_names_a_nearly_coincident_pair():
    # |x_i - x_j|^(s+2) = (1e-110)^3 underflows to 0; the step used to turn
    # the pair into NaN
    p = random_unit_points(5, seed=3).points
    p = np.vstack([p[:2], [[1.0, 0.0, 0.0]], p[2:], [[1.0, 1e-110, 0.0]]])
    with pytest.raises(DomainError, match="nearly coincident points at indices 2 and 6"):
        riesz_refine(PointSet(p), RefineParams(k_neighbors=3, iterations=3), history_metric=False)
