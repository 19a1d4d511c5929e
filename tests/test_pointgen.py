import contextlib
import errno
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphereq import kernels, pointgen
from sphereq.errors import ConditioningError, ConfigurationError, DomainError, SingularKernelError
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


def _vec_dot(a, b):
    """The three-term dot (a0 b0 + a1 b1) + a2 b2 on Python floats."""
    return float(a[0]) * float(b[0]) + float(a[1]) * float(b[1]) + float(a[2]) * float(b[2])


def _gradient_oracle(pts, spec, t):
    """grad f = sum_i K'(t_i) x_i as a list, one einsum contraction (no BLAS)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dk = np.atleast_1d(kernel_t_derivative(spec, t))
        return np.einsum("ki,i->k", np.ascontiguousarray(pts.T), dk).tolist()


def _newton_step_oracle(pts, spec, eta, t, grad, e_a, e_b, g_norm, step0):
    """The damped Newton step (d_a, d_b) from the moment matrix
    M = sum_i K''(t_i) x_i x_i^T, H = e^T M e - (grad f . eta) delta, or None
    when the tangent Hessian is not finite and positive definite."""
    x, y, z = (np.ascontiguousarray(c) for c in pts.T)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        k2 = kernels._run(kernels._descent_plan(spec).d2, np.sqrt((1.0 - t) / 2.0))
        second = np.stack([x * x, x * y, x * z, y * y, y * z, z * z])
        xx, xy, xz, yy, yz, zz = np.einsum("ki,i->k", second, k2).tolist()
    m = [[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]]

    def form(a, b):  # a^T (M b)
        return _vec_dot(a, [_vec_dot(row, b) for row in m])

    radial = _vec_dot(grad, eta)
    h_aa = form(e_a, e_a) - radial
    h_ab = form(e_b, e_a)
    h_bb = form(e_b, e_b) - radial
    det = h_aa * h_bb - h_ab * h_ab
    if not (h_aa > 0.0 and det > 0.0 and math.isfinite(det)):
        return None
    d_a = -g_norm * h_bb / det
    d_b = g_norm * h_ab / det
    length = math.sqrt(d_a * d_a + d_b * d_b)
    if not math.isfinite(length):
        return None
    if length > step0:
        d_a *= step0 / length
        d_b *= step0 / length
    return d_a, d_b


def _objective_or_inf(pts, spec, trial):
    try:
        return _objective_oracle(pts, spec, trial)
    except SingularKernelError:  # trial landed exactly on a node
        return math.inf


def _polish_oracle(eta, pts, spec, step0, tol=1e-8, max_iter=200):
    """Reference polish: the Newton step, or -step0 e_a where the tangent
    Hessian is not positive definite, halved until a trial scores below eta,
    with one objective evaluation per trial; vectors of three are Python
    floats."""
    eta = eta.tolist()
    f = _objective_oracle(pts, spec, np.array(eta))
    for _ in range(max_iter):
        t = _dots(pts, eta)
        grad = _gradient_oracle(pts, spec, t)
        radial = _vec_dot(grad, eta)
        g_t = [g - radial * e for g, e in zip(grad, eta)]
        g_norm = math.sqrt(_vec_dot(g_t, g_t))
        if g_norm == 0.0 or not math.isfinite(g_norm):
            break
        e_a = [g / g_norm for g in g_t]
        e_b = np.cross(eta, e_a).tolist()
        d = _newton_step_oracle(pts, spec, eta, t, grad, e_a, e_b, g_norm, step0)
        d_a, d_b = d if d is not None else (-step0, 0.0)
        step, length = [d_a * a + d_b * b for a, b in zip(e_a, e_b)], math.hypot(d_a, d_b)
        while True:
            if length < tol:
                return np.array(eta)
            trial = [e + s for e, s in zip(eta, step)]
            norm = math.sqrt(_vec_dot(trial, trial))
            trial = [v / norm for v in trial]
            f_trial = _objective_or_inf(pts, spec, np.array(trial))
            if f_trial < f:
                break
            step, length = [v / 2.0 for v in step], length / 2.0
        eta, f = trial, f_trial
    return np.array(eta)


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
    # Nodes a, b and c lie on the great circle y = 0 through eta, all with
    # t > 0, so the tangent Hessian at eta is indefinite (its e_y entry is
    # -grad f . eta < 0) and the first iteration is the line search toward
    # -x.  Of its trials at steps 0.5, 0.25, 0.125, ... the first scores
    # above eta (it lands near c), the second is b bit for bit, and the
    # third must still be taken.
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


def test_newton_step_refuses_a_step_that_overflows():
    # H is finite and positive definite (det = 1e-300), but d_a = -1e450
    assert pointgen._newton_step(1e300, 1e-150, 0.0, 1e-150, 1.0) is None


def test_polish_halves_a_refused_newton_step_along_itself():
    # eta = e_z, with 23 copies of a node on the +x side and two pairs at
    # +-y, mirror images across y = 0: the gradient is exactly +x and the
    # tangent Hessian diagonal.  A node c is planted on the Newton trial
    # normalize(eta + d e_x), which it moves; iterating d to a fixed point
    # gives a node on the trial of its own Newton step.  That step is shorter
    # than step0, so it is no descent step, and its trial scores +inf; the
    # first iteration then takes the same step halved.
    eta, e_x, e_y = np.eye(3)[[2, 0, 1]]
    step0 = 1.0
    side = [math.sin(1.5), 0.0, math.cos(1.5)]
    pair = [[0.0, math.sin(1.0), math.cos(1.0)], [0.0, -math.sin(1.0), math.cos(1.0)]]
    base = np.array([side] * 23 + pair * 2)

    def trial(d_a):
        v = eta + d_a * e_x
        return v / math.sqrt(float(np.dot(v, v)))

    nodes, d_a = base, None  # from the Newton step without c
    for _ in range(100):
        t = _dots(nodes, eta)
        grad = _gradient_oracle(nodes, PYCKE, t)
        assert grad[0] > 0.0 and grad[1] == 0.0
        d = _newton_step_oracle(nodes, PYCKE, eta, t, grad, e_x, e_y, float(grad[0]), step0)
        if d == (d_a, 0.0):
            break
        d_a = d[0]
        nodes = np.vstack([base, trial(d_a)])
    else:
        pytest.fail("the planted Newton trial has no fixed point")
    assert -step0 < d_a < 0.0
    assert _dots(nodes, nodes[-1])[-1] == 1.0
    first = pointgen._polish(eta, nodes, PYCKE, step0, max_iter=1)
    assert np.array_equal(first, trial(d_a / 2.0))
    out = pointgen._polish(eta, nodes, PYCKE, step0)
    assert np.array_equal(out, _polish_oracle(eta, nodes, PYCKE, step0))


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


@pytest.mark.parametrize(
    "name", ["pycke", "pycke:d1", "pycke:d2", "cui-freeden", "riesz:s=1"]
)
def test_polish_ends_when_a_refused_step_halves_below_the_floor(name, monkeypatch):
    # Two nodes on the great circle y = 0 through eta = e_z, one 0.01 toward
    # +x and one 0.01 + 1e-9 toward -x: f is least 5e-10 from eta toward -x,
    # and the tangent Hessian is indefinite (its e_y entry is
    # -grad f . eta < 0).  The first step is the descent step of length
    # step0 = 1.5e-8 toward -x, which overshoots that minimum and raises f.
    # Halved it is shorter than 1e-8, so the polish ends at eta, having
    # scored one trial row after the row of eta itself.
    spec = parse_kernel(name)
    eta, step0, near = np.array([0.0, 0.0, 1.0]), 1.5e-8, 0.01
    nodes = np.array(
        [[math.sin(near), 0.0, math.cos(near)], [-math.sin(near + 1e-9), 0.0, math.cos(near + 1e-9)]]
    )
    trial = _x_trial(eta, step0, 1.0)
    assert _objective_oracle(nodes, spec, trial) > _objective_oracle(nodes, spec, eta)
    rows, score = [], pointgen._half_chord_kernel
    monkeypatch.setattr(
        pointgen, "_half_chord_kernel", lambda *args: rows.append(1) or score(*args)
    )
    out = pointgen._polish(eta, nodes, spec, step0)
    assert out.tobytes() == eta.tobytes() == _polish_oracle(eta, nodes, spec, step0).tobytes()
    assert len(rows) == 2
    rows.clear()
    pointgen._polish(eta, nodes, spec, step0, tol=1e-10)
    assert len(rows) > 2  # with a lower floor the halving goes on


@settings(max_examples=80, deadline=None, derandomize=True)
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
        # one on the k-th toward -x, or one on eta itself.  The nodes lie in
        # the upper half, t > 0, where every K here has K' > 0, so
        # grad f . eta > 0.  As every x_i . e_y is 0, the tangent Hessian's
        # e_y entry is -grad f . eta < 0: it is indefinite, and the first
        # iteration halves its descent step over the planted trials.
        eta = np.array([0.0, 0.0, 1.0])
        theta = np.random.default_rng(seed).uniform(-math.pi / 2, math.pi / 2, n)
        nodes = np.column_stack([np.sin(theta), np.zeros(n), np.cos(theta)])
        if plant == "trials":
            extra = [_x_trial(eta, step0 * 0.5**j, 1.0), _x_trial(eta, step0 * 0.5**k, -1.0)]
        else:
            extra = [eta]
        nodes = np.vstack([nodes] + extra)
        if plant == "trials":
            dk = kernel_t_derivative(spec, _dots(nodes, eta))
            assert float(np.dot(np.sum(dk[:, None] * nodes, axis=0), eta)) > 0.0
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
    columns = np.ascontiguousarray(grid.T)  # the grid as the greedy update holds it
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
        got += pointgen._grid_kernel(spec, columns, x)
    assert got.tobytes() == want.tobytes()
    assert np.isinf(got).any() == is_singular_at_coincidence(spec)
    # an antipodal candidate still raises where kernel_eval raises
    if spec.family == "ajne":
        with pytest.raises(SingularKernelError):
            kernel_eval(spec, _dots(grid, -grid[7]))
        with pytest.raises(SingularKernelError):
            pointgen._grid_kernel(spec, columns, -grid[7])

@pytest.mark.parametrize("name", ["pycke", "pycke:d1", "pycke:d2"])
def test_greedy_generate_matches_oracle_polish(name, monkeypatch):
    spec = parse_kernel(name)
    fast = greedy_generate(16, spec, seed=2, grid_size=1024).points
    monkeypatch.setattr(pointgen, "_polish", _polish_oracle)
    oracle = greedy_generate(16, spec, seed=2, grid_size=1024).points
    assert np.array_equal(fast, oracle)


@settings(max_examples=40, deadline=None, derandomize=True)
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


@pytest.mark.parametrize("name", ["pycke", "pycke:d1", "pycke:d2", "cui-freeden", "riesz:s=1"])
def test_greedy_nodes_sit_at_or_below_the_grid_optimum(name):
    # The polish starts at the grid argmin and takes only steps that lower
    # the summed kernel, so no node may end above the best grid point.
    spec = parse_kernel(name)
    grid = candidate_grid(1024).points.points
    for seed in range(1, 5):
        nodes = greedy_generate(40, spec, seed=seed, grid_size=1024).points
        sums = np.zeros(len(grid))
        for k in range(1, len(nodes)):
            t = _dots(grid, nodes[k - 1])
            hit = t >= _COINCIDENCE_T if is_singular_at_coincidence(spec) else t > 1.0
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                vals = kernel_eval(spec, np.where(hit, 0.0, t))
            vals[hit] = np.inf
            sums += vals
            terms = kernel_eval(spec, _dots(nodes[:k], nodes[k]))
            slack = (np.sum(terms) - np.min(sums)) / np.sum(np.abs(terms))
            assert slack <= 1e-12, (seed, k, slack)


def test_greedy_nodes_do_not_depend_on_the_blas_thread_count():
    # Besides a greedy sequence, one polish against 12000 random nodes: a
    # BLAS reduction that long (a ddot above 10000 entries in OpenBLAS)
    # splits across threads and changes its last bits with their count.
    script = (
        "import sys; from sphereq.kernels import parse_kernel; "
        "from sphereq.pointgen import _polish, greedy_generate, random_unit_points; "
        "spec = parse_kernel('pycke:d2'); "
        "nodes = greedy_generate(40, spec, seed=3, grid_size=1024).points; "
        "far = random_unit_points(12000, 8).points; "
        "eta = _polish(random_unit_points(1, 9).points[0], far, spec, 0.05); "
        "sys.stdout.write(nodes.tobytes().hex() + eta.tobytes().hex())"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr[-2000:]
        outs.append(done.stdout)
    assert len(outs[0]) == 41 * 3 * 8 * 2
    assert outs[0] == outs[1]


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
@pytest.mark.parametrize("rows", [1, 7, pointgen.KNN_BLOCK])
def test_knn_row_blocks_match_full_matrix(pts, rows, monkeypatch):
    monkeypatch.setattr(pointgen, "KNN_BLOCK", rows)
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
                history=False,
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


def test_refine_provenance_names_s_as_a_kernel_name_does():
    pts = random_unit_points(20, seed=1)
    for s, text in ((1.9999999, "1.9999999"), (0.1234567, "0.1234567"), (2.5, "2.5")):
        params = RefineParams(k_neighbors=3, iterations=2, riesz_s=s)
        out, _ = riesz_refine(pts, params, history=False)
        assert out.provenance == f"riesz_refine:s={text}"
        assert KernelSpec("riesz", s=s).name == f"riesz:s={text}"
    out, _ = riesz_refine(pts, RefineParams(k_neighbors=3, iterations=2), history=False)
    assert out.provenance == "riesz_refine:s=1"


def test_refine_unit_norms():
    pts = random_unit_points(50, seed=9)
    out, _ = riesz_refine(
        pts, RefineParams(k_neighbors=8, iterations=25, riesz_s=1.0),
        history=False,
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
        if t % pointgen.KNN_REFRESH == 0:
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


@pytest.mark.parametrize(
    "n, k", [(2, 1), (13, 1), (13, 12), (206, 1), (206, 12), (998, 12)]
)
@pytest.mark.parametrize("s", [1.0, 2.5])
def test_refine_equals_the_point_major_loop(n, k, s):
    pts = random_unit_points(n, seed=n + k)
    params = RefineParams(k_neighbors=k, iterations=35, riesz_s=s)
    out, _ = riesz_refine(pts, params, history=False)
    assert out.points.tobytes() == _refine_oracle(pts, params).tobytes()


@pytest.mark.parametrize("n, iterations", [(206, 200), (998, 21), (300, 77)])
def test_refine_at_the_benchmark_size_keeps_its_bytes(n, iterations, monkeypatch):
    # k-NN refreshes of many blocks each, and a history with a forked helper
    # summing every other row (an odd count at N=300, so the parent sums the
    # last row), against the same run on full-matrix neighbors with every
    # row summed inline
    assert (iterations // 2) * n * n >= pointgen.HISTORY_FORK_WORK
    pts = random_unit_points(n, seed=7)
    params = RefineParams(k_neighbors=12, iterations=iterations)
    forks, fork = [], getattr(os, "fork", None)
    if fork:
        monkeypatch.setattr(os, "fork", lambda: forks.append(0) or fork())
        monkeypatch.setattr(pointgen, "_spare_cpu", lambda: True)
    out, history = riesz_refine(pts, params)
    assert len(forks) == bool(fork)
    monkeypatch.delattr(os, "fork", raising=False)
    monkeypatch.setattr(pointgen, "_knn", lambda p, k: _knn_oracle(p.T, k))
    expect, expect_history = riesz_refine(pts, params)
    assert out.points.tobytes() == expect.points.tobytes()
    assert len(history) == iterations
    assert np.array(history).tobytes() == np.array(expect_history).tobytes()
    assert all(type(h) is float for h in history)


# --- the history helper process ----------------------------------------------------

# a refine whose history forks a helper: 10 x 998^2 is above the threshold
HELPED = (random_unit_points(998, seed=7), RefineParams(iterations=21))
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


@pytest.fixture
def second_cpu(monkeypatch):
    # the helper forks only where a second CPU is usable: grant one
    monkeypatch.setattr(pointgen, "_spare_cpu", lambda: True)


def _open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@contextlib.contextmanager
def _deadline(seconds):
    def expire(*_):  # a hang becomes this error in the test process
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@contextlib.contextmanager
def _nothing_left():
    # the block ends within a minute and no file descriptor outlives it;
    # conftest.py checks that no child process does
    fds = _open_fds()
    with _deadline(60):
        yield
    assert _open_fds() == fds


def _after_row(monkeypatch, at, then):
    # call then(history) right after iteration ``at`` hands over its row
    add = pointgen._History.add

    def patched(self, t, x):
        add(self, t, x)
        if t == at:
            then(self)

    monkeypatch.setattr(pointgen._History, "add", patched)


@needs_fork
@pytest.mark.usefixtures("second_cpu")
@pytest.mark.parametrize(
    "n, rows, forks", [(998, 1, 0), (998, 6, 1), (141, 200, 0), (142, 200, 1)]
)
def test_a_history_forks_where_the_helpers_share_reaches_the_threshold(n, rows, forks, monkeypatch):
    # the helper's share is rows // 2 rows of N^2 pairs: a 1-iteration
    # refine forks none, and the CLI's 200-iteration refine forks from N=142
    got, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: got.append(0) or fork())
    with _nothing_left(), pointgen._History(n, rows):
        pass
    assert len(got) == forks


@needs_fork
@pytest.mark.usefixtures("second_cpu")
def test_no_helper_outlives_a_refine_that_returns():
    with _nothing_left():
        _, history = riesz_refine(*HELPED)
    assert len(history) == 21


@needs_fork
@pytest.mark.usefixtures("second_cpu")
def test_no_helper_outlives_a_refine_that_raises(monkeypatch):
    def fail(history):
        assert history.pid and history.sent == 3  # rows 1, 3 and 5 went to the helper
        raise DomainError("raised at iteration 5")

    _after_row(monkeypatch, 5, fail)
    with _nothing_left(), pytest.raises(DomainError, match="iteration 5"):
        riesz_refine(*HELPED)


# the reply of a helper killed before it sent its 10 rows
NO_REPLY = "sent 0 of 80 bytes, wait status 9"


def _kill(history):
    os.kill(history.pid, signal.SIGKILL)
    os.waitid(os.P_PID, history.pid, os.WEXITED | os.WNOWAIT)  # dead, not yet reaped


def _stall_last_helper_row(monkeypatch):
    # the helper stalls before it sums its 10th and last row, so a kill
    # after that row is handed over always comes before the reply
    score, parent, rows = pointgen._History._score, os.getpid(), []

    def stalled(self, x):
        if os.getpid() != parent:
            rows.append(0)
            if len(rows) == 10:
                time.sleep(60)
        return score(self, x)

    monkeypatch.setattr(pointgen._History, "_score", stalled)


@needs_fork
@pytest.mark.usefixtures("second_cpu")
@pytest.mark.parametrize(
    "at, held, why",
    [
        (5, False, "closed its pipe"),
        (19, False, NO_REPLY),
        (5, True, "exited, wait status 9"),
        (19, True, NO_REPLY),
    ],
)
def test_a_refine_raises_when_its_helper_dies(at, held, why, monkeypatch):
    # killed mid-run, the next iterate meets a pipe with no reader; killed
    # as it takes the last odd row, the reply comes up short.  Held: a
    # process forked just before the helper holds a copy of every pipe
    # end, so the death brings no broken pipe and no end of file, and the
    # parent, with the down pipe full or the up pipe empty, must see the
    # exit itself
    fork, others = os.fork, []

    def fork_after_another():
        pid = fork()
        if pid == 0:
            try:
                time.sleep(60)
            finally:
                os._exit(0)
        others.append(pid)
        return fork()

    if held:
        monkeypatch.setattr(os, "fork", fork_after_another)
    _stall_last_helper_row(monkeypatch)
    _after_row(monkeypatch, at, _kill)
    try:
        with _nothing_left(), pytest.raises(RuntimeError, match=why):
            riesz_refine(*HELPED)
    finally:
        for pid in others:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    assert len(others) == held


@needs_fork
@pytest.mark.usefixtures("second_cpu")
def test_refines_in_two_threads_get_the_serial_bytes(monkeypatch):
    # both threads make their pipes before either forks, so each helper is
    # born holding the other refine's pipe ends; neither refine may wait on
    # the other's helper
    expect, expect_history = riesz_refine(*HELPED)
    gate, fork, got = threading.Barrier(2, timeout=60), os.fork, [None, None]

    def fork_together():
        gate.wait()
        return fork()

    def run(slot):
        out, history = riesz_refine(*HELPED)
        got[slot] = out.points.tobytes(), np.array(history).tobytes()

    monkeypatch.setattr(os, "fork", fork_together)
    threads = [threading.Thread(target=run, args=(slot,), daemon=True) for slot in (0, 1)]
    with _nothing_left():
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert got == [(expect.points.tobytes(), np.array(expect_history).tobytes())] * 2


@needs_fork
@pytest.mark.usefixtures("second_cpu")
def test_a_refine_raises_on_a_short_reply(monkeypatch):
    # a helper that reads every iterate, sends back one row and exits 0
    def serve(self, down_r, up_w, count):
        os.close(self.down)
        os.close(self.up)
        with open(down_r, "rb") as down:
            while down.read(1 << 16):
                pass
        os.write(up_w, bytes(8))
        os._exit(0)

    monkeypatch.setattr(pointgen._History, "_serve", serve)
    with _nothing_left(), pytest.raises(RuntimeError, match="sent 8 of 80 bytes, wait status 0"):
        riesz_refine(*HELPED)


@needs_fork
@pytest.mark.usefixtures("second_cpu")
def test_a_refine_sums_inline_when_no_process_can_be_forked(monkeypatch):
    def refuse():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    expect, expect_history = riesz_refine(*HELPED)
    monkeypatch.setattr(os, "fork", refuse)
    with _nothing_left():
        out, history = riesz_refine(*HELPED)
    assert out.points.tobytes() == expect.points.tobytes()
    assert np.array(history).tobytes() == np.array(expect_history).tobytes()


@needs_fork
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_a_refine_bound_to_one_cpu_sums_inline(monkeypatch):
    # the calling thread bound to one CPU: a helper would only add its fork
    expect, expect_history = riesz_refine(*HELPED)
    cpus = os.sched_getaffinity(0)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on one CPU"))
    os.sched_setaffinity(0, {min(cpus)})
    try:
        with _nothing_left():
            out, history = riesz_refine(*HELPED)
    finally:
        os.sched_setaffinity(0, cpus)
    assert out.points.tobytes() == expect.points.tobytes()
    assert np.array(history).tobytes() == np.array(expect_history).tobytes()


@needs_fork
def test_the_helper_flushes_no_stdio_and_runs_no_exit_hook():
    # stdout is a pipe, so the text written before the refine is still in
    # its buffer when the helper forks; a helper that flushed it or ran the
    # exit hook would write it a second time
    script = (
        "import atexit, sys; "
        "from sphereq.pointgen import RefineParams, random_unit_points, riesz_refine; "
        "atexit.register(sys.stdout.write, 'exit;'); sys.stdout.write('before;'); "
        "riesz_refine(random_unit_points(998, 7), RefineParams(iterations=21))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "before;exit;", "")


def _cap(n, seed, outside, scale, axis):
    # n random points, all but the first ``outside`` squeezed into a cap of
    # radius about ``scale`` about a coordinate axis: the first reach of the
    # search is too short for the points outside
    p = random_unit_points(n, seed=seed).points.copy()
    inside = np.arange(n) >= outside
    p[inside, :2] *= scale
    p[inside, 2] = np.abs(p[inside, 2])
    p /= np.sqrt(np.sum(p * p, axis=1))[:, None]
    return p[:, np.roll([0, 1, 2], axis)]


def _clip_ties():
    # random points, then a point x whose dot with itself rounds above 1,
    # planted with one-ulp neighbors: its squared chords to them and to its
    # own copy in the set are 0 and below 0, all ties once clipped at 0
    p = random_unit_points(60, seed=1).points
    x = p[np.flatnonzero((p[:, 0] * p[:, 0] + p[:, 1] * p[:, 1]) + p[:, 2] * p[:, 2] > 1.0)[0]]
    ulp = [np.nextafter(x, math.inf * np.array(sign)) for sign in
           ([1, 1, 1], [-1, -1, -1], [1, -1, 1], [-1, 1, -1])]
    return np.vstack([ulp[:2], p, [x], ulp[2:]])


@st.composite
def _knn_cases(draw):
    # the blocks of the search and their retries run from N = 129 up; the
    # examples below go to about 2500 points, and "tiny" to N <= k + 2
    kind = draw(st.sampled_from(["random", "cap", "fibonacci", "rings", "tiny"]))
    n, seed = draw(st.integers(2, 600)), draw(st.integers(0, 999))
    if kind == "random":
        p = random_unit_points(n, seed=seed).points.copy()
    elif kind == "cap":
        scale = 10.0 ** -draw(st.integers(1, 4))
        p = _cap(n, seed, draw(st.integers(0, min(n, 40))), scale, draw(st.integers(0, 2)))
        p *= draw(st.sampled_from([1.0, -1.0]))
    elif kind == "fibonacci":
        p = candidate_grid(max(n, 16)).points.points.copy()
    elif kind == "rings":
        p = _rings(draw(st.integers(1, 20)), draw(st.integers(2, 40))).points.copy()
    else:
        p = random_unit_points(draw(st.integers(2, 22)), seed=seed).points.copy()
    n = len(p)
    # the poles and the azimuth seam, where atan2 jumps from pi to -pi
    seam = st.tuples(st.integers(0, n - 1), st.sampled_from([1.0, -1.0, 0.0, 0.5, -0.999]))
    for i, z in draw(st.lists(seam, max_size=4)):
        p[i] = (-math.sqrt(1.0 - z * z), draw(st.sampled_from([0.0, -0.0, 1e-300, -1e-300])), z)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans())
    for src, dst, flip in draw(st.lists(pairs, max_size=6)):
        p[dst] = -p[src] if flip else p[src]  # planted antipodes and duplicates
    if kind == "tiny":
        return p, max(1, n - draw(st.integers(1, 2)))
    return p, draw(st.integers(1, min(20, n - 1)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_knn_cases())
@example((random_unit_points(2500, seed=1).points, 12))
@example((_cap(1500, 2, 30, 1e-2, 1), 20))
@example((candidate_grid(1200).points.points, 12))
@example((_rings(30, 50).points, 20))
@example((np.vstack([-_cap(1024, 3, 0, 0.1, 0), [[-1.0, 0.0, 0.0]]]), 20))  # a lone last block
@example((_clip_ties(), 3))
def test_knn_equals_a_full_matrix_stable_argsort(case):
    p, k = case
    np.testing.assert_array_equal(knn_indices(PointSet(p), k), _knn_oracle(p, k))


@pytest.mark.parametrize(
    "fn, args",
    [
        (candidate_grid, (16.5,)),
        (greedy_generate, (4, PYCKE, 1, 16.7)),
        (greedy_generate, (2.5, PYCKE, 1, 16)),
        (greedy_generate, (3, PYCKE, 1.5, 16)),
        (random_unit_points, (5.5, 1)),
        (random_unit_points, (5, 1.5)),
        (RefineParams, (12, 2.5)),
        (RefineParams, (math.nan,)),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_nan_and_fractional_counts_raise_domain_error(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


@pytest.mark.parametrize("k", [0, -1, -25, 2.5])
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
        riesz_refine(PointSet(p), RefineParams(k_neighbors=3, iterations=3), history=False)


def test_refine_with_a_huge_exponent_does_not_warn():
    # |x_i - x_j|^(s+2) overflows to inf for a neighbor farther than 1, and
    # that neighbor's pull drops out; numpy used to warn on the overflow
    p = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
    out, history = riesz_refine(PointSet(p), RefineParams(k_neighbors=1, iterations=2, riesz_s=1e308))
    assert np.all(np.isfinite(out.points)) and np.all(np.isfinite(history))
    # delta / offset overflows on the first step; numpy used to warn first
    params = RefineParams(k_neighbors=1, iterations=3, offset=5e-324)
    for history in (True, False):
        with pytest.raises(DomainError, match="iteration 0 is not finite with offset 5e-324"):
            riesz_refine(random_unit_points(2, seed=1), params, history=history)


@pytest.mark.parametrize("history", [True, False])
def test_refine_names_an_overflowed_repulsion(history):
    # |x_i - x_j|^1002 is subnormal at a chord of 0.485, so (x_i - x_j) /
    # |x_i - x_j|^1002 overflows; its zero step used to make the point NaN,
    # which the history's PointSet refused and the k-NN search cannot take
    th = 2.0 * math.asin(0.2425)
    p = np.array([[1.0, 0.0, 0.0], [math.cos(th), math.sin(th), 0.0], [0, 0, 1.0], [0, 0, -1.0]])
    params = RefineParams(k_neighbors=1, iterations=25, riesz_s=1000.0)
    with pytest.raises(DomainError, match="repulsion at iteration 0 overflows with riesz_s 1000.0"):
        riesz_refine(PointSet(p), params, history=history)


def test_greedy_with_an_overflowing_kernel_does_not_warn():
    # K = -c (2u)^1997 overflows to -inf on far candidates, and the grid sums
    # add it to the +inf of a coincident one; numpy used to warn on inf - inf,
    # and the nodes placed among the finite rest meant nothing
    with pytest.raises(ConditioningError):
        greedy_generate(4, parse_kernel("riesz:s=-2001:d2"), seed=1, grid_size=16)


@pytest.mark.parametrize("score", [-math.inf, math.nan])
def test_greedy_refuses_an_overflowed_grid_score(score):
    # +inf marks a candidate on a node and is skipped; NaN and -inf mean the
    # kernel overflowed, and a node picked among the rest would mean nothing
    grid = candidate_grid(16)
    pts = PointSet(grid.points.points[:1])
    scores = np.arange(16.0)
    scores[0], scores[5] = math.inf, score
    with pytest.raises(ConditioningError, match=f"pycke overflows on the candidate grid \\(a score is {score}\\)"):
        pointgen._select_and_polish(pts.points, PYCKE, grid, scores)


@pytest.mark.parametrize(
    "planted, error, message",
    [
        ({9: math.nan}, ConditioningError, r"\(a score is nan\)"),
        ({3: -math.inf, 9: math.nan}, ConditioningError, r"\(a score is nan\)"),  # NaN wins
        ({3: math.nan, 9: -math.inf}, ConditioningError, r"\(a score is nan\)"),
        ({3: -math.inf, 9: -math.inf}, ConditioningError, r"\(a score is -inf\)"),
        (dict.fromkeys(range(16), math.inf), ConfigurationError, "every grid candidate coincides"),
    ],
    ids=["nan", "-inf then nan", "nan then -inf", "-inf", "all +inf"],
)
def test_one_argmin_over_the_grid_scores_keeps_every_refusal(planted, error, message):
    # one scan: argmin returns the first NaN where there is one, so a NaN
    # anywhere refuses as NaN, a -inf as -inf, and all +inf as no candidate
    grid = candidate_grid(16)
    scores = np.arange(16.0)
    scores[0] = math.inf
    for i, score in planted.items():
        scores[i] = score
    with pytest.raises(error, match=message):
        pointgen._select_and_polish(grid.points.points[:1], PYCKE, grid, scores)
