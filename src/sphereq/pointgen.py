"""Point-system generation on the unit sphere.

Three generators:

* seeded uniform random sampling (normalized Gaussian triples),
* greedy sequential minimization of the summed kernel against the points
  placed so far (argmin over a spherical Fibonacci grid, then polished by
  tangent-plane descent whose backtracking line search scores every trial
  step length in one batched kernel evaluation),
* iterative k-nearest-neighbor Riesz repulsion with a decaying step,
  re-projected to the sphere each iteration; the k-NN row blocks run on
  the worker pool of :mod:`sphereq.summation`.

Everything is deterministic for a fixed seed; per-iteration updates read only
the previous iterate, so partitioned execution cannot reorder results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .discrepancy import _COINCIDENCE_T, PointSet, mean_pair_discrepancy
from .kernels import (
    KernelSpec,
    is_singular_at_coincidence,
    kernel_eval,
    kernel_t_derivative,
)
from .summation import block_buffers, blocked_map

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

#: Row block of the k-NN scan: a (KNN_ROWS, N) distance block at a time.
KNN_ROWS = 128


@dataclass(frozen=True)
class RefineParams:
    """Parameters of the k-NN Riesz descent refinement."""

    k_neighbors: int = 12
    iterations: int = 200
    riesz_s: float = 1.0
    offset: float = 19.0
    refresh_period: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise DomainError("k_neighbors must be positive")
        if self.iterations < 1:
            raise DomainError("iterations must be >= 1")
        if self.riesz_s <= 0:
            raise DomainError("riesz exponent must be positive")
        if self.offset <= 0:
            raise DomainError("step offset must be positive")
        if self.refresh_period < 1:
            raise DomainError("refresh period must be positive")


@dataclass(frozen=True)
class CandidateGrid:
    """Deterministic spherical Fibonacci lattice used as an argmin search space."""

    size: int
    points: PointSet


def random_unit_points(n: int, seed: int) -> PointSet:
    """n independent uniform points: normalized standard-normal triples."""
    if n < 1:
        raise DomainError("need at least one point")
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, 3))
    norms = np.sqrt(np.sum(pts * pts, axis=1))
    while np.any(norms == 0.0):  # probability zero, but a degenerate RNG could
        bad = norms == 0.0
        pts[bad] = rng.standard_normal((int(np.sum(bad)), 3))
        norms = np.sqrt(np.sum(pts * pts, axis=1))
    return PointSet(pts / norms[:, None], seed=seed, provenance="random")


def candidate_grid(m: int) -> CandidateGrid:
    """Spherical Fibonacci lattice of m points (m >= 16)."""
    if m < 16:
        raise DomainError("candidate grid needs at least 16 points")
    i = np.arange(m, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / m
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * _GOLDEN_ANGLE
    pts = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    pts /= np.sqrt(np.sum(pts * pts, axis=1))[:, None]
    return CandidateGrid(m, PointSet(pts, provenance="fibonacci"))


def greedy_initial(seed: int):
    """Seeded random first node (one normalized Gaussian draw)."""
    return random_unit_points(1, seed).points[0]


def _dots(pts: np.ndarray, eta: np.ndarray) -> np.ndarray:
    return np.clip(
        pts[:, 0] * eta[0] + pts[:, 1] * eta[1] + pts[:, 2] * eta[2], -1.0, 1.0
    )


def _masked_kernel(
    spec: KernelSpec, t: np.ndarray, coincident_t: float
) -> np.ndarray:
    """K(t), with +inf where t >= coincident_t for a K singular at coincidence.

    Those entries of ``t`` are overwritten in place and never reach
    :func:`kernel_eval`, so it does not raise.
    """
    hit = t >= coincident_t if is_singular_at_coincidence(spec) else None
    coincident = hit is not None and bool(hit.any())
    if coincident:
        t[hit] = 0.0  # any safe argument; overwritten below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = kernel_eval(spec, t)
    if coincident:
        vals[hit] = np.inf
    return vals


def _objective(pts: np.ndarray, spec: KernelSpec, etas: np.ndarray) -> np.ndarray:
    """sum_i K(x_i . eta) for every row eta of ``etas``, in one kernel call.

    A row that lands exactly on a node (t == 1) of a kernel singular at
    coincidence scores +inf.  Each row sum is bit for bit the 1-D sum of
    that row alone.
    """
    t = _dots(pts, etas.T[:, :, None])  # (rows, nodes): each eta[c] is a column
    return np.sum(_masked_kernel(spec, t, 1.0), axis=1)


def _polish(
    eta: np.ndarray,
    pts: np.ndarray,
    spec: KernelSpec,
    step0: float,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> np.ndarray:
    """Tangent-plane descent of sum_i K(x_i . eta), re-normalized each step.

    Each iteration is a backtracking line search along the negative tangent
    gradient over the step lengths step0, step0/2, step0/4, ... > tol.  All
    trial points are normalized and scored in one batched kernel evaluation,
    and the longest step that lowers the objective is taken, exactly as a
    sequential halving search would take it.  A trial that lands on a node
    scores +inf and is passed over.  Descent stops when no step lowers the
    objective, the gradient vanishes, or an accepted step is shorter than
    ``tol``.
    """
    alphas = []
    alpha = step0
    while alpha > tol:
        alphas.append(alpha)
        alpha *= 0.5
    alphas = np.array(alphas)[:, None]
    f = _objective(pts, spec, eta[None, :])[0]
    for _ in range(max_iter):
        t = _dots(pts, eta)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            dk = np.atleast_1d(kernel_t_derivative(spec, t))
        grad = np.sum(dk[:, None] * pts, axis=0)
        g_t = grad - np.dot(grad, eta) * eta
        g_norm = float(np.sqrt(np.dot(g_t, g_t)))
        if g_norm == 0.0 or not math.isfinite(g_norm):
            break
        trials = eta - alphas * (g_t / g_norm)
        # np.vecdot rounds as np.dot does on one row; np.sum(v * v) does not
        trials /= np.sqrt(np.vecdot(trials, trials))[:, None]
        f_trials = _objective(pts, spec, trials)
        lower = np.flatnonzero(f_trials < f)
        if lower.size == 0:
            break
        trial = trials[lower[0]]
        step = float(np.sqrt(np.sum((trial - eta) ** 2)))
        eta, f = trial, f_trials[lower[0]]
        if step < tol:
            break
    return eta


def greedy_next(pts: PointSet, spec: KernelSpec, grid: CandidateGrid) -> np.ndarray:
    """Next node: grid argmin of the summed kernel, then local polish.

    For a kernel singular at coincidence, a grid candidate that coincides
    with a node (dot product >= 1 - 1e-14) is skipped.  Raises
    :class:`ConfigurationError` when no candidate remains.
    """
    scores = _grid_scores(pts.points, spec, grid.points.points)
    return _select_and_polish(pts.points, spec, grid, scores)


def _grid_kernel(spec: KernelSpec, grid_pts: np.ndarray, x: np.ndarray) -> np.ndarray:
    """K(grid . x) for every candidate; +inf where a singular K meets x."""
    return _masked_kernel(spec, _dots(grid_pts, x), _COINCIDENCE_T)


def _grid_scores(
    pts: np.ndarray, spec: KernelSpec, grid_pts: np.ndarray
) -> np.ndarray:
    scores = np.zeros(grid_pts.shape[0])
    for x in pts:
        scores += _grid_kernel(spec, grid_pts, x)
    return scores


def _select_and_polish(
    pts: np.ndarray, spec: KernelSpec, grid: CandidateGrid, scores: np.ndarray
) -> np.ndarray:
    usable = np.isfinite(scores)
    if not np.any(usable):
        raise ConfigurationError("every grid candidate coincides with an existing node")
    masked = np.where(usable, scores, np.inf)
    eta = grid.points.points[int(np.argmin(masked))].copy()
    step0 = 4.0 / math.sqrt(grid.size)  # about one grid spacing
    return _polish(eta, pts, spec, step0)


def greedy_generate(
    n: int, spec: KernelSpec, seed: int, grid_size: int = 8192
) -> PointSet:
    """Greedy sequence: seeded first node, then n-1 sequential argmin steps.

    Grid kernel sums are maintained incrementally, so the whole run costs
    O(n * grid_size) kernel evaluations plus the polish work.  For a kernel
    singular at coincidence, a grid candidate that coincides with a placed
    node is skipped; :class:`ConfigurationError` is raised when no candidate
    remains.
    """
    if n < 1:
        raise DomainError("need at least one point")
    grid = candidate_grid(grid_size)
    first = greedy_initial(seed)
    out = np.empty((n, 3))
    out[0] = first
    scores = _grid_scores(out[:1], spec, grid.points.points)
    for k in range(1, n):
        eta = _select_and_polish(out[:k], spec, grid, scores)
        out[k] = eta
        scores += _grid_kernel(spec, grid.points.points, eta)
    return PointSet(out, seed=seed, provenance=f"greedy:{spec.name}")


def knn_indices(pts: PointSet, k: int) -> np.ndarray:
    """(N, k) indices of each point's k nearest neighbors (chordal metric).

    Brute-force O(N^2) scan with a partial sort per row; ties break toward
    the lower index, also at the k-th distance; a point is never its own
    neighbor.  Rows go in blocks of KNN_ROWS, so no N x N array is made,
    and the blocks run on the worker pool of :mod:`sphereq.summation`.
    """
    n = len(pts)
    if k >= n:
        raise DomainError("k must be smaller than the number of points")
    p = pts.points
    return np.concatenate(
        blocked_map(n, lambda i0, i1: _knn_rows(p, i0, i1, k), KNN_ROWS)
    )


def _knn_rows(p: np.ndarray, i0: int, i1: int, k: int) -> np.ndarray:
    rows = i1 - i0
    q = p[i0:i1]
    d2, work = block_buffers(rows, p.shape[0])
    # squared chord 2 - 2 q . p
    np.multiply(q[:, 0][:, None], p[:, 0], out=d2)
    for c in (1, 2):
        np.multiply(q[:, c][:, None], p[:, c], out=work)
        d2 += work
    d2 *= 2.0
    np.subtract(2.0, d2, out=d2)
    np.maximum(0.0, d2, out=d2)
    r = np.arange(rows)
    d2[r, r + i0] = np.inf
    # every column within its row's k-th smallest distance is a candidate;
    # nonzero lists them by (row, index) and lexsort is stable, so sorted by
    # (row, distance) a row's first k candidates are its neighbors, with
    # ties at the k-th distance going to the lower index
    np.copyto(work, d2)
    work.partition(k - 1, axis=1)
    row, col = np.nonzero(d2 <= work[:, k - 1 : k])
    col = col[np.lexsort((d2[row, col], row))]
    return col[np.searchsorted(row, r)[:, None] + np.arange(k)]


def riesz_refine(
    pts: PointSet, params: RefineParams, history_metric=None
) -> tuple[PointSet, list[float]]:
    """k-NN Riesz repulsion with step Delta(x_i) / (t + offset).

    Each iteration computes, from the previous iterate only, the weighted
    repulsion sum g_i = s * sum_k (x_i - x_j) / |x_i - x_j|^(s+2) over the
    cached nearest neighbors, then steps along g_i / |g_i| scaled by the
    current nearest-neighbor distance over (t + offset), and re-normalizes.
    Neighbor indices refresh every ``refresh_period`` iterations.

    ``history_metric`` maps a PointSet to the per-iteration history value;
    the default is the bounded-kernel mean-pair score used by the node-set
    benchmark tables.  Pass ``history_metric=False`` to skip history.
    """
    n = len(pts)
    if params.k_neighbors >= n:
        raise DomainError("k_neighbors must be smaller than the point count")
    if history_metric is None:
        history_metric = _default_history_metric
    x = pts.points.copy()
    s = params.riesz_s
    history: list[float] = []
    neighbors = None
    for t in range(params.iterations):
        if t % params.refresh_period == 0:
            neighbors = knn_indices(PointSet(x), params.k_neighbors)
        diff = x[:, None, :] - x[neighbors]  # (N, k, 3)
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        with np.errstate(divide="ignore", invalid="ignore"):
            g = s * np.sum(diff / (dist ** (s + 2.0))[:, :, None], axis=1)
        g_norm = np.sqrt(np.sum(g * g, axis=1))
        delta = np.min(dist, axis=1)
        ok = (g_norm > 0.0) & np.isfinite(g_norm)
        step = np.zeros_like(g_norm)
        step[ok] = delta[ok] / (t + params.offset) / g_norm[ok]
        x = x + step[:, None] * g
        x /= np.sqrt(np.sum(x * x, axis=1))[:, None]
        if history_metric is not False:
            history.append(history_metric(PointSet(x)))
    refined = PointSet(
        x, seed=pts.seed, provenance=f"riesz_refine:s={params.riesz_s:g}"
    )
    return refined, history


def _default_history_metric(pts: PointSet) -> float:
    return mean_pair_discrepancy(pts, KernelSpec("cui-freeden"), "include").value
