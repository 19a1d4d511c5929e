"""Point-system generation on the unit sphere.

Three generators:

* seeded uniform random sampling (normalized Gaussian triples),
* greedy sequential minimization of the summed kernel against the points
  placed so far (argmin over a spherical Fibonacci grid, then polished by
  tangent-plane descent whose backtracking line search scores every trial
  step length in one pass: the trial dots, the half-chords u and the kernel
  values each fill one reused buffer, and the accepted trial's u row gives
  the next gradient, so each iteration forms its dots once),
* iterative k-nearest-neighbor Riesz repulsion with a decaying step,
  re-projected to the sphere each iteration.  The iterate is kept
  component-major, so a step is a few whole-row passes.  The k-NN scan
  goes in row blocks, each in a prefix of one buffer per scan: the squared
  chords come from the dot contraction of the pair sums, each row's k + 1
  nearest from ``argpartition``, and only rows that tie at the k-th
  distance are scanned again.

Everything is deterministic for a fixed seed, and everything runs on the
calling thread; per-iteration updates read only the previous iterate.  The
polish and the grid update take their dots from the builder of the pair
sums and evaluate the kernel on half-chords they form themselves, exactly
as :func:`~sphereq.kernels.kernel_eval` forms them, so they skip its range
checks and give its values bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .discrepancy import (
    _COINCIDENCE_T,
    PointSet,
    _dot_block,
    _dot_rows,
    _half_chords,
    mean_pair_discrepancy,
)
from .kernels import (
    KernelSpec,
    _kernel_eval_u,
    _t_derivative_u,
    is_singular_at_coincidence,
)

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

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise DomainError("k_neighbors must be positive")
        if self.iterations < 1:
            raise DomainError("iterations must be >= 1")
        if not 0.0 < self.riesz_s < math.inf:
            raise DomainError("riesz exponent must be positive and finite")
        if not 0.0 < self.offset < math.inf:
            raise DomainError("step offset must be positive and finite")
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
    if seed < 0:
        raise DomainError("seed must be a non-negative integer")
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


def _half_chord_kernel(
    spec: KernelSpec,
    t: np.ndarray,
    coincident_t: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """K(t) on clipped dots t, with +inf where t >= coincident_t for a K
    singular at coincidence.

    ``t`` is overwritten with the half-chord u = sqrt((1 - t)/2), formed as
    :func:`kernel_eval` forms it, so the values are its values bit for bit;
    the caller may reuse u.  The result goes into ``out`` (a new array when
    None), which must not be ``t``.  Coincident entries get a safe argument
    while the kernel is evaluated and their u back afterwards, so the
    singularity check of ``_kernel_eval_u`` does not raise.
    """
    hit = t >= coincident_t if is_singular_at_coincidence(spec) else None
    _half_chords(t)
    if hit is None or not hit.any():
        return _kernel_eval_u(spec, t, out)
    held = t[hit]
    t[hit] = 0.5
    vals = _kernel_eval_u(spec, t, out)
    t[hit] = held
    vals[hit] = np.inf
    return vals


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
    trial points are normalized and scored in one pass: their dots with the
    nodes, the half-chords u and the kernel values each fill one reused
    buffer.  The longest step that lowers the objective is taken, exactly as
    a sequential halving search would take it, and the u row of that trial
    gives the next gradient, so no dot is formed twice.  A trial that lands
    on a node scores +inf and is passed over.  Descent stops when no step
    lowers the objective, the gradient vanishes, or an accepted step is
    shorter than ``tol``.  Each trial's row sum is bit for bit the sum of
    that row alone.
    """
    alphas = []
    alpha = step0
    while alpha > tol:
        alphas.append(alpha)
        alpha *= 0.5
    alphas = np.array(alphas)[:, None]
    shape = (alphas.shape[0], pts.shape[0])
    u, vals = np.empty(shape), np.empty(shape)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        row = _dot_rows(eta[None, :], pts)
        f = np.sum(_half_chord_kernel(spec, row, 1.0), axis=1)[0]
        u_eta = row[0]
        for _ in range(max_iter):
            dk = _t_derivative_u(spec, u_eta)
            grad = np.sum(dk[:, None] * pts, axis=0)
            g_t = grad - np.dot(grad, eta) * eta
            g_norm = float(np.sqrt(np.dot(g_t, g_t)))
            if g_norm == 0.0 or not math.isfinite(g_norm):
                break
            trials = eta - alphas * (g_t / g_norm)
            # np.vecdot rounds as np.dot does on one row; np.sum(v * v) does not
            trials /= np.sqrt(np.vecdot(trials, trials))[:, None]
            _dot_rows(trials, pts, out=u)
            f_trials = np.sum(_half_chord_kernel(spec, u, 1.0, vals), axis=1)
            lower = np.flatnonzero(f_trials < f)
            if lower.size == 0:
                break
            trial = trials[lower[0]]
            step = float(np.sqrt(np.sum((trial - eta) ** 2)))
            eta, f, u_eta = trial, f_trials[lower[0]], u[lower[0]]
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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = _dot_rows(x[None, :], grid_pts)[0]
        return _half_chord_kernel(spec, t, _COINCIDENCE_T)


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
    neighbor.  Rows go in blocks of KNN_ROWS, each block's squared chords
    in a prefix of one buffer, so no N x N array is made.
    """
    n = len(pts)
    if k < 1:
        raise DomainError("k must be positive")
    if k >= n:
        raise DomainError("k must be smaller than the number of points")
    p = np.ascontiguousarray(pts.points.T)
    rows = KNN_ROWS
    buf = np.empty(min(n, rows) * n)
    return np.concatenate(
        [_knn_rows(p, i, min(i + rows, n), k, buf) for i in range(0, n, rows)]
    )


def _knn_rows(p: np.ndarray, i0: int, i1: int, k: int, buf: np.ndarray) -> np.ndarray:
    # p is the (3, N) component-major point array; buf holds the block
    rows = i1 - i0
    d2 = buf[: rows * p.shape[1]].reshape(rows, p.shape[1])
    # squared chord 2 - 2 q . p, unclipped
    _dot_block(np.ascontiguousarray(p[:, i0:i1]), p, d2)
    d2 *= 2.0
    np.subtract(2.0, d2, out=d2)
    np.maximum(0.0, d2, out=d2)
    r = np.arange(rows)
    d2[r, r + i0] = np.inf
    # the k + 1 nearest columns of each row, sorted by (distance, index):
    # their first k are the neighbors unless the (k+1)-th ties the k-th
    near = np.argpartition(d2, k, axis=1)[:, : k + 1]
    dist = np.take_along_axis(d2, near, axis=1)
    order = np.lexsort((near, dist), axis=1)
    near = np.take_along_axis(near, order, axis=1)[:, :k]
    dist = np.take_along_axis(dist, order, axis=1)
    tied = np.flatnonzero(dist[:, k - 1] == dist[:, k])
    if tied.size:
        # every column within a tied row's k-th distance is a candidate;
        # nonzero lists them by (row, index) and lexsort is stable, so
        # sorted by (row, distance) a row's first k candidates are its
        # neighbors, with ties at the k-th distance going to the lower index
        sub = d2[tied]
        row, col = np.nonzero(sub <= dist[tied, k - 1 : k])
        col = col[np.lexsort((sub[row, col], row))]
        first = np.searchsorted(row, np.arange(tied.size))
        near[tied] = col[first[:, None] + np.arange(k)]
    return near


def riesz_refine(
    pts: PointSet, params: RefineParams, history_metric=None
) -> tuple[PointSet, list[float]]:
    """k-NN Riesz repulsion with step Delta(x_i) / (t + offset).

    Each iteration computes, from the previous iterate only, the weighted
    repulsion sum g_i = s * sum_k (x_i - x_j) / |x_i - x_j|^(s+2) over the
    cached nearest neighbors, then steps along g_i / |g_i| scaled by the
    current nearest-neighbor distance over (t + offset), and re-normalizes.
    Neighbor indices refresh every ``refresh_period`` iterations.  The
    iterate is kept component-major, (3, N) with the neighbors as (k, N),
    so every step is a few whole-row passes; sums over the three components
    go (c0 + c1) + c2 and sums over the neighbors go in neighbor order.

    Raises :class:`DomainError` naming a coincident pair when a point's
    nearest neighbor is at distance 0, or so close that |x_i - x_j|^(s+2)
    underflows to 0: the repulsion has no direction there.

    ``history_metric`` maps a PointSet to the per-iteration history value;
    the default is the bounded-kernel mean-pair score used by the node-set
    benchmark tables.  Pass ``history_metric=False`` to skip history.
    """
    n = len(pts)
    if params.k_neighbors >= n:
        raise DomainError("k_neighbors must be smaller than the point count")
    if history_metric is None:
        history_metric = _default_history_metric
    x = np.ascontiguousarray(pts.points.T)
    s = params.riesz_s
    history: list[float] = []
    neighbors = None
    for t in range(params.iterations):
        if t % params.refresh_period == 0:
            neighbors = knn_indices(PointSet(x.T), params.k_neighbors).T.copy()
        diff = [xc - xc[neighbors] for xc in x]  # each (k, N)
        dist = np.sqrt((diff[0] * diff[0] + diff[1] * diff[1]) + diff[2] * diff[2])
        delta = np.min(dist, axis=0)
        w = dist ** (s + 2.0)
        if not w.all():
            i = int(np.flatnonzero(~w.all(axis=0))[0])
            nearest = np.flatnonzero(w[:, i] == 0.0)[0]
            j = int(neighbors[nearest, i])
            pair = f"points at indices {min(i, j)} and {max(i, j)}"
            if dist[nearest, i] == 0.0:
                raise DomainError(f"coincident {pair}")
            raise DomainError(f"nearly coincident {pair}: distance^(s+2) underflows to 0")
        g = [s * np.sum(dc / w, axis=0) for dc in diff]
        g_norm = np.sqrt((g[0] * g[0] + g[1] * g[1]) + g[2] * g[2])
        ok = (g_norm > 0.0) & np.isfinite(g_norm)
        step = np.zeros_like(g_norm)
        step[ok] = delta[ok] / (t + params.offset) / g_norm[ok]
        x = np.stack([xc + step * gc for xc, gc in zip(x, g)])
        x /= np.sqrt((x[0] * x[0] + x[1] * x[1]) + x[2] * x[2])
        if history_metric is not False:
            history.append(history_metric(PointSet(x.T)))
    refined = PointSet(
        x.T, seed=pts.seed, provenance=f"riesz_refine:s={params.riesz_s:g}"
    )
    return refined, history


def _default_history_metric(pts: PointSet) -> float:
    return mean_pair_discrepancy(pts, KernelSpec("cui-freeden"), "include").value
