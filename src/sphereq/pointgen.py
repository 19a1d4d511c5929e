"""Point-system generation on the unit sphere.

Three generators:

* seeded uniform random sampling (normalized Gaussian triples),
* greedy sequential minimization of the summed kernel against the points
  placed so far, one loop for both entry points (argmin over a spherical
  Fibonacci grid, then polished by tangent-plane descent: each iteration's
  step is the damped Newton step on the 2 x 2 tangent Hessian, read off
  the 3 x 3 moment matrix sum_i K''(t_i) x_i x_i^T, or a gradient step
  where that Hessian is not positive definite, halved in place until its
  trial lowers the summed kernel; the gradient and the moment matrix are
  one contraction each over the accepted trial's u row, so each trial
  forms its dots with the nodes once, and the polish ends when the step
  gets shorter than 1e-8),
* iterative k-nearest-neighbor Riesz repulsion with a decaying step,
  re-projected to the sphere each iteration.  The iterate is kept
  component-major, so a step is a few whole-row passes.  The k-NN scan
  goes in row blocks, each in a prefix of one buffer per scan: the squared
  chords come from the dot contraction of the pair sums, each row's k + 1
  nearest from ``argpartition``, and only rows that tie at the k-th
  distance are scanned again.

Everything is deterministic for a fixed seed, and everything runs on the
calling thread; per-iteration updates read only the previous iterate.  The
polish and the grid update hold their nodes or the grid component-major,
take their dots from the clipped-dot helper of the pair sums (one trial or
node against them all), form the half-chords in place as
:func:`~sphereq.kernels.kernel_eval` forms them and run the kernel plan's
chains on them, the chains kernel_eval runs, in one error state per
sequence; they skip its checks, decide coincidence on the dots, and give
its values bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, ConfigurationError, DomainError, require, whole
from .discrepancy import (
    _COINCIDENCE_T,
    PointSet,
    _dot_block,
    _dots,
    _einsum,
    mean_pair_discrepancy,
)
from .kernels import KernelSpec, _Plan, _descent_plan, _exponent_text, _half_chords, _plan, _quiet

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

#: Row block of the k-NN scan: a (KNN_ROWS, N) distance block at a time.
KNN_ROWS = 128

#: The Riesz descent recomputes its neighbors every KNN_REFRESH iterations.
KNN_REFRESH = 10

_POINT_COUNT = "point count must be a positive integer"


@dataclass(frozen=True)
class RefineParams:
    """Parameters of the k-NN Riesz descent refinement."""

    k_neighbors: int = 12
    iterations: int = 200
    riesz_s: float = 1.0
    offset: float = 19.0

    def __post_init__(self):
        k = whole(self.k_neighbors, "k_neighbors must be a positive integer", low=1)
        object.__setattr__(self, "k_neighbors", k)
        iterations = whole(self.iterations, "iterations must be an integer >= 1", low=1)
        object.__setattr__(self, "iterations", iterations)
        require(0.0 < self.riesz_s < math.inf, "riesz exponent must be positive and finite")
        require(0.0 < self.offset < math.inf, "step offset must be positive and finite")


@dataclass(frozen=True)
class CandidateGrid:
    """Deterministic spherical Fibonacci lattice used as an argmin search space."""

    size: int
    points: PointSet


def random_unit_points(n: int, seed: int) -> PointSet:
    """n independent uniform points: normalized standard-normal triples."""
    n = whole(n, _POINT_COUNT, low=1, array_of="point count")
    seed = whole(seed, "seed must be a non-negative integer")
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
    m = whole(m, "candidate grid needs 16 or more points", low=16, array_of="candidate grid size")
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
    plan: _Plan,
    t: np.ndarray,
    coincident_t: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """K(t) on clipped dots t, by the value chain of ``plan``, with +inf
    where t >= coincident_t for a K singular at coincidence.

    ``t`` is overwritten with the half-chord u = sqrt((1 - t)/2), formed as
    :func:`kernel_eval` forms it, so the values are its values bit for bit;
    the caller may reuse u.  The result goes into ``out`` (a new array when
    None), which must not be ``t``.  Coincidence is decided here, on t: the
    kernel is evaluated everywhere and the hits are set to +inf after, but
    for coincident_t = 1 (u == 0 after the clip) a chain that is +inf at
    u == 0 already needs no mask.
    """
    masked = plan.singular and (coincident_t < 1.0 or not plan.inf_at_zero)
    hit = t >= coincident_t if masked else None
    vals = plan.value(_half_chords(t), np.empty_like(t) if out is None else out)
    if hit is not None:
        vals[hit] = np.inf
    return vals


def _moment_times(m: list[float], v: tuple[float, float, float]) -> tuple[float, float, float]:
    """M v for the symmetric 3 x 3 matrix M held as m = (xx, xy, xz, yy, yz, zz)."""
    return (
        m[0] * v[0] + m[1] * v[1] + m[2] * v[2],
        m[1] * v[0] + m[3] * v[1] + m[4] * v[2],
        m[2] * v[0] + m[4] * v[1] + m[5] * v[2],
    )


def _vdot(a: tuple[float, float, float], b: tuple[float, float, float]) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _polish(
    eta: np.ndarray,
    pts: np.ndarray,
    spec: KernelSpec,
    step0: float,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> np.ndarray:
    """Tangent-plane descent of f(eta) = sum_i K(x_i . eta) on the sphere.

    In the tangent basis e_a = g/|g| (g the tangent gradient) and
    e_b = eta x e_a, the Hessian is
    H_ab = e_a^T M e_b - (grad f . eta) delta_ab, with the moment matrix
    M = sum_i K''(t_i) x_i x_i^T.  The nodes are held component-major, (3, N),
    with their six second moments, (6, N), so an iteration takes grad f and M
    from one contraction each over the half-chord row u it holds; the rest
    is arithmetic on Python floats.  Each iteration has one step d: when H is
    finite and positive definite, the damped Newton step solving
    H d = -(|g|, 0), cut to length ``step0`` (the trust region); otherwise
    the descent step -step0 e_a.  The trial normalize(eta + d) is scored,
    one row of dots and kernel values, and while it does not lower f the
    step is halved in place and scored again.  A trial that lands on a node
    scores +inf and is halved past.  The accepted trial's u row gives the
    next gradient and Hessian.

    Descent stops when the step gets shorter than ``tol``, below which a
    trial changes f by little more than rounding, or when the gradient
    vanishes or is not finite.  No sum over the nodes goes through BLAS, so
    the result does not depend on its thread count.
    """
    plan = _descent_plan(spec)
    n = pts.shape[0]
    p = np.ascontiguousarray(pts.T)
    q = p[[0, 0, 0, 1, 1, 2]] * p[[0, 1, 2, 1, 2, 2]]  # xx, xy, xz, yy, yz, zz
    col, u, vals, dk = np.empty((3, 1)), np.empty((1, n)), np.empty((1, n)), np.empty(n)
    row = u[0]  # the half-chords of the last point scored

    def score(point: tuple[float, float, float]) -> float:
        col[:, 0] = point
        return float(_half_chord_kernel(plan, _dots(col, p, u), 1.0, vals).sum())

    x, y, z = eta.tolist()
    with _quiet():
        f = score((x, y, z))
        for _ in range(max_iter):
            gx, gy, gz = _einsum("ki,i->k", p, plan.d1(row, dk)).tolist()
            radial = gx * x + gy * y + gz * z
            g_t = gx - radial * x, gy - radial * y, gz - radial * z
            g_norm = math.sqrt(_vdot(g_t, g_t))
            if g_norm == 0.0 or not math.isfinite(g_norm):
                break
            e_a = a, b, c = g_t[0] / g_norm, g_t[1] / g_norm, g_t[2] / g_norm
            e_b = y * c - z * b, z * a - x * c, x * b - y * a  # eta x e_a
            moments = _einsum("ki,i->k", q, plan.d2(row, dk)).tolist()
            m_a = _moment_times(moments, e_a)
            d_a, d_b = _newton_step(
                g_norm,
                _vdot(e_a, m_a) - radial,
                _vdot(e_b, m_a),
                _vdot(e_b, _moment_times(moments, e_b)) - radial,
                step0,
            ) or (-step0, 0.0)
            length = math.hypot(d_a, d_b)
            sx, sy, sz = d_a * a + d_b * e_b[0], d_a * b + d_b * e_b[1], d_a * c + d_b * e_b[2]
            while length >= tol:
                trial = x + sx, y + sy, z + sz
                norm = math.sqrt(_vdot(trial, trial))
                trial = trial[0] / norm, trial[1] / norm, trial[2] / norm
                f_trial = score(trial)
                if f_trial < f:
                    break
                sx, sy, sz, length = 0.5 * sx, 0.5 * sy, 0.5 * sz, 0.5 * length
            else:  # no trial as long as tol lowered f
                break
            (x, y, z), f = trial, f_trial
    return np.array([x, y, z])


def _newton_step(
    g_norm: float, h_aa: float, h_ab: float, h_bb: float, radius: float
) -> tuple[float, float] | None:
    """Tangent coordinates d solving H d = -(g_norm, 0), cut to length
    ``radius``; None when H is not finite and positive definite."""
    det = h_aa * h_bb - h_ab * h_ab
    if not (h_aa > 0.0 and det > 0.0 and math.isfinite(det)):
        return None
    d_a, d_b = -g_norm * h_bb / det, g_norm * h_ab / det
    length = math.sqrt(d_a * d_a + d_b * d_b)
    if not math.isfinite(length):
        return None
    if length > radius:
        d_a, d_b = d_a * (radius / length), d_b * (radius / length)
    return d_a, d_b


def greedy_next(pts: PointSet, spec: KernelSpec, grid: CandidateGrid) -> np.ndarray:
    """Next node: grid argmin of the summed kernel, then local polish.

    For a kernel singular at coincidence, a grid candidate that coincides
    with a node (dot product >= 1 - 1e-14) is skipped.  Raises
    :class:`ConfigurationError` when no candidate remains, and
    :class:`ConditioningError` when a summed kernel is NaN or -inf.
    """
    return _greedy(pts.points, len(pts) + 1, spec, grid)[-1]


def _grid_kernel(spec: KernelSpec, columns: np.ndarray, x: np.ndarray) -> np.ndarray:
    """K(grid . x) for every candidate of the component-major (3, M) grid;
    +inf where a singular K meets x."""
    t = _dots(x.reshape(3, 1), columns)[0]
    with _quiet():
        return _half_chord_kernel(_plan(spec), t, _COINCIDENCE_T)


def _select_and_polish(
    pts: np.ndarray, spec: KernelSpec, grid: CandidateGrid, scores: np.ndarray
) -> np.ndarray:
    i = int(scores.argmin())  # the first NaN, if a score is NaN
    lowest = float(scores[i])
    if math.isnan(lowest) or lowest == -math.inf:
        raise ConditioningError(f"{spec.name} overflows on the candidate grid (a score is {lowest})")
    if lowest == math.inf:
        raise ConfigurationError("every grid candidate coincides with an existing node")
    eta = grid.points.points[i].copy()
    step0 = 4.0 / math.sqrt(grid.size)  # about one grid spacing
    return _polish(eta, pts, spec, step0)


def _greedy(given: np.ndarray, n: int, spec: KernelSpec, grid: CandidateGrid) -> np.ndarray:
    """The one greedy loop: ``given``, then greedy nodes up to n in all; the
    grid sums grow by one grid row per node, the last node's excepted."""
    out, k = np.empty((n, 3)), len(given)
    out[:k] = given
    columns = np.ascontiguousarray(grid.points.points.T)  # (3, M), transposed once
    scores = np.zeros(grid.size)
    with _quiet():  # once per sequence; an overflowed K makes inf - inf, a NaN score
        for i in range(n):
            if i >= k:
                out[i] = _select_and_polish(out[:i], spec, grid, scores)
            if i < n - 1:
                scores += _grid_kernel(spec, columns, out[i])
    return out


def greedy_generate(
    n: int, spec: KernelSpec, seed: int, grid_size: int = 8192
) -> PointSet:
    """Greedy sequence: seeded first node, then n-1 sequential argmin steps.

    Grid kernel sums are maintained incrementally, so the whole run costs
    O(n * grid_size) kernel evaluations plus the polish work.  For a kernel
    singular at coincidence, a grid candidate that coincides with a placed
    node is skipped; the errors are those of :func:`greedy_next`.
    """
    n = whole(n, _POINT_COUNT, low=1, array_of="point count")
    grid = candidate_grid(grid_size)
    out = _greedy(greedy_initial(seed)[None], n, spec, grid)
    return PointSet(out, seed=seed, provenance=f"greedy:{spec.name}")


def knn_indices(pts: PointSet, k: int) -> np.ndarray:
    """(N, k) indices of each point's k nearest neighbors (chordal metric).

    Brute-force O(N^2) scan with a partial sort per row; ties break toward
    the lower index, also at the k-th distance; a point is never its own
    neighbor.  Rows go in blocks of KNN_ROWS, each block's squared chords
    in a prefix of one buffer, so no N x N array is made.
    """
    n = len(pts)
    k = whole(k, "k must be a positive integer", low=1)
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


@np.errstate(over="ignore", invalid="ignore")  # the step mask and checks catch these
def riesz_refine(
    pts: PointSet, params: RefineParams, history: bool = True
) -> tuple[PointSet, list[float]]:
    """k-NN Riesz repulsion with step Delta(x_i) / (t + offset).

    Each iteration computes, from the previous iterate only, the weighted
    repulsion sum g_i = s * sum_k (x_i - x_j) / |x_i - x_j|^(s+2) over the
    cached nearest neighbors, then steps along g_i / |g_i| scaled by the
    current nearest-neighbor distance over (t + offset), and re-normalizes.
    Neighbor indices refresh every KNN_REFRESH iterations.  The
    iterate is kept component-major, (3, N) with the neighbors as (k, N),
    so every step is a few whole-row passes; sums over the three components
    go (c0 + c1) + c2 and sums over the neighbors go in neighbor order.

    Raises :class:`DomainError` naming a coincident pair when a point's
    nearest neighbor is at distance 0, or so close that |x_i - x_j|^(s+2)
    underflows to 0: the repulsion has no direction there.  Raises
    :class:`DomainError` naming the offset and the iteration when a step
    overflows, as a tiny offset makes it do on the first iteration.

    The history holds, per iteration, the bounded-kernel (cui-freeden)
    mean-pair score of the iterate; ``history=False`` skips it and returns
    an empty list.
    """
    x = np.ascontiguousarray(pts.points.T)
    s = params.riesz_s
    scores: list[float] = []
    neighbors = None
    for t in range(params.iterations):
        if t % KNN_REFRESH == 0:
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
        if not np.isfinite(step).all():
            raise DomainError(f"step at iteration {t} is not finite with offset {params.offset!r}")
        x = np.stack([xc + step * gc for xc, gc in zip(x, g)])
        x /= np.sqrt((x[0] * x[0] + x[1] * x[1]) + x[2] * x[2])
        if history:
            pair = mean_pair_discrepancy(PointSet(x.T), KernelSpec("cui-freeden"), "include")
            scores.append(pair.value)
    refined = PointSet(x.T, seed=pts.seed, provenance=f"riesz_refine:s={_exponent_text(s)}")
    return refined, scores
