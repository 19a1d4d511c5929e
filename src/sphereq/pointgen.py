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
  component-major, so a step is a few whole-row passes over fixed
  buffers, and the k-NN search and the history take it as it is.  The
  k-NN search is exact and spatially blocked: the points are ordered by
  z band and azimuth, and each compact block of rows is ranked against
  the columns in its widened bounding box only, its squared chords from
  the dot contraction of the pair sums (see :func:`_knn`).

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
    INCLUDE,
    PointSet,
    _dot_block,
    _dots,
    _einsum,
    _pair_kernel_sum,
)
from .kernels import KernelSpec, _Plan, _descent_plan, _exponent_text, _half_chords, _plan, _quiet

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

#: Rows of one k-NN block, each ranked against the columns near it.
KNN_BLOCK = 128

# squared-chord slack of the k-NN candidate test: above the 4.01e-12 by
# which a computed squared chord can miss the true one (see _knn)
_KNN_SLACK = 1e-10

#: The Riesz descent recomputes its neighbors every KNN_REFRESH iterations.
KNN_REFRESH = 10

#: Default size of the greedy argmin's candidate grid.
GRID_SIZE = 8192

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


def greedy_generate(n: int, spec: KernelSpec, seed: int, grid_size: int = GRID_SIZE) -> PointSet:
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

    Exact: each row's neighbors are the first k columns in the order of
    (squared chord, index), the squared chord max(0, 2 - 2 x_i . x_j) of the
    pair sums' dots; a point is never its own neighbor, and ties break
    toward the lower index, also at the k-th distance.  The rows go in
    compact blocks of about KNN_BLOCK, each ranked against the columns
    near it only (see :func:`_knn`): on a spread-out set a row is ranked
    against a few hundred columns at k = 12 whatever N is, and no N x N
    array is made.
    """
    k = whole(k, "k must be a positive integer", low=1)
    return _knn(np.ascontiguousarray(pts.points.T), k)


def _knn(p: np.ndarray, k: int) -> np.ndarray:
    """:func:`knn_indices` of the component-major (3, N) points ``p``.

    The points are ordered by z band, then azimuth, and taken KNN_BLOCK at
    a time; the bands hold whole blocks and are about one block wide, so a
    block is a compact patch (Bentley, Stanat & Williams, Inf. Proc. Lett.
    6 (1977) 209-212).  A block's candidates are the columns inside its
    3-D bounding box widened by a reach r, first sqrt(8 (k + 1) / N),
    about 1.4 times the k-th chord of a uniform set.  A block row's
    neighbors are ranked among its candidates by (squared chord, index).

    Exactness: a row's first k by (squared chord, index) among the
    candidates are its first k among all columns if every column whose
    squared chord d2 is at most the row's k-th candidate distance D is a
    candidate (a global k-th distance is at most D).  A computed d2 is
    within 4.01e-12 of the true |x_i - x_j|^2 (the dot's rounding and the
    1e-12 norm tolerance of a PointSet), so when D + _KNN_SLACK <= r^2
    every such column is closer than r - 1e-11 to the row's point in every
    coordinate, and so inside the box, rounding of the box included.  The
    candidates are sorted, so ranking by position ranks by index.  Rows
    where D + _KNN_SLACK > r^2 are ranked again, as a block of their own,
    with r^2 = max D + 2 _KNN_SLACK: the new box holds each such row's k
    nearest candidates, so its D can only fall, and the second pass
    passes.  A box with k or fewer candidates takes r = inf, every column.
    A block whose box covers the set is the full scan.
    """
    n = p.shape[1]
    if k >= n:
        raise DomainError("k must be smaller than the number of points")
    x, y, z = p
    by_z = np.argsort(z, kind="stable")
    x_z, y_z, z_z = x[by_z], y[by_z], z[by_z]
    # sqrt(pi blocks) blocks to a band: a band is then 2 / bands high in z,
    # and at the equator a block, 2 pi / (blocks per band) wide, is as wide
    band = KNN_BLOCK * max(1, round(math.sqrt(math.pi * -(-n // KNN_BLOCK))))
    order = by_z[np.lexsort((np.arctan2(y_z, x_z), np.arange(n) // band))]
    out = np.empty((n, k), dtype=np.intp)
    for i in range(0, n, KNN_BLOCK):
        rows, reach = order[i : i + KNN_BLOCK], math.sqrt(8.0 * (k + 1) / n)
        while rows.size:
            q = np.take(p, rows, axis=1)
            lo, hi = q.min(axis=1) - reach, q.max(axis=1) + reach
            j0, j1 = np.searchsorted(z_z, lo[2]), np.searchsorted(z_z, hi[2], "right")
            cx, cy = x_z[j0:j1], y_z[j0:j1]
            inside = (cx >= lo[0]) & (cx <= hi[0]) & (cy >= lo[1]) & (cy <= hi[1])
            cand = np.sort(by_z[j0:j1][inside])
            if cand.size <= k:
                reach = math.inf
                continue
            near, kth = _knn_rank(q, np.take(p, cand, axis=1), np.searchsorted(cand, rows), k)
            short = kth + _KNN_SLACK > reach * reach
            out[rows[~short]] = cand[near[~short]]
            if short.any():
                reach = math.sqrt(float(kth[short].max()) + 2.0 * _KNN_SLACK)
            rows = rows[short]
    return out


def _knn_rank(
    q: np.ndarray, c: np.ndarray, own: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Positions in ``c`` of the k nearest columns of each column of ``q``,
    both component-major, and each row's k-th squared chord.  Column
    own[r] of ``c`` is row r itself."""
    rows, cols = q.shape[1], c.shape[1]
    d2 = np.empty((rows, cols))
    # 2 - 2 q . c, the squared chord before its clip at 0: doubling is
    # exact, so -2 q gives the dots' bits times -2 (a subnormal product can
    # round apart, but that moves only a dot below 2^-54, and 2 - 2 q . c
    # is 2 either way)
    _dot_block(-2.0 * q, c, d2)
    d2 += 2.0
    d2[np.arange(rows), own] = np.inf
    # the clip keeps the order, so the k-th clipped chord is the clipped
    # k-th, and the columns within it are those whose unclipped d2 is
    kth = np.maximum(0.0, np.partition(d2, k - 1, axis=1)[:, k - 1])
    # the columns within each row's k-th distance (k of them, more where
    # the k-th distance ties), listed by (row, position) into rows padded
    # with +inf; a stable sort of each row by distance puts its neighbors
    # first, a tie going to the lower position, which is the lower index
    row, col = np.divmod(np.flatnonzero(d2 <= kth[:, None]), cols)
    slot = np.arange(row.size) - np.searchsorted(row, np.arange(rows))[row]
    dist = np.full((rows, int(slot.max()) + 1), np.inf)
    dist[row, slot] = np.maximum(0.0, d2[row, col])
    near = np.zeros(dist.shape, dtype=np.intp)
    near[row, slot] = col
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(near, order, axis=1), kth


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
    overflows, as a tiny offset makes it do on the first iteration, and
    naming s and the iteration when a repulsion component overflows, which
    would leave its point not finite.

    The history holds, per iteration, the bounded-kernel (cui-freeden)
    mean-pair score of the iterate; ``history=False`` skips it and returns
    an empty list.
    """
    x = pts.points.T.copy()  # the iterate, updated in place
    s, e, k, n = params.riesz_s, params.riesz_s + 2.0, params.k_neighbors, len(pts)
    # fixed buffers: differences and their products (3, k, N), distances
    # and weights (k, N), the repulsion g and the squares of g, then of x
    # (3, N), and (N,) rows; norm holds |g|, then |x|^2
    diff, prod = np.empty((3, k, n)), np.empty((3, k, n))
    dist, w = np.empty((k, n)), np.empty((k, n))
    g, sq = np.empty((3, n)), np.empty((3, n))
    delta, norm, step = np.empty(n), np.empty(n), np.empty(n)
    cf = KernelSpec("cui-freeden")
    scores: list[float] = []
    neighbors = None
    for t in range(params.iterations):
        if t % KNN_REFRESH == 0:
            neighbors = _knn(x, k).T.copy()
        np.take(x, neighbors, axis=1, out=diff, mode="wrap")  # in range: no bounds buffer
        np.subtract(x[:, None, :], diff, out=diff)  # x_i - x_j, component by component
        np.sqrt(np.add.reduce(np.multiply(diff, diff, out=prod), axis=0, out=dist), out=dist)
        np.min(dist, axis=0, out=delta)
        np.power(dist, e, out=w)
        if not w.all():
            i = int(np.flatnonzero(~w.all(axis=0))[0])
            nearest = np.flatnonzero(w[:, i] == 0.0)[0]
            j = int(neighbors[nearest, i])
            pair = f"points at indices {min(i, j)} and {max(i, j)}"
            if dist[nearest, i] == 0.0:
                raise DomainError(f"coincident {pair}")
            raise DomainError(f"nearly coincident {pair}: distance^(s+2) underflows to 0")
        np.divide(diff, w, out=prod)
        np.sum(prod, axis=1, out=g)  # in neighbor order
        g *= s
        np.sqrt(np.add.reduce(np.multiply(g, g, out=sq), axis=0, out=norm), out=norm)
        ok = (norm > 0.0) & np.isfinite(norm)
        np.divide(delta, t + params.offset, out=step)
        np.divide(step, norm, out=step, where=ok)
        step[~ok] = 0.0
        if not np.isfinite(step).all():
            raise DomainError(f"step at iteration {t} is not finite with offset {params.offset!r}")
        g *= step
        x += g
        np.add.reduce(np.multiply(x, x, out=sq), axis=0, out=norm)
        if not np.isfinite(norm).all():  # an overflowed repulsion times a zero step
            raise DomainError(f"repulsion at iteration {t} overflows with riesz_s {s!r}")
        x /= np.sqrt(norm, out=norm)
        if history:
            scores.append(_pair_kernel_sum(x, cf, INCLUDE) / n**2)
    refined = PointSet(x.T, seed=pts.seed, provenance=f"riesz_refine:s={_exponent_text(s)}")
    return refined, scores
