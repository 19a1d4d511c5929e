"""Quality scores for spherical point systems.

Three scoring routes share one deterministic pairwise-summation backend:

* closed-form double sums (:func:`rms_discrepancy`, :func:`mean_pair_discrepancy`,
  :func:`energy`),
* the truncated reciprocal-symbol Legendre series
  (:func:`series_generalized_discrepancy`, minimized over derivative order by
  :func:`min_generalized_discrepancy`),
* quadratic forms of discrete signed measures (:func:`signed_discrepancy`).

All pair sums accumulate in fixed index order with compensated block merging,
so reports are bit-identical from run to run.

The closed-form double sums and the series Gram route visit only the upper
triangle of the pair matrix, through one tile loop, :func:`_pair_tiles`: a
block of PAIR_ROWS rows i0:i1 forms the dots of the columns j >= i0 with
:func:`_dots`, the one clipped-dot helper (an ``einsum`` over points
transposed once per call to (3, N)), in a prefix of one buffer, and pins
their diagonal.  A block's partial is the sum of its diagonal tile plus
twice that of the tile to its right, exact in structure: the three-term dot
gives t_ij == t_ji bit for bit.  The pair sums scan a tile for coincident
pairs when the kernel is singular there and evaluate the kernel over the
half-chords u = sqrt((1 - t)/2) in place.  The blocks run in order on the
calling thread, so the first block that finds a coincident pair raises, and
the partials merge in block order.

The series score rests on one quantity, the Legendre power sums
S_n = sum_ij P_n(x_i . x_j) for n = 0..n_max.  Every derivative order is a
reweighting of them: P_n' = sum_{k < n, n - k odd} (2k+1) P_k turns the sums
of order m - 1 into those of order m by two parity running sums.  S_n comes
from one of two routes, chosen from the input with no option:

* the spectral route, used when n_max < N and n_max <= SPECTRAL_NMAX_MAX.
  By the addition theorem S_n = sum_k |sum_i R_n^k(theta_i) e^{i k phi_i}|^2
  with Schmidt semi-normalized associated Legendre functions R_n^k, in
  O(N n_max^2) time.  The orders k run in blocks of rows = max(8, BLOCK // N),
  each through all its degrees on (rows, N) buffers, with the sectoral
  R_k^k carried from block to block, so the route holds O(rows N + n_max^2)
  memory: the buffers and an (n_max + 1)^2 table of the per-order terms.
  Every term goes through the same ufuncs in the same order as in a
  degree-by-degree layout over all orders at once, each point sum reduces
  one contiguous row, and S_n sums its n + 1 terms as one vector, so the
  sums keep their bytes for any block size.  The point sums are plain
  ``np.sum`` reductions, never BLAS, so results do not depend on thread
  counts.  The degree cap keeps the unscaled recurrence far from the
  degrees where it loses accuracy;
* the Gram route otherwise: the Bonnet recurrence over the same pair tiles,
  summed as the pair sums sum theirs, in O(N^2 n_max / 2) time and
  O(PAIR_ROWS N) memory, with no N^2 array.  It is faster for few points and
  is the only route above the degree cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from numpy._core.multiarray import c_einsum as _einsum  # np.einsum without its wrapper
from numpy._core.umath import clip as _clip  # the ufunc that np.clip calls

from .errors import CapabilityError, ConditioningError, DomainError, SingularKernelError
from .errors import require, whole
from .kernels import (
    KernelSpec,
    SymbolSequence,
    _half_chords,
    _last_mode,
    _plan,
    _quiet,
    _truncation,
    is_singular_at_coincidence,
)
from .legendre import derivative_recurrence
from .summation import BLOCK, block_sum, neumaier_sum

INCLUDE = "include"
EXCLUDE = "exclude"

#: Highest derivative order accepted by the series evaluators.
M_SERIES_MAX = 4

#: Rows per block of the closed-form pair sums and the measure forms.
PAIR_ROWS = 64

#: Highest truncation degree of the spectral route.  On random points its
#: unscaled associated-Legendre recurrence matched the Gram route to 1e-13 N
#: up to degree 1800, then drifted (3e-4 N at degree 2000, overflow by 2500).
SPECTRAL_NMAX_MAX = 1000

_COINCIDENCE_T = 1.0 - 1e-14


@dataclass(frozen=True)
class PointSet:
    """An ordered collection of unit vectors in R^3."""

    points: np.ndarray
    seed: int | None = None
    provenance: str | None = None

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=float)
        require(pts.ndim == 2 and pts.shape[1] == 3, "points must be an (N, 3) array")
        require(pts.shape[0] >= 1, "a point set holds at least one point")
        require(np.isfinite(pts), "point coordinates must be finite")
        with np.errstate(over="ignore"):  # a huge coordinate fails the norm test
            norms = np.sqrt(np.sum(pts * pts, axis=1))
        require(np.abs(norms - 1.0) <= 1e-12, "every point must have unit norm (within 1e-12)")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class WeightedMeasure:
    """A discrete signed measure: weighted unit-point masses."""

    points: PointSet
    weights: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=float).ravel()
        require(w.size == len(self.points), "weight count must equal point count")
        require(np.isfinite(w), "measure weights must be finite")
        object.__setattr__(self, "weights", w)


@dataclass
class DiscrepancyReport:
    """One scoring result plus its provenance."""

    kernel: KernelSpec
    n_points: int
    method: str
    diagonal_policy: str
    m: int
    value: float
    n_max: int | None = None
    negative_sum_flag: bool = False
    tail_estimate: float | None = None
    flags: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "kernel": self.kernel.name,
            "m": self.m,
            "method": self.method,
            "diagonal": self.diagonal_policy,
            "N": self.n_points,
            "n_max": self.n_max,
            "value": self.value,
            "flags": list(self.flags),
        }


def _dot_block(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Unclipped dots out[r, c] = a[:, r] . b[:, c] of (3, m) and (3, n) arrays.

    One ``einsum`` contraction, an elementwise three-term dot rather than
    BLAS, so results do not depend on the library's thread count.  On
    C-contiguous operands and their column slices it forms (a0*b0 + a1*b1)
    + a2*b2 with a separate multiply and add per term, the bits of the
    explicit product; Fortran-ordered operands take another loop.  A 1 x 1
    output also takes another loop, so it is formed explicitly.
    """
    if out.shape == (1, 1):
        out[0, 0] = (a[0, 0] * b[0, 0] + a[1, 0] * b[1, 0]) + a[2, 0] * b[2, 0]
        return out
    return _einsum("ki,kj->ij", a, b, out=out)


def _dots(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The dots of :func:`_dot_block` clipped to [-1, 1], into ``out``, an
    (m, n) buffer made here when None.  The products commute and are added
    in the same order, so the columns i, j of one set give t_ij == t_ji bit
    for bit."""
    t = np.empty((a.shape[1], b.shape[1])) if out is None else out
    return _clip(_dot_block(a, b, t), -1.0, 1.0, out=t)


def _finite(total: float) -> float:
    """``total`` itself, unless a kernel sum overflowed.

    An overflowed kernel value makes the compensated sum NaN, and
    ``max(0.0, nan)`` is 0.0, so an unchecked NaN would score as a perfect
    point set.
    """
    if not math.isfinite(total):
        raise ConditioningError(f"kernel sum is not finite ({total!r})")
    return total


def _pair_tiles(p: np.ndarray, diagonal: float) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (b, t) for each block of PAIR_ROWS rows i0:i1 of the (3, N) ``p``:
    the (N - i0, b) dots t = _dots(p[:, i0:], p[:, i0:i1]), diagonal set to
    ``diagonal``, the diagonal tile first; the next block overwrites t."""
    n = p.shape[1]
    buf = np.empty(n * min(n, PAIR_ROWS))
    for i0 in range(0, n, PAIR_ROWS):
        b = min(PAIR_ROWS, n - i0)
        t = _dots(p[:, i0:], p[:, i0 : i0 + b], buf[: (n - i0) * b].reshape(n - i0, b))
        # the Gram diagonal is exactly 1 for unit vectors; pinning it avoids
        # the half-chord sqrt amplifying last-bit norm rounding
        np.fill_diagonal(t, diagonal)
        yield b, t


def _tile_sum(b: int, k: np.ndarray) -> float:
    """A block's share of a sum over both triangles: its diagonal tile plus
    twice the tile to its right, which the last block does not have."""
    k = k.reshape(-1)
    diag = block_sum(k[: b * b])
    return diag + 2.0 * block_sum(k[b * b :]) if k.size > b * b else diag


def _pair_kernel_sum(points: np.ndarray, spec: KernelSpec, diagonal_policy: str) -> float:
    """sum_ij K(x_i . x_j) over the component-major (3, N) ``points``."""
    if diagonal_policy not in (INCLUDE, EXCLUDE):
        raise DomainError(f"unknown diagonal policy {diagonal_policy!r}")
    singular = is_singular_at_coincidence(spec)
    if singular and diagonal_policy == INCLUDE:
        raise SingularKernelError(
            spec.name, "singular at coincidence; the diagonal must be excluded"
        )
    p = np.ascontiguousarray(points)
    n = p.shape[1]
    exclude = diagonal_policy == EXCLUDE
    value = _plan(spec).value
    partials = []
    with _quiet():
        for b, u in _pair_tiles(p, 0.0 if exclude else 1.0):
            if singular:
                hit = u >= _COINCIDENCE_T
                if hit.any():
                    # the first row-major hit of the full matrix has i < j and
                    # t is symmetric, so the upper triangle holds that same
                    # hit; the blocks run in order, so the earliest block raises
                    i, j = (int(x) + n - len(u) for x in np.argwhere(hit.T)[0])
                    msg = f"coincident points at indices {i} and {j}"
                    raise SingularKernelError(spec.name, msg, indices=(i, j))
            # the clip keeps u in [0, 1], so only the singularity checks remain
            k = value(_half_chords(u), u)
            if exclude:
                np.fill_diagonal(k, 0.0)
            partials.append(_tile_sum(b, k))
    return _finite(neumaier_sum(partials))


def rms_discrepancy(
    pts: PointSet, spec: KernelSpec, diagonal_policy: str = INCLUDE
) -> DiscrepancyReport:
    """Closed-form score (1/N) sqrt(max(0, sum_ij K(x_i . x_j))).

    A negative pre-sqrt sum is clamped to zero and flagged.
    """
    s = _pair_kernel_sum(pts.points.T, spec, diagonal_policy)
    clamped = s < 0.0
    value = math.sqrt(max(0.0, s)) / len(pts)
    return DiscrepancyReport(
        kernel=spec,
        n_points=len(pts),
        method="pairwise_rms",
        diagonal_policy=diagonal_policy,
        m=spec.m,
        value=value,
        negative_sum_flag=clamped,
        flags=["negative_sum"] if clamped else [],
    )


def mean_pair_discrepancy(
    pts: PointSet, spec: KernelSpec, diagonal_policy: str = INCLUDE
) -> DiscrepancyReport:
    """Mean pairwise kernel value (1/N^2) sum_ij K, reported signed."""
    s = _pair_kernel_sum(pts.points.T, spec, diagonal_policy)
    return DiscrepancyReport(
        kernel=spec,
        n_points=len(pts),
        method="mean_pair",
        diagonal_policy=diagonal_policy,
        m=spec.m,
        value=s / len(pts) ** 2,
    )


def energy(pts: PointSet, spec: KernelSpec) -> float:
    """Configuration energy (1/N^2) sum_{i != j} K(x_i, x_j)."""
    return mean_pair_discrepancy(pts, spec, EXCLUDE).value


def _power_sums_gram(pts: PointSet, n_max: int) -> np.ndarray:
    # S_n by the m = 0 recurrence over each flat pair tile; a degree sums its
    # tiles as the pair sums do, and its blocks merge with neumaier_sum
    partials = [
        [_tile_sum(b, p) for p in derivative_recurrence(n_max, 0, t.reshape(-1))]
        for b, t in _pair_tiles(np.ascontiguousarray(pts.points.T), 1.0)
    ]
    return np.array([neumaier_sum(d) for d in zip(*partials)])


def _order_rows(n_points: int) -> int:
    """Orders per block of the spectral route: (rows, N) buffers of about
    one summation.BLOCK, and at least 8 rows."""
    return max(8, BLOCK // n_points)


def _power_sums_spectral(pts: PointSet, n_max: int) -> np.ndarray:
    # S_n = sum_k (sum_i R_n^k cos k phi_i)^2 + (sum_i R_n^k sin k phi_i)^2,
    # R_n^k Schmidt semi-normalized so that P_n(x . y) = sum_k R_n^k R_n^k
    # cos k(phi_x - phi_y).  The orders run in blocks k0:k1; row k - k0 of a
    # (rows, N) buffer holds R_n^k, and rows above the degree stay zero.  A
    # block runs the degrees n = k0..n_max and writes |.|^2 of order k into
    # table[n, k]; the sectoral R_k^k carries from block to block.  Point
    # sums run along the contiguous axis with np.sum, never BLAS, so they do
    # not depend on thread counts, and S_n sums table[n, :n + 1] as one
    # vector, as the degree-by-degree form summed its n + 1 terms.
    p = pts.points
    z = p[:, 2]
    sin_theta = np.hypot(p[:, 0], p[:, 1])
    phi = np.arctan2(p[:, 1], p[:, 0])
    rows = min(_order_rows(len(pts)), n_max + 1)
    # trig holds cos k phi over sin k phi, work their products with R_n^k
    trig, work, (prev2, prev1) = np.empty((3, 2, rows, z.size))
    cos_k, sin_k = trig
    table = np.zeros((n_max + 1, n_max + 1))
    coef = [None]  # degree n: the recurrence's (a, b) columns for the orders k < n
    for n in range(1, n_max + 1):
        k2 = np.arange(n, dtype=float) ** 2
        scale = 1.0 / np.sqrt(n * n - k2)
        b = np.sqrt((n - 1) ** 2 - k2) * scale
        coef.append((((2 * n - 1) * scale)[:, None], b[:, None]))
    sectoral = np.ones_like(z)  # R_{k0-1}^{k0-1}, the seed of block k0
    for k0 in range(0, n_max + 1, rows):
        k1 = min(k0 + rows, n_max + 1)
        np.multiply(np.arange(k0, k1)[:, None], phi, out=sin_k[: k1 - k0])
        np.cos(sin_k[: k1 - k0], out=cos_k[: k1 - k0])
        np.sin(sin_k[: k1 - k0], out=sin_k[: k1 - k0])
        prev2.fill(0.0)
        prev1.fill(0.0)
        if k0 == 0:
            prev1[0] = 1.0  # R_0^0
        for n in range(max(k0, 1), n_max + 1):
            cur = prev2  # R_{n-2} is dead after this step; reuse its buffer
            lo = min(n, k1) - k0  # rows k0..n-1 recur from the degrees below
            a, b = coef[n]
            t = np.multiply(a[k0 : k0 + lo], z, out=work[0, :lo])
            t *= prev1[:lo]
            np.multiply(b[k0 : k0 + lo], prev2[:lo], out=cur[:lo])
            np.subtract(t, cur[:lo], out=cur[:lo])
            if n < k1:  # the sectoral row k = n
                c_n = 1.0 if n == 1 else math.sqrt((2 * n - 1) / (2 * n))
                cur[lo] = np.multiply(c_n * sin_theta, sectoral, out=sectoral)
            act = min(n + 1, k1) - k0
            re, im = np.sum(np.multiply(cur[:act], trig[:, :act], out=work[:, :act]), axis=2)
            table[n, k0 : k0 + act] = re * re + im * im
            prev2, prev1 = prev1, cur
    sums = np.array([np.sum(table[n, : n + 1]) for n in range(n_max + 1)])
    sums[0] = float(len(pts)) ** 2
    return sums


def _power_sums(pts: PointSet, n_max: int) -> np.ndarray:
    """Legendre power sums S_n = sum_ij P_n(x_i . x_j) for n = 0..n_max."""
    if n_max < len(pts) and n_max <= SPECTRAL_NMAX_MAX:
        return _power_sums_spectral(pts, n_max)
    return _power_sums_gram(pts, n_max)


def _differentiate_sums(sums: np.ndarray) -> np.ndarray:
    """Map sum_ij P_n^(m-1) to sum_ij P_n^(m) for every n.

    P_n' = sum_{k < n, n - k odd} (2k+1) P_k, so each degree is a running
    sum of the lower degrees of the other parity.  Every coefficient is
    nonnegative, so nothing cancels.
    """
    u = (2 * np.arange(sums.size) + 1) * sums
    out = np.zeros_like(sums)
    odd, even = out[1::2], out[2::2]
    odd[:] = np.cumsum(u[0::2])[: odd.size]
    even[:] = np.cumsum(u[1::2])[: even.size]
    return out


def _series_report(
    sums: np.ndarray,
    n_points: int,
    weights: np.ndarray,
    family: str,
    m: int,
    s: float | None,
) -> DiscrepancyReport:
    # no mode above n_max: the truncated sum is the whole series
    exact = _last_mode(family, s) <= sums.size - 1
    for _ in range(m):
        sums = _differentiate_sums(sums)
    n_max = sums.size - 1
    terms = [weights[n] * sums[n] for n in range(1, n_max + 1) if weights[n] != 0.0]
    flags = []
    if not terms:
        total = 0.0
        tail = 0.0
        flags.append("empty_sum")
    else:
        total = _finite(neumaier_sum(terms))
        tail = abs(terms[-1])
        tail_block = abs(neumaier_sum(terms[-max(1, len(terms) // 10) :]))
        if not exact and tail_block > 1e-3 * max(1.0, abs(total)):
            flags.append("non_convergent")
    clamped = total < 0.0
    if clamped:
        flags.append("negative_sum")
    value = math.sqrt(max(0.0, total)) / n_points
    return DiscrepancyReport(
        kernel=KernelSpec(family, m=m, s=s),
        n_points=n_points,
        method="series",
        diagonal_policy=INCLUDE,
        m=m,
        value=value,
        n_max=n_max,
        negative_sum_flag=clamped,
        tail_estimate=tail,
        flags=flags,
    )


def series_generalized_discrepancy(
    pts: PointSet,
    family: str,
    m: int = 0,
    n_max: int = 2000,
    s: float | None = None,
) -> DiscrepancyReport:
    """Truncated-series score (1/N) sqrt(sum_n (2n+1)/(4pi A_n^2) sum_ij P_n^(m)).

    The diagonal is always included (each term is finite).  The report
    carries the last contributing term as a tail estimate and flags
    apparent non-convergence (the final decade of terms still contributing
    more than 1e-3 of the total) unless the symbol has no mode above n_max,
    so that the truncated sum is the whole series.  The route to the power
    sums is chosen from the input, as the module docstring describes.
    """
    return min_generalized_discrepancy(pts, family, (m,), n_max, s)[1]


def min_generalized_discrepancy(
    pts: PointSet,
    family: str,
    m_range=(0, 1, 2),
    n_max: int = 2000,
    s: float | None = None,
) -> tuple[int, DiscrepancyReport]:
    """Minimize the series score over derivative orders; ties pick smaller m.

    The power sums are computed once and reweighted for every order, so the
    winning report equals :func:`series_generalized_discrepancy` at m*.
    """
    orders = sorted({whole(m, "derivative order must be a non-negative integer") for m in m_range})
    require(orders != [], "m_range must be non-empty")
    if orders[-1] > M_SERIES_MAX:
        raise CapabilityError(f"series derivative order limited to 0..{M_SERIES_MAX}")
    n_max = _truncation(n_max)
    weights = SymbolSequence(family, s).series_weights(n_max)
    sums = _power_sums(pts, n_max)
    best_m = None
    best = None
    for m in orders:
        report = _series_report(sums, len(pts), weights, family, m, s)
        if best is None or report.value < best.value:
            best_m, best = m, report
    return best_m, best


def measure_inner_product(
    mu: WeightedMeasure, omega: WeightedMeasure, spec: KernelSpec
) -> float:
    """Bilinear form Q(mu, omega) = sum_ij mu_i omega_j K(x_i . y_j)."""
    if is_singular_at_coincidence(spec):
        raise CapabilityError(
            f"{spec.name} is singular at coincidence; use a bounded kernel "
            "such as cui-freeden for measure discrepancies"
        )
    pa, pb = (np.ascontiguousarray(x.points.points.T) for x in (mu, omega))  # (3, N) each
    wa, wb = mu.weights, omega.weights
    n = pa.shape[1]
    value = _plan(spec).value

    def row_block(i0: int, i1: int) -> float:
        # the clipped dots are in range, so only the singularity checks remain
        u = _half_chords(_dots(pa[:, i0:i1], pb))
        return block_sum(value(u, u) * (wa[i0:i1][:, None] * wb[None, :]))

    # an overflowed K under weights of both signs makes a NaN, caught below
    with _quiet():
        partials = [row_block(i, min(i + PAIR_ROWS, n)) for i in range(0, n, PAIR_ROWS)]
    return _finite(neumaier_sum(partials))


def signed_discrepancy(
    mu: WeightedMeasure, omega: WeightedMeasure, spec: KernelSpec
) -> float:
    """Energy-norm distance sqrt(max(0, Q(mu,mu) + Q(om,om) - 2 Q(mu,om)))."""
    q = (
        measure_inner_product(mu, mu, spec)
        + measure_inner_product(omega, omega, spec)
        - 2.0 * measure_inner_product(mu, omega, spec)
    )
    return math.sqrt(max(0.0, _finite(q)))
