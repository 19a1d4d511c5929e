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

The closed-form double sums visit only the upper triangle of the pair matrix.
A block of 64 rows i0:i1 builds the dots for the columns j >= i0 with one
``einsum`` contraction (:func:`_dot_block`, which the greedy polish, the
grid update and the k-NN scan share) in a prefix of one buffer that the
call allocates, scans them for coincident pairs when the kernel is singular
there, maps them in place to the half-chord u = sqrt((1 - t)/2) and
evaluates the kernel over u in place; its partial is the sum of the
diagonal tile plus twice the sum of the tile to its right.  That is exact
in structure: the three-term dot gives t_ij == t_ji bit for bit.  The
blocks run in order on the calling thread, so the first block that finds a
coincident pair raises, and the partials merge in block order.

The series score rests on one quantity, the Legendre power sums
S_n = sum_ij P_n(x_i . x_j) for n = 0..n_max.  Every derivative order is a
reweighting of them: P_n' = sum_{k < n, n - k odd} (2k+1) P_k turns the sums
of order m - 1 into those of order m by two parity running sums.  S_n comes
from one of two routes, chosen from the input with no option:

* the spectral route, used when n_max < N and n_max <= SPECTRAL_NMAX_MAX.
  By the addition theorem S_n = sum_k |sum_i R_n^k(theta_i) e^{i k phi_i}|^2
  with Schmidt semi-normalized associated Legendre functions R_n^k, in
  O(N n_max^2) time and O(N n_max) memory.  The point sums are plain
  ``np.sum`` reductions, never BLAS, so results do not depend on thread
  counts.  The degree cap keeps the unscaled recurrence far from the
  degrees where it loses accuracy;
* the Gram route otherwise: the Bonnet recurrence over the N^2 matrix of
  pairwise dots, in O(N^2 n_max) time.  It is faster for few points and is
  the only route above the degree cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, ConditioningError, DomainError, SingularKernelError
from .kernels import (
    KernelSpec,
    SymbolSequence,
    _kernel_eval_u,
    is_singular_at_coincidence,
)
from .legendre import derivative_recurrence
from .summation import block_sum, neumaier_sum

INCLUDE = "include"
EXCLUDE = "exclude"

#: Highest derivative order accepted by the series evaluators.
M_SERIES_MAX = 4

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
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise DomainError("points must be an (N, 3) array")
        if pts.shape[0] < 1:
            raise DomainError("a point set holds at least one point")
        if not np.isfinite(pts).all():
            raise DomainError("point coordinates must be finite")
        norms = np.sqrt(np.sum(pts * pts, axis=1))
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise DomainError("every point must have unit norm (within 1e-12)")
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
        if w.size != len(self.points):
            raise DomainError("weight count must equal point count")
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
    C-contiguous operands it forms (a0*b0 + a1*b1) + a2*b2 with a separate
    multiply and add per term, the bits of the explicit product; strided
    operands can take another loop, so callers pass contiguous copies.  A
    1 x 1 output also takes another loop, so it is formed explicitly.
    """
    if out.shape == (1, 1):
        out[0, 0] = (a[0, 0] * b[0, 0] + a[1, 0] * b[1, 0]) + a[2, 0] * b[2, 0]
        return out
    return np.einsum("ki,kj->ij", a, b, out=out)


def _dot_rows(
    block: np.ndarray, pts: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Clipped dots t[r, c] = block[r] . pts[c], built in one buffer.

    The dots of :func:`_dot_block` on contiguous transposed copies.  The
    products commute and are added in the same order, so the rows i, j of
    one set give t_ij == t_ji bit for bit.  The dots go into ``out``, a
    (len(block), len(pts)) buffer made here when None.
    """
    a, b = np.ascontiguousarray(block.T), np.ascontiguousarray(pts.T)
    t = np.empty((a.shape[1], b.shape[1])) if out is None else out
    _dot_block(a, b, t)
    return np.clip(t, -1.0, 1.0, out=t)


def _half_chords(t: np.ndarray) -> np.ndarray:
    """Map clipped dots t in place to u = sqrt((1 - t)/2), as kernel_eval does."""
    np.subtract(1.0, t, out=t)
    t /= 2.0
    return np.sqrt(t, out=t)


def pair_dot_matrix(pts: PointSet) -> np.ndarray:
    """Full matrix of pairwise dot products, clipped to [-1, 1].

    The diagonal is pinned to exactly 1 (unit vectors by contract).
    """
    p = pts.points
    t = _dot_rows(p, p)
    np.fill_diagonal(t, 1.0)
    return t


def _finite(total: float) -> float:
    """``total`` itself, unless a kernel sum overflowed.

    An overflowed kernel value makes the compensated sum NaN, and
    ``max(0.0, nan)`` is 0.0, so an unchecked NaN would score as a perfect
    point set.
    """
    if not math.isfinite(total):
        raise ConditioningError(f"kernel sum is not finite ({total!r})")
    return total


def _pair_kernel_sum(pts: PointSet, spec: KernelSpec, diagonal_policy: str) -> float:
    if diagonal_policy not in (INCLUDE, EXCLUDE):
        raise DomainError(f"unknown diagonal policy {diagonal_policy!r}")
    singular = is_singular_at_coincidence(spec)
    if singular and diagonal_policy == INCLUDE:
        raise SingularKernelError(
            spec.name, "singular at coincidence; the diagonal must be excluded"
        )
    p = pts.points
    n = len(p)
    exclude = diagonal_policy == EXCLUDE
    buf = np.empty(n * min(n, 64))

    def row_block(i0: int, i1: int) -> float:
        b = i1 - i0
        d = np.arange(b)
        # rows j >= i0, columns i0 <= i < i1: the diagonal tile, then the
        # tile to its right in the full matrix
        u = _dot_rows(p[i0:], p[i0:i1], buf[: (n - i0) * b].reshape(n - i0, b))
        # the Gram diagonal is exactly 1 for unit vectors; pinning it avoids
        # the half-chord sqrt amplifying last-bit norm rounding
        u[d, d] = 0.0 if exclude else 1.0
        if singular:
            hit = u >= _COINCIDENCE_T
            if hit.any():
                # the first row-major hit of the full matrix has i < j and t
                # is symmetric, so the upper triangle holds that same hit;
                # the blocks run in order, so the earliest block raises
                i, j = (int(x) + i0 for x in np.argwhere(hit.T)[0])
                raise SingularKernelError(
                    spec.name,
                    f"coincident points at indices {i} and {j}",
                    indices=(i, j),
                )
        # the clip keeps u in [0, 1], so only the singularity checks remain
        k = _kernel_eval_u(spec, _half_chords(u), out=u)
        if exclude:
            k[d, d] = 0.0
        return block_sum(k[:b]) + 2.0 * block_sum(k[b:])

    return _finite(neumaier_sum([row_block(i, min(i + 64, n)) for i in range(0, n, 64)]))


def rms_discrepancy(
    pts: PointSet, spec: KernelSpec, diagonal_policy: str = INCLUDE
) -> DiscrepancyReport:
    """Closed-form score (1/N) sqrt(max(0, sum_ij K(x_i . x_j))).

    A negative pre-sqrt sum is clamped to zero and flagged.
    """
    s = _pair_kernel_sum(pts, spec, diagonal_policy)
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
    s = _pair_kernel_sum(pts, spec, diagonal_policy)
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
    # S_n over the N^2 Gram matrix, by the m = 0 Bonnet recurrence
    t = pair_dot_matrix(pts).ravel()
    return np.array([block_sum(stack[0]) for stack in derivative_recurrence(n_max, 0, t)])


def _power_sums_spectral(pts: PointSet, n_max: int) -> np.ndarray:
    # S_n = sum_k (sum_i R_n^k cos k phi_i)^2 + (sum_i R_n^k sin k phi_i)^2,
    # R_n^k Schmidt semi-normalized so that P_n(x . y) = sum_k R_n^k R_n^k
    # cos k(phi_x - phi_y).  Row k of a (degree, point) buffer holds R_n^k;
    # rows above the degree stay zero.  Point sums run along the contiguous
    # axis with np.sum, never BLAS, so they do not depend on thread counts.
    p = pts.points
    z = p[:, 2]
    sin_theta = np.hypot(p[:, 0], p[:, 1])
    k_phi = np.arange(n_max + 1)[:, None] * np.arctan2(p[:, 1], p[:, 0])[None, :]
    cos_k, sin_k = np.cos(k_phi), np.sin(k_phi)
    prev2 = np.zeros_like(k_phi)
    prev1 = np.zeros_like(k_phi)
    prev1[0] = 1.0
    sums = np.empty(n_max + 1)
    sums[0] = float(len(pts)) ** 2
    for n in range(1, n_max + 1):
        cur = prev2  # R_{n-2} is dead after this step; reuse its buffer
        k2 = np.arange(n, dtype=float) ** 2
        scale = 1.0 / np.sqrt(n * n - k2)
        a = ((2 * n - 1) * scale)[:, None]
        b = (np.sqrt((n - 1) ** 2 - k2) * scale)[:, None]
        cur[:n] = a * z * prev1[:n] - b * prev2[:n]
        c_n = 1.0 if n == 1 else math.sqrt((2 * n - 1) / (2 * n))
        cur[n] = c_n * sin_theta * prev1[n - 1]
        re = np.sum(cur[: n + 1] * cos_k[: n + 1], axis=1)
        im = np.sum(cur[: n + 1] * sin_k[: n + 1], axis=1)
        sums[n] = np.sum(re * re + im * im)
        prev2, prev1 = prev1, cur
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


def _check_series_args(m: int, n_max: int) -> None:
    if n_max < 1:
        raise DomainError("series truncation must be >= 1")
    if m < 0 or m > M_SERIES_MAX:
        raise CapabilityError(f"series derivative order limited to 0..{M_SERIES_MAX}")


def _series_report(
    sums: np.ndarray,
    n_points: int,
    weights: np.ndarray,
    family: str,
    m: int,
    s: float | None,
) -> DiscrepancyReport:
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
        if tail_block > 1e-3 * max(1.0, abs(total)):
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
    more than 1e-3 of the total).  The route to the power sums is chosen
    from the input, as the module docstring describes.
    """
    _check_series_args(m, n_max)
    weights = SymbolSequence(family, s).series_weights(n_max)
    return _series_report(_power_sums(pts, n_max), len(pts), weights, family, m, s)


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
    orders = sorted(set(int(m) for m in m_range))
    if not orders:
        raise DomainError("m_range must be non-empty")
    for m in orders:
        _check_series_args(m, n_max)
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
    pa, pb = mu.points.points, omega.points.points
    wa, wb = mu.weights, omega.weights
    n = pa.shape[0]

    def row_block(i0: int, i1: int) -> float:
        # the clipped dots are in range, so only the singularity checks remain
        k = _kernel_eval_u(spec, _half_chords(_dot_rows(pa[i0:i1], pb)))
        return block_sum(k * (wa[i0:i1][:, None] * wb[None, :]))

    return _finite(neumaier_sum([row_block(i, min(i + 64, n)) for i in range(0, n, 64)]))


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
