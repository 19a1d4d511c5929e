"""Kernel interpolation of scattered data on the sphere.

The interpolant is a kernel sum plus a low-degree polynomial tail,

    f(x) = sum_i w_i K(eps * |x - x_i|) + sum_j b_j p_j(x),

fitted through the symmetric saddle system G = [[K + sigma^2 I, P], [P^T, 0]]
with the side condition P^T w = 0.  The shape parameter enters as K(eps*r)
in the chordal convention.  Leave-one-out cross-validation comes in two
flavors: the O(N^4) refit-per-point definition (kept as an oracle) and the
shortcut e_v = c_v / (G^{-1})_vv.  Fits and the shortcut share one solve: G
is factored once, in place, as a Bunch-Kaufman G = P U D U^T P^T, and c and
an O(N^2) condition estimate, with one rule for ``ConditioningError``, come
from that factor.  The shortcut never forms G^{-1}: diag(G^{-1}) is
diag(W^T D^{-1} W) with W = U^{-1} from a blocked triangular inverse, mapped
back through the interchanges.  A shape-parameter sweep computes the
distances and the tail block once and rebuilds only the kernel block per
epsilon.  It holds two N x N arrays, the distances r and G, N^2 doubles each,
plus N^2 bytes of masks: r is built in the buffer of its dot product, and
the norm for the condition estimate is read from G where it lies.
Outputs are byte-stable for a fixed OPENBLAS_NUM_THREADS, but not across BLAS
thread counts: the distance product and LAPACK round differently with more
threads.  Every fit, LOOCV route and sweep checks its centers, data, shape
and smoothing parameters the same way before any work, with the
``DomainError`` messages of :func:`fit_interpolant`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .errors import CapabilityError, ConditioningError, ConfigurationError, DomainError
from .errors import require, whole
from .discrepancy import PointSet
from .kernels import (
    KernelSpec,
    _checked_eval_u,
    _kernel_eval_u,
    is_singular_at_coincidence,
)
from .sphio import csv_text


@np.errstate(over="ignore")  # far from the origin every term is exp(-inf) = 0
def franke_eval(p):
    """Four-Gaussian scattered-data benchmark target, defined on all of R^3."""
    p = np.asarray(p, dtype=float)
    require(np.isfinite(p), "point coordinates must be finite")
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    t1 = 0.75 * np.exp(
        -((9 * x - 2) ** 2) / 4 - ((9 * y - 2) ** 2) / 4 - ((9 * z - 2) ** 2) / 4
    )
    t2 = 0.75 * np.exp(
        -((9 * x + 1) ** 2) / 49 - ((9 * y + 1) ** 2) / 10 - ((9 * z + 1) ** 2) / 10
    )
    t3 = 0.5 * np.exp(
        -((9 * x - 7) ** 2) / 4 - ((9 * y - 3) ** 2) / 4 - ((9 * z - 5) ** 2) / 4
    )
    t4 = -0.2 * np.exp(-((9 * x - 4) ** 2) / 4 - (9 * y - 7) ** 2 - (9 * z - 5) ** 2)
    out = t1 + t2 + t3 + t4
    return float(out) if out.ndim == 0 else out


def monomial_basis(points, degree: int) -> np.ndarray:
    """(N, M) matrix of 3-variable monomials of total degree <= degree.

    ``points`` is a :class:`PointSet` or unit vectors that pass as one; a
    negative degree means no tail (M = 0), and degree 1 gives 1, x, y, z.
    """
    degree = whole(degree, "polynomial degree must be an integer", low=-math.inf, array_of="degree")
    points = (points if isinstance(points, PointSet) else PointSet(np.atleast_2d(points))).points
    n = points.shape[0]
    if degree < 0:
        return np.zeros((n, 0))
    cols = [np.ones(n)]
    for total in range(1, degree + 1):
        for first, *rest in combinations_with_replacement(range(3), total):
            col = points[:, first]
            for axis in rest:
                col = col * points[:, axis]
            cols.append(col)
    return np.column_stack(cols)


def _chordal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sqrt(max(0, 2 - 2 clip(a b^T, -1, 1))), every op in the product's buffer."""
    t = a @ b.T
    np.clip(t, -1.0, 1.0, out=t)
    np.multiply(2.0, t, out=t)
    np.subtract(2.0, t, out=t)
    np.maximum(0.0, t, out=t)
    return np.sqrt(t, out=t)


@dataclass
class InterpolantModel:
    """A fitted kernel interpolant."""

    centers: PointSet
    values: np.ndarray
    spec: KernelSpec
    epsilon: float
    sigma: float
    poly_degree: int
    w: np.ndarray
    b: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "kernel": self.spec.name,
            "epsilon": self.epsilon,
            "sigma": self.sigma,
            "degree": self.poly_degree,
            "centers": self.centers.points.tolist(),
            "w": self.w.tolist(),
            "b": self.b.tolist(),
        }


def _checked_y(centers, y, epsilon, sigma) -> np.ndarray:
    """``y`` as a flat float array, once the arguments every fit shares pass.

    ``epsilon`` None skips the shape check, for a sweep that checks its grid.
    """
    if epsilon is not None:
        require(0.0 < epsilon < math.inf, "shape parameter must be positive and finite")
    rule = "smoothing parameter must be non-negative, with a finite square"  # sigma^2 enters G
    require(0.0 <= sigma and sigma * sigma < math.inf, rule)
    y = np.asarray(y, dtype=float).ravel()
    require(y.size == len(centers), "one observation per center required")
    require(np.isfinite(y), "observations must be finite")
    return y


def _geometry(centers, poly_degree):
    """Chordal distances and monomial block; neither depends on epsilon."""
    p = monomial_basis(centers, poly_degree)
    return _distances(centers), p


def _distances(centers):
    """Chordal distances between the centers; duplicate centers raise."""
    pts = centers.points
    r = _chordal(pts, pts)
    if np.count_nonzero(r == 0.0) > np.count_nonzero(r.diagonal() == 0.0):
        raise DomainError("duplicate interpolation centers")
    return r


def _saddle(r, p, spec, epsilon, sigma):
    """G = [[K(eps r) + sigma^2 I, P], [P^T, 0]]; a kernel singular at r = 0
    takes its zero diagonal limit, which needs sigma > 0 to stay invertible.

    The kernel block is evaluated in place on the half-chords r (eps/2),
    which equal (eps r)/2 bit for bit, also where eps r exceeds the
    diameter 2 that the chordal ``kernel_eval`` accepts; a singular
    diagonal is set to its limit after, and :func:`_distances` refuses zero
    r off it.  G is Fortran-ordered so that
    LAPACK can factor it in place; the block is read from r.T, which is r
    bit for bit (numpy forms pts @ pts.T as one symmetric product), so both
    sides of the multiply run in memory order."""
    n, m = p.shape
    singular = is_singular_at_coincidence(spec)
    if singular and sigma <= 0.0:
        raise CapabilityError(f"{spec.name} is singular at r=0: fitting requires sigma > 0")
    # r > 0 off the diagonal, so a negative eps gives a negative eps r
    require(epsilon >= 0.0 or n == 1, "chordal distance must be non-negative")
    g, diag = np.empty((n + m, n + m), order="F"), np.arange(n)
    block = np.multiply(r.T, epsilon / 2.0, out=g[:n, :n])
    _kernel_eval_u(spec, block, out=block)
    if singular:
        block[diag, diag] = 0.0
    block[diag, diag] += sigma**2
    g[:n, n:] = p
    g[n:, :n] = p.T
    g[n:, n:] = 0.0
    return g


def fit_interpolant(
    centers: PointSet,
    y,
    spec: KernelSpec = KernelSpec("cui-freeden"),
    epsilon: float = 1.0,
    sigma: float = 0.0,
    poly_degree: int = 1,
) -> InterpolantModel:
    """Solve the saddle system for the kernel and tail coefficients, as LOOCV does."""
    y = _checked_y(centers, y, epsilon, sigma)
    g = _saddle(*_geometry(centers, poly_degree), spec, epsilon, sigma)
    coeff = _factor_solve(g, y)[0]
    n = len(centers)
    return InterpolantModel(centers=centers, values=y, spec=spec, epsilon=epsilon, sigma=sigma,
                            poly_degree=poly_degree, w=coeff[:n], b=coeff[n:])


@np.errstate(over="ignore")  # a sum beyond the float range is inf
def interpolant_eval(model: InterpolantModel, p):
    """Evaluate the fitted interpolant at one or many unit vectors.

    K is evaluated on the half-chords r (eps/2), as :func:`_saddle` does,
    with the refusals of :func:`kernel_eval`: at a center, a kernel singular
    at coincidence raises :class:`SingularKernelError`."""
    p = np.asarray(p, dtype=float)
    single = p.ndim == 1
    q = PointSet(np.atleast_2d(p))
    u = _chordal(q.points, model.centers.points)
    u *= model.epsilon / 2.0
    out = _checked_eval_u(model.spec, u) @ model.w
    if model.b.size:
        out = out + monomial_basis(q, model.poly_degree) @ model.b
    return float(out[0]) if single else out


def loocv_errors_slow(
    centers: PointSet,
    y,
    spec: KernelSpec = KernelSpec("cui-freeden"),
    epsilon: float = 1.0,
    sigma: float = 0.0,
    poly_degree: int = 1,
) -> np.ndarray:
    """Leave-one-out errors by N refits (the O(N^4) definitional oracle).

    A refused argument raises :class:`DomainError`; a refit that is singular
    or overflows, and an error that is not finite, raise
    :class:`ConditioningError`, as in the fast route.
    """
    y = _checked_y(centers, y, epsilon, sigma)
    n = len(centers)
    require(n >= 3, "leave-one-out needs at least 3 centers")
    errors = np.empty(n)
    for v in range(n):
        keep = np.arange(n) != v
        sub = PointSet(centers.points[keep])
        model = fit_interpolant(sub, y[keep], spec, epsilon, sigma, poly_degree)
        errors[v] = y[v] - interpolant_eval(model, centers.points[v])
        if not math.isfinite(errors[v]):
            raise ConditioningError(f"leave-one-out error at center {v} is {errors[v]!r}")
    return errors


def _inverse_diagonal(f, ipiv):
    """diag(A^{-1}) from the upper ``dsytrf`` factor ``f`` of a nonsingular A.

    A = P U D U^T P^T with U unit upper triangular and D block diagonal with
    1x1 and 2x2 blocks, so A^{-1} = P W^T D^{-1} W P^T with W = U^{-1} and
    diag(A^{-1}) is P applied to the vector of w_j^T D^{-1} w_j.  ``dsyconv``
    splits the factor in place and ``dtrtri`` inverts U in place (blocked);
    ``f`` is destroyed.  D^{-1} is tridiagonal: 1/d on a 1x1 block and
    [[c, -b], [-b, a]] / (ac - b^2) on a 2x2 block [[a, b], [b, c]].  The
    quadratic forms are ``einsum`` reductions, not BLAS calls: scipy's
    OpenBLAS runs ``dtrmv`` threaded even at sizes of a few dozen, where it
    stalled for milliseconds on a loaded 2-core machine.  P is the row
    interchanges in the order ``dsytrs2`` applies them: row k with |ipiv_k|
    for every 1x1 block and for the first row of every 2x2 block.
    """
    from scipy.linalg import lapack

    n = f.shape[0]
    f, e, _ = lapack.dsyconv(f, ipiv, overwrite_a=1)  # e: superdiagonal of D
    d = f.diagonal().copy()
    np.fill_diagonal(f, 1.0)
    np.copyto(f, 0.0, where=np.tri(n, k=-1, dtype=bool))  # clear what is left of A
    w = lapack.dtrtri(f, overwrite_c=1)[0]
    two = e.nonzero()[0]  # second row of each 2x2 block, whose b is never 0
    one = two - 1
    a, b, c = d[one], e[two], d[two]
    det = a * c - b * b
    num = np.ones(n)  # num / d will be the diagonal of D^{-1}
    num[one], num[two] = c, a
    d[one] = d[two] = det
    q = np.einsum("ij,ij,i->j", w, w, num / d)
    q -= 2.0 * np.einsum("i,ij,ij->j", b / det, w[one], w[two])
    swaps = np.abs(ipiv) - 1
    swaps[two] = two
    return lapack.dlaswp(q[:, None], swaps, overwrite_a=1)[:, 0]


def _factor_solve(g, y):
    """(c, ldu, piv): c solves G c = [y; 0] through the LDL^T factor of the
    indefinite G (no Cholesky); a singular G raises.

    The Fortran-ordered G from :func:`_saddle` is factored in place and
    destroyed, so LAPACK copies no N x N matrix.  A ``dsycon`` reciprocal
    condition estimate below machine epsilon, or a c that is not finite,
    raises :class:`ConditioningError`.  ``dlange`` takes the inf-norm that
    ``dsycon`` needs from G where it lies, adding |g_ij| in the order of
    ``np.linalg.norm(g, inf)`` on the F-ordered G, without forming |G|."""
    from scipy.linalg import lapack  # scipy loads on the first solve, not with the package

    anorm = lapack.dlange("I", g)
    lwork = int(lapack.dsytrf_lwork(g.shape[0])[0])
    ldu, piv, info = lapack.dsytrf(g, lwork=lwork, overwrite_a=1)
    rcond = lapack.dsycon(ldu, piv, anorm)[0] if info == 0 else 0.0
    if not rcond >= np.finfo(float).eps:
        cond = 1.0 / rcond if rcond else math.inf
        raise ConditioningError("full system is not invertible", condition_estimate=cond)
    rhs = np.concatenate([y, np.zeros(g.shape[0] - y.size)])
    c = lapack.dsytrs(ldu, piv, rhs[:, None])[0][:, 0]
    if not np.all(np.isfinite(c)):
        raise ConditioningError("saddle solve is not finite", condition_estimate=1.0 / rcond)
    return c, ldu, piv


def _loocv(g, y):
    """e_v = c_v / (G^{-1})_vv, both from the one factor of :func:`_factor_solve`."""
    n = y.size
    c, ldu, piv = _factor_solve(g, y)
    diag = _inverse_diagonal(ldu, piv)[:n]
    if not np.all(diag != 0.0):
        raise ConditioningError("shortcut diagonal is degenerate")
    return c[:n] / diag


def loocv_errors_fast(
    centers: PointSet,
    y,
    spec: KernelSpec = KernelSpec("cui-freeden"),
    epsilon: float = 1.0,
    sigma: float = 0.0,
    poly_degree: int = 1,
) -> np.ndarray:
    """Leave-one-out errors from one factorization: e_v = c_v / (G^{-1})_vv."""
    y = _checked_y(centers, y, epsilon, sigma)
    return _loocv(_saddle(*_geometry(centers, poly_degree), spec, epsilon, sigma), y)


@dataclass
class SweepReport:
    """Shape-parameter sweep result: per-epsilon LOOCV mean square error."""

    rows: list = field(default_factory=list)  # (epsilon, mse or None, status)
    best_epsilon: float | None = None
    best_mse: float | None = None

    def to_csv_text(self) -> str:
        return csv_text("epsilon,mse,status", self.rows)


def epsilon_sweep(
    centers: PointSet,
    y,
    spec: KernelSpec = KernelSpec("cui-freeden"),
    eps_grid=(1.0,),
    sigma: float = 0.0,
    poly_degree: int = 1,
) -> SweepReport:
    """Grid-minimize the LOOCV mean square error over the shape parameter."""
    eps_grid = [float(e) for e in eps_grid]
    rule = "epsilon grid must be non-empty and positive, with finite values"
    require(eps_grid != [] and all(0.0 < e < math.inf for e in eps_grid), rule)
    y = _checked_y(centers, y, None, sigma)
    p = monomial_basis(centers, poly_degree)
    try:
        r = _distances(centers)
    except DomainError as exc:
        raise ConfigurationError("every grid point failed to fit") from exc
    report = SweepReport()
    for eps in eps_grid:
        try:
            errs = _loocv(_saddle(r, p, spec, eps, sigma), y)
            with np.errstate(over="ignore"):  # an overflow is caught below
                mse = float(np.mean(errs**2))
            if not math.isfinite(mse):
                raise ConditioningError("non-finite cross-validation error")
            report.rows.append((eps, mse, "ok"))
        except (ConditioningError, CapabilityError, DomainError):
            report.rows.append((eps, None, "failed"))
    ok = [(mse, eps) for eps, mse, status in report.rows if status == "ok"]
    if not ok:
        raise ConfigurationError("every grid point failed to fit")
    report.best_mse, report.best_epsilon = min(ok)
    return report
