"""Kernel interpolation of scattered data on the sphere.

The interpolant is a kernel sum plus a low-degree polynomial tail,

    f(x) = sum_i w_i K(eps * |x - x_i|) + sum_j b_j p_j(x),

fitted through the symmetric saddle system G = [[K + sigma^2 I, P], [P^T, 0]]
with the side condition P^T w = 0.  The shape parameter enters as K(eps*r)
in the chordal convention.  Leave-one-out cross-validation comes in two
flavors: the O(N^4) refit-per-point definition (kept as an oracle) and the
shortcut e_v = c_v / (G^{-1})_vv.  The shortcut factors the indefinite G once,
in place, as a Bunch-Kaufman G = P U D U^T P^T and takes c and an O(N^2)
condition estimate from that factor.  It never forms G^{-1}: diag(G^{-1}) is
diag(W^T D^{-1} W) with W = U^{-1} from a blocked triangular inverse, mapped
back through the interchanges.  A shape-parameter sweep computes the
distances and the tail block once and rebuilds only the kernel block per
epsilon.
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
import scipy.linalg
from scipy.linalg import lapack

from .errors import CapabilityError, ConditioningError, ConfigurationError, DomainError
from .discrepancy import PointSet
from .kernels import (
    CHORDAL,
    KernelSpec,
    _kernel_eval_u,
    is_singular_at_coincidence,
    kernel_eval,
)


def franke_eval(p):
    """Four-Gaussian scattered-data benchmark target, defined on all of R^3."""
    p = np.asarray(p, dtype=float)
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


def monomial_basis(points: np.ndarray, degree: int) -> np.ndarray:
    """(N, M) matrix of 3-variable monomials of total degree <= degree.

    degree -1 means no polynomial tail (M = 0); degree 1 gives the four
    monomials 1, x, y, z.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
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
    t = np.clip(a @ b.T, -1.0, 1.0)
    return np.sqrt(np.maximum(0.0, 2.0 - 2.0 * t))


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
    if epsilon is not None and not 0.0 < epsilon < math.inf:
        raise DomainError("shape parameter must be positive and finite")
    if not 0.0 <= sigma < math.inf:
        raise DomainError("smoothing parameter must be non-negative and finite")
    y = np.asarray(y, dtype=float).ravel()
    if y.size != len(centers):
        raise DomainError("one observation per center required")
    return y


def _geometry(centers, poly_degree):
    """Chordal distances and monomial block; neither depends on epsilon."""
    pts = centers.points
    r = _chordal(pts, pts)
    if np.count_nonzero(r == 0.0) > np.count_nonzero(r.diagonal() == 0.0):
        raise DomainError("duplicate interpolation centers")
    return r, monomial_basis(pts, poly_degree)


def _saddle(r, p, spec, epsilon, sigma):
    """G = [[K(eps r) + sigma^2 I, P], [P^T, 0]]; a kernel singular at r = 0
    takes its zero diagonal limit, which needs sigma > 0 to stay invertible.

    The kernel block is evaluated in place on the half-chords r (eps/2),
    which equal (eps r)/2 bit for bit, so G is the chordal ``kernel_eval``
    of eps r.  G is Fortran-ordered so that LAPACK can factor it in place."""
    n, m = p.shape
    singular = is_singular_at_coincidence(spec)
    if singular and sigma <= 0.0:
        raise CapabilityError(f"{spec.name} is singular at r=0: fitting requires sigma > 0")
    if epsilon < 0.0 and n > 1:  # r > 0 off the diagonal, so eps r has a negative
        raise DomainError("chordal distance must be non-negative")
    g, diag = np.empty((n + m, n + m), order="F"), np.arange(n)
    block = np.multiply(r, epsilon / 2.0, out=g[:n, :n])
    if singular:
        block[diag, diag] = 0.5  # placeholder argument, overwritten below
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
    """Solve the saddle system for the kernel and tail coefficients."""
    y = _checked_y(centers, y, epsilon, sigma)
    g = _saddle(*_geometry(centers, poly_degree), spec, epsilon, sigma)
    rhs = np.concatenate([y, np.zeros(g.shape[0] - y.size)])
    try:
        coeff = scipy.linalg.solve(g, rhs, assume_a="sym")
    except scipy.linalg.LinAlgError as exc:
        raise ConditioningError(
            "saddle system is singular", condition_estimate=float(np.linalg.cond(g))
        ) from exc
    if not np.all(np.isfinite(coeff)):
        raise ConditioningError(
            "saddle solve produced non-finite coefficients",
            condition_estimate=float(np.linalg.cond(g)),
        )
    n = len(centers)
    return InterpolantModel(centers=centers, values=y, spec=spec, epsilon=epsilon, sigma=sigma,
                            poly_degree=poly_degree, w=coeff[:n], b=coeff[n:])


def interpolant_eval(model: InterpolantModel, p):
    """Evaluate the fitted interpolant at one or many unit vectors."""
    p = np.asarray(p, dtype=float)
    single = p.ndim == 1
    q = np.atleast_2d(p)
    r = _chordal(q, model.centers.points)
    k = kernel_eval(model.spec.with_convention(CHORDAL), model.epsilon * r)
    out = k @ model.w
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

    Entries where the reduced system is singular are reported as NaN.
    """
    y = _checked_y(centers, y, epsilon, sigma)
    n = len(centers)
    if n < 3:
        raise DomainError("leave-one-out needs at least 3 centers")
    errors = np.empty(n)
    for v in range(n):
        keep = np.arange(n) != v
        sub = PointSet(centers.points[keep])
        try:
            model = fit_interpolant(sub, y[keep], spec, epsilon, sigma, poly_degree)
            pred = interpolant_eval(model, centers.points[v])
        except (ConditioningError, DomainError):
            errors[v] = np.nan
            continue
        errors[v] = y[v] - pred
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


def _loocv(g, y):
    """e_v = c_v / (G^{-1})_vv from one LDL^T factor of the indefinite G (no
    Cholesky), which also gives the condition estimate; a singular G raises.

    The Fortran-ordered G from :func:`_saddle` is factored in place and
    destroyed, so LAPACK copies no N x N matrix.  c comes from ``dsytrs`` and
    the diagonal from :func:`_inverse_diagonal`, on the same factor.  G is
    symmetric, so its inf-norm adds the same numbers in the same order as the
    1-norm of a C-ordered copy, and ``dsycon`` gets the same norm either way."""
    n = y.size
    anorm = np.linalg.norm(g, np.inf)
    lwork = int(lapack.dsytrf_lwork(g.shape[0])[0])
    ldu, piv, info = lapack.dsytrf(g, lwork=lwork, overwrite_a=1)
    rcond = lapack.dsycon(ldu, piv, anorm)[0] if info == 0 else 0.0
    if not rcond >= np.finfo(float).eps:
        cond = 1.0 / rcond if rcond else math.inf
        raise ConditioningError("full system is not invertible", condition_estimate=cond)
    rhs = np.concatenate([y, np.zeros(g.shape[0] - n)])
    c = lapack.dsytrs(ldu, piv, rhs[:, None])[0][:n, 0]
    diag = _inverse_diagonal(ldu, piv)[:n]
    if not (np.all(np.isfinite(c)) and np.all(diag != 0.0)):
        raise ConditioningError("shortcut diagonal is degenerate", condition_estimate=1.0 / rcond)
    return c / diag


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
        lines = ["epsilon,mse,status"]
        for eps, mse, status in self.rows:
            mse_txt = "" if mse is None else f"{mse:.17g}"
            lines.append(f"{eps:.17g},{mse_txt},{status}")
        return "\n".join(lines) + "\n"


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
    if not eps_grid or not all(0.0 < e < math.inf for e in eps_grid):
        raise DomainError("epsilon grid must be non-empty and positive, with finite values")
    y = _checked_y(centers, y, None, sigma)
    try:
        r, p = _geometry(centers, poly_degree)
    except DomainError as exc:
        raise ConfigurationError("every grid point failed to fit") from exc
    report = SweepReport()
    for eps in eps_grid:
        try:
            errs = _loocv(_saddle(r, p, spec, eps, sigma), y)
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
