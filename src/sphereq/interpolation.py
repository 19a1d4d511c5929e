"""Kernel interpolation of scattered data on the sphere.

The interpolant is a kernel sum plus a low-degree polynomial tail,

    f(x) = sum_i w_i K(eps * |x - x_i|) + sum_j b_j p_j(x),

fitted through the symmetric saddle system G = [[K + sigma^2 I, P], [P^T, 0]]
with the side condition P^T w = 0.  The shape parameter enters as K(eps*r)
in the chordal convention.  Leave-one-out cross-validation comes in two
flavors: the O(N^4) refit-per-point definition (kept as an oracle) and the
shortcut e_v = c_v / (G^{-1})_vv.  The shortcut factors the indefinite G once
as a Bunch-Kaufman LDL^T and takes c, diag(G^{-1}) and an O(N^2) condition
estimate from that factor.  A shape-parameter sweep computes the distances
and the tail block once and rebuilds only the kernel block per epsilon.
Outputs are byte-stable for a fixed OPENBLAS_NUM_THREADS, but not across BLAS
thread counts: the distance product and LAPACK round differently with more
threads.  SPHERE_EQ_THREADS does not affect this module.
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
from .kernels import CHORDAL, KernelSpec, is_singular_at_coincidence, kernel_eval


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
    cols = []
    for total in range(degree + 1):
        for combo in combinations_with_replacement(range(3), total):
            col = np.ones(n)
            for axis in combo:
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


def _geometry(centers, poly_degree):
    """Chordal distances and monomial block; neither depends on epsilon."""
    pts = centers.points
    r = _chordal(pts, pts)
    if np.any(r + np.eye(pts.shape[0]) == 0.0):
        raise DomainError("duplicate interpolation centers")
    return r, monomial_basis(pts, poly_degree)


def _saddle(r, p, spec, epsilon, sigma):
    """G = [[K(eps r) + sigma^2 I, P], [P^T, 0]]; a kernel singular at r = 0
    takes its zero diagonal limit, which needs sigma > 0 to stay invertible."""
    n, m = p.shape
    singular = is_singular_at_coincidence(spec)
    if singular and sigma <= 0.0:
        raise CapabilityError(f"{spec.name} is singular at r=0: fitting requires sigma > 0")
    scaled, diag = epsilon * r, np.arange(n)
    if singular:
        scaled[diag, diag] = 1.0  # placeholder argument, overwritten below
    g = np.zeros((n + m, n + m))
    g[:n, :n] = kernel_eval(spec.with_convention(CHORDAL), scaled)
    if singular:
        g[diag, diag] = 0.0
    g[diag, diag] += sigma**2
    g[:n, n:] = p
    g[n:, :n] = p.T
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
    if epsilon <= 0.0:
        raise DomainError("shape parameter must be positive")
    if sigma < 0.0:
        raise DomainError("smoothing parameter must be non-negative")
    y = np.asarray(y, dtype=float).ravel()
    if y.size != len(centers):
        raise DomainError("one observation per center required")
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
    y = np.asarray(y, dtype=float).ravel()
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


def _loocv(g, y):
    """e_v = c_v / (G^{-1})_vv from one LDL^T factor of the indefinite G (no
    Cholesky), which also gives the condition estimate; a singular G raises."""
    n = y.size
    lwork = int(lapack.dsytrf_lwork(g.shape[0])[0])
    ldu, piv, info = lapack.dsytrf(g, lwork=lwork)
    rcond = lapack.dsycon(ldu, piv, np.linalg.norm(g, 1))[0] if info == 0 else 0.0
    if not rcond >= np.finfo(float).eps:
        cond = 1.0 / rcond if rcond else math.inf
        raise ConditioningError("full system is not invertible", condition_estimate=cond)
    rhs = np.concatenate([y, np.zeros(g.shape[0] - n)])
    c = lapack.dsytrs(ldu, piv, rhs[:, None])[0][:n, 0]
    diag = np.diagonal(lapack.dsytri(ldu, piv)[0])[:n]
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
    y = np.asarray(y, dtype=float).ravel()
    if y.size != len(centers):
        raise DomainError("one observation per center required")
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
    if not eps_grid or any(e <= 0.0 for e in eps_grid):
        raise DomainError("epsilon grid must be non-empty and positive")
    y = np.asarray(y, dtype=float).ravel()
    if y.size != len(centers):
        raise DomainError("one observation per center required")
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
