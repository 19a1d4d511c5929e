"""Output checks computed apart from the program.

Nothing here imports sphereq: kernels, series scores and LOOCV errors are
recomputed from their formulas with plain numpy, so a fault in a shared
helper of the program cannot hide itself.  Each check returns a list of
failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import legendre as npleg

FOUR_PI = 4.0 * math.pi
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

NORM_TOL = 1e-12
SCORE_RTOL = 1e-9  # series and closed-form scores; today they agree to ~1e-14
GREEDY_RTOL = 1e-12  # slack of a greedy node over the lattice optimum
LOOCV_RTOL = 1e-9  # LOOCV errors and MSE; today they agree to ~1e-12


# ---------------------------------------------------------------- inputs


def unit_gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform points on the sphere: normalized standard-normal triples."""
    p = rng.standard_normal((n, 3))
    return p / np.sqrt(np.sum(p * p, axis=1))[:, None]


def fibonacci_lattice(m: int) -> np.ndarray:
    """Spherical Fibonacci lattice of m points (z-stratified, golden angle)."""
    i = np.arange(m, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / m
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * GOLDEN_ANGLE
    p = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    return p / np.sqrt(np.sum(p * p, axis=1))[:, None]


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random proper rotation from the QR factors of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def four_gaussians(p: np.ndarray) -> np.ndarray:
    """The four-Gaussian scattered-data target, evaluated on rows of p."""
    x, y, z = 9.0 * p[:, 0], 9.0 * p[:, 1], 9.0 * p[:, 2]
    return (
        0.75 * np.exp(-((x - 2) ** 2 + (y - 2) ** 2 + (z - 2) ** 2) / 4)
        + 0.75 * np.exp(-((x + 1) ** 2) / 49 - ((y + 1) ** 2) / 10 - ((z + 1) ** 2) / 10)
        + 0.5 * np.exp(-((x - 7) ** 2 + (y - 3) ** 2 + (z - 5) ** 2) / 4)
        - 0.2 * np.exp(-((x - 4) ** 2) / 4 - (y - 7) ** 2 - (z - 5) ** 2)
    )


def csv_text(points: np.ndarray) -> str:
    rows = ["x,y,z"] + [f"{a:.17g},{b:.17g},{c:.17g}" for a, b, c in points]
    return "\n".join(rows) + "\n"


def parse_csv(text: str, header: str) -> list[list[float]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return [[float(v) for v in line.split(",")] for line in lines[1:] if line]


# ---------------------------------------------------------------- kernels


def gram(p: np.ndarray) -> np.ndarray:
    t = np.clip(p @ p.T, -1.0, 1.0)
    np.fill_diagonal(t, 1.0)
    return t


def kernel_t(name: str, t: np.ndarray) -> np.ndarray:
    """Closed forms as functions of the dot product t, written from the formulas."""
    with np.errstate(divide="ignore"):
        if name == "pycke":
            return -(1.0 + np.log((1.0 - t) / 2.0)) / FOUR_PI
        if name == "pycke:d1":
            return 1.0 / (1.0 - t)
        if name == "pycke:d2":
            return 1.0 / (1.0 - t) ** 2
        u = np.sqrt(np.maximum(0.0, 1.0 - t) / 2.0)
        if name == "cui-freeden":
            return 1.0 - 2.0 * np.log1p(u)
        if name == "cui-freeden:d1":
            return 1.0 / (1.0 + u)
        if name == "cui-freeden:d2":
            return 0.25 / (1.0 + u) ** 2
    raise ValueError(f"no reference formula for {name}")


def closed_form_score(p: np.ndarray, name: str) -> float:
    """(1/N) sqrt(max(0, sum_ij K(x_i . x_j))), diagonal included."""
    s = float(np.sum(kernel_t(name, gram(p))))
    return math.sqrt(max(0.0, s)) / p.shape[0]


def series_score(p: np.ndarray, m: int, n_max: int) -> float:
    """Pycke-symbol series score (1/N) sqrt(sum_n w_n sum_ij P_n^(m)(t_ij)).

    Weights w_n = (2n+1)/(4 pi n(n+1)); the m-th derivative comes from
    numpy's Legendre-series differentiation, the values from Clenshaw.
    """
    n = np.arange(n_max + 1, dtype=float)
    coef = np.zeros(n_max + 1)
    coef[1:] = (2.0 * n[1:] + 1.0) / (FOUR_PI * n[1:] * (n[1:] + 1.0))
    if m:
        coef = npleg.legder(coef, m)
    total = float(np.sum(npleg.legval(gram(p), coef)))
    return math.sqrt(max(0.0, total)) / p.shape[0]


# ---------------------------------------------------------------- checks


def check_close(what: str, got: float, want: float, rtol: float) -> list[str]:
    if not (math.isfinite(got) and abs(got - want) <= rtol * abs(want)):
        return [f"{what}: {got!r} differs from reference {want!r} (rtol {rtol:g})"]
    return []


def check_nodes(what: str, p: np.ndarray, n: int) -> list[str]:
    if p.shape != (n, 3):
        return [f"{what}: shape {p.shape}, expected ({n}, 3)"]
    dev = np.abs(np.sqrt(np.sum(p * p, axis=1)) - 1.0)
    if not np.all(dev <= NORM_TOL):
        return [f"{what}: node {int(np.argmax(dev))} is off the sphere by {np.max(dev):.3g}"]
    return []


def greedy_slack(nodes: np.ndarray, name: str, lattice: np.ndarray) -> np.ndarray:
    """Per node k >= 1: (sum_{j<k} K(x_j . x_k) - min over lattice) / scale.

    Lattice sums are kept incrementally.  ``scale`` is the sum of the
    absolute terms at the node, the size of its rounding error.  A greedy
    step that starts at the lattice argmin and only accepts descent cannot
    end above the lattice optimum, so every entry must be <= GREEDY_RTOL.
    """
    sums = np.zeros(lattice.shape[0])
    slack = np.zeros(nodes.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, nodes.shape[0]):
            sums += kernel_t(name, np.clip(lattice @ nodes[k - 1], -1.0, 1.0))
            terms = kernel_t(name, np.clip(nodes[:k] @ nodes[k], -1.0, 1.0))
            best = float(np.min(sums[np.isfinite(sums)]))
            slack[k] = (float(np.sum(terms)) - best) / float(np.sum(np.abs(terms)))
    return slack


def check_greedy(what: str, nodes: np.ndarray, name: str, lattice: np.ndarray) -> list[str]:
    slack = greedy_slack(nodes, name, lattice)
    bad = np.flatnonzero(~(slack <= GREEDY_RTOL))
    if bad.size:
        k = int(bad[0])
        return [f"{what}: node {k} sits {slack[k]:.3g} above the lattice optimum"]
    return []


def check_history(what: str, rows: list[list[float]], iterations: int) -> list[str]:
    if [int(r[0]) for r in rows] != list(range(iterations)):
        return [f"{what}: expected one row per iteration 0..{iterations - 1}"]
    values = [r[1] for r in rows]
    if not all(math.isfinite(v) for v in values):
        return [f"{what}: non-finite history value"]
    if not values[-1] < values[0]:
        return [f"{what}: history ends at {values[-1]!r}, not below its start {values[0]!r}"]
    return []


def check_below(what: str, refined: float, start: float) -> list[str]:
    if not refined < start:
        return [f"{what}: refined score {refined!r} is not below the start's {start!r}"]
    return []


def saddle(p: np.ndarray, epsilon: float, sigma: float, degree: int) -> np.ndarray:
    """[[K(eps r) + sigma^2 I, P], [P^T, 0]] for the cui-freeden kernel.

    r is the chordal distance and P the monomials of total degree <= degree
    (degree -1: no tail, 0: constant, 1: 1, x, y, z).
    """
    n = p.shape[0]
    r = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * np.clip(p @ p.T, -1.0, 1.0)))
    k = 1.0 - 2.0 * np.log1p(epsilon * r / 2.0) + sigma**2 * np.eye(n)
    tail = [np.ones((n, 1)), p][: degree + 1]
    poly = np.hstack(tail) if tail else np.zeros((n, 0))
    m = poly.shape[1]
    g = np.zeros((n + m, n + m))
    g[:n, :n], g[:n, n:], g[n:, :n] = k, poly, poly.T
    return g


def loocv_by_inverse(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """e_v = c_v / (G^-1)_vv with c = G^-1 [y; 0]."""
    n = y.size
    g_inv = np.linalg.inv(g)
    c = g_inv[:, :n] @ y
    return c[:n] / np.diagonal(g_inv)[:n]


def loocv_by_refit(g: np.ndarray, y: np.ndarray, centers) -> np.ndarray:
    """e_v = y_v - f_v(x_v), f_v fitted without center v by a dense solve."""
    n = y.size
    rhs = np.concatenate([y, np.zeros(g.shape[0] - n)])
    out = []
    for v in centers:
        keep = np.arange(g.shape[0]) != v
        coef = np.linalg.solve(g[np.ix_(keep, keep)], rhs[keep])
        out.append(y[v] - float(g[v, keep] @ coef))
    return np.array(out)


def check_errors(what: str, got: np.ndarray, want: np.ndarray, y: np.ndarray) -> list[str]:
    """LOOCV errors against reference ones, to LOOCV_RTOL of the larger of the two scales.

    An error y_v - f_v(x_v) is a difference of two numbers of the size of the
    data y, so its rounding error scales with max |y|, not with the error:
    where the interpolant is accurate the errors are 1e-5 of the data and
    a tolerance relative to them alone rejects rounding.
    """
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape:
        return [f"{what}: {got.shape} errors, expected {want.shape}"]
    dev = float(np.max(np.abs(got - want)))
    if not dev <= LOOCV_RTOL * max(float(np.max(np.abs(want))), float(np.max(np.abs(y)))):
        return [f"{what}: LOOCV errors differ from the refits by {dev:.3g}"]
    return []
