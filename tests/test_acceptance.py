"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Criteria 5 and 6 reproduce the bundled benchmark tables; see the README for
the tolerance bands and the per-table score conventions.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sphereq.kernels import KernelSpec, kernel_eval, kernel_series_eval
from sphereq.legendre import (
    legendre_derivative_eval,
    legendre_eval,
    rodrigues_coefficients,
)
from sphereq.discrepancy import (
    EXCLUDE,
    INCLUDE,
    PointSet,
    WeightedMeasure,
    energy,
    mean_pair_discrepancy,
    measure_inner_product,
    rms_discrepancy,
    signed_discrepancy,
)
from sphereq.pointgen import greedy_generate, random_unit_points
from sphereq.interpolation import (
    epsilon_sweep,
    franke_eval,
    loocv_errors_fast,
    loocv_errors_slow,
)
from sphereq import tables

CF = KernelSpec("cui-freeden")
PYCKE = KernelSpec("pycke")

TABLE1_REFERENCE = {
    "pycke": {15: 0.68137655, 43: 0.59310219, 86: 0.54524042, 151: 0.51181878,
              206: 0.49792697, 313: 0.47840121, 529: 0.45436048,
              719: 0.44430551, 998: 0.43388233},
    "pycke:d1": {15: 0.68339536, 43: 0.59549629, 86: 0.54779668, 151: 0.51446924,
                 206: 0.50061168, 313: 0.48112904, 529: 0.45713295,
                 719: 0.44709377, 998: 0.43668512},
    "pycke:d2": {15: 0.69559213, 43: 0.61001457, 86: 0.56333339, 151: 0.53060611,
                 206: 0.51696945, 313: 0.47823923, 529: 0.45419589,
                 719: 0.44413999, 998: 0.43371597},
}

TABLE2_REFERENCE = {
    "cui-freeden": {15: 0.26549542, 43: 0.17015372, 86: 0.13308495,
                    151: 0.1125596, 206: 0.1074984, 313: 0.0989759,
                    529: 0.0882991, 719: 0.0864768, 998: 0.0844954},
    "cui-freeden:d1": {15: 0.19032185, 43: 0.10908718, 86: 0.08021861,
                       151: 0.06505319, 206: 0.06141475, 313: 0.05538551,
                       529: 0.04801519, 719: 0.04677885, 998: 0.04544187},
    "cui-freeden:d2": {15: 0.09912521, 43: 0.04564855, 86: 0.02974657,
                       151: 0.02221502, 206: 0.02050324, 313: 0.01775417,
                       529: 0.01455116, 719: 0.01403181, 998: 0.01347624},
}


def _report(number: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def tetrahedron() -> PointSet:
    return PointSet(
        np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
    )


def test_criterion_1_legendre_suite():
    start = time.time()
    rng = np.random.default_rng(101)
    x = rng.uniform(-1.0, 1.0, 1000)
    bonnet = 0.0
    diff_identity = 0.0
    for n in range(1, 51):
        lhs = (2 * n + 1) * x * legendre_eval(n, x)
        rhs = (n + 1) * legendre_eval(n + 1, x) + n * legendre_eval(n - 1, x)
        bonnet = max(bonnet, float(np.max(np.abs(lhs - rhs))))
        d = (
            legendre_derivative_eval(n + 1, 1, x)
            - legendre_derivative_eval(n - 1, 1, x)
            - (2 * n + 1) * legendre_eval(n, x)
        )
        diff_identity = max(diff_identity, float(np.max(np.abs(d))))
    oracle = 0.0
    xs = [Fraction(k, 16) for k in (-15, -9, -5, -1, 3, 7, 11, 16)]
    for n in range(0, 31, 3):
        poly = rodrigues_coefficients(n)
        for m in range(6):
            dpoly = poly.derivative_order(m)
            for xq in xs:
                exact = float(dpoly.evaluate(xq))
                got = legendre_derivative_eval(n, m, float(xq))
                oracle = max(oracle, abs(got - exact) / max(1.0, abs(exact)))
    elapsed = time.time() - start
    ok = bonnet < 1e-10 and diff_identity < 1e-9 and oracle < 1e-12 and elapsed < 10
    line = _report(1, ok, f"legendre: bonnet {bonnet:.2e}, derivative-identity "
                          f"{diff_identity:.2e}, oracle {oracle:.2e}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_2_kernel_coherence():
    start = time.time()
    worst_series = 0.0
    for family, spec in (("pycke", PYCKE), ("cui-freeden", CF)):
        probes = np.array([-0.5, 0.0, 0.5])
        s = kernel_series_eval(family, 0, probes, 5000).value
        c = np.asarray(kernel_eval(spec, probes))
        design = np.column_stack([s, np.ones_like(s)])
        (a, b), *_ = np.linalg.lstsq(design, c, rcond=None)
        ts = np.linspace(-0.95, 0.95, 39)
        series = kernel_series_eval(family, 0, ts, 5000).value
        closed = np.asarray(kernel_eval(spec, ts))
        worst_series = max(worst_series, float(np.max(np.abs(a * series + b - closed))))
    h = 1e-5
    ts = np.linspace(-0.9, 0.9, 37)
    fd = (kernel_eval(PYCKE, ts + h) - kernel_eval(PYCKE, ts - h)) / (2 * h)
    ratio = fd / kernel_eval(KernelSpec("pycke", m=1), ts)
    scale = ratio[len(ratio) // 2]
    lemma = float(np.max(np.abs(ratio / scale - 1.0)))
    elapsed = time.time() - start
    ok = worst_series < 1e-3 and lemma < 1e-6 and elapsed < 30
    line = _report(2, ok, f"kernels: series-vs-closed {worst_series:.2e}, "
                          f"family finite-difference {lemma:.2e}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_3_discrepancy_oracles():
    start = time.time()
    tet_value = rms_discrepancy(tetrahedron(), CF, INCLUDE).value
    tet_ok = abs(tet_value - 0.32347) <= 1e-4

    mu = WeightedMeasure(PointSet(np.array([[0.0, 0.0, 1.0]])), [1.0])
    om = WeightedMeasure(PointSet(np.array([[0.0, 0.0, -1.0]])), [1.0])
    signed = signed_discrepancy(mu, om, CF)
    signed_ok = abs(signed - math.sqrt(4 * math.log(2))) <= 1e-10

    rng = np.random.default_rng(33)
    pts_raw = rng.standard_normal((25, 3))
    pts = PointSet(pts_raw / np.linalg.norm(pts_raw, axis=1)[:, None])
    energy_ok = all(
        energy(pts, spec) == mean_pair_discrepancy(pts, spec, EXCLUDE).value
        for spec in (CF, KernelSpec("riesz", s=1.0))
    )

    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    rotated = PointSet(pts.points @ q.T)
    permuted = PointSet(pts.points[::-1].copy())
    inv = max(
        abs(rms_discrepancy(pts, CF, INCLUDE).value
            - rms_discrepancy(rotated, CF, INCLUDE).value),
        abs(rms_discrepancy(pts, CF, INCLUDE).value
            - rms_discrepancy(permuted, CF, INCLUDE).value),
        abs(energy(pts, CF) - energy(rotated, CF)),
        abs(energy(pts, CF) - energy(permuted, CF)),
    )
    inv_ok = inv < 1e-10
    elapsed = time.time() - start
    ok = tet_ok and signed_ok and energy_ok and inv_ok and elapsed < 5
    line = _report(3, ok, f"discrepancy: tetrahedron {tet_value:.6f}, signed "
                          f"{signed:.10f}, energy-identity {energy_ok}, "
                          f"invariance {inv:.2e}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_4_measure_identity():
    start = time.time()
    rng = np.random.default_rng(44)
    worst = 0.0
    for trial in range(50):
        n1 = int(rng.integers(1, 21))
        n2 = int(rng.integers(1, 21))
        p1 = rng.standard_normal((n1, 3))
        p2 = rng.standard_normal((n2, 3))
        mu = WeightedMeasure(
            PointSet(p1 / np.linalg.norm(p1, axis=1)[:, None]), rng.normal(size=n1)
        )
        om = WeightedMeasure(
            PointSet(p2 / np.linalg.norm(p2, axis=1)[:, None]), rng.normal(size=n2)
        )
        stacked = WeightedMeasure(
            PointSet(np.vstack([mu.points.points, om.points.points])),
            np.concatenate([mu.weights, -om.weights]),
        )
        direct = measure_inner_product(stacked, stacked, CF)
        value = signed_discrepancy(mu, om, CF)
        worst = max(worst, abs(value**2 - max(0.0, direct)))
    elapsed = time.time() - start
    ok = worst < 1e-10 and elapsed < 5
    line = _report(4, ok, f"measure identity: worst residual {worst:.2e}, "
                          f"{elapsed:.1f}s")
    assert ok, line


def test_criterion_5_table1_reproduction():
    start = time.time()
    rows = tables.run_table1()
    elapsed = time.time() - start
    worst = 0.0
    columns: dict[str, list[float]] = {}
    for n, kernel, value in rows:
        worst = max(worst, abs(value / TABLE1_REFERENCE[kernel][n] - 1.0))
        columns.setdefault(kernel, []).append(value)
    monotone = all(
        all(a > b for a, b in zip(col, col[1:])) for col in columns.values()
    )
    ok = worst <= 0.10 and monotone and elapsed < 600
    line = _report(5, ok, f"table1: worst cell deviation {worst*100:.1f}% "
                          f"(band 10%), columns strictly decreasing {monotone}, "
                          f"{elapsed:.0f}s")
    assert ok, line


def test_criterion_6_table2_reproduction():
    start = time.time()
    rows = tables.run_table2()
    elapsed = time.time() - start
    worst = 0.0
    out_of_band = []
    by_n: dict[int, dict[str, float]] = {}
    columns: dict[str, list[float]] = {}
    for n, kernel, value in rows:
        dev = abs(value / TABLE2_REFERENCE[kernel][n] - 1.0)
        worst = max(worst, dev)
        if dev > 0.25:
            out_of_band.append((n, kernel, value, TABLE2_REFERENCE[kernel][n]))
        by_n.setdefault(n, {})[kernel] = value
        columns.setdefault(kernel, []).append(value)
    ordering = all(
        by_n[n]["cui-freeden"] > by_n[n]["cui-freeden:d1"] > by_n[n]["cui-freeden:d2"]
        for n in by_n
    )
    monotone = all(
        all(a > b for a, b in zip(col, col[1:])) for col in columns.values()
    )
    ok = worst <= 0.25 and ordering and monotone and elapsed < 600
    detail = (f"table2: worst cell deviation {worst*100:.0f}% (band 25%, "
              f"{len(out_of_band)}/27 cells outside), row ordering {ordering}, "
              f"columns decreasing {monotone}, {elapsed:.0f}s")
    line = _report(6, ok, detail)
    if out_of_band:
        print("  refined node sets score below the reference at every size; "
              "see the decisions ledger for the reproduction analysis")
    assert ok, line


def test_criterion_7_loocv():
    start = time.time()
    rng = np.random.default_rng(77)
    worst = 0.0
    for k in range(20):
        n = int(rng.integers(8, 41))
        sigma = (0.0, 0.1)[k % 2]
        degree = (-1, 0, 1)[k % 3]
        pts = random_unit_points(n, seed=7000 + k)
        y = franke_eval(pts.points)
        slow = loocv_errors_slow(pts, y, CF, 1.5, sigma, degree)
        fast = loocv_errors_fast(pts, y, CF, 1.5, sigma, degree)
        worst = max(worst, float(np.max(np.abs(slow - fast))))

    pts40 = random_unit_points(40, seed=7100)
    y40 = franke_eval(pts40.points)
    loocv_errors_slow(pts40, y40, CF, 2.0, 0.0, 1)
    loocv_errors_fast(pts40, y40, CF, 2.0, 0.0, 1)
    t0 = time.time()
    for _ in range(3):
        loocv_errors_slow(pts40, y40, CF, 2.0, 0.0, 1)
    t_slow = (time.time() - t0) / 3
    t0 = time.time()
    for _ in range(3):
        loocv_errors_fast(pts40, y40, CF, 2.0, 0.0, 1)
    t_fast = (time.time() - t0) / 3
    speedup = t_slow / t_fast
    elapsed = time.time() - start
    ok = worst < 1e-8 and speedup >= 5.0 and elapsed < 120
    line = _report(7, ok, f"loocv: fast-vs-slow max difference {worst:.2e}, "
                          f"speedup {speedup:.0f}x at N=40, {elapsed:.1f}s")
    assert ok, line


def test_criterion_8_epsilon_sweep():
    start = time.time()
    centers = greedy_generate(1000, PYCKE, seed=42, grid_size=8192)
    y = franke_eval(centers.points)
    grid = [0.5 + 0.25 * i for i in range(23)]  # 0.5 .. 6.0
    report = epsilon_sweep(centers, y, CF, eps_grid=grid, sigma=0.1, poly_degree=1)
    mses = [mse for _, mse, status in report.rows if status == "ok"]
    interior = grid[0] < report.best_epsilon < grid[-1]
    unique = sum(1 for m in mses if m == report.best_mse) == 1
    in_range = 1e-6 <= report.best_mse <= 1e-4
    elapsed = time.time() - start
    ok = interior and unique and in_range and elapsed < 300
    line = _report(8, ok, f"sweep: minimizer eps={report.best_epsilon:g} "
                          f"(interior {interior}, unique {unique}), "
                          f"mse {report.best_mse:.2e}, {elapsed:.0f}s")
    assert ok, line


def test_criterion_9_determinism():
    start = time.time()

    def run() -> tuple[str, str]:
        t1 = tables.rows_to_csv(
            tables.run_table1(seeds=(42,), grid_size=1024, n_list=(15, 43))
        )
        t2 = tables.rows_to_csv(tables.run_table2(seeds=(1, 2, 3), n_list=(15, 43)))
        return t1, t2

    a = run()
    b = run()
    elapsed = time.time() - start
    ok = a == b
    line = _report(9, ok, f"determinism: byte-identical across repeats {ok}, "
                          f"{elapsed:.0f}s")
    assert ok, line
