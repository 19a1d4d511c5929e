"""Benchmark tables: node-set discrepancies over a ladder of set sizes.

Two pipelines, each emitting CSV rows ``N,kernel,D``:

* :func:`run_table1` scores greedily generated node sets (one column per
  generation kernel: pycke and its two derivative kernels) with the
  truncated generalized discrepancy carrying the pycke symbol n(n+1), in
  the per-point normalization D = sqrt(sum_ij / N).  The truncation degree
  below is the calibration constant of this table.
* :func:`run_table2` scores Riesz-refined random node sets with the bounded
  kernel of the refinement objective and its two chordal Taylor-derivative
  kernels, each centered to zero spherical mean, in the ``pairwise_rms``
  normalization D = (1/N) sqrt(sum_ij).

Cells are medians over the seed panel.  Both pipelines are bit-deterministic
for fixed seeds.
"""

from __future__ import annotations

import dataclasses
import math
from statistics import median

from .errors import require, whole
from .discrepancy import (
    INCLUDE,
    PointSet,
    mean_pair_discrepancy,
    series_generalized_discrepancy,
)
from .kernels import KernelSpec, kernel_uniform_mean
from .pointgen import RefineParams, greedy_generate, random_unit_points, riesz_refine
from .sphio import csv_text

#: Node counts of both benchmark tables.
TABLE_N = (15, 43, 86, 151, 206, 313, 529, 719, 998)

#: Truncation degree of the table-1 series score.
TABLE1_NMAX = 90

TABLE1_KERNELS = (
    KernelSpec("pycke"),
    KernelSpec("pycke", m=1),
    KernelSpec("pycke", m=2),
)

TABLE2_KERNELS = (
    KernelSpec("cui-freeden"),
    KernelSpec("cui-freeden", m=1),
    KernelSpec("cui-freeden", m=2),
)

DEFAULT_TABLE1_SEEDS = (42, 43, 44)
DEFAULT_TABLE2_SEEDS = (1, 2, 3, 4, 5)

_SIZE = "table sizes must be positive integers"


def _panel(seeds, n_list) -> tuple[list, list[int]]:
    """The seed panel and the sorted sizes, each refused when empty."""
    seeds = list(seeds)
    require(seeds != [], "seed panel must not be empty")
    n_list = sorted(whole(n, _SIZE, low=1) for n in n_list)
    require(n_list != [], "table sizes must not be empty")
    return seeds, n_list


def _medians(cells, n_list, kernels) -> list[tuple[int, str, float]]:
    return [(n, spec.name, median(cells[(n, spec.name)])) for n in n_list for spec in kernels]


def series_node_discrepancy(pts: PointSet, n_max: int = TABLE1_NMAX) -> float:
    """Table-1 score: truncated pycke-symbol series, per-point normalized."""
    report = series_generalized_discrepancy(pts, "pycke", m=0, n_max=n_max)
    return report.value * math.sqrt(len(pts))


def centered_pair_discrepancy(pts: PointSet, spec: KernelSpec) -> float:
    """Table-2 score: (1/N) sqrt(sum_ij K-tilde), K-tilde centered.

    Equals the ``pairwise_rms`` report value for kernels that already
    average to zero over the sphere (every m = 0 catalog member); the
    derivative kernels have their uniform mean subtracted first so the
    score vanishes for perfectly equidistributed systems.
    """
    mean = mean_pair_discrepancy(pts, spec, INCLUDE).value
    centered = mean - kernel_uniform_mean(spec)
    return math.sqrt(max(0.0, centered))


def run_table1(
    seeds=DEFAULT_TABLE1_SEEDS,
    grid_size: int = 8192,
    n_list=TABLE_N,
    n_max: int = TABLE1_NMAX,
) -> list[tuple[int, str, float]]:
    """Greedy node sets scored by the truncated generalized discrepancy.

    One greedy sequence of max(n_list) nodes per (kernel, seed); every N in
    ``n_list`` scores the sequence prefix, so columns share their nodes.
    """
    seeds, n_list = _panel(seeds, n_list)
    top = n_list[-1]
    cells: dict[tuple[int, str], list[float]] = {}
    for spec in TABLE1_KERNELS:
        for seed in seeds:
            pts = greedy_generate(top, spec, seed=seed, grid_size=grid_size)
            for n in n_list:
                prefix = PointSet(pts.points[:n])
                cells.setdefault((n, spec.name), []).append(
                    series_node_discrepancy(prefix, n_max)
                )
    return _medians(cells, n_list, TABLE1_KERNELS)


def run_table2(
    seeds=DEFAULT_TABLE2_SEEDS,
    params: RefineParams | None = None,
    n_list=TABLE_N,
) -> list[tuple[int, str, float]]:
    """Refined random node sets scored by the centered bounded kernels.

    Every (N, seed) cell refines its own random start with ``params``, its
    neighbor count capped at N - 1.
    """
    base = params or RefineParams()
    seeds, n_list = _panel(seeds, n_list)
    cells: dict[tuple[int, str], list[float]] = {}
    for n in n_list:
        for seed in seeds:
            pts = random_unit_points(n, seed=seed * 100003 + n)
            refine = dataclasses.replace(base, k_neighbors=min(base.k_neighbors, n - 1))
            refined, _ = riesz_refine(pts, refine, history=False)
            for spec in TABLE2_KERNELS:
                cells.setdefault((n, spec.name), []).append(
                    centered_pair_discrepancy(refined, spec)
                )
    return _medians(cells, n_list, TABLE2_KERNELS)


def rows_to_csv(rows) -> str:
    return csv_text("N,kernel,D", rows)
