"""Deterministic reductions for pairwise kernel sums.

All double sums in this package reduce through :func:`block_sum`: the input is
split into fixed-size blocks, each block is summed by numpy's pairwise
reduction, and the per-block partials are merged with Neumaier compensation in
block order, so results are bit-identical from run to run.  Row-blocked
callers loop over their own row spans and merge the span partials with
:func:`neumaier_sum` in the same way.
"""

from __future__ import annotations

import numpy as np

BLOCK = 1 << 14


def neumaier_sum(values) -> float:
    """Sequentially sum ``values`` with Neumaier's compensated accumulation."""
    total = 0.0
    comp = 0.0
    for v in values:
        v = float(v)
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp


def block_sum(arr: np.ndarray) -> float:
    """Deterministic compensated sum of a float array in fixed index order."""
    flat = np.ascontiguousarray(arr, dtype=float).ravel()
    if flat.size <= BLOCK:
        return float(np.sum(flat))
    partials = [np.sum(flat[i : i + BLOCK]) for i in range(0, flat.size, BLOCK)]
    return neumaier_sum(partials)
