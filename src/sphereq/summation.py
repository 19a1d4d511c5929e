"""Deterministic reductions for pairwise kernel sums.

All double sums in this package reduce through :func:`block_sum`: the input is
split into fixed-size blocks, each block is summed by numpy's pairwise
reduction, and the per-block partials are merged with Neumaier compensation in
block order.  Worker threads may compute blocks concurrently, but the merge
order is fixed, so results are bit-identical to serial execution regardless of
``SPHERE_EQ_THREADS``.

The worker threads belong to one persistent pool per worker count, made on
the first parallel reduction that needs it (never at import) and reused by
every later one, so a loop of reductions starts no threads after its first
call.  Changing ``SPHERE_EQ_THREADS`` mid-process selects another pool.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

BLOCK = 1 << 14

_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()


def worker_count() -> int:
    """Worker cap from ``SPHERE_EQ_THREADS`` (default: hardware parallelism)."""
    raw = os.environ.get("SPHERE_EQ_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        n = os.cpu_count() or 1
    return n


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


def _pool(workers: int) -> ThreadPoolExecutor:
    """The persistent pool of ``workers`` threads, made on first use."""
    with _pools_lock:
        pool = _pools.get(workers)
        if pool is None:
            pool = _pools[workers] = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="sphereq-sum"
            )
        return pool


def _forget_pools() -> None:
    # a forked child inherits the pool objects but not their threads, so a
    # pool it reused would queue work that no thread ever runs
    global _pools_lock
    _pools.clear()
    _pools_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_pools)


def blocked_pair_reduce(n_rows: int, row_block_sum, block: int = 64) -> float:
    """Reduce a virtual ``n_rows``-row matrix to a scalar, deterministically.

    ``row_block_sum(i0, i1)`` must return the (compensated) sum of rows
    ``i0:i1``.  Blocks run on the persistent pool of ``SPHERE_EQ_THREADS``
    workers; partials are merged in ascending block order.
    ``row_block_sum`` must not itself wait on a reduction, since it may run
    on a thread of the pool that reduction would need.
    """
    spans = [(i, min(i + block, n_rows)) for i in range(0, n_rows, block)]
    workers = worker_count()
    if workers <= 1 or len(spans) <= 1:
        partials = [row_block_sum(i0, i1) for i0, i1 in spans]
    else:
        partials = list(_pool(workers).map(lambda s: row_block_sum(*s), spans))
    return neumaier_sum(partials)
