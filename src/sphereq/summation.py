"""Deterministic reductions for pairwise kernel sums.

All double sums in this package reduce through :func:`block_sum`: the input is
split into fixed-size blocks, each block is summed by numpy's pairwise
reduction, and the per-block partials are merged with Neumaier compensation in
block order.  Worker threads may compute blocks concurrently, but the merge
order is fixed, so results are bit-identical to serial execution regardless of
``SPHERE_EQ_THREADS``.

Row-blocked work runs through :func:`blocked_map`, which deals the row
blocks round-robin to one lane per worker (block i to lane i mod lanes, which
balances the shrinking rows of an upper triangle), with at least
``LANE_SPANS`` blocks a lane.  Each lane is one task on a persistent pool of
worker threads while the calling thread waits, so a lane runs all its blocks
on one thread and fills that thread's :func:`block_buffers` again and again
instead of allocating.  There is one pool per worker count, made on the
first parallel call that needs it (never at import) and reused by every
later one, so a loop of reductions starts no threads after its first call.
Changing ``SPHERE_EQ_THREADS`` mid-process selects another pool.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

BLOCK = 1 << 14

#: Fewest row blocks a lane takes.  Waking a worker and handing the GIL
#: back and forth costs about as much as a few small blocks, so a map over
#: fewer than 2 * LANE_SPANS blocks runs on the calling thread.
LANE_SPANS = 4

#: Largest pair of block buffers a thread keeps between calls: the k-NN
#: blocks up to N of about 4000 and the pair-sum blocks up to about 8000.
KEEP_BYTES = 1 << 23

_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()
_scratch = threading.local()


def worker_count() -> int:
    """Worker cap from ``SPHERE_EQ_THREADS``.

    The default is the number of CPUs this process may run on, which under
    an affinity mask is fewer than ``os.cpu_count()``.
    """
    raw = os.environ.get("SPHERE_EQ_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        if hasattr(os, "sched_getaffinity"):
            n = len(os.sched_getaffinity(0))
        else:
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


def block_buffers(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Two (rows, cols) float buffers of the calling thread, reused across calls.

    A lane's blocks fill them in turn, which spares each block the page
    faults of fresh block-sized arrays and keeps block temporaries out of
    the worker threads' malloc arenas.  The thread keeps them, grown to its
    largest request up to KEEP_BYTES, and overwrites them on its next call,
    so a block must not hold them past its return.  Larger requests get
    buffers of their own, which are freed with the block.
    """
    size = rows * cols
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.size < 2 * size:
        buf = np.empty(2 * size)
        if buf.nbytes <= KEEP_BYTES:
            _scratch.buf = buf
    return buf[:size].reshape(rows, cols), buf[size : 2 * size].reshape(rows, cols)


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


def blocked_map(n_rows: int, row_block, block: int = 64) -> list:
    """``[row_block(i0, i1)]`` over the ``block``-row spans of ``n_rows`` rows.

    The spans are dealt round-robin (span i to lane i mod lanes, which
    balances the shrinking rows of an upper triangle) to
    ``min(worker_count(), spans // LANE_SPANS)`` lanes, each one task on the
    persistent pool while the caller waits; with one lane the caller runs
    every span itself.  Results come back in span order.  When spans raise,
    the exception of the lowest failing span is raised, as a serial loop
    would raise it.  ``row_block`` must not itself wait on the pool, since
    it runs on a thread that such a wait could need.
    """
    spans = [(i, min(i + block, n_rows)) for i in range(0, n_rows, block)]
    workers = worker_count()
    lanes = min(workers, len(spans) // LANE_SPANS)
    if lanes <= 1:
        return [row_block(i0, i1) for i0, i1 in spans]
    first_error = [len(spans)]  # lanes skip spans above a known failure
    lock = threading.Lock()

    def lane(start: int) -> list:
        done = []
        for i in range(start, len(spans), lanes):
            if i > first_error[0]:
                break
            try:
                done.append(row_block(*spans[i]))
            except Exception as exc:
                with lock:
                    first_error[0] = min(first_error[0], i)
                return done + [exc]
        return done

    pool = _pool(workers)
    results = [f.result() for f in [pool.submit(lane, j) for j in range(lanes)]]
    if first_error[0] < len(spans):
        i = first_error[0]
        raise results[i % lanes][i // lanes]
    return [results[i % lanes][i // lanes] for i in range(len(spans))]


def blocked_pair_reduce(n_rows: int, row_block_sum, block: int = 64) -> float:
    """Reduce a virtual ``n_rows``-row matrix to a scalar, deterministically.

    ``row_block_sum(i0, i1)`` must return the (compensated) sum of rows
    ``i0:i1``.  Blocks run through :func:`blocked_map`; partials are merged
    in ascending block order.
    """
    return neumaier_sum(blocked_map(n_rows, row_block_sum, block))
