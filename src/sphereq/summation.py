"""Deterministic reductions for pairwise kernel sums.

All double sums in this package reduce through :func:`block_sum`: the input is
split into fixed-size blocks, each block is summed by numpy's pairwise
reduction, and the per-block partials are merged with Neumaier compensation in
block order, so results are bit-identical from run to run.

Row-blocked work runs through :func:`blocked_map`, a plain loop over the row
spans on the calling thread.  Each block fills that thread's
:func:`block_buffers` again and again instead of allocating; the buffers are
thread-local, so callers may run sphereq from threads of their own.
"""

from __future__ import annotations

import threading

import numpy as np

BLOCK = 1 << 14

#: Largest pair of block buffers a thread keeps between calls: the k-NN
#: blocks up to N of about 4000 and the pair-sum blocks up to about 8000.
KEEP_BYTES = 1 << 23

_scratch = threading.local()


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

    The blocks of a map fill them in turn, which spares each block the page
    faults of fresh block-sized arrays.  They belong to the calling thread,
    so threads that call sphereq at the same time never share them.  The
    thread keeps them, grown to its largest request up to KEEP_BYTES, and
    overwrites them on its next call, so a block must not hold them past its
    return.  Larger requests get buffers of their own, which are freed with
    the block.
    """
    size = rows * cols
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.size < 2 * size:
        buf = np.empty(2 * size)
        if buf.nbytes <= KEEP_BYTES:
            _scratch.buf = buf
    return buf[:size].reshape(rows, cols), buf[size : 2 * size].reshape(rows, cols)


def blocked_map(n_rows: int, row_block, block: int = 64) -> list:
    """``[row_block(i0, i1)]`` over the ``block``-row spans of ``n_rows`` rows.

    The spans run in order on the calling thread, so the first span that
    raises stops the map with its exception.
    """
    return [row_block(i, min(i + block, n_rows)) for i in range(0, n_rows, block)]


def blocked_pair_reduce(n_rows: int, row_block_sum, block: int = 64) -> float:
    """Reduce a virtual ``n_rows``-row matrix to a scalar, deterministically.

    ``row_block_sum(i0, i1)`` must return the (compensated) sum of rows
    ``i0:i1``.  Blocks run through :func:`blocked_map`; partials are merged
    in ascending block order.
    """
    return neumaier_sum(blocked_map(n_rows, row_block_sum, block))
