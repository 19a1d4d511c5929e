import math
import sys
import threading
import time

import numpy as np
import pytest

from sphereq import discrepancy, pointgen, summation
from sphereq.kernels import KernelSpec
from sphereq.summation import block_buffers, blocked_map


class BlockError(Exception):
    pass


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_blocked_map_raises_the_lowest_failing_block(workers, monkeypatch):
    monkeypatch.setenv("SPHERE_EQ_THREADS", str(workers))

    def rows(i0, i1):
        block = i0 // 64
        if block == 3:
            time.sleep(0.05)  # the lowest failure comes last in time
            raise BlockError(block)
        if block in (5, 6, 8):
            raise (KeyError if block == 6 else BlockError)(block)
        return block

    with pytest.raises(BlockError) as err:
        blocked_map(64 * 17, rows)  # up to four lanes
    assert err.value.args == (3,)
    assert blocked_map(192, rows) == [0, 1, 2]


def test_block_buffers_are_reused_per_thread():
    a, b = block_buffers(10, 7)
    assert a.shape == b.shape == (10, 7) and not np.shares_memory(a, b)
    c, _ = block_buffers(5, 3)
    assert np.shares_memory(a, c)  # a smaller request reuses the same memory
    rows = summation.KEEP_BYTES // (2 * 8 * 100) + 1
    big, _ = block_buffers(rows, 100)  # above the cap: used once, not kept
    assert not np.shares_memory(big, a)
    assert np.shares_memory(block_buffers(10, 7)[0], a)
    other = []
    worker = threading.Thread(target=lambda: other.extend(block_buffers(10, 7)))
    worker.start()
    worker.join()
    assert not any(np.shares_memory(x, y) for x in (a, b) for y in other)


def test_lanes_keep_their_buffers_under_thread_switching(monkeypatch):
    # more workers than cores, switching as often as the interpreter allows:
    # a lane that saw another thread's buffers, or a lost update of the
    # lowest failure, would change the outcome
    monkeypatch.setenv("SPHERE_EQ_THREADS", "8")

    def rows(i0, i1):
        a, b = block_buffers(i1 - i0, 50)
        a.fill(i0)
        b.fill(-i0)
        for _ in range(10):
            np.sqrt(a + 1.0)  # releases the GIL
        assert (a == i0).all() and (b == -i0).all()
        if i0 // 64 in (11, 40, 57):
            raise BlockError(i0 // 64)
        return i0

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 10.0
        for _ in range(20):
            with pytest.raises(BlockError) as err:
                blocked_map(64 * 64, rows)
            assert err.value.args == (11,)
            assert blocked_map(64 * 11, rows) == list(range(0, 64 * 11, 64))
            if time.monotonic() > deadline:
                break
    finally:
        sys.setswitchinterval(interval)


def test_pair_sums_and_knn_run_every_block_on_the_calling_thread(monkeypatch):
    # each block takes its buffers once, so recording that call shows which
    # thread ran the block and how many threads were alive meanwhile
    calls = []

    def recording(rows, cols):
        calls.append((threading.get_ident(), threading.active_count()))
        return block_buffers(rows, cols)

    monkeypatch.setattr(discrepancy, "block_buffers", recording)
    monkeypatch.setattr(pointgen, "block_buffers", recording)
    pts = pointgen.random_unit_points(998, seed=1)
    started = threading.active_count()
    blocks = math.ceil(998 / 64)
    for spec, policy in ((KernelSpec("cui-freeden"), "include"), (KernelSpec("pycke"), "exclude")):
        discrepancy._pair_kernel_sum(pts, spec, policy)
    assert len(calls) == 2 * blocks
    pointgen.knn_indices(pts, 12)
    assert len(calls) == 2 * blocks + math.ceil(998 / pointgen.KNN_ROWS)
    assert set(calls) == {(threading.get_ident(), started)}
    assert threading.active_count() == started
