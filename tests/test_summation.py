import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from sphereq import summation
from sphereq.summation import block_buffers, blocked_map, blocked_pair_reduce


def recording_rows(seen, lock):
    def rows(i0, i1):
        time.sleep(0.002)  # long enough for every pool thread to take a block
        with lock:
            seen.add(threading.get_ident())
        return float(i1 - i0)

    return rows


def test_pool_is_reused_and_follows_the_thread_setting(monkeypatch):
    seen, lock = set(), threading.Lock()
    rows = recording_rows(seen, lock)
    monkeypatch.setenv("SPHERE_EQ_THREADS", "2")
    assert blocked_pair_reduce(640, rows) == 640.0
    started = threading.active_count()
    for _ in range(10):
        assert blocked_pair_reduce(640, rows) == 640.0
    assert threading.active_count() == started
    two = set(seen)
    assert 1 < len(two) <= 2 and threading.get_ident() not in two

    seen.clear()
    monkeypatch.setenv("SPHERE_EQ_THREADS", "3")
    assert blocked_pair_reduce(640, rows) == 640.0
    assert 1 < len(seen) <= 3 and not seen & two

    seen.clear()
    monkeypatch.setenv("SPHERE_EQ_THREADS", "1")
    assert blocked_pair_reduce(640, rows) == 640.0
    assert seen == {threading.get_ident()}


def reduce_in_child(queue):
    queue.put(blocked_pair_reduce(640, lambda i0, i1: float(i1 - i0)))


def test_forked_child_gets_working_pools(monkeypatch):
    # the child inherits the parent's pool objects but none of their threads
    monkeypatch.setenv("SPHERE_EQ_THREADS", "2")
    blocked_pair_reduce(640, lambda i0, i1: 0.0)
    assert summation._pools
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=reduce_in_child, args=(queue,))
    child.start()
    try:
        assert queue.get(timeout=30) == 640.0
    finally:
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


def spans_of(n_rows, block=64):
    return [(i, min(i + block, n_rows)) for i in range(0, n_rows, block)]


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_blocked_map_returns_blocks_in_order(workers, monkeypatch):
    monkeypatch.setenv("SPHERE_EQ_THREADS", str(workers))
    per_lane = summation.LANE_SPANS
    # span counts below, at and above the worker count, and around the
    # fewest blocks that get a second lane
    counts = {1, 2, workers, workers + 1, 2 * per_lane - 1, 2 * per_lane,
              per_lane * workers, per_lane * workers + 3}
    for n_spans in sorted(counts):
        n_rows = 64 * n_spans - 5
        got = blocked_map(n_rows, lambda i0, i1: (i0, i1, threading.get_ident()))
        assert [g[:2] for g in got] == spans_of(n_rows)
        lanes = min(workers, n_spans // per_lane)
        threads = {g[2] for g in got}
        if lanes <= 1:
            assert threads == {threading.get_ident()}
        else:
            # one lane per worker, each run on a single pool thread
            assert threading.get_ident() not in threads
            for lane in range(lanes):
                assert len({g[2] for g in got[lane::lanes]}) == 1
    assert blocked_map(0, lambda i0, i1: None) == []


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


def test_worker_count_follows_the_cpu_affinity(monkeypatch):
    monkeypatch.delenv("SPHERE_EQ_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
    assert summation.worker_count() == 3
    for raw, expect in (("2", 2), ("0", 3), ("many", 3), ("", 3)):
        monkeypatch.setenv("SPHERE_EQ_THREADS", raw)
        assert summation.worker_count() == expect
    # platforms without an affinity call fall back to the CPU count
    monkeypatch.delattr(os, "sched_getaffinity")
    assert summation.worker_count() == 64


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
