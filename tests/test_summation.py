import multiprocessing
import threading
import time

from sphereq import summation
from sphereq.summation import blocked_pair_reduce


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
