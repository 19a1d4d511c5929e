import sys
import threading

import numpy as np
import pytest

from sphereq import discrepancy, pointgen
from sphereq.discrepancy import WeightedMeasure
from sphereq.kernels import KernelSpec
from sphereq.summation import BLOCK, block_sum, neumaier_sum

PAIR_CASES = ((KernelSpec("cui-freeden"), "include"), (KernelSpec("pycke"), "exclude"))


def _results(pts, mu, omega):
    p = pts.points.T
    sums = [discrepancy._pair_kernel_sum(p, spec, policy).hex() for spec, policy in PAIR_CASES]
    knn = pointgen.knn_indices(pts, 12).tobytes()
    q = discrepancy.measure_inner_product(mu, omega, KernelSpec("cui-freeden")).hex()
    return sums, knn, q


def test_concurrent_callers_get_the_serial_bytes():
    # every block buffer belongs to one call, so two threads running the
    # blocked sums and k-NN searches at once must not see each other's blocks
    pts = pointgen.random_unit_points(998, seed=1)
    rng = np.random.default_rng(2)
    mu = WeightedMeasure(pointgen.random_unit_points(300, seed=3), rng.standard_normal(300))
    omega = WeightedMeasure(pointgen.random_unit_points(200, seed=4), rng.standard_normal(200))
    expect = _results(pts, mu, omega)
    started = threading.active_count()
    barrier = threading.Barrier(2, timeout=60)
    got = [[], []]

    def run(slot):
        barrier.wait()
        for _ in range(3):
            got[slot].append(_results(pts, mu, omega))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(slot,)) for slot in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[expect] * 3, [expect] * 3]
    assert threading.active_count() == started


def _np_sum_block_sum(arr):
    """block_sum as it was formed with the np.sum wrapper."""
    flat = np.ascontiguousarray(arr, dtype=float).ravel()
    if flat.size <= BLOCK:
        return float(np.sum(flat))
    return neumaier_sum([np.sum(flat[i : i + BLOCK]) for i in range(0, flat.size, BLOCK)])


@pytest.mark.parametrize("size", [0, 1, BLOCK, BLOCK + 1])
def test_block_sum_keeps_the_np_sum_bytes(size):
    rng = np.random.default_rng(size)
    wide = rng.standard_normal((size, 3))
    for arr in (
        rng.standard_normal(size),
        np.full(size, -0.0),  # a sum of negative zeros is -0.0
        -np.exp(rng.uniform(-700.0, 700.0, size)),
        wide[:, 1],  # strided, not contiguous
        np.asfortranarray(wide),
        wide.T,
    ):
        # float.hex tells the sign of a zero apart, so this compares every bit
        assert block_sum(arr).hex() == _np_sum_block_sum(arr).hex()
