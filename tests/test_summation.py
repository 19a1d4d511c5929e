import sys
import threading

import numpy as np

from sphereq import discrepancy, pointgen
from sphereq.discrepancy import WeightedMeasure
from sphereq.kernels import KernelSpec

PAIR_CASES = ((KernelSpec("cui-freeden"), "include"), (KernelSpec("pycke"), "exclude"))


def _results(pts, mu, omega):
    sums = [discrepancy._pair_kernel_sum(pts, spec, policy).hex() for spec, policy in PAIR_CASES]
    knn = pointgen.knn_indices(pts, 12).tobytes()
    q = discrepancy.measure_inner_product(mu, omega, KernelSpec("cui-freeden")).hex()
    return sums, knn, q


def test_concurrent_callers_get_the_serial_bytes():
    # every block buffer belongs to one call, so two threads running the
    # blocked sums and k-NN scans at once must not see each other's blocks
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
