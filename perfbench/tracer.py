"""Per-layer timers and counters, taken by wrapping the program's public functions.

``Tracer.install`` replaces each wrapped function in every sphereq module
that holds a reference to it, so calls between modules are seen as well as
calls from the benchmark; ``uninstall`` puts the originals back.  Nothing
inside the program changes.  Wrapped calls can come from the worker threads
of the pairwise reductions, so the accumulators take a lock.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np

SMALL_LOOCV_N = 64  # fast-LOOCV calls up to this size count as "small"


class Tracer:
    def __init__(self, sq):
        self.sq = sq
        self.lock = threading.Lock()
        self.time = defaultdict(float)
        self.count = defaultdict(int)
        self.loocv = []  # (N, seconds) per loocv_errors_fast call
        self.greedy = None  # (kernel name, grid size) of the running greedy sequence
        self.saved = []

    def add(self, key, seconds, n=1):
        with self.lock:
            self.time[key] += seconds
            self.count[key] += n

    # ------------------------------------------------------------ wrapping

    def _replace(self, original, make):
        mods = [m for name, m in sys.modules.items() if name == "sphereq" or name.startswith("sphereq.")]
        for mod in mods:
            caller = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    self.saved.append((mod, attr, obj))
                    setattr(mod, attr, make(original, caller))

    def _timed(self, key):
        def make(f, caller):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return f(*args, **kwargs)
                finally:
                    self.add(key, time.perf_counter() - t0)
            return wrapper
        return make

    def install(self):
        sq = self.sq
        self._replace(sq.kernels.kernel_eval, self._kernel_eval)
        self._replace(sq.kernels.kernel_t_derivative, self._kernel_t_derivative)
        self._replace(sq.pointgen.greedy_generate, self._greedy_generate)
        self._replace(sq.pointgen.riesz_refine, self._timed("pointgen.riesz_refine"))
        self._replace(sq.pointgen.knn_indices, self._timed("pointgen.knn"))
        for f in (sq.discrepancy.rms_discrepancy, sq.discrepancy.mean_pair_discrepancy):
            self._replace(f, self._pair_score)
        self._replace(sq.discrepancy.series_generalized_discrepancy, self._series)
        self._replace(sq.legendre.derivative_recurrence, self._recurrence)
        self._replace(sq.summation.block_sum, self._timed("summation.block_sum"))
        self._replace(sq.interpolation.loocv_errors_fast, self._loocv_fast)
        self._replace(sq.sphio.read_pointset, self._timed("sphio.read"))
        self._replace(sq.sphio.write_pointset, self._timed("sphio.write"))
        self._replace(sq.cli.main, self._timed("cli.main"))
        self._replace(sq.tables.series_node_discrepancy, self._timed("tables.ladder_score"))

    def uninstall(self):
        for mod, attr, obj in reversed(self.saved):
            setattr(mod, attr, obj)
        self.saved.clear()

    def _kernel_eval(self, f, caller):
        def wrapper(spec, x):
            t0 = time.perf_counter()
            try:
                return f(spec, x)
            finally:
                dt = time.perf_counter() - t0
                self.add("kernels.eval", dt)
                self.add("kernels.eval_args", 0.0, int(np.size(x)))
                if caller == "pointgen" and self.greedy is not None:
                    # one grid-sized call per placed node updates the grid
                    # sums; every other call is a polish objective evaluation
                    if int(np.size(x)) == self.greedy[1]:
                        self.add("pointgen.grid_update", dt)
                    else:
                        self.add("pointgen.polish_kernel", dt)
                        self.add(f"polish_objective:{self.greedy[0]}", dt)
        return wrapper

    def _kernel_t_derivative(self, f, caller):
        def wrapper(spec, x):
            t0 = time.perf_counter()
            try:
                return f(spec, x)
            finally:
                if caller == "pointgen" and self.greedy is not None:
                    dt = time.perf_counter() - t0
                    self.add("pointgen.polish_kernel", dt)
                    self.add(f"polish_gradient:{self.greedy[0]}", dt)
        return wrapper

    def _greedy_generate(self, f, caller):
        sig = inspect.signature(f)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            outer, self.greedy = self.greedy, (a["spec"].name, int(a["grid_size"]))
            t0 = time.perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                self.add("pointgen.greedy", time.perf_counter() - t0)
                self.add(f"nodes:{self.greedy[0]}", 0.0, int(a["n"]))
                self.greedy = outer
        return wrapper

    def _pair_score(self, f, caller):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.add("discrepancy.pair_score", dt)
                if caller == "pointgen":  # the refine history metric
                    self.add("pointgen.history", dt)
        return wrapper

    def _series(self, f, caller):
        sig = inspect.signature(f)

        def wrapper(*args, **kwargs):
            a = sig.bind(*args, **kwargs)
            a.apply_defaults()
            a = a.arguments
            t0 = time.perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                terms = len(a["pts"]) ** 2 * int(a["n_max"]) * (int(a["m"]) + 1)
                self.add("discrepancy.series", time.perf_counter() - t0)
                self.add("discrepancy.series_terms", 0.0, terms)
        return wrapper

    def _recurrence(self, f, caller):
        def wrapper(*args, **kwargs):
            gen = f(*args, **kwargs)
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    self.add("legendre.recurrence", time.perf_counter() - t0, 0)
                    return
                self.add("legendre.recurrence", time.perf_counter() - t0)
                yield item
        return wrapper

    def _loocv_fast(self, f, caller):
        def wrapper(centers, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return f(centers, *args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                with self.lock:
                    self.loocv.append((len(centers), dt))
        return wrapper

    # ------------------------------------------------------------ report

    def per_node(self, what):
        """Polish calls per placed node, by generation kernel and overall."""
        kernels = sorted(k.partition(":")[2] for k in self.count if k.startswith("nodes:"))
        out = {k: self.count[f"{what}:{k}"] / self.count[f"nodes:{k}"] for k in kernels}
        nodes = sum(self.count[f"nodes:{k}"] for k in kernels)
        total = sum(self.count[f"{what}:{k}"] for k in kernels)
        return (total / nodes if nodes else 0.0), out

    def metrics(self):
        t, c = self.time, self.count
        largest = max((n for n, _ in self.loocv), default=0)
        large = [dt for n, dt in self.loocv if n == largest]
        small = [dt for n, dt in self.loocv if n <= SMALL_LOOCV_N]
        obj, _ = self.per_node("polish_objective")
        grad, _ = self.per_node("polish_gradient")
        return {
            "pointgen.greedy_s": (t["pointgen.greedy"], "s"),
            "pointgen.polish_objective_evals_per_node": (obj, "count"),
            "pointgen.polish_gradient_evals_per_node": (grad, "count"),
            "pointgen.polish_kernel_s": (t["pointgen.polish_kernel"], "s"),
            "pointgen.grid_update_s": (t["pointgen.grid_update"], "s"),
            "pointgen.riesz_refine_s": (t["pointgen.riesz_refine"], "s"),
            "pointgen.knn_s": (t["pointgen.knn"], "s"),
            "pointgen.knn_calls": (c["pointgen.knn"], "count"),
            "pointgen.history_s": (t["pointgen.history"], "s"),
            "discrepancy.series_s": (t["discrepancy.series"], "s"),
            "discrepancy.series_terms_per_s": (_rate(c["discrepancy.series_terms"], t["discrepancy.series"]), "1/s"),
            "legendre.recurrence_s": (t["legendre.recurrence"], "s"),
            "discrepancy.pair_score_s": (t["discrepancy.pair_score"], "s"),
            "summation.block_sum_s": (t["summation.block_sum"], "s"),
            "summation.block_sum_calls": (c["summation.block_sum"], "count"),
            "kernels.eval_calls": (c["kernels.eval"], "count"),
            "kernels.eval_s": (t["kernels.eval"], "s"),
            "kernels.eval_args_per_s": (_rate(c["kernels.eval_args"], t["kernels.eval"]), "1/s"),
            "interpolation.loocv_fast_s": (statistics.median(large) if large else 0.0, "s"),
            "interpolation.loocv_small_us": (statistics.median(small) * 1e6 if small else 0.0, "us"),
            "sphio.read_s": (t["sphio.read"], "s"),
            "sphio.write_s": (t["sphio.write"], "s"),
            "cli.main_s": (t["cli.main"], "s"),
            "tables.ladder_score_s": (t["tables.ladder_score"], "s"),
        }


def _rate(n, seconds):
    return n / seconds if seconds > 0 else 0.0


def ns_per_arg(sq, family, seed, n=10**6, reps=5):
    """Median ns per argument of one closed-form evaluation over n dot products."""
    t = np.random.default_rng([seed, 5]).uniform(-1.0, 0.999, n)
    spec = sq.KernelSpec(family)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        sq.kernels.kernel_eval(spec, t)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / n * 1e9
