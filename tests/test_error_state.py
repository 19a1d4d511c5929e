"""numpy's error state is the caller's again after every public call.

Kernel chains make +-inf and NaN at coincidence and on overflow, so the hot
loops run them in an error state that ignores divide, over and invalid.
Each public call below must hand back the state it was called in, on a
normal return and on a raise, whether that state is numpy's default or
already ignores everything.  A greedy sequence enters the state a fixed
number of times, however many nodes it places.
"""

import numpy as np
import pytest
from numpy._core import _ufunc_config

from sphereq.discrepancy import (
    EXCLUDE,
    PointSet,
    WeightedMeasure,
    energy,
    mean_pair_discrepancy,
    measure_inner_product,
    rms_discrepancy,
    signed_discrepancy,
)
from sphereq.errors import (
    CapabilityError,
    ConditioningError,
    ConfigurationError,
    DomainError,
    SingularKernelError,
)
from sphereq.interpolation import epsilon_sweep, fit_interpolant, franke_eval, loocv_errors_fast
from sphereq.kernels import (
    KernelSpec,
    kernel_eval,
    kernel_series_eval,
    kernel_t_derivative,
    parse_kernel,
)
from sphereq.legendre import legendre_derivative_eval
from sphereq.pointgen import (
    RefineParams,
    _polish,
    candidate_grid,
    greedy_generate,
    greedy_next,
    knn_indices,
    random_unit_points,
    riesz_refine,
)

PYCKE = KernelSpec("pycke")
CF = KernelSpec("cui-freeden")
CF3 = KernelSpec("cui-freeden", m=3)  # refused inside the error state
NAN_GRID = parse_kernel("riesz:s=-2001:d2")  # its grid sums make NaN and -inf
FAR = KernelSpec("riesz", s=-2000.0)  # overflows on far pairs
P20 = random_unit_points(20, seed=1)
P998 = random_unit_points(998, seed=1)  # many k-NN blocks, where P20 is one
Y20 = franke_eval(P20.points)
GRID16 = candidate_grid(16)


def _with_duplicate(pts):
    p = pts.points.copy()
    p[7] = p[3]
    return PointSet(p)


MU = WeightedMeasure(P20, np.linspace(-1.0, 1.0, 20))

CALLS = [
    ("greedy_generate", lambda: greedy_generate(6, PYCKE, seed=1, grid_size=64), None),
    ("greedy_generate", lambda: greedy_generate(4, NAN_GRID, 1, 16), ConditioningError),
    ("greedy_next", lambda: greedy_next(P20, parse_kernel("pycke:d2"), candidate_grid(64)), None),
    ("greedy_next", lambda: greedy_next(PointSet(GRID16.points.points[:1]), NAN_GRID, GRID16),
     ConditioningError),
    ("riesz_refine", lambda: riesz_refine(P20, RefineParams(k_neighbors=3, iterations=3)), None),
    ("riesz_refine", lambda: riesz_refine(_with_duplicate(P20), RefineParams(3, 3)), DomainError),
    ("riesz_refine", lambda: riesz_refine(P998, RefineParams(k_neighbors=12, iterations=11)), None),
    ("riesz_refine", lambda: riesz_refine(_with_duplicate(P998), RefineParams(12, 3)), DomainError),
    ("knn_indices", lambda: knn_indices(P998, 12), None),
    ("knn_indices", lambda: knn_indices(P998, 998), DomainError),
    ("rms_discrepancy", lambda: rms_discrepancy(P20, CF), None),
    ("rms_discrepancy", lambda: rms_discrepancy(_with_duplicate(P20), PYCKE, EXCLUDE),
     SingularKernelError),
    ("mean_pair_discrepancy", lambda: mean_pair_discrepancy(P20, PYCKE, EXCLUDE), None),
    ("mean_pair_discrepancy", lambda: mean_pair_discrepancy(P20, CF3), CapabilityError),
    ("energy", lambda: energy(P20, KernelSpec("riesz", s=1.0)), None),
    ("energy", lambda: energy(P20, FAR), ConditioningError),
    ("measure_inner_product", lambda: measure_inner_product(MU, MU, CF), None),
    ("measure_inner_product", lambda: measure_inner_product(MU, MU, CF3), CapabilityError),
    ("signed_discrepancy", lambda: signed_discrepancy(MU, MU, KernelSpec("gine")), None),
    ("signed_discrepancy", lambda: signed_discrepancy(MU, MU, FAR), ConditioningError),
    ("fit_interpolant", lambda: fit_interpolant(P20, Y20, CF, 2.0), None),
    ("fit_interpolant", lambda: fit_interpolant(P20, Y20, CF3, 2.0), CapabilityError),
    ("loocv_errors_fast", lambda: loocv_errors_fast(P20, Y20, PYCKE, 2.0, 0.1), None),
    ("loocv_errors_fast", lambda: loocv_errors_fast(P20, Y20, CF3, 2.0), CapabilityError),
    ("epsilon_sweep", lambda: epsilon_sweep(P20, Y20, CF, (1.0, 2.0)), None),
    ("epsilon_sweep", lambda: epsilon_sweep(P20, Y20, CF3, (1.0, 2.0)), ConfigurationError),
    ("kernel_eval", lambda: kernel_eval(PYCKE, np.array([0.3, -1.0])), None),
    ("kernel_eval", lambda: kernel_eval(KernelSpec("gine", m=1), [0.2, -1.0]), SingularKernelError),
    ("kernel_eval", lambda: kernel_eval(FAR, -1.0), ConditioningError),
    ("kernel_t_derivative", lambda: kernel_t_derivative(PYCKE, np.array([1.0, -1.0])), None),
    ("kernel_t_derivative", lambda: kernel_t_derivative(KernelSpec("gine"), 0.3), CapabilityError),
    ("legendre_derivative_eval", lambda: legendre_derivative_eval(400, 100, 0.9), None),
    ("legendre_derivative_eval", lambda: legendre_derivative_eval(350, 100, 1.0),
     ConditioningError),
    ("kernel_series_eval", lambda: kernel_series_eval("pycke", 100, [0.9, 0.2], 400), None),
    ("kernel_series_eval", lambda: kernel_series_eval("pycke", 120, 0.3, 600), ConditioningError),
]


@pytest.mark.parametrize("outer", ["default", "all ignored"])
@pytest.mark.parametrize(
    "name, call, error", CALLS, ids=[f"{n}-{'raises' if e else 'returns'}" for n, _, e in CALLS]
)
def test_the_error_state_is_the_callers_again(outer, name, call, error):
    with np.errstate(all="ignore") if outer == "all ignored" else np.errstate():
        before = np.geterr()
        if error is None:
            call()
        else:
            with pytest.raises(error):
                call()
        assert np.geterr() == before, name


class _CountingVar:
    """numpy's error-state context variable, counting the states set on it."""

    def __init__(self, var):
        self.var, self.entries = var, 0

    def set(self, value):
        self.entries += 1
        return self.var.set(value)

    def reset(self, token):
        self.var.reset(token)

    def get(self, *default):
        return self.var.get(*default)


def _entries(monkeypatch, call) -> int:
    with monkeypatch.context() as patch:
        var = _CountingVar(_ufunc_config._extobj_contextvar)
        patch.setattr(_ufunc_config, "_extobj_contextvar", var)
        call()
    return var.entries


def test_the_counter_sees_both_forms_of_errstate(monkeypatch):
    decorated = np.errstate(divide="ignore")(lambda: np.geterr())

    def both():
        with np.errstate(over="ignore"):
            decorated()

    assert _entries(monkeypatch, both) == 2


@pytest.mark.parametrize("name", ["pycke", "pycke:d1", "pycke:d2", "cui-freeden", "riesz:s=1"])
def test_a_greedy_sequence_enters_the_error_state_as_often_for_10_nodes_as_for_40(
    name, monkeypatch
):
    # a kernel chain, a polish iteration or a grid update that entered the
    # state itself would make the count grow with the nodes
    spec = parse_kernel(name)
    greedy_generate(3, spec, seed=1, grid_size=256)  # resolves the kernel's plan
    counts = [
        _entries(monkeypatch, lambda: greedy_generate(n, spec, seed=1, grid_size=256))
        for n in (10, 40)
    ]
    assert counts[0] == counts[1] >= 1


def test_one_polish_enters_the_error_state_once(monkeypatch):
    nodes = random_unit_points(30, seed=2).points
    eta = random_unit_points(1, seed=3).points[0]
    _polish(eta, nodes, PYCKE, 0.05)  # resolves the kernel's plan
    assert _entries(monkeypatch, lambda: _polish(eta, nodes, PYCKE, 0.05)) == 1
