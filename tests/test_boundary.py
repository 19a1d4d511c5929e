"""Every public function and dataclass of sphereq meets bad arguments alike.

Each name in ``sphereq.__all__`` (modules, constants and exception classes
aside) has an entry in CASES: ordinary values for each argument, and the
arguments that may take an extreme value instead (NaN, +-inf, 0, -1, 2.5,
1e308; an array argument takes it in one entry).  A call must give a finite
result or raise an error whose class lives in ``sphereq.errors``.  A numpy
error (TypeError, IndexError, ValueError), a NaN in the result and a
RuntimeWarning all fail, and so does a public name without an entry.
"""

import dataclasses
import inspect
import math
import os
import tempfile
import types
import warnings
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphereq
from sphereq import errors
from sphereq.kernels import CHORDAL

EXTREMES = (math.nan, math.inf, -math.inf, 0, -1, 2.5, 1e308)
# a Legendre degree of 1e308 is valid; its recurrence would only take 1e308 steps
DEGREE_EXTREMES = EXTREMES[:-1]

SPHEREQ_ERRORS = tuple(
    cls
    for cls in vars(errors).values()
    if inspect.isclass(cls) and issubclass(cls, Exception) and cls.__module__ == errors.__name__
)

P6 = sphereq.random_unit_points(6, seed=1)
P12 = sphereq.random_unit_points(12, seed=2)
Y12 = sphereq.franke_eval(P12.points)
CF = sphereq.KernelSpec("cui-freeden")
SPECS = (
    sphereq.KernelSpec("pycke"),
    sphereq.KernelSpec("pycke", m=2),
    sphereq.KernelSpec("cui-freeden", m=1),
    sphereq.KernelSpec("cui-freeden", convention=CHORDAL),
    sphereq.KernelSpec("gine"),
    sphereq.KernelSpec("riesz", s=1.0),
    sphereq.KernelSpec("riesz", s=-2000.0),
    sphereq.KernelSpec("riesz", s=-2000.0, shifted=True),
)
FAMILIES = sphereq.FAMILIES
MODEL = sphereq.fit_interpolant(P12, Y12, CF, 2.0, 0.0, 1)
MEASURES = (
    sphereq.WeightedMeasure(P6, np.full(6, 1.0 / 6.0)),
    sphereq.WeightedMeasure(P12, np.linspace(-1.0, 1.0, 12)),
)
UNIT_X = (0.3, -1.0, 1.0, np.array([-0.2, 0.7]))


def _read(rows):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "pts.csv")
        with open(path, "w") as fh:
            fh.write("x,y,z\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
        return sphereq.read_pointset(path)


def _write(pts):
    with tempfile.TemporaryDirectory() as d:
        return sphereq.write_pointset(os.path.join(d, "pts.csv"), pts)


def _symbol_value(family, s, n):
    return sphereq.SymbolSequence(family, s).value(n)


class Case(NamedTuple):
    ordinary: dict  # argument -> ordinary values
    extreme: dict = {}  # argument -> extreme values it may take instead
    call: Callable | None = None  # a wrapper, where the name needs a file or a method
    inf_ok: bool = False  # +-inf is a documented value, NaN still is not


def _all(*names, values=EXTREMES):
    return {name: values for name in names}


# records the package fills in take ordinary values only
CASES = {
    "legendre_eval": Case(
        {"n": (0, 1, 3, 8), "x": UNIT_X}, {"n": DEGREE_EXTREMES, "x": EXTREMES}
    ),
    "legendre_derivative_eval": Case(
        {"n": (0, 3, 8), "m": (0, 1, 2, 9), "x": UNIT_X},
        {"n": DEGREE_EXTREMES, **_all("m", "x")},
    ),
    "legendre_norm": Case({"n": (0, 3)}, _all("n")),
    "harmonic_dimension": Case({"d": (1, 2, 3), "n": (0, 3)}, _all("d", "n")),
    "rodrigues_coefficients": Case({"n": (0, 3, 8)}, _all("n")),
    "PolynomialCoefficients": Case(
        {"degree": (1,), "coeffs": ((Fraction(1), Fraction(2)),)}, _all("degree")
    ),
    "KernelSpec": Case(
        {"family": ("riesz",), "m": (0, 1, 2), "s": (1.0, -0.5, 0.0)}, _all("m", "s")
    ),
    "parse_kernel": Case(
        {"name": ("pycke", "riesz:s=1:d1", "cui-freeden:d2", "gine")},
        {"name": tuple(f"riesz:s={x!r}" for x in EXTREMES) + ("pycke:d-1", "pycke:d2.5")},
    ),
    "kernel_derivative": Case({"spec": SPECS}),
    "is_singular_at_coincidence": Case({"spec": SPECS}),
    "kernel_uniform_mean": Case({"spec": SPECS}),
    "kernel_eval": Case({"spec": SPECS, "x": UNIT_X}, _all("x")),
    "kernel_series_eval": Case(
        {"family": FAMILIES, "m": (0, 1, 2), "t": UNIT_X, "n_max": (1, 5, 8), "s": (0.5, 1.0)},
        _all("m", "t", "n_max", "s"),
    ),
    # an overflowed symbol is +-inf, and its series weight 0
    "symbol_squared": Case(
        {"family": FAMILIES, "n": (1, 2, 7, 8), "s": (0.5, 1.0, -0.5)}, _all("n", "s"), inf_ok=True
    ),
    "SymbolSequence": Case(
        {"family": FAMILIES, "s": (0.5, 1.0), "n": (1, 4)}, _all("s", "n"), _symbol_value, True
    ),
    "PointSet": Case({"points": (P6.points, P12.points), "seed": (None, 3)}, _all("points")),
    "WeightedMeasure": Case(
        {"points": (P6,), "weights": (np.full(6, 1.0 / 6.0), np.linspace(-1.0, 1.0, 6))},
        _all("weights"),
    ),
    "DiscrepancyReport": Case(
        {"kernel": (CF,), "n_points": (6,), "method": ("pairwise_rms",),
         "diagonal_policy": ("include",), "m": (0,), "value": (0.1,)}
    ),
    "energy": Case({"pts": (P6, P12), "spec": SPECS}),
    "mean_pair_discrepancy": Case(
        {"pts": (P6, P12), "spec": SPECS, "diagonal_policy": ("include", "exclude")}
    ),
    "rms_discrepancy": Case(
        {"pts": (P6, P12), "spec": SPECS, "diagonal_policy": ("include", "exclude")}
    ),
    "measure_inner_product": Case({"mu": MEASURES, "omega": MEASURES, "spec": SPECS}),
    "signed_discrepancy": Case({"mu": MEASURES, "omega": MEASURES, "spec": SPECS}),
    "series_generalized_discrepancy": Case(
        {"pts": (P6, P12), "family": FAMILIES, "m": (0, 1, 2), "n_max": (1, 5, 8), "s": (0.5, 1.0)},
        _all("m", "n_max", "s"),
    ),
    "min_generalized_discrepancy": Case(
        {"pts": (P6, P12), "family": FAMILIES, "m_range": ((0, 1, 2), (1,)), "n_max": (1, 5, 8),
         "s": (0.5, 1.0)},
        _all("m_range", "n_max", "s"),
    ),
    "CandidateGrid": Case({"size": (16,), "points": (sphereq.candidate_grid(16).points,)}),
    "RefineParams": Case(
        {"k_neighbors": (3, 12), "iterations": (1, 200), "riesz_s": (1.0, 0.5),
         "offset": (19.0, 1.0)},
        _all("k_neighbors", "iterations", "riesz_s", "offset"),
    ),
    "candidate_grid": Case({"m": (16, 40)}, _all("m")),
    "random_unit_points": Case({"n": (1, 6), "seed": (0, 9)}, _all("n", "seed")),
    "greedy_initial": Case({"seed": (0, 5)}, _all("seed")),
    "greedy_next": Case({"pts": (P6,), "spec": SPECS, "grid": (sphereq.candidate_grid(32),)}),
    "greedy_generate": Case(
        {"n": (1, 3, 5), "spec": SPECS, "seed": (0, 4), "grid_size": (16, 32)},
        _all("n", "seed", "grid_size"),
    ),
    "knn_indices": Case({"pts": (P12,), "k": (1, 3, 11)}, _all("k")),
    "riesz_refine": Case(
        {"pts": (P12,), "params": (sphereq.RefineParams(3, 2), sphereq.RefineParams(11, 1, 0.5)),
         "history": (True, False)}
    ),
    "InterpolantModel": Case(
        {f.name: (getattr(MODEL, f.name),) for f in dataclasses.fields(MODEL)}
    ),
    "SweepReport": Case(
        {"rows": ([(1.0, 0.5, "ok"), (2.0, None, "failed")],), "best_epsilon": (1.0,),
         "best_mse": (0.5,)}
    ),
    "franke_eval": Case({"p": (P6.points, P6.points[0])}, _all("p")),
    "monomial_basis": Case(
        {"points": (P6.points,), "degree": (-1, 0, 1, 2)}, _all("points", "degree")
    ),
    "fit_interpolant": Case(
        {"centers": (P12,), "y": (Y12,), "spec": (CF,), "epsilon": (1.0, 2.0), "sigma": (0.0, 0.1),
         "poly_degree": (-1, 0, 1)},
        _all("y", "epsilon", "sigma", "poly_degree"),
    ),
    "interpolant_eval": Case({"model": (MODEL,), "p": (P6.points, P6.points[2])}, _all("p")),
    "loocv_errors_fast": Case(
        {"centers": (P12,), "y": (Y12,), "spec": (CF,), "epsilon": (1.0, 2.0), "sigma": (0.0, 0.1),
         "poly_degree": (-1, 0, 1)},
        _all("y", "epsilon", "sigma", "poly_degree"),
    ),
    "loocv_errors_slow": Case(
        {"centers": (P12,), "y": (Y12,), "spec": (CF,), "epsilon": (1.0, 2.0), "sigma": (0.0, 0.1),
         "poly_degree": (-1, 0, 1)},
        _all("y", "epsilon", "sigma", "poly_degree"),
    ),
    "epsilon_sweep": Case(
        {"centers": (P12,), "y": (Y12,), "spec": (CF,), "eps_grid": ([1.0, 2.0],),
         "sigma": (0.0, 0.1), "poly_degree": (-1, 0, 1)},
        _all("y", "eps_grid", "sigma", "poly_degree"),
    ),
    "spherical_to_cartesian": Case({"theta": (0.0, 0.5), "phi": (1.0, 3.0)}, _all("theta", "phi")),
    "cartesian_to_spherical": Case({"p": (P6.points[0], np.array([0.0, 0.0, 1.0]))}, _all("p")),
    "read_pointset": Case({"rows": (P6.points,)}, _all("rows"), _read),
    "write_pointset": Case({"pts": (P6,)}, call=_write),
    "run_table1": Case(
        {"seeds": ((1,),), "grid_size": (16,), "n_list": ((2, 3),), "n_max": (4,)},
        _all("seeds", "grid_size", "n_list", "n_max"),
    ),
    "run_table2": Case(
        {"seeds": ((1,),), "params": (sphereq.RefineParams(2, 2),), "n_list": ((4, 5),)},
        _all("seeds", "n_list"),
    ),
}


def _public_entry_points() -> set:
    names = set()
    for name in sphereq.__all__:
        obj = getattr(sphereq, name)
        if inspect.isclass(obj) and issubclass(obj, BaseException):
            continue
        if inspect.isfunction(obj) or dataclasses.is_dataclass(obj):
            names.add(name)
        else:
            assert isinstance(obj, (types.ModuleType, int, tuple)), name
    return names


def test_every_public_entry_point_has_a_case():
    assert set(CASES) == _public_entry_points()


def _with_extreme(value, extreme, index):
    """``value`` with ``extreme`` in place, or in one entry of an array."""
    if isinstance(value, (np.ndarray, list, tuple)):
        arr = np.array(value, dtype=float)
        arr.flat[index % arr.size] = extreme
        return tuple(arr.tolist()) if isinstance(value, tuple) else arr
    return extreme


def _nan_free(value, inf_ok: bool) -> bool:
    if isinstance(value, (float, np.floating)):
        return not math.isnan(value) if inf_ok else math.isfinite(value)
    if isinstance(value, np.ndarray) and value.dtype.kind in "fc":
        return not np.isnan(value).any() if inf_ok else bool(np.isfinite(value).all())
    if isinstance(value, (tuple, list)):
        return all(_nan_free(v, inf_ok) for v in value)
    if isinstance(value, dict):
        return _nan_free(list(value.values()), inf_ok)
    if dataclasses.is_dataclass(value):
        return all(_nan_free(getattr(value, f.name), inf_ok) for f in dataclasses.fields(value))
    return True  # ints, Fractions, strings, bools and None


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_public_names_return_finite_values_or_raise_their_own_errors(name, data):
    case = CASES[name]
    kwargs = {arg: data.draw(st.sampled_from(values), arg) for arg, values in case.ordinary.items()}
    if case.extreme and data.draw(st.integers(0, 3)):  # three examples in four
        arg = data.draw(st.sampled_from(sorted(case.extreme)), "extreme argument")
        extreme = data.draw(st.sampled_from(case.extreme[arg]), "extreme value")
        kwargs[arg] = _with_extreme(kwargs[arg], extreme, data.draw(st.integers(0, 35), "entry"))
    call = case.call or getattr(sphereq, name)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            result = call(**kwargs)
        except SPHEREQ_ERRORS:
            return
    assert _nan_free(result, case.inf_ok), (name, kwargs, result)
