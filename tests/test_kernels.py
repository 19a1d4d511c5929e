import math
import warnings

import numpy as np
import pytest
from test_boundary import SPECS as BOUNDARY_SPECS

from sphereq import pointgen
from sphereq.errors import CapabilityError, ConditioningError, DomainError, SingularKernelError
from sphereq.kernels import (
    CHORDAL,
    DOT_PRODUCT,
    KernelSpec,
    SymbolSequence,
    _descent_plan,
    _half_chords,
    _kernel_eval_u,
    _plan,
    _run,
    is_singular_at_coincidence,
    kernel_derivative,
    kernel_eval,
    kernel_series_eval,
    kernel_t_derivative,
    kernel_uniform_mean,
    parse_kernel,
    symbol_squared,
)

PYCKE = KernelSpec("pycke")
CF = KernelSpec("cui-freeden")
FOUR_PI = 4.0 * math.pi


def affine_calibration(series_fn, closed_fn, probes=(-0.5, 0.0, 0.5)):
    """Least-squares fit closed ~ a*series + b on a few probe arguments."""
    s = np.array([series_fn(t) for t in probes])
    c = np.array([closed_fn(t) for t in probes])
    design = np.column_stack([s, np.ones_like(s)])
    (a, b), *_ = np.linalg.lstsq(design, c, rcond=None)
    return a, b


# --- closed forms -----------------------------------------------------------

def test_pycke_zero_of_log():
    assert kernel_eval(PYCKE, 1.0 - 2.0 / math.e) == pytest.approx(0.0, abs=1e-15)


def test_cui_freeden_at_coincidence():
    assert kernel_eval(CF, 1.0) == 1.0


def test_pycke_at_antipode():
    assert kernel_eval(PYCKE, -1.0) == pytest.approx(-1.0 / FOUR_PI, rel=1e-14)


def test_cui_freeden_value():
    expect = 1.0 - 2.0 * math.log(1.0 + math.sqrt(2.0 / 3.0))
    assert kernel_eval(CF, -1.0 / 3.0) == pytest.approx(expect, rel=1e-14)
    assert expect == pytest.approx(-0.193819, abs=1e-6)


def test_riesz_closed_form():
    assert kernel_eval(KernelSpec("riesz", s=1.0), 0.5) == pytest.approx(1.0, rel=1e-14)


def test_gine_ajne_closed_forms():
    t = 0.3
    gine = 0.5 - (2.0 / math.pi) * math.sin(math.acos(t))
    ajne = 0.25 - math.acos(t) / (2.0 * math.pi)
    assert kernel_eval(KernelSpec("gine"), t) == pytest.approx(gine, rel=1e-14)
    assert kernel_eval(KernelSpec("ajne"), t) == pytest.approx(ajne, rel=1e-14)
    ajne2 = t / (2.0 * math.pi * (1.0 - t * t) ** 1.5)
    assert kernel_eval(KernelSpec("ajne", m=2), t) == pytest.approx(ajne2, rel=1e-14)


def test_singularity_errors_carry_kernel_name():
    with pytest.raises(SingularKernelError) as err:
        kernel_eval(PYCKE, 1.0)
    assert "pycke" in str(err.value)
    with pytest.raises(SingularKernelError):
        kernel_eval(KernelSpec("riesz", s=1.0), 1.0)
    with pytest.raises(SingularKernelError):
        kernel_eval(KernelSpec("riesz", s=0.0), 1.0)


def test_riesz_negative_exponent_is_bounded():
    assert kernel_eval(KernelSpec("riesz", s=-1.0), 1.0) == pytest.approx(0.0)


def test_domain_validation():
    with pytest.raises(DomainError):
        kernel_eval(PYCKE, 1.5)
    with pytest.raises(DomainError):
        kernel_eval(PYCKE.with_convention(CHORDAL), -0.2)
    with pytest.raises(DomainError):
        KernelSpec("riesz")  # missing exponent
    with pytest.raises(DomainError):
        KernelSpec("pycke", s=1.0)


def test_chordal_front_end_refuses_a_distance_beyond_the_diameter():
    # r = 3 used to give pycke -0.144 and a "singular at t = -1" for gine:d1
    for spec in (PYCKE.with_convention(CHORDAL), KernelSpec("gine", m=1, convention=CHORDAL)):
        with pytest.raises(DomainError, match="at most the diameter 2"):
            kernel_eval(spec, 3.0)
        with pytest.raises(DomainError, match="at most the diameter 2"):
            kernel_eval(spec, np.array([0.5, 2.0 + 2.0**-51]))
    chordal_cf = CF.with_convention(CHORDAL)
    with pytest.raises(DomainError, match="at most the diameter 2"):
        kernel_t_derivative(chordal_cf, 3.0)
    assert kernel_eval(chordal_cf, 2.0) == kernel_eval(CF, -1.0)


def test_front_end_refuses_nan_and_a_non_finite_chord():
    # a range test written as t < -1 or t > 1, or r < 0, lets NaN through
    for spec in (PYCKE, CF, KernelSpec("riesz", s=1.0)):
        chordal = spec.with_convention(CHORDAL)
        for fn in (kernel_eval, kernel_t_derivative):
            for t in (math.nan, np.array([0.2, math.nan])):
                with pytest.raises(DomainError, match=r"must lie in \[-1, 1\]"):
                    fn(spec, t)
            for r in (math.nan, math.inf, np.array([0.5, math.inf])):
                with pytest.raises(DomainError, match="must be finite and non-negative"):
                    fn(chordal, r)


@pytest.mark.parametrize(
    "fn, args",
    [
        (KernelSpec, ("pycke", math.nan)),
        (kernel_series_eval, ("pycke", 0, math.nan, 5)),
        (kernel_series_eval, ("pycke", -1, 0.5, 5)),
        (kernel_series_eval, ("pycke", 1.5, 0.5, 5)),
        (kernel_series_eval, ("pycke", 0, 0.5, 2.5)),
        (symbol_squared, ("riesz", 3, math.nan)),
        (symbol_squared, ("pycke", 2**53)),
    ],
    ids=lambda v: getattr(v, "__name__", repr(v)),
)
def test_nan_and_fractional_orders_raise_domain_error(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


@pytest.mark.parametrize("s", [-2000.0, 1e308, -1e308])
def test_a_riesz_symbol_log_gamma_cannot_form_raises(s):
    # inf - inf for a huge positive s; an even negative s meets gamma poles,
    # where the symbol is a finite product times 2^(s-2), which underflows
    if s > 0.0:
        with pytest.raises(ConditioningError, match="riesz symbol at degree 3 is nan$"):
            symbol_squared("riesz", 3, s)
    else:
        assert repr(symbol_squared("riesz", 3, s)) == "0.0"


def test_a_riesz_value_or_mean_that_overflows_raises():
    # 2^-s overflows for s <= -1024, and (2u)^-s at u = 1 for s = -2000
    plain = KernelSpec("riesz", s=-2000.0)
    shifted = KernelSpec("riesz", s=-2000.0, shifted=True)
    with pytest.raises(ConditioningError, match="overflows at s=-2000.0"):
        kernel_uniform_mean(plain)
    with pytest.raises(ConditioningError, match="overflows at s=-2000.0"):
        kernel_eval(shifted, 0.5)
    with pytest.raises(ConditioningError, match="overflows to -inf"):
        kernel_eval(plain, np.array([0.5, -1.0]))
    assert kernel_eval(plain, 0.5) == -1.0
    assert kernel_uniform_mean(shifted) == 0.0


# --- derivative kernels -----------------------------------------------------

def test_pycke_derivative_chain():
    d1 = kernel_derivative(PYCKE)
    assert d1.m == 1
    assert kernel_eval(d1, 0.0) == pytest.approx(1.0, rel=1e-14)
    d2 = kernel_derivative(d1)
    assert kernel_eval(d2, -1.0) == pytest.approx(0.25, rel=1e-14)
    with pytest.raises(CapabilityError):
        kernel_derivative(d2)


def test_cui_freeden_first_derivative_form():
    d1 = kernel_derivative(CF)
    u = math.sqrt((1.0 - 0.2) / 2.0)
    assert kernel_eval(d1, 0.2) == pytest.approx(1.0 / (1.0 + u), rel=1e-14)


def test_cui_freeden_chordal_taylor_derivatives():
    # |dK/dr| and |d2K/dr2|/2! of K(r) = 1 - 2 ln(1 + r/2), by central differences
    spec1 = KernelSpec("cui-freeden", m=1, convention=CHORDAL)
    spec2 = KernelSpec("cui-freeden", m=2, convention=CHORDAL)
    base = KernelSpec("cui-freeden", convention=CHORDAL)
    h1, h2 = 1e-6, 1e-4
    for r in np.linspace(0.1, 1.9, 13):
        fd1 = (kernel_eval(base, r + h1) - kernel_eval(base, r - h1)) / (2 * h1)
        assert -fd1 == pytest.approx(kernel_eval(spec1, r), rel=1e-8)
        fd2 = (
            kernel_eval(base, r + h2)
            - 2 * kernel_eval(base, r)
            + kernel_eval(base, r - h2)
        ) / h2**2
        assert fd2 / 2.0 == pytest.approx(kernel_eval(spec2, r), rel=1e-5)


def test_lemma_family_finite_difference():
    # central difference of the m=0 form matches the m=1 kernel up to one
    # global positive constant (1/4pi here), relative error < 1e-6
    h = 1e-5
    ts = np.linspace(-0.9, 0.9, 37)
    fd = (kernel_eval(PYCKE, ts + h) - kernel_eval(PYCKE, ts - h)) / (2 * h)
    ratio = fd / kernel_eval(KernelSpec("pycke", m=1), ts)
    scale = ratio[len(ratio) // 2]
    assert scale > 0
    assert np.max(np.abs(ratio / scale - 1.0)) < 1e-6


def test_riesz_zero_matches_pycke_affine():
    r0 = KernelSpec("riesz", s=0.0)
    ts = np.linspace(-0.9, 0.9, 25)
    a = np.asarray(kernel_eval(r0, ts))
    b = np.asarray(kernel_eval(PYCKE, ts))
    design = np.column_stack([a, np.ones_like(a)])
    (slope, inter), *_ = np.linalg.lstsq(design, b, rcond=None)
    assert slope == pytest.approx(1.0 / FOUR_PI, rel=1e-10)
    assert inter == pytest.approx((2 * math.log(2) - 1) / FOUR_PI, rel=1e-8)
    fit = slope * a + inter
    assert np.max(np.abs(fit - b)) < 1e-12


def test_argument_convention_coherence_exact():
    specs = [
        PYCKE, KernelSpec("pycke", m=1), KernelSpec("pycke", m=2),
        CF, KernelSpec("cui-freeden", m=1), KernelSpec("cui-freeden", m=2),
        KernelSpec("gine"), KernelSpec("ajne"),
        KernelSpec("riesz", s=1.0), KernelSpec("riesz", s=0.0),
        KernelSpec("riesz", s=-1.0),
    ]
    ts = np.linspace(-0.999, 0.999, 101)
    rs = np.sqrt(2.0 * (1.0 - ts))
    for spec in specs:
        dot = np.asarray(kernel_eval(spec, ts))
        chord = np.asarray(kernel_eval(spec.with_convention(CHORDAL), rs))
        assert np.array_equal(dot, chord), spec.name


def test_kernel_name_round_trip():
    for name in ("pycke", "pycke:d2", "cui-freeden:d1", "gine", "ajne",
                 "riesz:s=1", "riesz:s=1:d1", "riesz:s=0.5"):
        assert parse_kernel(name).name == name
    with pytest.raises(DomainError):
        parse_kernel("mystery")
    # six significant digits would name these riesz:s=2 and riesz:s=0.123457
    for s, name in ((1.9999999, "riesz:s=1.9999999"), (0.1234567, "riesz:s=0.1234567")):
        spec = KernelSpec("riesz", s=s)
        assert spec.name == name and parse_kernel(spec.name) == spec
    for spec in BOUNDARY_SPECS:
        if not spec.shifted:
            assert parse_kernel(spec.name) == spec.with_convention(DOT_PRODUCT)


def test_uniform_means():
    assert kernel_uniform_mean(CF) == 0.0
    assert kernel_uniform_mean(PYCKE) == 0.0
    assert kernel_uniform_mean(KernelSpec("gine")) == 0.0
    assert kernel_uniform_mean(KernelSpec("riesz", s=1.0)) == pytest.approx(1.0)
    assert kernel_uniform_mean(KernelSpec("cui-freeden", m=1)) == pytest.approx(
        2.0 - 2.0 * math.log(2.0)
    )
    assert kernel_uniform_mean(KernelSpec("cui-freeden", m=2)) == pytest.approx(
        0.25 * (2.0 * math.log(2.0) - 1.0)
    )
    with pytest.raises(CapabilityError):
        kernel_uniform_mean(KernelSpec("riesz", s=2.5))


def test_uniform_means_match_quadrature():
    # E[K] = (1/2) int_{-1}^{1} K(t) dt for uniform pairs
    from scipy.integrate import quad

    for spec in (CF, KernelSpec("cui-freeden", m=1), KernelSpec("cui-freeden", m=2),
                 KernelSpec("riesz", s=1.0), KernelSpec("gine"), KernelSpec("ajne")):
        val, _ = quad(lambda t: kernel_eval(spec, t), -1.0, 1.0,
                      points=[1.0], limit=300)
        assert 0.5 * val == pytest.approx(kernel_uniform_mean(spec), abs=1e-9)


def test_shifted_riesz_is_centered():
    spec = KernelSpec("riesz", s=1.0, shifted=True)
    raw = KernelSpec("riesz", s=1.0)
    t = 0.3
    assert kernel_eval(spec, t) == pytest.approx(
        kernel_eval(raw, t) - kernel_uniform_mean(raw), rel=1e-14
    )
    with pytest.raises(CapabilityError):
        KernelSpec("riesz", s=2.5, shifted=True)


# --- spectral symbols -------------------------------------------------------

def test_symbol_values():
    assert symbol_squared("pycke", 3) == 12.0
    assert symbol_squared("cui-freeden", 2) == 30.0
    assert symbol_squared("gine", 5) is None
    assert symbol_squared("ajne", 4) is None


def test_riesz_symbol_coulomb_case():
    # s = 1 reduces to (2n+1)/(4pi)
    for n in (1, 2, 7, 40):
        assert symbol_squared("riesz", n, s=1.0) == pytest.approx(
            (2 * n + 1) / FOUR_PI, rel=1e-12
        )
    assert symbol_squared("riesz", 3, s=0.0) == pytest.approx(12.0 / FOUR_PI)


def test_symbol_positivity_and_parity():
    for family in ("pycke", "cui-freeden", "gine", "ajne"):
        seq = SymbolSequence(family)
        for n in range(1, 201):
            val = seq.value(n)
            if family == "gine" and n % 2 == 1:
                assert val is None
            elif family == "ajne" and n % 2 == 0:
                assert val is None
            else:
                assert val is not None and val > 0.0
    for s in (1.5, -0.5, -1.5):  # sign(s) |x - y|^-s has positive modes for -2 < s < 2
        seq = SymbolSequence("riesz", s=s)
        assert all(seq.value(n) > 0 for n in range(1, 201))


@pytest.mark.parametrize("s, value", [(-2001.0, "0.0"), (2.0, "0.0"), (-2000.0, "0.0")])
def test_a_symbol_without_a_finite_weight_names_its_degree(s, value):
    # -2001 and -2000 underflow to 0 (-2000 by its finite product at the gamma
    # poles), and s = 2 is 0 exactly
    with pytest.raises(ConditioningError, match=f"riesz symbol at degree 1 is {value}$"):
        SymbolSequence("riesz", s=s).series_weights(4)


def test_an_overflowed_symbol_gives_a_zero_weight():
    # A_n^2 beyond the float range has a weight below it: 0, not an error
    assert math.isinf(symbol_squared("riesz", 1, s=1999.0))
    assert not SymbolSequence("riesz", s=1999.0).series_weights(4).any()


# --- truncated series -------------------------------------------------------

@pytest.mark.parametrize("s, n_max, tol", [(-0.5, 400, 2e-5), (-1.5, 400, 1e-7),
                                           (-3.0, 400, 1e-10), (-4.0, 10, 1e-13)])
def test_riesz_series_differences_match_the_closed_form_at_negative_s(s, n_max, tol):
    # the series has no constant mode, so differences across t are compared;
    # |x - y|^4 (s = -4) has modes 1 and 2 only
    t = np.linspace(-0.9, 0.9, 19)
    series = kernel_series_eval("riesz", 0, t, n_max, s=s).value
    closed = kernel_eval(KernelSpec("riesz", s=s), t)
    assert np.max(np.abs(np.diff(series) - np.diff(closed))) < tol


def test_series_matches_pycke_closed_form():
    got = kernel_series_eval("pycke", 0, 0.0, 5000)
    expect = -(1.0 - math.log(2.0)) / FOUR_PI
    assert expect == pytest.approx(-0.024418, abs=1e-6)
    assert got.value == pytest.approx(expect, abs=1e-3)
    assert got.tail_estimate < 1e-5


def test_series_telescopes_after_calibration():
    # raw series carries 1/(4pi); the affine calibration recovers the
    # closed-form convention, and the calibrated value at t=1 is the
    # telescoped sum 1 - 1/(n_max + 1) ~ 1
    a, b = affine_calibration(
        lambda t: kernel_series_eval("cui-freeden", 0, t, 10000).value,
        lambda t: kernel_eval(CF, t),
    )
    assert a == pytest.approx(FOUR_PI, rel=1e-3)
    mapped = a * kernel_series_eval("cui-freeden", 0, 1.0, 10000).value + b
    assert mapped == pytest.approx(1.0, abs=1e-3)


def test_series_empty_sum():
    got = kernel_series_eval("gine", 0, 0.3, 1)
    assert got.value == 0.0 and got.tail_estimate == 0.0


def test_series_closed_form_agreement_on_grid():
    for family, closed in (("pycke", PYCKE), ("cui-freeden", CF)):
        a, b = affine_calibration(
            lambda t: kernel_series_eval(family, 0, t, 5000).value,
            lambda t: kernel_eval(closed, t),
        )
        ts = np.linspace(-0.95, 0.95, 39)
        series = kernel_series_eval(family, 0, ts, 5000).value
        closed_vals = np.asarray(kernel_eval(closed, ts))
        assert np.max(np.abs(a * series + b - closed_vals)) < 1e-3


def test_t_derivative_by_finite_differences():
    h = 1e-6
    for spec in (PYCKE, CF, KernelSpec("cui-freeden", m=1),
                 KernelSpec("riesz", s=1.0), KernelSpec("riesz", s=0.0)):
        for t in (-0.8, -0.2, 0.4, 0.8):
            fd = (kernel_eval(spec, t + h) - kernel_eval(spec, t - h)) / (2 * h)
            assert kernel_t_derivative(spec, t) == pytest.approx(fd, rel=1e-7)


@pytest.mark.parametrize(
    "spec",
    [KernelSpec("gine"), KernelSpec("gine", m=1), KernelSpec("ajne"), KernelSpec("ajne", m=1),
     KernelSpec("pycke", m=1)]
    + [KernelSpec("riesz", m=m, s=s) for s in (0.0, 1.0, -0.5, 2.5) for m in (0, 1)],
    ids=lambda s: s.name,
)
def test_next_order_is_the_t_derivative(spec):
    # ajne:d2 used to be half of d/dt ajne:d1
    h = 1e-6
    up = KernelSpec(spec.family, spec.m + 1, spec.s)
    for t in (-0.8, -0.5, -0.2, 0.3, 0.4, 0.7, 0.8):
        fd = (kernel_eval(spec, t + h) - kernel_eval(spec, t - h)) / (2 * h)
        assert kernel_eval(up, t) == pytest.approx(fd, rel=1e-6), t


@pytest.mark.parametrize(
    "spec",
    [KernelSpec(family, m=m) for family in ("pycke", "cui-freeden") for m in range(3)]
    + [KernelSpec("riesz", m=m, s=s) for s in (0.0, 1.0, -0.5, 2.5) for m in (0, 1)],
    ids=lambda s: s.name,
)
def test_second_t_derivative_is_the_derivative_of_the_descent_derivative(spec):
    h = 1e-6
    d2 = _descent_plan(spec).d2
    for t in (-0.8, -0.5, -0.2, 0.3, 0.4, 0.7, 0.8):
        fd = (kernel_t_derivative(spec, t + h) - kernel_t_derivative(spec, t - h)) / (2 * h)
        got = _run(d2, np.array([math.sqrt((1.0 - t) / 2.0)]))[0]
        assert got == pytest.approx(fd, rel=1e-6), t
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(d2, np.array([0.0]))[0] == math.inf


def test_is_singular_catalog():
    assert is_singular_at_coincidence(PYCKE)
    assert is_singular_at_coincidence(KernelSpec("riesz", s=1.0))
    assert is_singular_at_coincidence(KernelSpec("riesz", s=0.0))
    assert not is_singular_at_coincidence(KernelSpec("riesz", s=-1.0))
    assert not is_singular_at_coincidence(CF)
    assert not is_singular_at_coincidence(KernelSpec("cui-freeden", m=2))
    assert is_singular_at_coincidence(KernelSpec("gine", m=1))
    assert not is_singular_at_coincidence(KernelSpec("gine"))


# --- evaluation into a caller's buffer ---------------------------------------

OUT_PATH_SPECS = [
    KernelSpec(family, m=m, s=s)
    for family, exponents in (
        ("pycke", [None]), ("cui-freeden", [None]), ("gine", [None]), ("ajne", [None]),
        ("riesz", [0.0, 1.0, -0.5, 2.5]),
    )
    for s in exponents
    for m in range(3)
] + [KernelSpec("riesz", s=s, shifted=True) for s in (0.0, 1.0, -0.5)]


def dense_t_grid():
    near = np.logspace(-16, -1, 400)
    return np.concatenate([np.linspace(-1.0, 1.0, 40001), 1.0 - near, -1.0 + near])


@pytest.mark.parametrize(
    "spec", OUT_PATH_SPECS, ids=lambda s: s.name + (":shifted" if s.shifted else "")
)
def test_out_path_is_bit_identical_to_kernel_eval(spec):
    t = dense_t_grid()
    u = np.sqrt((1.0 - t) / 2.0)
    keep = np.ones(t.shape, bool)
    if is_singular_at_coincidence(spec):
        keep &= u > 0.0
    if spec.family in ("gine", "ajne") and spec.m >= 1:
        keep &= u < 1.0
    t, u = t[keep], u[keep]
    expect = kernel_eval(spec, t).tobytes()
    buf = np.full_like(u, np.nan)
    assert _kernel_eval_u(spec, u, out=buf) is buf
    assert buf.tobytes() == expect
    src = u.copy()
    assert _kernel_eval_u(spec, src, out=src) is src  # in place, as pair sums do
    assert src.tobytes() == expect
    block = u[: u.size // 64 * 64].reshape(-1, 64).copy()
    _kernel_eval_u(spec, block, out=block)
    assert block.tobytes() == kernel_eval(spec, t[: block.size]).tobytes()


def test_out_path_keeps_error_types():
    for spec in (PYCKE, KernelSpec("pycke", m=2), KernelSpec("riesz", s=1.0),
                 KernelSpec("riesz", s=0.0, m=1), KernelSpec("gine", m=1)):
        with pytest.raises(SingularKernelError):  # t = 1 - 2u^2 for u = 0.3, 0, 0.5
            kernel_eval(spec, [0.82, 1.0, 0.5])
    for spec in (KernelSpec("gine", m=1), KernelSpec("gine", m=2),
                 KernelSpec("ajne", m=1), KernelSpec("ajne", m=2)):
        u = np.array([0.3, 1.0])  # t = -1
        with pytest.raises(SingularKernelError, match="t = -1"):
            _kernel_eval_u(spec, u, out=np.empty_like(u))
    for spec in (PYCKE, CF, KernelSpec("riesz", s=-0.5), KernelSpec("riesz", s=0.0),
                 KernelSpec("gine")):
        u = np.array([0.1, 0.7])
        d3 = KernelSpec(spec.family, m=3, s=spec.s)  # evaluated only inside the descent
        with pytest.raises(CapabilityError, match="supports m <= 2"):
            _kernel_eval_u(d3, u, out=u)
        with pytest.raises(CapabilityError, match="supports m <= 2"):
            kernel_eval(d3, 0.3)
        with pytest.raises(CapabilityError, match="descent derivative"):
            kernel_t_derivative(d3, 0.3)


# --- the descent derivative against the formula table it replaced -------------


def _table_t_derivative(spec, u):
    """d/dt of the closed form as a formula table of its own, one line per order."""
    family, m, s = spec.family, spec.m, spec.s
    with np.errstate(divide="ignore", over="ignore"):
        if family == "cui-freeden":
            if m == 0:
                return 1.0 / (2.0 * u * (1.0 + u))
            if m == 1:
                return 1.0 / (4.0 * u * (1.0 + u) ** 2)
            return 1.0 / (8.0 * u * (1.0 + u) ** 3)
        if family == "riesz" and s != 0.0:
            poch = 1.0
            for j in range(m + 1):
                poch *= s / 2.0 + j
            c = math.copysign(1.0, s) * 2.0 ** (m + 1) * poch
            return c * (2.0 * u) ** (-(s + 2 * (m + 1)))
        if m == 0:
            if family == "pycke":
                return 1.0 / (FOUR_PI * 2.0 * u * u)
            return 1.0 / (2.0 * u * u)
        if m == 1:
            return 1.0 / (4.0 * u**4)
        return 2.0 / (8.0 * u**6)


def _table_eval(spec, u):
    """The m = 1, 2 closed forms of pycke, riesz s = 0 and cui-freeden, one line each."""
    with np.errstate(divide="ignore", over="ignore"):
        if spec.family == "cui-freeden":
            return 1.0 / (1.0 + u) if spec.m == 1 else 0.25 / (1.0 + u) ** 2
        return 1.0 / (2.0 * u * u) if spec.m == 1 else 1.0 / (4.0 * u**4)


DESCENT_SPECS = [
    KernelSpec(family, m=m, s=s)
    for family, exponents in (
        ("pycke", [None]), ("cui-freeden", [None]), ("riesz", [0.0, 1.0, -0.5, 2.5, 0.7, -1.3]),
    )
    for s in exponents
    for m in range(3)
]


@pytest.fixture(scope="module")
def dense_u():
    t = np.linspace(-1.0, 1.0, 400001)
    draws = np.random.default_rng(20231001).random(10**6)
    return t, np.concatenate([np.sqrt((1.0 - t) / 2.0), draws, np.logspace(-150, 0, 20000), [0.0]])


@pytest.mark.parametrize("spec", DESCENT_SPECS, ids=lambda s: s.name)
def test_descent_derivative_equals_the_formula_table_bit_for_bit(spec, dense_u):
    t, u = dense_u
    expect = _table_t_derivative(spec, u)
    assert _run(_descent_plan(spec).d1, u).tobytes() == expect.tobytes()
    got = kernel_t_derivative(spec, t)
    assert got.tobytes() == expect[: t.size].tobytes()
    if spec.m >= 1 and (spec.family != "riesz" or spec.s == 0.0):
        assert _kernel_eval_u(spec, u).tobytes() == _table_eval(spec, u).tobytes()


# --- kernel plans: the chains every hot loop runs ------------------------------


def _plan_dots():
    """t = +-1, 1 - 2^-52 and -1 + 2^-52, the clipped dots of close pairs
    (e_z against points 1e-9 to 0.1 from it), and random t."""
    eps = np.logspace(-9, -1, 60)
    near = np.column_stack([eps, np.zeros_like(eps), np.ones_like(eps)])
    near /= np.linalg.norm(near, axis=1)[:, None]
    close = np.clip(near[:, 2], -1.0, 1.0)  # the dots with e_z
    edges = [-1.0, 1.0, 1.0 - 2.0**-52, -1.0 + 2.0**-52]
    return np.concatenate([edges, close, np.random.default_rng(11).uniform(-1.0, 1.0, 300)])


def _arguments(spec, t):
    """``spec``'s arguments at the dots t, with their half-chords formed as
    kernel_eval forms them."""
    if spec.convention == CHORDAL:
        r = np.sqrt(2.0 * (1.0 - t))
        return r, r / 2.0
    return t, _half_chords(t.copy())


def _chain(chain, u):
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return chain(u, np.empty_like(u))


PLAN_SPECS = [
    spec.with_convention(convention)
    for spec in BOUNDARY_SPECS
    if spec.m <= 2
    for convention in (DOT_PRODUCT, CHORDAL)
]


def _plan_id(spec):
    return spec.name + (":shifted" if spec.shifted else "") + ":" + spec.convention


@pytest.mark.parametrize("spec", PLAN_SPECS, ids=_plan_id)
def test_value_chain_equals_kernel_eval_bit_for_bit(spec):
    x, u = _arguments(spec, _plan_dots())
    plan = _plan(spec)
    try:
        got = _chain(plan.value, u)
    except ConditioningError:  # the shifted riesz mean overflows at s = -2000
        with pytest.raises(ConditioningError, match="riesz mean"):
            kernel_eval(spec, x)
        return
    for i, xi in enumerate(x.tolist()):
        try:
            want = kernel_eval(spec, xi)
        except SingularKernelError:
            assert plan.singular and u[i] == 0.0
            assert got[i] == math.inf or not plan.inf_at_zero
        except ConditioningError:  # K overflows here
            assert not math.isfinite(got[i])
        else:
            assert np.float64(want).tobytes() == got[i].tobytes(), xi


def _table_t_second(spec, u):
    """d^2/dt^2 of the closed form, one line per form, in the order each
    formula evaluated before the chains."""
    family, m, s = spec.family, spec.m, spec.s
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if family == "cui-freeden":
            return (1.0 + (m + 2) * u) / (2.0 ** (m + 3) * u**3 * (1.0 + u) ** (m + 2))
        if family == "riesz" and s != 0.0:
            poch = 1.0
            for j in range(m + 2):
                poch *= s / 2.0 + j
            return math.copysign(1.0, s) * 2.0 ** (m + 2) * poch * (2.0 * u) ** (-(s + 2 * (m + 2)))
        if family == "pycke" and m == 0:
            return 1.0 / (FOUR_PI * 4.0 * u**4)
        k = m + 2  # pycke m >= 1 and riesz s = 0: (k-1)!/(2 u^2)^k
        return math.factorial(k - 1) / (2.0**k * u ** (2 * k))


@pytest.mark.parametrize(
    "spec",
    [spec for spec in PLAN_SPECS if spec.family in ("pycke", "cui-freeden", "riesz")]
    + [spec.with_convention(c) for spec in DESCENT_SPECS for c in (DOT_PRODUCT, CHORDAL)],
    ids=_plan_id,
)
def test_descent_chains_equal_kernel_t_derivative_and_the_second_derivative(spec):
    x, u = _arguments(spec, _plan_dots())
    plan = _plan(spec)
    assert _chain(plan.d1, u).tobytes() == kernel_t_derivative(spec, x).tobytes()
    assert _chain(plan.d2, u).tobytes() == _table_t_second(spec, u).tobytes()


@pytest.mark.parametrize(
    "spec",
    DESCENT_SPECS
    + [KernelSpec("riesz", m=m, s=s) for s in (-2.0, -3.0, -4.0) for m in (0, 1, 2)]
    + [KernelSpec("riesz", s=s, shifted=True) for s in (0.0, 1.0, -0.5, 1.9)],
    ids=lambda s: s.name + (":shifted" if s.shifted else ""),
)
def test_the_polish_drops_its_coincidence_mask_only_where_the_chain_is_inf_at_zero(spec):
    # The polish scores a trial with its coincidence cut at t = 1, where u == 0
    # exactly; for a chain that is +inf at u == 0 it sets no mask.
    plan = _plan(spec)
    at_zero = _chain(plan.value, np.zeros(1))[0]
    if plan.inf_at_zero:
        assert plan.singular and at_zero == math.inf
    t = np.concatenate([[1.0, 1.0 - 2.0**-52], _plan_dots()])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        got = pointgen._half_chord_kernel(plan, t.copy(), 1.0)
        want = _chain(plan.value, _half_chords(t.copy()))
    if plan.singular:
        want[t >= 1.0] = math.inf
    assert got.tobytes() == want.tobytes()
