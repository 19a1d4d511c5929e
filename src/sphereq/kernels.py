"""Zonal kernel catalog on the unit sphere.

Five families are supported, each a function of the dot product
``t = x . y`` of two unit vectors (equivalently of the chordal distance
``r = sqrt(2(1-t))``):

* ``pycke``        -(1/4pi) ln(e/2 (1-t)),  symbol A_n^2 = n(n+1)
* ``cui-freeden``  1 - 2 ln(1 + sqrt((1-t)/2)),  A_n^2 = n(n+1)(2n+1)
* ``gine``         1/2 - (2/pi) sin(arccos t),  A_n^2 finite for even n only
* ``ajne``         1/4 - (1/2pi) arccos t,  A_n^2 finite for odd n only
* ``riesz``        sign(s) |2(1-t)|^(-s/2)  (s = 0: -ln 2(1-t))

Every family is evaluated internally in the half-chord variable
``u = r/2 = sqrt((1-t)/2)``.  Both argument conventions map onto ``u``
through exact power-of-two scalings, so dot-product and chordal evaluation
agree bit-for-bit.

Derivative orders m >= 1 use the closed forms the families are generated
with, each written once for every order:

* pycke and riesz s = 0: (m-1)!/(1-t)^m, the t-derivative of order m - 1,
  except that pycke m = 1 drops the 1/(4pi) of the m = 0 form;
* riesz s != 0, gine and ajne: exact t-derivatives;
* cui-freeden: the chordal Taylor magnitudes |d^m K/dr^m| / m! =
  2^(1-m)/(m (1+r/2)^m), finite at coincidence and not t-derivatives.

:func:`kernel_eval` stops at M_CLOSED_MAX.  The descent derivative
(:func:`kernel_t_derivative`) of order m is the closed form of order m + 1
for pycke m >= 1 and riesz, and the second t-derivative that the greedy
polish's Newton step uses is the closed form of order m + 2; pycke m = 0
and cui-freeden have their own formulas for both.
Constant factors are dropped where noted because every downstream use
(argmin searches, relative comparisons) is scale-invariant.

Each formula is written once, as a chain of in-place ufuncs on u in the
order its expression evaluates, so every caller gets the same bits.  The
table ``_FORMS`` gives the value, d/dt and d^2/dt^2 chains of a family at
order m, and ``_plan`` resolves a KernelSpec into them once per spec.
Chains enter no error state; a hot loop enters it once through ``_quiet``
(a greedy sequence once for all its nodes, a pair sum or measure form once
per call), as do :func:`kernel_eval` and :func:`kernel_t_derivative`.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import CapabilityError, ConditioningError, DomainError, SingularKernelError
from .errors import require, whole
from .legendre import derivative_recurrence

FAMILIES = ("pycke", "cui-freeden", "gine", "ajne", "riesz")

DOT_PRODUCT = "dot_product_t"
CHORDAL = "chordal_r"

_FOUR_PI = 4.0 * math.pi

#: Highest derivative order with a closed-form evaluation path.
M_CLOSED_MAX = 2


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus derivative order and family parameters."""

    family: str
    m: int = 0
    s: float | None = None
    convention: str = DOT_PRODUCT
    shifted: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown kernel family {self.family!r}")
        m = whole(self.m, "derivative order must be a non-negative integer")
        object.__setattr__(self, "m", m)
        if self.family == "riesz":
            if self.s is None:
                raise DomainError("riesz kernel requires the exponent s")
            require(-math.inf < self.s < math.inf, "riesz exponent s must be finite")
            if self.shifted and self.s >= 2:
                raise CapabilityError("shifted riesz form requires s < 2")
        elif self.s is not None:
            raise DomainError(f"{self.family} takes no exponent parameter")
        elif self.shifted:
            raise DomainError("only the riesz family has a shifted form")
        if self.convention not in (DOT_PRODUCT, CHORDAL):
            raise DomainError(f"unknown argument convention {self.convention!r}")

    @property
    def name(self) -> str:
        """Canonical string form, e.g. ``pycke:d2`` or ``riesz:s=1``."""
        parts = [self.family]
        if self.family == "riesz":
            parts.append(f"s={_exponent_text(self.s)}")
        if self.m:
            parts.append(f"d{self.m}")
        return ":".join(parts)

    def with_convention(self, convention: str) -> "KernelSpec":
        return KernelSpec(self.family, self.m, self.s, convention, self.shifted)


def _exponent_text(s: float) -> str:  # the :g form where it parses back to s, else repr
    short = f"{s:g}"
    return short if float(short) == s else repr(float(s))


def parse_kernel(name: str) -> KernelSpec:
    """Parse a canonical kernel name like ``pycke:d2`` or ``riesz:s=1:d1``."""
    parts = name.strip().lower().split(":")
    family = parts[0]
    if family not in FAMILIES:
        raise DomainError(f"unknown kernel family {family!r}")
    m = 0
    s = None
    for part in parts[1:]:
        if part.startswith("d") and part[1:].isdigit():
            m = int(part[1:])
        elif part.startswith("s="):
            s = float(part[2:])
        else:
            raise DomainError(f"unrecognized kernel suffix {part!r}")
    return KernelSpec(family, m=m, s=s)


def kernel_derivative(spec: KernelSpec) -> KernelSpec:
    """Spec for the next derivative kernel in the same family."""
    if spec.m >= M_CLOSED_MAX:
        raise CapabilityError(
            f"closed-form derivatives supported up to order {M_CLOSED_MAX}; "
            "use the truncated series beyond that"
        )
    return KernelSpec(spec.family, spec.m + 1, spec.s, spec.convention, spec.shifted)


def is_singular_at_coincidence(spec: KernelSpec) -> bool:
    """True when K diverges as the two arguments coincide (t -> 1)."""
    if spec.family == "pycke":
        return True
    if spec.family == "riesz":
        return spec.s >= 0 or spec.m >= 1
    if spec.family in ("gine", "ajne"):
        return spec.m >= 1
    return False  # cui-freeden forms stay finite for m <= 2


def _riesz_shift(s: float) -> float:
    # uniform-sphere mean of sign(s)|2(1-t)|^(-s/2); finite only for s < 2
    if s == 0.0:
        return 1.0 - 2.0 * math.log(2.0)
    try:
        scale = 2.0**-s
    except OverflowError:  # s <= -1024
        raise ConditioningError(f"riesz mean 2^-s/(1 - s/2) overflows at s={s!r}") from None
    return math.copysign(1.0, s) * scale / (1.0 - s / 2.0)


# ---------------------------------------------------------------------------
# Plans.  A chain runs chain(u, out) -> out in place and enters no error
# state; a value chain may take out = u, a derivative chain may not.


def _pycke_log(u, v):  # -(1 + 2 ln u) / 4pi
    np.log(u, out=v)
    v *= 2.0
    v += 1.0
    np.negative(v, out=v)
    v /= _FOUR_PI
    return v


def _riesz_log(u, v):  # -2 ln 2u
    np.log(np.multiply(2.0, u, out=v), out=v)
    v *= -2.0
    return v


def _cf_log(u, v):  # 1 - 2 ln(1 + u)
    np.log1p(u, out=v)
    v *= 2.0
    return np.subtract(1.0, v, out=v)


def _pole(m: int, scale: float | None = None):
    # (m-1)! / (scale u^2m); at scale 2^m, (m-1)!/(1-t)^m with 1 - t = 2u^2
    top, scale = float(math.factorial(m - 1)), 2.0**m if scale is None else scale

    def chain(u, v):
        if m == 1:
            np.multiply(scale * u, u, out=v)
        else:
            np.power(u, 2 * m, out=v)
            v *= scale
        return np.divide(top, v, out=v)

    return chain


def _riesz_power(m: int, s: float):
    # sign(s) 2^m poch(s/2, m) (2u)^(-(s+2m)); at m = 0, sign(s) (2u)^-s and,
    # for m >= 1, the exact t-derivative
    power, poch = -(s + 2 * m), math.prod(s / 2.0 + j for j in range(m))
    scale = math.copysign(1.0, s) * 2.0**m * poch

    def chain(u, v):
        np.multiply(2.0, u, out=v)
        v **= power
        v *= scale
        return v

    return chain


def _cf(m: int, order: int):
    # order 0: 2^(1-m)/(m (1+u)^m), m >= 1; d/dt of the order-m form (order 1):
    # 1/(2^(m+1) u (1+u)^(m+1)); d^2/dt^2: (1 + (m+2) u)/(2^(m+3) u^3 (1+u)^(m+2))
    power, scale = m + order, 2.0 ** (m + 2 * order - 1) if order else 2.0 ** (1 - m) / m

    def chain(u, v):
        np.add(1.0, u, out=v)
        if power > 1:
            v **= power
        if order == 0:
            return np.divide(scale, v, out=v)
        v *= scale * u if order == 1 else scale * u**3
        return np.divide(1.0 if order == 1 else np.multiply(m + 2, u) + 1.0, v, out=v)

    return chain


def _arc(family: str, m: int):  # gine and ajne on uc = min(u, 1); a derivative refuses t = -1
    def chain(u, v):
        if m and (u >= 1.0).any():
            raise SingularKernelError(f"{family}:d{m}", "derivative is singular at t = -1")
        uc = np.minimum(u, 1.0, out=v)
        if family == "ajne" and m == 0:
            np.arcsin(uc, out=uc)  # 1/4 - arcsin(uc) / pi
            uc /= math.pi
            return np.subtract(0.25, uc, out=uc)
        root = uc * uc  # sqrt(max(1 - uc^2, 0))
        np.subtract(1.0, root, out=root)
        np.maximum(root, 0.0, out=root)
        np.sqrt(root, out=root)
        if family == "gine" and m == 0:
            uc *= 4.0 / math.pi  # 1/2 - (4/pi) uc root
            uc *= root
            np.subtract(0.5, uc, out=uc)
        elif family == "gine" and m == 2:
            uc **= 3  # (2/pi) / (8 uc^3 root^3)
            uc *= 8.0
            root **= 3
            uc *= root
            np.divide(2.0 / math.pi, uc, out=uc)
        elif family == "ajne" and m == 1:
            uc *= _FOUR_PI  # 1 / (4pi uc root)
            uc *= root
            np.divide(1.0, uc, out=uc)
        else:
            # gine m = 1: (2/pi) (1 - 2 uc^2) / (2 uc root);
            # ajne m = 2: (1 - 2 uc^2) / (2pi (2 uc root)^3)
            den = 2.0 * uc
            np.multiply(den, uc, out=uc)
            np.subtract(1.0, uc, out=uc)
            den *= root
            if family == "gine":
                uc *= 2.0 / math.pi
            else:
                den **= 3
                den *= 2.0 * math.pi
            uc /= den
        return uc

    return chain


def _shifted(chain, s: float, u, v):  # the shifted riesz form
    chain(u, v)
    v -= _riesz_shift(s)
    return v


#: family -> (m, s) -> the chains of the value, d/dt and d^2/dt^2 at order m
_FORMS = {
    "pycke": lambda m, s: (
        (_pole(m), _pole(m + 1), _pole(m + 2))
        if m
        else (_pycke_log, _pole(1, 2.0 * _FOUR_PI), _pole(2, 4.0 * _FOUR_PI))
    ),
    "riesz": lambda m, s: (
        (_riesz_power(m, s), _riesz_power(m + 1, s), _riesz_power(m + 2, s))
        if s != 0.0
        else (_pole(m) if m else _riesz_log, _pole(m + 1), _pole(m + 2))
    ),
    "cui-freeden": lambda m, s: (_cf(m, 0) if m else _cf_log, _cf(m, 1), _cf(m, 2)),
    "gine": lambda m, s: (_arc("gine", m), None, None),
    "ajne": lambda m, s: (_arc("ajne", m), None, None),
}


class _Plan(NamedTuple):
    value: Callable
    d1: Callable | None  # d/dt, None where there is no descent derivative
    d2: Callable | None  # d^2/dt^2
    singular: bool  # is_singular_at_coincidence
    inf_at_zero: bool  # value is +inf at u == 0


@lru_cache(maxsize=256)
def _plan(spec: KernelSpec) -> _Plan:
    """``spec`` resolved into its chains, once per spec."""
    family, m, s = spec.family, spec.m, spec.s
    if m > M_CLOSED_MAX:
        raise CapabilityError(f"closed-form evaluation supports m <= {M_CLOSED_MAX} (got m={m})")
    value, d1, d2 = _FORMS[family](m, s)
    if spec.shifted and m == 0:
        value = partial(_shifted, value, s)
    inf_at_zero = family == "pycke" or family == "riesz" and s >= 0.0
    return _Plan(value, d1, d2, is_singular_at_coincidence(spec), inf_at_zero)


def _descent_plan(spec: KernelSpec) -> _Plan:
    """:func:`_plan`, refusing a spec with no descent derivative."""
    plan = _plan(spec) if spec.m <= M_CLOSED_MAX else None
    if plan is None or plan.d1 is None:
        raise CapabilityError(f"no descent derivative for {spec.name}")
    return plan


_IGNORE = {"divide": "ignore", "over": "ignore", "invalid": "ignore"}


def _quiet():
    """The error state that chains run in, for ``with``: a no-op where the
    caller is in it already, so a loop inside another does not enter it."""
    return nullcontext() if _IGNORE.items() <= np.geterr().items() else np.errstate(**_IGNORE)


def _run(chain, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``chain`` in its own error state, into ``out`` or a new array."""
    with _quiet():
        return chain(u, np.empty_like(u) if out is None else out)


def _half_chords(t: np.ndarray) -> np.ndarray:
    """Map clipped dots t in place to u = sqrt((1 - t)/2)."""
    np.subtract(1.0, t, out=t)
    t *= 0.5
    return np.sqrt(t, out=t)


def _kernel_eval_u(spec: KernelSpec, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """:func:`kernel_eval` on half-chords u = r/2 >= 0 after its checks: the
    value chain, run as :func:`_run` runs it.  Raises :class:`CapabilityError`
    above order M_CLOSED_MAX and :class:`SingularKernelError` for a gine or
    ajne derivative at t = -1."""
    return _run(_plan(spec).value, u, out)


def _on_half_chords(spec: KernelSpec, x, evaluate):
    """``evaluate`` on the half-chords of ``x``, shaped as ``x``.

    ``x`` is the dot product t in [-1, 1] or the chordal distance r in
    [0, 2], per ``spec.convention``; a scalar gives a float.  The range tests
    are written so that NaN fails them.
    """
    arr = np.asarray(x, dtype=float)
    if spec.convention == DOT_PRODUCT:
        require((arr >= -1.0) & (arr <= 1.0), "dot-product argument must lie in [-1, 1]")
        u = _half_chords(np.array(arr, ndmin=1))
    else:
        rule = "chordal distance must be finite and non-negative, at most the diameter 2"
        require((arr >= 0.0) & (arr <= 2.0), rule)
        u = np.atleast_1d(arr) / 2.0
    out = evaluate(u)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _checked_eval_u(spec: KernelSpec, u: np.ndarray) -> np.ndarray:
    """:func:`_kernel_eval_u` into a new array, refusing a singular kernel at
    coincidence (u == 0) with :class:`SingularKernelError` and a value that
    overflows with :class:`ConditioningError`."""
    if is_singular_at_coincidence(spec) and np.any(u == 0.0):
        raise SingularKernelError(spec.name, "kernel is singular at coincidence")
    vals = _kernel_eval_u(spec, u)
    if not np.isfinite(vals).all():
        bad = float(vals[~np.isfinite(vals)][0])
        raise ConditioningError(f"{spec.name} overflows to {bad!r}")
    return vals


def kernel_eval(spec: KernelSpec, x):
    """The closed form at t or r, per ``spec.convention``, with the refusals
    of :func:`_checked_eval_u`: a singular kernel at coincidence, and a value
    that overflows, as a riesz kernel with a large |s| does."""
    return _on_half_chords(spec, x, partial(_checked_eval_u, spec))


def kernel_t_derivative(spec: KernelSpec, x):
    """d/dt of the evaluated form, in the same argument convention.

    Used by local descent during greedy node placement.  Supported for the
    pycke, cui-freeden and riesz families at m <= 2.
    """
    return _on_half_chords(spec, x, partial(_run, _descent_plan(spec).d1))


def kernel_uniform_mean(spec: KernelSpec) -> float:
    """Average of the kernel over independent uniform points on the sphere.

    Every m = 0 catalog kernel averages to zero by construction (the
    constant-mode symbol is excluded); the unshifted riesz form and the
    unnormalized cui-freeden derivative forms do not, and this constant is
    what the table pipelines subtract to center them.
    """
    family, m, s = spec.family, spec.m, spec.s
    if m == 0:
        if family == "riesz" and not spec.shifted:
            if s >= 2:
                raise CapabilityError("riesz mean diverges for s >= 2")
            return _riesz_shift(s)
        return 0.0
    if family == "cui-freeden":
        if m == 1:
            return 2.0 - 2.0 * math.log(2.0)
        if m == 2:
            return 0.25 * (2.0 * math.log(2.0) - 1.0)
    if family == "gine" and m == 1:
        return 0.0
    if family == "ajne" and m == 1:
        return 0.25
    raise CapabilityError(f"uniform mean unavailable for {spec.name}")


# ---------------------------------------------------------------------------
# Spectral symbols and the truncated Legendre series


def symbol_squared(family: str, n: int, s: float | None = None) -> float | None:
    """A_n^2 for degree 1 <= n < 2^53, or ``None`` where the mode is absent.

    Gine has no odd modes and ajne no even modes (their symbols are infinite
    there, so the mode contributes nothing to any reciprocal-symbol series).
    Gamma ratios go through log-gamma to stay finite for large n; where that
    gives NaN (at the poles of an even s > 2, or for a huge s), the riesz
    symbol raises :class:`ConditioningError`.  The riesz symbol has the sign of the kernel's
    degree-n Legendre coefficient, sign(s) included, so it is positive for
    -2 < s < 2.  At an even negative s, where Gamma(s/2) and Gamma(n + s/2)
    meet poles, their ratio is 1/prod_{j<n} (s/2 + j), and degrees above -s/2
    are absent: |x - y|^-s is then a polynomial of degree -s/2 in t.
    """
    n = whole(n, "symbol degree must be a positive integer below 2**53", low=1)
    require(n < 2**53, "symbol degree must be a positive integer below 2**53")
    if family == "pycke":
        return float(n * (n + 1))
    if family == "cui-freeden":
        return float(n * (n + 1) * (2 * n + 1))
    from scipy.special import betaln, gammaln, gammasgn  # loads scipy on the first gamma ratio

    if family == "gine":
        if n % 2 == 1:
            return None
        ratio = math.exp(2.0 * (gammaln(n / 2.0) - gammaln((n + 1) / 2.0)))
        return (n - 1) / (n + 2) * ratio
    if family == "ajne":
        if n % 2 == 0:
            return None
        ratio = math.exp(2.0 * (gammaln((n + 3) / 2.0) - gammaln((n + 2) / 2.0)))
        return n * n * ratio
    if family == "riesz":
        if s is None:
            raise DomainError("riesz symbol requires the exponent s")
        require(-math.inf < s < math.inf, "riesz exponent s must be finite")
        if s == 0.0:
            return n * (n + 1) / _FOUR_PI
        k = _last_mode(family, s)
        if k < math.inf:
            if n > k:
                return None
            # Gamma(k + n + 2)/Gamma(k + 1) over Gamma(k + 1)/Gamma(k + 1 - n), each as
            # log Gamma(a + m)/Gamma(a) = log Gamma(m) - log B(a, m), finite for a huge k
            rise = gammaln(n + 1.0) - betaln(k + 1.0, n + 1.0)
            fall = gammaln(n) - betaln(k + 1.0 - n, n)
            log_mag = (s - 2.0) * math.log(2.0) - math.log(math.pi) + rise - fall
            sign = 1.0 if n % 2 else -1.0
        else:
            with np.errstate(invalid="ignore"):  # inf - inf at poles or a huge s is NaN
                log_mag = (
                    (s - 2.0) * math.log(2.0)
                    - math.log(math.pi)
                    + gammaln(s / 2.0)
                    - gammaln(1.0 - s / 2.0)
                    + gammaln(n + 2.0 - s / 2.0)
                    - gammaln(n + s / 2.0)
                )
            sign = gammasgn(s / 2.0) * gammasgn(1.0 - s / 2.0)
            sign *= math.copysign(1.0, s) * gammasgn(n + s / 2.0)
        try:
            value = float(sign * math.exp(log_mag))
        except OverflowError:
            return float(sign * math.inf)
        if math.isnan(value):
            raise ConditioningError(f"riesz symbol at degree {n} is nan")
        return value
    raise DomainError(f"unknown kernel family {family!r}")


def _last_mode(family: str, s: float | None = None) -> float:
    """The highest degree with a mode: -s/2 for riesz at an even negative
    finite s, where |x - y|^-s is a polynomial of that degree in t; inf
    for every other symbol."""
    if family == "riesz" and s is not None and -math.inf < s < 0.0:
        k = -s / 2.0
        if k == math.floor(k) and k > 0.0:
            return k
    return math.inf


@dataclass
class SymbolSequence:
    """Per-degree symbol values A_n^2 for one family."""

    family: str
    s: float | None = None

    def value(self, n: int) -> float | None:
        return symbol_squared(self.family, n, self.s)

    def series_weights(self, n_max: int) -> np.ndarray:
        """Weights (2n+1)/(4pi A_n^2) for n = 1..n_max; 0 where absent.  A weight
        that is not finite (a NaN or zero symbol) raises ConditioningError."""
        w = np.zeros(n_max + 1)
        for n in range(1, n_max + 1):
            a2 = self.value(n)
            if a2 is not None:
                w[n] = (2 * n + 1) / (_FOUR_PI * a2) if a2 else math.inf
                if not math.isfinite(w[n]):
                    raise ConditioningError(f"{self.family} symbol at degree {n} is {a2!r}")
        return w


def _truncation(n_max) -> int:
    """``n_max`` as an int, by the rule every series entry point shares."""
    rule = "series truncation must be an integer >= 1"
    return whole(n_max, rule, low=1, array_of="series truncation")


class SeriesEval(NamedTuple):
    value: float
    tail_estimate: float


def kernel_series_eval(
    family: str, m: int, t, n_max: int, s: float | None = None
) -> SeriesEval:
    """Truncated Legendre expansion sum_n (2n+1)/(4pi A_n^2) P_n^(m)(t).

    Cross-validates the closed forms: for the pycke symbol the m = 0 series
    reproduces the closed form exactly (constant included); other families
    agree up to an affine recalibration of the overall constant convention.
    ``tail_estimate`` is the magnitude of the last contributing term.  Raises
    :class:`ConditioningError` where (2m-1)!! overflows (151 <= m <= n_max),
    and where a later degree or the sum does, so that any value returned is
    finite.
    """
    m = whole(m, "derivative order must be a non-negative integer", array_of="derivative order")
    n_max = _truncation(n_max)
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    require((arr >= -1.0) & (arr <= 1.0), "series argument must lie in [-1, 1]")
    weights = SymbolSequence(family, s).series_weights(n_max)
    total = np.zeros_like(arr)
    tail = np.zeros_like(arr)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
        for n, p in enumerate(derivative_recurrence(n_max, m, arr)):
            if n >= 1 and weights[n] != 0.0:
                term = weights[n] * p
                total += term
                tail = np.abs(term)
    if not np.all(np.isfinite(total)):
        raise ConditioningError(f"{family} series of order {m} overflows at n_max = {n_max}")
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return SeriesEval(float(total[0]), float(tail[0]))
    return SeriesEval(total, tail)
