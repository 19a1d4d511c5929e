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

Derivative orders m = 1, 2 use the closed forms the families are generated
with: for pycke (and riesz s=0) these are the unnormalized t-derivatives
1/(1-t) and 1/(1-t)^2; for cui-freeden the chordal Taylor magnitudes
|d^m K/dr^m| / m!, i.e. 1/(1+r/2) and (1/4)/(1+r/2)^2, which stay finite at
coincidence; gine, ajne and riesz use exact t-derivatives.  Constant factors
are dropped where noted because every downstream use (argmin searches,
relative comparisons) is scale-invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln, gammasgn

from .errors import CapabilityError, DomainError, SingularKernelError
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
        if self.m < 0 or self.m != int(self.m):
            raise DomainError("derivative order must be a non-negative integer")
        if self.family == "riesz":
            if self.s is None:
                raise DomainError("riesz kernel requires the exponent s")
            if not math.isfinite(self.s):
                raise DomainError("riesz exponent s must be finite")
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
            parts.append(f"s={self.s:g}")
        if self.m:
            parts.append(f"d{self.m}")
        return ":".join(parts)

    def with_convention(self, convention: str) -> "KernelSpec":
        return KernelSpec(self.family, self.m, self.s, convention, self.shifted)


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
    return math.copysign(1.0, s) * 2.0**-s / (1.0 - s / 2.0)


def _eval_u(
    spec: KernelSpec, u: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Evaluate the closed form on the half-chord variable u = r/2 >= 0.

    The result goes into ``out``, a new array when it is None; ``out`` may be
    ``u`` itself.  Each formula is a chain of ufuncs writing into ``out`` in
    the order its expression evaluates, so every caller gets the same bits.
    """
    family, m, s = spec.family, spec.m, spec.s
    if m > M_CLOSED_MAX:
        raise CapabilityError(
            f"closed-form evaluation supports m <= {M_CLOSED_MAX} (got m={m})"
        )
    v = np.empty_like(u) if out is None else out
    with np.errstate(divide="ignore", over="ignore"):
        if family == "pycke" and m == 0:
            # -(1 + 2 ln u) / 4pi
            np.log(u, out=v)
            v *= 2.0
            v += 1.0
            np.negative(v, out=v)
            v /= _FOUR_PI
        elif family == "riesz" and s == 0.0 and m == 0:
            # -2 ln 2u
            np.multiply(2.0, u, out=v)
            np.log(v, out=v)
            v *= -2.0
        elif family == "pycke" or s == 0.0:  # pycke and riesz s = 0, m >= 1
            if m == 1:
                np.multiply(2.0 * u, u, out=v)  # 1/(1-t), constants dropped
            else:
                np.power(u, 4, out=v)  # 1/(1-t)^2
                v *= 4.0
            np.divide(1.0, v, out=v)
        elif family == "riesz":
            # sign(s) 2^m poch(s/2, m) (2u)^(-(s+2m)); at m = 0, sign(s) (2u)^-s
            # and, for m >= 1, the exact t-derivative
            poch = 1.0
            for j in range(m):
                poch *= s / 2.0 + j
            np.multiply(2.0, u, out=v)
            v **= -(s + 2 * m)
            v *= math.copysign(1.0, s) * 2.0**m * poch
        elif family == "cui-freeden":
            if m == 0:
                np.log1p(u, out=v)  # 1 - 2 ln(1 + u)
                v *= 2.0
                np.subtract(1.0, v, out=v)
            else:
                np.add(1.0, u, out=v)
                if m == 1:
                    np.divide(1.0, v, out=v)  # |dK/dr|
                else:
                    v **= 2
                    np.divide(0.25, v, out=v)  # |d^2K/dr^2| / 2!
        else:
            _eval_arc(family, m, np.minimum(u, 1.0, out=v))
        if spec.shifted and m == 0:
            v -= _riesz_shift(s)
    return v


def _eval_arc(family: str, m: int, uc: np.ndarray) -> None:
    """gine and ajne on uc = min(u, 1), overwritten with the kernel value."""
    if family == "ajne" and m == 0:
        np.arcsin(uc, out=uc)  # 1/4 - arcsin(uc) / pi
        uc /= math.pi
        np.subtract(0.25, uc, out=uc)
        return
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
        # ajne m = 2: (1 - 2 uc^2) / (4pi (2 uc root)^3)
        den = 2.0 * uc
        np.multiply(den, uc, out=uc)
        np.subtract(1.0, uc, out=uc)
        den *= root
        if family == "gine":
            uc *= 2.0 / math.pi
        else:
            den **= 3
            den *= 4.0 * math.pi
        uc /= den


def _t_derivative_u(spec: KernelSpec, u: np.ndarray) -> np.ndarray:
    """d/dt of the closed form of :func:`_eval_u`, on u = r/2 >= 0."""
    family, m, s = spec.family, spec.m, spec.s
    if family not in ("pycke", "cui-freeden", "riesz"):
        raise CapabilityError(f"no descent derivative for family {family!r}")
    if m > M_CLOSED_MAX:
        raise CapabilityError(f"no descent derivative at order m={m}")
    with np.errstate(divide="ignore", over="ignore"):
        if family == "cui-freeden":
            if m == 0:
                return 1.0 / (2.0 * u * (1.0 + u))
            if m == 1:
                return 1.0 / (4.0 * u * (1.0 + u) ** 2)
            return 1.0 / (8.0 * u * (1.0 + u) ** 3)
        if family == "riesz" and s != 0.0:
            # sign(s) 2^(m+1) poch(s/2, m+1) (2u)^(-(s+2(m+1)))
            poch = 1.0
            for j in range(m + 1):
                poch *= s / 2.0 + j
            c = math.copysign(1.0, s) * 2.0 ** (m + 1) * poch
            return c * (2.0 * u) ** (-(s + 2 * (m + 1)))
        # pycke and riesz s = 0 differ only in the 1/(4pi) of the m = 0 form
        if m == 0:
            if family == "pycke":
                return 1.0 / (_FOUR_PI * 2.0 * u * u)
            return 1.0 / (2.0 * u * u)
        if m == 1:
            return 1.0 / (4.0 * u**4)
        return 2.0 / (8.0 * u**6)


def _u_from_t(t: np.ndarray) -> np.ndarray:
    if np.any(t < -1.0) or np.any(t > 1.0):
        raise DomainError("dot-product argument must lie in [-1, 1]")
    return np.sqrt((1.0 - t) / 2.0)


def _u_from_r(r: np.ndarray) -> np.ndarray:
    if np.any(r < 0.0):
        raise DomainError("chordal distance must be non-negative")
    return r / 2.0


def _kernel_eval_u(
    spec: KernelSpec, u: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Closed form on a half-chord array u = r/2 >= 0, singularities checked.

    The entry point of :func:`kernel_eval` after argument validation, for
    callers that build ``u`` themselves and so already know it is in range.
    Raises :class:`SingularKernelError` like :func:`kernel_eval`.  The result
    goes into ``out`` as in :func:`_eval_u`; ``out=u`` evaluates in place.
    """
    if is_singular_at_coincidence(spec) and np.any(u == 0.0):
        raise SingularKernelError(spec.name, "kernel is singular at coincidence")
    if spec.family in ("gine", "ajne") and spec.m >= 1 and np.any(u >= 1.0):
        raise SingularKernelError(spec.name, "derivative is singular at t = -1")
    return _eval_u(spec, u, out)


def kernel_eval(spec: KernelSpec, x):
    """Evaluate the kernel closed form.

    ``x`` is the dot product t in [-1, 1] or the chordal distance r >= 0,
    per ``spec.convention``.  Raises :class:`SingularKernelError` when a
    singular kernel is evaluated at coincidence.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    u = _u_from_t(arr) if spec.convention == DOT_PRODUCT else _u_from_r(arr)
    out = _kernel_eval_u(spec, np.atleast_1d(u))
    return float(out[0]) if scalar else out.reshape(arr.shape)


def kernel_t_derivative(spec: KernelSpec, x):
    """d/dt of the evaluated form, in the same argument convention.

    Used by local descent during greedy node placement.  Supported for the
    pycke, cui-freeden and riesz families at m <= 2.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    u = _u_from_t(arr) if spec.convention == DOT_PRODUCT else _u_from_r(arr)
    out = _t_derivative_u(spec, np.atleast_1d(u))
    return float(out[0]) if scalar else out.reshape(arr.shape)


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
    """A_n^2 for degree n >= 1, or ``None`` where the mode is absent.

    Gine has no odd modes and ajne no even modes (their symbols are infinite
    there, so the mode contributes nothing to any reciprocal-symbol series).
    Gamma ratios go through log-gamma to stay finite for large n.
    """
    if n < 1 or n != int(n):
        raise DomainError("symbol degree must be a positive integer")
    n = int(n)
    if family == "pycke":
        return float(n * (n + 1))
    if family == "cui-freeden":
        return float(n * (n + 1) * (2 * n + 1))
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
        if s == 0.0:
            return n * (n + 1) / _FOUR_PI
        log_mag = (
            (s - 2.0) * math.log(2.0)
            - math.log(math.pi)
            + gammaln(s / 2.0)
            - gammaln(1.0 - s / 2.0)
            + gammaln(n + 2.0 - s / 2.0)
            - gammaln(n + s / 2.0)
        )
        sign = gammasgn(s / 2.0) * gammasgn(1.0 - s / 2.0)
        return float(sign * math.exp(log_mag))
    raise DomainError(f"unknown kernel family {family!r}")


@dataclass
class SymbolSequence:
    """Lazy per-degree symbol values A_n^2 for one family."""

    family: str
    s: float | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    def value(self, n: int) -> float | None:
        if n not in self._cache:
            self._cache[n] = symbol_squared(self.family, n, self.s)
        return self._cache[n]

    def series_weights(self, n_max: int) -> np.ndarray:
        """Weights (2n+1)/(4pi A_n^2) for n = 1..n_max; 0 where absent."""
        w = np.zeros(n_max + 1)
        for n in range(1, n_max + 1):
            a2 = self.value(n)
            if a2 is not None:
                w[n] = (2 * n + 1) / (_FOUR_PI * a2)
        return w


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
    ``tail_estimate`` is the magnitude of the last contributing term.
    """
    if n_max < 1:
        raise DomainError("series truncation must be >= 1")
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(np.abs(arr) > 1.0):
        raise DomainError("series argument must lie in [-1, 1]")
    weights = SymbolSequence(family, s).series_weights(n_max)
    total = np.zeros_like(arr)
    tail = np.zeros_like(arr)
    for n, stack in enumerate(derivative_recurrence(n_max, m, arr)):
        if n >= 1 and weights[n] != 0.0:
            term = weights[n] * stack[m]
            total += term
            tail = np.abs(term)
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return SeriesEval(float(total[0]), float(tail[0]))
    return SeriesEval(total, tail)
