"""Coordinate conversion and point-set file I/O.

Point sets travel as CSV with the exact header ``x,y,z`` and one point per
row, written with 17 significant digits so that write -> read -> write is
byte-identical.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PointSetFormatError, PointSetValidationError, require
from .discrepancy import PointSet

_NORM_TOLERANCE = 1e-6


def spherical_to_cartesian(theta: float, phi: float) -> np.ndarray:
    """Unit vector from polar angle theta in [0, pi], azimuth phi in [0, 2pi)."""
    require(0.0 <= theta <= math.pi, "polar angle must lie in [0, pi]")
    require(0.0 <= phi < 2.0 * math.pi, "azimuth must lie in [0, 2pi)")
    s = math.sin(theta)
    return np.array([s * math.cos(phi), s * math.sin(phi), math.cos(theta)])


@np.errstate(over="ignore")  # a huge coordinate fails the norm test
def cartesian_to_spherical(p) -> tuple[float, float]:
    """Inverse of :func:`spherical_to_cartesian`; the poles get azimuth 0."""
    p = np.asarray(p, dtype=float)
    norm = float(np.sqrt(np.sum(p * p)))
    require(p.shape == (3,) and abs(norm - 1.0) <= _NORM_TOLERANCE, "input must be a unit vector")
    theta = math.acos(min(1.0, max(-1.0, p[2] / norm)))
    if math.hypot(p[0], p[1]) == 0.0:
        return theta, 0.0
    phi = math.atan2(p[1], p[0])
    if phi < 0.0:
        phi += 2.0 * math.pi
    if phi >= 2.0 * math.pi:
        phi = 0.0
    return theta, phi


def write_pointset(path, pts: PointSet) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y,z\n")
        for row in pts.points:
            fh.write(f"{row[0]:.17g},{row[1]:.17g},{row[2]:.17g}\n")


def read_pointset(path) -> PointSet:
    """Parse a point-set CSV; rows are re-normalized after validation.

    Norm deviations above 1e-6 are rejected; accepted rows are divided by
    their norm so the stored points are unit to machine precision.
    """
    rows = []
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "x,y,z":
        raise PointSetFormatError('expected header "x,y,z"', line=1)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise PointSetFormatError(
                f"expected 3 fields, found {len(parts)}", line=lineno
            )
        try:
            vec = [float(part) for part in parts]
        except ValueError:
            raise PointSetFormatError("field is not a number", line=lineno)
        if not all(math.isfinite(v) for v in vec):
            raise PointSetValidationError(f"line {lineno}: coordinates must be finite")
        norm = math.sqrt(sum(v * v for v in vec))
        if abs(norm - 1.0) > _NORM_TOLERANCE:
            raise PointSetValidationError(
                f"line {lineno}: norm {norm:.9g} deviates from 1 by more than "
                f"{_NORM_TOLERANCE:g}"
            )
        if abs(norm - 1.0) > 1e-13:
            vec = [v / norm for v in vec]  # keep exact bits for clean inputs
        rows.append(vec)
    if not rows:
        raise PointSetFormatError("file holds no points", line=len(lines))
    return PointSet(np.array(rows))
