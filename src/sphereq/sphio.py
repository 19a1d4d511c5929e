"""Coordinate conversion and every CSV file the package writes or reads.

A CSV is a header line and one comma-separated row per record, with ``\\n``
line ends, a trailing newline and floats of 17 significant digits, so that
write -> read -> write is byte-identical.  Point sets have the header
``x,y,z`` (unit vectors) or ``theta,phi`` (polar angle, azimuth); a malformed
point file of either form raises :class:`PointSetFormatError` or
:class:`PointSetValidationError` naming its 1-based line.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, PointSetFormatError, PointSetValidationError, require
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


def csv_text(header: str, rows) -> str:
    """``header`` and one line per row: floats with 17 significant digits,
    ``None`` as an empty field, anything else by ``str``."""
    def field(v) -> str:
        return "" if v is None else f"{v:.17g}" if isinstance(v, float) else str(v)

    return "\n".join([header] + [",".join(map(field, row)) for row in rows]) + "\n"


def write_text(path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def write_pointset(path, pts: PointSet) -> None:
    write_text(path, csv_text("x,y,z", pts.points.tolist()))


def _read(path, headers) -> tuple[str, PointSet]:
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    header = lines[0].strip() if lines else ""
    if header not in headers:
        expected = " or ".join(f'"{h}"' for h in headers)
        raise PointSetFormatError(f"expected header {expected}", line=1)
    width = header.count(",") + 1
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise PointSetFormatError(f"expected {width} fields, found {len(parts)}", line=lineno)
        try:
            vec = [float(part) for part in parts]
        except ValueError:
            raise PointSetFormatError("field is not a number", line=lineno)
        if not all(math.isfinite(v) for v in vec):
            raise PointSetValidationError(f"line {lineno}: coordinates must be finite")
        if header == "theta,phi":
            try:
                vec = spherical_to_cartesian(*vec)
            except DomainError as exc:
                raise PointSetValidationError(f"line {lineno}: {exc}") from None
        else:
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
    return header, PointSet(np.array(rows))


def read_points(path) -> tuple[str, PointSet]:
    """A point file of either form: its header and its points as unit vectors.
    Rows hold as many finite numbers as the header names; blank lines are skipped."""
    return _read(path, ("x,y,z", "theta,phi"))


def read_pointset(path) -> PointSet:
    """An ``x,y,z`` point file.  A norm off 1 by more than 1e-6 is refused, and one
    off by more than 1e-13 is divided out, so the points are unit to machine precision."""
    return _read(path, ("x,y,z",))[1]
