"""Line-oriented curve description files.

Hand-editable fixtures: `degree d`, `channels c`, optional `knots ...` and
`weights ...` lines, then one control point per line as space-separated
reals. `#` starts a comment. Example:

    # one scalar cubic
    degree 3
    channels 1
    0
    1
    1
    0
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DomainError, _write_file


@dataclass(frozen=True)
class CurveFile:
    degree: int
    channels: int
    points: np.ndarray
    knots: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None


def parse_curve_text(text: str) -> CurveFile:
    degree = None
    channels = None
    knots = None
    weights = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0].lower()
        try:
            if key == "degree":
                degree = int(parts[1])
            elif key == "channels":
                channels = int(parts[1])
            elif key == "knots":
                knots = np.array([float(v) for v in parts[1:]])
            elif key == "weights":
                weights = np.array([float(v) for v in parts[1:]])
            else:
                rows.append([float(v) for v in parts])
        except (ValueError, IndexError) as exc:
            raise DomainError(f"curve file line {lineno}: cannot parse {raw!r}") from exc
    if degree is None or channels is None:
        raise DomainError("curve file must declare degree and channels")
    if not rows:
        raise DomainError("curve file has no control points")
    widths = {len(r) for r in rows}
    if widths != {channels}:
        raise DomainError(f"control point width mismatch: declared {channels}, found {sorted(widths)}")
    return CurveFile(
        degree=degree,
        channels=channels,
        points=np.array(rows, dtype=float),
        knots=knots,
        weights=weights,
    )


def read_curve_file(path) -> CurveFile:
    """Parse the file at `path`; bytes that are not text raise DomainError."""
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"curve file {path} is not text ({exc.reason})") from None
    return parse_curve_text(text)


def curve_text(degree: int, points: np.ndarray, *, knots=None, weights=None) -> str:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    lines = [f"degree {degree}", f"channels {pts.shape[1]}"]
    if knots is not None:
        lines.append("knots " + " ".join(repr(float(v)) for v in knots))
    if weights is not None:
        lines.append("weights " + " ".join(repr(float(v)) for v in weights))
    for row in pts:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def write_curve_file(path, degree: int, points, *, knots=None, weights=None) -> None:
    """Write `curve_text`; the text is built before the file is opened, so
    points it refuses leave an existing file as it was."""
    _write_file(path, curve_text(degree, points, knots=knots, weights=weights).encode("utf-8"))
