"""Shared domain types and exact interpolation primitives.

Everything in this module is plain float64 math. Reduced precision is
modelled exclusively by the sampler emulator, so quantization effects stay
isolated from the bookkeeping around them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

MAX_CHANNELS = 4


class TexCurveError(Exception):
    """Base class for errors raised by this package."""


class ChannelMismatchError(TexCurveError):
    """Operands carry an incompatible number of channels."""


class DomainError(TexCurveError):
    """Parameter or coordinate outside its valid domain."""


class RangeError(TexCurveError):
    """Texel value cannot be represented in the requested format."""


class UnsupportedDegreeError(TexCurveError):
    """Curve degree outside what the requested operation supports."""


class LayoutError(TexCurveError):
    """Operation applied to an incompatible layout or grid shape."""


class JoinError(TexCurveError):
    """Piecewise segments do not meet exactly."""


class HomogeneousDivideError(TexCurveError):
    """Decoded weight channel too close to zero to divide by."""


class TexelFormat(enum.Enum):
    UNORM8 = "unorm8"
    UNORM16 = "unorm16"
    FLOAT32 = "float32"

    @property
    def is_unorm(self) -> bool:
        return self is not TexelFormat.FLOAT32

    @property
    def levels(self) -> int:
        """Top integer code of the unorm lattice (values are k/levels)."""
        if self is TexelFormat.UNORM8:
            return 255
        if self is TexelFormat.UNORM16:
            return 65535
        raise ValueError("float32 has no unorm level count")

    def quant_step(self, reference: float = 1.0) -> float:
        """Size of one quantization step near `reference` magnitude."""
        if self.is_unorm:
            return 1.0 / self.levels
        return float(np.spacing(np.float32(abs(reference))))


class Layout(enum.Enum):
    DC_QUAD_2X2 = "dc_quad_2x2"
    DC_CUBIC_2X2X2 = "dc_cubic_2x2x2"
    DC_ZIGZAG = "dc_zigzag"
    SEILER_2D = "seiler_2d"
    SEILER_3D = "seiler_3d"
    BILINEAR_PATCH = "bilinear_patch"
    BICUBIC_RGBA = "bicubic_rgba"
    RATIONAL_HOMOGENEOUS = "rational_homogeneous"


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ControlPolygon:
    """Ordered curve control points; degree is point count minus one.

    `points` is (n, channels) with 1..4 channels. A 1-D input is treated as
    a single-channel curve. `magnitude`, the largest |point|, comes from the
    finiteness check; the reference evaluators read it to tell whether any
    step can overflow float64.
    """

    points: np.ndarray
    magnitude: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ChannelMismatchError("control points must form a 1-D or 2-D array")
        if pts.shape[0] < 2:
            raise DomainError("a curve needs at least two control points")
        if not 1 <= pts.shape[1] <= MAX_CHANNELS:
            raise ChannelMismatchError(
                f"points must have 1..{MAX_CHANNELS} channels, got {pts.shape[1]}"
            )
        magnitude = float(np.abs(pts).max())
        if not magnitude < np.inf:  # NaN too
            raise DomainError("control points must be finite")
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "magnitude", magnitude)

    @property
    def degree(self) -> int:
        return self.points.shape[0] - 1

    @property
    def channels(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class TexelGrid:
    """2-D or 3-D grid of multi-channel texels, stored post-quantization.

    `data` is (depth, height, width, channels) float64. For unorm formats
    every stored value must sit exactly on the k/levels lattice.
    """

    dims: Tuple[int, int, int]
    channels: int
    fmt: TexelFormat
    data: np.ndarray

    def __post_init__(self):
        w, h, d = (int(v) for v in self.dims)
        if w < 1 or h < 1 or d < 1:
            raise LayoutError(f"grid dims must be positive, got {self.dims}")
        if not 1 <= self.channels <= MAX_CHANNELS:
            raise ChannelMismatchError(f"grids carry 1..{MAX_CHANNELS} channels")
        data = np.asarray(self.data, dtype=float).reshape(d, h, w, self.channels)
        if data.size != w * h * d * self.channels:
            raise LayoutError("texel count does not match dims x channels")
        if self.fmt.is_unorm:
            m = self.fmt.levels
            codes = np.rint(data * m)
            if (
                np.any(data < 0.0)
                or np.any(data > 1.0)
                or not np.array_equal(codes / m, data)
            ):
                raise RangeError(f"unorm grid values must lie exactly on the k/{m} lattice")
        object.__setattr__(self, "dims", (w, h, d))
        object.__setattr__(self, "data", _freeze(data))

    @property
    def width(self) -> int:
        return self.dims[0]

    @property
    def height(self) -> int:
        return self.dims[1]

    @property
    def depth(self) -> int:
        return self.dims[2]

    @property
    def texel_count(self) -> int:
        return self.width * self.height * self.depth

    def texel(self, x: int, y: int, z: int = 0) -> np.ndarray:
        return self.data[z, y, x]

    def slice2d(self, z: int) -> "TexelGrid":
        """Extract one depth slice as a standalone 2-D grid."""
        if not 0 <= z < self.depth:
            raise LayoutError(f"slice index {z} outside depth {self.depth}")
        return TexelGrid((self.width, self.height, 1), self.channels, self.fmt, self.data[z])


@dataclass(frozen=True)
class SamplerConfig:
    """Fully determines the emulated fixed-function interpolation.

    subtexel_bits = 0 means exact coordinates (no quantization). Texel
    storage always rounds to nearest and addressing always clamps to the
    edge; those are the only behaviours modelled.
    """

    subtexel_bits: int = 8
    subtexel_rounding: str = "nearest"

    def __post_init__(self):
        if not 0 <= self.subtexel_bits <= 24:
            raise DomainError("subtexel_bits must be in [0, 24]")
        if self.subtexel_rounding not in ("nearest", "floor"):
            raise DomainError("subtexel_rounding must be 'nearest' or 'floor'")

    @classmethod
    def ideal(cls) -> "SamplerConfig":
        return cls(subtexel_bits=0)


@dataclass(frozen=True)
class ValueTransform:
    """Per-channel affine map applied to texel values at encode time.

    stored = value * scale + offset; decoding inverts it.
    """

    scale: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        scale = np.atleast_1d(np.asarray(self.scale, dtype=float))
        offset = np.atleast_1d(np.asarray(self.offset, dtype=float))
        if scale.shape != offset.shape or scale.ndim != 1:
            raise ChannelMismatchError("scale and offset must be matching 1-D vectors")
        if np.any(scale == 0.0) or not np.all(np.isfinite(scale)) or not np.all(np.isfinite(offset)):
            raise DomainError("transform scale must be finite and nonzero")
        object.__setattr__(self, "scale", _freeze(scale))
        object.__setattr__(self, "offset", _freeze(offset))

    @property
    def channels(self) -> int:
        return self.scale.shape[0]

    @property
    def is_identity(self) -> bool:
        return bool(np.all(self.scale == 1.0) and np.all(self.offset == 0.0))

    def apply(self, values):
        return np.asarray(values, dtype=float) * self.scale + self.offset

    def invert(self, values):
        return (np.asarray(values, dtype=float) - self.offset) / self.scale

    @classmethod
    def identity(cls, channels: int) -> "ValueTransform":
        return cls(np.ones(channels), np.zeros(channels))


#: layout -> (allowed degrees, required dims or None)
_LAYOUT_RULES = {
    Layout.DC_QUAD_2X2: ({2}, (2, 2, 1)),
    Layout.DC_CUBIC_2X2X2: ({3}, (2, 2, 2)),
    Layout.SEILER_2D: ({2, 3}, (2, 2, 1)),
    Layout.SEILER_3D: ({4, 5}, (2, 2, 2)),
    Layout.BILINEAR_PATCH: ({1}, (2, 2, 1)),
    Layout.BICUBIC_RGBA: ({3}, (2, 2, 2)),
}


@dataclass(frozen=True)
class EncodedCurve:
    """A texel grid plus the metadata needed to decode it.

    `inner_layout` is only meaningful for rational curves, where it records
    which integral layout the homogeneous channels were packed with. Only a
    zig-zag chain holds more than one segment, and a rational curve keeps
    an identity transform on its weight channel, the last: an affine map
    does not commute with the divide by the weight.
    """

    grid: TexelGrid
    layout: Layout
    degree: int
    segment_count: int = 1
    transform: Optional[ValueTransform] = None
    inner_layout: Optional[Layout] = None

    def __post_init__(self):
        if self.transform is None:
            object.__setattr__(self, "transform", ValueTransform.identity(self.grid.channels))
        if self.transform.channels != self.grid.channels:
            raise ChannelMismatchError("transform channel count must match the grid")
        if self.segment_count < 1:
            raise DomainError("segment_count must be >= 1")
        if self.layout is not Layout.DC_ZIGZAG and self.segment_count != 1:
            raise LayoutError(f"{self.layout.value} holds one segment, got {self.segment_count}")
        rule = _LAYOUT_RULES.get(self.layout)
        if rule is not None:
            degrees, dims = rule
            if self.degree not in degrees:
                raise LayoutError(f"{self.layout.value} cannot hold a degree-{self.degree} curve")
            if dims is not None and self.grid.dims != dims:
                raise LayoutError(f"{self.layout.value} requires grid dims {dims}, got {self.grid.dims}")
        elif self.layout is Layout.DC_ZIGZAG:
            if self.degree != 2:
                raise LayoutError("zig-zag grids hold quadratic segments only")
            expect = (self.segment_count + 1, 2, 1)
            if self.grid.dims != expect:
                raise LayoutError(f"zig-zag dims must be {expect}, got {self.grid.dims}")
        elif self.layout is Layout.RATIONAL_HOMOGENEOUS:
            if self.degree not in (2, 3):
                raise LayoutError("rational encoding supports degrees 2 and 3")
            if self.inner_layout not in (Layout.SEILER_2D, Layout.DC_QUAD_2X2, Layout.DC_CUBIC_2X2X2):
                raise LayoutError("rational curves must record an integral inner layout")
            dims = _LAYOUT_RULES[self.inner_layout][1]
            if self.grid.dims != dims:
                raise LayoutError(
                    f"rational curves packed as {self.inner_layout.value} require grid dims "
                    f"{dims}, got {self.grid.dims}"
                )
            if self.transform.scale[-1] != 1.0 or self.transform.offset[-1] != 0.0:
                raise LayoutError(
                    "rational curves must keep an identity transform on the weight channel"
                )
        if self.layout is not Layout.RATIONAL_HOMOGENEOUS and self.inner_layout is not None:
            raise LayoutError("inner_layout is only meaningful for rational curves")


def _unit_param(t):
    """t as a float array, DomainError unless every value lies in [0, 1]."""
    t = np.asarray(t, dtype=float)
    if not ((t >= 0.0) & (t <= 1.0)).all():  # also false for NaN and inf
        raise DomainError("parameter outside [0, 1]")
    return t


def lerp(a, b, t):
    """Linear interpolation a*(1-t) + b*t in full working precision.

    `t` may be a scalar or any array broadcastable against a and b.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ChannelMismatchError(f"lerp endpoints differ in shape: {a.shape} vs {b.shape}")
    t = np.asarray(t, dtype=float)
    return a * (1.0 - t) + b * t


def remap_unit_to_texel_span(x, extent: int):
    """Map [0, 1] onto the span between the first and last texel centers.

    Texel values live at cell centers, so a parameter of 0 must address the
    center of the first texel, not the texture border: the result is
    (0.5 + x*(extent-1)) / extent. For extent 2 this is the [0.25, 0.75] span.
    """
    extent = int(extent)
    if extent < 2:
        raise DomainError("remap needs at least 2 texels along the axis")
    x = np.asarray(x, dtype=float)
    if not ((x >= 0.0) & (x <= 1.0)).all():  # also false for NaN and inf
        raise DomainError("parameter outside [0, 1]; clamp first if that is intended")
    return (0.5 + x * (extent - 1)) / extent
