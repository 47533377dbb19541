"""Shared domain types, the texel storage quantizer, exact
interpolation primitives and the one writer of output files.

All of this module's arithmetic is plain float64 math. Storage precision is
stated once, by the quantizer beside `TexelFormat` (`_quantize_array`),
which the encoder stores its texels through. The unorm codes are stated
once too (`_unorm_codes`): `TexelGrid` accepts a unorm grid exactly when
its codes read back as it, and the CTEX1 writer stores those codes.
Coordinate precision is modelled by the sampler emulator. Every output
file of the package is written by `_write_file`.
"""

from __future__ import annotations

import enum
import operator
import os
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

MAX_CHANNELS = 4

#: samples per slice of a long 1-D parameter lattice, on the texture path
#: (`texeval._fetch`) and in the float64 references (`reference._blocked`):
#: one 4-channel float64 slice is 256 kB, so a slice's temporaries stay
#: near a 2 MB L2 cache
_BLOCK = 8192


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


#: the largest float32, as a float, and the float32 just below it
_FLOAT32_MAX = float(np.finfo(np.float32).max)
_FLOAT32_TOP = np.nextafter(np.float32(_FLOAT32_MAX), np.float32(0.0))


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
        """Size of one quantization step near `reference` magnitude.

        float32 raises DomainError for a magnitude it cannot hold: beyond
        its largest value, infinite or NaN. The largest value takes the
        step of the float32 below it, which shares its binade, since
        `np.spacing` of the largest overflows."""
        if self.is_unorm:
            return 1.0 / self.levels
        magnitude = abs(reference)
        if not magnitude <= _FLOAT32_MAX:  # NaN too
            raise DomainError(f"float32 cannot hold a value of magnitude {float(magnitude)!r}")
        return float(np.spacing(np.minimum(np.float32(magnitude), _FLOAT32_TOP)))


#: Dekker's splitter for float64: 2^27 + 1
_SPLITTER = 134217729.0


def _quantize_array(values: np.ndarray, fmt: TexelFormat) -> np.ndarray:
    """Quantize texels to the storage format in one exact array pass.

    float32 rounds each value to the nearest 32-bit float; a value beyond
    its range becomes inf, which `encoder._finish` rejects. unorm formats
    clamp v to [0, 1] and store k/L (L = fmt.levels) with
    k = floor(v·L + 1/2), round half up, decided exactly:

    - Dekker's split c = (2^27 + 1)·v, hi = c - (c - v), lo = v - hi gives
      v = hi + lo exactly, hi with at most 26 significant bits and lo with
      at most 27. As L < 2^17, a = hi·L and b = lo·L are exact products.
    - TwoSum s = a + b, e = (a - (s - (s - a))) + (b - (s - a)) gives
      s + e = v·L exactly, with |e| <= ulp(s)/2 <= 2^-37 since s <= L.
    - With f = floor(s), d = s - f is exact (Sterbenz for s >= 1, d = s
      below), and -1/2 < d + e < 1, so k = f + [d + e >= 1/2].
    - The test runs as d - 1/2 >= -e. For d >= 1/4, d - 1/2 is exact
      (Sterbenz), so the comparison is exact. For d < 1/4 both sides of
      the decision are false: d + e < 1/2, and the rounded d - 1/2 is at
      most -1/4 < -e.
    - k <= L is exact, and k / L is the one correctly rounded division that
      the int k / L of a `Fraction` decision gives.

    A subnormal v can make lo·L inexact, but then v·L is below 2^-1000 and
    every term is tiny, so k = 0 regardless. NaN stores as NaN. The clamp
    is `np.minimum(np.maximum(v, 0), 1)`, which turns -0.0 into +0.0 where
    `np.clip` keeps it; either way the output is f / L with f = +0.0, so
    -0.0 stores as +0.0 and the output bytes are `np.clip`'s.

    The output is a fixed point: quantizing it again returns the same
    bytes, since k/L is on the lattice and float32 values round to
    themselves. Its unorm values are the ones `TexelGrid` accepts (see
    `_unorm_codes`). `quantize_texel` is this kernel on one value.
    """
    if fmt is TexelFormat.FLOAT32:
        with np.errstate(over="ignore"):
            return values.astype(np.float32).astype(float)
    levels = float(fmt.levels)
    v = np.minimum(np.maximum(values, 0.0), 1.0)
    c = _SPLITTER * v
    hi = c - (c - v)
    a, b = hi * levels, (v - hi) * levels
    s = a + b
    bs = s - a
    e = (a - (s - bs)) + (b - bs)
    f = np.floor(s)
    return (f + (s - f - 0.5 >= -e)) / levels


def quantize_texel(v: float, fmt: TexelFormat) -> float:
    """Quantize one value to the storage format.

    unorm formats clamp to [0, 1] and round half away from zero onto the
    k/levels lattice; the tie decision is exact, so it never depends on a
    double rounding of v*levels. float32 rounds to the nearest 32-bit
    float. This is `_quantize_array` on one value.
    """
    return float(_quantize_array(np.asarray(v, dtype=float), fmt))


def _unorm_codes(values: np.ndarray, fmt: TexelFormat) -> np.ndarray:
    """The integer code k of each unorm value k/L (L = fmt.levels), as
    float64: rint(clip(v, 0, 1)·L). NaN stays NaN.

    `TexelGrid` accepts a unorm value x exactly when codes / L == x,
    and these are exactly the values that `_quantize_array` leaves
    unchanged, the fl(k/L) for an integer k in [0, L]:

    - If x = fl(k/L), then x = (k/L)(1 + d) with |d| <= 2^-53, and
      fl(x·L) = k(1 + d)(1 + d') with |d'| <= 2^-53, which is within
      2^-36 of k since k <= L < 2^17. So the rint gives k, and fl(k/L) = x.
      The quantizer leaves x unchanged too: x·L is as close to k, so it
      rounds to k, and stores fl(k/L) = x.
    - If x passes, its clip c lies in [0, 1], so c·L lies in [0, L] (the
      product with 1 is exact and rounding is monotone), its rint k is an
      integer in [0, L], and x = fl(k/L).
    - -0.0 passes both checks (it compares equal to +0.0); NaN fails both
      (NaN equals nothing), and so do ±inf, which clip to 1 and 0.
    """
    return np.rint(values.clip(0.0, 1.0) * fmt.levels)


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

    `dims` is (width, height, depth), three positive integers, and `data`
    holds exactly width·height·depth·channels values; it is stored as
    (depth, height, width, channels) float64. For unorm formats every
    stored value must sit exactly on the k/levels lattice: the grid is
    accepted exactly when its codes (`_unorm_codes`) read back as it, which
    is exactly when `_quantize_array` leaves it unchanged (a -0.0 texel
    keeps its sign). float32 values must be finite; CTEX1 writes only those
    that binary32 holds (`container.curve_to_bytes`).

    This one constructor builds and checks every grid: the encoders',
    `slice2d`'s and the CTEX1 reader's. The checks run in this order:
    dims, channels, texel count, then the values.
    """

    dims: Tuple[int, int, int]
    channels: int
    fmt: TexelFormat
    data: np.ndarray

    def __post_init__(self):
        try:
            w, h, d = (operator.index(v) for v in self.dims)
        except (TypeError, ValueError):  # not three integers
            raise LayoutError(f"grid dims must be three integers, got {self.dims!r}") from None
        if w < 1 or h < 1 or d < 1:
            raise LayoutError(f"grid dims must be positive, got {self.dims}")
        if not 1 <= self.channels <= MAX_CHANNELS:
            raise ChannelMismatchError(f"grids carry 1..{MAX_CHANNELS} channels")
        data = np.asarray(self.data, dtype=float)
        count = w * h * d * self.channels
        if data.size != count:
            raise LayoutError(f"texel count does not match dims x channels: {data.size} "
                              f"values for {count}")
        data = data.reshape(d, h, w, self.channels)
        if self.fmt.is_unorm:
            if not (_unorm_codes(data, self.fmt) / self.fmt.levels == data).all():
                raise RangeError(
                    f"unorm grid values must lie exactly on the k/{self.fmt.levels} lattice")
        elif not np.isfinite(data).all():
            raise RangeError("float32 grid values must be finite")
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
        """The texel at column x, row y and slice z. The indices are read
        through `operator.index`; LayoutError for one that is not an
        integer, or outside the dims."""
        try:
            x, y, z = (operator.index(v) for v in (x, y, z))
        except TypeError:  # not integers
            raise LayoutError(f"texel indices must be integers, got ({x!r}, {y!r}, {z!r})") from None
        if not (0 <= x < self.width and 0 <= y < self.height and 0 <= z < self.depth):
            raise LayoutError(f"texel ({x}, {y}, {z}) outside dims {self.dims}")
        return self.data[z, y, x]

    def slice2d(self, z: int) -> "TexelGrid":
        """Extract one depth slice as a standalone 2-D grid. The index is
        read through `operator.index`; LayoutError for one that is not an
        integer, or outside the depth."""
        try:
            z = operator.index(z)
        except TypeError:  # not an integer
            raise LayoutError(f"slice index must be an integer, got {z!r}") from None
        if not 0 <= z < self.depth:
            raise LayoutError(f"slice index {z} outside depth {self.depth}")
        return TexelGrid((self.width, self.height, 1), self.channels, self.fmt, self.data[z])


@dataclass(frozen=True)
class SamplerConfig:
    """Fully determines the emulated fixed-function interpolation.

    subtexel_bits = 0 means exact coordinates (no quantization). It is
    read through `operator.index`, as `TexelGrid` reads its dims, and
    stored as an int. Texel storage always rounds to nearest and
    addressing always clamps to the edge; those are the only behaviours
    modelled.
    """

    subtexel_bits: int = 8
    subtexel_rounding: str = "nearest"

    def __post_init__(self):
        try:
            bits = operator.index(self.subtexel_bits)
        except TypeError:  # not an integer
            raise DomainError(
                f"subtexel_bits must be an integer, got {self.subtexel_bits!r}") from None
        if not 0 <= bits <= 24:
            raise DomainError("subtexel_bits must be in [0, 24]")
        if self.subtexel_rounding not in ("nearest", "floor"):
            raise DomainError("subtexel_rounding must be 'nearest' or 'floor'")
        object.__setattr__(self, "subtexel_bits", bits)

    @classmethod
    def ideal(cls) -> "SamplerConfig":
        return cls(subtexel_bits=0)


@dataclass(frozen=True)
class ValueTransform:
    """Per-channel affine map applied to texel values at encode time.

    stored = value * scale + offset; decoding inverts it. scale and offset
    are matching 1-D vectors (ChannelMismatchError otherwise; empty ones
    pass), every scale finite and nonzero and every offset finite
    (DomainError otherwise). One test decides the values: the finite
    checks come first, so `scale.all()` sees no NaN, which is truthy.
    """

    scale: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        scale = np.atleast_1d(np.asarray(self.scale, dtype=float))
        offset = np.atleast_1d(np.asarray(self.offset, dtype=float))
        if scale.shape != offset.shape or scale.ndim != 1:
            raise ChannelMismatchError("scale and offset must be matching 1-D vectors")
        if not (np.isfinite(scale).all() and np.isfinite(offset).all() and scale.all()):
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
        value = np.asarray(values, dtype=float) - self.offset
        value /= self.scale  # in place: the offset is 1-D, so value is an array
        return value

    @classmethod
    def identity(cls, channels: int) -> "ValueTransform":
        return cls(np.ones(channels), np.zeros(channels))


#: layout -> (allowed degrees, required dims)
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
            if self.grid.dims != dims:
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


def _param_in(t, lo, hi, outside: str):
    """t as a float array, DomainError unless every value lies in [lo, hi]:
    the one interval check of every parameter domain.

    One min and one max decide it. Both propagate NaN, which fails either
    comparison. Their initial values lo and hi let an empty array pass and
    change no other verdict: min(lo, m) >= lo exactly when m >= lo, and
    max(hi, M) <= hi exactly when M <= hi. Only a failed check looks for
    the first value outside, in C order, and raises DomainError with
    `outside` formatted with it as `t` and with the ends as `lo` and `hi`."""
    t = np.asarray(t, dtype=float)
    if not (np.minimum.reduce(t, axis=None, initial=lo) >= lo
            and np.maximum.reduce(t, axis=None, initial=hi) <= hi):
        raise DomainError(outside.format(t=t[~((t >= lo) & (t <= hi))][0], lo=lo, hi=hi))
    return t


def _unit_param(t):
    """t as a float array, DomainError unless every value lies in [0, 1]."""
    return _param_in(t, 0.0, 1.0, "parameter outside [0, 1]")


def _lerp(a, b, t, s):
    """The lerp kernel a*s + b*t, with the complement s = 1 - t given and
    nothing checked: float64 endpoints of one shape, and t and s that
    broadcast against them. The sum is added in place into the first
    product: the same two products and the same add, in the same order,
    with one temporary fewer. `lerp` is this kernel after its checks, and
    the sampler's blend (`sampler._lerp_axes`) runs every corner axis
    through it, at the fraction and complement that the lookup state
    computes once per stage.
    """
    value = a * s
    value += b * t
    return value


def lerp(a, b, t):
    """Linear interpolation a*(1-t) + b*t in full working precision.

    `t` may be a scalar or any array broadcastable against a and b. The
    arithmetic is `_lerp`'s, at s = 1 - t.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ChannelMismatchError(f"lerp endpoints differ in shape: {a.shape} vs {b.shape}")
    t = np.asarray(t, dtype=float)
    return _lerp(a, b, t, 1.0 - t)


def _texel_span(x):
    """The span map onto a 2-texel axis, (0.5 + x) * 0.5, without the
    checks of `remap_unit_to_texel_span`, for parameters the caller has
    already validated; every evaluator's span axis has 2 texels.

    It has the bytes of the general map (0.5 + x*(extent - 1)) / extent at
    extent 2 for every x: x*1 = x exactly (±0.0 included), and y * 0.5 and
    y / 2 are each one correctly rounded operation on the same real y/2,
    so they round to the same float.
    """
    return (0.5 + x) * 0.5


def remap_unit_to_texel_span(x, extent: int):
    """Map [0, 1] onto the span between the first and last texel centers.

    Texel values live at cell centers, so a parameter of 0 must address the
    center of the first texel, not the texture border: the result is
    (0.5 + x*(extent-1)) / extent. For extent 2 this is the [0.25, 0.75] span.
    This is the checked map: the evaluators validate their parameters once
    per call and map them per block through `_texel_span`, which has this
    map's bytes at extent 2 without the checks.
    """
    extent = int(extent)
    if extent < 2:
        raise DomainError("remap needs at least 2 texels along the axis")
    x = _param_in(x, 0.0, 1.0, "parameter outside [0, 1]; clamp first if that is intended")
    return (0.5 + x * (extent - 1)) / extent


def _write_file(path, *chunks) -> None:
    """Write the byte chunks, in order, to the file at `path`, over its old
    bytes, then cut it to the written length if it was longer. Every output
    file of the package is written here, after its content is built whole.

    The file is opened without `O_TRUNC`. On ext4 (default `auto_da_alloc`)
    a file truncated to zero and written again is flushed to disk when it
    is closed. Rewriting an existing file on one ext4 host (median of
    200-300 rewrites) took 470-820 us that way for the render's 786 KB
    pixmap and 30-37 us in place; a 100 B curve file took 71 against 8 us.

    A new file gets the mode `open()` gives it, 0o666 less the umask, and a
    symlink is written through. The cut compares the file's size with the
    bytes written, never its position: a pipe, a tty or /dev/null reports
    size 0 and is never cut, and a pipe cannot report a position. The
    write is neither crash-atomic nor an atomic replacement: a reader
    alongside it, or a crash before the cut, can see new bytes over old.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        written = sum(fh.write(chunk) for chunk in chunks)
        fh.flush()
        if os.fstat(fd).st_size > written:
            os.ftruncate(fd, written)
