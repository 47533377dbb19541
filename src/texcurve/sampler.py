"""Bit-exact software emulation of GPU fixed-function linear filtering.

Coordinate model: normalized coordinates convert to texel space as
coord * extent - 0.5, placing texel values at cell centers. Neighbor
indices clamp to the edge; the fractional position along each axis is
quantized to subtexel fixed point before the blend, which runs in float64.
Bilinear and trilinear fetches and the explicit-fraction probe all run one
blend kernel, a fixed chain of lerps along x, then y, then z. The kernel
views the grid as a flat (channels, texels) table and gathers each corner
with one `take` at offset x + w*y + w*h*z, so every lerp runs over
channel rows whose sample axis is contiguous.

All entry points accept scalar coordinates or equal-length coordinate
arrays; array calls return stacked results of shape (n, channels), stored
channel-major (Fortran order).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    DomainError,
    LayoutError,
    SamplerConfig,
    TexelFormat,
    TexelGrid,
    lerp,
)


def quantize_texel(v: float, fmt: TexelFormat) -> float:
    """Quantize one value to the storage format.

    unorm formats clamp to [0, 1] and round half away from zero onto the
    k/levels lattice; the tie decision is made in exact rational arithmetic
    so it never depends on a double rounding of v*levels. float32 rounds to
    the nearest 32-bit float.
    """
    if fmt is TexelFormat.FLOAT32:
        return float(np.float32(v))
    levels = fmt.levels
    v = min(max(float(v), 0.0), 1.0)
    scaled = Fraction(v) * levels
    k = scaled.numerator // scaled.denominator
    if scaled - k >= Fraction(1, 2):
        k += 1
    return k / levels


def quantize_fraction(f, cfg: SamplerConfig):
    """Quantize a fractional texel position to fixed point.

    Scaling by 2^bits is exact in binary floating point, so the floor and
    the half-way comparison below are exact decisions. Under nearest
    rounding the result may reach 1.0, which is a legal weight.
    """
    if cfg.subtexel_bits == 0:
        return f
    step = float(1 << cfg.subtexel_bits)
    scaled = np.asarray(f, dtype=float) * step
    base = np.floor(scaled)
    if cfg.subtexel_rounding == "nearest":
        base = base + (scaled - base >= 0.5)
    return base / step


@dataclass(frozen=True)
class SampleTrace:
    """Which texels a lookup touched and with what quantized weights.

    `texel_indices` holds (x, y, z) per corner (4 bilinear, 8 trilinear);
    `fractions` holds the post-quantization fraction per axis, so the
    weight pair along each axis is (1 - f, f) by construction.
    """

    texel_indices: tuple
    fractions: tuple
    raw_value: np.ndarray

    @property
    def weights(self) -> tuple:
        return tuple((1.0 - np.asarray(f, dtype=float), np.asarray(f, dtype=float))
                     for f in self.fractions)


def texel_cell(coord, extent: int):
    """Unclamped base index and fractional position along one axis."""
    pos = np.asarray(coord, dtype=float) * extent - 0.5
    base = np.floor(pos)
    return base.astype(np.int64), pos - base


def _clamp_pair(base, extent: int):
    i0 = np.clip(base, 0, extent - 1)
    i1 = np.clip(base + 1, 0, extent - 1)
    return i0, i1


def _require_finite(x, name: str):
    if not np.all(np.isfinite(np.asarray(x, dtype=float))):
        raise DomainError(f"{name} must be finite")


def _blend(grid: TexelGrid, pairs, fractions):
    """The one lerp chain behind every lookup.

    `pairs` holds the clamped (i0, i1) index pair per axis and `fractions`
    the blend fraction per axis, both in x, y[, z] order. Corner texels are
    blended pairwise along x, then y, then z; that order is part of the
    emulated result, bit for bit. Two axes read depth slice 0.

    The texels are read as one flat (channels, texels) table: each axis's
    index pair becomes a pair of offsets scaled by the axis stride (1, w,
    w*h), and each corner is one `take` at the summed offset x + w*y + w*h*z.
    A flat take costs a fraction of a 3-array fancy index. Each corner is
    (channels, ...) with the samples contiguous, so fractions broadcast
    unchanged and each lerp's inner loop runs over the samples rather than
    the 1 to 4 channels. The result is a view with the channel axis last,
    so it stays channel-major.
    """
    texels = grid.data.reshape(-1, grid.channels).T
    strides = (1, grid.width, grid.width * grid.height)
    offsets = [(i0 * stride, i1 * stride) for (i0, i1), stride in zip(pairs, strides)]
    value = _lerp_axes(texels, 0, offsets, fractions)
    return value.transpose(*range(1, value.ndim), 0)


def _lerp_axes(texels, offset, offsets, fractions):
    """Lerp along the last axis of `offsets`, recursing into the earlier
    axes with the flat offset of the outer indices chosen so far. Depth
    first, so only one corner pair per axis is alive at a time."""
    if not offsets:
        return texels.take(offset, axis=1)
    o0, o1 = offsets[-1]
    return lerp(
        _lerp_axes(texels, offset + o0, offsets[:-1], fractions[:-1]),
        _lerp_axes(texels, offset + o1, offsets[:-1], fractions[:-1]),
        fractions[-1],
    )


def _sample(grid: TexelGrid, coords, cfg: SamplerConfig):
    """Normalized coordinates -> texel cells -> quantized fractions -> blend."""
    for coord, name in zip(coords, "uvw"):
        _require_finite(coord, name)
    cells = [texel_cell(coord, extent) for coord, extent in zip(coords, grid.dims)]
    fractions = tuple(quantize_fraction(frac, cfg) for _, frac in cells)
    pairs = [_clamp_pair(base, extent) for (base, _), extent in zip(cells, grid.dims)]
    value = _blend(grid, pairs, fractions)
    if len(pairs) == 2:
        pairs.append((np.zeros_like(pairs[0][0]),))
    corners = tuple((x, y, z) for z, y, x in itertools.product(*reversed(pairs)))
    return value, SampleTrace(texel_indices=corners, fractions=fractions, raw_value=value)


def sample_bilinear(grid: TexelGrid, u, v, cfg: SamplerConfig):
    """One emulated bilinear fetch at normalized (u, v) on a 2-D grid.

    Two horizontal lerps blend the top and bottom texel pairs at the
    quantized x fraction, then one vertical lerp blends those at the
    quantized y fraction.
    """
    if grid.depth != 1:
        raise LayoutError("bilinear sampling requires a 2-D grid")
    return _sample(grid, (u, v), cfg)


def sample_trilinear(grid: TexelGrid, u, v, w, cfg: SamplerConfig):
    """One emulated trilinear fetch on a 3-D grid.

    The blend is lerp(bilinear(near slice), bilinear(far slice), fw) with
    the quantized depth fraction, so the decomposition identity holds
    exactly.
    """
    if grid.depth < 2:
        raise LayoutError("trilinear sampling requires a 3-D grid")
    return _sample(grid, (u, v, w), cfg)


def blend_with_fractions(grid: TexelGrid, bases, fractions):
    """Blend the cell at integer `bases` using explicit per-axis fractions.

    Bypasses coordinate conversion and quantization entirely; used to probe
    what the blend would return at arbitrary fraction combinations. Runs
    the same lerp chain as the sampling paths above, so results are bitwise
    comparable with them.
    """
    if len(bases) != len(fractions):
        raise LayoutError("one base index and one fraction per axis")
    if len(bases) not in (2, 3):
        raise LayoutError("blend supports 2 or 3 axes")
    pairs = [_clamp_pair(np.asarray(base, dtype=np.int64), extent)
             for base, extent in zip(bases, grid.dims)]
    return _blend(grid, pairs, fractions)
