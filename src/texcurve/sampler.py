"""Bit-exact software emulation of GPU fixed-function linear filtering.

Coordinate model: normalized coordinates convert to texel space as
coord * extent - 0.5, placing texel values at cell centers. Neighbor
indices clamp to the edge; the fractional position along each axis is
quantized to subtexel fixed point before the blend, which runs in float64.
The stages up to the blend (texel cell, exact fraction, used fraction,
clamped index pair) are written once, in `_lookup`; the public fetches wrap
it with a finiteness check and a `SampleTrace`. Every texture evaluator
reaches it through `texeval._fetch` and the error bound calls it directly;
neither builds a trace. Every lookup then
runs one blend kernel: `_corners` gathers each corner texel once, with one
`take` from the grid viewed as a flat (channels, texels) table, and
`_lerp_levels` runs the fixed chain of lerps along x, then y, then z, at
every combination of the fractions it is given per axis. Each lerp runs
over channel rows whose sample axis is contiguous.

All entry points accept scalar coordinates or equal-length coordinate
arrays; array calls return stacked results of shape (n, channels), stored
channel-major (Fortran order).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    DomainError,
    LayoutError,
    SamplerConfig,
    TexelFormat,
    TexelGrid,
    lerp,
)
from .encoder import _quantize_array


def quantize_texel(v: float, fmt: TexelFormat) -> float:
    """Quantize one value to the storage format.

    unorm formats clamp to [0, 1] and round half away from zero onto the
    k/levels lattice; the tie decision is exact, so it never depends on a
    double rounding of v*levels. float32 rounds to the nearest 32-bit
    float. This is `encoder._quantize_array` on one value.
    """
    return float(_quantize_array(np.asarray(v, dtype=float), fmt))


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
    top = extent - 1
    return np.minimum(np.maximum(base, 0), top), np.minimum(np.maximum(base + 1, 0), top)


def _require_finite(x, name: str):
    if not np.isfinite(np.asarray(x, dtype=float)).all():
        raise DomainError(f"{name} must be finite")


def _lookup(grid: TexelGrid, coords, cfg: SamplerConfig, depth_fraction=None):
    """The stages of one lookup up to the blend, written once.

    Normalized coordinates -> texel cell -> exact fraction -> used fraction
    (quantized) -> clamped index pair, per axis in x, y[, z] order. Returns
    the pairs, the exact fractions and the used fractions. A coordinate
    object passed for several axes of one extent (the dc layouts pass one
    array for every axis) runs its stages once. With `depth_fraction` (the
    split-precision hybrid) `coords` are x and y only, and the depth axis
    blends slices 0 and 1 at that fraction, which is used unquantized. The
    coordinates are not checked here.
    """
    stages, axes = {}, []
    for coord, extent in zip(coords, grid.dims):
        key = (id(coord), extent)
        if key not in stages:
            base, frac = texel_cell(coord, extent)
            stages[key] = (_clamp_pair(base, extent), frac, quantize_fraction(frac, cfg))
        axes.append(stages[key])
    if depth_fraction is not None:
        axes.append((_clamp_pair(0, grid.depth), depth_fraction, depth_fraction))
    pairs, exact, used = (list(stage) for stage in zip(*axes))
    return pairs, exact, used


def _corners(grid: TexelGrid, pairs):
    """The corner texels of the cells that `pairs` index, x varying fastest.

    The texels are read as one flat (channels, texels) table: each axis's
    index pair becomes a pair of offsets scaled by the axis stride (1, w,
    w*h), and each corner is one `take` at the summed offset x + w*y + w*h*z.
    A flat take costs a fraction of a 3-array fancy index. Each corner is
    (channels, ...) with the samples contiguous, so fractions broadcast
    unchanged and each lerp's inner loop runs over the samples rather than
    the 1 to 4 channels.
    """
    texels = grid.data.reshape(-1, grid.channels).T
    offsets = [0]
    for (i0, i1), stride in zip(pairs, (1, grid.width, grid.width * grid.height)):
        offsets = [offset + i * stride for i in (i0, i1) for offset in offsets]
    return [texels.take(offset, axis=1) for offset in offsets]


def _lerp_levels(corners, options):
    """The one lerp chain, at every combination of per-axis fractions.

    `options` holds a tuple of fractions per axis, in x, y[, z] order.
    Corners are blended pairwise along x, then y, then z; that order is
    part of the emulated result, bit for bit. Each level's lerps are shared
    by every combination of the later axes' options, so n options per axis
    cost one lerp per (level, option prefix, corner pair) rather than a
    whole chain per combination. Returns, per combination in
    `itertools.product(*options)` order, the level left after the axes in
    `options`, channel axis first: one blend, or two depth slices after x, y.
    """
    levels = [corners]
    for fractions in options:
        levels = [[lerp(a, b, f) for a, b in zip(level[0::2], level[1::2])]
                  for level in levels for f in fractions]
    return levels


def _blend_options(corners, options):
    """`_lerp_levels` over every axis: one blend per combination, each a
    view with the channel axis last, so it stays channel-major."""
    return [value.transpose(*range(1, value.ndim), 0)
            for (value,) in _lerp_levels(corners, options)]


def _blend(grid: TexelGrid, pairs, fractions):
    """The blend at one fraction per axis: the one-option case of
    `_blend_options` over the corners of `pairs`. Two axes read depth
    slice 0."""
    return _blend_options(_corners(grid, pairs), [(f,) for f in fractions])[0]


def _sample(grid: TexelGrid, coords, cfg: SamplerConfig):
    """Checked coordinates -> `_lookup` -> blend, plus the trace."""
    for coord, name in zip(coords, "uvw"):
        _require_finite(coord, name)
    pairs, _, fractions = _lookup(grid, coords, cfg)
    value = _blend(grid, pairs, fractions)
    if len(pairs) == 2:
        pairs.append((np.zeros_like(pairs[0][0]),))
    corners = tuple((x, y, z) for z, y, x in itertools.product(*reversed(pairs)))
    return value, SampleTrace(texel_indices=corners, fractions=tuple(fractions), raw_value=value)


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
