"""Bit-exact software emulation of GPU fixed-function linear filtering.

Coordinate model: normalized coordinates convert to texel space as
coord * extent - 0.5, placing texel values at cell centers. Neighbor
indices clamp to the edge; the fractional position along each axis is
quantized to subtexel fixed point before the blend, which runs in float64.
The stages up to the blend are written once. `_stage` maps a coordinate on
one axis to the floor `base` of its texel position and the numerator `q` of
its used fraction (at bits 0, the exact fraction itself); `_stages` stages
each coordinate object once per extent, and `_state` turns the stages into
the lookup state, per axis the clamped index pair and the used fraction f
with its complement 1 - f. A pair is one (2, *samples) int64 array
(`_clamp_pair`): one add of [0, 1] to the base and one clamp, whatever the
parameters' rank. Axes that share a stage share both.
`_lookup` is the two in a row, and `texel_cell` and `quantize_fraction` are
built from the same helpers. Equal stages mean equal lookup state, so
`texeval._fetch` finds runs of equal state by comparing the stages
themselves and turns only each run's head into state. The public fetches
wrap `_lookup` with a finiteness check, a clamp of coordinates to
±2^53 / extent (past it the state is the edge's, so a huge coordinate
cannot wrap the int64 floor of its position) and a `SampleTrace`; no
evaluator and not the error bound builds a trace. Every lookup then runs
one blend kernel: `_corners` scales each axis's pair by the axis stride,
sums the pairs into flat texel offsets and gathers every corner texel with
one `take` from the grid viewed as a flat (channels, texels) table, into
one (channels, 2[x], 2[y][, 2[z]], *samples) array, and `_lerp_axes` runs the
fixed chain of lerps, one per axis, x, then y, then z, each lerping away
one corner axis through the unchecked kernel `core._lerp` at the axis's
fraction and complement. Each lerp runs over channel rows whose sample
axis is contiguous.

The sampler reads texels as they are stored. Storage quantization lives
beside `TexelFormat` in `core` (`quantize_texel`, `_quantize_array`), and
this module imports nothing else of the package.

All entry points accept scalar coordinates or equal-length coordinate
arrays; array calls return stacked results of shape (n, channels), stored
channel-major (Fortran order).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import DomainError, LayoutError, SamplerConfig, TexelGrid
from .core import _lerp as lerp  # the one lerp of every blend, unchecked


def _numerator(frac, cfg: SamplerConfig):
    """The used fraction's numerator over 2^bits (bits > 0), an
    integer-valued float: floor(s) at s = frac * 2^bits, or under nearest
    rounding floor(s) + (s - floor(s) >= 1/2), which is floor((k + 1) / 2)
    at k = floor(2s). Scaling by a power of two is exact, so every step is
    exact for fractions below 2^(51 - bits), and the numerator of a fraction
    in [0, 1] lies in [0, 2^bits]. An array `frac` is scaled in place."""
    nearest = cfg.subtexel_rounding == "nearest"
    frac *= float(1 << cfg.subtexel_bits + nearest)
    q = np.floor(frac)
    if nearest:
        q += 1.0
        q *= 0.5
        q = np.floor(q)
    return q


def quantize_fraction(f, cfg: SamplerConfig):
    """Quantize a fractional texel position to fixed point: its numerator
    over 2^bits, an exact division. Under nearest rounding the result may
    reach 1.0, which is a legal weight."""
    if cfg.subtexel_bits == 0:
        return f
    return _numerator(np.array(f, dtype=float), cfg) / float(1 << cfg.subtexel_bits)


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


def _stage(coord, extent: int, cfg: SamplerConfig):
    """The stage of a coordinate on an axis of `extent` texels: the floor
    `base` of its texel-space position pos = coord * extent - 0.5 and the
    numerator `q` of the used fraction of pos - base (`_numerator`); at
    bits 0, q is the fraction pos - base itself. Both are floats;
    everything later in a lookup is a function of them, so equal stages
    mean equal lookup state. On an axis of two texels or more, coordinates
    in [0, 1] keep base in [-1, extent - 1], where every base has its own
    clamped pair, so there equal states also have equal stages (on one
    texel every pair is (0, 0))."""
    pos = np.asarray(coord, dtype=float) * extent
    pos -= 0.5
    base = np.floor(pos)
    pos -= base  # the fraction: q at bits 0, else what `_numerator` turns into q
    return base, _numerator(pos, cfg) if cfg.subtexel_bits else pos


def _clip_far(coord, extent: int):
    """`coord` clipped to ±2^53 / extent. Beyond that bound a texel position
    has magnitude about 2^53 or more, which is an integer (every float of
    magnitude 2^52 or more is) past the edge: its state is the edge pair at
    fraction 0, as it is at the bound. So the clip keeps the state and keeps
    the floor of the position far inside int64 (beyond 2^63 the cast
    wraps). Coordinates inside the bound pass unchanged."""
    return np.clip(coord, -2.0**53 / extent, 2.0**53 / extent)


def texel_cell(coord, extent: int):
    """Unclamped base index and fractional position along one axis: the
    bits-0 stage. A finite coordinate beyond ±2^53 / extent is taken at
    that bound (`_clip_far`), so its base cannot wrap int64. NaN and ±inf
    have no cell and raise DomainError, as the public samplers refuse
    them."""
    if np.isnan(coord).any():
        raise DomainError("coordinate must not be NaN")
    _require_finite(coord, "coordinate")
    base, frac = _stage(_clip_far(coord, extent), extent, SamplerConfig.ideal())
    return base.astype(np.int64), frac


#: the unclamped index pair of a cell, as offsets from its base; also the
#: hybrid's depth pair, which no clamp changes on its depth of 2
_PAIR = np.array([0, 1], dtype=np.int64)


def _clamp_pair(base, extent: int):
    """The clamped index pair of the cells at int64 `base`, of any rank: one
    (2, *samples) int64 array, row 0 the clamp of base and row 1 that of
    base + 1 to [0, extent - 1], from one add of `_PAIR` and one clamp."""
    return np.minimum(np.maximum(np.add.outer(_PAIR, base), 0), extent - 1)


def _require_finite(x, name: str):
    if not np.isfinite(np.asarray(x, dtype=float)).all():
        raise DomainError(f"{name} must be finite")


def _stages(grid: TexelGrid, coords, cfg: SamplerConfig):
    """The stages of `coords` on the grid's axes, x, y[, z]: a list of the
    distinct stages, one per coordinate object and extent (the dc layouts
    pass one array for every axis), and per axis the index of its stage."""
    distinct = {}  # (id, extent) -> (stage index, coordinate, extent), in axis order
    axes = [distinct.setdefault((id(coord), extent), (len(distinct), coord, extent))[0]
            for coord, extent in zip(coords, grid.dims)]
    return [_stage(coord, extent, cfg) for _, coord, extent in distinct.values()], axes


def _state(grid: TexelGrid, stages, axes, cfg: SamplerConfig):
    """The lookup state of `stages` and `axes` (see `_stages`): per axis the
    clamped index pair, one (2, *samples) int64 array (`_clamp_pair`), and
    the used fraction f as the pair (f, 1 - f) that its lerp reads, each
    stage's computed once; axes that share a stage share both objects. The
    used fraction is q / 2^bits, an exact division, or at bits 0 q itself,
    the exact fraction, bit for bit `texel_cell`'s."""
    bits = cfg.subtexel_bits
    used = [q / float(1 << bits) if bits else q for _, q in stages]
    state = [(_clamp_pair(base.astype(np.int64), grid.dims[axes.index(i)]), (f, 1.0 - f))
             for i, ((base, _), f) in enumerate(zip(stages, used))]
    return [state[i][0] for i in axes], [state[i][1] for i in axes]


def _lookup(grid: TexelGrid, coords, cfg: SamplerConfig):
    """The stages of one lookup up to the blend, written once.

    Normalized coordinates -> `_stages` -> `_state`: per axis in x, y[, z]
    order the clamped index pair and the used fraction with its complement,
    which this returns. At bits 0 the used fractions are the exact ones.
    The coordinates are not checked here.
    """
    return _state(grid, *_stages(grid, coords, cfg), cfg)


def _corners(grid: TexelGrid, pairs):
    """The corner texels of the cells that `pairs` index, as one
    (channels, 2[x], 2[y][, 2[z]], *samples) array.

    The texels are read as one flat (channels, texels) table: each axis's
    pair, a (2, *samples) int64 array whose samples may have fewer axes
    than the others' (the hybrid's depth pair `_PAIR` has none), is
    reshaped onto its own corner axis and scaled by the axis stride (1, w,
    w*h; x needs no multiply), the pairs broadcast into the summed offset
    x + w*y + w*h*z of every corner, and one `take` reads them all. A flat
    take costs a fraction of a 3-array fancy index. The samples are the
    last axes and contiguous, so fractions broadcast unchanged and each
    lerp's inner loop runs over the samples rather than the 1 to 4 channels.
    The axes are written out, two or three, each in a single reshape:
    this runs once per fetch, where a loop's own calls cost as much as
    the arithmetic.
    """
    _, h, w, channels = grid.data.shape
    x, y, *depth = pairs
    # corner axes, then samples; later corner axes and missing sample axes
    # sit between each pair and its samples
    rank = len(pairs) - 1 + max(x.ndim, y.ndim, depth[0].ndim if depth else 0)
    offset = x.reshape((2,) + (1,) * (rank - x.ndim) + x.shape[1:]) \
        + y.reshape((2,) + (1,) * (rank - 1 - y.ndim) + y.shape[1:]) * w
    if depth:
        z, = depth
        offset = offset + z.reshape((2,) + (1,) * (rank - 2 - z.ndim) + z.shape[1:]) * (w * h)
    return grid.data.reshape(-1, channels).T.take(offset, axis=1)


def _lerp_axes(corners, fractions):
    """The one lerp chain: lerp away one corner axis (axis 1) per fraction
    pair (f, 1 - f), x, then y, then z, through the unchecked kernel
    `core._lerp` (bound here as `lerp`, the one name that counts or traces
    every lerp of a blend).

    That order is part of the emulated result, bit for bit: each lerp is
    `core.lerp`'s a*(1 - f) + b*f with the add in place. Each pair comes
    with its complement computed, once per stage in `_state`, and once per
    probe pair in the error bound. Fractions are float64 arrays or
    scalars. A fraction broadcasts against what is left of the corner
    array, so fractions with extra leading axes before the samples (one per
    option, as the error bound's probes pass them) blend every combination
    of options in one lerp per axis. Returns the array left after the
    fractions given, channel axis first: one blend, or the two depth slices
    after x and y.
    """
    for f, s in fractions:
        corners = lerp(corners[:, 0], corners[:, 1], f, s)
    return corners


def _blend(grid: TexelGrid, pairs, fractions):
    """The blend at one fraction pair (f, 1 - f) per axis over the corners
    of `pairs`, a view with the channel axis last, so it stays
    channel-major. Two axes read depth slice 0."""
    value = _lerp_axes(_corners(grid, pairs), fractions)
    return value.transpose(*range(1, value.ndim), 0)


def _sample(grid: TexelGrid, coords, cfg: SamplerConfig):
    """Checked coordinates -> `_lookup` -> blend, plus the trace. Each
    coordinate is clipped to ±2^53 / extent (`_clip_far`), which keeps its
    lookup state and its int64 floor from wrapping."""
    for coord, name in zip(coords, "uvw"):
        _require_finite(coord, name)
    coords = [_clip_far(coord, extent) for coord, extent in zip(coords, grid.dims)]
    pairs, used = _lookup(grid, coords, cfg)
    value = _blend(grid, pairs, used)
    if len(pairs) == 2:
        pairs.append(np.zeros_like(pairs[0][:1]))  # depth 0 alone
    corners = tuple((x, y, z) for z, y, x in itertools.product(*reversed(pairs)))
    return value, SampleTrace(texel_indices=corners, fractions=tuple(f for f, _ in used),
                              raw_value=value)


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

    Bypasses coordinate conversion and quantization entirely, to probe what
    the blend returns at arbitrary fraction combinations one at a time (the
    error bound blends all its probe combinations at once, in its own blend
    on `texeval._fetch`). Runs the same lerp chain as the sampling paths
    above, so results are bitwise comparable with them and with the bound's
    probes. Bases and fractions broadcast together, so a
    fraction array never spreads along the corner axes. Fractions are read
    as float64, as `core.lerp` reads them.
    """
    if len(bases) != len(fractions):
        raise LayoutError("one base index and one fraction per axis")
    if len(bases) not in (2, 3):
        raise LayoutError("blend supports 2 or 3 axes")
    fractions = [np.asarray(f, dtype=float) for f in fractions]
    shape = np.broadcast_shapes(*map(np.shape, bases), *map(np.shape, fractions))
    pairs = [_clamp_pair(np.broadcast_to(np.asarray(base, dtype=np.int64), shape), extent)
             for base, extent in zip(bases, grid.dims)]
    return _blend(grid, pairs, [(f, 1.0 - f) for f in fractions])
