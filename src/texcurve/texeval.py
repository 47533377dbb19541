"""Evaluate encoded curves through the emulated sampler.

`_MODES` is the one mode table: the layouts each evaluation mode
evaluates, and its evaluator. The public evaluators check their layout
through it, as sweeps, the error bound and the CLI check their mode.
Every evaluator, and the error bound in `analysis`, reads the grid through
one lattice walk, `_fetch`: the staged lookup of `sampler`, then a blend of
the lookup state, then the blend's values turned into points, and builds
no `SampleTrace`. The plain blend (`_decoded`) is the blend kernel, then
`_decode`: the inverse transform, and for rational curves the divide by
the weight. The split-precision hybrid brings its own blend, which lerps
x and y of the dc cubic's one shared stage over the depth pair, and its
own points, which lerp depth at the exact t, then decode; the bound
brings its exact blend and probes. `_curve_param` is the one per-layout
choice of a 1-parameter curve's domain and coordinate map, and
`_eval_curve` the one 1-parameter path of the plain blend, the hybrid's
and the bound's. Parameters are validated once per call:
`_curve_param` checks t, and `_surface_params` checks (u, v) and that
their shapes broadcast together. The coordinate maps (`_curve_param`'s
and the surface evaluators') then map each block through
`core._texel_span`, which has the bytes of `remap_unit_to_texel_span` on
a 2-texel axis without its check. No sample is checked after that: the
Seiler coordinate window holds for every t in [0, 1], as `_seiler_coords`
proves.

`_fetch` blends once per run of equal lookup state. The filter's output is
fixed by the texture unit's discrete state: the clamped texel pair and the
used (fixed-point) fraction on each axis, which is every index array and
every used fraction `sampler._state` returns. The blend, the inverse
transform and the rational divide are elementwise functions of that state,
and the state is a function of each axis's stage (`sampler._stage`: texel
cell and fraction numerator; at bits 0, the exact fraction). So
along a 1-D sample axis `_fetch` compares each sample's stages with its
neighbour's, block edges included, without looking the samples up. It
keeps the stages of the first sample of every run, so no parameter is
mapped twice, blends and decodes those heads together, and fills each
block by repeating every run's head by the run's length, writing each
point once. A sorted 2^17-sample dc lattice at 8 bits is blended 257
times instead of 131,072. The hybrid's runs are those of the dc cubic's
one stage, whose depth fraction it never reads, since its own is t itself:
the heads' blend lerps x and y into one (channels, 2, heads) array of
depth slices, and its points lerp each sample's head's two slices at its
t. A block whose runs outnumber half its samples (every block of
distinct parameters at bits 0) is blended whole from its stages, and
scalars, N-D parameters and axes below `_RUN_MIN` samples are staged and
blended whole, through the same blend as whole blocks. A whole block
whose samples all lie in one texel cell (an equal `base` on every
stage, which `_runs` reads off its comparisons) is staged with that one
base, so its pairs are clamped and its corners gathered once, as one
(channels, 2, 2[, 2], 1) array that the lerps broadcast against every
sample's own used fraction: the same operands in the same lerp order, so
the same bits. A sorted 2^17-sample lattice at bits 0 gathers the corners
of 8,207 samples instead of 131,072: one for each of its first 15 blocks
and every sample of the last, whose t = 1 lies in the next cell, and so
does the error bound of such a lattice, at every bit depth.

Parameters broadcast like the reference evaluators: scalar in, one point
out; (n,) array in, (n, channels) out, stored channel-major (Fortran
order) so that each elementwise pass loops over the samples. `_fetch`
maps, stages, compares and blends at most `_BLOCK` samples (or heads) at a
time, so only the parameters and the output span the axis and the blend's
temporaries stay near the L2 cache (one 3-channel block is 192 kB and its
trilinear corner array 1.5 MB, the axis of 2^17 samples 3 MB). Every stage
is elementwise, so neither blocking nor memory order changes a bit of the
result.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import (
    DomainError,
    EncodedCurve,
    HomogeneousDivideError,
    Layout,
    LayoutError,
    SamplerConfig,
    _BLOCK,
    _param_in,
    _texel_span,
    _unit_param,
)
from . import sampler
from .reference import bernstein_sum


#: the shortest sample axis that `_fetch` splits into runs: below it the
#: blend's fixed cost per call outweighs its cost per sample, so blending
#: fewer samples saves less than finding the runs costs
_RUN_MIN = 1024


def _curve_param(curve: EncodedCurve, t):
    """A 1-parameter curve's coordinate map and its validated parameter
    array: the one place a 1-parameter layout's domain and coordinates are
    chosen.

    Rational curves resolve to their inner layout. Zig-zag chains take a
    global parameter in [0, segment_count] and map it through
    `_zigzag_coords`, the Seiler layouts take t in [0, 1] and map it through
    `_seiler_coords`, and the dc layouts take t in [0, 1] and map it to one
    `_texel_span` array shared by every axis, which `sampler._stages` then
    stages once. Other layouts raise LayoutError, before the parameter is
    checked. The curve's own invariants (the weight channel's identity
    transform, one segment outside the zig-zag) hold since `EncodedCurve`
    checked them at construction.
    """
    layout = curve.layout
    if layout is Layout.RATIONAL_HOMOGENEOUS:
        layout = curve.inner_layout
    if layout is Layout.DC_ZIGZAG:
        n = curve.segment_count
        gt = _param_in(t, 0.0, n, "zig-zag parameter outside [0, {hi}]")
        return (lambda gt: _zigzag_coords(n, gt)), gt
    if layout in (Layout.SEILER_2D, Layout.SEILER_3D):
        return (lambda t: _seiler_coords(layout, t)), _unit_param(t)
    if layout in (Layout.DC_QUAD_2X2, Layout.DC_CUBIC_2X2X2):
        axes = 3 if layout is Layout.DC_CUBIC_2X2X2 else 2
        return (lambda t: (_texel_span(t),) * axes), _unit_param(t)
    raise LayoutError(f"{layout.value} is not a 1-parameter curve layout")


def _zigzag_coords(n: int, gt):
    """Column/row coordinates for a zig-zag grid of n segments.

    The v direction ascends with local t on even segments and descends on
    odd ones (that orientation is a convention of this implementation, not
    something grids from other tools can be assumed to share). Integer
    global_t resolves to the right-hand segment at local t = 0, except the
    final parameter which clamps into the last segment.
    """
    k = np.minimum(np.floor(gt), n - 1)  # the segment, an integer-valued float
    lt = gt - k
    u = (k + 0.5 + lt) / (n + 1)
    odd = k * 0.5 != np.floor(k * 0.5)
    return u, _texel_span(np.where(odd, 1.0 - lt, lt))


def _seiler_coords(layout: Layout, t):
    """(t, st[, st]) mapping, with the pixel-center remap applied after the
    s*t product.

    For t in [0, 1] (which `_curve_param` checked) the second coordinate
    lies in [0.25, 0.375], so it is not checked. The product
    m = fl(fl(1 - t) * t) is at most 0.25: for t >= 1/2, 1 - t is exact
    (Sterbenz), so the product is at most 0.25 before rounding and rounding
    keeps it there. For t = 1/2 - e, fl(1 - t) exceeds 1 - t by at most
    2^-54, so the product is at most 0.25 - e^2 + 2^-55 - 2^-54 * e, below
    the rounding midpoint 0.25 + 2^-55 above 0.25, and rounds to at most
    0.25. It is at least 0, a product of two non-negative factors. Then
    `_texel_span(m)` = fl(0.5 + m) * 0.5 lies in [0.25, 0.375], since
    rounding is monotone and both ends are floats."""
    m = (1.0 - t) * t
    rt = _texel_span(t)
    rm = _texel_span(m)
    if layout is Layout.SEILER_3D:
        return rt, rm, rm
    return rt, rm


def _decode(curve: EncodedCurve, raw):
    """Filtered texel values to curve points: the inverse transform, and for
    rational curves the divide by the weight channel.

    The inverse transform runs before the divide (it undoes the encode-time
    map exactly); `EncodedCurve` holds the weight channel to an identity
    transform, so the decoded weight is the true weight polynomial value.
    """
    value = curve.transform.invert(raw)
    if curve.layout is not Layout.RATIONAL_HOMOGENEOUS:
        return value
    den = value[..., -1:]
    if (np.abs(den) <= 1e-9).any():
        raise HomogeneousDivideError("decoded weight too close to zero to divide by")
    return value[..., :-1] / den


def _runs(stages, last):
    """Where the runs of equal stages (`sampler._stage`) begin in one block:
    `(change, last, one_cell)`. `change` marks, as a bool array, each sample
    that begins a run, and `last` holds the stages' arrays at the block's
    last sample, to pass as the next block's `last`; both are None when runs
    would outnumber half the samples. `one_cell` says whether every sample
    lies in the first one's texel cell (an equal `base` on every stage). The
    comparisons take every stage's `base` before any `q`, so the cell is
    known before a block of distinct positions at bits 0 (where q is the
    exact fraction) gives up, after one `q` comparison per stage; a block
    that gives up among the bases is taken to span cells. Equal stages mean
    equal lookup state, and equal states have equal stages (except in
    clamped cells, outside the texture or on an axis of one texel), so the
    runs are those of the state itself. A run continues across the block
    edge when `last` matches the block's first sample."""
    arrays = [base for base, _ in stages] + [q for _, q in stages]
    n = arrays[0].shape[0]
    change = np.zeros(n, dtype=bool)
    change[0] = last is None or any(a[0] != b for a, b in zip(arrays, last))
    one_cell = False
    for i, a in enumerate(arrays, 1):
        change[1:] |= a[1:] != a[:-1]
        if i == len(stages):  # every base compared
            one_cell = not change[1:].any()
        if 2 * np.count_nonzero(change) > n:
            return None, None, one_cell
    return change, [a[-1] for a in arrays], one_cell


def _fetch(curve: EncodedCurve, coords_of, params, cfg: SamplerConfig, blend, points):
    """The one lattice walk: the staged lookup, then `blend` once per run of
    equal lookup state (see above), then `points` per block.
    `coords_of(*part)` maps a part of the validated parameter arrays
    `params` to coordinates. `blend(pairs, used)` maps a lookup state (per
    axis the clamped index pair and the used fraction pair (f, 1 - f),
    `sampler._state`) to values whose last axes are the samples, and
    depends on that state alone; `points(values, t)` turns the values of a block into its
    (*samples, ...) rows, given the block's part `t` of the first parameter
    array. Three pairs run on it: the plain decoded blend (`_decoded` and
    `_rows`), the hybrid's x and y levels with its depth lerp at t, and the
    error bound's exact blend and probes.

    Parameters that are not one shared 1-D axis of at least `_RUN_MIN`
    samples go through the lookup, `blend` and `points` once, whole.
    Otherwise each `_BLOCK` slice of the axis is mapped and staged once and
    compared with its neighbours (`_runs`); it is then either blended whole
    from its stages or kept as its run starts (`flatnonzero`) and the
    stages there. A block blended whole within one texel cell passes each
    stage's first `base` alone: `sampler._state` clamps and casts that one
    element, and `_corners` gathers one sample's corners, which the lerps
    broadcast against the block's used fractions (q / 2^bits, or q at
    bits 0, per sample).
    The heads of all runs are then blended in chunks of `_BLOCK`, and each
    block is filled by one `np.repeat` of its runs' heads by the runs'
    lengths; a block that opens inside a run begins with that run's head.
    Equal stages mean equal state, so a head's values are every value of
    its run, bit for bit; equal states get equal stages, so the heads are
    the first samples of the runs of equal state. The blocked result is
    allocated at the first block's rows, channel-major (Fortran order).
    """
    grid = curve.grid
    shape, *others = {p.shape for p in params}
    if others or len(shape) != 1 or shape[0] < _RUN_MIN:
        return points(blend(*sampler._lookup(grid, coords_of(*params), cfg)), params[0])
    out, blocks, last = None, [], None

    def fill(block, values):
        nonlocal out
        rows = points(values, params[0][block])
        if out is None:
            out = np.empty(shape + rows.shape[1:], order="F")
        out[block] = rows

    for start in range(0, shape[0], _BLOCK):
        block = slice(start, min(start + _BLOCK, shape[0]))
        stages, axes = sampler._stages(grid, coords_of(*(p[block] for p in params)), cfg)
        change, last, one_cell = _runs(stages, last)
        if change is None:
            if one_cell:  # one clamped pair per axis: its corners are gathered once
                stages = [(base[:1], q) for base, q in stages]
            fill(block, blend(*sampler._state(grid, stages, axes, cfg)))
        else:
            starts = np.flatnonzero(change)
            blocks.append((block, starts, [(base[starts], q[starts]) for base, q in stages]))
    if not blocks:
        return out
    # per stage, its base and q at every run head of the axis
    heads = [[np.concatenate(a) for a in zip(*stage)] for stage in zip(*(h for *_, h in blocks))]
    chunks = [slice(start, start + _BLOCK) for start in range(0, heads[0][0].size, _BLOCK)]
    values = np.concatenate([blend(*sampler._state(grid, [(base[c], q[c]) for base, q in heads],
                                                   axes, cfg))
                             for c in chunks], axis=-1)  # every block has the same `axes`
    first = 0  # the head of the block's first run
    for block, starts, _ in blocks:
        if not starts.size or starts[0]:  # the block opens in the last run before it
            starts, first = np.concatenate(([0], starts)), first - 1
        lengths = np.diff(starts, append=block.stop - block.start)
        fill(block, np.repeat(values[..., first : first + starts.size], lengths, axis=-1))
        first += starts.size
    return out


def _decoded(curve: EncodedCurve):
    """The plain blend: the decoded points at a lookup state, transposed so
    that the channels lead and the samples come last."""
    return lambda pairs, used: _decode(curve, sampler._blend(curve.grid, pairs, used)).T


def _rows(values, t):
    """The points of values transposed like `_decoded`'s: transposed back."""
    return values.T


def _eval_curve(curve: EncodedCurve, t, cfg: SamplerConfig, blend, points):
    """The 1-parameter fetch of `blend` and `points` (see `_fetch`): t
    validated once by `_curve_param`, then mapped per block through its
    map."""
    coords_of, t = _curve_param(curve, t)
    return _fetch(curve, coords_of, (t,), cfg, blend, points)


def eval_dc(curve: EncodedCurve, t, cfg: SamplerConfig):
    """Evaluate a de Casteljau packing: one read at (t, t) or (t, t, t)."""
    _mode_eval(curve, "dc")
    return _eval_curve(curve, t, cfg, _decoded(curve), _rows)


def eval_dc_zigzag(curve: EncodedCurve, global_t, cfg: SamplerConfig):
    """Evaluate a zig-zag packing at global parameter in [0, segment_count]."""
    _mode_eval(curve, "zigzag")
    return _eval_curve(curve, global_t, cfg, _decoded(curve), _rows)


def eval_seiler_tex(curve: EncodedCurve, t, cfg: SamplerConfig):
    """Evaluate a difference-term packing at (t, st) or (t, st, st)."""
    _mode_eval(curve, "seiler")
    return _eval_curve(curve, t, cfg, _decoded(curve), _rows)


def eval_dc_cubic_hybrid(curve: EncodedCurve, t, cfg: SamplerConfig):
    """Split-precision cubic: the x and y fractions are quantized, the
    depth fraction is the exact t.

    One 3-axis blend whose first two levels match a bilinear read of each
    quadratic slice, while the last interpolation level runs at full
    precision with the unquantized parameter. Its blend reads the x and y
    state of the cubic's one shared stage and lerps them over the depth
    pair into the two depth slices, and its points lerp those at each
    sample's own t.
    """
    _mode_eval(curve, "dc-hybrid")
    grid = curve.grid

    def blend(pairs, used):
        """(channels, 2, *samples): depth slices 0 and 1, lerped in x and y."""
        return sampler._lerp_axes(sampler._corners(grid, pairs[:2] + [sampler._PAIR]), used[:2])

    def points(values, t):
        """(*samples, channels): the depth slices lerped at t, then decoded."""
        return _decode(curve, np.moveaxis(sampler._lerp_axes(values, [(t, 1.0 - t)]), 0, -1))

    return _eval_curve(curve, t, cfg, blend, points)


def _surface_params(u, v):
    """A surface evaluator's (u, v), validated once: DomainError unless
    every value lies in [0, 1] and the two shapes broadcast together."""
    u, v = _unit_param(u), _unit_param(v)
    try:
        np.broadcast_shapes(u.shape, v.shape)
    except ValueError:
        raise DomainError(f"surface parameters of shapes {u.shape} and {v.shape} "
                          "do not broadcast together") from None
    return u, v


def eval_bilinear_patch(curve: EncodedCurve, u, v, cfg: SamplerConfig):
    """Evaluate a bilinear patch: one read at (remapped u, remapped v)."""
    _mode_eval(curve, "patch")
    return _fetch(curve, lambda u, v: (_texel_span(u), _texel_span(v)),
                  _surface_params(u, v), cfg, _decoded(curve), _rows)


def eval_bicubic_rgba(curve: EncodedCurve, u, v, cfg: SamplerConfig):
    """Evaluate a bicubic packing: one trilinear read at (u, u, u) yields
    the four isoline control points in the channels; the cross-direction
    cubic in v runs at full precision."""
    _mode_eval(curve, "bicubic")
    u, v = _surface_params(u, v)
    iso = _fetch(curve, lambda u: (_texel_span(u),) * 3, (u,), cfg, _decoded(curve), _rows)
    return bernstein_sum(np.moveaxis(iso, -1, 0)[..., None], v)


def eval_rational_tex(curve: EncodedCurve, t, cfg: SamplerConfig):
    """Evaluate a homogeneous packing through its inner layout, then divide
    point by weight."""
    _mode_eval(curve, "rational")
    return _eval_curve(curve, t, cfg, _decoded(curve), _rows)


#: mode name -> (layouts it can evaluate, evaluator fn(curve, t, cfg)).
#: The surface modes evaluate the diagonal u = v = t. A layout's default
#: mode is the first mode that lists it.
_MODES = {
    "dc": ((Layout.DC_QUAD_2X2, Layout.DC_CUBIC_2X2X2), eval_dc),
    "dc-hybrid": ((Layout.DC_CUBIC_2X2X2,), eval_dc_cubic_hybrid),
    "seiler": ((Layout.SEILER_2D, Layout.SEILER_3D), eval_seiler_tex),
    "zigzag": ((Layout.DC_ZIGZAG,), eval_dc_zigzag),
    "patch": ((Layout.BILINEAR_PATCH,),
              lambda curve, t, cfg: eval_bilinear_patch(curve, t, t, cfg)),
    "bicubic": ((Layout.BICUBIC_RGBA,),
                lambda curve, t, cfg: eval_bicubic_rgba(curve, t, t, cfg)),
    "rational": ((Layout.RATIONAL_HOMOGENEOUS,), eval_rational_tex),
}


def _default_mode(layout: Layout) -> str:
    """The first mode in `_MODES` that lists `layout`."""
    return next(mode for mode, (layouts, _) in _MODES.items() if layout in layouts)


def _mode_eval(curve: EncodedCurve, mode: str) -> Callable:
    """The evaluator fn(curve, t, cfg) of `mode`, checked against the curve's layout."""
    if mode not in _MODES:
        raise LayoutError(f"unknown evaluation mode {mode!r}")
    layouts, fn = _MODES[mode]
    if curve.layout not in layouts:
        raise LayoutError(f"mode {mode!r} cannot evaluate layout {curve.layout.value}")
    return fn
