"""Evaluate encoded curves through the emulated sampler.

`_MODES` is the one mode table: the layouts each evaluation mode
evaluates, and its evaluator. The public evaluators check their layout
through it, as sweeps, the error bound and the CLI check their mode.
Every evaluator reads the grid through one `_fetch` (the staged lookup
`sampler._lookup`, the blend, then `_decode`: the inverse transform, and
for rational curves the divide by the weight) and builds no `SampleTrace`.
`_coords` is the one 1-parameter coordinate picker and `_eval_curve` the
one 1-parameter path, which the split-precision hybrid runs with the exact
t as its depth fraction; `_curve_param` validates the parameter once. The
surface evaluators validate (u, v) and call `_fetch` with their map.

`_fetch` blends once per run of equal lookup state. The filter's output is
fixed by the texture unit's discrete state: the clamped texel pair and the
used (fixed-point) fraction on each axis, which is every index array and
every used fraction `sampler._lookup` returns. The blend, the inverse
transform and the rational divide are elementwise functions of that state,
so along a 1-D sample axis `_fetch` compares each sample's state with its
neighbour's, block edges included, blends and decodes the first sample of
every run together, and takes each point from its run's head, writing it
once. Fractions compare by their bits: `!=` holds -0.0 equal to +0.0
although the blend keeps their signs apart. A sorted 2^17-sample dc
lattice at 8 bits is blended 257 times instead of 131,072. The hybrid's
runs compare the x and y state alone, since its depth fraction is t
itself: the heads lerp x and y into one (channels, 2, heads) array of
depth slices, and every sample lerps its head's two slices at its t. A
block whose runs outnumber half its samples (every block of distinct
parameters at bits 0) is blended whole, as is an axis below `_RUN_MIN`
samples.

Parameters broadcast like the reference evaluators: scalar in, one point
out; (n,) array in, (n, channels) out, stored channel-major (Fortran
order) so that each elementwise pass loops over the samples. `_fetch` maps
coordinates, looks up, compares and blends at most `_BLOCK` samples (or
heads) at a time, so only the parameters and the output span the axis and
the blend's temporaries stay near the L2 cache (one 3-channel block is
192 kB and its trilinear corner array 1.5 MB, the axis of 2^17 samples
3 MB). Every stage is elementwise, so neither blocking nor memory order
changes a bit of the result.
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
    TexCurveError,
    _unit_param,
    remap_unit_to_texel_span,
)
from . import sampler
from .reference import bernstein_sum


_BLOCK = 8192

#: the shortest sample axis that `_fetch` splits into runs: below it the
#: blend's fixed cost per call outweighs its cost per sample, so blending
#: fewer samples saves less than finding the runs costs
_RUN_MIN = 1024


def _curve_param(curve: EncodedCurve, t):
    """A 1-parameter curve's layout and its validated parameter array.

    Rational curves resolve to their inner layout. Zig-zag chains take a
    global parameter in [0, segment_count], every other 1-parameter layout
    t in [0, 1]. Other layouts raise LayoutError, before the parameter is
    checked. The curve's own invariants (the weight channel's identity
    transform, one segment outside the zig-zag) hold since `EncodedCurve`
    checked them at construction.
    """
    layout = curve.layout
    if layout is Layout.RATIONAL_HOMOGENEOUS:
        layout = curve.inner_layout
    if layout is Layout.DC_ZIGZAG:
        n = curve.segment_count
        gt = np.asarray(t, dtype=float)
        if not ((gt >= 0.0) & (gt <= n)).all():
            raise DomainError(f"zig-zag parameter outside [0, {n}]")
        return layout, gt
    if layout in (Layout.DC_QUAD_2X2, Layout.DC_CUBIC_2X2X2, Layout.SEILER_2D, Layout.SEILER_3D):
        return layout, _unit_param(t)
    raise LayoutError(f"{layout.value} is not a 1-parameter curve layout")


def _zigzag_coords(n: int, gt):
    """Column/row coordinates for a zig-zag grid of n segments.

    The v direction ascends with local t on even segments and descends on
    odd ones (that orientation is a convention of this implementation, not
    something grids from other tools can be assumed to share). Integer
    global_t resolves to the right-hand segment at local t = 0, except the
    final parameter which clamps into the last segment.
    """
    k = np.minimum(np.floor(gt), n - 1).astype(np.int64)
    lt = gt - k
    u = (k + 0.5 + lt) / (n + 1)
    even = k % 2 == 0
    v = np.where(even, remap_unit_to_texel_span(lt, 2), remap_unit_to_texel_span(1.0 - lt, 2))
    return u, v


def _seiler_coords(layout: Layout, t):
    """(t, st[, st]) mapping, with the pixel-center remap applied after the
    s*t product. The second coordinate can only reach [0.25, 0.375] because
    s*t never exceeds 0.25; that window is checked on every evaluation."""
    m = (1.0 - t) * t
    rt = remap_unit_to_texel_span(t, 2)
    rm = remap_unit_to_texel_span(m, 2)
    if not ((m <= 0.25) & (rm >= 0.25) & (rm <= 0.375)).all():
        raise TexCurveError("seiler coordinate left its [0.25, 0.375] window")
    if layout is Layout.SEILER_3D:
        return rt, rm, rm
    return rt, rm


def _coords(curve: EncodedCurve, layout: Layout, t):
    """Coordinates of a validated t on a 1-parameter layout (a rational
    curve's inner one); the dc layouts share one array across their axes."""
    if layout is Layout.DC_ZIGZAG:
        return _zigzag_coords(curve.segment_count, t)
    if layout in (Layout.SEILER_2D, Layout.SEILER_3D):
        return _seiler_coords(layout, t)
    return (remap_unit_to_texel_span(t, 2),) * (3 if layout is Layout.DC_CUBIC_2X2X2 else 2)


def parameter_coords(curve: EncodedCurve, t):
    """Normalized sample coordinates the texture path uses for parameter t.

    The only place a 1-parameter layout's coordinates are chosen; rational
    curves resolve through their inner layout. Error analysis probes the
    exact cells a sweep will touch through it.
    """
    return _coords(curve, *_curve_param(curve, t))


def _in_blocks(body, curve: EncodedCurve, t, cfg: SamplerConfig, *args):
    """body(curve, t, cfg, *args) over consecutive `_BLOCK`-long slices of a
    1-D t: the error bound's lattice. Scalars and arrays of at most one
    block run the body once."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.shape[0] <= _BLOCK:
        return body(curve, t, cfg, *args)
    out = None
    for start in range(0, t.shape[0], _BLOCK):
        part = body(curve, t[start : start + _BLOCK], cfg, *args)
        if out is None:
            out = np.empty(t.shape + part.shape[1:], order="F")
        out[start : start + _BLOCK] = part
    return out


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


def _runs(pairs, used, last):
    """Which samples of one block begin a run of bitwise-identical lookup
    state (a bool array), and the state of its last sample, to pass as the
    next block's `last`; both None when runs would outnumber half the
    samples. The state is each stage's clamped index pair and used
    fraction, the fractions first (they change most often) and by their
    int64 bits. A run continues across the block edge when `last` matches
    the block's first sample."""
    stages = {(id(f), id(pair)): (f, pair) for f, pair in zip(used, pairs)}.values()
    state = [f.view(np.int64) for f, _ in stages] + [a for _, pair in stages for a in pair]
    n = state[0].shape[0]
    change = np.zeros(n, dtype=bool)
    change[0] = last is None or any(a[0] != b for a, b in zip(state, last))
    for a in state:
        change[1:] |= a[1:] != a[:-1]
        if 2 * np.count_nonzero(change) > n:
            return None, None
    return change, [a[-1] for a in state]


def _fetch(curve: EncodedCurve, coords_of, params, cfg: SamplerConfig, hybrid: bool = False):
    """The one texel fetch: the staged lookup, the blend, then `_decode`, once
    per run of equal lookup state (see above). `coords_of(*part)` maps a
    part of the validated parameter arrays `params` to coordinates. The
    `hybrid` (a dc cubic) looks up x and y at the first two coordinates and
    blends depth at the exact parameter.

    Each `_BLOCK` slice of a long enough axis is mapped, looked up and
    either blended whole or kept as its run starts. The heads of all runs
    are then mapped, looked up and blended in chunks of `_BLOCK` into one
    (channels, heads) array (the hybrid's: (channels, 2, heads), its depth
    slices), and `at`, each sample's head, takes every point (or two depth
    slices) from it.
    """
    grid = curve.grid

    def lookup(part):
        coords = coords_of(*part)
        if hybrid:
            return sampler._lookup(grid, coords[:2], cfg, part[0])
        return sampler._lookup(grid, coords, cfg)

    shape, *others = {p.shape for p in params}
    if others or len(shape) != 1 or shape[0] < _RUN_MIN:
        pairs, _, used = lookup(params)
        return _decode(curve, sampler._blend(grid, pairs, used))
    channels = grid.channels - (curve.layout is Layout.RATIONAL_HOMOGENEOUS)
    out = np.empty((shape[0], channels), order="F")
    state = slice(2 if hybrid else None)  # the hybrid's depth fraction is no state
    blocks, last = [], None
    for start in range(0, shape[0], _BLOCK):
        block = slice(start, start + _BLOCK)
        pairs, _, used = lookup([p[block] for p in params])
        change, last = _runs(pairs[state], used[state], last)
        if change is None:
            out[block] = _decode(curve, sampler._blend(grid, pairs, used))
        else:
            blocks.append((block, change))
    if not blocks:
        return out
    heads = np.concatenate([block.start + np.flatnonzero(change) for block, change in blocks])
    values = []
    for start in range(0, heads.size, _BLOCK):
        pairs, _, used = lookup([p[heads[start : start + _BLOCK]] for p in params])
        if not hybrid:
            values.append(_decode(curve, sampler._blend(grid, pairs, used)).T)
        else:
            values.append(sampler._lerp_axes(sampler._corners(grid, pairs), used[:2]))
    values = np.concatenate(values, axis=-1)
    count = 0
    for block, change in blocks:
        at = np.cumsum(change) + (count - 1)
        count = at[-1] + 1
        if not hybrid:
            for row, channel in zip(values, out.T):
                row.take(at, out=channel[block], mode="clip")  # "clip": unbuffered
        else:
            slices = values.take(at, axis=-1)
            out[block] = _decode(curve, sampler._lerp_axes(slices, (params[0][block],)).T)
    return out


def _eval_curve(curve: EncodedCurve, t, cfg: SamplerConfig, hybrid: bool = False):
    """The 1-parameter path: t validated once, then mapped per block by `_fetch`."""
    layout, t = _curve_param(curve, t)
    return _fetch(curve, lambda t: _coords(curve, layout, t), (t,), cfg, hybrid)


def eval_dc(curve: EncodedCurve, t, cfg: SamplerConfig):
    """Evaluate a de Casteljau packing: one read at (t, t) or (t, t, t)."""
    _mode_eval(curve, "dc")
    return _eval_curve(curve, t, cfg)


def eval_dc_zigzag(curve: EncodedCurve, global_t, cfg: SamplerConfig):
    """Evaluate a zig-zag packing at global parameter in [0, segment_count]."""
    _mode_eval(curve, "zigzag")
    return _eval_curve(curve, global_t, cfg)


def eval_seiler_tex(curve: EncodedCurve, t, cfg: SamplerConfig):
    """Evaluate a difference-term packing at (t, st) or (t, st, st)."""
    _mode_eval(curve, "seiler")
    return _eval_curve(curve, t, cfg)


def eval_dc_cubic_hybrid(curve: EncodedCurve, t, cfg: SamplerConfig):
    """Split-precision cubic: the x and y fractions are quantized, the
    depth fraction is the exact t.

    One 3-axis blend whose first two levels match a bilinear read of each
    quadratic slice, while the last interpolation level runs at full
    precision with the unquantized parameter.
    """
    _mode_eval(curve, "dc-hybrid")
    return _eval_curve(curve, t, cfg, hybrid=True)


def eval_bilinear_patch(curve: EncodedCurve, u, v, cfg: SamplerConfig):
    """Evaluate a bilinear patch: one read at (remapped u, remapped v)."""
    _mode_eval(curve, "patch")
    return _fetch(curve,
                  lambda u, v: (remap_unit_to_texel_span(u, 2), remap_unit_to_texel_span(v, 2)),
                  (_unit_param(u), _unit_param(v)), cfg)


def eval_bicubic_rgba(curve: EncodedCurve, u, v, cfg: SamplerConfig):
    """Evaluate a bicubic packing: one trilinear read at (u, u, u) yields
    the four isoline control points in the channels; the cross-direction
    cubic in v runs at full precision."""
    _mode_eval(curve, "bicubic")
    iso = _fetch(curve, lambda u: (remap_unit_to_texel_span(u, 2),) * 3, (_unit_param(u),), cfg)
    return bernstein_sum(np.moveaxis(iso, -1, 0)[..., None], _unit_param(v))


def eval_rational_tex(curve: EncodedCurve, t, cfg: SamplerConfig):
    """Evaluate a homogeneous packing through its inner layout, then divide
    point by weight."""
    _mode_eval(curve, "rational")
    return _eval_curve(curve, t, cfg)


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
