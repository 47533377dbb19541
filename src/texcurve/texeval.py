"""Evaluate encoded curves through the emulated sampler.

`_MODES` is the one mode table: the layouts each evaluation mode
evaluates, and its evaluator. The public evaluators check their layout
through it, as sweeps, the error bound and the CLI check their mode.
Every evaluator reads the grid through one `_fetch` (the staged lookup
`sampler._lookup`, the blend, then `_decode`: the inverse transform, and
for rational curves the divide by the weight) and builds no `SampleTrace`.
`parameter_coords` is the one 1-parameter coordinate picker and
`_eval_curve` the one 1-parameter path, which the split-precision hybrid
runs with the exact t as its depth fraction; `_curve_param` validates the
parameter once. The surface evaluators map (u, v) and call `_fetch`.

`_fetch` blends once per run of equal lookup state. The filter's output is
fixed by the texture unit's discrete state: the clamped texel pair and the
used (fixed-point) fraction on each axis, which is every index array and
every used fraction `sampler._lookup` returns. The blend, the inverse
transform and the rational divide are elementwise functions of that state,
so consecutive samples with bitwise-equal state get bitwise-equal points.
`_fetch` compares the state of neighbouring samples along a 1-D sample
axis, blends and decodes the first sample of each run, and repeats its
point by run length. Fractions compare by their bits, not with `!=`, which
holds -0.0 equal to +0.0 although the blend keeps their signs apart. A
sorted 2^17-sample dc lattice at 8 bits reaches 257 states and is blended
273 times (each `_BLOCK` starts a run) instead of 131,072. At bits 0 the
used fraction is the exact fraction, and the hybrid's depth fraction is t
itself, so there only repeated parameters form runs. Scalars, 2-D
parameters and shuffled lattices gain nothing either. Every sample is
blended as before when runs would be more than half of the samples, and
below `_RUN_MIN` samples, where a blend costs about the same for 20 samples
as for 256.

Parameters broadcast like the reference evaluators: scalar in, one point
out; (n,) array in, (n, channels) out, stored channel-major (Fortran
order) like the sampler's result. A 1-parameter evaluator runs a parameter
array longer than `_BLOCK` in consecutive blocks of that length, writing
each block's points into one output array of the same order. Every stage of
the path is elementwise, so neither blocking nor memory order changes a bit
of the result. Blocking keeps the lerp chain's temporaries small enough to
stay in the L2 cache (2^17 samples x 3 channels of float64 is 3 MB, one
block is 192 kB). Channel-major order gives each elementwise pass, the lerps
and the decode's per-channel `(raw - offset) / scale` among them, an inner
loop over the block's samples instead of over its 1 to 4 channels.
"""

from __future__ import annotations

import functools
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


def parameter_coords(curve: EncodedCurve, t):
    """Normalized sample coordinates the texture path uses for parameter t.

    The only place a 1-parameter layout's coordinates are chosen; rational
    curves resolve through their inner layout. Error analysis probes the
    exact cells a sweep will touch through it.
    """
    layout, t = _curve_param(curve, t)
    if layout is Layout.DC_QUAD_2X2:
        r = remap_unit_to_texel_span(t, 2)
        return r, r
    if layout is Layout.DC_CUBIC_2X2X2:
        r = remap_unit_to_texel_span(t, 2)
        return r, r, r
    if layout is Layout.DC_ZIGZAG:
        return _zigzag_coords(curve.segment_count, t)
    return _seiler_coords(layout, t)


def _in_blocks(body, curve: EncodedCurve, t, cfg: SamplerConfig):
    """body(curve, t, cfg) over consecutive `_BLOCK`-long slices of a 1-D t.

    Scalars and arrays of at most one block run the body once. A longer
    array is validated whole first, so an invalid parameter anywhere raises
    before any block runs, as it does from an unblocked call.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.shape[0] <= _BLOCK:
        return body(curve, t, cfg)
    _curve_param(curve, t)
    out = None
    for start in range(0, t.shape[0], _BLOCK):
        part = body(curve, t[start : start + _BLOCK], cfg)
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


def _runs(pairs, used):
    """The runs of consecutive samples whose lookup state is bitwise
    identical, as (first sample, length) arrays, or None when runs do not pay.

    The state is every clamped index array in `pairs` and every used
    fraction in `used`, as `sampler._lookup` returns them. Axes that share a
    stage share its arrays, so each stage is compared once; a 0-d index (the
    hybrid's depth pair) is the same for every sample. Fractions compare
    through their int64 bits, because `!=` holds -0.0 and +0.0 equal while
    the blend keeps their signs apart. Runs need one 1-D sample axis (every
    fraction of shape (n,)) of at least `_RUN_MIN` samples, and they pay
    only while there are at most n / 2 of them; the fractions are compared
    first, since they change most often.
    """
    shape, *others = {f.shape for f in used}
    if others or len(shape) != 1 or shape[0] < _RUN_MIN:
        return None
    stages = {(id(f), id(pair)): (f, pair) for f, pair in zip(used, pairs)}.values()
    state = [f.view(np.int64) for f, _ in stages]
    state += [a for _, pair in stages for a in pair if a.ndim]
    change = np.zeros(shape, dtype=bool)
    change[0] = True
    for a in state:
        change[1:] |= a[1:] != a[:-1]
        if 2 * np.count_nonzero(change) > shape[0]:
            return None
    heads = np.flatnonzero(change)
    return heads, np.diff(heads, append=shape[0])


def _fetch(curve: EncodedCurve, coords, cfg: SamplerConfig, depth_fraction=None):
    """The one texel fetch: the staged lookup, the blend, then `_decode`. The
    evaluators validated the coordinates and `EncodedCurve` the grid's dims.

    The blend, the inverse transform and the rational divide are elementwise
    functions of the lookup state alone (every clamped index pair and every
    used fraction), so the samples of one run of bitwise-equal state
    (`_runs`) share every bit of their point: the blend and the decode run
    once per run, at its first sample, and the points repeat by run length
    into the same channel-major array. Bitwise, because `!=` would merge
    -0.0 and +0.0 fractions that blend to points of opposite sign. At bits
    0, and on the hybrid's depth axis (the exact t), fractions differ
    wherever parameters do, so runs are rare there and every sample is
    blended.
    """
    grid = curve.grid
    pairs, _, used = sampler._lookup(grid, coords, cfg, depth_fraction)
    runs = _runs(pairs, used)
    if runs is None:
        return _decode(curve, sampler._blend(grid, pairs, used))
    heads, lengths = runs
    value = _decode(curve, sampler._blend(
        grid, [tuple(a[heads] if a.ndim else a for a in pair) for pair in pairs],
        [f[heads] for f in used]))
    return np.repeat(value.T, lengths, axis=1).T


def _eval_curve(curve: EncodedCurve, t, cfg: SamplerConfig, hybrid: bool = False):
    """The 1-parameter path: coordinates, then one fetch. The `hybrid`
    (a dc cubic) fetches x and y at the dc coordinate and blends depth at
    the exact t."""
    coords = parameter_coords(curve, t)
    if hybrid:
        return _fetch(curve, coords[:2], cfg, depth_fraction=t)
    return _fetch(curve, coords, cfg)


_eval_hybrid = functools.partial(_eval_curve, hybrid=True)


def eval_dc(curve: EncodedCurve, t, cfg: SamplerConfig):
    """Evaluate a de Casteljau packing: one read at (t, t) or (t, t, t)."""
    _mode_eval(curve, "dc")
    return _in_blocks(_eval_curve, curve, t, cfg)


def eval_dc_zigzag(curve: EncodedCurve, global_t, cfg: SamplerConfig):
    """Evaluate a zig-zag packing at global parameter in [0, segment_count]."""
    _mode_eval(curve, "zigzag")
    return _in_blocks(_eval_curve, curve, global_t, cfg)


def eval_seiler_tex(curve: EncodedCurve, t, cfg: SamplerConfig):
    """Evaluate a difference-term packing at (t, st) or (t, st, st)."""
    _mode_eval(curve, "seiler")
    return _in_blocks(_eval_curve, curve, t, cfg)


def eval_dc_cubic_hybrid(curve: EncodedCurve, t, cfg: SamplerConfig):
    """Split-precision cubic: the x and y fractions are quantized, the
    depth fraction is the exact t.

    One 3-axis blend whose first two levels match a bilinear read of each
    quadratic slice, while the last interpolation level runs at full
    precision with the unquantized parameter.
    """
    _mode_eval(curve, "dc-hybrid")
    return _in_blocks(_eval_hybrid, curve, t, cfg)


def eval_bilinear_patch(curve: EncodedCurve, u, v, cfg: SamplerConfig):
    """Evaluate a bilinear patch: one read at (remapped u, remapped v)."""
    _mode_eval(curve, "patch")
    ru = remap_unit_to_texel_span(_unit_param(u), 2)
    rv = remap_unit_to_texel_span(_unit_param(v), 2)
    return _fetch(curve, (ru, rv), cfg)


def eval_bicubic_rgba(curve: EncodedCurve, u, v, cfg: SamplerConfig):
    """Evaluate a bicubic packing: one trilinear read at (u, u, u) yields
    the four isoline control points in the channels; the cross-direction
    cubic in v runs at full precision."""
    _mode_eval(curve, "bicubic")
    r = remap_unit_to_texel_span(_unit_param(u), 2)
    iso = _fetch(curve, (r, r, r), cfg)
    return bernstein_sum(np.moveaxis(iso, -1, 0)[..., None], _unit_param(v))


def eval_rational_tex(curve: EncodedCurve, t, cfg: SamplerConfig):
    """Evaluate a homogeneous packing through its inner layout, then divide
    point by weight."""
    _mode_eval(curve, "rational")
    return _in_blocks(_eval_curve, curve, t, cfg)


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
