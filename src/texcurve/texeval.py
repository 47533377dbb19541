"""Evaluate encoded curves through the emulated sampler.

`parameter_coords` is the one place that maps a 1-parameter layout's
parameter to sample coordinates. The dc, seiler, zig-zag and rational
evaluators check their layout and then share one path: coordinates, one
bilinear or trilinear fetch, and `_decode` (the inverse transform, and for
rational curves the divide by the weight). The split-precision hybrid runs
a single 3-axis blend with an exact depth fraction; the two surface
evaluators map (u, v) themselves. Every evaluator and the error bound
decode through `_decode`.

Parameters broadcast like the reference evaluators: scalar in, one point
out; (n,) array in, (n, channels) out. A 1-parameter evaluator runs a
parameter array longer than `_BLOCK` in consecutive blocks of that length,
writing each block's points into one output array. Every stage of the path
is elementwise, so blocking changes no bit of the result; it keeps each
(block, channels) temporary small enough for the lerp chain's passes to
stay in the L2 cache (2^17 samples x 3 channels of float64 is 3 MB, one
block is 192 kB).
"""

from __future__ import annotations

import numpy as np

from .core import (
    DomainError,
    EncodedCurve,
    HomogeneousDivideError,
    Layout,
    LayoutError,
    SamplerConfig,
    TexCurveError,
    remap_unit_to_texel_span,
)
from .reference import bernstein_sum
from .sampler import (
    blend_with_fractions,
    quantize_fraction,
    sample_bilinear,
    sample_trilinear,
    texel_cell,
)


def _require_layout(curve: EncodedCurve, *layouts: Layout):
    if curve.layout not in layouts:
        names = ", ".join(l.value for l in layouts)
        raise LayoutError(f"expected layout in ({names}), got {curve.layout.value}")


def _unit_param(t):
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > 1.0) or not np.all(np.isfinite(t)):
        raise DomainError("parameter outside [0, 1]")
    return t


_BLOCK = 8192


def _curve_param(curve: EncodedCurve, t):
    """A 1-parameter curve's layout and its validated parameter array.

    Rational curves resolve to their inner layout and must keep an identity
    transform on the weight channel. Zig-zag chains take a global parameter
    in [0, segment_count], every other 1-parameter layout t in [0, 1].
    Other layouts raise LayoutError, before the parameter is checked.
    """
    layout = curve.layout
    if layout is Layout.RATIONAL_HOMOGENEOUS:
        if curve.transform.scale[-1] != 1.0 or curve.transform.offset[-1] != 0.0:
            raise LayoutError("rational curves must keep an identity transform on the weight channel")
        layout = curve.inner_layout
    if layout is Layout.DC_ZIGZAG:
        n = curve.segment_count
        gt = np.asarray(t, dtype=float)
        if np.any(gt < 0.0) or np.any(gt > n) or not np.all(np.isfinite(gt)):
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
    if not (np.all(m <= 0.25) and np.all(rm >= 0.25) and np.all(rm <= 0.375)):
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
            out = np.empty(t.shape + part.shape[1:])
        out[start : start + _BLOCK] = part
    return out


def _decode(curve: EncodedCurve, raw):
    """Filtered texel values to curve points: the inverse transform, and for
    rational curves the divide by the weight channel.

    The inverse transform runs before the divide (it undoes the encode-time
    map exactly); `_curve_param` holds the weight channel to an identity
    transform, so the decoded weight is the true weight polynomial value.
    """
    value = curve.transform.invert(raw)
    if curve.layout is not Layout.RATIONAL_HOMOGENEOUS:
        return value
    den = value[..., -1:]
    if np.any(np.abs(den) <= 1e-9):
        raise HomogeneousDivideError("decoded weight too close to zero to divide by")
    return value[..., :-1] / den


def _eval_curve(curve: EncodedCurve, t, cfg: SamplerConfig):
    """The shared 1-parameter path: coordinates, one fetch, decode."""
    coords = parameter_coords(curve, t)
    if len(coords) == 2:
        raw, _ = sample_bilinear(curve.grid, *coords, cfg)
    else:
        raw, _ = sample_trilinear(curve.grid, *coords, cfg)
    return _decode(curve, raw)


def eval_dc(curve: EncodedCurve, t, cfg: SamplerConfig):
    """Evaluate a de Casteljau packing: one read at (t, t) or (t, t, t)."""
    _require_layout(curve, Layout.DC_QUAD_2X2, Layout.DC_CUBIC_2X2X2)
    return _in_blocks(_eval_curve, curve, t, cfg)


def eval_dc_zigzag(curve: EncodedCurve, global_t, cfg: SamplerConfig):
    """Evaluate a zig-zag packing at global parameter in [0, segment_count]."""
    _require_layout(curve, Layout.DC_ZIGZAG)
    return _in_blocks(_eval_curve, curve, global_t, cfg)


def eval_seiler_tex(curve: EncodedCurve, t, cfg: SamplerConfig):
    """Evaluate a difference-term packing at (t, st) or (t, st, st)."""
    _require_layout(curve, Layout.SEILER_2D, Layout.SEILER_3D)
    return _in_blocks(_eval_curve, curve, t, cfg)


def _eval_hybrid(curve: EncodedCurve, t, cfg: SamplerConfig):
    r = parameter_coords(curve, t)[0]  # the x, y and z coordinates coincide
    base, frac = texel_cell(r, curve.grid.width)
    f = quantize_fraction(frac, cfg)
    raw = blend_with_fractions(curve.grid, (base, base, np.zeros_like(base)), (f, f, t))
    return _decode(curve, raw)


def eval_dc_cubic_hybrid(curve: EncodedCurve, t, cfg: SamplerConfig):
    """Split-precision cubic: the x and y fractions are quantized, the
    depth fraction is the exact t.

    One 3-axis blend whose first two levels match a bilinear read of each
    quadratic slice, while the last interpolation level runs at full
    precision with the unquantized parameter.
    """
    _require_layout(curve, Layout.DC_CUBIC_2X2X2)
    return _in_blocks(_eval_hybrid, curve, t, cfg)


def eval_bilinear_patch(curve: EncodedCurve, u, v, cfg: SamplerConfig):
    """Evaluate a bilinear patch: one read at (remapped u, remapped v)."""
    _require_layout(curve, Layout.BILINEAR_PATCH)
    ru = remap_unit_to_texel_span(_unit_param(u), 2)
    rv = remap_unit_to_texel_span(_unit_param(v), 2)
    raw, _ = sample_bilinear(curve.grid, ru, rv, cfg)
    return _decode(curve, raw)


def eval_bicubic_rgba(curve: EncodedCurve, u, v, cfg: SamplerConfig):
    """Evaluate a bicubic packing: one trilinear read at (u, u, u) yields
    the four isoline control points in the channels; the cross-direction
    cubic in v runs at full precision."""
    _require_layout(curve, Layout.BICUBIC_RGBA)
    r = remap_unit_to_texel_span(_unit_param(u), 2)
    raw, _ = sample_trilinear(curve.grid, r, r, r, cfg)
    iso = _decode(curve, raw)
    return bernstein_sum(np.moveaxis(iso, -1, 0)[..., None], _unit_param(v))


def eval_rational_tex(curve: EncodedCurve, t, cfg: SamplerConfig):
    """Evaluate a homogeneous packing through its inner layout, then divide
    point by weight."""
    _require_layout(curve, Layout.RATIONAL_HOMOGENEOUS)
    return _in_blocks(_eval_curve, curve, t, cfg)
