"""Build texel grids for every supported layout.

Placement rules follow one shared orientation convention: row 0 of a
2-texel-high grid is the row sampled at v = 0.25, and slice 0 of a
2-texel-deep grid is the slice sampled at w = 0.25. Raw values are laid
out first, then the optional range rescale is applied, then the texels are
quantized to the storage format.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .core import (
    ChannelMismatchError,
    ControlPolygon,
    DomainError,
    EncodedCurve,
    JoinError,
    Layout,
    LayoutError,
    RangeError,
    TexelFormat,
    TexelGrid,
    UnsupportedDegreeError,
    ValueTransform,
)
from .reference import homogeneous, seiler_terms
from .sampler import quantize_texel


def fit_range(values, fmt: TexelFormat) -> ValueTransform:
    """Per-channel affine transform mapping the value span into [0, 1].

    Values already inside [0, 1] map through the identity. A degenerate
    channel (max == min) keeps scale 1 and only shifts its value to 0.
    """
    vals = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DomainError("cannot fit a range over non-finite values")
    flat = vals.reshape(-1, vals.shape[-1])
    lo = flat.min(axis=0)
    hi = flat.max(axis=0)
    scale = np.ones_like(lo)
    offset = np.zeros_like(lo)
    for c in range(lo.shape[0]):
        if lo[c] >= 0.0 and hi[c] <= 1.0:
            continue
        if hi[c] == lo[c]:
            offset[c] = -lo[c]
        else:
            scale[c] = 1.0 / (hi[c] - lo[c])
            offset[c] = -lo[c] * scale[c]
    return ValueTransform(scale, offset)


def _quantize_array(values: np.ndarray, fmt: TexelFormat) -> np.ndarray:
    if fmt is TexelFormat.FLOAT32:
        return values.astype(np.float32).astype(float)
    out = np.empty_like(values, dtype=float)
    it = np.nditer(values, flags=["multi_index"])
    for v in it:
        out[it.multi_index] = quantize_texel(float(v), fmt)
    return out


def _check_range(values: np.ndarray, fmt: TexelFormat, context: str):
    """Hard error on unorm overflow; silent clamping would corrupt curves."""
    if not fmt.is_unorm:
        return
    bad = np.argwhere((values < 0.0) | (values > 1.0))
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        v = float(values[idx])
        raise RangeError(
            f"{context}: texel {idx} has value {v!r}, outside [0, 1] for {fmt.value}; "
            "pass rescale=True to fit the range"
        )


def _finish(
    values: np.ndarray,
    fmt: TexelFormat,
    layout: Layout,
    degree: int,
    *,
    segment_count: int = 1,
    rescale: bool = False,
    rescale_channels: Optional[np.ndarray] = None,
    inner_layout: Optional[Layout] = None,
    context: str = "encode",
) -> EncodedCurve:
    """Shared tail of every encoder: rescale, range-check, quantize, wrap."""
    channels = values.shape[-1]
    if rescale:
        transform = fit_range(values, fmt)
        if rescale_channels is not None:
            keep = np.ones(channels, dtype=bool)
            keep[rescale_channels] = False
            scale = np.where(keep, 1.0, transform.scale)
            offset = np.where(keep, 0.0, transform.offset)
            transform = ValueTransform(scale, offset)
        stored = transform.apply(values)
        if rescale_channels is not None:
            _check_range(stored, fmt, context)
    else:
        transform = ValueTransform.identity(channels)
        stored = values
        _check_range(stored, fmt, context)
    grid = TexelGrid(
        (values.shape[2], values.shape[1], values.shape[0]),
        channels,
        fmt,
        _quantize_array(stored, fmt),
    )
    return EncodedCurve(
        grid=grid,
        layout=layout,
        degree=degree,
        segment_count=segment_count,
        transform=transform,
        inner_layout=inner_layout,
    )


def _dc_quad_values(points: np.ndarray) -> np.ndarray:
    """2x2 placement [A, B / B, C] for a quadratic."""
    a, b, c = points
    return np.array([[[a, b], [b, c]]])


def _dc_cubic_values(points: np.ndarray) -> np.ndarray:
    """2x2x2 placement: near slice holds ABC, far slice holds BCD."""
    a, b, c, d = points
    return np.array([[[a, b], [b, c]], [[b, c], [c, d]]])


def _seiler_values(poly: ControlPolygon) -> np.ndarray:
    """Difference-term texel placement for degrees 2 through 5.

    deg 2: [b0, b2 / b0+d1, b2+d1]
    deg 3: [b0, b3 / s1, s2]
    deg 4: near [b0, b4 / b0, b4], far [b0+d1, b4+d3 / b0+d1+d2, b4+d3+d2]
    deg 5: near [b0, b5 / b0, b5], far [b0+d1, b5+d4 / b0+d1+d2, b5+d4+d3]
    """
    terms = seiler_terms(poly)
    b = poly.points
    d = poly.degree
    if d == 2:
        d1 = terms.diff(1)
        return np.array([[[b[0], b[2]], [b[0] + d1, b[2] + d1]]])
    if d == 3:
        return np.array([[[b[0], b[3]], [terms.s1, terms.s2]]])
    if d == 4:
        d1, d2, d3 = terms.diffs
        near = [[b[0], b[4]], [b[0], b[4]]]
        far = [[b[0] + d1, b[4] + d3], [b[0] + d1 + d2, b[4] + d3 + d2]]
        return np.array([near, far])
    d1, d2, d3, d4 = terms.diffs
    near = [[b[0], b[5]], [b[0], b[5]]]
    far = [[b[0] + d1, b[5] + d4], [b[0] + d1 + d2, b[5] + d4 + d3]]
    return np.array([near, far])


def encode_dc_quadratic(poly: ControlPolygon, fmt: TexelFormat, *, rescale: bool = False) -> EncodedCurve:
    """Pack a quadratic so one bilinear read at (t, t) evaluates it."""
    if poly.degree != 2:
        raise UnsupportedDegreeError(f"quadratic layout needs degree 2, got {poly.degree}")
    return _finish(_dc_quad_values(poly.points), fmt, Layout.DC_QUAD_2X2, 2,
                   rescale=rescale, context="dc quadratic")


def encode_dc_cubic(poly: ControlPolygon, fmt: TexelFormat, *, rescale: bool = False) -> EncodedCurve:
    """Pack a cubic so one trilinear read at (t, t, t) evaluates it."""
    if poly.degree != 3:
        raise UnsupportedDegreeError(f"cubic layout needs degree 3, got {poly.degree}")
    return _finish(_dc_cubic_values(poly.points), fmt, Layout.DC_CUBIC_2X2X2, 3,
                   rescale=rescale, context="dc cubic")


def _zigzag_rows(segments: Sequence[ControlPolygon], seed: np.ndarray):
    """Forward substitution of the zig-zag texel rows.

    Row constraints per segment k with points (P0, P1, P2):
      even k: T_k = P0, U_(k+1) = P2, T_(k+1) + U_k = 2 P1
      odd k:  U_k = P0, T_(k+1) = P2, U_(k+1) + T_k = 2 P1
    U_0 is the free variable.
    """
    n = len(segments)
    channels = segments[0].channels
    top = np.empty((n + 1, channels))
    bottom = np.empty((n + 1, channels))
    top[0] = segments[0].points[0]
    bottom[0] = seed
    for k, seg in enumerate(segments):
        p0, p1, p2 = seg.points
        if k % 2 == 0:
            bottom[k + 1] = p2
            top[k + 1] = 2.0 * p1 - bottom[k]
        else:
            top[k + 1] = p2
            bottom[k + 1] = 2.0 * p1 - top[k]
    return top, bottom


def _zigzag_best_seed(segments: Sequence[ControlPolygon]) -> np.ndarray:
    """Seed minimizing the max texel excursion outside [0, 1] per channel.

    Every texel is affine in the seed with slope +1, -1 or 0, so the
    feasible seed set is an interval per channel; its midpoint is the
    1-D Chebyshev center and remains optimal when the interval is empty.
    """
    channels = segments[0].channels
    zero = np.zeros(channels)
    one = np.ones(channels)
    t0, b0 = _zigzag_rows(segments, zero)
    t1, b1 = _zigzag_rows(segments, one)
    base = np.concatenate([t0, b0])
    slope = np.concatenate([t1, b1]) - base
    seed = np.empty(channels)
    for c in range(channels):
        lo, hi = -np.inf, np.inf
        for const, sl in zip(base[:, c], slope[:, c]):
            if sl > 0.5:
                lo = max(lo, -const)
                hi = min(hi, 1.0 - const)
            elif sl < -0.5:
                lo = max(lo, const - 1.0)
                hi = min(hi, const)
        if not np.isfinite(lo):
            lo, hi = 0.0, 1.0
        seed[c] = 0.5 * (lo + hi)
    return seed


def encode_dc_zigzag(
    segments: Sequence[ControlPolygon],
    fmt: TexelFormat,
    seed=None,
    *,
    rescale: bool = False,
    optimize_seed: bool = False,
) -> EncodedCurve:
    """Pack N C0-joined quadratics into an (N+1) x 2 grid.

    Anti-diagonal texel pairs average to each segment's middle control
    point, which saves two texels per segment over independent 2x2 blocks.
    The free texel U_0 defaults to segment 0's middle point; pass a seed or
    optimize_seed=True to pick it differently.
    """
    if not segments:
        raise DomainError("at least one segment is required")
    channels = segments[0].channels
    for seg in segments:
        if seg.degree != 2:
            raise UnsupportedDegreeError("zig-zag packing holds quadratic segments only")
        if seg.channels != channels:
            raise ChannelMismatchError("all segments must share a channel count")
    for k in range(len(segments) - 1):
        if not np.array_equal(segments[k].points[2], segments[k + 1].points[0]):
            raise JoinError(f"segments {k} and {k + 1} do not join exactly (C0 violated)")
    if optimize_seed:
        if seed is not None:
            raise DomainError("pass either an explicit seed or optimize_seed, not both")
        seed_vec = _zigzag_best_seed(segments)
    elif seed is None:
        seed_vec = np.asarray(segments[0].points[1], dtype=float)
    else:
        seed_vec = np.asarray(seed, dtype=float)
        try:
            seed_vec = np.broadcast_to(seed_vec, (channels,)).astype(float)
        except ValueError:
            raise ChannelMismatchError(
                f"seed texel has {seed_vec.size} values for {channels}-channel segments"
            ) from None
        if not np.all(np.isfinite(seed_vec)):
            raise DomainError("seed texel must be finite")
    top, bottom = _zigzag_rows(segments, seed_vec)
    values = np.stack([top, bottom], axis=0)[None]  # (1, 2, N+1, c)
    return _finish(values, fmt, Layout.DC_ZIGZAG, 2,
                   segment_count=len(segments), rescale=rescale, context="zig-zag")


def encode_seiler(poly: ControlPolygon, fmt: TexelFormat, *, rescale: bool = False) -> EncodedCurve:
    """Pack a degree 2..5 curve with difference terms.

    Degrees 2-3 need only a 2x2 grid (4 texels for 4 cubic control points,
    no redundancy); degrees 4-5 use 2x2x2. Note the stored values routinely
    leave the control hull, so unorm formats often need rescale=True.
    """
    values = _seiler_values(poly)
    layout = Layout.SEILER_2D if poly.degree <= 3 else Layout.SEILER_3D
    try:
        return _finish(values, fmt, layout, poly.degree, rescale=rescale, context="seiler")
    except RangeError as exc:
        span = (float(values.min()), float(values.max()))
        raise RangeError(f"{exc} (difference-term values span [{span[0]!r}, {span[1]!r}])") from None


def encode_bilinear_patch(corners, fmt: TexelFormat, *, rescale: bool = False) -> EncodedCurve:
    """Store a 2x2 control net directly; one bilinear read evaluates it."""
    g = np.asarray(corners, dtype=float)
    if g.ndim == 2:
        g = g[..., None]
    if g.ndim != 3 or g.shape[:2] != (2, 2):
        raise LayoutError(f"bilinear patch needs a 2x2 control net, got shape {g.shape}")
    return _finish(g[None], fmt, Layout.BILINEAR_PATCH, 1, rescale=rescale, context="patch")


def encode_bicubic_rgba(control_grid, fmt: TexelFormat, *, rescale: bool = False) -> EncodedCurve:
    """Pack a scalar 4x4 control net into the channels of a 2x2x2 grid.

    Channel c holds the cubic packing of control row c, so a single
    trilinear read at (u, u, u) returns the four isoline control points for
    the cross-direction cubic in v.
    """
    g = np.asarray(control_grid, dtype=float)
    if g.ndim == 3 and g.shape[2] == 1:
        g = g[..., 0]
    if g.ndim != 2 or g.shape != (4, 4):
        raise ChannelMismatchError(
            f"bicubic packing needs a 4x4 grid of scalars (got shape {g.shape}); "
            "vector-valued entries overflow the four channels"
        )
    values = np.empty((2, 2, 2, 4))
    for c in range(4):
        values[..., c] = _dc_cubic_values(g[c][:, None])[..., 0]
    return _finish(values, fmt, Layout.BICUBIC_RGBA, 3, rescale=rescale, context="bicubic")


def encode_rational(
    num: ControlPolygon,
    weights,
    fmt: TexelFormat,
    *,
    scheme: str = "seiler",
    rescale: bool = False,
) -> EncodedCurve:
    """Pack the homogeneous points (w_i b_i, w_i) of a rational curve.

    The consumer divides point channels by the weight channel after the
    lookup. The weight channel always carries an identity transform since
    an affine map does not commute with that divide; rescale therefore
    applies to the point channels only.
    """
    hom = homogeneous(num, weights)
    if num.degree not in (2, 3):
        raise UnsupportedDegreeError("rational encoding supports degrees 2 and 3")
    if scheme == "seiler":
        values = _seiler_values(hom)
        inner = Layout.SEILER_2D
    elif scheme == "dc":
        if hom.degree == 2:
            values = _dc_quad_values(hom.points)
            inner = Layout.DC_QUAD_2X2
        else:
            values = _dc_cubic_values(hom.points)
            inner = Layout.DC_CUBIC_2X2X2
    else:
        raise DomainError(f"unknown rational scheme {scheme!r}")
    point_channels = np.arange(num.channels)
    return _finish(
        values,
        fmt,
        Layout.RATIONAL_HOMOGENEOUS,
        num.degree,
        rescale=rescale,
        rescale_channels=point_channels if rescale else None,
        inner_layout=inner,
        context="rational",
    )


def zigzag_residuals(curve: EncodedCurve, segments: Sequence[ControlPolygon]) -> np.ndarray:
    """Audit the averaging relation on a stored zig-zag grid.

    Returns |T_(k+1) + U_k - 2 P1| (even k) or |U_(k+1) + T_k - 2 P1|
    (odd k) per segment and channel, measured against the transformed
    middle control points. Each residual should stay within one texel
    quantization step of the format.
    """
    if curve.layout is not Layout.DC_ZIGZAG:
        raise LayoutError("constraint audit applies to zig-zag grids only")
    top = curve.grid.data[0, 0]
    bottom = curve.grid.data[0, 1]
    res = np.empty((len(segments), curve.grid.channels))
    for k, seg in enumerate(segments):
        p1 = curve.transform.apply(seg.points[1])
        if k % 2 == 0:
            res[k] = np.abs(top[k + 1] + bottom[k] - 2.0 * p1)
        else:
            res[k] = np.abs(bottom[k + 1] + top[k] - 2.0 * p1)
    return res
