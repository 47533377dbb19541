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
    MAX_CHANNELS,
    RangeError,
    TexelFormat,
    TexelGrid,
    UnsupportedDegreeError,
    ValueTransform,
)
from .reference import homogeneous, seiler_terms


def fit_range(values, fmt: TexelFormat) -> ValueTransform:
    """Per-channel affine transform mapping the value span into [0, 1].

    `values` is (..., channels) with at least one row and one channel, else
    DomainError. Values already inside [0, 1] map through the identity. A
    degenerate channel (max == min) keeps scale 1 and only shifts its value
    to 0. A span whose reciprocal is 0 or overflows float64 raises
    RangeError.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 0 or vals.size == 0:
        raise DomainError(f"cannot fit a range over shape {vals.shape}: it needs "
                          "(..., channels) with a row and a channel")
    if not np.all(np.isfinite(vals)):
        raise DomainError("cannot fit a range over non-finite values")
    flat = vals.reshape(-1, vals.shape[-1])
    lo = flat.min(axis=0)
    hi = flat.max(axis=0)
    fit = (lo < 0.0) | (hi > 1.0)
    with np.errstate(over="ignore"):
        scale = 1.0 / np.where(fit & (hi != lo), hi - lo, 1.0)
    try:
        return ValueTransform(scale, np.where(fit, -lo * scale, 0.0))
    except DomainError:  # a scale of 0 or inf
        raise RangeError("the value span is too wide or too narrow for float64 to rescale") from None


#: Dekker's splitter for float64: 2^27 + 1
_SPLITTER = 134217729.0


def _quantize_array(values: np.ndarray, fmt: TexelFormat) -> np.ndarray:
    """Quantize texels to the storage format in one exact array pass.

    float32 rounds each value to the nearest 32-bit float; a value beyond
    its range becomes inf, which `_finish` rejects. unorm formats clamp v
    to [0, 1] and store k/L (L = fmt.levels) with k = floor(v·L + 1/2),
    round half up, decided exactly:

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
    every term is tiny, so k = 0 regardless. -0.0 stores as +0.0, NaN as
    NaN. `sampler.quantize_texel` is this kernel on one value.
    """
    if fmt is TexelFormat.FLOAT32:
        with np.errstate(over="ignore"):
            return values.astype(np.float32).astype(float)
    levels = float(fmt.levels)
    v = np.clip(values, 0.0, 1.0)
    c = _SPLITTER * v
    hi = c - (c - v)
    a, b = hi * levels, (v - hi) * levels
    s = a + b
    bs = s - a
    e = (a - (s - bs)) + (b - bs)
    f = np.floor(s)
    return (f + (s - f - 0.5 >= -e)) / levels


def _check_range(values: np.ndarray, fmt: TexelFormat, context: str, rational: bool):
    """Hard error on unorm overflow; silent clamping would corrupt curves. No
    rescale reaches a rational curve's weight channel (the last)."""
    if not fmt.is_unorm:
        return
    bad = np.argwhere((values < 0.0) | (values > 1.0))
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        advice = "pass rescale=True to fit the range"
        if rational and idx[-1] == values.shape[-1] - 1:
            advice = ("no rescale reaches the weight channel; use weights whose texels "
                      "(the seiler scheme's difference terms) stay in [0, 1], or float32")
        raise RangeError(
            f"{context}: texel {idx} has value {float(values[idx])!r}, outside [0, 1] "
            f"for {fmt.value}; {advice}"
        )


def _finish(
    values: np.ndarray,
    fmt: TexelFormat,
    layout: Layout,
    degree: int,
    *,
    segment_count: int = 1,
    rescale: bool = False,
    inner_layout: Optional[Layout] = None,
    context: str = "encode",
) -> EncodedCurve:
    """Shared tail of every encoder: rescale, range-check, quantize, reject
    non-finite stored texels, wrap. A rational curve's rescale leaves its
    weight channel, the last, under the identity (see `encode_rational`),
    so its stored values are range-checked like unscaled ones. Every path
    refuses a non-finite value, such as an overflowing difference term."""
    channels = values.shape[-1]
    if not 1 <= channels <= MAX_CHANNELS:
        raise ChannelMismatchError(f"{context}: texels carry 1..{MAX_CHANNELS} channels, "
                                   f"got {channels}")
    rational = layout is Layout.RATIONAL_HOMOGENEOUS
    if rescale:
        transform = fit_range(values, fmt)
        if rational:
            transform = ValueTransform(np.append(transform.scale[:-1], 1.0),
                                       np.append(transform.offset[:-1], 0.0))
        stored = transform.apply(values)
    else:
        transform = ValueTransform.identity(channels)
        stored = values
    if rational or not rescale:
        _check_range(stored, fmt, context, rational)
    data = _quantize_array(stored, fmt)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        raise RangeError(
            f"{context}: texel {idx} has value {float(stored[idx])!r}, which {fmt.value} "
            f"stores as {float(data[idx])!r}; only finite texels can be stored"
        )
    grid = TexelGrid((values.shape[2], values.shape[1], values.shape[0]), channels, fmt, data)
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


@np.errstate(over="ignore", invalid="ignore")  # `_finish` refuses what overflows
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


@np.errstate(over="ignore", invalid="ignore")  # `_finish` refuses what overflows
def _zigzag_rows(points: np.ndarray, seed: np.ndarray):
    """Forward substitution of the zig-zag texel rows of the (N, 3, c)
    segment points.

    Row constraints per segment k with points (P0, P1, P2):
      even k: T_k = P0, U_(k+1) = P2, T_(k+1) + U_k = 2 P1
      odd k:  U_k = P0, T_(k+1) = P2, U_(k+1) + T_k = 2 P1
    U_0 is the free variable. The solved texels form one chain x_0 = U_0,
    x_(k+1) = 2 P1_k - x_k, in U on even rows and T on odd ones; the end
    points fill the other row. The chain stays a loop: a closed form
    (alternating sums) would round differently.
    """
    n = points.shape[0]
    twice = 2.0 * points[:, 1]
    chain = np.empty((n + 1, points.shape[2]))
    chain[0] = seed
    for k in range(n):
        chain[k + 1] = twice[k] - chain[k]
    ends = np.concatenate([points[:1, 0], points[:, 2]])
    even = (np.arange(n + 1) % 2 == 0)[:, None]
    return np.where(even, ends, chain), np.where(even, chain, ends)


@np.errstate(over="ignore", invalid="ignore")  # `_finish` refuses what overflows
def _zigzag_best_seed(points: np.ndarray) -> np.ndarray:
    """Seed minimizing the max texel excursion outside [0, 1] per channel.

    Every texel is affine in the seed with slope +1, -1 or 0, so the
    feasible seed set is an interval per channel; its midpoint is the
    1-D Chebyshev center and remains optimal when the interval is empty.
    U_0 is the seed itself, so both ends are finite. Each is the first
    extreme in texel order (T row, then U), which fixes a zero end's sign.
    """
    zero = np.zeros(points.shape[2])
    base = np.concatenate(_zigzag_rows(points, zero))
    slope = np.concatenate(_zigzag_rows(points, zero + 1.0)) - base
    up, down = slope > 0.5, slope < -0.5
    lows = np.where(up, -base, np.where(down, base - 1.0, -np.inf))
    highs = np.where(up, 1.0 - base, np.where(down, base, np.inf))
    lo = np.take_along_axis(lows, lows.argmax(axis=0)[None], axis=0)[0]
    hi = np.take_along_axis(highs, highs.argmin(axis=0)[None], axis=0)[0]
    return 0.5 * (lo + hi)


def encode_dc_zigzag(
    segments: Sequence[ControlPolygon],
    fmt: TexelFormat,
    seed=None,
    *,
    rescale: bool = False,
) -> EncodedCurve:
    """Pack N C0-joined quadratics into an (N+1) x 2 grid.

    Anti-diagonal texel pairs average to each segment's middle control
    point, which saves two texels per segment over independent 2x2 blocks.
    The free texel U_0 is `seed`: segment 0's middle point when None, a
    given texel (one value per channel, or one for all), or with "search"
    the value per channel that best keeps the grid inside [0, 1].
    """
    if not segments:
        raise DomainError("at least one segment is required")
    channels = segments[0].channels
    for seg in segments:
        if seg.degree != 2:
            raise UnsupportedDegreeError("zig-zag packing holds quadratic segments only")
        if seg.channels != channels:
            raise ChannelMismatchError("all segments must share a channel count")
    points = np.stack([seg.points for seg in segments])  # (N, 3, c)
    broken = np.flatnonzero((points[:-1, 2] != points[1:, 0]).any(axis=1))
    if broken.size:
        k = int(broken[0])
        raise JoinError(f"segments {k} and {k + 1} do not join exactly (C0 violated)")
    if seed is None:
        seed_vec = points[0, 1]
    elif isinstance(seed, str):
        if seed != "search":
            raise DomainError(f"seed takes a texel or 'search', got {seed!r}")
        seed_vec = _zigzag_best_seed(points)
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
    values = np.stack(_zigzag_rows(points, seed_vec))[None]  # (1, 2, N+1, c)
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
    return _finish(_dc_cubic_values(g.T), fmt, Layout.BICUBIC_RGBA, 3, rescale=rescale, context="bicubic")


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
    return _finish(
        values,
        fmt,
        Layout.RATIONAL_HOMOGENEOUS,
        num.degree,
        rescale=rescale,
        inner_layout=inner,
        context="rational",
    )


def zigzag_residuals(curve: EncodedCurve, segments: Sequence[ControlPolygon]) -> np.ndarray:
    """Audit the averaging relation on a stored zig-zag grid.

    Returns |T_(k+1) + U_k - 2 P1| (even k) or |U_(k+1) + T_k - 2 P1|
    (odd k) per segment and channel, measured against the transformed
    middle control points. Each residual should stay within one texel
    quantization step of the format. The audit needs one segment per
    stored segment (LayoutError otherwise), each with the grid's channel
    count (ChannelMismatchError otherwise).
    """
    if curve.layout is not Layout.DC_ZIGZAG:
        raise LayoutError("constraint audit applies to zig-zag grids only")
    if len(segments) != curve.segment_count:
        raise LayoutError(f"audit needs {curve.segment_count} segments, got {len(segments)}")
    for seg in segments:
        if seg.channels != curve.grid.channels:
            raise ChannelMismatchError(
                f"segment has {seg.channels} channels, the grid {curve.grid.channels}")
    k = np.arange(len(segments))
    rows = curve.grid.data[0]  # (2, N+1, c): T, then U
    p1 = curve.transform.apply(np.stack([seg.points[1] for seg in segments]))
    return np.abs(rows[k % 2, k + 1] + rows[1 - k % 2, k] - 2.0 * p1)
