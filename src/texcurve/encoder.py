"""Build texel grids for every supported layout.

Placement rules follow one shared orientation convention: row 0 of a
2-texel-high grid is the row sampled at v = 0.25, and slice 0 of a
2-texel-deep grid is the slice sampled at w = 0.25. Each placement is
written once: `_dc_values` lays out de Casteljau slices (both dc layouts,
the bicubic net and the rational dc scheme), `_seiler_values` the
difference-term rows, and `_zigzag_rows` the zig-zag chain. Raw values are
laid out first, then the optional range rescale is applied, then `_finish`
quantizes the texels to the storage format through `core._quantize_array`,
once per encode, and `TexelGrid` checks that output by its unorm codes
like any other grid.
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
    _quantize_array,
)
from .reference import _segment_stack, homogeneous, seiler_terms


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
    if not np.isfinite(vals).all():
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


def _check_range(values: np.ndarray, fmt: TexelFormat, context: str, rational: bool):
    """Hard error on unorm overflow; silent clamping would corrupt curves. No
    rescale reaches a rational curve's weight channel (the last).

    The message names the first texel in C order below 0 or above 1. NaN is
    neither, so it passes here and `_finish` refuses it as non-finite. A
    whole-array test runs first: `fmin`/`fmax` skip NaN as the comparisons
    do, and their initial values 0 and 1 change no verdict (min(0, m) < 0
    exactly when m < 0). Only a grid that fails it pays for the search.
    """
    if not fmt.is_unorm or not (np.fmin.reduce(values, axis=None, initial=0.0) < 0.0
                                or np.fmax.reduce(values, axis=None, initial=1.0) > 1.0):
        return
    idx = tuple(int(i) for i in np.argwhere((values < 0.0) | (values > 1.0))[0])
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
    refuses a non-finite value, such as an overflowing difference term,
    naming the first one in C order; the search for it runs only when a
    whole-array test has failed.

    The texels are quantized once, and the grid is built through the one
    `TexelGrid` constructor, whose code check the quantizer's output always
    passes."""
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
    if not np.isfinite(data).all():
        idx = tuple(int(i) for i in np.argwhere(~np.isfinite(data))[0])
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


#: the pair offsets of a de Casteljau slice: [P_z, P_z+1 / P_z+1, P_z+2]
_DC_SLICE = np.array([[0, 1], [1, 2]])

#: degree -> the layout of its de Casteljau placement
_DC_LAYOUTS = {2: Layout.DC_QUAD_2X2, 3: Layout.DC_CUBIC_2X2X2}


def _dc_values(points: np.ndarray) -> np.ndarray:
    """de Casteljau placement of n points: depth slice z holds
    [P_z, P_z+1 / P_z+1, P_z+2], so one slice for a quadratic and the ABC
    and BCD slices for a cubic. One bilinear read of a slice is a
    quadratic in its three points."""
    return points[np.arange(len(points) - 2)[:, None, None] + _DC_SLICE]


@np.errstate(over="ignore", invalid="ignore")  # `_finish` refuses what overflows
def _seiler_values(poly: ControlPolygon) -> np.ndarray:
    """Difference-term texel placement for degrees 2 through 5.

    The near row is [b0, bd] and the far row [b0 + d_1, bd + d_(d-1)]. A
    2x2 grid holds the two rows for degrees 2-3. Degrees 4-5 take a 2x2x2
    grid: the near slice holds the near row twice, and the far slice the
    far row and that row plus [d_2, d_(d-2)].
    """
    terms = seiler_terms(poly)
    d = poly.degree
    near = [poly.points[0], poly.points[d]]
    far = [near[0] + terms.diff(1), near[1] + terms.diff(d - 1)]
    if d <= 3:
        return np.array([[near, far]])
    return np.array([[near, near], [far, [far[0] + terms.diff(2), far[1] + terms.diff(d - 2)]]])


def encode_dc_quadratic(poly: ControlPolygon, fmt: TexelFormat, *, rescale: bool = False) -> EncodedCurve:
    """Pack a quadratic so one bilinear read at (t, t) evaluates it."""
    if poly.degree != 2:
        raise UnsupportedDegreeError(f"quadratic layout needs degree 2, got {poly.degree}")
    return _finish(_dc_values(poly.points), fmt, Layout.DC_QUAD_2X2, 2,
                   rescale=rescale, context="dc quadratic")


def encode_dc_cubic(poly: ControlPolygon, fmt: TexelFormat, *, rescale: bool = False) -> EncodedCurve:
    """Pack a cubic so one trilinear read at (t, t, t) evaluates it."""
    if poly.degree != 3:
        raise UnsupportedDegreeError(f"cubic layout needs degree 3, got {poly.degree}")
    return _finish(_dc_values(poly.points), fmt, Layout.DC_CUBIC_2X2X2, 3,
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

    Every texel is affine in the seed, with the slope it has in the chain
    x_(k+1) = 2 P1_k - x_k: +1 on U's even columns, -1 on T's odd columns
    and 0 on the end texels. So the feasible seed set is an interval per
    channel; its midpoint is the 1-D Chebyshev center and remains optimal
    when the interval is empty. The texels at seed 0 give each bound.
    U_0 is the seed itself, so both ends are finite. Each is the first
    extreme in texel order (T row, then U), which fixes a zero end's sign.
    """
    base = np.concatenate(_zigzag_rows(points, np.zeros(points.shape[2])))
    parity = np.arange(points.shape[0] + 1) % 2
    slope = np.concatenate([-parity, 1 - parity])[:, None]  # T, then U
    up, down = slope > 0, slope < 0
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
    `segments` is a list of ControlPolygons or their (N, 3, channels)
    stack, which is checked once as one polygon.
    """
    points = _segment_stack(segments)
    if points.shape[1] != 3:
        raise UnsupportedDegreeError("zig-zag packing holds quadratic segments only")
    channels = points.shape[2]
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
                   segment_count=len(points), rescale=rescale, context="zig-zag")


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
    return _finish(_dc_values(g.T), fmt, Layout.BICUBIC_RGBA, 3, rescale=rescale, context="bicubic")


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
        values = _dc_values(hom.points)
        inner = _DC_LAYOUTS[hom.degree]
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
    quantization step of the format. `segments` is a list of
    ControlPolygons or their (N, d + 1, channels) stack. The audit needs
    one segment per stored segment (LayoutError otherwise, before any
    other check), each with the grid's channel count
    (ChannelMismatchError otherwise).
    """
    if curve.layout is not Layout.DC_ZIGZAG:
        raise LayoutError("constraint audit applies to zig-zag grids only")
    if len(segments) != curve.segment_count:
        raise LayoutError(f"audit needs {curve.segment_count} segments, got {len(segments)}")
    points = _segment_stack(segments)
    if points.shape[2] != curve.grid.channels:
        raise ChannelMismatchError(
            f"segment has {points.shape[2]} channels, the grid {curve.grid.channels}")
    k = np.arange(len(points))
    rows = curve.grid.data[0]  # (2, N+1, c): T, then U
    p1 = curve.transform.apply(points[:, 1])
    return np.abs(rows[k % 2, k + 1] + rows[1 - k % 2, k] - 2.0 * p1)
