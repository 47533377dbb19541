"""Full-precision ground-truth evaluators and basis conversions.

These are the oracles every texture path is measured against: Bernstein
and de Casteljau evaluation, the reduced-lerp difference-term evaluation,
rational (homogeneous) curves, tensor-product surfaces, de Boor evaluation
of B-splines, knot-insertion conversion to piecewise Bezier form, and
power <-> Bernstein basis conversion.

Curve evaluators, de Boor's included, broadcast over the parameter: a
scalar t yields one (channels,) point, an (n,) array yields (n, channels).
The Bezier evaluators take parameters in [0, 1], as the texture evaluators
do, and raise DomainError for any other value, NaN and +-inf included.
They check a 1-D parameter array whole, then evaluate a long one in
`_BLOCK` slices (`_blocked`), which moves no bit and keeps each
evaluator's output memory order. De Boor evaluation and knot insertion
share one knot-span rule, `_span`, behind `_find_span`'s domain check;
knot insertion and the conversion to Bezier pieces share one Boehm step
on arrays, `_boehm_step`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import List, Optional, Tuple

import numpy as np

from .core import (
    ChannelMismatchError,
    ControlPolygon,
    DomainError,
    HomogeneousDivideError,
    MAX_CHANNELS,
    UnsupportedDegreeError,
    _BLOCK,
    _freeze,
    _param_in,
    _unit_param,
    lerp,
)


@lru_cache(maxsize=None)
def pascal_row(n: int) -> Tuple[int, ...]:
    """Row n of Pascal's triangle as exact integers."""
    row = [1]
    for _ in range(n):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return tuple(row)


def bernstein_sum(points, t):
    """sum_i C(d,i) (1-t)^(d-i) t^i points[i] over the d + 1 points.

    Each points[i] broadcasts against t[..., None]: a (channels,) control
    point gives (..., channels), as do per-sample points of that shape.
    Each term is written channel-major (Fortran order), so the product with
    a control point and the running sum loop over the samples, not over
    the channels; the result is channel-major too.

    Term i's weight is C(d,i) * (1-t)^(d-i) * t^i, multiplied left to
    right, less every operation whose result is exactly one of its
    operands: the factor C(d,0) = C(d,d) = 1, a power 0 (x**0 is 1.0 even
    at NaN) and a power 1 (x**1 is x). Multiplying by 1.0 is exact, so
    each weight, and each product and sum after it, keeps its bits; at
    degree 0 the weight is ones of t's shape, as (1-t)**0 was.
    """
    d = len(points) - 1
    row = pascal_row(d)
    tt = np.asarray(t, dtype=float)[..., None]
    s = 1.0 - tt
    acc = np.multiply(_power(s, d) if d else np.ones_like(tt), points[0], order="F")
    for i in range(1, d):
        acc = acc + np.multiply(row[i] * _power(s, d - i) * _power(tt, i), points[i], order="F")
    if d:
        acc = acc + np.multiply(_power(tt, d), points[d], order="F")
    return acc


def _power(x, k: int):
    """x**k for k >= 1, skipping the power 1, whose result is x itself."""
    return x if k == 1 else x**k


def _blocked(rows, *args):
    """rows(*args[:-1], t) at the validated parameter array t = args[-1]:
    once when t is not 1-D or spans at most one `_BLOCK`, else once per
    `_BLOCK` slice of t, written into one output allocated at the first
    slice's rows, in their memory order. The slices are views, so each keeps
    t's strides: numpy's float64 pow differs between contiguous arrays and
    negative strides, so a copy could move bits. Every row depends on its
    own parameter alone, so the slicing moves none; an error raised by
    `rows` stops the walk at its slice."""
    *head, t = args
    if t.ndim != 1 or t.shape[0] <= _BLOCK:
        return rows(*args)
    first = rows(*head, t[:_BLOCK])
    out = np.empty_like(first, shape=t.shape + first.shape[1:])
    out[:_BLOCK] = first
    del first  # not kept through the other slices
    for start in range(_BLOCK, t.shape[0], _BLOCK):
        out[start : start + _BLOCK] = rows(*head, t[start : start + _BLOCK])
    return out


#: below this `ControlPolygon.magnitude` no step of a reference evaluation
#: or conversion here can overflow float64: none reaches 2^15 times it
_SAFE_MAGNITUDE = 2.0**1000


def _overflow_checked(name: Optional[str], magnitude: float, fn, *args):
    """fn(*args) on points whose largest |value| is `magnitude`: run under
    np.errstate, raising DomainError("<name> overflow float64") unless its
    result is finite, when the points are large enough to overflow on the
    way. Smaller points run it as it is: np.errstate and the check cost
    about 5 µs a call. With `name` None the result is returned as it is,
    inf or NaN."""
    if magnitude < _SAFE_MAGNITUDE:
        return fn(*args)
    with np.errstate(over="ignore", invalid="ignore"):
        value = fn(*args)
    if name is not None and not np.isfinite(value).all():
        raise DomainError(f"{name} overflow float64")
    return value


def _refuse_overflow(name: Optional[str]):
    """Decorate fn(poly, ...) to run through `_overflow_checked` at the
    polygon's magnitude."""

    def decorate(fn):
        @wraps(fn)
        def checked(poly: ControlPolygon, *args):
            return _overflow_checked(name, poly.magnitude, fn, poly, *args)

        return checked

    return decorate


@_refuse_overflow("Bernstein values")
def _bernstein_rows(poly: ControlPolygon, t):
    """`bernstein_sum` of the polygon at a validated t."""
    return bernstein_sum(poly.points, t)


def eval_bernstein(poly: ControlPolygon, t):
    """Evaluate sum_i C(d,i) (1-t)^(d-i) t^i b_i."""
    return _blocked(_bernstein_rows, poly, _unit_param(t))


def _decasteljau_rows(points, t):
    """De Casteljau's lerps b_j (1-t) + b_(j+1) t, one channel at a time, so
    that a level holds d samples-long arrays, not d·channels; returned
    channel-major (Fortran order for 1-D t)."""
    s = 1.0 - t
    out = np.empty(points.shape[1:] + t.shape)
    for ch, beta in enumerate(points.T):
        beta = list(beta)
        for r in range(len(beta) - 1, 0, -1):
            for j in range(r):
                beta[j] = beta[j] * s + beta[j + 1] * t
        out[ch] = beta[0]
    return np.moveaxis(out, 0, -1)


@_refuse_overflow("de Casteljau values")
def eval_decasteljau(poly: ControlPolygon, t):
    """Evaluate by repeated pairwise linear interpolation of the polygon."""
    return _blocked(_decasteljau_rows, poly.points, _unit_param(t))


@dataclass(frozen=True)
class SeilerTerms:
    """Difference terms d_1 .. d_(degree-1) for the reduced-lerp evaluation.

    For cubics the two auxiliary points s1 = b0 + d1 and s2 = b3 + d2 are
    also provided. They equal the far row that the 2x2 texture layout
    stores, and are kept for callers: the encoder's placement
    (`encoder._seiler_values`) reads only `diff`.
    """

    degree: int
    diffs: Tuple[np.ndarray, ...]
    s1: Optional[np.ndarray] = None
    s2: Optional[np.ndarray] = None

    def diff(self, i: int) -> np.ndarray:
        """The term d_i, 1-based."""
        return self.diffs[i - 1]


@_refuse_overflow(None)  # the encoders refuse non-finite terms
def seiler_terms(poly: ControlPolygon) -> SeilerTerms:
    """Compute the difference terms for degrees 2 through 5.

    d_1 and d_(d-1) have a closed form at every degree. The inner terms
    d_2 / d_(d-2) have known closed forms only for degrees 4 and 5 (for a
    cubic, d_2 is already covered by the d_(d-1) rule). All four forms were
    checked against the Bernstein expansion before being trusted here; the
    degree-4/5 forms are exercised by property tests as well. Terms that
    overflow float64 are returned as they are, inf or NaN.
    """
    d = poly.degree
    if not 2 <= d <= 5:
        raise UnsupportedDegreeError(
            f"difference terms have closed forms for degrees 2..5, got degree {d}"
        )
    b = poly.points
    d1 = d * (b[1] - b[0]) - (b[d] - b[0])
    dd1 = d * (b[d - 1] - b[d]) - (b[0] - b[d])
    if d == 2:
        diffs = (d1,)
    elif d == 3:
        diffs = (d1, dd1)
    else:
        c2 = pascal_row(d)[2]
        c2m = pascal_row(d - 2)[2]
        d2 = (
            c2 * (b[2] - b[1])
            - c2m * (b[1] - b[0])
            - (d - 3) * (b[d - 1] - b[d])
            - 3 * (b[d - 1] - b[1])
        )
        dd2 = (
            c2 * (b[d - 2] - b[d - 1])
            - c2m * (b[d - 1] - b[d])
            - (d - 3) * (b[1] - b[0])
            - 3 * (b[1] - b[d - 1])
        )
        if d == 4:
            diffs = (d1, d2, dd1)
        else:
            diffs = (d1, d2, dd2, dd1)
    s1 = b[0] + d1 if d == 3 else None
    s2 = b[3] + dd1 if d == 3 else None
    return SeilerTerms(degree=d, diffs=diffs, s1=s1, s2=s2)


@_refuse_overflow("difference-term values")
def eval_seiler(poly: ControlPolygon, t):
    """Reduced-lerp evaluation C(t) = L(b0, bd, t) + (1-t) t D_1(t).

    The recursion D_i is zero when 2i = d+1, equals d_i when 2i = d, and is
    otherwise L(d_i, d_(d-i), t) + (1-t) t D_(i+1)(t). A degree-d curve
    costs d lerps this way. The terms can overflow float64 where the curve
    does not; a result that is not finite raises DomainError.
    """
    return _blocked(_seiler_rows, poly, seiler_terms(poly), _unit_param(t))


def _seiler_rows(poly: ControlPolygon, terms: SeilerTerms, t):
    """`eval_seiler` at a validated t: D_i from the innermost i out."""
    d = poly.degree
    tt = t[..., None]
    st = (1.0 - tt) * tt
    inner = 0.0 if d % 2 else terms.diff(d // 2)
    for i in range((d - 1) // 2, 0, -1):
        inner = lerp(terms.diff(i), terms.diff(d - i), tt) + st * inner
    return lerp(poly.points[0], poly.points[d], tt) + st * inner


def homogeneous(num: ControlPolygon, weights) -> ControlPolygon:
    """The homogeneous control polygon (w_i b_i, w_i) of a rational curve,
    with one positive weight per control point."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.shape[0] != num.points.shape[0]:
        raise ChannelMismatchError("one weight per control point required")
    if not ((w > 0.0) & (w < np.inf)).all():
        raise DomainError("rational weights must all be positive and finite")
    if num.channels + 1 > MAX_CHANNELS:
        raise ChannelMismatchError("point channels + weight channel exceed 4")
    with np.errstate(over="ignore"):  # ControlPolygon refuses what overflows
        return ControlPolygon(np.concatenate([num.points * w[:, None], w[:, None]], axis=1))


def eval_rational(num: ControlPolygon, weights, t):
    """Rational curve via the homogeneous trick.

    Evaluates the curve with control points (w_i b_i, w_i) in the Bernstein
    basis, then divides the point part by the weight part.
    """
    return _blocked(_rational_rows, homogeneous(num, weights), _unit_param(t))


def _rational_rows(hom: ControlPolygon, t):
    """`eval_rational` of the homogeneous polygon at a validated t."""
    val = _bernstein_rows(hom, t)
    den = val[..., -1:]
    if (np.abs(den) <= 1e-12).any():
        raise HomogeneousDivideError("homogeneous weight vanished at evaluation")
    return val[..., :-1] / den


def eval_tensor_surface(grid_points, u, v):
    """Tensor-product surface point: rows evaluated at u, the resulting
    column polygon evaluated at v.

    `grid_points` is (rows, cols) of scalars or (rows, cols, channels),
    with at least two rows and two columns: each direction is a curve of
    degree 1 or more, in either orientation. A row or a column sum that
    overflows float64 raises DomainError, as does a grid of another shape.
    """
    try:
        g = np.asarray(grid_points, dtype=float)
    except ValueError as exc:
        raise DomainError("control grid is ragged") from exc
    shape = g.shape
    if g.ndim == 2:
        g = g[..., None]
    if g.ndim != 3:
        raise DomainError("control grid must be 2-D (scalars) or 3-D (vectors)")
    if g.shape[0] == 0:
        raise DomainError("control grid needs at least one row")
    if min(g.shape[:2]) < 2:
        raise DomainError(f"control grid of shape {shape} needs at least two rows and two columns")
    polys = [ControlPolygon(row) for row in g]
    rows = [eval_bernstein(poly, u) for poly in polys]
    magnitude = max((poly.magnitude for poly in polys), default=0.0)
    return _overflow_checked("Bernstein values", magnitude, bernstein_sum, rows, _unit_param(v))


@dataclass(frozen=True)
class BSplineCurve:
    """B-spline with a non-decreasing knot vector.

    knot count = control count + degree + 1; the valid parameter domain is
    [knots[degree], knots[control_count]].
    """

    control_points: np.ndarray
    knots: np.ndarray
    degree: int

    def __post_init__(self):
        pts = np.asarray(self.control_points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        knots = np.asarray(self.knots, dtype=float)
        if self.degree < 1:
            raise UnsupportedDegreeError("spline degree must be >= 1")
        if knots.ndim != 1 or knots.shape[0] != pts.shape[0] + self.degree + 1:
            raise DomainError("knot count must equal control count + degree + 1")
        if not (np.isfinite(knots).all() and np.isfinite(pts).all()):
            raise DomainError("spline knots and control points must be finite")
        if np.any(np.diff(knots) < 0):
            raise DomainError("knots must be non-decreasing")
        object.__setattr__(self, "control_points", _freeze(pts))
        object.__setattr__(self, "knots", _freeze(knots))

    @property
    def domain(self) -> Tuple[float, float]:
        return (float(self.knots[self.degree]), float(self.knots[self.control_points.shape[0]]))


def _find_span(spline: BSplineCurve, t: np.ndarray, outside: str) -> np.ndarray:
    """Knot span index k with knots[k] <= t < knots[k+1], elementwise over t
    (NURBS Book A2.1): one `searchsorted`, capped so that the right domain
    end maps into the last nonzero span, the one before the first copy of
    the end knot. t off the domain raises DomainError(`outside`, formatted
    with the first such t and the domain ends lo and hi, `core._param_in`),
    as does an empty domain."""
    a, b = spline.domain
    if not a < b:
        raise DomainError("spline domain is empty")
    return _span(spline.knots, b, _param_in(t, a, b, outside))


def _span(U, b, t):
    """`_find_span`'s rule on knots U with domain end b, unchecked."""
    return np.minimum(np.searchsorted(U, t, side="right"), np.searchsorted(U, b, side="left")) - 1


def eval_deboor(spline: BSplineCurve, t) -> np.ndarray:
    """de Boor's recursion (NURBS Book A3.1) at scalar or array t, every
    point through the same arithmetic as a scalar call."""
    t = np.asarray(t, dtype=float)
    k = _find_span(spline, t, "t={t} outside spline domain [{lo}, {hi}]")
    p = spline.degree
    U = spline.knots
    d = [spline.control_points[j + k - p] for j in range(p + 1)]
    for r in range(1, p + 1):
        for j in range(p, r - 1, -1):
            i = j + k - p
            alpha = ((t - U[i]) / (U[i + p - r + 1] - U[i]))[..., None]
            d[j] = (1.0 - alpha) * d[j - 1] + alpha * d[j]
    return d[p]


def _boehm_step(P, U, p: int, u: float):
    """Boehm's construction on arrays: control points P and knots U of degree
    p with the knot u, in the domain, inserted once, as (points, knots). The
    span of u is `_find_span`'s, capped at the domain end U[len(P)]."""
    k = int(_span(U, U[P.shape[0]], u))
    Q = np.empty((P.shape[0] + 1, P.shape[1]), dtype=float)
    Q[: k - p + 1] = P[: k - p + 1]
    for i in range(k - p + 1, k + 1):
        alpha = (u - U[i]) / (U[i + p] - U[i])
        Q[i] = (1.0 - alpha) * P[i - 1] + alpha * P[i]
    Q[k + 1 :] = P[k:]
    return Q, np.insert(U, k + 1, u)


def insert_knot(spline: BSplineCurve, u: float) -> BSplineCurve:
    """Insert one knot at u (Boehm's construction), leaving the curve unchanged."""
    _find_span(spline, np.asarray(u, dtype=float), "knot {t} outside spline domain [{lo}, {hi}]")
    p = spline.degree
    return BSplineCurve(*_boehm_step(spline.control_points, spline.knots, p, u), p)


def boehm_to_bezier(spline: BSplineCurve) -> List[Tuple[ControlPolygon, Tuple[float, float]]]:
    """Convert a B-spline to its piecewise Bezier segments by knot insertion.

    Every distinct knot value inside the closed domain is raised to
    multiplicity = degree (one `_boehm_step` at a time, on arrays), after
    which each nonzero span [U_k, U_k+1] reads its Bezier points directly
    off the refined control polygon. Returns (segment, (span start, span
    end)) pairs in parameter order; adjacent segments share their join
    point.
    """
    a, b = spline.domain
    if not a < b:
        raise DomainError("spline domain is empty")
    p = spline.degree
    P, U = spline.control_points, spline.knots
    for val in np.unique(U):
        if a <= val <= b:
            for _ in range(p - int(np.count_nonzero(U == val))):
                P, U = _boehm_step(P, U, p, float(val))
    out: List[Tuple[ControlPolygon, Tuple[float, float]]] = []
    for k in range(p, P.shape[0]):
        if U[k] < U[k + 1] and U[k] >= a and U[k + 1] <= b:
            out.append((ControlPolygon(P[k - p : k + 1]), (float(U[k]), float(U[k + 1]))))
    return out


def _segment_stack(segments) -> np.ndarray:
    """The (N, d + 1, c) float stack of a chain's or a spline's Bezier
    segments: a non-empty list of ControlPolygons of one degree and one
    channel count, or such a stack itself, which is checked once as one
    polygon of its N·(d + 1) points. No segment or another array shape
    raises DomainError, mixed degrees UnsupportedDegreeError, mixed
    channel counts ChannelMismatchError."""
    if isinstance(segments, np.ndarray):
        stack = np.asarray(segments, dtype=float)
        if stack.ndim != 3 or stack.shape[1] < 2:
            raise DomainError(f"segments must form an (N, d + 1, c) array, got shape {stack.shape}")
        ControlPolygon(stack.reshape(stack.shape[0] * stack.shape[1], stack.shape[2]))
        return stack
    if not segments:
        raise DomainError("at least one segment is required")
    if len({seg.degree for seg in segments}) > 1:
        raise UnsupportedDegreeError("all segments must share a degree")
    if len({seg.channels for seg in segments}) > 1:
        raise ChannelMismatchError("all segments must share a channel count")
    return np.stack([seg.points for seg in segments])


def _eval_pieces(stack, starts, ends, t, outside: str) -> np.ndarray:
    """(n, channels) points of the Bezier pieces of an (N, d + 1, c) stack at
    1-D t: each t on the first piece whose end exceeds it, else the last,
    at local (t - start) / (end - start), by one gather and one
    `bernstein_sum` per `_BLOCK` slice. t off the pieces raises
    DomainError(`outside`), as does a sum that overflows float64."""
    t = _param_in(t, starts[0], ends[-1], outside)
    return _overflow_checked("Bernstein values", np.abs(stack).max(),
                             _blocked, _piece_rows, stack, starts, ends, t)


def _piece_rows(stack, starts, ends, t):
    """`_eval_pieces` at a validated t."""
    k = np.minimum(np.searchsorted(ends, t, side="right"), len(stack) - 1)
    local = (t - starts[k]) / (ends[k] - starts[k])
    # C order: a report's #mean and #rms sum its reference in memory order
    return np.ascontiguousarray(bernstein_sum(stack[k].swapaxes(0, 1), local))


def eval_bezier_segments(segments, t) -> np.ndarray:
    """Evaluate a piecewise Bezier list (as returned by boehm_to_bezier) at
    scalar or array t; a join takes the right-hand segment. The segments
    share one degree and one channel count (see `eval_bezier_chain`), and
    their spans tile the domain: each is finite, starts below its end and
    starts where the one before it ends, else DomainError names the first
    segment that does not, before t is checked."""
    stack = _segment_stack([poly for poly, _ in segments])
    starts, ends = np.array([span for _, span in segments], dtype=float).T
    for k, (lo, hi) in enumerate(zip(starts.tolist(), ends.tolist())):
        if not -np.inf < lo < hi < np.inf or (k and lo != ends[k - 1]):
            raise DomainError(f"segment {k} spans [{lo}, {hi}], not a finite interval that starts "
                              "where the one before it ends and ends after it starts")
    outside = f"t={{t}} outside piecewise domain [{segments[0][1][0]}, {segments[-1][1][1]}]"
    t = np.asarray(t, dtype=float)
    out = _eval_pieces(stack, starts, ends, t.reshape(-1), outside)
    return out.reshape(t.shape + out.shape[1:])


def eval_bezier_chain(segments, global_t) -> np.ndarray:
    """Evaluate a chain of Bezier segments where segment k spans [k, k + 1].

    This is the reference for the zig-zag packing's global parameter: an
    integer parameter resolves to the right-hand segment at local t = 0,
    except the chain's end, which stays in the last segment. Returns
    (n, channels) points; a scalar parameter gives n = 1. Local t is
    (gt - k) / 1.0, exactly gt - k. `segments` is a list of
    ControlPolygons of one degree and one channel count (else
    UnsupportedDegreeError or ChannelMismatchError) or their (N, d + 1,
    channels) stack; parameters lie in [0, N]. An array of any other shape
    gives shape + (channels,).
    """
    stack = _segment_stack(segments)
    n = len(stack)
    gt = np.atleast_1d(np.asarray(global_t, dtype=float))
    out = _eval_pieces(stack, np.arange(n, dtype=float), np.arange(1.0, n + 1),
                       gt.reshape(-1), f"chain parameter outside [0, {n}]")
    return out.reshape(gt.shape + out.shape[1:])


@lru_cache(maxsize=None)
def _pascal_matrix(d: int) -> np.ndarray:
    """(d + 1, d + 1) integers C(j, i) at [j, i], zero above the diagonal. The
    conversions loop over i, so each row sums in ascending i from +0.0."""
    return _freeze(np.array([pascal_row(j) + (0,) * (d - j) for j in range(d + 1)]))


def power_to_bernstein(coeffs) -> ControlPolygon:
    """Convert power-basis coefficients (ascending powers of t) to control
    points: b_j = sum_{i<=j} [C(j,i)/C(d,i)] a_i; non-finite points raise DomainError."""
    a = np.asarray(coeffs, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ChannelMismatchError("power coefficients must form a 1-D or 2-D array")
    if a.shape[0] == 0:
        raise DomainError("at least one power coefficient is required")
    if a.shape[0] == 1:
        # a bare constant becomes a degree-1 curve (polygons need two points)
        a = np.concatenate([a, np.zeros_like(a)], axis=0)
    d = a.shape[0] - 1
    if d > 8:
        raise UnsupportedDegreeError("basis conversion is supported up to degree 8")
    C = _pascal_matrix(d)
    b = np.zeros_like(a)
    with np.errstate(over="ignore", invalid="ignore"):  # ControlPolygon refuses inf and NaN
        for i in range(d + 1):
            b[i:] = b[i:] + (C[i:, i] / C[d, i])[:, None] * a[i]
    return ControlPolygon(b)


@_refuse_overflow("power coefficients")
def bernstein_to_power(poly: ControlPolygon) -> np.ndarray:
    """Inverse of power_to_bernstein: a_k = C(d,k) sum_{i<=k} (-1)^(k-i) C(k,i) b_i.
    Coefficients that overflow float64 raise DomainError."""
    d = poly.degree
    if d > 8:
        raise UnsupportedDegreeError("basis conversion is supported up to degree 8")
    b = poly.points
    C = _pascal_matrix(d)
    acc = np.zeros_like(b)
    for i in range(d + 1):
        acc[i:] = acc[i:] + (C[i:, i] * (-1) ** np.arange(d + 1 - i))[:, None] * b[i]
    return C[d, :, None] * acc


def elevate_degree(poly: ControlPolygon, target_degree: int) -> ControlPolygon:
    """Degree-elevate a curve without changing its trace."""
    if target_degree < poly.degree:
        raise UnsupportedDegreeError("cannot lower the degree by elevation")
    pts = poly.points
    for d in range(poly.degree, target_degree):
        w = (np.arange(1, d + 1) / (d + 1))[:, None]
        pts = np.concatenate([pts[:1], w * pts[:-1] + (1.0 - w) * pts[1:], pts[-1:]])
    return ControlPolygon(pts)
