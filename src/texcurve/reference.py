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
De Boor evaluation and knot insertion share one knot-span rule,
`_find_span`.
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
    _freeze,
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
    """
    d = len(points) - 1
    row = pascal_row(d)
    tt = np.asarray(t, dtype=float)[..., None]
    s = 1.0 - tt
    acc = np.multiply(row[0] * s**d, points[0], order="F")
    for i in range(1, d + 1):
        acc = acc + np.multiply(row[i] * s ** (d - i) * tt**i, points[i], order="F")
    return acc


#: below this `ControlPolygon.magnitude` no step of a reference evaluation
#: or conversion here can overflow float64: none reaches 2^15 times it
_SAFE_MAGNITUDE = 2.0**1000


def _refuse_overflow(name: Optional[str]):
    """Decorate fn(poly, ...) to run under np.errstate, and to raise
    DomainError("<name> overflow float64") unless its result is finite,
    when `poly` is large enough to overflow on the way. Smaller polygons
    run it as it is: np.errstate and the check cost about 5 µs a call. With
    `name` None the result is returned as it is, inf or NaN."""

    def decorate(fn):
        @wraps(fn)
        def checked(poly: ControlPolygon, *args):
            if poly.magnitude < _SAFE_MAGNITUDE:
                return fn(poly, *args)
            with np.errstate(over="ignore", invalid="ignore"):
                value = fn(poly, *args)
            if name is not None and not np.isfinite(value).all():
                raise DomainError(f"{name} overflow float64")
            return value

        return checked

    return decorate


@_refuse_overflow("Bernstein values")
def eval_bernstein(poly: ControlPolygon, t):
    """Evaluate sum_i C(d,i) (1-t)^(d-i) t^i b_i."""
    return bernstein_sum(poly.points, _unit_param(t))


@_refuse_overflow("de Casteljau values")
def eval_decasteljau(poly: ControlPolygon, t):
    """Evaluate by repeated pairwise linear interpolation of the polygon."""
    tt = _unit_param(t)[..., None, None]
    beta = np.broadcast_to(poly.points, tt.shape[:-2] + poly.points.shape).astype(float)
    for _ in range(poly.degree):
        beta = beta[..., :-1, :] * (1.0 - tt) + beta[..., 1:, :] * tt
    return beta[..., 0, :]


@dataclass(frozen=True)
class SeilerTerms:
    """Difference terms d_1 .. d_(degree-1) for the reduced-lerp evaluation.

    For cubics the two auxiliary points s1 = b0 + d1 and s2 = b3 + d2 are
    also provided, since they are what the 2x2 texture layout stores.
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
    terms = seiler_terms(poly)
    d = poly.degree
    tt = _unit_param(t)[..., None]
    st = (1.0 - tt) * tt

    def rec(i: int):
        if 2 * i == d + 1:
            return 0.0
        if 2 * i == d:
            return terms.diff(i)
        return lerp(terms.diff(i), terms.diff(d - i), tt) + st * rec(i + 1)

    return lerp(poly.points[0], poly.points[d], tt) + st * rec(1)


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
    val = eval_bernstein(homogeneous(num, weights), t)
    den = val[..., -1:]
    if np.any(np.abs(den) <= 1e-12):
        raise HomogeneousDivideError("homogeneous weight vanished at evaluation")
    return val[..., :-1] / den


def eval_tensor_surface(grid_points, u, v):
    """Tensor-product surface point: rows evaluated at u, the resulting
    column polygon evaluated at v.

    `grid_points` is (rows, cols) of scalars or (rows, cols, channels).
    """
    try:
        g = np.asarray(grid_points, dtype=float)
    except ValueError as exc:
        raise DomainError("control grid is ragged") from exc
    if g.ndim == 2:
        g = g[..., None]
    if g.ndim != 3:
        raise DomainError("control grid must be 2-D (scalars) or 3-D (vectors)")
    rows = [eval_bernstein(ControlPolygon(g[i]), u) for i in range(g.shape[0])]
    return bernstein_sum(rows, _unit_param(v))


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
    with the first such t and the domain ends a and b), as does an empty
    domain."""
    a, b = spline.domain
    if not a < b:
        raise DomainError("spline domain is empty")
    bad = ~((t >= a) & (t <= b))
    if bad.any():
        raise DomainError(outside.format(t=t[bad][0], a=a, b=b))
    U = spline.knots
    return np.minimum(np.searchsorted(U, t, side="right"), np.searchsorted(U, b, side="left")) - 1


def eval_deboor(spline: BSplineCurve, t) -> np.ndarray:
    """de Boor's recursion (NURBS Book A3.1) at scalar or array t, every
    point through the same arithmetic as a scalar call."""
    t = np.asarray(t, dtype=float)
    k = _find_span(spline, t, "t={t} outside spline domain [{a}, {b}]")
    p = spline.degree
    U = spline.knots
    d = [spline.control_points[j + k - p] for j in range(p + 1)]
    for r in range(1, p + 1):
        for j in range(p, r - 1, -1):
            i = j + k - p
            alpha = ((t - U[i]) / (U[i + p - r + 1] - U[i]))[..., None]
            d[j] = (1.0 - alpha) * d[j - 1] + alpha * d[j]
    return d[p]


def insert_knot(spline: BSplineCurve, u: float) -> BSplineCurve:
    """Insert one knot at u (Boehm's construction), leaving the curve unchanged."""
    outside = "knot {t} outside spline domain [{a}, {b}]"
    k = int(_find_span(spline, np.asarray(u, dtype=float), outside))
    p = spline.degree
    U = spline.knots
    P = spline.control_points
    Q = np.empty((P.shape[0] + 1, P.shape[1]), dtype=float)
    Q[: k - p + 1] = P[: k - p + 1]
    for i in range(k - p + 1, k + 1):
        alpha = (u - U[i]) / (U[i + p] - U[i])
        Q[i] = (1.0 - alpha) * P[i - 1] + alpha * P[i]
    Q[k + 1 :] = P[k:]
    new_knots = np.insert(U, k + 1, u)
    return BSplineCurve(Q, new_knots, p)


def boehm_to_bezier(spline: BSplineCurve) -> List[Tuple[ControlPolygon, Tuple[float, float]]]:
    """Convert a B-spline to its piecewise Bezier segments by knot insertion.

    Every distinct knot value inside the closed domain is raised to
    multiplicity = degree (one insertion at a time), after which each
    nonzero span [U_k, U_k+1] reads its Bezier points directly off the
    refined control polygon. Returns (segment, (span start, span end))
    pairs in parameter order; adjacent segments share their join point.
    """
    a, b = spline.domain
    if not a < b:
        raise DomainError("spline domain is empty")
    p = spline.degree
    work = spline
    for val in np.unique(spline.knots):
        if not a <= val <= b:
            continue
        while int(np.count_nonzero(work.knots == val)) < p:
            work = insert_knot(work, float(val))
    U = work.knots
    P = work.control_points
    out: List[Tuple[ControlPolygon, Tuple[float, float]]] = []
    for k in range(p, P.shape[0]):
        if U[k] < U[k + 1] and U[k] >= a and U[k + 1] <= b:
            out.append((ControlPolygon(P[k - p : k + 1]), (float(U[k]), float(U[k + 1]))))
    return out


def _eval_pieces(polys, starts, ends, t, outside: str) -> np.ndarray:
    """(n, channels) points of Bezier pieces at 1-D t: each t on the first
    piece whose end exceeds it, else the last, at local (t - start) / (end -
    start), by one gather and one `bernstein_sum` per degree. Mixed channel
    counts raise ChannelMismatchError, t off the pieces DomainError(`outside`)."""
    if len({poly.channels for poly in polys}) > 1:
        raise ChannelMismatchError("all chain segments must share a channel count")
    bad = ~((t >= starts[0]) & (t <= ends[-1]))
    if bad.any():
        raise DomainError(outside.format(t=t[bad][0]))
    k = np.minimum(np.searchsorted(ends, t, side="right"), len(polys) - 1)
    local = (t - starts[k]) / (ends[k] - starts[k])
    degrees = np.array([poly.degree for poly in polys])
    out = np.empty((t.shape[0], polys[0].channels))
    for d in np.unique(degrees):
        ids = np.flatnonzero(degrees == d)
        rows = np.flatnonzero(degrees[k] == d)
        stacked = np.stack([polys[i].points for i in ids], axis=1)  # (d + 1, len(ids), c)
        out[rows] = bernstein_sum(stacked[:, np.searchsorted(ids, k[rows])], local[rows])
    return out


def eval_bezier_segments(segments, t) -> np.ndarray:
    """Evaluate a piecewise Bezier list (as returned by boehm_to_bezier) at
    scalar or array t; a join takes the right-hand segment."""
    if not segments:
        raise DomainError("no segments to evaluate")
    starts, ends = np.array([span for _, span in segments], dtype=float).T
    outside = f"t={{t}} outside piecewise domain [{segments[0][1][0]}, {segments[-1][1][1]}]"
    t = np.asarray(t, dtype=float)
    out = _eval_pieces([poly for poly, _ in segments], starts, ends, t.reshape(-1), outside)
    return out.reshape(t.shape + out.shape[1:])


def eval_bezier_chain(segments, global_t) -> np.ndarray:
    """Evaluate a chain of Bezier segments where segment k spans [k, k + 1].

    This is the reference for the zig-zag packing's global parameter: an
    integer parameter resolves to the right-hand segment at local t = 0,
    except the chain's end, which stays in the last segment. Returns
    (n, channels) points; a scalar parameter gives n = 1. Local t is
    (gt - k) / 1.0, exactly gt - k. Segments must share a channel count
    (else ChannelMismatchError); parameters lie in [0, segment count]. An
    array of any other shape gives shape + (channels,).
    """
    if not segments:
        raise DomainError("no segments to evaluate")
    n = len(segments)
    gt = np.atleast_1d(np.asarray(global_t, dtype=float))
    out = _eval_pieces(segments, np.arange(n, dtype=float), np.arange(1.0, n + 1),
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
