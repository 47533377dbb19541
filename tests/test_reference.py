import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from texcurve import (
    BSplineCurve,
    ChannelMismatchError,
    ControlPolygon,
    DomainError,
    HomogeneousDivideError,
    UnsupportedDegreeError,
    bernstein_to_power,
    boehm_to_bezier,
    elevate_degree,
    eval_bernstein,
    eval_bezier_chain,
    eval_bezier_segments,
    eval_deboor,
    eval_decasteljau,
    eval_rational,
    eval_seiler,
    eval_tensor_surface,
    insert_knot,
    power_to_bernstein,
    seiler_terms,
)
from texcurve.core import _BLOCK, lerp
from texcurve.reference import _find_span, bernstein_sum, homogeneous, pascal_row
from conftest import random_polygon


def ulps(a, b, n=8):
    return abs(a - b) <= n * np.spacing(max(abs(a), abs(b), 1.0))


class TestBernstein:
    def test_constant_curve(self):
        poly = ControlPolygon([0.7, 0.7, 0.7, 0.7, 0.7])
        for t in (0.0, 0.31, 1.0):
            assert eval_bernstein(poly, t)[0] == pytest.approx(0.7, abs=1e-15)

    def test_linear(self):
        assert eval_bernstein(ControlPolygon([0.0, 1.0]), 0.5)[0] == 0.5

    def test_cubic_hump(self):
        # 3 s^2 t + 3 s t^2 with middle points 1 gives 0.75 at t = 0.5
        poly = ControlPolygon([0.0, 1.0, 1.0, 0.0])
        val = eval_bernstein(poly, 0.5)[0]
        assert val == pytest.approx(0.75, abs=1e-15)
        assert eval_decasteljau(poly, 0.5)[0] == pytest.approx(val, abs=1e-15)

    def test_array_parameter_shape(self):
        poly = ControlPolygon(np.zeros((4, 3)))
        assert eval_bernstein(poly, np.linspace(0, 1, 7)).shape == (7, 3)


class TestDeCasteljau:
    def test_endpoint_interpolation(self, rng):
        poly = random_polygon(rng, 5, 3)
        assert np.array_equal(eval_decasteljau(poly, 0.0), poly.points[0])
        assert np.array_equal(eval_decasteljau(poly, 1.0), poly.points[-1])

    def test_quadratic_cross_term(self):
        # 2 s t with b = [0, 1, 0] at t = 0.25 -> 2 * 0.25 * 0.75
        val = eval_decasteljau(ControlPolygon([0.0, 1.0, 0.0]), 0.25)[0]
        assert val == pytest.approx(0.375, abs=1e-16)

    def test_agrees_with_bernstein(self, rng):
        for degree in range(1, 9):
            poly = random_polygon(rng, degree, 2)
            for t in rng.uniform(0, 1, 25):
                a = eval_bernstein(poly, t)
                b = eval_decasteljau(poly, t)
                assert all(ulps(x, y) for x, y in zip(a, b))

    @given(degree=st.integers(1, 8), channels=st.integers(1, 4),
           shape=st.sampled_from(((), (1,), (9,), (3, 4), "reversed")),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_one_lerp_per_point_pair(self, degree, channels, shape, seed):
        """The bytes, shape and memory order of the textbook scheme, one
        lerp per point pair and level, at scalar, 2-D and reversed t: the
        reference that any rewrite of the levels must keep."""
        rng = np.random.default_rng(seed)
        poly = ControlPolygon(rng.uniform(-2.0, 2.0, (degree + 1, channels)))
        t = rng.uniform(0.0, 1.0, 9)[::-1] if shape == "reversed" else rng.uniform(0.0, 1.0, shape)
        t.reshape(-1)[:3] = (0.0, 1.0, 0.5)[: t.size]
        s = 1.0 - t
        want = np.empty((channels,) + t.shape)
        for ch, beta in enumerate(poly.points.T):
            beta = list(beta)
            for r in range(degree, 0, -1):
                for j in range(r):
                    beta[j] = beta[j] * s + beta[j + 1] * t
            want[ch] = beta[0]
        assert_same_layout(eval_decasteljau(poly, t), np.moveaxis(want, 0, -1), "decasteljau")


class TestSeilerTerms:
    def test_cubic_hump_terms(self):
        terms = seiler_terms(ControlPolygon([0.0, 1.0, 1.0, 0.0]))
        assert terms.diff(1)[0] == 3.0
        assert terms.diff(2)[0] == 3.0
        assert terms.s1[0] == 3.0
        assert terms.s2[0] == 3.0

    def test_quadratic(self):
        terms = seiler_terms(ControlPolygon([0.0, 1.0, 0.0]))
        assert terms.diff(1)[0] == 2.0
        assert terms.s1 is None

    def test_elevated_line_has_zero_terms(self):
        terms = seiler_terms(ControlPolygon([0.0, 1 / 3, 2 / 3, 1.0]))
        assert terms.diff(1)[0] == pytest.approx(0.0, abs=1e-15)
        assert terms.diff(2)[0] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("degree", [1, 6, 8])
    def test_unsupported_degrees(self, degree, rng):
        with pytest.raises(UnsupportedDegreeError):
            seiler_terms(random_polygon(rng, degree))


class TestEvalSeiler:
    def test_cubic_hump(self):
        val = eval_seiler(ControlPolygon([0.0, 1.0, 1.0, 0.0]), 0.5)[0]
        assert val == pytest.approx(0.75, abs=1e-15)

    def test_quintic_line(self, rng):
        poly = ControlPolygon(np.arange(6) / 5.0)
        for t in rng.uniform(0, 1, 20):
            assert eval_seiler(poly, t)[0] == pytest.approx(t, abs=4e-16)

    def test_quartic_matches_bernstein(self, rng):
        poly = random_polygon(rng, 4, 3)
        ts = rng.uniform(0, 1, 1000)
        a = eval_bernstein(poly, ts)
        b = eval_seiler(poly, ts)
        scale = np.maximum(1.0, np.abs(a))
        assert np.max(np.abs(a - b) / scale) <= 1e-12

    def test_triad_equivalence_all_degrees(self, rng):
        for degree in (2, 3, 4, 5):
            for _ in range(50):
                poly = random_polygon(rng, degree, int(rng.integers(1, 5)))
                ts = rng.uniform(0, 1, 4)
                a = eval_bernstein(poly, ts)
                b = eval_decasteljau(poly, ts)
                c = eval_seiler(poly, ts)
                scale = np.maximum(1.0, np.abs(a))
                assert np.max(np.abs(a - b) / scale) <= 1e-12
                assert np.max(np.abs(a - c) / scale) <= 1e-12

    def test_linear_precision(self, rng):
        # collinear evenly spaced points: every evaluator returns the line
        for degree in (2, 3, 4, 5):
            direction = rng.uniform(-1, 1, 2)
            origin = rng.uniform(-1, 1, 2)
            pts = origin + np.outer(np.arange(degree + 1) / degree, direction)
            poly = ControlPolygon(pts)
            for t in rng.uniform(0, 1, 10):
                expect = origin + t * direction
                for fn in (eval_bernstein, eval_decasteljau, eval_seiler):
                    got = fn(poly, t)
                    assert np.all(np.abs(got - expect) <= 4 * np.spacing(np.maximum(1.0, np.abs(expect))))

    def test_degree_elevation_property(self, rng):
        for target in (3, 4, 5):
            for low in range(2, target):
                poly = random_polygon(rng, low, 2)
                lifted = elevate_degree(poly, target)
                ts = rng.uniform(0, 1, 100)
                a = eval_bernstein(poly, ts)
                b = eval_seiler(lifted, ts)
                assert np.max(np.abs(a - b)) <= 1e-12


class TestRational:
    def test_unit_weights_degenerate_to_integral(self, rng):
        poly = random_polygon(rng, 3, 2)
        ts = rng.uniform(0, 1, 50)
        a = eval_rational(poly, np.ones(4), ts)
        b = eval_bernstein(poly, ts)
        assert np.max(np.abs(a - b)) <= 1e-14

    def test_circle_arc(self):
        arc = ControlPolygon([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        w = [1.0, np.sqrt(0.5), 1.0]
        ts = np.linspace(0, 1, 1000)
        pts = eval_rational(arc, w, ts)
        assert np.max(np.abs(pts[:, 0] ** 2 + pts[:, 1] ** 2 - 1.0)) <= 1e-12

    def test_endpoint_ignores_weights(self):
        arc = ControlPolygon([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert np.array_equal(eval_rational(arc, [1.0, 0.1, 1.0], 0.0), [1.0, 0.0])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(DomainError):
            eval_rational(ControlPolygon([0.0, 1.0, 0.0]), [1.0, -1.0, 1.0], 0.5)

    def test_vanishing_homogeneous_weight(self):
        with pytest.raises(HomogeneousDivideError):
            eval_rational(ControlPolygon([0.0, 1.0, 0.0]), [1e-13, 1e-13, 1e-13], 0.5)


class TestTensorSurface:
    def test_bilinear_blend(self):
        corners = [[0.0, 1.0], [1.0, 0.0]]
        val = eval_tensor_surface(corners, 0.5, 0.5)
        assert val[0] == pytest.approx(0.5, abs=1e-15)
        # row-then-column = (A(1-u)+Bu)(1-v) + (C(1-u)+Du)v
        val = eval_tensor_surface(corners, 0.25, 0.75)
        expect = (0.0 * 0.75 + 1.0 * 0.25) * 0.25 + (1.0 * 0.75 + 0.0 * 0.25) * 0.75
        assert val[0] == pytest.approx(expect, abs=1e-15)

    def test_constant(self):
        assert eval_tensor_surface(np.full((3, 4), 2.5), 0.3, 0.9)[0] == pytest.approx(2.5, abs=1e-14)

    def test_transpose_symmetry(self, rng):
        g = rng.uniform(-1, 1, (4, 4))
        for _ in range(20):
            u, v = rng.uniform(0, 1, 2)
            a = eval_tensor_surface(g, u, v)
            b = eval_tensor_surface(g.T, v, u)
            assert abs(a[0] - b[0]) <= 1e-12

    def test_ragged_grid_rejected(self):
        with pytest.raises(DomainError):
            eval_tensor_surface([[1.0, 2.0], [3.0]], 0.5, 0.5)

    @pytest.mark.parametrize("shape", [(1, 3), (3, 1), (1, 1), (1, 3, 2), (3, 1, 2)])
    def test_degree_0_direction_refused_in_either_orientation(self, shape):
        message = f"^control grid of shape {re.escape(str(shape))} needs at least two rows " \
                  "and two columns$"
        with pytest.raises(DomainError, match=message):
            eval_tensor_surface(np.ones(shape), 0.5, 0.5)

    def test_grid_of_four_dimensions_refused(self):
        with pytest.raises(DomainError, match=r"^control grid must be 2-D \(scalars\) or 3-D "
                                              r"\(vectors\)$"):
            eval_tensor_surface(np.ones((2, 2, 1, 1)), 0.5, 0.5)


class TestDeBoor:
    def test_single_span_equals_bernstein(self, rng):
        pts = rng.uniform(-1, 1, (4, 2))
        spline = BSplineCurve(pts, [0, 0, 0, 0, 1, 1, 1, 1], 3)
        poly = ControlPolygon(pts)
        for t in np.linspace(0, 1, 17):
            assert np.max(np.abs(eval_deboor(spline, t) - eval_bernstein(poly, t))) <= 1e-14

    def test_constant_control_points(self):
        spline = BSplineCurve(np.full(5, 0.3), [0, 1, 2, 3, 4, 5, 6, 7, 8], 3)
        a, b = spline.domain
        for t in np.linspace(a, b, 9):
            assert eval_deboor(spline, t)[0] == pytest.approx(0.3, abs=1e-15)

    def test_domain_enforced(self):
        spline = BSplineCurve(np.zeros(4), [0, 0, 0, 0, 1, 1, 1, 1], 3)
        with pytest.raises(DomainError):
            eval_deboor(spline, 1.5)

    def test_empty_domain_rejected(self):
        spline = BSplineCurve(np.zeros(3), [0, 0, 0, 0, 0, 0], 2)
        for call in (eval_deboor, insert_knot):
            with pytest.raises(DomainError, match="spline domain is empty"):
                call(spline, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_knots_and_points_rejected(self, bad):
        pts = np.zeros((4, 2))
        knots = np.array([0.0, 0, 0, 0, 1, 1, 1, 1])
        # the bad knot keeps the vector non-decreasing wherever the
        # comparison is defined, so only the finiteness check can catch it
        knots[{-np.inf: 0, np.inf: -1}.get(bad, 4)] = bad
        with pytest.raises(DomainError, match="must be finite"):
            BSplineCurve(pts, knots, 3)
        pts[1, 0] = bad
        with pytest.raises(DomainError, match="must be finite"):
            BSplineCurve(pts, [0, 0, 0, 0, 1, 1, 1, 1], 3)

    @pytest.mark.parametrize("degree, knots, error, message", [
        (0, [0, 1, 2, 3, 4], UnsupportedDegreeError, "spline degree must be >= 1"),
        (3, [0, 0, 0, 0, 1, 1, 1], DomainError, "knot count must equal control count + degree + 1"),
        (3, [[0, 0, 0, 0], [1, 1, 1, 1]], DomainError,
         "knot count must equal control count + degree + 1"),
        (3, [0, 0, 0, 0, 2, 1, 1, 1], DomainError, "knots must be non-decreasing"),
    ], ids=("degree-0", "knot-count", "knot-matrix", "decreasing"))
    def test_bad_spline_refused(self, degree, knots, error, message):
        with pytest.raises(error) as refused:
            BSplineCurve(np.zeros(4), knots, degree)
        assert type(refused.value) is error and str(refused.value) == message


class TestBoehm:
    def test_already_bezier(self, rng):
        pts = rng.uniform(-1, 1, (4, 2))
        spline = BSplineCurve(pts, [0, 0, 0, 0, 1, 1, 1, 1], 3)
        segments = boehm_to_bezier(spline)
        assert len(segments) == 1
        assert np.array_equal(segments[0][0].points, pts)
        assert segments[0][1] == (0.0, 1.0)

    def test_two_span_c0_join(self, rng):
        pts = rng.uniform(-1, 1, (5, 2))
        spline = BSplineCurve(pts, [0, 0, 0, 0, 1, 2, 2, 2, 2], 3)
        segments = boehm_to_bezier(spline)
        assert len(segments) == 2
        first, second = segments[0][0], segments[1][0]
        # shared endpoint is bitwise equal
        assert np.array_equal(first.points[3], second.points[0])

    def test_uniform_cubic_matches_deboor(self, rng):
        pts = rng.uniform(-1, 1, (7, 2))
        spline = BSplineCurve(pts, np.arange(11, dtype=float), 3)
        segments = boehm_to_bezier(spline)
        a, b = spline.domain
        worst = 0.0
        for t in np.linspace(a, b, 1000):
            dev = np.abs(eval_bezier_segments(segments, float(t)) - eval_deboor(spline, float(t)))
            worst = max(worst, float(np.max(dev)))
        assert worst <= 1e-10

    def test_adjacent_segments_share_endpoints(self, rng):
        pts = rng.uniform(-1, 1, (9, 3))
        spline = BSplineCurve(pts, np.arange(13, dtype=float), 3)
        segments = boehm_to_bezier(spline)
        for (left, _), (right, _) in zip(segments, segments[1:]):
            assert np.array_equal(left.points[-1], right.points[0])

    def test_empty_domain_rejected(self):
        spline = BSplineCurve(np.zeros(3), [0, 0, 0, 0, 0, 0], 2)
        with pytest.raises(DomainError):
            boehm_to_bezier(spline)


class TestPowerBasis:
    def test_constant(self):
        poly = power_to_bernstein([1.0])
        assert np.all(poly.points == 1.0)

    def test_pure_cubic_term(self):
        poly = power_to_bernstein([0.0, 0.0, 0.0, 1.0])
        assert np.allclose(poly.points[:, 0], [0.0, 0.0, 0.0, 1.0], atol=1e-15)
        ts = np.linspace(0, 1, 50)
        assert np.max(np.abs(eval_bernstein(poly, ts)[:, 0] - ts**3)) <= 1e-14

    def test_linear_as_cubic(self):
        poly = power_to_bernstein([0.0, 1.0, 0.0, 0.0])
        assert np.allclose(poly.points[:, 0], [0.0, 1 / 3, 2 / 3, 1.0], atol=1e-15)
        ts = np.linspace(0, 1, 100)
        assert np.max(np.abs(eval_bernstein(poly, ts)[:, 0] - ts)) <= 1e-14

    def test_round_trip_up_to_degree_8(self, rng):
        for degree in range(0, 9):
            if degree == 0:
                continue  # a polygon needs two points; powers start at degree 1 here
            coeffs = rng.uniform(-2, 2, (degree + 1, 2))
            back = bernstein_to_power(power_to_bernstein(coeffs))
            assert np.max(np.abs(back - coeffs)) <= 1e-12

    def test_degree_cap(self):
        with pytest.raises(UnsupportedDegreeError):
            power_to_bernstein(np.zeros(11))

    @pytest.mark.parametrize("coeffs", [[np.inf, 0.0], [0.0, np.nan], [1e308, 1e308],
                                        [1e308, 1e308, -1e308, -1e308]])
    def test_non_finite_or_overflowing_points_rejected(self, coeffs):
        with pytest.raises(DomainError, match="finite"):
            power_to_bernstein(coeffs)

    @pytest.mark.parametrize("points", [[1e308, -1e308], [1e308, -1e308, 1e308, -1e308]])
    def test_overflowing_coefficients_rejected(self, points):
        with pytest.raises(DomainError, match="overflow float64"):
            bernstein_to_power(ControlPolygon(points))

    def test_power_conversion_of_degree_9_refused(self):
        with pytest.raises(UnsupportedDegreeError,
                           match="^basis conversion is supported up to degree 8$"):
            bernstein_to_power(ControlPolygon(np.zeros(10)))

    def test_coefficient_shape_checked(self):
        with pytest.raises(DomainError, match="at least one"):
            power_to_bernstein([])
        with pytest.raises(ChannelMismatchError, match="1-D or 2-D"):
            power_to_bernstein(np.zeros((1, 0, 2)))
        with pytest.raises(ChannelMismatchError, match="1-D or 2-D"):
            power_to_bernstein(1.0)


def chain_oracle(segments, global_t):
    """The per-segment masked chain evaluation, kept as the oracle of the
    one-gather form."""
    gt = np.atleast_1d(np.asarray(global_t, dtype=float))
    k = np.minimum(np.floor(gt), len(segments) - 1).astype(np.int64)
    out = np.empty((gt.shape[0], segments[0].channels))
    for i, seg in enumerate(segments):
        mask = k == i
        if np.any(mask):
            out[mask] = eval_bernstein(seg, gt[mask] - i)
    return out


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestBezierChain:
    def test_joins_end_and_interior_match_oracle(self, rng):
        for channels in (1, 2, 4):
            segments = [random_polygon(rng, 2, channels) for _ in range(4)]
            gt = np.concatenate([np.arange(5.0), rng.uniform(0.0, 4.0, 300),
                                 np.nextafter(np.arange(1.0, 5.0), 0.0)])
            assert _same_bits(eval_bezier_chain(segments, gt), chain_oracle(segments, gt))

    def test_scalar_parameter(self, rng):
        segments = [random_polygon(rng, 2, 2) for _ in range(3)]
        for gt in (0.0, 1.0, 1.5, 3.0, np.float64(2.25)):
            got = eval_bezier_chain(segments, gt)
            assert got.shape == (1, 2)
            assert _same_bits(got, chain_oracle(segments, gt))

    def test_mixed_degrees(self, rng):
        # chains and spline pieces are one (N, d + 1, channels) stack
        segments = [random_polygon(rng, d, 3) for d in (2, 3, 2, 5, 3)]
        with pytest.raises(UnsupportedDegreeError, match="share a degree"):
            eval_bezier_chain(segments, np.linspace(0.0, 5.0, 11))
        pieces = [(poly, (float(k), k + 1.0)) for k, poly in enumerate(segments)]
        with pytest.raises(UnsupportedDegreeError, match="share a degree"):
            eval_bezier_segments(pieces, np.linspace(0.0, 5.0, 11))

    @pytest.mark.parametrize("degree", (1, 2, 3, 5))
    def test_stack_evaluates_like_its_list(self, rng, degree):
        segments = [random_polygon(rng, degree, 3) for _ in range(4)]
        stack = np.stack([seg.points for seg in segments])
        gt = np.concatenate([np.arange(5.0), rng.uniform(0.0, 4.0, 200)]).reshape(5, 41)
        got = eval_bezier_chain(stack, gt)
        assert _same_bits(got, eval_bezier_chain(segments, gt))
        assert _same_bits(got.reshape(-1, 3), chain_oracle(segments, gt.ravel()))
        assert got.flags.c_contiguous  # a report's #rms bytes follow the memory order

    def test_single_segment(self, rng):
        segments = [random_polygon(rng, 3, 1)]
        gt = np.linspace(0.0, 1.0, 17)
        assert _same_bits(eval_bezier_chain(segments, gt), chain_oracle(segments, gt))

    def test_mixed_channel_counts_rejected(self, rng):
        segments = [random_polygon(rng, 2, 2), random_polygon(rng, 2, 1)]
        with pytest.raises(ChannelMismatchError):
            eval_bezier_chain(segments, [0.5, 1.5])

    @pytest.mark.parametrize("gt", [-0.5, -1e-300, np.nextafter(2.0, 3.0), 2.5, np.nan, np.inf])
    def test_parameter_outside_chain_rejected(self, rng, gt):
        segments = [random_polygon(rng, 2, 1) for _ in range(2)]
        with pytest.raises(DomainError, match=r"outside \[0, 2\]"):
            eval_bezier_chain(segments, np.array([0.5, gt]))


def segments_oracle(segments, t):
    """The per-segment scalar loop, kept as the oracle of the one-gather
    form."""
    lo = segments[0][1][0]
    hi = segments[-1][1][1]
    if not lo <= t <= hi:
        raise DomainError(f"t={t} outside piecewise domain [{lo}, {hi}]")
    for poly, (s0, s1) in segments:
        if t < s1 or s1 == hi:
            return eval_bernstein(poly, (t - s0) / (s1 - s0))


def _spline_cases():
    """(id, spline): clamped B-splines of degrees 1-4 with uniform, random
    and repeated interior knots."""
    rng = np.random.default_rng(41)
    cases = []
    for p in (1, 2, 3, 4):
        for name, inner in (("uniform", np.arange(1.0, 5.0)),
                            ("random", np.sort(rng.uniform(0.0, 3.0, 5))),
                            ("double", np.array([1.0, 1.0, 2.0, 2.5, 2.5])),
                            ("full", np.repeat([0.75, 1.5], p))):
            hi = max(float(inner.max()) + 0.5, 1.0)
            knots = np.concatenate([np.zeros(p + 1), inner, np.full(p + 1, hi)])
            pts = rng.uniform(-1.0, 1.0, (knots.shape[0] - p - 1, 2))
            cases.append((f"p{p}-{name}", BSplineCurve(pts, knots, p)))
    return cases


@pytest.mark.parametrize("spline", [case for _, case in _spline_cases()],
                         ids=[name for name, _ in _spline_cases()])
def test_segments_match_per_segment_loop(spline):
    segments = boehm_to_bezier(spline)
    a, b = spline.domain
    joins = np.array([end for _, (_, end) in segments])
    t = np.concatenate([np.linspace(a, b, 301), [a, np.nextafter(a, b)], joins,
                        np.nextafter(joins, -np.inf), np.nextafter(joins[:-1], np.inf)])
    expect = np.array([segments_oracle(segments, float(x)) for x in t])
    assert _same_bits(eval_bezier_segments(segments, t), expect)
    for x, row in zip(t, expect):
        assert _same_bits(eval_bezier_segments(segments, float(x)), row)


def test_segments_take_any_parameter_shape(rng):
    spline = BSplineCurve(rng.uniform(-1, 1, (6, 3)), [0, 0, 0, 0, 1, 2, 3, 3, 3, 3], 3)
    segments = boehm_to_bezier(spline)
    t = rng.uniform(0.0, 3.0, (4, 5))
    got = eval_bezier_segments(segments, t)
    assert got.shape == (4, 5, 3)
    assert _same_bits(got.reshape(-1, 3), eval_bezier_segments(segments, t.ravel()))
    assert eval_bezier_segments(segments, 1.5).shape == (3,)


@pytest.mark.parametrize("t", [-0.5, np.nextafter(2.0, 3.0), np.nan, np.inf])
def test_segments_outside_domain_keep_their_message(rng, t):
    segments = boehm_to_bezier(BSplineCurve(rng.uniform(-1, 1, 4), [0, 0, 0, 1, 2, 2, 2], 2))
    message = f"t={t} outside piecewise domain [0.0, 2.0]"
    for arg in (t, np.array([1.0, t, 0.5])):
        with pytest.raises(DomainError) as raised:
            eval_bezier_segments(segments, arg)
        assert str(raised.value) == message


def span_oracle(knots, degree, n_ctrl, t):
    """The binary search with its right-end walk, kept as the oracle of
    `_find_span`'s one `searchsorted` rule."""
    if t >= knots[n_ctrl]:
        k = n_ctrl - 1
        while knots[k] == knots[k + 1]:
            k -= 1
        return k
    lo, hi = degree, n_ctrl
    while True:
        k = (lo + hi) // 2
        if t < knots[k]:
            hi = k
        elif t >= knots[k + 1]:
            lo = k + 1
        else:
            return k


def deboor_oracle(spline, t):
    """The scalar de Boor recursion, kept as the oracle of the array form."""
    a, b = spline.domain
    if not a <= t <= b:
        raise DomainError(f"t={t} outside spline domain [{a}, {b}]")
    p = spline.degree
    U = spline.knots
    k = span_oracle(U, p, spline.control_points.shape[0], t)
    d = [spline.control_points[j + k - p].astype(float) for j in range(p + 1)]
    for r in range(1, p + 1):
        for j in range(p, r - 1, -1):
            i = j + k - p
            alpha = (t - U[i]) / (U[i + p - r + 1] - U[i])
            d[j] = (1.0 - alpha) * d[j - 1] + alpha * d[j]
    return d[p]


def insert_knot_oracle(spline, u):
    """Boehm's insertion on the oracle span: (control points, knots)."""
    p = spline.degree
    U = spline.knots
    P = spline.control_points
    k = span_oracle(U, p, P.shape[0], u)
    Q = np.empty((P.shape[0] + 1, P.shape[1]), dtype=float)
    Q[: k - p + 1] = P[: k - p + 1]
    for i in range(k - p + 1, k + 1):
        alpha = (u - U[i]) / (U[i + p] - U[i])
        Q[i] = (1.0 - alpha) * P[i - 1] + alpha * P[i]
    Q[k + 1 :] = P[k:]
    return Q, np.insert(U, k + 1, u)


def _deboor_cases():
    """`_spline_cases` plus end knots repeated past the degree and an
    unclamped uniform knot vector."""
    rng = np.random.default_rng(43)
    extra = (("p2-end-past-degree", [0, 0, 0, 0.5, 1, 1, 1, 1], 2),
             ("p2-start-past-degree", [0, 0, 0, 0, 0.5, 1, 1, 1], 2),
             ("p3-both-past-degree", [0, 0, 0, 0, 0, 1, 2, 2, 2, 2, 2], 3),
             ("p3-unclamped", np.arange(10.0), 3))
    return _spline_cases() + [
        (name, BSplineCurve(rng.uniform(-1.0, 1.0, (len(knots) - p - 1, 3)), knots, p))
        for name, knots, p in extra
    ]


def _knots_and_lattice(spline):
    """301 lattice points, both ends, every knot in the domain and the
    in-domain `nextafter` of each on either side."""
    a, b = spline.domain
    U = spline.knots
    knots = np.unique(U[(U >= a) & (U <= b)])
    t = np.concatenate([np.linspace(a, b, 301), [a, b], knots,
                        np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)])
    return knots, t[(t >= a) & (t <= b)]


@pytest.mark.parametrize("spline", [case for _, case in _deboor_cases()],
                         ids=[name for name, _ in _deboor_cases()])
def test_deboor_matches_per_point_loop(spline):
    _, t = _knots_and_lattice(spline)
    n_ctrl = spline.control_points.shape[0]
    spans = [span_oracle(spline.knots, spline.degree, n_ctrl, float(x)) for x in t]
    assert _find_span(spline, t, "").tolist() == spans
    expect = np.array([deboor_oracle(spline, float(x)) for x in t])
    assert _same_bits(eval_deboor(spline, t), expect)
    grid = t[: t.size // 2 * 2].reshape(2, -1)
    assert _same_bits(eval_deboor(spline, grid), expect[: grid.size].reshape(grid.shape + (-1,)))
    for x, row in zip(t, expect):
        assert _same_bits(eval_deboor(spline, float(x)), row)


@pytest.mark.parametrize("spline", [case for _, case in _deboor_cases()],
                         ids=[name for name, _ in _deboor_cases()])
def test_insert_knot_matches_oracle(spline):
    knots, _ = _knots_and_lattice(spline)
    a, b = spline.domain
    for u in np.concatenate([knots, np.linspace(a, b, 7)]):
        got = insert_knot(spline, float(u))
        points, new_knots = insert_knot_oracle(spline, float(u))
        assert _same_bits(got.control_points, points)
        assert _same_bits(got.knots, new_knots)


def test_deboor_takes_any_parameter_shape(rng):
    spline = BSplineCurve(rng.uniform(-1, 1, (6, 3)), [0, 0, 0, 0, 1, 2, 3, 3, 3, 3], 3)
    t = rng.uniform(0.0, 3.0, (4, 5))
    got = eval_deboor(spline, t)
    assert got.shape == (4, 5, 3)
    assert _same_bits(got.reshape(-1, 3), eval_deboor(spline, t.ravel()))
    assert eval_deboor(spline, 1.5).shape == (3,)
    assert eval_deboor(spline, np.empty(0)).shape == (0, 3)


@pytest.mark.parametrize("t", [-0.5, np.nextafter(2.0, 3.0), np.nan, np.inf, -np.inf])
def test_deboor_outside_domain_keeps_its_message(rng, t):
    spline = BSplineCurve(rng.uniform(-1, 1, 4), [0, 0, 0, 1, 2, 2, 2], 2)
    for arg in (t, np.array([1.0, t, 0.5])):
        with pytest.raises(DomainError) as raised:
            eval_deboor(spline, arg)
        assert str(raised.value) == f"t={t} outside spline domain [0.0, 2.0]"
    with pytest.raises(DomainError) as raised:
        insert_knot(spline, t)
    assert str(raised.value) == f"knot {t} outside spline domain [0.0, 2.0]"


# The per-element loops the array basis conversions replaced, kept as their
# bit oracles.


def power_to_bernstein_oracle(a):
    d = a.shape[0] - 1
    row_d = pascal_row(d)
    b = np.empty_like(a)
    for j in range(d + 1):
        row_j = pascal_row(j)
        b[j] = sum(row_j[i] / row_d[i] * a[i] for i in range(j + 1))
    return b


def bernstein_to_power_oracle(b):
    d = b.shape[0] - 1
    row_d = pascal_row(d)
    a = np.empty_like(b)
    for k in range(d + 1):
        row_k = pascal_row(k)
        acc = np.zeros(b.shape[1])
        for i in range(k + 1):
            acc = acc + (-1) ** (k - i) * row_k[i] * b[i]
        a[k] = row_d[k] * acc
    return a


def elevate_degree_oracle(pts, target_degree):
    for d in range(pts.shape[0] - 1, target_degree):
        new = np.empty((d + 2, pts.shape[1]), dtype=float)
        new[0] = pts[0]
        new[d + 1] = pts[d]
        for i in range(1, d + 1):
            w = i / (d + 1)
            new[i] = w * pts[i - 1] + (1.0 - w) * pts[i]
        pts = new
    return pts


def _coefficients(rng, count, channels):
    """count x channels values: signed zeros, small integers and random
    mantissas over 1e-3..1e3, mixed per entry."""
    kind = rng.integers(0, 3, (count, channels))
    zeros = rng.choice([0.0, -0.0], (count, channels))
    ints = rng.integers(-3, 4, (count, channels)).astype(float)
    wide = rng.uniform(-1.0, 1.0, (count, channels)) * 10.0 ** rng.uniform(-3, 3, (count, channels))
    return np.choose(kind, [zeros, ints, wide])


def _check_basis_against_oracles(rng, degree, channels):
    a = _coefficients(rng, degree + 1, channels)
    if degree == 0:
        assert _same_bits(power_to_bernstein(a).points,
                          power_to_bernstein_oracle(np.concatenate([a, np.zeros_like(a)])))
        return
    assert _same_bits(power_to_bernstein(a).points, power_to_bernstein_oracle(a))
    poly = ControlPolygon(a)
    assert _same_bits(bernstein_to_power(poly), bernstein_to_power_oracle(poly.points))
    for target in range(degree, degree + 4):
        assert _same_bits(elevate_degree(poly, target).points,
                          elevate_degree_oracle(poly.points, target))


class TestArrayBasisOracles:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 8), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_conversions_match_per_element_loops(self, degree, channels, seed):
        _check_basis_against_oracles(np.random.default_rng(seed), degree, channels)

    def test_seeded_cases(self):
        rng = np.random.default_rng(53)
        for degree in range(9):
            for channels in range(1, 5):
                for _ in range(6):
                    _check_basis_against_oracles(rng, degree, channels)

    def test_signed_zero_sums(self):
        # the oracle sums start from +0.0, so all -0.0 input gives +0.0 terms
        a = np.array([[-0.0, 0.0], [-0.0, -0.0], [0.0, -0.0]])
        assert _same_bits(power_to_bernstein(a).points, power_to_bernstein_oracle(a))
        assert _same_bits(bernstein_to_power(ControlPolygon(a)), bernstein_to_power_oracle(a))
        assert _same_bits(elevate_degree(ControlPolygon(a), 5).points, elevate_degree_oracle(a, 5))


# -- blocked references ------------------------------------------------------
#
# Long 1-D lattices are evaluated one `_BLOCK` slice at a time. The forms
# below evaluate the whole lattice in one piece; every blocked result must
# equal them in bytes, shape and memory order (a report's #mean and #rms sum
# its reference in memory order).

B = _BLOCK
BLOCKED_LENGTHS = (B - 1, B, B + 1, 2 * B + 17, 3 * B)


def one_piece_decasteljau(poly, t):
    tt = t[..., None, None]
    beta = np.broadcast_to(poly.points, tt.shape[:-2] + poly.points.shape).astype(float)
    for _ in range(poly.degree):
        beta = beta[..., :-1, :] * (1.0 - tt) + beta[..., 1:, :] * tt
    return beta[..., 0, :]


def one_piece_seiler(poly, t):
    terms, d = seiler_terms(poly), poly.degree
    tt = t[..., None]
    st = (1.0 - tt) * tt

    def rec(i):
        if 2 * i == d + 1:
            return 0.0
        if 2 * i == d:
            return terms.diff(i)
        return lerp(terms.diff(i), terms.diff(d - i), tt) + st * rec(i + 1)

    return lerp(poly.points[0], poly.points[d], tt) + st * rec(1)


def one_piece_rational(poly, weights, t):
    val = bernstein_sum(homogeneous(poly, weights).points, t)
    return val[..., :-1] / val[..., -1:]


def one_piece_chain(segments, gt):
    stack = np.stack([seg.points for seg in segments])
    k = np.minimum(np.searchsorted(np.arange(1.0, len(stack) + 1), gt, side="right"),
                   len(stack) - 1)
    return np.ascontiguousarray(bernstein_sum(stack[k].swapaxes(0, 1), gt - k))


def lattice(rng, length, order, end):
    """`length` parameters in [0, end], the ends and the midpoint among them,
    as a contiguous array, a reversed view or an every-other view."""
    base = rng.uniform(0.0, end, 2 * length)
    base[:3] = (0.0, end, 0.5 * end)
    if order == "reversed":
        return base[:length][::-1]
    return base[::2] if order == "every other" else base[:length]


def assert_same_layout(got, want, name):
    assert got.shape == want.shape, name
    assert got.flags.c_contiguous == want.flags.c_contiguous, name
    assert got.flags.f_contiguous == want.flags.f_contiguous, name
    assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("order", ("contiguous", "reversed", "every other"))
@pytest.mark.parametrize("length", BLOCKED_LENGTHS)
@given(degree=st.integers(1, 8), channels=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=6, deadline=None)
def test_blocked_references_match_one_piece(length, order, degree, channels, seed):
    """Every Bezier reference, blocked over a lattice of one block, one
    sample less or more, a 1-sample or 17-sample last block, or three whole
    blocks, in any stride, returns the bytes and memory order of one piece."""
    rng = np.random.default_rng(seed)
    t, gt = lattice(rng, length, order, 1.0), lattice(rng, length, order, 3.0)
    assert t.shape == (length,) and (order == "contiguous") == t.flags.c_contiguous
    poly = ControlPolygon(rng.uniform(-2.0, 2.0, (degree + 1, channels)))
    segments = [ControlPolygon(p) for p in rng.uniform(-2.0, 2.0, (3, degree + 1, channels))]
    runs = [
        ("eval_bernstein", eval_bernstein(poly, t), bernstein_sum(poly.points, t)),
        ("eval_decasteljau", eval_decasteljau(poly, t), one_piece_decasteljau(poly, t)),
        ("eval_bezier_chain", eval_bezier_chain(segments, gt), one_piece_chain(segments, gt)),
    ]
    if 2 <= degree <= 5:
        runs.append(("eval_seiler", eval_seiler(poly, t), one_piece_seiler(poly, t)))
    if channels < 4:
        weights = rng.uniform(0.25, 2.0, degree + 1)
        runs.append(("eval_rational", eval_rational(poly, weights, t),
                     one_piece_rational(poly, weights, t)))
    for name, got, want in runs:
        assert_same_layout(got, want, name)


def _blocked_evaluators():
    """(name, fn(t), domain end) for every blocked reference."""
    rng = np.random.default_rng(23)
    poly = random_polygon(rng, 3, 2)
    chain = [random_polygon(rng, 2, 2) for _ in range(3)]
    pieces = [(random_polygon(rng, 2, 2), (0.0, 0.25)), (random_polygon(rng, 2, 2), (0.25, 1.0))]
    return (
        ("eval_bernstein", lambda t: eval_bernstein(poly, t), 1.0),
        ("eval_decasteljau", lambda t: eval_decasteljau(poly, t), 1.0),
        ("eval_seiler", lambda t: eval_seiler(poly, t), 1.0),
        ("eval_rational", lambda t: eval_rational(poly, [1.0, 0.5, 0.7, 1.0], t), 1.0),
        ("eval_bezier_chain", lambda t: eval_bezier_chain(chain, t), 3.0),
        ("eval_bezier_segments", lambda t: eval_bezier_segments(pieces, t), 1.0),
    )


BLOCKED = _blocked_evaluators()


@pytest.mark.parametrize("index", (2 * B, 3 * B - 1))
@pytest.mark.parametrize("bad", ("nan", "below", "above"))
@pytest.mark.parametrize("case", BLOCKED, ids=[name for name, *_ in BLOCKED])
def test_last_block_parameter_raises_the_tails_error(case, bad, index):
    """A parameter off the domain in the last block raises the DomainError
    that the last block alone raises, before any block is evaluated."""
    _, fn, end = case
    t = np.linspace(0.0, end, 3 * B)
    t[index] = {"nan": np.nan, "below": -1e-300, "above": np.nextafter(end, np.inf)}[bad]
    with pytest.raises(DomainError) as whole:
        fn(t)
    with pytest.raises(DomainError) as tail:
        fn(t[2 * B :])
    assert str(whole.value) == str(tail.value)


def test_rational_checks_every_parameter_before_dividing():
    """A weight that vanishes in the first block does not hide a parameter
    outside [0, 1] in a later one: t is validated whole first."""
    poly, weights = ControlPolygon([[0.0], [1.0], [0.0]]), [1e-13, 1.0, 1e-13]
    t = np.linspace(0.0, 1.0, 3 * B)
    with pytest.raises(HomogeneousDivideError):
        eval_rational(poly, weights, t)
    t[2 * B + 5] = 1.5
    with pytest.raises(DomainError, match="outside"):
        eval_rational(poly, weights, t)


def test_overflow_in_the_last_block_is_refused():
    """A polygon at the largest float whose Bernstein sum overflows only at
    the lattice's last sample is still refused, whole and rational."""
    poly = ControlPolygon(np.full((3, 1), np.finfo(float).max))
    t = np.zeros(3 * B)
    assert np.isfinite(eval_bernstein(poly, t)).all()
    t[-1] = 0.003  # the rounded sum of three terms exceeds the largest float
    with pytest.raises(DomainError, match="^Bernstein values overflow float64$"):
        eval_bernstein(poly, t)
    with pytest.raises(DomainError, match="^Bernstein values overflow float64$"):
        eval_rational(poly, [1.0, 1.0, 1.0], t)


#: every point at the largest float: at t = 0.061 the rounded Bernstein sum
#: of four such points exceeds it
_AT_MAX = ControlPolygon(np.full((4, 1), np.finfo(float).max))


@pytest.mark.parametrize("evaluate", [
    lambda t: eval_bernstein(_AT_MAX, t),
    lambda t: eval_bezier_chain([_AT_MAX], t),
    lambda t: eval_bezier_chain(_AT_MAX.points[None], t),
    lambda t: eval_bezier_segments([(_AT_MAX, (0.0, 1.0))], t),
], ids=["bernstein", "chain", "chain-stack", "segments"])
def test_pieces_that_overflow_are_refused(evaluate):
    assert np.isfinite(evaluate(np.array([0.0, 1.0]))).all()
    with pytest.raises(DomainError, match="^Bernstein values overflow float64$"):
        evaluate(0.061)


def test_a_surface_whose_column_sum_overflows_is_refused():
    # its rows at u = 0 are finite: only the sum over them in v overflows
    net = np.full((3, 3), np.finfo(float).max)
    assert np.isfinite(eval_tensor_surface(net, 0.0, 0.0)).all()
    with pytest.raises(DomainError, match="^Bernstein values overflow float64$"):
        eval_tensor_surface(net, 0.0, 0.0005)


@pytest.mark.parametrize("grid", [np.zeros((0, 3)), np.zeros((0, 3, 2)), np.zeros((0, 0))],
                         ids=("scalars", "vectors", "no-columns"))
def test_a_control_grid_without_rows_is_refused(grid):
    with pytest.raises(DomainError, match="^control grid needs at least one row$"):
        eval_tensor_surface(grid, 0.5, 0.5)


_QUAD_A = ControlPolygon([0.0, 1.0, 0.0])
_QUAD_B = ControlPolygon([5.0, 6.0, 5.0])

#: name -> (spans of the pieces a and b, the segment named in the refusal,
#: a parameter inside the pieces' hull); each was once evaluated without
#: complaint: nan, b extrapolated to local t = -0.25, 0.0 and 0.48
MALFORMED_SPANS = {
    "zero-width": ([(0.0, 0.0)], 0, 0.0),
    "gap": ([(0.0, 0.4), (0.6, 1.0)], 1, 0.5),
    "infinite": ([(0.0, np.inf)], 0, 0.5),
    "overlap": ([(0.0, 1.0), (0.5, 0.7)], 1, 0.6),
    "reversed": ([(0.0, 0.5), (0.5, 0.25)], 1, 0.3),
    "nan": ([(np.nan, 1.0)], 0, 0.5),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_SPANS))
def test_malformed_spans_are_refused(name):
    spans, bad, t = MALFORMED_SPANS[name]
    pieces = list(zip((_QUAD_A, _QUAD_B), spans))
    lo, hi = spans[bad]
    message = (f"segment {bad} spans [{lo}, {hi}], not a finite interval that starts where "
               "the one before it ends and ends after it starts")
    for arg in (t, np.array([t, t]), -1.0):  # before the parameter's own check
        with pytest.raises(DomainError) as raised:
            eval_bezier_segments(pieces, arg)
        assert str(raised.value) == message


def test_span_refusal_follows_the_stack_checks():
    """Degree and channel checks come first, as for well-formed spans."""
    with pytest.raises(UnsupportedDegreeError):
        eval_bezier_segments([(_QUAD_A, (0.0, 0.0)), (ControlPolygon([0.0, 1.0]), (2.0, 1.0))],
                             0.5)
    with pytest.raises(ChannelMismatchError):
        eval_bezier_segments([(_QUAD_A, (0.0, 0.0)), (random_polygon(np.random.default_rng(1),
                                                                       2, 2), (2.0, 1.0))], 0.5)


def test_conversion_spans_pass_the_span_check():
    """`boehm_to_bezier` joins consecutive distinct knots, so its spans
    always pass, whatever the knot spacing."""
    for _, spline in _spline_cases():
        segments = boehm_to_bezier(spline)
        a, b = spline.domain
        assert eval_bezier_segments(segments, np.linspace(a, b, 9)).shape[0] == 9
