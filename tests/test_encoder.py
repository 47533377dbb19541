import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from texcurve import (
    ChannelMismatchError,
    ControlPolygon,
    DomainError,
    JoinError,
    Layout,
    LayoutError,
    RangeError,
    TexCurveError,
    TexelFormat,
    TexelGrid,
    UnsupportedDegreeError,
    encode_bicubic_rgba,
    encode_bilinear_patch,
    encode_dc_cubic,
    encode_dc_quadratic,
    encode_dc_zigzag,
    encode_rational,
    encode_seiler,
    fit_range,
    quantize_texel,
    zigzag_residuals,
)
from texcurve import core, encoder
from texcurve.reference import homogeneous, seiler_terms
from conftest import random_c0_quadratics

F32 = TexelFormat.FLOAT32
U8 = TexelFormat.UNORM8


def plane(curve):
    return curve.grid.data[0, :, :, 0]


class TestDcQuadratic:
    def test_row_placement(self):
        enc = encode_dc_quadratic(ControlPolygon([0.0, 1.0, 0.0]), F32)
        assert np.array_equal(plane(enc), [[0.0, 1.0], [1.0, 0.0]])
        assert enc.layout is Layout.DC_QUAD_2X2

    def test_constant(self):
        enc = encode_dc_quadratic(ControlPolygon([0.25, 0.25, 0.25]), F32)
        assert np.all(enc.grid.data == 0.25)

    def test_unorm8_quantization(self):
        enc = encode_dc_quadratic(ControlPolygon([0.0, 0.5, 1.0]), U8)
        expect = {0.0, quantize_texel(0.5, U8), 1.0}
        assert set(enc.grid.data.reshape(-1)) == expect
        assert quantize_texel(0.5, U8) == 128 / 255

    def test_wrong_degree(self):
        with pytest.raises(UnsupportedDegreeError):
            encode_dc_quadratic(ControlPolygon([0.0, 1.0, 1.0, 0.0]), F32)

    def test_out_of_range_unorm(self):
        with pytest.raises(RangeError):
            encode_dc_quadratic(ControlPolygon([0.0, 1.5, 0.0]), U8)


class TestDcCubic:
    def test_slice_placement(self):
        enc = encode_dc_cubic(ControlPolygon([0.0, 1.0, 1.0, 0.0]), F32)
        assert np.array_equal(enc.grid.data[0, :, :, 0], [[0.0, 1.0], [1.0, 1.0]])
        assert np.array_equal(enc.grid.data[1, :, :, 0], [[1.0, 1.0], [1.0, 0.0]])

    def test_constant(self):
        enc = encode_dc_cubic(ControlPolygon(np.full(4, 0.5)), F32)
        assert np.all(enc.grid.data == 0.5)

    def test_texel_budget(self):
        enc = encode_dc_cubic(ControlPolygon([0.0, 1.0, 1.0, 0.0]), F32)
        assert enc.grid.texel_count == 8


class TestZigzag:
    def test_single_segment_explicit_seed(self):
        enc = encode_dc_zigzag([ControlPolygon([0.0, 1.0, 0.0])], F32, seed=1.0)
        assert np.array_equal(plane(enc), [[0.0, 1.0], [1.0, 0.0]])

    def test_two_segments(self):
        segs = [ControlPolygon([0.0, 1.0, 0.0]), ControlPolygon([0.0, 0.5, 0.0])]
        enc = encode_dc_zigzag(segs, F32, seed=1.0)
        assert np.array_equal(plane(enc), [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        assert enc.segment_count == 2

    def test_constant_segments(self):
        c = 0.3
        segs = [ControlPolygon([c, c, c])] * 3
        enc = encode_dc_zigzag(segs, F32, seed=c)
        assert np.all(np.asarray(enc.grid.data) == np.float64(np.float32(c)))

    def test_c0_violation(self):
        segs = [ControlPolygon([0.0, 1.0, 0.5]), ControlPolygon([0.4, 0.5, 0.0])]
        with pytest.raises(JoinError):
            encode_dc_zigzag(segs, F32)

    def test_storage_is_two_texels_per_extra_segment(self, rng):
        for n in range(1, 9):
            segs = random_c0_quadratics(rng, n)
            enc = encode_dc_zigzag(segs, F32)
            assert enc.grid.texel_count == 2 * (n + 1)
            assert enc.grid.dims == (n + 1, 2, 1)

    def test_constraint_audit(self, rng):
        for fmt in (F32, U8):
            segs = random_c0_quadratics(rng, 5, lo=0.2, hi=0.8)
            enc = encode_dc_zigzag(segs, fmt, seed=0.5, rescale=fmt.is_unorm)
            res = zigzag_residuals(enc, segs)
            step = fmt.quant_step(float(np.max(np.abs(enc.grid.data))))
            assert np.max(res) <= step + 1e-15

    @pytest.mark.parametrize("count", (0, 1, 3))
    def test_constraint_audit_needs_every_segment(self, rng, count):
        enc = encode_dc_zigzag(random_c0_quadratics(rng, 2, 2), F32)
        segs = random_c0_quadratics(rng, 3, 2)[:count]
        with pytest.raises(LayoutError, match=f"audit needs 2 segments, got {count}"):
            zigzag_residuals(enc, segs)

    @pytest.mark.parametrize("channels", (1, 3))
    def test_constraint_audit_needs_the_grid_channels(self, rng, channels):
        enc = encode_dc_zigzag(random_c0_quadratics(rng, 2, 2), F32)
        with pytest.raises(ChannelMismatchError, match="the grid 2"):
            zigzag_residuals(enc, random_c0_quadratics(rng, 2, channels))

    def test_range_error_names_texel(self):
        # middle point at 0.9 with seed 0 pushes the solved texel to 1.8
        segs = [ControlPolygon([0.0, 0.9, 0.0])]
        with pytest.raises(RangeError, match="texel"):
            encode_dc_zigzag(segs, U8, seed=0.0)

    def test_seed_search_recovers_feasibility(self):
        segs = [ControlPolygon([0.0, 0.9, 0.0])]
        enc = encode_dc_zigzag(segs, U8, seed="search")
        assert np.all(enc.grid.data >= 0.0) and np.all(enc.grid.data <= 1.0)

    def test_seed_word_other_than_search_refused(self):
        with pytest.raises(DomainError, match="'search', got 'best'"):
            encode_dc_zigzag([ControlPolygon([0.0, 0.5, 0.0])], F32, seed="best")

    @pytest.mark.parametrize("seed", [np.nan, np.inf, [0.5, -np.inf]])
    def test_non_finite_seed(self, seed):
        segs = [ControlPolygon([[0.0, 0.0], [0.5, 1.0], [1.0, 0.0]])]
        with pytest.raises(DomainError, match="finite"):
            encode_dc_zigzag(segs, F32, seed=seed)

    @pytest.mark.parametrize("seed", [[1.0, 2.0], [[1.0]]])
    def test_seed_channel_mismatch(self, seed):
        with pytest.raises(ChannelMismatchError, match="1-channel"):
            encode_dc_zigzag([ControlPolygon([0.0, 0.5, 0.0])], F32, seed=seed)

    def test_stack_packs_like_its_list(self, rng):
        segs = random_c0_quadratics(rng, 5, 2)
        stack = np.stack([seg.points for seg in segs])
        for fmt, seed in ((F32, None), (F32, 0.5), (U8, "search")):
            want = encode_dc_zigzag(segs, fmt, seed, rescale=True)
            got = encode_dc_zigzag(stack, fmt, seed, rescale=True)
            assert got.grid.data.tobytes() == want.grid.data.tobytes()
            assert got.segment_count == want.segment_count == 5
            assert got.transform.scale.tobytes() == want.transform.scale.tobytes()
            assert got.transform.offset.tobytes() == want.transform.offset.tobytes()
            assert (zigzag_residuals(got, stack).tobytes()
                    == zigzag_residuals(want, segs).tobytes())

    @pytest.mark.parametrize("stack, error, message", [
        (np.zeros((3, 1)), DomainError, r"\(N, d \+ 1, c\) array, got shape \(3, 1\)"),
        (np.zeros((3, 1, 1)), DomainError, r"got shape \(3, 1, 1\)"),
        (np.zeros((0, 3, 1)), DomainError, "two control points"),
        (np.zeros((2, 4, 1)), UnsupportedDegreeError, "quadratic segments only"),
    ])
    def test_bad_stack_refused(self, stack, error, message):
        with pytest.raises(error, match=message):
            encode_dc_zigzag(stack, F32)

    def test_mixed_segments_refused(self):
        quad, cubic = ControlPolygon([0.0, 0.5, 1.0]), ControlPolygon([1.0, 0.5, 0.5, 0.0])
        with pytest.raises(UnsupportedDegreeError, match="share a degree"):
            encode_dc_zigzag([quad, cubic], F32)
        with pytest.raises(ChannelMismatchError, match="share a channel count"):
            encode_dc_zigzag([quad, ControlPolygon([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])], F32)
        with pytest.raises(DomainError, match="at least one segment"):
            encode_dc_zigzag([], F32)

    def test_audit_counts_a_stack_before_checking_it(self, rng):
        enc = encode_dc_zigzag(random_c0_quadratics(rng, 2), F32)
        for stack in (np.zeros((0, 3, 1)), np.full((3, 3, 5), np.nan)):
            with pytest.raises(LayoutError, match=f"got {len(stack)}"):
                zigzag_residuals(enc, stack)


class TestSeiler:
    def test_cubic_hump_rows(self):
        enc = encode_seiler(ControlPolygon([0.0, 1.0, 1.0, 0.0]), F32)
        assert np.array_equal(plane(enc), [[0.0, 0.0], [3.0, 3.0]])
        assert enc.layout is Layout.SEILER_2D

    def test_cubic_line_rows(self):
        enc = encode_seiler(ControlPolygon([0.0, 1 / 3, 2 / 3, 1.0]), F32)
        assert np.allclose(plane(enc), [[0.0, 1.0], [0.0, 1.0]], atol=1e-15)

    def test_quadratic_constant(self):
        enc = encode_seiler(ControlPolygon([0.4, 0.4, 0.4]), F32)
        assert np.all(np.asarray(plane(enc)) == np.float64(np.float32(0.4)))

    def test_quartic_table_rows(self, rng):
        from texcurve import seiler_terms

        poly = ControlPolygon(rng.uniform(-1, 1, 5))
        terms = seiler_terms(poly)
        b = poly.points[:, 0]
        d1, d2, d3 = (t[0] for t in terms.diffs)
        enc = encode_seiler(poly, F32)
        near = enc.grid.data[0, :, :, 0]
        far = enc.grid.data[1, :, :, 0]
        f32 = lambda x: float(np.float32(x))
        assert np.array_equal(near, [[f32(b[0]), f32(b[4])], [f32(b[0]), f32(b[4])]])
        assert np.array_equal(far, [[f32(b[0] + d1), f32(b[4] + d3)],
                                    [f32(b[0] + d1 + d2), f32(b[4] + d3 + d2)]])

    def test_four_texels_for_cubic(self):
        enc = encode_seiler(ControlPolygon([0.0, 1.0, 1.0, 0.0]), F32)
        assert enc.grid.texel_count == 4

    def test_degree_cap(self, rng):
        with pytest.raises(UnsupportedDegreeError):
            encode_seiler(ControlPolygon(rng.uniform(0, 1, 7)), F32)

    def test_unorm_range_reports_magnitude(self):
        with pytest.raises(RangeError, match="span"):
            encode_seiler(ControlPolygon([0.0, 1.0, 1.0, 0.0]), U8)

    def test_rescale_makes_unorm_encodable(self):
        enc = encode_seiler(ControlPolygon([0.0, 1.0, 1.0, 0.0]), U8, rescale=True)
        assert not enc.transform.is_identity
        assert np.all(enc.grid.data >= 0.0) and np.all(enc.grid.data <= 1.0)


class TestPatchAndBicubic:
    def test_patch_identity_placement(self):
        enc = encode_bilinear_patch([[0.0, 1.0], [1.0, 0.0]], F32)
        assert np.array_equal(plane(enc), [[0.0, 1.0], [1.0, 0.0]])

    def test_patch_constant(self):
        enc = encode_bilinear_patch(np.full((2, 2), 0.7), F32)
        assert np.all(np.asarray(enc.grid.data) == np.float64(np.float32(0.7)))

    def test_bicubic_constant(self):
        enc = encode_bicubic_rgba(np.full((4, 4), 0.5), F32)
        assert np.all(enc.grid.data == 0.5)
        assert enc.grid.channels == 4

    def test_bicubic_separable_rows_identical_channels(self, rng):
        row = rng.uniform(0, 1, 4)
        enc = encode_bicubic_rgba(np.tile(row, (4, 1)), F32)
        for c in range(1, 4):
            assert np.array_equal(enc.grid.data[..., c], enc.grid.data[..., 0])

    @pytest.mark.parametrize("fmt", (TexelFormat.UNORM8, F32), ids=lambda f: f.value)
    def test_bicubic_net_with_one_trailing_channel_packs_as_scalars(self, rng, fmt):
        net = rng.uniform(0, 1, (4, 4))
        scalar, column = encode_bicubic_rgba(net, fmt), encode_bicubic_rgba(net[..., None], fmt)
        assert column.grid.data.tobytes() == scalar.grid.data.tobytes()
        assert column.grid.dims == scalar.grid.dims and column.grid.channels == 4

    def test_bicubic_channel_overflow(self, rng):
        with pytest.raises(ChannelMismatchError):
            encode_bicubic_rgba(rng.uniform(0, 1, (4, 4, 2)), F32)


class TestRational:
    def test_unit_weights_weight_channel(self):
        enc = encode_rational(ControlPolygon([0.0, 1.0, 0.0]), np.ones(3), F32)
        assert enc.layout is Layout.RATIONAL_HOMOGENEOUS
        assert enc.inner_layout is Layout.SEILER_2D
        # quadratic difference-term row adds d1 to both columns; with unit
        # weights the weight channel's d1 is 0, so it decodes to 1 everywhere
        assert np.all(enc.grid.data[..., -1] == 1.0)

    def test_channel_overflow(self, rng):
        poly = ControlPolygon(rng.uniform(0, 1, (3, 4)))
        with pytest.raises(ChannelMismatchError):
            encode_rational(poly, np.ones(3), F32)

    def test_nonpositive_weights(self):
        with pytest.raises(DomainError):
            encode_rational(ControlPolygon([0.0, 1.0, 0.0]), [1.0, 0.0, 1.0], F32)

    def test_dc_scheme_cubic(self, rng):
        poly = ControlPolygon(rng.uniform(0, 1, (4, 2)))
        enc = encode_rational(poly, np.ones(4), F32, scheme="dc")
        assert enc.inner_layout is Layout.DC_CUBIC_2X2X2
        assert enc.grid.depth == 2

    @pytest.mark.parametrize("rescale", (False, True))
    def test_weight_range_error_advises_what_can_fit(self, rescale):
        # the weights' difference terms reach 1.4 in the weight channel (the
        # last), which no rescale touches; the texel prefix stays parseable
        poly = ControlPolygon([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        with pytest.raises(RangeError) as err:
            encode_rational(poly, [0.6, 1.0, 0.6], U8, scheme="seiler", rescale=rescale)
        message = str(err.value)
        assert message.startswith("rational: texel (0, 1, 0, 2) has value 1.4,")
        assert "pass rescale=True" not in message
        assert "difference terms" in message and "float32" in message
        encode_rational(poly, [0.6, 1.0, 0.6], F32, scheme="seiler", rescale=rescale)

    def test_point_range_error_advises_rescale(self):
        poly = ControlPolygon([[0.1, 2.2], [0.3, 0.4], [0.5, 0.6]])
        with pytest.raises(RangeError, match=r"texel \(0, 0, 0, 1\) .*pass rescale=True"):
            encode_rational(poly, np.ones(3), U8, scheme="seiler")


class TestFitRange:
    def test_identity_when_in_range(self):
        tf = fit_range(np.array([[0.0], [0.25], [1.0]]), U8)
        assert tf.is_identity

    def test_affine_fit(self):
        tf = fit_range(np.array([[-1.0], [3.0]]), U8)
        assert tf.scale[0] == 0.25
        assert tf.apply(np.array([-1.0]))[0] == 0.0
        assert tf.apply(np.array([3.0]))[0] == 1.0

    def test_degenerate_constant(self):
        tf = fit_range(np.array([[5.0], [5.0]]), U8)
        assert tf.scale[0] == 1.0
        assert tf.offset[0] == -5.0

    def test_per_channel_independence(self):
        vals = np.array([[0.5, -1.0], [0.75, 3.0]])
        tf = fit_range(vals, U8)
        assert tf.scale[0] == 1.0 and tf.offset[0] == 0.0
        assert tf.scale[1] == 0.25

    def test_zero_channels_refused(self):
        with pytest.raises(DomainError, match=r"shape \(2, 0\)"):
            fit_range(np.zeros((2, 0)), U8)

    def test_zero_rows_refused(self):
        with pytest.raises(DomainError, match=r"shape \(0, 2\)"):
            fit_range(np.zeros((0, 2)), U8)

    def test_scalar_refused(self):
        with pytest.raises(DomainError, match=r"shape \(\)"):
            fit_range(np.float64(0.5), U8)


class TestNonFiniteTexels:
    def test_float32_overflow_is_a_range_error(self):
        # 1e300 rounds to inf in float32; storing it would make every
        # evaluation and sweep non-finite
        poly = ControlPolygon([0.0, 1e300, 1.0, 0.0])
        with pytest.raises(RangeError, match="float32 stores as inf"):
            encode_dc_cubic(poly, TexelFormat.FLOAT32)
        with pytest.raises(RangeError, match="float32 stores as inf"):
            encode_seiler(poly, TexelFormat.FLOAT32)

    def test_float32_overflow_rescales(self):
        poly = ControlPolygon([0.0, 1e300, 1.0, 0.0])
        curve = encode_dc_cubic(poly, TexelFormat.FLOAT32, rescale=True)
        assert np.isfinite(curve.grid.data).all()

    def test_nan_texel_is_a_range_error_in_every_format(self):
        # control polygons reject NaN; a raw control net reaches the quantizer
        for fmt in TexelFormat:
            with pytest.raises(RangeError, match="stores as nan"):
                encode_bilinear_patch([[0.0, np.nan], [0.5, 1.0]], fmt)


HUGE = ControlPolygon([[1e308], [-1e308], [0.0]])


class TestHostileValues:
    """Finite inputs whose texels or range fit overflow float64 are refused
    with a TexCurveError, and no RuntimeWarning (an error under pytest)."""

    @pytest.mark.parametrize("rescale", (False, True))
    def test_zero_channel_patch_is_a_channel_mismatch(self, rescale):
        with pytest.raises(ChannelMismatchError, match="1..4 channels, got 0"):
            encode_bilinear_patch(np.zeros((2, 2, 0)), U8, rescale=rescale)

    def test_overflowing_span_is_a_range_error(self):
        with pytest.raises(RangeError, match="value span"):
            encode_dc_quadratic(HUGE, U8, rescale=True)
        net = np.where(np.arange(16).reshape(4, 4) % 2, 1e308, -1e308)
        with pytest.raises(RangeError, match="value span"):
            encode_bicubic_rgba(net, U8, rescale=True)

    def test_subnormal_span_is_a_range_error(self):
        # 1 / 1e-320 overflows, so no finite scale maps the span onto [0, 1]
        with pytest.raises(RangeError, match="value span"):
            fit_range(np.array([[-1e-320], [0.0]]), U8)

    def test_overflowing_difference_terms_are_a_range_error(self):
        with pytest.raises(RangeError, match="only finite texels"):
            encode_seiler(HUGE, F32)
        with pytest.raises(DomainError, match="non-finite"):
            encode_seiler(HUGE, F32, rescale=True)

    def test_overflowing_zigzag_rows_are_refused(self):
        segs = [ControlPolygon([0.0, 1e308, 1.7e308]), ControlPolygon([1.7e308, -1e308, 0.0])]
        for opts in ({}, {"seed": "search"}, {"rescale": True}):
            with pytest.raises(TexCurveError):
                encode_dc_zigzag(segs, F32, **opts)

    def test_overflowing_rational_is_refused(self):
        with pytest.raises(RangeError, match="only finite texels"):
            encode_rational(ControlPolygon([[1e308], [0.5], [1.0]]), [1.0, 10.0, 1.0], F32)
        # the homogeneous lift w * b itself overflows
        with pytest.raises(DomainError, match="finite"):
            encode_rational(ControlPolygon([[1.0], [1e308], [1.0]]), [1.0, 10.0, 1.0], F32)

    @pytest.mark.parametrize("weight", (np.inf, np.nan))
    def test_non_finite_weight_is_a_domain_error(self, weight):
        with pytest.raises(DomainError, match="positive and finite"):
            encode_rational(ControlPolygon([0.0, 1.0, 0.0]), [1.0, weight, 1.0], F32)


# The per-element loops the array encoder replaced, kept as its bit oracles.


def fit_range_oracle(values):
    vals = np.asarray(values, dtype=float)
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
    return scale, offset


def zigzag_rows_oracle(segments, seed):
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


def zigzag_best_seed_oracle(segments):
    channels = segments[0].channels
    t0, b0 = zigzag_rows_oracle(segments, np.zeros(channels))
    t1, b1 = zigzag_rows_oracle(segments, np.ones(channels))
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


def zigzag_residuals_oracle(curve, segments):
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


def zigzag_encode_oracle(segments, fmt, seed, rescale):
    """The old encode_dc_zigzag after its checks, on the oracle rows and seed."""
    if isinstance(seed, str):
        seed = zigzag_best_seed_oracle(segments)
    elif seed is None:
        seed = segments[0].points[1]
    top, bottom = zigzag_rows_oracle(segments, np.asarray(seed, dtype=float))
    return encoder._finish(np.stack([top, bottom])[None], fmt, Layout.DC_ZIGZAG, 2,
                           segment_count=len(segments), rescale=rescale, context="zig-zag")


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _channel_values(rng, kind, size):
    """One channel of `size` values: in [0, 1], out of it at a drawn scale,
    constant, a few repeated values (ties between equal extremes) or signed
    zeros and units."""
    if kind == "in":
        return rng.uniform(0.0, 1.0, size)
    if kind == "out":
        return rng.uniform(-3.0, 3.0, size) * 10.0 ** rng.uniform(-3.0, 3.0)
    if kind == "const":
        return np.full(size, rng.choice([0.0, -0.0, 0.5, 1.0, -2.0, 7.25]))
    if kind == "ties":
        return rng.choice([0.0, 0.25, 0.5, 1.0, 1.5], size)
    return rng.choice([0.0, -0.0, 1.0, -1.0], size)


_KINDS = ("in", "out", "const", "ties", "zeros")


def _zigzag_case(rng, n, channels, kinds):
    """n C0-joined quadratics whose channels each follow one kind."""
    pts = np.stack([_channel_values(rng, kind, 2 * n + 1) for kind in kinds], axis=1)
    return [ControlPolygon(pts[2 * k : 2 * k + 3]) for k in range(n)]


@st.composite
def zigzag_cases(draw):
    n = draw(st.integers(1, 64))
    channels = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=channels, max_size=channels))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _zigzag_case(rng, n, channels, kinds), rng


def _outcome(fn):
    """(grid bits, scale bits, offset bits) or (error type, message)."""
    try:
        curve = fn()
    except TexCurveError as exc:
        return type(exc), str(exc)
    return curve.grid.data.tobytes(), curve.transform.scale.tobytes(), curve.transform.offset.tobytes()


def _check_zigzag_against_oracles(segments, rng):
    points = np.stack([seg.points for seg in segments])
    seed = rng.choice([0.0, -0.0, 0.5, 1.0]) + np.zeros(segments[0].channels)
    for want, got in zip(zigzag_rows_oracle(segments, seed), encoder._zigzag_rows(points, seed)):
        assert _same_bits(got, want)
    assert _same_bits(encoder._zigzag_best_seed(points), zigzag_best_seed_oracle(segments))
    for fmt in TexelFormat:
        for rescale in (False, True):
            for seed_arg in (None, seed, "search"):
                got = _outcome(lambda: encode_dc_zigzag(segments, fmt, seed_arg, rescale=rescale))
                want = _outcome(lambda: zigzag_encode_oracle(segments, fmt, seed_arg, rescale))
                assert got == want
                if isinstance(got[0], bytes):
                    curve = encode_dc_zigzag(segments, fmt, seed_arg, rescale=rescale)
                    assert _same_bits(zigzag_residuals(curve, segments),
                                      zigzag_residuals_oracle(curve, segments))


class TestArrayEncoderOracles:
    @settings(max_examples=60, deadline=None)
    @given(zigzag_cases())
    def test_zigzag_matches_per_element_loops(self, case):
        _check_zigzag_against_oracles(*case)

    def test_zigzag_seeded_cases(self):
        rng = np.random.default_rng(97)
        for _ in range(40):
            n = int(rng.integers(1, 65))
            channels = int(rng.integers(1, 5))
            kinds = rng.choice(_KINDS, channels)
            _check_zigzag_against_oracles(_zigzag_case(rng, n, channels, kinds), rng)

    def test_seed_takes_the_first_extreme(self):
        # the seed-0 rows hold -0.0 and 0.0 as tied lower limits; the first
        # one in texel order sets the sign of the zero seed
        segs = [ControlPolygon([0.0, -0.0, 0.0]), ControlPolygon([0.0, 0.5, 0.0])]
        points = np.stack([seg.points for seg in segs])
        want = zigzag_best_seed_oracle(segs)
        assert _same_bits(want, np.array([-0.0]))
        assert _same_bits(encoder._zigzag_best_seed(points), want)

    @pytest.mark.parametrize("middles, want", [((1e17,), 1e17), ((1e17, -1e17), 2e17)])
    def test_seed_slopes_are_read_off_the_chain(self, middles, want):
        # joins at 0 and middle points near 1e17: each chain texel but U_0
        # is the seed or its negative plus a constant near 2e17·k, whose
        # ulp is at least 32, so its texel at seed 1 minus its texel at
        # seed 0 rounds to 0. Read off the chain, the last chain texel pins
        # the seed to within 1 of c = 2e17 (one segment) or 4e17 (two).
        # With U_0 in [0, 1] the bounds are c (c ± 1 rounds to c) and 1,
        # and the center is c / 2.
        segs = [ControlPolygon([0.0, m, 0.0]) for m in middles]
        points = np.stack([seg.points for seg in segs])
        assert _same_bits(encoder._zigzag_best_seed(points), np.array([want]))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 12), st.lists(st.sampled_from(_KINDS), min_size=4,
                                                           max_size=4), st.integers(0, 2**32 - 1))
    def test_fit_range_matches_per_channel_loop(self, channels, count, kinds, seed):
        rng = np.random.default_rng(seed)
        values = np.stack([_channel_values(rng, kind, count) for kind in kinds[:channels]], axis=-1)
        for shaped in (values, values.reshape(1, 1, count, channels)):
            for fmt in TexelFormat:
                tf = fit_range(shaped, fmt)
                scale, offset = fit_range_oracle(shaped)
                assert _same_bits(tf.scale, scale) and _same_bits(tf.offset, offset)

    def test_join_error_names_the_first_broken_join(self):
        segs = [ControlPolygon([0.0, 0.5, 0.25]), ControlPolygon([0.25, 0.5, 0.75]),
                ControlPolygon([0.7, 0.1, 0.2]), ControlPolygon([0.2, 0.1, 0.0]),
                ControlPolygon([0.5, 0.5, 0.5])]
        with pytest.raises(JoinError) as raised:
            encode_dc_zigzag(segs, F32)
        assert str(raised.value) == "segments 1 and 2 do not join exactly (C0 violated)"

    def test_signed_zero_joins_hold(self):
        segs = [ControlPolygon([[0.5, 0.0], [0.25, 1.0], [0.0, -0.0]]),
                ControlPolygon([[-0.0, 0.0], [0.25, 1.0], [0.5, 0.0]])]
        assert encode_dc_zigzag(segs, F32).segment_count == 2


# -- every texel placement against the same placement written out by hand -----

#: signed zeros, subnormals and values whose difference terms overflow
_PLACEMENT_VALUES = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                      1e308, -1e308]) | st.floats(-2.0, 2.0))


def _drawn_points(data, rows, channels):
    values = data.draw(st.lists(_PLACEMENT_VALUES, min_size=rows * channels,
                                max_size=rows * channels))
    return np.reshape(values, (rows, channels))


def dc_quadratic_placement(points):
    a, b, c = points
    return np.array([[[a, b], [b, c]]])


def dc_cubic_placement(points):
    """Slice 0 holds the quadratic placement of ABC, slice 1 that of BCD."""
    a, b, c, d = points
    return np.array([[[a, b], [b, c]], [[b, c], [c, d]]])


def bicubic_placement(net):
    """Channel c holds the cubic placement of control row c."""
    return np.stack([dc_cubic_placement(row[:, None])[..., 0] for row in net], axis=-1)


@np.errstate(over="ignore", invalid="ignore")
def seiler_placement(poly):
    terms = seiler_terms(poly)
    b = poly.points
    if poly.degree == 2:
        (d1,) = terms.diffs
        return np.array([[[b[0], b[2]], [b[0] + d1, b[2] + d1]]])
    if poly.degree == 3:
        return np.array([[[b[0], b[3]], [terms.s1, terms.s2]]])
    if poly.degree == 4:
        d1, d2, d3 = terms.diffs
        return np.array([[[b[0], b[4]], [b[0], b[4]]],
                         [[b[0] + d1, b[4] + d3], [b[0] + d1 + d2, b[4] + d3 + d2]]])
    d1, d2, d3, d4 = terms.diffs
    return np.array([[[b[0], b[5]], [b[0], b[5]]],
                     [[b[0] + d1, b[5] + d4], [b[0] + d1 + d2, b[5] + d4 + d3]]])


def _seiler_oracle(poly, fmt, rescale):
    values = seiler_placement(poly)
    layout = Layout.SEILER_2D if poly.degree <= 3 else Layout.SEILER_3D
    try:
        return encoder._finish(values, fmt, layout, poly.degree, rescale=rescale,
                               context="seiler")
    except RangeError as exc:
        span = (float(values.min()), float(values.max()))
        raise RangeError(f"{exc} (difference-term values span [{span[0]!r}, {span[1]!r}])") \
            from None


def _rational_oracle(num, weights, fmt, scheme, rescale):
    hom = homogeneous(num, weights)
    if scheme == "seiler":
        values, inner = seiler_placement(hom), Layout.SEILER_2D
    elif hom.degree == 2:
        values, inner = dc_quadratic_placement(hom.points), Layout.DC_QUAD_2X2
    else:
        values, inner = dc_cubic_placement(hom.points), Layout.DC_CUBIC_2X2X2
    return encoder._finish(values, fmt, Layout.RATIONAL_HOMOGENEOUS, num.degree,
                           rescale=rescale, inner_layout=inner, context="rational")


def _dc_case(data, fmt, rescale):
    degree = data.draw(st.sampled_from([2, 3]))
    poly = ControlPolygon(_drawn_points(data, degree + 1, data.draw(st.integers(1, 4))))
    if degree == 2:
        return (lambda: encode_dc_quadratic(poly, fmt, rescale=rescale),
                lambda: encoder._finish(dc_quadratic_placement(poly.points), fmt,
                                        Layout.DC_QUAD_2X2, 2, rescale=rescale,
                                        context="dc quadratic"))
    return (lambda: encode_dc_cubic(poly, fmt, rescale=rescale),
            lambda: encoder._finish(dc_cubic_placement(poly.points), fmt, Layout.DC_CUBIC_2X2X2,
                                    3, rescale=rescale, context="dc cubic"))


def _bicubic_case(data, fmt, rescale):
    net = _drawn_points(data, 4, 4)
    return (lambda: encode_bicubic_rgba(net, fmt, rescale=rescale),
            lambda: encoder._finish(bicubic_placement(net), fmt, Layout.BICUBIC_RGBA, 3,
                                    rescale=rescale, context="bicubic"))


def _seiler_case(data, fmt, rescale):
    poly = ControlPolygon(_drawn_points(data, data.draw(st.integers(3, 6)),
                                        data.draw(st.integers(1, 4))))
    return (lambda: encode_seiler(poly, fmt, rescale=rescale),
            lambda: _seiler_oracle(poly, fmt, rescale))


def _rational_case(scheme):
    def case(data, fmt, rescale):
        num = ControlPolygon(_drawn_points(data, data.draw(st.integers(3, 4)),
                                           data.draw(st.integers(1, 3))))
        weights = data.draw(st.lists(
            st.sampled_from([5e-324, 2.2250738585072014e-308, 1.0, 1e308]) | st.floats(0.25, 4.0),
            min_size=len(num.points), max_size=len(num.points)))
        return (lambda: encode_rational(num, weights, fmt, scheme=scheme, rescale=rescale),
                lambda: _rational_oracle(num, weights, fmt, scheme, rescale))
    return case


#: name -> fn(data, fmt, rescale) giving (the encoder call, its oracle call)
_PLACEMENT_CASES = {
    "dc": _dc_case,
    "bicubic": _bicubic_case,
    "seiler": _seiler_case,
    "rational-seiler": _rational_case("seiler"),
    "rational-dc": _rational_case("dc"),
}


def _outcome(call):
    """What a call stores, bit for bit, or the error it raises."""
    try:
        curve = call()
    except TexCurveError as exc:
        return type(exc), str(exc)
    return (curve.layout, curve.degree, curve.inner_layout, curve.grid.dims, curve.grid.fmt,
            curve.grid.data.tobytes(), curve.transform.scale.tobytes(),
            curve.transform.offset.tobytes())


@pytest.mark.parametrize("case", sorted(_PLACEMENT_CASES))
@settings(max_examples=150, deadline=None)
@given(st.sampled_from(TexelFormat), st.booleans(), st.data())
def test_encoders_store_their_placement_written_out(case, fmt, rescale, data):
    """Each encoder stores what `_finish` makes of its texel placement,
    written out here degree by degree, or raises the same error."""
    encode, oracle = _PLACEMENT_CASES[case](data, fmt, rescale)
    assert _outcome(encode) == _outcome(oracle)


def _exactly(message):
    """A `pytest.raises` pattern that matches `message` and nothing more."""
    return "^" + re.escape(message) + "$"


class TestRefusalsKeepTheirTypeMessageAndOrder:
    """The encoders' own guards (`fit_range`, the range check, the finite
    check of `_finish`, the degree and scheme checks, the zig-zag audit),
    each with its exact type and message, and the first of two broken rules
    named."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fit_range_non_finite(self, bad):
        with pytest.raises(DomainError,
                           match=_exactly("cannot fit a range over non-finite values")):
            fit_range(np.array([[0.5, 0.25], [bad, 2.0]]), U8)

    def test_fit_range_checks_the_shape_first(self):
        with pytest.raises(DomainError, match=r"^cannot fit a range over shape \(\)"):
            fit_range(np.float64(np.nan), U8)

    @pytest.mark.parametrize("fmt", [U8, TexelFormat.UNORM16], ids=lambda f: f.value)
    @pytest.mark.parametrize("corners, idx, value", [
        ([[0.5, -0.25], [2.0, 0.5]], (0, 0, 1, 0), "-0.25"),
        ([[0.5, 1.0], [1.0 + 2.0**-52, -5e-324]], (0, 1, 0, 0), "1.0000000000000002"),
        ([[0.5, 0.5], [0.5, -np.inf]], (0, 1, 1, 0), "-inf"),
        ([[np.nan, 2.0], [0.5, 0.5]], (0, 0, 1, 0), "2.0"),  # NaN passes the range check
    ], ids=["below", "above", "-inf", "nan-then-above"])
    def test_range_check_names_the_first_texel(self, fmt, corners, idx, value):
        with pytest.raises(RangeError, match=_exactly(
                f"patch: texel {idx} has value {value}, outside [0, 1] for {fmt.value}; "
                "pass rescale=True to fit the range")):
            encode_bilinear_patch(corners, fmt)

    def test_range_check_runs_on_every_channel(self):
        net = np.full((2, 2, 3), 0.5)
        net[1, 0, 2] = 1.5
        with pytest.raises(RangeError, match=r"^patch: texel \(0, 1, 0, 2\) has value 1\.5,"):
            encode_bilinear_patch(net, U8)

    def test_range_check_advises_on_the_weight_channel(self):
        poly = ControlPolygon([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        with pytest.raises(RangeError, match=_exactly(
                "rational: texel (0, 1, 0, 2) has value 1.4, outside [0, 1] for unorm8; "
                "no rescale reaches the weight channel; use weights whose texels (the seiler "
                "scheme's difference terms) stay in [0, 1], or float32")):
            encode_rational(poly, [0.6, 1.0, 0.6], U8, rescale=True)

    def test_range_check_advises_rescale_on_a_rational_point_channel(self):
        poly = ControlPolygon([[0.1, -0.2], [0.3, 0.4], [0.5, 0.6]])
        with pytest.raises(RangeError, match=_exactly(
                "rational: texel (0, 0, 0, 1) has value -0.2, outside [0, 1] for unorm8; "
                "pass rescale=True to fit the range")):
            encode_rational(poly, np.ones(3), U8, scheme="dc")

    def test_nan_is_refused_by_the_finite_check(self):
        for fmt in TexelFormat:
            with pytest.raises(RangeError, match=_exactly(
                    f"patch: texel (0, 1, 0, 0) has value nan, which {fmt.value} stores as nan; "
                    "only finite texels can be stored")):
                encode_bilinear_patch([[0.0, 0.5], [np.nan, 1.0]], fmt)

    def test_float32_overflow_names_the_texel_and_its_stored_value(self):
        with pytest.raises(RangeError, match=_exactly(
                "patch: texel (0, 0, 1, 0) has value 1e+300, which float32 stores as inf; "
                "only finite texels can be stored")):
            encode_bilinear_patch([[0.5, 1e300], [-1e300, 0.5]], F32)

    def test_float32_overflow_of_a_seiler_term_reports_the_span(self):
        with pytest.raises(RangeError, match=_exactly(
                "seiler: texel (0, 1, 0, 0) has value 2e+39, which float32 stores as inf; "
                "only finite texels can be stored (difference-term values span [0.0, 2e+39])")):
            encode_seiler(ControlPolygon([0.0, 1e39, 0.0]), F32)

    def test_dc_cubic_degree(self):
        with pytest.raises(UnsupportedDegreeError,
                           match=_exactly("cubic layout needs degree 3, got 2")):
            encode_dc_cubic(ControlPolygon([0.0, 1.0, 0.0]), F32)

    @pytest.mark.parametrize("degree", [1, 4, 5])
    def test_rational_degree(self, degree):
        with pytest.raises(UnsupportedDegreeError,
                           match=_exactly("rational encoding supports degrees 2 and 3")):
            encode_rational(ControlPolygon(np.linspace(0, 1, degree + 1)), np.ones(degree + 1),
                            F32, scheme="nosuch")  # the degree before the scheme

    def test_rational_scheme(self):
        with pytest.raises(DomainError, match=_exactly("unknown rational scheme 'bezier'")):
            encode_rational(ControlPolygon([0.0, 1.0, 0.0]), np.ones(3), F32, scheme="bezier")

    def test_residuals_need_a_zigzag(self):
        curve = encode_dc_quadratic(ControlPolygon([0.0, 1.0, 0.0]), F32)
        with pytest.raises(LayoutError,
                           match=_exactly("constraint audit applies to zig-zag grids only")):
            zigzag_residuals(curve, [])


#: every encoder, each on an input that every format can store with rescale
_EVERY_ENCODER = {
    "dc-quadratic": lambda fmt: encode_dc_quadratic(ControlPolygon([0.1, 0.9, 0.3]), fmt),
    "dc-cubic": lambda fmt: encode_dc_cubic(ControlPolygon([0.1, 0.9, 0.3, 0.7]), fmt),
    "zigzag": lambda fmt: encode_dc_zigzag(
        [ControlPolygon([0.1, 0.5, 0.3]), ControlPolygon([0.3, 0.2, 0.6])], fmt, rescale=True),
    "seiler-2d": lambda fmt: encode_seiler(ControlPolygon([0.1, 0.9, 0.3, 0.7]), fmt,
                                           rescale=True),
    "seiler-3d": lambda fmt: encode_seiler(ControlPolygon([0.1, 0.9, 0.3, 0.7, 0.2]), fmt,
                                           rescale=True),
    "patch": lambda fmt: encode_bilinear_patch([[0.1, 0.9], [0.3, 0.7]], fmt),
    "bicubic": lambda fmt: encode_bicubic_rgba(np.linspace(0.0, 1.0, 16).reshape(4, 4), fmt),
    "rational-seiler": lambda fmt: encode_rational(ControlPolygon([[0.1, 0.2], [0.9, 0.4],
                                                                   [0.3, 0.6]]),
                                                   np.ones(3), fmt, rescale=True),
    "rational-dc": lambda fmt: encode_rational(ControlPolygon([0.1, 0.9, 0.3, 0.7]),
                                               [1.0, 0.8, 0.9, 1.0], fmt, scheme="dc"),
}


@pytest.mark.parametrize("fmt", list(TexelFormat), ids=lambda f: f.value)
@pytest.mark.parametrize("encode", _EVERY_ENCODER.values(), ids=_EVERY_ENCODER.keys())
def test_every_encode_runs_the_quantizer_once(monkeypatch, encode, fmt):
    calls = []
    quantize = core._quantize_array

    def counted(values, f):
        calls.append(f)
        return quantize(values, f)

    for module in (core, encoder):
        monkeypatch.setattr(module, "_quantize_array", counted)
    curve = encode(fmt)
    assert calls == [fmt]
    monkeypatch.undo()
    # the grid is the one a checking constructor accepts, with the same bytes
    grid = curve.grid
    again = TexelGrid(grid.dims, grid.channels, fmt, grid.data)
    assert again.data.tobytes() == grid.data.tobytes()
