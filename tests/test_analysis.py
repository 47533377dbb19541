import dataclasses
import tracemalloc

import numpy as np
import pytest

from texcurve import (
    ChannelMismatchError,
    ControlPolygon,
    HomogeneousDivideError,
    LayoutError,
    SamplerConfig,
    TexelFormat,
    encode_dc_cubic,
    encode_dc_quadratic,
    encode_rational,
    encode_seiler,
    error_bound_estimate,
    eval_bernstein,
    eval_rational,
    eval_rational_tex,
    render_deviation_image,
    sweep,
)
from texcurve.analysis import _default_mode, report_to_csv, write_csv, write_ppm
from texcurve.core import Layout, ValueTransform
from texcurve.reference import elevate_degree
from texcurve.texeval import parameter_coords
from conftest import IDEAL, BITS8, random_polygon

F32 = TexelFormat.FLOAT32
U8 = TexelFormat.UNORM8


def bernstein_ref(poly):
    return lambda t: eval_bernstein(poly, t)


class TestSweep:
    def test_ideal_sampler_tiny_deviation(self, rng):
        poly = random_polygon(rng, 3, 2)
        enc = encode_dc_cubic(poly, F32)
        report = sweep(enc, bernstein_ref(poly), "dc", IDEAL, 1024)
        assert np.max(report.max_dev) <= 1e-6
        assert report.sample_count == 1024

    def test_constant_curve_error_is_texel_quantization_only(self):
        poly = ControlPolygon([0.3, 0.3, 0.3])
        enc = encode_dc_quadratic(poly, U8)
        report = sweep(enc, bernstein_ref(poly), "dc", BITS8, 512)
        # half a unorm8 step, plus a couple ulps since 0.3 itself rounds
        assert np.max(report.max_dev) <= 1.0 / (2 * 255) + 1e-15

    def test_summary_invariants(self, rng):
        poly = random_polygon(rng, 3)
        enc = encode_dc_cubic(poly, F32)
        report = sweep(enc, bernstein_ref(poly), "dc", BITS8, 256)
        assert np.all(report.max_dev >= report.mean_dev)
        assert np.all(report.rms_dev <= report.max_dev)
        assert np.all(report.mean_dev >= 0)

    def test_deterministic(self, rng):
        poly = random_polygon(rng, 3)
        enc = encode_dc_cubic(poly, F32)
        a = sweep(enc, bernstein_ref(poly), "dc", BITS8, 128)
        b = sweep(enc, bernstein_ref(poly), "dc", BITS8, 128)
        assert np.array_equal(a.test, b.test)
        assert report_to_csv(a) == report_to_csv(b)

    def test_mode_layout_mismatch(self, rng):
        enc = encode_seiler(random_polygon(rng, 3), F32)
        with pytest.raises(LayoutError):
            sweep(enc, bernstein_ref(random_polygon(rng, 3)), "dc", IDEAL, 16)

    def test_seiler_vs_dc_error_ordering(self):
        # golden regression on the hump cubic: the difference-term layout
        # feels coordinate quantization hardest (its texels sit far outside
        # the control hull), so its max error lands above the trilinear
        # packing's. Pinned values are measured, not derived.
        poly = ControlPolygon([0.0, 1.0, 1.0, 0.0])
        ref = bernstein_ref(poly)
        dc = sweep(encode_dc_cubic(poly, F32), ref, "dc", BITS8, 4096)
        se = sweep(encode_seiler(poly, F32), ref, "seiler", BITS8, 4096)
        dc_max = float(np.max(dc.max_dev))
        se_max = float(np.max(se.max_dev))
        assert se_max >= dc_max
        assert dc_max == pytest.approx(0.005823617453786013, rel=1e-9)
        assert se_max == pytest.approx(0.005855837157348165, rel=1e-9)


class TestCsv:
    def test_schema_golden(self):
        poly = ControlPolygon([0.0, 1.0])
        # degree-1 curves cannot be encoded; use the quadratic elevation
        quad = elevate_degree(poly, 2)
        enc = encode_dc_quadratic(quad, F32)
        report = sweep(enc, bernstein_ref(quad), "dc", IDEAL, 3)
        text = report_to_csv(report)
        lines = text.strip().split("\n")
        assert lines[0] == "t,ref_0,test_0,absdev_0"
        assert lines[1].startswith("0.0,0.0,")
        assert lines[-3].startswith("#max,")
        assert lines[-2].startswith("#mean,")
        assert lines[-1].startswith("#rms,")

    def test_file_round_trip_bytes(self, rng, tmp_path):
        poly = random_polygon(rng, 2)
        enc = encode_dc_quadratic(poly, F32)
        report = sweep(enc, bernstein_ref(poly), "dc", BITS8, 64)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(report, p1)
        write_csv(report, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestRender:
    def test_identical_curves_only_white(self, rng):
        poly = random_polygon(rng, 3, 1, 0.1, 0.9)
        enc = encode_dc_cubic(poly, F32)

        # reference that reproduces the texture path exactly
        from texcurve import eval_dc

        ref = lambda t: eval_dc(enc, t, IDEAL)
        img = render_deviation_image(enc, ref, "dc", IDEAL, 128, 64)
        colors = {tuple(px) for px in img.reshape(-1, 3)}
        assert colors <= {(0, 0, 0), (255, 255, 255)}

    def test_positive_offset_renders_green(self, rng):
        poly = random_polygon(rng, 3, 1, 0.2, 0.8)
        enc = encode_dc_cubic(poly, F32)
        ref = lambda t: eval_bernstein(poly, t) - 0.05  # test sits above reference
        img = render_deviation_image(enc, ref, "dc", IDEAL, 128, 64)
        flat = img.reshape(-1, 3)
        assert np.any(np.all(flat == (0, 255, 0), axis=1))
        assert not np.any(np.all(flat == (255, 0, 0), axis=1))

    def test_sign_pattern_matches_sweep(self, rng):
        poly = random_polygon(rng, 3, 1, 0.1, 0.9)
        enc = encode_dc_cubic(poly, F32)
        ref = bernstein_ref(poly)
        width, height = 96, 48
        report = sweep(enc, ref, "dc", BITS8, width)
        img = render_deviation_image(enc, ref, "dc", BITS8, width, height)
        reds = np.all(img == (255, 0, 0), axis=2).sum()
        greens = np.all(img == (0, 255, 0), axis=2).sum()
        deltas = report.test[:, 0] - report.reference[:, 0]
        # every rendered deviation pixel corresponds to a signed record;
        # white overdraw can only reduce the counts
        assert reds <= np.sum(deltas < 0)
        assert greens <= np.sum(deltas > 0)
        if np.any(deltas < 0):
            assert reds > 0 or np.all(np.abs(deltas[deltas < 0]) < 1e-3)

    def test_two_channel_curve_renders(self, rng):
        poly = random_polygon(rng, 3, 2, 0.1, 0.9)
        enc = encode_dc_cubic(poly, F32)
        img = render_deviation_image(enc, bernstein_ref(poly), "dc", BITS8, 96, 96)
        colors = {tuple(px) for px in img.reshape(-1, 3)}
        assert (255, 255, 255) in colors
        assert colors <= {(0, 0, 0), (255, 255, 255), (255, 0, 0), (0, 255, 0)}

    def test_unsupported_channel_count(self, rng):
        poly = random_polygon(rng, 3, 3, 0.1, 0.9)
        enc = encode_dc_cubic(poly, F32)
        with pytest.raises(LayoutError):
            render_deviation_image(enc, bernstein_ref(poly), "dc", IDEAL, 32, 32)

    def test_ppm_header(self, rng, tmp_path):
        poly = random_polygon(rng, 2, 1, 0.2, 0.8)
        enc = encode_dc_quadratic(poly, F32)
        img = render_deviation_image(enc, bernstein_ref(poly), "dc", IDEAL, 32, 16)
        path = tmp_path / "img.ppm"
        write_ppm(img, path)
        blob = path.read_bytes()
        assert blob.startswith(b"P6\n32 16\n255\n")
        assert len(blob) == len(b"P6\n32 16\n255\n") + 32 * 16 * 3


def test_default_mode_per_layout():
    # the CLI and error_bound_estimate both take the first mode in the
    # table that lists the layout
    expect = {
        Layout.DC_QUAD_2X2: "dc",
        Layout.DC_CUBIC_2X2X2: "dc",
        Layout.DC_ZIGZAG: "zigzag",
        Layout.SEILER_2D: "seiler",
        Layout.SEILER_3D: "seiler",
        Layout.BILINEAR_PATCH: "patch",
        Layout.BICUBIC_RGBA: "bicubic",
        Layout.RATIONAL_HOMOGENEOUS: "rational",
    }
    assert {layout: _default_mode(layout) for layout in Layout} == expect


class TestErrorBound:
    def test_ideal_bound_is_texel_allowance_only(self, rng):
        poly = random_polygon(rng, 3)
        enc = encode_dc_cubic(poly, F32)
        bound = error_bound_estimate(enc, IDEAL, reference=bernstein_ref(poly))
        assert bound <= 1e-6

    def test_linear_curve_lipschitz_bound(self):
        # a line from 0 to 1 stored as a quadratic moves at unit speed, so
        # one 2^-8 coordinate step moves the value by at most 2^-8
        line = elevate_degree(ControlPolygon([0.0, 1.0]), 2)
        enc = encode_dc_quadratic(line, F32)
        bound = error_bound_estimate(enc, BITS8)
        assert bound <= 2.0**-8 + 1e-9

    def test_sweep_never_exceeds_bound(self, rng):
        for _ in range(20):
            poly = random_polygon(rng, 3)
            enc = encode_dc_cubic(poly, F32)
            ref = bernstein_ref(poly)
            report = sweep(enc, ref, "dc", BITS8, 512)
            bound = error_bound_estimate(enc, BITS8, reference=ref, samples=512)
            assert np.max(report.max_dev) <= bound

    def test_monotone_precision(self, rng):
        curves = [random_polygon(rng, 3) for _ in range(10)]
        encs = [encode_dc_cubic(p, F32) for p in curves]
        prev = None
        for bits in (4, 6, 8, 10, 12):
            cfg = SamplerConfig(subtexel_bits=bits)
            worst = max(
                float(np.max(sweep(e, bernstein_ref(p), "dc", cfg, 512).max_dev))
                for e, p in zip(encs, curves)
            )
            if prev is not None:
                assert worst <= prev
            prev = worst

    def test_mode_validated_like_sweep(self, rng):
        # a quadratic has no hybrid axis: treating its y axis as exact
        # would halve the bound, and an unknown mode must not fall back to dc
        poly = random_polygon(rng, 2)
        enc = encode_dc_quadratic(poly, F32)
        for mode in ("bogus", "dc-hybrid", "zigzag"):
            with pytest.raises(LayoutError):
                sweep(enc, bernstein_ref(poly), mode, BITS8, 64)
            with pytest.raises(LayoutError):
                error_bound_estimate(enc, BITS8, mode=mode)

    def test_surface_layouts_rejected(self, rng):
        from texcurve import encode_bilinear_patch

        enc = encode_bilinear_patch(rng.uniform(0, 1, (2, 2)), F32)
        with pytest.raises(LayoutError):
            error_bound_estimate(enc, BITS8)

    def test_vanishing_decoded_weight_raises_like_the_evaluator(self, rng):
        # weights of 0.001 store as unorm8 code 0, so every decoded weight is 0
        poly = random_polygon(rng, 2, 2, lo=0.0)
        enc = encode_rational(poly, np.full(3, 0.001), U8, scheme="dc")
        with pytest.raises(HomogeneousDivideError):
            eval_rational_tex(enc, np.linspace(0.0, 1.0, 64), BITS8)
        with pytest.raises(HomogeneousDivideError):
            error_bound_estimate(enc, BITS8, samples=64)

    def test_scaled_weight_channel_rejected(self, rng):
        poly = random_polygon(rng, 2, 2, lo=0.0)
        w = np.array([1.0, 0.5, 1.0])
        enc = encode_rational(poly, w, F32)
        bad = dataclasses.replace(enc, transform=ValueTransform([1.0, 1.0, 2.0], [0.0, 0.0, 0.0]))
        ref = lambda t: eval_rational(poly, w, t)
        with pytest.raises(LayoutError):
            sweep(bad, ref, "rational", BITS8, 64)
        with pytest.raises(LayoutError):
            error_bound_estimate(bad, BITS8, samples=64)
        with pytest.raises(LayoutError):
            parameter_coords(bad, 0.5)
        with pytest.raises(LayoutError):  # the layout is checked before the parameter
            eval_rational_tex(bad, 2.0, BITS8)

    def test_peak_memory_is_one_block(self, rng):
        poly = random_polygon(rng, 3, 3)
        enc = encode_dc_cubic(poly, F32)
        tracemalloc.start()
        try:
            error_bound_estimate(enc, BITS8, reference=bernstein_ref(poly), samples=2**17)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 25e6


class TestReferenceCall:
    """The reference is called once, with the whole lattice."""

    def test_type_error_propagates(self, rng):
        poly = random_polygon(rng, 3)
        enc = encode_dc_cubic(poly, F32)

        def scalar_only(t):
            if np.ndim(t):
                raise TypeError("scalar parameters only")
            return eval_bernstein(poly, t)

        with pytest.raises(TypeError, match="scalar parameters only"):
            sweep(enc, scalar_only, "dc", BITS8, 64)
        with pytest.raises(TypeError, match="scalar parameters only"):
            error_bound_estimate(enc, BITS8, reference=scalar_only, samples=64)

    def test_wrong_shape_rejected(self, rng):
        poly = random_polygon(rng, 3, 2)
        enc = encode_dc_cubic(poly, F32)
        one_channel = lambda t: eval_bernstein(poly, t)[:, :1]
        with pytest.raises(ChannelMismatchError):
            sweep(enc, one_channel, "dc", BITS8, 64)
        with pytest.raises(ChannelMismatchError):
            error_bound_estimate(enc, BITS8, reference=one_channel, samples=64)
