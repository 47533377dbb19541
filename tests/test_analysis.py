import dataclasses
import functools
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from texcurve import (
    ChannelMismatchError,
    ControlPolygon,
    DomainError,
    HomogeneousDivideError,
    LayoutError,
    SamplerConfig,
    TexelFormat,
    encode_dc_cubic,
    encode_dc_quadratic,
    encode_dc_zigzag,
    encode_rational,
    encode_seiler,
    error_bound_estimate,
    eval_bernstein,
    eval_bezier_chain,
    eval_rational_tex,
    render_deviation_image,
    sweep,
)
from texcurve import analysis, sampler, texeval
from texcurve.analysis import _default_mode, report_to_csv, write_csv, write_ppm
from texcurve.core import Layout, ValueTransform
from texcurve.reference import elevate_degree
from texcurve.sampler import blend_with_fractions, texel_cell
from texcurve.texeval import _BLOCK, _decode, _in_blocks, eval_dc, parameter_coords
from conftest import IDEAL, BITS8, one_curve_per_layout, random_c0_quadratics, random_polygon

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

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_sweep_values_rejected(self, rng, channels, bad):
        poly = random_polygon(rng, 3, channels, 0.1, 0.9)
        enc = encode_dc_cubic(poly, F32)

        def ref(t):
            out = eval_bernstein(poly, t)
            out[len(t) // 2, channels - 1] = bad
            return out

        with pytest.raises(DomainError, match="non-finite"):
            render_deviation_image(enc, ref, "dc", IDEAL, 32, 16)

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
    assert analysis._MODES is texeval._MODES  # the one table, reached through either module


#: mode -> the layouts it evaluates, written out here rather than read from
#: the mode table
MODE_LAYOUTS = {
    "dc": {Layout.DC_QUAD_2X2, Layout.DC_CUBIC_2X2X2},
    "dc-hybrid": {Layout.DC_CUBIC_2X2X2},
    "seiler": {Layout.SEILER_2D, Layout.SEILER_3D},
    "zigzag": {Layout.DC_ZIGZAG},
    "patch": {Layout.BILINEAR_PATCH},
    "bicubic": {Layout.BICUBIC_RGBA},
    "rational": {Layout.RATIONAL_HOMOGENEOUS},
}
CURVES = one_curve_per_layout()


def _unused_reference(t):
    pytest.fail("the reference was called before the mode was checked")


@pytest.mark.parametrize("mode, layout", [
    pytest.param(mode, layout, id=f"{mode}-{layout.value}")
    for mode in [*MODE_LAYOUTS, "bogus"] for layout in Layout
    if layout not in MODE_LAYOUTS.get(mode, ())
])
def test_sweep_and_bound_reject_mode_layout_mismatches(mode, layout):
    with pytest.raises(LayoutError):
        sweep(CURVES[layout], _unused_reference, mode, BITS8, 16)
    with pytest.raises(LayoutError):
        error_bound_estimate(CURVES[layout], BITS8, reference=_unused_reference,
                             mode=mode, samples=16)


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

    @pytest.mark.parametrize("samples", [-1, 0, 1])
    def test_sample_count_checked_like_sweep(self, rng, samples):
        poly = random_polygon(rng, 2)
        enc = encode_dc_quadratic(poly, F32)
        for cfg in (IDEAL, BITS8):
            with pytest.raises(DomainError):
                sweep(enc, bernstein_ref(poly), "dc", cfg, samples)
            with pytest.raises(DomainError):
                error_bound_estimate(enc, cfg, samples=samples)

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
        enc = encode_rational(poly, [1.0, 0.5, 1.0], F32)
        # the curve itself refuses the transform, so no sweep, bound or
        # evaluation ever sees it
        for scale, offset in (([1.0, 1.0, 2.0], [0.0, 0.0, 0.0]),
                              ([1.0, 1.0, 1.0], [0.0, 0.0, 0.5])):
            with pytest.raises(LayoutError, match="identity transform on the weight channel"):
                dataclasses.replace(enc, transform=ValueTransform(scale, offset))

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


def per_combination_bound_block(curve, t, cfg, hybrid):
    """The bound block as one blend per fraction combination: the exact
    blend, then one `blend_with_fractions` probe per combination of the
    adjacent representable fractions, each decoded and compared."""
    coords = parameter_coords(curve, t)
    extents = (curve.grid.width, curve.grid.height, curve.grid.depth)
    bases, fracs = zip(*(texel_cell(c, extent) for c, extent in zip(coords, extents)))
    exact = _decode(curve, blend_with_fractions(curve.grid, bases, fracs))
    dev = np.zeros_like(exact)
    if cfg.subtexel_bits > 0:
        step = float(1 << cfg.subtexel_bits)
        options = []
        for frac in fracs:
            lo = np.floor(frac * step) / step
            options.append((lo, np.minimum(lo + 1.0 / step, 1.0)))
        if hybrid:
            options[-1] = (fracs[-1],)
        for combo in itertools.product(*options):
            probe = _decode(curve, blend_with_fractions(curve.grid, bases, combo))
            dev = np.maximum(dev, np.abs(probe - exact))
    return np.stack([exact, dev], axis=1)


def _bound_cases(fmt):
    """(mode, curve) for every 1-parameter mode, rational inner layouts included."""
    rng = np.random.default_rng([11, len(fmt.value)])
    quad = random_polygon(rng, 2, 2, lo=0.0)
    cubic = random_polygon(rng, 3, 3, lo=0.0)
    dc_cubic = encode_dc_cubic(cubic, fmt, rescale=True)
    return (
        ("dc", encode_dc_quadratic(quad, fmt, rescale=True)),
        ("dc", dc_cubic),
        ("dc-hybrid", dc_cubic),
        ("seiler", encode_seiler(random_polygon(rng, 3, 2), fmt, rescale=True)),
        ("seiler", encode_seiler(random_polygon(rng, 5), fmt, rescale=True)),
        ("zigzag", encode_dc_zigzag(random_c0_quadratics(rng, 4, 2), fmt, rescale=True)),
        ("rational", encode_rational(quad, [1.0, 0.7, 1.0], fmt, scheme="seiler",
                                     rescale=True)),
        ("rational", encode_rational(quad, [0.9, 0.6, 1.0], fmt, scheme="dc", rescale=True)),
        ("rational", encode_rational(random_polygon(rng, 3, 1, lo=0.0), [1.0, 0.6, 0.8, 0.9],
                                     fmt, scheme="dc", rescale=True)),
    )


#: the bound reads only the bit count, never the rounding
BOUND_CONFIGS = tuple(SamplerConfig(subtexel_bits=b) for b in (0, 1, 8, 12))


@pytest.mark.parametrize("fmt", (U8, TexelFormat.UNORM16, F32), ids=lambda f: f.value)
def test_bound_matches_per_combination_probes(fmt):
    """The bound's blocks and its value equal, bit for bit, a bound that
    blends each probe combination on its own."""
    for mode, curve in _bound_cases(fmt):
        channels = curve.grid.channels - (curve.layout is Layout.RATIONAL_HOMOGENEOUS)
        end = float(curve.segment_count) if mode == "zigzag" else 1.0
        ts = np.linspace(0.0, end, _BLOCK + 300)
        zero = lambda t: np.zeros((np.size(t), channels))
        hybrid = mode == "dc-hybrid"
        for cfg in BOUND_CONFIGS:
            got = _in_blocks(functools.partial(analysis._bound_block, hybrid=hybrid), curve, ts, cfg)
            want = _in_blocks(functools.partial(per_combination_bound_block, hybrid=hybrid),
                              curve, ts, cfg)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (mode, cfg)
            for ref in (None, zero):
                bound = error_bound_estimate(curve, cfg, reference=ref, mode=mode, samples=1001)
                with mock.patch.object(analysis, "_bound_block", per_combination_bound_block):
                    expect = error_bound_estimate(curve, cfg, reference=ref, mode=mode,
                                                  samples=1001)
                assert np.float64(bound).tobytes() == np.float64(expect).tobytes(), (mode, cfg)


@pytest.mark.parametrize("mode, degree, lerps", [
    ("dc", 3, 6),         # exact x, y, z; probes x, y, z over their option axes
    ("dc-hybrid", 3, 6),  # the same, the depth axis at its one exact fraction
    ("dc", 2, 4),         # exact x, y; probes x, y
])
def test_one_gather_and_shared_lerps_per_bound_block(monkeypatch, mode, degree, lerps):
    enc = (encode_dc_cubic if degree == 3 else encode_dc_quadratic)(
        random_polygon(np.random.default_rng(5), degree, 3), F32)
    counts = {"lerp": 0, "gather": 0}

    def counted(fn, key):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(sampler, "lerp", counted(sampler.lerp, "lerp"))
    monkeypatch.setattr(analysis, "_corners", counted(analysis._corners, "gather"))
    error_bound_estimate(enc, BITS8, mode=mode, samples=256)
    assert counts == {"lerp": lerps, "gather": 1}
    if mode == "dc" and degree == 3:
        counts["lerp"] = 0
        eval_dc(enc, 0.37, BITS8)
        assert counts["lerp"] == 3


# -- per-element oracles ---------------------------------------------------
# The parent's per-row CSV writer and per-sample rasterizer, kept verbatim
# as oracles: the whole-array forms must give the same bytes.

def _fmt_oracle(x):
    return repr(float(x))


def csv_oracle(report):
    c = report.channels
    cols = (["t"] + [f"ref_{i}" for i in range(c)] + [f"test_{i}" for i in range(c)]
            + [f"absdev_{i}" for i in range(c)])
    lines = [",".join(cols)]
    for j in range(report.sample_count):
        row = ([_fmt_oracle(report.t[j])]
               + [_fmt_oracle(v) for v in report.reference[j]]
               + [_fmt_oracle(v) for v in report.test[j]]
               + [_fmt_oracle(v) for v in report.absdev[j]])
        lines.append(",".join(row))
    lines.append("#max," + ",".join(_fmt_oracle(v) for v in report.max_dev))
    lines.append("#mean," + ",".join(_fmt_oracle(v) for v in report.mean_dev))
    lines.append("#rms," + ",".join(_fmt_oracle(v) for v in report.rms_dev))
    return "\n".join(lines) + "\n"


def render_oracle(report, width, height):
    white, red, green = (255, 255, 255), (255, 0, 0), (0, 255, 0)
    img = np.zeros((height, width, 3), dtype=np.uint8)
    if report.channels == 1:
        both = np.concatenate([report.reference[:, 0], report.test[:, 0]])
        lo, hi = float(both.min()), float(both.max())
        if hi == lo:
            lo, hi = lo - 0.5, hi + 0.5
        pad = 0.05 * (hi - lo)
        lo, hi = lo - pad, hi + pad

        def to_px(tv, val):
            x = int(round(tv / report.t[-1] * (width - 1))) if report.t[-1] else 0
            y = int(round((hi - val) / (hi - lo) * (height - 1)))
            return x, min(max(y, 0), height - 1)

        for j in range(report.sample_count):
            rx, ry = to_px(report.t[j], report.reference[j, 0])
            tx, ty = to_px(report.t[j], report.test[j, 0])
            delta = report.test[j, 0] - report.reference[j, 0]
            img[ty, tx] = red if delta < 0 else green if delta > 0 else white
            img[ry, rx] = white
        return img
    pts = np.concatenate([report.reference, report.test], axis=0)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    pad = 0.05 * span
    lo, span = lo - pad, span + 2 * pad

    def to_px2(p):
        x = int(round((p[0] - lo[0]) / span[0] * (width - 1)))
        y = int(round((1.0 - (p[1] - lo[1]) / span[1]) * (height - 1)))
        return min(max(x, 0), width - 1), min(max(y, 0), height - 1)

    for j in range(report.sample_count):
        delta = report.test[j] - report.reference[j]
        key = delta[1] if delta[1] != 0.0 else delta[0]
        tx, ty = to_px2(report.test[j])
        img[ty, tx] = red if key < 0 else green if key > 0 else white
        rx, ry = to_px2(report.reference[j])
        img[ry, rx] = white
    return img


def _report(t, ref, test):
    return analysis.ErrorReport("", "reference", "dc", IDEAL, t, ref, test)


#: values where repr changes notation (1e-4, 1e16), signed zero, the
#: smallest subnormal, and a few plain ones
CSV_SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-5, 9.999999999999999e-05, 1e-4,
                         1.0000000000000002e-4, 1e16, 9999999999999998.0, 1.0000000000000002e16,
                         0.1, 1.0 / 3.0, -2.5, 1.0])


def _csv_values(rng, shape):
    """Specials mixed with random mantissas over exponents 1e-8 .. 1e17."""
    special = rng.choice(CSV_SPECIALS, size=shape)
    scaled = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-8, 18, shape)
    return np.where(rng.random(shape) < 0.4, special, scaled)


class TestRms:
    @settings(max_examples=60, deadline=None)
    @given(st.tuples(st.integers(1, 64), st.integers(1, 4)).flatmap(
        lambda shape: hnp.arrays(float, (2, *shape), elements=st.floats(-1e150, 1e150))))
    def test_reports_that_do_not_overflow_keep_the_plain_formula(self, values):
        ref, test = values
        report = _report(np.linspace(0.0, 1.0, ref.shape[0]), ref, test)
        with np.errstate(over="raise"):
            plain = np.sqrt(np.mean(report.absdev**2, axis=0))
        assert report.rms_dev.tobytes() == plain.tobytes()

    def test_overflowing_channel_is_rescaled_by_its_maximum(self):
        ref = np.zeros((4, 3))
        test = np.array([[1e300, 0.25, 1e300], [3e299, 0.5, np.inf], [0.0, 1.0, 0.0],
                         [2e300, 0.0, 0.0]])
        report = _report(np.linspace(0.0, 1.0, 4), ref, test)
        rms = report.rms_dev
        peak = 2e300
        assert rms[0] == peak * np.sqrt(np.mean((test[:, 0] / peak) ** 2))
        assert 1e300 < rms[0] < peak
        assert rms[1] == np.sqrt(np.mean(test[:, 1] ** 2))
        assert rms[2] == np.inf  # an infinite deviation keeps an infinite rms


class TestCsvOracle:
    @settings(max_examples=40, deadline=None)
    @given(channels=st.integers(1, 4), n=st.integers(1, 64) | st.just(4097),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_row_writer(self, channels, n, seed):
        rng = np.random.default_rng(seed)
        t = np.sort(_csv_values(rng, n))
        report = _report(t, _csv_values(rng, (n, channels)), _csv_values(rng, (n, channels)))
        assert report_to_csv(report) == csv_oracle(report)

    def test_sweeps_match_per_row_writer(self, rng):
        poly = random_polygon(rng, 3, 2)
        report = sweep(encode_dc_cubic(poly, U8, rescale=True), bernstein_ref(poly), "dc",
                       BITS8, 4097)
        assert report_to_csv(report) == csv_oracle(report)
        segments = random_c0_quadratics(rng, 3, 1)
        report = sweep(encode_dc_zigzag(segments, F32),
                       lambda gt: eval_bezier_chain(segments, gt), "zigzag", BITS8, 4097)
        assert report_to_csv(report) == csv_oracle(report)


def _render_cases():
    """(t, reference, test, width, height) cases the rasterizer must order
    exactly as the per-sample loop does."""
    cases = []
    # a 2x2 image with colliding pixels, zero deltas and a coinciding pair
    t = np.linspace(0.0, 1.0, 5)
    ref = np.array([[0.0], [0.5], [0.5], [1.0], [0.25]])
    test = np.array([[0.0], [0.25], [0.75], [1.0], [0.5]])
    cases.append((t, ref, test, 2, 2))
    # positions that land exactly on .5: x = t * 2 walks 0, .5, 1, 1.5, 2
    cases.append((t, ref, test, 3, 3))
    # a zig-zag domain end > 1, more samples than columns
    t3 = np.linspace(0.0, 3.0, 31)
    wave = np.sin(t3)[:, None]
    cases.append((t3, wave, wave + np.where(np.arange(31) % 3 == 0, 0.0, 0.01)[:, None], 4, 6))
    # 2 channels: collisions, a zero delta on channel 1 only, coinciding pixels
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [0.5, 0.25], [0.25, 0.75]])
    moved = pts + np.array([[0.0, 0.0], [0.1, 0.0], [-0.1, 0.0], [0.0, -0.2], [0.0, 0.3]])
    cases.append((t, pts, moved, 2, 2))
    cases.append((t, pts, moved, 3, 5))
    # zero deltas everywhere, and a flat curve (hi == lo)
    cases.append((t, pts, pts.copy(), 4, 4))
    flat = np.full((5, 1), 0.3)
    cases.append((t, flat, flat.copy(), 5, 3))
    return cases


def _half_pixel_values(height, count=8):
    """Reference values whose y position (hi - v) / (hi - lo) * (height - 1)
    is exactly k + 1/2 for the image range [0, 1] padded by 5% a side."""
    lo, hi = -0.05, 1.05
    out = []
    for k in range(height - 1):
        v = hi - (k + 0.5) / (height - 1) * (hi - lo)
        if 0.0 < v < 1.0 and (hi - v) / (hi - lo) * (height - 1) == k + 0.5:
            out.append(v)
    return out[:count]


class TestRenderOracle:
    def _render(self, t, ref, test, width, height):
        report = _report(t, ref, test)
        with mock.patch.object(analysis, "sweep", return_value=report):
            img = render_deviation_image(None, None, "dc", IDEAL, width, height)
        return img, render_oracle(report, width, height)

    @pytest.mark.parametrize("case", _render_cases())
    def test_matches_per_sample_loop(self, case):
        img, want = self._render(*case)
        assert img.dtype == want.dtype and img.tobytes() == want.tobytes()

    def test_half_pixel_positions_round_half_even(self):
        halves = _half_pixel_values(9)
        assert len(halves) >= 2
        n = len(halves) + 2
        ref = np.array([0.0] + halves + [1.0])[:, None]
        t = np.linspace(0.0, 1.0, n)
        for width in (3, n, 2 * n - 1):
            # odd samples dip below the reference; the range stays [0, 1]
            img, want = self._render(t, ref, ref - 0.01 * (np.arange(n) % 2)[:, None], width, 9)
            assert img.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(channels=st.sampled_from([1, 2]), n=st.integers(2, 40), width=st.integers(2, 9),
           height=st.integers(2, 9), end=st.sampled_from([1.0, 3.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_random_collisions(self, channels, n, width, height, end, seed):
        rng = np.random.default_rng(seed)
        ref = rng.choice([0.0, -0.0, 0.25, 0.5, 1.0], (n, channels)) + np.where(
            rng.random((n, channels)) < 0.5, 0.0, rng.uniform(-1.0, 1.0, (n, channels)))
        delta = rng.choice([0.0, 0.0, 1e-3, -1e-3, 0.5, -0.5], (n, channels))
        img, want = self._render(np.linspace(0.0, end, n), ref, ref + delta, width, height)
        assert img.tobytes() == want.tobytes()

    @pytest.mark.parametrize("channels", [1, 2])
    def test_encoded_curves_match_per_sample_loop(self, rng, channels):
        poly = random_polygon(rng, 3, channels, 0.1, 0.9)
        enc = encode_dc_cubic(poly, U8, rescale=True)
        ref = bernstein_ref(poly)
        for width, height, samples in ((64, 32, None), (16, 16, 200)):
            img = render_deviation_image(enc, ref, "dc", BITS8, width, height, samples)
            report = sweep(enc, ref, "dc", BITS8, samples or width)
            assert img.tobytes() == render_oracle(report, width, height).tobytes()

    def test_zigzag_curve_matches_per_sample_loop(self, rng):
        segments = random_c0_quadratics(rng, 3, 1)
        enc = encode_dc_zigzag(segments, F32)
        ref = lambda gt: eval_bezier_chain(segments, gt)
        img = render_deviation_image(enc, ref, "zigzag", BITS8, 50, 20)
        report = sweep(enc, ref, "zigzag", BITS8, 50)
        assert img.tobytes() == render_oracle(report, 50, 20).tobytes()
