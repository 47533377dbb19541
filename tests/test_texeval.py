import functools
import gc
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from texcurve import (
    ControlPolygon,
    DomainError,
    HomogeneousDivideError,
    LayoutError,
    SamplerConfig,
    TexelFormat,
    encode_bicubic_rgba,
    encode_bilinear_patch,
    encode_dc_cubic,
    encode_dc_quadratic,
    encode_dc_zigzag,
    encode_rational,
    encode_seiler,
    eval_bernstein,
    eval_bicubic_rgba,
    eval_bilinear_patch,
    eval_dc,
    eval_dc_cubic_hybrid,
    eval_dc_zigzag,
    eval_decasteljau,
    eval_rational_tex,
    eval_seiler_tex,
    eval_tensor_surface,
    remap_unit_to_texel_span,
    sample_bilinear,
)
from texcurve import sampler, texeval
from texcurve.core import Layout
from texcurve.texeval import _BLOCK, _RUN_MIN
from conftest import IDEAL, BITS8, one_curve_per_layout, random_c0_quadratics, random_polygon

F32 = TexelFormat.FLOAT32


class TestEvalDc:
    def test_quadratic_midpoint(self):
        enc = encode_dc_quadratic(ControlPolygon([0.0, 1.0, 0.0]), F32)
        assert eval_dc(enc, 0.5, IDEAL)[0] == pytest.approx(0.5, abs=1e-15)

    def test_endpoints_exact(self, rng):
        poly = random_polygon(rng, 3, 2)
        enc = encode_dc_cubic(poly, F32)
        lo = np.float32(poly.points[0]).astype(float)
        hi = np.float32(poly.points[3]).astype(float)
        assert np.array_equal(eval_dc(enc, 0.0, IDEAL), lo)
        assert np.array_equal(eval_dc(enc, 1.0, IDEAL), hi)

    def test_cubic_hump(self):
        enc = encode_dc_cubic(ControlPolygon([0.0, 1.0, 1.0, 0.0]), F32)
        assert eval_dc(enc, 0.5, IDEAL)[0] == pytest.approx(0.75, abs=1e-15)

    def test_elevated_line_decodes_to_line(self):
        enc = encode_dc_cubic(ControlPolygon([0.0, 1 / 3, 2 / 3, 1.0]), F32)
        for t in np.linspace(0, 1, 101):
            assert eval_dc(enc, float(t), IDEAL)[0] == pytest.approx(t, abs=1e-6)

    def test_wrong_layout(self, rng):
        enc = encode_seiler(random_polygon(rng, 3), F32)
        with pytest.raises(LayoutError):
            eval_dc(enc, 0.5, IDEAL)

    def test_out_of_domain(self):
        enc = encode_dc_quadratic(ControlPolygon([0.0, 1.0, 0.0]), F32)
        with pytest.raises(DomainError):
            eval_dc(enc, 1.5, IDEAL)

    def test_quantized_coordinate_oracle(self):
        # for the quadratic layout both axes carry the same parameter, so
        # the quantized result equals de Casteljau at the quantized fraction
        enc = encode_dc_quadratic(ControlPolygon([0.0, 1.0, 0.0]), F32)
        poly = ControlPolygon([0.0, 1.0, 0.0])
        for t in np.linspace(0.01, 0.99, 37):
            r = float(remap_unit_to_texel_span(t, 2))
            _, trace = sample_bilinear(enc.grid, r, r, BITS8)
            eff = float(np.asarray(trace.fractions[0]))
            assert eval_dc(enc, float(t), BITS8)[0] == eval_decasteljau(poly, eff)[0]

    def test_quantized_determinism(self, rng):
        enc = encode_dc_cubic(random_polygon(rng, 3), F32)
        ts = rng.uniform(0, 1, 64)
        a = eval_dc(enc, ts, BITS8)
        b = eval_dc(enc, ts, BITS8)
        assert np.array_equal(a, b)


class TestEvalZigzag:
    def build(self):
        segs = [ControlPolygon([0.0, 1.0, 0.0]), ControlPolygon([0.0, 0.5, 0.0])]
        return segs, encode_dc_zigzag(segs, F32, seed=1.0)

    def test_first_segment_midpoint(self):
        _, enc = self.build()
        assert eval_dc_zigzag(enc, 0.5, IDEAL)[0] == pytest.approx(0.5, abs=1e-15)

    def test_join_value_exact(self):
        _, enc = self.build()
        assert eval_dc_zigzag(enc, 1.0, IDEAL)[0] == 0.0

    def test_second_segment_midpoint(self):
        _, enc = self.build()
        assert eval_dc_zigzag(enc, 1.5, IDEAL)[0] == pytest.approx(0.25, abs=1e-15)

    def test_matches_per_segment_reference(self, rng):
        for n in range(1, 9):
            segs = random_c0_quadratics(rng, n, 2)
            enc = encode_dc_zigzag(segs, F32)
            for gt in np.linspace(0, n, 257):
                k = min(int(gt), n - 1)
                expect = eval_bernstein(segs[k], gt - k)
                got = eval_dc_zigzag(enc, float(gt), IDEAL)
                assert np.max(np.abs(got - expect)) <= 1e-6

    def test_out_of_domain(self):
        _, enc = self.build()
        with pytest.raises(DomainError):
            eval_dc_zigzag(enc, 2.25, IDEAL)


class TestEvalSeilerTex:
    def test_cubic_hump(self):
        enc = encode_seiler(ControlPolygon([0.0, 1.0, 1.0, 0.0]), F32)
        assert eval_seiler_tex(enc, 0.5, IDEAL)[0] == pytest.approx(0.75, abs=1e-15)

    def test_endpoint_exact(self, rng):
        poly = random_polygon(rng, 3, 3)
        enc = encode_seiler(poly, F32)
        lo = np.float32(poly.points[0]).astype(float)
        assert np.array_equal(eval_seiler_tex(enc, 0.0, IDEAL), lo)

    def test_quintic_line(self):
        enc = encode_seiler(ControlPolygon(np.arange(6) / 5.0), F32)
        for t in np.linspace(0, 1, 101):
            assert eval_seiler_tex(enc, float(t), IDEAL)[0] == pytest.approx(t, abs=1e-6)

    def test_all_degrees_match_reference(self, rng):
        for degree in (2, 3, 4, 5):
            poly = random_polygon(rng, degree, 2)
            enc = encode_seiler(poly, F32)
            ts = np.linspace(0, 1, 257)
            dev = np.abs(eval_seiler_tex(enc, ts, IDEAL) - eval_bernstein(poly, ts))
            assert np.max(dev) <= 1e-6

    def test_coordinate_window_checked_under_optimize(self):
        # the window check must raise, not assert: `python -O` strips asserts
        script = (
            "import texcurve as tc\n"
            "from texcurve import texeval\n"
            "enc = tc.encode_seiler(tc.ControlPolygon([0.0, 1.0, 1.0, 0.0]), tc.TexelFormat.FLOAT32)\n"
            "texeval.remap_unit_to_texel_span = lambda x, extent: x * 0 + 0.5\n"
            "try:\n"
            "    tc.eval_seiler_tex(enc, 0.5, tc.SamplerConfig())\n"
            "except tc.TexCurveError as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.startswith("TexCurveError seiler coordinate")


class TestHybrid:
    def test_matches_trilinear_under_ideal_sampler(self, rng):
        enc = encode_dc_cubic(random_polygon(rng, 3, 2), F32)
        ts = np.linspace(0, 1, 257)
        a = eval_dc(enc, ts, IDEAL)
        b = eval_dc_cubic_hybrid(enc, ts, IDEAL)
        assert np.max(np.abs(a - b)) <= 1e-6

    def test_constant_curve_any_cfg(self):
        enc = encode_dc_cubic(ControlPolygon(np.full(4, 0.5)), F32)
        for cfg in (IDEAL, BITS8, SamplerConfig(subtexel_bits=4, subtexel_rounding="floor")):
            assert np.all(eval_dc_cubic_hybrid(enc, np.linspace(0, 1, 33), cfg) == 0.5)

    def test_error_not_worse_than_trilinear(self, rng):
        # measured dominance on a small fixed corpus; the acceptance suite
        # runs the full 100-curve version
        for _ in range(10):
            poly = random_polygon(rng, 3)
            enc = encode_dc_cubic(poly, F32)
            ts = np.linspace(0, 1, 1024)
            ref = eval_bernstein(poly, ts)
            full = np.max(np.abs(eval_dc(enc, ts, BITS8) - ref))
            hybrid = np.max(np.abs(eval_dc_cubic_hybrid(enc, ts, BITS8) - ref))
            assert hybrid <= full

    @pytest.mark.parametrize("run", (1, _RUN_MIN // 2))
    @pytest.mark.parametrize("zeros", ([-0.0, 0.0], [0.0, -0.0]))
    def test_signed_zero_depth_fractions_blend_apart(self, zeros, run):
        # the depth fraction is t itself: -0.0 and +0.0 give texels of -0.0
        # opposite signs, so the two plateaus are two runs, not one
        enc = encode_dc_cubic(ControlPolygon(np.full(4, -0.0)), F32)
        cfg = SamplerConfig(subtexel_bits=0)
        each = np.stack([eval_dc_cubic_hybrid(enc, t, cfg) for t in zeros])
        assert np.signbit(each).ravel().tolist() == [not np.signbit(t) for t in zeros]
        got = eval_dc_cubic_hybrid(enc, np.repeat(zeros, run), cfg)
        assert got.tobytes() == np.repeat(each, run, axis=0).tobytes()


class TestSurfaces:
    def test_patch_center(self):
        enc = encode_bilinear_patch([[0.0, 1.0], [1.0, 0.0]], F32)
        assert eval_bilinear_patch(enc, 0.5, 0.5, IDEAL)[0] == pytest.approx(0.5, abs=1e-15)

    def test_patch_matches_tensor_reference(self, rng):
        net = rng.uniform(-1, 1, (2, 2, 3))
        enc = encode_bilinear_patch(net, F32)
        for _ in range(50):
            u, v = rng.uniform(0, 1, 2)
            got = eval_bilinear_patch(enc, u, v, IDEAL)
            expect = eval_tensor_surface(net, u, v)
            assert np.max(np.abs(got - expect)) <= 1e-6

    def test_bicubic_separable_independent_of_v(self, rng):
        row = rng.uniform(0, 1, 4)
        enc = encode_bicubic_rgba(np.tile(row, (4, 1)), F32)
        base = eval_bicubic_rgba(enc, 0.37, 0.0, IDEAL)
        for v in np.linspace(0, 1, 9):
            got = eval_bicubic_rgba(enc, 0.37, float(v), IDEAL)
            assert got[0] == pytest.approx(base[0], abs=1e-6)

    def test_bicubic_matches_tensor_on_lattice(self, rng):
        net = rng.uniform(-1, 1, (4, 4))
        enc = encode_bicubic_rgba(net, F32)
        grid = np.linspace(0, 1, 33)
        for u in grid:
            for v in grid:
                got = eval_bicubic_rgba(enc, float(u), float(v), IDEAL)
                expect = eval_tensor_surface(net, float(u), float(v))
                assert abs(got[0] - expect[0]) <= 1e-6


class TestRationalTex:
    def circle(self):
        arc = ControlPolygon([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        return arc, np.array([1.0, np.sqrt(0.5), 1.0])

    def test_unit_weights_match_integral_lookup(self, rng):
        poly = random_polygon(rng, 3, 2)
        enc = encode_rational(poly, np.ones(4), F32)
        integral = encode_seiler(poly, F32)
        ts = np.linspace(0, 1, 65)
        got = eval_rational_tex(enc, ts, IDEAL)
        expect = eval_seiler_tex(integral, ts, IDEAL)
        assert np.max(np.abs(got - expect)) <= 1e-6

    def test_circle_identity(self):
        arc, w = self.circle()
        enc = encode_rational(arc, w, F32)
        ts = np.linspace(0, 1, 1000)
        pts = eval_rational_tex(enc, ts, IDEAL)
        assert np.max(np.abs(pts[:, 0] ** 2 + pts[:, 1] ** 2 - 1.0)) <= 1e-6

    def test_endpoint(self):
        arc, w = self.circle()
        enc = encode_rational(arc, w, F32)
        assert np.array_equal(eval_rational_tex(enc, 0.0, IDEAL), [1.0, 0.0])

    def test_quantized_radial_deviation_regression(self):
        # measured value pinned as a golden regression; depends only on the
        # fixed arc, unorm8 texels, and 8-bit coordinates
        arc, w = self.circle()
        enc = encode_rational(arc, w, TexelFormat.UNORM8, scheme="dc")
        ts = np.linspace(0, 1, 1000)
        pts = eval_rational_tex(enc, ts, BITS8)
        dev = float(np.max(np.abs(np.hypot(pts[:, 0], pts[:, 1]) - 1.0)))
        assert 0.0 < dev < 0.02
        assert dev == pytest.approx(0.00029730935694993743, rel=1e-9)

    def test_tiny_weight_divide_error(self):
        # force a decoded weight of ~0 by sampling a curve whose weight
        # channel was encoded at the representable floor
        arc = ControlPolygon([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        enc = encode_rational(arc, np.full(3, 1e-12), F32, scheme="dc")
        with pytest.raises(HomogeneousDivideError):
            eval_rational_tex(enc, 0.5, IDEAL)


class TestEndpointExactness:
    def test_all_non_zigzag_layouts(self, rng):
        poly2 = random_polygon(rng, 2, 2)
        poly3 = random_polygon(rng, 3, 2)
        cases = [
            (encode_dc_quadratic(poly2, F32), eval_dc, poly2),
            (encode_dc_cubic(poly3, F32), eval_dc, poly3),
            (encode_seiler(poly2, F32), eval_seiler_tex, poly2),
            (encode_seiler(poly3, F32), eval_seiler_tex, poly3),
        ]
        for enc, fn, poly in cases:
            for t, idx in ((0.0, 0), (1.0, -1)):
                got = fn(enc, t, IDEAL)
                expect = np.float32(poly.points[idx]).astype(float)
                assert np.all(np.abs(got - expect) <= 2 * np.spacing(np.abs(expect) + 1.0))


def test_evaluation_leaves_no_reference_cycles(rng):
    # lookups hold (n, channels) temporaries; a cycle would keep them alive
    # until the cyclic collector happens to run, inflating peak memory
    from texcurve.analysis import error_bound_estimate

    quad = random_polygon(rng, 2, 2)
    cubic = random_polygon(rng, 3)
    cases = [
        (eval_dc, encode_dc_quadratic(quad, F32)),
        (eval_dc_cubic_hybrid, encode_dc_cubic(cubic, F32)),
        (eval_seiler_tex, encode_seiler(random_polygon(rng, 5), F32)),
        (eval_dc_zigzag, encode_dc_zigzag(random_c0_quadratics(rng, 3), F32)),
        (eval_rational_tex, encode_rational(quad, [1.0, 0.7, 1.0], F32)),
    ]
    patch = encode_bilinear_patch(rng.uniform(0, 1, (2, 2)), F32)
    t = np.linspace(0.0, 1.0, 16)
    gc.collect()
    gc.disable()
    try:
        for fn, enc in cases:
            fn(enc, t, BITS8)
            fn(enc, 0.5, BITS8)
        eval_bilinear_patch(patch, t, t[::-1], BITS8)
        error_bound_estimate(cases[1][1], BITS8, mode="dc-hybrid", samples=16)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _one_parameter_cases():
    """(name, evaluator, curve, domain end) for every 1-parameter evaluator."""
    rng = np.random.default_rng(7)
    quad = random_polygon(rng, 2, 2)
    cubic = random_polygon(rng, 3, 3)
    u8 = TexelFormat.UNORM8
    return (
        ("dc-quad", eval_dc, encode_dc_quadratic(quad, F32), 1.0),
        ("dc-cubic", eval_dc, encode_dc_cubic(cubic, u8, rescale=True), 1.0),
        ("dc-hybrid", eval_dc_cubic_hybrid, encode_dc_cubic(cubic, F32), 1.0),
        ("seiler-2d", eval_seiler_tex, encode_seiler(random_polygon(rng, 3, 2), F32), 1.0),
        ("seiler-3d", eval_seiler_tex, encode_seiler(random_polygon(rng, 5), u8, rescale=True), 1.0),
        ("zigzag", eval_dc_zigzag, encode_dc_zigzag(random_c0_quadratics(rng, 5, 2), F32), 5.0),
        ("rational-seiler", eval_rational_tex,
         encode_rational(quad, [1.0, 0.7, 1.0], F32, scheme="seiler"), 1.0),
        ("rational-dc", eval_rational_tex,
         encode_rational(random_polygon(rng, 3), [1.0, 0.6, 0.8, 1.0], F32, scheme="dc"), 1.0),
    )


ONE_PARAMETER_CASES = _one_parameter_cases()
SPLIT_N = 2 * _BLOCK + 17

#: parameters outside [0, end]: below 0, above the end, and not finite
BAD_PARAMETERS = (
    lambda end: -0.5,
    lambda end: -1e-300,
    lambda end: end * 1.5,
    lambda end: float(np.nextafter(end, np.inf)),  # 1 + 2^-52 when end is 1
    lambda end: np.inf,
    lambda end: -np.inf,
    lambda end: np.nan,
)
BAD_PARAMETER_IDS = ("-0.5", "-1e-300", "end*1.5", "above-end", "inf", "-inf", "nan")


def _domain_message(name, end):
    if name == "zigzag":
        return f"zig-zag parameter outside [0, {int(end)}]"
    return "parameter outside [0, 1]"


class TestBlocking:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(ONE_PARAMETER_CASES),
        st.sampled_from((IDEAL, BITS8, SamplerConfig(subtexel_bits=12, subtexel_rounding="floor"))),
        st.lists(st.integers(min_value=0, max_value=SPLIT_N), max_size=4),
    )
    def test_split_invariance(self, case, cfg, cuts):
        _, fn, enc, end = case
        t = np.linspace(0.0, end, SPLIT_N)
        whole = fn(enc, t, cfg)
        bounds = [0, *sorted(cuts), SPLIT_N]
        parts = [fn(enc, t[a:b], cfg) for a, b in zip(bounds, bounds[1:]) if b > a]
        assert np.concatenate(parts).tobytes() == whole.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(ONE_PARAMETER_CASES),
        st.integers(min_value=2 * _BLOCK, max_value=SPLIT_N - 1),
        st.sampled_from(BAD_PARAMETERS),
    )
    def test_bad_parameter_in_last_block(self, case, position, bad):
        name, fn, enc, end = case
        t = np.linspace(0.0, end, SPLIT_N)
        t[position] = bad(end)
        with pytest.raises(DomainError) as blocked:
            fn(enc, t, BITS8)
        with pytest.raises(DomainError) as unblocked:
            fn(enc, t[2 * _BLOCK :], BITS8)
        assert str(blocked.value) == str(unblocked.value) == _domain_message(name, end)

    @pytest.mark.parametrize("shape", ((), (1,), (7,)))
    @pytest.mark.parametrize("bad", BAD_PARAMETERS, ids=BAD_PARAMETER_IDS)
    @pytest.mark.parametrize("case", ONE_PARAMETER_CASES, ids=lambda case: case[0])
    def test_bad_parameter_every_evaluator(self, case, bad, shape):
        """Scalars, one-sample and short arrays: every 1-parameter
        evaluator raises DomainError with its layout's message."""
        name, fn, enc, end = case
        t = bad(end) if shape == () else np.full(shape, end / 2)
        if shape:
            t[-1] = bad(end)
        with pytest.raises(DomainError) as raised:
            fn(enc, t, BITS8)
        assert str(raised.value) == _domain_message(name, end)


# -- layout checks and fetch counts ------------------------------------------

CURVES = one_curve_per_layout()
_DC = {Layout.DC_QUAD_2X2, Layout.DC_CUBIC_2X2X2}

#: (name, fn(curve, t, cfg), the layouts it evaluates), written out here
#: rather than read from the mode table
EVALUATORS = (
    ("eval_dc", eval_dc, _DC),
    ("eval_dc_cubic_hybrid", eval_dc_cubic_hybrid, {Layout.DC_CUBIC_2X2X2}),
    ("eval_dc_zigzag", eval_dc_zigzag, {Layout.DC_ZIGZAG}),
    ("eval_seiler_tex", eval_seiler_tex, {Layout.SEILER_2D, Layout.SEILER_3D}),
    ("eval_rational_tex", eval_rational_tex, {Layout.RATIONAL_HOMOGENEOUS}),
    ("eval_bilinear_patch", lambda curve, t, cfg: eval_bilinear_patch(curve, t, t, cfg),
     {Layout.BILINEAR_PATCH}),
    ("eval_bicubic_rgba", lambda curve, t, cfg: eval_bicubic_rgba(curve, t, t, cfg),
     {Layout.BICUBIC_RGBA}),
)


@pytest.mark.parametrize("layout", Layout, ids=lambda layout: layout.value)
@pytest.mark.parametrize("fn, accepts", [pytest.param(fn, accepts, id=name)
                                         for name, fn, accepts in EVALUATORS])
def test_evaluator_rejects_every_other_layout(fn, accepts, layout):
    curve = CURVES[layout]
    if layout in accepts:
        assert np.isfinite(fn(curve, 0.5, BITS8)).all()
    else:
        with pytest.raises(LayoutError):
            fn(curve, 0.5, BITS8)


@pytest.mark.parametrize("fn, layout, lerps, corners", [
    (lambda curve, t, cfg: eval_bilinear_patch(curve, t, t, cfg), Layout.BILINEAR_PATCH, 2, 4),
    (lambda curve, t, cfg: eval_bicubic_rgba(curve, t, t, cfg), Layout.BICUBIC_RGBA, 3, 8),
], ids=("patch", "bicubic"))
def test_surface_evaluator_fetches_once(monkeypatch, fn, layout, lerps, corners):
    """A scalar surface evaluation is one fetch: one gather of the cell's
    corners, then one lerp per axis."""
    counts = {"lerp": 0, "gathers": 0, "corners": 0}
    lerp, gather = sampler.lerp, sampler._corners

    def counted_lerp(*args):
        counts["lerp"] += 1
        return lerp(*args)

    def counted_corners(*args):
        taken = gather(*args)
        counts["gathers"] += 1
        counts["corners"] += taken[0].size
        return taken

    monkeypatch.setattr(sampler, "lerp", counted_lerp)
    monkeypatch.setattr(sampler, "_corners", counted_corners)
    fn(CURVES[layout], 0.37, BITS8)
    assert counts == {"lerp": lerps, "gathers": 1, "corners": corners}


@pytest.mark.parametrize("bits, blended", ((8, range(300)), (0, [1 << 17])), ids=("bits8", "bits0"))
def test_fetch_blends_once_per_run(monkeypatch, bits, blended):
    """A sorted 2^17-sample dc lattice at 8 bits reaches about 260 distinct
    lookup states, and only their first samples reach the blend; at bits 0
    every sample has its own fraction, so every sample is blended."""
    count = 0
    blend = sampler._blend

    def counted_blend(grid, pairs, fractions):
        nonlocal count
        count += np.size(fractions[0])
        return blend(grid, pairs, fractions)

    monkeypatch.setattr(sampler, "_blend", counted_blend)
    cfg = SamplerConfig(subtexel_bits=bits, subtexel_rounding="nearest")
    eval_dc(CURVES[Layout.DC_CUBIC_2X2X2], np.linspace(0.0, 1.0, 1 << 17), cfg)
    assert count in blended


@pytest.mark.parametrize("block", (100, 1000, _BLOCK, 1 << 17))
def test_sorted_lattice_blends_each_state_once(monkeypatch, block):
    """Runs continue across block edges and the heads of every block are
    blended together: however the sample axis is chunked, a sorted
    2^17-sample dc lattice at 8 bits blends about its 257 distinct lookup
    states, not one more head per block."""
    count = 0
    blend = sampler._blend

    def counted_blend(grid, pairs, fractions):
        nonlocal count
        count += np.size(fractions[0])
        return blend(grid, pairs, fractions)

    monkeypatch.setattr(sampler, "_blend", counted_blend)
    monkeypatch.setattr(texeval, "_BLOCK", block)
    cfg = SamplerConfig(subtexel_bits=8, subtexel_rounding="nearest")
    t = np.linspace(0.0, 1.0, 1 << 17)
    got = eval_dc(CURVES[Layout.DC_CUBIC_2X2X2], t, cfg)
    assert 257 <= count <= 273
    with mock.patch.object(texeval, "_fetch", fetch_every_sample):
        assert got.tobytes() == eval_dc(CURVES[Layout.DC_CUBIC_2X2X2], t, cfg).tobytes()


def test_bits0_plateaus_blend_each_value_once(monkeypatch):
    """At bits 0 the used fraction is the exact one, so only repeated
    parameters form runs: a 2^17-sample lattice of 16 repeated values
    blends one sample per value, not every sample."""
    count = 0
    blend = sampler._blend

    def counted_blend(grid, pairs, fractions):
        nonlocal count
        count += np.size(fractions[0])
        return blend(grid, pairs, fractions)

    monkeypatch.setattr(sampler, "_blend", counted_blend)
    rng = np.random.default_rng(16)
    t = np.linspace(0.0, 1.0, 16)[np.sort(rng.integers(0, 16, 1 << 17))]
    curve, cfg = CURVES[Layout.DC_CUBIC_2X2X2], SamplerConfig.ideal()
    got = eval_dc(curve, t, cfg)
    assert count <= 16
    with mock.patch.object(texeval, "_fetch", fetch_every_sample):
        assert got.tobytes() == eval_dc(curve, t, cfg).tobytes()


def test_hybrid_runs_its_x_and_y_levels_per_run(monkeypatch):
    """A sorted 2^17-sample dc-hybrid lattice at 8 bits lerps x and y (two
    lerps) on at most 273 run heads and depth on every sample, one `_BLOCK`
    slice at a time."""
    sizes = []
    lerp = sampler.lerp

    def counted_lerp(a, b, f):
        sizes.append(np.shape(a)[-1])
        return lerp(a, b, f)

    monkeypatch.setattr(sampler, "lerp", counted_lerp)
    cfg = SamplerConfig(subtexel_bits=8, subtexel_rounding="nearest")
    eval_dc_cubic_hybrid(CURVES[Layout.DC_CUBIC_2X2X2], np.linspace(0.0, 1.0, 1 << 17), cfg)
    heads = [size for size in sizes if size <= 273]
    assert len(heads) == 2 and sum(heads) <= 2 * 273
    assert [size for size in sizes if size > 273] == [_BLOCK] * ((1 << 17) // _BLOCK)


@pytest.mark.parametrize("bits", (0, 8, 12))
@pytest.mark.parametrize("name", ("eval_dc", "eval_dc_cubic_hybrid", "seiler-3d"))
def test_evaluation_memory_stays_blocked(name, bits):
    """A 2^17-sample evaluation of a 3-channel curve keeps its lookup state
    and blend blocked: the traced peak, the 3 MiB output included, stays
    under 7.5 MiB (blending all samples at once takes well over 10 MiB)."""
    rng = np.random.default_rng(bits)
    if name == "seiler-3d":
        fn, curve = eval_seiler_tex, encode_seiler(random_polygon(rng, 4, 3), F32)
    else:
        fn = eval_dc if name == "eval_dc" else eval_dc_cubic_hybrid
        curve = encode_dc_cubic(random_polygon(rng, 3, 3), F32)
    cfg = SamplerConfig(subtexel_bits=bits, subtexel_rounding="nearest")
    t = np.linspace(0.0, 1.0, 1 << 17)
    fn(curve, t, cfg)
    tracemalloc.start()
    try:
        fn(curve, t, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.5 * 2**20


def test_no_evaluator_builds_a_trace(monkeypatch):
    """Evaluators, sweeps and the bound read the grid without a
    `SampleTrace`: only the public samplers build one."""
    from texcurve import analysis

    def no_trace(*args, **kwargs):
        raise AssertionError("a SampleTrace was built")

    monkeypatch.setattr(sampler, "SampleTrace", no_trace)
    t = np.linspace(0.0, 1.0, 9)
    for _, fn, accepts in EVALUATORS:
        for layout in accepts:
            fn(CURVES[layout], t, BITS8)
            fn(CURVES[layout], 0.5, BITS8)
    for mode, (layouts, fn) in analysis._MODES.items():
        curve = CURVES[layouts[0]]
        report = analysis.sweep(curve, lambda ts: fn(curve, ts, BITS8), mode, BITS8, 16)
        assert not report.max_dev.any()
        if mode not in ("patch", "bicubic"):
            analysis.error_bound_estimate(curve, BITS8, mode=mode, samples=16)


# -- the run path against a blend of every sample ----------------------------


def fetch_every_sample(curve, coords_of, params, cfg, hybrid=False):
    """`texeval._fetch` without runs or blocks: the lookup, the blend and
    the decode on every sample."""
    coords = coords_of(*params)
    if hybrid:
        pairs, _, used = sampler._lookup(curve.grid, coords[:2], cfg, params[0])
    else:
        pairs, _, used = sampler._lookup(curve.grid, coords, cfg)
    return texeval._decode(curve, sampler._blend(curve.grid, pairs, used))


#: evaluator name -> (fn(curve, u, v, cfg), the curve kinds it evaluates)
RUN_EVALUATORS = {
    "eval_dc": (lambda c, u, v, cfg: eval_dc(c, u, cfg), ("dc-quad", "dc-cubic")),
    "eval_dc_cubic_hybrid": (lambda c, u, v, cfg: eval_dc_cubic_hybrid(c, u, cfg), ("dc-cubic",)),
    "eval_dc_zigzag": (lambda c, u, v, cfg: eval_dc_zigzag(c, u, cfg), ("zigzag",)),
    "eval_seiler_tex": (lambda c, u, v, cfg: eval_seiler_tex(c, u, cfg),
                        ("seiler-2d", "seiler-3d")),
    "eval_rational_tex": (lambda c, u, v, cfg: eval_rational_tex(c, u, cfg),
                          ("rational-dc", "rational-seiler")),
    "eval_bilinear_patch": (eval_bilinear_patch, ("patch",)),
    "eval_bicubic_rgba": (eval_bicubic_rgba, ("bicubic",)),
}
RUN_KINDS = tuple(kind for _, kinds in RUN_EVALUATORS.values() for kind in kinds)
FORMATS = (TexelFormat.UNORM8, TexelFormat.UNORM16, F32)
RUN_SHAPES = ((), (0,), (1,), (7,), (2 * _BLOCK + 17,), (3, 4))
LATTICES = ("sorted", "reversed", "shuffled", "plateaus", "block-edges", "midpoints")


@functools.cache
def run_curve(kind, fmt, channels):
    """One seeded curve of `kind` in `fmt` with up to `channels` channels."""
    rng = np.random.default_rng([RUN_KINDS.index(kind), FORMATS.index(fmt), channels])
    opts = {"rescale": fmt is not F32}
    if kind == "dc-quad":
        return encode_dc_quadratic(random_polygon(rng, 2, channels), fmt, **opts)
    if kind == "dc-cubic":
        return encode_dc_cubic(random_polygon(rng, 3, channels), fmt, **opts)
    if kind == "zigzag":
        return encode_dc_zigzag(random_c0_quadratics(rng, 3, channels), fmt, **opts)
    if kind == "seiler-2d":
        return encode_seiler(random_polygon(rng, 3, channels), fmt, **opts)
    if kind == "seiler-3d":
        return encode_seiler(random_polygon(rng, 5, channels), fmt, **opts)
    if kind == "patch":
        return encode_bilinear_patch(rng.uniform(-1.0, 2.0, (2, 2, channels)), fmt, **opts)
    if kind == "bicubic":
        return encode_bicubic_rgba(rng.uniform(0.0, 1.0, (4, 4)), fmt, **opts)
    if kind == "rational-dc":
        weights, scheme = [1.0, 0.6, 0.8, 1.0], "dc"
    else:
        weights, scheme = [1.0, 0.7, 1.0], "seiler"
    num = random_polygon(rng, len(weights) - 1, min(channels, 3), lo=0.0)
    return encode_rational(num, weights, fmt, scheme=scheme, **opts)


def lattice(kind, shape, end, rng):
    """Parameters in [0, end] of `shape`, laid out as `kind` says."""
    n = int(np.prod(shape))
    t = np.linspace(0.0, end, n)
    if kind == "reversed":
        t = t[::-1].copy()
    elif kind == "shuffled":
        t = rng.permutation(t)
    elif kind == "plateaus":
        levels = np.concatenate([[0.0, -0.0, end], rng.uniform(0.0, end, 9)])
        t = levels[np.sort(rng.integers(0, levels.size, n))]
    elif kind == "midpoints":  # a zig-zag's segments share fractions, not texels
        t = np.arange(n) % end + 0.5
    elif kind == "block-edges" and n:
        for edge in range(_BLOCK, n, _BLOCK):
            t[edge - 40 : edge + 40] = t[edge]
        t[n // 3 : n // 2] = t[n // 3]
    return float(t[0]) if shape == () else t.reshape(shape)


@settings(max_examples=80, deadline=None)
@example(name="eval_dc_cubic_hybrid", pick=0, fmt=F32, bits=8, rounding="nearest", channels=2,
         shape=RUN_SHAPES[4], kinds=("sorted", "sorted"), seed=0)
@example(name="eval_dc_zigzag", pick=0, fmt=F32, bits=4, rounding="floor", channels=1,
         shape=RUN_SHAPES[4], kinds=("midpoints", "sorted"), seed=0)
@given(
    name=st.sampled_from(sorted(RUN_EVALUATORS)),
    pick=st.integers(0, 1),
    fmt=st.sampled_from(FORMATS),
    bits=st.sampled_from((0, 4, 8, 12)),
    rounding=st.sampled_from(("nearest", "floor")),
    channels=st.integers(1, 4),
    shape=st.sampled_from(RUN_SHAPES),
    kinds=st.tuples(st.sampled_from(LATTICES), st.sampled_from(LATTICES)),
    seed=st.integers(0, 2**32 - 1),
)
def test_runs_match_a_blend_of_every_sample(name, pick, fmt, bits, rounding, channels,
                                            shape, kinds, seed):
    fn, layouts = RUN_EVALUATORS[name]
    curve = run_curve(layouts[pick % len(layouts)], fmt, channels)
    cfg = SamplerConfig(subtexel_bits=bits, subtexel_rounding=rounding)
    rng = np.random.default_rng(seed)
    end = float(curve.segment_count)
    u, v = (lattice(kind, shape, end, rng) for kind in kinds)

    got = fn(curve, u, v, cfg)
    with mock.patch.object(texeval, "_fetch", fetch_every_sample):
        want = fn(curve, u, v, cfg)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert (got.flags.f_contiguous, got.flags.c_contiguous) == \
        (want.flags.f_contiguous, want.flags.c_contiguous)
