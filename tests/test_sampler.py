import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from texcurve import (
    DomainError,
    LayoutError,
    SamplerConfig,
    TexelFormat,
    TexelGrid,
    quantize_fraction,
    quantize_texel,
    remap_unit_to_texel_span,
    sample_bilinear,
    sample_trilinear,
)
from texcurve import sampler
from texcurve.encoder import _quantize_array
from texcurve.sampler import blend_with_fractions
from texcurve.texeval import _BLOCK

IDEAL = SamplerConfig.ideal()
BITS8 = SamplerConfig(subtexel_bits=8)

unit = st.floats(min_value=0.0, max_value=1.0)


def unorm_oracle(v: float, levels: int) -> float:
    """Independent integer-arithmetic rounding oracle (half away from zero)."""
    v = min(max(v, 0.0), 1.0)
    q = Fraction(v) * levels
    k, rem = divmod(q.numerator, q.denominator)
    if Fraction(rem, q.denominator) >= Fraction(1, 2):
        k += 1
    return k / levels


def grid2(rows, fmt=TexelFormat.FLOAT32):
    rows = np.asarray(rows, dtype=float)
    return TexelGrid((rows.shape[1], rows.shape[0], 1), 1, fmt, rows[..., None])


def grid3(slices, fmt=TexelFormat.FLOAT32):
    s = np.asarray(slices, dtype=float)
    return TexelGrid((s.shape[2], s.shape[1], s.shape[0]), 1, fmt, s[..., None])


class TestQuantizeTexel:
    def test_half_rounds_away(self):
        # round(0.5 * 255) = round(127.5) -> 128 under half-away
        assert quantize_texel(0.5, TexelFormat.UNORM8) == 128 / 255
        assert quantize_texel(0.5, TexelFormat.UNORM8) == unorm_oracle(0.5, 255)

    def test_endpoint_exact(self):
        assert quantize_texel(1.0, TexelFormat.UNORM8) == 1.0
        assert quantize_texel(0.0, TexelFormat.UNORM16) == 0.0

    def test_clamps_below(self):
        assert quantize_texel(-0.25, TexelFormat.UNORM8) == 0.0
        assert quantize_texel(1.75, TexelFormat.UNORM8) == 1.0

    def test_float32_rounding(self):
        v = 0.1
        assert quantize_texel(v, TexelFormat.FLOAT32) == float(np.float32(v))

    @given(st.floats(min_value=-0.5, max_value=1.5, allow_nan=False))
    def test_matches_integer_oracle(self, v):
        assert quantize_texel(v, TexelFormat.UNORM8) == unorm_oracle(v, 255)
        assert quantize_texel(v, TexelFormat.UNORM16) == unorm_oracle(v, 65535)


#: clamped, signed-zero, subnormal, exact-tie and endpoint inputs
QUANTIZE_EXTRAS = np.array([
    -0.0, 0.0, 0.5, 1.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-300,
    -1e-300, -0.25, -1.0, -np.inf, np.nextafter(1.0, 2.0), 1.75, 1e300, np.inf,
    np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
])


def _fraction_quantized(values, levels):
    return np.array([unorm_oracle(float(v), levels) for v in values.ravel()]).reshape(values.shape)


class TestQuantizeArray:
    """The whole-array quantizer against the `Fraction` oracle, bit for bit."""

    @pytest.mark.parametrize("fmt", [TexelFormat.UNORM8, TexelFormat.UNORM16],
                             ids=lambda f: f.value)
    def test_every_midpoint_and_its_neighbours(self, fmt):
        # (k + 1/2) / L for every k, and two nextafter steps on each side
        levels = fmt.levels
        mid = (np.arange(levels) + 0.5) / levels
        points = [mid, QUANTIZE_EXTRAS]
        up, down = mid, mid
        for _ in range(2):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            points += [up, down]
        values = np.concatenate(points)
        got = _quantize_array(values, fmt)
        assert got.dtype == np.float64
        assert got.tobytes() == _fraction_quantized(values, levels).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=24),
           st.sampled_from([(-1,), (2, -1)]))
    def test_matches_oracle_on_arbitrary_floats(self, values, shape):
        arr = np.array(values * 2 if shape == (2, -1) else values).reshape(shape)
        for fmt in (TexelFormat.UNORM8, TexelFormat.UNORM16):
            assert _quantize_array(arr, fmt).tobytes() == \
                _fraction_quantized(arr, fmt.levels).tobytes()

    def test_scalar_wrapper_agrees(self):
        for v in QUANTIZE_EXTRAS:
            for fmt in (TexelFormat.UNORM8, TexelFormat.UNORM16):
                assert np.float64(quantize_texel(v, fmt)).tobytes() == \
                    np.float64(unorm_oracle(float(v), fmt.levels)).tobytes()


class TestQuantizeFraction:
    def test_nearest_example(self):
        # floor(0.3 * 256 + 1/2) computed with exact rationals is 77
        exact = Fraction(0.3) * 256 + Fraction(1, 2)
        assert exact.numerator // exact.denominator == 77
        assert quantize_fraction(0.3, BITS8) == 77 / 256

    def test_exactly_representable(self):
        assert quantize_fraction(0.5, BITS8) == 0.5

    def test_zero_bits_is_identity(self):
        for f in (0.0, 0.123456, 0.999):
            assert quantize_fraction(f, IDEAL) == f

    def test_floor_mode(self):
        cfg = SamplerConfig(subtexel_bits=8, subtexel_rounding="floor")
        assert quantize_fraction(0.3, cfg) == 76 / 256

    def test_nearest_may_reach_one(self):
        assert quantize_fraction(0.9999, BITS8) == 1.0

    @given(unit, unit, st.integers(min_value=1, max_value=24))
    def test_monotone(self, f1, f2, bits):
        cfg = SamplerConfig(subtexel_bits=bits)
        lo, hi = sorted((f1, f2))
        assert quantize_fraction(lo, cfg) <= quantize_fraction(hi, cfg)

    @given(unit, st.integers(min_value=1, max_value=24))
    def test_against_rational_oracle(self, f, bits):
        cfg = SamplerConfig(subtexel_bits=bits)
        q = Fraction(f) * (1 << bits) + Fraction(1, 2)
        expect = (q.numerator // q.denominator) / (1 << bits)
        assert quantize_fraction(f, cfg) == expect


class TestSampleBilinear:
    def test_constant_grid(self, rng):
        g = grid2([[0.625, 0.625], [0.625, 0.625]])
        for _ in range(8):
            u, v = rng.uniform(0, 1, 2)
            val, _ = sample_bilinear(g, u, v, BITS8)
            assert val[0] == 0.625

    def test_center_of_saddle(self):
        # brute-force expansion A s^2 + (B+C) s t + D t^2 at s = t = 0.5
        g = grid2([[0.0, 1.0], [1.0, 0.0]])
        val, _ = sample_bilinear(g, 0.5, 0.5, IDEAL)
        assert val[0] == pytest.approx(0.5, abs=1e-15)

    def test_quantized_saddle_against_rational_expansion(self):
        g = grid2([[0.0, 1.0], [1.0, 0.0]])
        u = float(remap_unit_to_texel_span(0.3, 2))
        val, trace = sample_bilinear(g, u, u, BITS8)
        # independent oracle: push the exact coordinate through the
        # pipeline in rational arithmetic, then expand the blend
        tx = Fraction(u) * 2 - Fraction(1, 2)
        frac = tx - (tx.numerator // tx.denominator)
        q = frac * 256 + Fraction(1, 2)
        f = Fraction(q.numerator // q.denominator, 256)
        expect = 2 * f * (1 - f)  # B and C are 1, A and D are 0
        assert Fraction(float(trace.fractions[0])) == f
        assert val[0] == pytest.approx(float(expect), abs=1e-15)

    def test_rejects_3d_grid(self):
        g = grid3([[[0.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]]])
        with pytest.raises(LayoutError):
            sample_bilinear(g, 0.5, 0.5, IDEAL)

    def test_rejects_non_finite(self):
        g = grid2([[0.0, 1.0], [1.0, 0.0]])
        for bad, shape in itertools.product((np.nan, np.inf, -np.inf), ((), (1,), (7,))):
            for axis, name in enumerate("uv"):
                coords = [np.full(shape, 0.5) for _ in range(2)]
                coords[axis][...] = bad
                with pytest.raises(DomainError, match=f"^{name} must be finite$"):
                    sample_bilinear(g, *coords, BITS8)

    @given(
        st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=4, max_size=4),
        st.floats(min_value=0.25, max_value=0.7499),
        st.floats(min_value=0.25, max_value=0.7499),
    )
    @settings(max_examples=200)
    def test_expansion_identity(self, texels, u, v):
        # bits=0, interior cell: result equals
        # (A(1-fu)+B fu)(1-fv) + (C(1-fu)+D fu) fv with the exact fractions
        a, b, c, d = texels
        g = grid2([[a, b], [c, d]])
        val, trace = sample_bilinear(g, u, v, IDEAL)
        fu, fv = (float(f) for f in trace.fractions)
        expect = (a * (1 - fu) + b * fu) * (1 - fv) + (c * (1 - fu) + d * fu) * fv
        assert val[0] == pytest.approx(expect, abs=4 * np.spacing(max(1.0, abs(expect))))

    def test_edge_clamp_independence(self, rng):
        g = grid2(rng.uniform(0, 1, (2, 2)))
        ref = None
        for u in np.linspace(0.0, 0.5 / 2, 7):
            val, _ = sample_bilinear(g, float(u), 0.4, IDEAL)
            if ref is None:
                ref = val
            assert np.array_equal(val, ref)

    def test_vectorized_matches_scalar(self, rng):
        g = grid2(rng.uniform(0, 1, (2, 2)))
        us = rng.uniform(0, 1, 32)
        vs = rng.uniform(0, 1, 32)
        batch, _ = sample_bilinear(g, us, vs, BITS8)
        for i in range(32):
            single, _ = sample_bilinear(g, us[i], vs[i], BITS8)
            assert np.array_equal(batch[i], single)

    def test_trace_weights_sum_to_one(self):
        g = grid2([[0.0, 1.0], [1.0, 0.0]])
        _, trace = sample_bilinear(g, 0.37, 0.81, BITS8)
        for w0, w1 in trace.weights:
            assert float(w0) + float(w1) == 1.0


class TestSampleTrilinear:
    def test_constant(self):
        g = grid3(np.full((2, 2, 2), 0.375))
        val, _ = sample_trilinear(g, 0.2, 0.7, 0.4, BITS8)
        assert val[0] == 0.375

    def test_pure_depth_lerp(self):
        g = grid3([np.zeros((2, 2)), np.ones((2, 2))])
        w = float(remap_unit_to_texel_span(0.5, 2))
        val, _ = sample_trilinear(g, 0.5, 0.5, w, IDEAL)
        assert val[0] == 0.5

    def test_cubic_grid_bernstein_value(self):
        # packing of b=[0,1,1,0]; 3 s^2 t + 3 s t^2 with b1=b2=1 at t=0.5 is 0.75
        g = grid3([[[0.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 0.0]]])
        r = float(remap_unit_to_texel_span(0.5, 2))
        val, _ = sample_trilinear(g, r, r, r, IDEAL)
        assert val[0] == pytest.approx(0.75, abs=1e-15)

    def test_rejects_2d_grid(self):
        g = grid2([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(LayoutError):
            sample_trilinear(g, 0.5, 0.5, 0.5, IDEAL)

    def test_rejects_non_finite(self):
        g = grid3(np.zeros((2, 2, 2)))
        for bad, shape in itertools.product((np.nan, np.inf, -np.inf), ((), (1,), (7,))):
            for axis, name in enumerate("uvw"):
                coords = [np.full(shape, 0.5) for _ in range(3)]
                coords[axis][...] = bad
                with pytest.raises(DomainError, match=f"^{name} must be finite$"):
                    sample_trilinear(g, *coords, BITS8)

    def test_decomposition_is_exact(self, rng):
        data = rng.uniform(0, 1, (2, 2, 2))
        g = grid3(data)
        for _ in range(16):
            u, v, w = rng.uniform(0, 1, 3)
            tri, trace = sample_trilinear(g, u, v, w, BITS8)
            z_near = int(trace.texel_indices[0][2])
            z_far = int(trace.texel_indices[4][2])
            near, _ = sample_bilinear(g.slice2d(z_near), u, v, BITS8)
            far, _ = sample_bilinear(g.slice2d(z_far), u, v, BITS8)
            fz = float(trace.fractions[2])
            assert tri[0] == near[0] * (1.0 - fz) + far[0] * fz


def _draw(rng, shape):
    """Fractions in [0, 1] with 0, 1 and 1/2 mixed in."""
    if shape == ():
        return float(rng.choice([0.0, 1.0, 0.5, rng.uniform()]))
    x = rng.uniform(0.0, 1.0, shape)
    x.reshape(-1)[:3] = np.array([0.0, 1.0, 0.5])[: x.size]
    return x


class TestOptionKernel:
    @given(
        channels=st.integers(1, 4),
        axes=st.sampled_from((2, 3)),
        dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(2, 4)),
        shape=st.sampled_from(((), (1,), (_BLOCK + 5,), (3, 4))),
        counts=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
        single_depth=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_combination_matches_blend_with_fractions(
        self, channels, axes, dims, shape, counts, single_depth, seed
    ):
        rng = np.random.default_rng(seed)
        w, h, d = dims if axes == 3 else dims[:2] + (1,)
        data = rng.uniform(-2.0, 2.0, (d, h, w, channels))
        data.reshape(-1)[rng.integers(0, data.size)] = -0.0
        grid = TexelGrid((w, h, d), channels, TexelFormat.FLOAT32, data)
        bases = [rng.integers(-1, extent + 1, shape) for extent in grid.dims[:axes]]
        options = [tuple(_draw(rng, shape) for _ in range(k)) for k in counts[:axes]]
        if single_depth:  # as in the hybrid, whose depth fraction is never probed
            options[-1] = options[-1][:1]
        pairs = [sampler._clamp_pair(np.asarray(b, dtype=np.int64), extent)
                 for b, extent in zip(bases, grid.dims)]

        got = sampler._blend_options(sampler._corners(grid, pairs), options)
        combos = list(itertools.product(*options))
        assert len(got) == len(combos)
        for value, combo in zip(got, combos):
            want = blend_with_fractions(grid, bases, combo)
            assert value.shape == np.shape(bases[0]) + (channels,)
            assert value.dtype == want.dtype == np.float64
            assert value.tobytes() == want.tobytes()
