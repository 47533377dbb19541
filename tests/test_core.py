import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from texcurve import (
    ChannelMismatchError,
    ControlPolygon,
    DomainError,
    EncodedCurve,
    Layout,
    LayoutError,
    RangeError,
    SamplerConfig,
    TexelFormat,
    TexelGrid,
    ValueTransform,
    lerp,
    remap_unit_to_texel_span,
)
from texcurve.core import _param_in, _quantize_array, _texel_span, _unit_param, _unorm_codes

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)
unit = st.floats(min_value=0.0, max_value=1.0)


class TestLerp:
    def test_midpoint(self):
        assert lerp(0.0, 1.0, 0.5) == 0.5

    def test_identity_endpoints(self):
        x = np.array([0.25, -3.0, 7.5])
        for t in (0.0, 0.3, 1.0):
            assert lerp(x, x, t) == pytest.approx(list(x))

    def test_direct_arithmetic(self):
        # a*(1-t) + b*t with a=2, b=6, t=0.25
        assert lerp(2.0, 6.0, 0.25) == 3.0

    def test_channel_mismatch(self):
        with pytest.raises(ChannelMismatchError):
            lerp(np.zeros(2), np.zeros(3), 0.5)

    @given(finite, finite, unit)
    def test_swap_symmetry(self, a, b, t):
        # lerp(a,b,t) + lerp(b,a,t) == a + b, to a few ulps at operand scale
        total = float(lerp(a, b, t) + lerp(b, a, t))
        expect = a + b
        tol = 4 * np.spacing(max(abs(a), abs(b), 1.0))
        assert abs(total - expect) <= tol


class TestRemap:
    def test_two_texel_span(self):
        assert remap_unit_to_texel_span(0.0, 2) == 0.25
        assert remap_unit_to_texel_span(1.0, 2) == 0.75
        assert remap_unit_to_texel_span(0.5, 2) == 0.5

    def test_outside_unit_interval(self):
        with pytest.raises(DomainError):
            remap_unit_to_texel_span(-0.01, 2)
        with pytest.raises(DomainError):
            remap_unit_to_texel_span(1.01, 2)

    def test_extent_too_small(self):
        with pytest.raises(DomainError):
            remap_unit_to_texel_span(0.5, 1)

    @pytest.mark.parametrize("extent", [2, 3, 7, 64, 1024, 4096])
    def test_endpoints_and_monotonicity(self, extent):
        assert remap_unit_to_texel_span(0.0, extent) == 0.5 / extent
        assert remap_unit_to_texel_span(1.0, extent) == (extent - 0.5) / extent
        xs = np.linspace(0, 1, 257)
        ys = remap_unit_to_texel_span(xs, extent)
        assert np.all(np.diff(ys) > 0)

    @given(unit, st.integers(min_value=2, max_value=4096))
    def test_affine(self, x, extent):
        y = float(remap_unit_to_texel_span(x, extent))
        expect = (0.5 + x * (extent - 1)) / extent
        assert y == expect


def floats_around(center: float, count: int = 1 << 20) -> np.ndarray:
    """The `count` float64 values nearest `center` (0.0, or a positive
    float), in order: around 0 the subnormals of both signs, ±0.0
    included."""
    half = count // 2
    if center == 0.0:
        below = np.arange(half, dtype=np.int64).view(np.float64)
        return np.concatenate((-below[::-1], below))
    return (np.float64(center).view(np.int64) + np.arange(-half, half)).view(np.float64)


class TestTwoTexelSpan:
    """`_texel_span` maps onto a 2-texel axis: it has the bytes of the
    general map (0.5 + x·(extent - 1)) / extent at extent 2 at every
    finite float, and so of the checked `remap_unit_to_texel_span` on
    [0, 1]."""

    @staticmethod
    def general(x):
        return (0.5 + x * 1) / 2

    @pytest.mark.parametrize("center", (0.0, 0.5, 1.0))
    def test_floats_around_the_ends_and_the_middle(self, center):
        x = floats_around(center)
        assert _texel_span(x).tobytes() == self.general(x).tobytes()
        inside = x[(x >= 0.0) & (x <= 1.0)]
        assert remap_unit_to_texel_span(inside, 2).tobytes() == _texel_span(inside).tobytes()

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_every_finite_float(self, x):
        assert np.float64(_texel_span(x)).tobytes() == np.float64(self.general(x)).tobytes()
        x = np.array([x, -x])
        assert _texel_span(x).tobytes() == self.general(x).tobytes()

    @given(unit)
    def test_checked_map_at_two_texels(self, x):
        assert np.float64(remap_unit_to_texel_span(x, 2)).tobytes() \
            == np.float64(_texel_span(x)).tobytes()


class TestUnitParam:
    """`_unit_param` decides [0, 1] by one min and one max: NaN, ±inf and
    the floats just outside are refused in every form, -0.0 and the floats
    just inside pass, and a passed array is `np.asarray(t, float)`."""

    REFUSED = (np.nan, np.inf, -np.inf, np.nextafter(1.0, 2.0), -5e-324)
    KEPT = (0.0, -0.0, 1.0, 0.5, 5e-324, np.nextafter(1.0, 0.0))

    @staticmethod
    def shaped(value, form):
        """`value` as a Python float, a 0-d array or beside 0.25 and 0.75 in
        a 1-D or 2-D array."""
        return {"float": float(value), "0-d": np.array(value),
                "1-D": np.array([0.25, value, 0.75]),
                "2-D": np.array([[0.25, 0.75], [value, 0.5]])}[form]

    @pytest.mark.parametrize("form", ("float", "0-d", "1-D", "2-D"))
    @pytest.mark.parametrize("value", REFUSED)
    def test_nan_inf_and_values_just_outside_are_refused(self, value, form):
        with pytest.raises(DomainError, match="^parameter outside \\[0, 1\\]$"):
            _unit_param(self.shaped(value, form))

    @pytest.mark.parametrize("form", ("float", "0-d", "1-D", "2-D"))
    @pytest.mark.parametrize("value", KEPT)
    def test_values_inside_keep_their_array(self, value, form):
        t = self.shaped(value, form)
        want = np.asarray(t, dtype=float)
        got = _unit_param(t)
        assert type(got) is np.ndarray and got.dtype == np.float64
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    @pytest.mark.parametrize("shape", ((0,), (0, 3), (2, 0)))
    def test_empty_arrays_pass(self, shape):
        assert _unit_param(np.empty(shape)).shape == shape
        assert _unit_param([]).shape == (0,)


class TestParamIn:
    """`_param_in` is `_unit_param`'s check on any [lo, hi]: NaN, ±inf and
    the floats just outside are refused, and a failure names the first
    value outside in C order and the two ends."""

    TEMPLATE = "t={t} outside [{lo}, {hi}]"

    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf, np.nextafter(3.0, 4.0),
                                       np.nextafter(-1.0, -2.0)))
    def test_values_outside_are_refused_by_name(self, value):
        for t in (value, np.array([[0.0, 2.5], [value, -1.0]])):
            with pytest.raises(DomainError) as raised:
                _param_in(t, -1.0, 3, self.TEMPLATE)
            assert str(raised.value) == f"t={value} outside [-1.0, 3]"

    def test_the_first_value_outside_is_in_c_order(self):
        t = np.array([[0.5, 7.0], [-2.0, np.nan]])
        for order in ("C", "F"):
            with pytest.raises(DomainError, match=r"^t=7\.0 outside \[0\.0, 1\.0\]$"):
                _param_in(np.asarray(t, order=order), 0.0, 1.0, self.TEMPLATE)
        with pytest.raises(DomainError, match=r"^t=-2\.0 outside"):
            _param_in(t[::-1], 0.0, 1.0, self.TEMPLATE)

    def test_values_inside_keep_their_array(self):
        t = [[-1.0, -0.0], [3.0, np.nextafter(3.0, 0.0)]]
        got = _param_in(t, -1.0, 3, self.TEMPLATE)
        assert got.dtype == np.float64 and got.tobytes() == np.array(t).tobytes()
        assert _param_in(np.empty((2, 0)), 5.0, 6.0, self.TEMPLATE).shape == (2, 0)


class TestControlPolygon:
    def test_scalar_curve_gets_one_channel(self):
        poly = ControlPolygon([0.0, 1.0, 0.0])
        assert poly.degree == 2
        assert poly.channels == 1

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            ControlPolygon([1.0])

    def test_too_many_channels(self):
        with pytest.raises(ChannelMismatchError):
            ControlPolygon(np.zeros((3, 5)))

    def test_immutable(self):
        poly = ControlPolygon([0.0, 1.0])
        with pytest.raises(ValueError):
            poly.points[0] = 5.0


def _quantized(dims, channels, fmt, data):
    """A grid of quantizer output, built the way `encoder._finish` builds
    every encoder's grid: the quantizer runs before the constructor."""
    return TexelGrid(dims, channels, fmt, _quantize_array(np.asarray(data, dtype=np.float64), fmt))


#: the one grid constructor, called directly and on quantizer output, the
#: route every encoder takes; the layout checks hold on both
GRID_CONSTRUCTORS = pytest.mark.parametrize("make", [TexelGrid, _quantized],
                                            ids=["TexelGrid", "_quantized"])


class TestTexelGrid:
    def test_count_mismatch(self):
        with pytest.raises(LayoutError, match=r"^texel count does not match dims x channels: "
                                              r"5 values for 4$"):
            TexelGrid((2, 2, 1), 1, TexelFormat.FLOAT32, np.zeros(5))

    @GRID_CONSTRUCTORS
    @pytest.mark.parametrize("fmt", list(TexelFormat), ids=lambda f: f.value)
    @pytest.mark.parametrize("dims, channels, count", [
        ((2, 2, 1), 1, 5), ((2, 2, 1), 1, 3), ((2, 2, 2), 3, 12), ((3, 1, 1), 2, 0)])
    def test_count_is_checked_before_the_reshape(self, make, fmt, dims, channels, count):
        expect = dims[0] * dims[1] * dims[2] * channels
        with pytest.raises(LayoutError, match=_exactly(
                f"texel count does not match dims x channels: {count} values for {expect}")):
            make(dims, channels, fmt, np.zeros(count))

    @GRID_CONSTRUCTORS
    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 1, 1), (), (2.5, 2, 1), (2, 2.0, 1),
                                      (2, np.float64(2), 1), (2, "2", 1), None, 3],
                             ids=repr)
    def test_dims_must_be_three_integers(self, make, dims):
        with pytest.raises(LayoutError, match=_exactly(
                f"grid dims must be three integers, got {dims!r}")):
            make(dims, 1, TexelFormat.FLOAT32, np.zeros(4))

    @GRID_CONSTRUCTORS
    def test_integer_dims_are_stored_as_ints(self, make):
        grid = make(np.array([2, 1, 1]), 1, TexelFormat.FLOAT32, np.zeros(2))
        assert grid.dims == (2, 1, 1) and all(type(v) is int for v in grid.dims)

    def test_unorm_lattice_enforced(self):
        with pytest.raises(RangeError):
            TexelGrid((2, 2, 1), 1, TexelFormat.UNORM8, np.full(4, 0.3))

    def test_unorm_lattice_values_accepted(self):
        vals = np.array([0, 77, 128, 255]) / 255.0
        grid = TexelGrid((2, 2, 1), 1, TexelFormat.UNORM8, vals)
        assert grid.texel(1, 0)[0] == 77 / 255

    @pytest.mark.parametrize("pattern", (0x7FF8000000000000, 0x7FF4000000000000,
                                         0x7FF0000000000000, 0xFFF0000000000000),
                             ids=("qnan", "snan", "+inf", "-inf"))
    def test_non_finite_float32_refused_without_a_warning(self, pattern):
        data = np.zeros(4)
        data.view(np.uint64)[2] = pattern
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match="float32 grid values must be finite"):
                TexelGrid((2, 2, 1), 1, TexelFormat.FLOAT32, data)

    @pytest.mark.parametrize("fmt", [TexelFormat.UNORM8, TexelFormat.UNORM16],
                             ids=lambda f: f.value)
    def test_every_unorm_code_is_accepted_with_its_bytes(self, fmt):
        codes = np.arange(fmt.levels + 1) / fmt.levels
        grid = TexelGrid((codes.size, 1, 1), 1, fmt, codes)
        assert grid.data.tobytes() == codes.tobytes()

    @pytest.mark.parametrize("fmt, step", [(TexelFormat.UNORM8, 1), (TexelFormat.UNORM16, 257)],
                             ids=["unorm8", "unorm16"])
    def test_every_value_off_the_unorm_lattice_is_refused(self, fmt, step):
        # both float neighbours of every (unorm8) or every 257th (unorm16)
        # code, the smallest steps off 0 and 1, and the non-finite values
        codes = np.arange(0, fmt.levels + 1, step) / fmt.levels
        off = np.concatenate([np.nextafter(codes, -np.inf), np.nextafter(codes, np.inf),
                              [5e-324, 1.0 + 2.0**-52, -5e-324, np.nan, np.inf, -np.inf]])
        message = f"^unorm grid values must lie exactly on the k/{fmt.levels} lattice$"
        for value in off:
            with pytest.raises(RangeError, match=message):
                TexelGrid((1, 1, 1), 1, fmt, [value])

    @pytest.mark.parametrize("fmt", list(TexelFormat), ids=lambda f: f.value)
    def test_signed_zeros_are_accepted_with_their_bytes(self, fmt):
        zeros = np.array([0.0, -0.0])
        assert TexelGrid((2, 1, 1), 1, fmt, zeros).data.tobytes() == zeros.tobytes()

    @pytest.mark.parametrize("index", [(-1, 0), (3, 0), (0, -1), (0, 2), (0, 0, 2),
                                       (0, 0, -1), (-3, -2, -2)], ids=repr)
    def test_texel_outside_the_dims_is_a_layout_error(self, index):
        grid = TexelGrid((3, 2, 2), 1, TexelFormat.FLOAT32, np.arange(12.0))
        x, y, z = (index + (0,))[:3]
        with pytest.raises(LayoutError, match=_exactly(
                f"texel ({x}, {y}, {z}) outside dims (3, 2, 2)")):
            grid.texel(*index)

    def test_texel_reads_every_index_inside(self):
        grid = TexelGrid((3, 2, 2), 1, TexelFormat.FLOAT32, np.arange(12.0))
        got = [float(grid.texel(x, y, z)[0]) for z in range(2) for y in range(2) for x in range(3)]
        assert got == list(range(12))

    @pytest.mark.parametrize("index", [(0.5, 0), (0, 1.0), (0, 0, np.float64(0.0)), ("1", 0),
                                       (0, None)], ids=repr)
    def test_texel_indices_must_be_integers(self, index):
        grid = TexelGrid((2, 2, 1), 1, TexelFormat.FLOAT32, np.arange(4.0))
        x, y, z = (index + (0,))[:3]
        with pytest.raises(LayoutError, match=_exactly(
                f"texel indices must be integers, got ({x!r}, {y!r}, {z!r})")):
            grid.texel(*index)

    @pytest.mark.parametrize("z", [0.5, 1.0, np.float64(1.0), "1", None], ids=repr)
    def test_slice_index_must_be_an_integer(self, z):
        grid = TexelGrid((2, 2, 2), 1, TexelFormat.FLOAT32, np.zeros(8))
        with pytest.raises(LayoutError, match=_exactly(
                f"slice index must be an integer, got {z!r}")):
            grid.slice2d(z)

    def test_numpy_integer_indices_are_read_as_ints(self):
        grid = TexelGrid((3, 2, 2), 1, TexelFormat.FLOAT32, np.arange(12.0))
        assert float(grid.texel(np.int64(2), np.uint8(1), np.int32(1))[0]) == 11.0
        assert grid.slice2d(np.int64(1)).data.tobytes() == grid.data[1].tobytes()

    def test_slice2d(self):
        data = np.arange(8, dtype=float).reshape(2, 2, 2, 1) / 10.0
        grid = TexelGrid((2, 2, 2), 1, TexelFormat.FLOAT32, data)
        back = grid.slice2d(1)
        assert back.depth == 1
        assert np.array_equal(back.data[0], data[1])


@pytest.mark.parametrize("fmt", [TexelFormat.UNORM8, TexelFormat.UNORM16], ids=lambda f: f.value)
class TestUnormCodes:
    """`TexelGrid`'s code check accepts a unorm value exactly when the
    quantizer leaves it unchanged (`_unorm_codes`' docstring argues it)."""

    def test_code_check_agrees_with_the_quantizer(self, fmt):
        levels = fmt.levels
        codes = np.arange(levels + 1) / levels
        beyond = np.concatenate([np.arange(-levels, 0), np.arange(levels + 1, 2 * levels + 1)])
        special = [0.0, -0.0, 5e-324, -5e-324, 1.0 + 2.0**-52, np.nan, np.inf, -np.inf]
        values = np.concatenate([codes, np.nextafter(codes, -np.inf),
                                 np.nextafter(codes, np.inf), beyond / levels, special])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            by_codes = _unorm_codes(values, fmt) / levels == values
            by_quantizer = _quantize_array(values, fmt) == values
        assert np.array_equal(by_codes, by_quantizer)
        # every code and both zeros pass; nothing else does
        assert by_codes.sum() == levels + 3

    def test_values_only_the_clip_refuses(self, fmt):
        for k in (-1, fmt.levels + 1):
            with pytest.raises(RangeError, match=_exactly(
                    f"unorm grid values must lie exactly on the k/{fmt.levels} lattice")):
                TexelGrid((1, 1, 1), 1, fmt, [k / fmt.levels])


class TestSamplerConfig:
    def test_bits_bounds(self):
        SamplerConfig(subtexel_bits=0)
        SamplerConfig(subtexel_bits=24)
        with pytest.raises(DomainError):
            SamplerConfig(subtexel_bits=25)
        with pytest.raises(DomainError):
            SamplerConfig(subtexel_bits=-1)

    def test_rounding_values(self):
        with pytest.raises(DomainError):
            SamplerConfig(subtexel_rounding="stochastic")

    @pytest.mark.parametrize("bits", [8.5, 8.0, np.float64(8.0), "8", None], ids=repr)
    def test_bits_must_be_an_integer(self, bits):
        with pytest.raises(DomainError, match=_exactly(
                f"subtexel_bits must be an integer, got {bits!r}")):
            SamplerConfig(subtexel_bits=bits)

    def test_integer_bits_are_stored_as_ints(self):
        for bits in (np.int64(8), np.uint8(8), 8):
            cfg = SamplerConfig(subtexel_bits=bits)
            assert type(cfg.subtexel_bits) is int and cfg == SamplerConfig()


class TestQuantStep:
    """float32's step is `np.spacing` of the value's float32 magnitude; a
    magnitude float32 cannot hold raises DomainError without a warning."""

    F32_MAX = float(np.finfo(np.float32).max)

    @pytest.mark.parametrize("reference", [1e39, -1e39, float(np.nextafter(F32_MAX, np.inf)),
                                           np.inf, -np.inf, np.nan], ids=repr)
    def test_float32_refuses_what_it_cannot_hold(self, reference):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=_exactly(
                    f"float32 cannot hold a value of magnitude {float(abs(reference))!r}")):
                TexelFormat.FLOAT32.quant_step(reference)

    @pytest.mark.parametrize("reference", [0.0, 5e-324, 1e-45, 1.0, -2.0, 3e38, 1e30],
                             ids=repr)
    def test_float32_step_is_the_spacing_of_the_value(self, reference):
        assert TexelFormat.FLOAT32.quant_step(reference) \
            == float(np.spacing(np.float32(abs(reference))))

    def test_the_largest_float32_takes_its_binade_step(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for reference in (self.F32_MAX, -self.F32_MAX):
                assert TexelFormat.FLOAT32.quant_step(reference) == 2.0**104

    @pytest.mark.parametrize("fmt", [TexelFormat.UNORM8, TexelFormat.UNORM16],
                             ids=lambda f: f.value)
    def test_unorm_steps_ignore_the_reference(self, fmt):
        for reference in (1.0, 1e39, np.inf, np.nan):
            assert fmt.quant_step(reference) == 1.0 / fmt.levels


class TestValueTransform:
    def test_zero_scale_rejected(self):
        with pytest.raises(DomainError):
            ValueTransform(np.array([0.0]), np.array([0.0]))

    def test_apply_invert_roundtrip(self):
        tf = ValueTransform(np.array([0.25, 2.0]), np.array([0.25, -1.0]))
        vals = np.array([[1.0, 2.0], [-1.0, 0.5]])
        assert np.allclose(tf.invert(tf.apply(vals)), vals)


class TestEncodedCurveInvariants:
    def _grid(self, dims, channels=1):
        w, h, d = dims
        return TexelGrid(dims, channels, TexelFormat.FLOAT32, np.zeros(w * h * d * channels))

    def test_seiler_2d_degree(self):
        with pytest.raises(LayoutError):
            EncodedCurve(self._grid((2, 2, 1)), Layout.SEILER_2D, degree=4)

    def test_dc_cubic_dims(self):
        with pytest.raises(LayoutError):
            EncodedCurve(self._grid((2, 2, 1)), Layout.DC_CUBIC_2X2X2, degree=3)

    def test_zigzag_dims_follow_segments(self):
        EncodedCurve(self._grid((4, 2, 1)), Layout.DC_ZIGZAG, degree=2, segment_count=3)
        with pytest.raises(LayoutError):
            EncodedCurve(self._grid((4, 2, 1)), Layout.DC_ZIGZAG, degree=2, segment_count=2)

    @pytest.mark.parametrize("layout, dims, degree", [
        (Layout.DC_QUAD_2X2, (2, 2, 1), 2),
        (Layout.DC_CUBIC_2X2X2, (2, 2, 2), 3),
        (Layout.SEILER_2D, (2, 2, 1), 3),
        (Layout.SEILER_3D, (2, 2, 2), 5),
        (Layout.BILINEAR_PATCH, (2, 2, 1), 1),
        (Layout.BICUBIC_RGBA, (2, 2, 2), 3),
    ])
    def test_one_segment_outside_the_zigzag(self, layout, dims, degree):
        EncodedCurve(self._grid(dims), layout, degree=degree, segment_count=1)
        with pytest.raises(LayoutError, match="holds one segment, got 2"):
            EncodedCurve(self._grid(dims), layout, degree=degree, segment_count=2)

    def test_rational_holds_one_segment(self):
        with pytest.raises(LayoutError, match="holds one segment"):
            EncodedCurve(self._grid((2, 2, 1), 2), Layout.RATIONAL_HOMOGENEOUS, degree=2,
                         segment_count=3, inner_layout=Layout.SEILER_2D)

    def test_rational_weight_channel_keeps_the_identity(self):
        grid = self._grid((2, 2, 1), 2)
        points_only = ValueTransform(np.array([2.0, 1.0]), np.array([-1.0, 0.0]))
        EncodedCurve(grid, Layout.RATIONAL_HOMOGENEOUS, degree=2, transform=points_only,
                     inner_layout=Layout.SEILER_2D)
        for scale, offset in (([1.0, 2.0], [0.0, 0.0]), ([1.0, 1.0], [0.0, -0.5])):
            with pytest.raises(LayoutError, match="identity transform on the weight channel"):
                EncodedCurve(grid, Layout.RATIONAL_HOMOGENEOUS, degree=2,
                             transform=ValueTransform(np.array(scale), np.array(offset)),
                             inner_layout=Layout.SEILER_2D)

    def test_rational_needs_inner_layout(self):
        with pytest.raises(LayoutError):
            EncodedCurve(self._grid((2, 2, 1), 2), Layout.RATIONAL_HOMOGENEOUS, degree=2)

    @pytest.mark.parametrize("inner, dims", [
        (Layout.SEILER_2D, (2, 2, 1)),
        (Layout.DC_QUAD_2X2, (2, 2, 1)),
        (Layout.DC_CUBIC_2X2X2, (2, 2, 2)),
    ])
    def test_rational_dims_follow_inner_layout(self, inner, dims):
        # the evaluators read as many axes as the inner layout has; a grid
        # of the other depth must not reach them
        EncodedCurve(self._grid(dims, 2), Layout.RATIONAL_HOMOGENEOUS, degree=2, inner_layout=inner)
        other = (2, 2, 3 - dims[2])
        with pytest.raises(LayoutError, match="require grid dims"):
            EncodedCurve(self._grid(other, 2), Layout.RATIONAL_HOMOGENEOUS, degree=2,
                         inner_layout=inner)


def _exactly(message):
    """A `pytest.raises` pattern that matches `message` and nothing more."""
    return "^" + re.escape(message) + "$"


class TestRefusalsKeepTheirTypeMessageAndOrder:
    """The guards of `ValueTransform`, `TexelGrid`, `EncodedCurve` and
    `TexelFormat.levels`, each with its exact type and message. Where an
    input breaks two rules, the first check in the constructor's order
    names it."""

    @pytest.mark.parametrize("scale, offset", [
        ([1.0, 2.0], [0.0]),
        (np.ones((2, 2)), np.zeros((2, 2))),
        (np.ones((1, 2)), np.zeros(2)),
        ([np.nan, 1.0], [0.0]),  # the shape is checked before the values
    ], ids=["length", "ndim", "ndim-vs-1d", "shape-before-nan"])
    def test_transform_shape(self, scale, offset):
        with pytest.raises(ChannelMismatchError,
                           match=_exactly("scale and offset must be matching 1-D vectors")):
            ValueTransform(scale, offset)

    @pytest.mark.parametrize("scale, offset", [
        ([0.0], [0.0]), ([1.0, -0.0], [0.0, 0.0]), ([np.nan], [0.0]), ([np.inf], [0.0]),
        ([-np.inf], [0.0]), ([1.0], [np.nan]), ([1.0], [np.inf]), ([1.0, 1.0], [0.0, -np.inf]),
    ], ids=["zero", "negative-zero", "nan", "inf", "-inf", "offset-nan", "offset-inf",
            "offset--inf"])
    def test_transform_values(self, scale, offset):
        with pytest.raises(DomainError,
                           match=_exactly("transform scale must be finite and nonzero")):
            ValueTransform(scale, offset)

    def test_transform_accepts_empty_vectors(self):
        tf = ValueTransform(np.array([]), np.array([]))
        assert tf.channels == 0 and tf.is_identity

    def test_transform_scalars_become_one_channel(self):
        tf = ValueTransform(2.0, -1.0)
        assert tf.scale.tobytes() == np.array([2.0]).tobytes()
        assert tf.offset.tobytes() == np.array([-1.0]).tobytes()

    @pytest.mark.parametrize("dims", [(0, 2, 1), (2, -1, 1), (2, 2, 0)])
    def test_grid_dims_must_be_positive(self, dims):
        with pytest.raises(LayoutError, match=_exactly(f"grid dims must be positive, got {dims}")):
            TexelGrid(dims, 5, TexelFormat.FLOAT32, np.zeros(0))  # dims before channels

    @pytest.mark.parametrize("channels", [0, 5])
    def test_grid_channels(self, channels):
        with pytest.raises(ChannelMismatchError, match=_exactly("grids carry 1..4 channels")):
            TexelGrid((2, 2, 1), channels, TexelFormat.UNORM8, np.full(4 * channels, 0.3))

    @pytest.mark.parametrize("fmt", [TexelFormat.UNORM8, TexelFormat.UNORM16],
                             ids=lambda f: f.value)
    def test_grid_off_lattice_unorm(self, fmt):
        data = np.zeros(4)
        data[3] = 0.5  # no k / L equals 1/2 for an odd L
        with pytest.raises(RangeError, match=_exactly(
                f"unorm grid values must lie exactly on the k/{fmt.levels} lattice")):
            TexelGrid((2, 2, 1), 1, fmt, data)

    def test_grid_non_finite_float32(self):
        with pytest.raises(RangeError, match=_exactly("float32 grid values must be finite")):
            TexelGrid((2, 2, 1), 1, TexelFormat.FLOAT32, [0.0, 1.0, -np.inf, 0.5])

    @pytest.mark.parametrize("z", [2, 3, -1])
    def test_slice2d_out_of_range(self, z):
        grid = TexelGrid((2, 2, 2), 1, TexelFormat.FLOAT32, np.zeros(8))
        with pytest.raises(LayoutError, match=_exactly(f"slice index {z} outside depth 2")):
            grid.slice2d(z)

    def test_slice2d_keeps_the_slice_bytes(self):
        data = np.array([0.0, -0.0, 1.0, 0.25, 0.5, -0.0, 0.75, 1.0]) * 255 // 1 / 255
        grid = TexelGrid((2, 2, 2), 1, TexelFormat.UNORM8, data)
        for z in range(2):
            assert grid.slice2d(z).data.tobytes() == data[4 * z: 4 * z + 4].tobytes()

    def _grid(self, dims, channels=1):
        w, h, d = dims
        return TexelGrid(dims, channels, TexelFormat.FLOAT32, np.zeros(w * h * d * channels))

    def test_curve_transform_channels(self):
        with pytest.raises(ChannelMismatchError,
                           match=_exactly("transform channel count must match the grid")):
            EncodedCurve(self._grid((2, 2, 1)), Layout.DC_QUAD_2X2, degree=2,
                         transform=ValueTransform.identity(2))

    @pytest.mark.parametrize("count", [0, -1])
    def test_curve_segment_count(self, count):
        with pytest.raises(DomainError, match=_exactly("segment_count must be >= 1")):
            EncodedCurve(self._grid((2, 2, 1)), Layout.DC_QUAD_2X2, degree=2, segment_count=count)

    def test_curve_several_segments_outside_the_zigzag(self):
        with pytest.raises(LayoutError, match=_exactly("seiler_3d holds one segment, got 4")):
            EncodedCurve(self._grid((2, 2, 2)), Layout.SEILER_3D, degree=4, segment_count=4)

    @pytest.mark.parametrize("degree", [1, 3])
    def test_curve_zigzag_degree(self, degree):
        with pytest.raises(LayoutError,
                           match=_exactly("zig-zag grids hold quadratic segments only")):
            EncodedCurve(self._grid((3, 2, 1)), Layout.DC_ZIGZAG, degree=degree, segment_count=2)

    @pytest.mark.parametrize("degree", [1, 4])
    def test_curve_rational_degree(self, degree):
        with pytest.raises(LayoutError,
                           match=_exactly("rational encoding supports degrees 2 and 3")):
            EncodedCurve(self._grid((2, 2, 1), 2), Layout.RATIONAL_HOMOGENEOUS, degree=degree,
                         inner_layout=Layout.SEILER_2D)

    @pytest.mark.parametrize("inner", [None, Layout.SEILER_3D, Layout.DC_ZIGZAG,
                                       Layout.RATIONAL_HOMOGENEOUS])
    def test_curve_rational_inner_layout(self, inner):
        with pytest.raises(LayoutError,
                           match=_exactly("rational curves must record an integral inner layout")):
            EncodedCurve(self._grid((2, 2, 1), 2), Layout.RATIONAL_HOMOGENEOUS, degree=2,
                         inner_layout=inner)

    def test_curve_inner_layout_outside_rational(self):
        with pytest.raises(LayoutError,
                           match=_exactly("inner_layout is only meaningful for rational curves")):
            EncodedCurve(self._grid((2, 2, 1)), Layout.DC_QUAD_2X2, degree=2,
                         inner_layout=Layout.SEILER_2D)

    def test_float32_has_no_levels(self):
        with pytest.raises(ValueError, match=_exactly("float32 has no unorm level count")):
            TexelFormat.FLOAT32.levels
