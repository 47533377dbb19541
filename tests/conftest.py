import numpy as np
import pytest

from texcurve import (
    ControlPolygon,
    SamplerConfig,
    TexelFormat,
    encode_bicubic_rgba,
    encode_bilinear_patch,
    encode_dc_cubic,
    encode_dc_quadratic,
    encode_dc_zigzag,
    encode_rational,
    encode_seiler,
)


IDEAL = SamplerConfig.ideal()
BITS8 = SamplerConfig(subtexel_bits=8)


def random_polygon(rng, degree, channels=1, lo=-1.0, hi=1.0):
    return ControlPolygon(rng.uniform(lo, hi, (degree + 1, channels)))


def random_c0_quadratics(rng, count, channels=1, lo=0.0, hi=1.0):
    """A chain of C0-joined quadratic segments with shared endpoints."""
    pts = rng.uniform(lo, hi, (2 * count + 1, channels))
    return [ControlPolygon(pts[2 * k : 2 * k + 3]) for k in range(count)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def one_curve_per_layout():
    """Layout -> one small float32 curve encoded in it, for every Layout."""
    rng = np.random.default_rng(11)
    f32 = TexelFormat.FLOAT32
    curves = (
        encode_dc_quadratic(random_polygon(rng, 2, 2), f32),
        encode_dc_cubic(random_polygon(rng, 3, 2), f32),
        encode_dc_zigzag(random_c0_quadratics(rng, 3), f32),
        encode_seiler(random_polygon(rng, 3, 2), f32),
        encode_seiler(random_polygon(rng, 5), f32),
        encode_bilinear_patch(rng.uniform(0, 1, (2, 2)), f32),
        encode_bicubic_rgba(rng.uniform(0, 1, (4, 4)), f32),
        encode_rational(random_polygon(rng, 2, 2, lo=0.0), [1.0, 0.7, 1.0], f32),
    )
    return {curve.layout: curve for curve in curves}
