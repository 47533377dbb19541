"""Layout oracle: the blend kernel, the Bernstein sum and every evaluator
against sample-major forms written out here.

Memory order changes no arithmetic, so however the library lays out its
lattice-length arrays, each result must equal, bit for bit, the form below:
a (texels, channels) take per corner blended with `f[..., None]` fraction
columns, and the term-by-term Bernstein sum over (n, channels) products.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from texcurve import (
    ControlPolygon,
    SamplerConfig,
    TexelFormat,
    TexelGrid,
    encode_bicubic_rgba,
    encode_bilinear_patch,
    encode_dc_cubic,
    encode_dc_quadratic,
    encode_dc_zigzag,
    encode_rational,
    encode_seiler,
    eval_bernstein,
    eval_bezier_chain,
    eval_bicubic_rgba,
    eval_bilinear_patch,
    eval_dc,
    eval_dc_cubic_hybrid,
    eval_dc_zigzag,
    eval_rational,
    eval_rational_tex,
    eval_seiler_tex,
    eval_tensor_surface,
    sample_bilinear,
    sample_trilinear,
)
from texcurve import reference, sampler, texeval
from texcurve.reference import bernstein_sum, pascal_row
from texcurve.sampler import blend_with_fractions
from texcurve.texeval import _BLOCK

#: coordinate shapes: scalar, one sample, a few, longer than one block, 2-D
SHAPES = ((), (1,), (7,), (_BLOCK + 5,), (3, 4))


def _chain(texels, offset, offsets, cols):
    if not offsets:
        return texels.take(offset, axis=0)
    o0, o1 = offsets[-1]
    a = _chain(texels, offset + o0, offsets[:-1], cols[:-1])
    b = _chain(texels, offset + o1, offsets[:-1], cols[:-1])
    return a * (1.0 - cols[-1]) + b * cols[-1]


def sample_major_blend(grid, pairs, fractions):
    """Corners taken from a (texels, channels) table, lerped x, then y,
    then z, with the fraction f of each (f, 1 - f) pair shaped (..., 1)
    against the channels."""
    texels = grid.data.reshape(-1, grid.channels)
    strides = (1, grid.width, grid.width * grid.height)
    offsets = [(i0 * s, i1 * s) for (i0, i1), s in zip(pairs, strides)]
    cols = [np.asarray(f, dtype=float) for f, _ in fractions]
    cols = [f[..., None] if f.ndim else f for f in cols]
    return _chain(texels, 0, offsets, cols)


def sample_major_bernstein_sum(points, t):
    d = len(points) - 1
    row = pascal_row(d)
    tt = np.asarray(t, dtype=float)[..., None]
    s = 1.0 - tt
    acc = row[0] * s**d * points[0]
    for i in range(1, d + 1):
        acc = acc + row[i] * s ** (d - i) * tt**i * points[i]
    return acc


@contextlib.contextmanager
def sample_major():
    """Run the library with the sample-major kernel and Bernstein sum."""
    with mock.patch.object(sampler, "_blend", sample_major_blend), \
            mock.patch.object(reference, "bernstein_sum", sample_major_bernstein_sum), \
            mock.patch.object(texeval, "bernstein_sum", sample_major_bernstein_sum):
        yield


def assert_same_bits(got, want):
    got = np.asarray(got)
    assert got.shape == np.shape(want)
    assert got.dtype == np.float64
    assert got.tobytes() == np.asarray(want, dtype=np.float64).tobytes()


def _draw(rng, lo, hi, shape):
    """Uniform values with the interval ends and the midpoint mixed in."""
    if shape == ():
        return float(rng.uniform(lo, hi))
    x = rng.uniform(lo, hi, shape)
    edges = np.array([lo, hi, 0.5 * (lo + hi), 0.0, 1.0])
    flat = x.reshape(-1)
    flat[: min(flat.size, edges.size)] = edges[: flat.size]
    return x


@given(
    channels=st.integers(1, 4),
    axes=st.sampled_from((2, 3)),
    dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(2, 4)),
    shape=st.sampled_from(SHAPES),
    bits=st.sampled_from((0, 4, 8, 12)),
    rounding=st.sampled_from(("nearest", "floor")),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_sample_major_form(channels, axes, dims, shape, bits, rounding, seed):
    rng = np.random.default_rng(seed)
    w, h, d = dims if axes == 3 else dims[:2] + (1,)
    data = rng.uniform(-2.0, 2.0, (d, h, w, channels))
    data.reshape(-1)[0] = -0.0
    grid = TexelGrid((w, h, d), channels, TexelFormat.FLOAT32, data)
    cfg = SamplerConfig(subtexel_bits=bits, subtexel_rounding=rounding)
    coords = [_draw(rng, -0.25, 1.25, shape) for _ in range(axes)]
    bases = [rng.integers(-1, extent + 1, shape) for extent in grid.dims[:axes]]
    fracs = [_draw(rng, 0.0, 1.0, shape) for _ in range(axes)]
    sample = sample_bilinear if axes == 2 else sample_trilinear

    got = (sample(grid, *coords, cfg)[0], blend_with_fractions(grid, bases, fracs))
    with sample_major():
        want = (sample(grid, *coords, cfg)[0], blend_with_fractions(grid, bases, fracs))
    for g, x in zip(got, want):
        assert g.shape == np.shape(coords[0]) + (channels,)
        assert_same_bits(g, x)


@pytest.mark.parametrize("channels", range(1, 5))
@pytest.mark.parametrize("degree", range(0, 9))
def test_bernstein_sum_matches_sample_major_form(degree, channels):
    """Every weight written out in full, 1 * (1-t)**d and (1-t)**0 * t**d
    included, on contiguous t and on its reversed view (whose powers take
    another path through numpy)."""
    rng = np.random.default_rng([degree, channels])
    points = rng.uniform(-2.0, 2.0, (degree + 1, channels))
    for shape in SHAPES:
        t = _draw(rng, 0.0, 1.0, shape)
        for t in (t,) if shape == () else (t, t[::-1]):
            assert_same_bits(bernstein_sum(points, t), sample_major_bernstein_sum(points, t))
            assert_same_bits(bernstein_sum(list(points), t),
                             sample_major_bernstein_sum(points, t))
    # per-sample points: (n, 1) as in the bicubic v direction, (n, channels)
    # as in the tensor surface's column polygon
    t = _draw(rng, 0.0, 1.0, (_BLOCK + 5,))
    for width in (1, channels):
        per_sample = rng.uniform(-2.0, 2.0, (degree + 1, t.shape[0], width))
        for t in (t, t[::-1]):
            assert_same_bits(bernstein_sum(per_sample, t),
                             sample_major_bernstein_sum(per_sample, t))


def _evaluations(rng, channels, fmt, cfg):
    """(name, fn, parameter) for every evaluator on seeded curves of `channels`."""
    t = np.concatenate([[0.0, 1.0, 0.5], rng.uniform(0.0, 1.0, 2 * _BLOCK + 14)])
    poly = {d: ControlPolygon(rng.uniform(0.0, 1.0, (d + 1, channels))) for d in (2, 3, 5)}
    chain = rng.uniform(0.0, 1.0, (7, channels))
    segments = [ControlPolygon(chain[2 * k : 2 * k + 3]) for k in range(3)]
    patch = rng.uniform(-1.0, 2.0, (2, 2, channels))
    net = rng.uniform(0.0, 1.0, (4, 4))
    weights = rng.uniform(0.5, 1.0, 3)
    curves = {
        "dc-quad": encode_dc_quadratic(poly[2], fmt, rescale=True),
        "dc-cubic": encode_dc_cubic(poly[3], fmt, rescale=True),
        "seiler-2d": encode_seiler(poly[3], fmt, rescale=True),
        "seiler-3d": encode_seiler(poly[5], fmt, rescale=True),
        "zigzag": encode_dc_zigzag(segments, fmt, rescale=True),
        "patch": encode_bilinear_patch(patch, fmt, rescale=True),
        "bicubic": encode_bicubic_rgba(net, fmt, rescale=True),
    }
    if channels < 4:
        curves["rational"] = encode_rational(poly[2], weights, fmt, scheme="dc", rescale=True)
    runs = [
        ("eval_dc quad", lambda x: eval_dc(curves["dc-quad"], x, cfg), t),
        ("eval_dc cubic", lambda x: eval_dc(curves["dc-cubic"], x, cfg), t),
        ("eval_dc_cubic_hybrid", lambda x: eval_dc_cubic_hybrid(curves["dc-cubic"], x, cfg), t),
        ("eval_seiler_tex 2d", lambda x: eval_seiler_tex(curves["seiler-2d"], x, cfg), t),
        ("eval_seiler_tex 3d", lambda x: eval_seiler_tex(curves["seiler-3d"], x, cfg), t),
        ("eval_dc_zigzag", lambda x: eval_dc_zigzag(curves["zigzag"], x, cfg), 3.0 * t),
        ("eval_bilinear_patch", lambda x: eval_bilinear_patch(curves["patch"], x, x, cfg), t),
        ("eval_bicubic_rgba", lambda x: eval_bicubic_rgba(curves["bicubic"], x, x[::-1], cfg), t),
        ("eval_bernstein", lambda x: eval_bernstein(poly[5], x), t),
        ("eval_bezier_chain", lambda x: eval_bezier_chain(segments, x), 3.0 * t),
        ("eval_tensor_surface", lambda x: eval_tensor_surface(patch, x, x[::-1]), t),
    ]
    if channels < 4:
        runs += [
            ("eval_rational_tex", lambda x: eval_rational_tex(curves["rational"], x, cfg), t),
            ("eval_rational", lambda x: eval_rational(poly[2], weights, x), t),
        ]
    return runs


@pytest.mark.parametrize("channels", range(1, 5))
@pytest.mark.parametrize("fmt", (TexelFormat.UNORM8, TexelFormat.FLOAT32))
def test_every_evaluator_keeps_shape_dtype_and_bytes(channels, fmt):
    cfg = SamplerConfig(subtexel_bits=8)
    for name, fn, t in _evaluations(np.random.default_rng(channels), channels, fmt, cfg):
        got = fn(t)
        with sample_major():
            want = fn(t)
        width = 1 if name == "eval_bicubic_rgba" else channels
        assert got.shape == (t.shape[0], width), name
        assert_same_bits(got, want)
