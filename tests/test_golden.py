"""Frozen outputs: one digest over every evaluation path.

Seeded curves in all eight layouts are encoded in each texel format and
evaluated under every subtexel bits x rounding setting. The digest covers
the raw float64 bytes of each evaluator (vector and scalar calls, and the
sweep of every mode), the quantized fractions and texel indices a lookup
records, direct blend probes, and the error bound. An error a call raises
enters the digest as its class name.

LARGE_DIGEST covers every 1-parameter evaluator over a lattice longer than
two evaluation blocks and not a multiple of one, plus scalar calls at the
lattice points where blocks of 4096, 8192 or 16384 samples begin and end.
BOUND_DIGEST covers the error bound of every 1-parameter mode over the same
lattice length, with and without a reference.

A change meant to keep outputs bitwise identical must leave both digests as
they are. A change that alters outputs on purpose updates them and says why.
"""

import hashlib

import numpy as np

from texcurve import (
    ControlPolygon,
    SamplerConfig,
    TexCurveError,
    TexelFormat,
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
from texcurve.analysis import error_bound_estimate, sweep
from texcurve.sampler import blend_with_fractions

DIGEST = "e2ef196711eb5db75dc8af4990adf3cd5269201b9aa7bc3448e1e9e6ed2741fe"

FORMATS = (TexelFormat.UNORM8, TexelFormat.UNORM16, TexelFormat.FLOAT32)
CONFIGS = tuple(
    SamplerConfig(subtexel_bits=bits, subtexel_rounding=rounding)
    for bits in (0, 4, 8, 12)
    for rounding in ("nearest", "floor")
)
SWEEP_SAMPLES = 33

LARGE_DIGEST = "96ee5791c353d8f1c7677daa6a35b7b4a06c77a89d2a8f4a90023f3641c985a7"
LARGE_N = 20001
LARGE_CONFIGS = tuple(
    SamplerConfig(subtexel_bits=bits, subtexel_rounding=rounding)
    for bits in (0, 8, 12)
    for rounding in ("nearest", "floor")
)
BOUNDARY_INDICES = (0, 4095, 4096, 8191, 8192, 8193, 12288, 16383, 16384, 16385, 20000)
BOUND_DIGEST = "08668cbff5ca4fd56c839b42d93c055261fadc65334b043a11365aa2a00d281f"


def _curves(rng):
    """(name, encode(fmt), mode -> evaluator, reference, domain end) per curve."""
    quad = ControlPolygon(rng.uniform(-1.0, 1.0, (3, 2)))
    cubic = ControlPolygon(rng.uniform(-1.0, 1.0, (4, 1)))
    seiler2 = ControlPolygon(rng.uniform(0.0, 1.0, (4, 2)))
    seiler3 = ControlPolygon(rng.uniform(0.0, 1.0, (6, 1)))
    chain = rng.uniform(0.0, 1.0, (7, 2))
    segments = [ControlPolygon(chain[2 * k : 2 * k + 3]) for k in range(3)]
    patch = rng.uniform(-1.0, 2.0, (2, 2, 2))
    bicubic = rng.uniform(0.0, 1.0, (4, 4))
    rat2 = ControlPolygon(rng.uniform(0.0, 1.0, (3, 2)))
    rat3 = ControlPolygon(rng.uniform(0.0, 1.0, (4, 1)))
    w2 = rng.uniform(0.5, 1.0, 3)
    w3 = rng.uniform(0.5, 1.0, 4)

    def bernstein(poly):
        return lambda t: eval_bernstein(poly, t)

    def surface(net):
        return lambda t: eval_tensor_surface(net, t, t)

    def diagonal(fn):
        return lambda curve, t, cfg: fn(curve, t, t[::-1] if np.ndim(t) else t, cfg)

    return (
        ("dc-quad", lambda f: encode_dc_quadratic(quad, f, rescale=True),
         {"dc": eval_dc}, bernstein(quad), 1.0),
        ("dc-cubic", lambda f: encode_dc_cubic(cubic, f, rescale=True),
         {"dc": eval_dc, "dc-hybrid": eval_dc_cubic_hybrid}, bernstein(cubic), 1.0),
        ("seiler-2d", lambda f: encode_seiler(seiler2, f, rescale=True),
         {"seiler": eval_seiler_tex}, bernstein(seiler2), 1.0),
        ("seiler-3d", lambda f: encode_seiler(seiler3, f, rescale=True),
         {"seiler": eval_seiler_tex}, bernstein(seiler3), 1.0),
        ("zigzag", lambda f: encode_dc_zigzag(segments, f, rescale=True),
         {"zigzag": eval_dc_zigzag}, lambda gt: eval_bezier_chain(segments, gt), 3.0),
        ("patch", lambda f: encode_bilinear_patch(patch, f, rescale=True),
         {"patch": diagonal(eval_bilinear_patch)}, surface(patch), 1.0),
        ("bicubic", lambda f: encode_bicubic_rgba(bicubic, f, rescale=True),
         {"bicubic": diagonal(eval_bicubic_rgba)}, surface(bicubic), 1.0),
        ("rational-seiler", lambda f: encode_rational(rat2, w2, f, scheme="seiler", rescale=True),
         {"rational": eval_rational_tex}, lambda t: eval_rational(rat2, w2, t), 1.0),
        ("rational-dc-2", lambda f: encode_rational(rat2, w2, f, scheme="dc", rescale=True),
         {"rational": eval_rational_tex}, lambda t: eval_rational(rat2, w2, t), 1.0),
        ("rational-dc-3", lambda f: encode_rational(rat3, w3, f, scheme="dc", rescale=True),
         {"rational": eval_rational_tex}, lambda t: eval_rational(rat3, w3, t), 1.0),
    )


def _feed(h, fn, *args, **kwargs):
    """Hash fn's float64 result, or the class of the error it raises."""
    try:
        out = fn(*args, **kwargs)
    except TexCurveError as exc:
        h.update(type(exc).__name__.encode())
        return None
    h.update(np.ascontiguousarray(out, dtype=np.float64).tobytes())
    return out


def _feed_lookup(h, grid, coords, cfg):
    sample = sample_bilinear if len(coords) == 2 else sample_trilinear
    value, trace = sample(grid, *coords, cfg)
    h.update(np.ascontiguousarray(value, dtype=np.float64).tobytes())
    for f in trace.fractions:
        h.update(np.ascontiguousarray(f, dtype=np.float64).tobytes())
    for corner in trace.texel_indices:
        for index in corner:
            h.update(np.ascontiguousarray(index, dtype=np.int64).tobytes())


def corpus_digest() -> str:
    rng = np.random.default_rng(20261017)
    curves = _curves(rng)
    t = np.concatenate([[0.0, 0.25, 0.5, 0.75, 1.0], rng.uniform(0.0, 1.0, 11)])
    coords3 = tuple(np.concatenate([[0.0, 0.25, 0.75, 1.0], rng.uniform(-0.1, 1.1, 12)])
                    for _ in range(3))
    bases3 = tuple(rng.integers(-1, 3, 16) for _ in range(3))
    fracs3 = tuple(np.concatenate([[0.0, 1.0, 0.5, 0.25], rng.uniform(0.0, 1.0, 12)])
                   for _ in range(3))
    h = hashlib.sha256()
    for fmt in FORMATS:
        for name, encode, evaluators, ref, end in curves:
            h.update(f"{name} {fmt.value}".encode())
            try:
                curve = encode(fmt)
            except TexCurveError as exc:
                h.update(type(exc).__name__.encode())
                continue
            grid = curve.grid
            axes = 2 if grid.depth == 1 else 3
            for n in (2, 3):
                _feed(h, blend_with_fractions, grid, bases3[:n], fracs3[:n])
                _feed(h, blend_with_fractions, grid, tuple(b[5] for b in bases3[:n]),
                      tuple(f[5] for f in fracs3[:n]))
            for cfg in CONFIGS:
                _feed_lookup(h, grid, coords3[:axes], cfg)
                _feed_lookup(h, grid, tuple(c[6] for c in coords3[:axes]), cfg)
                for mode, fn in evaluators.items():
                    _feed(h, fn, curve, t * end, cfg)
                    _feed(h, fn, curve, float(t[3] * end), cfg)
                    report = sweep(curve, ref, mode, cfg, SWEEP_SAMPLES)
                    h.update(report.test.tobytes())
                    h.update(report.reference.tobytes())
                    if name not in ("patch", "bicubic"):
                        _feed(h, error_bound_estimate, curve, cfg, reference=ref, mode=mode,
                              samples=SWEEP_SAMPLES)
                _feed(h, error_bound_estimate, curve, cfg, samples=SWEEP_SAMPLES)
    return h.hexdigest()


def test_golden_digest():
    assert corpus_digest() == DIGEST


def large_digest() -> str:
    curves = _curves(np.random.default_rng(20261018))
    t = np.linspace(0.0, 1.0, LARGE_N)
    h = hashlib.sha256()
    for fmt in FORMATS:
        for name, encode, evaluators, _, end in curves:
            if name in ("patch", "bicubic"):
                continue
            h.update(f"{name} {fmt.value}".encode())
            try:
                curve = encode(fmt)
            except TexCurveError as exc:
                h.update(type(exc).__name__.encode())
                continue
            for cfg in LARGE_CONFIGS:
                for fn in evaluators.values():
                    _feed(h, fn, curve, t * end, cfg)
                    for i in BOUNDARY_INDICES:
                        _feed(h, fn, curve, float(t[i] * end), cfg)
    return h.hexdigest()


def test_golden_large_digest():
    assert large_digest() == LARGE_DIGEST


def bound_digest() -> str:
    curves = _curves(np.random.default_rng(20261019))
    h = hashlib.sha256()
    for fmt in FORMATS:
        for name, encode, evaluators, ref, _ in curves:
            if name in ("patch", "bicubic"):
                continue
            h.update(f"{name} {fmt.value}".encode())
            try:
                curve = encode(fmt)
            except TexCurveError as exc:
                h.update(type(exc).__name__.encode())
                continue
            for cfg in LARGE_CONFIGS:
                for mode in evaluators:
                    _feed(h, error_bound_estimate, curve, cfg, mode=mode, samples=LARGE_N)
                    _feed(h, error_bound_estimate, curve, cfg, reference=ref, mode=mode,
                          samples=LARGE_N)
    return h.hexdigest()


def test_golden_bound_digest():
    assert bound_digest() == BOUND_DIGEST
