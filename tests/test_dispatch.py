"""Texture-path bytes do not depend on numpy's CPU dispatch.

The texture path and CTEX1 rest only on elementwise + - * /, floor, rint,
min/max, casts and gathers, each correctly rounded or exact in every SIMD
variant, so their bytes must not move when numpy runs its loops at the
baseline CPU target instead of the best one the machine has. The test
hashes the CTEX1 bytes and the texture evaluators' outputs here and in a
child interpreter whose environment differs only by
`NPY_DISABLE_CPU_FEATURES="X86_V4 X86_V3"`, and compares the digests. The
child first checks that float64 `multiply` really runs at baseline there.

The bicubic evaluator and the float64 references are left out: their
`**` follows numpy's dispatch and the parameter's strides.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from texcurve import (
    ControlPolygon,
    SamplerConfig,
    TexCurveError,
    TexelFormat,
    encode_bilinear_patch,
    encode_dc_cubic,
    encode_dc_quadratic,
    encode_dc_zigzag,
    encode_rational,
    encode_seiler,
    eval_bilinear_patch,
    eval_dc,
    eval_dc_cubic_hybrid,
    eval_dc_zigzag,
    eval_rational_tex,
    eval_seiler_tex,
)
from texcurve.container import curve_to_bytes

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

#: the CPU targets the child turns off, leaving numpy's baseline
DISABLED = "X86_V4 X86_V3"

CONFIGS = tuple(SamplerConfig(subtexel_bits=bits, subtexel_rounding=rounding)
                for bits in (0, 4, 8, 12) for rounding in ("nearest", "floor"))

#: the child: check that float64 multiply runs at baseline, print the digest
CHILD = f"""
import sys
sys.path[:0] = [{str(TESTS)!r}, {str(SRC)!r}]
from test_dispatch import multiply_targets, texture_digest
targets = multiply_targets()
assert targets and all(t.startswith("baseline") for t in targets), targets
print(texture_digest())
"""


def multiply_targets():
    """The CPU target that each float64 loop of `np.multiply` runs at."""
    from numpy.lib.introspect import opt_func_info
    info = opt_func_info(func_name="^multiply$", signature="float64")
    return [loop["current"] for loop in info.get("multiply", {}).values()]


def _curves(rng):
    """(name, encode(fmt), evaluator(curve, t, cfg), domain end) per curve."""
    quad = ControlPolygon(rng.uniform(-1.0, 1.0, (3, 2)))
    cubic = ControlPolygon(rng.uniform(-1.0, 1.0, (4, 3)))
    seiler2 = ControlPolygon(rng.uniform(0.0, 1.0, (4, 2)))
    seiler3 = ControlPolygon(rng.uniform(0.0, 1.0, (6, 1)))
    chain = rng.uniform(0.0, 1.0, (9, 2))
    segments = [ControlPolygon(chain[2 * k : 2 * k + 3]) for k in range(4)]
    patch = rng.uniform(-1.0, 2.0, (2, 2, 3))
    rat2 = ControlPolygon(rng.uniform(0.0, 1.0, (3, 2)))
    rat3 = ControlPolygon(rng.uniform(0.0, 1.0, (4, 1)))
    w2, w3 = rng.uniform(0.5, 1.0, 3), rng.uniform(0.5, 1.0, 4)
    return (
        ("dc-quad", lambda f: encode_dc_quadratic(quad, f, rescale=True), eval_dc, 1.0),
        ("dc-cubic", lambda f: encode_dc_cubic(cubic, f, rescale=True), eval_dc, 1.0),
        ("dc-hybrid", lambda f: encode_dc_cubic(cubic, f, rescale=True),
         eval_dc_cubic_hybrid, 1.0),
        ("seiler-2d", lambda f: encode_seiler(seiler2, f, rescale=True), eval_seiler_tex, 1.0),
        ("seiler-3d", lambda f: encode_seiler(seiler3, f, rescale=True), eval_seiler_tex, 1.0),
        ("zigzag", lambda f: encode_dc_zigzag(segments, f, "search", rescale=True),
         eval_dc_zigzag, 4.0),
        ("rational-seiler", lambda f: encode_rational(rat2, w2, f, scheme="seiler", rescale=True),
         eval_rational_tex, 1.0),
        ("rational-dc-2", lambda f: encode_rational(rat2, w2, f, scheme="dc", rescale=True),
         eval_rational_tex, 1.0),
        ("rational-dc-3", lambda f: encode_rational(rat3, w3, f, scheme="dc", rescale=True),
         eval_rational_tex, 1.0),
        ("patch", lambda f: encode_bilinear_patch(patch, f, rescale=True),
         lambda curve, t, cfg: eval_bilinear_patch(curve, t, t[::-1], cfg), 1.0),
    )


def _feed(h, fn, *args):
    """Hash fn's float64 result, or the class of the error it raises."""
    try:
        out = fn(*args)
    except TexCurveError as exc:
        h.update(type(exc).__name__.encode())
        return
    h.update(np.ascontiguousarray(out, dtype=np.float64).tobytes())


def texture_digest() -> str:
    """sha256 over the CTEX1 bytes and the texture evaluators' outputs of
    seeded curves in every format, at sorted, reversed and random t, below
    and above the run-splitting length, under every bits x rounding."""
    rng = np.random.default_rng(20261021)
    curves = _curves(rng)
    params = []
    for n in (17, 2500):
        sorted_t = np.linspace(0.0, 1.0, n)
        params += [sorted_t, sorted_t[::-1].copy(), rng.uniform(0.0, 1.0, n)]
    h = hashlib.sha256()
    for fmt in TexelFormat:
        for name, encode, evaluate, end in curves:
            h.update(f"{name} {fmt.value}".encode())
            try:
                curve = encode(fmt)
            except TexCurveError as exc:
                h.update(type(exc).__name__.encode())
                continue
            h.update(curve_to_bytes(curve))
            for cfg in CONFIGS:
                for t in params:
                    _feed(h, evaluate, curve, t * end, cfg)
    return h.hexdigest()


def test_texture_bytes_do_not_depend_on_cpu_dispatch():
    pytest.importorskip("numpy.lib.introspect")
    if all(t.startswith("baseline") for t in multiply_targets()):
        pytest.skip("float64 multiply already runs at numpy's baseline CPU target")
    child = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                           env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=DISABLED))
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == texture_digest()
