"""Hostile input for the two parsers: a CTEX1 blob or a curve file either
parses or raises a TexCurveError, never another exception (pytest turns a
RuntimeWarning into one)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from texcurve import Layout, TexCurveError, TexelFormat
from texcurve.container import _HEADER, curve_from_bytes, curve_to_bytes
from texcurve.curvefile import parse_curve_text
from texcurve.encoder import (
    encode_bicubic_rgba,
    encode_bilinear_patch,
    encode_dc_cubic,
    encode_dc_quadratic,
    encode_dc_zigzag,
    encode_rational,
    encode_seiler,
)
from conftest import random_c0_quadratics, random_polygon


def _valid_blobs():
    """One CTEX1 blob of every layout in every texel format."""
    rng = np.random.default_rng(61)
    blobs = []
    for fmt in TexelFormat:
        curves = (
            encode_dc_quadratic(random_polygon(rng, 2, 2), fmt, rescale=True),
            encode_dc_cubic(random_polygon(rng, 3, 1), fmt, rescale=True),
            encode_dc_zigzag(random_c0_quadratics(rng, 3, 2), fmt, rescale=True),
            encode_seiler(random_polygon(rng, 3, 3), fmt, rescale=True),
            encode_seiler(random_polygon(rng, 5), fmt, rescale=True),
            encode_bilinear_patch(rng.uniform(0, 1, (2, 2, 4)), fmt),
            encode_bicubic_rgba(rng.uniform(0, 1, (4, 4)), fmt),
            encode_rational(random_polygon(rng, 2, 2, lo=0.0), [1.0, 0.7, 1.0], fmt,
                            scheme="dc", rescale=True),
        )
        assert {curve.layout for curve in curves} == set(Layout)
        blobs += [curve_to_bytes(curve) for curve in curves]
    return blobs


BLOBS = _valid_blobs()


@st.composite
def mutated_blobs(draw):
    """A valid blob truncated, extended, or with 1-3 bytes overwritten, half
    of them in the header and transform."""
    blob = bytearray(draw(st.sampled_from(BLOBS)))
    kind = draw(st.sampled_from(["truncate", "append", "overwrite"]))
    if kind == "truncate":
        return bytes(blob[: draw(st.integers(0, len(blob) - 1))])
    if kind == "append":
        return bytes(blob) + draw(st.binary(min_size=1, max_size=16))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, _HEADER.size + 16) | st.integers(0, len(blob) - 1))
        blob[at] = draw(st.integers(0, 255))
    return bytes(blob)


def test_valid_blobs_parse():
    for blob in BLOBS:
        assert curve_to_bytes(curve_from_bytes(blob)) == blob


@settings(max_examples=300, deadline=None)
@given(mutated_blobs())
def test_curve_from_bytes_parses_or_raises_its_own_error(blob):
    try:
        curve_from_bytes(blob)
    except TexCurveError:
        pass


_TOKENS = st.sampled_from(
    ["degree", "channels", "knots", "weights", "Degree", "0", "1", "2", "3", "-1", "0.5",
     "1e-300", "nan", "inf", "-inf", "1e999", "#", "#x", "x", "1,2", "0x10", "--", "\t"]
) | st.integers(-3, 99).map(str) | st.floats().map(repr)
_LINES = st.lists(_TOKENS, max_size=6).map(" ".join)
_VALID_TEXTS = (
    "degree 3\nchannels 1\n0\n1\n1\n0",
    "# spline\ndegree 2\nchannels 2\nknots 0 0 0 1 2 2 2\n0 0\n1 1\n2 0\n3 1",
    "degree 2\nchannels 2\nweights 1 0.7 1\n1 0\n1 1 # mid\n0 1",
)


@st.composite
def curve_texts(draw):
    """A valid curve file with up to 3 of its lines replaced by, or joined
    by, lines of keywords, numbers and junk."""
    lines = draw(st.sampled_from(_VALID_TEXTS)).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines[at : at + draw(st.integers(0, 1))] = [draw(_LINES)]
    return "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(curve_texts() | st.lists(_LINES, max_size=10).map("\n".join))
def test_parse_curve_text_parses_or_raises_its_own_error(text):
    try:
        parse_curve_text(text)
    except TexCurveError:
        pass
