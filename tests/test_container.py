import struct
import warnings

import numpy as np
import pytest

from texcurve import (
    DomainError,
    EncodedCurve,
    Layout,
    LayoutError,
    RangeError,
    TexelFormat,
    TexelGrid,
    read_ctex,
    write_ctex,
)
from texcurve.container import (
    _HEADER,
    curve_from_bytes,
    curve_to_bytes,
    sidecar_text,
    write_sidecar,
)
from texcurve.encoder import (
    encode_bicubic_rgba,
    encode_dc_cubic,
    encode_dc_quadratic,
    encode_dc_zigzag,
    encode_rational,
    encode_seiler,
)
from conftest import check_writer, random_c0_quadratics, random_polygon


def build_corpus(rng):
    curves = []
    for fmt in TexelFormat:
        lo, hi = (0.0, 1.0) if fmt.is_unorm else (-1.0, 1.0)
        curves.append(encode_dc_quadratic(random_polygon(rng, 2, 3, lo, hi), fmt))
        curves.append(encode_dc_cubic(random_polygon(rng, 3, 2, lo, hi), fmt))
        curves.append(
            encode_dc_zigzag(
                random_c0_quadratics(rng, 4, 2, 0.25, 0.75), fmt, seed=0.5, rescale=fmt.is_unorm
            )
        )
        curves.append(encode_seiler(random_polygon(rng, 5, 1, lo, hi), fmt, rescale=fmt.is_unorm))
        curves.append(
            encode_rational(
                random_polygon(rng, 3, 2, 0.1, 0.9),
                rng.uniform(0.5, 1.0, 4),
                fmt,
                scheme="dc" if fmt.is_unorm else "seiler",
            )
        )
    curves.append(encode_bicubic_rgba(rng.uniform(0, 1, (4, 4)), TexelFormat.UNORM16))
    return curves


def test_round_trip_bit_exact(rng, tmp_path):
    for i, curve in enumerate(build_corpus(rng)):
        path = tmp_path / f"c{i}.ctex"
        write_ctex(curve, path)
        back = read_ctex(path)
        assert back.layout is curve.layout
        assert back.inner_layout is curve.inner_layout
        assert back.degree == curve.degree
        assert back.segment_count == curve.segment_count
        assert back.grid.dims == curve.grid.dims
        assert back.grid.fmt is curve.grid.fmt
        assert np.array_equal(back.grid.data, curve.grid.data)
        assert np.array_equal(back.transform.scale, curve.transform.scale)
        assert np.array_equal(back.transform.offset, curve.transform.offset)
        # serialized form is reproducible byte for byte
        assert curve_to_bytes(back) == curve_to_bytes(curve)


def test_bad_magic_rejected():
    with pytest.raises(LayoutError):
        curve_from_bytes(b"NOPE!" + b"\x00" * 64)


def test_truncated_rejected():
    with pytest.raises(LayoutError):
        curve_from_bytes(b"CTE")


def _quadratic_blob(rng):
    return curve_to_bytes(encode_dc_quadratic(random_polygon(rng, 2, 3), TexelFormat.FLOAT32))


def test_trailing_bytes_rejected(rng):
    with pytest.raises(LayoutError):
        curve_from_bytes(_quadratic_blob(rng) + b"\x00")


def test_truncated_transform_rejected(rng):
    # header (26 bytes) plus 5 of the 48 transform bytes
    with pytest.raises(LayoutError):
        curve_from_bytes(_quadratic_blob(rng)[: _HEADER.size + 5])


def test_truncated_payload_rejected(rng):
    with pytest.raises(LayoutError):
        curve_from_bytes(_quadratic_blob(rng)[:-1])


def test_unknown_inner_layout_rejected(rng):
    blob = bytearray(_quadratic_blob(rng))
    blob[_HEADER.size - 6] = 99  # the inner_layout byte
    with pytest.raises(LayoutError):
        curve_from_bytes(bytes(blob))


def test_non_finite_transform_rejected(rng):
    blob = bytearray(_quadratic_blob(rng))
    blob[_HEADER.size : _HEADER.size + 8] = struct.pack("<d", float("nan"))
    with pytest.raises(DomainError):
        curve_from_bytes(bytes(blob))


def test_sidecar_contents(rng):
    curve = encode_seiler(random_polygon(rng, 3, 1), TexelFormat.FLOAT32)
    text = sidecar_text(curve)
    assert "layout: seiler_2d" in text
    assert "degree: 3" in text
    assert "dims: 2 2 1" in text
    assert "format: float32" in text


def test_multi_segment_dc_blob_rejected(rng):
    # only a zig-zag chain holds more than one segment
    blob = bytearray(_quadratic_blob(rng))
    blob[_HEADER.size - 4 : _HEADER.size] = struct.pack("<I", 5)
    with pytest.raises(LayoutError, match="holds one segment, got 5"):
        curve_from_bytes(bytes(blob))


def test_scaled_weight_channel_blob_rejected(rng):
    curve = encode_rational(random_polygon(rng, 2, 2, 0.1, 0.9), [1.0, 0.7, 1.0],
                            TexelFormat.FLOAT32, scheme="dc")
    blob = bytearray(curve_to_bytes(curve))
    at = _HEADER.size + 8 * (curve.grid.channels - 1)  # the weight channel's scale
    blob[at : at + 8] = struct.pack("<d", 2.0)
    with pytest.raises(LayoutError, match="identity transform on the weight channel"):
        curve_from_bytes(bytes(blob))


#: float32 texels that are not finite, as their little-endian payload bytes
NON_FINITE_F32 = {
    "qnan": b"\x00\x00\xc0\x7f",
    "snan": b"\xb8\x40\xba\x7f",
    "+inf": b"\x00\x00\x80\x7f",
    "-inf": b"\x00\x00\x80\xff",
}


@pytest.mark.parametrize("texel", NON_FINITE_F32.values(), ids=NON_FINITE_F32.keys())
@pytest.mark.parametrize("at", (0, 5))
def test_non_finite_float32_texel_rejected_without_a_warning(rng, texel, at):
    blob = _quadratic_blob(rng)
    start = len(blob) - 4 * (4 * 3 - at)  # value `at` of 4 texels x 3 channels
    blob = blob[:start] + texel + blob[start + 4 :]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match="float32 grid values must be finite"):
            curve_from_bytes(blob)


def _patch(values):
    grid = TexelGrid((2, 2, 1), 1, TexelFormat.FLOAT32, values)
    return EncodedCurve(grid=grid, layout=Layout.BILINEAR_PATCH, degree=1)


def test_float32_texels_that_binary32_cannot_hold_are_not_written():
    # CTEX1 promises a bit-exact round trip, and 0.3 would read back as
    # 0.30000001192092896
    curve = _patch([0.1, 0.2, 0.3, 0.4])
    message = (r"^CTEX1 stores float32 texels bit for bit: texel \(0, 0, 0, 0\) holds 0\.1, "
               r"which float32 stores as 0\.10000000149011612$")
    with pytest.raises(RangeError, match=message):
        curve_to_bytes(curve)


def test_a_refused_curve_leaves_the_file_as_it_was(tmp_path):
    # the container's bytes are built before the file is opened
    path = tmp_path / "c.ctex"
    path.write_bytes(b"kept")
    with pytest.raises(RangeError, match="bit for bit"):
        write_ctex(_patch([0.1, 0.2, 0.3, 0.4]), path)
    assert path.read_bytes() == b"kept"


@pytest.mark.parametrize("writer", [write_ctex, write_sidecar])
def test_writers_overwrite_the_old_bytes_and_cut_to_length(rng, tmp_path, monkeypatch, writer):
    curve = encode_seiler(random_polygon(rng, 3, 2), TexelFormat.FLOAT32)
    check_writer(lambda folder: writer(curve, folder / "c.ctex"), tmp_path, monkeypatch)


def test_float32_texels_that_binary32_holds_round_trip():
    # a binary32 value, a signed zero, the smallest subnormal and the largest
    values = np.array([np.float32(0.1), -0.0, 2.0**-149, np.finfo(np.float32).max], dtype=float)
    back = curve_from_bytes(curve_to_bytes(_patch(values)))
    assert back.grid.data.tobytes() == values.tobytes()


@pytest.mark.parametrize("fmt", [TexelFormat.UNORM8, TexelFormat.UNORM16], ids=lambda f: f.value)
def test_unorm_reads_keep_the_lattice_check(rng, monkeypatch, fmt):
    # every stored code k <= L reads back as the lattice point k / L, so no
    # real blob carries an off-lattice texel; one is injected through the
    # payload decoder to show that a read builds its grid through the one
    # `TexelGrid` constructor, which checks every grid
    from texcurve import container

    blob = curve_to_bytes(encode_dc_quadratic(random_polygon(rng, 2, 3, 0.0, 1.0), fmt))
    decode = container._payload_values
    monkeypatch.setattr(container, "_payload_values",
                        lambda raw, f: decode(raw, f) + 0.25 / f.levels)
    message = f"^unorm grid values must lie exactly on the k/{fmt.levels} lattice$"
    with pytest.raises(RangeError, match=message):
        curve_from_bytes(blob)
