"""CTEX1 texture container: a small binary format with bit-exact round-trip.

Layout (little endian throughout):
  magic        5 bytes  b"CTEX1"
  width        u32
  height       u32
  depth        u32
  channels     u8
  format       u8   0=unorm8 1=unorm16 2=float32
  layout       u8   index into LAYOUT_CODES
  inner_layout u8   0xFF when absent (non-rational curves)
  degree       u8
  segment_cnt  u32
  transform    channels f64 scales, then channels f64 offsets
  payload      texels x-fastest, then y, then z, channels interleaved;
               unorm stored as raw integer codes, float32 as IEEE bits
"""

from __future__ import annotations

import struct

import numpy as np

from .core import (
    EncodedCurve,
    Layout,
    LayoutError,
    RangeError,
    TexelFormat,
    TexelGrid,
    ValueTransform,
    _quantize_array,
    _unorm_codes,
    _write_file,
)

MAGIC = b"CTEX1"

FORMAT_CODES = {TexelFormat.UNORM8: 0, TexelFormat.UNORM16: 1, TexelFormat.FLOAT32: 2}
LAYOUT_CODES = {layout: i for i, layout in enumerate(Layout)}
_FORMATS = {v: k for k, v in FORMAT_CODES.items()}
_LAYOUTS = {v: k for k, v in LAYOUT_CODES.items()}
_NO_INNER = 0xFF

_HEADER = struct.Struct("<5sIIIBBBBBI")
_PAYLOAD_DTYPES = {
    TexelFormat.UNORM8: np.dtype("<u1"),
    TexelFormat.UNORM16: np.dtype("<u2"),
    TexelFormat.FLOAT32: np.dtype("<f4"),
}


def _payload_bytes(grid: TexelGrid) -> bytes:
    """The payload of a grid. A float32 texel that binary32 cannot hold
    (its quantization moves it) raises RangeError: it would read back as
    another value. A unorm grid holds only values k/L (`TexelGrid`), and
    its payload is their codes k (`_unorm_codes`)."""
    flat = grid.data.reshape(-1)
    if grid.fmt is TexelFormat.FLOAT32:
        stored = _quantize_array(flat, grid.fmt)
        moved = np.flatnonzero(stored != flat)
        if moved.size:
            k = moved[0]
            idx = tuple(int(i) for i in np.unravel_index(k, grid.data.shape))
            raise RangeError(f"CTEX1 stores float32 texels bit for bit: texel {idx} holds "
                             f"{float(flat[k])!r}, which float32 stores as {float(stored[k])!r}")
        return flat.astype("<f4").tobytes()
    return _unorm_codes(flat, grid.fmt).astype(_PAYLOAD_DTYPES[grid.fmt]).tobytes()


def _payload_values(raw: bytes, fmt: TexelFormat) -> np.ndarray:
    """The payload's texel values as float64. A float32 signalling NaN
    widens to a quiet NaN without a warning, and `TexelGrid` refuses it."""
    with np.errstate(invalid="ignore"):
        vals = np.frombuffer(raw, dtype=_PAYLOAD_DTYPES[fmt]).astype(float)
    return vals if fmt is TexelFormat.FLOAT32 else vals / fmt.levels


def curve_to_bytes(curve: EncodedCurve) -> bytes:
    grid = curve.grid
    inner = _NO_INNER if curve.inner_layout is None else LAYOUT_CODES[curve.inner_layout]
    head = _HEADER.pack(
        MAGIC,
        grid.width,
        grid.height,
        grid.depth,
        grid.channels,
        FORMAT_CODES[grid.fmt],
        LAYOUT_CODES[curve.layout],
        inner,
        curve.degree,
        curve.segment_count,
    )
    transform = struct.pack(
        f"<{2 * grid.channels}d", *curve.transform.scale, *curve.transform.offset
    )
    return head + transform + _payload_bytes(grid)


def curve_from_bytes(blob: bytes) -> EncodedCurve:
    if len(blob) < _HEADER.size or blob[:5] != MAGIC:
        raise LayoutError("not a CTEX1 container")
    magic, w, h, d, channels, fmt_code, layout_code, inner_code, degree, segs = _HEADER.unpack(
        blob[: _HEADER.size]
    )
    if fmt_code not in _FORMATS or layout_code not in _LAYOUTS:
        raise LayoutError("unknown format or layout code")
    if inner_code != _NO_INNER and inner_code not in _LAYOUTS:
        raise LayoutError("unknown inner-layout code")
    fmt = _FORMATS[fmt_code]
    layout = _LAYOUTS[layout_code]
    inner = None if inner_code == _NO_INNER else _LAYOUTS[inner_code]
    off = _HEADER.size
    tsize = 2 * channels * 8
    size = off + tsize + w * h * d * channels * _PAYLOAD_DTYPES[fmt].itemsize
    if len(blob) != size:
        raise LayoutError(f"CTEX1 container of these dims is {size} bytes, got {len(blob)}")
    scale_offset = struct.unpack(f"<{2 * channels}d", blob[off : off + tsize])
    transform = ValueTransform(np.array(scale_offset[:channels]), np.array(scale_offset[channels:]))
    values = _payload_values(blob[off + tsize :], fmt)
    grid = TexelGrid((w, h, d), channels, fmt, values.reshape(d, h, w, channels))
    return EncodedCurve(
        grid=grid,
        layout=layout,
        degree=degree,
        segment_count=segs,
        transform=transform,
        inner_layout=inner,
    )


def write_ctex(curve: EncodedCurve, path) -> None:
    """Write the container; its bytes are built before the file is opened,
    so a curve CTEX1 refuses leaves an existing file as it was."""
    _write_file(path, curve_to_bytes(curve))


def read_ctex(path) -> EncodedCurve:
    with open(path, "rb") as fh:
        return curve_from_bytes(fh.read())


def sidecar_text(curve: EncodedCurve) -> str:
    """Human-readable `key: value` companion for a container file."""
    grid = curve.grid
    lines = [
        f"layout: {curve.layout.value}",
        f"inner_layout: {curve.inner_layout.value if curve.inner_layout else 'none'}",
        f"degree: {curve.degree}",
        f"segment_count: {curve.segment_count}",
        f"dims: {grid.width} {grid.height} {grid.depth}",
        f"channels: {grid.channels}",
        f"format: {grid.fmt.value}",
        "scale: " + " ".join(repr(float(v)) for v in curve.transform.scale),
        "offset: " + " ".join(repr(float(v)) for v in curve.transform.offset),
    ]
    return "\n".join(lines) + "\n"


def write_sidecar(curve: EncodedCurve, path) -> None:
    _write_file(path, sidecar_text(curve).encode("utf-8"))
