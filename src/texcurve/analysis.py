"""Error sweeps, summary statistics, and deviation rendering.

Compares a texture evaluation path against a full-precision reference over
a uniform parameter lattice, writes diffable CSV reports, renders the
red/green deviation pixmaps, and computes a brute-force bound on the error
attributable to subtexel coordinate quantization.

Sweeps, the bound and the CLI validate modes and pick a layout's default
mode through `texeval`'s one mode table, which this module re-exports as
`_MODES` together with `_default_mode` and `_mode_eval`. The bound walks
its lattice through `texeval`'s one fetch (`_eval_curve`) at ideal
coordinates, with a blend of its own: the exact blend and every probe
combination, from one gather of each cell's corners. It looks nothing up
itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (ChannelMismatchError, DomainError, EncodedCurve, LayoutError, SamplerConfig,
                   _write_file)
from .sampler import _corners, _lerp_axes
from .texeval import _MODES, _decode, _default_mode, _eval_curve, _mode_eval, _rows


def _reference_values(reference: Callable, ts: np.ndarray, shape) -> np.ndarray:
    """`reference` called once on the whole lattice `ts`; it must return
    `shape`, (samples, channels)."""
    ref = np.asarray(reference(ts), dtype=float)
    if ref.shape != shape:
        raise ChannelMismatchError(f"reference returned shape {ref.shape}, expected {shape}")
    return ref


def _domain_lattice(curve: EncodedCurve, samples: int) -> np.ndarray:
    """`samples` (at least 2) parameters from 0 to the segment count N (1
    but for a zig-zag): k · (N / (samples - 1)) for k below samples - 1,
    then N itself.

    This is numpy 2.4's `linspace(0.0, N, samples)` at start 0, written
    out: an `arange`, an in-place multiply by the rounded step, and the
    last point set to the stop. Its in-place `+= start` adds +0.0, which
    changes no point of a non-negative lattice, and its branch for a zero
    step cannot run, since N >= 1.
    """
    end = curve.segment_count
    t = np.arange(samples, dtype=float)
    t *= end / (samples - 1)
    t[-1] = end
    return t


@dataclass(frozen=True)
class ErrorReport:
    """Per-sample deviation records plus summary statistics.

    `reference` and `test` are (samples, channels); summaries are per
    channel. The two provenance fields record which evaluation paths were
    compared.
    """

    curve_id: str
    reference_name: str
    mode: str
    cfg: SamplerConfig
    t: np.ndarray
    reference: np.ndarray
    test: np.ndarray
    absdev: np.ndarray = field(init=False)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        ref = np.asarray(self.reference, dtype=float)
        test = np.asarray(self.test, dtype=float)
        if ref.shape != test.shape or ref.shape[0] != t.shape[0]:
            raise DomainError("reference/test records must align with the sample lattice")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "reference", ref)
        object.__setattr__(self, "test", test)
        absdev = np.subtract(test, ref)
        object.__setattr__(self, "absdev", np.abs(absdev, out=absdev))

    @property
    def sample_count(self) -> int:
        return self.t.shape[0]

    @property
    def channels(self) -> int:
        return self.reference.shape[1]

    @property
    def max_dev(self) -> np.ndarray:
        return self.absdev.max(axis=0)

    @property
    def mean_dev(self) -> np.ndarray:
        return self.absdev.mean(axis=0)

    @property
    def rms_dev(self) -> np.ndarray:
        """Per-channel root mean square deviation. Where squaring overflows but
        the maximum m is finite it is m * sqrt(mean((absdev / m)^2))."""
        with np.errstate(over="ignore"):
            rms = np.sqrt(np.mean(self.absdev * self.absdev, axis=0))
        m = self.max_dev
        redo = np.isinf(rms) & np.isfinite(m)
        if redo.any():
            scaled = self.absdev[:, redo] / m[redo]
            rms[redo] = m[redo] * np.sqrt(np.mean(scaled * scaled, axis=0))
        return rms


def sweep(
    curve: EncodedCurve,
    reference: Callable,
    mode: str,
    cfg: SamplerConfig,
    samples: int = 1024,
    *,
    curve_id: str = "",
    reference_name: str = "reference",
) -> ErrorReport:
    """Compare the texture path against `reference` on a uniform lattice.

    `reference` is called once with the whole parameter array and must
    return (samples, channels) (else ChannelMismatchError); errors it raises
    propagate. Every evaluator in `reference` takes such an array.
    Results are deterministic and independent of evaluation order.
    """
    if samples < 2:
        raise DomainError("a sweep needs at least 2 samples")
    ts = _domain_lattice(curve, samples)
    evaluate = _mode_eval(curve, mode)
    test = np.asarray(evaluate(curve, ts, cfg), dtype=float)
    ref = _reference_values(reference, ts, test.shape)
    return ErrorReport(
        curve_id=curve_id,
        reference_name=reference_name,
        mode=mode,
        cfg=cfg,
        t=ts,
        reference=ref,
        test=test,
    )


def report_to_csv(report: ErrorReport) -> str:
    """Serialize a report: header row, one row per sample, then summary
    rows prefixed #max, #mean, #rms.

    Every value is `repr` of a Python float: the rows are one `%r` format
    applied to the flat `tolist()` of the (samples, 1 + 3 channels) table.
    """
    c = report.channels
    cols = (
        ["t"]
        + [f"ref_{i}" for i in range(c)]
        + [f"test_{i}" for i in range(c)]
        + [f"absdev_{i}" for i in range(c)]
    )
    table = np.column_stack([report.t, report.reference, report.test, report.absdev])
    row = ",".join(["%r"] * table.shape[1]) + "\n"
    rows = (row * report.sample_count) % tuple(table.ravel().tolist())
    summary = "".join(
        f"{name}," + ",".join(map(repr, values.tolist())) + "\n"
        for name, values in (("#max", report.max_dev), ("#mean", report.mean_dev),
                             ("#rms", report.rms_dev))
    )
    return ",".join(cols) + "\n" + rows + summary


def write_csv(report: ErrorReport, path) -> None:
    _write_file(path, report_to_csv(report).encode("utf-8"))


#: pixel colours: white (reference, or no deviation), red (test below), green (test above)
_PALETTE = np.array([(255, 255, 255), (255, 0, 0), (0, 255, 0)], dtype=np.uint8)


def render_deviation_image(
    curve: EncodedCurve,
    reference: Callable,
    mode: str,
    cfg: SamplerConfig,
    width: int,
    height: int,
    samples: Optional[int] = None,
) -> np.ndarray:
    """Rasterize reference (white) and test deviations (red below the
    reference, green above) into an RGB image derived from sweep records.

    1-channel curves plot parameter horizontally and value vertically.
    2-channel curves plot the point coordinates directly; the deviation
    sign comes from channel 1, falling back to channel 0 on ties.

    Pixel positions round half to even (`np.rint`, as `round` does). Sample
    j paints its test pixel, then its reference pixel; where pixels
    collide, the last of these writes wins. Non-finite sweep values raise
    DomainError.
    """
    if width < 2 or height < 2:
        raise DomainError("image must be at least 2x2")
    report = sweep(curve, reference, mode, cfg, samples or width)
    if report.channels not in (1, 2):
        raise LayoutError("deviation rendering supports 1-channel or 2-channel curves")
    ref, test = report.reference, report.test
    if not (np.isfinite(ref).all() and np.isfinite(test).all()):
        raise DomainError("cannot render a sweep with non-finite values")

    if report.channels == 1:
        both = np.concatenate([ref[:, 0], test[:, 0]])
        lo, hi = float(both.min()), float(both.max())
        if hi == lo:
            lo, hi = lo - 0.5, hi + 0.5
        pad = 0.05 * (hi - lo)
        lo, hi = lo - pad, hi + pad
        x = np.rint(report.t / report.t[-1] * (width - 1))

        def to_px(vals):
            return x, np.clip(np.rint((hi - vals[:, 0]) / (hi - lo) * (height - 1)), 0, height - 1)

        key = test[:, 0] - ref[:, 0]
    else:
        pts = np.concatenate([ref, test], axis=0)
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        pad = 0.05 * span
        lo, span = lo - pad, span + 2 * pad

        def to_px(vals):
            px = np.rint((vals[:, 0] - lo[0]) / span[0] * (width - 1))
            py = np.rint((1.0 - (vals[:, 1] - lo[1]) / span[1]) * (height - 1))
            return np.clip(px, 0, width - 1), np.clip(py, 0, height - 1)

        delta = test - ref
        key = np.where(delta[:, 1] != 0.0, delta[:, 1], delta[:, 0])

    # writes in order: test pixel 0, reference pixel 0, test pixel 1, ...
    (tx, ty), (rx, ry) = to_px(test), to_px(ref)
    pixel = np.stack([ty * width + tx, ry * width + rx], axis=1).ravel().astype(np.int64)
    colour = np.zeros(pixel.shape, dtype=np.intp)  # reference pixels are white
    colour[0::2] = np.select([key < 0, key > 0], [1, 2], 0)
    # the first occurrence in the reversed order is the last write
    painted, last = np.unique(pixel[::-1], return_index=True)
    img = np.zeros((height, width, 3), dtype=np.uint8)
    img.reshape(-1, 3)[painted] = _PALETTE[colour[::-1][last]]
    return img


def write_ppm(image: np.ndarray, path) -> None:
    """Write an (h, w, 3) image as a binary P6 pixmap: the header, then
    the pixels in C order as `image.astype(np.uint8)` reads them.

    Any other shape raises ChannelMismatchError. The shape is checked and
    the cast made before the file is opened, so a refused image leaves an
    existing file as it was. A C-contiguous uint8 image, which
    `render_deviation_image` returns, is written from its own buffer
    without a copy.
    """
    pixels = np.ascontiguousarray(image, dtype=np.uint8)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ChannelMismatchError(f"a pixmap is an (h, w, 3) array, got shape {pixels.shape}")
    h, w, _ = pixels.shape
    _write_file(path, b"P6\n%d %d\n255\n" % (w, h), pixels)


#: the bound's lattice runs at ideal coordinates; one config serves every call
_IDEAL = SamplerConfig.ideal()


def _bound_block(curve: EncodedCurve, t, cfg: SamplerConfig, hybrid: bool) -> np.ndarray:
    """(samples, 2, channels): the exact-coordinate blend of each sample of
    the lattice t and its worst distance from a probe blend at the adjacent
    representable fractions of `cfg`.

    The lattice runs through `texeval`'s one fetch at ideal coordinates,
    whose used fractions are the exact ones; its blend is the exact blend
    plus the probes, so it runs in the evaluators' blocks and gathers a
    one-cell block's corners once. The exact blend and every probe share
    one gather of the corners. Each axis's probe fractions stack on an
    option axis of their own ahead of the samples, so one lerp per axis
    blends every combination. A probe pair (the representable fractions
    below and above) and its complement 1 - pair are built once per
    distinct fraction array, which the lookup state shares between axes of
    one stage: one for every axis of a dc layout, one for both last axes of
    Seiler 3-D. The pair is written into one preallocated (2, *samples)
    array, and each axis lerps at its own reshaped views of the pair and
    its complement. The hybrid's depth axis is probed at its exact
    fraction pair from the lookup state only, since the hybrid never
    quantizes it. The probes are decoded through a
    channels-last transpose view; decoding is elementwise, so the view
    moves no bit.

    Each blend allocates its (channels, 2, samples) block once, zeroed,
    and writes the exact blend into row 0 and, at bits > 0, the probes'
    worst distance into row 1 (left 0.0 at bits 0). The block is C-ordered
    where a stack of the two would give its transpose; every later step
    is elementwise or a `max`, so the order moves no bit.
    """

    def blend(pairs, fracs):
        corners = _corners(curve.grid, pairs)
        exact = _decode(curve, _lerp_axes(corners, fracs).T)
        samples, channels = exact.shape
        block = np.zeros((channels, 2, samples), dtype=exact.dtype)
        block[:, 0] = exact.T
        if cfg.subtexel_bits > 0:
            step, n = float(1 << cfg.subtexel_bits), len(fracs)
            # id of a fraction array -> its (2, *samples) probe pair and the pair's complement
            probe_of = {}
            options = []
            for axis, (frac, _) in enumerate(fracs):
                probe = probe_of.get(id(frac))
                if probe is None:  # lo = floor(frac * step) / step and min(lo + 1/step, 1)
                    pair = np.empty((2,) + frac.shape)
                    lo = np.floor(frac * step, out=pair[0])
                    lo /= step
                    np.minimum(lo + 1.0 / step, 1.0, out=pair[1])
                    probe = probe_of[id(frac)] = pair, 1.0 - pair
                view = (2,) + (1,) * (n - 1 - axis) + frac.shape
                options.append((probe[0].reshape(view), probe[1].reshape(view)))
            if hybrid:
                options[-1] = fracs[-1]
            # one option axis per corner axis, between the corner axes and the samples
            shape = corners.shape[: 1 + n] + (1,) * n + corners.shape[1 + n :]
            # (channels, *options, samples)
            probes = _lerp_axes(corners.reshape(shape), options)
            probes = _decode(curve, probes.transpose(*range(1, probes.ndim), 0))
            block[:, 1] = np.abs(probes - exact).max(axis=tuple(range(n))).T
        return block

    return _eval_curve(curve, t, _IDEAL, blend, _rows)


def error_bound_estimate(
    curve: EncodedCurve,
    cfg: SamplerConfig,
    *,
    reference: Optional[Callable] = None,
    mode: Optional[str] = None,
    samples: int = 1024,
) -> float:
    """Brute-force bound on the deviation a sweep with this cfg can show.

    For every lattice sample the blend is re-evaluated at both adjacent
    representable subtexel coordinates along each axis (the cells the
    quantizer could land in); the worst distance from the exact-coordinate
    blend bounds the coordinate-attributable error. When a reference is
    supplied, the residual between exact-coordinate blend and reference
    (texel quantization plus blend arithmetic) is added, so a sweep at the
    same lattice against the same reference can never exceed the result.

    Blends decode and the lattice runs through the evaluators' fetch; the
    reference is called once with the whole lattice, as in `sweep`. The
    exact blends and the probe distances are two views of `_bound_block`'s
    (samples, 2, channels) block, each reduced by its own `max`.

    `mode` defaults to the curve layout's default mode and is validated
    like sweep's. Surface layouts raise LayoutError. The bound holds for a
    sweep at the same lattice, so `samples` must be at least 2 as there.
    """
    if samples < 2:
        raise DomainError("a bound needs at least 2 samples, like the sweep it bounds")
    if mode is None:
        mode = _default_mode(curve.layout)
    _mode_eval(curve, mode)
    ts = _domain_lattice(curve, samples)
    block = _bound_block(curve, ts, cfg, mode == "dc-hybrid")
    exact, dev = block[:, 0], block[:, 1]
    allowance = 0.0
    if reference is not None:
        allowance = float(np.abs(exact - _reference_values(reference, ts, exact.shape)).max())
    return float(dev.max()) + allowance
