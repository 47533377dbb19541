"""Error sweeps, summary statistics, and deviation rendering.

Compares a texture evaluation path against a full-precision reference over
a uniform parameter lattice, writes diffable CSV reports, renders the
red/green deviation pixmaps, and computes a brute-force bound on the error
attributable to subtexel coordinate quantization.

Sweeps, the bound and the CLI validate modes and pick a layout's default
mode through `texeval`'s one mode table, which this module re-exports as
`_MODES` together with `_default_mode` and `_mode_eval`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import ChannelMismatchError, DomainError, EncodedCurve, LayoutError, SamplerConfig
from .sampler import _corners, _lerp_axes, _lookup
from .texeval import _MODES, _decode, _default_mode, _in_blocks, _mode_eval, parameter_coords


def _reference_values(reference: Callable, ts: np.ndarray, shape) -> np.ndarray:
    """`reference` called once on the whole lattice `ts`; it must return
    `shape`, (samples, channels)."""
    ref = np.asarray(reference(ts), dtype=float)
    if ref.shape != shape:
        raise ChannelMismatchError(f"reference returned shape {ref.shape}, expected {shape}")
    return ref


def _domain_lattice(curve: EncodedCurve, samples: int) -> np.ndarray:
    """`samples` parameters from 0 to the segment count (1 but for a zig-zag)."""
    return np.linspace(0.0, float(curve.segment_count), samples)


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
            rms = np.sqrt(np.mean(self.absdev**2, axis=0))
        m = self.max_dev
        redo = np.isinf(rms) & np.isfinite(m)
        if redo.any():
            rms[redo] = m[redo] * np.sqrt(np.mean((self.absdev[:, redo] / m[redo]) ** 2, axis=0))
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
    with open(path, "w", newline="\n") as fh:
        fh.write(report_to_csv(report))


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
    """Write an (h, w, 3) uint8 image as a binary P6 pixmap."""
    h, w, _ = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.astype(np.uint8).tobytes())


def _bound_block(curve: EncodedCurve, t, cfg: SamplerConfig, hybrid: bool) -> np.ndarray:
    """(samples, 2, channels): the exact-coordinate blend of each sample and
    its worst distance from a probe blend at the adjacent representable
    fractions.

    The exact blend and every probe share one gather of the cell's corners.
    Each axis's probe fractions stack on an option axis of their own ahead
    of the samples, so one lerp per axis blends every combination. The
    hybrid's depth axis is probed at its exact fraction only, since the
    hybrid never quantizes it.
    """
    pairs, fracs, _ = _lookup(curve.grid, parameter_coords(curve, t), cfg)
    corners = _corners(curve.grid, pairs)
    exact = _decode(curve, _lerp_axes(corners, fracs).T)
    dev = np.zeros_like(exact)
    if cfg.subtexel_bits > 0:
        step, n = float(1 << cfg.subtexel_bits), len(fracs)
        options = []
        for axis, frac in enumerate(fracs):
            lo = np.floor(frac * step) / step
            probe = np.array((lo, np.minimum(lo + 1.0 / step, 1.0)))
            options.append(probe.reshape((2,) + (1,) * (n - 1 - axis) + frac.shape))
        if hybrid:
            options[-1] = fracs[-1]
        # one option axis per corner axis, between the corner axes and the samples
        shape = corners.shape[: 1 + n] + (1,) * n + corners.shape[1 + n :]
        probes = _lerp_axes(corners.reshape(shape), options)  # (channels, *options, samples)
        probes = _decode(curve, np.moveaxis(probes, 0, -1))
        dev = np.abs(probes - exact).max(axis=tuple(range(n)))
    return np.stack([exact, dev], axis=1)


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

    Blends decode and the lattice runs in blocks as in the evaluators; the
    reference is called once with the whole lattice, as in `sweep`.

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
    body = functools.partial(_bound_block, hybrid=mode == "dc-hybrid")
    exact, dev = np.moveaxis(_in_blocks(body, curve, ts, cfg), 1, 0)
    allowance = 0.0
    if reference is not None:
        allowance = float(np.max(np.abs(exact - _reference_values(reference, ts, exact.shape))))
    return float(np.max(dev)) + allowance
