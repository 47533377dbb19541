"""Error sweeps, summary statistics, and deviation rendering.

Compares a texture evaluation path against a full-precision reference over
a uniform parameter lattice, writes diffable CSV reports, renders the
red/green deviation pixmaps, and computes a brute-force bound on the error
attributable to subtexel coordinate quantization.

`_MODES` is the one mode table: each evaluation mode names the layouts it
accepts and its evaluator. Sweeps, the bound and the CLI validate modes and
pick a layout's default mode through it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (
    ChannelMismatchError,
    DomainError,
    EncodedCurve,
    Layout,
    LayoutError,
    SamplerConfig,
)
from .sampler import blend_with_fractions, texel_cell
from .texeval import (
    _decode,
    _in_blocks,
    eval_bicubic_rgba,
    eval_bilinear_patch,
    eval_dc,
    eval_dc_cubic_hybrid,
    eval_dc_zigzag,
    eval_rational_tex,
    eval_seiler_tex,
    parameter_coords,
)

#: mode name -> (layouts it can evaluate, evaluator fn(curve, t, cfg)).
#: The surface modes evaluate the diagonal u = v = t. A layout's default
#: mode is the first mode that lists it.
_MODES = {
    "dc": ((Layout.DC_QUAD_2X2, Layout.DC_CUBIC_2X2X2), eval_dc),
    "dc-hybrid": ((Layout.DC_CUBIC_2X2X2,), eval_dc_cubic_hybrid),
    "seiler": ((Layout.SEILER_2D, Layout.SEILER_3D), eval_seiler_tex),
    "zigzag": ((Layout.DC_ZIGZAG,), eval_dc_zigzag),
    "patch": ((Layout.BILINEAR_PATCH,),
              lambda curve, t, cfg: eval_bilinear_patch(curve, t, t, cfg)),
    "bicubic": ((Layout.BICUBIC_RGBA,),
                lambda curve, t, cfg: eval_bicubic_rgba(curve, t, t, cfg)),
    "rational": ((Layout.RATIONAL_HOMOGENEOUS,), eval_rational_tex),
}


def _default_mode(layout: Layout) -> str:
    """The first mode in `_MODES` that lists `layout`."""
    return next(mode for mode, (layouts, _) in _MODES.items() if layout in layouts)


def _mode_eval(curve: EncodedCurve, mode: str) -> Callable:
    """The evaluator fn(curve, t, cfg) of `mode`, checked against the curve's layout."""
    if mode not in _MODES:
        raise LayoutError(f"unknown evaluation mode {mode!r}")
    layouts, fn = _MODES[mode]
    if curve.layout not in layouts:
        raise LayoutError(f"mode {mode!r} cannot evaluate layout {curve.layout.value}")
    return fn


def _reference_values(reference: Callable, ts: np.ndarray, shape) -> np.ndarray:
    """`reference` called once on the whole lattice `ts`; it must return
    `shape`, (samples, channels)."""
    ref = np.asarray(reference(ts), dtype=float)
    if ref.shape != shape:
        raise ChannelMismatchError(f"reference returned shape {ref.shape}, expected {shape}")
    return ref


def _domain_lattice(curve: EncodedCurve, mode: str, samples: int) -> np.ndarray:
    hi = float(curve.segment_count) if mode == "zigzag" else 1.0
    return np.linspace(0.0, hi, samples)


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
        object.__setattr__(self, "absdev", np.abs(test - ref))

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
        return np.sqrt(np.mean(self.absdev**2, axis=0))


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
    propagate, so wrap a scalar-only reference such as `eval_deboor`.
    Results are deterministic and independent of evaluation order.
    """
    if samples < 2:
        raise DomainError("a sweep needs at least 2 samples")
    ts = _domain_lattice(curve, mode, samples)
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


def _fmt(x: float) -> str:
    return repr(float(x))


def report_to_csv(report: ErrorReport) -> str:
    """Serialize a report: header row, one row per sample, then summary
    rows prefixed #max, #mean, #rms."""
    c = report.channels
    cols = (
        ["t"]
        + [f"ref_{i}" for i in range(c)]
        + [f"test_{i}" for i in range(c)]
        + [f"absdev_{i}" for i in range(c)]
    )
    lines = [",".join(cols)]
    for j in range(report.sample_count):
        row = (
            [_fmt(report.t[j])]
            + [_fmt(v) for v in report.reference[j]]
            + [_fmt(v) for v in report.test[j]]
            + [_fmt(v) for v in report.absdev[j]]
        )
        lines.append(",".join(row))
    lines.append("#max," + ",".join(_fmt(v) for v in report.max_dev))
    lines.append("#mean," + ",".join(_fmt(v) for v in report.mean_dev))
    lines.append("#rms," + ",".join(_fmt(v) for v in report.rms_dev))
    return "\n".join(lines) + "\n"


def write_csv(report: ErrorReport, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(report_to_csv(report))


WHITE = (255, 255, 255)
RED = (255, 0, 0)
GREEN = (0, 255, 0)


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
    """
    if width < 2 or height < 2:
        raise DomainError("image must be at least 2x2")
    report = sweep(curve, reference, mode, cfg, samples or width)
    if report.channels not in (1, 2):
        raise LayoutError("deviation rendering supports 1-channel or 2-channel curves")
    img = np.zeros((height, width, 3), dtype=np.uint8)

    if report.channels == 1:
        both = np.concatenate([report.reference[:, 0], report.test[:, 0]])
        lo, hi = float(both.min()), float(both.max())
        if hi == lo:
            lo, hi = lo - 0.5, hi + 0.5
        pad = 0.05 * (hi - lo)
        lo, hi = lo - pad, hi + pad

        def to_px(tv, val):
            x = int(round(tv / report.t[-1] * (width - 1))) if report.t[-1] else 0
            y = int(round((hi - val) / (hi - lo) * (height - 1)))
            return x, min(max(y, 0), height - 1)

        for j in range(report.sample_count):
            rx, ry = to_px(report.t[j], report.reference[j, 0])
            tx, ty = to_px(report.t[j], report.test[j, 0])
            delta = report.test[j, 0] - report.reference[j, 0]
            img[ty, tx] = RED if delta < 0 else GREEN if delta > 0 else WHITE
            img[ry, rx] = WHITE
        return img

    pts = np.concatenate([report.reference, report.test], axis=0)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    pad = 0.05 * span
    lo, span = lo - pad, span + 2 * pad

    def to_px2(p):
        x = int(round((p[0] - lo[0]) / span[0] * (width - 1)))
        y = int(round((1.0 - (p[1] - lo[1]) / span[1]) * (height - 1)))
        return min(max(x, 0), width - 1), min(max(y, 0), height - 1)

    for j in range(report.sample_count):
        delta = report.test[j] - report.reference[j]
        key = delta[1] if delta[1] != 0.0 else delta[0]
        tx, ty = to_px2(report.test[j])
        img[ty, tx] = RED if key < 0 else GREEN if key > 0 else WHITE
        rx, ry = to_px2(report.reference[j])
        img[ry, rx] = WHITE
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
    fractions."""
    coords = parameter_coords(curve, t)
    extents = (curve.grid.width, curve.grid.height, curve.grid.depth)
    bases, fracs = zip(*(texel_cell(c, extent) for c, extent in zip(coords, extents)))
    exact = _decode(curve, blend_with_fractions(curve.grid, bases, fracs))
    dev = np.zeros_like(exact)
    if cfg.subtexel_bits > 0:
        step = float(1 << cfg.subtexel_bits)
        options = []
        for frac in fracs:
            lo = np.floor(frac * step) / step
            options.append((lo, np.minimum(lo + 1.0 / step, 1.0)))
        if hybrid:  # the hybrid's depth fraction is never quantized
            options[-1] = (fracs[-1],)
        for combo in itertools.product(*options):
            probe = _decode(curve, blend_with_fractions(curve.grid, bases, combo))
            dev = np.maximum(dev, np.abs(probe - exact))
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
    like sweep's. Surface layouts raise LayoutError.
    """
    if mode is None:
        mode = _default_mode(curve.layout)
    _mode_eval(curve, mode)
    ts = _domain_lattice(curve, mode, samples)
    body = functools.partial(_bound_block, hybrid=mode == "dc-hybrid")
    exact, dev = np.moveaxis(_in_blocks(body, curve, ts, cfg), 1, 0)
    allowance = 0.0
    if reference is not None:
        allowance = float(np.max(np.abs(exact - _reference_values(reference, ts, exact.shape))))
    return float(np.max(dev)) + allowance
