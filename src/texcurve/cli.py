"""Command-line front end: encode, eval, sweep, render, convert, inspect.

stdout carries data, stderr carries diagnostics. Exit codes: 0 success
(`--help` included), 2 range errors, 3 unsupported degree, 4 mode/layout
mismatch, 5 domain errors, command-line usage errors and requests too large
to allocate (such as `--samples 100000000000`, which fails before any
output is written), 1 anything else. All outputs are byte-reproducible for
fixed inputs.
"""

from __future__ import annotations

import argparse
import itertools
import sys

import numpy as np

from . import analysis, container, curvefile, encoder, reference, texeval
from .core import (
    ControlPolygon,
    DomainError,
    EncodedCurve,
    HomogeneousDivideError,
    Layout,
    LayoutError,
    RangeError,
    SamplerConfig,
    TexCurveError,
    TexelFormat,
    UnsupportedDegreeError,
)

_FORMATS = {"unorm8": TexelFormat.UNORM8, "unorm16": TexelFormat.UNORM16, "f32": TexelFormat.FLOAT32}


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, RangeError):
        return 2
    if isinstance(exc, UnsupportedDegreeError):
        return 3
    if isinstance(exc, LayoutError):
        return 4
    if isinstance(exc, (DomainError, HomogeneousDivideError)):
        return 5
    return 1


def _fmt_vec(vec) -> str:
    return " ".join(repr(float(v)) for v in np.atleast_1d(np.asarray(vec, dtype=float)))


def _zigzag_segments(spec: curvefile.CurveFile):
    pts = spec.points
    if spec.degree != 2:
        raise UnsupportedDegreeError("zig-zag packing needs degree-2 segments")
    if pts.shape[0] < 3 or pts.shape[0] % 2 == 0:
        raise DomainError("zig-zag chains need an odd point count >= 3 (shared joins)")
    return [ControlPolygon(pts[2 * k : 2 * k + 3]) for k in range((pts.shape[0] - 1) // 2)]


def _encode_from_spec(spec: curvefile.CurveFile, args) -> EncodedCurve:
    fmt = _FORMATS[args.format]
    layout = args.layout
    rescale = args.rescale
    if layout == "zigzag":
        seed = args.seed_texel
        if seed not in (None, "search"):
            try:
                seed = np.array([float(v) for v in seed.split(",")])
            except ValueError:
                raise DomainError(
                    f"--seed-texel takes comma-separated numbers or 'search', got {seed!r}"
                ) from None
        return encoder.encode_dc_zigzag(_zigzag_segments(spec), fmt, seed, rescale=rescale)
    if layout == "patch":
        if spec.points.shape[0] != 4:
            raise DomainError("a bilinear patch needs exactly 4 control points (2x2 row-major)")
        net = spec.points.reshape(2, 2, spec.channels)
        return encoder.encode_bilinear_patch(net, fmt, rescale=rescale)
    if layout == "bicubic":
        if spec.points.shape[0] != 16 or spec.channels != 1:
            raise DomainError("bicubic packing needs 16 scalar control points (4x4 row-major)")
        return encoder.encode_bicubic_rgba(spec.points.reshape(4, 4), fmt, rescale=rescale)
    if spec.points.shape[0] != spec.degree + 1:
        raise DomainError(
            f"declared degree {spec.degree} needs {spec.degree + 1} points, "
            f"found {spec.points.shape[0]}"
        )
    poly = ControlPolygon(spec.points)
    if layout == "rational":
        if spec.weights is None:
            raise DomainError("rational encoding needs a weights line")
        return encoder.encode_rational(poly, spec.weights, fmt, scheme=args.scheme, rescale=rescale)
    if layout == "seiler":
        return encoder.encode_seiler(poly, fmt, rescale=rescale)
    if layout == "dc":
        if spec.degree == 2:
            return encoder.encode_dc_quadratic(poly, fmt, rescale=rescale)
        if spec.degree == 3:
            return encoder.encode_dc_cubic(poly, fmt, rescale=rescale)
        raise UnsupportedDegreeError("dc layout holds degree 2 or 3; use zigzag for chains")
    raise LayoutError(f"unknown layout {layout!r}")


def _reference_for(spec: curvefile.CurveFile, curve: EncodedCurve):
    """Full-precision reference callable for the curve's layout, over the
    texture path's domain. It is picked from the layout, not the mode, so a
    mode that cannot evaluate the layout fails in the sweep's mode check."""
    layout = curve.layout
    if layout is Layout.DC_ZIGZAG:
        segments = _zigzag_segments(spec)
        return lambda gt: reference.eval_bezier_chain(segments, gt)
    if layout in (Layout.BILINEAR_PATCH, Layout.BICUBIC_RGBA):
        net = spec.points.reshape(curve.degree + 1, curve.degree + 1, spec.channels)
        return lambda t: reference.eval_tensor_surface(net, t, t)
    poly = ControlPolygon(spec.points)
    if layout is Layout.RATIONAL_HOMOGENEOUS:
        return lambda t: reference.eval_rational(poly, spec.weights, t)
    return lambda t: reference.eval_bernstein(poly, t)


def _sampler_config(args) -> SamplerConfig:
    return SamplerConfig(subtexel_bits=args.bits, subtexel_rounding=args.subtexel_rounding)


def _describe(curve: EncodedCurve, out=None):
    """Write the header and one `texel x y z:` line per texel, in z, y, x order."""
    out = out or sys.stdout
    grid = curve.grid
    lines = [
        f"layout {curve.layout.value} degree {curve.degree} segments {curve.segment_count}",
        f"grid {grid.width}x{grid.height}x{grid.depth} channels {grid.channels} "
        f"format {grid.fmt.value}",
    ]
    if curve.inner_layout is not None:
        lines.append(f"inner layout {curve.inner_layout.value}")
    lines.append(f"transform scale {_fmt_vec(curve.transform.scale)} "
                 f"offset {_fmt_vec(curve.transform.offset)}")
    cells = itertools.product(range(grid.depth), range(grid.height), range(grid.width))
    texels = grid.data.reshape(-1, grid.channels).tolist()
    lines += [f"texel {x} {y} {z}: {' '.join(map(repr, texel))}"
              for (z, y, x), texel in zip(cells, texels)]
    out.write("\n".join(lines) + "\n")


def _cmd_encode(args) -> int:
    spec = curvefile.read_curve_file(args.infile)
    curve = _encode_from_spec(spec, args)
    container.write_ctex(curve, args.out)
    if args.sidecar:
        container.write_sidecar(curve, args.out + ".meta")
    _describe(curve)
    return 0


def _cmd_eval(args) -> int:
    curve = container.read_ctex(args.infile)
    cfg = _sampler_config(args)
    mode = args.mode or analysis._default_mode(curve.layout)
    if mode in ("patch", "bicubic"):
        u = args.u if args.u is not None else args.t
        v = args.v if args.v is not None else args.t
        if u is None or v is None:
            raise DomainError("surface evaluation needs --u and --v (or --t for the diagonal)")
        fn = texeval.eval_bilinear_patch if mode == "patch" else texeval.eval_bicubic_rgba
        print(_fmt_vec(fn(curve, u, v, cfg)))
        return 0
    if args.t is None:
        raise DomainError("--t is required for curve evaluation")
    evaluate = analysis._mode_eval(curve, mode)
    print(_fmt_vec(evaluate(curve, args.t, cfg)))
    return 0


def _cmd_sweep(args) -> int:
    spec = curvefile.read_curve_file(args.infile)
    curve = _encode_from_spec(spec, args)
    mode = args.mode or analysis._default_mode(curve.layout)
    cfg = _sampler_config(args)
    report = analysis.sweep(
        curve,
        _reference_for(spec, curve),
        mode,
        cfg,
        args.samples,
        curve_id=args.infile,
    )
    _write_or_print(args.out, analysis.report_to_csv(report))
    return 0


def _cmd_render(args) -> int:
    spec = curvefile.read_curve_file(args.infile)
    curve = _encode_from_spec(spec, args)
    mode = args.mode or analysis._default_mode(curve.layout)
    cfg = _sampler_config(args)
    image = analysis.render_deviation_image(
        curve, _reference_for(spec, curve), mode, cfg, args.width, args.height,
        samples=args.samples,
    )
    analysis.write_ppm(image, args.out)
    return 0


def _cmd_convert(args) -> int:
    spec = curvefile.read_curve_file(args.infile)
    if args.power_to_bernstein:
        poly = reference.power_to_bernstein(spec.points)
        text = curvefile.curve_text(poly.degree, poly.points)
        _write_or_print(args.out, text)
        return 0
    if args.bernstein_to_power:
        coeffs = reference.bernstein_to_power(ControlPolygon(spec.points))
        text = curvefile.curve_text(spec.degree, coeffs)
        _write_or_print(args.out, text)
        return 0
    if spec.knots is None:
        raise DomainError("bspline conversion needs a knots line")
    spline = reference.BSplineCurve(spec.points, spec.knots, spec.degree)
    segments = reference.boehm_to_bezier(spline)
    if not args.out:
        raise DomainError("--out prefix is required for bspline conversion")
    for i, (poly, (lo, hi)) in enumerate(segments):
        path = f"{args.out}-{i}.curve"
        curvefile.write_curve_file(path, poly.degree, poly.points)
        print(f"{path} {lo!r} {hi!r}")
    return 0


def _write_or_print(out, text: str):
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_inspect(args) -> int:
    curve = container.read_ctex(args.infile)
    _describe(curve)
    return 0


def _number(kind, flag: str):
    """An argparse type that parses `kind` and raises DomainError (exit 5)
    for text that is not one, with a message that names the flag and the
    kind of number it takes."""
    what = "an integer" if kind is int else "a number"

    def parse(text: str):
        try:
            return kind(text)
        except ValueError:
            raise DomainError(f"{flag} takes {what}, got {text!r}") from None

    return parse


def _add_sampler_flags(p: argparse.ArgumentParser):
    p.add_argument("--bits", type=_number(int, "--bits"), default=8,
                   help="subtexel fixed-point bits (0 = exact)")
    p.add_argument("--subtexel-rounding", choices=("nearest", "floor"), default="nearest")


def _add_encode_flags(p: argparse.ArgumentParser):
    p.add_argument("--layout", required=True,
                   choices=("dc", "seiler", "zigzag", "patch", "bicubic", "rational"))
    p.add_argument("--format", choices=tuple(_FORMATS), default="f32")
    p.add_argument("--rescale", action="store_true",
                   help="fit out-of-range values into [0,1] instead of failing")
    p.add_argument("--seed-texel", default=None,
                   help="zig-zag free texel: comma-separated floats, or 'search'")
    p.add_argument("--scheme", choices=("seiler", "dc"), default="seiler",
                   help="inner layout for rational curves")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise DomainError (exit 5)
    instead of exiting 2, which is RangeError's code. Subparsers inherit
    the class."""

    def error(self, message):
        raise DomainError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="texcurve",
                     description="curves in texel grids, evaluated by an emulated GPU sampler")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="pack a curve description into a CTEX1 container")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sidecar", action="store_true", help="also write <out>.meta")
    _add_encode_flags(p)
    p.set_defaults(fn=_cmd_encode)

    p = sub.add_parser("eval", help="evaluate a CTEX1 container at one parameter")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--t", type=_number(float, "--t"), default=None)
    p.add_argument("--u", type=_number(float, "--u"), default=None)
    p.add_argument("--v", type=_number(float, "--v"), default=None)
    p.add_argument("--mode", choices=tuple(analysis._MODES), default=None)
    _add_sampler_flags(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("sweep", help="CSV error report of texture path vs reference")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.add_argument("--samples", type=_number(int, "--samples"), default=1024)
    p.add_argument("--mode", choices=tuple(analysis._MODES), default=None)
    _add_encode_flags(p)
    _add_sampler_flags(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("render", help="P6 deviation image of texture path vs reference")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--width", type=_number(int, "--width"), default=1024)
    p.add_argument("--height", type=_number(int, "--height"), default=256)
    p.add_argument("--samples", type=_number(int, "--samples"), default=None)
    p.add_argument("--mode", choices=tuple(analysis._MODES), default=None)
    _add_encode_flags(p)
    _add_sampler_flags(p)
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("convert", help="basis and spline conversions between curve files")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--power-to-bernstein", action="store_true")
    group.add_argument("--bernstein-to-power", action="store_true")
    group.add_argument("--bspline-to-bezier", action="store_true")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("inspect", help="dump a CTEX1 header and its texels")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=_cmd_inspect)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except TexCurveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
