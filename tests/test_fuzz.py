"""Hostile input for the two parsers, the command line, the evaluators,
sweep, the error bound, the encoders and the basis conversions: a CTEX1
blob or a curve file either parses or raises a TexCurveError, a command
line either succeeds or exits with a documented code, an evaluator or a
sweep either returns what per-element scalar calls return or raises a
TexCurveError, the bound either returns a float or raises a TexCurveError,
an encoder or a conversion either succeeds or raises a TexCurveError, and
so does a reference evaluator on a polygon at the edges of float64; never
another exception (pytest turns a RuntimeWarning into one)."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from texcurve import (
    BSplineCurve,
    ControlPolygon,
    Layout,
    SamplerConfig,
    TexCurveError,
    TexelFormat,
    bernstein_to_power,
    boehm_to_bezier,
    elevate_degree,
    error_bound_estimate,
    eval_bernstein,
    eval_bezier_chain,
    eval_bezier_segments,
    eval_bicubic_rgba,
    eval_bilinear_patch,
    eval_dc,
    eval_dc_cubic_hybrid,
    eval_dc_zigzag,
    eval_deboor,
    eval_decasteljau,
    eval_rational,
    eval_rational_tex,
    eval_seiler,
    eval_seiler_tex,
    eval_tensor_surface,
    power_to_bernstein,
    sweep,
)
from texcurve.cli import main
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
from texcurve.reference import seiler_terms
from texcurve.texeval import _BLOCK, _MODES
from conftest import one_curve_per_layout, random_c0_quadratics, random_polygon


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


# Hostile command lines: cli.main either succeeds (exit 0, nothing on
# stderr) or prints one `error:` line, writes nothing to stdout and exits
# with a documented code; it never raises.


def _mostly(valid, junk):
    """`valid` four draws in five, else `junk`."""
    return st.integers(0, 4).flatmap(lambda i: valid if i else junk)


_NUMBER_JUNK = st.sampled_from(["", "x", "2.5", "1e3", " 7", "nan", "-inf", "1e999"])
_FLOATS = _mostly(st.floats(0.0, 1.0).map(repr) | st.sampled_from(["0", "1", "-0.0", "2"]),
                  _NUMBER_JUNK | st.floats().map(repr))
# --samples, --width and --height stay at most 4096, and --height at most 64
# (a 4096 x 4096 image would write 50 MB); a larger request is covered by
# tests/test_cli.py::test_oversized_request_exits_5_and_writes_nothing
_INTS = _mostly(st.integers(2, 4096).map(str), st.integers(-3, 1).map(str) | _NUMBER_JUNK)
_HEIGHTS = _mostly(st.integers(2, 64).map(str), st.integers(-3, 1).map(str) | _NUMBER_JUNK)
_LAYOUTS = ("dc", "seiler", "zigzag", "patch", "bicubic", "rational")
_ENCODE_FLAGS = {
    "--format": _mostly(st.sampled_from(["unorm8", "unorm16", "f32"]), st.just("f16")),
    "--rescale": None,
    "--seed-texel": st.sampled_from(["search", "0.5", "0,1", "0.25,0.5,0.75", "nan", "1e999",
                                     "", "x"]),
    "--scheme": _mostly(st.sampled_from(["seiler", "dc"]), st.just("x")),
}
_SAMPLER_FLAGS = {
    "--bits": _mostly(st.integers(0, 24).map(str),
                      st.integers(-2, 30).map(str) | _NUMBER_JUNK),
    "--subtexel-rounding": _mostly(st.sampled_from(["nearest", "floor"]), st.just("up")),
    "--mode": _mostly(st.sampled_from(["dc", "dc-hybrid", "seiler", "zigzag", "patch", "bicubic",
                                       "rational"]), st.just("x")),
}
_CONVERSIONS = ("--power-to-bernstein", "--bernstein-to-power", "--bspline-to-bezier")
#: command -> (input kind, flag -> value strategy or None for a switch).
#: `--layout` is drawn with the input file; `--help` is left out, since
#: argparse ends the process for it (exit 0).
_COMMANDS = {
    "encode": ("curve", {"--out": st.just("out.ctex"), "--sidecar": None, **_ENCODE_FLAGS}),
    "eval": ("ctex", {"--t": _FLOATS, "--u": _FLOATS, "--v": _FLOATS, **_SAMPLER_FLAGS}),
    "sweep": ("curve", {"--out": st.just("out.csv"), "--samples": _INTS, **_ENCODE_FLAGS,
                        **_SAMPLER_FLAGS}),
    "render": ("curve", {"--out": st.just("out.ppm"), "--width": _INTS, "--height": _HEIGHTS,
                         "--samples": _INTS, **_ENCODE_FLAGS, **_SAMPLER_FLAGS}),
    "convert": ("curve", {**dict.fromkeys(_CONVERSIONS), "--out": st.just("conv")}),
    "inspect": ("ctex", {}),
}
#: (command, flag) pairs drawn nine times in ten, other flags three in ten
_USUAL = {("encode", "--out"), ("render", "--out"), ("eval", "--t")}
#: file name -> (text, the layout that fits it)
_CURVE_FILES = {
    "hump.curve": ("degree 3\nchannels 1\n0\n1\n1\n0\n", "dc"),
    "plane.curve": ("degree 2\nchannels 2\n0 0\n0.5 1\n1 0\n", "seiler"),
    "chain.curve": ("degree 2\nchannels 1\n0\n1\n0\n0.5\n0\n", "zigzag"),
    "spline.curve": ("degree 3\nchannels 1\nknots 0 0 0 0 1 2 2 2 2\n0\n0.4\n0.9\n0.3\n0.1\n",
                     "dc"),
    "arc.curve": ("degree 2\nchannels 2\nweights 1 0.7071067811865476 1\n1 0\n1 1\n0 1\n",
                  "rational"),
    "patch.curve": ("degree 1\nchannels 3\n0 0 0\n1 0 0.5\n0 1 0.5\n1 1 1\n", "patch"),
    "bicubic.curve": ("degree 3\nchannels 1\n" + "0.25\n0.5\n0.75\n1\n" * 4, "bicubic"),
    "sextic.curve": ("degree 6\nchannels 1\n" + "0\n1\n" * 3 + "0\n", "seiler"),
    "huge.curve": ("degree 3\nchannels 1\n0\n1e300\n1\n0\n", "dc"),
    # both basis conversions overflow on it
    "wide.curve": ("degree 1\nchannels 2\n1e308 1e308\n1e308 -1e308\n", "patch"),
}


@st.composite
def command_lines(draw):
    """(argv with file names relative to the work directory, {name: bytes
    to write there first})."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    kind, flags = _COMMANDS[command]
    files = {}
    if kind == "curve":
        names = sorted(_CURVE_FILES) + ["drawn.curve", "blob0.ctex", "missing.curve", "."]
    else:
        names = [f"blob{i}.ctex" for i in range(len(BLOBS))] + ["drawn.ctex", "hump.curve",
                                                                 "missing.ctex"]
    name = draw(st.sampled_from(names))
    if name == "drawn.curve":
        files[name] = draw(curve_texts()).encode()
    elif name == "drawn.ctex":
        files[name] = draw(mutated_blobs())
    argv = [command]
    if draw(st.integers(0, 9)):
        argv += ["--in", name]
    if command in ("encode", "sweep", "render"):
        if draw(st.integers(0, 9)):
            fits = _CURVE_FILES.get(name, ("", "dc"))[1]
            argv += ["--layout", draw(st.just(fits) | st.sampled_from(_LAYOUTS + ("x",)))]
    if command == "convert":
        argv.append(draw(st.sampled_from(_CONVERSIONS)))
    for flag in draw(st.permutations(sorted(flags))):
        if draw(st.integers(0, 9)) < (9 if (command, flag) in _USUAL else 3):
            argv.append(flag)
            if flags[flag] is not None:
                argv.append(draw(flags[flag]))
    if not draw(st.integers(0, 19)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--nosuch", "x", "--t"])))
    return argv, files


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    work = tmp_path_factory.mktemp("cli")
    for name, (text, _) in _CURVE_FILES.items():
        (work / name).write_text(text)
    for i, blob in enumerate(BLOBS):
        (work / f"blob{i}.ctex").write_bytes(blob)
    return work


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_main_exits_with_a_documented_code(cli_dir, case):
    argv, files = case
    for name, data in files.items():
        (cli_dir / name).write_bytes(data)
    argv = [str(cli_dir / token) if before in ("--in", "--out") else token
            for before, token in zip([None] + argv, argv)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code in (1, 2, 3, 4, 5)
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# -- the public evaluators and sweep ------------------------------------------


def _evaluator_cases():
    """(name, fn(u, v), domain end) for every public `eval_*`, each on one
    seeded curve; the 1-parameter ones ignore v."""
    rng = np.random.default_rng(67)
    f32 = TexelFormat.FLOAT32
    quad, cubic, quintic = (random_polygon(rng, d, 2) for d in (2, 3, 5))
    chain = random_c0_quadratics(rng, 3, 2)
    net = rng.uniform(0, 1, (4, 4))
    patch = rng.uniform(0, 1, (2, 2, 2))
    spline = BSplineCurve(rng.uniform(0, 1, (6, 2)), [0, 0, 0, 0, 0.3, 0.6, 1, 1, 1, 1], 3)
    pieces = boehm_to_bezier(spline)
    dc, cubic_dc = encode_dc_quadratic(quad, f32), encode_dc_cubic(cubic, f32)
    zigzag = encode_dc_zigzag(chain, f32)
    seiler = encode_seiler(quintic, TexelFormat.UNORM8, rescale=True)
    rational = encode_rational(random_polygon(rng, 2, 2, lo=0.0), [1.0, 0.7, 1.0], f32)
    bilinear, bicubic = encode_bilinear_patch(patch, f32), encode_bicubic_rgba(net, f32)
    cfg = SamplerConfig(subtexel_bits=8)
    return (
        ("eval_dc", lambda u, v: eval_dc(dc, u, cfg), 1.0),
        ("eval_dc cubic", lambda u, v: eval_dc(cubic_dc, u, cfg), 1.0),
        ("eval_dc_cubic_hybrid", lambda u, v: eval_dc_cubic_hybrid(cubic_dc, u, cfg), 1.0),
        ("eval_dc_zigzag", lambda u, v: eval_dc_zigzag(zigzag, u, cfg), 3.0),
        ("eval_seiler_tex", lambda u, v: eval_seiler_tex(seiler, u, cfg), 1.0),
        ("eval_rational_tex", lambda u, v: eval_rational_tex(rational, u, cfg), 1.0),
        ("eval_bilinear_patch", lambda u, v: eval_bilinear_patch(bilinear, u, v, cfg), 1.0),
        ("eval_bicubic_rgba", lambda u, v: eval_bicubic_rgba(bicubic, u, v, cfg), 1.0),
        ("eval_bernstein", lambda u, v: eval_bernstein(cubic, u), 1.0),
        ("eval_decasteljau", lambda u, v: eval_decasteljau(cubic, u), 1.0),
        ("eval_seiler", lambda u, v: eval_seiler(quintic, u), 1.0),
        ("eval_rational", lambda u, v: eval_rational(quad, [1.0, 0.7, 1.0], u), 1.0),
        ("eval_tensor_surface", lambda u, v: eval_tensor_surface(net, u, v), 1.0),
        ("eval_deboor", lambda u, v: eval_deboor(spline, u), 1.0),
        ("eval_bezier_segments", lambda u, v: eval_bezier_segments(pieces, u), 1.0),
        ("eval_bezier_chain", lambda u, v: eval_bezier_chain(chain, u), 3.0),
    )


EVALUATORS = _evaluator_cases()


@st.composite
def parameters(draw, end):
    """A scalar or an array of 0-7 values, 1-D or 2-D, some repeated into
    plateaus: NaN, +-inf, +-0.0, the domain ends and just past them, huge
    values and values inside the domain."""
    value = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, end, -0.5, end + 0.5, 1e-300,
                             -1e-300, 1e308, -1e308, float(np.nextafter(end, np.inf))])
    value = value | st.floats(0.0, end)
    if draw(st.booleans()):
        return draw(value)
    values = draw(st.lists(st.tuples(value, st.integers(1, 3)), max_size=5))
    t = np.array([x for x, count in values for _ in range(count)], dtype=float)
    if t.size % 2 == 0 and draw(st.booleans()):
        t = t.reshape(2, -1)
    return t


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(EVALUATORS), st.data())
def test_evaluators_match_scalar_calls_or_raise_their_own_error(case, data):
    name, fn, end = case
    u = data.draw(parameters(end))
    v = data.draw(st.sampled_from(["quarter", "same", "flipped"]))
    v = np.broadcast_to(0.25 if v == "quarter" else np.flip(u) if v == "flipped" else u,
                        np.shape(u))
    try:
        got = fn(u, v)
    except TexCurveError:
        return
    point = fn(0.5, 0.5)
    each = [fn(a, b) for a, b in zip(np.ravel(u), np.ravel(v))]
    if np.ndim(u):
        assert got.shape == np.shape(u) + point.shape[-1:]
    assert got.dtype == np.float64
    assert got.tobytes() == b"".join(x.tobytes() for x in each)


def hostile_reference(mode, curve, cfg, kind):
    """A reference for `mode` on `curve`: the mode's own evaluation
    ("same"), that shape filled with NaN, +-inf or -0.0, one row short, twice
    as wide, or a scalar."""
    def ref(ts):
        test = _MODES[mode][1](curve, ts, cfg)
        if kind == "same":
            return test
        if kind in ("nan", "inf", "-inf", "-0.0"):
            return np.full_like(test, float(kind))
        if kind == "short":
            return test[1:]
        if kind == "wide":
            return np.concatenate([test, test], axis=-1)
        return 0.5
    return ref


def _sweep_cases():
    """(mode, curve) for every mode of `texeval._MODES`, plus a mismatch."""
    curves = one_curve_per_layout()
    return [(mode, curves[layouts[0]]) for mode, (layouts, _) in _MODES.items()] + \
        [("dc", curves[Layout.SEILER_2D]), ("nosuch", curves[Layout.DC_QUAD_2X2])]


SWEEP_CASES = _sweep_cases()
REFERENCES = ["same", "nan", "inf", "-inf", "-0.0", "short", "wide", "scalar"]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(SWEEP_CASES),
    st.integers(-2, 40) | st.sampled_from([257, 1000]),
    st.sampled_from([0, 4, 8, 12]),
    st.sampled_from(REFERENCES),
)
def test_sweep_matches_its_evaluator_or_raises_its_own_error(case, samples, bits, reference):
    mode, curve = case
    cfg = SamplerConfig(subtexel_bits=bits)
    ref = hostile_reference(mode, curve, cfg, reference)
    try:
        report = sweep(curve, ref, mode, cfg, samples)
    except TexCurveError:
        return
    fn = _MODES[mode][1]
    assert report.test.tobytes() == b"".join(fn(curve, t, cfg).tobytes() for t in report.t)
    for summary in (report.max_dev, report.mean_dev, report.rms_dev):
        assert summary.shape == (report.channels,)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(SWEEP_CASES),
    st.integers(-2, 40) | st.sampled_from([257, 1000, _BLOCK + 300]),
    st.integers(0, 12),
    st.sampled_from([None] + REFERENCES),
)
def test_error_bound_returns_a_float_or_raises_its_own_error(case, samples, bits, reference):
    mode, curve = case
    cfg = SamplerConfig(subtexel_bits=bits)
    ref = None if reference is None else hostile_reference(mode, curve, cfg, reference)
    try:
        bound = error_bound_estimate(curve, cfg, reference=ref, mode=mode, samples=samples)
    except TexCurveError:
        return
    assert type(bound) is float


# -- the encoders and the basis conversions -----------------------------------

#: finite values at the edges of float64, signed zeros and a subnormal
_EXTREMES = st.sampled_from([0.0, -0.0, 1.0, 1e308, -1e308, 1.7976931348623157e308,
                             -1.7976931348623157e308, 1e-320, -1e-320])
_ELEMENTS = st.integers(0, 9).flatmap(
    lambda i: st.floats(-2.0, 2.0) if i < 5 else _EXTREMES if i < 9
    else st.sampled_from([np.nan, np.inf, -np.inf]))


@st.composite
def hostile_arrays(draw, rows):
    """`rows` (a strategy) rows of 0-5 channels of hostile values, one draw
    in five without the channel axis or with an extra axis."""
    shape = (draw(rows), draw(st.integers(0, 5)))
    kind = draw(st.integers(0, 9))
    if kind == 0:
        shape = shape[:1]
    elif kind == 1:
        shape += (2,)
    size = int(np.prod(shape))
    return np.array(draw(st.lists(_ELEMENTS, min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


def _polygon(data, points):
    """A `ControlPolygon` of hostile values, mostly with `points` points."""
    return ControlPolygon(data.draw(hostile_arrays(_mostly(st.just(points), st.integers(0, 7)))))


def _encode_zigzag(data, fmt, rescale):
    """Up to 4 segments cut from one hostile array, so they join unless a
    segment has fewer than 3 points, with the default, the searched or a
    drawn seed."""
    count = data.draw(st.integers(1, 4))
    points = data.draw(hostile_arrays(_mostly(st.just(2 * count + 1), st.integers(0, 9))))
    segments = [ControlPolygon(points[2 * k : 2 * k + 3]) for k in range(count)]
    seed = data.draw(st.sampled_from([None, "search", "seed"]))
    if seed == "seed":
        seed = data.draw(hostile_arrays(st.integers(0, 2)))
    return encode_dc_zigzag(segments, fmt, seed, rescale=rescale)


def _encode_patch(data, fmt, rescale):
    """A 2 x 2 net of 0-5 channels, or an array of another shape."""
    net = data.draw(hostile_arrays(_mostly(st.just(4), st.integers(0, 5))))
    if net.shape[0] == 4 and data.draw(st.booleans()):
        net = net.reshape((2, 2) + net.shape[1:])
    return encode_bilinear_patch(net, fmt, rescale=rescale)


#: name -> fn(data, fmt, rescale) that draws the inputs of one call and makes it
_ENCODER_CALLS = {
    "encode_dc_quadratic": lambda data, fmt, rescale: encode_dc_quadratic(
        _polygon(data, 3), fmt, rescale=rescale),
    "encode_dc_cubic": lambda data, fmt, rescale: encode_dc_cubic(
        _polygon(data, 4), fmt, rescale=rescale),
    "encode_dc_zigzag": _encode_zigzag,
    "encode_seiler": lambda data, fmt, rescale: encode_seiler(
        _polygon(data, data.draw(st.integers(3, 6))), fmt, rescale=rescale),
    "encode_bilinear_patch": _encode_patch,
    "encode_bicubic_rgba": lambda data, fmt, rescale: encode_bicubic_rgba(
        data.draw(hostile_arrays(_mostly(st.just(4), st.integers(0, 5)))), fmt, rescale=rescale),
    "encode_rational": lambda data, fmt, rescale: encode_rational(
        _polygon(data, data.draw(st.integers(3, 4))),
        data.draw(hostile_arrays(st.integers(0, 5))).reshape(-1)[: data.draw(st.integers(0, 5))],
        fmt, scheme=data.draw(_mostly(st.sampled_from(["seiler", "dc"]), st.just("x"))),
        rescale=rescale),
    "elevate_degree": lambda data, fmt, rescale: elevate_degree(
        _polygon(data, 3), data.draw(st.integers(-1, 8))),
    "power_to_bernstein": lambda data, fmt, rescale: power_to_bernstein(
        data.draw(hostile_arrays(st.integers(0, 10)))),
    "bernstein_to_power": lambda data, fmt, rescale: bernstein_to_power(
        _polygon(data, data.draw(st.integers(2, 10)))),
}


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(sorted(_ENCODER_CALLS)), st.sampled_from(TexelFormat), st.booleans(),
       st.data())
def test_encoders_and_conversions_succeed_or_raise_their_own_error(name, fmt, rescale, data):
    try:
        _ENCODER_CALLS[name](data, fmt, rescale)
    except TexCurveError:
        pass


# -- the reference evaluators on polygons at the edges of float64 -------------

#: just below and well above the largest polygon magnitude that the
#: references evaluate without a check (`reference._SAFE_MAGNITUDE`, 2^1000)
_NEAR_SAFE = st.sampled_from([2.0**999, -(2.0**999), 1e307, -1e307])

#: name -> fn(poly, t); `seiler_terms` ignores t
_REFERENCE_CALLS = {
    "eval_bernstein": eval_bernstein,
    "eval_decasteljau": eval_decasteljau,
    "eval_seiler": eval_seiler,
    "seiler_terms": lambda poly, t: seiler_terms(poly),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_REFERENCE_CALLS)), st.integers(3, 6), st.integers(1, 4),
       st.data())
def test_references_on_extreme_polygons_match_scalar_calls_or_raise_their_own_error(
        name, points, channels, data):
    """Polygons of ordinary values mixed with either +-1e308, +-max float,
    subnormals and signed zeros, or values near the unchecked limit: a
    reference evaluator returns finite points that per-element scalar calls
    return too, or raises a TexCurveError, and `seiler_terms` returns its
    terms, finite or not, without a warning."""
    edge = data.draw(st.sampled_from([_EXTREMES, _NEAR_SAFE]))
    values = data.draw(st.lists(edge | st.floats(-2.0, 2.0),
                                min_size=points * channels, max_size=points * channels))
    poly = ControlPolygon(np.reshape(values, (points, channels)))
    fn = _REFERENCE_CALLS[name]
    t = data.draw(parameters(1.0))
    try:
        got = fn(poly, t)
    except TexCurveError:
        return
    if name == "seiler_terms":
        assert len(got.diffs) == points - 2
        return
    each = [fn(poly, x) for x in np.ravel(t)]
    assert got.shape == np.shape(t) + (channels,) and got.dtype == np.float64
    assert np.isfinite(got).all()
    assert got.tobytes() == b"".join(x.tobytes() for x in each)
