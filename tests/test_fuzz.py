"""Hostile input for the two parsers and the command line: a CTEX1 blob or
a curve file either parses or raises a TexCurveError, and a command line
either succeeds or exits with a documented code; never another exception
(pytest turns a RuntimeWarning into one)."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from texcurve import Layout, TexCurveError, TexelFormat
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
