import io
import os
import subprocess
import sys

import numpy as np
import pytest

from texcurve import ControlPolygon, TexelFormat, analysis, encoder
from texcurve.cli import _describe, _fmt_vec, main
from texcurve.container import curve_to_bytes

CUBIC_HUMP = """\
# scalar cubic with a 0.75 hump
degree 3
channels 1
0
1
1
0
"""

LINE_AS_POWER = """\
degree 3
channels 1
0
1
0
0
"""

ZIGZAG_CHAIN = """\
degree 2
channels 1
0
1
0
0.5
0
"""

TWO_SPAN_SPLINE = """\
degree 3
channels 1
knots 0 0 0 0 1 2 2 2 2
0
0.4
0.9
0.3
0.1
"""

RATIONAL_ARC = """\
degree 2
channels 2
weights 1 0.7071067811865476 1
1 0
1 1
0 1
"""


@pytest.fixture
def hump(tmp_path):
    path = tmp_path / "hump.curve"
    path.write_text(CUBIC_HUMP)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEncode:
    def test_encode_seiler_writes_container(self, hump, tmp_path, capsys):
        out = str(tmp_path / "c.ctex")
        code, stdout, _ = run(capsys, "encode", "--layout", "seiler", "--in", hump,
                              "--format", "f32", "--out", out)
        assert code == 0
        assert "layout seiler_2d degree 3" in stdout
        assert "grid 2x2x1" in stdout
        assert (tmp_path / "c.ctex").exists()

    def test_degree_six_seiler_exits_3(self, tmp_path, capsys):
        path = tmp_path / "d6.curve"
        path.write_text("degree 6\nchannels 1\n0\n1\n0\n1\n0\n1\n0\n")
        code, _, err = run(capsys, "encode", "--layout", "seiler", "--in", str(path),
                           "--out", str(tmp_path / "x.ctex"))
        assert code == 3
        assert "degree" in err

    def test_unorm8_seiler_out_of_range_exits_2(self, hump, tmp_path, capsys):
        # the cubic hump's difference-term texels reach 3.0
        code, _, err = run(capsys, "encode", "--layout", "seiler", "--in", hump,
                           "--format", "unorm8", "--out", str(tmp_path / "x.ctex"))
        assert code == 2
        assert "rescale" in err

    def test_rescale_succeeds(self, hump, tmp_path, capsys):
        code, stdout, _ = run(capsys, "encode", "--layout", "seiler", "--in", hump,
                              "--format", "unorm8", "--rescale",
                              "--out", str(tmp_path / "x.ctex"))
        assert code == 0

    def test_sidecar(self, hump, tmp_path, capsys):
        out = str(tmp_path / "c.ctex")
        code, _, _ = run(capsys, "encode", "--layout", "dc", "--in", hump,
                         "--out", out, "--sidecar")
        assert code == 0
        meta = (tmp_path / "c.ctex.meta").read_text()
        assert "layout: dc_cubic_2x2x2" in meta

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code, _, err = run(capsys, "encode", "--layout", "dc", "--in",
                           str(tmp_path / "nope.curve"), "--out", str(tmp_path / "x.ctex"))
        assert code == 1


@pytest.mark.parametrize("argv, flag, what", [
    (["sweep", "--layout", "dc", "--in", "x.curve", "--samples", "abc"], "--samples", "an integer"),
    (["sweep", "--layout", "dc", "--in", "x.curve", "--bits", "8.5"], "--bits", "an integer"),
    (["eval", "--in", "x.ctex", "--t", "abc"], "--t", "a number"),
    (["eval", "--in", "x.ctex", "--u", "0.5x"], "--u", "a number"),
    (["eval", "--in", "x.ctex", "--v", ""], "--v", "a number"),
    (["eval", "--in", "x.ctex", "--bits", "eight"], "--bits", "an integer"),
    (["render", "--layout", "dc", "--in", "x.curve", "--out", "x.ppm", "--width", "1e3"],
     "--width", "an integer"),
    (["render", "--layout", "dc", "--in", "x.curve", "--out", "x.ppm", "--height", "tall"],
     "--height", "an integer"),
    (["render", "--layout", "dc", "--in", "x.curve", "--out", "x.ppm", "--samples", "many"],
     "--samples", "an integer"),
])
def test_non_number_flag_is_a_domain_error(capsys, argv, flag, what):
    code, stdout, err = run(capsys, *argv)
    assert code == 5
    assert stdout == ""
    assert err == f"error: {flag} takes {what}, got {argv[-1]!r}\n"


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--layout", "bogus", "--in", "x.curve"], "argument --layout: invalid choice: 'bogus'"),
    (["eval", "--in", "x.ctex", "--nosuch", "1"], "unrecognized arguments: --nosuch 1"),
    (["eval", "--nosuch", "1"], "the following arguments are required: --in"),
    ([], "the following arguments are required: command"),
    (["sweep", "--layout", "dc"], "the following arguments are required: --in"),
    (["convert", "--in", "x.curve"], "one of the arguments --power-to-bernstein"),
    (["eval", "--in", "x.ctex", "--mode", "bogus"], "argument --mode: invalid choice: 'bogus'"),
])
def test_usage_error_is_a_domain_error(capsys, argv, message):
    # exit 2 is RangeError's code, so argparse's own usage errors exit 5
    code, stdout, err = run(capsys, *argv)
    assert code == 5
    assert stdout == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["encode", "eval", "sweep", "render", "convert", "inspect"])
def test_help_exits_0(command):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    done = subprocess.run([sys.executable, "-m", "texcurve", command, "--help"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stdout.startswith(f"usage: texcurve {command}") and done.stderr == ""


# a cubic whose middle point overflows float32
HUGE_CUBIC = "degree 3\nchannels 1\n0\n1e300\n1\n0\n"


@pytest.mark.parametrize("argv, out", [
    (["encode", "--layout", "dc", "--sidecar"], "x.ctex"),
    (["encode", "--layout", "seiler"], "x.ctex"),
    (["sweep", "--layout", "dc"], "x.csv"),
    (["render", "--layout", "dc", "--width", "8", "--height", "8"], "x.ppm"),
])
def test_float32_overflow_exits_2_and_writes_nothing(tmp_path, capsys, argv, out):
    path = tmp_path / "huge.curve"
    path.write_text(HUGE_CUBIC)
    code, stdout, err = run(capsys, *argv, "--format", "f32", "--in", str(path),
                            "--out", str(tmp_path / out))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and "float32 stores as inf" in err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command", (["inspect"], ["eval", "--t", "0.5"]), ids=("inspect", "eval"))
def test_non_finite_float32_texel_exits_2(tmp_path, capsys, command):
    path = tmp_path / "x.ctex"
    curve = encoder.encode_dc_quadratic(ControlPolygon([0.0, 1.0, 0.0]), TexelFormat.FLOAT32)
    path.write_bytes(curve_to_bytes(curve)[:-4] + b"\xb8\x40\xba\x7f")  # a signalling NaN
    code, stdout, err = run(capsys, *command, "--in", str(path))
    assert code == 2
    assert stdout == ""
    assert err == "error: float32 grid values must be finite\n"


def test_rescaled_huge_sweep_reports_a_finite_rms(tmp_path, capsys):
    # squaring the deviations overflows, their root mean square does not
    path = tmp_path / "huge.curve"
    path.write_text(HUGE_CUBIC)
    code, stdout, err = run(capsys, "sweep", "--layout", "dc", "--format", "f32", "--rescale",
                            "--samples", "4", "--in", str(path))
    assert (code, err) == (0, "")
    lines = stdout.splitlines()
    absdev = np.array([float(line.rsplit(",", 1)[1]) for line in lines[1:5]])
    summary = dict(line.split(",") for line in lines[5:])
    peak = float(summary["#max"])
    assert peak == absdev.max() > 1e296
    assert float(summary["#rms"]) == peak * np.sqrt(np.mean((absdev / peak) ** 2))


class TestEval:
    def test_seiler_hump_prints_value(self, hump, tmp_path, capsys):
        ctex = str(tmp_path / "c.ctex")
        run(capsys, "encode", "--layout", "seiler", "--in", hump, "--out", ctex)
        code, stdout, _ = run(capsys, "eval", "--in", ctex, "--t", "0.5", "--bits", "0")
        assert code == 0
        assert stdout.strip() == "0.75"

    def test_mode_layout_mismatch_exits_4(self, hump, tmp_path, capsys):
        ctex = str(tmp_path / "c.ctex")
        run(capsys, "encode", "--layout", "seiler", "--in", hump, "--out", ctex)
        for mode in ("dc", "patch", "bicubic"):
            code, _, err = run(capsys, "eval", "--in", ctex, "--t", "0.5", "--mode", mode)
            assert code == 4
            assert err == f"error: mode {mode!r} cannot evaluate layout seiler_2d\n"

    def test_domain_error_exits_5(self, hump, tmp_path, capsys):
        ctex = str(tmp_path / "c.ctex")
        run(capsys, "encode", "--layout", "seiler", "--in", hump, "--out", ctex)
        code, _, _ = run(capsys, "eval", "--in", ctex, "--t", "1.5")
        assert code == 5

    def test_zigzag_eval(self, tmp_path, capsys):
        path = tmp_path / "zz.curve"
        path.write_text(ZIGZAG_CHAIN)
        ctex = str(tmp_path / "zz.ctex")
        code, _, _ = run(capsys, "encode", "--layout", "zigzag", "--in", str(path),
                         "--out", ctex, "--seed-texel", "1")
        assert code == 0
        code, stdout, _ = run(capsys, "eval", "--in", ctex, "--t", "1.5", "--bits", "0")
        assert code == 0
        assert float(stdout.strip()) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("seed, code, message", [
        ("abc", 5, "--seed-texel takes comma-separated numbers"),
        ("0.5,x", 5, "--seed-texel takes comma-separated numbers"),
        ("nan", 5, "seed texel must be finite"),
        ("inf", 5, "seed texel must be finite"),
        ("1,2", 1, "seed texel has 2 values for 1-channel segments"),
    ])
    def test_bad_seed_texel_rejected(self, tmp_path, capsys, seed, code, message):
        path = tmp_path / "zz.curve"
        path.write_text(ZIGZAG_CHAIN)
        ctex = tmp_path / "zz.ctex"
        got, _, stderr = run(capsys, "encode", "--layout", "zigzag", "--in", str(path),
                             "--out", str(ctex), "--seed-texel", seed)
        assert got == code
        assert stderr.startswith(f"error: {message}")
        assert not ctex.exists()


class TestSweepRender:
    def test_sweep_bits_ordering(self, hump, tmp_path, capsys):
        csv0 = str(tmp_path / "b0.csv")
        csv8 = str(tmp_path / "b8.csv")
        for bits, out in ((0, csv0), (8, csv8)):
            code, _, _ = run(capsys, "sweep", "--layout", "dc", "--in", hump,
                             "--bits", str(bits), "--samples", "256", "--out", out)
            assert code == 0

        def max_line(path):
            with open(path) as fh:
                for line in fh:
                    if line.startswith("#max,"):
                        return float(line.strip().split(",")[1])

        assert max_line(csv8) >= max_line(csv0)

    def test_sweep_stdout_and_reproducible(self, hump, capsys):
        code, out1, _ = run(capsys, "sweep", "--layout", "seiler", "--in", hump,
                            "--bits", "8", "--samples", "64")
        code2, out2, _ = run(capsys, "sweep", "--layout", "seiler", "--in", hump,
                             "--bits", "8", "--samples", "64")
        assert code == code2 == 0
        assert out1 == out2
        assert out1.startswith("t,ref_0,test_0,absdev_0\n")

    def test_render_writes_ppm(self, hump, tmp_path, capsys):
        out = str(tmp_path / "dev.ppm")
        code, _, _ = run(capsys, "render", "--layout", "dc", "--in", hump,
                         "--bits", "8", "--width", "64", "--height", "32", "--out", out)
        assert code == 0
        assert (tmp_path / "dev.ppm").read_bytes().startswith(b"P6\n64 32\n255\n")

    def test_rational_sweep(self, tmp_path, capsys):
        path = tmp_path / "arc.curve"
        path.write_text(RATIONAL_ARC)
        code, out, _ = run(capsys, "sweep", "--layout", "rational", "--in", str(path),
                           "--bits", "0", "--samples", "128")
        assert code == 0
        maxline = [l for l in out.splitlines() if l.startswith("#max,")][0]
        assert all(float(v) <= 1e-6 for v in maxline.split(",")[1:])


#: CLI layout -> (a curve file valid for it, the layout value it encodes
#: to, the modes that evaluate that layout)
MODE_MATRIX = {
    "dc": (CUBIC_HUMP, "dc_cubic_2x2x2", ("dc", "dc-hybrid")),
    "seiler": (CUBIC_HUMP, "seiler_2d", ("seiler",)),
    "zigzag": (ZIGZAG_CHAIN, "dc_zigzag", ("zigzag",)),
    "patch": ("degree 1\nchannels 1\n0\n0.5\n0.25\n1\n", "bilinear_patch", ("patch",)),
    "bicubic": ("degree 3\nchannels 1\n" + "".join(f"{i / 15}\n" for i in range(16)),
                "bicubic_rgba", ("bicubic",)),
    "rational": (RATIONAL_ARC, "rational_homogeneous", ("rational",)),
}


@pytest.mark.parametrize("command", ["sweep", "render"])
@pytest.mark.parametrize("layout", list(MODE_MATRIX))
def test_sweep_and_render_mode_mismatch_exits_4(tmp_path, capsys, layout, command):
    text, value, accepted = MODE_MATRIX[layout]
    path = tmp_path / "c.curve"
    path.write_text(text)
    ppm = tmp_path / "dev.ppm"
    for mode in (None,) + tuple(analysis._MODES):
        argv = [command, "--layout", layout, "--in", str(path), "--samples", "16"]
        if command == "render":
            argv += ["--width", "8", "--height", "8", "--out", str(ppm)]
        if mode is not None:
            argv += ["--mode", mode]
        code, out, err = run(capsys, *argv)
        if mode is None or mode in accepted:
            assert (code, err) == (0, ""), argv
            assert ppm.exists() if command == "render" else out.startswith("t,ref_0,"), argv
        else:
            assert (code, out) == (4, ""), argv
            assert err == f"error: mode {mode!r} cannot evaluate layout {value}\n"
            assert not ppm.exists(), argv
        ppm.unlink(missing_ok=True)


class TestConvert:
    def test_power_to_bernstein(self, tmp_path, capsys):
        path = tmp_path / "p.curve"
        path.write_text(LINE_AS_POWER)
        code, out, _ = run(capsys, "convert", "--power-to-bernstein", "--in", str(path))
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith(("degree", "channels"))]
        vals = [float(r) for r in rows]
        assert vals == pytest.approx([0.0, 1 / 3, 2 / 3, 1.0], abs=1e-15)

    def test_round_trip_through_power(self, hump, tmp_path, capsys):
        power = str(tmp_path / "power.curve")
        back = str(tmp_path / "back.curve")
        run(capsys, "convert", "--bernstein-to-power", "--in", hump, "--out", power)
        run(capsys, "convert", "--power-to-bernstein", "--in", power, "--out", back)
        from texcurve.curvefile import read_curve_file

        spec = read_curve_file(back)
        assert np.allclose(spec.points[:, 0], [0.0, 1.0, 1.0, 0.0], atol=1e-12)

    def test_bspline_to_bezier_segments(self, tmp_path, capsys):
        path = tmp_path / "spline.curve"
        path.write_text(TWO_SPAN_SPLINE)
        prefix = str(tmp_path / "seg")
        code, out, _ = run(capsys, "convert", "--bspline-to-bezier", "--in", str(path),
                           "--out", prefix)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert (tmp_path / "seg-0.curve").exists()
        assert (tmp_path / "seg-1.curve").exists()

    def test_non_finite_knots_exit_5(self, tmp_path, capsys):
        path = tmp_path / "spline.curve"
        knots = "knots 0 0 0 0 inf inf inf inf"
        path.write_text(CUBIC_HUMP.replace("channels 1", f"channels 1\n{knots}"))
        code, out, err = run(capsys, "convert", "--bspline-to-bezier", "--in", str(path),
                             "--out", str(tmp_path / "seg"))
        assert (code, out) == (5, "")
        assert err == "error: spline knots and control points must be finite\n"
        assert not (tmp_path / "seg-0.curve").exists()


class TestInspect:
    def test_inspect_lists_texels(self, hump, tmp_path, capsys):
        ctex = str(tmp_path / "c.ctex")
        run(capsys, "encode", "--layout", "seiler", "--in", hump, "--out", ctex)
        code, out, _ = run(capsys, "inspect", "--in", ctex)
        assert code == 0
        assert "texel 0 0 0: 0.0" in out
        assert "texel 0 1 0: 3.0" in out

    def test_encode_inspect_byte_stable(self, hump, tmp_path, capsys):
        a, b = str(tmp_path / "a.ctex"), str(tmp_path / "b.ctex")
        run(capsys, "encode", "--layout", "dc", "--in", hump, "--out", a)
        run(capsys, "encode", "--layout", "dc", "--in", hump, "--out", b)
        assert (tmp_path / "a.ctex").read_bytes() == (tmp_path / "b.ctex").read_bytes()


def describe_oracle(curve, out):
    """The nested-loop texel listing, kept as the oracle of the one-pass form."""
    grid = curve.grid
    print(f"layout {curve.layout.value} degree {curve.degree} segments {curve.segment_count}",
          file=out)
    print(f"grid {grid.width}x{grid.height}x{grid.depth} channels {grid.channels} "
          f"format {grid.fmt.value}", file=out)
    if curve.inner_layout is not None:
        print(f"inner layout {curve.inner_layout.value}", file=out)
    print(f"transform scale {_fmt_vec(curve.transform.scale)} "
          f"offset {_fmt_vec(curve.transform.offset)}", file=out)
    for z in range(grid.depth):
        for y in range(grid.height):
            for x in range(grid.width):
                print(f"texel {x} {y} {z}: {_fmt_vec(grid.texel(x, y, z))}", file=out)


def _described_curves():
    rng = np.random.default_rng(11)
    quad = ControlPolygon(rng.uniform(-1.0, 1.0, (3, 2)))
    pts = rng.uniform(0.0, 1.0, (2 * 5 + 1, 3))
    chain = [ControlPolygon(pts[2 * k:2 * k + 3]) for k in range(5)]
    cubic = ControlPolygon(rng.uniform(-2.0, 2.0, (4, 1)))
    return [
        encoder.encode_dc_quadratic(quad, TexelFormat.FLOAT32),
        encoder.encode_dc_cubic(cubic, TexelFormat.UNORM8, rescale=True),
        encoder.encode_seiler(cubic, TexelFormat.FLOAT32),
        encoder.encode_seiler(ControlPolygon(rng.uniform(0.0, 1.0, (6, 2))),
                              TexelFormat.UNORM16, rescale=True),
        encoder.encode_dc_zigzag(chain, TexelFormat.UNORM16, "search", rescale=True),
        encoder.encode_rational(ControlPolygon([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                                [1.0, 0.5 ** 0.5, 1.0], TexelFormat.FLOAT32, scheme="dc"),
        encoder.encode_bicubic_rgba(rng.uniform(-0.0, 1.0, (4, 4)), TexelFormat.FLOAT32),
        encoder.encode_bilinear_patch([[[0.0, -0.0], [1.0, 0.5]], [[5e-324, 1e16], [1e-5, 1.0]]],
                                      TexelFormat.FLOAT32),
    ]


@pytest.mark.parametrize("index", range(8))
def test_describe_matches_nested_loops(index):
    curve = _described_curves()[index]
    got, want = io.StringIO(), io.StringIO()
    _describe(curve, got)
    describe_oracle(curve, want)
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("argv, out", [
    (["sweep"], "x.csv"),
    (["sweep"], None),
    (["render", "--width", "8", "--height", "8"], "x.ppm"),
])
def test_oversized_request_exits_5_and_writes_nothing(hump, tmp_path, capsys, monkeypatch,
                                                      argv, out):
    # an allocation that fails the way a huge --samples does, without making one
    def refuse(*args):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(analysis, "_domain_lattice", refuse)
    before = sorted(tmp_path.iterdir())
    args = [*argv, "--layout", "dc", "--in", hump, "--samples", "100000000000"]
    if out:
        args += ["--out", str(tmp_path / out)]
    code, stdout, err = run(capsys, *args)
    assert code == 5
    assert stdout == ""
    assert err == "error: out of memory: Unable to allocate 745. GiB for an array\n"
    assert sorted(tmp_path.iterdir()) == before


def test_binary_curve_file_exits_5(hump, tmp_path, capsys):
    ctex = str(tmp_path / "c.ctex")
    run(capsys, "encode", "--layout", "dc", "--in", hump, "--out", ctex)
    code, stdout, err = run(capsys, "sweep", "--layout", "dc", "--in", ctex)
    assert (code, stdout) == (5, "")
    assert err.startswith(f"error: curve file {ctex} is not text (")
