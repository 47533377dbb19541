import contextlib
import hashlib
import io
import os
import subprocess
import sys

import numpy as np
import pytest

from texcurve import ControlPolygon, TexelFormat, analysis, cli, curvefile, encoder, reference
from texcurve.core import SamplerConfig, TexCurveError
from texcurve.cli import _describe, _fmt_vec, main
from texcurve.container import curve_to_bytes
from conftest import check_writer

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


def test_cli_module_entry_point_prints_help():
    """`python -m texcurve.cli` runs `cli.py`'s own `__main__` call, beside
    the package's `python -m texcurve`."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    done = subprocess.run([sys.executable, "-m", "texcurve.cli", "eval", "--help"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: texcurve eval") and done.stderr == ""


class TestRefusals:
    """Each refusal of `main` that only the CLI fuzz test could draw: its
    exit code, one `error: ...` line on stderr and nothing on stdout."""

    @staticmethod
    def refused(capsys, code, message, *argv):
        assert run(capsys, *argv) == (code, "", f"error: {message}\n")

    def test_dc_sweep_of_a_degree_4_curve_exits_3(self, tmp_path, capsys):
        path = tmp_path / "d4.curve"
        path.write_text("degree 4\nchannels 1\n0\n1\n0\n1\n0\n")
        self.refused(capsys, 3, "dc layout holds degree 2 or 3; use zigzag for chains",
                     "sweep", "--layout", "dc", "--in", str(path))

    def test_patch_eval_without_a_parameter_exits_5(self, tmp_path, capsys):
        path, ctex = tmp_path / "patch.curve", str(tmp_path / "patch.ctex")
        path.write_text("degree 1\nchannels 1\n0\n0.5\n0.25\n1\n")
        assert main(["encode", "--layout", "patch", "--in", str(path), "--out", ctex]) == 0
        capsys.readouterr()
        self.refused(capsys, 5, "surface evaluation needs --u and --v (or --t for the diagonal)",
                     "eval", "--in", ctex)

    def test_curve_eval_without_t_exits_5(self, hump, tmp_path, capsys):
        ctex = str(tmp_path / "c.ctex")
        assert main(["encode", "--layout", "seiler", "--in", hump, "--out", ctex]) == 0
        capsys.readouterr()
        self.refused(capsys, 5, "--t is required for curve evaluation", "eval", "--in", ctex)

    def test_bspline_conversion_without_out_exits_5(self, tmp_path, capsys):
        path = tmp_path / "spline.curve"
        path.write_text(TWO_SPAN_SPLINE)
        self.refused(capsys, 5, "--out prefix is required for bspline conversion",
                     "convert", "--bspline-to-bezier", "--in", str(path))

    def test_rational_sweep_without_weights_exits_5(self, hump, capsys):
        self.refused(capsys, 5, "rational encoding needs a weights line",
                     "sweep", "--layout", "rational", "--in", hump)

    def test_curve_file_without_points_exits_5(self, tmp_path, capsys):
        path = tmp_path / "empty.curve"
        path.write_text("degree 3\nchannels 1\n# no points\n")
        self.refused(capsys, 5, "curve file has no control points",
                     "sweep", "--layout", "dc", "--in", str(path))

    @pytest.mark.parametrize("degree, knots, code, message", [
        (0, "0 1 2 3 4", 3, "spline degree must be >= 1"),
        (3, "0 0 0 0 1 1 1", 5, "knot count must equal control count + degree + 1"),
        (3, "0 0 0 0 2 1 1 1", 5, "knots must be non-decreasing"),
    ], ids=("degree-0", "knot-count", "decreasing"))
    def test_bad_spline_conversion_exits_with_its_error(self, tmp_path, capsys, degree, knots,
                                                        code, message):
        path = tmp_path / "spline.curve"
        path.write_text(f"degree {degree}\nchannels 1\nknots {knots}\n0\n0.4\n0.9\n0.3\n")
        self.refused(capsys, code, message, "convert", "--bspline-to-bezier", "--in", str(path),
                     "--out", str(tmp_path / "seg"))
        assert list(tmp_path.iterdir()) == [path]

    def test_power_conversion_of_degree_9_exits_3(self, tmp_path, capsys):
        path = tmp_path / "d9.curve"
        path.write_text("degree 9\nchannels 1\n" + "0.5\n" * 10)
        self.refused(capsys, 3, "basis conversion is supported up to degree 8",
                     "convert", "--bernstein-to-power", "--in", str(path))

    @pytest.mark.parametrize("command", (["encode", "--out", "x.ctex"], ["sweep"],
                                         ["render", "--out", "x.ppm"]), ids=lambda c: c[0])
    def test_unknown_layout_is_refused_by_the_parser(self, hump, capsys, command):
        # argparse's `choices` refuses it before any layout is encoded; the
        # quoting of the listed choices varies between Python versions
        code, stdout, err = run(capsys, *command, "--layout", "bogus", "--in", hump)
        assert (code, stdout) == (5, "")
        head = "error: argument --layout: invalid choice: 'bogus' (choose from "
        assert err.startswith(head) and err.endswith(")\n") and err.count("\n") == 1
        listed = err[len(head):-2].replace("'", "").split(", ")
        assert listed == ["dc", "seiler", "zigzag", "patch", "bicubic", "rational"]


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
    def test_refused_points_leave_the_curve_file_as_it_was(self, tmp_path):
        # the text is built before the file is opened
        path = tmp_path / "c.curve"
        path.write_bytes(b"kept")
        with pytest.raises(ValueError):
            curvefile.write_curve_file(path, 2, [[0.0, 1.0], [1.0], [0.0, 1.0]])
        assert path.read_bytes() == b"kept"

    def test_curve_text_reads_1d_points_as_one_channel(self):
        points = [0.0, -0.0, 0.1, 1e300]
        text = curvefile.curve_text(3, points, knots=[0, 1], weights=[1, 2, 3, 4])
        assert text == curvefile.curve_text(3, np.array(points)[:, None], knots=[0, 1],
                                            weights=[1, 2, 3, 4])
        assert text.startswith("degree 3\nchannels 1\nknots 0.0 1.0\nweights 1.0 2.0 3.0 4.0\n"
                               "0.0\n-0.0\n0.1\n1e+300\n")

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


#: CLI jobs that write files: the argv ahead of `--in` and `--out`, the
#: curve file each reads, and the suffix of `--out` that names the first
#: file each writes
WRITING_JOBS = {
    "encode --sidecar": (["encode", "--layout", "dc", "--sidecar"], CUBIC_HUMP, ""),
    "sweep --out": (["sweep", "--layout", "dc", "--samples", "64"], CUBIC_HUMP, ""),
    "render": (["render", "--layout", "dc", "--width", "16", "--height", "8"], CUBIC_HUMP, ""),
    "convert": (["convert", "--bspline-to-bezier"], TWO_SPAN_SPLINE, "-0.curve"),
}


def run_writing_job(tmp_path, capsys, job, out):
    argv, text, _ = WRITING_JOBS[job]
    infile = tmp_path / "in.curve"
    infile.write_text(text)
    return run(capsys, *argv, "--in", str(infile), "--out", str(out))


class TestWrites:
    @pytest.mark.parametrize("job", sorted(WRITING_JOBS))
    def test_overwrite_the_old_bytes_and_cut_to_length(self, tmp_path, capsys, monkeypatch,
                                                       job):
        def write(folder):
            assert run_writing_job(tmp_path, capsys, job, folder / "out")[0] == 0

        check_writer(write, tmp_path, monkeypatch)

    @pytest.mark.parametrize("argv", [["encode", "--layout", "dc"], ["sweep", "--layout", "dc"],
                                      ["render", "--layout", "dc"],
                                      ["convert", "--bernstein-to-power"]], ids=" ".join)
    def test_dev_null_as_out_exits_0(self, hump, capsys, argv):
        assert run(capsys, *argv, "--in", hump, "--out", os.devnull)[0] == 0

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_dev_stdout_as_out_writes_to_a_pipe(self, hump, capsys):
        # a pipe reports size 0 and cannot seek
        argv = ["sweep", "--layout", "dc", "--in", hump, "--samples", "64"]
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        done = subprocess.run([sys.executable, "-m", "texcurve", *argv, "--out", "/dev/stdout"],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout.decode() == run(capsys, *argv)[1]

    @pytest.mark.parametrize("job", sorted(WRITING_JOBS))
    @pytest.mark.parametrize("fault, reason", [
        ("missing parent", "[Errno 2] No such file or directory"),
        ("directory", "[Errno 21] Is a directory")])
    def test_an_unwritable_path_exits_1(self, tmp_path, capsys, job, fault, reason):
        out = tmp_path / "missing" / "out" if fault == "missing parent" else tmp_path / "out"
        first = f"{out}{WRITING_JOBS[job][2]}"
        if fault == "directory":
            os.mkdir(first)
        assert run_writing_job(tmp_path, capsys, job, out) == (1, "", f"error: {reason}: {first!r}\n")


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


#: (curve file, exit code, stderr) of zig-zag chains that the curve file
#: reader accepts and the chain's control points refuse
BAD_CHAINS = {
    "nan-point": ("degree 2\nchannels 1\n0\nnan\n0.5\n0.25\n0\n", 5,
                  "error: control points must be finite\n"),
    "five-channels": ("degree 2\nchannels 5\n" + "0 0 0 0 0\n0.5 1 0 1 0\n1 1 1 1 1\n", 1,
                      "error: points must have 1..4 channels, got 5\n"),
    "even-count": ("degree 2\nchannels 1\n0\n1\n0\n0.5\n", 5,
                   "error: zig-zag chains need an odd point count >= 3 (shared joins)\n"),
    "degree-3": ("degree 3\nchannels 1\n0\n1\n0\n0.5\n0\n", 3,
                 "error: zig-zag packing needs degree-2 segments\n"),
}


@pytest.mark.parametrize("chain", sorted(BAD_CHAINS))
@pytest.mark.parametrize("command", (["encode"], ["sweep"], ["render", "--width", "8"]),
                         ids=("encode", "sweep", "render"))
def test_bad_zigzag_chain_exits_with_its_error(tmp_path, capsys, command, chain):
    """Each bad chain exits with its error's code and message, before any
    output is written."""
    text, code, message = BAD_CHAINS[chain]
    path = tmp_path / "zz.curve"
    path.write_text(text)
    got = run(capsys, *command, "--layout", "zigzag", "--in", str(path),
              "--out", str(tmp_path / "out"))
    assert got == (code, "", message)
    assert list(tmp_path.iterdir()) == [path]


# -- frozen output bytes

FROZEN_INPUTS = {
    "zz.curve": "degree 2\nchannels 2\n0 0\n0.25 0.9\n0.5 0.1\n0.625 0.75\n0.7 0.3\n"
                "0.8 0.95\n0.85 0.05\n0.9 0.6\n1 0.4\n",
    "hump.curve": CUBIC_HUMP,
    "plane.curve": "degree 3\nchannels 2\n0.1 0.9\n0.35 0.2\n0.6 0.8\n0.95 0.3\n",
    "spline.curve": "degree 3\nchannels 2\nknots 0 0 0 0 0.2 0.45 0.5 0.8 1 1 1 1\n"
                    "0 0.5\n0.1 0.9\n0.3 0.2\n0.45 0.7\n0.6 0.1\n0.7 0.8\n0.85 0.3\n1 0.6\n",
}

# (name, exit code, argv), run in order from the directory holding FROZEN_INPUTS
FROZEN_JOBS = (
    ("encode", 0, ["encode", "--layout", "zigzag", "--format", "unorm16", "--rescale",
                   "--seed-texel", "search", "--sidecar", "--in", "zz.curve", "--out", "zz.ctex"]),
    ("inspect", 0, ["inspect", "--in", "zz.ctex"]),
    ("eval", 0, ["eval", "--in", "zz.ctex", "--t", "1.3", "--bits", "4",
                 "--subtexel-rounding", "floor"]),
    ("eval-join", 0, ["eval", "--in", "zz.ctex", "--t", "2.0", "--bits", "0"]),
    ("sweep-seiler", 0, ["sweep", "--layout", "seiler", "--format", "unorm8", "--rescale",
                         "--samples", "33", "--in", "hump.curve", "--out", "seiler.csv"]),
    ("sweep-zigzag", 0, ["sweep", "--layout", "zigzag", "--format", "f32", "--samples", "33",
                         "--in", "zz.curve", "--out", "zz.csv", "--bits", "12",
                         "--subtexel-rounding", "floor"]),
    ("sweep-hybrid", 0, ["sweep", "--layout", "dc", "--mode", "dc-hybrid", "--samples", "37",
                         "--in", "plane.curve", "--bits", "4"]),
    ("sweep-default-mode", 0, ["sweep", "--layout", "dc", "--samples", "37", "--in", "plane.curve",
                               "--bits", "4"]),
    ("render", 0, ["render", "--layout", "dc", "--format", "f32", "--width", "24", "--height", "6",
                   "--in", "plane.curve", "--out", "dev.ppm", "--bits", "4"]),
    ("render-zigzag", 0, ["render", "--layout", "zigzag", "--width", "16", "--height", "4",
                          "--in", "zz.curve", "--out", "zz.ppm"]),
    ("convert", 0, ["convert", "--bspline-to-bezier", "--in", "spline.curve", "--out", "seg"]),
    ("reject", 2, ["sweep", "--layout", "seiler", "--format", "unorm8", "--samples", "33",
                   "--in", "hump.curve", "--out", "reject.csv"]),
    ("usage", 5, ["sweep", "--layout", "bogus", "--in", "hump.curve"]),
    ("help", 0, ["--help"]),
)

# sha256 of each job's exit code, stdout and stderr, and of each file written
FROZEN_SHA256 = {
    "encode": "37d2f1c95f121686ec343578f790b7ec50634cf792370b0733382d71c6366c04",
    "inspect": "37d2f1c95f121686ec343578f790b7ec50634cf792370b0733382d71c6366c04",
    "eval": "7bf36ec6d08cadabe9af21ff7213bbeaff48e364df8281f368f1e7bcbc7e4fcc",
    "eval-join": "5c7061d0d5515c2e4c1f31e93b993c5f7698f83294856bedd435c9f1cdcec5d0",
    "sweep-seiler": "b0efbbc43054beee753cd10fab49ea0fe2fabdba420e72d0ba74fe2a0222dbf9",
    "sweep-zigzag": "b0efbbc43054beee753cd10fab49ea0fe2fabdba420e72d0ba74fe2a0222dbf9",
    "sweep-hybrid": "e7d768a4fa05881a5281307112187639c63cee3c22477ff5d7ac66fe40557b77",
    "sweep-default-mode": "effaadd3a4321b919a7cd28f2c6d45bb072eb15193b2049198e95bac6cc89b8c",
    "render": "b0efbbc43054beee753cd10fab49ea0fe2fabdba420e72d0ba74fe2a0222dbf9",
    "render-zigzag": "b0efbbc43054beee753cd10fab49ea0fe2fabdba420e72d0ba74fe2a0222dbf9",
    "convert": "41af57c91af7a493e3b9c995982826db00ede5270265b814522275a60dd6fbc8",
    "reject": "e3a20e5e8e6042a9c688201ab3efe277267e5c1ba4280d5bb4c1633794cbbb32",
    "usage": "8618b0ca0febba9cabb393c36e1b017f15641b03f325d126494043d0b8961bb8",
    "help": "28d9d054361033fcaa12ec40268245e65aa34447598add3e8937d410d4551d0d",
    "dev.ppm": "3e90a29e01e6171d731a26d096d5182d859163ed23779f5147adf3e225dc7752",
    "seg-0.curve": "69d685774807d45c90d2b60e0c48c3f63bc747776270b70e8d2f968da19793f6",
    "seg-1.curve": "2df683b5e581a4e449395b0e7c1a6bd96a420c50cc4a2c24cb50974b1c36e4f6",
    "seg-2.curve": "a0a185089612dba83427f4652944380bf8b0d00496f016d7f81e7eb4a68bd9d1",
    "seg-3.curve": "843422e1db2ef8f665990c33b05cb2142bccd24b059debfa1e17a1e800259cea",
    "seg-4.curve": "87679d2a650c1511a87e1a67e2a5de686ae766273d1099f417622d607f149d3f",
    "seiler.csv": "6d654802ff93756b71957fd1162710a53dc2c4972fc45f20fa1dea910faba1bc",
    "zz.csv": "4d8d70eba10b2f8593fcea969ef2a5c390537b4bec21576cc3a0a536f3bc7f1e",
    "zz.ctex": "6ec7224c8172dc24b2572271455f7f2f6141cf6c7e0604f1f7ee40dba5043b2f",
    "zz.ctex.meta": "6efa11bdbd673b3b132441927ca9dbba6e8fc9c6a4861446d8fcab0d088a540a",
    "zz.ppm": "0a4477fb16fbf5c18289bd9f6e390f52a7d1882b18aee36c2326e81cd1614dd0",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_frozen_jobs(work, monkeypatch):
    """One pass of FROZEN_JOBS in the fresh directory `work`: the exit code
    of each job and the sha256 of each job's streams and of each file
    written."""
    work.mkdir()
    for name, text in FROZEN_INPUTS.items():
        (work / name).write_text(text)
    monkeypatch.chdir(work)
    codes, digests = {}, {}
    for name, _, argv in FROZEN_JOBS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # --help
                code = exc.code
        codes[name] = code
        digests[name] = _sha256(b"\0".join([str(code).encode(), out.getvalue().encode(),
                                            err.getvalue().encode()]))
    for path in sorted(work.iterdir()):
        if path.name not in FROZEN_INPUTS:
            digests[path.name] = _sha256(path.read_bytes())
    return codes, digests


def test_cli_output_bytes_are_frozen(tmp_path, monkeypatch):
    """Every byte the CLI writes for a fixed sequence of jobs: the job kinds
    of a `cli-reports` benchmark round on small inputs, a `--mode` that the
    next job of the same command leaves at its default, a usage error and
    `--help` (argparse's text at 80 columns). Two passes in one process
    must agree, so nothing a job sets carries over to the next."""
    monkeypatch.setenv("COLUMNS", "80")
    codes, digests = first = run_frozen_jobs(tmp_path / "first", monkeypatch)
    assert codes == {name: code for name, code, _ in FROZEN_JOBS}
    assert digests == FROZEN_SHA256
    assert run_frozen_jobs(tmp_path / "second", monkeypatch) == first


# -- set-up paid once

def test_main_builds_the_parser_once(hump, capsys, monkeypatch):
    """The first `main` call builds the parser (the top level and one
    subparser per command); later calls, failing ones included, reuse it."""
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    cli.build_parser.cache_clear()
    for argv in (["convert", "--power-to-bernstein", "--in", hump], ["eval", "--t", "0.5"],
                 ["convert", "--bernstein-to-power", "--in", hump]) * 2:
        main(argv)
    capsys.readouterr()
    assert built == ["texcurve"] + [f"texcurve {command}" for command in
                                    ("encode", "eval", "sweep", "render", "convert", "inspect")]


def test_import_builds_no_parser():
    """Importing the CLI builds no parser: that cost is paid by the first
    `main` call, not by every importer."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import texcurve.cli as cli\n"
            "assert cli.build_parser.cache_info().currsize == 0\n")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.parametrize("command", (["sweep", "--samples", "9"],
                                     ["render", "--width", "8", "--height", "4"]))
def test_zigzag_job_builds_its_segments_once(tmp_path, capsys, monkeypatch, command):
    """One zig-zag `sweep` or `render` builds the chain's segments once and
    hands them to both the encoder and the reference."""
    path = tmp_path / "zz.curve"
    path.write_text(ZIGZAG_CHAIN)
    calls = []
    build = cli._zigzag_segments

    def counted(spec):
        calls.append(spec)
        return build(spec)

    monkeypatch.setattr(cli, "_zigzag_segments", counted)
    code, _, err = run(capsys, *command, "--layout", "zigzag", "--in", str(path),
                       "--out", str(tmp_path / "out"))
    assert (code, err) == (0, "")
    assert len(calls) == 1


# -- each layout's comparison against the library

def _polynomial(encode):
    """A polynomial layout's encoder on a ControlPolygon, and its
    documented reference, `eval_bernstein`."""
    def build(points, weights, fmt, rescale):
        poly = ControlPolygon(points)
        return encode(poly, fmt, rescale=rescale), lambda t: reference.eval_bernstein(poly, t)
    return build


def _rational(scheme):
    def build(points, weights, fmt, rescale):
        poly = ControlPolygon(points)
        curve = encoder.encode_rational(poly, weights, fmt, scheme=scheme, rescale=rescale)
        return curve, lambda t: reference.eval_rational(poly, weights, t)
    return build


def _zigzag(points, weights, fmt, rescale):
    segments = [ControlPolygon(points[2 * k : 2 * k + 3]) for k in range(len(points) // 2)]
    curve = encoder.encode_dc_zigzag(segments, fmt, rescale=rescale)
    return curve, lambda gt: reference.eval_bezier_chain(segments, gt)


def _net(shape, encode):
    def build(points, weights, fmt, rescale):
        net = points.reshape(shape)
        return encode(net, fmt, rescale=rescale), lambda t: reference.eval_tensor_surface(net, t, t)
    return build


def _encode_dc(poly, fmt, rescale):
    encode = encoder.encode_dc_quadratic if poly.degree == 2 else encoder.encode_dc_cubic
    return encode(poly, fmt, rescale=rescale)


_DC = _polynomial(_encode_dc)

#: name -> (--layout and --scheme flags, (--mode flag or None for the
#: layout's default, the mode the library runs), degree, point count,
#: channels, whether the file has weights, the library's encoder and reference)
LAYOUT_CASES = {
    "dc-2": (["--layout", "dc"], (None, "dc"), 2, 3, 2, False, _DC),
    "dc-3": (["--layout", "dc"], (None, "dc"), 3, 4, 2, False, _DC),
    "dc-2-hybrid": (["--layout", "dc"], ("dc-hybrid", "dc-hybrid"), 2, 3, 1, False, _DC),
    "dc-3-hybrid": (["--layout", "dc"], ("dc-hybrid", "dc-hybrid"), 3, 4, 3, False, _DC),
    "seiler-2": (["--layout", "seiler"], (None, "seiler"), 2, 3, 1, False,
                 _polynomial(encoder.encode_seiler)),
    "seiler-3": (["--layout", "seiler"], (None, "seiler"), 3, 4, 2, False,
                 _polynomial(encoder.encode_seiler)),
    "seiler-4": (["--layout", "seiler"], (None, "seiler"), 4, 5, 3, False,
                 _polynomial(encoder.encode_seiler)),
    "seiler-5": (["--layout", "seiler"], (None, "seiler"), 5, 6, 1, False,
                 _polynomial(encoder.encode_seiler)),
    "zigzag": (["--layout", "zigzag"], (None, "zigzag"), 2, 7, 2, False, _zigzag),
    "patch-1": (["--layout", "patch"], (None, "patch"), 1, 4, 1, False,
                _net((2, 2, 1), encoder.encode_bilinear_patch)),
    "patch-2": (["--layout", "patch"], (None, "patch"), 1, 4, 2, False,
                _net((2, 2, 2), encoder.encode_bilinear_patch)),
    "bicubic": (["--layout", "bicubic"], (None, "bicubic"), 3, 16, 1, False,
                _net((4, 4), encoder.encode_bicubic_rgba)),
    "rational-seiler-2": (["--layout", "rational", "--scheme", "seiler"], (None, "rational"),
                          2, 3, 2, True, _rational("seiler")),
    "rational-seiler-3": (["--layout", "rational", "--scheme", "seiler"], (None, "rational"),
                          3, 4, 1, True, _rational("seiler")),
    "rational-dc-2": (["--layout", "rational", "--scheme", "dc"], (None, "rational"),
                      2, 3, 1, True, _rational("dc")),
    "rational-dc-3": (["--layout", "rational", "--scheme", "dc"], (None, "rational"),
                      3, 4, 2, True, _rational("dc")),
}

#: name -> (--format and --rescale flags, format, rescale, sampler flags, sampler config)
FORMAT_CASES = {
    "f32": (["--format", "f32"], TexelFormat.FLOAT32, False, ["--bits", "8"],
            SamplerConfig(subtexel_bits=8)),
    "unorm8-rescale": (["--format", "unorm8", "--rescale"], TexelFormat.UNORM8, True,
                       ["--bits", "5", "--subtexel-rounding", "floor"],
                       SamplerConfig(subtexel_bits=5, subtexel_rounding="floor")),
}


def _layout_case(tmp_path, name):
    """The curve file of case `name` (seeded by its name), written under
    tmp_path, with its points and weights."""
    _, _, degree, count, channels, rational, _ = LAYOUT_CASES[name]
    rng = np.random.default_rng([25, sorted(LAYOUT_CASES).index(name)])
    points = rng.uniform(-0.5, 1.5, (count, channels))
    # weights whose seiler and dc texels stay in [0, 1], which unorm formats need
    weights = rng.uniform(0.7, 0.8, count) if rational else None
    path = tmp_path / f"{name}.curve"
    curvefile.write_curve_file(path, degree, points, weights=weights)
    return str(path), points, weights


def _library_output(name, fmt_case, points, weights, write):
    """(exit code, stderr) of the comparison that case `name` asks for,
    built straight from the library: `write(curve, reference, mode, cfg)`
    writes its output, and a TexCurveError gives its exit code and message."""
    _, fmt, rescale, _, cfg = FORMAT_CASES[fmt_case]
    *_, build = LAYOUT_CASES[name]
    try:
        curve, ref = build(points, weights, fmt, rescale)
        write(curve, ref, LAYOUT_CASES[name][1][1], cfg)
    except TexCurveError as exc:
        return cli._exit_code(exc), f"error: {exc}\n"
    return 0, ""


def _cli_output(capsys, command, name, fmt_case, path, out):
    """(exit code, stderr) of the CLI `command` on case `name`'s curve file
    at `path`, writing `out`; it prints nothing on stdout."""
    flags, (mode, _), *_ = LAYOUT_CASES[name]
    fmt_flags, _, _, sampler_flags, _ = FORMAT_CASES[fmt_case]
    argv = [*command, *flags, *fmt_flags, *sampler_flags, "--in", path, "--out", out]
    if mode is not None:
        argv += ["--mode", mode]
    code, stdout, err = run(capsys, *argv)
    assert stdout == ""
    return code, err


@pytest.mark.parametrize("fmt_case", sorted(FORMAT_CASES))
@pytest.mark.parametrize("name", sorted(LAYOUT_CASES))
def test_sweep_of_each_layout_matches_the_library(tmp_path, capsys, name, fmt_case):
    """`texcurve sweep` writes the bytes of `report_to_csv(sweep(...))`
    built from the layout's encoder and its documented reference, or exits
    with the error the library raises, writing nothing."""
    path, points, weights = _layout_case(tmp_path, name)
    samples = 41
    expected = []

    def write(curve, ref, mode, cfg):
        report = analysis.sweep(curve, ref, mode, cfg, samples, curve_id=path)
        expected.append(analysis.report_to_csv(report).encode())

    code_err = _library_output(name, fmt_case, points, weights, write)
    out = tmp_path / "cli.csv"
    assert _cli_output(capsys, ["sweep", "--samples", str(samples)], name, fmt_case, path,
                       str(out)) == code_err
    if expected:
        assert out.read_bytes() == expected[0]
    else:
        assert not out.exists()


@pytest.mark.parametrize("fmt_case", sorted(FORMAT_CASES))
@pytest.mark.parametrize("name", ["seiler-2", "dc-3"])
def test_render_of_a_curve_matches_the_library(tmp_path, capsys, name, fmt_case):
    """`texcurve render` of a 1-channel and a 2-channel curve writes the
    PPM bytes of `render_deviation_image` built from the library."""
    path, points, weights = _layout_case(tmp_path, name)
    size = (24, 8)
    lib = tmp_path / "lib.ppm"

    def write(curve, ref, mode, cfg):
        analysis.write_ppm(analysis.render_deviation_image(curve, ref, mode, cfg, *size), lib)

    assert _library_output(name, fmt_case, points, weights, write) == (0, "")
    out = tmp_path / "cli.ppm"
    assert _cli_output(capsys, ["render", "--width", str(size[0]), "--height", str(size[1])],
                       name, fmt_case, path, str(out)) == (0, "")
    assert out.read_bytes() == lib.read_bytes()
