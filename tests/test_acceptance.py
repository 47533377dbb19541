"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Corpora are seeded, so every value here is reproducible.
"""

import time
from contextlib import contextmanager

import numpy as np

import texcurve as tc
from texcurve.analysis import sweep, error_bound_estimate
from texcurve.cli import main as cli_main
from texcurve.container import curve_to_bytes
from conftest import IDEAL, BITS8, random_c0_quadratics, random_polygon

F32 = tc.TexelFormat.FLOAT32


@contextmanager
def criterion(number, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS ({time.perf_counter() - start:.2f}s)")


def test_criterion_1_evaluator_triad_equivalence():
    rng = np.random.default_rng(101)
    with criterion(1, "evaluator triad equivalence"):
        start = time.perf_counter()
        for degree in (2, 3, 4, 5):
            channels = int(rng.integers(1, 5))
            for _ in range(10_000):
                poly = tc.ControlPolygon(rng.uniform(-1.0, 1.0, (degree + 1, channels)))
                ts = rng.uniform(0.0, 1.0, 2)
                a = tc.eval_bernstein(poly, ts)
                b = tc.eval_decasteljau(poly, ts)
                c = tc.eval_seiler(poly, ts)
                scale = np.maximum(1.0, np.abs(a))
                assert np.max(np.abs(a - b) / scale) <= 1e-12
                assert np.max(np.abs(a - c) / scale) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed <= 10.0, f"triad check took {elapsed:.1f}s, budget is 10s"


def _layout_instances(rng, index):
    """One random instance per layout family, with its reference callable."""
    out = []

    poly2 = random_polygon(rng, 2, 2)
    out.append(("dc 2x2", tc.encode_dc_quadratic(poly2, F32), "dc",
                lambda t, p=poly2: tc.eval_bernstein(p, t)))

    poly3 = random_polygon(rng, 3, 2)
    out.append(("dc 2x2x2", tc.encode_dc_cubic(poly3, F32), "dc",
                lambda t, p=poly3: tc.eval_bernstein(p, t)))

    n = (index % 8) + 1
    segs = random_c0_quadratics(rng, n, 2)

    out.append((f"zigzag N={n}", tc.encode_dc_zigzag(segs, F32), "zigzag",
                lambda gt, segs=segs: tc.eval_bezier_chain(segs, gt)))

    sd = 2 + index % 4
    spoly = random_polygon(rng, sd, 2)
    out.append((f"seiler deg {sd}", tc.encode_seiler(spoly, F32), "seiler",
                lambda t, p=spoly: tc.eval_bernstein(p, t)))

    net = rng.uniform(-1.0, 1.0, (2, 2, 2))
    out.append(("bilinear patch", tc.encode_bilinear_patch(net, F32), "patch",
                lambda t, g=net: tc.eval_tensor_surface(g, t, t)))

    net4 = rng.uniform(-1.0, 1.0, (4, 4))
    out.append(("bicubic rgba", tc.encode_bicubic_rgba(net4, F32), "bicubic",
                lambda t, g=net4: tc.eval_tensor_surface(g, t, t)))

    rd = 2 + index % 2
    rpoly = random_polygon(rng, rd, 2)
    weights = rng.uniform(0.5, 2.0, rd + 1)
    out.append((f"rational deg {rd}", tc.encode_rational(rpoly, weights, F32), "rational",
                lambda t, p=rpoly, w=weights: tc.eval_rational(p, w, t)))
    return out


def test_criterion_2_ideal_sampler_layout_equivalence():
    rng = np.random.default_rng(202)
    with criterion(2, "ideal-sampler layout equivalence"):
        start = time.perf_counter()
        worst = {}
        for index in range(100):
            for name, enc, mode, ref in _layout_instances(rng, index):
                report = sweep(enc, ref, mode, IDEAL, 1024)
                dev = float(np.max(report.max_dev))
                family = name.split(" ")[0]
                worst[family] = max(worst.get(family, 0.0), dev)
                assert dev <= 1e-6, f"{name}: ideal-sampler deviation {dev}"
        elapsed = time.perf_counter() - start
        assert elapsed <= 30.0, f"layout sweep took {elapsed:.1f}s, budget is 30s"
        print("  worst ideal deviations:", {k: f"{v:.2e}" for k, v in sorted(worst.items())})


def test_criterion_3_storage_claims():
    rng = np.random.default_rng(303)
    with criterion(3, "storage claims"):
        poly = random_polygon(rng, 3, 2)
        seiler = tc.encode_seiler(poly, F32)
        dc = tc.encode_dc_cubic(poly, F32)
        assert seiler.grid.texel_count == 4
        assert seiler.grid.dims == (2, 2, 1)
        assert dc.grid.texel_count == 8
        assert dc.grid.dims == (2, 2, 2)
        for n in range(1, 9):
            enc = tc.encode_dc_zigzag(random_c0_quadratics(rng, n, 1), F32)
            assert enc.grid.texel_count == 2 * (n + 1)


def test_criterion_4_zigzag_constraint_audit():
    rng = np.random.default_rng(404)
    with criterion(4, "zig-zag constraint audit and join continuity"):
        for trial in range(100):
            n = (trial % 8) + 1
            segs = random_c0_quadratics(rng, n, 2)
            for fmt in (F32, tc.TexelFormat.UNORM8):
                enc = tc.encode_dc_zigzag(segs, fmt, rescale=fmt.is_unorm)
                res = tc.zigzag_residuals(enc, segs)
                # one quantization step at the magnitude the grid stores
                step = fmt.quant_step(float(np.max(np.abs(enc.grid.data))))
                assert np.max(res) <= step + 1e-15, f"audit residual {np.max(res)} > step {step}"
            # joins: integer parameters return the shared control point
            # exactly under the ideal sampler
            enc = tc.encode_dc_zigzag(segs, F32)
            for k in range(1, n):
                val = tc.eval_dc_zigzag(enc, float(k), IDEAL)
                expect = np.float32(segs[k].points[0]).astype(float)
                assert np.array_equal(val, expect)


def test_criterion_5_quantization_dominance():
    rng = np.random.default_rng(505)
    with criterion(5, "quantization error dominance"):
        for _ in range(100):
            poly = random_polygon(rng, 3)
            ref = lambda t, p=poly: tc.eval_bernstein(p, t)

            dc = tc.encode_dc_cubic(poly, F32)
            dc_report = sweep(dc, ref, "dc", BITS8, 1024)
            dc_bound = error_bound_estimate(dc, BITS8, reference=ref, samples=1024)
            assert float(np.max(dc_report.max_dev)) <= dc_bound

            se = tc.encode_seiler(poly, F32)
            se_report = sweep(se, ref, "seiler", BITS8, 1024)
            se_bound = error_bound_estimate(se, BITS8, reference=ref, samples=1024)
            assert float(np.max(se_report.max_dev)) <= se_bound

            hybrid_report = sweep(dc, ref, "dc-hybrid", BITS8, 1024)
            assert float(np.max(hybrid_report.max_dev)) <= float(np.max(dc_report.max_dev))


def test_criterion_6_monotone_precision():
    rng = np.random.default_rng(606)
    with criterion(6, "monotone precision in subtexel bits"):
        corpus = [random_polygon(rng, 3) for _ in range(20)]
        encs = [tc.encode_dc_cubic(p, F32) for p in corpus]
        prev = None
        series = []
        for bits in (4, 6, 8, 10, 12):
            cfg = tc.SamplerConfig(subtexel_bits=bits)
            worst = max(
                float(np.max(sweep(e, (lambda t, p=p: tc.eval_bernstein(p, t)), "dc", cfg, 1024).max_dev))
                for e, p in zip(encs, corpus)
            )
            series.append((bits, worst))
            if prev is not None:
                assert worst <= prev, f"error rose between bit depths: {series}"
            prev = worst


def test_criterion_7_conversions():
    rng = np.random.default_rng(707)
    with criterion(7, "conversion fidelity"):
        # piecewise conversion vs de Boor on clamped cubic splines
        for _ in range(50):
            interior = rng.integers(0, 5)
            inner = np.sort(rng.uniform(0.0, 1.0, interior))
            knots = np.concatenate([[0, 0, 0, 0], inner, [1, 1, 1, 1]])
            pts = rng.uniform(-1.0, 1.0, (4 + interior, 2))
            spline = tc.BSplineCurve(pts, knots, 3)
            segments = tc.boehm_to_bezier(spline)
            ts = np.linspace(0.0, 1.0, 1000)
            dev = np.abs(tc.eval_bezier_segments(segments, ts) - tc.eval_deboor(spline, ts))
            assert np.max(dev) <= 1e-10

        # power <-> Bernstein round trip up to degree 8
        for degree in range(1, 9):
            coeffs = rng.uniform(-2.0, 2.0, (degree + 1, 3))
            back = tc.bernstein_to_power(tc.power_to_bernstein(coeffs))
            assert np.max(np.abs(back - coeffs)) <= 1e-12

        # rational circle arc through both evaluation paths
        arc = tc.ControlPolygon([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        w = np.array([1.0, np.sqrt(0.5), 1.0])
        ts = np.linspace(0.0, 1.0, 1000)
        pts = tc.eval_rational(arc, w, ts)
        assert np.max(np.abs(pts[:, 0] ** 2 + pts[:, 1] ** 2 - 1.0)) <= 1e-12
        enc = tc.encode_rational(arc, w, F32)
        tex = tc.eval_rational_tex(enc, ts, IDEAL)
        assert np.max(np.abs(tex[:, 0] ** 2 + tex[:, 1] ** 2 - 1.0)) <= 1e-6


def test_criterion_8_container_fidelity(tmp_path, capsys):
    rng = np.random.default_rng(808)
    with criterion(8, "container fidelity and CLI reproducibility"):
        cases = []
        for fmt in tc.TexelFormat:
            lo, hi = (0.0, 1.0) if fmt.is_unorm else (-1.0, 1.0)
            cases.append(tc.encode_dc_quadratic(random_polygon(rng, 2, 3, lo, hi), fmt))
            cases.append(tc.encode_dc_cubic(random_polygon(rng, 3, 1, lo, hi), fmt))
            cases.append(tc.encode_seiler(random_polygon(rng, 4, 2, lo, hi), fmt,
                                          rescale=fmt.is_unorm))
            cases.append(tc.encode_dc_zigzag(random_c0_quadratics(rng, 3, 2, 0.3, 0.7), fmt,
                                             rescale=fmt.is_unorm))
        for i, curve in enumerate(cases):
            path = tmp_path / f"case{i}.ctex"
            tc.write_ctex(curve, path)
            back = tc.read_ctex(path)
            assert np.array_equal(back.grid.data, curve.grid.data)
            assert np.array_equal(back.transform.scale, curve.transform.scale)
            assert np.array_equal(back.transform.offset, curve.transform.offset)
            assert curve_to_bytes(back) == curve_to_bytes(curve)

        # CLI outputs are byte-reproducible
        src = tmp_path / "hump.curve"
        src.write_text("degree 3\nchannels 1\n0\n1\n1\n0\n")
        out_a, out_b = str(tmp_path / "a.ctex"), str(tmp_path / "b.ctex")
        assert cli_main(["encode", "--layout", "seiler", "--in", str(src), "--out", out_a]) == 0
        assert cli_main(["encode", "--layout", "seiler", "--in", str(src), "--out", out_b]) == 0
        capsys.readouterr()
        assert (tmp_path / "a.ctex").read_bytes() == (tmp_path / "b.ctex").read_bytes()

        assert cli_main(["sweep", "--layout", "dc", "--in", str(src), "--bits", "8",
                         "--samples", "128"]) == 0
        csv_a = capsys.readouterr().out
        assert cli_main(["sweep", "--layout", "dc", "--in", str(src), "--bits", "8",
                         "--samples", "128"]) == 0
        csv_b = capsys.readouterr().out
        assert csv_a == csv_b and csv_a.startswith("t,")
