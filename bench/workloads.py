"""The three benchmark workloads: inputs, timed ops and output checks.

Every input comes from the workload seed. An op's structure (mode, format,
channel count, sampler bits and rounding) follows a fixed round that is
the same for every seed, so the mix of cheap and expensive ops does not
depend on the seed; the seed only draws the curve values. Library code is
always reached through module attributes (``encoder.encode_seiler``), so
the traced run's wrappers see the same calls the untraced run makes.

An op is ``prepare`` (untimed: build inputs), ``execute`` (timed) and
``check`` (untimed: raise CheckError on a wrong output, return the bytes
that go into the run's golden digest). ``samples_of`` is the number of
texture-path samples an op evaluates; every op carries exactly one curve.

Two known library defects make some random curves fail (bench/README.md,
"Known defects"). A drawn curve that hits one of them, with exactly its
signature, is drawn again, and the redraw is counted in the workload's
``redrawn``, which every run prints. Any other failure stays a failed op.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from texcurve import analysis, cli, container, curvefile, encoder, reference, texeval
from texcurve.core import ControlPolygon, RangeError, SamplerConfig, TexCurveError, TexelFormat, lerp


class CheckError(Exception):
    """An op produced a wrong output."""


class BoundViolation(CheckError):
    """A sweep deviated by more than error_bound_estimate allows.

    The outputs themselves are right; the library's bound is not one for
    this curve, so the op counts as failed without making the run wrong.
    """


def require(cond, what: str):
    if not cond:
        raise CheckError(what)


KINDS = ("dc-quad", "dc-cubic", "dc-hybrid", "seiler-2d", "seiler-3d", "zigzag",
         "rational-seiler", "rational-dc")
MODE_OF = {"dc-quad": "dc", "dc-cubic": "dc", "dc-hybrid": "dc-hybrid", "seiler-2d": "seiler",
           "seiler-3d": "seiler", "zigzag": "zigzag", "rational-seiler": "rational",
           "rational-dc": "rational"}
EVALUATOR = {"dc": "eval_dc", "dc-hybrid": "eval_dc_cubic_hybrid", "seiler": "eval_seiler_tex",
             "zigzag": "eval_dc_zigzag", "rational": "eval_rational_tex"}
FORMATS = (TexelFormat.UNORM8, TexelFormat.UNORM16, TexelFormat.FLOAT32)
BITS = (0, 4, 6, 8, 10, 12)
ROUNDING = ("nearest", "floor")
#: lcm of the kind (8), format x channel (9) and bits x rounding (12) cycles
CASES_PER_ROUND = 72


@dataclass(frozen=True)
class Case:
    """One curve of the sweep-large or corpus-small schedule."""

    kind: str
    fmt: TexelFormat
    cfg: SamplerConfig
    points: np.ndarray  # (degree + 1, c), or (2N + 1, c) for a zig-zag chain
    weights: Optional[np.ndarray] = None

    @property
    def mode(self) -> str:
        return MODE_OF[self.kind]

    @property
    def segments(self) -> int:
        return (self.points.shape[0] - 1) // 2 if self.kind == "zigzag" else 1

    @property
    def domain_end(self) -> float:
        return float(self.segments) if self.kind == "zigzag" else 1.0


def _weights_ok(w: np.ndarray, kind: str, fmt: TexelFormat) -> bool:
    """Whether the unrescaled weight channel's texels fit a unorm format."""
    if not fmt.is_unorm:
        return True
    if kind == "rational-dc":
        return True  # the dc packing stores the weights themselves
    terms = reference.seiler_terms(ControlPolygon(w))
    if len(w) == 3:
        d1 = terms.diff(1)
        texels = [w[0], w[2], w[0] + d1, w[2] + d1]
    else:
        texels = [w[0], w[3], float(terms.s1[0]), float(terms.s2[0])]
    return all(0.0 <= float(np.ravel(v)[0]) <= 1.0 for v in texels)


def make_case(rng: np.random.Generator, i: int, zigzag_segments: tuple) -> Case:
    """Case i of the fixed schedule, with values drawn from `rng`.

    Zig-zag cases take their segment count from `zigzag_segments` in turn.
    """
    kind = KINDS[i % 8]
    fmt = FORMATS[i % 3]
    channels = 1 + (i // 3) % 3
    cfg = SamplerConfig(subtexel_bits=BITS[i % 6], subtexel_rounding=ROUNDING[(i // 6) % 2])
    alt = (i // 8) % 2
    if kind == "zigzag":
        n = zigzag_segments[(i // 8) % len(zigzag_segments)]
        return Case(kind, fmt, cfg, rng.uniform(0.0, 1.0, (2 * n + 1, channels)))
    degree = {"dc-quad": 2, "dc-cubic": 3, "dc-hybrid": 3, "seiler-2d": 2 + alt,
              "seiler-3d": 4 + alt}.get(kind, 2 + alt)
    points = rng.uniform(0.0, 1.0, (degree + 1, channels))
    if not kind.startswith("rational"):
        return Case(kind, fmt, cfg, points)
    while True:
        w = rng.uniform(0.5, 1.0, degree + 1)
        if _weights_ok(w, kind, fmt):
            return Case(kind, fmt, cfg, points, w)


#: draws of one case before a curve that hits a known defect is kept anyway
MAX_DRAWS = 20
_RANGE_VALUE = re.compile(r"has value ([-+0-9.eE]+),")


def known_defect(case: Case, exc: Exception) -> Optional[str]:
    """The name of the known defect that `exc` shows for `case`, or None.

    "rescale-range": ``encode_rational(..., rescale=True)`` on a unorm format
    rejects a texel that the rescale put one rounding step outside [0, 1].
    "hybrid-bound": a ``dc-hybrid`` sweep exceeds ``error_bound_estimate``.
    """
    if isinstance(exc, RangeError) and case.kind.startswith("rational") and case.fmt.is_unorm:
        m = _RANGE_VALUE.search(str(exc))
        step = 4 * np.finfo(float).eps
        if m and (1.0 < float(m.group(1)) <= 1.0 + step or -step <= float(m.group(1)) < 0.0):
            return "rescale-range"
    if isinstance(exc, BoundViolation) and case.kind == "dc-hybrid":
        return "hybrid-bound"
    return None


def draw_case(rng, i: int, zigzag_segments: tuple, redrawn: Counter, attempt):
    """Case i and ``attempt(case)``, drawing again while the attempt raises
    a known defect. Returns (case, result or the exception raised)."""
    for draw in range(MAX_DRAWS):
        case = make_case(rng, i, zigzag_segments)
        try:
            return case, attempt(case)
        except (TexCurveError, BoundViolation) as exc:
            defect = known_defect(case, exc)
            if defect is None or draw == MAX_DRAWS - 1:
                return case, exc
            redrawn[defect] += 1


def check_bound(case: Case, report, bound: float):
    if not float(report.max_dev.max()) <= bound:
        raise BoundViolation(f"{case.kind} {case.fmt.value} {case.cfg}: max_dev "
                             f"{float(report.max_dev.max())!r} exceeds the bound {bound!r}")


def encode(case: Case):
    rescale = case.fmt.is_unorm
    if case.kind == "zigzag":
        pts = case.points
        segments = [ControlPolygon(pts[2 * k : 2 * k + 3]) for k in range(case.segments)]
        return encoder.encode_dc_zigzag(segments, case.fmt, rescale=rescale)
    poly = ControlPolygon(case.points)
    if case.kind == "dc-quad":
        return encoder.encode_dc_quadratic(poly, case.fmt, rescale=rescale)
    if case.kind in ("dc-cubic", "dc-hybrid"):
        return encoder.encode_dc_cubic(poly, case.fmt, rescale=rescale)
    if case.kind.startswith("seiler"):
        return encoder.encode_seiler(poly, case.fmt, rescale=rescale)
    scheme = "seiler" if case.kind == "rational-seiler" else "dc"
    return encoder.encode_rational(poly, case.weights, case.fmt, scheme=scheme, rescale=rescale)


def make_reference(case: Case):
    """Full-precision reference callable over the case's sweep domain."""
    if case.kind == "zigzag":
        pts = case.points
        n = case.segments

        def zigzag_reference(gt):
            gt = np.asarray(gt, dtype=float)
            k = np.minimum(np.floor(gt), n - 1).astype(np.int64)
            t = (gt - k)[..., None]
            s = 1.0 - t
            return s * s * pts[2 * k] + 2.0 * s * t * pts[2 * k + 1] + t * t * pts[2 * k + 2]

        return zigzag_reference
    poly = ControlPolygon(case.points)
    if case.weights is not None:
        return lambda t: reference.eval_rational(poly, case.weights, t)
    return lambda t: reference.eval_bernstein(poly, t)


def independent_reference(case: Case, t: np.ndarray) -> np.ndarray:
    """De Casteljau evaluation, used to check the swept reference values."""
    if case.kind == "zigzag":
        k = np.minimum(np.floor(t), case.segments - 1).astype(np.int64)
        u = (t - k)[:, None]
        p0, p1, p2 = (case.points[2 * k + j] for j in range(3))
        return lerp(lerp(p0, p1, u), lerp(p1, p2, u), u)
    if case.weights is not None:
        w = case.weights
        hom = ControlPolygon(np.concatenate([case.points * w[:, None], w[:, None]], axis=1))
        val = reference.eval_decasteljau(hom, t)
        return val[..., :-1] / val[..., -1:]
    return reference.eval_decasteljau(ControlPolygon(case.points), t)


#: at most this many lattice points per sweep are evaluated again in the check
RECHECK_POINTS = 2048


def _check_report(case: Case, report, samples: int, spots: np.ndarray, curve):
    """Invariants every sweep report must satisfy.

    The texture path is elementwise IEEE arithmetic, so evaluating any
    subset of the lattice again must reproduce the sweep bit for bit: a
    strided sub-lattice (every lattice point for small sweeps) through the
    vector path, and the `spots` one at a time through the scalar path.
    The reference column is compared with de Casteljau evaluation.
    """
    ts = np.linspace(0.0, case.domain_end, samples)
    c = case.points.shape[1]
    require(report.test.shape == (samples, c), "sweep output shape")
    require(np.array_equal(report.t, ts), "sweep lattice")
    require(np.all(np.isfinite(report.test)), "non-finite texture value")
    require(np.array_equal(report.absdev, np.abs(report.test - report.reference)), "absdev")
    evaluate = getattr(texeval, EVALUATOR[case.mode])
    stride = max(1, samples // RECHECK_POINTS)
    sub = slice(int(spots[0]) % stride, None, stride)
    require(np.array_equal(evaluate(curve, ts[sub], case.cfg), report.test[sub]),
            "vector re-evaluation disagrees with the sweep")
    for j in spots:
        scalar = evaluate(curve, float(ts[j]), case.cfg)
        require(np.array_equal(scalar, report.test[j]), "scalar path disagrees with the sweep")
    ref = independent_reference(case, ts[spots])
    require(np.allclose(report.reference[spots], ref, rtol=1e-12, atol=1e-12), "reference values")


def perturb(report):
    """A report whose texture values are all off by 1e-9 (for self-tests)."""
    return analysis.ErrorReport(report.curve_id, report.reference_name, report.mode, report.cfg,
                                report.t, report.reference, report.test + 1e-9)


def _curve_bytes(curve) -> bytes:
    blob = container.curve_to_bytes(curve)
    require(container.curve_to_bytes(container.curve_from_bytes(blob)) == blob,
            "CTEX1 bytes do not re-read to the same bytes")
    return blob


class SweepLarge:
    """One 2^17-sample sweep of a pre-encoded curve per op."""

    name = "sweep-large"
    ops_per_round = CASES_PER_ROUND
    elasticity = 0.75  # calibrate.py: numpy-bound ops follow the kernel least
    samples = 1 << 17
    spots_per_op = 8

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        rng = np.random.default_rng([self.seed, 1])
        self.redrawn = Counter()
        # a curve that could not be encoded is kept as its exception, which
        # the op re-raises and counts as failed
        drawn = [draw_case(rng, i, (4, 8, 16, 32, 64), self.redrawn, encode)
                 for i in range(self.ops_per_round)]
        self.cases = [case for case, _ in drawn]
        self.curves = [curve for _, curve in drawn]

    def prepare(self, i: int):
        k = i % self.ops_per_round
        case = self.cases[k]
        spots = np.random.default_rng([self.seed, 2, i]).integers(0, self.samples, self.spots_per_op)
        return case, self.curves[k], make_reference(case), spots

    def execute(self, prep):
        case, curve, ref, _ = prep
        if isinstance(curve, Exception):
            raise curve
        return analysis.sweep(curve, ref, case.mode, case.cfg, self.samples)

    def check(self, prep, report):
        case, curve, _, spots = prep
        _check_report(case, report, self.samples, spots, curve)
        return [_curve_bytes(curve), report.test.tobytes()]

    def samples_of(self, prep) -> int:
        return self.samples

    corrupt = staticmethod(perturb)

    def close(self):
        pass


class CorpusSmall:
    """One fresh curve per op through encode, scalar evals, a 256-sample
    sweep and the 256-sample error bound."""

    name = "corpus-small"
    ops_per_round = CASES_PER_ROUND
    elasticity = 0.95  # calibrate.py
    samples = 256
    scalar_evals = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.redrawn = Counter()

    def setup(self):
        pass

    def _attempt(self, case: Case):
        """The parts of an op that a known defect can fail, for the kinds
        that have one (untimed: run while the op is prepared)."""
        if case.kind.startswith("rational") and case.fmt.is_unorm:
            encode(case)
        elif case.kind == "dc-hybrid":
            curve = encode(case)
            ref = make_reference(case)
            report = analysis.sweep(curve, ref, case.mode, case.cfg, self.samples)
            check_bound(case, report, analysis.error_bound_estimate(
                curve, case.cfg, reference=ref, mode=case.mode, samples=self.samples))

    def prepare(self, i: int):
        rng = np.random.default_rng([self.seed, 3, i])
        case, _ = draw_case(rng, i, (2, 3, 4, 5, 6, 7, 8), self.redrawn, self._attempt)
        spots = rng.integers(0, self.samples, self.scalar_evals)
        ts = np.linspace(0.0, case.domain_end, self.samples)
        return case, make_reference(case), spots, [float(ts[j]) for j in spots]

    def execute(self, prep):
        case, ref, _, scalar_ts = prep
        curve = encode(case)
        evaluate = getattr(texeval, EVALUATOR[case.mode])
        scalars = [evaluate(curve, t, case.cfg) for t in scalar_ts]
        report = analysis.sweep(curve, ref, case.mode, case.cfg, self.samples)
        bound = analysis.error_bound_estimate(curve, case.cfg, reference=ref, mode=case.mode,
                                              samples=self.samples)
        return curve, scalars, report, bound

    def check(self, prep, out):
        case, _, spots, _ = prep
        curve, scalars, report, bound = out
        _check_report(case, report, self.samples, spots[:1], curve)
        for j, scalar in zip(spots, scalars):
            require(np.array_equal(scalar, report.test[j]), "scalar eval disagrees with the sweep")
        check_bound(case, report, bound)
        return [_curve_bytes(curve), report.test.tobytes(), np.float64(bound).tobytes()]

    def samples_of(self, prep) -> int:
        return 2 * self.samples + self.scalar_evals

    @staticmethod
    def corrupt(out):
        curve, scalars, report, bound = out
        return curve, scalars, perturb(report), bound

    def close(self):
        pass


# -- cli-reports -------------------------------------------------------------

ZIGZAG_SEGMENTS = 256
SWEEP_SAMPLES = 4096
RENDER_SIZE = (1024, 256)


def _random_spline(rng):
    ctrl = rng.uniform(0.0, 1.0, (10, 2))
    interior = np.sort(rng.uniform(0.1, 0.9, 6))
    knots = np.concatenate([np.zeros(4), interior, np.ones(4)])
    return ctrl, knots


class CliReports:
    """In-process ``cli.main`` jobs: a fixed mix of ten per round."""

    name = "cli-reports"
    # Sorted by cost, the jobs are four fast ones, two renders, the encode and
    # the seiler sweep, and two zig-zag sweeps. So the median op falls in the
    # middle of the renders' times and the 90th percentile in the middle of
    # the zig-zag sweeps', not at the edge of one job's times.
    jobs = ("encode", "inspect", "eval", "sweep-seiler", "sweep-zigzag", "render", "convert",
            "reject", "sweep-zigzag", "render")
    ops_per_round = len(jobs)
    elasticity = 0.9  # calibrate.py

    def __init__(self, seed: int, workroot: str):
        self.seed = seed
        self.workroot = workroot
        self.redrawn = Counter()  # no input here hits a known defect

    def setup(self):
        os.makedirs(self.workroot, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=self.workroot)
        rng = np.random.default_rng([self.seed, 4])
        self.zz_points = rng.uniform(0.0, 1.0, (2 * ZIGZAG_SEGMENTS + 1, 2))
        self.hump = rng.uniform(0.0, 1.0, (4, 1))
        self.hump[1:3] += 1.0  # a hump: the difference terms leave [0, 1]
        self.plane = rng.uniform(0.0, 1.0, (4, 2))
        self.spline = _random_spline(rng)
        curvefile.write_curve_file(self.path("zz.curve"), 2, self.zz_points)
        curvefile.write_curve_file(self.path("hump.curve"), 3, self.hump)
        curvefile.write_curve_file(self.path("plane.curve"), 3, self.plane)
        curvefile.write_curve_file(self.path("spline.curve"), 3, self.spline[0],
                                   knots=self.spline[1])

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def argv(self, job: str, r: int):
        bits = ["--bits", str(BITS[r % 6]), "--subtexel-rounding", ROUNDING[(r // 6) % 2]]
        p = self.path
        if job == "encode":
            return ["encode", "--layout", "zigzag", "--format", "unorm16", "--rescale",
                    "--seed-texel", "search", "--sidecar", "--in", p("zz.curve"),
                    "--out", p("zz.ctex")]
        if job == "inspect":
            return ["inspect", "--in", p("zz.ctex")]
        if job == "eval":
            # odd rounds evaluate at a join between segments
            rng = np.random.default_rng([self.seed, 5, r])
            t = rng.integers(0, ZIGZAG_SEGMENTS + 1) if r % 2 else rng.uniform(
                0.0, ZIGZAG_SEGMENTS)
            return ["eval", "--in", p("zz.ctex"), "--t", repr(float(t))] + bits
        if job == "sweep-seiler":
            return ["sweep", "--layout", "seiler", "--format", "unorm8", "--rescale",
                    "--samples", str(SWEEP_SAMPLES), "--in", p("hump.curve"),
                    "--out", p("seiler.csv")] + bits
        if job == "sweep-zigzag":
            return ["sweep", "--layout", "zigzag", "--format", "f32", "--samples",
                    str(SWEEP_SAMPLES), "--in", p("zz.curve"), "--out", p("zz.csv")] + bits
        if job == "render":
            return ["render", "--layout", "dc", "--format", "f32", "--width",
                    str(RENDER_SIZE[0]), "--height", str(RENDER_SIZE[1]), "--in",
                    p("plane.curve"), "--out", p("dev.ppm")] + bits
        if job == "convert":
            return ["convert", "--bspline-to-bezier", "--in", p("spline.curve"), "--out", p("seg")]
        return ["sweep", "--layout", "seiler", "--format", "unorm8", "--samples",
                str(SWEEP_SAMPLES), "--in", p("hump.curve"), "--out", p("reject.csv")] + bits

    def prepare(self, i: int):
        r, j = divmod(i, self.ops_per_round)
        job = self.jobs[j]
        if job == "reject" and os.path.exists(self.path("reject.csv")):
            os.remove(self.path("reject.csv"))
        return job, r, self.argv(job, r)

    def execute(self, prep):
        _, _, argv = prep
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def _read(self, name: str) -> bytes:
        with open(self.path(name), "rb") as fh:
            return fh.read()

    def check(self, prep, result):
        job, r, argv = prep
        code, stdout, stderr = result
        expected = 2 if job == "reject" else 0
        require(code == expected, f"{job}: exit code {code}, expected {expected}")
        files = getattr(self, "_check_" + job.replace("-", "_"))(stdout, stderr, argv)
        sanitized = [s.replace(self.dir, "<work>").encode() for s in (stdout, stderr)]
        return [job.encode(), bytes([code])] + sanitized + files

    def _check_encode(self, stdout, stderr, argv):
        blob = self._read("zz.ctex")
        curve = container.curve_from_bytes(blob)
        require(container.curve_to_bytes(curve) == blob, "CTEX1 bytes do not re-read the same")
        sidecar = self._read("zz.ctex.meta")
        require(sidecar.decode() == container.sidecar_text(curve), "sidecar disagrees with CTEX1")
        lines = stdout.splitlines()
        require(lines[0] == f"layout dc_zigzag degree 2 segments {ZIGZAG_SEGMENTS}", "encode header")
        require(sum(line.startswith("texel ") for line in lines) == 2 * (ZIGZAG_SEGMENTS + 1),
                "encode texel listing")
        self.last_describe = stdout
        return [blob, sidecar]

    def _check_inspect(self, stdout, stderr, argv):
        require(stdout == getattr(self, "last_describe", None), "inspect differs from encode")
        return []

    def _check_eval(self, stdout, stderr, argv):
        curve = container.read_ctex(self.path("zz.ctex"))
        t = float(argv[argv.index("--t") + 1])
        cfg = SamplerConfig(subtexel_bits=int(argv[argv.index("--bits") + 1]),
                            subtexel_rounding=argv[argv.index("--subtexel-rounding") + 1])
        value = texeval.eval_dc_zigzag(curve, t, cfg)
        require(stdout == " ".join(repr(float(v)) for v in value) + "\n", "eval value")
        return []

    def _check_csv(self, name, domain_end, ref_fn):
        blob = self._read(name)
        lines = blob.decode().splitlines()
        c = (len(lines[0].split(",")) - 1) // 3
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:-3]])
        require(data.shape == (SWEEP_SAMPLES, 1 + 3 * c), f"{name}: row count")
        t, ref, test, absdev = data[:, 0], data[:, 1:1 + c], data[:, 1 + c:1 + 2 * c], data[:, 1 + 2 * c:]
        require(np.array_equal(t, np.linspace(0.0, domain_end, SWEEP_SAMPLES)), f"{name}: lattice")
        require(np.array_equal(absdev, np.abs(test - ref)), f"{name}: absdev column")
        summary = {line.split(",")[0]: [float(v) for v in line.split(",")[1:]] for line in lines[-3:]}
        require(summary.get("#max") == list(absdev.max(axis=0)), f"{name}: #max row")
        require(np.allclose(summary.get("#mean"), absdev.mean(axis=0), rtol=1e-12, atol=0), f"{name}: #mean")
        require(np.allclose(summary.get("#rms"), np.sqrt(np.mean(absdev**2, axis=0)), rtol=1e-12,
                            atol=0), f"{name}: #rms row")
        require(np.allclose(ref, ref_fn(t), rtol=1e-12, atol=1e-12), f"{name}: reference column")
        return [blob]

    def _check_sweep_seiler(self, stdout, stderr, argv):
        poly = ControlPolygon(self.hump)
        return self._check_csv("seiler.csv", 1.0, lambda t: reference.eval_decasteljau(poly, t))

    def _check_sweep_zigzag(self, stdout, stderr, argv):
        case = Case("zigzag", TexelFormat.FLOAT32, SamplerConfig(), self.zz_points)
        return self._check_csv("zz.csv", float(ZIGZAG_SEGMENTS),
                               lambda t: independent_reference(case, t))

    def _check_render(self, stdout, stderr, argv):
        blob = self._read("dev.ppm")
        w, h = RENDER_SIZE
        head = f"P6\n{w} {h}\n255\n".encode()
        require(blob.startswith(head) and len(blob) == len(head) + w * h * 3, "PPM header/size")
        img = np.frombuffer(blob[len(head):], dtype=np.uint8).reshape(h, w, 3)
        colours = {(0, 0, 0), (255, 255, 255), (255, 0, 0), (0, 255, 0)}
        require({tuple(p) for p in np.unique(img.reshape(-1, 3), axis=0)} <= colours, "PPM colours")
        painted = np.count_nonzero(np.any(img != 0, axis=2))
        white = np.count_nonzero(np.all(img == 255, axis=2))
        require(1 <= white and painted <= 2 * RENDER_SIZE[0], "PPM pixel counts")
        return [blob]

    def _check_convert(self, stdout, stderr, argv):
        ctrl, knots = self.spline
        spline = reference.BSplineCurve(ctrl, knots, 3)
        lines = stdout.splitlines()
        require(len(lines) == len(np.unique(knots)) - 1, "one Bezier segment per knot span")
        blobs = []
        for line in lines:
            path, lo, hi = line.split()
            with open(path, "rb") as fh:
                blob = fh.read()
            seg = curvefile.parse_curve_text(blob.decode())
            mid = 0.5 * (float(lo) + float(hi))
            value = reference.eval_bernstein(ControlPolygon(seg.points), 0.5)
            require(np.allclose(value, reference.eval_deboor(spline, mid), rtol=1e-12, atol=1e-12),
                    "Bezier segment disagrees with de Boor")
            blobs.append(blob)
        return blobs

    def _check_reject(self, stdout, stderr, argv):
        require(stdout == "" and stderr.startswith("error: "), "reject: output streams")
        require(not os.path.exists(self.path("reject.csv")), "reject wrote a file")
        return []

    def samples_of(self, prep) -> int:
        return {"eval": 1, "sweep-seiler": SWEEP_SAMPLES,
                "sweep-zigzag": SWEEP_SAMPLES, "render": RENDER_SIZE[0]}.get(prep[0], 0)

    @staticmethod
    def corrupt(result):
        code, stdout, stderr = result
        return code + 1, stdout, stderr

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
