"""Run one texcurve benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep-large --seed 0 --seconds 12 --trace 0

Run from anywhere; the library is imported from ``src/`` beside this
directory. Every metric is printed as ``name value unit``; the last line of
stdout is the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of an untraced run. ``--trace
1`` repeats the untraced run, replays the same ops with span wrappers
installed, and reports the per-layer metrics. End-to-end times are scaled
to a reference host speed measured beside every op (calibrate.py). Results,
the environment and (traced) the spans are also written to ``.bench_out/``
at the repo root. See bench/README.md.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORK_DIR = os.path.join(ROOT, ".bench_tmp")
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

#: the seed whose per-workload output digest is stored in golden.json
GOLDEN_SEED = 0
#: every run makes at least this many ops, so p90 has 10 ops beyond it
MIN_OPS = 100
#: set-ups (and fresh interpreters) per untraced run; setup_s is built
#: from their medians
SETUP_REPEATS = 7
#: largest allowed gap between traced wall time and the self times plus
#: unattributed time that should account for it
ACCOUNTING_TOLERANCE = 0.05

WORKLOAD_NAMES = ("sweep-large", "corpus-small", "cli-reports")


def _import_library():
    """Import texcurve from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "texcurve", "__init__.py")):
        sys.exit(f"error: no texcurve sources under {SRC}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import texcurve

    if os.path.dirname(os.path.abspath(texcurve.__file__)) != os.path.join(SRC, "texcurve"):
        sys.exit(f"error: texcurve imported from {texcurve.__file__}, not {SRC}")


def make_workload(name: str, seed: int):
    import workloads

    if name == "sweep-large":
        return workloads.SweepLarge(seed)
    if name == "corpus-small":
        return workloads.CorpusSmall(seed)
    return workloads.CliReports(seed, WORK_DIR)


def golden_ops(wl) -> int:
    """The ops covered by the golden digest: whole rounds, at least MIN_OPS."""
    rounds = -(-MIN_OPS // wl.ops_per_round)
    return rounds * wl.ops_per_round


def run_ops(wl, *, seconds=0.0, count=None, tracer=None, corrupt=None, calibrator=None):
    """Run ops 0, 1, ... and check each one outside the timed region.

    Without `count`, stops at the first round boundary after `seconds` of
    wall time once at least MIN_OPS ops ran, so every run covers whole
    rounds. `corrupt` alters each output before its check (self-tests).
    With a `calibrator`, the reference kernel is timed after every op, and
    each op gets the mean of the kernel times before and after it.
    Returns per-op durations, outcomes and work, the failures as (op, kind,
    message) with kind "raised", "bound" or "check" (a wrong output), and
    the digest of the first golden_ops(wl) ops' outputs.
    """
    from workloads import BoundViolation, CheckError

    limit = golden_ops(wl)
    hasher = hashlib.sha256()
    durations, ok, samples, failures, kernel = [], [], [], [], []
    before = calibrator.measure() if calibrator is not None else None
    start = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i % wl.ops_per_round == 0 and i >= MIN_OPS and time.perf_counter() - start >= seconds:
            break
        prep = wl.prepare(i)
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = wl.execute(prep)
            error = None
        except (Exception, SystemExit) as exc:  # an op failure is counted, not fatal
            out, error = None, ("raised", f"{type(exc).__name__}: {exc}")
        durations.append(time.perf_counter() - t0)
        if calibrator is not None:
            after = calibrator.measure()
            kernel.append(0.5 * (before + after))
            before = after
        if tracer is not None:
            tracer.op = None
        chunks = [b"failed"]
        if error is None:
            try:
                chunks = wl.check(prep, corrupt(out) if corrupt else out)
            except BoundViolation as exc:
                error = ("bound", str(exc))
            except CheckError as exc:
                error = ("check", str(exc))
            except Exception as exc:  # a malformed output that broke the check
                error = ("check", f"{type(exc).__name__}: {exc}")
        if error is not None:
            failures.append((i,) + error)
        if i < limit:
            for chunk in chunks:
                hasher.update(chunk)
        ok.append(error is None)
        samples.append(wl.samples_of(prep) if error is None else 0)
        i += 1
    return {
        "ops": i,
        "durations": durations,
        "kernel": kernel if calibrator is not None else None,
        "ok": ok,
        "samples": samples,
        "failures": failures,
        "digest": hasher.hexdigest() if i >= limit else None,
    }


def timed_setups(name: str, seed: int, repeats: int, calibrator=None):
    """Set the workload up `repeats` times (inputs, encoding, one warm-up op);
    return the last instance and every set-up time, as (seconds, kernel
    seconds around it) when a `calibrator` is given."""
    times = []
    wl = None
    for _ in range(repeats):
        if wl is not None:
            wl.close()
        gc.collect()
        before = calibrator.measure() if calibrator is not None else None
        t0 = time.perf_counter()
        wl = make_workload(name, seed)
        wl.setup()
        try:
            wl.execute(wl.prepare(0))
        except Exception:  # op 0 runs again, and is counted, in the measured run
            pass
        times.append(_timed(time.perf_counter() - t0, before, calibrator))
    return wl, times


def interpreter_start_times(repeats: int, calibrator=None):
    """Time of a fresh interpreter that imports numpy and texcurve."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import numpy, texcurve"
    times = []
    for _ in range(repeats):
        before = calibrator.measure() if calibrator is not None else None
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(_timed(time.perf_counter() - t0, before, calibrator))
    return times


def _timed(seconds: float, before, calibrator):
    if calibrator is None:
        return seconds
    return seconds, 0.5 * (before + calibrator.measure())


def end_to_end(run, per_round: int, beta: float, start_times, setup_times) -> dict:
    """The end-to-end metrics of one calibrated untraced run.

    Every time is in reference seconds (calibrate.py), scaled with the
    workload's elasticity `beta`. `start_times` and `setup_times` are
    (seconds, kernel seconds) pairs; setup_s is the sum of their medians. Throughput
    divides the work of one round by the sum, over the round's op positions,
    of the median time of that position's successful repetitions. The
    percentiles are over every op, a failed op counting as infinitely slow.
    """
    import numpy as np
    from calibrate import reference_seconds

    shape = (run["ops"] // per_round, per_round)
    ok = np.array(run["ok"]).reshape(shape)
    scaled = reference_seconds(run["durations"], run["kernel"], beta).reshape(shape)
    setup_s = sum(float(np.median(reference_seconds(*zip(*times), beta)))
                  for times in (start_times, setup_times))
    done = ok.any(axis=0)
    typical = np.array([np.median(scaled[ok[:, j], j]) for j in np.flatnonzero(done)])
    busy = float(typical.sum())
    samples = float(np.array(run["samples"]).reshape(shape).max(axis=0)[done].sum())
    latency = np.where(np.ravel(ok), np.ravel(scaled), np.inf)
    pct = lambda q: float(np.percentile(latency, q, method="inverted_cdf")) * 1e3
    ops_per_s = float(done.sum()) / busy
    return {
        "setup_s": (setup_s, "s"),
        "samples_per_s": (samples / busy, "1/s"),
        "curves_per_s": (ops_per_s, "1/s"),  # every op carries one curve
        "jobs_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (pct(50), "ms"),
        "op_p90_ms": (pct(90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


PER_LAYER_UNITS = {"_s": "s", "ns_per_lookup": "ns", "us_per_call": "us", "_ratio": "ratio",
                   "_bytes": "bytes", "container.bytes": "bytes"}


def per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def environment(args) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "texcurve")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                src_hash.update(fname.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "texcurve_commit": git_commit(),
        "texcurve_src_sha256": src_hash.hexdigest(),
    }


def git_commit() -> str:
    """HEAD of the repo this checkout belongs to, or "none" outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def load_golden() -> dict:
    try:
        with open(GOLDEN_PATH) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def golden_problem(name: str, seed: int, digest) -> str | None:
    """Compare the run's digest with the stored one (default seed only)."""
    if seed != GOLDEN_SEED:
        return None
    expected = load_golden().get(name)
    if expected is None:
        return f"no golden digest stored for {name}"
    if digest != expected:
        return f"golden digest mismatch for {name}: {digest} != {expected}"
    return None


def traced_replay(wl, ops: int, untraced_busy: float):
    """Replay `ops` ops with span wrappers installed; return the tracer,
    the run, per-layer metrics and the problems found."""
    import spans

    tracer = spans.Tracer()
    with tracer:
        run = run_ops(wl, count=ops, tracer=tracer)
    problems = [f"wrapper left installed: {t}" for t in spans.leftover_wrappers()]
    busy = sum(run["durations"])
    metrics = spans.layer_metrics(tracer, busy, untraced_busy)
    share = spans.accounted_share(metrics, busy)
    if abs(share - 1.0) > ACCOUNTING_TOLERANCE:
        problems.append(f"self times account for {share:.3f} of traced wall time")
    return tracer, run, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true",
                        help=f"store this run's digest in golden.json (seed {GOLDEN_SEED} only)")
    args = parser.parse_args(argv)
    if args.update_golden and args.seed != GOLDEN_SEED:
        parser.error(f"--update-golden needs --seed {GOLDEN_SEED}")

    _import_library()
    import_s = time.perf_counter() - _START
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from calibrate import Calibrator, elasticity

    env = environment(args)
    repeats = 1 if args.trace else SETUP_REPEATS
    # per-layer metrics are shares of one traced run and need no calibration
    calibrator = None if args.trace else Calibrator()
    start_times = [] if args.trace else interpreter_start_times(repeats, calibrator)
    wl, setup_times = timed_setups(args.workload, args.seed, repeats, calibrator)
    try:
        gc.collect()
        # a traced run spends half its time untraced, half replaying those ops traced
        run = run_ops(wl, seconds=args.seconds / 2 if args.trace else args.seconds,
                      calibrator=calibrator)
        redrawn = dict(wl.redrawn)
        wrong = [f for f in run["failures"] if f[1] == "check"]
        if args.update_golden and not wrong:
            golden = load_golden()
            golden[args.workload] = run["digest"]
            with open(GOLDEN_PATH, "w") as fh:
                json.dump(golden, fh, indent=2, sort_keys=True)
                fh.write("\n")
        problem = golden_problem(args.workload, args.seed, run["digest"])
        problems = [problem] if problem else []
        runs = [run]
        if args.trace:
            gc.collect()
            tracer, traced, metrics, trace_problems = traced_replay(
                wl, run["ops"], sum(run["durations"]))
            problems += trace_problems
            if traced["digest"] != run["digest"]:
                problems.append("traced run produced different outputs")
            runs.append(traced)
            env["missing_boundaries"] = tracer.missing
            result_metrics = {k: (v, per_layer_unit(k)) for k, v in sorted(metrics.items())}
        else:
            result_metrics = end_to_end(run, wl.ops_per_round, wl.elasticity, start_times,
                                        setup_times)
            # the elasticity this run's own ops show; a drift from the
            # workload's constant means it needs measuring again
            env["fitted_elasticity"] = elasticity(run["durations"], run["kernel"],
                                                  wl.ops_per_round)
    finally:
        wl.close()

    failures = [(kind, f"{phase} op {i}: {kind}: {msg}")
                for phase, r in zip(("untraced", "traced"), runs) for i, kind, msg in r["failures"]]
    # an op whose output is wrong makes the run incorrect; an op that raised
    # or broke the error bound is counted in `failed` only
    problems += [line for kind, line in failures if kind == "check"]
    failed_ops = [line for kind, line in failures if kind != "check"]
    env.update(ops=run["ops"], digest=run["digest"],
               failed_ops_ratio=len(run["failures"]) / run["ops"], import_s=import_s,
               known_defect_redraws=redrawn,
               calibration_median_s=statistics.median(calibrator.times) if calibrator else None,
               setup_times_s=setup_times, interpreter_start_s=start_times, problems=problems,
               failed_ops=failed_ops)
    result = {
        "correct": not problems,
        "attempted": sum(r["ops"] for r in runs),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result_metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"env": env, "result": result, "op_durations_s": run["durations"],
                   "op_kernel_s": run["kernel"]}, fh)
        fh.write("\n")
    if args.trace:
        tracer.write(stem + "-spans.tsv.gz")

    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    for line in failed_ops[:10]:
        print(f"failed op: {line}", file=sys.stderr)
    print("env " + json.dumps({k: v for k, v in env.items() if k not in ("problems", "failed_ops")},
                              sort_keys=True))
    print(f"ops {run['ops']} (op_p50_ms and op_p90_ms are over these), failed {len(failures)}, "
          f"failed_ops_ratio {env['failed_ops_ratio']!r}")
    print(f"inputs redrawn for hitting a known defect: {redrawn or 'none'}")
    width = max(len(k) for k in result_metrics)
    for k, (v, u) in result_metrics.items():
        print(f"{k:<{width}}  {v!r} {u}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
