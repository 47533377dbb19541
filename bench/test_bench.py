"""Self-tests of the benchmark harness: python3 -m pytest -q bench"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def make(name, seed, tmp_path):
    if name == "sweep-large":
        wl = workloads.SweepLarge(seed)
    elif name == "corpus-small":
        wl = workloads.CorpusSmall(seed)
    else:
        wl = workloads.CliReports(seed, str(tmp_path))
    wl.setup()
    return wl


# -- span arithmetic ---------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    tree = [
        ("cli", 0.0, 10.0, -1, 0),
        ("encoder", 1.0, 4.0, 0, 0),
        ("encoder.quantize_texel", 2.0, 3.0, 1, 0),
        ("analysis.sweep", 5.0, 9.0, 0, 0),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_account_for_the_traced_wall_time():
    tracer = spans.Tracer(boundaries=())
    tracer.spans = [
        ("cli", 0.0, 10.0, -1, 0),
        ("encoder", 1.0, 4.0, 0, 0),
        ("encoder.quantize_texel", 2.0, 3.0, 1, 0),
        ("analysis.bound", 5.0, 9.0, 0, 0),
        ("sampler.blend", 5.5, 6.5, 3, 0),
        ("analysis.sweep", 11.0, 12.0, -1, 1),
    ]
    m = spans.layer_metrics(tracer, op_seconds=14.0, untraced_seconds=7.0)
    assert m["cli.self_s"] == 3.0
    assert m["encoder.self_s"] == 2.0
    assert m["analysis.bound_self_s"] == 3.0
    assert m["analysis.bound_probes"] == 1
    assert m["cli.jobs"] == 1 and m["analysis.sweep_calls"] == 1
    assert m["trace.unattributed_s"] == 3.0
    assert m["trace.overhead_ratio"] == 2.0
    assert spans.accounted_share(m, 14.0) == pytest.approx(1.0)


# -- wrapper mechanics ---------------------------------------------------------

def _targets():
    out = {}
    for b in spans.BOUNDARIES:
        _, _, value = spans._resolve(b.target)
        out[b.target] = dict(value) if b.kind == "modes" else value
    return out


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    before = _targets()
    wl = make("corpus-small", 1, tmp_path)
    tracer, traced, metrics, problems = run.traced_replay(wl, 8, untraced_busy=1.0)
    assert problems == []
    assert tracer.spans and not tracer.missing
    assert metrics["encoder.calls"] == 8 and metrics["analysis.bound_calls"] == 8
    assert spans.leftover_wrappers() == []
    after = _targets()
    for target, value in before.items():
        if isinstance(value, dict):
            assert all(after[target][k][1] is v[1] for k, v in value.items()), target
        else:
            assert after[target] is value, target


def test_spans_are_recorded_only_inside_ops():
    tracer = spans.Tracer()
    with tracer:
        workloads.encode(workloads.make_case(np.random.default_rng(0), 0, (2,)))
        assert tracer.spans == []
        tracer.op = 0
        workloads.encode(workloads.make_case(np.random.default_rng(0), 0, (2,)))
        tracer.op = None
    assert {s[0] for s in tracer.spans} == {"encoder", "encoder.quantize_texel"}


def test_missing_boundary_is_reported_not_fatal():
    tracer = spans.Tracer(boundaries=(
        spans.Boundary("analysis.sweep", "texcurve.analysis:no_such_function"),
        spans.Boundary("analysis.sweep", "texcurve.no_such_module:sweep"),
        spans.Boundary("analysis.sweep", "texcurve.analysis:sweep"),
    ))
    with tracer:
        pass
    assert tracer.missing == ["texcurve.analysis:no_such_function", "texcurve.no_such_module:sweep"]
    assert spans.leftover_wrappers() == []


# -- inputs --------------------------------------------------------------------

def test_case_generator_is_deterministic():
    def draw(seed):
        rng = np.random.default_rng(seed)
        return [workloads.make_case(rng, i, (2, 3)) for i in range(workloads.CASES_PER_ROUND)]

    a, b, c = draw(5), draw(5), draw(6)
    assert all(np.array_equal(x.points, y.points) and x.cfg == y.cfg for x, y in zip(a, b))
    assert not all(np.array_equal(x.points, y.points) for x, y in zip(a, c))
    # the schedule (and so the cost mix) does not depend on the seed
    assert [(x.kind, x.fmt, x.cfg, x.points.shape) for x in a] == \
        [(x.kind, x.fmt, x.cfg, x.points.shape) for x in c]


def test_workload_inputs_are_deterministic(tmp_path):
    for name in ("corpus-small", "cli-reports"):
        one = make(name, 3, tmp_path / "one")
        two = make(name, 3, tmp_path / "two")
        for i in (0, 5, 13):
            p1, p2 = one.prepare(i), two.prepare(i)
            if name == "corpus-small":
                assert np.array_equal(p1[0].points, p2[0].points) and p1[3] == p2[3]
            else:
                assert p1[:2] == p2[:2]
                assert [a.replace(one.dir, "") for a in p1[2]] == \
                    [a.replace(two.dir, "") for a in p2[2]]
        if name == "cli-reports":
            for f in sorted(os.listdir(one.dir)):
                assert open(one.path(f), "rb").read() == open(two.path(f), "rb").read()
        one.close()
        two.close()


# -- output checks ---------------------------------------------------------------

@pytest.mark.parametrize("name,ops", [("sweep-large", 4), ("corpus-small", 16), ("cli-reports", 10)])
def test_every_workload_counts_a_corrupted_output_as_failed(name, ops, tmp_path):
    wl = make(name, 1, tmp_path)
    try:
        clean = run.run_ops(wl, count=ops)
        bad = run.run_ops(wl, count=ops, corrupt=wl.corrupt)
    finally:
        wl.close()
    assert [f for f in clean["failures"] if f[1] == "check"] == []
    produced = sum(clean["ok"])
    assert produced > 0
    assert len([f for f in bad["failures"] if f[1] == "check"]) == produced


def test_golden_digest_is_compared_on_the_default_seed_only():
    name = "corpus-small"
    assert run.golden_problem(name, run.GOLDEN_SEED, run.load_golden()[name]) is None
    assert "mismatch" in run.golden_problem(name, run.GOLDEN_SEED, "0" * 64)
    assert run.golden_problem(name, run.GOLDEN_SEED + 1, "0" * 64) is None


# -- metric names ------------------------------------------------------------------

def test_reported_metrics_match_benchmark_json(tmp_path):
    wl = make("cli-reports", 2, tmp_path)
    try:
        result = run.run_ops(wl, count=2 * wl.ops_per_round, calibrator=calibrate.Calibrator())
        e2e = run.end_to_end(result, wl.ops_per_round, wl.elasticity, [(0.1, 1e-3)], [(0.05, 1e-3)])
        _, _, layer, _ = run.traced_replay(wl, wl.ops_per_round, untraced_busy=1.0)
    finally:
        wl.close()
    assert list(e2e) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert {k: u for k, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert sorted(layer) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(run.per_layer_unit(k) == units[k] for k in layer)
    assert layer["cli.jobs"] == wl.ops_per_round and layer["cli.nonzero_exits"] == 1


def test_a_bound_violation_is_a_failed_op_not_a_wrong_output(tmp_path):
    wl = make("corpus-small", 1, tmp_path)
    result = run.run_ops(wl, count=8, corrupt=lambda out: out[:3] + (-1.0,))
    kinds = [f[1] for f in result["failures"]]
    assert "bound" in kinds and "check" not in kinds


# -- known defects -------------------------------------------------------------------

def _case(kind, fmt):
    rng = np.random.default_rng(0)
    i = next(i for i in range(workloads.CASES_PER_ROUND)
             if workloads.KINDS[i % 8] == kind and workloads.FORMATS[i % 3] == fmt)
    return workloads.make_case(rng, i, (2,))


def test_only_the_known_defect_signatures_are_recognised():
    from texcurve.core import RangeError

    rational = _case("rational-seiler", workloads.TexelFormat.UNORM8)
    hybrid = _case("dc-hybrid", workloads.TexelFormat.UNORM8)
    over = RangeError("rational: texel (0, 0, 1, 0) has value 1.0000000000000002, outside [0, 1]")
    far = RangeError("rational: texel (0, 0, 1, 0) has value 1.25, outside [0, 1]")
    bound = workloads.BoundViolation("max_dev exceeds the bound")
    assert workloads.known_defect(rational, over) == "rescale-range"
    assert workloads.known_defect(rational, far) is None
    assert workloads.known_defect(hybrid, over) is None
    assert workloads.known_defect(hybrid, bound) == "hybrid-bound"
    assert workloads.known_defect(rational, bound) is None
    assert workloads.known_defect(hybrid, workloads.CheckError("wrong")) is None


def test_a_known_defect_is_redrawn_and_counted_and_any_other_failure_kept():
    from collections import Counter

    from texcurve.core import RangeError

    calls = []

    def flaky(case):
        calls.append(case)
        if len(calls) == 1:
            raise RangeError("x has value 1.0000000000000002, outside [0, 1]")
        return "ok"

    redrawn = Counter()
    rng = np.random.default_rng(0)
    i = workloads.KINDS.index("rational-seiler") + 8 * 3  # a unorm8 case
    case, result = workloads.draw_case(rng, i, (2,), redrawn, flaky)
    assert result == "ok" and redrawn == {"rescale-range": 1} and case is calls[1]

    def broken(case):
        raise RangeError("x has value 7.0, outside [0, 1]")

    redrawn = Counter()
    _, result = workloads.draw_case(rng, i, (2,), redrawn, broken)
    assert isinstance(result, RangeError) and not redrawn


# -- calibration ---------------------------------------------------------------------

def test_elasticity_recovers_how_much_the_ops_follow_the_kernel():
    rng = np.random.default_rng(0)
    period, rounds = 12, 40
    # the host's speed drifts slowly; each op position has its own cost
    speed = np.exp(np.cumsum(rng.normal(0.0, 0.02, period * rounds)))
    kernel = 1e-3 * speed * np.exp(rng.normal(0.0, 0.01, speed.size))
    cost = np.tile(rng.uniform(1e-3, 5e-2, period), rounds)
    seconds = cost * speed ** 0.6
    beta = calibrate.elasticity(seconds, kernel, period)
    assert beta == pytest.approx(0.6, abs=0.05)
    scaled = calibrate.reference_seconds(seconds, kernel, beta).reshape(rounds, period)
    # scaling removes the drift that raw times show
    raw_spread = np.std(np.log(seconds.reshape(rounds, period)), axis=0).mean()
    assert np.std(np.log(scaled), axis=0).mean() < raw_spread / 4
