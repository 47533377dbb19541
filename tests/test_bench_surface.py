"""The library still serves the benchmark under `bench/`.

The benchmark drives the library through its own code, which a library
change can break (an op that raises or checks wrong) or blind (a traced
name that no longer resolves, so its layer's time goes unmeasured). These
checks notice both from tier-1: the traced names that do not resolve must
be the ones listed here, and a few ops of every workload must run and pass
their own checks.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
if BENCH not in sys.path:
    sys.path.append(BENCH)

import spans  # noqa: E402
import workloads  # noqa: E402

#: `spans.BOUNDARIES` targets that name nothing in the library, each with
#: why it went; the spans' next re-wiring empties this table
UNRESOLVED = {
    "texcurve.encoder:quantize_texel": "the quantizer kernel is core._quantize_array",
    "texcurve.texeval:sample_bilinear": "the evaluators fetch through texeval._fetch",
    "texcurve.texeval:sample_trilinear": "the evaluators fetch through texeval._fetch",
    "texcurve.analysis:blend_with_fractions": "the bound blends through texeval._fetch",
    "texcurve.texeval:lerp": "texeval blends through sampler",
    "texcurve.cli:_reference_for": "cli._encode_from_spec returns each layout's reference",
}


def test_unresolved_span_targets_are_the_listed_ones():
    unresolved = set()
    for boundary in spans.BOUNDARIES:
        try:
            spans._resolve(boundary.target)
        except (ImportError, AttributeError):
            unresolved.add(boundary.target)
    assert unresolved == set(UNRESOLVED)


@pytest.mark.parametrize("name, ops", [("sweep-large", 8), ("corpus-small", 8),
                                       ("cli-reports", len(workloads.CliReports.jobs))])
def test_workload_ops_pass_their_own_checks(tmp_path, name, ops):
    """The first ops of each workload at seed 0 (one per curve kind, or
    one round of CLI jobs) run and pass the workload's own checks."""
    if name == "sweep-large":
        wl = workloads.SweepLarge(0)
    elif name == "corpus-small":
        wl = workloads.CorpusSmall(0)
    else:
        wl = workloads.CliReports(0, str(tmp_path))
    wl.setup()
    try:
        for i in range(ops):
            prep = wl.prepare(i)
            wl.check(prep, wl.execute(prep))
    finally:
        wl.close()
