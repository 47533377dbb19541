"""In-memory span tracer for the traced benchmark run.

Wrappers are installed at layer boundaries only for the traced run and
removed afterwards, so the untraced run executes unmodified library code.
Each boundary wraps a public function at the name through which its caller
reaches it (a module attribute, a class attribute, or an entry of
``analysis._MODES``). A boundary whose name no longer exists is reported as
missing instead of failing the run.

A span records (name, start, end, parent, op). Spans are recorded only
while an op is open, so output checks made between ops leave no trace.
A span's self time is its duration minus the durations of its children;
single-threaded nesting means children never overlap.
"""

from __future__ import annotations

import gzip
import importlib
import os
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


# -- per-boundary counters: (counts, args, kwargs, result) -> None ---------

def _count_points(arg_index: int, key: str):
    def count(counts, args, kwargs, result):
        counts[key] += _size(args[arg_index]) if len(args) > arg_index else 1
    return count


def _count_blend(counts, args, kwargs, result):
    counts["sampler.blend_lookups"] += _size(args[2][0])


def _count_encode(counts, args, kwargs, result):
    counts["encoder.texels"] += result.grid.texel_count


def _count_nonzero_exit(counts, args, kwargs, result):
    counts["cli.nonzero_exits"] += result != 0


def _count_file_bytes(path_index: int):
    def count(counts, args, kwargs, result):
        counts["container.bytes"] += os.path.getsize(args[path_index])
    return count


def _count_csv(counts, args, kwargs, result):
    counts["analysis.csv_bytes"] += len(result)


def _count_render(counts, args, kwargs, result):
    counts["analysis.render_pixels"] += result.shape[0] * result.shape[1]


def _count_reference(counts, args, kwargs, result):
    t = args[0] if args else next(iter(kwargs.values()))
    counts["reference.points"] += _size(t)
    counts["reference.scalar_calls"] += np.ndim(t) == 0


@dataclass(frozen=True)
class Boundary:
    """One traced name.

    `target` is "module:attr" or "module:Class.attr"; `kind` is "call"
    (wrap the function), "modes" (wrap each evaluator in the `_MODES`
    table) or "factory" (wrap each callable the function returns, which is
    how reference callables are reached).
    """

    span: str
    target: str
    kind: str = "call"
    count: Optional[Callable] = None


BOUNDARIES = (
    Boundary("cli", "texcurve.cli:main", count=_count_nonzero_exit),
    Boundary("curvefile.read", "texcurve.curvefile:read_curve_file"),
    Boundary("container.read", "texcurve.container:read_ctex", count=_count_file_bytes(0)),
    Boundary("container.write", "texcurve.container:write_ctex", count=_count_file_bytes(1)),
    Boundary("container.write", "texcurve.container:write_sidecar", count=_count_file_bytes(1)),
    Boundary("encoder", "texcurve.encoder:encode_dc_quadratic", count=_count_encode),
    Boundary("encoder", "texcurve.encoder:encode_dc_cubic", count=_count_encode),
    Boundary("encoder", "texcurve.encoder:encode_dc_zigzag", count=_count_encode),
    Boundary("encoder", "texcurve.encoder:encode_seiler", count=_count_encode),
    Boundary("encoder", "texcurve.encoder:encode_rational", count=_count_encode),
    Boundary("encoder.quantize_texel", "texcurve.encoder:quantize_texel"),
    Boundary("texeval", "texcurve.analysis:_MODES", kind="modes",
             count=_count_points(1, "texeval.points")),
    Boundary("texeval", "texcurve.texeval:eval_dc", count=_count_points(1, "texeval.points")),
    Boundary("texeval", "texcurve.texeval:eval_dc_cubic_hybrid",
             count=_count_points(1, "texeval.points")),
    Boundary("texeval", "texcurve.texeval:eval_seiler_tex", count=_count_points(1, "texeval.points")),
    Boundary("texeval", "texcurve.texeval:eval_dc_zigzag", count=_count_points(1, "texeval.points")),
    Boundary("texeval", "texcurve.texeval:eval_rational_tex",
             count=_count_points(1, "texeval.points")),
    Boundary("sampler.fetch", "texcurve.texeval:sample_bilinear",
             count=_count_points(1, "sampler.lookups")),
    Boundary("sampler.fetch", "texcurve.texeval:sample_trilinear",
             count=_count_points(1, "sampler.lookups")),
    Boundary("sampler.blend", "texcurve.analysis:blend_with_fractions", count=_count_blend),
    Boundary("core.lerp", "texcurve.sampler:lerp"),
    Boundary("core.lerp", "texcurve.texeval:lerp"),
    Boundary("core.invert", "texcurve.core:ValueTransform.invert"),
    Boundary("reference", "workloads:make_reference", kind="factory", count=_count_reference),
    Boundary("reference", "texcurve.cli:_reference_for", kind="factory", count=_count_reference),
    Boundary("analysis.sweep", "texcurve.analysis:sweep"),
    Boundary("analysis.csv", "texcurve.analysis:report_to_csv", count=_count_csv),
    Boundary("analysis.render", "texcurve.analysis:render_deviation_image", count=_count_render),
    Boundary("analysis.bound", "texcurve.analysis:error_bound_estimate"),
)

#: span name -> the per-layer metric that receives its self time
SELF_TIME_METRIC = {
    "cli": "cli.self_s",
    "curvefile.read": "curvefile.read_s",
    "container.read": "container.read_s",
    "container.write": "container.write_s",
    "encoder": "encoder.self_s",
    "encoder.quantize_texel": "encoder.quantize_texel_s",
    "texeval": "texeval.self_s",
    "sampler.fetch": "sampler.self_s",
    "sampler.blend": "sampler.blend_s",
    "core.lerp": "core.lerp_s",
    "core.invert": "core.invert_s",
    "reference": "reference.self_s",
    "analysis.sweep": "analysis.sweep_self_s",
    "analysis.csv": "analysis.csv_s",
    "analysis.render": "analysis.render_s",
    "analysis.bound": "analysis.bound_self_s",
}

#: span name -> the per-layer metric that counts its calls
CALL_METRIC = {
    "cli": "cli.jobs",
    "curvefile.read": "curvefile.reads",
    "container.read": "container.reads",
    "container.write": "container.writes",
    "encoder": "encoder.calls",
    "encoder.quantize_texel": "encoder.quantize_texel_calls",
    "texeval": "texeval.calls",
    "sampler.fetch": "sampler.fetch_calls",
    "sampler.blend": "sampler.blend_calls",
    "core.lerp": "core.lerp_calls",
    "core.invert": "core.invert_calls",
    "reference": "reference.calls",
    "analysis.sweep": "analysis.sweep_calls",
    "analysis.bound": "analysis.bound_calls",
}


def _resolve(target: str):
    """Return (owner, attribute name, current value) for "module:path"."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.spans = []  # (name, start, end, parent index or -1, op)
        self.counts = defaultdict(float)
        self.missing = []
        self.op = None
        self._stack = []
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def wrap(self, fn, name: str, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, op)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.bench_span = name
        return traced

    def _wrap_factory(self, factory, name: str, count):
        def traced_factory(*args, **kwargs):
            return self.wrap(factory(*args, **kwargs), name, count)

        traced_factory.__wrapped__ = factory
        traced_factory.bench_span = name
        return traced_factory

    def install(self):
        """Install every boundary that resolves; record the others as missing."""
        for b in self.boundaries:
            try:
                owner, attr, original = _resolve(b.target)
            except (ImportError, AttributeError):
                self.missing.append(b.target)
                continue
            if b.kind == "modes":
                try:
                    saved = dict(original)
                    wrapped = {mode: (layouts, fn if fn is None else self.wrap(fn, b.span, b.count))
                               for mode, (layouts, fn) in saved.items()}
                except (TypeError, ValueError):
                    self.missing.append(b.target)
                    continue
                original.update(wrapped)
                self._restore.append(lambda table=original, saved=saved: table.update(saved))
                continue
            if b.kind == "factory":
                replacement = self._wrap_factory(original, b.span, b.count)
            else:
                replacement = self.wrap(original, b.span, b.count)
            setattr(owner, attr, replacement)
            self._restore.append(
                lambda owner=owner, attr=attr, original=original: setattr(owner, attr, original)
            )

    def uninstall(self):
        while self._restore:
            self._restore.pop()()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one tab-separated line (gzip)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\top\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{op}\n")


def leftover_wrappers(boundaries=BOUNDARIES):
    """Targets that still hold a span wrapper; empty after uninstall()."""
    left = []
    for b in boundaries:
        try:
            _, _, value = _resolve(b.target)
        except (ImportError, AttributeError):
            continue
        values = [fn for _, fn in value.values()] if b.kind == "modes" else [value]
        if any(hasattr(v, "bench_span") for v in values):
            left.append(b.target)
    return left


def self_times(spans):
    """Per-span self time: duration minus the durations of its children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(tracer: Tracer, op_seconds: float, untraced_seconds: float) -> dict:
    """Fold spans and counters into the named per-layer metrics.

    `op_seconds` is the traced wall time summed over ops; time inside an op
    but outside every root span (the benchmark's own per-op glue) is
    `trace.unattributed_s`, so the self-time metrics plus it add up to
    `op_seconds`.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    m = {name: 0.0 for name in sorted(set(SELF_TIME_METRIC.values()) | set(CALL_METRIC.values()))}
    inclusive = defaultdict(float)
    root_total = 0.0
    bound_spans = set()
    for i, (name, start, end, parent, _) in enumerate(spans):
        m[SELF_TIME_METRIC[name]] += selfs[i]
        if name in CALL_METRIC:
            m[CALL_METRIC[name]] += 1
        inclusive[name] += end - start
        if parent < 0:
            root_total += end - start
        if name == "analysis.bound":
            bound_spans.add(i)
    m["analysis.bound_probes"] = sum(
        1 for name, _, _, parent, _ in spans if name == "sampler.blend" and parent in bound_spans
    )
    c = tracer.counts
    for key in ("sampler.lookups", "sampler.blend_lookups", "texeval.points", "encoder.texels",
                "reference.points", "container.bytes", "analysis.csv_bytes",
                "analysis.render_pixels", "cli.nonzero_exits"):
        m[key] = c.get(key, 0.0)
    m["sampler.ns_per_lookup"] = (
        inclusive["sampler.fetch"] / m["sampler.lookups"] * 1e9 if m["sampler.lookups"] else 0.0
    )
    m["texeval.us_per_call"] = (
        inclusive["texeval"] / m["texeval.calls"] * 1e6 if m["texeval.calls"] else 0.0
    )
    m["reference.scalar_fallback_ratio"] = (
        c.get("reference.scalar_calls", 0.0) / m["reference.calls"] if m["reference.calls"] else 0.0
    )
    m["trace.unattributed_s"] = op_seconds - root_total
    m["trace.overhead_ratio"] = op_seconds / untraced_seconds
    m["trace.missing_boundaries"] = len(tracer.missing)
    return m


def accounted_share(metrics: dict, op_seconds: float) -> float:
    """Self-time metrics plus unattributed time, as a share of traced wall."""
    total = sum(metrics[k] for k in set(SELF_TIME_METRIC.values())) + metrics["trace.unattributed_s"]
    return total / op_seconds
