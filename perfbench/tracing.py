"""Spans around the calls into each specluster module, recorded from outside.

``installed(tracer)`` swaps names in the modules' namespaces for wrappers
that record a span (name, start, end, parent) per call and restores them on
exit. Nothing in ``src/`` changes: the wrappers call the original objects
with the original arguments and return their results untouched. The span
name's first dotted part is the layer: cli, graph, generate, spectral,
kmeans, pipeline or metrics.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

# (module, attribute or Class.attribute, span name). lloyd calls kmeans_cost
# once per sweep, so its call count is the exact sweep count; it calls
# _kmeans_pp_indices once per restart.
PATCHES = (
    ("specluster.cli", "load_edge_list", "graph.load_edge_list"),
    ("specluster.cli", "fast_spectral_cluster", "pipeline.fast_spectral_cluster"),
    ("specluster.cli", "save_labels", "graph.save_labels"),
    ("specluster.cli", "save_embedding", "spectral.save_embedding"),
    ("specluster.cli", "partition_conductances", "metrics.partition_conductances"),
    ("specluster.pipeline", "SignlessLaplacianOp", "spectral.op_build"),
    ("specluster.pipeline", "sample_gaussian_vectors", "spectral.sample_gaussian"),
    ("specluster.pipeline", "power_method", "spectral.power_method"),
    ("specluster.pipeline", "subspace_iteration_eigs", "spectral.eigs"),
    ("specluster.pipeline", "lloyd", "kmeans.lloyd"),
    ("specluster.spectral", "SignlessLaplacianOp.matvec", "spectral.matvec"),
    ("specluster.kmeans", "kmeans_cost", "kmeans.cost"),
    ("specluster.kmeans", "_kmeans_pp_indices", "kmeans.pp_seed"),
)

# Layers reported with a self time. The kmeans and metrics spans nest only
# inside their own layer, so their self time equals their top span's total.
SELF_TIMED = ("cli", "graph", "spectral", "pipeline")

UNITS = {
    "cli.import_ms": "ms",
    "cli.self_ms": "ms",
    "graph.load_edge_list_ms": "ms",
    "graph.load_edge_list.edges": "count",
    "graph.input_bytes": "bytes",
    "graph.save_labels_ms": "ms",
    "graph.save_edge_list_ms": "ms",
    "graph.self_ms": "ms",
    "generate.sample_sbm_ms": "ms",
    "spectral.op_build_ms": "ms",
    "spectral.sample_gaussian_ms": "ms",
    "spectral.power_method_ms": "ms",
    "spectral.matvec.calls": "count",
    "spectral.matvec_ms_per_call": "ms",
    "spectral.matvec.flops_computed": "flop",
    "spectral.matvec.bytes_computed": "bytes",
    "spectral.eigs_ms": "ms",
    "spectral.eigs.iterations": "count",
    "spectral.eigs.max_residual": "1",
    "spectral.save_embedding_ms": "ms",
    "spectral.embedding_bytes": "bytes",
    "spectral.self_ms": "ms",
    "kmeans.lloyd_ms": "ms",
    "kmeans.sweeps": "count",
    "kmeans.ms_per_sweep": "ms",
    "kmeans.pp_seed_ms": "ms",
    "pipeline.embed_ms": "ms",
    "pipeline.scale_ms": "ms",
    "pipeline.kmeans_ms": "ms",
    "pipeline.self_ms": "ms",
    "metrics.partition_conductances_ms": "ms",
    "ref.eigsh_ms": "ms",
    "ref.eigsh.max_residual": "1",
    "trace.pipeline_traced_ms": "ms",
    "trace.pipeline_untraced_ms": "ms",
    "trace.overhead_pct": "%",
}

# Counts that must repeat exactly across traced invocations of one input.
EXACT = ("graph.load_edge_list.edges", "spectral.matvec.calls", "spectral.eigs.iterations",
         "kmeans.sweeps")


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None  # index into Tracer.spans

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Tracer:
    """In-memory span list plus the last result of each traced call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.last: dict[str, object] = {}
        self.matvec_columns = 0
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter_ns(), 0, self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._open.pop()
            if name == "spectral.matvec":
                x = args[1]
                self.matvec_columns += 1 if x.ndim == 1 else x.shape[1]
            else:
                self.last[name] = result
            return result

        return traced

    def total_ms(self, name: str) -> float:
        return sum(s.ms for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_ms(self) -> list[float]:
        own = [s.ms for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.ms
        return own

    def summary(self) -> dict:
        """Per span name: calls, total and self milliseconds, parent span name."""
        own = self.self_ms()
        out: dict = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        for s, self_ms in zip(self.spans, own):
            row = out[s.name]
            row["calls"] += 1
            row["total_ms"] += s.ms
            row["self_ms"] += self_ms
            row["parent"] = None if s.parent is None else self.spans[s.parent].name
        return dict(out)


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


@contextmanager
def installed(tracer: Tracer):
    saved = []
    try:
        for module, attr, name in PATCHES:
            owner, attr = _resolve(module, attr)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def matvec_work(graph, calls: int, columns: int) -> tuple[float, float]:
    """Computed flops and bytes of ``calls`` applications of M to ``columns`` columns in all.

    M X = X/2 + S (A (S X)) / 2 with S = D^{-1/2}. Flops: 2 per stored entry
    of A per column, plus 5 elementwise operations per entry of X. Bytes:
    per call, the CSR arrays (float64 values, int32 indices) and S twice;
    per column, 13 reads or writes of the 8-byte n-vector temporaries.
    Computed from array sizes, not measured, so cache reuse is ignored.
    """
    nnz, n = graph.col_indices.size, graph.n
    flops = columns * (2.0 * nnz + 5.0 * n)
    moved = calls * (12.0 * nnz + 4.0 * (n + 1) + 16.0 * n) + columns * 13.0 * 8 * n
    return flops, moved


def layer_metrics(tracer: Tracer, graph, input_path: Path, out: Path) -> dict:
    """Per-layer numbers of one traced ``cluster`` invocation."""
    calls = tracer.count("spectral.matvec")
    flops, moved = matvec_work(graph, calls, tracer.matvec_columns)
    sweeps = tracer.count("kmeans.cost")
    lloyd_ms = tracer.total_ms("kmeans.lloyd")
    eigs = tracer.last.get("spectral.eigs")
    result = tracer.last["pipeline.fast_spectral_cluster"]
    own = tracer.self_ms()
    layer_self = defaultdict(float)
    for s, ms in zip(tracer.spans, own):
        layer_self[s.name.split(".", 1)[0]] += ms
    metrics = {
        "graph.load_edge_list_ms": tracer.total_ms("graph.load_edge_list"),
        "graph.load_edge_list.edges": tracer.last["graph.load_edge_list"].graph.num_edges,
        "graph.input_bytes": os.path.getsize(input_path),
        "graph.save_labels_ms": tracer.total_ms("graph.save_labels"),
        "spectral.op_build_ms": tracer.total_ms("spectral.op_build"),
        "spectral.sample_gaussian_ms": tracer.total_ms("spectral.sample_gaussian"),
        "spectral.power_method_ms": tracer.total_ms("spectral.power_method"),
        "spectral.matvec.calls": calls,
        "spectral.matvec_ms_per_call": tracer.total_ms("spectral.matvec") / calls if calls else 0.0,
        "spectral.matvec.flops_computed": flops,
        "spectral.matvec.bytes_computed": moved,
        "spectral.eigs_ms": tracer.total_ms("spectral.eigs"),
        "spectral.eigs.iterations": eigs.iterations if eigs is not None else 0,
        "spectral.eigs.max_residual": float(eigs.residuals.max()) if eigs is not None else 0.0,
        "spectral.save_embedding_ms": tracer.total_ms("spectral.save_embedding"),
        "spectral.embedding_bytes": os.path.getsize(out / "embedding.csv"),
        "kmeans.lloyd_ms": lloyd_ms,
        "kmeans.sweeps": sweeps,
        "kmeans.ms_per_sweep": (lloyd_ms - tracer.total_ms("kmeans.pp_seed")) / sweeps,
        "pipeline.embed_ms": result.timings["embed"],
        "pipeline.scale_ms": result.timings["scale"],
        "pipeline.kmeans_ms": result.timings["kmeans"],
        "metrics.partition_conductances_ms": tracer.total_ms("metrics.partition_conductances"),
        "trace.pipeline_traced_ms": tracer.total_ms("pipeline.fast_spectral_cluster"),
    }
    metrics.update({f"{layer}.self_ms": layer_self[layer] for layer in SELF_TIMED})
    return metrics
