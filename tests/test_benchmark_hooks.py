"""The benchmark's tracer still sees every call it counts, and its gate holds.

``perfbench/tracing.py`` swaps names in the modules' namespaces for counting
wrappers. A refactor that stops calling through one of those names would make
``--trace 1`` report wrong counts without failing; these tests catch it. They
also check that every name ``perfbench/`` imports from the package still exists,
and run the benchmark's output check at a small size: a ``cluster`` child on
the written edge list must label the vertices as the in-process call on the
sampled graph does.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specluster.graph
from specluster.cli import main
from specluster.generate import SbmParams, sample_sbm
from specluster.graph import load_edge_list, load_labels, save_edge_list
from specluster.kmeans import lloyd
from specluster.pipeline import SpectralParams, fast_spectral_cluster
from tests.golden import BLAS_ENV
from tests.test_pipeline import disjoint_cliques

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
RESTARTS = inspect.signature(lloyd).parameters["restarts"].default


@pytest.fixture()
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec.loader.exec_module(module)
    return module


def test_every_patch_resolves(tracing):
    for module, attr, _ in tracing.PATCHES:
        owner, name = tracing._resolve(module, attr)
        assert name in owner.__dict__, f"{module}.{attr}"


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("mode", ["pm_log_k", "eigs_k"])
def test_traced_cluster_counts(tracing, tmp_path, mode, threads):
    # With two threads the restarts, and so the kmeans.* spans, run on pool
    # threads; the counts must not change.
    graph = tmp_path / "g.tsv"
    save_edge_list(disjoint_cliques(4, 6), graph)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert main(["cluster", "--graph", str(graph), "--k", "4", "--mode", mode,
                     "--seed", "0", "--threads", str(threads),
                     "--out", str(tmp_path / "run")]) == 0
    for name in ("graph.load_edge_list", "pipeline.fast_spectral_cluster", "graph.save_labels",
                 "spectral.save_embedding", "metrics.partition_conductances",
                 "spectral.op_build", "kmeans.lloyd"):
        assert tracer.count(name) == 1, name
    result = tracer.last["pipeline.fast_spectral_cluster"]
    if mode == "pm_log_k":
        # k = 4 gives l = 2 columns, inside the band [threads, 2 threads] at
        # one and two threads: each column is its own chain of t products.
        assert result.l == 2
        assert tracer.count("spectral.power_method") == 1
        assert tracer.count("spectral.matvec") == result.l * result.t
    else:
        assert tracer.count("spectral.eigs") == 1
        assert tracer.count("spectral.matvec") == result.eigs_iterations
    assert tracer.count("kmeans.pp_seed") == RESTARTS
    assert tracer.count("kmeans.cost") >= RESTARTS


def test_perfbench_imports_resolve():
    imported = [
        (node.module, alias.name)
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module
        and node.module.split(".")[0] == "specluster"
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


@pytest.mark.parametrize("k, mode", [(4, "pm_log_k"), (20, "eigs_k")])
def test_child_labels_match_in_process_call(tmp_path, monkeypatch, k, mode):
    # The benchmark fails a run whose child, which clusters the graph parsed
    # from the file, labels the vertices differently from the in-process
    # call on the sampled graph. So the parsed CSR must be the sampled one,
    # bit for bit and dtypes included, and it must come from the bulk path.
    sample = sample_sbm(SbmParams(n=5000, k=k, p=0.04, q=1.0 / 5000, seed=0))
    assert not sample.dropped
    path = tmp_path / "input.tsv"
    save_edge_list(sample.graph, path)

    real_bulk = specluster.graph._load_bulk
    bulk_rows = []

    def spy(p):
        table = real_bulk(p)
        bulk_rows.append(None if table is None else table.size)
        return table

    monkeypatch.setattr(specluster.graph, "_load_bulk", spy)
    parsed = load_edge_list(path)
    assert bulk_rows == [sample.graph.num_edges]
    assert parsed.id_map is None and parsed.num_dropped == 0
    for name in ("indptr", "indices", "data"):
        got, want = getattr(parsed.graph.adj, name), getattr(sample.graph.adj, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert np.array_equal(parsed.graph.degrees, sample.graph.degrees)

    out = tmp_path / "run"
    cmd = [sys.executable, "-m", "specluster.cli", "cluster", "--graph", str(path),
           "--k", str(k), "--mode", mode, "--seed", "0", "--out", str(out)]
    proc = subprocess.run(cmd, env={**os.environ, **BLAS_ENV}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    want = fast_spectral_cluster(sample.graph, SpectralParams(k=k, mode=mode, seed=0))
    assert np.array_equal(load_labels(out / "labels.txt"), want.partition.labels)
