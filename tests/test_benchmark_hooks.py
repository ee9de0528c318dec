"""The benchmark's tracer still sees every call it counts.

``perfbench/tracing.py`` swaps names in the modules' namespaces for counting
wrappers. A refactor that stops calling through one of those names would make
``--trace 1`` report wrong counts without failing; these tests catch it. They
also check that every name ``perfbench/`` imports from the package still exists.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from specluster.cli import main
from specluster.graph import save_edge_list
from specluster.kmeans import lloyd
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


@pytest.mark.parametrize("mode", ["pm_log_k", "eigs_k"])
def test_traced_cluster_counts(tracing, tmp_path, mode):
    graph = tmp_path / "g.tsv"
    save_edge_list(disjoint_cliques(4, 6), graph)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert main(["cluster", "--graph", str(graph), "--k", "4", "--mode", mode,
                     "--seed", "0", "--out", str(tmp_path / "run")]) == 0
    for name in ("graph.load_edge_list", "pipeline.fast_spectral_cluster", "graph.save_labels",
                 "spectral.save_embedding", "metrics.partition_conductances",
                 "spectral.op_build", "kmeans.lloyd"):
        assert tracer.count(name) == 1, name
    result = tracer.last["pipeline.fast_spectral_cluster"]
    if mode == "pm_log_k":
        assert tracer.count("spectral.power_method") == 1
        assert tracer.count("spectral.matvec") == result.t
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
