"""Workload table, set-up, child runs and output checks for the benchmark.

Every workload is a planted-partition (SBM) graph built from an explicit
``SbmParams`` and the run's seed. Set-up asserts that the sampled graph is
solvable: one connected component and no dropped vertices. Each clustering
output is checked against the planted partition with an adjusted Rand index
computed here, independently of ``specluster.metrics``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse.csgraph as csgraph

import specluster
from specluster.generate import SbmParams, sample_sbm
from specluster.graph import save_edge_list

# Files whose bytes are fixed for a fixed (input, seed, flags). meta.json
# holds the out path and timings.json holds wall times, so both are left out.
DIGESTED = ("labels.txt", "embedding.csv", "report.json")
ALL_OUTPUTS = DIGESTED + ("meta.json", "timings.json")

# pm_log_k projects the k cluster centroids onto ceil(log2 k) random
# directions, and an unlucky draw can crowd two of them together: single
# calls score down to ARI 0.97 on these workloads. The floor catches broken
# output; the ari metric tracks quality.
ARI_FLOOR = 0.9
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    k: int
    p: float
    q: float
    mode: str
    # Toy-size parameters for the self-check: same k and mode, small n.
    smoke_n: int
    smoke_p: float

    def sbm(self, seed: int, smoke: bool) -> SbmParams:
        if smoke:
            return SbmParams(n=self.smoke_n, k=self.k, p=self.smoke_p, q=1.0 / self.smoke_n, seed=seed)
        return SbmParams(n=self.n, k=self.k, p=self.p, q=self.q, seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        # k-means-heavy: l=6 columns but k=40 centres; also the parse-heavy case.
        Workload("sbm-k40", 40_000, 40, 0.04, 1.0 / 40_000, "pm_log_k", 4000, 0.3),
        # Power-method-heavy: l=2, t=93 steps over about 1M edges; k-means is minor.
        Workload("sbm-k4-dense", 40_000, 4, 0.005, 1.0 / 30_000, "pm_log_k", 1000, 0.5),
        # Eigensolver path: block QR + Rayleigh-Ritz, k-means in d=20, 20-column write.
        Workload("eigs-k20", 20_000, 20, 0.04, 1.0 / 20_000, "eigs_k", 800, 0.5),
    )
}


class SetupError(RuntimeError):
    """The workload cannot be built as a solvable instance."""


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def adjusted_rand(a: np.ndarray, b: np.ndarray) -> float:
    """Pair-counting adjusted Rand index of two labelings of the same items."""
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.bincount(ai * (bi.max() + 1) + bi).astype(np.float64)

    def pairs(counts: np.ndarray) -> float:
        return float((counts * (counts - 1.0) / 2.0).sum())

    both = pairs(table)
    row = pairs(np.bincount(ai).astype(np.float64))
    col = pairs(np.bincount(bi).astype(np.float64))
    expected = row * col / pairs(np.array([float(a.size)]))
    best = (row + col) / 2.0
    return 1.0 if best == expected else (both - expected) / (best - expected)


def read_labels(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.array([int(line) for line in fh if line.strip() and not line.startswith("#")])


@dataclass
class Prepared:
    """One set-up: the sampled graph, its planted labels and the input file."""

    graph: object
    planted: np.ndarray
    input_path: Path
    input_digest: str
    seconds: float


def prepare(w: Workload, seed: int, smoke: bool, input_path: Path, warm_up, sample=sample_sbm,
            save=save_edge_list) -> Prepared:
    """Sample, write the edge list, check solvability and warm up once.

    ``warm_up(graph, planted)`` runs one clustering call; the whole of this
    function is the workload's set-up time. ``sample`` and ``save`` let the
    traced run pass wrapped versions of the same functions.
    """
    params = w.sbm(seed, smoke)
    t0 = time.perf_counter()
    s = sample(params)
    save(s.graph, input_path)
    ncomp, _ = csgraph.connected_components(s.graph.adjacency_csr(), directed=False)
    if ncomp != 1 or s.dropped:
        raise SetupError(
            f"{w.name} seed {seed}: {ncomp} connected components and "
            f"{len(s.dropped)} dropped vertices; the workload must be one component"
        )
    warm_up(s.graph, s.planted.labels)
    seconds = time.perf_counter() - t0
    return Prepared(s.graph, s.planted.labels, input_path, sha256_file(input_path), seconds)


def child_env(root: Path) -> dict:
    """The parent's environment, which carries the pinned BLAS threads, plus ``src``."""
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def spawn(cmd: list[str], env: dict, stdout, stderr) -> tuple[int, float, object]:
    """Run ``cmd`` to completion; return (exit code, wall seconds, rusage)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, stderr=stderr)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


@dataclass
class ChildRun:
    wall_s: float
    peak_rss_mb: float
    ari: float
    digests: dict
    labels: np.ndarray | None
    error: str | None


def run_cluster_child(root: Path, w: Workload, prep: Prepared, seed: int, out: Path,
                      expected: dict | None) -> ChildRun:
    """One ``specluster cluster`` process, timed from launch to exit, then checked.

    ``expected`` holds the digests of an earlier run of the same invocation;
    any difference fails this run.
    """
    cmd = [sys.executable, "-m", "specluster.cli", "cluster", "--graph", str(prep.input_path),
           "--k", str(w.k), "--mode", w.mode, "--seed", str(seed), "--out", str(out)]
    err_path = out.with_suffix(".stderr")
    with open(err_path, "wb") as err:
        code, wall, usage = spawn(cmd, child_env(root), subprocess.DEVNULL, err)
    rss_mb = usage.ru_maxrss / 1024.0
    run = ChildRun(wall, rss_mb, float("nan"), {}, None, None)
    if code != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace")[-400:]
        run.error = f"exit code {code}: {tail.strip()}"
        return run
    check_outputs(run, out, prep, expected)
    return run


def check_outputs(run: ChildRun, out: Path, prep: Prepared, expected: dict | None) -> None:
    """Fill digests, labels and ARI of ``run`` from ``out``; set ``run.error`` on failure."""
    missing = [f for f in ALL_OUTPUTS if not (out / f).is_file()]
    if missing:
        run.error = f"missing outputs {missing}"
        return
    run.digests = {f: sha256_file(out / f) for f in DIGESTED}
    run.labels = read_labels(out / "labels.txt")
    if run.labels.size != prep.planted.size:
        run.error = f"labels.txt has {run.labels.size} lines for n={prep.planted.size}"
        return
    run.ari = adjusted_rand(run.labels, prep.planted)
    if run.ari < ARI_FLOOR:
        run.error = f"ARI {run.ari:.4f} below the floor {ARI_FLOOR}"
    elif expected is not None and run.digests != expected:
        run.error = f"output digests differ from the first run: {run.digests} vs {expected}"


def environment() -> dict:
    """Machine and library details that a timing depends on."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "ram_gib": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "specluster": specluster.__version__,
    }
