"""The two kinds of benchmark run: end to end with tracing off, and traced.

Imported by ``run.py`` only after it has pinned BLAS threads and put the
checkout's ``src`` on the import path.
"""

from __future__ import annotations

import io
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

import specluster.cli
from specluster.generate import sample_sbm
from specluster.graph import save_edge_list
from specluster.kmeans import PointSet, kmeans_pp_seed
from specluster.pipeline import SpectralParams, fast_spectral_cluster
from specluster.spectral import SignlessLaplacianOp

import workloads
from tracing import EXACT, UNITS, Tracer, installed, layer_metrics

SETUP_REPEATS = 3
MIN_CHILDREN = 2
MIN_CALLS = 3
IMPORT_REPEATS = 3
PP_SEED_REPEATS = 3
# Share of --seconds given to child processes; in-process calls get the rest.
CHILD_SHARE = 0.5

E2E_UNITS = {"cluster_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB", "ari": "1", "setup_s": "s"}


def fits(durations: list[float], end: float) -> bool:
    """Whether one more step of the median observed duration ends by ``end``."""
    return time.perf_counter() + statistics.median(durations) <= end


class Bench:
    """One benchmark invocation: a workload, a seed and a scratch directory."""

    def __init__(self, root: Path, workload: workloads.Workload, seed: int, seconds: float,
                 smoke: bool, work: Path):
        self.root = root
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def cluster(self, graph, seed: int):
        return fast_spectral_cluster(graph, SpectralParams(k=self.w.k, mode=self.w.mode, seed=seed))

    def warm_up(self, graph, planted) -> None:
        a = workloads.adjusted_rand(self.cluster(graph, self.seed).partition.labels, planted)
        if a < workloads.ARI_FLOOR:
            raise workloads.SetupError(f"warm-up ARI {a:.4f} is below {workloads.ARI_FLOOR}")

    def prepare(self, **wrapped) -> workloads.Prepared:
        return workloads.prepare(self.w, self.seed, self.smoke, self.work / "input.tsv",
                                 self.warm_up, **wrapped)

    def attempt(self, error: str | None, what: str) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            self.errors.append(f"{what}: {error}")

    def child(self, prep: workloads.Prepared, tag: str, expected: dict | None) -> workloads.ChildRun:
        run = workloads.run_cluster_child(self.root, self.w, prep, self.seed, self.work / tag, expected)
        self.attempt(run.error, f"child {tag}")
        return run

    def timed_call(self, prep: workloads.Prepared, seed: int, child_labels) -> float:
        """One in-process pipeline call, checked; returns its wall seconds."""
        t0 = time.perf_counter()
        labels = self.cluster(prep.graph, seed).partition.labels
        seconds = time.perf_counter() - t0
        a = workloads.adjusted_rand(labels, prep.planted)
        error = None
        if a < workloads.ARI_FLOOR:
            error = f"ARI {a:.4f} below the floor {workloads.ARI_FLOOR}"
        elif seed == self.seed and child_labels is not None and not np.array_equal(labels, child_labels):
            error = "in-process labels differ from the child's labels.txt"
        self.attempt(error, f"pipeline seed {seed}")
        return seconds

    def details(self, **extra) -> dict:
        return {
            "workload": self.w.name,
            "seed": self.seed,
            "sbm": vars(self.w.sbm(self.seed, self.smoke)),
            "mode": self.w.mode,
            "environment": workloads.environment(),
            "error_rate": self.failed / max(self.attempted, 1),
            "errors": self.errors,
            **extra,
        }

    def end_to_end(self) -> tuple[dict, dict]:
        """Tracing off: set-up three times, then rounds of one child and in-process calls."""
        setups = [self.prepare() for _ in range(SETUP_REPEATS)]
        if len({s.input_digest for s in setups}) != 1:
            raise workloads.SetupError("the same seed wrote different input files")
        prep = setups[-1]

        # Rounds of one child and then in-process calls for about
        # (1 - CHILD_SHARE) / CHILD_SHARE of the child's time, so that both
        # metrics sample the whole run rather than one half of it each.
        # Each call uses its own clustering seed: the Lloyd sweep count varies
        # with the seed, and the median over several seeds is steadier than
        # any single one. The first call repeats the children's seed.
        end = time.perf_counter() + self.seconds
        children: list[workloads.ChildRun] = []
        calls: list[float] = []
        rounds: list[float] = []
        expected = child_labels = None

        def call() -> None:
            calls.append(self.timed_call(prep, self.seed + len(calls), child_labels))

        while len(children) < MIN_CHILDREN or fits(rounds, end):
            t0 = time.perf_counter()
            run = self.child(prep, f"out{len(children)}", expected)
            if expected is None and run.error is None:
                expected, child_labels = run.digests, run.labels
            children.append(run)
            calls_end = time.perf_counter() + run.wall_s * (1 - CHILD_SHARE) / CHILD_SHARE
            first = len(calls)
            while len(calls) == first or fits(calls[first:], calls_end):
                call()
            rounds.append(time.perf_counter() - t0)
        while len(calls) < MIN_CALLS:
            call()
        good = [c for c in children if c.error is None]

        metrics = {
            "cluster_s": statistics.median(c.wall_s for c in children),
            "pipeline_s": statistics.median(calls),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in children),
            "ari": statistics.median(c.ari for c in good) if good else 0.0,
            "setup_s": statistics.median(s.seconds for s in setups),
        }
        details = self.details(
            input_sha256=prep.input_digest,
            output_sha256=expected,
            samples={
                "cluster_s": [c.wall_s for c in children],
                "peak_rss_mb": [c.peak_rss_mb for c in children],
                "pipeline_s": calls,
                "pipeline_seeds": [self.seed + j for j in range(len(calls))],
                "setup_s": [s.seconds for s in setups],
            },
        )
        return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}, details

    def per_layer(self) -> tuple[dict, dict]:
        """Tracing on: ``cluster`` in process under spans, checked against an untraced child."""
        setup = Tracer()
        prep = self.prepare(sample=setup.wrap("generate.sample_sbm", sample_sbm),
                            save=setup.wrap("graph.save_edge_list", save_edge_list))
        start = time.perf_counter()
        ref = self.child(prep, "ref", None)
        import_ms = statistics.median(self.import_ms() for _ in range(IMPORT_REPEATS))

        # Each round pairs an untraced pipeline call with a traced invocation,
        # so the tracing overhead compares neighbouring measurements.
        argv = ["cluster", "--graph", str(prep.input_path), "--k", str(self.w.k),
                "--mode", self.w.mode, "--seed", str(self.seed)]
        rounds: list[tuple[dict, Tracer]] = []
        walls: list[float] = []
        untraced_ms: list[float] = []
        traced_digests = []
        while not rounds or fits(walls, start + self.seconds):
            t0 = time.perf_counter()
            untraced_ms.append(1e3 * self.timed_call(prep, self.seed, ref.labels))
            out = self.work / f"traced{len(rounds)}"
            tracer = Tracer()
            with installed(tracer), redirect_stdout(io.StringIO()):
                code = tracer.wrap("cli.cluster", specluster.cli.main)(argv + ["--out", str(out)])
            walls.append(time.perf_counter() - t0)
            if code != 0:
                raise RuntimeError(f"traced in-process cluster returned {code}")
            run = workloads.ChildRun(walls[-1], 0.0, float("nan"), {}, None, None)
            workloads.check_outputs(run, out, prep, ref.digests if ref.error is None else None)
            self.attempt(run.error, f"traced {out.name}")
            traced_digests.append(run.digests)
            rounds.append((layer_metrics(tracer, prep.graph, prep.input_path, out), tracer))
        for key in EXACT:
            seen = [m[key] for m, _ in rounds]
            if len(set(seen)) != 1:
                self.errors.append(f"{key} differs across traced runs: {seen}")

        embedding = PointSet(rounds[0][1].last["pipeline.fast_spectral_cluster"].embedding.data)
        pp_ms = []
        for _ in range(PP_SEED_REPEATS):
            t0 = time.perf_counter()
            kmeans_pp_seed(embedding, self.w.k, self.seed)
            pp_ms.append(1e3 * (time.perf_counter() - t0))

        metrics = {key: statistics.median(m[key] for m, _ in rounds) for key in rounds[0][0]}
        metrics.update({
            "cli.import_ms": import_ms,
            "generate.sample_sbm_ms": setup.total_ms("generate.sample_sbm"),
            "graph.save_edge_list_ms": setup.total_ms("graph.save_edge_list"),
            "kmeans.pp_seed_ms": statistics.median(pp_ms),
            "trace.pipeline_untraced_ms": statistics.median(untraced_ms),
        })
        metrics["trace.overhead_pct"] = 100.0 * (
            metrics["trace.pipeline_traced_ms"] / metrics["trace.pipeline_untraced_ms"] - 1.0)
        # Only the eigs_k workload runs the block eigensolver; elsewhere the
        # reference row is absent and reads 0.
        metrics.update(self.eigsh_reference(prep) if self.w.mode == "eigs_k"
                       else {"ref.eigsh_ms": 0.0, "ref.eigsh.max_residual": 0.0})
        details = self.details(
            input_sha256=prep.input_digest,
            output_sha256=ref.digests,
            traced_output_sha256=traced_digests,
            traced_rounds=len(rounds),
            spans=rounds[0][1].summary(),
        )
        return {k: {"value": float(metrics[k]), "unit": u} for k, u in UNITS.items()}, details

    def import_ms(self) -> float:
        """``import specluster.cli`` in a fresh interpreter, timed inside the child."""
        code = ("import time; t = time.perf_counter(); import specluster.cli; "
                "print((time.perf_counter() - t) * 1e3)")
        proc = subprocess.run([sys.executable, "-c", code], env=workloads.child_env(self.root),
                              capture_output=True, text=True, timeout=60, check=True)
        return float(proc.stdout)

    def eigsh_reference(self, prep: workloads.Prepared) -> dict:
        """ARPACK's top-k eigenpairs of M, the reference for the block eigensolver."""
        op = SignlessLaplacianOp(prep.graph)
        n = prep.graph.n
        lin = LinearOperator((n, n), matvec=op.matvec, matmat=op.matvec, dtype=np.float64)
        v0 = np.random.default_rng(self.seed).standard_normal(n)
        t0 = time.perf_counter()
        values, vectors = eigsh(lin, k=self.w.k, which="LA", tol=1e-8, v0=v0)
        ms = 1e3 * (time.perf_counter() - t0)
        residual = np.linalg.norm(op.matvec(vectors) - vectors * values, axis=0).max()
        return {"ref.eigsh_ms": ms, "ref.eigsh.max_residual": float(residual)}
