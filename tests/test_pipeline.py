"""Pipeline dispatch, parameter derivation, cost-preservation harness."""

import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph

from specluster import kmeans, pipeline
from specluster.errors import InputError
from specluster.generate import SbmParams, sample_sbm
from specluster.graph import from_edges, save_edge_list
from specluster.kmeans import Partition, kmeans_cost
from specluster.metrics import ari
from specluster.pipeline import C3, SpectralParams, fast_spectral_cluster, worker_map
from specluster.spectral import (
    SignlessLaplacianOp,
    power_method,
    sample_gaussian_vectors,
)
from tests.oracles import kmeans_cost_preservation_check, partitions_into_k_parts


def disjoint_cliques(c, size):
    u = [size * b + i for b in range(c) for i in range(size) for _ in [0]]
    u, v = [], []
    for b in range(c):
        for i in range(size):
            for j in range(i + 1, size):
                u.append(size * b + i)
                v.append(size * b + j)
    g, _ = from_edges(c * size, u, v)
    return g


# ---------------------------------------------------------------------------
# parameter derivation


def test_default_l_and_t():
    p = SpectralParams(k=2)
    assert p.num_columns() == 1
    assert p.num_steps(1000) == math.ceil(10 * math.log(500))
    p = SpectralParams(k=20)
    assert p.num_columns() == 5
    assert p.num_steps(20_000) == math.ceil(10 * math.log(1000))
    # tiny n/k falls back to the floor inside the log
    assert SpectralParams(k=5).num_steps(6) == math.ceil(10 * math.log(2))


def test_epsilon_derived_l_and_t():
    p = SpectralParams(k=4, epsilon=0.5)
    assert p.num_columns() == 4  # ceil((2+1)/0.25) = 12, capped at k
    assert p.num_steps(200) == math.ceil(C3 * math.log(24 * 200 / (0.25 * 4)))
    assert SpectralParams(k=64, epsilon=1.0).num_columns() == 6


def test_mode_specific_column_counts():
    assert SpectralParams(k=20, mode="pm_k").num_columns() == 20
    assert SpectralParams(k=20, mode="eigs_k").num_columns() == 20
    assert SpectralParams(k=20, mode="eigs_log_k").num_columns() == 5
    assert SpectralParams(k=20, mode="eigs_log_k", epsilon=0.3).num_columns() == 5
    assert SpectralParams(k=20, mode="pm_k", l=7).num_columns() == 7


def test_params_validation():
    with pytest.raises(InputError):
        SpectralParams(k=1)
    with pytest.raises(InputError):
        SpectralParams(k=3, mode="nope")
    with pytest.raises(InputError):
        SpectralParams(k=3, epsilon=0.0)
    with pytest.raises(InputError):
        SpectralParams(k=3, epsilon=1.5)
    with pytest.raises(InputError):
        SpectralParams(k=3, l=0)
    with pytest.raises(InputError):
        SpectralParams(k=3, t=-1)
    with pytest.raises(InputError):
        SpectralParams(k=3, seed=-1)
    with pytest.raises(InputError):
        SpectralParams(k=3, threads=0)
    assert SpectralParams(k=3).threads == len(os.sched_getaffinity(0))


def test_pipeline_rejects_k_and_l_beyond_n():
    g = disjoint_cliques(2, 4)
    with pytest.raises(InputError, match="exceeds"):
        fast_spectral_cluster(g, SpectralParams(k=9))
    with pytest.raises(InputError, match="exceeds"):
        fast_spectral_cluster(g, SpectralParams(k=4, l=20))


# ---------------------------------------------------------------------------
# numpy's OpenBLAS held at one thread while a pool runs

_get_blas = pipeline._GET_BLAS_THREADS
_set_blas = pipeline._SET_BLAS_THREADS
needs_blas_count = pytest.mark.skipif(
    _get_blas is None, reason="numpy's BLAS exports no thread count")


@pytest.fixture
def two_blas_threads():
    before = _get_blas()
    _set_blas(2)
    yield
    _set_blas(before)


@needs_blas_count
def test_pool_holds_blas_at_one_thread_and_restores_it(two_blas_threads):
    with worker_map(2):
        assert _get_blas() == 1
        with worker_map(3):
            assert _get_blas() == 1
        assert _get_blas() == 1
    assert _get_blas() == 2
    with pytest.raises(RuntimeError, match="inside"):
        with worker_map(2):
            raise RuntimeError("inside")
    assert _get_blas() == 2


@needs_blas_count
def test_concurrent_pools_restore_blas_when_the_last_closes(two_blas_threads):
    # This thread's pool closes while another thread's is still open
    entered, release, seen = threading.Event(), threading.Event(), []

    def other():
        with worker_map(2):
            entered.set()
            release.wait()
            seen.append(_get_blas())

    runner = threading.Thread(target=other)
    with worker_map(2):
        runner.start()
        assert entered.wait(timeout=30)
    assert _get_blas() == 1
    release.set()
    runner.join(timeout=30)
    assert not runner.is_alive()
    assert seen == [1]
    assert _get_blas() == 2


@needs_blas_count
def test_one_thread_leaves_blas_alone(two_blas_threads):
    with worker_map(1):
        assert _get_blas() == 2


@needs_blas_count
def test_blas_pin_is_a_no_op_without_the_symbols(monkeypatch, two_blas_threads):
    monkeypatch.setattr(pipeline, "_GET_BLAS_THREADS", None)
    monkeypatch.setattr(pipeline, "_SET_BLAS_THREADS", None)
    with worker_map(2) as pmap:
        assert list(pmap(abs, [-1, 2])) == [1, 2]
        assert _get_blas() == 2
    assert _get_blas() == 2


@pytest.mark.parametrize("mode", ["eigs_k", "pm_log_k"])
def test_cluster_bytes_do_not_depend_on_blas_or_pool_threads(tmp_path, mode):
    graph = tmp_path / "g.tsv"
    save_edge_list(sample_sbm(SbmParams(n=600, k=6, p=0.1, q=0.005, seed=2)).graph, graph)
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    outputs = []
    for blas in (None, "1"):
        for threads in ("1", "2"):
            out = tmp_path / f"{blas}-{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "specluster.cli", "cluster", "--graph", str(graph),
                 "--k", "6", "--mode", mode, "--threads", threads, "--out", str(out)],
                env=env if blas is None else {**env, "OPENBLAS_NUM_THREADS": blas},
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out / name).read_bytes()
                            for name in ("labels.txt", "embedding.csv", "report.json")])
    assert all(got == outputs[0] for got in outputs[1:])


# ---------------------------------------------------------------------------
# clustering behavior


def test_recovers_disjoint_cliques():
    c, size = 3, 8
    g = disjoint_cliques(c, size)
    ncomp, comp_labels = csgraph.connected_components(g.adjacency_csr(), directed=False)
    assert ncomp == c
    truth = Partition(comp_labels.astype(np.int64), c)
    hits = 0
    for seed in range(100):
        res = fast_spectral_cluster(g, SpectralParams(k=c, seed=seed))
        if ari(res.partition, truth) == pytest.approx(1.0):
            hits += 1
    assert hits >= 95


def test_degenerate_k_equals_n():
    g = disjoint_cliques(2, 3)
    res = fast_spectral_cluster(g, SpectralParams(k=6, seed=0))
    assert sorted(res.partition.sizes().tolist()) == [1] * 6
    assert kmeans_cost(res.embedding.data, res.partition) == pytest.approx(0.0, abs=1e-18)


def test_all_modes_recover_small_sbm():
    sample = sample_sbm(SbmParams(n=400, k=4, p=0.3, q=0.01, seed=3))
    for mode in ("pm_log_k", "pm_k", "eigs_k", "eigs_log_k"):
        res = fast_spectral_cluster(sample.graph, SpectralParams(k=4, mode=mode, seed=3))
        score = ari(res.partition, sample.planted)
        assert score >= 0.9, f"mode {mode} got ARI {score}"
        assert res.mode == mode


def test_timings_present_and_consistent():
    sample = sample_sbm(SbmParams(n=200, k=2, p=0.2, q=0.01, seed=0))
    res = fast_spectral_cluster(sample.graph, SpectralParams(k=2, seed=0))
    assert set(res.timings) == {"embed", "scale", "kmeans", "total"}
    assert all(v >= 0 for v in res.timings.values())
    parts = res.timings["embed"] + res.timings["scale"] + res.timings["kmeans"]
    assert res.timings["total"] == pytest.approx(parts, rel=1e-9)


def test_eigs_mode_reports_convergence():
    sample = sample_sbm(SbmParams(n=120, k=3, p=0.4, q=0.02, seed=1))
    res = fast_spectral_cluster(sample.graph, SpectralParams(k=3, mode="eigs_k", seed=1))
    assert res.eigs_converged is True
    assert res.eigs_iterations >= 1
    pm = fast_spectral_cluster(sample.graph, SpectralParams(k=3, seed=1))
    assert pm.eigs_converged is None


def test_degree_scaling_applied_entrywise():
    sample = sample_sbm(SbmParams(n=150, k=3, p=0.3, q=0.02, seed=2))
    g = sample.graph
    params = SpectralParams(k=3, seed=5)
    res = fast_spectral_cluster(g, params)
    op = SignlessLaplacianOp(g)
    raw = power_method(
        op, sample_gaussian_vectors(g.n, params.num_columns(), 5).data,
        params.num_steps(g.n),
    )
    expected = raw / np.sqrt(g.degrees)[:, None]
    assert np.abs(res.embedding.data - expected).max() <= 1e-12
    assert res.embedding.scaled


def test_pipeline_deterministic():
    sample = sample_sbm(SbmParams(n=200, k=4, p=0.3, q=0.02, seed=4))
    a = fast_spectral_cluster(sample.graph, SpectralParams(k=4, seed=8))
    b = fast_spectral_cluster(sample.graph, SpectralParams(k=4, seed=8))
    assert np.array_equal(a.partition.labels, b.partition.labels)
    assert np.array_equal(a.embedding.data, b.embedding.data)


@pytest.mark.parametrize("mode", ["pm_log_k", "eigs_k"])
def test_one_thread_starts_no_thread(monkeypatch, mode):
    # With threads=1 the steps and the restarts run on the calling thread;
    # with two, on pool threads that the call starts and joins.
    seen = []
    real_matvec, real_cost = SignlessLaplacianOp.matvec, kmeans.kmeans_cost

    def matvec(self, x):
        seen.append(threading.active_count())
        return real_matvec(self, x)

    def cost(points, part, means=None):
        seen.append(threading.active_count())
        return real_cost(points, part, means)

    monkeypatch.setattr(SignlessLaplacianOp, "matvec", matvec)
    monkeypatch.setattr(kmeans, "kmeans_cost", cost)
    sample = sample_sbm(SbmParams(n=200, k=4, p=0.3, q=0.02, seed=4))
    before = threading.active_count()
    fast_spectral_cluster(sample.graph, SpectralParams(k=4, mode=mode, threads=1))
    assert seen and set(seen) == {before}
    seen.clear()
    fast_spectral_cluster(sample.graph, SpectralParams(k=4, mode=mode, threads=2))
    assert max(seen) > before
    assert threading.active_count() == before


@pytest.mark.parametrize("mode, k, threads", [
    pytest.param("pm_log_k", 7, 8, id="pm_log_k"),
    pytest.param("pm_k", 7, 8, id="pm_k"),
    pytest.param("eigs_k", 7, 8, id="eigs_k"),
    # l inside the band [threads, 2 threads]: one power chain per column
    pytest.param("pm_k", 8, 8, id="pm_k-chains"),
    pytest.param("pm_log_k", 4, 2, id="pm_log_k-chains"),
])
def test_more_threads_than_cores_change_no_bit(mode, k, threads):
    # More workers than cores with a thread switch forced every microsecond:
    # a lost or misplaced row or column write, or a restart reading
    # another's arrays, would show.
    sample = sample_sbm(SbmParams(n=1001, k=7, p=0.05, q=0.002, seed=1))
    want = fast_spectral_cluster(sample.graph, SpectralParams(k=k, mode=mode, threads=1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = fast_spectral_cluster(sample.graph, SpectralParams(k=k, mode=mode, threads=threads))
    finally:
        sys.setswitchinterval(interval)
    assert got.embedding.data.tobytes() == want.embedding.data.tobytes()
    assert np.array_equal(got.partition.labels, want.partition.labels)


def test_span_equal_embeddings_agree_on_exhaustive_argmin():
    # two disjoint K5's: after deep power iteration the scaled rows are
    # constant per component, so any invertible column mix preserves the
    # exhaustive k-means argmin over all 2-part partitions
    g = disjoint_cliques(2, 5)
    k = 2
    seed = 1
    op = SignlessLaplacianOp(g)
    raw = power_method(op, sample_gaussian_vectors(g.n, k, seed).data, 30)
    plain = raw / np.sqrt(g.degrees)[:, None]
    res_orth = fast_spectral_cluster(g, SpectralParams(k=k, mode="pm_k", t=30, seed=seed))

    def exhaustive_argmin(points):
        best, best_labels = math.inf, None
        for labels in partitions_into_k_parts(g.n, k):
            cost = kmeans_cost(points, Partition(labels, k))
            if cost < best - 1e-15:
                best, best_labels = cost, labels
        return best_labels

    a = exhaustive_argmin(plain)
    b = exhaustive_argmin(res_orth.embedding.data)
    assert ari(a, b) == pytest.approx(1.0)
    # and both find the components
    _, comp = csgraph.connected_components(g.adjacency_csr(), directed=False)
    assert ari(a, comp.astype(np.int64)) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# cost-preservation harness


def test_harness_hand_derived_widths():
    sample = sample_sbm(SbmParams(n=200, k=4, p=0.5, q=0.01, seed=0))
    rep = kmeans_cost_preservation_check(
        sample.graph, 4, 0.5, trials=5, seed=0, planted=sample.planted
    )
    assert rep.l_jl == 12  # ceil((log2 4 + log2 2) / 0.25)
    assert rep.t == math.ceil(C3 * math.log(24 * sample.graph.n / (0.25 * 4)))
    assert rep.additive_bound == pytest.approx(2.0)
    assert rep.partitions_checked == 6


def test_harness_bounds_hold_on_a_few_seeds():
    for seed in range(5):
        sample = sample_sbm(SbmParams(n=200, k=4, p=0.5, q=0.01, seed=seed))
        rep = kmeans_cost_preservation_check(
            sample.graph, 4, 0.5, trials=10, seed=seed, planted=sample.planted
        )
        assert math.isfinite(rep.planted_mult_ratio)
        assert rep.planted_mult_ok, f"seed {seed}: ratio {rep.planted_mult_ratio}"
        assert rep.additive_ok, f"seed {seed}: fro dev {rep.fro_additive_dev}"
        # the sqrt-cost deviation is dominated by the Frobenius distance
        assert rep.max_sqrt_cost_dev <= rep.fro_additive_dev + 1e-9


def test_harness_self_comparison_is_exact_zero():
    # two identical point sets give identical costs, so the additive chain
    # collapses to zero deviation
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((30, 4))
    part = Partition(rng.integers(0, 3, size=30), 3)
    assert kmeans_cost(pts, part) - kmeans_cost(pts.copy(), part) == 0.0


def test_harness_refuses_large_n_and_bad_params():
    sample = sample_sbm(SbmParams(n=400, k=4, p=0.3, q=0.01, seed=0))
    with pytest.raises(InputError, match="refuses"):
        kmeans_cost_preservation_check(sample.graph, 4, 0.5, trials=1, seed=0)
    small = sample_sbm(SbmParams(n=100, k=2, p=0.5, q=0.02, seed=0))
    with pytest.raises(InputError):
        kmeans_cost_preservation_check(small.graph, 2, 1.5, trials=1, seed=0)
