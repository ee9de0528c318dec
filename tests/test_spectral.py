"""Operator action, power method, Gaussian sampling, eigensolver, embeddings."""

import math
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from specluster import spectral
from specluster.errors import GraphFormatError, InputError, RankDeficiencyError
from specluster.generate import SbmParams, sample_sbm
from specluster.graph import from_edges
from specluster.pipeline import worker_map
from specluster.spectral import (
    EmbeddingMatrix,
    SignlessLaplacianOp,
    _qr,
    pm_k_orthonormal_vectors,
    power_method,
    sample_gaussian_vectors,
    save_embedding,
    subspace_iteration_eigs,
)
from tests.oracles import (
    apply_m,
    dense_signless_laplacian,
    load_embedding,
    pm_k_orthonormal_vectors_reference,
    random_graph,
    subspace_iteration_eigs_reference,
    synthetic_operator,
)


def single_edge_op():
    g, _ = from_edges(2, [0], [1])
    return SignlessLaplacianOp(g)


# ---------------------------------------------------------------------------
# apply_m


def test_apply_m_single_edge():
    y = apply_m(single_edge_op(), np.array([1.0, 0.0]))
    assert y == pytest.approx([0.5, 0.5], abs=1e-15)


def test_apply_m_stationary_direction():
    rng = np.random.default_rng(0)
    for _ in range(5):
        g = random_graph(rng, int(rng.integers(3, 20)), 0.5, weighted=True)
        op = SignlessLaplacianOp(g)
        x = np.sqrt(g.degrees)
        assert apply_m(op, x) == pytest.approx(x, rel=1e-12)


def test_apply_m_matches_dense_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = random_graph(rng, 10, 0.5, weighted=True)
        op = SignlessLaplacianOp(g)
        # independent dense route: build M entrywise from the adjacency
        a = g.adjacency_csr().toarray()
        d = a.sum(axis=1)
        m = 0.5 * (np.eye(g.n) + a / np.sqrt(np.outer(d, d)))
        x = rng.standard_normal(g.n)
        assert apply_m(op, x) == pytest.approx(m @ x, abs=1e-10)
        assert dense_signless_laplacian(g) == pytest.approx(m, abs=1e-12)


def test_apply_m_block_equals_per_column():
    rng = np.random.default_rng(2)
    g = random_graph(rng, 25, 0.3)
    op = SignlessLaplacianOp(g)
    x = rng.standard_normal((g.n, 4))
    block = apply_m(op, x)
    for j in range(4):
        assert np.array_equal(block[:, j], apply_m(op, x[:, j]))


def test_apply_m_positivity_and_nonexpansion():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(4, 30)), 0.4, weighted=True)
        op = SignlessLaplacianOp(g)
        x = np.abs(rng.standard_normal(g.n))
        assert np.all(apply_m(op, x) >= 0)
        y = rng.standard_normal(g.n)
        assert np.linalg.norm(apply_m(op, y)) <= np.linalg.norm(y) * (1 + 1e-12)


def test_apply_m_length_mismatch():
    with pytest.raises(InputError, match="rows"):
        apply_m(single_edge_op(), np.zeros(3))


def test_operator_reads_the_graph_in_place():
    # Every row block's data and indices are views of the graph's arrays,
    # before and after a product, and the blocks tile the rows in order.
    g = random_graph(np.random.default_rng(4), 30, 0.3, weighted=True)
    for parts in (1, 2, 3, 40):
        op = SignlessLaplacianOp(g, parts)
        op @ np.ones((g.n, 2))
        assert 1 <= len(op._blocks) <= min(parts, g.n)
        assert [b[0] for b in op._blocks] == [0] + [b[1] for b in op._blocks[:-1]]
        assert op._blocks[-1][1] == g.n
        for _, _, rows in op._blocks:
            assert np.shares_memory(rows.indices, g.col_indices)
            assert np.shares_memory(rows.data, g.weights)


# ---------------------------------------------------------------------------
# power method


def test_power_method_zero_steps_identity():
    op = single_edge_op()
    x0 = np.array([2.0, -3.0])
    assert np.array_equal(power_method(op, x0, 0), x0)


def test_power_method_single_edge_projects():
    # eigenvalues {1, 0}: one step already lands on the projection
    x3 = power_method(single_edge_op(), np.array([1.0, 0.0]), 3)
    assert x3 == pytest.approx([0.5, 0.5], abs=1e-15)


def test_power_method_matches_dense_eigendecomposition():
    rng = np.random.default_rng(4)
    for _ in range(5):
        g = random_graph(rng, 12, 0.5, weighted=True)
        op = SignlessLaplacianOp(g)
        evals, evecs = np.linalg.eigh(dense_signless_laplacian(g))
        x0 = rng.standard_normal(g.n)
        oracle = evecs @ (evals**5 * (evecs.T @ x0))
        assert power_method(op, x0, 5) == pytest.approx(oracle, abs=1e-9)


def test_power_method_composition():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 15, 0.4)
    op = SignlessLaplacianOp(g)
    x0 = rng.standard_normal(g.n)
    once = power_method(op, x0, 7)
    split = power_method(op, power_method(op, x0, 3), 4)
    assert np.array_equal(once, split)


def test_power_method_accepts_dense_operator():
    m = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert power_method(m, np.array([1.0, 0.0]), 2) == pytest.approx([0.5, 0.5])
    with pytest.raises(InputError, match=">= 0"):
        power_method(m, np.array([1.0, 0.0]), -1)


# ---------------------------------------------------------------------------
# Gaussian sampling


def test_gaussian_vectors_deterministic_and_prefix_stable():
    a = sample_gaussian_vectors(50, 4, seed=9)
    b = sample_gaussian_vectors(50, 4, seed=9)
    assert np.array_equal(a.data, b.data)
    wider = sample_gaussian_vectors(50, 6, seed=9)
    assert np.array_equal(wider.data[:, :4], a.data)
    assert not np.array_equal(sample_gaussian_vectors(50, 4, seed=10).data, a.data)
    assert not a.scaled and a.seed == 9


def test_gaussian_vectors_moments():
    n = 10_000
    passed = 0
    for seed in range(20):
        x = sample_gaussian_vectors(n, 1, seed=seed).data[:, 0]
        if abs(x.mean()) <= 0.05 and abs(x.var() - 1.0) <= 0.05:
            passed += 1
    assert passed >= 18


def test_gaussian_vectors_chi_square_concentration():
    n = 10_000
    for seed in range(5):
        x = sample_gaussian_vectors(n, 1, seed=seed).data[:, 0]
        assert 0.9 <= np.dot(x, x) / n <= 1.1


def test_gaussian_vectors_input_validation():
    with pytest.raises(InputError):
        sample_gaussian_vectors(0, 1, seed=0)
    with pytest.raises(InputError):
        sample_gaussian_vectors(5, 0, seed=0)
    with pytest.raises(InputError, match="seed"):
        sample_gaussian_vectors(5, 1, seed=-3)


# ---------------------------------------------------------------------------
# spectrum bounds


def test_spectrum_in_unit_interval_and_top_value():
    import scipy.sparse.csgraph as csgraph

    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(3, 40))
        g = random_graph(rng, n, float(rng.uniform(0.15, 0.6)), weighted=bool(rng.integers(2)))
        evals = np.linalg.eigvalsh(dense_signless_laplacian(g))
        assert evals.min() >= -1e-10
        assert evals.max() <= 1 + 1e-10
        ncomp, _ = csgraph.connected_components(g.adjacency_csr(), directed=False)
        if ncomp == 1:
            assert abs(evals.max() - 1.0) <= 1e-10
        # multiplicity of eigenvalue 1 equals the number of components
        assert int((evals > 1 - 1e-8).sum()) == ncomp


# ---------------------------------------------------------------------------
# QR through LAPACK


def _qr_block(rng, n, k, kind):
    b = rng.standard_normal((n, k))
    if kind == "graded":
        return b * 10.0 ** -np.arange(k)
    if kind == "near-dependent":
        return b[:, :1] + 1e-10 * b
    return b


@pytest.mark.parametrize("kind", ["gaussian", "graded", "near-dependent"])
@pytest.mark.parametrize("n", [3, 50, 1201, 20000])
def test_qr_is_bitwise_numpy_qr(n, kind):
    rng = np.random.default_rng([n, len(kind)])
    # LAPACK's block is 32 columns, and dgeqrf runs blocked only past 128
    # columns, where the workspace size decides the block; 160 checks it
    for k in (1, 2, 20, 33, 65, 160):
        if k > n:
            continue
        b = _qr_block(rng, n, k, kind)
        before = b.copy()
        q, r = _qr(b)
        q_ref, r_ref = np.linalg.qr(b)
        assert np.array_equal(q, q_ref), (n, k)
        assert np.array_equal(r, r_ref), (n, k)
        # an (n, 1) block is both C- and F-contiguous, so an in-place
        # factorization would write into the caller's array
        assert np.array_equal(b, before), (n, k)


def test_qr_of_a_square_block_is_bitwise_numpy_qr():
    b = np.random.default_rng(21).standard_normal((40, 40))
    q, r = _qr(b)
    q_ref, r_ref = np.linalg.qr(b)
    assert np.array_equal(q, q_ref)
    assert np.array_equal(r, r_ref)


def test_qr_rejects_more_columns_than_rows():
    with pytest.raises(InputError, match="2 x 3"):
        _qr(np.ones((2, 3)))


@pytest.mark.parametrize("kind", ["gaussian", "graded", "near-dependent"])
@pytest.mark.parametrize("n", [3, 50, 1201, 20000])
def test_lapack_lite_fallback_is_bitwise_the_ctypes_routines(monkeypatch, n, kind):
    # Where numpy's OpenBLAS exports no scipy_*_64_ symbols, _lapack runs
    # the same routines through lapack_lite; both must give the same bits.
    through_ctypes = spectral._ctypes_routines()
    if through_ctypes is None:
        pytest.skip("numpy's OpenBLAS exports no scipy_dgeqrf_64_")
    through_lite = spectral._lapack_lite_routines()
    rng = np.random.default_rng([n, len(kind)])
    for k in (1, 2, 20, 33, 65, 160):
        if k > n:
            continue
        b = _qr_block(rng, n, k, kind)
        monkeypatch.setattr(spectral, "_ROUTINES", through_ctypes)
        q, r = _qr(b)
        monkeypatch.setattr(spectral, "_ROUTINES", through_lite)
        q_lite, r_lite = _qr(b)
        assert np.array_equal(q, q_lite), (n, k)
        assert np.array_equal(r, r_lite), (n, k)


_BAD_LDA = """
import numpy as np
from specluster.errors import SpeclusterError
from specluster.spectral import _lapack
a = np.ones((3, 5))  # a 5 x 3 block, column-major, with lda = 4 < 5
try:
    _lapack("dgeqrf", 5, 3, a, 4, np.empty(3))
except SpeclusterError as error:
    print(__debug__, error)
"""


def test_lapack_error_names_routine_and_info_under_python_O():
    proc = subprocess.run([sys.executable, "-O", "-c", _BAD_LDA],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # OpenBLAS's own parameter report may come first on stdout
    assert proc.stdout.splitlines()[-1] == "False LAPACK dgeqrf returned info=-4"


def _frozen_solver_graphs():
    rng = np.random.default_rng(22)
    for i in range(10):
        yield random_graph(rng, 20 + 4 * i, 0.15 + 0.03 * i, weighted=i % 2 == 1)


@pytest.fixture
def frequent_switches():
    # switch threads every microsecond, so that the two tasks of a sweep
    # interleave as finely as the interpreter lets them
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_eigs_matches_frozen_solver_bitwise(threads, frequent_switches):
    with worker_map(threads) as pmap:
        for i, g in enumerate(_frozen_solver_graphs()):
            op = SignlessLaplacianOp(g, threads, pmap)
            k = 2 + i % 5
            for iters in (0, 3, 300):
                got = subspace_iteration_eigs(op, k, iters=iters, seed=i)
                ref = subspace_iteration_eigs_reference(op, k, iters=iters, seed=i)
                assert np.array_equal(got.values, ref.values), (i, iters)
                assert np.array_equal(got.residuals, ref.residuals), (i, iters)
                assert np.array_equal(got.vectors.data, ref.vectors.data), (i, iters)
                assert (got.iterations, got.converged) == (ref.iterations, ref.converged)
                if iters == 3:
                    assert (got.iterations, got.converged) == (3, False)


def test_eigs_sweep_tasks_allocate_no_block():
    # Every n x k array of a sweep is the caller's; a task that allocated
    # one would leave it in a pool thread's malloc arena.
    n, k = 2000, 12
    peaks = {}

    def traced_map(fn, items):
        for item in items:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            result = fn(item)
            if callable(item):  # a sweep task, not a row range of M X
                name = item.__name__
                peaks[name] = max(peaks.get(name, 0), tracemalloc.get_traced_memory()[1] - start)
            yield result

    op = SignlessLaplacianOp(random_graph(np.random.default_rng(26), n, 0.006), 1, traced_map)
    tracemalloc.start()
    try:
        res = subspace_iteration_eigs(op, k, iters=5, seed=0)
    finally:
        tracemalloc.stop()
    assert res.iterations == 5
    assert set(peaks) == {"ritz_step", "factor"}
    assert max(peaks.values()) < n * k * 8 // 4, peaks


@pytest.mark.parametrize("threads", [1, 2])
def test_eigs_runs_no_qr_after_the_converged_sweep_under_the_builtin_map(
        monkeypatch, threads):
    calls = []
    real = spectral._lapack

    def counted(name, *args):
        calls.append(name)
        real(name, *args)

    g = sample_sbm(SbmParams(n=300, k=4, p=0.3, q=0.01, seed=1)).graph
    with worker_map(threads) as pmap:
        op = SignlessLaplacianOp(g, threads, pmap)
        want = subspace_iteration_eigs(op, 4, seed=3)
        monkeypatch.setattr(spectral, "_lapack", counted)
        got = subspace_iteration_eigs(op, 4, seed=3)
    assert want.converged and got.iterations == want.iterations
    assert got.vectors.data.tobytes() == want.vectors.data.tobytes()
    # The first QR is the initial basis. The builtin map never starts the
    # converged sweep's QR; the pool runs it beside the Ritz step.
    sweeps = want.iterations
    assert calls.count("dgeqrf") - 1 == (sweeps - 1 if threads == 1 else sweeps)


@pytest.mark.parametrize("threads", [1, 2])
def test_pm_k_matches_frozen_orthonormalization_bitwise(threads):
    with worker_map(threads) as pmap:
        for i, g in enumerate(_frozen_solver_graphs()):
            op = SignlessLaplacianOp(g, threads, pmap)
            k, t = 2 + i % 5, 3 + i
            got = pm_k_orthonormal_vectors(op, k, t, seed=i)
            ref = pm_k_orthonormal_vectors_reference(op, k, t, seed=i)
            assert np.array_equal(got.data, ref.data), i


def _chain_graphs():
    """The frozen solver graphs, then one whose weights span e^-9 to e^9."""
    yield from _frozen_solver_graphs()
    rng = np.random.default_rng(23)
    n = 80
    ring = np.arange(n)
    u = np.concatenate([ring, rng.integers(0, n, 300)])
    v = np.concatenate([(ring + 1) % n, rng.integers(0, n, 300)])
    keep = u != v
    g, _ = from_edges(n, u[keep], v[keep], np.exp(rng.uniform(-9.0, 9.0, int(keep.sum()))))
    yield g


def test_a_chain_never_submits_to_the_pool_it_runs_on():
    # A pool task that submits to its own pool and waits can deadlock. This
    # map raises instead when one of its tasks calls it, so a chain that
    # stepped through the row-split product would fail here, not hang.
    tasks = threading.local()
    calls = []

    def guarded(pool_map):
        def gmap(fn, items):
            if getattr(tasks, "inside", False):
                raise AssertionError("pmap called from one of its own tasks")
            calls.append(None)

            def task(item):
                tasks.inside = True
                try:
                    return fn(item)
                finally:
                    tasks.inside = False

            return pool_map(task, items)

        return gmap

    g = next(_frozen_solver_graphs())
    x0 = np.random.default_rng(25).standard_normal((g.n, 3))
    want = power_method(SignlessLaplacianOp(g), x0, 7)
    with worker_map(2) as pmap:
        op = SignlessLaplacianOp(g, 2, guarded(pmap))
        got = power_method(op, x0, 7)
    assert calls == [None]  # one map over the three chains
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_power_method_is_bitwise_the_row_split_steps(monkeypatch, threads):
    # Inside the band [threads, 2 threads] each column is its own chain of
    # (n,) products; outside it the block steps on row ranges. Either way
    # the bits are those of stepping the block with the operator's own
    # row-split product, and x0 is left as it was.
    operands = []
    real_matvec = SignlessLaplacianOp.matvec

    def matvec(self, x):
        operands.append(np.ndim(x))
        return real_matvec(self, x)

    monkeypatch.setattr(SignlessLaplacianOp, "matvec", matvec)
    rng = np.random.default_rng(24)
    with worker_map(threads) as pmap:
        for i, g in enumerate(_chain_graphs()):
            op = SignlessLaplacianOp(g, threads, pmap)
            for width in range(1, 6):
                x0 = rng.standard_normal((g.n, width))
                before = x0.tobytes()
                for t in (0, 1, 9):
                    want = x0
                    for _ in range(t):
                        want = op @ want
                    operands.clear()
                    got = power_method(op, x0, t)
                    case = (i, width, t)
                    assert got.shape == want.shape and got.flags.c_contiguous, case
                    assert got.tobytes() == want.tobytes(), case
                    assert x0.tobytes() == before, case
                    chains = threads <= width <= 2 * threads
                    assert operands == ([1] * width * t if chains else [2] * t), case


def test_pm_k_rank_deficiency_message_matches_frozen_orthonormalization():
    op = single_edge_op()
    with pytest.raises(RankDeficiencyError) as got:
        pm_k_orthonormal_vectors(op, 2, t=5, seed=0)
    with pytest.raises(RankDeficiencyError) as ref:
        pm_k_orthonormal_vectors_reference(op, 2, t=5, seed=0)
    assert str(got.value) == str(ref.value)


# ---------------------------------------------------------------------------
# subspace iteration


def test_eigs_single_edge():
    res = subspace_iteration_eigs(single_edge_op(), 2, seed=0)
    assert res.converged
    assert res.values == pytest.approx([1.0, 0.0], abs=1e-8)
    assert np.all(res.residuals <= 1e-8)


def test_eigs_disjoint_triangles_multiplicity():
    c = 4
    u = [3 * b + i for b in range(c) for i in range(3)]
    v = [3 * b + (i + 1) % 3 for b in range(c) for i in range(3)]
    g, _ = from_edges(3 * c, u, v)
    res = subspace_iteration_eigs(SignlessLaplacianOp(g), c, seed=1)
    assert res.converged
    assert res.values == pytest.approx(np.ones(c), abs=1e-8)


def test_eigs_matches_dense_oracle():
    # random graphs can have tiny interior gaps, so give the block iteration a
    # generous sweep budget; a residual r certifies the Ritz value is within r
    # of a true eigenvalue, which is what the 1e-6 agreement needs
    rng = np.random.default_rng(7)
    for seed in range(5):
        g = random_graph(rng, 30, 0.3, weighted=True)
        k = 4
        res = subspace_iteration_eigs(
            SignlessLaplacianOp(g), k, iters=20_000, tol=1e-7, seed=seed
        )
        dense = np.sort(np.linalg.eigvalsh(dense_signless_laplacian(g)))[::-1][:k]
        assert res.converged, f"seed {seed}: residuals {res.residuals}"
        assert res.values == pytest.approx(dense, abs=1e-6)
        q = res.vectors.data
        assert q.T @ q == pytest.approx(np.eye(k), abs=1e-8)


def test_eigs_values_descending_and_unpacking():
    rng = np.random.default_rng(8)
    g = random_graph(rng, 20, 0.4)
    res = subspace_iteration_eigs(SignlessLaplacianOp(g), 3, seed=0)
    assert np.all(np.diff(res.values) <= 1e-12)
    assert res.vectors.data.shape == (20, 3)


def test_eigs_nonconvergence_flagged_not_raised():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 40, 0.2)
    res = subspace_iteration_eigs(SignlessLaplacianOp(g), 3, iters=1, tol=1e-14, seed=0)
    assert not res.converged
    assert res.iterations == 1
    assert np.all(np.isfinite(res.values))


def test_eigs_input_validation():
    with pytest.raises(InputError):
        subspace_iteration_eigs(single_edge_op(), 0, seed=0)
    with pytest.raises(InputError):
        subspace_iteration_eigs(single_edge_op(), 3, seed=0)


# ---------------------------------------------------------------------------
# pm_k orthonormal vectors


def test_pm_k_columns_orthonormal():
    rng = np.random.default_rng(10)
    g = random_graph(rng, 30, 0.4)
    em = pm_k_orthonormal_vectors(SignlessLaplacianOp(g), 4, t=5, seed=3)
    gram = em.data.T @ em.data
    assert np.abs(gram - np.eye(4)).max() <= 1e-8
    assert np.abs(np.linalg.norm(em.data, axis=0) - 1).max() <= 1e-10


def test_pm_k_single_column_is_normalized_power_output():
    rng = np.random.default_rng(11)
    g = random_graph(rng, 20, 0.4)
    op = SignlessLaplacianOp(g)
    em = pm_k_orthonormal_vectors(op, 1, t=6, seed=4)
    y = power_method(op, sample_gaussian_vectors(g.n, 1, seed=4).data[:, 0], 6)
    assert em.data[:, 0] == pytest.approx(y / np.linalg.norm(y), abs=1e-12)


def test_pm_k_span_close_to_top_eigenspace_on_gapped_graph():
    # 20-vertex planted graph: two dense blocks, sparse across, so the top-2
    # eigenspace is well separated from the rest of the spectrum
    rng = np.random.default_rng(12)
    u, v = [], []
    for b in (0, 1):
        for i in range(10):
            for j in range(i + 1, 10):
                u.append(10 * b + i)
                v.append(10 * b + j)
    u.append(0)
    v.append(10)
    g, _ = from_edges(20, u, v)
    op = SignlessLaplacianOp(g)
    k = 2
    em = pm_k_orthonormal_vectors(op, k, t=50, seed=5)
    _, evecs = np.linalg.eigh(dense_signless_laplacian(g))
    top = evecs[:, ::-1][:, :k]
    # principal angles via singular values of the cross-Gram matrix
    sv = np.linalg.svd(top.T @ em.data, compute_uv=False)
    angles = np.arccos(np.clip(sv, -1, 1))
    assert angles.max() <= 0.1


def test_pm_k_rank_deficiency_names_column():
    # second eigenvalue of the single edge is exactly 0, so two power-iterated
    # columns become exactly parallel and QR must flag column 1
    with pytest.raises(RankDeficiencyError, match="column 1"):
        pm_k_orthonormal_vectors(single_edge_op(), 2, t=5, seed=0)


# ---------------------------------------------------------------------------
# synthetic-spectrum approximation property (module-scale version)


def test_power_iterate_close_to_projection_on_synthetic_spectrum():
    n, k, eps, c1 = 100, 5, 0.3, 0.5
    c3 = 1.0 / (2.0 * math.log(1.0 / c1))
    t = math.ceil(c3 * math.log(24 * n / (eps * eps * k)))
    delta = eps / (2 * math.sqrt(6) * t)
    bound = eps * math.sqrt(k)
    hits = 0
    trials = 25
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        m, top = synthetic_operator(rng, n, k, delta, c1)
        x0 = sample_gaussian_vectors(n, 1, seed=seed).data[:, 0]
        xt = power_method(m, x0, t)
        px0 = top @ (top.T @ x0)
        if np.linalg.norm(xt - px0) <= bound:
            hits += 1
    assert hits >= trials - 1


# ---------------------------------------------------------------------------
# embedding file format


def test_embedding_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    em = EmbeddingMatrix(data=rng.standard_normal((7, 3)) * 1e-3, scaled=True, seed=42)
    path = tmp_path / "emb.csv"
    save_embedding(em, path)
    back = load_embedding(path)
    assert np.array_equal(back.data, em.data)  # 17 significant digits round-trip
    assert back.scaled and back.seed == 42
    header = path.read_text().splitlines()[0]
    assert header == "#specluster-embedding n=7 l=3 scaled=1 seed=42"


def test_embedding_header_errors(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("1.0,2.0\n")
    with pytest.raises(GraphFormatError, match="header"):
        load_embedding(path)
    path.write_text("#specluster-embedding n=2 l=2 scaled=0 seed=0\n1.0,2.0\n")
    with pytest.raises(GraphFormatError, match="promises"):
        load_embedding(path)
    path.write_text("#specluster-embedding n=1 l=1 scaled=0 seed=0 junk\n1.0\n")
    with pytest.raises(GraphFormatError, match=r"emb\.csv:1: malformed header"):
        load_embedding(path)


def test_embedding_ragged_row_names_its_line(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("#specluster-embedding n=2 l=2 scaled=0 seed=0\n1.0,2.0\n# c\n3.0\n")
    with pytest.raises(GraphFormatError, match=r"emb\.csv:4: expected 2 values, got 1"):
        load_embedding(path)


def test_embedding_rejects_nonfinite():
    with pytest.raises(InputError, match="NaN"):
        EmbeddingMatrix(data=np.array([[np.nan, 1.0]]), scaled=False)
