"""End-to-end clustering: embed vertices, scale by degree, run k-means.

The default mode (pm_log_k) embeds the n vertices into about log2(k)
dimensions: each column is a Gaussian vector pushed through t steps of
the power method of the signless normalized Laplacian. Rows are then
scaled by deg(u)^{-1/2} and clustered with restarted Lloyd. Three
comparison modes swap the embedding: pm_k uses k power-iterated columns
orthonormalized once at the end; eigs_k and eigs_log_k use actual
eigenvectors from the block eigensolver.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from specluster.errors import InputError
from specluster.graph import Graph
from specluster.kmeans import Partition, PointSet, lloyd
from specluster.spectral import (
    EmbeddingMatrix,
    SignlessLaplacianOp,
    numpy_blas_symbol,
    pm_k_orthonormal_vectors,
    power_method,
    sample_gaussian_vectors,
    subspace_iteration_eigs,
)

MODES = ("pm_log_k", "pm_k", "eigs_k", "eigs_log_k")

# Spectral-gap constants: with the tail bounded by c1, a power-method run of
# t = ceil(c3 * ln(24 n / (eps^2 k))) steps with c3 = 1/(2 ln(1/c1)) damps
# tail components enough for the eps*sqrt(k) approximation guarantee.
C1 = 0.5
C3 = 1.0 / (2.0 * math.log(1.0 / C1))

_TAG_KMEANS = 2


def _steps_for(n: int, epsilon: float, k: int) -> int:
    return int(math.ceil(C3 * math.log(24.0 * n / (epsilon * epsilon * k))))


def default_threads() -> int:
    """The CPUs this process may run on, the default worker count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # platforms without CPU affinity


def _release_free_heap() -> None:
    """Return free heap pages to the system, where the C library is glibc.

    glibc gives each pool thread its own malloc arena and keeps what those
    threads free resident after the pool closes; ``malloc_trim`` releases
    the free pages inside every arena.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # not glibc
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


def _map_with_caller(pool: ThreadPoolExecutor, helpers: int, fn, items) -> list:
    """``list(map(fn, items))``, run on the calling thread and up to ``helpers`` pool threads.

    Each thread takes the next waiting item until none is left, and each
    item's outcome goes to its own future. Every item runs; if any raised,
    the exception of the first such item is raised, as the builtin ``map``
    would raise it.
    """
    items = list(items)
    outcomes = [Future() for _ in items]
    waiting: queue.SimpleQueue = queue.SimpleQueue()
    for i in range(len(items)):
        waiting.put(i)

    def drain() -> None:
        while True:
            try:
                i = waiting.get_nowait()
            except queue.Empty:
                return
            try:
                outcomes[i].set_result(fn(items[i]))
            except Exception as error:
                outcomes[i].set_exception(error)

    running = [pool.submit(drain) for _ in range(min(helpers, len(items) - 1))]
    drain()
    for helper in running:
        helper.result()
    return [outcome.result() for outcome in outcomes]


# numpy's OpenBLAS thread count, which is process-wide; None under another BLAS
_GET_BLAS_THREADS = numpy_blas_symbol("scipy_openblas_get_num_threads64_")
_SET_BLAS_THREADS = numpy_blas_symbol("scipy_openblas_set_num_threads64_")
_blas_pin_lock = threading.Lock()
_blas_pin = {"holders": 0, "saved": 1}


@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread; a no-op where it exports no count.

    The count is process-wide, so all holders share one pin: the first to
    enter saves the count and sets it to 1, and the last to leave restores
    it. Nested or concurrent holders therefore all see one thread.
    """
    if _GET_BLAS_THREADS is None or _SET_BLAS_THREADS is None:
        yield
        return
    with _blas_pin_lock:
        if _blas_pin["holders"] == 0:
            _blas_pin["saved"] = _GET_BLAS_THREADS()
            _SET_BLAS_THREADS(1)
        _blas_pin["holders"] += 1
    try:
        yield
    finally:
        with _blas_pin_lock:
            _blas_pin["holders"] -= 1
            if _blas_pin["holders"] == 0:
                _SET_BLAS_THREADS(_blas_pin["saved"])


@contextmanager
def worker_map(threads: int):
    """An order-keeping ``map`` that runs on ``threads`` threads, the caller's included.

    One thread is the builtin ``map``, and no thread is started. Otherwise a
    pool of ``threads - 1`` threads lives as long as the ``with`` block. The
    caller works too, so that less of the work allocates in the pool
    threads' malloc arenas, which keep their peak after the pool closes.

    While the pool lives, numpy's OpenBLAS runs on one thread, so that its
    own threads do not compete with the pool's for the cores. The count is
    process-wide: two ``worker_map`` blocks alive at once, in one thread or
    in two, both see one BLAS thread, and the count is restored only when
    the last of them closes. One thread leaves the count as it is.
    """
    if threads == 1:
        yield map
        return
    try:
        with _one_blas_thread(), ThreadPoolExecutor(max_workers=threads - 1) as pool:
            yield functools.partial(_map_with_caller, pool, threads - 1)
    finally:
        _release_free_heap()


@dataclass
class SpectralParams:
    """Knobs for the clustering pipeline.

    l and t left unset pick the practical defaults l = max(1, ceil(log2 k)),
    t = ceil(10 ln(max(2, n/k))). Setting epsilon instead derives them from
    the accuracy analysis: l = min(k, ceil((log2 k + log2(1/eps)) / eps^2)),
    t = ceil(c3 ln(24 n / (eps^2 k))). Explicit l or t always wins. For the
    eigs_k / pm_k modes the default column count is k; for the *_log_k
    modes it is ceil(log2 k).
    """

    k: int
    epsilon: float | None = None
    l: int | None = None
    t: int | None = None
    mode: str = "pm_log_k"
    seed: int = 0
    threads: int = field(default_factory=default_threads)

    def __post_init__(self):
        if self.mode not in MODES:
            raise InputError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.k < 2:
            raise InputError(f"need k >= 2, got k={self.k}")
        if self.epsilon is not None and not 0.0 < self.epsilon <= 1.0:
            raise InputError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if self.l is not None and self.l < 1:
            raise InputError(f"l must be >= 1, got {self.l}")
        if self.t is not None and self.t < 0:
            raise InputError(f"t must be >= 0, got {self.t}")
        if self.seed < 0:
            raise InputError(f"seed must be nonnegative, got {self.seed}")
        if self.threads < 1:
            raise InputError(f"threads must be >= 1, got {self.threads}")

    def num_columns(self) -> int:
        """Embedding width actually used for this mode."""
        if self.l is not None:
            return self.l
        log_k = max(1, math.ceil(math.log2(self.k)))
        if self.mode in ("pm_k", "eigs_k"):
            return self.k
        if self.mode == "pm_log_k" and self.epsilon is not None:
            return min(self.k, math.ceil((math.log2(self.k) + math.log2(1.0 / self.epsilon))
                                         / self.epsilon**2))
        return log_k

    def num_steps(self, n: int) -> int:
        if self.t is not None:
            return self.t
        if self.epsilon is not None:
            return _steps_for(n, self.epsilon, self.k)
        return int(math.ceil(10.0 * math.log(max(2.0, n / self.k))))


@dataclass
class PipelineResult:
    partition: Partition
    embedding: EmbeddingMatrix  # the scaled point set handed to k-means
    timings: dict[str, float]  # milliseconds: embed, scale, kmeans, total
    mode: str
    l: int
    t: int | None  # None for eigs modes
    eigs_converged: bool | None = None
    eigs_iterations: int | None = None


def _kmeans_seed(seed: int) -> int:
    return int(np.random.SeedSequence([seed, _TAG_KMEANS]).generate_state(1)[0])


def fast_spectral_cluster(g: Graph, params: SpectralParams) -> PipelineResult:
    """Cluster the graph's vertices into k parts; see the module docstring.

    Timings cover algorithm work only (no file I/O), in milliseconds,
    measured on a monotonic clock, with stages embed / scale / kmeans and
    their sum as total.
    """
    if params.k > g.n:
        raise InputError(f"k={params.k} exceeds the vertex count n={g.n}")
    cols = params.num_columns()
    if cols > g.n:
        raise InputError(f"embedding width l={cols} exceeds n={g.n}")
    steps: int | None = None
    converged: bool | None = None
    eigs_iters: int | None = None

    with worker_map(params.threads) as pmap:
        op = SignlessLaplacianOp(g, params.threads, pmap)
        t0 = time.perf_counter()
        if params.mode == "pm_log_k":
            steps = params.num_steps(g.n)
            raw = power_method(op, sample_gaussian_vectors(g.n, cols, params.seed).data, steps)
        elif params.mode == "pm_k":
            steps = params.num_steps(g.n)
            raw = pm_k_orthonormal_vectors(op, cols, steps, params.seed).data
        else:
            # A block narrower than k has no spectral gap to converge on when
            # the graph has k near-equal top eigenvalues, so solve for k and
            # keep the first cols Ritz vectors.
            res = subspace_iteration_eigs(op, max(params.k, cols), seed=params.seed)
            raw = res.vectors.data[:, :cols]
            converged = res.converged
            eigs_iters = res.iterations
        t1 = time.perf_counter()
        scaled = raw * op.inv_sqrt_degrees[:, None]
        embedding = EmbeddingMatrix(data=scaled, scaled=True, seed=params.seed)
        t2 = time.perf_counter()
        part = lloyd(PointSet(scaled), params.k, seed=_kmeans_seed(params.seed), pmap=pmap)
        t3 = time.perf_counter()

    timings = {
        "embed": (t1 - t0) * 1e3,
        "scale": (t2 - t1) * 1e3,
        "kmeans": (t3 - t2) * 1e3,
        "total": (t3 - t0) * 1e3,
    }
    return PipelineResult(
        partition=part,
        embedding=embedding,
        timings=timings,
        mode=params.mode,
        l=cols,
        t=steps,
        eigs_converged=converged,
        eigs_iterations=eigs_iters,
    )

