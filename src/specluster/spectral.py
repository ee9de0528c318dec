"""Signless normalized Laplacian operator, power method, block eigensolver.

The central operator is M = (1/2)(I + D^{-1/2} A D^{-1/2}), whose
eigenvalues lie in [0, 1], with eigenvalue exactly 1 (eigenvector
D^{1/2} 1) for each connected component. The power method amplifies the
top of the spectrum, which is where cluster structure lives.

Random numbers come from numpy's PCG64 generator (ziggurat normal
sampling). Streams are derived from a master seed with SeedSequence so
that column i of a Gaussian block is the same no matter how many columns
are drawn, and independent computations never share a stream.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite

from specluster.errors import InputError, RankDeficiencyError, SpeclusterError
from specluster.graph import Graph, write_rows

GENERATOR_NAME = "numpy-pcg64-ziggurat"

# Stream tags: SeedSequence([master_seed, tag, ...]) keeps independent uses
# of one master seed from colliding.
_TAG_GAUSSIAN_COLUMN = 1
_TAG_EIGS_INIT = 3


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    """Deterministic generator for a (seed, tag...) slot."""
    if seed < 0:
        raise InputError(f"seed must be a nonnegative integer, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *tags])))


class SignlessLaplacianOp:
    """Matrix-free action of M = (1/2)(I + D^{-1/2} A D^{-1/2}).

    One application costs a sparse matvec plus two diagonal scalings,
    O(m + n). Accepts a single vector or an (n, l) block of columns.

    The rows are cut into up to ``parts`` ranges of about equal nnz, and
    ``pmap``, an order-keeping map such as the builtin one, runs the step
    on each range. A CSR row block sums each row's entries in the order the whole matrix
    does and every other term is elementwise, so the result is bitwise the
    same for any ``parts``. The blocks' ``data`` and ``indices`` are views
    of the graph's arrays; only their small ``indptr`` is new.

    ``power_chains`` runs each column of a block through all its steps as
    one task of ``pmap``. Those steps go through ``_whole``, the operator
    of the same graph as one row range on the builtin map, so that a task
    never submits to the pool it runs on.
    """

    def __init__(self, graph: Graph, parts: int = 1, pmap=map):
        self.n = graph.n
        self.parts = parts
        self.inv_sqrt_degrees = 1.0 / np.sqrt(graph.degrees)
        self._blocks = _row_blocks(graph.adj, parts)
        self._pmap = pmap
        self._whole = self if parts == 1 and pmap is map else SignlessLaplacianOp(graph)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.n:
            raise InputError(f"operand has {x.shape[0]} rows, operator expects {self.n}")
        s = self.inv_sqrt_degrees if x.ndim == 1 else self.inv_sqrt_degrees[:, None]
        sx = s * x
        out = np.empty(x.shape)
        # Each block writes only its own rows of out; list() waits for all.
        list(self._pmap(lambda block: _step(block, s, x, sx, out), self._blocks))
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def power_chains(self, x: np.ndarray, t: int) -> np.ndarray:
        """M^t x for an (n, l) block, each column's t steps as one task of ``pmap``.

        scipy multiplies an (n,) operand with its one-vector CSR kernel,
        which adds each row's entries in the order its block kernel does, so
        the columns are bitwise those of t block steps. Each task builds its
        own arrays and returns its column; ``np.stack`` copies the columns
        into a new C-ordered block, in order.
        """

        def chain(j: int) -> np.ndarray:
            y = x[:, j]
            for _ in range(t):
                y = self._whole @ y
            return y

        return np.stack(list(self._pmap(chain, range(x.shape[1]))), axis=1)


def _row_blocks(adj, parts: int) -> list[tuple[int, int, object]]:
    """``(start, stop, rows)`` for up to ``parts`` nonempty row ranges of about equal nnz."""
    n, indptr = adj.shape[0], adj.indptr
    cuts = np.searchsorted(indptr, np.arange(1, parts) * adj.nnz // parts)
    bounds = np.unique(np.concatenate([[0], cuts, [n]]))
    blocks = []
    for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        p0, p1 = indptr[start], indptr[stop]
        # Assigned after construction: the csr_matrix constructor would copy.
        rows = type(adj)((stop - start, adj.shape[1]), dtype=adj.dtype)
        rows.data, rows.indices = adj.data[p0:p1], adj.indices[p0:p1]
        rows.indptr = indptr[start:stop + 1] - p0
        blocks.append((start, stop, rows))
    return blocks


def _step(block, s, x, sx, out) -> None:
    """Rows ``[start, stop)`` of ``0.5 * x + 0.5 * (s * (A @ sx))``, written into ``out``."""
    start, stop, rows = block
    y = rows @ sx
    y *= s[start:stop]
    y *= 0.5
    np.multiply(x[start:stop], 0.5, out=out[start:stop])
    out[start:stop] += y


def power_method(op, x0: np.ndarray, t: int) -> np.ndarray:
    """Return M^t x0. No normalization between steps.

    Safe because every eigenvalue of M is at most 1; components outside
    the dominant eigenspace decay, which is the point. ``op`` may be a
    SignlessLaplacianOp or any matrix that supports ``@``, so synthetic
    operators with a prescribed spectrum work too. ``x0`` may be a vector
    or an (n, l) column block.

    A SignlessLaplacianOp cut for T threads runs a block of T to 2T columns
    as independent chains, one per column. Each thread then gets one or
    two, and chains of one-vector products, with no join between steps,
    measured faster there than block steps split into row ranges; wider
    blocks gained nothing. Other widths step the whole block on row
    ranges. Both give the same bits.
    """
    if t < 0:
        raise InputError(f"power method step count must be >= 0, got {t}")
    x = np.array(x0, dtype=np.float64, copy=True)
    width = x.shape[1] if x.ndim == 2 else 0
    if isinstance(op, SignlessLaplacianOp) and op.parts <= width <= 2 * op.parts:
        return op.power_chains(x, int(t))
    for _ in range(int(t)):
        x = op @ x
    return x


# ---------------------------------------------------------------------------
# Embedding matrices


@dataclass
class EmbeddingMatrix:
    """An n x l block of real vectors, one vertex per row.

    ``scaled`` records whether rows have been multiplied by deg(u)^{-1/2}
    (the form handed to k-means). ``seed`` is the master seed the block
    was derived from, kept for output headers.
    """

    data: np.ndarray
    scaled: bool
    seed: int = 0

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.data.ndim != 2 or self.data.shape[1] < 1:
            raise InputError("embedding must be a 2-D array with at least one column")
        if not np.all(np.isfinite(self.data)):
            raise InputError("embedding contains NaN or Inf")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def l(self) -> int:
        return self.data.shape[1]


_EMBEDDING_MAGIC = "#specluster-embedding"


def save_embedding(em: EmbeddingMatrix, path) -> None:
    """Header + one comma-separated row per vertex at 17 significant digits."""
    header = [
        f"{_EMBEDDING_MAGIC} n={em.n} l={em.l} scaled={1 if em.scaled else 0} seed={em.seed}",
        f"# generator={GENERATOR_NAME} numpy={np.__version__}",
    ]
    write_rows(path, header, ",".join(["%.17g"] * em.l) + "\n", *em.data.T)


def sample_gaussian_vectors(n: int, l: int, seed: int) -> EmbeddingMatrix:
    """l independent standard-normal n-vectors as columns.

    Column i is drawn from its own derived stream, so the first l' <= l
    columns are bit-identical across calls with different l, and columns
    may be generated concurrently without changing the result.
    """
    if n < 1 or l < 1:
        raise InputError(f"need n >= 1 and l >= 1, got n={n}, l={l}")
    data = np.empty((n, l), dtype=np.float64)
    for i in range(l):
        data[:, i] = rng_for(seed, _TAG_GAUSSIAN_COLUMN, i).standard_normal(n)
    return EmbeddingMatrix(data=data, scaled=False, seed=seed)


# ---------------------------------------------------------------------------
# Eigensolver (block power / subspace iteration)


# numpy's bundled OpenBLAS, reached through the handle of the module that
# links it: dlsym on that handle also searches the libraries it loaded.
try:
    _NUMPY_LAPACK = ctypes.CDLL(lapack_lite.__file__)
except OSError:
    _NUMPY_LAPACK = None


def numpy_blas_symbol(name: str):
    """The ctypes function ``name`` of numpy's OpenBLAS, or None where it has none."""
    return getattr(_NUMPY_LAPACK, name, None)


_LAPACK_NAMES = ("dgeqrf", "dorgqr")


def _ctypes_routines() -> dict | None:
    """``dgeqrf`` and ``dorgqr`` of numpy's OpenBLAS through ctypes, or None.

    They are the ``scipy_*_64_`` symbols that ``lapack_lite`` and
    ``np.linalg.qr`` call: Fortran calling convention, every argument by
    reference, int64 integers. ctypes releases the GIL for the call, which
    ``lapack_lite`` does not, so two threads can factor at once.
    """
    functions = [numpy_blas_symbol(f"scipy_{name}_64_") for name in _LAPACK_NAMES]
    if None in functions:
        return None

    def routine(function):
        function.restype = None

        def call(*args) -> int:
            refs = []
            for arg in args:
                if isinstance(arg, np.ndarray):
                    if arg.dtype != np.float64 or not arg.flags.c_contiguous:
                        raise ValueError("LAPACK arrays must be C-contiguous float64")
                    refs.append(arg.ctypes.data_as(ctypes.c_void_p))
                else:
                    refs.append(ctypes.byref(ctypes.c_int64(arg)))
            info = ctypes.c_int64()
            function(*refs, ctypes.byref(info))
            return info.value

        return call

    return {name: routine(f) for name, f in zip(_LAPACK_NAMES, functions)}


def _lapack_lite_routines() -> dict:
    """``dgeqrf`` and ``dorgqr`` through ``lapack_lite``: the same symbols, GIL held."""
    return {name: lambda *args, f=getattr(lapack_lite, name): f(*args, 0)["info"]
            for name in _LAPACK_NAMES}


_ROUTINES = _ctypes_routines() or _lapack_lite_routines()


def _lapack(name: str, *args) -> None:
    """Run LAPACK routine ``name``: a workspace query, then the call.

    ``args`` are the routine's arguments before its workspace. The
    workspace is the larger of the queried optimum and the column count
    ``args[1]``, as ``np.linalg.qr`` sizes it. Only the arrays' dtype and
    contiguity are checked, so the caller must size them.
    """
    routine = _ROUTINES[name]
    work = np.empty(1)
    for query in (True, False):
        info = routine(*args, work, -1 if query else work.size)
        if info != 0:
            raise SpeclusterError(f"LAPACK {name} returned info={info}")
        if query:
            work = np.empty(max(int(work[0]), args[1], 1))


def _qr(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR of an n x k block with n >= k, bitwise ``np.linalg.qr(b)``.

    ``np.linalg.qr`` runs LAPACK ``dgeqrf`` then ``dorgqr`` from numpy's
    bundled OpenBLAS; ``_lapack`` calls the same two symbols with less
    wrapping around them. The routines work on one column-major copy of
    ``b``, held as its C-ordered transpose; ``b`` itself is not written.
    ``Q`` comes back C-ordered, as ``np.linalg.qr`` returns it.
    """
    n, k = b.shape
    if n < k:
        raise InputError(f"reduced QR needs rows >= columns, got {n} x {k}")
    a = np.array(b.T, dtype=np.float64, order="C")
    tau = np.empty(k)
    _lapack("dgeqrf", n, k, a, n, tau)
    r = np.triu(a.T[:k])
    _lapack("dorgqr", n, k, k, a, n, tau)
    return np.ascontiguousarray(a.T), r


@dataclass
class EigsResult:
    values: np.ndarray  # descending
    vectors: EmbeddingMatrix  # orthonormal columns, ordered to match values
    residuals: np.ndarray  # ||M f_i - gamma_i f_i||_2 per pair
    iterations: int
    converged: bool


def subspace_iteration_eigs(
    op,
    k: int,
    iters: int = 1000,
    tol: float = 1e-8,
    seed: int = 0,
) -> EigsResult:
    """Top-k eigenpairs of M by block power iteration with Rayleigh-Ritz.

    Each sweep multiplies the block by M, extracts Ritz pairs from the
    k x k projected problem, measures per-pair residuals, and
    re-orthonormalizes. Stops when every residual is at most ``tol``.
    Non-convergence is reported through ``converged=False``, not raised:
    callers doing benchmarking want the partial answer and the flag.

    The Ritz step and the QR of the product ``b = M q`` need nothing from
    each other, so each sweep runs them as two tasks of the operator's
    thread map (the builtin ``map`` for a dense or synthetic operator).
    Both read ``q`` or ``b`` only and write their own buffers, so the bits
    are those of running them in order; ``q`` takes the new basis after
    the join. The builtin ``map`` is lazy, so there a converged sweep runs
    no QR. Every n x k buffer is allocated here, on the calling thread,
    and reused: glibc keeps a pool thread's large allocations resident in
    its own malloc arena.
    """
    n = op.n
    if not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = rng_for(seed, _TAG_EIGS_INIT)
    q, _ = _qr(rng.standard_normal((n, k)))
    pmap = op._pmap if isinstance(op, SignlessLaplacianOp) else map
    ritz, bw = np.empty((n, k)), np.empty((n, k))
    a, tau = np.empty((k, n)), np.empty(k)  # a holds the column-major QR block
    order = np.arange(k - 1, -1, -1)  # descending eigenvalue, stable in index
    chunk = -(-n // 16)  # rows per step of the residual

    def ritz_step(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h = q.T @ b
        h = 0.5 * (h + h.T)
        evals, w = np.linalg.eigh(h)  # ascending
        evals, w = evals[order], w[:, order]
        np.matmul(q, w, out=ritz)
        # Bitwise np.linalg.norm(b @ w - ritz * evals, axis=0), which for
        # real input squares elementwise and reduces over axis 0; the rows
        # go in chunks so that no temporary is n x k.
        np.matmul(b, w, out=bw)
        for start in range(0, n, chunk):
            bw[start:start + chunk] -= ritz[start:start + chunk] * evals
        np.multiply(bw, bw, out=bw)
        return evals, np.sqrt(np.add.reduce(bw, axis=0))

    def factor(b: np.ndarray) -> None:
        np.copyto(a, b.T)
        _lapack("dgeqrf", n, k, a, n, tau)
        _lapack("dorgqr", n, k, k, a, n, tau)

    theta = np.zeros(k)
    resid = np.full(k, np.inf)
    used = 0
    converged = False
    for it in range(1, int(iters) + 1):
        b = op @ q
        tasks = iter(pmap(lambda task: task(b), (ritz_step, factor)))
        theta, resid = next(tasks)
        used = it
        if resid.max() <= tol:
            converged = True
            break
        next(tasks)
        np.copyto(q, a.T)

    # Ritz vectors are orthonormal (rotation of an orthonormal block).
    vectors = EmbeddingMatrix(data=ritz if used else q, scaled=False, seed=seed)
    return EigsResult(
        values=theta, vectors=vectors, residuals=resid, iterations=used, converged=converged
    )


def pm_k_orthonormal_vectors(
    op: SignlessLaplacianOp, k: int, t: int, seed: int
) -> EmbeddingMatrix:
    """k Gaussian vectors, each power-iterated t steps, orthonormalized once.

    The single final QR distinguishes this from subspace iteration, which
    re-orthonormalizes every sweep. After many unnormalized iterations the
    columns all lean toward the dominant eigenspace; if they become
    numerically dependent the QR factor exposes it and we refuse.
    """
    n = op.n
    if not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= n, got k={k}, n={n}")
    y = power_method(op, sample_gaussian_vectors(n, k, seed).data, t)
    q, r = _qr(y)
    diag = np.abs(np.diag(r))
    threshold = max(n, k) * np.finfo(np.float64).eps * max(diag.max(), 1e-300)
    bad = np.flatnonzero(diag <= threshold)
    if bad.size:
        raise RankDeficiencyError(
            f"power-method columns are numerically dependent: column {int(bad[0])} "
            f"has |R[{int(bad[0])},{int(bad[0])}]| = {diag[bad[0]]:.3e} after t={t} steps; "
            "reduce t or k"
        )
    # Fix signs so the factorization is unique: make each R diagonal positive.
    signs = np.sign(np.diag(r))
    return EmbeddingMatrix(data=q * signs[None, :], scaled=False, seed=seed)
