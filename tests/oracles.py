"""Reference implementations that the tests compare the library against.

Everything here is slow, dense or exhaustive on purpose: brute-force
partition enumeration, dense operators and eigendecompositions, pair
counting straight from a definition. Frozen copies of earlier library code
pin a rewrite to the bits of the code it replaced. The library does not
import this module; the tests import every reference they use from here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from specluster import kmeans
from specluster.errors import GraphFormatError, InputError, RankDeficiencyError, SpeclusterError
from specluster.generate import PointCloud, SbmParams
from specluster.graph import Graph, conductance, data_lines, from_edges, write_rows
from specluster.kmeans import Partition, PointSet, kmeans_cost
from specluster.pipeline import _steps_for
from specluster.spectral import (
    _EMBEDDING_MAGIC,
    _TAG_EIGS_INIT,
    EigsResult,
    EmbeddingMatrix,
    SignlessLaplacianOp,
    power_method,
    rng_for,
    sample_gaussian_vectors,
)

_BRUTE_FORCE_MAX_N = 12
_HARNESS_MAX_N = 300
# Stream tag of the harness's random partitions; criterion 6 depends on it.
_TAG_RANDOM_PARTITIONS = 5


# ---------------------------------------------------------------------------
# Test inputs


def random_graph(rng, n, p, weighted=False):
    """Upper-triangle Bernoulli edges, isolated vertices patched with a chain edge."""
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    u, v = list(iu[mask]), list(ju[mask])
    present = set(u) | set(v)
    for i in range(n):
        if i not in present:
            u.append(i)
            v.append((i + 1) % n)
            present.update((i, (i + 1) % n))
    w = rng.uniform(0.5, 2.0, size=len(u)) if weighted else None
    g, kept = from_edges(n, u, v, w)
    assert kept is None
    return g


def validate_graph(g: Graph, rtol: float = 1e-12) -> None:
    """Check a Graph's structural invariants; raises InputError on violation."""
    a = g.adj
    if a.indptr.shape != (g.n + 1,):
        raise InputError("row_offsets must have length n+1")
    if np.any(np.diff(a.indptr) < 0):
        raise InputError("row_offsets must be nondecreasing")
    if a.indices.size:
        if a.indices.min() < 0 or a.indices.max() >= g.n:
            raise InputError("col_indices out of range [0, n)")
    if np.any(a.data <= 0) or not np.all(np.isfinite(a.data)):
        raise InputError("edge weights must be strictly positive and finite")
    if np.any(g.edge_sources() == a.indices):
        raise InputError("self-loops must not be stored in the adjacency")
    # Symmetry: the multiset of (u, v, w) must equal the multiset of (v, u, w).
    if (abs(a - a.T)).max() > 0:
        raise InputError("adjacency is not symmetric")
    recomputed = np.asarray(a.sum(axis=1)).ravel()
    if g.self_loop_weights is not None:
        recomputed = recomputed + g.self_loop_weights
    scale = np.maximum(np.abs(g.degrees), 1.0)
    if np.any(np.abs(recomputed - g.degrees) > rtol * scale):
        raise InputError("stored degrees disagree with recomputed incident weights")


def synthetic_operator(rng, n, k, delta, tail_max):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    gammas = np.concatenate(
        [rng.uniform(1 - delta, 1.0, size=k), rng.uniform(0.0, tail_max, size=n - k)]
    )
    m = (q * gammas[None, :]) @ q.T
    return 0.5 * (m + m.T), q[:, :k]


def sbm_expected_edges(params: SbmParams) -> float:
    s = params.block_size
    intra = params.k * (s * (s - 1) / 2.0) * params.p
    inter = (params.k * (params.k - 1) / 2.0) * float(s) * s * params.q
    return intra + inter


# ---------------------------------------------------------------------------
# Operator


def dense_signless_laplacian(g: Graph) -> np.ndarray:
    """Dense M = (1/2)(I + D^{-1/2} A D^{-1/2}), for comparisons on small graphs."""
    s = 1.0 / np.sqrt(g.degrees)
    return 0.5 * (np.eye(g.n) + (s[:, None] * g.adjacency_csr().toarray()) * s[None, :])


def apply_m(op: SignlessLaplacianOp, x: np.ndarray) -> np.ndarray:
    """y = Mx. Preserves nonnegativity and never grows the 2-norm."""
    return op @ x


# ---------------------------------------------------------------------------
# Frozen solvers: the block eigensolver and the pm_k orthonormalization as
# they were while they called np.linalg.qr. The library must give their bits.


def subspace_iteration_eigs_reference(op, k, iters=1000, tol=1e-8, seed=0) -> EigsResult:
    """``subspace_iteration_eigs`` with every QR through ``np.linalg.qr``."""
    n = op.n
    if not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = rng_for(seed, _TAG_EIGS_INIT)
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))

    theta = np.zeros(k)
    ritz = q
    resid = np.full(k, np.inf)
    used = 0
    converged = False
    for it in range(1, int(iters) + 1):
        b = op @ q
        h = q.T @ b
        h = 0.5 * (h + h.T)
        evals, w = np.linalg.eigh(h)  # ascending
        order = np.arange(k - 1, -1, -1)  # descending eigenvalue, stable in index
        evals, w = evals[order], w[:, order]
        ritz = q @ w
        resid = np.linalg.norm(b @ w - ritz * evals[None, :], axis=0)
        theta = evals
        used = it
        if resid.max() <= tol:
            converged = True
            break
        q, _ = np.linalg.qr(b)

    vectors = EmbeddingMatrix(data=ritz, scaled=False, seed=seed)
    return EigsResult(
        values=theta, vectors=vectors, residuals=resid, iterations=used, converged=converged
    )


def pm_k_orthonormal_vectors_reference(op, k, t, seed) -> EmbeddingMatrix:
    """``pm_k_orthonormal_vectors`` with its QR through ``np.linalg.qr``."""
    n = op.n
    if not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= n, got k={k}, n={n}")
    y = power_method(op, sample_gaussian_vectors(n, k, seed).data, t)
    q, r = np.linalg.qr(y)
    diag = np.abs(np.diag(r))
    threshold = max(n, k) * np.finfo(np.float64).eps * max(diag.max(), 1e-300)
    bad = np.flatnonzero(diag <= threshold)
    if bad.size:
        raise RankDeficiencyError(
            f"power-method columns are numerically dependent: column {int(bad[0])} "
            f"has |R[{int(bad[0])},{int(bad[0])}]| = {diag[bad[0]]:.3e} after t={t} steps; "
            "reduce t or k"
        )
    signs = np.sign(np.diag(r))
    return EmbeddingMatrix(data=q * signs[None, :], scaled=False, seed=seed)


# ---------------------------------------------------------------------------
# Frozen graph construction and edge-list writing: from_edges as it was
# while it built from int64 concatenations, save_edge_list as it was while
# it formatted every line through write_rows, and the kNN selection as it
# was while it sorted whole rows. The library must give their bytes.


def from_edges_reference(n, u, v, w=None, *, allow_self_loops=False, drop_isolated=False):
    """``from_edges`` with int64 indices throughout; returns ``(Graph, kept)``."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    w = np.ones(u.size, dtype=np.float64) if w is None else np.asarray(w, dtype=np.float64)
    if not (u.size == v.size == w.size):
        raise InputError("edge arrays u, v, w must have equal length")
    if u.size and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
        raise InputError(f"vertex id out of range [0, {n})")
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise InputError("edge weights must be strictly positive and finite")
    loop_mask = u == v
    if not allow_self_loops and np.any(loop_mask):
        raise InputError("self-loops present")
    if n <= u.size + v.size:
        present = np.zeros(n, dtype=bool)
        present[u] = True
        present[v] = True
        kept = None if present.all() else np.flatnonzero(present)
    else:
        kept = np.union1d(u, v)
    if kept is not None:
        if not drop_isolated:
            raise InputError("isolated vertices present")
        if kept.size == 0:
            raise InputError("graph is empty after dropping isolated vertices")
        n = int(kept.size)
        u, v = np.searchsorted(kept, u), np.searchsorted(kept, v)
    self_loops = None
    if np.any(loop_mask):
        self_loops = np.bincount(u[loop_mask], weights=w[loop_mask], minlength=n)
        u, v, w = u[~loop_mask], v[~loop_mask], w[~loop_mask]
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    vals = np.concatenate([w, w])
    adj = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    if self_loops is not None:
        degrees = degrees + self_loops
    return Graph(adj=adj, degrees=degrees, self_loop_weights=self_loops), kept


def save_edge_list_reference(g: Graph, path, header_comments=()) -> None:
    """``save_edge_list`` as one ``"%d\\t%d\\t%.17g\\n"`` per upper-triangle entry."""
    src = g.edge_sources()
    upper = src < g.col_indices
    write_rows(path, [f"# {c}" for c in header_comments], "%d\t%d\t%.17g\n",
               src[upper], g.col_indices[upper], g.weights[upper])


def nearest_reference(d2: np.ndarray, k: int) -> np.ndarray:
    """Each row's k smallest columns, ties to the lower column, by a full stable sort."""
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


# ---------------------------------------------------------------------------
# Writing inputs: the library reads points CSV files but never writes them.


def save_points_csv(pc: PointCloud, path) -> None:
    """Write a point cloud as ``load_points_csv`` reads it: a header, then x0.. and label."""
    names = [f"x{i}" for i in range(pc.d)]
    fmts = ["%.17g"] * pc.d
    columns = list(pc.points.coords.T)
    if pc.labels is not None:
        names.append("label")
        fmts.append("%d")
        columns.append(pc.labels)
    write_rows(path, [",".join(names)], ",".join(fmts) + "\n", *columns)


# ---------------------------------------------------------------------------
# Reading outputs back: the library writes embedding.csv but never reads it.


def load_embedding(path) -> EmbeddingMatrix:
    """The ``EmbeddingMatrix`` that ``save_embedding`` wrote to ``path``."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        header = fh.readline().strip()
        if not header.startswith(_EMBEDDING_MAGIC):
            raise GraphFormatError(f"{path}:1: missing '{_EMBEDDING_MAGIC}' header")
        try:
            fields = dict(tok.split("=", 1) for tok in header.split()[1:])
            n, ncols = int(fields["n"]), int(fields["l"])
            scaled, seed = fields["scaled"] == "1", int(fields["seed"])
        except (KeyError, ValueError):
            raise GraphFormatError(f"{path}:1: malformed header {header!r}") from None
        rows = []
        for lineno, line in data_lines(fh, start=2):
            try:
                row = [float(v) for v in line.split(",")]
            except ValueError:
                raise GraphFormatError(f"{path}:{lineno}: bad row") from None
            if len(row) != ncols:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected {ncols} values, got {len(row)}"
                )
            rows.append(row)
    data = np.asarray(rows, dtype=np.float64)
    if data.shape != (n, ncols):
        raise GraphFormatError(
            f"{path}: header promises {n}x{ncols} but file holds "
            f"{data.shape[0]}x{data.shape[1] if data.ndim == 2 else 1}"
        )
    return EmbeddingMatrix(data=data, scaled=scaled, seed=seed)


# ---------------------------------------------------------------------------
# Cost and clustering measures


def frobenius_cost_oracle(coords: np.ndarray, labels: np.ndarray, k: int) -> float:
    """||B - X X^T B||_F^2 with X the normalized indicator matrix."""
    n = coords.shape[0]
    x = np.zeros((n, k))
    counts = np.bincount(labels, minlength=k)
    for i, lab in enumerate(labels):
        x[i, lab] = 1.0 / np.sqrt(counts[lab])
    resid = coords - x @ (x.T @ coords)
    return float(np.linalg.norm(resid) ** 2)


def cluster_means_bincount(coords: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Cluster means from one weighted ``np.bincount`` per column."""
    sums = np.stack([np.bincount(labels, weights=col, minlength=k) for col in coords.T], axis=1)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    nonempty = counts > 0
    sums[nonempty] /= counts[nonempty, None]
    return sums


def lloyd_full_reference(points, k, seed, max_iters=100, tol=1e-6, restarts=10) -> Partition:
    """Restarted Lloyd that assigns every point on every sweep.

    The reference for ``lloyd``, which skips points by distance bounds. It
    calls ``kmeans.kmeans_cost`` once per sweep through the module, as the
    library does, so a test can record both cost sequences the same way.
    """
    coords = kmeans._point_set(points).coords
    n = coords.shape[0]
    if not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= n, got k={k}, n={n}")
    sq_norms = np.einsum("ij,ij->i", coords, coords)
    best_labels = None
    best_cost = np.inf
    for r in range(restarts):
        rng = rng_for(seed, r)
        centers = coords[kmeans._kmeans_pp_indices(coords, k, rng)].copy()
        labels = np.zeros(n, dtype=np.int64)
        prev_cost = np.inf
        for _ in range(max_iters):
            new_labels, d2_own = kmeans._assign(coords, sq_norms, centers)
            kmeans._repair_empty(new_labels, d2_own, k)
            unchanged = bool(np.array_equal(new_labels, labels)) and np.isfinite(prev_cost)
            labels = new_labels
            centers = cluster_means_bincount(coords, labels, k)
            cost = kmeans.kmeans_cost(coords, Partition(labels=labels, k=k))
            if not cost <= prev_cost * (1 + 1e-12) + 1e-12:
                raise SpeclusterError(f"k-means cost increased from {prev_cost!r} to {cost!r}")
            small_gain = np.isfinite(prev_cost) and prev_cost - cost <= tol * max(prev_cost, 1e-300)
            prev_cost = cost
            if unchanged or small_gain:
                break
        if r == 0 or prev_cost < best_cost:
            best_cost = prev_cost
            best_labels = labels
    return Partition(labels=best_labels, k=k)


def ari_pair_oracle(a, b) -> float:
    """O(n^2) pair classification straight from the definition."""
    n = len(a)
    n11 = n00 = n10 = n01 = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa, sb = a[i] == a[j], b[i] == b[j]
            if sa and sb:
                n11 += 1
            elif sa and not sb:
                n10 += 1
            elif not sa and sb:
                n01 += 1
            else:
                n00 += 1
    total = n * (n - 1) // 2
    index = n11
    expected = (n11 + n10) * (n11 + n01) / total
    maximum = ((n11 + n10) + (n11 + n01)) / 2
    if maximum == expected:
        return 0.0
    return (index - expected) / (maximum - expected)


def nmi_dict_oracle(a, b) -> float:
    """Plain-dict mutual information, natural log, arithmetic-mean norm."""
    n = len(a)
    pa, pb, pab = {}, {}, {}
    for x, y in zip(a, b):
        pa[x] = pa.get(x, 0) + 1
        pb[y] = pb.get(y, 0) + 1
        pab[(x, y)] = pab.get((x, y), 0) + 1
    mi = 0.0
    for (x, y), c in pab.items():
        mi += (c / n) * math.log((c / n) / ((pa[x] / n) * (pb[y] / n)))
    ha = -sum((c / n) * math.log(c / n) for c in pa.values())
    hb = -sum((c / n) * math.log(c / n) for c in pb.values())
    if ha + hb == 0:
        return 0.0
    return mi / (0.5 * (ha + hb))


def sym_diff_volume_exhaustive(g, la, ls, k) -> float:
    degrees = g.degrees
    best = math.inf
    for perm in itertools.permutations(range(k)):
        total = 0.0
        for i in range(k):
            a_i = la == i
            s_j = ls == perm[i]
            total += degrees[a_i ^ s_j].sum()
        best = min(best, total)
    return best


def conductance_definition_oracle(g, s) -> float:
    a = g.adjacency_csr().toarray()
    in_s = np.zeros(g.n, dtype=bool)
    in_s[list(s)] = True
    cut = sum(a[i, j] for i in range(g.n) for j in range(g.n) if in_s[i] and not in_s[j])
    vol_s = g.degrees[in_s].sum()
    vol_c = g.degrees[~in_s].sum()
    return cut / min(vol_s, vol_c)


# ---------------------------------------------------------------------------
# Exhaustive partitions


def stirling2(n, k):
    table = [[0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, k + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][k]


def partitions_into_k_parts(n: int, k: int) -> Iterator[np.ndarray]:
    """Yield every partition of {0..n-1} into exactly k nonempty unlabeled parts.

    Partitions are emitted as restricted-growth label arrays (part of vertex
    0 is 0, each new part gets the next label), so no relabeling of the same
    partition appears twice.
    """
    if k < 1 or k > n:
        return
    labels = np.zeros(n, dtype=np.int64)

    def rec(i: int, num_used: int) -> Iterator[np.ndarray]:
        if i == n:
            if num_used == k:
                yield labels.copy()
            return
        # Prune branches that cannot reach exactly k parts.
        if num_used + (n - i) < k:
            return
        for lab in range(min(num_used + 1, k)):
            labels[i] = lab
            yield from rec(i + 1, max(num_used, lab + 1))

    yield from rec(1, 1) if n > 0 else iter(())


def k_way_expansion_bruteforce(g: Graph, k: int) -> float:
    """Exact min over k-way partitions of the max part conductance.

    Exhaustive enumeration; refuses graphs with more than 12 vertices.
    Intended as a test oracle only.
    """
    if g.n > _BRUTE_FORCE_MAX_N:
        raise InputError(
            f"brute-force k-way expansion refuses n={g.n} > {_BRUTE_FORCE_MAX_N}"
        )
    if not 1 <= k <= g.n:
        raise InputError(f"need 1 <= k <= n, got k={k}, n={g.n}")
    best = np.inf
    for labels in partitions_into_k_parts(g.n, k):
        worst = 0.0
        for part in range(k):
            members = np.flatnonzero(labels == part)
            phi = conductance(g, members)
            if phi > worst:
                worst = phi
            if worst >= best:
                break
        if worst < best:
            best = worst
    return float(best)


# ---------------------------------------------------------------------------
# Cost-preservation harness (dense oracle, small n only)


@dataclass
class CostPreservationReport:
    """How well random embeddings preserve k-means costs on one instance.

    F: top-k eigenvector embedding (dense oracle). Z: its random
    projection P X0 with the projector applied to l_jl Gaussian columns.
    Y: the power-method iterate M^t X0. All three are compared after
    deg^{-1/2} row scaling. The multiplicative ratio normalizes Z by the
    projection width (cost_Z / (l_jl * cost_F)); the additive deviation
    compares Y and Z unnormalized, as the power method approximates P X0
    itself.
    """

    n: int
    k: int
    epsilon: float
    l_jl: int
    t: int
    planted_mult_ratio: float
    max_mult_dev: float  # max |ratio - 1| over planted + random partitions
    fro_additive_dev: float  # ||D^{-1/2}(Y - Z)||_F
    max_sqrt_cost_dev: float  # max |sqrt(cost_Y) - sqrt(cost_Z)| over partitions
    additive_bound: float  # epsilon * k
    trials: int
    partitions_checked: int = field(default=0)

    @property
    def planted_mult_ok(self) -> bool:
        return abs(self.planted_mult_ratio - 1.0) <= self.epsilon

    @property
    def additive_ok(self) -> bool:
        return self.fro_additive_dev <= self.additive_bound


def kmeans_cost_preservation_check(
    g: Graph,
    k: int,
    epsilon: float,
    trials: int,
    seed: int,
    planted: Partition | None = None,
) -> CostPreservationReport:
    """Evaluate cost preservation of the random embeddings on one graph.

    Needs dense eigenvectors, so n is capped at 300. The projection width
    here is the uncapped analysis value l_jl = ceil((log2 k + log2(1/eps))
    / eps^2); the pipeline caps its width at k for speed, but the cost
    comparison is a statement about the projection, so the harness uses
    the width the statement is about.
    """
    if g.n > _HARNESS_MAX_N:
        raise InputError(f"dense harness refuses n={g.n} > {_HARNESS_MAX_N}")
    if not 2 <= k <= g.n:
        raise InputError(f"need 2 <= k <= n, got k={k}, n={g.n}")
    if not 0.0 < epsilon <= 1.0:
        raise InputError(f"epsilon must lie in (0, 1], got {epsilon}")

    l_jl = math.ceil((math.log2(k) + math.log2(1.0 / epsilon)) / epsilon**2)
    t = _steps_for(g.n, epsilon, k)

    m = dense_signless_laplacian(g)
    evals, evecs = np.linalg.eigh(m)  # ascending
    f = evecs[:, ::-1][:, :k]  # top-k eigenvectors
    x0 = sample_gaussian_vectors(g.n, l_jl, seed).data
    z = f @ (f.T @ x0)
    y = power_method(m, x0, t)

    s = 1.0 / np.sqrt(g.degrees)
    b_f = PointSet(f * s[:, None])
    b_z = PointSet(z * s[:, None])
    b_y = PointSet(y * s[:, None])

    fro_dev = float(np.linalg.norm((y - z) * s[:, None]))

    parts: list[Partition] = []
    if planted is not None:
        parts.append(planted)
    rng = rng_for(seed, _TAG_RANDOM_PARTITIONS)
    for _ in range(trials):
        parts.append(Partition(labels=rng.integers(0, k, size=g.n), k=k))

    planted_ratio = math.nan
    max_mult_dev = 0.0
    max_sqrt_dev = 0.0
    for i, part in enumerate(parts):
        c_f = kmeans_cost(b_f, part)
        c_z = kmeans_cost(b_z, part)
        c_y = kmeans_cost(b_y, part)
        ratio = c_z / (l_jl * c_f) if c_f > 0 else math.inf
        if planted is not None and i == 0:
            planted_ratio = ratio
        max_mult_dev = max(max_mult_dev, abs(ratio - 1.0))
        max_sqrt_dev = max(max_sqrt_dev, abs(math.sqrt(c_y) - math.sqrt(c_z)))

    return CostPreservationReport(
        n=g.n,
        k=k,
        epsilon=epsilon,
        l_jl=l_jl,
        t=t,
        planted_mult_ratio=planted_ratio,
        max_mult_dev=max_mult_dev,
        fro_additive_dev=fro_dev,
        max_sqrt_cost_dev=max_sqrt_dev,
        additive_bound=epsilon * k,
        trials=trials,
        partitions_checked=len(parts),
    )
