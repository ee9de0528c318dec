"""Weighted undirected graphs in CSR form, with cut/volume/conductance ops.

File formats handled here:

* Edge list: UTF-8 text, one edge per line, ``u<TAB>v<TAB>w`` with ``w``
  optional (default 1.0). Lines starting with ``#`` are ignored. Each
  undirected edge is listed once; the loader symmetrizes. Duplicate edges
  have their weights summed. Vertex ids are nonnegative integers; a file
  with any other id (a string or a negative number) gets a bijective id map
  (order of first appearance) which is returned so callers can persist it.
* Label file: one integer label per line, non-comment line i is the label
  of vertex i. ``#`` comment lines are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from specluster.errors import GraphFormatError, InputError, UndefinedConductanceError

_BRUTE_FORCE_MAX_N = 12


@dataclass
class Graph:
    """Immutable weighted undirected graph in compressed sparse row form.

    ``degrees[u]`` is the sum of incident edge weights (plus the folded
    self-loop weight, counted once, if self-loops were allowed at
    ingestion). All arrays are owned by the instance and must not be
    mutated; every operation on a constructed Graph is a pure read, so
    instances are safe to share across threads.
    """

    n: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    weights: np.ndarray
    degrees: np.ndarray
    self_loop_weights: np.ndarray | None = None
    _edge_src: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (self-loops excluded; never stored)."""
        return int(self.col_indices.size) // 2

    @property
    def total_volume(self) -> float:
        return float(self.degrees.sum())

    def neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.row_offsets[u], self.row_offsets[u + 1]
        return self.col_indices[lo:hi], self.weights[lo:hi]

    def edge_sources(self) -> np.ndarray:
        """Row index of every stored (directed) entry, cached after first use."""
        if self._edge_src is None:
            counts = np.diff(self.row_offsets)
            object.__setattr__(self, "_edge_src", np.repeat(np.arange(self.n), counts))
        return self._edge_src

    def adjacency_csr(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.weights, self.col_indices, self.row_offsets), shape=(self.n, self.n)
        )

    def validate(self, rtol: float = 1e-12) -> None:
        """Check structural invariants; raises InputError on violation."""
        if self.row_offsets.shape != (self.n + 1,):
            raise InputError("row_offsets must have length n+1")
        if np.any(np.diff(self.row_offsets) < 0):
            raise InputError("row_offsets must be nondecreasing")
        if self.col_indices.size:
            if self.col_indices.min() < 0 or self.col_indices.max() >= self.n:
                raise InputError("col_indices out of range [0, n)")
        if np.any(self.weights <= 0) or not np.all(np.isfinite(self.weights)):
            raise InputError("edge weights must be strictly positive and finite")
        src = self.edge_sources()
        if np.any(src == self.col_indices):
            raise InputError("self-loops must not be stored in the adjacency")
        # Symmetry: the multiset of (u, v, w) must equal the multiset of (v, u, w).
        a = self.adjacency_csr()
        if (abs(a - a.T)).max() > 0:
            raise InputError("adjacency is not symmetric")
        recomputed = np.asarray(a.sum(axis=1)).ravel()
        if self.self_loop_weights is not None:
            recomputed = recomputed + self.self_loop_weights
        scale = np.maximum(np.abs(self.degrees), 1.0)
        if np.any(np.abs(recomputed - self.degrees) > rtol * scale):
            raise InputError("stored degrees disagree with recomputed incident weights")


def from_edges(
    n: int,
    u: Sequence[int],
    v: Sequence[int],
    w: Sequence[float] | None = None,
    *,
    allow_self_loops: bool = False,
    drop_isolated: bool = False,
) -> tuple[Graph, list[int]]:
    """Build a Graph from an edge list (each undirected edge given once).

    Duplicate edges are summed. Self-loops are rejected unless
    ``allow_self_loops``, in which case their weight is folded into the
    degree (counted once) but not stored in the adjacency. Isolated
    vertices are rejected unless ``drop_isolated``, in which case they are
    removed and the second return value lists the dropped original ids
    (vertex ids of the remaining graph are compacted in order).
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if w is None:
        w = np.ones(u.size, dtype=np.float64)
    else:
        w = np.asarray(w, dtype=np.float64)
    if not (u.size == v.size == w.size):
        raise InputError("edge arrays u, v, w must have equal length")
    if u.size and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
        raise InputError(f"vertex id out of range [0, {n})")
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise InputError("edge weights must be strictly positive and finite")

    loop_mask = u == v
    self_loops = None
    if np.any(loop_mask):
        if not allow_self_loops:
            ids = np.unique(u[loop_mask])[:8]
            raise InputError(
                f"self-loops present at vertices {ids.tolist()}; "
                "rejected by default (pass allow_self_loops / --allow-self-loops "
                "to fold them into the degree)"
            )
        self_loops = np.bincount(u[loop_mask], weights=w[loop_mask], minlength=n)
        u, v, w = u[~loop_mask], v[~loop_mask], w[~loop_mask]

    # Symmetrize, then let COO->CSR conversion sum duplicates and sort columns;
    # the result is independent of the input edge order.
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    vals = np.concatenate([w, w])
    adj = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    adj.sum_duplicates()
    adj.sort_indices()

    degrees = np.asarray(adj.sum(axis=1)).ravel()
    if self_loops is not None:
        degrees = degrees + self_loops

    dropped: list[int] = []
    isolated = degrees == 0
    if np.any(isolated):
        if not drop_isolated:
            ids = np.flatnonzero(isolated)[:8]
            raise InputError(
                f"isolated vertices present: {ids.tolist()}"
                f"{' ...' if isolated.sum() > 8 else ''}; rejected by default "
                "(pass drop_isolated / --drop-isolated to remove them)"
            )
        dropped = np.flatnonzero(isolated).tolist()
        keep = ~isolated
        adj = adj[keep][:, keep]
        degrees = degrees[keep]
        if self_loops is not None:
            self_loops = self_loops[keep]
        n = int(keep.sum())
        if n == 0:
            raise InputError("graph is empty after dropping isolated vertices")

    g = Graph(
        n=n,
        row_offsets=adj.indptr.astype(np.int64),
        col_indices=adj.indices.astype(np.int64),
        weights=adj.data.astype(np.float64),
        degrees=degrees,
        self_loop_weights=self_loops,
    )
    return g, dropped


def _as_vertex_set(g: Graph, s: Iterable[int]) -> np.ndarray:
    idx = np.unique(np.asarray(list(s) if not isinstance(s, np.ndarray) else s, dtype=np.int64))
    if idx.size and (idx[0] < 0 or idx[-1] >= g.n):
        raise InputError(f"vertex id out of range [0, {g.n})")
    return idx


def volume(g: Graph, s: Iterable[int]) -> float:
    """Sum of degrees over the vertex set."""
    idx = _as_vertex_set(g, s)
    return float(g.degrees[idx].sum())


def cut_weight(g: Graph, s: Iterable[int]) -> float:
    """Total weight of edges with exactly one endpoint in s (each counted once)."""
    idx = _as_vertex_set(g, s)
    mask = np.zeros(g.n, dtype=bool)
    mask[idx] = True
    src = g.edge_sources()
    crossing = mask[src] & ~mask[g.col_indices]
    return float(g.weights[crossing].sum())


def conductance(g: Graph, s: Iterable[int]) -> float:
    """Cut weight of s divided by the smaller side's volume."""
    idx = _as_vertex_set(g, s)
    vol_s = float(g.degrees[idx].sum())
    vol_rest = g.total_volume - vol_s
    if vol_s <= 0 or vol_rest <= 0:
        raise UndefinedConductanceError(
            "conductance undefined: both sides of the cut need positive volume "
            f"(vol(S)={vol_s}, vol(complement)={vol_rest})"
        )
    return cut_weight(g, idx) / min(vol_s, vol_rest)


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
# File I/O


@dataclass
class GraphLoadResult:
    graph: Graph
    id_map: list[str] | None  # id_map[new_id] = original token; None if ids were dense ints
    dropped: list[int]  # original (pre-remap) ids of dropped isolated vertices

    def input_ids(self) -> list[str] | None:
        """Input id of each vertex of ``graph``; None when vertex i is input id i."""
        if self.id_map is not None:
            return self.id_map
        if not self.dropped:
            return None
        kept = np.delete(np.arange(self.graph.n + len(self.dropped)), self.dropped)
        return [str(i) for i in kept]


def load_edge_list(
    path,
    *,
    allow_self_loops: bool = False,
    drop_isolated: bool = False,
) -> GraphLoadResult:
    tokens: list[str] = []  # endpoint tokens, two per edge
    ws: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) not in (2, 3):
                raise GraphFormatError(
                    f"{path}:{lineno}: expected 'u<TAB>v[<TAB>w]', got {len(parts)} fields"
                )
            w = 1.0
            if len(parts) == 3:
                try:
                    w = float(parts[2])
                except ValueError:
                    raise GraphFormatError(f"{path}:{lineno}: bad weight {parts[2]!r}") from None
                if not 0.0 < w < math.inf:
                    raise GraphFormatError(f"{path}:{lineno}: weight must be positive, got {w}")
            tokens.append(parts[0])
            tokens.append(parts[1])
            ws.append(w)
    if not ws:
        raise GraphFormatError(f"{path}: no edges found")

    # Nonnegative integer ids are used directly; anything else switches the
    # whole file to string ids in order of first appearance.
    try:
        ids = np.fromiter(map(int, tokens), dtype=np.int64, count=len(tokens))
    except (ValueError, OverflowError):
        ids = None
    if ids is None or ids.min() < 0:
        id_map = list(dict.fromkeys(tokens))
        index = {tok: i for i, tok in enumerate(id_map)}
        ids = np.fromiter(map(index.__getitem__, tokens), dtype=np.int64, count=len(tokens))
        n = len(id_map)
    else:
        id_map = None
        n = int(ids.max()) + 1
    g, dropped = from_edges(
        n, ids[0::2], ids[1::2], ws,
        allow_self_loops=allow_self_loops, drop_isolated=drop_isolated,
    )
    return GraphLoadResult(graph=g, id_map=id_map, dropped=dropped)


def save_edge_list(g: Graph, path, header_comments: Sequence[str] = ()) -> None:
    """Write the upper triangle (u < v) as a tab-separated edge list."""
    src = g.edge_sources()
    upper = src < g.col_indices
    with open(path, "w", encoding="utf-8") as fh:
        for comment in header_comments:
            fh.write(f"# {comment}\n")
        for a, b, w in zip(src[upper], g.col_indices[upper], g.weights[upper]):
            fh.write(f"{a}\t{b}\t{w:.17g}\n")


def load_labels(path, expected_n: int | None = None) -> np.ndarray:
    labels: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                labels.append(int(line))
            except ValueError:
                raise GraphFormatError(f"{path}:{lineno}: bad label {line!r}") from None
    if expected_n is not None and len(labels) != expected_n:
        raise GraphFormatError(
            f"{path}: found {len(labels)} labels but the graph has {expected_n} vertices"
        )
    return np.asarray(labels, dtype=np.int64)


def save_labels(labels: np.ndarray, path, header_comments: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for comment in header_comments:
            fh.write(f"# {comment}\n")
        for lab in np.asarray(labels, dtype=np.int64):
            fh.write(f"{lab}\n")
