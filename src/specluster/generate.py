"""Graph generators and point ingestion: SBM sampling, kNN graphs, CSV.

SBM sampling runs in expected O(edges) time, not O(n^2): within each
block pair the present pairs form a Bernoulli process, so we draw
geometric gaps and jump straight to the selected pair indices. Each block
pair gets its own derived random stream, so the output is deterministic
given the master seed and independent of evaluation order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from specluster.errors import GraphFormatError, InputError
from specluster.graph import Graph, data_lines, from_edges
from specluster.kmeans import Partition, PointSet
from specluster.spectral import GENERATOR_NAME, rng_for

_TAG_SBM_BLOCK = 4


@dataclass
class SbmParams:
    """Planted-partition model: k equal blocks of size n/k, edge probability
    p inside a block and q across blocks."""

    n: int
    k: int
    p: float
    q: float
    seed: int

    def __post_init__(self):
        if self.k < 1 or self.n < 1:
            raise InputError(f"need n >= 1 and k >= 1, got n={self.n}, k={self.k}")
        if self.n % self.k != 0:
            raise InputError(f"k must divide n, got n={self.n}, k={self.k}")
        if not (0.0 <= self.q <= self.p <= 1.0):
            raise InputError(f"need 0 <= q <= p <= 1, got p={self.p}, q={self.q}")
        if self.seed < 0:
            raise InputError(f"seed must be nonnegative, got {self.seed}")

    @property
    def block_size(self) -> int:
        return self.n // self.k


def _bernoulli_positions(rng: np.random.Generator, count: int, prob: float) -> np.ndarray:
    """Indices of successes in `count` iid Bernoulli(prob) trials, 0-based."""
    if count <= 0 or prob <= 0.0:
        return np.empty(0, dtype=np.int64)
    if prob >= 1.0:
        return np.arange(count, dtype=np.int64)
    chunks = []
    total = 0
    while total <= count:
        batch = max(int((count - total) * prob * 1.1) + 16, 16)
        gaps = rng.geometric(prob, size=batch).astype(np.int64)
        cum = np.cumsum(gaps) + total
        total = int(cum[-1])
        chunks.append(cum)
    positions = np.concatenate(chunks)
    return positions[positions <= count] - 1


def _decode_triu(positions: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Map indices over the row-major strict upper triangle of an s x s block
    back to (row, col) pairs with row < col."""
    r = np.arange(s, dtype=np.int64)
    row_starts = r * s - r * (r + 1) // 2
    rows = np.searchsorted(row_starts, positions, side="right") - 1
    cols = positions - row_starts[rows] + rows + 1
    return rows, cols


@dataclass
class SbmSample:
    graph: Graph
    planted: Partition
    dropped: list[int]  # original vertex ids removed as isolated
    params: SbmParams

    def metadata_record(self) -> dict:
        return {
            "type": "sbm",
            "n": self.params.n,
            "k": self.params.k,
            "p": self.params.p,
            "q": self.params.q,
            "seed": self.params.seed,
            "generator": GENERATOR_NAME,
            "n_after_drop": self.graph.n,
            "num_dropped": len(self.dropped),
            "dropped": self.dropped,
            "edges": self.graph.num_edges,
        }


def sample_sbm(params: SbmParams) -> SbmSample:
    """Sample a graph and its planted partition.

    Every unordered pair is considered independently exactly once. Isolated
    vertices are dropped (ids recorded, graph compacted) because the
    normalized operator needs positive degrees; the planted labels are
    filtered to the surviving vertices.
    """
    s = params.block_size
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for bi in range(params.k):
        for bj in range(bi, params.k):
            rng = rng_for(params.seed, _TAG_SBM_BLOCK, bi, bj)
            if bi == bj:
                pos = _bernoulli_positions(rng, s * (s - 1) // 2, params.p)
                rows, cols = _decode_triu(pos, s)
                us.append(rows + bi * s)
                vs.append(cols + bi * s)
            else:
                pos = _bernoulli_positions(rng, s * s, params.q)
                us.append(pos // s + bi * s)
                vs.append(pos % s + bj * s)
    u, v = np.concatenate(us), np.concatenate(vs)
    g, kept = from_edges(params.n, u, v, None, drop_isolated=True)

    planted = np.repeat(np.arange(params.k, dtype=np.int64), s)
    dropped: list[int] = []
    if kept is not None:
        planted = planted[kept]
        dropped = np.setdiff1d(np.arange(params.n), kept, assume_unique=True).tolist()
    return SbmSample(
        graph=g,
        planted=Partition(labels=planted, k=params.k),
        dropped=dropped,
        params=params,
    )


# ---------------------------------------------------------------------------
# Point clouds and kNN graphs


@dataclass
class PointCloud:
    points: PointSet
    labels: np.ndarray | None = None

    def __post_init__(self):
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.points.n,):
                raise InputError(
                    f"{self.labels.size} labels for {self.points.n} points"
                )

    @property
    def n(self) -> int:
        return self.points.n

    @property
    def d(self) -> int:
        return self.points.d


_KNN_MAX_N = 50_000


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """Each row's k smallest columns in (value, column) order.

    Equal to ``np.argsort(d2, axis=1, kind="stable")[:, :k]`` without
    sorting whole rows: every column not above the row's k-th smallest
    value is a candidate, and the candidates, which ``np.nonzero`` lists by
    row and column, are stably sorted by row and value. "Not above" keeps
    NaN (from coordinates whose squares overflow), which both sorts place
    last.
    """
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    rows, cols = np.nonzero(~(d2 > kth))
    order = np.lexsort((d2[rows, cols], rows))
    firsts = np.searchsorted(rows, np.arange(d2.shape[0]))
    return cols[order][firsts[:, None] + np.arange(k)]


def build_knn_graph(points: np.ndarray, k_nn: int) -> Graph:
    """Exact k-nearest-neighbour graph of the rows of an (n, d) array.

    Symmetrized by union, unit weights. Brute force with Euclidean
    distances: O(n^2 d) time, chunked so memory stays O(chunk * n).
    Distance ties break toward the lower point index. An edge {u, v}
    exists when u is among v's k_nn nearest or vice versa, so every vertex
    keeps degree >= k_nn when points are distinct.
    """
    coords = PointSet(points).coords
    n = coords.shape[0]
    if not 1 <= k_nn < n:
        raise InputError(f"need 1 <= k_nn < n, got k_nn={k_nn}, n={n}")
    if n > _KNN_MAX_N:
        raise InputError(f"brute-force kNN refuses n={n} > {_KNN_MAX_N}")

    sq_norms = np.einsum("ij,ij->i", coords, coords)
    chunk = max(1, min(n, 8_388_608 // max(n, 1)))  # ~64 MB of float64 per slab
    neighbor_cols = np.empty((n, k_nn), dtype=np.int64)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        d2 = sq_norms[start:stop, None] - 2.0 * coords[start:stop] @ coords.T + sq_norms[None, :]
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        neighbor_cols[start:stop] = _nearest(d2, k_nn)

    src = np.repeat(np.arange(n, dtype=np.int64), k_nn)
    dst = neighbor_cols.ravel()
    a = np.minimum(src, dst)
    b = np.maximum(src, dst)
    codes = np.unique(a * np.int64(n) + b)
    u, v = codes // n, codes % n
    g, _ = from_edges(n, u, v, None, drop_isolated=False)
    return g


def _int64_label(tok: str) -> int | None:
    """``tok`` as an integer label, or None if it is fractional or outside int64.

    Raises ValueError if ``tok`` is not a number at all.
    """
    try:
        value = int(tok)
    except ValueError:
        as_float = float(tok)
        if not as_float.is_integer():
            return None
        value = int(as_float)
    return value if -(2**63) <= value < 2**63 else None


def load_points_csv(path) -> PointCloud:
    """Comma-separated points, one per row; optional header naming columns.

    A header is any first non-comment row with a non-numeric token. A
    column named ``label`` (any case) holds integer ground-truth labels;
    all other columns are coordinates, in file order. ``#`` lines are
    skipped anywhere.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        rows = [(lineno, [tok.strip() for tok in line.split(",")])
                for lineno, line in data_lines(fh)]
    if not rows:
        raise GraphFormatError(f"{path}: no data rows")

    def numeric(tok: str) -> bool:
        try:
            float(tok)
            return True
        except ValueError:
            return False

    label_col: int | None = None
    if not all(numeric(tok) for tok in rows[0][1]):
        header = [tok.lower() for tok in rows[0][1]]
        for i, name in enumerate(header):
            if name == "label":
                label_col = i
        rows = rows[1:]
        if not rows:
            raise GraphFormatError(f"{path}: header but no data rows")

    width = len(rows[0][1])
    coords_list: list[list[float]] = []
    labels_list: list[int] = []
    for lineno, row in rows:
        if len(row) != width:
            raise GraphFormatError(
                f"{path}:{lineno}: expected {width} columns, got {len(row)}"
            )
        try:
            point = [float(tok) for i, tok in enumerate(row) if i != label_col]
            label = None if label_col is None else _int64_label(row[label_col])
        except ValueError:
            raise GraphFormatError(f"{path}:{lineno}: non-numeric value") from None
        if not all(map(math.isfinite, point)):
            raise GraphFormatError(f"{path}:{lineno}: coordinate is NaN or Inf")
        coords_list.append(point)
        if label_col is None:
            continue
        if label is None:
            raise GraphFormatError(
                f"{path}:{lineno}: label {row[label_col]!r} is not an integer in int64 range"
            )
        labels_list.append(label)
    coords = np.asarray(coords_list, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] < 1:
        raise GraphFormatError(f"{path}: points need at least one coordinate column")
    labels = np.asarray(labels_list, dtype=np.int64) if label_col is not None else None
    return PointCloud(points=PointSet(coords), labels=labels)


def write_sbm_metadata(sample: SbmSample, path) -> None:
    """Append one JSON-lines record describing a generated sample."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(sample.metadata_record(), sort_keys=False) + "\n")
