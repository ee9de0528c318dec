"""Graph generators and point ingestion: SBM sampling, kNN graphs, CSV.

SBM sampling runs in expected O(edges) time, not O(n^2): within each
block pair the present pairs form a Bernoulli process, so we draw
geometric gaps and jump straight to the selected pair indices. Each block
pair gets its own derived random stream, so the output is deterministic
given the master seed and independent of evaluation order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from specluster.errors import GraphFormatError, InputError
from specluster.graph import Graph, from_edges
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


def sbm_expected_edges(params: SbmParams) -> float:
    s = params.block_size
    intra = params.k * (s * (s - 1) / 2.0) * params.p
    inter = (params.k * (params.k - 1) / 2.0) * float(s) * s * params.q
    return intra + inter


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

    def __iter__(self):
        return iter((self.graph, self.planted))

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
    u = np.concatenate(us) if us else np.empty(0, dtype=np.int64)
    v = np.concatenate(vs) if vs else np.empty(0, dtype=np.int64)
    g, dropped = from_edges(params.n, u, v, None, drop_isolated=True)

    planted = np.repeat(np.arange(params.k, dtype=np.int64), s)
    if dropped:
        keep = np.ones(params.n, dtype=bool)
        keep[dropped] = False
        planted = planted[keep]
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


def build_knn_graph(pc: PointCloud | PointSet | np.ndarray, k_nn: int) -> Graph:
    """Exact k-nearest-neighbour graph, symmetrized by union, unit weights.

    Brute force with Euclidean distances: O(n^2 (d + log n)) time, chunked
    so memory stays O(chunk * n). Distance ties break toward the lower
    point index. An edge {u, v} exists when u is among v's k_nn nearest or
    vice versa, so every vertex keeps degree >= k_nn when points are
    distinct.
    """
    if isinstance(pc, PointCloud):
        coords = pc.points.coords
    elif isinstance(pc, PointSet):
        coords = pc.coords
    else:
        coords = PointSet(np.asarray(pc)).coords
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
        # stable argsort: equal distances resolve to the lower index
        neighbor_cols[start:stop] = np.argsort(d2, axis=1, kind="stable")[:, :k_nn]

    src = np.repeat(np.arange(n, dtype=np.int64), k_nn)
    dst = neighbor_cols.ravel()
    a = np.minimum(src, dst)
    b = np.maximum(src, dst)
    codes = np.unique(a * np.int64(n) + b)
    u, v = codes // n, codes % n
    g, _ = from_edges(n, u, v, None, drop_isolated=False)
    return g


def load_points_csv(path) -> PointCloud:
    """Comma-separated points, one per row; optional header naming columns.

    A header is any first non-comment row with a non-numeric token. A
    column named ``label`` (any case) holds integer ground-truth labels;
    all other columns are coordinates, in file order. ``#`` lines are
    skipped anywhere.
    """
    rows: list[list[str]] = []
    line_nos: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([tok.strip() for tok in line.split(",")])
            line_nos.append(lineno)
    if not rows:
        raise GraphFormatError(f"{path}: no data rows")

    def numeric(tok: str) -> bool:
        try:
            float(tok)
            return True
        except ValueError:
            return False

    label_col: int | None = None
    if not all(numeric(tok) for tok in rows[0]):
        header = [tok.lower() for tok in rows[0]]
        for i, name in enumerate(header):
            if name == "label":
                label_col = i
        rows = rows[1:]
        line_nos = line_nos[1:]
        if not rows:
            raise GraphFormatError(f"{path}: header but no data rows")

    width = len(rows[0])
    coords_list: list[list[float]] = []
    labels_list: list[int] = []
    for row, lineno in zip(rows, line_nos):
        if len(row) != width:
            raise GraphFormatError(
                f"{path}:{lineno}: expected {width} columns, got {len(row)}"
            )
        try:
            if label_col is None:
                coords_list.append([float(tok) for tok in row])
            else:
                coords_list.append(
                    [float(tok) for i, tok in enumerate(row) if i != label_col]
                )
                labels_list.append(int(float(row[label_col])))
        except ValueError:
            raise GraphFormatError(f"{path}:{lineno}: non-numeric value") from None
    coords = np.asarray(coords_list, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] < 1:
        raise GraphFormatError(f"{path}: points need at least one coordinate column")
    labels = np.asarray(labels_list, dtype=np.int64) if label_col is not None else None
    return PointCloud(points=PointSet(coords), labels=labels)


def save_points_csv(pc: PointCloud, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        cols = [f"x{i}" for i in range(pc.d)]
        if pc.labels is not None:
            cols.append("label")
        fh.write(",".join(cols) + "\n")
        for i in range(pc.n):
            vals = [f"{v:.17g}" for v in pc.points.coords[i]]
            if pc.labels is not None:
                vals.append(str(int(pc.labels[i])))
            fh.write(",".join(vals) + "\n")


def write_sbm_metadata(sample: SbmSample, path) -> None:
    """Append one JSON-lines record describing a generated sample."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(sample.metadata_record(), sort_keys=False) + "\n")
