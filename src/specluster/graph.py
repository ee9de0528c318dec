"""Weighted undirected graphs in CSR form, with cut/volume/conductance ops.

File formats handled here:

* Edge list: UTF-8 text, one edge per line, ``u<TAB>v<TAB>w`` with ``w``
  optional (default 1.0). A leading byte-order mark is skipped, here and
  in every text file this package reads. Lines starting with ``#`` are
  ignored. Each undirected edge is listed once; the loader symmetrizes.
  Duplicate edges have their weights summed. Vertex ids are nonnegative
  integers; a file with any other id (a string or a negative number) gets
  a bijective id map (order of first appearance) which is returned so
  callers can persist it.
* Label file: one integer label per line, non-comment line i is the label
  of vertex i. ``#`` comment lines are skipped.
"""

from __future__ import annotations

import codecs
import functools
import math
import os
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from specluster.errors import GraphFormatError, InputError, UndefinedConductanceError

# Rows per ``%`` call in write_rows: a few thousand rows amortize the call
# while one block's values stay a small share of the process's memory.
_WRITE_BLOCK_ROWS = 4096
# Stored entries per block of save_edge_list, which writes about half as many
# lines: larger blocks amortize the per-block numpy calls, smaller ones stay
# in cache. 2**15 was the fastest of 2**13 to 2**17 on the sbm-k40 graph.
_EDGE_BLOCK = 1 << 15


@dataclass
class Graph:
    """Immutable weighted undirected graph, held as one scipy CSR matrix.

    ``adj`` is the symmetric adjacency in canonical format (sorted column
    indices, no duplicate entries) and stores no self-loops. ``degrees[u]``
    is the sum of incident edge weights (plus the folded self-loop weight,
    counted once, if self-loops were allowed at ingestion). The CSR views
    below return ``adj``'s own arrays, which must not be mutated; every
    operation on a constructed Graph is a pure read, so instances are safe
    to share across threads.
    """

    adj: sp.csr_matrix
    degrees: np.ndarray
    self_loop_weights: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    @property
    def col_indices(self) -> np.ndarray:
        return self.adj.indices

    @property
    def weights(self) -> np.ndarray:
        return self.adj.data

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (self-loops excluded; never stored)."""
        return int(self.adj.nnz) // 2

    @property
    def total_volume(self) -> float:
        return float(self.degrees.sum())

    def edge_sources(self) -> np.ndarray:
        """Row index of every stored (directed) entry."""
        return np.repeat(np.arange(self.n), np.diff(self.adj.indptr))

    def adjacency_csr(self) -> sp.csr_matrix:
        return self.adj


def _index_dtype(n: int) -> type:
    """The narrowest of int32 and int64 that holds every vertex id below ``n``."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


def from_edges(
    n: int,
    u: Sequence[int],
    v: Sequence[int],
    w: Sequence[float] | None = None,
    *,
    allow_self_loops: bool = False,
    drop_isolated: bool = False,
) -> tuple[Graph, np.ndarray | None]:
    """Build a Graph from an edge list (each undirected edge given once).

    Duplicate edges are summed. Self-loops are rejected unless
    ``allow_self_loops``, in which case their weight is folded into the
    degree (counted once) but not stored in the adjacency. Isolated
    vertices are rejected unless ``drop_isolated``, in which case they are
    removed, the remaining vertices are renumbered in id order and the
    second return value holds their original ids (sorted int64); it is None
    when no vertex was dropped.
    """
    u, v = np.asarray(u), np.asarray(v)
    if u.dtype.kind not in "iu":  # an empty list, for one, arrives as float64
        u = u.astype(np.int64)
    if v.dtype.kind not in "iu":
        v = v.astype(np.int64)
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
    # The ids are in range, so they fit the index type that scipy would
    # narrow the COO to anyway; concatenating in it halves the build's copies.
    index = _index_dtype(n)
    u, v = u.astype(index, copy=False), v.astype(index, copy=False)
    loop_mask = u == v
    if not allow_self_loops and np.any(loop_mask):
        ids = np.unique(u[loop_mask])[:8]
        raise InputError(
            f"self-loops present at vertices {ids.tolist()}; "
            "rejected by default (pass allow_self_loops / --allow-self-loops "
            "to fold them into the degree)"
        )

    # A vertex is isolated when it is no edge's endpoint; weights are
    # positive, so these are exactly the vertices of degree 0. With more
    # vertices than endpoints, n may be far larger than the input, so the
    # kept ids come from the endpoints alone and nothing of size n is built.
    if n <= u.size + v.size:
        present = np.zeros(n, dtype=bool)
        present[u] = True
        present[v] = True
        kept = None if present.all() else np.flatnonzero(present)
    else:
        kept = np.union1d(u, v).astype(np.int64)
    if kept is not None:
        if not drop_isolated:
            first = np.setdiff1d(np.arange(min(n, kept.size + 8)), kept, assume_unique=True)
            raise InputError(
                f"isolated vertices present: {first[:8].tolist()}"
                f"{' ...' if n - kept.size > 8 else ''}; rejected by default "
                "(pass drop_isolated / --drop-isolated to remove them)"
            )
        if kept.size == 0:
            raise InputError("graph is empty after dropping isolated vertices")
        n = int(kept.size)
        index = _index_dtype(n)
        u = np.searchsorted(kept, u).astype(index)
        v = np.searchsorted(kept, v).astype(index)

    self_loops = None
    if np.any(loop_mask):
        self_loops = np.bincount(u[loop_mask], weights=w[loop_mask], minlength=n)
        u, v, w = u[~loop_mask], v[~loop_mask], w[~loop_mask]

    # Symmetrize; COO->CSR conversion sums duplicates and sorts each row's
    # columns, so the result is independent of the input edge order.
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    vals = np.concatenate([w, w])
    del u, v, w  # the narrowed copies, if any, need not live through the build
    adj = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()

    degrees = np.asarray(adj.sum(axis=1)).ravel()
    if self_loops is not None:
        degrees = degrees + self_loops

    return Graph(adj=adj, degrees=degrees, self_loop_weights=self_loops), kept


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


# ---------------------------------------------------------------------------
# File I/O


@dataclass
class GraphLoadResult:
    graph: Graph
    id_map: list[str] | None  # id_map[i] = input id of vertex i; None when vertex i is id i
    num_dropped: int  # isolated vertices removed by drop_isolated


def _hash_lines_only(path) -> bool:
    """Whether the file holds a ``#`` and only spaces and tabs precede each one on its line."""
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    at = data.find(b"#")
    if at == -1:
        return False
    while at != -1:
        if data[data.rfind(b"\n", 0, at) + 1:at].strip(b" \t"):
            return False
        end = data.find(b"\n", at)
        at = -1 if end == -1 else data.find(b"#", end)
    return True


def _load_bulk(path) -> np.ndarray | None:
    """The whole edge list from one ``np.loadtxt`` call, or None.

    Returns a structured array with int64 fields ``u`` and ``v`` and, when
    the first data line has three fields, a float64 field ``w``. Ids are
    parsed as integers, never through a float. None means that
    ``load_edge_list``'s line loop must read the file, which then gives its
    own result or ``path:lineno`` error. That happens when ``path`` is not a
    regular file, when loadtxt cannot parse every line at the first line's
    field count (a string id, a ``#`` after a field, mixed field counts, an
    id beyond int64, ...), when an id is negative (the file then has string
    ids), or when a weight is outside ``(0, inf)``. A ``#`` line after the
    first data line costs a second ``np.loadtxt`` call, not the loop.
    """
    # Only a regular file can be read again by loadtxt and then by the loop;
    # a pipe such as ``--graph <(zcat g.tsv.gz)`` yields its bytes once.
    if not os.path.isfile(path):
        return None
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for skip, line in enumerate(fh):
                parts = line.split()
                if parts and not parts[0].startswith("#"):
                    break
            else:
                return None
        if len(parts) not in (2, 3):
            return None
        dtype = [("u", np.int64), ("v", np.int64)] + [("w", np.float64)] * (len(parts) == 3)
        load = functools.partial(np.loadtxt, path, dtype=dtype, skiprows=skip,
                                 encoding="utf-8-sig", ndmin=1)
        try:
            # comments=None: with "#", loadtxt would accept "0 1 1 # c", which
            # the loop rejects for its five fields.
            table = load(comments=None)
        except ValueError:
            # Perhaps a "#" line after the first data line. Where only blanks
            # precede every "#", loadtxt drops just the lines the loop skips.
            if not _hash_lines_only(path):
                return None
            table = load(comments="#")
    except ValueError:  # UnicodeDecodeError included: the loop raises its own
        return None
    if min(table["u"].min(), table["v"].min()) < 0:
        return None
    if len(parts) == 3 and not np.all((table["w"] > 0.0) & (table["w"] < math.inf)):
        return None
    return table


def load_edge_list(
    path,
    *,
    allow_self_loops: bool = False,
    drop_isolated: bool = False,
) -> GraphLoadResult:
    id_map = None
    table = _load_bulk(path)
    if table is not None:
        # Copies in the build's own types, so that the table is freed before
        # the build, whose memory peak is the load's.
        index = _index_dtype(int(max(table["u"].max(), table["v"].max())) + 1)
        u, v = table["u"].astype(index), table["v"].astype(index)
        weights = table["w"].copy() if "w" in table.dtype.names else None
        del table
    else:
        tokens: list[str] = []  # endpoint tokens, two per edge
        ws: list[float] = []
        with open(path, "r", encoding="utf-8-sig") as fh:
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
                        raise GraphFormatError(
                            f"{path}:{lineno}: bad weight {parts[2]!r}"
                        ) from None
                    if not 0.0 < w < math.inf:
                        raise GraphFormatError(f"{path}:{lineno}: weight must be positive, got {w}")
                tokens.append(parts[0])
                tokens.append(parts[1])
                ws.append(w)
        if not ws:
            raise GraphFormatError(f"{path}: no edges found")
        weights = np.array(ws, dtype=np.float64)
        del ws

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
            del index
        # The token list is the largest object of a load: free the text before
        # the graph is built, so that the two never share the memory peak.
        del tokens
        u, v = ids[0::2], ids[1::2]

    # String ids number every endpoint, so n is the largest index plus one
    # for them as for integer ids.
    n = int(max(u.max(), v.max())) + 1
    g, kept = from_edges(
        n, u, v, weights,
        allow_self_loops=allow_self_loops, drop_isolated=drop_isolated,
    )
    if kept is not None:  # only integer ids can be absent from the edges
        id_map = [str(i) for i in kept.tolist()]
    return GraphLoadResult(graph=g, id_map=id_map, num_dropped=n - g.n)


def write_rows(path, header_lines: Iterable[str], fmt: str, *columns) -> None:
    """Write each header line, then ``fmt % row`` for every row of ``columns``.

    ``fmt`` formats one whole row, newline included; ``columns`` are equal-length
    1-D sequences. Rows are formatted ``_WRITE_BLOCK_ROWS`` at a time with one
    ``%`` per block, which gives the same bytes as one ``%`` per row while
    holding only one block of values as Python objects.
    """
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{line}\n" for line in header_lines)
        for lo in range(0, len(columns[0]), _WRITE_BLOCK_ROWS):
            block = [c[lo:lo + _WRITE_BLOCK_ROWS].tolist() for c in columns]
            fh.write((fmt * len(block[0])) % tuple(chain.from_iterable(zip(*block))))


def data_lines(fh, start: int = 1) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, stripped line)`` for each line that is not blank or a ``#`` comment."""
    for lineno, line in enumerate(fh, start=start):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


# "%.17g" of a positive finite float64 takes at most 23 characters: 17
# significant digits, a point and an exponent such as "e-308"; %g writes
# positional form only for exponents -4 to 16, where it is no longer.
_WEIGHT_TEXT_BYTES = 24


def _text_table(conversion: str, end: str, values: np.ndarray, width: int) -> np.ndarray:
    """Row i holds ``conversion % values[i]``, NUL bytes, then ``end``, as 8-byte words.

    Dropping a row's NULs leaves ``(conversion + end) % values[i]``. Each
    value is formatted left-justified in ``width - 1`` characters, which
    appends only spaces to the conversion's text; the spaces then become
    NULs. Values are formatted with one ``%`` per ``_WRITE_BLOCK_ROWS`` of
    them, as in ``write_rows``. ``width``, a multiple of 8, bounds the
    rows; the table keeps only the words that its longest text and ``end``
    fill, so that gathering a row copies as few words as it can.
    """
    padded = f"%-{width - 1}{conversion[1:]}"
    table = np.empty((len(values), width), dtype=np.uint8)
    table[:, -1] = ord(end)
    for lo in range(0, len(values), _WRITE_BLOCK_ROWS):
        chunk = values[lo:lo + _WRITE_BLOCK_ROWS].tolist()
        text = ((padded * len(chunk)) % tuple(chunk)).encode("ascii")
        if len(text) != len(chunk) * (width - 1):
            raise ValueError(f"a {conversion!r} text is longer than {width - 1} characters")
        table[lo:lo + len(chunk), :-1] = np.frombuffer(text, np.uint8).reshape(-1, width - 1)
    table[table == ord(" ")] = 0
    table = table[:, :(int(np.count_nonzero(table, axis=1).max(initial=1)) + 7) // 8 * 8].copy()
    table[:, -1] = ord(end)
    return table.view(np.uint64)


def save_edge_list(g: Graph, path, header_comments: Sequence[str] = ()) -> None:
    """Write the upper triangle (u < v) as a tab-separated edge list.

    Each line holds the bytes of ``"%d\\t%d\\t%.17g\\n" % (u, v, w)``. The ids
    are formatted once, and each block's distinct weights once per block,
    into NUL-padded tables; a line is the gather of its three table rows
    with the NULs dropped, which no formatted byte is. Stored entries are
    visited ``_EDGE_BLOCK`` at a time in CSR order, and no array as long as
    the edge count is made.
    """
    a = g.adj
    ids = _text_table("%d", "\t", np.arange(g.n), (len(str(g.n - 1)) + 8) // 8 * 8)
    iw = ids.shape[1]
    with open(path, "wb") as fh:
        fh.writelines(f"# {c}\n".encode("utf-8") for c in header_comments)
        for lo in range(0, a.nnz, _EDGE_BLOCK):
            hi = min(lo + _EDGE_BLOCK, a.nnz)
            # The rows that hold entries lo to hi - 1, and their counts there.
            first = int(np.searchsorted(a.indptr, lo, side="right")) - 1
            last = int(np.searchsorted(a.indptr, hi, side="left"))
            counts = np.diff(np.clip(a.indptr[first:last + 1], lo, hi))
            src = np.repeat(np.arange(first, last), counts)
            dst = a.indices[lo:hi]
            upper = src < dst
            distinct, codes = np.unique(a.data[lo:hi][upper], return_inverse=True)
            weights = _text_table("%.17g", "\n", distinct, _WEIGHT_TEXT_BYTES)
            lines = np.empty((codes.size, 2 * iw + weights.shape[1]), dtype=np.uint64)
            np.take(ids, src[upper], axis=0, out=lines[:, :iw])
            np.take(ids, dst[upper], axis=0, out=lines[:, iw:2 * iw])
            np.take(weights, codes, axis=0, out=lines[:, 2 * iw:])
            text = lines.view(np.uint8).ravel()
            fh.write(text[text != 0])


def load_labels(path, expected_n: int | None = None) -> np.ndarray:
    labels: list[int] = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in data_lines(fh):
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
    write_rows(path, [f"# {c}" for c in header_comments], "%d\n",
               np.asarray(labels, dtype=np.int64))
