"""Clustering quality measures: ARI, NMI, conductances, matched volume.

ARI and NMI are computed from the contingency table. NMI uses natural-log
entropies with arithmetic-mean normalization (the most common variant;
others exist, so cross-library comparisons can differ by a few percent).
The matched symmetric-difference volume pairs up the parts of two
partitions by optimal assignment and charges, per matched pair, the
volume of vertices on which the parts disagree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from specluster.errors import InputError, UndefinedConductanceError
from specluster.graph import Graph
from specluster.kmeans import Partition


def _labels_of(p) -> np.ndarray:
    if isinstance(p, Partition):
        return p.labels
    return np.asarray(p, dtype=np.int64)


def _num_parts(p, labels: np.ndarray) -> int:
    if isinstance(p, Partition):
        return p.k
    return int(labels.max()) + 1 if labels.size else 1


@dataclass
class ContingencyTable:
    counts: np.ndarray  # (k_a, k_b) nonnegative ints
    row_marginals: np.ndarray
    col_marginals: np.ndarray
    n: int

    @classmethod
    def from_labels(cls, a, b) -> "ContingencyTable":
        la, lb = _labels_of(a), _labels_of(b)
        if la.size != lb.size:
            raise InputError(f"label lengths differ: {la.size} vs {lb.size}")
        ka, kb = _num_parts(a, la), _num_parts(b, lb)
        counts = np.bincount(la * kb + lb, minlength=ka * kb).reshape(ka, kb)
        return cls(
            counts=counts,
            row_marginals=counts.sum(axis=1),
            col_marginals=counts.sum(axis=0),
            n=int(la.size),
        )


def _pairs(x: np.ndarray) -> float:
    # number of unordered pairs inside each count, summed; exact in float64
    # up to counts ~ 9e7 which is far beyond anything we evaluate
    x = x.astype(np.float64)
    return float((x * (x - 1.0)).sum() / 2.0)


def ari(a, b) -> float:
    """Adjusted Rand index; the degenerate denominator is defined as 0."""
    ct = ContingencyTable.from_labels(a, b)
    sum_ij = _pairs(ct.counts.ravel())
    sum_a = _pairs(ct.row_marginals)
    sum_b = _pairs(ct.col_marginals)
    total = ct.n * (ct.n - 1) / 2.0
    if total == 0:
        return 0.0
    expected = sum_a * sum_b / total
    maximum = 0.5 * (sum_a + sum_b)
    denom = maximum - expected
    if denom == 0:
        return 0.0
    return float((sum_ij - expected) / denom)


def _entropy(marginals: np.ndarray, n: int) -> float:
    p = marginals[marginals > 0] / n
    return float(-(p * np.log(p)).sum())


def nmi(a, b) -> float:
    """Mutual information over the arithmetic mean of the two entropies."""
    ct = ContingencyTable.from_labels(a, b)
    n = ct.n
    if n == 0:
        return 0.0
    nz = ct.counts > 0
    pij = ct.counts[nz] / n
    outer = np.outer(ct.row_marginals, ct.col_marginals)[nz] / (n * n)
    mi = float((pij * np.log(pij / outer)).sum())
    denom = 0.5 * (_entropy(ct.row_marginals, n) + _entropy(ct.col_marginals, n))
    if denom <= 0:
        return 0.0
    return float(min(1.0, max(0.0, mi / denom)))


def matched_sym_diff_volume(g: Graph, a, s) -> tuple[float, np.ndarray]:
    """Min over permutations of sum_i vol(A_i symdiff S_perm(i)).

    vol(A_i symdiff S_j) = vol(A_i) + vol(S_j) - 2 vol(A_i intersect S_j).
    If the partitions have different part counts the smaller side is padded
    with empty parts (an empty part's symmetric difference is the partner's
    volume). Returns (minimum, permutation) with permutation[i] = matched
    part of s for part i of a.
    """
    la, ls = _labels_of(a), _labels_of(s)
    if la.size != ls.size:
        raise InputError(f"label lengths differ: {la.size} vs {ls.size}")
    if la.size != g.n:
        raise InputError(f"partitions cover {la.size} vertices, graph has {g.n}")
    ka, ks = _num_parts(a, la), _num_parts(s, ls)
    k = max(ka, ks)

    vol_a = np.bincount(la, weights=g.degrees, minlength=k)
    vol_s = np.bincount(ls, weights=g.degrees, minlength=k)
    inter = np.bincount(la * k + ls, weights=g.degrees, minlength=k * k).reshape(k, k)

    cost = vol_a[:, None] + vol_s[None, :] - 2.0 * inter
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(k, dtype=np.int64)
    perm[rows] = cols
    return float(cost[rows, cols].sum()), perm


def partition_conductances(g: Graph, p) -> np.ndarray:
    """Conductance of every part; errors on empty parts."""
    labels = _labels_of(p)
    k = _num_parts(p, labels)
    if labels.size != g.n:
        raise InputError(f"partition covers {labels.size} vertices, graph has {g.n}")
    sizes = np.bincount(labels, minlength=k)
    empties = np.flatnonzero(sizes == 0)
    if empties.size:
        raise InputError(f"empty parts not allowed: {empties.tolist()}")
    vol = np.bincount(labels, weights=g.degrees, minlength=k)
    src = g.edge_sources()
    crossing = labels[src] != labels[g.col_indices]
    cut = np.bincount(labels[src[crossing]], weights=g.weights[crossing], minlength=k)
    total = g.total_volume
    other = total - vol
    if np.any(other <= 0):
        raise UndefinedConductanceError(
            "conductance undefined: a part carries the entire graph volume"
        )
    return cut / np.minimum(vol, other)


@dataclass
class ClusteringReport:
    """Evaluation summary for one predicted partition against a reference."""

    ari: float
    nmi: float
    max_conductance: float
    matched_sym_diff_volume: float
    permutation: list[int]
    padded_parts: bool = False

    def to_dict(self) -> dict:
        return {
            "ari": self.ari,
            "nmi": self.nmi,
            "max_conductance": self.max_conductance,
            "matched_sym_diff_volume": self.matched_sym_diff_volume,
            "permutation": list(map(int, self.permutation)),
            "padded_parts": self.padded_parts,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)


def evaluate_partition(g: Graph, predicted, truth) -> ClusteringReport:
    """Full report for a predicted partition against reference labels."""
    value, perm = matched_sym_diff_volume(g, predicted, truth)
    lp, lt = _labels_of(predicted), _labels_of(truth)
    kp, kt = _num_parts(predicted, lp), _num_parts(truth, lt)
    return ClusteringReport(
        ari=ari(predicted, truth),
        nmi=nmi(predicted, truth),
        max_conductance=float(partition_conductances(g, predicted).max()),
        matched_sym_diff_volume=value,
        permutation=perm.tolist(),
        padded_parts=kp != kt,
    )
