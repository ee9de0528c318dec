"""k-means: cost functional, k-means++ seeding, Lloyd iterations.

Hand-rolled rather than delegated so the determinism contracts hold
exactly: distance ties go to the lowest cluster index, empty clusters are
repaired by promoting the farthest point to a singleton, and every random
choice flows from the caller's seed. Restarted Lloyd from k-means++ seeds
is the practical stand-in for a constant-factor approximation scheme; the
expected guarantee is O(log k)-competitive, which is weaker, and callers
who care are pointed to this note in the README.

All distances are squared Euclidean; no square roots in any inner loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from specluster.errors import InputError, SpeclusterError
from specluster.spectral import rng_for


@dataclass
class PointSet:
    """n points in d dimensions, one per row."""

    coords: np.ndarray

    def __post_init__(self):
        self.coords = np.ascontiguousarray(self.coords, dtype=np.float64)
        if self.coords.ndim != 2 or self.coords.shape[1] < 1:
            raise InputError("points must form a 2-D array with d >= 1")
        if not np.all(np.isfinite(self.coords)):
            raise InputError("points contain NaN or Inf")

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]


def _coords(points) -> np.ndarray:
    if isinstance(points, PointSet):
        return points.coords
    return PointSet(np.asarray(points)).coords


@dataclass
class Partition:
    """Cluster labels for n items, values in [0, k)."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1:
            raise InputError("labels must be a 1-D array")
        if self.k < 1:
            raise InputError(f"k must be >= 1, got {self.k}")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.k):
            raise InputError(f"labels must lie in [0, {self.k})")

    @classmethod
    def from_labels(cls, labels, k: int | None = None) -> "Partition":
        labels = np.asarray(labels, dtype=np.int64)
        if k is None:
            k = int(labels.max()) + 1 if labels.size else 1
        return cls(labels=labels, k=k)

    @property
    def n(self) -> int:
        return self.labels.size

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)

    def empty_parts(self) -> list[int]:
        return np.flatnonzero(self.sizes() == 0).tolist()


def cluster_means(coords: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Mean of each cluster's points; rows of empty clusters are zero."""
    sums = np.stack([np.bincount(labels, weights=col, minlength=k) for col in coords.T], axis=1)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    nonempty = counts > 0
    sums[nonempty] /= counts[nonempty, None]
    return sums


def kmeans_cost(points, part: Partition) -> float:
    """Sum of squared distances from each point to its own cluster mean."""
    coords = _coords(points)
    if part.n != coords.shape[0]:
        raise InputError(f"partition has {part.n} labels for {coords.shape[0]} points")
    means = cluster_means(coords, part.labels, part.k)
    diff = coords - means[part.labels]
    return float(np.einsum("ij,ij->", diff, diff))


def _sq_dists_to(coords: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances, clipped at zero."""
    d2 = (
        np.einsum("ij,ij->i", coords, coords)[:, None]
        - 2.0 * coords @ centers.T
        + np.einsum("ij,ij->i", centers, centers)[None, :]
    )
    return np.maximum(d2, 0.0, out=d2)


def _weighted_index(rng: np.random.Generator, weights: np.ndarray) -> int:
    cum = np.cumsum(weights)
    return int(np.searchsorted(cum, rng.random() * cum[-1], side="right").clip(0, weights.size - 1))


def _kmeans_pp_indices(coords: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = coords.shape[0]
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    best_d2 = _sq_dists_to(coords, coords[chosen[0]][None, :])[:, 0]
    for i in range(1, k):
        total = best_d2.sum()
        if total > 0:
            idx = _weighted_index(rng, best_d2)
        else:
            # All remaining mass sits on already-chosen rows (duplicates);
            # fall back to a uniform pick among unchosen indices.
            unchosen = np.setdiff1d(np.arange(n), chosen[:i])
            idx = int(unchosen[rng.integers(unchosen.size)])
        chosen[i] = idx
        best_d2 = np.minimum(best_d2, _sq_dists_to(coords, coords[idx][None, :])[:, 0])
    return chosen


def kmeans_pp_seed(points, k: int, seed: int) -> np.ndarray:
    """k-means++ initial centers: first uniform, later picks weighted by D^2.

    Returns the (k, d) center coordinates; k distinct rows are chosen.
    """
    coords = _coords(points)
    if not 1 <= k <= coords.shape[0]:
        raise InputError(f"need 1 <= k <= n, got k={k}, n={coords.shape[0]}")
    return coords[_kmeans_pp_indices(coords, k, rng_for(seed))].copy()


def _repair_empty(labels: np.ndarray, d2_own: np.ndarray, k: int) -> None:
    """Promote the farthest-from-its-center point to each empty cluster.

    In-place on labels; d2_own holds each point's squared distance to its
    current center and is zeroed for promoted points so later repairs pick
    someone else.
    """
    counts = np.bincount(labels, minlength=k)
    for empty in np.flatnonzero(counts == 0):
        far = int(np.argmax(d2_own))
        counts[labels[far]] -= 1
        labels[far] = empty
        counts[empty] = 1
        d2_own[far] = 0.0


def lloyd(
    points,
    k: int,
    seed: int,
    max_iters: int = 100,
    tol: float = 1e-6,
    restarts: int = 10,
) -> Partition:
    """Restarted Lloyd iterations from k-means++ seeds, best cost kept.

    Per restart: assign each point to the nearest center (ties to the
    lowest index), repair empty clusters, recompute means, repeat until
    the relative cost improvement drops below ``tol``, the assignment
    stops changing, or ``max_iters`` is hit. The per-iteration cost is
    nonincreasing; a rise raises SpeclusterError.
    """
    coords = _coords(points)
    n = coords.shape[0]
    if not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= n, got k={k}, n={n}")
    if restarts < 1:
        raise InputError(f"restarts must be >= 1, got {restarts}")
    if max_iters < 1:
        raise InputError(f"max_iters must be >= 1, got {max_iters}")

    best_labels: np.ndarray | None = None
    best_cost = np.inf
    for r in range(restarts):
        rng = rng_for(seed, r)
        centers = coords[_kmeans_pp_indices(coords, k, rng)].copy()
        labels = np.zeros(n, dtype=np.int64)
        prev_cost = np.inf
        for _ in range(max_iters):
            d2 = _sq_dists_to(coords, centers)
            new_labels = np.argmin(d2, axis=1)  # ties -> lowest index
            d2_own = d2[np.arange(n), new_labels]
            _repair_empty(new_labels, d2_own, k)
            unchanged = bool(np.array_equal(new_labels, labels)) and np.isfinite(prev_cost)
            labels = new_labels
            centers = cluster_means(coords, labels, k)
            cost = kmeans_cost(coords, Partition(labels=labels, k=k))
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
