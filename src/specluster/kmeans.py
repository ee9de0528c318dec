"""k-means: cost functional, k-means++ seeding, Lloyd iterations.

Hand-rolled rather than delegated so the determinism contracts hold
exactly: distance ties go to the lowest cluster index, empty clusters are
repaired by promoting the farthest point to a singleton, and every random
choice flows from the caller's seed. Restarted Lloyd from k-means++ seeds
is the practical stand-in for a constant-factor approximation scheme; the
expected guarantee is O(log k)-competitive, which is weaker, and callers
who care are pointed to this note in the README.

All distances are squared Euclidean; the only square roots are the
per-point distance bounds that let Lloyd skip points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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


def _point_set(points) -> PointSet:
    """``points`` itself if it is a PointSet, else the checked PointSet of its array."""
    return points if isinstance(points, PointSet) else PointSet(np.asarray(points))


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
    """Mean of each cluster's points; rows of empty clusters are zero.

    The sums are one product with the k x n cluster-indicator matrix. Its
    column indices are stably sorted, so each cluster adds its points in
    index order, bitwise as a per-column ``np.bincount`` does. The labels
    are sorted in the narrowest unsigned type that holds k - 1: numpy sorts
    8- and 16-bit keys stably by radix in O(n), whatever the vertex order.
    """
    counts = np.bincount(labels, minlength=k)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    order = np.argsort(labels.astype(np.min_scalar_type(k - 1)), kind="stable")
    members = sp.csr_matrix((np.ones(labels.size), order, indptr), shape=(k, labels.size))
    sums = members @ coords
    nonempty = counts > 0
    sums[nonempty] /= counts[nonempty, None]
    return sums


def kmeans_cost(points, part: Partition, means: np.ndarray | None = None) -> float:
    """Sum of squared distances from each point to its own cluster mean.

    ``means``, when given, must be ``cluster_means`` of these points and
    labels; a caller that has just computed them passes them to save the
    second computation.
    """
    coords = _point_set(points).coords
    if part.n != coords.shape[0]:
        raise InputError(f"partition has {part.n} labels for {coords.shape[0]} points")
    if means is None:
        means = cluster_means(coords, part.labels, part.k)
    diff = np.take(means, part.labels, axis=0)
    np.subtract(coords, diff, out=diff)
    return float(np.einsum("ij,ij->", diff, diff))


def _sq_dists_to(two_coords: np.ndarray, sq_norms: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances, clipped at zero.

    ``two_coords`` holds each row times two (exact), so a caller that
    reuses its rows doubles them once; ``sq_norms`` holds each row's
    squared norm. The terms are combined in the order
    ``|x|^2 - 2 x.c + |c|^2``, in place in one (n, k) array.
    """
    d2 = two_coords @ centers.T
    np.subtract(sq_norms[:, None], d2, out=d2)
    d2 += np.einsum("ij,ij->i", centers, centers)[None, :]
    return np.maximum(d2, 0.0, out=d2)


# Rows per assignment block: a 2048 x k distance block stays in cache for
# the k of the benchmark workloads, where one (n, k) array does not.
_ASSIGN_BLOCK_ROWS = 2048


def _assign(
    coords: np.ndarray,
    sq_norms: np.ndarray,
    centers: np.ndarray,
    d2_second: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest center of every row (ties to the lowest index) and its squared distance.

    Bitwise equal to one ``_sq_dists_to`` over all rows followed by argmin.
    A one-row tail is folded into the block before it: numpy multiplies a
    single row through BLAS gemv, which can round differently from gemm.
    If ``d2_second`` is given, it receives each row's squared distance to
    the nearest other center (inf when k = 1).
    """
    n = coords.shape[0]
    labels = np.empty(n, dtype=np.int64)
    d2_own = np.empty(n, dtype=np.float64)
    bounds = [0, *range(_ASSIGN_BLOCK_ROWS, n - 1, _ASSIGN_BLOCK_ROWS), n]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        d2 = _sq_dists_to(2.0 * coords[start:stop], sq_norms[start:stop], centers)
        rows = np.arange(stop - start)
        block = np.argmin(d2, axis=1)
        labels[start:stop] = block
        d2_own[start:stop] = d2[rows, block]
        if d2_second is not None:
            d2[rows, block] = np.inf
            d2_second[start:stop] = d2.min(axis=1)
    return labels, d2_own


def _weighted_index(rng: np.random.Generator, weights: np.ndarray) -> int:
    cum = np.cumsum(weights)
    return int(np.searchsorted(cum, rng.random() * cum[-1], side="right").clip(0, weights.size - 1))


def _kmeans_pp_indices(
    coords: np.ndarray,
    k: int,
    rng: np.random.Generator,
    sq_norms: np.ndarray | None = None,
    two_coords: np.ndarray | None = None,
) -> np.ndarray:
    """Row indices of k-means++ centers. A caller that seeds many times passes
    each row's squared norm and the rows times two, computed once."""
    n = coords.shape[0]
    if sq_norms is None:
        sq_norms = np.einsum("ij,ij->i", coords, coords)
        two_coords = 2.0 * coords
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    best_d2 = _sq_dists_to(two_coords, sq_norms, coords[chosen[0]][None, :])[:, 0]
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
        best_d2 = np.minimum(best_d2, _sq_dists_to(two_coords, sq_norms, coords[idx][None, :])[:, 0])
    return chosen


def kmeans_pp_seed(points, k: int, seed: int) -> np.ndarray:
    """k-means++ initial centers: first uniform, later picks weighted by D^2.

    Returns the (k, d) center coordinates; k distinct rows are chosen.
    """
    coords = _point_set(points).coords
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


# Distance bounds that let a Lloyd sweep skip points (Hamerly, "Making
# k-means even faster", SDM 2010). Per point, ``upper`` bounds the exact
# distance to its own center and ``lower`` the exact distance to every
# other center. A skipped point must get the label that the computed
# distances of ``_sq_dists_to`` would give it, so the test leaves room for
# their rounding. With unit roundoff u = eps/2, gamma_d = d u / (1 - d u)
# and S = |x| + max_j |c_j| >= |x| + |c|, the computed |x|^2 and |c|^2 are
# each off by at most gamma_d |x|^2 and gamma_d |c|^2, the dot product
# (2x).c by gamma_d 2|x||c| in any summation order, and the subtraction and
# addition by u S^2 each, so the computed squared distance is within about
# (gamma_d + 2u) S^2 = (d/2 + 1) eps S^2 of the exact one. The margin
# delta = (4d + 16) eps S^2 is eight times that, which also covers the
# rounding of delta itself and of the float comparison below. Then
#     upper^2 + delta < lower^2 - delta
# puts the computed own distance strictly below every other computed
# distance, so argmin keeps the point's label, ties included. The skip also
# needs lower > 0: a lower bound loosened below zero says nothing, yet its
# square is large. Bounds move by the center shifts, which are rounded up
# by a relative (d + 4) eps, and after every update or reset ``upper`` is
# rounded up and ``lower`` down by 4 eps; subtraction, square root and
# product each round by at most eps/2 relative, so the bounds stay valid.
_EPS = np.finfo(np.float64).eps
_ROUND_UP = 1.0 + 4.0 * _EPS
_ROUND_DOWN = 1.0 - 4.0 * _EPS


def _tight_bounds(d2_own: np.ndarray, d2_second: np.ndarray, delta: np.ndarray):
    """Upper and lower distance bounds from computed squared distances."""
    upper = np.sqrt(d2_own + delta) * _ROUND_UP
    lower = np.sqrt(np.maximum(d2_second - delta, 0.0)) * _ROUND_DOWN
    return upper, lower


def _loosen(upper, lower, labels, centers, prev_centers) -> None:
    """Widen the bounds in place by how far each center moved."""
    d, k = centers.shape[1], centers.shape[0]
    diff = centers - prev_centers
    shift = np.sqrt(np.einsum("ij,ij->i", diff, diff)) * (1.0 + (d + 4) * _EPS)
    upper += shift[labels]
    upper *= _ROUND_UP
    # Every other center of a point moved at most the largest shift, or the
    # second largest for the points of the center that moved most.
    far = int(np.argmax(shift))
    drop = np.full(k, shift[far])
    drop[far] = np.delete(shift, far).max(initial=0.0)
    lower -= drop[labels]
    lower *= _ROUND_DOWN


def _sweep(coords, sq_norms, centers, delta, labels, upper, lower) -> np.ndarray:
    """New labels, recomputing only the points whose bounds allow a move.

    The recomputed points get fresh bounds, in place. A point with
    ``lower == 0`` is always recomputed. If a cluster comes out empty, every
    point is recomputed, since the repair needs every computed distance.
    """
    n, k = coords.shape[0], centers.shape[0]
    labels = labels.copy()
    stale = np.flatnonzero(~((lower > 0) & (upper * upper + 2.0 * delta < lower * lower)))
    # The second pass, over every point, runs only if a cluster is empty.
    for stale in (stale, np.arange(n)):
        rows = stale
        if stale.size == 1 and n > 1:
            # One row would go through gemv; pad it with a neighbour.
            rows = np.array([stale[0], stale[0] - 1 if stale[0] else 1])
        d2_second = np.empty(rows.size)
        # With every row stale (a restart's first sweep, the second pass)
        # the rows are read in place: a gathered copy is n x d more memory.
        picked = (coords, sq_norms) if stale.size == n else (coords[rows], sq_norms[rows])
        nearest, d2_own = _assign(*picked, centers, d2_second)
        m = stale.size
        labels[stale] = nearest[:m]
        upper[stale], lower[stale] = _tight_bounds(d2_own[:m], d2_second[:m], delta[stale])
        if np.bincount(labels, minlength=k).min() > 0:
            return labels
    _repair_empty(labels, d2_own, k)
    # A promoted point's bounds refer to its old center: lower = 0 forces
    # its recomputation next sweep. lloyd would recompute it anyway, since
    # its new center, the point itself, moved at least the point's computed
    # distance to it, so _loosen leaves upper >= lower; but only 0 still
    # bounds the distance to the old center, now another cluster's.
    lower[labels != nearest] = 0.0
    return labels


def lloyd(
    points,
    k: int,
    seed: int,
    max_iters: int = 100,
    tol: float = 1e-6,
    restarts: int = 10,
    pmap=map,
) -> Partition:
    """Restarted Lloyd iterations from k-means++ seeds, best cost kept.

    Per restart: assign each point to the nearest center (ties to the
    lowest index), repair empty clusters, recompute means, repeat until
    the relative cost improvement drops below ``tol``, the assignment
    stops changing, or ``max_iters`` is hit. The per-iteration cost is
    nonincreasing; a rise raises SpeclusterError.

    A point is recomputed only when its distance bounds allow it to change
    label, or when a cluster empties; the labels are bitwise those of
    assigning every point (see the comment above ``_ROUND_UP``).

    ``pmap``, an order-keeping map such as the builtin one, runs the
    restarts. Restart r draws only from its own stream ``rng_for(seed, r)``
    and writes only its own arrays, and the lowest cost wins with ties to
    the lowest r, so the result does not depend on how they are scheduled.
    """
    pts = _point_set(points)
    coords = pts.coords
    n, d = coords.shape
    if not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= n, got k={k}, n={n}")
    if restarts < 1:
        raise InputError(f"restarts must be >= 1, got {restarts}")
    if max_iters < 1:
        raise InputError(f"max_iters must be >= 1, got {max_iters}")

    sq_norms = np.einsum("ij,ij->i", coords, coords)
    norms = np.sqrt(sq_norms)
    two_coords = 2.0 * coords
    margin = (4 * d + 16) * _EPS

    def restart(r: int) -> tuple[float, np.ndarray]:
        rng = rng_for(seed, r)
        centers = coords[_kmeans_pp_indices(coords, k, rng, sq_norms, two_coords)].copy()
        labels = np.zeros(n, dtype=np.int64)
        # Bounds that rule nothing out: the first sweep recomputes every point.
        upper, lower, prev_centers = np.full(n, np.inf), np.zeros(n), centers
        prev_cost = np.inf
        for _ in range(max_iters):
            delta = margin * (norms + np.sqrt(np.einsum("ij,ij->i", centers, centers).max())) ** 2
            _loosen(upper, lower, labels, centers, prev_centers)
            new_labels = _sweep(coords, sq_norms, centers, delta, labels, upper, lower)
            unchanged = bool(np.array_equal(new_labels, labels)) and np.isfinite(prev_cost)
            labels = new_labels
            prev_centers = centers
            centers = cluster_means(coords, labels, k)
            cost = kmeans_cost(pts, Partition(labels=labels, k=k), means=centers)
            if not cost <= prev_cost * (1 + 1e-12) + 1e-12:
                raise SpeclusterError(f"k-means cost increased from {prev_cost!r} to {cost!r}")
            small_gain = np.isfinite(prev_cost) and prev_cost - cost <= tol * max(prev_cost, 1e-300)
            prev_cost = cost
            if unchanged or small_gain:
                break
        return prev_cost, labels

    results = list(pmap(restart, range(restarts)))
    # min keeps the first of equal costs: ties go to the lowest restart.
    _, best_labels = min(results, key=lambda result: result[0])
    return Partition(labels=best_labels, k=k)
