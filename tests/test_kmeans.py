"""Cost functional, k-means++ seeding, Lloyd iterations, determinism."""

import numpy as np
import pytest

from specluster import kmeans
from specluster.errors import InputError, SpeclusterError
from specluster.kmeans import (
    Partition,
    PointSet,
    cluster_means,
    kmeans_cost,
    kmeans_pp_seed,
    lloyd,
)
from specluster.metrics import ari


def frobenius_cost_oracle(coords: np.ndarray, labels: np.ndarray, k: int) -> float:
    """||B - X X^T B||_F^2 with X the normalized indicator matrix."""
    n = coords.shape[0]
    x = np.zeros((n, k))
    counts = np.bincount(labels, minlength=k)
    for i, lab in enumerate(labels):
        x[i, lab] = 1.0 / np.sqrt(counts[lab])
    resid = coords - x @ (x.T @ coords)
    return float(np.linalg.norm(resid) ** 2)


def blobs(rng, n_per, centers, sigma):
    coords = np.concatenate(
        [c + sigma * rng.standard_normal((n_per, len(c))) for c in centers]
    )
    labels = np.repeat(np.arange(len(centers)), n_per)
    return coords, labels


# ---------------------------------------------------------------------------
# kmeans_cost


def test_cost_singleton_clusters_zero():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert kmeans_cost(pts, Partition(labels=[0, 1], k=2)) == 0.0


def test_cost_two_points_one_cluster():
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert kmeans_cost(pts, Partition(labels=[0, 0], k=1)) == pytest.approx(2.0)


def test_cost_empty_cluster_contributes_zero():
    pts = np.array([[0.0], [4.0]])
    assert kmeans_cost(pts, Partition(labels=[0, 0], k=3)) == pytest.approx(8.0)


def test_cost_matches_frobenius_identity():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n, d = 50, 3
        k = int(rng.integers(2, 8))
        coords = rng.standard_normal((n, d))
        labels = rng.integers(0, k, size=n)
        mine = kmeans_cost(coords, Partition(labels=labels, k=k))
        oracle = frobenius_cost_oracle(coords, labels, k)
        assert mine == pytest.approx(oracle, abs=1e-9)


def test_cost_invariant_under_translation_and_rotation():
    rng = np.random.default_rng(1)
    for _ in range(10):
        coords = rng.standard_normal((40, 4))
        labels = rng.integers(0, 5, size=40)
        part = Partition(labels=labels, k=5)
        base = kmeans_cost(coords, part)
        shifted = kmeans_cost(coords + rng.standard_normal(4), part)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        rotated = kmeans_cost(coords @ q, part)
        assert shifted == pytest.approx(base, rel=1e-9)
        assert rotated == pytest.approx(base, rel=1e-9)


def test_cost_length_mismatch():
    with pytest.raises(InputError, match="labels"):
        kmeans_cost(np.zeros((3, 2)), Partition(labels=[0, 0], k=1))


# ---------------------------------------------------------------------------
# k-means++ seeding


def test_seeding_exhaustion_k_equals_n():
    rng = np.random.default_rng(2)
    coords = rng.standard_normal((6, 2))
    centers = kmeans_pp_seed(coords, 6, seed=0)
    # every point chosen exactly once, any order
    assert sorted(map(tuple, centers)) == sorted(map(tuple, coords))


def test_seeding_k_larger_than_n_rejected():
    with pytest.raises(InputError):
        kmeans_pp_seed(np.zeros((3, 1)), 4, seed=0)


def test_seeding_deterministic():
    rng = np.random.default_rng(3)
    coords = rng.standard_normal((30, 3))
    a = kmeans_pp_seed(coords, 5, seed=11)
    b = kmeans_pp_seed(coords, 5, seed=11)
    assert np.array_equal(a, b)


def test_seeding_first_center_uniform_frequency():
    pts = np.array([[0.0], [1.0], [2.0], [3.0]])
    counts = np.zeros(4, dtype=int)
    for seed in range(1000):
        first = kmeans_pp_seed(pts, 1, seed=seed)[0, 0]
        counts[int(first)] += 1
    assert np.all(np.abs(counts - 250) <= 60)


def test_seeding_d2_weighting_prefers_far_pair():
    # two tight pairs far apart: the second center lands in the other pair
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [100.0, 0.0], [100.1, 0.0]])
    crossed = 0
    for seed in range(1000):
        centers = kmeans_pp_seed(pts, 2, seed=seed)
        sides = {0 if c[0] < 50 else 1 for c in centers}
        if len(sides) == 2:
            crossed += 1
    assert crossed >= 990


def test_seeding_handles_duplicate_points():
    pts = np.zeros((5, 2))
    centers = kmeans_pp_seed(pts, 5, seed=7)
    assert centers.shape == (5, 2)


# ---------------------------------------------------------------------------
# Lloyd


def test_lloyd_recovers_separated_blobs():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        coords, truth = blobs(rng, 30, [(0.0, 0.0), (20.0, 0.0)], sigma=1.0)
        part = lloyd(coords, 2, seed=seed)
        if ari(part, Partition(labels=truth, k=2)) == pytest.approx(1.0):
            hits += 1
    assert hits == 100


def test_lloyd_k1_total_scatter():
    rng = np.random.default_rng(4)
    coords = rng.standard_normal((25, 3))
    part = lloyd(coords, 1, seed=0)
    assert np.all(part.labels == 0)
    expected = float(((coords - coords.mean(axis=0)) ** 2).sum())
    assert kmeans_cost(coords, part) == pytest.approx(expected)


def test_lloyd_never_worse_than_its_seeding():
    # reproduce restart 0's own seeding through the internal stream slot and
    # check the monotonicity contract against exactly that starting point
    from specluster.kmeans import _kmeans_pp_indices
    from specluster.spectral import rng_for

    rng = np.random.default_rng(5)
    for seed in range(10):
        coords = rng.standard_normal((60, 2))
        k = 4
        part = lloyd(coords, k, seed=seed, restarts=1)
        centers = coords[_kmeans_pp_indices(coords, k, rng_for(seed, 0))]
        d2 = ((coords[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        seeded = Partition(labels=np.argmin(d2, axis=1), k=k)
        assert kmeans_cost(coords, part) <= kmeans_cost(coords, seeded) + 1e-9


def test_lloyd_deterministic_and_restarts_help():
    rng = np.random.default_rng(7)
    coords = rng.standard_normal((70, 2))
    a = lloyd(coords, 6, seed=9)
    b = lloyd(coords, 6, seed=9)
    assert np.array_equal(a.labels, b.labels)
    one = kmeans_cost(coords, lloyd(coords, 6, seed=9, restarts=1))
    ten = kmeans_cost(coords, lloyd(coords, 6, seed=9, restarts=10))
    assert ten <= one + 1e-12


def test_lloyd_no_empty_clusters_after_repair():
    rng = np.random.default_rng(8)
    for seed in range(10):
        coords = rng.standard_normal((12, 2))
        part = lloyd(coords, 5, seed=seed)
        assert part.empty_parts() == []
    # all-identical points force repairs into singletons
    part = lloyd(np.zeros((5, 2)), 2, seed=0)
    assert part.empty_parts() == []
    assert kmeans_cost(np.zeros((5, 2)), part) == 0.0


def test_lloyd_assignment_optimal_at_fixpoint():
    rng = np.random.default_rng(9)
    for seed in range(10):
        coords = rng.standard_normal((30, 2))
        part = lloyd(coords, 3, seed=seed, tol=0.0, max_iters=500)
        centers = cluster_means(coords, part.labels, 3)
        d2 = ((coords[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        own = d2[np.arange(30), part.labels]
        assert np.all(own <= d2.min(axis=1) + 1e-9)


def test_lloyd_input_validation():
    with pytest.raises(InputError):
        lloyd(np.zeros((3, 1)), 4, seed=0)
    with pytest.raises(InputError):
        lloyd(np.zeros((3, 1)), 2, seed=0, restarts=0)
    with pytest.raises(InputError, match="max_iters"):
        lloyd(np.zeros((3, 1)), 2, seed=0, max_iters=0)
    with pytest.raises(InputError, match="NaN|finite|Inf"):
        lloyd(np.array([[np.inf, 0.0]]), 1, seed=0)


def test_lloyd_rising_cost_is_an_error(monkeypatch):
    costs = iter(range(1, 1000))
    monkeypatch.setattr(kmeans, "kmeans_cost", lambda points, part: float(next(costs)))
    rng = np.random.default_rng(10)
    with pytest.raises(SpeclusterError, match="from 1.0 to 2.0"):
        lloyd(rng.standard_normal((20, 2)), 3, seed=0, restarts=1)


def test_pointset_partition_validation():
    with pytest.raises(InputError):
        PointSet(np.zeros(3))  # 1-D
    with pytest.raises(InputError):
        Partition(labels=[0, 3], k=3)
    part = Partition.from_labels([0, 1, 1])
    assert part.k == 2
    assert part.sizes().tolist() == [1, 2]
