"""Cost functional, k-means++ seeding, Lloyd iterations, determinism."""

import threading
from collections import defaultdict
from types import SimpleNamespace

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
from specluster.pipeline import worker_map
from specluster.spectral import rng_for
from tests.oracles import cluster_means_bincount, frobenius_cost_oracle, lloyd_full_reference


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


def test_cluster_means_match_per_column_bincount():
    rng = np.random.default_rng(12)
    for trial in range(20):
        n, d = int(rng.integers(1, 300)), int(rng.integers(1, 21))
        # k - 1 fits in 8, 16 and 32 bits: the labels sort in each key width
        k = [int(rng.integers(1, 30)), 300, 70_000][trial % 3]
        coords = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4)
        coords[rng.random(n) < 0.1] = -0.0
        labels = rng.integers(0, k, size=n)  # leaves some clusters empty
        mine = cluster_means(coords, labels, k)
        assert mine.tobytes() == cluster_means_bincount(coords, labels, k).tobytes()


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
# Blocked assignment


@pytest.mark.parametrize(
    "n",
    [
        1,
        kmeans._ASSIGN_BLOCK_ROWS,
        kmeans._ASSIGN_BLOCK_ROWS + 1,
        2 * kmeans._ASSIGN_BLOCK_ROWS + 3,
    ],
)
def test_assign_matches_one_shot_formula(n):
    rng = np.random.default_rng(n)
    coords = 3.0 * rng.standard_normal((n, 6))
    coords[rng.integers(n, size=n // 3)] = coords[rng.integers(n, size=n // 3)]  # duplicates
    tie_rows = np.unique([0, n // 2])
    coords[tie_rows] = [0.0, 0.01, 0.02, 0.0, 0.0, 0.0]
    x2 = np.einsum("ij,ij->i", coords, coords)
    for _ in range(10):
        centers = 3.0 * rng.standard_normal((40, 6))
        # centers 1 and 2 are mirror images, so a point with x[0] = 0 is exactly
        # as far from each, and nearer to them than to any other center
        centers[1:3] = 0.0
        centers[1, 0], centers[2, 0] = 0.5, -0.5
        c2 = np.einsum("ij,ij->i", centers, centers)
        ref = np.maximum(x2[:, None] - 2.0 * coords @ centers.T + c2, 0)
        ref_labels = np.argmin(ref, axis=1)

        labels, d2_own = kmeans._assign(coords, x2, centers)
        assert np.array_equal(labels, ref_labels)
        assert d2_own.tobytes() == ref[np.arange(n), ref_labels].tobytes()
        assert np.all(labels[tie_rows] == 1)  # tie goes to the lower index


@pytest.mark.parametrize("d", [2, 6, 20])
def test_gathered_rows_give_full_pass_bits(d):
    # Lloyd recomputes a gathered subset of rows; each must get the bits one
    # pass over all rows gives it. A single row is padded with a neighbour,
    # since numpy would multiply it alone through gemv.
    rng = np.random.default_rng(d)
    n = 5000
    coords = 3.0 * rng.standard_normal((n, d))
    x2 = np.einsum("ij,ij->i", coords, coords)
    centers = 3.0 * rng.standard_normal((40, d))
    full = kmeans._sq_dists_to(2.0 * coords, x2, centers)
    for size in (1, 2, 3, 2049):
        rows = np.sort(rng.choice(n, size=size, replace=False))
        if size == 1:
            rows = np.array([rows[0], rows[0] - 1 if rows[0] else 1])
        sub = kmeans._sq_dists_to(2.0 * coords[rows], x2[rows], centers)
        assert sub.tobytes() == full[rows].tobytes()


# ---------------------------------------------------------------------------
# Lloyd


def _lloyd_cases():
    """(points, k, seed) inputs that reach every branch of the bounded sweep."""
    rng = np.random.default_rng(13)
    coords, _ = blobs(rng, 40, [(0.0, 0.0, 0.0), (6.0, 0.0, 0.0), (0.0, 6.0, 0.0)], sigma=1.5)
    coords[:-1:7] = coords[1::7]  # duplicated rows
    yield coords, 5, 0
    # Integer grid points: many sit exactly as far from two centers.
    yield rng.integers(0, 4, size=(120, 2)).astype(np.float64), 6, 1
    few = rng.standard_normal((12, 3))
    yield few, 1, 2
    yield few, 12, 3
    # Small inputs with k near n: clusters empty mid-run, and some sweeps
    # find exactly one stale row.
    for seed in range(150):
        n, d = int(rng.integers(8, 30)), int(rng.integers(1, 4))
        if seed % 2:
            pts = rng.integers(0, 5, size=(n, d)).astype(np.float64)
        else:
            pts = rng.standard_normal((n, d)) ** 3
        yield pts, int(rng.integers(2, n)), seed


def test_bounded_lloyd_matches_full_assignment_sweep_by_sweep(monkeypatch):
    costs = []
    real_cost = kmeans.kmeans_cost

    # lloyd passes the means it has just computed; the oracle passes none,
    # so equal cost bytes also show that the passed means change no bit.
    def recorded_cost(points, part, means=None):
        costs.append(real_cost(points, part, means))
        return costs[-1]

    # Count the empty-cluster repairs in sweeps after a restart's first (each
    # follows a pass over every point) and the sweeps that recompute exactly
    # one row (the padded gather). A restart begins with its seeding; the
    # oracle seeds too but makes no sweep, so its repairs count for nothing.
    seen = {"sweep": 0, "fallbacks": 0, "one_row": 0}
    real_seed, real_sweep = kmeans._kmeans_pp_indices, kmeans._sweep
    real_repair, real_tight = kmeans._repair_empty, kmeans._tight_bounds

    def seed_indices(*args):
        seen["sweep"] = 0
        return real_seed(*args)

    def sweep(*args):
        seen["sweep"] += 1
        return real_sweep(*args)

    def repair_empty(labels, d2_own, k):
        seen["fallbacks"] += seen["sweep"] > 1
        return real_repair(labels, d2_own, k)

    def tight_bounds(d2_own, d2_second, delta):
        seen["one_row"] += d2_own.size == 1
        return real_tight(d2_own, d2_second, delta)

    monkeypatch.setattr(kmeans, "kmeans_cost", recorded_cost)
    monkeypatch.setattr(kmeans, "_kmeans_pp_indices", seed_indices)
    monkeypatch.setattr(kmeans, "_sweep", sweep)
    monkeypatch.setattr(kmeans, "_repair_empty", repair_empty)
    monkeypatch.setattr(kmeans, "_tight_bounds", tight_bounds)
    restarts = 3
    for coords, k, seed in _lloyd_cases():
        costs.clear()
        want = lloyd_full_reference(coords, k, seed=seed, restarts=restarts)
        want_costs = np.array(costs)
        costs.clear()
        got = lloyd(coords, k, seed=seed, restarts=restarts)
        assert np.array_equal(got.labels, want.labels)
        assert np.array(costs).tobytes() == want_costs.tobytes()
    assert seen["fallbacks"] > 0
    assert seen["one_row"] > 0


def test_sweep_keeps_lower_a_lower_bound_for_a_promoted_point():
    # No point is nearest to centre 2, so its cluster comes out empty and
    # takes the point farthest from its centre: 11, computed against centre
    # 1. Centre 1 is now another cluster's, at distance 1, below the
    # point's second-nearest distance of 11; only lower = 0 still bounds it.
    coords = np.array([[0.0], [0.0], [10.0], [11.0]])
    centers = np.array([[0.0], [10.0], [100.0]])
    n = coords.shape[0]
    sq_norms = np.einsum("ij,ij->i", coords, coords)
    delta = 20 * np.finfo(np.float64).eps * (np.abs(coords[:, 0]) + 100.0) ** 2
    upper, lower = np.full(n, np.inf), np.zeros(n)
    labels = kmeans._sweep(coords, sq_norms, centers, delta, np.zeros(n, dtype=np.int64),
                           upper, lower)
    assert labels.tolist() == [0, 0, 1, 2]
    dist = np.abs(coords - centers.T)
    for i in range(n):
        assert lower[i] <= np.delete(dist[i], labels[i]).min(), i


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


def _track_restarts(monkeypatch, restarts):
    """Which restart each thread is running, read off the stream its seeding draws from.

    A restart seeds first and then sweeps on the same thread, so a spy on
    ``kmeans_cost`` can read ``tracker.current.r``, however the restarts are
    scheduled. ``tracker.seed`` must be the seed of the run in progress.
    """
    tracker = SimpleNamespace(seed=0, current=threading.local())
    real_seed = kmeans._kmeans_pp_indices

    def seed_indices(coords, k, rng, *precomputed):
        state = rng.bit_generator.state
        tracker.current.r = next(r for r in range(restarts)
                                 if rng_for(tracker.seed, r).bit_generator.state == state)
        return real_seed(coords, k, rng, *precomputed)

    monkeypatch.setattr(kmeans, "_kmeans_pp_indices", seed_indices)
    return tracker


def _differential_cases():
    """198 small (points, k, seed): Gaussian, near-duplicate and integer-grid points."""
    rng = np.random.default_rng(29)
    for seed in range(198):
        n, d = int(rng.integers(6, 60)), int(rng.integers(1, 4))
        if seed % 3 == 0:
            pts = rng.standard_normal((n, d))
        elif seed % 3 == 1:
            pts = np.repeat(rng.standard_normal((n // 4 + 1, d)), 4, axis=0)[:n]
            pts += 1e-9 * rng.standard_normal((n, d))
        else:
            pts = rng.integers(0, 3, size=(n, d)).astype(np.float64)
        yield pts, int(rng.integers(2, min(n, 12) + 1)), seed


@pytest.mark.parametrize("threads", [1, 2])
def test_lloyd_matches_full_reference_on_random_instances(monkeypatch, threads):
    # Labels, and every restart's per-sweep cost bytes, against the reference
    # that assigns every point on every sweep.
    restarts = 3
    tracker = _track_restarts(monkeypatch, restarts)
    costs = defaultdict(list)
    real_cost = kmeans.kmeans_cost

    def recorded_cost(points, part, means=None):
        cost = real_cost(points, part, means)
        costs[tracker.current.r].append(cost)
        return cost

    def cost_bytes():
        return {r: np.array(c).tobytes() for r, c in costs.items()}

    monkeypatch.setattr(kmeans, "kmeans_cost", recorded_cost)
    with worker_map(threads) as pmap:
        for coords, k, seed in _differential_cases():
            tracker.seed = seed
            costs.clear()
            want = lloyd_full_reference(coords, k, seed=seed, restarts=restarts)
            want_costs = cost_bytes()
            costs.clear()
            got = lloyd(coords, k, seed=seed, restarts=restarts, pmap=pmap)
            assert np.array_equal(got.labels, want.labels), seed
            assert cost_bytes() == want_costs, seed


def test_lloyd_labels_do_not_depend_on_threads():
    rng = np.random.default_rng(17)
    coords, _ = blobs(rng, 50, [(0.0, 0.0), (3.0, 0.0), (0.0, 3.0), (3.0, 3.0)], sigma=1.0)
    want = lloyd(coords, 6, seed=4, restarts=3).labels
    for threads in (2, 4):
        with worker_map(threads) as pmap:
            assert np.array_equal(lloyd(coords, 6, seed=4, restarts=3, pmap=pmap).labels, want)


def test_tied_restarts_go_to_the_lowest_restart():
    # Two groups of three identical points: every restart reaches cost 0,
    # and which group gets label 0 depends on the restart's first pick.
    coords = np.array([[0.0], [0.0], [0.0], [5.0], [5.0], [5.0]])
    seed = 1
    seen = []

    def recording_map(fn, items):
        seen[:] = map(fn, items)
        return seen

    got = lloyd(coords, 2, seed=seed, restarts=3, pmap=recording_map).labels
    assert [cost for cost, _ in seen] == [0.0, 0.0, 0.0]
    assert seen[0][1].tobytes() != seen[1][1].tobytes()
    assert np.array_equal(got, seen[0][1])
    for threads in (1, 2, 4):
        with worker_map(threads) as pmap:
            assert np.array_equal(lloyd(coords, 2, seed=seed, restarts=3, pmap=pmap).labels, got)


def test_rising_cost_raises_the_same_error_at_any_thread_count(monkeypatch):
    # Restarts 2 and 3 both report a rise on their second sweep; the error
    # is restart 2's, as when the restarts run one after another.
    coords = np.random.default_rng(23).standard_normal((60, 2))
    tracker = _track_restarts(monkeypatch, restarts=5)
    real_cost = kmeans.kmeans_cost
    last = {}

    def rising_cost(points, part, means=None):
        r = tracker.current.r
        cost = real_cost(points, part, means)
        if r in (2, 3) and r in last:
            cost = 2.0 * last[r] + r
        last[r] = cost
        return cost

    monkeypatch.setattr(kmeans, "kmeans_cost", rising_cost)
    messages = []
    for threads in (1, 2):
        last.clear()
        with worker_map(threads) as pmap, pytest.raises(SpeclusterError) as err:
            lloyd(coords, 3, seed=0, restarts=5, pmap=pmap)
        messages.append(str(err.value))
        assert messages[-1].endswith(f" to {last[2]!r}")
    assert messages[0] == messages[1]


def test_lloyd_rising_cost_is_an_error(monkeypatch):
    costs = iter(range(1, 1000))
    monkeypatch.setattr(kmeans, "kmeans_cost",
                        lambda points, part, means=None: float(next(costs)))
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
