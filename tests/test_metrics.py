"""ARI, NMI, matched symmetric-difference volume, per-part conductance."""

import math

import numpy as np
import pytest

from specluster.errors import InputError, UndefinedConductanceError
from specluster.graph import conductance, from_edges
from specluster.kmeans import Partition
from specluster.metrics import (
    ContingencyTable,
    ari,
    evaluate_partition,
    matched_sym_diff_volume,
    nmi,
    partition_conductances,
)
from tests.oracles import (
    ari_pair_oracle,
    conductance_definition_oracle,
    k_way_expansion_bruteforce,
    nmi_dict_oracle,
    random_graph,
    sym_diff_volume_exhaustive,
)


# ---------------------------------------------------------------------------
# ARI


def test_ari_identical_is_one():
    labels = [0, 0, 1, 2, 2, 1]
    assert ari(labels, labels) == pytest.approx(1.0, abs=1e-15)
    shuffled = [2, 2, 0, 1, 1, 0]  # same partition, different names
    assert ari(labels, shuffled) == pytest.approx(1.0, abs=1e-15)


def test_ari_degenerate_convention_zero():
    assert ari([0, 0, 0, 0], [0, 1, 2, 3]) == 0.0
    assert ari([0, 0, 0], [0, 0, 0]) == 0.0  # degenerate both ways


def test_ari_hand_example_matches_pair_oracle():
    a, b = [0, 0, 1, 1], [0, 0, 0, 1]
    assert ari(a, b) == pytest.approx(ari_pair_oracle(a, b), abs=1e-12)


def test_ari_matches_pair_oracle_on_random_labelings():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(5, 60))
        a = rng.integers(0, int(rng.integers(2, 6)), size=n).tolist()
        b = rng.integers(0, int(rng.integers(2, 6)), size=n).tolist()
        assert ari(a, b) == pytest.approx(ari_pair_oracle(a, b), abs=1e-12)
        assert ari(a, b) == pytest.approx(ari(b, a), abs=1e-15)


def test_ari_length_mismatch():
    with pytest.raises(InputError, match="lengths"):
        ari([0, 1], [0, 1, 2])


# ---------------------------------------------------------------------------
# NMI


def test_nmi_identical_nontrivial_is_one():
    labels = [0, 0, 1, 1, 2]
    assert nmi(labels, labels) == pytest.approx(1.0, abs=1e-12)


def test_nmi_independent_by_construction_zero():
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_nmi_statistically_independent_near_zero():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 2, size=10_000)
    b = rng.integers(0, 2, size=10_000)
    assert nmi(a, b) <= 0.01


def test_nmi_degenerate_zero():
    assert nmi([0, 0, 0], [0, 0, 0]) == 0.0


def test_nmi_matches_dict_oracle():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(4, 80))
        a = rng.integers(0, 4, size=n).tolist()
        b = rng.integers(0, 3, size=n).tolist()
        assert nmi(a, b) == pytest.approx(nmi_dict_oracle(a, b), abs=1e-12)
        assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-15)


def test_contingency_marginals():
    ct = ContingencyTable.from_labels([0, 0, 1, 1], [0, 1, 1, 1])
    assert ct.counts.tolist() == [[1, 1], [0, 2]]
    assert ct.row_marginals.tolist() == [2, 2]
    assert ct.col_marginals.tolist() == [1, 3]
    assert ct.n == 4


# ---------------------------------------------------------------------------
# matched symmetric-difference volume


def three_triangles():
    u = [3 * b + i for b in range(3) for i in range(3)]
    v = [3 * b + (i + 1) % 3 for b in range(3) for i in range(3)]
    g, _ = from_edges(9, u, v)
    return g


def test_sym_diff_identical_and_shifted():
    g = three_triangles()
    planted = np.repeat(np.arange(3), 3)
    val, perm = matched_sym_diff_volume(g, planted, planted)
    assert val == 0.0
    assert sorted(perm.tolist()) == [0, 1, 2]
    shifted = (planted + 1) % 3
    val, perm = matched_sym_diff_volume(g, shifted, planted)
    assert val == 0.0
    assert perm.tolist() == [2, 0, 1]  # part i of `shifted` is planted part i-1


def test_sym_diff_one_moved_vertex_counts_twice_its_degree():
    g = three_triangles()
    planted = np.repeat(np.arange(3), 3)
    moved = planted.copy()
    moved[0] = 1  # vertex 0 has degree 2 inside its triangle
    val, _ = matched_sym_diff_volume(g, moved, planted)
    assert val == pytest.approx(4.0)


def test_sym_diff_matches_exhaustive_permutations():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(2, 4))
        g = random_graph(rng, n, 0.5, weighted=True)
        la = rng.integers(0, k, size=n)
        ls = rng.integers(0, k, size=n)
        val, perm = matched_sym_diff_volume(g, Partition(la, k), Partition(ls, k))
        oracle = sym_diff_volume_exhaustive(g, la, ls, k)
        assert val == pytest.approx(oracle, abs=1e-12)
        assert sorted(perm.tolist()) == list(range(k))


def test_sym_diff_zero_iff_equal_up_to_relabeling():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(5, 10))
        g = random_graph(rng, n, 0.5)
        la = rng.integers(0, 3, size=n)
        val, _ = matched_sym_diff_volume(g, Partition(la, 3), Partition((la + 2) % 3, 3))
        assert val == 0.0
        lb = la.copy()
        lb[0] = (lb[0] + 1) % 3
        val, _ = matched_sym_diff_volume(g, Partition(la, 3), Partition(lb, 3))
        assert val > 0.0


def test_sym_diff_pads_unequal_part_counts():
    g = three_triangles()
    planted = np.repeat(np.arange(3), 3)
    two_parts = (planted > 0).astype(np.int64)  # merges triangles 1 and 2
    val, perm = matched_sym_diff_volume(g, Partition(two_parts, 2), Partition(planted, 3))
    # one triangle matches exactly; the merged part pairs with one triangle
    # and misses the other (volume 6), which also shows up as the unmatched
    # planted triangle against the empty padded part
    assert val == pytest.approx(12.0)
    assert sorted(perm.tolist()) == [0, 1, 2]


def test_sym_diff_length_checks():
    g = three_triangles()
    with pytest.raises(InputError):
        matched_sym_diff_volume(g, [0] * 8, [0] * 9)
    with pytest.raises(InputError):
        matched_sym_diff_volume(g, [0] * 5, [0] * 5)


# ---------------------------------------------------------------------------
# partition conductances


def test_partition_conductances_match_per_set_calls():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(6, 14))
        k = int(rng.integers(2, 4))
        g = random_graph(rng, n, 0.5, weighted=True)
        labels = np.zeros(n, dtype=np.int64)
        labels[rng.permutation(n)[: k - 1]] = np.arange(1, k)
        phis = partition_conductances(g, Partition(labels, k))
        for c in range(k):
            assert phis[c] == pytest.approx(
                conductance(g, np.flatnonzero(labels == c)), rel=1e-12
            )


def test_partition_conductance_matches_definition_oracle():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(5, 12))
        g = random_graph(rng, n, 0.5, weighted=True)
        size = int(rng.integers(1, n))
        s = rng.choice(n, size=size, replace=False)
        assert conductance(g, s) == pytest.approx(
            conductance_definition_oracle(g, s), rel=1e-12
        )


def test_max_part_conductance_at_least_expansion():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = int(rng.integers(6, 12))
        g = random_graph(rng, n, 0.5)
        k = 3
        rho = k_way_expansion_bruteforce(g, k)
        for _ in range(10):
            labels = rng.integers(0, k, size=n)
            labels[:k] = np.arange(k)
            phis = partition_conductances(g, Partition(labels, k))
            assert phis.max() >= rho - 1e-12


def test_partition_conductances_errors():
    g = three_triangles()
    with pytest.raises(InputError, match="empty"):
        partition_conductances(g, Partition(np.zeros(9, dtype=np.int64), 2))
    with pytest.raises(UndefinedConductanceError):
        partition_conductances(g, Partition(np.zeros(9, dtype=np.int64), 1))


# ---------------------------------------------------------------------------
# report


def test_evaluate_partition_report_fields():
    g = three_triangles()
    planted = Partition(np.repeat(np.arange(3), 3), 3)
    moved = Partition(planted.labels.copy(), 3)
    moved.labels[0] = 1
    report = evaluate_partition(g, moved, planted)
    assert -1.0 <= report.ari <= 1.0
    assert 0.0 <= report.nmi <= 1.0
    assert report.matched_sym_diff_volume == pytest.approx(4.0)
    assert sorted(report.permutation) == [0, 1, 2]
    assert not report.padded_parts
    assert math.isfinite(report.max_conductance)

    assert list(report.to_dict()) == [
        "ari",
        "nmi",
        "max_conductance",
        "matched_sym_diff_volume",
        "permutation",
        "padded_parts",
    ]


def test_report_perfect_prediction():
    g = three_triangles()
    planted = Partition(np.repeat(np.arange(3), 3), 3)
    report = evaluate_partition(g, planted, planted)
    assert report.ari == pytest.approx(1.0)
    assert report.nmi == pytest.approx(1.0)
    assert report.matched_sym_diff_volume == 0.0
