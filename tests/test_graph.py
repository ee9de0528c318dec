"""Graph construction, cut quantities, brute-force expansion, file I/O."""

import numpy as np
import pytest

from specluster.errors import (
    GraphFormatError,
    InputError,
    UndefinedConductanceError,
)
from specluster.graph import (
    Graph,
    conductance,
    cut_weight,
    from_edges,
    k_way_expansion_bruteforce,
    load_edge_list,
    load_labels,
    partitions_into_k_parts,
    save_edge_list,
    save_labels,
    volume,
)


def random_graph(rng, n, p, weighted=False):
    """Upper-triangle Bernoulli edges, isolated vertices patched with a chain edge."""
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    u, v = list(iu[mask]), list(ju[mask])
    present = set(u) | set(v)
    for i in range(n):
        if i not in present:
            u.append(i)
            v.append((i + 1) % n)
            present.update((i, (i + 1) % n))
    w = rng.uniform(0.5, 2.0, size=len(u)) if weighted else None
    g, dropped = from_edges(n, u, v, w)
    assert not dropped
    return g


def dense_adjacency(g: Graph) -> np.ndarray:
    return g.adjacency_csr().toarray()


# ---------------------------------------------------------------------------
# construction


def test_duplicate_edges_sum_weights():
    g, _ = from_edges(2, [0, 0], [1, 1], [1.5, 2.5])
    assert g.num_edges == 1
    assert g.weights.tolist() == [4.0, 4.0]
    assert g.degrees.tolist() == [4.0, 4.0]


def test_symmetrization_and_degrees():
    g, _ = from_edges(3, [0, 1], [1, 2], [2.0, 3.0])
    a = dense_adjacency(g)
    assert np.array_equal(a, a.T)
    assert g.degrees.tolist() == [2.0, 5.0, 3.0]
    g.validate()


def test_edge_order_does_not_matter():
    g1, _ = from_edges(4, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0])
    g2, _ = from_edges(4, [2, 0, 1], [3, 1, 2], [3.0, 1.0, 2.0])
    assert np.array_equal(g1.col_indices, g2.col_indices)
    assert np.array_equal(g1.weights, g2.weights)


def test_self_loops_rejected_by_default():
    with pytest.raises(InputError, match="self-loop"):
        from_edges(2, [0, 0], [0, 1])


def test_self_loops_folded_into_degree_once():
    g, _ = from_edges(2, [0, 0], [0, 1], [3.0, 1.0], allow_self_loops=True)
    assert g.num_edges == 1  # loop not stored in the adjacency
    assert g.degrees.tolist() == [4.0, 1.0]
    g.validate()


def test_isolated_rejected_then_dropped_with_remap():
    with pytest.raises(InputError, match="isolated"):
        from_edges(4, [0], [1])
    g, dropped = from_edges(4, [0, 2], [2, 3], drop_isolated=True)
    assert dropped == [1]
    assert g.n == 3
    # old ids 0,2,3 become 0,1,2, keeping the edges 0-2, 2-3
    assert cut_weight(g, [0, 1]) == 1.0
    assert g.degrees.tolist() == [1.0, 2.0, 1.0]


def test_bad_ids_and_weights_rejected():
    with pytest.raises(InputError, match="out of range"):
        from_edges(2, [0], [2])
    with pytest.raises(InputError, match="positive"):
        from_edges(2, [0], [1], [0.0])
    with pytest.raises(InputError, match="positive"):
        from_edges(2, [0], [1], [-1.0])


def test_validate_passes_on_random_graphs():
    rng = np.random.default_rng(0)
    for _ in range(10):
        random_graph(rng, int(rng.integers(3, 30)), 0.3, weighted=True).validate()


# ---------------------------------------------------------------------------
# volume / cut / conductance


def test_path_volume_hand_value():
    g, _ = from_edges(3, [0, 1], [1, 2])
    assert volume(g, [1]) == 2.0
    assert volume(g, [0, 1, 2]) == 4.0
    assert g.total_volume == 4.0


def test_cut_weight_hand_values():
    g, _ = from_edges(3, [0, 1], [1, 2], [2.0, 5.0])
    assert cut_weight(g, [0]) == 2.0
    assert cut_weight(g, [1]) == 7.0
    assert cut_weight(g, [0, 1, 2]) == 0.0


def test_cut_weight_matches_pairwise_oracle():
    rng = np.random.default_rng(1)
    for trial in range(20):
        n = int(rng.integers(4, 20))
        g = random_graph(rng, n, 0.4, weighted=True)
        a = dense_adjacency(g)
        size = int(rng.integers(1, n))
        s = rng.choice(n, size=size, replace=False)
        in_s = np.zeros(n, dtype=bool)
        in_s[s] = True
        oracle = sum(
            a[i, j] for i in range(n) for j in range(n) if in_s[i] and not in_s[j]
        )
        assert cut_weight(g, s) == pytest.approx(oracle, abs=1e-12)
        assert volume(g, s) == pytest.approx(a[in_s].sum(), abs=1e-12)


def test_two_triangles_bridge_conductance():
    # two triangles joined by one bridge edge; phi of one triangle is 1/7
    g, _ = from_edges(6, [0, 1, 2, 3, 4, 5, 2], [1, 2, 0, 4, 5, 3, 3])
    assert conductance(g, [0, 1, 2]) == pytest.approx(1.0 / 7.0, abs=1e-15)


def test_conductance_undefined_for_empty_and_full():
    g, _ = from_edges(3, [0, 1], [1, 2])
    with pytest.raises(UndefinedConductanceError):
        conductance(g, [])
    with pytest.raises(UndefinedConductanceError):
        conductance(g, [0, 1, 2])


def test_conductance_complement_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(4, 16))
        g = random_graph(rng, n, 0.5, weighted=True)
        size = int(rng.integers(1, n))
        s = rng.choice(n, size=size, replace=False)
        comp = np.setdiff1d(np.arange(n), s)
        assert conductance(g, s) == pytest.approx(conductance(g, comp), rel=1e-12)


# ---------------------------------------------------------------------------
# partition enumeration / brute-force expansion


def stirling2(n, k):
    table = [[0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, k + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][k]


def test_partition_enumeration_counts_match_stirling():
    for n, k in [(1, 1), (4, 2), (5, 3), (6, 2), (7, 4), (8, 3)]:
        parts = list(partitions_into_k_parts(n, k))
        assert len(parts) == stirling2(n, k)
        seen = set()
        for labels in parts:
            assert labels[0] == 0
            assert len(np.unique(labels)) == k
            # restricted growth: each new label exceeds previous max by <= 1
            mx = 0
            for lab in labels:
                assert lab <= mx + 1
                mx = max(mx, lab)
            seen.add(tuple(labels))
        assert len(seen) == len(parts)


def test_k4_expansion_hand_value():
    g, _ = from_edges(4, [0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3])
    assert k_way_expansion_bruteforce(g, 2) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_two_triangles_bridge_expansion():
    g, _ = from_edges(6, [0, 1, 2, 3, 4, 5, 2], [1, 2, 0, 4, 5, 3, 3])
    assert k_way_expansion_bruteforce(g, 2) == pytest.approx(1.0 / 7.0, abs=1e-15)


def test_expansion_lower_bounds_any_partition():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(5, 10))
        g = random_graph(rng, n, 0.5)
        k = int(rng.integers(2, 4))
        rho = k_way_expansion_bruteforce(g, k)
        for _ in range(10):
            labels = np.zeros(n, dtype=np.int64)
            labels[rng.choice(n, size=n - k, replace=False)] = rng.integers(
                0, k, size=n - k
            )
            labels[: k] = np.arange(k)  # force every part nonempty
            worst = max(
                conductance(g, np.flatnonzero(labels == c)) for c in range(k)
            )
            assert worst >= rho - 1e-12


def test_bruteforce_refuses_large_n():
    rng = np.random.default_rng(4)
    g = random_graph(rng, 13, 0.5)
    with pytest.raises(InputError, match="refuses"):
        k_way_expansion_bruteforce(g, 2)


# ---------------------------------------------------------------------------
# file I/O


def test_edge_list_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    g = random_graph(rng, 15, 0.4, weighted=True)
    path = tmp_path / "g.tsv"
    save_edge_list(g, path, header_comments=["round trip check"])
    loaded = load_edge_list(path)
    assert loaded.id_map is None
    assert loaded.graph.n == g.n
    assert np.array_equal(loaded.graph.col_indices, g.col_indices)
    assert np.array_equal(loaded.graph.weights, g.weights)
    # a leading zero still reads as an integer id
    path.write_text("03\t1\n0\t2\n2\t3\n")
    loaded = load_edge_list(path)
    assert loaded.id_map is None
    assert loaded.graph.degrees.tolist() == [1.0, 1.0, 2.0, 2.0]


def test_edge_list_default_weight_and_comments(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("# a comment\n0\t1\n\n1\t2\t2.5\n# trailing\n")
    g = load_edge_list(path).graph
    assert g.num_edges == 2
    assert volume(g, [1]) == 3.5


def test_edge_list_duplicates_summed_on_load(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("0\t1\t1.0\n1\t0\t2.0\n")
    g = load_edge_list(path).graph
    assert g.num_edges == 1
    assert g.degrees.tolist() == [3.0, 3.0]


def test_edge_list_string_ids_first_appearance(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("alice\tbob\nbob\tcarol\t2\n")
    res = load_edge_list(path)
    assert res.id_map == ["alice", "bob", "carol"]
    assert res.graph.degrees.tolist() == [1.0, 3.0, 2.0]
    # a string id on the last line switches the earlier integer ids too
    path.write_text("0\t1\n1\tx\n")
    res = load_edge_list(path)
    assert res.id_map == ["0", "1", "x"]
    assert res.graph.degrees.tolist() == [1.0, 2.0, 1.0]


def test_edge_list_negative_ids_treated_as_strings(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("-1\t7\n")
    res = load_edge_list(path)
    assert res.id_map == ["-1", "7"]
    assert res.graph.n == 2


def test_edge_list_missing_int_id_is_isolated(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("0\t2\n")
    with pytest.raises(InputError, match="isolated"):
        load_edge_list(path)
    res = load_edge_list(path, drop_isolated=True)
    assert res.dropped == [1]
    assert res.graph.n == 2


def test_edge_list_malformed_lines_name_line_number(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("0\t1\n0\t1\t2\t3\n")
    with pytest.raises(GraphFormatError, match=":2"):
        load_edge_list(path)
    path.write_text("0\t1\tnope\n")
    with pytest.raises(GraphFormatError, match=":1"):
        load_edge_list(path)
    for weight in ("0", "-1.5", "inf", "nan"):
        path.write_text(f"0\t1\n1\t2\t{weight}\n")
        with pytest.raises(GraphFormatError, match=":2: weight must be positive"):
            load_edge_list(path)
    path.write_text("# only comments\n")
    with pytest.raises(GraphFormatError, match="no edges"):
        load_edge_list(path)


def test_labels_round_trip_and_validation(tmp_path):
    path = tmp_path / "labels.txt"
    labels = np.array([0, 2, 1, 1])
    save_labels(labels, path, header_comments=["meta"])
    assert np.array_equal(load_labels(path), labels)
    assert np.array_equal(load_labels(path, expected_n=4), labels)
    with pytest.raises(GraphFormatError, match="4 labels"):
        load_labels(path, expected_n=5)
    path.write_text("0\nx\n")
    with pytest.raises(GraphFormatError, match=":2"):
        load_labels(path)
