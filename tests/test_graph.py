"""Graph construction, cut quantities, brute-force expansion, file I/O."""

import os
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

import specluster.graph

from specluster.errors import (
    GraphFormatError,
    InputError,
    UndefinedConductanceError,
)
from specluster.graph import (
    _EDGE_BLOCK,
    _WRITE_BLOCK_ROWS,
    Graph,
    conductance,
    cut_weight,
    data_lines,
    from_edges,
    load_edge_list,
    load_labels,
    save_edge_list,
    save_labels,
    volume,
    write_rows,
)
from tests.oracles import (
    from_edges_reference,
    k_way_expansion_bruteforce,
    partitions_into_k_parts,
    random_graph,
    save_edge_list_reference,
    stirling2,
    validate_graph,
)


def dense_adjacency(g: Graph) -> np.ndarray:
    return g.adjacency_csr().toarray()


# ---------------------------------------------------------------------------
# construction


def test_duplicate_edges_sum_weights():
    g, _ = from_edges(2, [0, 0], [1, 1], [1.5, 2.5])
    assert g.num_edges == 1
    assert g.weights.tolist() == [4.0, 4.0]
    assert g.degrees.tolist() == [4.0, 4.0]
    # Listed in both directions and out of order: still one sorted entry per pair.
    g, _ = from_edges(3, [2, 1, 0, 1], [0, 0, 1, 2], [1.0, 2.0, 3.0, 4.0])
    assert g.adj.has_canonical_format
    assert g.col_indices.tolist() == [1, 2, 0, 2, 0, 1]
    assert g.weights.tolist() == [5.0, 1.0, 5.0, 4.0, 1.0, 4.0]


def test_symmetrization_and_degrees():
    g, _ = from_edges(3, [0, 1], [1, 2], [2.0, 3.0])
    a = dense_adjacency(g)
    assert np.array_equal(a, a.T)
    assert g.degrees.tolist() == [2.0, 5.0, 3.0]
    validate_graph(g)


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
    validate_graph(g)


def test_isolated_rejected_then_dropped_with_remap():
    with pytest.raises(InputError, match="isolated"):
        from_edges(4, [0], [1])
    g, kept = from_edges(4, [0, 2], [2, 3], drop_isolated=True)
    assert kept.tolist() == [0, 2, 3]
    assert g.n == 3
    # old ids 0,2,3 become 0,1,2, keeping the edges 0-2, 2-3
    assert cut_weight(g, [0, 1]) == 1.0
    assert g.degrees.tolist() == [1.0, 2.0, 1.0]
    # No array is sized by n: 10**15 vertices, three of them endpoints.
    g, kept = from_edges(10**15, [0, 1], [1, 2], drop_isolated=True)
    assert g.n == 3
    assert kept.tolist() == [0, 1, 2]


def test_vertex_with_only_a_self_loop_is_not_isolated():
    g, kept = from_edges(4, [0, 3], [1, 3], allow_self_loops=True, drop_isolated=True)
    assert kept.tolist() == [0, 1, 3]
    assert g.n == 3
    assert g.degrees.tolist() == [1.0, 1.0, 1.0]
    assert g.self_loop_weights.tolist() == [0.0, 0.0, 1.0]
    assert g.num_edges == 1
    validate_graph(g)


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
        validate_graph(random_graph(rng, int(rng.integers(3, 30)), 0.3, weighted=True))


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


@pytest.mark.parametrize("fmt", ["{}\t{}\n", "v{}\tv{}\t2\n"])
def test_edge_list_text_is_freed_before_the_graph_is_built(tmp_path, monkeypatch, fmt):
    # The parsed text is the largest object of a load; it must not share
    # the memory peak with the graph's construction. A path of 50 edges:
    # no per-edge list or dict but the id map may be alive then.
    path = tmp_path / "g.tsv"
    path.write_text("".join(fmt.format(i, i + 1) for i in range(50)))
    loader_locals = {}
    real_from_edges = specluster.graph.from_edges

    def spy(*args, **kwargs):
        loader_locals.update(sys._getframe(1).f_locals)
        return real_from_edges(*args, **kwargs)

    monkeypatch.setattr(specluster.graph, "from_edges", spy)
    load_edge_list(path)
    per_edge = [name for name, value in loader_locals.items()
                if isinstance(value, (list, dict)) and len(value) >= 50]
    assert per_edge == (["id_map"] if fmt.startswith("v") else [])


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
    assert res.num_dropped == 1
    assert res.id_map == ["0", "2"]
    assert res.graph.n == 2


@pytest.mark.parametrize(
    "text", ["0\t1\n1\t2\n2\t0\n", "# c\n0\t1\t2.5\n1\t2\n", "alpha\tb\nb\tc\n"]
)
def test_edge_list_byte_order_mark_is_skipped(tmp_path, text):
    plain, marked = tmp_path / "plain.tsv", tmp_path / "bom.tsv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    want, got = load_edge_list(plain), load_edge_list(marked)
    assert got.id_map == want.id_map
    assert got.num_dropped == want.num_dropped
    assert np.array_equal(got.graph.adj.indptr, want.graph.adj.indptr)
    for name in ("col_indices", "weights", "degrees"):
        assert np.array_equal(getattr(got.graph, name), getattr(want.graph, name))


def test_labels_byte_order_mark_is_skipped(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("# head\n0\n1\n", encoding="utf-8-sig")
    assert load_labels(path).tolist() == [0, 1]


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


# (name, file bytes, whether np.loadtxt parses the file). The line loop
# reads every file; the bulk path must give the same result or error.
_BULK, _LOOP = True, False
_EXTREMES = (5e-324, 2.2250738585072014e-308, 0.1, 1 / 3, 1.7976931348623157e308)
_PARSE_CASES = [
    ("bom_crlf_blank_header",
     b"\xef\xbb\xbf# header\r\n\r\n0\t1\t1.5\r\n  \r\n1\t2\t2.5\r\n2\t0\t1\r\n", _BULK),
    ("two_fields", b"0\t1\n1\t2\n2\t0\n", _BULK),
    ("three_fields", b"0\t1\t0.5\n1\t2\t2\n2\t0\t3e-3\n", _BULK),
    ("mixed_fields", b"0\t1\n1\t2\t2.0\n2\t0\n", _LOOP),
    ("hash_mid_file", b"0\t1\n# mid\n1\t2\n2\t0\n", _BULK),
    ("hash_last_line", b"0\t1\n1\t2\n2\t0\n# end\n", _BULK),
    ("hash_last_line_no_newline", b"0\t1\t2\n1\t2\t3\n# end", _BULK),
    ("hash_indented_and_bare", b"0\t1\t1\n \t# c # d\n#\n1\t2\t2\n", _BULK),
    ("bom_hash_header_and_mid", b"\xef\xbb\xbf# h\r\n0\t1\r\n# mid\r\n1\t2\r\n", _BULK),
    ("hash_after_weight", b"0\t1\t1 # c\n1\t2\t1\n", _LOOP),
    ("hash_after_fields", b"0 1 # c\n1 2\n", _LOOP),
    ("hash_in_id", b"0 1#x\n1 2\n", _LOOP),
    ("hash_line_then_hash_in_id", b"0\t1\n# c\n1\t2#x\n", _LOOP),
    ("hash_line_and_mixed_fields", b"0\t1\n# c\n1\t2\t2.0\n", _LOOP),
    ("hash_line_and_string_ids", b"a\tb\n# c\nb\tc\n", _LOOP),
    ("string_ids", b"a\tb\nb\tc\nc\ta\n", _LOOP),
    ("negative_ids", b"-1\t0\n0\t1\n1\t-1\n", _LOOP),
    ("plus_and_leading_zero", b"+5\t03\n03\t4\n4\t+5\n", _BULK),
    ("exponent_id", b"0\t1e3\n1e3\t2\n2\t0\n", _LOOP),
    ("decimal_id", b"0\t1.0\n1.0\t2\n2\t0\n", _LOOP),
    ("underscore_id", b"1_0\t0\n0\t1\n1\t1_0\n", _LOOP),
    ("id_2_63", b"0\t9223372036854775808\n0\t1\n", _LOOP),
    ("id_2_63_minus_1", b"0\t9223372036854775807\n0\t1\n", _BULK),
    ("weight_zero", b"0\t1\t1\n1\t2\t0\n", _LOOP),
    ("weight_negative", b"0\t1\t1\n1\t2\t-1.5\n", _LOOP),
    ("weight_nan", b"0\t1\t1\n1\t2\tnan\n", _LOOP),
    ("weight_inf", b"0\t1\t1\n1\t2\tinf\n", _LOOP),
    ("weight_underscore", b"0\t1\t1\n1\t2\t1_0\n", _LOOP),
    ("weight_extremes",
     "".join(f"{i}\t{i + 1}\t{w:.17g}\n" for i, w in enumerate(_EXTREMES)).encode(), _BULK),
    ("vt_ff_whitespace", b"0\x0b1\n1\x0c2\n2\t0\n", _BULK),
    ("self_loop", b"0\t0\t2\n0\t1\n1\t2\n", _LOOP),
    ("self_loop_weighted", b"0\t0\t2\n0\t1\t1\n1\t2\t1\n", _BULK),
    ("comments_only", b"# only\n\n# more\n", _LOOP),
    ("one_field", b"0\n", _LOOP),
]


def _load_outcome(path, **flags):
    """Everything load_edge_list gives, or the exception it raises, as plain values."""
    try:
        res = load_edge_list(path, **flags)
    except Exception as e:
        return type(e), str(e)
    g = res.graph
    arrays = [g.adj.indptr, g.adj.indices, g.adj.data, g.degrees, g.self_loop_weights]
    return ([None if a is None else (a.dtype.str, a.tobytes()) for a in arrays],
            res.id_map, res.num_dropped)


@pytest.mark.parametrize("drop_isolated", [False, True])
@pytest.mark.parametrize("allow_self_loops", [False, True])
@pytest.mark.parametrize("name, data, bulk", _PARSE_CASES, ids=[c[0] for c in _PARSE_CASES])
def test_bulk_parse_matches_line_loop(tmp_path, monkeypatch, name, data, bulk,
                                      allow_self_loops, drop_isolated):
    path = tmp_path / f"{name}.tsv"
    path.write_bytes(data)
    flags = {"allow_self_loops": allow_self_loops, "drop_isolated": drop_isolated}
    real_bulk = specluster.graph._load_bulk
    taken = []

    def spy(p):
        table = real_bulk(p)
        taken.append(table is not None)
        return table

    monkeypatch.setattr(specluster.graph, "_load_bulk", spy)
    got = _load_outcome(path, **flags)
    assert taken == [bulk]
    monkeypatch.setattr(specluster.graph, "_load_bulk", lambda p: None)  # the loop only
    assert got == _load_outcome(path, **flags)


def test_bulk_parse_scans_for_hash_lines_only_after_a_failed_load(tmp_path, monkeypatch):
    # A file that loadtxt parses without comment handling costs one call and
    # no scan; a "#" line after the data costs the scan and a second call.
    seen = []
    real_loadtxt, real_scan = np.loadtxt, specluster.graph._hash_lines_only

    def loadtxt(*args, **kwargs):
        seen.append(("loadtxt", kwargs["comments"]))
        return real_loadtxt(*args, **kwargs)

    def scan(path):
        seen.append(("scan", real_scan(path)))
        return seen[-1][1]

    monkeypatch.setattr(specluster.graph.np, "loadtxt", loadtxt)
    monkeypatch.setattr(specluster.graph, "_hash_lines_only", scan)
    path = tmp_path / "g.tsv"
    path.write_bytes(b"# header\n0\t1\n1\t2\n2\t0\n")
    assert load_edge_list(path).graph.num_edges == 3
    assert seen == [("loadtxt", None)]
    seen.clear()
    path.write_bytes(b"# header\n0\t1\n1\t2\n2\t0\n# end\n")
    assert load_edge_list(path).graph.num_edges == 3
    assert seen == [("loadtxt", None), ("scan", True), ("loadtxt", "#")]
    seen.clear()
    path.write_bytes(b"0\t1\n1\t2\n2\t0#c\n")
    assert load_edge_list(path).id_map == ["0", "1", "2", "0#c"]  # the loop's string ids
    assert seen == [("loadtxt", None), ("scan", False)]


def test_edge_list_from_a_pipe_is_read_once(tmp_path):
    # A pipe yields its bytes once, so only the line loop may read it.
    text = "".join(f"{i}\t{i + 1}\n" for i in range(4000))  # several read buffers
    read_fd, write_fd = os.pipe()
    with os.fdopen(write_fd, "w") as fh:  # 38 KB: fits in the pipe's buffer
        fh.write(text)
    try:
        got = _load_outcome(f"/dev/fd/{read_fd}")
    finally:
        os.close(read_fd)
    path = tmp_path / "g.tsv"
    path.write_text(text)
    assert got == _load_outcome(path)


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


@pytest.mark.parametrize("rows", [0, 1, _WRITE_BLOCK_ROWS, _WRITE_BLOCK_ROWS + 1])
def test_write_rows_matches_per_value_formatting(tmp_path, rows):
    # The reference formats each value with an f-string, one row at a time.
    rng = np.random.default_rng(rows)
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    floats[:4] = [-0.0, 5e-324, 1.7976931348623157e308, 0.1][:rows]
    ids = np.int64(2**62) - rng.integers(0, 1000, rows, dtype=np.int64)
    names = [f"v{i}\u00e9" for i in range(rows)]
    cases = [
        ("%d\t%s\t%.17g\n", (ids, names, floats),
         lambda a, s, w: f"{a}\t{s}\t{w:.17g}\n"),
        ("%.17g,%.17g\n", (floats, floats[::-1]),
         lambda x, y: ",".join(f"{v:.17g}" for v in (x, y)) + "\n"),
        ("%s\n", (names,), lambda s: f"{s}\n"),
    ]
    path = tmp_path / "rows.txt"
    for fmt, columns, reference in cases:
        write_rows(path, ["#magic n=1", "# comment"], fmt, *columns)
        expected = "#magic n=1\n# comment\n" + "".join(reference(*r) for r in zip(*columns))
        assert path.read_bytes() == expected.encode("utf-8")


def _graph_of(n, u, v, w=None):
    """A Graph straight from its symmetric CSR: ids may be absent from every edge."""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    w = np.ones(u.size) if w is None else np.asarray(w, dtype=np.float64)
    adj = scipy.sparse.coo_matrix(
        (np.concatenate([w, w]), (np.concatenate([u, v]), np.concatenate([v, u]))),
        shape=(n, n)).tocsr()
    return Graph(adj=adj, degrees=np.asarray(adj.sum(axis=1)).ravel())


def _chain(m, w=None):
    return _graph_of(m + 1, np.arange(m), np.arange(1, m + 1), w)


def _writer_cases():
    rng = np.random.default_rng(11)
    # Every weight distinct: both ends of the float64 range, 0.1 and 1/3,
    # and values of every exponent in between.
    extremes = [5e-324, 1.7976931348623157e308, 0.1, 1 / 3, 2.2250738585072014e-308,
                1e-5, 1e-4, 1e16, 1e17, 123456789012345.67, 0.30000000000000004]
    spread = 10.0 ** rng.uniform(-323, 308, 600) * rng.uniform(1, 10, 600)
    distinct = np.unique(np.concatenate([extremes, spread]))
    rng.shuffle(distinct)
    # Ids on both sides of every digit width from 9/10 up to 10**6.
    wide = np.array(sorted({b + d for b in (10, 100, 1000, 10**4, 10**5, 10**6)
                            for d in (-2, -1, 0, 1)}))
    return {
        "unit": random_graph(rng, 60, 0.2),
        "weighted": random_graph(rng, 60, 0.2, weighted=True),
        "distinct": _chain(distinct.size, distinct),
        "wide_ids": _graph_of(10**6 + 2, np.concatenate([wide[:-1], wide[:12]]),
                              np.concatenate([wide[1:], wide[::-1][:12]])),
        "one_edge": _chain(1),
        # the id table is formatted _WRITE_BLOCK_ROWS ids at a time
        "ids_at_chunk": _graph_of(_WRITE_BLOCK_ROWS, [0, 1], [_WRITE_BLOCK_ROWS - 1] * 2),
        "ids_past_chunk": _graph_of(_WRITE_BLOCK_ROWS + 1, [0, _WRITE_BLOCK_ROWS - 1],
                                    [_WRITE_BLOCK_ROWS, _WRITE_BLOCK_ROWS]),
        "distinct_at_chunk": _chain(_WRITE_BLOCK_ROWS, 1.0 + np.arange(_WRITE_BLOCK_ROWS)),
        "distinct_past_chunk": _chain(_WRITE_BLOCK_ROWS + 1, 0.5 + np.arange(_WRITE_BLOCK_ROWS + 1)),
        # A chain of m edges stores 2m entries, visited _EDGE_BLOCK at a time:
        # one block and about one block's lines, then about two blocks and
        # one block of lines.
        **{f"entries_{d:+d}": _chain(_EDGE_BLOCK // 2 + d) for d in (-1, 0, 1)},
        **{f"lines_{d:+d}": _chain(_EDGE_BLOCK + d) for d in (-1, 0, 1)},
    }


_WRITER_CASES = _writer_cases()


@pytest.mark.parametrize("headers", [(), ("one header", "caf\u00e9 \t tab")])
@pytest.mark.parametrize("name", sorted(_WRITER_CASES))
def test_save_edge_list_matches_frozen_writer(tmp_path, name, headers):
    g = _WRITER_CASES[name]
    save_edge_list(g, tmp_path / "new.tsv", header_comments=headers)
    save_edge_list_reference(g, tmp_path / "old.tsv", header_comments=headers)
    assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "old.tsv").read_bytes()


@pytest.mark.parametrize("block", [1, 2, 3, 5, 64])
def test_save_edge_list_blocks_split_rows_anywhere(tmp_path, monkeypatch, block):
    # Small blocks end inside rows, inside lower-triangle runs and on rows
    # with no entries (vertex 3's self-loop is folded into its degree).
    monkeypatch.setattr(specluster.graph, "_EDGE_BLOCK", block)
    rng = np.random.default_rng(block)
    graphs = [random_graph(rng, 30, 0.3, weighted=True), _WRITER_CASES["one_edge"],
              from_edges(5, [0, 3, 1, 2], [4, 3, 2, 4], [1.5, 2.0, 0.25, 3.0],
                         allow_self_loops=True, drop_isolated=True)[0]]
    for g in graphs:
        save_edge_list(g, tmp_path / "new.tsv", header_comments=["h"])
        save_edge_list_reference(g, tmp_path / "old.tsv", header_comments=["h"])
        assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "old.tsv").read_bytes()


def test_text_table_rejects_a_text_longer_than_its_row():
    # A longer text would shift every later row of its chunk.
    with pytest.raises(ValueError, match="longer than 7"):
        specluster.graph._text_table("%d", "\t", np.array([1, 10**7]), 8)


def test_save_edge_list_holds_no_edge_length_array(tmp_path):
    # A 1000-vertex complete graph: 499500 lines. The frozen writer's arrays
    # (entry sources, the upper mask and three per-line columns) take 38
    # bytes a line. The new writer holds the id table and one block: a
    # block's arrays take under 160 bytes an entry of the block, whatever
    # the number of lines.
    n = 1000
    iu, ju = np.triu_indices(n, k=1)
    g, _ = from_edges(n, iu, ju)
    peaks = []
    for write in (save_edge_list_reference, save_edge_list):
        tracemalloc.start()
        write(g, tmp_path / "g.tsv")
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] > 38 * iu.size
    assert peaks[1] < 8 * n + 160 * _EDGE_BLOCK


def _csr_bytes(g):
    arrays = [g.adj.indptr, g.adj.indices, g.adj.data, g.degrees, g.self_loop_weights]
    return [None if a is None else (a.dtype.str, a.tobytes()) for a in arrays]


def _build_cases():
    rng = np.random.default_rng(3)
    u = rng.integers(0, 40, 300)
    v = rng.integers(0, 40, 300)
    keep = u != v
    return [
        # duplicates, in both orientations, with their weights summed
        (40, np.concatenate([u[keep], v[keep]]), np.concatenate([v[keep], u[keep]]),
         rng.uniform(0.5, 2.0, 2 * int(keep.sum())), {}),
        (40, u[keep], v[keep], None, {}),
        # self-loops folded into the degree
        (40, u, v, rng.uniform(0.5, 2.0, u.size), {"allow_self_loops": True}),
        # isolated vertices dropped: through the presence mask and through
        # the endpoint union, which n larger than the endpoints takes
        (60, u[keep], v[keep], None, {"drop_isolated": True}),
        (10**12, u * 10**9, v, None, {"allow_self_loops": True, "drop_isolated": True}),
        (3, [], [], None, {"drop_isolated": True}),
        (2, [0], [1], [2.5], {}),
    ]


@pytest.mark.parametrize("case", range(len(_build_cases())))
def test_from_edges_matches_frozen_build(case):
    n, u, v, w, flags = _build_cases()[case]
    try:
        want = from_edges_reference(n, u, v, w, **flags)
    except InputError:
        with pytest.raises(InputError):
            from_edges(n, u, v, w, **flags)
        return
    got = from_edges(n, u, v, w, **flags)
    assert _csr_bytes(got[0]) == _csr_bytes(want[0])
    assert (got[1] is None) == (want[1] is None)
    if want[1] is not None:
        assert (got[1].dtype.str, got[1].tobytes()) == (want[1].dtype.str, want[1].tobytes())


@pytest.mark.parametrize("flags", [{}, {"allow_self_loops": True}, {"drop_isolated": True}])
def test_load_edge_list_matches_frozen_build(tmp_path, flags):
    # Integer ids through the bulk parse and string ids through the line
    # loop: the graph equals the frozen build of the same edges.
    rng = np.random.default_rng(4)
    u, v = rng.integers(0, 30, 200), rng.integers(0, 30, 200)
    if not flags.get("allow_self_loops"):
        u, v = u[u != v], v[u != v]
    w = rng.uniform(0.5, 2.0, u.size)
    ids = 3 * np.arange(30) if flags.get("drop_isolated") else np.arange(30)
    for label in ("{}", "v{}"):
        text = "".join(f"{label.format(ids[a])}\t{label.format(ids[b])}\t{c!r}\n"
                       for a, b, c in zip(u, v, w.tolist()))
        (tmp_path / "g.tsv").write_text(text)
        res = load_edge_list(tmp_path / "g.tsv", **flags)
        if label == "{}":
            want, _ = from_edges_reference(int(ids[max(u.max(), v.max())]) + 1, ids[u], ids[v],
                                           w, **flags)
        else:
            order = list(dict.fromkeys(np.stack([u, v], axis=1).ravel().tolist()))
            index = {x: i for i, x in enumerate(order)}
            want, _ = from_edges_reference(len(order), [index[x] for x in u.tolist()],
                                           [index[x] for x in v.tolist()], w, **flags)
            assert res.id_map == [f"v{ids[x]}" for x in order]
        assert _csr_bytes(res.graph) == _csr_bytes(want)


@pytest.mark.parametrize("weighted", [False, True])
def test_load_edge_list_frees_the_parse_table_before_the_build(tmp_path, monkeypatch, weighted):
    # The loadtxt table holds 16 or 24 bytes an edge; the arrays handed to
    # the build hold 8 or 16 (int32 ids and the float64 weights). Memory
    # traced when the build starts stays below the table's size, which it
    # could not with the table alive.
    m = 50_000
    rng = np.random.default_rng(5)
    u = np.arange(m) % 5000
    v = (u + 1 + rng.integers(0, 4998, m)) % 5000
    path = tmp_path / "g.tsv"
    if weighted:
        path.write_text("".join(f"{a}\t{b}\t{c!r}\n" for a, b, c in
                                zip(u.tolist(), v.tolist(), rng.uniform(0.5, 2, m).tolist())))
    else:
        path.write_text("".join(f"{a}\t{b}\n" for a, b in zip(u.tolist(), v.tolist())))
    at_build = []
    real_from_edges = specluster.graph.from_edges

    def spy(*args, **kwargs):
        at_build.append((tracemalloc.get_traced_memory()[0], sys._getframe(1).f_locals.copy()))
        return real_from_edges(*args, **kwargs)

    monkeypatch.setattr(specluster.graph, "from_edges", spy)
    tracemalloc.start()
    try:
        load_edge_list(path)
    finally:
        tracemalloc.stop()
    (traced, loader_locals), = at_build
    table_bytes = (24 if weighted else 16) * m
    assert "table" not in loader_locals
    assert traced < table_bytes
    assert loader_locals["u"].dtype == np.int32


def test_data_lines_report_file_line_numbers(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_text("# head\n\n1\n  # indented comment\n\t\n 2 \n")
    with open(path) as fh:
        assert list(data_lines(fh)) == [(3, "1"), (6, "2")]
    with open(path) as fh:
        fh.readline()
        assert list(data_lines(fh, start=2)) == [(3, "1"), (6, "2")]
