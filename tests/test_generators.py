"""SBM sampling, kNN graph construction, points CSV ingestion."""

import numpy as np
import pytest

import specluster.generate
from specluster.errors import GraphFormatError, InputError
from specluster.generate import (
    PointCloud,
    SbmParams,
    build_knn_graph,
    load_points_csv,
    sample_sbm,
)
from specluster.kmeans import Partition, PointSet
from specluster.metrics import ari
from specluster.pipeline import SpectralParams, fast_spectral_cluster
from tests.oracles import nearest_reference, save_points_csv, sbm_expected_edges


# ---------------------------------------------------------------------------
# SBM


def test_sbm_extreme_params_two_cliques():
    sample = sample_sbm(SbmParams(n=8, k=2, p=1.0, q=0.0, seed=0))
    g = sample.graph
    assert g.n == 8
    assert g.num_edges == 12  # two K4's
    assert np.all(g.degrees == 3.0)
    assert sample.planted.labels.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
    # no edge crosses the blocks
    src = g.edge_sources()
    assert np.all((src < 4) == (g.col_indices < 4))
    assert sample.dropped == []


def test_sbm_empty_graph_rejected():
    with pytest.raises(InputError, match="empty"):
        sample_sbm(SbmParams(n=8, k=2, p=0.0, q=0.0, seed=0))


def test_sbm_param_validation():
    with pytest.raises(InputError, match="divide"):
        SbmParams(n=10, k=3, p=0.5, q=0.1, seed=0)
    with pytest.raises(InputError, match="0 <= q <= p <= 1"):
        SbmParams(n=10, k=2, p=0.1, q=0.5, seed=0)
    with pytest.raises(InputError, match="seed"):
        SbmParams(n=10, k=2, p=0.5, q=0.1, seed=-1)


def test_sbm_deterministic_given_seed():
    a = sample_sbm(SbmParams(n=60, k=3, p=0.4, q=0.05, seed=5))
    b = sample_sbm(SbmParams(n=60, k=3, p=0.4, q=0.05, seed=5))
    assert np.array_equal(a.graph.col_indices, b.graph.col_indices)
    assert np.array_equal(a.graph.adj.indptr, b.graph.adj.indptr)
    c = sample_sbm(SbmParams(n=60, k=3, p=0.4, q=0.05, seed=6))
    assert not np.array_equal(a.graph.col_indices, c.graph.col_indices)


def test_sbm_mean_intra_degree():
    # expected within-block degree (n/k - 1) p = 39.96
    n, k, p = 2000, 2, 0.04
    devs = []
    for seed in range(20):
        sample = sample_sbm(SbmParams(n=n, k=k, p=p, q=1.0 / n, seed=seed))
        g, labels = sample.graph, sample.planted.labels
        src = g.edge_sources()
        intra = labels[src] == labels[g.col_indices]
        mean_intra_degree = intra.sum() / g.n
        devs.append(mean_intra_degree / ((n / k - 1) * p))
    assert all(0.9 <= d <= 1.1 for d in devs)


def test_sbm_edge_count_concentration():
    params_list = [
        SbmParams(n=400, k=4, p=0.2, q=0.02, seed=0),
        SbmParams(n=600, k=3, p=0.1, q=0.01, seed=0),
    ]
    for base in params_list:
        s = base.block_size
        intra_pairs = base.k * s * (s - 1) / 2
        inter_pairs = base.k * (base.k - 1) / 2 * s * s
        var = intra_pairs * base.p * (1 - base.p) + inter_pairs * base.q * (1 - base.q)
        sigma = np.sqrt(var)
        expected = sbm_expected_edges(base)
        outside = 0
        for seed in range(20):
            params = SbmParams(n=base.n, k=base.k, p=base.p, q=base.q, seed=seed)
            m = sample_sbm(params).graph.num_edges
            if abs(m - expected) > 3 * sigma:
                outside += 1
        assert outside <= 1


def test_sbm_drops_isolated_and_remaps_labels():
    # mean degree ~ 3: a noticeable fraction of vertices comes out isolated
    params = SbmParams(n=200, k=2, p=0.03, q=0.001, seed=1)
    sample = sample_sbm(params)
    g = sample.graph
    assert g.n + len(sample.dropped) == params.n
    assert sample.planted.n == g.n
    assert np.all(g.degrees > 0)
    # surviving labels are the planted ones with dropped rows removed
    full = np.repeat(np.arange(2), 100)
    keep = np.ones(200, dtype=bool)
    keep[sample.dropped] = False
    assert np.array_equal(sample.planted.labels, full[keep])
    record = sample.metadata_record()
    assert record["n_after_drop"] == g.n
    assert record["num_dropped"] == len(sample.dropped)


def test_sbm_metadata_jsonl(tmp_path):
    import json

    from specluster.generate import write_sbm_metadata

    sample = sample_sbm(SbmParams(n=40, k=2, p=0.5, q=0.05, seed=2))
    path = tmp_path / "meta.jsonl"
    write_sbm_metadata(sample, path)
    write_sbm_metadata(sample, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["type"] == "sbm" and rec["n"] == 40 and rec["seed"] == 2


# ---------------------------------------------------------------------------
# kNN graphs


def test_knn_collinear_hand_geometry():
    g = build_knn_graph(np.array([[0.0], [1.0], [2.0]]), 1)
    assert g.n == 3
    assert g.num_edges == 2
    src = g.edge_sources()
    edges = sorted(
        (int(min(a, b)), int(max(a, b)))
        for a, b in zip(src, g.col_indices)
        if a < b
    )
    assert edges == [(0, 1), (1, 2)]


def test_knn_full_neighborhood_complete_graph():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((7, 3))
    g = build_knn_graph(pts, 6)
    assert g.num_edges == 21


def test_knn_degrees_at_least_k_for_distinct_points():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((50, 2))
    for k_nn in (1, 3, 10):
        g = build_knn_graph(pts, k_nn)
        counts = np.diff(g.adj.indptr)
        assert counts.min() >= k_nn


def test_knn_ties_break_toward_lower_index():
    # vertices 1 and 2 are both at distance 1 from vertex 0, so 0's single
    # slot must go to 1; each of 1 and 2 has a closer partner of its own, so
    # the union step cannot sneak the edge {0, 2} back in
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.2, 0.0], [1.2, 0.0]])
    g = build_knn_graph(pts, 1)
    assert g.col_indices[g.adj.indptr[0]:g.adj.indptr[1]].tolist() == [1]


def test_knn_duplicate_points_allowed():
    pts = np.array([[0.0, 0.0]] * 3 + [[1.0, 0.0]] * 2)
    g = build_knn_graph(pts, 2)
    assert g.n == 5
    assert np.all(np.diff(g.adj.indptr) >= 1)


def test_knn_separated_blobs_pipeline_recovery():
    rng = np.random.default_rng(2)
    blob_a = rng.standard_normal((100, 2))
    blob_b = rng.standard_normal((100, 2)) + np.array([40.0, 0.0])
    pts = np.concatenate([blob_a, blob_b])
    truth = np.repeat([0, 1], 100)
    g = build_knn_graph(pts, 10)
    # no edges cross the blobs at 20 sigma separation
    src = g.edge_sources()
    assert np.all((src < 100) == (g.col_indices < 100))
    # kNN graphs of continuous blobs mix slowly (gamma_3 ~ 0.975 here), so the
    # SBM-scale defaults l=1, t=47 are not enough; two columns and a deeper
    # power run separate the components every time
    for seed in range(5):
        res = fast_spectral_cluster(g, SpectralParams(k=2, l=2, t=200, seed=seed))
        assert ari(res.partition, Partition(truth, 2)) >= 0.99
    res = fast_spectral_cluster(g, SpectralParams(k=2, mode="eigs_k", seed=0))
    assert ari(res.partition, Partition(truth, 2)) >= 0.99


@pytest.mark.parametrize("seed", range(30))
def test_nearest_matches_stable_argsort_on_ties(seed):
    # Few distinct values, so most rows tie at their k-th smallest; inf and
    # NaN as the distance matrix can hold them (the diagonal, overflow).
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 12)), int(rng.integers(1, 40)))
    d2 = rng.integers(0, int(rng.integers(1, 5)), shape).astype(np.float64)
    d2[rng.random(shape) < 0.1] = np.inf
    d2[rng.random(shape) < 0.05 * (seed % 2)] = np.nan
    for k in range(1, shape[1] + 1):
        assert np.array_equal(specluster.generate._nearest(d2, k), nearest_reference(d2, k))


@pytest.mark.parametrize("n, k_nn", [(60, 1), (60, 7), (200, 30), (3000, 5)])
def test_knn_graph_matches_argsort_selection(monkeypatch, n, k_nn):
    # Points on a small integer grid: duplicates and equal distances
    # everywhere. n = 3000 takes several distance slabs.
    rng = np.random.default_rng(n + k_nn)
    pts = rng.integers(0, 4, (n, 2)).astype(np.float64)
    got = build_knn_graph(pts, k_nn)
    monkeypatch.setattr(specluster.generate, "_nearest", nearest_reference)
    want = build_knn_graph(pts, k_nn)
    for a, b in [(got.adj.indptr, want.adj.indptr), (got.adj.indices, want.adj.indices),
                 (got.adj.data, want.adj.data), (got.degrees, want.degrees)]:
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_knn_input_validation():
    pts = np.zeros((5, 2))
    with pytest.raises(InputError):
        build_knn_graph(pts, 5)
    with pytest.raises(InputError):
        build_knn_graph(pts, 0)


# ---------------------------------------------------------------------------
# points CSV


def test_points_csv_no_header(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("0.5,1.5\n2.5,3.5\n")
    pc = load_points_csv(path)
    assert pc.labels is None
    assert pc.points.coords.tolist() == [[0.5, 1.5], [2.5, 3.5]]


def test_points_csv_header_with_label_column(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("# generated sample\nx0,label,x1\n1.0,3,2.0\n4.0,1.0,5.0\n")
    pc = load_points_csv(path)
    assert pc.labels.tolist() == [3, 1]
    assert pc.points.coords.tolist() == [[1.0, 2.0], [4.0, 5.0]]


def test_points_csv_header_without_label(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("a,b\n1,2\n")
    pc = load_points_csv(path)
    assert pc.labels is None
    assert pc.points.coords.tolist() == [[1.0, 2.0]]


@pytest.mark.parametrize("label", ["1.7", "1e20"])
def test_points_csv_rejects_fractional_and_out_of_range_labels(tmp_path, label):
    path = tmp_path / "p.csv"
    path.write_text(f"x,label\n0.0,1\n0.0,{label}\n")
    with pytest.raises(GraphFormatError, match=r"p\.csv:3: label"):
        load_points_csv(path)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_points_csv_nonfinite_coordinate_names_its_line(tmp_path, value):
    path = tmp_path / "p.csv"
    path.write_text(f"x,y\n0.0,1.0\n# c\n2.0,{value}\n")
    with pytest.raises(GraphFormatError, match=r"p\.csv:4: coordinate is NaN or Inf"):
        load_points_csv(path)


def test_points_csv_errors_name_line_numbers(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(GraphFormatError, match=":2"):
        load_points_csv(path)
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(GraphFormatError, match=":2"):
        load_points_csv(path)
    path.write_text("# nothing\n")
    with pytest.raises(GraphFormatError, match="no data"):
        load_points_csv(path)


def test_points_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    pc = PointCloud(
        points=PointSet(rng.standard_normal((6, 3))),
        labels=rng.integers(0, 2, size=6),
    )
    path = tmp_path / "p.csv"
    save_points_csv(pc, path)
    back = load_points_csv(path)
    assert np.array_equal(back.points.coords, pc.points.coords)
    assert np.array_equal(back.labels, pc.labels)


def test_pointcloud_label_count_checked():
    with pytest.raises(InputError, match="labels"):
        PointCloud(points=PointSet(np.zeros((3, 2))), labels=np.zeros(2, dtype=int))
