"""Command-line surface: subcommands, file outputs, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from specluster.cli import ENV_SEED, bench_grid, main, run_bench
from specluster.errors import InputError
from specluster.generate import SbmParams, sample_sbm
from specluster.graph import load_edge_list, load_labels, save_edge_list, save_labels
from specluster.kmeans import Partition
from specluster.metrics import ari
from tests.oracles import load_embedding
from tests.test_pipeline import disjoint_cliques


@pytest.fixture()
def triangles_file(tmp_path):
    g = disjoint_cliques(2, 3)
    path = tmp_path / "tri.tsv"
    save_edge_list(g, path)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def write_two_triangles(path, ids):
    """Triangles on ids[0:3] and ids[3:6]; returns ``path``."""
    triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    path.write_text("".join(f"{ids[a]}\t{ids[b]}\n" for a, b in triangles))
    return path


# ---------------------------------------------------------------------------
# cluster


def test_cluster_two_triangles(triangles_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("cluster", "--graph", triangles_file, "--k", 2, "--out", out) == 0
    labels = load_labels(out / "labels.txt", expected_n=6)
    truth = np.array([0, 0, 0, 1, 1, 1])
    assert ari(labels, truth) == pytest.approx(1.0)
    report = json.loads((out / "report.json").read_text())
    assert report["n"] == 6 and report["k"] == 2 and report["mode"] == "pm_log_k"
    assert report["l"] == 1 and report["seed"] == 0
    assert sorted(report["cluster_sizes"]) == [3, 3]
    assert report["max_conductance"] == pytest.approx(0.0)
    assert report["eigs_converged"] is None
    emb = load_embedding(out / "embedding.csv")
    assert emb.n == 6 and emb.l == 1 and emb.scaled
    timings = json.loads((out / "timings.json").read_text())
    assert set(timings["stage_ms"]) == {"embed", "scale", "kmeans", "total"}
    assert set(timings["io_ms"]) == {"parse", "write"}
    assert all(ms >= 0 for ms in timings["io_ms"].values())
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config"]["k"] == 2
    assert not (out / "vertices.txt").exists()  # dense integer ids need no mapping
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize(
    "ids, flags",
    [
        (["0", "1", "2", "5", "6", "7"], ["--drop-isolated"]),  # 3 and 4 are dropped
        (["a", "b", "c", "x", "y", "z"], []),  # string ids
        # ids up to 10**15: no array is sized by the largest id
        (["0", "1", "2", "1000000000000000", "1000000000000001", "1000000000000002"],
         ["--drop-isolated"]),
    ],
)
def test_cluster_renumbered_vertices_keep_their_ids(tmp_path, ids, flags):
    graph = write_two_triangles(tmp_path / "g.tsv", ids)
    out = tmp_path / "run"
    assert run_cli("cluster", "--graph", graph, "--k", 2, *flags, "--out", out) == 0
    header, *vertices = (out / "vertices.txt").read_text().splitlines()
    assert header == (out / "labels.txt").read_text().splitlines()[0]
    assert vertices == ids
    labels = load_labels(out / "labels.txt", expected_n=6)
    assert ari(labels, np.array([0, 0, 0, 1, 1, 1])) == pytest.approx(1.0)


def test_cluster_missing_graph_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.tsv"
    code = run_cli("cluster", "--graph", missing, "--k", 2, "--out", tmp_path / "o")
    assert code == 2
    assert "nope.tsv" in capsys.readouterr().err


def test_cluster_huge_vertex_id_is_an_input_error(tmp_path, capsys):
    # Arrays sized by the largest id would need petabytes; the isolated
    # vertices are named from the endpoints before any of them is allocated.
    graph = tmp_path / "g.tsv"
    graph.write_text("0\t1\n1\t2\n0\t1000000000000000\n")
    out = tmp_path / "run"
    assert run_cli("cluster", "--graph", graph, "--k", 2, "--out", out) == 2
    err = capsys.readouterr().err
    assert "isolated vertices present: [3, 4, 5, 6, 7, 8, 9, 10] ...;" in err
    assert "internal error" not in err
    assert not (out / "labels.txt").exists()


def test_cluster_bad_k_exits_2(triangles_file, tmp_path, capsys):
    assert run_cli("cluster", "--graph", triangles_file, "--k", 1,
                   "--out", tmp_path / "o") == 2
    assert "k" in capsys.readouterr().err


def test_cluster_invalid_mode_is_a_usage_error(triangles_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("cluster", "--graph", triangles_file, "--k", 2,
                "--mode", "banana", "--out", tmp_path / "o")
    assert exc.value.code == 2


def test_cluster_reruns_byte_identical(triangles_file, tmp_path):
    outs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
    for out, extra in zip(outs, ([], ["--threads", "1"], ["--threads", "4"])):
        assert run_cli("cluster", "--graph", triangles_file, "--k", 2,
                       "--seed", 7, "--out", out, *extra) == 0
    for name in ("labels.txt", "embedding.csv", "report.json"):
        blobs = [(o / name).read_bytes() for o in outs]
        assert blobs[0] == blobs[1] == blobs[2], f"{name} differs across reruns"


def _cluster_bytes(graph, out, *extra):
    assert run_cli("cluster", "--graph", graph, "--seed", 3, "--out", out, *extra) == 0
    return [(out / name).read_bytes() for name in ("labels.txt", "embedding.csv", "report.json")]


@pytest.mark.parametrize("mode", ["pm_log_k", "pm_k", "eigs_k"])
def test_cluster_bytes_do_not_depend_on_threads(tmp_path, mode):
    # n = 1001 is a multiple of neither 2 nor 3, so the row blocks differ in size.
    sample = sample_sbm(SbmParams(n=1001, k=7, p=0.05, q=0.002, seed=0))
    graph = tmp_path / "g.tsv"
    save_edge_list(sample.graph, graph)
    blobs = [_cluster_bytes(graph, tmp_path / f"t{threads}", "--k", 7, "--mode", mode,
                            "--threads", threads)
             for threads in (1, 2, 3)]
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize("mode", ["pm_log_k", "eigs_k"])
def test_cluster_bytes_with_more_threads_than_vertices(triangles_file, tmp_path, mode):
    blobs = [_cluster_bytes(triangles_file, tmp_path / f"t{threads}", "--k", 2, "--mode", mode,
                            "--threads", threads)
             for threads in (1, 7, 8)]
    assert blobs[0] == blobs[1] == blobs[2]


def test_threads_default_to_the_cpus_this_process_may_use(triangles_file, tmp_path):
    out = tmp_path / "run"
    assert run_cli("cluster", "--graph", triangles_file, "--k", 2, "--out", out) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config"]["threads"] == len(os.sched_getaffinity(0))
    assert " threads=" not in (out / "labels.txt").read_text()
    assert run_cli("cluster", "--graph", triangles_file, "--k", 2, "--threads", 0,
                   "--out", tmp_path / "zero") == 2


def test_env_seed_fallback(triangles_file, tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_SEED, "11")
    out = tmp_path / "env"
    assert run_cli("cluster", "--graph", triangles_file, "--k", 2, "--out", out) == 0
    assert json.loads((out / "meta.json").read_text())["config"]["seed"] == 11
    assert json.loads((out / "report.json").read_text())["seed"] == 11
    # explicit flag wins over the environment
    out2 = tmp_path / "flag"
    assert run_cli("cluster", "--graph", triangles_file, "--k", 2,
                   "--seed", 3, "--out", out2) == 0
    assert json.loads((out2 / "report.json").read_text())["seed"] == 3


# ---------------------------------------------------------------------------
# generate-sbm / knn-graph / evaluate


def test_generate_sbm_outputs_parse(tmp_path):
    out = tmp_path / "sbm"
    assert run_cli("generate-sbm", "--n", 200, "--k", 4, "--p", "0.3",
                   "--q", "0.02", "--seed", 1, "--out", out) == 0
    loaded = load_edge_list(out / "graph.tsv")
    labels = load_labels(out / "labels.txt", expected_n=loaded.graph.n)
    assert len(np.unique(labels)) == 4
    lines = (out / "meta.jsonl").read_text().strip().splitlines()
    rec = json.loads(lines[-1])
    assert rec["n"] == 200 and rec["k"] == 4 and rec["seed"] == 1
    # a second generation appends rather than truncating
    assert run_cli("generate-sbm", "--n", 200, "--k", 4, "--p", "0.3",
                   "--q", "0.02", "--seed", 2, "--out", out) == 0
    assert len((out / "meta.jsonl").read_text().strip().splitlines()) == len(lines) + 1


def test_generate_then_cluster_recovers_planted(tmp_path):
    gen = tmp_path / "gen"
    run = tmp_path / "run"
    assert run_cli("generate-sbm", "--n", 400, "--k", 4, "--p", "0.3",
                   "--q", "0.01", "--seed", 0, "--out", gen) == 0
    assert run_cli("cluster", "--graph", gen / "graph.tsv", "--k", 4,
                   "--seed", 0, "--out", run) == 0
    n = load_edge_list(gen / "graph.tsv").graph.n
    truth = load_labels(gen / "labels.txt", expected_n=n)
    pred = load_labels(run / "labels.txt", expected_n=n)
    assert ari(pred, truth) >= 0.95


def test_eigs_log_k_keeps_the_first_columns_of_the_eigs_k_solve(tmp_path, capsys):
    # Eight planted blocks give eight near-equal top eigenvalues, so a
    # 3-column block alone has no gap to converge on.
    gen = tmp_path / "gen"
    assert run_cli("generate-sbm", "--n", 800, "--k", 8, "--p", "0.2",
                   "--q", "0.005", "--seed", 0, "--out", gen) == 0
    embeddings = {}
    for mode in ("eigs_k", "eigs_log_k"):
        out = tmp_path / mode
        assert run_cli("cluster", "--graph", gen / "graph.tsv", "--k", 8, "--mode", mode,
                       "--seed", 0, "--out", out) == 0
        assert json.loads((out / "report.json").read_text())["eigs_converged"] is True
        embeddings[mode] = load_embedding(out / "embedding.csv").data
    assert "warning" not in capsys.readouterr().err
    assert embeddings["eigs_log_k"].shape == (800, 3)
    assert embeddings["eigs_log_k"].tobytes() == embeddings["eigs_k"][:, :3].tobytes()


def test_knn_graph_command(tmp_path):
    pts = tmp_path / "pts.csv"
    rng = np.random.default_rng(0)
    a = rng.normal(0.0, 0.1, size=(20, 2))
    b = rng.normal(5.0, 0.1, size=(20, 2))
    rows = ["x,y,label"]
    for i, (x, y) in enumerate(np.vstack([a, b])):
        rows.append(f"{x},{y},{i // 20}")
    pts.write_text("\n".join(rows) + "\n")
    out = tmp_path / "knn"
    assert run_cli("knn-graph", "--points", pts, "--knn", 5, "--out", out) == 0
    g = load_edge_list(out / "graph.tsv").graph
    assert g.n == 40
    assert (np.diff(g.adj.indptr) >= 5).all()
    labels = load_labels(out / "labels.txt", expected_n=40)
    assert labels.tolist() == [0] * 20 + [1] * 20


def test_evaluate_command(triangles_file, tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    truth = tmp_path / "truth.txt"
    save_labels(np.array([1, 1, 1, 0, 0, 0]), pred)
    save_labels(np.array([0, 0, 0, 1, 1, 1]), truth)
    out = tmp_path / "eval"
    assert run_cli("evaluate", "--graph", triangles_file, "--labels", pred,
                   "--truth", truth, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["ari"] == pytest.approx(1.0)
    assert report["nmi"] == pytest.approx(1.0)
    assert report["max_conductance"] == pytest.approx(0.0)
    assert report["matched_sym_diff_volume"] == pytest.approx(0.0)
    assert report["padded_parts"] is False
    assert json.loads(capsys.readouterr().out)["ari"] == pytest.approx(1.0)


def test_evaluate_wrong_length_exits_2(triangles_file, tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    save_labels(np.array([0, 0, 1]), pred)
    assert run_cli("evaluate", "--graph", triangles_file, "--labels", pred,
                   "--truth", pred, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "3 labels" in err and "6 vertices" in err


@pytest.mark.parametrize(
    "ids",
    [
        ["0", "1", "2", "5", "6", "7"],  # 3 and 4 are absent
        ["0", "1", "2", "1000000000000000", "1000000000000001", "1000000000000002"],
    ],
)
def test_evaluate_scores_a_drop_isolated_run(tmp_path, capsys, ids):
    graph = write_two_triangles(tmp_path / "g.tsv", ids)
    run = tmp_path / "run"
    assert run_cli("cluster", "--graph", graph, "--k", 2, "--drop-isolated", "--out", run) == 0
    truth = tmp_path / "truth.txt"  # one label per kept vertex, in vertices.txt order
    save_labels(np.array([0, 0, 0, 1, 1, 1]), truth)
    argv = ["evaluate", "--graph", graph, "--labels", run / "labels.txt", "--truth", truth]
    assert run_cli(*argv, "--out", tmp_path / "strict") == 2  # the graph has isolated ids
    assert "isolated vertices present" in capsys.readouterr().err
    assert run_cli(*argv, "--drop-isolated", "--out", tmp_path / "eval") == 0
    report = json.loads((tmp_path / "eval" / "report.json").read_text())
    assert report["ari"] == 1.0


# ---------------------------------------------------------------------------
# bench


def test_bench_grid_values():
    assert bench_grid("growk", 5) == [5]
    assert bench_grid("growk", 40) == [5, 10, 20, 40]
    assert bench_grid("growk", 50) == [5, 10, 20, 40]
    assert bench_grid("grown", 20_000) == [20_000]
    assert bench_grid("grown", 80_000) == [20_000, 40_000, 80_000]
    with pytest.raises(InputError):
        bench_grid("growk", 4)
    with pytest.raises(InputError):
        bench_grid("grown", 19_999)


def test_bench_growk_smallest_grid(tmp_path):
    out = tmp_path / "bench"
    assert run_cli("bench-growk", "--kmax", 5, "--modes", "pm_log_k,pm_k",
                   "--seeds", "0", "--out", out) == 0
    assert b"\r" not in (out / "growk.csv").read_bytes()
    text = (out / "growk.csv").read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    reader = csv.DictReader(lines[1:])
    rows = list(reader)
    assert reader.fieldnames == ["mode", "k", "n", "seed", "stage", "seconds", "ari", "nmi"]
    # one row per (mode, grid point, seed, stage)
    assert len(rows) == 2 * 1 * 1 * 4
    stages = {(r["mode"], r["stage"]) for r in rows}
    assert stages == {(m, s) for m in ("pm_log_k", "pm_k")
                      for s in ("embed", "scale", "kmeans", "total")}
    for r in rows:
        assert r["k"] == "5" and r["n"] == "5000"
        assert float(r["seconds"]) >= 0.0
        assert float(r["ari"]) >= 0.95
    gp = (out / "plot.gp").read_text()
    assert "growk.csv" in gp


def test_run_bench_reuses_instance_across_modes():
    rows = run_bench("growk", [5], ["pm_log_k", "pm_k"], [0])
    by_mode = {}
    for r in rows:
        if r["stage"] == "total":
            by_mode[r["mode"]] = r
    # same sampled graph, same seed: ari is a property of (instance, mode)
    assert set(by_mode) == {"pm_log_k", "pm_k"}
    assert all(r["n"] == 5000 for r in by_mode.values())


def test_bench_rejects_bad_modes_and_seeds(tmp_path, capsys):
    assert run_cli("bench-growk", "--kmax", 5, "--modes", "bogus",
                   "--out", tmp_path / "x") == 2
    assert run_cli("bench-growk", "--kmax", 5, "--seeds", "0,-1",
                   "--out", tmp_path / "y") == 2
    err = capsys.readouterr().err
    assert "modes" in err and "seeds" in err


# ---------------------------------------------------------------------------
# subprocess smoke (console script wiring)


def test_console_entry_subprocess(triangles_file, tmp_path):
    out = tmp_path / "sub"
    proc = subprocess.run(
        [sys.executable, "-m", "specluster.cli", "cluster", "--graph",
         str(triangles_file), "--k", "2", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "labels.txt").exists()


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is imported inside the one function that needs it; loading
    # it at import time would add about 0.3 s to every CLI start
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, specluster.cli; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="no /proc")
def test_cli_import_loads_one_openblas():
    # numpy's LAPACK calls and its BLAS thread pin reach numpy's bundled
    # OpenBLAS; scipy.linalg would map scipy's own copy, with its own threads
    proc = subprocess.run(
        [sys.executable, "-c",
         "import specluster.cli\n"
         "print(len({line.split()[-1] for line in open('/proc/self/maps')"
         " if 'openblas' in line.lower()}))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
