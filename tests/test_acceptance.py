"""End-to-end acceptance gate.

Nine criteria, one test and one printed verdict line each. Verdicts go to the
real stdout so they survive pytest capture:

    ACCEPTANCE <n> <name>: PASS|FAIL <detail>

The heavy criteria (1, 2, 3) run benchmark-scale instances and dominate the
suite's wall time; everything is seeded, so results are reproducible.
"""

import math
import subprocess
import sys
from itertools import permutations, product

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph

from specluster.cli import run_bench
from specluster.generate import SbmParams, sample_sbm
from specluster.graph import conductance, save_edge_list
from specluster.kmeans import Partition, kmeans_cost
from specluster.metrics import ari, matched_sym_diff_volume
from specluster.pipeline import SpectralParams, fast_spectral_cluster
from specluster.spectral import (
    SignlessLaplacianOp,
    power_method,
    sample_gaussian_vectors,
    subspace_iteration_eigs,
)
from tests.oracles import (
    apply_m,
    ari_pair_oracle,
    dense_signless_laplacian,
    frobenius_cost_oracle,
    k_way_expansion_bruteforce,
    kmeans_cost_preservation_check,
    random_graph,
    sym_diff_volume_exhaustive,
    synthetic_operator,
)

ARI_RECOVERY = 0.95
EXACT_TOL = 1e-9
EIGS_VALUE_TOL = 1e-6
ARI_ORACLE_TOL = 1e-12
SPECTRUM_TOL = 1e-10


@pytest.fixture()
def verdict(capsys):
    """Report one pass/fail line per criterion through pytest's capture."""

    def _report(num: int, name: str, ok: bool, detail: str) -> None:
        line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}"
        with capsys.disabled():
            print(line, flush=True)

    return _report


def test_criterion_1_sbm_recovery(verdict):
    per_k = {}
    for k in (5, 10):
        hits, worst = 0, 1.0
        for seed in range(10):
            sample = sample_sbm(
                SbmParams(n=1000 * k, k=k, p=0.04, q=1.0 / (1000 * k), seed=seed)
            )
            res = fast_spectral_cluster(sample.graph, SpectralParams(k=k, seed=seed))
            score = ari(res.partition, sample.planted)
            worst = min(worst, score)
            if score >= ARI_RECOVERY:
                hits += 1
        per_k[k] = (hits, worst)
    ok = all(hits >= 9 for hits, _ in per_k.values())
    detail = "; ".join(
        f"k={k}: {hits}/10 runs >= {ARI_RECOVERY}, worst ARI {worst:.4f}"
        for k, (hits, worst) in per_k.items()
    )
    verdict(1, "sbm-recovery", ok, detail)
    assert ok, detail


def test_criterion_2_variant_agreement_and_runtime_ordering(verdict):
    modes = ["pm_log_k", "pm_k", "eigs_k"]
    agree_rows = run_bench("growk", [5, 10], modes, [0, 1, 2])
    order_rows = run_bench("growk", [20], modes, [0, 1, 2, 3, 4])
    aris = [
        float(r["ari"]) for r in agree_rows + order_rows if r["stage"] == "total"
    ]
    agree_ok = min(aris) >= ARI_RECOVERY
    med = {
        m: float(
            np.median(
                [r["seconds"] for r in order_rows if r["mode"] == m and r["stage"] == "total"]
            )
        )
        for m in modes
    }
    order_ok = med["pm_log_k"] < med["pm_k"] < med["eigs_k"]
    ok = agree_ok and order_ok
    detail = (
        f"min ARI {min(aris):.4f} over {len(aris)} runs; k=20 median seconds "
        f"pm_log_k {med['pm_log_k']:.2f} / pm_k {med['pm_k']:.2f} / "
        f"eigs_k {med['eigs_k']:.2f}"
    )
    verdict(2, "variant-agreement-and-ordering", ok, detail)
    assert ok, detail


def test_criterion_3_embed_stage_scaling(verdict):
    grid = [20_000, 40_000, 80_000]
    rows = run_bench("grown", grid, ["pm_log_k"], [0, 1, 2])
    med = {
        n: float(
            np.median(
                [r["seconds"] for r in rows if r["n"] == n and r["stage"] == "embed"]
            )
        )
        for n in grid
    }
    ratios = [med[grid[i + 1]] / med[grid[i]] for i in range(len(grid) - 1)]
    ok = all(1.5 <= r <= 3.5 for r in ratios)
    detail = (
        f"median embed seconds {[f'{med[n]:.3f}' for n in grid]}, "
        f"doubling ratios {[f'{r:.2f}' for r in ratios]} (allowed [1.5, 3.5])"
    )
    verdict(3, "embed-scaling-per-doubling", ok, detail)
    assert ok, detail


def test_criterion_4_power_iterate_near_projection(verdict):
    n, k, eps, c1 = 400, 20, 0.3, 0.5
    c3 = 1.0 / (2.0 * math.log(1.0 / c1))
    t = math.ceil(c3 * math.log(24 * n / (eps * eps * k)))
    assert t == 7
    delta = eps / (2.0 * math.sqrt(6.0) * t)
    bound = eps * math.sqrt(k)
    hits, worst = 0, 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m, top = synthetic_operator(rng, n, k, delta, c1)
        x0 = sample_gaussian_vectors(n, 1, seed=seed).data[:, 0]
        xt = power_method(m, x0, t)
        err = float(np.linalg.norm(xt - top @ (top.T @ x0)))
        worst = max(worst, err)
        if err <= bound:
            hits += 1
    ok = hits >= 95
    detail = f"{hits}/100 trials with error <= {bound:.4f}, worst {worst:.4f}"
    verdict(4, "projection-error-bound", ok, detail)
    assert ok, detail


def test_criterion_5_norm_bound_violation_rate(verdict):
    n, k, trials = 400, 20, 1000
    limit = 1.0 / (10 * k) + 0.02
    rng = np.random.default_rng(5)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    basis = basis[:, :k]
    proj_cap = math.sqrt(6 * k)
    full_cap = math.sqrt(6 * n)
    violations = 0
    for _ in range(trials):
        x = rng.standard_normal(n)
        if np.linalg.norm(basis.T @ x) > proj_cap or np.linalg.norm(x) > full_cap:
            violations += 1
    rate = violations / trials
    ok = rate <= limit
    detail = f"violation rate {rate:.4f} over {trials} trials (allowed {limit:.4f})"
    verdict(5, "norm-bounds", ok, detail)
    assert ok, detail


def test_criterion_6_cost_preservation(verdict):
    mult_hits = add_hits = 0
    worst_ratio_dev, worst_fro = 0.0, 0.0
    for seed in range(100):
        sample = sample_sbm(SbmParams(n=200, k=4, p=0.5, q=0.01, seed=seed))
        rep = kmeans_cost_preservation_check(
            sample.graph, 4, 0.5, trials=20, seed=seed, planted=sample.planted
        )
        if rep.planted_mult_ok:
            mult_hits += 1
        if rep.additive_ok:
            add_hits += 1
        worst_ratio_dev = max(worst_ratio_dev, abs(rep.planted_mult_ratio - 1.0))
        worst_fro = max(worst_fro, rep.fro_additive_dev)
    ok = mult_hits >= 90 and add_hits >= 90
    detail = (
        f"multiplicative {mult_hits}/100 within 1±0.5 (worst dev "
        f"{worst_ratio_dev:.3f}); additive {add_hits}/100 within "
        f"{rep.additive_bound:.1f} (worst {worst_fro:.3f})"
    )
    verdict(6, "cost-preservation", ok, detail)
    assert ok, detail


def test_criterion_7_oracle_equivalences(verdict):
    rng = np.random.default_rng(7)
    devs = {}

    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 40))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, min(n, 6)))
        pts = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0)
        labels = rng.integers(0, k, size=n)
        got = kmeans_cost(pts, Partition(labels, k))
        worst = max(worst, abs(got - frobenius_cost_oracle(pts, labels, k)))
    devs["kmeans_cost"] = worst
    assert worst <= EXACT_TOL

    worst = 0.0
    for _ in range(5):
        g = random_graph(rng, int(rng.integers(50, 201)), 0.05, weighted=True)
        x = rng.standard_normal((g.n, 3))
        dense = dense_signless_laplacian(g)
        worst = max(worst, float(np.abs(apply_m(SignlessLaplacianOp(g), x) - dense @ x).max()))
    devs["apply_m"] = worst
    assert worst <= EXACT_TOL

    worst = 0.0
    for _ in range(8):
        g = random_graph(rng, int(rng.integers(8, 31)), 0.4)
        k = int(rng.integers(2, 5))
        res = subspace_iteration_eigs(
            SignlessLaplacianOp(g), k, iters=30_000, tol=1e-9, seed=3
        )
        top = np.sort(np.linalg.eigvalsh(dense_signless_laplacian(g)))[::-1][:k]
        worst = max(worst, float(np.abs(np.sort(res.values)[::-1] - top).max()))
    devs["eigs"] = worst
    assert worst <= EIGS_VALUE_TOL

    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 30))
        a = rng.integers(0, int(rng.integers(1, 5)) + 1, size=n)
        b = rng.integers(0, int(rng.integers(1, 5)) + 1, size=n)
        worst = max(worst, abs(ari(a, b) - ari_pair_oracle(a, b)))
    devs["ari"] = worst
    assert worst <= ARI_ORACLE_TOL

    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(2, 4))
        g = random_graph(rng, n, 0.6)
        la = rng.integers(0, k, size=n)
        ls = rng.integers(0, k, size=n)
        la[:k] = np.arange(k)
        ls[:k] = np.arange(k)
        cost, _ = matched_sym_diff_volume(g, Partition(la, k), Partition(ls, k))
        worst = max(worst, abs(cost - sym_diff_volume_exhaustive(g, la, ls, k)))
    devs["matched_sym_diff"] = worst
    assert worst <= EXACT_TOL

    def rho_independent(g, k):
        best = math.inf
        for labeling in product(range(k), repeat=g.n):
            if len(set(labeling)) != k:
                continue
            arr = np.array(labeling)
            phi = max(
                conductance(g, np.flatnonzero(arr == c).tolist()) for c in range(k)
            )
            best = min(best, phi)
        return best

    worst = 0.0
    for n, k in ((6, 2), (7, 2), (6, 3), (8, 3)):
        g = random_graph(rng, n, 0.7)
        worst = max(worst, abs(k_way_expansion_bruteforce(g, k) - rho_independent(g, k)))
    devs["rho_k"] = worst
    assert worst <= EXACT_TOL

    detail = "max devs " + ", ".join(f"{k}={v:.2e}" for k, v in devs.items())
    verdict(7, "oracle-equivalences", True, detail)


def test_criterion_8_spectrum_bounds(verdict):
    rng = np.random.default_rng(8)
    low, high = 0.0, 1.0
    connected = 0
    worst_top_gap = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 41))
        g = random_graph(rng, n, float(rng.uniform(0.15, 0.6)), weighted=bool(rng.integers(2)))
        vals = np.linalg.eigvalsh(dense_signless_laplacian(g))
        low = min(low, float(vals.min()))
        high = max(high, float(vals.max()))
        ncomp, _ = csgraph.connected_components(g.adjacency_csr(), directed=False)
        if ncomp == 1:
            connected += 1
            worst_top_gap = max(worst_top_gap, abs(float(vals.max()) - 1.0))
    ok = (
        low >= -SPECTRUM_TOL
        and high <= 1.0 + SPECTRUM_TOL
        and worst_top_gap <= SPECTRUM_TOL
        and connected >= 20
    )
    detail = (
        f"range [{low:.2e}, 1 + {high - 1.0:.2e}] over 50 graphs; "
        f"|top - 1| <= {worst_top_gap:.2e} on {connected} connected graphs"
    )
    verdict(8, "spectrum-bounds", ok, detail)
    assert ok, detail


def test_criterion_9_byte_determinism(verdict, tmp_path):
    sample = sample_sbm(SbmParams(n=400, k=4, p=0.3, q=0.01, seed=0))
    gpath = tmp_path / "input.tsv"
    save_edge_list(sample.graph, gpath)
    variants = {"a": [], "b": [], "t1": ["--threads", "1"], "t4": ["--threads", "4"]}
    blobs = {}
    for name, extra in variants.items():
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "specluster.cli", "cluster", "--graph", str(gpath),
             "--k", "4", "--seed", "5", "--out", str(out), *extra],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        blobs[name] = tuple(
            (out / f).read_bytes() for f in ("labels.txt", "embedding.csv", "report.json")
        )
    ok = blobs["a"] == blobs["b"] == blobs["t1"] == blobs["t4"]
    detail = (
        "labels/embedding/report byte-identical across rerun and --threads {1,4}"
        if ok else "outputs diverged between runs"
    )
    verdict(9, "byte-determinism", ok, detail)
    assert ok, detail
