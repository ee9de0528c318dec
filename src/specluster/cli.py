"""Command-line interface: clustering runs, generators, evaluation, benches.

Every run directory gets host-independent metadata (tool version, full
flag set, seed) echoed into meta.json and into ``#`` comment headers of
text outputs. Wall-clock stage timings go to a separate timings.json so
that labels/embedding/report files are byte-identical across repeat runs.

Exit codes: 0 success, 1 internal or numeric failure, 2 usage or bad
input (argparse uses 2 on its own for malformed flags).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from specluster import __version__
from specluster.errors import InputError, SpeclusterError
from specluster.generate import (
    SbmParams,
    build_knn_graph,
    load_points_csv,
    sample_sbm,
    write_sbm_metadata,
)
from specluster.graph import load_edge_list, load_labels, save_edge_list, save_labels
from specluster.kmeans import Partition
from specluster.metrics import ari, evaluate_partition, nmi, partition_conductances
from specluster.pipeline import MODES, SpectralParams, fast_spectral_cluster
from specluster.spectral import save_embedding

ENV_SEED = "SPECLUSTER_SEED"
_BENCH_STAGES = ("embed", "scale", "kmeans", "total")


def _resolve_common(args: argparse.Namespace) -> None:
    if getattr(args, "seed", None) is None:
        raw = os.environ.get(ENV_SEED, "0")
        try:
            args.seed = int(raw)
        except ValueError:
            raise InputError(f"{ENV_SEED} must be an integer, got {raw!r}") from None
    if args.seed < 0:
        raise InputError(f"seed must be nonnegative, got {args.seed}")
    if getattr(args, "threads", None) is None:
        args.threads = os.cpu_count() or 1
    if args.threads < 1:
        raise InputError(f"--threads must be >= 1, got {args.threads}")
    # Execution is sequential regardless of --threads; the flag is validated
    # and recorded so configs stay comparable, and results never depend on it.


def _config_dict(args: argparse.Namespace) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command")}


def _meta(args: argparse.Namespace) -> dict:
    return {
        "tool": "specluster",
        "version": __version__,
        "subcommand": args.command,
        "seed": args.seed,
        "config": _config_dict(args),
    }


def _config_comment(args: argparse.Namespace) -> str:
    # threads and out are run plumbing, not algorithm config; keeping them out
    # of file headers keeps outputs byte-identical across thread counts and
    # output locations.
    flags = " ".join(
        f"{k}={v}" for k, v in _config_dict(args).items() if k not in ("threads", "out")
    )
    return f"specluster v{__version__} {args.command} {flags}"


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommands


def cmd_cluster(args: argparse.Namespace) -> int:
    loaded = load_edge_list(
        args.graph,
        allow_self_loops=args.allow_self_loops,
        drop_isolated=args.drop_isolated,
    )
    g = loaded.graph
    params = SpectralParams(
        k=args.k, epsilon=args.epsilon, l=args.l, t=args.t, mode=args.mode, seed=args.seed
    )
    result = fast_spectral_cluster(g, params)
    if result.eigs_converged is False:
        print(
            f"warning: eigensolver stopped at the iteration cap "
            f"({result.eigs_iterations} sweeps) without reaching tolerance",
            file=sys.stderr,
        )

    out = _out_dir(args)
    comment = _config_comment(args)
    save_labels(result.partition.labels, out / "labels.txt", header_comments=[comment])
    input_ids = loaded.input_ids()
    if input_ids is not None:
        with open(out / "vertices.txt", "w", encoding="utf-8") as fh:
            fh.write(f"# {comment}\n")
            fh.writelines(f"{v}\n" for v in input_ids)
    save_embedding(result.embedding, out / "embedding.csv")

    empty = result.partition.empty_parts()
    report = {
        "tool": "specluster",
        "version": __version__,
        "n": g.n,
        "k": args.k,
        "mode": args.mode,
        "l": result.l,
        "t": result.t,
        "seed": args.seed,
        "num_dropped_vertices": len(loaded.dropped),
        "cluster_sizes": result.partition.sizes().tolist(),
        "empty_parts": empty,
        "max_conductance": (
            float(partition_conductances(g, result.partition).max()) if not empty else None
        ),
        "eigs_converged": result.eigs_converged,
    }
    _write_json(out / "report.json", report)
    _write_json(out / "meta.json", _meta(args))
    _write_json(out / "timings.json", {"stage_ms": result.timings})
    print(f"wrote {out}/labels.txt ({g.n} vertices, k={args.k}, mode={args.mode})")
    return 0


def cmd_generate_sbm(args: argparse.Namespace) -> int:
    sample = sample_sbm(SbmParams(n=args.n, k=args.k, p=args.p, q=args.q, seed=args.seed))
    out = _out_dir(args)
    comment = _config_comment(args)
    save_edge_list(sample.graph, out / "graph.tsv", header_comments=[comment])
    save_labels(sample.planted.labels, out / "labels.txt", header_comments=[comment])
    write_sbm_metadata(sample, out / "meta.jsonl")
    _write_json(out / "meta.json", _meta(args))
    print(
        f"wrote {out}/graph.tsv: n={sample.graph.n} (dropped {len(sample.dropped)} "
        f"isolated), m={sample.graph.num_edges}"
    )
    return 0


def cmd_knn_graph(args: argparse.Namespace) -> int:
    pc = load_points_csv(args.points)
    g = build_knn_graph(pc, args.knn)
    out = _out_dir(args)
    comment = _config_comment(args)
    save_edge_list(g, out / "graph.tsv", header_comments=[comment])
    if pc.labels is not None:
        save_labels(pc.labels, out / "labels.txt", header_comments=[comment])
    _write_json(out / "meta.json", _meta(args))
    print(f"wrote {out}/graph.tsv: n={g.n}, m={g.num_edges}, k_nn={args.knn}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    loaded = load_edge_list(args.graph)
    g = loaded.graph
    predicted = Partition.from_labels(load_labels(args.labels, expected_n=g.n))
    truth = Partition.from_labels(load_labels(args.truth, expected_n=g.n))
    report = evaluate_partition(g, predicted, truth)
    out = _out_dir(args)
    payload = {"tool": "specluster", "version": __version__, **report.to_dict()}
    _write_json(out / "report.json", payload)
    _write_json(out / "meta.json", _meta(args))
    print(json.dumps(payload, indent=2))
    return 0


# ---------------------------------------------------------------------------
# Benchmark harness


def bench_grid(regime: str, limit: int) -> list[int]:
    """growk: k in {5, 10, 20, 40, ...}; grown: n in {20000, 40000, ...}."""
    if regime == "growk":
        if limit < 5:
            raise InputError(f"--kmax must be >= 5, got {limit}")
        grid = [5]
        while grid[-1] * 2 <= limit:
            grid.append(grid[-1] * 2)
        return grid
    if limit < 20_000:
        raise InputError(f"--nmax must be >= 20000, got {limit}")
    grid = [20_000]
    while grid[-1] * 2 <= limit:
        grid.append(grid[-1] * 2)
    return grid


def bench_instance_params(regime: str, grid_value: int, seed: int) -> SbmParams:
    if regime == "growk":
        k = grid_value
        return SbmParams(n=1000 * k, k=k, p=0.04, q=1.0 / (1000 * k), seed=seed)
    n = grid_value
    return SbmParams(n=n, k=20, p=40.0 / n, q=1.0 / (20 * n), seed=seed)


def run_bench(
    regime: str,
    grid: list[int],
    modes: list[str],
    seeds: list[int],
    progress=None,
) -> list[dict]:
    """One row per (grid point, seed, mode, stage); ari/nmi repeated per stage."""
    rows: list[dict] = []
    for gv in grid:
        for seed in seeds:
            params = bench_instance_params(regime, gv, seed)
            sample = sample_sbm(params)
            for mode in modes:
                result = fast_spectral_cluster(
                    sample.graph, SpectralParams(k=params.k, mode=mode, seed=seed)
                )
                a = ari(result.partition, sample.planted)
                m = nmi(result.partition, sample.planted)
                if progress is not None:
                    progress(
                        f"[bench {regime}] mode={mode} k={params.k} n={params.n} "
                        f"seed={seed} total={result.timings['total'] / 1e3:.2f}s ari={a:.3f}"
                    )
                for stage in _BENCH_STAGES:
                    rows.append(
                        {
                            "mode": mode,
                            "k": params.k,
                            "n": params.n,
                            "seed": seed,
                            "stage": stage,
                            "seconds": result.timings[stage] / 1e3,
                            "ari": a,
                            "nmi": m,
                        }
                    )
    return rows


def _write_bench_csv(path: Path, rows: list[dict], comment: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["mode", "k", "n", "seed", "stage", "seconds", "ari", "nmi"])
        for r in rows:
            writer.writerow(
                [
                    r["mode"],
                    r["k"],
                    r["n"],
                    r["seed"],
                    r["stage"],
                    f"{r['seconds']:.6f}",
                    f"{r['ari']:.6f}",
                    f"{r['nmi']:.6f}",
                ]
            )


_PLOT_TEMPLATE = """\
# gnuplot layout: per-mode total seconds vs {xname} (medians appear as point clouds)
set datafile separator comma
set key top left autotitle columnhead
set logscale x 2
set logscale y 10
set xlabel "{xname}"
set ylabel "seconds (stage = total)"
modes = "{modes}"
plot for [i=1:words(modes)] "{csv}" \\
    using (strcol(1) eq word(modes, i) && strcol(5) eq "total" ? column({xcol}) : NaN):6 \\
    title word(modes, i) with points pt i+4
"""


def _write_plot_gp(path: Path, csv_name: str, xname: str, xcol: int, modes: list[str]) -> None:
    path.write_text(
        _PLOT_TEMPLATE.format(xname=xname, modes=" ".join(modes), csv=csv_name, xcol=xcol),
        encoding="utf-8",
    )


def _parse_modes(text: str) -> list[str]:
    modes = [m.strip() for m in text.split(",") if m.strip()]
    bad = [m for m in modes if m not in MODES]
    if bad or not modes:
        raise InputError(f"--modes must be a comma list from {MODES}, got {text!r}")
    return modes


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise InputError(f"--seeds must be comma-separated integers, got {text!r}") from None
    if not seeds or any(s < 0 for s in seeds):
        raise InputError(f"--seeds must be nonnegative integers, got {text!r}")
    return seeds


def _cmd_bench(args: argparse.Namespace, regime: str, limit: int) -> int:
    modes = _parse_modes(args.modes)
    seeds = _parse_seeds(args.seeds)
    grid = bench_grid(regime, limit)
    rows = run_bench(
        regime, grid, modes, seeds, progress=lambda s: print(s, file=sys.stderr)
    )
    out = _out_dir(args)
    csv_name = f"{regime}.csv"
    _write_bench_csv(out / csv_name, rows, _config_comment(args))
    xname, xcol = ("k", 2) if regime == "growk" else ("n", 3)
    _write_plot_gp(out / "plot.gp", csv_name, xname, xcol, modes)
    _write_json(out / "meta.json", _meta(args))
    print(f"wrote {out}/{csv_name}: {len(rows)} rows over grid {grid}")
    return 0


def cmd_bench_growk(args: argparse.Namespace) -> int:
    return _cmd_bench(args, "growk", args.kmax)


def cmd_bench_grown(args: argparse.Namespace) -> int:
    return _cmd_bench(args, "grown", args.nmax)


# ---------------------------------------------------------------------------
# Parser / entry point


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help=f"master seed (default: ${ENV_SEED} or 0)")
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads; results are independent of this")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="specluster",
        description="Fast spectral graph clustering via power-method embeddings.",
    )
    p.add_argument("--version", action="version", version=f"specluster {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cluster", help="cluster a graph given as an edge list")
    c.add_argument("--graph", required=True, help="edge-list file (u<TAB>v[<TAB>w])")
    c.add_argument("--k", type=int, required=True, help="number of clusters (>= 2)")
    c.add_argument("--mode", choices=MODES, default="pm_log_k")
    c.add_argument("--epsilon", type=float, default=None,
                   help="accuracy in (0,1]; derives l and t when set")
    c.add_argument("--l", type=int, default=None, help="embedding width override")
    c.add_argument("--t", type=int, default=None, help="power-method steps override")
    c.add_argument("--allow-self-loops", action="store_true",
                   help="fold self-loop weight into the degree instead of failing")
    c.add_argument("--drop-isolated", action="store_true",
                   help="drop zero-degree vertices instead of failing")
    _add_common(c)
    c.set_defaults(func=cmd_cluster)

    gsb = sub.add_parser("generate-sbm", help="sample a planted-partition graph")
    gsb.add_argument("--n", type=int, required=True)
    gsb.add_argument("--k", type=int, required=True)
    gsb.add_argument("--p", type=float, required=True)
    gsb.add_argument("--q", type=float, required=True)
    _add_common(gsb)
    gsb.set_defaults(func=cmd_generate_sbm)

    knn = sub.add_parser("knn-graph", help="build a k-nearest-neighbour graph from points")
    knn.add_argument("--points", required=True, help="CSV of points, one per row")
    knn.add_argument("--knn", type=int, required=True)
    _add_common(knn)
    knn.set_defaults(func=cmd_knn_graph)

    ev = sub.add_parser("evaluate", help="score predicted labels against ground truth")
    ev.add_argument("--graph", required=True)
    ev.add_argument("--labels", required=True, help="predicted labels, one per line")
    ev.add_argument("--truth", required=True, help="reference labels, one per line")
    _add_common(ev)
    ev.set_defaults(func=cmd_evaluate)

    bk = sub.add_parser("bench-growk", help="timing grid with k growing, n = 1000k")
    bk.add_argument("--kmax", type=int, required=True)
    bk.add_argument("--modes", default=",".join(MODES))
    bk.add_argument("--seeds", default="0,1,2")
    _add_common(bk)
    bk.set_defaults(func=cmd_bench_growk)

    bn = sub.add_parser("bench-grown", help="timing grid with n growing, k = 20")
    bn.add_argument("--nmax", type=int, required=True)
    bn.add_argument("--modes", default=",".join(MODES))
    bn.add_argument("--seeds", default="0,1,2")
    _add_common(bn)
    bn.set_defaults(func=cmd_bench_grown)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve_common(args)
        return args.func(args)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SpeclusterError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
