"""The byte contract: sha256 of every output of a fixed set of CLI runs.

For a fixed (input, seed, flags), the bytes of ``labels.txt``,
``embedding.csv`` and ``report.json`` must not change. ``run_all`` runs
each case below as a ``python -m specluster.cli`` child with one BLAS
thread, inside one scratch directory and with relative paths (the
``labels.txt`` header records the ``--graph`` path as given), and returns
the digest of every output it names. ``golden.json`` holds the digests and
the numpy and scipy versions they were recorded with. The eigensolver's QR
rounding is that of numpy's bundled OpenBLAS, which the numpy version pins.
BLAS rounding is part of the contract, so another version needs a new record:

    python tests/golden.py --record

rewrites ``golden.json`` from this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # run as a script: import the package and tests from this checkout
    sys.path[:0] = [str(Path(__file__).resolve().parents[1] / part) for part in ("src", "")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import specluster  # noqa: E402
from specluster.generate import PointCloud  # noqa: E402
from specluster.kmeans import PointSet  # noqa: E402
from tests.oracles import save_points_csv  # noqa: E402

MANIFEST = Path(__file__).with_name("golden.json")
RECORD_COMMAND = "python tests/golden.py --record"

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
_CLUSTER_OUT = ("labels.txt", "embedding.csv", "report.json")
_SBM_OUT = ("graph.tsv", "labels.txt", "meta.jsonl")

# Two triangles on ids 0-2 and 5-7: ids 3 and 4 are isolated.
_GAP_EDGES = "0\t1\n1\t2\n2\t0\n5\t6\n6\t7\n7\t5\n"
# Two triangles joined by one light edge, on string ids.
_STRING_EDGES = (
    "alpha\tbeta\nbeta\tgamma\ngamma\talpha\ngamma\tdelta\t0.25\n"
    "delta\tepsilon\nepsilon\tzeta\nzeta\tdelta\n"
)

# (case, cli arguments, outputs hashed). Cases run in order, so a case may
# read the outputs of one before it. n = 5000 with k = 40 makes Lloyd
# assign in several 2048-row blocks and run bounded sweeps.
CASES = (
    ("sbm40", ["generate-sbm", "--n", "5000", "--k", "40", "--p", "0.1", "--q", "0.0005"],
     _SBM_OUT),
    ("sbm40_pm_log_k", ["cluster", "--graph", "sbm40/graph.tsv", "--k", "40"], _CLUSTER_OUT),
    ("sbm6", ["generate-sbm", "--n", "1200", "--k", "6", "--p", "0.05", "--q", "0.002"],
     _SBM_OUT),
    ("sbm6_pm_k", ["cluster", "--graph", "sbm6/graph.tsv", "--k", "6", "--mode", "pm_k"],
     _CLUSTER_OUT),
    ("sbm6_eigs_k", ["cluster", "--graph", "sbm6/graph.tsv", "--k", "6", "--mode", "eigs_k"],
     _CLUSTER_OUT),
    ("sbm6_eigs_log_k",
     ["cluster", "--graph", "sbm6/graph.tsv", "--k", "6", "--mode", "eigs_log_k"], _CLUSTER_OUT),
    ("gap", ["cluster", "--graph", "gap.tsv", "--k", "2", "--drop-isolated"],
     (*_CLUSTER_OUT, "vertices.txt")),
    ("strings", ["cluster", "--graph", "strings.tsv", "--k", "2"],
     (*_CLUSTER_OUT, "vertices.txt")),
    ("sbm_dropped", ["generate-sbm", "--n", "2000", "--k", "4", "--p", "0.002",
                     "--q", "0.0001", "--seed", "1"], _SBM_OUT),
    # ids of one to five digits, and two isolated vertices dropped
    ("sbm_wide", ["generate-sbm", "--n", "12000", "--k", "3", "--p", "0.002", "--q", "0.0002"],
     ("graph.tsv", "labels.txt")),
    ("knn", ["knn-graph", "--points", "points.csv", "--knn", "5"], ("graph.tsv", "labels.txt")),
)


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_inputs(root: Path) -> None:
    """The input files the cases read; ``points.csv`` is itself hashed."""
    (root / "gap.tsv").write_text(_GAP_EDGES, encoding="utf-8")
    (root / "strings.tsv").write_text(_STRING_EDGES, encoding="utf-8")
    rng = np.random.default_rng(7)
    labels = np.repeat(np.arange(3), 20)
    coords = rng.standard_normal((60, 3)) + 6.0 * labels[:, None]
    save_points_csv(PointCloud(points=PointSet(coords), labels=labels), root / "points.csv")


def run_all(root: Path) -> dict[str, str]:
    """Run every case in ``root``; map ``case/file`` to the file's sha256."""
    write_inputs(root)
    package_parent = str(Path(specluster.__file__).resolve().parents[1])
    env = {
        **os.environ,
        **BLAS_ENV,
        "PYTHONPATH": os.pathsep.join(filter(None, [package_parent, os.environ.get("PYTHONPATH")])),
    }
    digests = {"points.csv": sha256_file(root / "points.csv")}
    for case, argv, outputs in CASES:
        seed = [] if "--seed" in argv else ["--seed", "0"]
        cmd = [sys.executable, "-m", "specluster.cli", *argv, *seed, "--out", case]
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{case}: exit {proc.returncode}: {proc.stderr.strip()}")
        for name in outputs:
            digests[f"{case}/{name}"] = sha256_file(root / case / name)
    return digests


def mismatches(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """Names whose digest differs, or that only one side has."""
    return sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--record", action="store_true",
                   help=f"rewrite {MANIFEST.name}; without it, compare against it")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_all(Path(tmp))
    if args.record:
        manifest = {**versions(), "digests": digests}
        MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {MANIFEST} ({len(digests)} digests)")
        return 0
    bad = mismatches(json.loads(MANIFEST.read_text(encoding="utf-8"))["digests"], digests)
    print("\n".join(bad) if bad else f"all {len(digests)} digests match {MANIFEST.name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
