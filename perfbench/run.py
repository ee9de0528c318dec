#!/usr/bin/env python3
"""specluster benchmark: the ``cluster`` CLI and the library pipeline, end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sbm-k40 --seed 0 --seconds 30 --trace 0

The seed builds the workload's planted-partition graph. ``--trace 0``
measures the end-to-end metrics with tracing off: a closed loop with one
client alternates ``specluster cluster`` child processes, one at a time,
with timed in-process ``fast_spectral_cluster`` calls. ``--trace 1`` runs the same invocation
in process with spans around the calls into each module and prints the
per-layer metrics. ``--smoke`` shrinks every workload to toy size.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's details (environment, output digests, samples, spans).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# Set before numpy loads, here and in every child. With default threading,
# the same eigs-k20 input gave embed times of 2490, 1423 and 1544 ms on a
# 2-core machine.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="toy-size graphs, for the self-check")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "specluster" / "cli.py").is_file():
        print(f"error: no specluster sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import bench
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    run = bench.Bench(ROOT, workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                      args.smoke, work)
    try:
        metrics, details = run.per_layer() if args.trace else run.end_to_end()
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
