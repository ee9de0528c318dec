#!/usr/bin/env python3
"""Self-check of the benchmark at toy size; takes well under a minute.

    python3 perfbench/selfcheck.py

Runs every workload in ``BENCHMARK.json`` with ``--smoke`` and both trace
settings, and checks that each result line holds exactly the declared
metrics with their units, that every name matches ``[A-Za-z0-9_.-]+``, that
every value is a finite number and that all checks passed. It also runs the
benchmark from a copy that holds only ``BENCHMARK.json`` and this directory,
where it must fail without printing a result. Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg: str) -> None:
    print(f"selfcheck: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc: subprocess.CompletedProcess, declared: dict, what: str) -> None:
    if proc.returncode != 0:
        fail(f"{what} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{what}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        details = json.loads(proc.stdout.splitlines()[-2])["details"]
        fail(f"{what}: checks failed: {details['errors']}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        fail(f"{what}: metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")
    for name, m in metrics.items():
        if not NAME.fullmatch(name):
            fail(f"{what}: bad metric name {name!r}")
        if m["unit"] != declared[name]:
            fail(f"{what}: {name} has unit {m['unit']!r}, declared {declared[name]!r}")
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"{what}: {name} = {m['value']!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for w in spec["workloads"]:
        if not NAME.fullmatch(w["name"]):
            fail(f"bad workload name {w['name']!r}")
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[group]}
            check_result(run(ROOT, w["name"], trace), declared, f"{w['name']} --trace {trace}")
            print(f"selfcheck: {w['name']} --trace {trace} ok")

    bare = ROOT / ".perfbench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"without the program the benchmark exited {proc.returncode} and printed {proc.stdout!r}")
    print("selfcheck: a copy without the program fails as it should")
    return 0


if __name__ == "__main__":
    sys.exit(main())
