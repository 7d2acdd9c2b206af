"""Smoke check of the benchmark harness at a tiny size (about a minute).

    python3 bench/smoke.py

Run from the repository root. For every workload it runs ``run.py`` once
untraced and once traced and confirms that:

- each run's own output checks pass;
- the metrics are exactly the ``end_to_end`` (untraced) and ``per_layer``
  (traced) names of BENCHMARK.json, each with its declared unit;
- the untraced and the traced pass of the traced run wrote byte-identical
  artifacts;
- no file under ``src/`` changed: the probes wrap functions from outside.

It is not part of the tier-1 suite.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import run
import workloads

ROOT = os.getcwd()


def tree_digest(top: str) -> str:
    h = hashlib.sha256()
    for directory, subdirs, files in sorted(os.walk(top)):
        subdirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            with open(path, "rb") as fh:
                h.update(os.path.relpath(path, top).encode() + b"\0"
                         + hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def bench_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"], cwd=ROOT, capture_output=True, text=True,
        timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited "
                         f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    src = os.path.join(ROOT, "src")
    before = tree_digest(src)
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result = bench_run(workload, trace)
            emitted = {n: m["unit"] for n, m in result["metrics"].items()}
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: not correct")
            if emitted != declared[trace]:
                problems.append(f"{workload} trace={trace}: metrics differ "
                                "from BENCHMARK.json: "
                                f"{sorted(set(emitted) ^ set(declared[trace]))}")
        passes = os.path.join(ROOT, ".bench_work", workload, "passes")
        plain, traced = (run.digest(os.path.join(passes, p, "out"))
                         for p in ("pass-0", "pass-1"))
        if plain != traced:
            problems.append(f"{workload}: traced artifacts differ")
        print(f"{workload}: artifacts {plain[:16]} untraced, "
              f"{traced[:16]} traced")
    if tree_digest(src) != before:
        problems.append("src/ changed during the runs")
    for msg in problems:
        print(f"FAIL: {msg}")
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
