#!/usr/bin/env python3
"""Smoke test of the benchmark: runs every workload in BENCHMARK.json
briefly, untraced and traced, and checks each run's output.

Run from anywhere: python3 perfbench/smoke_test.py

For each run it asserts that the command exits 0; that the last stdout
line is the result object with exactly the keys correct, attempted,
failed and metrics; that no operation failed; that the metrics are
exactly the ones BENCHMARK.json declares for the run kind, each a finite
number with the declared unit (end-to-end ones never 0); that the report
starts with the host fingerprint; and that every percentile in the
report has at least ten samples beyond it.
"""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PERCENTILE = re.compile(r"^(\S+)_p(\d+)_ms\s+(\S+)\s+ms\s+\[n=(\d+)\]$")


def check_run(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    assert out.returncode == 0, f"{where}: exit {out.returncode}\n{out.stderr[-3000:]}"
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: wrong results"
    assert result["failed"] == 0, f"{where}: {result['failed']} failed operations"
    assert result["attempted"] >= 1, where

    declared = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}, (
        f"{where}: metrics {sorted(result['metrics'])}")
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), where
        if not trace:
            assert got["value"] > 0, f"{where}: {m['name']} is 0"

    fingerprint = json.loads(lines[0].removeprefix("# "))
    for key in ("nproc", "avx2", "simd_kernels", "seed"):
        assert key in fingerprint, f"{where}: fingerprint lacks {key}"
    percentiles = 0
    for line in lines[1:-1]:
        m = PERCENTILE.match(line)
        if m:
            pct, n = int(m.group(2)), int(m.group(4))
            rank = -(-pct * n // 100)
            assert n - rank >= 10, f"{where}: {line!r} has {n - rank} samples beyond it"
            percentiles += 1
    if not trace:
        assert percentiles >= 2, f"{where}: no percentiles in the report"
    print(f"ok  {where}: attempted {result['attempted']}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)


if __name__ == "__main__":
    main()
