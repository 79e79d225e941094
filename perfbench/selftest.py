"""Self-test of the benchmark itself (not of rosenau).

Usage (from the root of a checkout): python3 perfbench/selftest.py

For every workload it makes two short traced runs of the default seed and
asserts that
- every output is correct and no operation failed;
- the result line has exactly the keys and metric names BENCHMARK.json lists;
- the exact work counts repeat exactly, across the two runs and across the
  traced passes within each run.
It then makes one short untraced run to check the end-to-end metric names,
and asserts that the benchmark refuses to run, without printing a result,
in a directory that holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import tracing
from run import ROOT, WORK, WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess, names) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == RESULT_KEYS, sorted(res)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, proc.stderr[-2000:]
    assert set(res["metrics"]) == set(names), sorted(set(res["metrics"]) ^ set(names))
    return res


def traced_counts(workload: str):
    """Exact counts of every traced pass of the last run of a workload."""
    passes = json.loads((WORK / workload / "run.json").read_text())["per_pass"]
    return [{k: p["layers"][k] for k in tracing.COUNT_METRICS} for p in passes if p["traced"]]


def main() -> int:
    layer_names = [m["name"] for m in SPEC["per_layer"]]
    for workload in WORKLOADS:
        runs = []
        for _ in range(2):
            res = result(bench(workload, 1), layer_names)
            runs.append({k: res["metrics"][k]["value"] for k in tracing.COUNT_METRICS})
            per_pass = traced_counts(workload)
            assert len(per_pass) >= 2 and all(c == per_pass[0] for c in per_pass), per_pass
        assert runs[0] == runs[1], (workload, runs)
        print(f"{workload}: counts repeat exactly {runs[0]}")

    result(bench("wild-ladder", 0), [m["name"] for m in SPEC["end_to_end"]])
    print("end-to-end metric names match BENCHMARK.json")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("wild-ladder", 0, cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip().endswith("}"), proc.stdout[-500:]
    shutil.rmtree(bare)
    print("refuses to run without the rosenau sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
