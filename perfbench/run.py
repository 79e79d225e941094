"""Benchmark of the rosenau package: four workloads, each a closed loop with one client.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...     # every workload in turn

Each pass of a workload is one fresh worker process (perfbench/worker.py):
it imports rosenau, generates its inputs from the seed, runs the timed body
once and checks every output.  The next pass starts only after the previous
one has ended.  Passes run while one more of typical length still ends
within S seconds, and at least MIN_PASSES run.  With --trace 0 the run
reports the end-to-end metrics; with --trace 1 passes alternate traced and untraced, and the run reports the per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("cli-shipped", "sweep-selfsim", "sweep-l1", "wild-ladder")
MIN_PASSES = 3
IMPORT_PROBES = 3
PASS_TIMEOUT_S = 150.0
# no pass starts once the run is this old, so a run ends well within 180 s
RUN_CAP_S = 100.0

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "process_p50_s": "s", "peak_rss_mb": "MiB",
}
LAYER_UNITS = {"_s": "s", "_bytes": "B", "bytes_out": "B", "_share": "ratio",
               "_ratio": "ratio"}
BYTES_NOTE = ("N = 65536 complex128 arrays are 1 MiB and a 32 x N block is 32 MiB, both below "
              "this machine's L3, so spectral.fft_bytes is computed from array sizes and no "
              "bandwidth claim is made")


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def median(values):
    return statistics.median(values) if values else 0.0


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ROSENAU_GRID_N", None)  # the grid size is part of each workload's input
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def machine() -> dict:
    """nproc, CPU model, cache sizes and package versions of this machine."""
    rec = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": "unknown", "caches": {},
           "python": sys.version.split()[0]}
    try:
        with open("/proc/cpuinfo") as fh:
            rec["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), "unknown")
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            rec["caches"][f"L{level}"] = size
    for pkg in ("numpy", "scipy"):
        try:
            rec[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            rec[pkg] = "missing"
    return rec


def import_probe(env: dict) -> dict:
    """cli.* metrics from `python -X importtime -c "import rosenau"` in a fresh process."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import rosenau"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"import rosenau failed:\n{proc.stderr[-2000:]}")
    rosenau_us, scipy_us, modules = 0, 0, 0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)", line)
        if not m:
            continue
        self_us, cumulative_us, name = int(m[1]), int(m[2]), m[4]
        modules += 1
        if name == "rosenau":
            rosenau_us = cumulative_us
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
    return {"cli.import_s": rosenau_us * 1e-6, "cli.import_scipy_s": scipy_us * 1e-6,
            "cli.modules_loaded": modules}


def run_pass(workload: str, seed: int, traced: bool, out: Path, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--out", str(out)]
    out.mkdir(parents=True)
    with open(out / "worker.log", "w") as log:
        spawn = monotonic()
        try:
            rc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                                timeout=PASS_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
        end = monotonic()
    result_file = out / "result.json"
    if rc != 0 or not result_file.exists():
        log_tail = (out / "worker.log").read_text()[-1500:]
        return {"error": f"worker exit {rc}: {log_tail}", "attempted": 1, "failed": 1,
                "failures": [f"worker exit {rc}"], "traced": traced}
    res = json.loads(result_file.read_text())
    res.update(traced=traced, setup_s=res["ready"] - spawn, process_s=res["done"] - spawn,
               pass_s=end - spawn)
    return res


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    import_probe(env)  # untimed: compiles the bytecode a user's later runs reuse
    probes = [import_probe(env) for _ in range(IMPORT_PROBES)] if trace else []

    passes = []
    start = monotonic()
    while True:
        # a pass starts only if a typical pass still ends within the run
        elapsed = monotonic() - start
        typical = median([p["pass_s"] for p in passes if "pass_s" in p])
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
        if elapsed + typical > RUN_CAP_S:
            break
        traced = trace and len(passes) % 2 == 0
        passes.append(run_pass(workload, seed, traced, work / f"pass{len(passes)}", env))

    ok = [p for p in passes if "error" not in p]
    plain = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    if trace:
        samples = {key: [pr[key] for pr in probes] for key in probes[0]}
        for key in sorted(traced[0]["layers"]) if traced else []:
            samples[key] = [p["layers"][key] for p in traced]
        # counts repeat exactly, so their median is one of the samples
        metrics = {key: (median if layer_unit(key) == "s" else statistics.median_low)(vals)
                   for key, vals in samples.items()}
        t_wall = median([p["wall_s"] for p in traced])
        u_wall = median([p["wall_s"] for p in plain])
        metrics["trace.wall_s"] = t_wall
        metrics["trace.overhead_ratio"] = t_wall / u_wall if u_wall else 0.0
        units = {key: layer_unit(key) for key in metrics}
    else:
        if workload == "cli-shipped":
            process = [s for p in plain for s in p["cli_process_s"]]
        else:  # the worker from spawn to the end of its timed body
            process = [p["process_s"] for p in plain]
        samples = {
            "setup_s": [p["setup_s"] for p in plain],
            "wall_s": [p["wall_s"] for p in plain],
            "process_p50_s": process,
            "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
        }
        metrics = {key: median(vals) for key, vals in samples.items()}
        units = dict(END_TO_END)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    report = {
        "workload": workload, "seed": seed, "trace": int(trace), "passes": len(passes),
        "traced_passes": len(traced), "machine": machine(), "note": BYTES_NOTE,
        "attempted": attempted, "failed": failed,
        "failures": [f for p in passes for f in p.get("failures", [])][:20],
        "errors": [p["error"] for p in passes if "error" in p],
        "metrics": metrics, "units": units,
        "samples": samples,
        "per_pass": [{k: v for k, v in p.items() if k != "failures"} for p in passes],
    }
    (work / "run.json").write_text(json.dumps(report, indent=1))
    return report


def print_report(rep: dict) -> None:
    print(f"# machine {json.dumps(rep['machine'], sort_keys=True)}")
    print(f"# {rep['note']}")
    print(f"workload={rep['workload']} seed={rep['seed']} trace={rep['trace']} "
          f"passes={rep['passes']} (closed loop, one client)")
    for key, value in rep["metrics"].items():
        n = len(rep["samples"].get(key, [])) or rep["traced_passes"] or rep["passes"]
        print(f"  {key:28s} {value:14.6g} {rep['units'][key]:6s} n={n}")
    ratio = rep["failed"] / rep["attempted"] if rep["attempted"] else 1.0
    print(f"  {'fail_ratio':28s} {ratio:14.6g} ratio  "
          f"({rep['failed']} failed / {rep['attempted']} attempted)")
    for reason in rep["failures"] + rep["errors"]:
        print(f"  FAILED: {reason[:400]}", file=sys.stderr)


def result_line(rep: dict) -> dict:
    return {
        "correct": rep["failed"] == 0 and not rep["errors"],
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {k: {"value": v, "unit": rep["units"][k]} for k, v in rep["metrics"].items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="rosenau benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=27.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    missing = [d for d in ("src/rosenau/__init__.py", "configs/minimal.cfg")
               if not (ROOT / d).is_file()]
    if missing:
        print(f"not a rosenau checkout: missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        rep = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_report(rep)
        results[name] = result_line(rep)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
