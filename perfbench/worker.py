"""One pass of one benchmark workload, in a fresh process.

Usage: python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --out DIR
       [--write-reference]

The process imports rosenau, generates the workload's inputs from the seed
and parses them (set-up), runs the timed body once, then checks every
output.  It writes DIR/result.json: the monotonic times at which it was
ready for the timed call and done with it, the body's wall time, peak RSS,
the operation counts for fail_ratio, and with --trace 1 the per-layer
metrics.

--write-reference stores the outputs of the default seed in reference.json;
other runs of the default seed are compared against it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0
# Relative tolerance against the stored reference: loose enough for the
# known ~1e-8 relative correction of d2_selfsim's small-frequency limit,
# tight enough to catch any other change of the numbers.
REF_RTOL = 1e-6
# Absolute floor of the comparison, for values that are zero in the reference.
REF_ATOL = 1e-15

SWEEP_N = 65536
SWEEP_TIMES = 32
WILD_N = 4096
WILD_EPS = 0.1
MU_LADDER = (200.0, 800.0, 2000.0, 5000.0)
LADDER_REPEATS = 3
DECAY_TIMES = (0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0)
APPENDIX_S, APPENDIX_TMAX, APPENDIX_POINTS, APPENDIX_PANELS = 0.9, 1000.0, 13, 128
CHILD_TIMEOUT_S = 120.0


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def draws(seed: int):
    """Uniform draws in [0, 1) from the seed; the default seed draws zeros,
    so it reproduces the unperturbed inputs."""
    rng = random.Random(seed)
    return (lambda: 0.0) if seed == DEFAULT_SEED else rng.random


def close(value: float, ref: float, rtol: float = REF_RTOL) -> bool:
    return abs(value - ref) <= rtol * max(abs(value), abs(ref)) + REF_ATOL


def finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


class Gate:
    """Attempted and failed operations of one pass, with the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def compare(self, got, ref, what: str) -> bool:
        """got and ref are lists of [label, values...] records in the same order."""
        if len(got) != len(ref):
            return self.op(False, f"{what}: {len(got)} records, reference has {len(ref)}")
        bad = [(g, r) for g, r in zip(got, ref)
               if g[0] != r[0] or not all(close(a, b) for a, b in zip(g[1:], r[1:]))]
        return self.op(not bad, f"{what}: {len(bad)} records differ from the reference, "
                                f"first {bad[0] if bad else None}")


def load_reference(workload: str):
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload)


def store_reference(workload: str, data) -> None:
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref[workload] = data
    # one record per line, so a changed number shows as a one-line diff
    lines = []
    for w, groups in sorted(ref.items()):
        body = ",\n".join(
            f'  "{key}": [\n' + ",\n".join("   " + json.dumps(r) for r in recs) + "\n  ]"
            for key, recs in sorted(groups.items()))
        lines.append(f'"{w}": {{\n{body}\n}}')
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def row_records(rows):
    return [[f"{r.quantity} eps={r.epsilon!r}", r.t, r.value] for r in rows]


def check_records(checks):
    return [[c.name, c.lhs, c.rhs] for c in checks]


# ----------------------------------------------------------------------
# workloads: setup(seed, out) -> None, body() -> output,
# gate(output, gate) -> records compared with the stored reference
# ----------------------------------------------------------------------

class Sweep:
    """A scaled config: ``logspace lo hi 32`` times with lo in [LO, 1.1 LO] and
    hi in [0.95 HI, HI], N = 65536, run in process."""

    seeded_reference = True

    def setup(self, seed, out):
        from rosenau import config

        u = draws(seed)
        lo, hi = self.LO * (1.0 + 0.1 * u()), self.HI * (1.0 - 0.05 * u())
        path = out / "sweep.cfg"
        path.write_text(self.CONFIG.format(lo=lo, hi=hi, n=SWEEP_TIMES, N=SWEEP_N))
        self.cfg = config.load_config(str(path))


class SweepSelfsim(Sweep):
    """decay_sweep.cfg scaled to N = 65536 and 32 log-spaced times, serial."""

    LO, HI = 0.5, 100.0
    CONFIG = """[experiment]
kernel = central-diff
sigma = 1.0
epsilons = 0.5 0.2 0.1 0.05
times = logspace {lo!r} {hi!r} {n}
initial = mixture-unit
metrics = d2_selfsim d2_gap d2_selfsim_heat
checks = heat_decay d2_bound
[grid]
N = {N}
"""

    def body(self):
        from rosenau import runner

        return runner.compute_rows(self.cfg, threads=1), runner.compute_checks(self.cfg)

    def gate(self, output, gate):
        rows, checks = output
        for r in rows:
            gate.op(finite(r.value, r.argsup) and r.value >= 0.0, f"row {r.csv()}")
        for c in checks:
            gate.op(finite(c.lhs, c.rhs) and c.satisfied,
                    f"check {c.name}: lhs={c.lhs!r} rhs={c.rhs!r}")
        return {"rows": row_records(rows), "checks": check_records(checks)}


class SweepL1(Sweep):
    """regularized_l1.cfg scaled to N = 65536, two eps, 32 times, thread pool."""

    LO, HI = 1.0, 200.0
    CONFIG = """[experiment]
kernel = rosenau
sigma = 1.0
epsilons = 0.2 0.1
times = logspace {lo!r} {hi!r} {n}
initial = gaussian-unit
metrics = l1_reg_gap l1_heat_gap mass m2 m4 entropy_reg
[grid]
N = {N}
"""

    def body(self):
        from rosenau import runner

        return runner.compute_rows(self.cfg, threads=0)

    def gate(self, rows, gate):
        gate_l1_rows(rows, gate)
        return {"rows": row_records(rows)}


def gate_l1_rows(rows, gate):
    """Invariants of the gaussian-unit rosenau sweep at sigma = 1: unit mass and
    the transport law m2(t) = m2(0) + 2 sigma^2 t with m2(0) = 1."""
    for r in rows:
        ok = finite(r.value)
        if r.quantity == "mass":
            ok = ok and abs(r.value - 1.0) <= 1e-12
        elif r.quantity == "m2":
            ok = ok and close(r.value, 1.0 + 2.0 * r.t, rtol=1e-9)
        elif r.quantity in ("l1_reg_gap", "l1_heat_gap", "m4"):
            ok = ok and r.value >= 0.0
        gate.op(ok, f"row {r.csv()}")


class WildLadder:
    """Wild sums, atomic solution, B_eps, d3 bound checks and the appendix table."""

    seeded_reference = False

    def setup(self, seed, out):
        u = draws(seed)
        self.mus = [mu * (1.0 - 0.01 * u()) for mu in MU_LADDER]
        lo, hi = DECAY_TIMES[0] * (1.0 + 0.1 * u()), DECAY_TIMES[-1] * (1.0 - 0.05 * u())
        self.times = [lo, *DECAY_TIMES[1:-1], hi]
        self.app_times = [0.0] + [APPENDIX_TMAX ** (k / (APPENDIX_POINTS - 1))
                                  for k in range(APPENDIX_POINTS)]

    def ladder(self):
        from rosenau import analysis, kernels, spectral, wild

        kc = kernels.bernoulli_kernel(WILD_EPS, 1.0)
        kr = kernels.rosenau_kernel(WILD_EPS, 1.0)
        atoms = [wild.cd_wild_solution(kc, mu * WILD_EPS**2 / kc.lam) for mu in self.mus]
        t_wild = [mu * WILD_EPS**2 / kr.lam for mu in self.mus]
        grid = spectral.default_grid(1.0, max(t_wild), n=WILD_N)
        g0 = analysis.initial_by_name("gaussian-unit", grid)
        sums = [wild.wild_solution(g0, kr, t) for t in t_wild]
        b_eps = [kernels.b_epsilon(k) for k in (kc, kr)]
        d3 = []
        for k in (kc, kr):
            grid3 = spectral.default_grid(math.sqrt(k.sigma_sq), max(self.times), n=WILD_N,
                                          m2=2.0 * k.sigma_sq)
            g3 = analysis.initial_by_name("mixture-matched", grid3, k.sigma_sq)
            d3.extend(analysis.d3_bound_check(k, g3, self.times))
        app = [analysis.appendix_report(APPENDIX_S, t, panels=APPENDIX_PANELS)
               for t in self.app_times]
        return (kc, kr, g0, t_wild), atoms, sums, b_eps, d3, app

    def body(self):
        return [self.ladder() for _ in range(LADDER_REPEATS)]

    def gate(self, ladders, gate):
        import numpy as np
        from scipy.special import ive
        from rosenau import spectral

        for (kc, kr, g0, t_wild), atoms, sums, b_eps, d3, app in ladders:
            a = WILD_EPS * kc.sigma
            for mu, dist in zip(self.mus, atoms):
                # exact atom weight at lattice site m: exp(-mu) I_|m|(mu)
                m = np.rint(np.array([loc for loc, _ in dist.atoms]) / a)
                w = np.array([w for _, w in dist.atoms])
                err = float(np.max(np.abs(w - ive(np.abs(m), mu))))
                gate.op(err <= 1e-12 and abs(w.sum() - 1.0) <= 1e-10,
                        f"cd_wild_solution mu={mu!r}: |w - ive| = {err:.3e}, "
                        f"mass - 1 = {w.sum() - 1.0:.3e}")
            for t, res in zip(t_wild, sums):
                exact = spectral.rosenau_propagate(g0, kr, t).values
                err = float(np.max(np.abs(res.field.values - exact)))
                gate.op(err <= 1e-10 and not res.delegated and res.truncation.tail_mass <= 1e-12,
                        f"wild_solution t={t!r}: |wild - propagator| = {err:.3e}")
            for k, b in zip((kc, kr), b_eps):
                # m4 = (eps sigma)^4 for the two atoms, 4! (eps sigma)^4 for the exponential
                m4 = (24.0 if k.family == "rosenau" else 1.0) * (k.epsilon * k.sigma) ** 4
                gate.op(close(b, 2.0 * m4 / k.epsilon**2, rtol=1e-9),
                        f"b_epsilon {k.family}: {b!r}")
            for c in d3:
                gate.op(finite(c.lhs, c.rhs) and c.satisfied,
                        f"check {c.name}: lhs={c.lhs!r} rhs={c.rhs!r}")
            for rep in app:
                gate.op(finite(rep.integral, rep.value, rep.value_balanced) and rep.integral >= 0.0,
                        f"appendix t={rep.t!r}: {rep}")
        app = ladders[0][-1]
        return {"appendix": [[f"t={r.t!r}", r.integral, r.value, r.value_balanced] for r in app]}


class CliShipped:
    """Fresh rosenau CLI processes on the shipped configs, one after another."""

    seeded_reference = False
    CONFIGS = ("minimal", "decay_sweep", "regularized_l1")

    def setup(self, seed, out):
        from rosenau import config

        self.out = out
        cfgs = {name: str(ROOT / "configs" / f"{name}.cfg") for name in self.CONFIGS}
        self.parsed = {name: config.load_config(path) for name, path in cfgs.items()}
        calls = [("metrics", name) for name in self.CONFIGS]
        calls += [("check", "decay_sweep"), ("simulate", "minimal"), ("appendix", None)]
        if seed != DEFAULT_SEED:
            # the seed only orders the calls: the shipped configs are the contract
            random.Random(seed).shuffle(calls)
        self.calls = []
        for sub, name in calls:
            label = f"{sub}-{name}" if name else sub
            argv = [sub] if name is None else [sub, "--config", cfgs[name],
                                                 "--out", str(out / label)]
            self.calls.append((label, argv))

    def body(self):
        self.process_s = []
        results = {}
        for i, (label, argv) in enumerate(self.calls):
            if self.traced:
                cmd = [sys.executable, str(HERE / "tracecli.py"), *argv]
                env = dict(os.environ, PERFBENCH_SPANS=str(self.out / f"spans-{label}.json"),
                           PERFBENCH_RUN_ID=f"{self.run_id}/{i}")
            else:
                cmd, env = [sys.executable, "-m", "rosenau.cli", *argv], None
            with open(self.out / f"{label}.stdout", "w") as so, \
                    open(self.out / f"{label}.stderr", "w") as se:
                t0 = monotonic()
                rc = subprocess.run(cmd, stdout=so, stderr=se, env=env,
                                    timeout=CHILD_TIMEOUT_S).returncode
                self.process_s.append(monotonic() - t0)
            results[label] = rc
        return results

    def span_files(self):
        return [self.out / f"spans-{label}.json" for label, _ in self.calls]

    def gate(self, codes, gate):
        from rosenau.spectral import load_distribution

        records = {}
        for label, _argv in self.calls:
            why = []
            if codes[label] != 0:
                why.append(f"exit {codes[label]}: "
                           + (self.out / f"{label}.stderr").read_text()[-300:])
            else:
                rec = []
                sub, _, name = label.partition("-")
                out = self.out / label
                if sub == "metrics":
                    rows = read_csv_rows(out / "results.csv")
                    rec = row_records(rows)
                    why += [f"row {r.csv()}" for r in rows if not finite(r.value, r.argsup)]
                    why += [f"missing {q}.svg" for q in self.parsed[name].metrics
                            if not (out / f"{q}.svg").is_file()]
                    if name == "regularized_l1":
                        sub_gate = Gate()
                        gate_l1_rows(rows, sub_gate)
                        why += sub_gate.failures
                elif sub == "check":
                    checks = [json.loads(line) for line in (out / "checks.jsonl").open()]
                    rec = [[c["name"], c["lhs"], c["rhs"]] for c in checks]
                    why += [f"check {c['name']}" for c in checks
                            if not (c["satisfied"] and finite(c["lhs"], c["rhs"]))]
                elif sub == "simulate":
                    for path in sorted(out.glob("dist_*.txt")):
                        d = load_distribution(str(path))
                        v = d.grid.v()
                        mass = d.grid.dv * float(d.density.sum())
                        m2 = d.grid.dv * float((v * v * d.density).sum())
                        rec.append([path.name, mass, m2])
                        if not (finite(mass, m2) and abs(mass - 1.0) <= 1e-9):
                            why.append(f"{path.name}: mass {mass!r}")
                    if len(rec) != 2:
                        why.append(f"{len(rec)} distributions written, expected 2")
                else:  # appendix table: t, I_s, B_s, normalized, balanced
                    lines = (self.out / f"{label}.stdout").read_text().splitlines()[1:]
                    rec = [[f"row {i}", *map(float, line.split())] for i, line in enumerate(lines)]
                    why += [f"appendix {r}" for r in rec if not finite(*r[1:])]
                records[label] = rec
            gate.op(not why, f"{label}: {'; '.join(why)[:500]}")
        return records


def read_csv_rows(path):
    import csv

    from rosenau.runner import Row
    from rosenau.spectral import GridSpec

    with open(path) as fh:
        return [Row(kernel=r["kernel"], epsilon=float(r["epsilon"]), t=float(r["t"]),
                    quantity=r["quantity"], value=float(r["value"]), argsup=float(r["argsup"]),
                    grid=GridSpec(float(r["grid_L"]), int(r["grid_N"])))
                for r in csv.DictReader(fh)]


WORKLOADS = {
    "cli-shipped": CliShipped,
    "sweep-selfsim": SweepSelfsim,
    "sweep-l1": SweepL1,
    "wild-ladder": WildLadder,
}


def peak_rss_mb() -> float:
    """Peak RSS of this process and of every child it waited for, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    import rosenau  # noqa: F401  (set-up includes the package import)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(run_id=out.name)
        tracing.install(tracer)
    work = WORKLOADS[args.workload]()
    work.traced, work.run_id = bool(args.trace), out.name
    work.setup(args.seed, out)
    ready = monotonic()
    t0 = time.perf_counter()
    output = work.body()
    wall = time.perf_counter() - t0
    result = {"ready": ready, "done": monotonic(), "wall_s": wall}
    if tracer is not None:
        tracer.dump(str(out / "spans.json"))
        dumps = [json.loads((out / "spans.json").read_text())]
        if isinstance(work, CliShipped):
            dumps += [json.loads(f.read_text()) for f in work.span_files() if f.exists()]
        result["layers"] = tracing.layer_metrics(dumps)
    if isinstance(work, CliShipped):
        result["cli_process_s"] = work.process_s

    gate = Gate()
    records = work.gate(output, gate)
    if args.write_reference:
        if args.seed != DEFAULT_SEED:
            p.error("--write-reference needs the default seed")
        store_reference(args.workload, records)
    elif args.seed == DEFAULT_SEED or not work.seeded_reference:
        ref = load_reference(args.workload)
        if ref is None:
            gate.op(False, f"no stored reference for {args.workload}")
        else:
            for key, got in records.items():
                gate.compare(got, ref.get(key, []), f"reference {key}")
    result.update(attempted=gate.attempted, failed=len(gate.failures),
                  failures=gate.failures[:20], peak_rss_mb=peak_rss_mb())
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
