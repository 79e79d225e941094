"""Sweep execution: metrics and checks over (kernel, eps, t), CSV/JSONL output.

Each time is one task computing every eps at that t, and the tasks may run
on a thread pool; results are merged by sorted key so the written bytes do
not depend on scheduling.  Floats are serialized with 17 significant digits and the
pipeline is seed-free, which makes reruns byte-identical.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from . import analysis
from .config import ExperimentConfig
from .errors import ConfigError, RosenauError
from .kernels import BackgroundKernel, kernel_by_name
from .metrics import moment
from .spectral import (
    DEFAULT_GRID_N,
    GridSpec,
    SpectralField,
    default_grid,
    forward_transform,
    load_distribution,
    require_grid_contains,
    save_distribution,
)

CSV_HEADER = "kernel,epsilon,t,quantity,value,argsup,grid_L,grid_N"


class RunError(RosenauError):
    """Numerical failure at a named sweep point."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass(frozen=True)
class Row:
    kernel: str
    epsilon: float
    t: float
    quantity: str
    value: float
    argsup: float
    grid: GridSpec

    def csv(self) -> str:
        return ",".join([
            self.kernel, _fmt(self.epsilon), _fmt(self.t), self.quantity,
            _fmt(self.value), _fmt(self.argsup),
            _fmt(self.grid.length), str(self.grid.points),
        ])


@contextmanager
def _sweep_point(cfg: ExperimentConfig, eps: float, times: Sequence[float]):
    """Re-raise a numerical failure as RunError naming the sweep point."""
    try:
        yield
    except ConfigError:
        raise
    except RosenauError as exc:
        at = f"t={times[0]:g}" if len(times) == 1 else f"t in {list(times)}"
        raise RunError(f"sweep point (kernel={cfg.kernel}, eps={eps:g}, {at}): {exc}") from exc


@contextmanager
def _input_file(cfg: ExperimentConfig, key: str):
    """Re-raise a missing or malformed input file as ConfigError naming its key."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}", cfg.lines.get(key)) from exc


def _setup(cfg: ExperimentConfig) -> Tuple[Dict[float, BackgroundKernel], SpectralField]:
    """The kernel of each eps and the initial-datum transform they share, on a
    grid that holds every time; no eps changes sigma_sq = lam gamma^2 / 2.

    The grid comes from the config alone: file: data keep their own grid,
    presets take [grid] L and N, sized by default from the datum's m2.
    """
    times, eps0 = sorted(cfg.times), cfg.epsilons[0]
    kernels = {}
    for eps in cfg.epsilons:
        with _sweep_point(cfg, eps, times), _input_file(cfg, "kernel"):
            kernels[eps] = kernel_by_name(cfg.kernel, eps, cfg.sigma)
    kernel = kernels[eps0]
    with _sweep_point(cfg, eps0, times):
        if cfg.initial.startswith("file:"):
            with _input_file(cfg, "initial"):
                dist = load_distribution(cfg.initial.split(":", 1)[1])
            m2, g0 = moment(dist, 2), forward_transform(dist)
        else:
            m2 = analysis.INITIAL_PRESETS[cfg.initial][1](kernel.sigma_sq)
            profile_m2 = 2.0 * kernel.sigma_sq
            for key, name in (("checks", "d3_bound"), ("metrics", "d3_selfsim")):
                if name in getattr(cfg, key) and abs(m2 - profile_m2) > 1e-12 * profile_m2:
                    raise ConfigError(f"{key}: {name} diverges unless the datum's m2 equals the "
                                      f"profile's 2 sigma^2 = {profile_m2:g}; initial "
                                      f"{cfg.initial!r} has m2 = {m2:g}", cfg.lines.get(key))
            points = cfg.grid_points or DEFAULT_GRID_N
            grid = (GridSpec(cfg.grid_length, points) if cfg.grid_length is not None else
                    default_grid(math.sqrt(kernel.sigma_sq), times[-1], n=points, m2=m2))
            g0 = analysis.initial_by_name(cfg.initial, grid, kernel.sigma_sq)
    for t in times:
        with _sweep_point(cfg, eps0, [t]):
            require_grid_contains(g0.grid, m2 + kernel.lam * kernel.gamma**2 * t)
    return kernels, g0


def _point_rows(cfg: ExperimentConfig, point: analysis.SweepPoint, eps: float,
                quantities: Sequence[str]) -> List[Row]:
    rows = []
    with _sweep_point(cfg, eps, [point.t]):
        for quantity in quantities:
            value, argsup = (float(x) for x in getattr(point, quantity))
            if not (math.isfinite(value) and math.isfinite(argsup)):
                raise RosenauError(f"{quantity} is not finite: value {value!r}, argsup {argsup!r}")
            rows.append(Row(cfg.kernel, eps, point.t, quantity, value, argsup, point.g0.grid))
    return rows


def _sweep(cfg: ExperimentConfig, threads: int) -> Tuple[List[Row], List[analysis.BoundCheck]]:
    """The metric rows, sorted by (epsilon, t, quantity), and the bound checks of
    the sweep, from one setup and one walk.  The walk computes the metrics and
    every check's lhs metric; each check reads its lhs off those rows.  The sweep
    points of one time share its t-keyed fields; the pool maps over times, at
    most one worker per time, so no memo is shared between threads."""
    kernels, g0 = _setup(cfg)
    times, names = sorted(cfg.times), sorted(cfg.checks)
    quantities = sorted({*cfg.metrics, *(analysis.CHECKS[n][0] for n in names)})

    def work(t):
        shared: dict = {}
        return [r for eps, k in kernels.items() for r in _point_rows(
            cfg, analysis.SweepPoint(k, g0, k.sigma_sq, t, shared), eps, quantities)]

    if threads == 1 or len(times) == 1:
        chunks = [work(t) for t in times]
    else:
        workers = min(threads if threads > 0 else os.cpu_count() or 1, len(times))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(work, times))
    rows = sorted((r for chunk in chunks for r in chunk),
                  key=lambda r: (r.epsilon, r.t, r.quantity))
    lhs = {(r.epsilon, r.t, r.quantity): r.value for r in rows}
    # a check whose metric is keyed by t alone gives one result for every eps: run it once
    once = [n for n in names if analysis.REGISTRY[analysis.CHECKS[n][0]][0]]
    jobs = [(eps, n) for eps in sorted(cfg.epsilons) for n in names if n not in once]
    jobs += [(cfg.epsilons[0], n) for n in once]
    checks: List[analysis.BoundCheck] = []
    for eps, name in jobs:
        metric, build = analysis.CHECKS[name]
        with _sweep_point(cfg, eps, times):
            checks.extend(build(kernels[eps], g0, times, [lhs[eps, t, metric] for t in times]))
    return [r for r in rows if r.quantity in cfg.metrics], checks


def compute_rows(cfg: ExperimentConfig, threads: int = 0) -> List[Row]:
    """All metric rows of the sweep, sorted by (epsilon, t, quantity)."""
    return _sweep(replace(cfg, checks=[]), threads)[0]


def compute_checks(cfg: ExperimentConfig, threads: int = 1) -> List[analysis.BoundCheck]:
    """All requested bound checks in deterministic order, each lhs the row of its metric."""
    return _sweep(replace(cfg, metrics=[]), threads)[1]


def write_csv(rows: Sequence[Row], path: str) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(r.csv() + "\n")


def write_checks(checks: Sequence[analysis.BoundCheck], path: str) -> None:
    with open(path, "w") as fh:
        for c in checks:
            fh.write(json.dumps({
                "name": c.name,
                "lhs": c.lhs,
                "rhs": c.rhs,
                "margin": c.margin,
                "satisfied": c.satisfied,
                "params": c.params,
            }, sort_keys=True) + "\n")


def run(cfg: ExperimentConfig, out_dir: Optional[str] = None, threads: int = 0,
        verbose: bool = False) -> Dict[str, str]:
    """Execute a config: results.csv, checks.jsonl, one SVG per plotted quantity."""
    from .svg import write_plots

    out = out_dir or cfg.outputs
    os.makedirs(out, exist_ok=True)
    artifacts: Dict[str, str] = {}
    rows, checks = _sweep(cfg, threads)

    if cfg.metrics:
        csv_path = os.path.join(out, "results.csv")
        write_csv(rows, csv_path)
        artifacts["results"] = csv_path
        if verbose:
            print(f"wrote {len(rows)} rows to {csv_path}")
        artifacts.update((f"plot:{q}", path) for q, path in write_plots(rows, out).items())

    if cfg.checks:
        jsonl_path = os.path.join(out, "checks.jsonl")
        write_checks(checks, jsonl_path)
        artifacts["checks"] = jsonl_path
        bad = [c for c in checks if not c.satisfied]
        if verbose:
            print(f"wrote {len(checks)} checks to {jsonl_path} ({len(bad)} unsatisfied)")
        if bad:
            raise RunError(f"{len(bad)} of {len(checks)} bound checks unsatisfied; "
                           f"first: {bad[0].name} lhs={bad[0].lhs:g} rhs={bad[0].rhs:g}")
    return artifacts


def simulate(cfg: ExperimentConfig, out_dir: Optional[str] = None,
             verbose: bool = False) -> List[str]:
    """Solve the kinetic equation at every sweep point and dump distributions."""
    out = out_dir or cfg.outputs
    os.makedirs(out, exist_ok=True)
    kernels, g0 = _setup(cfg)
    written = []
    for eps in sorted(cfg.epsilons):
        for t in sorted(cfg.times):
            with _sweep_point(cfg, eps, [t]):
                dist = analysis.SweepPoint(kernels[eps], g0, kernels[eps].sigma_sq, t).density
            path = os.path.join(out, f"dist_{cfg.kernel.replace(':', '_')}_eps{eps:g}_t{t:g}.txt")
            save_distribution(dist, path)
            written.append(path)
            if verbose:
                print(f"wrote {path}")
    return written
