"""Sweep execution: metrics and checks over (kernel, eps, t), CSV/JSONL output.

Sweep points are independent pure computations and may run on a thread
pool; results are merged by sorted key so the written bytes do not depend
on scheduling.  Floats are serialized with 17 significant digits and the
pipeline is seed-free, which makes reruns byte-identical.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
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
    inverse_transform,
    load_distribution,
    require_grid_contains,
    rosenau_propagate,
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


def _setup(cfg: ExperimentConfig, eps: float) -> Tuple[BackgroundKernel, SpectralField]:
    """Kernel and initial-datum transform of one eps, on a grid that holds every time.

    The grid comes from the config alone: file: data keep their own grid,
    presets take [grid] L and N, sized by default from the datum's m2.
    """
    times = sorted(cfg.times)
    with _sweep_point(cfg, eps, times):
        with _input_file(cfg, "kernel"):
            kernel = kernel_by_name(cfg.kernel, eps, cfg.sigma)
        if cfg.initial.startswith("file:"):
            with _input_file(cfg, "initial"):
                dist = load_distribution(cfg.initial.split(":", 1)[1])
            m2, g0 = moment(dist, 2), forward_transform(dist)
        else:
            m2 = analysis.INITIAL_PRESETS[cfg.initial][1](kernel.sigma_sq)
            points = cfg.grid_points or DEFAULT_GRID_N
            grid = (GridSpec(cfg.grid_length, points) if cfg.grid_length is not None else
                    default_grid(math.sqrt(kernel.sigma_sq), times[-1], n=points, m2=m2))
            g0 = analysis.initial_by_name(cfg.initial, grid, kernel.sigma_sq)
    for t in times:
        with _sweep_point(cfg, eps, [t]):
            require_grid_contains(g0.grid, m2 + kernel.lam * kernel.gamma**2 * t)
    return kernel, g0


def _point_rows(cfg: ExperimentConfig, kernel: BackgroundKernel, g0: SpectralField,
                eps: float, t: float) -> List[Row]:
    point = analysis.SweepPoint(kernel, g0, t)
    rows = []
    for quantity in sorted(cfg.metrics):
        value, argsup = (float(x) for x in analysis.METRICS[quantity](point))
        if not (math.isfinite(value) and math.isfinite(argsup)):
            raise RosenauError(f"{quantity} is not finite: value {value!r}, argsup {argsup!r}")
        rows.append(Row(cfg.kernel, eps, t, quantity, value, argsup, g0.grid))
    return rows


def compute_rows(cfg: ExperimentConfig, threads: int = 0) -> List[Row]:
    """All metric rows of the sweep, sorted by (epsilon, t, quantity)."""
    points: List[Tuple[float, float]] = [(e, t) for e in cfg.epsilons for t in cfg.times]
    setups = {eps: _setup(cfg, eps) for eps in cfg.epsilons}

    def work(point):
        eps, t = point
        with _sweep_point(cfg, eps, [t]):
            return _point_rows(cfg, *setups[eps], eps, t)

    if threads == 1 or len(points) == 1:
        chunks = [work(p) for p in points]
    else:
        workers = threads if threads > 0 else min(len(points), os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(work, points))
    rows = [r for chunk in chunks for r in chunk]
    rows.sort(key=lambda r: (r.epsilon, r.t, r.quantity))
    return rows


def compute_checks(cfg: ExperimentConfig) -> List[analysis.BoundCheck]:
    """All requested bound checks over the sweep, in deterministic order."""
    times = sorted(cfg.times)
    setups = {eps: _setup(cfg, eps) for eps in cfg.epsilons}
    names = sorted(cfg.checks)
    jobs = [(eps, n) for eps in sorted(cfg.epsilons) for n in names if analysis.CHECKS[n][0]]
    jobs += [(cfg.epsilons[0], n) for n in names if not analysis.CHECKS[n][0]]
    checks: List[analysis.BoundCheck] = []
    for eps, name in jobs:
        kernel, g0 = setups[eps]
        with _sweep_point(cfg, eps, times):
            checks.extend(analysis.CHECKS[name][1](kernel, g0, times))
    return checks


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
        verbose: bool = False, make_plots: bool = True) -> Dict[str, str]:
    """Execute a config: results.csv, checks.jsonl, one SVG per plotted quantity."""
    from .svg import plot_rows

    out = out_dir or cfg.outputs
    os.makedirs(out, exist_ok=True)
    artifacts: Dict[str, str] = {}

    if cfg.metrics:
        rows = compute_rows(cfg, threads=threads)
        csv_path = os.path.join(out, "results.csv")
        write_csv(rows, csv_path)
        artifacts["results"] = csv_path
        if verbose:
            print(f"wrote {len(rows)} rows to {csv_path}")
        if make_plots:
            for quantity in sorted(set(r.quantity for r in rows)):
                svg_path = os.path.join(out, f"{quantity}.svg")
                with open(svg_path, "w") as fh:
                    fh.write(plot_rows([r for r in rows if r.quantity == quantity], quantity))
                artifacts[f"plot:{quantity}"] = svg_path

    if cfg.checks:
        checks = compute_checks(cfg)
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
    setups = {eps: _setup(cfg, eps) for eps in sorted(cfg.epsilons)}
    written = []
    for eps, (kernel, g0) in setups.items():
        for t in sorted(cfg.times):
            with _sweep_point(cfg, eps, [t]):
                dist = inverse_transform(rosenau_propagate(g0, kernel, t))
            path = os.path.join(out, f"dist_{cfg.kernel.replace(':', '_')}_eps{eps:g}_t{t:g}.txt")
            save_distribution(dist, path)
            written.append(path)
            if verbose:
                print(f"wrote {path}")
    return written
