"""Sweep execution: metrics and checks over (kernel, eps, t), CSV/JSONL output,
and the reader of that CSV.

Each time is one task computing every eps at that t, and the tasks may run
on a thread pool; results are merged by sorted key so the written bytes do
not depend on scheduling.  Floats are serialized with 17 significant digits and the
pipeline is seed-free, which makes reruns byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from numpy.linalg import LinAlgError

from . import analysis
from .config import ExperimentConfig
from .errors import ConfigError, RosenauError
from .kernels import BackgroundKernel, kernel_by_name
from .metrics import moment
from .spectral import (
    DEFAULT_GRID_N,
    LEAK_TOL,
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
    """Re-raise a numerical failure as RunError naming the sweep point: a RosenauError, and
    the overflow or failed fit of a float or numpy step that no guard of its own foresaw."""
    try:
        yield
    except ConfigError:
        raise
    except (RosenauError, ArithmeticError, LinAlgError) as exc:
        at = f"t={times[0]:g}" if len(times) == 1 else f"t in {list(times)}"
        raise RunError(f"sweep point (kernel={cfg.kernel}, eps={eps:g}, {at}): {exc}") from exc


@contextmanager
def _input_file(cfg: ExperimentConfig, key: str):
    """Re-raise a missing or malformed input file as ConfigError naming its key."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}", cfg.lines.get(key)) from exc


def _setup(cfg: ExperimentConfig,
           density: bool = False) -> Tuple[Dict[float, BackgroundKernel], SpectralField]:
    """The kernel of each eps and the initial-datum transform they share, on a
    grid that holds every time; every kernel has the diffusivity sigma^2.

    The grid comes from the config alone: file: data keep their own grid,
    presets take [grid] L and N, sized by default from the datum's m2.  With
    ``density``, every sweep point must also leave at most LEAK_TOL of the
    mass on the datum's atoms, which the inverse FFT would fold into the density.
    """
    times, eps0, sigma_sq, atoms = sorted(cfg.times), cfg.epsilons[0], cfg.sigma**2, 0.0
    kernels = {}
    for eps in cfg.epsilons:
        with _sweep_point(cfg, eps, times), _input_file(cfg, "kernel"):
            kernels[eps] = kernel_by_name(cfg.kernel, eps, cfg.sigma)
    with _sweep_point(cfg, eps0, times):
        if cfg.initial.startswith("file:"):
            with _input_file(cfg, "initial"):
                dist = load_distribution(cfg.initial.split(":", 1)[1])
            m2, g0 = moment(dist, 2), forward_transform(dist)
            atoms = sum(abs(w) for _, w in dist.atoms) if density else 0.0
        else:
            m2 = analysis.INITIAL_PRESETS[cfg.initial][1](sigma_sq)
            points = cfg.N or DEFAULT_GRID_N
            grid = (GridSpec(cfg.L, points) if cfg.L is not None else
                    default_grid(math.sqrt(sigma_sq), times[-1], n=points, m2=m2))
            g0 = analysis.initial_by_name(cfg.initial, grid, sigma_sq)
    for t in times:
        with _sweep_point(cfg, eps0, [t]):
            require_grid_contains(g0.grid, m2 + 2.0 * sigma_sq * t)
    for eps in sorted(cfg.epsilons) if atoms else ():  # presets carry no atoms
        # an atom keeps all of its mass under an atomic kernel and e^-mu under rosenau,
        # which falls with t, so the first time decides
        kernel = kernels[eps]
        kept = atoms * (1.0 if kernel.atoms else math.exp(-kernel.intensity(times[0])))
        if kept > LEAK_TOL:
            with _sweep_point(cfg, eps, times[:1]):
                raise RosenauError(f"the datum's atoms keep mass {kept:.3e} > {LEAK_TOL:g}, "
                                   "which an inverse FFT would spread over the density")
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
    every check's lhs metric, and with checks also walks t = 0 for those lhs
    metrics alone; each check reads its lhs and its d0 off the walk.  The sweep
    points of one time share its t-keyed fields; the pool maps over times, at
    most one worker per time, so no memo is shared between threads."""
    times, names = sorted(cfg.times), sorted(cfg.checks)
    checked = sorted({analysis.CHECKS[n][0] for n in names})
    quantities = sorted({*cfg.metrics, *checked})
    kernels, g0 = _setup(cfg, density=not set(quantities).isdisjoint(analysis.DENSITY_METRICS))
    walk = [0.0, *times] if names else times  # t = 0, never a config time, gives each d0

    def work(t):
        shared: dict = {}
        return [r for eps, k in kernels.items() for r in _point_rows(
            cfg, analysis.SweepPoint(k, g0, k.sigma_sq, t, shared), eps, quantities if t > 0 else checked)]

    if threads == 1 or len(walk) == 1:
        chunks = [work(t) for t in walk]
    else:
        from concurrent.futures import ThreadPoolExecutor

        workers = min(threads if threads > 0 else os.cpu_count() or 1, len(walk))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(work, walk))
    rows = sorted((r for chunk in chunks for r in chunk),
                  key=lambda r: (r.epsilon, r.t, r.quantity))
    values = {(r.epsilon, r.t, r.quantity): r.value for r in rows}
    # a check whose metric is keyed by t alone gives one result for every eps: run it once
    once = [n for n in names if analysis.REGISTRY[analysis.CHECKS[n][0]][0]]
    jobs = [(eps, n) for eps in sorted(cfg.epsilons) for n in names if n not in once]
    jobs += [(cfg.epsilons[0], n) for n in once]
    checks: List[analysis.BoundCheck] = []
    for eps, name in jobs:
        metric, build = analysis.CHECKS[name]
        with _sweep_point(cfg, eps, times):
            for check in build(kernels[eps], g0, times, lambda t: values[eps, t, metric]):
                if not math.isfinite(check.rhs):  # lhs and d0 are rows, which _point_rows checked
                    raise RosenauError(f"{check.name}: rhs is not finite: {check.rhs!r}")
                checks.append(check)
    return [r for r in rows if r.t > 0 and r.quantity in cfg.metrics], checks


def compute_rows(cfg: ExperimentConfig, threads: int = 1) -> List[Row]:
    """All metric rows of the sweep, sorted by (epsilon, t, quantity)."""
    return _sweep(replace(cfg, checks=[]), threads)[0]


def compute_checks(cfg: ExperimentConfig) -> List[analysis.BoundCheck]:
    """All requested bound checks in deterministic order, each lhs and d0 read off the walk."""
    return _sweep(replace(cfg, metrics=[]), 1)[1]


def write_csv(rows: Sequence[Row], path: str) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(r.csv() + "\n")


def read_rows(path: str) -> List[Row]:
    """The rows of a results CSV that write_csv wrote.  A file that cannot be read, lacks
    a column of the schema or holds an invalid value is a ConfigError naming --csv (and
    the line)."""
    rows: List[Row] = []
    try:
        with open(path) as fh:
            reader = csv.DictReader(fh)
            if missing := [c for c in CSV_HEADER.split(",") if c not in (reader.fieldnames or [])]:
                raise ConfigError(f"--csv: {path}: not a results CSV, no column {' '.join(missing)}")
            for rec in reader:
                try:
                    num = {key: float(rec[key]) for key in ("epsilon", "t", "value", "argsup", "grid_L")}
                    if bad := [key for key, x in num.items() if not math.isfinite(x)]:
                        raise ValueError(f"{bad[0]} must be finite, got {rec[bad[0]]}")
                    rows.append(Row(
                        kernel=rec["kernel"], epsilon=num["epsilon"], t=num["t"],
                        quantity=rec["quantity"], value=num["value"], argsup=num["argsup"],
                        grid=GridSpec(num["grid_L"], int(rec["grid_N"]))))
                except ValueError as exc:  # also GridSpec's InvalidParameterError
                    raise ConfigError(f"--csv: {path}: line {reader.line_num}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"--csv: {path}: {exc.strerror or exc}") from exc
    return rows


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


def run(cfg: ExperimentConfig, out_dir: Optional[str] = None, threads: int = 1) -> Dict[str, str]:
    """Execute a config: results.csv, checks.jsonl, one SVG per plotted quantity.
    The output directory is created only once the sweep has succeeded."""
    from .svg import write_plots

    rows, checks = _sweep(cfg, threads)
    out = out_dir or cfg.out
    os.makedirs(out, exist_ok=True)
    artifacts: Dict[str, str] = {}

    if cfg.metrics:
        csv_path = os.path.join(out, "results.csv")
        write_csv(rows, csv_path)
        artifacts["results"] = csv_path
        artifacts.update((f"plot:{q}", path) for q, path in write_plots(rows, out).items())

    if cfg.checks:
        jsonl_path = os.path.join(out, "checks.jsonl")
        write_checks(checks, jsonl_path)
        artifacts["checks"] = jsonl_path
        bad = [c for c in checks if not c.satisfied]
        if bad:
            raise RunError(f"{len(bad)} of {len(checks)} bound checks unsatisfied; "
                           f"first: {bad[0].name} lhs={bad[0].lhs:g} rhs={bad[0].rhs:g}")
    return artifacts


def simulate(cfg: ExperimentConfig, out_dir: Optional[str] = None) -> List[str]:
    """Solve the kinetic equation at every sweep point and dump distributions.
    The output directory is created only once the setup has succeeded."""
    kernels, g0 = _setup(cfg, density=True)
    out = out_dir or cfg.out
    os.makedirs(out, exist_ok=True)
    written = []
    for eps in sorted(cfg.epsilons):
        for t in sorted(cfg.times):
            with _sweep_point(cfg, eps, [t]):
                dist = analysis.SweepPoint(kernels[eps], g0, kernels[eps].sigma_sq, t).density
            path = os.path.join(out, f"dist_{cfg.kernel.replace(':', '_')}_eps{eps:g}_t{t:g}.txt")
            save_distribution(dist, path)
            written.append(path)
    return written
