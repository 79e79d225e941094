"""Span tracer that times rosenau's layers from outside the package.

``install`` wraps the public functions at each module boundary of
``src/rosenau``.  ``runner`` and ``analysis`` bind names at import
(``from .spectral import rosenau_propagate``), so every wrapper replaces the
original object in every ``rosenau`` namespace that holds it, not only in
its defining module.

A span records its name, start, end, parent span and run id.  Spans are kept
in memory and written once, at the end of the process.  A layer's self time
is the duration of its spans minus the part of each span that its child
spans cover.  Child spans opened on a pool thread with no open span of their
own take the innermost open span of the main thread as parent, so the
sweep's thread pool does not count as self time of the span waiting on it;
self times on two threads can therefore sum to more than the wall time.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

# spectral.fft_bytes is computed, not measured: one complex128 array of N
# values (16 B each) per transform.
COMPLEX_BYTES = 16

# span name -> per-layer metric holding its self time
SPAN_METRICS = {
    "config.parse": "config.parse_s",
    "kernels.build": "kernels.build_s",
    "kernels.symbol": "kernels.symbol_s",
    "kernels.moment": "kernels.moment_s",
    "spectral.propagate": "spectral.propagate_s",
    "spectral.dilate": "spectral.dilate_s",
    "spectral.inverse": "spectral.inverse_s",
    "analysis.initial": "analysis.initial_s",
    "analysis.checks": "analysis.checks_s",
    "analysis.appendix": "analysis.appendix_s",
    "metrics.ds": "metrics.ds_s",
    "metrics.moment": "metrics.moment_s",
    "metrics.functional": "metrics.functional_s",
    "wild.solution": "wild.solution_s",
    "wild.atoms": "wild.atoms_s",
    "runner.rows": "runner.rows_s",
    "runner.checks": "runner.checks_s",
    "runner.write": "runner.write_s",
    "svg.plot": "svg.plot_s",
}

# exact work counts; they must repeat across runs of one seed
COUNT_METRICS = (
    "kernels.symbol_elems",
    "spectral.propagate_calls",
    "spectral.dilate_calls",
    "spectral.inverse_calls",
    "spectral.xi_builds",
    "spectral.fft_bytes",
    "analysis.initial_evals",
    "analysis.rescale_calls",
    "metrics.ds_calls",
    "wild.terms",
    "wild.atoms_out",
    "runner.bytes_out",
)


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: List[int] = []

    def _stack(self) -> List[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += int(n)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = (self._main_stack[-1:] or [0])[0]
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def dump(self, path: str) -> None:
        """Write every span and count once; called at the end of the process."""
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "counts": dict(self.counts),
                       "spans": self.spans}, fh)


def _union_length(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> Dict[str, float]:
    """Self time per span name: duration minus the union of child spans."""
    children = defaultdict(list)
    for sid, parent, _name, start, end in spans:
        children[parent].append((start, end))
    out: Dict[str, float] = defaultdict(float)
    for sid, _parent, name, start, end in spans:
        out[name] += (end - start) - _union_length(children.get(sid, []), start, end)
    return dict(out)


def layer_metrics(dumps) -> Dict[str, float]:
    """Per-layer metrics of one pass from the span dumps of its processes."""
    selfs: Dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    for d in dumps:
        for name, value in self_times(d["spans"]).items():
            selfs[name] += value
        counts.update(d["counts"])
    out = {metric: selfs.get(name, 0.0) for name, metric in SPAN_METRICS.items()}
    for key in COUNT_METRICS:
        out[key] = counts.get(key, 0)
    calls = counts.get("metrics.ds_calls", 0)
    out["metrics.ds_limit_share"] = counts.get("metrics.ds_limit", 0) / calls if calls else 0.0
    return out


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------

def _replace_everywhere(orig, new) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "rosenau" or mod_name.startswith("rosenau.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)


def _wrap(tracer: Tracer, module, name: str, span: str = None,
          after: Callable = None, result: Callable = None) -> None:
    """Replace module.name everywhere by a wrapper that opens ``span`` (if
    given), then calls ``after(result, *args)`` for counting and returns
    ``result(value)`` when a result transform is given."""
    orig = getattr(module, name)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if span is None:
            value = orig(*args, **kwargs)
        else:
            value = tracer.call(span, orig, *args, **kwargs)
        if after is not None:
            after(value, *args, **kwargs)
        return result(value) if result is not None else value

    _replace_everywhere(orig, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the module boundaries of the imported rosenau package."""
    import numpy as np
    from rosenau import analysis, config, kernels, metrics, runner, spectral, svg, wild

    count = tracer.count

    def counted_field(field):
        # the same field, with an initial-datum closure that counts and times every call
        base = field.analytic

        def analytic(xi):
            count("analysis.initial_evals")
            return tracer.call("analysis.initial", base, xi)

        return spectral.SpectralField(grid=field.grid, values=field.values, analytic=analytic)

    def traced_kernel(kernel):
        def sym(fn):
            def evaluate(xi):
                count("kernels.symbol_elems", np.size(xi))
                return tracer.call("kernels.symbol", fn, xi)
            return evaluate

        return dataclasses.replace(kernel, symbol=sym(kernel.symbol),
                                   one_minus_symbol=sym(kernel.one_minus_symbol))

    def ds_after(report, *args, **kwargs):
        count("metrics.ds_calls")
        if report.argsup == 0.0:
            count("metrics.ds_limit")

    _wrap(tracer, config, "parse_config", "config.parse")

    for name in ("rosenau_kernel", "bernoulli_kernel", "tabulated_kernel"):
        _wrap(tracer, kernels, name, "kernels.build", result=traced_kernel)
    for name in ("kernel_moment", "b_epsilon"):
        _wrap(tracer, kernels, name, "kernels.moment")

    for name in ("rosenau_propagate", "heat_propagate", "regularized_solution",
                 "regularized_propagator", "singular_split"):
        _wrap(tracer, spectral, name, "spectral.propagate",
              after=lambda *a, **k: count("spectral.propagate_calls"))
    _wrap(tracer, spectral, "dilate", "spectral.dilate",
          after=lambda *a, **k: count("spectral.dilate_calls"))

    def inverse_after(dist, field, *args, **kwargs):
        count("spectral.inverse_calls")
        count("spectral.fft_bytes", COMPLEX_BYTES * field.grid.points)

    _wrap(tracer, spectral, "inverse_transform", "spectral.inverse", after=inverse_after)
    _wrap(tracer, spectral, "forward_transform",
          after=lambda field, dist: count("spectral.fft_bytes", COMPLEX_BYTES * dist.grid.points))
    xi = spectral.GridSpec.xi

    def xi_counted(self):
        count("spectral.xi_builds")
        return xi(self)

    spectral.GridSpec.xi = xi_counted

    _wrap(tracer, analysis, "initial_by_name", "analysis.initial",
          result=counted_field)
    _wrap(tracer, analysis, "rescale", after=lambda *a, **k: count("analysis.rescale_calls"))
    for name in ("exact_decay_check", "d2_bound_check", "d3_bound_check"):
        _wrap(tracer, analysis, name, "analysis.checks")
    _wrap(tracer, analysis, "appendix_report", "analysis.appendix")

    _wrap(tracer, metrics, "ds_distance", "metrics.ds", after=ds_after)
    _wrap(tracer, metrics, "moment", "metrics.moment")
    _wrap(tracer, metrics, "convex_functional", "metrics.functional")

    _wrap(tracer, wild, "wild_solution", "wild.solution")
    _wrap(tracer, wild, "cd_wild_solution", "wild.atoms",
          after=lambda d, *a, **k: count("wild.atoms_out", len(d.atoms)))
    _wrap(tracer, wild, "truncation_order", after=lambda n, *a, **k: count("wild.terms", n))

    for name in ("compute_rows", "_point_rows"):
        _wrap(tracer, runner, name, "runner.rows")
    _wrap(tracer, runner, "compute_checks", "runner.checks")
    for name in ("run", "simulate"):
        # their own time is the SVG and directory writing around the sweep
        _wrap(tracer, runner, name, "runner.write")
    for module, name in ((runner, "write_csv"), (runner, "write_checks"),
                         (spectral, "save_distribution")):
        _wrap(tracer, module, name, "runner.write",
              after=lambda _r, _data, path, *a, **k: count("runner.bytes_out", os.path.getsize(path)))
    _wrap(tracer, svg, "plot_rows", "svg.plot",
          after=lambda text, *a, **k: count("runner.bytes_out", len(text.encode())))
