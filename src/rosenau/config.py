"""Experiment configuration: flat key = value text with [section] headers.

No nesting, no quoting rules: every meaningful line is either "[section]"
or "key = value".  Lists are whitespace-separated; times also accept the
log-spaced form "logspace <lo> <hi> <n>".  Parsing failures carry the
1-based line number.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .analysis import (CHECKS, D2_CONSTANTS, INITIAL_PRESETS, METRICS, REGULARIZED_FAMILIES,
                       REGULARIZED_METRICS)
from .errors import ConfigError, InvalidParameterError
from .kernels import CENTRAL_DIFF, CUSTOM, ROSENAU
from .spectral import GridSpec


@dataclass
class ExperimentConfig:
    kernel: str = "rosenau"
    sigma: float = 1.0
    epsilons: List[float] = field(default_factory=lambda: [0.1])
    times: List[float] = field(default_factory=lambda: [1.0, 10.0])
    initial: str = "gaussian-unit"
    metrics: List[str] = field(default_factory=list)
    checks: List[str] = field(default_factory=list)
    outputs: str = "results"
    grid_length: Optional[float] = None
    grid_points: Optional[int] = None
    # field name -> 1-based line that set it, so errors can point there; an init
    # field, so dataclasses.replace() carries it over to the copy
    lines: Dict[str, int] = field(default_factory=dict, repr=False, compare=False)

    def validate(self) -> None:
        """Reject every invalid value with a ConfigError naming its key and line."""
        def fail(key: str, message: str):
            raise ConfigError(f"{key}: {message}", self.lines.get(key))

        for key in ("sigma", "grid_length"):
            value = getattr(self, key)
            if value is not None and not (math.isfinite(value) and value > 0):
                fail(key, f"must be finite and positive, got {value!r}")
        if self.grid_points is not None:
            try:
                GridSpec(1.0, self.grid_points)
            except InvalidParameterError as exc:
                fail("grid_points", str(exc))
        for key in ("epsilons", "times"):
            values = getattr(self, key)
            if not values:
                fail(key, "list is empty")
            if not all(math.isfinite(v) and v > 0 for v in values):
                fail(key, f"values must be finite and positive, got {' '.join(map(repr, values))}")
        for key, values in (("sigma", [self.sigma]), ("epsilons", self.epsilons)):
            if not all(sys.float_info.min <= v * v < math.inf for v in values):
                fail(key, f"squares must be finite normal doubles, got {' '.join(map(repr, values))}")
        for key, known in (("metrics", METRICS), ("checks", CHECKS)):
            for name in getattr(self, key):
                if name not in known:
                    fail(key, f"unknown {key[:-1]} {name!r}; known: {', '.join(known)}")
        for key in ("epsilons", "times", "metrics", "checks"):
            values = getattr(self, key)
            if len(set(values)) != len(values):
                fail(key, f"values must be unique, got {' '.join(map(str, values))}")
        if not self.metrics and not self.checks:
            raise ConfigError("nothing to do: no metrics and no checks requested")
        family = CUSTOM if self.kernel.startswith("custom:") else self.kernel
        if family not in (ROSENAU, CENTRAL_DIFF, CUSTOM):
            fail("kernel", f"unknown kernel {self.kernel!r}")
        if "d2_bound" in self.checks and family not in D2_CONSTANTS:
            fail("checks", f"d2_bound has no constant for kernel {self.kernel!r}; "
                           f"it needs one of: {', '.join(D2_CONSTANTS)}")
        if family not in REGULARIZED_FAMILIES and (bad := set(self.metrics) & set(REGULARIZED_METRICS)):
            fail("metrics", f"{' '.join(sorted(bad))}: the regularized solution has a density only for "
                            f"kernel {', '.join(REGULARIZED_FAMILIES)}, got {self.kernel!r}")
        if self.initial.startswith("file:"):
            for key in ("grid_length", "grid_points"):
                if key in self.lines:
                    fail(key, "[grid] does not apply to file: initial data, "
                              "which runs on the file's own grid")
        elif self.initial not in INITIAL_PRESETS:
            fail("initial", f"unknown initial datum {self.initial!r}")


def _parse_times(value: str) -> List[float]:
    parts = value.split()
    if parts and parts[0] == "logspace":
        if len(parts) != 4:
            raise ValueError("logspace needs exactly: logspace <lo> <hi> <n>")
        lo, hi, n = float(parts[1]), float(parts[2]), int(parts[3])
        if lo <= 0 or hi <= lo or n < 2:
            raise ValueError("logspace needs 0 < lo < hi and n >= 2")
        return [float(x) for x in np.geomspace(lo, hi, n)]
    return [float(x) for x in parts]


def _auto(convert):
    return lambda value: None if value == "auto" else convert(value)


# section -> config key -> (field name, value parser)
_KEYS = {
    "experiment": {
        "kernel": ("kernel", str),
        "sigma": ("sigma", float),
        "epsilons": ("epsilons", lambda v: [float(x) for x in v.split()]),
        "times": ("times", _parse_times),
        "initial": ("initial", str),
        "metrics": ("metrics", str.split),
        "checks": ("checks", str.split),
        "out": ("outputs", str),
        "outputs": ("outputs", str),
    },
    "grid": {
        "l": ("grid_length", _auto(float)),
        "length": ("grid_length", _auto(float)),
        "n": ("grid_points", _auto(int)),
        "points": ("grid_points", _auto(int)),
    },
}


def parse_config(text: str, path: str = "<config>") -> ExperimentConfig:
    cfg = ExperimentConfig()
    section = "experiment"
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _KEYS:
                raise ConfigError(f"unknown section [{section}]", i)
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", i)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _KEYS[section]:
            raise ConfigError(f"unknown key {key!r} in [{section}]", i)
        name, convert = _KEYS[section][key]
        if name in cfg.lines:
            raise ConfigError(f"{key}: repeated; line {cfg.lines[name]} already sets {name}", i)
        try:
            setattr(cfg, name, convert(value.strip()))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", i)
        cfg.lines[name] = i
    if not cfg.lines:
        raise ConfigError(f"{path}: empty configuration")
    cfg.validate()
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read(), path=path)
