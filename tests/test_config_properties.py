"""Property tests of `rosenau metrics` and `rosenau check` on random small configs.

A valid config, over the whole range that `validate` admits, either exits 0
with only finite values in results.csv and checks.jsonl, or exits 1 naming
the failing sweep point and writes no CSV; no exception escapes `main`, and
the run is the same, byte for byte, when the datum carries no modulus and is
evaluated whole.  The same config with one key corrupted or repeated exits 2
with a config error naming that key and writes nothing.
"""

import contextlib
import csv
import io
import json
import math
import os
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosenau import analysis, runner
from rosenau.analysis import (CHECKS, INITIAL_PRESETS, METRICS, REGULARIZED_FAMILIES,
                              REGULARIZED_METRICS)
from rosenau.cli import main

from conftest import without_modulus

SETTINGS = settings(max_examples=30, deadline=None, database=None, derandomize=True)

# the ends of what config.validate admits for sigma and each eps: squares normal and finite
SQUARE_MIN, SQUARE_MAX = math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max)


def log_uniform(lo, hi):
    """Floats spread evenly in log10 over [lo, hi], clipped back into it after the power."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0 ** e, lo), hi))


@st.composite
def valid_configs(draw, wide=False):
    """key -> value text of a valid config with N = 256, at most 2 eps and 3 times; the [grid]
    keys come last.  ``wide``: sigma and eps log-uniform over what validate admits, times up to
    1e300, N from 16 to 256, and a ``checks`` line drawn too."""
    kernel = draw(st.sampled_from(["rosenau", "central-diff"]))
    sigmas, epsilons, times = st.floats(0.5, 2.0), st.floats(0.05, 1.0), st.floats(0.1, 50.0)
    if wide:
        sigmas = epsilons = st.one_of(sigmas, epsilons, log_uniform(SQUARE_MIN, SQUARE_MAX))
        times = st.one_of(times, log_uniform(1e-300, 1e300))
    floats = lambda among, n: st.lists(among, min_size=1, max_size=n, unique=True)
    config = {
        "kernel": kernel,
        "sigma": repr(draw(sigmas)),
        "epsilons": " ".join(map(repr, draw(floats(epsilons, 2)))),
        "times": " ".join(map(repr, draw(floats(times, 3)))),
        "initial": draw(st.sampled_from(sorted(INITIAL_PRESETS))),
    }
    # d3 is finite only on the datum whose m2 is the profile's 2 sigma^2
    matched = config["initial"] == "mixture-matched"
    names = [m for m in METRICS if (kernel in REGULARIZED_FAMILIES or m not in REGULARIZED_METRICS)
             and (m != "d3_selfsim" or matched)]
    config["metrics"] = " ".join(draw(st.lists(st.sampled_from(names), min_size=1, max_size=4,
                                               unique=True)))
    if wide:
        checks = draw(st.lists(st.sampled_from([c for c in CHECKS if c != "d3_bound" or matched]),
                               max_size=3, unique=True))
        if checks:
            config["checks"] = " ".join(checks)
    config["N"] = draw(st.sampled_from(["16", "64", "256"])) if wide else "256"
    return config


def repeat(key):
    """The key set again, to the same value, on the next line."""
    return lambda v: f"{v}\n{key} = {v}"


GRID_KEYS = ("L", "N")

# key -> corruptions of its value text: NaN, negative, a square that overflows, repeated,
# an unknown name, not a power of two, too few points, or the whole key repeated
CORRUPTIONS = {
    "sigma": [lambda v: "nan", lambda v: "-" + v, lambda v: "1e160", repeat("sigma")],
    "epsilons": [lambda v: v + " nan", lambda v: "-" + v, lambda v: v + " 1e160",
                 lambda v: v + " " + v.split()[0], repeat("epsilons")],
    "times": [lambda v: v + " nan", lambda v: "-" + v, lambda v: v + " " + v.split()[0],
              repeat("times")],
    "metrics": [lambda v: v + " " + v.split()[0], lambda v: v + " bogus", repeat("metrics")],
    "kernel": [lambda v: "bogus", repeat("kernel")],
    "initial": [lambda v: "bogus", repeat("initial")],
    "L": [lambda v: "inf", lambda v: "-" + v, repeat("L")],
    "N": [lambda v: "100", lambda v: "8", repeat("N")],
}


def config_lines(config):
    """The config's text, one line per entry: [experiment] keys, then [grid] and its keys."""
    return ([f"{k} = {v}" for k, v in config.items() if k not in GRID_KEYS] + ["[grid]"]
            + [f"{k} = {v}" for k, v in config.items() if k in GRID_KEYS])


def run_command(config, command="metrics"):
    """(exit code, stderr, {file name: bytes} written) of `rosenau <command>` on the config."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "sweep.cfg"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            fh.write("\n".join(config_lines(config)) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", path, "--out", out, "--threads", "1"])
        written = {}
        for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
            with open(os.path.join(out, name), "rb") as fh:
                written[name] = fh.read()
        return code, err.getvalue(), written


def run_metrics(config):
    """(exit code, stderr, files written, results.csv rows) of `rosenau metrics` on the config."""
    code, err, written = run_command(config)
    rows = list(csv.DictReader(io.StringIO(written["results.csv"].decode()))) \
        if "results.csv" in written else []
    return code, err, sorted(written), rows


@SETTINGS
@given(config=valid_configs())
def test_valid_config_writes_finite_values_or_names_the_point(config):
    code, err, written, rows = run_metrics(config)
    if code == 0:
        n = len(config["epsilons"].split()) * len(config["times"].split())
        assert len(rows) == n * len(config["metrics"].split())
        assert all(math.isfinite(float(r["value"])) and math.isfinite(float(r["argsup"]))
                   for r in rows)
    else:
        assert code == 1, err
        assert f"sweep point (kernel={config['kernel']}, eps=" in err
        assert "results.csv" not in written


@SETTINGS
@given(config=valid_configs(), data=st.data())
def test_corrupted_key_is_config_error_naming_it(config, data):
    key = data.draw(st.sampled_from(sorted(CORRUPTIONS)))
    corrupt = data.draw(st.sampled_from(CORRUPTIONS[key]))
    config = {"L": "300.0", **config} if key == "L" else config  # L is optional: set it
    config = {**config, key: corrupt(config[key])}
    code, err, written, _ = run_metrics(config)
    # a repeat errs on its own line
    line = 1 + [text.partition(" =")[0] for text in config_lines(config)].index(key) \
        + config[key].count("\n")
    assert code == 2 and f"config error: line {line}: {key}:" in err, err
    assert written == []


EAGER_DATUM = without_modulus(analysis.initial_by_name)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(config=valid_configs(wide=True))
def test_whole_envelope_exits_0_or_names_the_point_as_the_eager_datum_does(config):
    commands = ["metrics", "check"] if "checks" in config else ["metrics"]
    for command in commands:
        lazy = run_command(config, command)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(runner.analysis, "initial_by_name", EAGER_DATUM)
            assert run_command(config, command) == lazy
        code, err, written = lazy
        # a check that computes but does not hold exits 1 too, after writing every record
        unsatisfied = code == 1 and " bound checks unsatisfied; first: " in err
        if code == 0 or unsatisfied:
            if command == "metrics":
                rows = list(csv.DictReader(io.StringIO(written["results.csv"].decode())))
                assert rows and all(math.isfinite(float(r[key])) for r in rows
                                    for key in ("value", "argsup"))
            else:
                records = [json.loads(line) for line in written["checks.jsonl"].decode().splitlines()]
                assert records and all(math.isfinite(r[key]) for r in records
                                       for key in ("lhs", "rhs", "margin"))
                assert unsatisfied == (not all(r["satisfied"] for r in records))
        else:
            assert code == 1, err
            assert "sweep point (kernel=" in err, err
            assert written == {}
