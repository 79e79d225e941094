"""Property tests of `rosenau metrics` on random small configs.

A valid config either exits 0 with only finite values in results.csv, or
exits 1 naming the failing sweep point and writes no CSV.  The same config
with one key corrupted or repeated exits 2 with a config error naming that
key and writes nothing.
"""

import contextlib
import csv
import io
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from rosenau.analysis import INITIAL_PRESETS, METRICS, REGULARIZED_FAMILIES, REGULARIZED_METRICS
from rosenau.cli import main

SETTINGS = settings(max_examples=30, deadline=None, database=None, derandomize=True)


@st.composite
def valid_configs(draw):
    """key -> value text of a valid config with N = 256, at most 2 eps and 3 times."""
    kernel = draw(st.sampled_from(["rosenau", "central-diff"]))
    floats = lambda lo, hi, n: st.lists(st.floats(lo, hi), min_size=1, max_size=n, unique=True)
    config = {
        "kernel": kernel,
        "sigma": repr(draw(st.floats(0.5, 2.0))),
        "epsilons": " ".join(map(repr, draw(floats(0.05, 1.0, 2)))),
        "times": " ".join(map(repr, draw(floats(0.1, 50.0, 3)))),
        "initial": draw(st.sampled_from(sorted(INITIAL_PRESETS))),
    }
    # d3 is finite only on the datum whose m2 is the profile's 2 sigma^2
    names = [m for m in METRICS if (kernel in REGULARIZED_FAMILIES or m not in REGULARIZED_METRICS)
             and (m != "d3_selfsim" or config["initial"] == "mixture-matched")]
    config["metrics"] = " ".join(draw(st.lists(st.sampled_from(names), min_size=1, max_size=4,
                                               unique=True)))
    return config


def repeat(key):
    """The key set again, to the same value, on the next line."""
    return lambda v: f"{v}\n{key} = {v}"


# key -> corruptions of its value text: NaN, negative, a square that overflows, repeated,
# an unknown name, or the whole key repeated
CORRUPTIONS = {
    "sigma": [lambda v: "nan", lambda v: "-" + v, lambda v: "1e160", repeat("sigma")],
    "epsilons": [lambda v: v + " nan", lambda v: "-" + v, lambda v: v + " 1e160",
                 lambda v: v + " " + v.split()[0], repeat("epsilons")],
    "times": [lambda v: v + " nan", lambda v: "-" + v, lambda v: v + " " + v.split()[0],
              repeat("times")],
    "metrics": [lambda v: v + " " + v.split()[0], lambda v: v + " bogus", repeat("metrics")],
    "kernel": [lambda v: "bogus", repeat("kernel")],
    "initial": [lambda v: "bogus", repeat("initial")],
}


def run_metrics(config):
    """(exit code, stderr, files written) of `rosenau metrics` on the config."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "sweep.cfg"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            fh.write("".join(f"{k} = {v}\n" for k, v in config.items()) + "[grid]\nN = 256\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["metrics", "--config", path, "--out", out, "--threads", "1"])
        written = sorted(os.listdir(out)) if os.path.isdir(out) else []
        rows = []
        if "results.csv" in written:
            with open(os.path.join(out, "results.csv")) as fh:
                rows = list(csv.DictReader(fh))
        return code, err.getvalue(), written, rows


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
    config = {**config, key: corrupt(config[key])}
    code, err, written, _ = run_metrics(config)
    line = list(config).index(key) + 1 + config[key].count("\n")  # a repeat errs on its own line
    assert code == 2 and f"config error: line {line}: {key}:" in err, err
    assert written == []
