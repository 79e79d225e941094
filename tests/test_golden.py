"""Byte-for-byte contract: the shipped configs reproduce the stored outputs.

The files in tests/golden/ were written by `rosenau metrics` and
`rosenau check` on the shipped configs, and the sha256 digests below by
`rosenau simulate`; a refactor must leave them intact.  Bytes pin what was
captured, not what is true, so every golden row is also compared with an
independent closed-form oracle from conftest, which imports nothing from
rosenau.
"""

import csv
import hashlib
import json
import os

import pytest
from conftest import (ORACLE_DATA, check_rhs_oracle, l1_heat_gap_oracle, selfsim_gap_oracle,
                      selfsim_profile_oracle)

from rosenau.cli import main
from rosenau.config import load_config

HERE = os.path.dirname(__file__)
CONFIG_DIR = os.path.join(HERE, "..", "configs")
GOLDEN_DIR = os.path.join(HERE, "golden")


@pytest.mark.parametrize("command,config,output", [
    ("metrics", "minimal", "results.csv"),
    ("metrics", "decay_sweep", "results.csv"),
    ("metrics", "regularized_l1", "results.csv"),
    ("check", "decay_sweep", "checks.jsonl"),
])
def test_shipped_config_bytes(tmp_path, command, config, output):
    rc = main([command, "--config", os.path.join(CONFIG_DIR, f"{config}.cfg"),
               "--out", str(tmp_path), "--threads", "1"])
    assert rc == 0
    with open(os.path.join(GOLDEN_DIR, f"{config}.{output}"), "rb") as fh:
        assert (tmp_path / output).read_bytes() == fh.read()


SIMULATE_MINIMAL_SHA256 = {
    "dist_rosenau_eps0.1_t1.txt": "4e8d818d9f81992ed97af2e959c4c5eee87555f56ccaccae9737bf219c0e8af8",
    "dist_rosenau_eps0.1_t10.txt": "641c8bdeecf01361a23742878b38dd29b4e5e003145db181c7e62543c86466f5",
}


def test_simulate_minimal_bytes(tmp_path):
    rc = main(["simulate", "--config", os.path.join(CONFIG_DIR, "minimal.cfg"),
               "--out", str(tmp_path)])
    assert rc == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == SIMULATE_MINIMAL_SHA256


# quantity -> (oracle of (initial, family, eps, t) at sigma = 1, relative tolerance); each
# tolerance is one the goldens meet, and a later change may tighten it, never loosen it.
# Both presets have m2 = 1, so the profile's d2 limit is d0 = |1 - 2 sigma^2| / 2 = 0.5.
ROW_ORACLES = {
    "d2_gap": (lambda init, fam, eps, t: selfsim_gap_oracle(fam, eps, t, initial=init), 2e-4),
    "d2_selfsim": (lambda init, fam, eps, t: selfsim_profile_oracle(init, fam, eps, t), 1e-5),
    "d2_selfsim_heat": (lambda init, fam, eps, t: selfsim_profile_oracle(init, fam, eps, t,
                                                                         heat=True), 1e-5),
    # the rectangle rule across the kinks at +-x* costs up to 5.4e-4 near t = 2
    "l1_heat_gap": (lambda init, fam, eps, t: l1_heat_gap_oracle(t), 1e-3),
    "m2": (lambda init, fam, eps, t: 1.0 + 2.0 * t, 1e-11),
    "mass": (lambda init, fam, eps, t: 1.0, 0.0),
}
# golden quantities that no oracle covers, and why
NO_ORACLE = {
    "l1_reg_gap": "the regularized kernel is known only through its transform, so the L1 gap "
                  "has no closed form; an oracle would repeat the inverse FFT it checks",
}
CHECK_LHS = {"heat-decay": "d2_selfsim_heat", "d2-bound": "d2_selfsim"}
CHECK_RHS_RTOL = 1e-8
D0 = 0.5


def _close(value, expected, rtol):
    return abs(value - expected) <= rtol * abs(expected)


@pytest.mark.parametrize("golden", sorted(os.listdir(GOLDEN_DIR)))
def test_golden_rows_match_independent_oracles(golden):
    config, _, kind = golden.partition(".")
    cfg = load_config(os.path.join(CONFIG_DIR, f"{config}.cfg"))
    assert cfg.sigma == 1.0 and cfg.initial in ORACLE_DATA
    with open(os.path.join(GOLDEN_DIR, golden)) as fh:
        if kind == "results.csv":
            rows = list(csv.DictReader(fh))
            for r in rows:
                if r["quantity"] in NO_ORACLE:
                    continue
                oracle, rtol = ROW_ORACLES[r["quantity"]]
                expected = oracle(cfg.initial, r["kernel"], float(r["epsilon"]), float(r["t"]))
                assert _close(float(r["value"]), expected, rtol), (r, expected)
        else:
            assert kind == "checks.jsonl"
            rows = [json.loads(line) for line in fh]
            for c in rows:
                check, t = c["name"].split()[0], c["params"]["t"]
                oracle, rtol = ROW_ORACLES[CHECK_LHS[check]]
                # heat_decay carries no eps; it runs at the first one
                eps = c["params"].get("eps", cfg.epsilons[0])
                expected = oracle(cfg.initial, cfg.kernel, eps, t)
                assert _close(c["lhs"], expected, rtol), (c, expected)
                expected = check_rhs_oracle(check, cfg.kernel, c["params"], D0)
                assert _close(c["rhs"], expected, CHECK_RHS_RTOL), (c, expected)
    assert rows
