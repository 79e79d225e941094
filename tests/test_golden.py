"""Byte-for-byte contract: the shipped configs reproduce the stored outputs.

The files in tests/golden/ were written by `rosenau metrics` and
`rosenau check` on the shipped configs and by `rosenau appendix` with its
defaults, and the sha256 digests below by `rosenau simulate`; a refactor
must leave them intact.  Bytes pin what was captured, not what is true, so
every golden row of a sweep is also compared with an
independent closed-form oracle from conftest, which imports nothing from
rosenau; the one quantity without a closed form is compared with its own
sweep on a refined grid instead, a convergence check.
"""

import csv
import dataclasses
import hashlib
import json
import os

import pytest
from conftest import (ORACLE_DATA, check_rhs_oracle, l1_heat_gap_oracle, selfsim_gap_oracle,
                      selfsim_profile_oracle)

from rosenau.cli import main
from rosenau.config import load_config
from rosenau.runner import compute_rows

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


def test_appendix_default_table_bytes(capsys):
    # the growth table that `rosenau appendix` prints with its default values
    assert main(["appendix"]) == 0
    with open(os.path.join(GOLDEN_DIR, "appendix.stdout"), "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()


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
# A convergence check, not an identity: the regularized kernel is known only through its
# transform, so the L1 gap has no closed form.  Its golden rows are compared with the same
# sweep at 2L and 4N, which halves dv; at 2L and 2N (the same dv) they agree to 7.3e-13,
# so dv alone sets the error.  Measured: within 6.7e-4 on all 9 rows.
REFINED_RTOL = {"l1_reg_gap": 1e-3}


def _refined_rows(cfg, rows):
    """value of each (quantity, eps, t) of REFINED_RTOL on the golden grid refined to 2L, 4N"""
    grid_l, grid_n = float(rows[0]["grid_L"]), int(rows[0]["grid_N"])
    fine = dataclasses.replace(cfg, metrics=sorted(REFINED_RTOL), checks=[],
                               L=2.0 * grid_l, N=4 * grid_n)
    return {(r.quantity, r.epsilon, r.t): r.value for r in compute_rows(fine, threads=1)}

CHECK_LHS = {"heat-decay": "d2_selfsim_heat", "d2-bound": "d2_selfsim"}
CHECK_RHS_RTOL = 1e-8
D0 = 0.5


def _close(value, expected, rtol):
    return abs(value - expected) <= rtol * abs(expected)


# the sweep goldens; the appendix table's quadrature is checked against a refined one
# in test_acceptance
@pytest.mark.parametrize("golden", sorted(f for f in os.listdir(GOLDEN_DIR)
                                          if f.endswith((".results.csv", ".checks.jsonl"))))
def test_golden_rows_match_independent_oracles(golden):
    config, _, kind = golden.partition(".")
    cfg = load_config(os.path.join(CONFIG_DIR, f"{config}.cfg"))
    assert cfg.sigma == 1.0 and cfg.initial in ORACLE_DATA
    with open(os.path.join(GOLDEN_DIR, golden)) as fh:
        if kind == "results.csv":
            rows = list(csv.DictReader(fh))
            refined = (_refined_rows(cfg, rows)
                       if any(r["quantity"] in REFINED_RTOL for r in rows) else {})
            for r in rows:
                eps, t = float(r["epsilon"]), float(r["t"])
                if r["quantity"] in REFINED_RTOL:
                    expected, rtol = refined[r["quantity"], eps, t], REFINED_RTOL[r["quantity"]]
                else:
                    oracle, rtol = ROW_ORACLES[r["quantity"]]
                    expected = oracle(cfg.initial, r["kernel"], eps, t)
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
