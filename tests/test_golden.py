"""Byte-for-byte contract: the shipped configs reproduce the stored outputs.

The files in tests/golden/ were written by `rosenau metrics` and
`rosenau check` on the shipped configs, and the sha256 digests below by
`rosenau simulate`; a refactor must leave them intact.
"""

import hashlib
import os

import pytest

from rosenau.cli import main

HERE = os.path.dirname(__file__)
CONFIG_DIR = os.path.join(HERE, "..", "configs")
GOLDEN_DIR = os.path.join(HERE, "golden")


@pytest.mark.parametrize("command,config,output", [
    ("metrics", "minimal", "results.csv"),
    ("metrics", "decay_sweep", "results.csv"),
    ("metrics", "regularized_l1", "results.csv"),
    ("check", "decay_sweep", "checks.jsonl"),
])
def test_shipped_config_bytes(tmp_path, monkeypatch, command, config, output):
    monkeypatch.delenv("ROSENAU_GRID_N", raising=False)
    rc = main([command, "--config", os.path.join(CONFIG_DIR, f"{config}.cfg"),
               "--out", str(tmp_path), "--threads", "1"])
    assert rc == 0
    with open(os.path.join(GOLDEN_DIR, f"{config}.{output}"), "rb") as fh:
        assert (tmp_path / output).read_bytes() == fh.read()


SIMULATE_MINIMAL_SHA256 = {
    "dist_rosenau_eps0.1_t1.txt": "4e8d818d9f81992ed97af2e959c4c5eee87555f56ccaccae9737bf219c0e8af8",
    "dist_rosenau_eps0.1_t10.txt": "641c8bdeecf01361a23742878b38dd29b4e5e003145db181c7e62543c86466f5",
}


def test_simulate_minimal_bytes(tmp_path, monkeypatch):
    monkeypatch.delenv("ROSENAU_GRID_N", raising=False)
    rc = main(["simulate", "--config", os.path.join(CONFIG_DIR, "minimal.cfg"),
               "--out", str(tmp_path)])
    assert rc == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == SIMULATE_MINIMAL_SHA256
