"""Byte-for-byte contract: the shipped configs reproduce the stored outputs.

The files in tests/golden/ were written by `rosenau metrics` and
`rosenau check` on the shipped configs; a refactor must leave them intact.
"""

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
