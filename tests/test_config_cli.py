import concurrent.futures
import dataclasses
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from rosenau.cli import main
from rosenau.config import ExperimentConfig, load_config, parse_config
from rosenau.errors import ConfigError
from rosenau.kernels import kernel_by_name
from rosenau import analysis, metrics, runner, spectral
from rosenau.analysis import d2_bound_check, d3_bound_check, exact_decay_check
from rosenau.runner import CSV_HEADER, RunError, compute_checks, compute_rows, run
from rosenau.spectral import load_distribution

from conftest import write_atoms

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")
PERFBENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# results CSVs that `plot` and `rates` both reject, and the end of the error each gives
BAD_CSVS = [
    (None, "No such file or directory"),
    ("kernel,epsilon,t,value\nrosenau,0.1,1,0.5\n",
     "not a results CSV, no column quantity argsup grid_L grid_N"),
    (CSV_HEADER + "\nrosenau,0.1,1,mass,abc,0,40,4096\n",
     "line 2: could not convert string to float: 'abc'"),
    (CSV_HEADER + "\nrosenau,0.1,1,mass,1,0,40,100\n",
     "line 2: grid points must be a power of two"),
    (CSV_HEADER + "\nrosenau,0.1,1,d2_selfsim,inf,0,40,4096\n",
     "line 2: value must be finite, got inf"),
    (CSV_HEADER + "\nrosenau,nan,1,d2_selfsim,0.5,0,40,4096\n",
     "line 2: epsilon must be finite, got nan"),
]
BAD_CSV_IDS = ["missing", "columns", "value", "grid_N", "value-inf", "epsilon-nan"]


class TestConfigParsing:
    def test_minimal_shipped_config(self):
        cfg = load_config(os.path.join(CONFIG_DIR, "minimal.cfg"))
        assert cfg.kernel == "rosenau"
        assert cfg.epsilons == [0.1]
        assert cfg.times == [1.0, 10.0]
        assert cfg.metrics == ["d2_selfsim"]

    def test_logspace_times(self):
        cfg = parse_config("times = logspace 1 100 5\nmetrics = mass\n")
        assert len(cfg.times) == 5
        assert cfg.times[0] == pytest.approx(1.0)
        assert cfg.times[-1] == pytest.approx(100.0)

    def test_unknown_key_reports_line_number(self):
        text = "kernel = rosenau\nmetrics = mass\nwavelength = 3\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line == 3

    @pytest.mark.parametrize("first,again,message", [
        ("times = 1 2", "times = 3", "times: repeated; line 2 already sets times"),
        # each key has one spelling: the long forms are unknown keys
        ("out = a", "outputs = b", "unknown key 'outputs' in [experiment]"),
        ("[grid]\nN = 256", "points = 512", "unknown key 'points' in [grid]"),
        ("[grid]\nN = 256", "N = 512", "N: repeated; line 3 already sets N"),
    ], ids=["same-key", "out-outputs", "N-points", "grid-key"])
    def test_repeated_key_names_both_lines(self, first, again, message):
        text = f"metrics = mass\n{first}\n{again}\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        line = text.count("\n")
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("metrics = wasserstein\n")

    def test_empty_lists_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("metrics = mass\nepsilons =\n")

    def test_comments_and_sections(self):
        text = "# header\n[experiment]\nkernel = central-diff  # inline\nmetrics = mass\n[grid]\nN = 2048\n"
        cfg = parse_config(text)
        assert cfg.kernel == "central-diff"
        assert cfg.N == 2048

    @pytest.mark.parametrize("line,key", [
        ("times = 1 inf", "times"),
        ("epsilons = nan", "epsilons"),
        ("sigma = -1", "sigma"),
        ("sigma = nan", "sigma"),
        ("times = 1 1", "times"),
        ("epsilons = 0.1 0.1", "epsilons"),
        ("[grid]\nL = inf", "L:"),
        ("[grid]\nN = 100", "N:"),
        ("[grid]\nN = 8", "N:"),
        ("[grid]\nN = auto", "N: bad value"),
        ("epsilons = 1e-170", "epsilons"),
        ("kernel = gaussian", "kernel: unknown kernel 'gaussian'"),
        ("initial = uniform", "initial: unknown initial datum 'uniform'"),
        ("times = logspace 1 10", "times: bad value: logspace needs exactly"),
        ("times = logspace 10 1 5", "times: bad value: logspace needs 0 < lo < hi"),
        ("[output]", "unknown section [output]"),
        ("kernel rosenau", "expected key = value, got 'kernel rosenau'"),
    ])
    def test_invalid_value_is_config_error(self, tmp_path, capsys, line, key):
        text = f"metrics = mass\n{line}\n"
        bad_line = text.count("\n")  # the offending key is on the last line
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line == bad_line and key in str(err.value)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main(["metrics", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert f"line {bad_line}" in capsys.readouterr().err

    def test_empty_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing but a comment\n\n")
        with pytest.raises(ConfigError, match="empty configuration"):
            load_config(str(path))
        assert main(["metrics", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {path}: empty configuration" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sigma_scales_custom_kernel(self, tmp_path):
        table = write_atoms(tmp_path / "atoms.txt", [(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)])
        cfg = tmp_path / "custom.cfg"
        cfg.write_text(f"kernel = custom:{table}\nsigma = 2\nepsilons = 0.1\n"
                       "times = 1\nmetrics = m2\n")
        parsed = load_config(str(cfg))
        kernel = kernel_by_name(parsed.kernel, 0.1, parsed.sigma)
        assert kernel.atoms == ((-0.2, 0.25), (0.0, 0.5), (0.2, 0.25))
        assert kernel.sigma_sq == pytest.approx(4.0, rel=1e-15)
        assert main(["metrics", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        # m2 of the solution from the unit Gaussian: 1 + 2 sigma^2 t
        m2 = float((tmp_path / "out" / "results.csv").read_text().splitlines()[1].split(",")[4])
        assert m2 == pytest.approx(9.0, rel=1e-9)

    def test_d2_bound_with_custom_kernel_exit_2(self, tmp_path, capsys):
        table = write_atoms(tmp_path / "atoms.txt", [(-1.0, 0.5), (1.0, 0.5)])
        text = f"kernel = custom:{table}\nepsilons = 0.1\ntimes = 1\nchecks = d2_bound\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line == 4 and "rosenau" in str(err.value)
        cfg = tmp_path / "custom.cfg"
        cfg.write_text(text)
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "line 4" in err and "checks" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("metric", ["l1_reg_gap", "entropy_reg"])
    @pytest.mark.parametrize("kernel", ["central-diff", "custom"])
    def test_regularized_metric_needs_rosenau_exit_2(self, tmp_path, capsys, kernel, metric):
        # an atomic kernel's regularized solution keeps lattice atoms, so it has no density
        if kernel == "custom":
            kernel = "custom:" + write_atoms(tmp_path / "atoms.txt", [(-1.0, 0.5), (1.0, 0.5)])
        text = f"kernel = {kernel}\nepsilons = 0.1\ntimes = 1\nmetrics = mass {metric}\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line == 4 and metric in str(err.value) and "rosenau" in str(err.value)
        cfg = tmp_path / "reg.cfg"
        cfg.write_text(text)
        assert main(["metrics", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "line 4" in err and "metrics" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,name", [("checks", "d3_bound"), ("metrics", "d3_selfsim")])
    def test_d3_on_mismatched_m2_rejected_at_parse(self, key, name):
        # every kernel's diffusivity is sigma^2, so the preset's m2 is checked against
        # 2 sigma^2 before any kernel is built: gaussian-unit has m2 = 1, the profile 2
        text = f"initial = gaussian-unit\n{key} = {name}\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        msg = str(err.value)
        assert err.value.line == 2 and msg.startswith(f"line 2: {key}: {name} diverges")
        assert "m2 = 1" in msg
        # at sigma^2 = 1/2 the profile's m2 is 1 within an ulp, for every family
        for kernel in ("rosenau", "central-diff"):
            parse_config(f"kernel = {kernel}\nsigma = {math.sqrt(0.5)!r}\n{text}")

    def test_grid_section_with_file_initial_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("metrics = mass\ninitial = file:dist.txt\n[grid]\nN = 1024\n")
        assert err.value.line == 4


class TestRunner:
    def test_row_count_and_header(self, tmp_path):
        cfg = load_config(os.path.join(CONFIG_DIR, "minimal.cfg"))
        out = run(cfg, out_dir=str(tmp_path))
        lines = Path(out["results"]).read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(cfg.epsilons) * len(cfg.times) * len(cfg.metrics)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = load_config(os.path.join(CONFIG_DIR, "minimal.cfg"))
        a = run(cfg, out_dir=str(tmp_path / "a"))
        b = run(cfg, out_dir=str(tmp_path / "b"))
        assert sha256(a["results"]) == sha256(b["results"])

    def test_threaded_matches_serial(self, monkeypatch):
        cfg = ExperimentConfig(kernel="rosenau", epsilons=[0.2, 0.1],
                               times=[1.0, 5.0, 2.0], metrics=["d2_selfsim", "d2_selfsim_heat",
                                                                "l1_heat_gap", "mass"])
        serial = [r.csv() for r in compute_rows(cfg, threads=1)]
        started = []

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        # the runner imports the pool when it starts one
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        for threads in (2, 4, 64):
            assert [r.csv() for r in compute_rows(cfg, threads=threads)] == serial
        # the pool maps over times: never more workers than the config has times
        assert started == [2, 3, 3]

    def test_layout_built_once_under_pool(self, monkeypatch):
        # slow frequency grids keep the pool threads in step, so every thread reaches
        # the d_s layout and half-frame caches at once; each key is still built once
        xi = runner.GridSpec.xi

        def slow_xi(grid):
            time.sleep(0.01)
            return xi(grid)

        monkeypatch.setattr(runner.GridSpec, "xi", slow_xi)
        cfg = ExperimentConfig(kernel="central-diff", epsilons=[0.2], times=[1.0, 2.0, 3.0, 4.0],
                               metrics=["d2_selfsim", "d3_selfsim"], initial="mixture-matched",
                               N=256)
        metrics._ds_layout.cache_clear()
        metrics._half_frame.cache_clear()
        rows = compute_rows(cfg, threads=4)
        assert len(rows) == 8 and metrics._ds_layout.cache_info().misses == 2
        # the half-line xi and the profile: once per (grid, sigma^2), not once per thread
        assert metrics._half_frame.cache_info().misses == 1

    def test_live_span_found_once_under_pool(self, monkeypatch):
        # an L1 sweep's pool threads propagate the g0 they share: its live span (strict
        # on this grid) is found once, under functools.cached_property's lock (Python
        # <= 3.11), every thread multiplies on that one slice, and the pooled rows have
        # the serial rows' bits
        cfg = ExperimentConfig(kernel="rosenau", epsilons=[0.2, 0.1], times=[1.0, 2.2, 4.6, 10.0],
                               metrics=["l1_reg_gap", "l1_heat_gap", "mass", "m2", "m4",
                                        "entropy_reg"], L=300.0, N=4096)
        serial = [r.csv() for r in compute_rows(cfg, threads=1)]
        live, multiply_live = spectral._live, spectral._multiply_live
        found, read = [], set()

        def slow_live(values):
            time.sleep(0.05)  # the other threads reach the span while it is being found
            found.append(live(values))
            return found[-1]

        def traced_multiply_live(values, nodes, span, mult_fn):
            read.add((threading.get_ident(), span.start, span.stop))
            return multiply_live(values, nodes, span, mult_fn)

        monkeypatch.setattr(spectral, "_live", slow_live)
        monkeypatch.setattr(spectral, "_multiply_live", traced_multiply_live)
        assert [r.csv() for r in compute_rows(cfg, threads=4)] == serial
        assert len(found) == 1 and 0 < found[0].start < found[0].stop < cfg.N
        assert {(start, stop) for _, start, stop in read} == {(found[0].start, found[0].stop)}
        assert len({thread for thread, _, _ in read}) > 1

    def test_checks_read_one_datum_at_t0(self, monkeypatch):
        # every check's d0 is its metric at t = 0, read off one t = 0 memo: the walk
        # evaluates the datum once per time and once more at t = 0, for five d0 values
        cfg = load_config(os.path.join(CONFIG_DIR, "decay_sweep.cfg"))
        evals = []
        initial = runner.analysis.initial_by_name

        def counted(*args):
            g0 = initial(*args)
            return spectral.SpectralField(g0.grid, g0.values, lambda xi: evals.append(
                np.size(xi)) or g0.analytic(xi))

        monkeypatch.setattr(runner.analysis, "initial_by_name", counted)
        checks = compute_checks(cfg)
        assert len(checks) == (len(cfg.epsilons) + 1) * len(cfg.times)
        assert len(evals) == len(cfg.times) + 1

    def test_fits_run_only_where_the_limit_can_win(self, monkeypatch):
        # decay_sweep's d2_gap sup sits on the grid, and twice the raw inner sup stays below
        # it, so those rows skip both np.polyfit fits; its d2_selfsim rows take the xi -> 0
        # limit, which needs both fits, each once
        cfg = load_config(os.path.join(CONFIG_DIR, "decay_sweep.cfg"))
        fits = []
        polyfit = np.polyfit
        monkeypatch.setattr(np, "polyfit", lambda *a, **k: fits.append(1) or polyfit(*a, **k))
        for metric, per_row in (("d2_gap", 0), ("d2_selfsim", 2)):
            fits.clear()
            rows = compute_rows(dataclasses.replace(cfg, metrics=[metric]), threads=1)
            assert len(rows) == len(cfg.epsilons) * len(cfg.times)
            assert len(fits) == per_row * len(rows)
            assert all((r.argsup == 0.0) == (metric == "d2_selfsim") for r in rows)

    def test_check_lhs_is_the_metric_row(self):
        cfg = load_config(os.path.join(CONFIG_DIR, "decay_sweep.cfg"))
        rows = {(r.epsilon, r.t, r.quantity): r.value for r in compute_rows(cfg, threads=1)}
        checks = compute_checks(cfg)
        assert len(checks) == (len(cfg.epsilons) + 1) * len(cfg.times)
        for c in checks:
            if c.name.startswith("d2-bound"):
                assert c.lhs == rows[c.params["eps"], c.params["t"], "d2_selfsim"]
            else:
                assert c.name.startswith("heat-decay")
                assert c.lhs == rows[cfg.epsilons[0], c.params["t"], "d2_selfsim_heat"]
        # the public entry points give the same checks as the sweep
        kernels, g0 = runner._setup(cfg)
        public = [c for eps in sorted(cfg.epsilons)
                  for c in d2_bound_check(kernels[eps], g0, sorted(cfg.times))]
        public += exact_decay_check(g0, kernels[0.5].sigma_sq, sorted(cfg.times))
        assert public == checks

    def test_run_reads_check_lhs_off_the_metric_rows(self, tmp_path, monkeypatch):
        # with both lists the checks take their lhs from the rows run() just wrote, so
        # the sweep is walked once: the only extra d_s calls are the checks' own
        cfg = load_config(os.path.join(CONFIG_DIR, "decay_sweep.cfg"))
        calls = []
        ds = runner.analysis.ds_distance
        monkeypatch.setattr(runner.analysis, "ds_distance",
                            lambda *args: calls.append(args) or ds(*args))

        def count(fn, *args, **kwargs):
            calls.clear()
            fn(*args, **kwargs)
            return len(calls)

        lhs = sorted({runner.analysis.CHECKS[n][0] for n in cfg.checks})
        n_rows = count(compute_rows, cfg, threads=1)
        n_lhs = count(compute_rows, dataclasses.replace(cfg, metrics=lhs, checks=[]), threads=1)
        n_checks = count(compute_checks, cfg)
        n_run = count(run, cfg, out_dir=str(tmp_path), threads=1)
        assert n_lhs > 0 and n_run == n_rows + n_checks - n_lhs
        golden = Path(os.path.dirname(__file__), "golden")
        for name in ("checks.jsonl", "results.csv"):
            assert (tmp_path / name).read_bytes() == (golden / f"decay_sweep.{name}").read_bytes()
        assert sorted(p.name for p in tmp_path.glob("*.svg")) == \
            sorted(f"{q}.svg" for q in cfg.metrics)

    def test_check_lhs_outside_the_metrics_is_not_written(self, tmp_path):
        # the walk computes d2_selfsim for d2_bound, but the rows and plots hold d2_gap only
        cfg = dataclasses.replace(load_config(os.path.join(CONFIG_DIR, "decay_sweep.cfg")),
                                  metrics=["d2_gap"], checks=["d2_bound"])
        out = run(cfg, out_dir=str(tmp_path), threads=1)
        assert sorted(out) == ["checks", "plot:d2_gap", "results"]
        rows = Path(out["results"]).read_text().splitlines()[1:]
        assert len(rows) == len(cfg.epsilons) * len(cfg.times)
        assert {line.split(",")[3] for line in rows} == {"d2_gap"}
        assert [p.name for p in tmp_path.glob("*.svg")] == ["d2_gap.svg"]
        runner.write_checks(compute_checks(cfg), str(tmp_path / "alone.jsonl"))
        assert Path(out["checks"]).read_bytes() == (tmp_path / "alone.jsonl").read_bytes()

    @pytest.mark.parametrize("view", [compute_rows, compute_checks])
    def test_views_keep_the_config_lines(self, tmp_path, view):
        # both run on a copy of the config with one list cleared; its errors cite the lines
        cfg = parse_config(f"metrics = mass\nkernel = custom:{tmp_path / 'missing.txt'}\n")
        with pytest.raises(ConfigError) as err:
            view(cfg)
        assert err.value.line == 2 and "kernel" in str(err.value)

    @pytest.mark.parametrize("entry", ["run", "run-checks-only", "compute_rows",
                                       "compute_checks", "simulate"])
    def test_one_setup_per_call(self, tmp_path, monkeypatch, entry):
        # one setup builds the kernels, the grid and the initial datum that
        # every metric row and every check of the call shares
        cfg = load_config(os.path.join(CONFIG_DIR, "decay_sweep.cfg"))
        calls = []
        initial = runner.analysis.initial_by_name
        monkeypatch.setattr(runner.analysis, "initial_by_name",
                            lambda *args: calls.append(args) or initial(*args))
        {
            "run": lambda: run(cfg, out_dir=str(tmp_path), threads=1),
            "run-checks-only": lambda: run(dataclasses.replace(cfg, metrics=[]),
                                           out_dir=str(tmp_path), threads=1),
            "compute_rows": lambda: compute_rows(cfg, threads=1),
            "compute_checks": lambda: compute_checks(cfg),
            "simulate": lambda: runner.simulate(dataclasses.replace(cfg, times=[1.0]),
                                                out_dir=str(tmp_path)),
        }[entry]()
        assert len(calls) == 1

    @pytest.mark.parametrize("kernel", ["central-diff", "rosenau"])
    def test_d3_check_lhs_is_the_metric_row(self, kernel):
        cfg = load_config(os.path.join(CONFIG_DIR, "decay_sweep.cfg"))
        cfg = dataclasses.replace(cfg, kernel=kernel, initial="mixture-matched",
                                  metrics=["d3_selfsim"], checks=["d3_bound"])
        rows = {(r.epsilon, r.t): r.value for r in compute_rows(cfg, threads=1)}
        checks = compute_checks(cfg)
        assert len(checks) == len(rows) == len(cfg.epsilons) * len(cfg.times)
        assert all(c.lhs == rows[c.params["eps"], c.params["t"]] for c in checks)
        kernels, g0 = runner._setup(cfg)
        assert checks == [c for eps in sorted(cfg.epsilons)
                          for c in d3_bound_check(kernels[eps], g0, sorted(cfg.times))]

    def test_checks_jsonl_schema(self, tmp_path):
        cfg = ExperimentConfig(kernel="rosenau", epsilons=[0.2], times=[1.0, 10.0],
                               metrics=[], checks=["heat_decay", "d2_bound"],
                               initial="mixture-unit")
        out = run(cfg, out_dir=str(tmp_path))
        records = [json.loads(line) for line in Path(out["checks"]).read_text().splitlines()]
        assert records
        for rec in records:
            assert set(rec) == {"name", "lhs", "rhs", "margin", "satisfied", "params"}
            assert rec["satisfied"] is True

    def test_numerical_failure_names_sweep_point(self, tmp_path):
        cfg = ExperimentConfig(kernel="rosenau", epsilons=[0.2], times=[50.0],
                               metrics=["m2"], L=20.0, N=256)
        with pytest.raises(RunError) as err:
            compute_rows(cfg)
        msg = str(err.value)
        assert "eps=0.2" in msg and "t=50" in msg


class TestCli:
    def test_metrics_subcommand(self, tmp_path, capsys):
        rc = main(["metrics", "--config", os.path.join(CONFIG_DIR, "minimal.cfg"),
                   "--out", str(tmp_path)])
        assert rc == 0
        assert os.path.exists(tmp_path / "results.csv")
        assert os.path.exists(tmp_path / "d2_selfsim.svg")

    def test_check_subcommand_exit_zero(self, tmp_path):
        rc = main(["check", "--config", os.path.join(CONFIG_DIR, "decay_sweep.cfg"),
                   "--out", str(tmp_path), "--threads", "1"])
        assert rc == 0
        records = [json.loads(l) for l in (tmp_path / "checks.jsonl").read_text().splitlines()]
        assert all(r["satisfied"] for r in records)

    def test_check_unsatisfied_exit_1(self, tmp_path, capsys, monkeypatch):
        # a negative slack fails every check; the records are written all the same
        monkeypatch.setattr(analysis, "BOUND_SLACK", -1.0)
        assert main(["check", "--config", os.path.join(CONFIG_DIR, "decay_sweep.cfg"),
                     "--out", str(tmp_path)]) == 1
        assert ("numerical failure: 35 of 35 bound checks unsatisfied; "
                "first: d2-bound central-diff eps=0.05 t=0.5") in capsys.readouterr().err
        records = [json.loads(l) for l in (tmp_path / "checks.jsonl").read_text().splitlines()]
        assert len(records) == 35 and not any(r["satisfied"] for r in records)

    def test_simulate_writes_loadable_distributions(self, tmp_path):
        rc = main(["simulate", "--config", os.path.join(CONFIG_DIR, "minimal.cfg"),
                   "--out", str(tmp_path)])
        assert rc == 0
        files = sorted(p for p in os.listdir(tmp_path) if p.startswith("dist_"))
        assert len(files) == 2
        d = load_distribution(str(tmp_path / files[0]))
        assert d.total_mass == pytest.approx(1.0, abs=1e-10)

    def test_rates_heat_selfsim_near_minus_one(self, tmp_path, capsys):
        cfg_text = (
            "kernel = rosenau\nepsilons = 0.1\ntimes = logspace 1 100 13\n"
            "initial = mixture-unit\nmetrics = d2_selfsim_heat\n"
        )
        cfg_path = tmp_path / "rates.cfg"
        cfg_path.write_text(cfg_text)
        assert main(["metrics", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        rc = main(["rates", "--csv", str(tmp_path / "results.csv"), "--quantity", "d2_selfsim_heat"])
        assert rc == 0
        line = capsys.readouterr().out.strip()
        exponent = float(line.split("exponent")[1].split()[0])
        assert exponent == pytest.approx(-1.0, abs=0.1)

    def test_readme_cli_block_runs(self, tmp_path, monkeypatch):
        # every line of the README's CLI block, in order from the repository root, with out/
        # in tmp_path; the block shows each subcommand
        root = Path(__file__).resolve().parent.parent
        section = (root / "README.md").read_text().split("\n## CLI\n", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line, comments=True) for line in block.splitlines()]
        assert all(argv[0] == "rosenau" for argv in commands)
        assert {argv[1] for argv in commands} == {"simulate", "metrics", "check", "rates",
                                                  "appendix", "plot"}
        monkeypatch.chdir(root)
        for argv in commands:
            argv = [str(tmp_path / a[4:]) if a.startswith("out/") else a for a in argv[1:]]
            assert main(argv) == 0, argv

    def test_appendix_table_monotone(self, capsys):
        rc = main(["appendix", "--s", "0.9", "--tmax", "1000", "--points", "7"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        ratios = [float(line.split()[3]) for line in out[1:]]
        assert ratios == sorted(ratios)

    def test_plot_from_csv(self, tmp_path):
        rc = main(["metrics", "--config", os.path.join(CONFIG_DIR, "minimal.cfg"),
                   "--out", str(tmp_path)])
        assert rc == 0
        plot_dir = tmp_path / "plots"
        rc = main(["plot", "--csv", str(tmp_path / "results.csv"), "--out", str(plot_dir)])
        assert rc == 0
        svg = (plot_dir / "d2_selfsim.svg").read_text()
        assert svg.startswith("<svg") and "slope -1" in svg

    def test_bad_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("kernel = rosenau\nmetrics = nonsense\n")
        assert main(["metrics", "--config", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_rates_unknown_quantity_exit_2(self, tmp_path, capsys):
        # a quantity the CSV does not hold, known metric or not; the error lists those it holds
        assert main(["metrics", "--config", os.path.join(CONFIG_DIR, "minimal.cfg"),
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        csv_path = tmp_path / "results.csv"
        for quantity in ("bogus", "m2"):
            assert main(["rates", "--csv", str(csv_path), "--quantity", quantity]) == 2
            captured = capsys.readouterr()
            assert captured.err == (f"config error: --csv: {csv_path}: no rows of quantity "
                                    f"{quantity!r}; it holds: d2_selfsim\n")
            assert captured.out == ""

    def test_rates_fits_the_rows_compute_rows_gives(self, tmp_path, capsys):
        # %.17g round-trips every double: the CSV's rows are compute_rows' rows, bit for bit
        path = os.path.join(CONFIG_DIR, "regularized_l1.cfg")
        rows = compute_rows(load_config(path))
        assert main(["metrics", "--config", path, "--out", str(tmp_path)]) == 0
        read = runner.read_rows(str(tmp_path / "results.csv"))
        assert read == rows

        def fits(rows):
            keys = sorted({(r.quantity, r.epsilon) for r in rows})
            return [analysis.rate_fit([(r.t, r.value) for r in rows if (r.quantity, r.epsilon) == key],
                                      window=(5.0, 200.0)) for key in keys]

        assert len(fits(read)) == 4 and fits(read) == fits(rows)
        capsys.readouterr()
        assert main(["rates", "--csv", str(tmp_path / "results.csv"), "--quantity", "l1_heat_gap",
                     "--window", "5", "200"]) == 0
        assert capsys.readouterr().out == ("l1_heat_gap eps=0.2: exponent -1.0266 prefactor 0.275856 "
                                           "r2 0.999866 window [5, 200] n=6\n")

    @pytest.mark.parametrize("config,first,got", [
        ("minimal", "d2_selfsim eps=0.1", 1),
        ("decay_sweep", "d2_gap eps=0.05", 4),
        ("regularized_l1", "l1_heat_gap eps=0.2", 4),
    ])
    def test_rates_default_window_exit_2(self, tmp_path, capsys, config, first, got):
        # no shipped config has 5 times in [5, 100]: the first series is named, nothing printed
        assert main(["metrics", "--config", os.path.join(CONFIG_DIR, f"{config}.cfg"),
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        csv_path = tmp_path / "results.csv"
        assert main(["rates", "--csv", str(csv_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"config error: --csv: {csv_path}: {first}: need at least 5 points "
                                f"in window [5, 100], got {got}\n")
        assert captured.out == ""

    def test_rates_nonpositive_value_exit_2(self, tmp_path, capsys):
        csv_path = tmp_path / "results.csv"
        csv_path.write_text(CSV_HEADER + "\n" + "".join(
            f"rosenau,0.1,{t},d2_gap,{0.0 if t == 50 else 1.0 / t},0,40,4096\n" for t in (5, 10, 20, 50, 100)))
        assert main(["rates", "--csv", str(csv_path)]) == 2
        assert capsys.readouterr().err == (f"config error: --csv: {csv_path}: d2_gap eps=0.1: "
                                           "rate fit requires positive values\n")

    @pytest.mark.parametrize("flag,value", [("--config", "configs/minimal.cfg"), ("--threads", "2")])
    def test_rates_rejects_config_and_threads(self, tmp_path, capsys, flag, value):
        # rates reads the CSV that metrics wrote: it runs no sweep, so it takes neither flag
        with pytest.raises(SystemExit) as exc:
            main(["rates", "--csv", str(tmp_path / "results.csv"), flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {flag} {value}" in captured.err and captured.out == ""

    def test_file_initial_runs_on_its_own_grid(self, tmp_path):
        sim = tmp_path / "sim"
        rc = main(["simulate", "--config", os.path.join(CONFIG_DIR, "minimal.cfg"),
                   "--out", str(sim)])
        assert rc == 0
        dist = sim / "dist_rosenau_eps0.1_t10.txt"
        cfg = tmp_path / "reuse.cfg"
        cfg.write_text(f"kernel = rosenau\nepsilons = 0.1\ntimes = 1\n"
                       f"initial = file:{dist}\nmetrics = d2_selfsim mass\n")
        assert main(["metrics", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]
        grid_l = load_distribution(str(dist)).grid.length
        assert len(rows) == 2
        for row in rows:
            value, _, length = (float(x) for x in row.split(",")[4:7])
            assert math.isfinite(value) and length == grid_l

    def test_atoms_only_file_runs_exactly(self, tmp_path):
        # the N = 0 form: atoms at +-sqrt(2), weight 1/2, so m2 = 2 = 2 sigma^2; the
        # self-similar metrics are finite and m2 moves exactly to 2 + 2 t.  At eps = 0.2
        # the atoms keep e^-50 of the mass by t = 2, so the density holds all of it
        dist = tmp_path / "atoms.txt"
        dist.write_text(f"60 0 2\n{-math.sqrt(2.0)!r} 0.5\n{math.sqrt(2.0)!r} 0.5\n")
        cfg = tmp_path / "atoms.cfg"
        cfg.write_text(f"kernel = rosenau\nepsilons = 0.2\ntimes = 2 5\n"
                       f"initial = file:{dist}\nmetrics = d2_selfsim d2_gap mass m2\n")
        assert main(["metrics", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        rows = [row.split(",") for row in
                (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]]
        assert len(rows) == 8 and all(math.isfinite(float(row[4])) for row in rows)
        m2 = {float(row[2]): float(row[4]) for row in rows if row[3] == "m2"}
        assert m2 == {2.0: pytest.approx(6.0, rel=1e-9), 5.0: pytest.approx(12.0, rel=1e-9)}

    @pytest.mark.parametrize("command,kernel,eps,metrics", [
        ("metrics", "rosenau", "0.2", "m2"),
        ("metrics", "rosenau", "0.2", "m4 mass"),
        ("simulate", "rosenau", "0.2", "mass"),
        ("simulate", "rosenau", "1", "mass"),
        ("simulate", "central-diff", "0.2", "mass"),
    ])
    def test_atoms_kept_by_a_density_exit_1(self, tmp_path, capsys, command, kernel, eps, metrics):
        # at t = 0.5 the atoms keep e^-mu of their mass under rosenau (3.7e-6 at eps = 0.2,
        # where the inverted density dips to -1.1e-8) and all of it under central-diff
        dist = tmp_path / "atoms.txt"
        dist.write_text(f"40 0 2\n{-math.sqrt(2.0)!r} 0.5\n{math.sqrt(2.0)!r} 0.5\n")
        cfg = tmp_path / "atoms.cfg"
        cfg.write_text(f"kernel = {kernel}\nepsilons = {eps}\ntimes = 0.5 2\n"
                       f"initial = file:{dist}\nmetrics = {metrics}\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"sweep point (kernel={kernel}, eps={eps}, t=0.5): the datum's atoms keep mass" in err
        assert not out.exists()

    def test_atoms_pass_where_no_density_is_read(self, tmp_path):
        # mass and the d_s metrics read the transform alone, so the atoms' mass is exact there
        dist = tmp_path / "atoms.txt"
        dist.write_text(f"40 0 2\n{-math.sqrt(2.0)!r} 0.5\n{math.sqrt(2.0)!r} 0.5\n")
        cfg = tmp_path / "atoms.cfg"
        cfg.write_text(f"kernel = central-diff\nepsilons = 1\ntimes = 0.5 2\n"
                       f"initial = file:{dist}\nmetrics = mass d2_selfsim\n")
        assert main(["metrics", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_file_initial_with_nan_exit_2(self, tmp_path, capsys):
        dist = tmp_path / "nan.txt"
        dist.write_text("10 16 0\n" + "0.1\n" * 15 + "nan\n")
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(f"kernel = rosenau\nepsilons = 0.1\ntimes = 1\n"
                       f"initial = file:{dist}\nmetrics = mass\n")
        assert main(["metrics", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "line 4" in err and "initial" in err and "non-finite" in err
        assert not os.path.exists(tmp_path / "out" / "results.csv")

    @pytest.mark.parametrize("content,message", [
        ("40 0\n", "truncated distribution file"),
        ("40 0 2\n1.0 0.5\n", "expected 7 tokens for N=0, n_atoms=2, got 5"),
        ("10 -2 0\n0.1\n", "header N must be a nonnegative integer, got '-2'"),
        ("10 16 -1\n" + "0.1\n" * 14, "header n_atoms must be a nonnegative integer, got '-1'"),
        ("10 16.0 0\n" + "0.1\n" * 16, "header N must be a nonnegative integer, got '16.0'"),
        ("10 abc 0\n", "header N must be a nonnegative integer, got 'abc'"),
    ], ids=["header", "token-count", "negative-N", "negative-atoms", "float-N", "word-N"])
    def test_malformed_file_initial_exit_2(self, tmp_path, capsys, content, message):
        dist = tmp_path / "bad.txt"
        dist.write_text(content)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"kernel = rosenau\nepsilons = 0.1\ntimes = 1\n"
                       f"initial = file:{dist}\nmetrics = mass\nchecks = d2_bound\n")
        for command in ("metrics", "check", "simulate"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
            assert f"config error: line 4: initial: {dist}: {message}" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", [
        None,
        "xi symbol\nzero one\n",
        "-1 0.4\n1 0.4\n",
        "-1 0.5\n2 0.5\n",
        "-1 -0.5\n0 2\n1 -0.5\n",
        "-1 0.5\ninf 0.5\n",
    ], ids=["missing", "malformed", "mass", "asymmetric", "negative", "non-finite"])
    def test_bad_custom_kernel_file_exit_2(self, tmp_path, capsys, content):
        table = tmp_path / "kernel.txt"
        if content is not None:
            table.write_text(content)
        cfg = tmp_path / "custom.cfg"
        cfg.write_text(f"kernel = custom:{table}\nepsilons = 0.1\ntimes = 1\nmetrics = mass\n")
        assert main(["metrics", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "line 1" in err and "kernel" in err
        assert not os.path.exists(tmp_path / "out" / "results.csv")

    def test_custom_two_atoms_reproduce_central_diff(self, tmp_path):
        table = write_atoms(tmp_path / "atoms.txt", [(-1.0, 0.5), (1.0, 0.5)])
        shipped = Path(CONFIG_DIR, "decay_sweep.cfg").read_text()
        assert "kernel = central-diff\n" in shipped
        cfg = tmp_path / "custom.cfg"
        # d2_bound has no constant for custom kernels; the metrics ignore checks
        cfg.write_text(shipped.replace("kernel = central-diff", f"kernel = custom:{table}")
                       .replace(" d2_bound", ""))
        for name, path in (("cd", os.path.join(CONFIG_DIR, "decay_sweep.cfg")), ("custom", cfg)):
            assert main(["metrics", "--config", str(path), "--out", str(tmp_path / name),
                         "--threads", "1"]) == 0
        cd = (tmp_path / "cd" / "results.csv").read_text().splitlines()
        custom = (tmp_path / "custom" / "results.csv").read_text().splitlines()
        assert len(cd) == len(custom) > 1 and cd[0] == custom[0]
        for a, b in zip(cd[1:], custom[1:]):
            assert a.split(",")[0] == "central-diff" and b.split(",")[0] == f"custom:{table}"
            assert a.split(",")[1:] == b.split(",")[1:]

    def test_d3_bound_on_custom_kernel(self, tmp_path):
        table = write_atoms(tmp_path / "atoms.txt",
                            [(-2.0, 0.1), (-1.0, 0.2), (0.0, 0.4), (1.0, 0.2), (2.0, 0.1)])
        cfg = tmp_path / "d3.cfg"
        cfg.write_text(f"kernel = custom:{table}\nepsilons = 0.2 0.1\ntimes = 1 10 100\n"
                       "initial = mixture-matched\nchecks = d3_bound\n")
        out = tmp_path / "out"
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == 0
        records = [json.loads(line) for line in (out / "checks.jsonl").read_text().splitlines()]
        assert len(records) == 6 and all(r["satisfied"] for r in records)
        # unit-scale m4 = 2 (0.1 * 16 + 0.2) = 3.6, so B_eps = 2 * 3.6 eps^2
        b_eps = {r["params"]["eps"]: r["params"]["b_eps"] for r in records}
        assert b_eps[0.1] == pytest.approx(7.2 * 0.1**2, rel=1e-12)

    @pytest.mark.parametrize("command,key,other", [
        ("metrics", "metrics", "checks = d2_bound"),
        ("check", "checks", "metrics = mass"),
    ])
    def test_missing_run_list_exit_2(self, tmp_path, capsys, command, key, other):
        cfg = tmp_path / "only.cfg"
        cfg.write_text(f"kernel = rosenau\nepsilons = 0.1\ntimes = 1\n{other}\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{key}:" in err
        assert not out.exists()

    def test_simulate_needs_no_run_list(self, tmp_path, capsys):
        # simulate reads neither list, so it runs on a config that sets neither;
        # metrics and check each need their own and create nothing without it
        cfg = tmp_path / "neither.cfg"
        cfg.write_text("kernel = rosenau\nepsilons = 0.1\ntimes = 1\ninitial = gaussian-unit\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out / 'dist_rosenau_eps0.1_t1.txt'}\n"
        assert load_distribution(str(out / "dist_rosenau_eps0.1_t1.txt")).total_mass == \
            pytest.approx(1.0, abs=1e-10)
        for command, key in (("metrics", "metrics"), ("check", "checks")):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 2
            assert f"config error: {key}: none configured" in capsys.readouterr().err
            assert not (tmp_path / command).exists()

    def test_missing_config_exit_2(self, capsys):
        assert main(["metrics", "--config", "/nonexistent.cfg"]) == 2

    def test_config_directory_exit_2(self, tmp_path, capsys):
        assert main(["metrics", "--config", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: --config: {tmp_path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["metrics", "simulate"])
    def test_out_under_a_file_exit_2(self, tmp_path, capsys, command):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "x"
        assert main([command, "--config", os.path.join(CONFIG_DIR, "minimal.cfg"),
                     "--out", str(out)]) == 2
        assert f"config error: --out: {out}: " in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", BAD_CSVS, ids=BAD_CSV_IDS)
    def test_plot_bad_csv_exit_2(self, tmp_path, capsys, text, message):
        csv_path = tmp_path / "results.csv"
        if text is not None:
            csv_path.write_text(text)
        assert main(["plot", "--csv", str(csv_path), "--out", str(tmp_path / "svg")]) == 2
        assert f"config error: --csv: {csv_path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "svg").exists()

    @pytest.mark.parametrize("text,message", BAD_CSVS, ids=BAD_CSV_IDS)
    def test_rates_bad_csv_exit_2(self, tmp_path, capsys, text, message):
        # plot and rates read a results CSV through one reader, with the same errors
        csv_path = tmp_path / "results.csv"
        if text is not None:
            csv_path.write_text(text)
        assert main(["rates", "--csv", str(csv_path)]) == 2
        captured = capsys.readouterr()
        assert f"config error: --csv: {csv_path}: {message}" in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", ["metrics", "check", "simulate"])
    def test_numerical_failure_exit_1(self, tmp_path, capsys, command):
        cfg = tmp_path / "tight.cfg"
        cfg.write_text("kernel = rosenau\nepsilons = 0.2\ntimes = 50\nmetrics = m2\n"
                       "checks = d2_bound\n[grid]\nL = 20\nN = 256\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "eps=0.2" in err and "t=50" in err and "estimated mass" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["metrics", "check", "simulate"])
    def test_leaking_time_named_exit_1(self, tmp_path, capsys, command):
        # the grid holds t = 1 but leaks about half the mass by t = 400
        cfg = tmp_path / "tight.cfg"
        cfg.write_text("kernel = rosenau\nepsilons = 0.1\ntimes = 1 400\nmetrics = m2\n"
                       "checks = d2_bound\n[grid]\nL = 40\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "eps=0.1, t=400)" in err and "estimated mass" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_metric_exit_1(self, tmp_path, capsys):
        # mu = lam t / eps^2 overflows to inf
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text("kernel = rosenau\nepsilons = 1e-5\ntimes = 1e300\n"
                       "metrics = l1_reg_gap mass\n[grid]\nN = 16\n")
        assert main(["metrics", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "eps=1e-05" in err and "t=1e+300" in err and "not finite" in err
        assert not os.path.exists(tmp_path / "results.csv")

    @pytest.mark.parametrize("kernel,sigma,times", [
        ("central-diff", "1e40", "10"),
        ("central-diff", "1e40", "1"),
        ("central-diff", "1e100", "10"),
        ("rosenau", "1e40", "10"),
    ])
    def test_huge_sigma_names_the_sweep_point_exit_1(self, tmp_path, kernel, sigma, times):
        # the bins below 8 dxi sit so near 0 that the d_s limit fit cannot be
        # conditioned; a fresh process, so a hang fails on the timeout alone
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"kernel = {kernel}\nsigma = {sigma}\nepsilons = 0.1\ntimes = {times}\n"
                       "initial = gaussian-unit\nmetrics = d2_selfsim\n[grid]\nN = 256\n")
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        proc = subprocess.run([sys.executable, "-m", "rosenau.cli", "metrics", "--config", str(cfg),
                               "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert f"sweep point (kernel={kernel}, eps=0.1, t={times})" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command,text,point", [
        # the d_s limit fit's |xi|^4 column would overflow, so its SVD would not converge
        ("metrics", "kernel = central-diff\nsigma = 1e-150\nepsilons = 1e150\ntimes = 1e6\n"
                    "initial = mixture-matched\nmetrics = d2_gap\n", "kernel=central-diff, eps=1e+150, t=1e+06"),
        # its squared xi^4 column, 14 xi^8 summed over the inner bins, would overflow: numpy's
        # overflow and rank warnings under exit 0 once the bins pass 2.4e38
        ("metrics", "kernel = central-diff\nsigma = 1e-45\nepsilons = 1e40\ntimes = 1e6\n"
                    "initial = mixture-matched\nmetrics = d2_gap d2_selfsim\n",
         "kernel=central-diff, eps=1e+40, t=1e+06"),
        ("metrics", "kernel = central-diff\nsigma = 1e-80\nepsilons = 1e70\ntimes = 1e6\n"
                    "initial = mixture-matched\nmetrics = d2_gap d2_selfsim\n",
         "kernel=central-diff, eps=1e+70, t=1e+06"),
    ], ids=["d2-gap-svd", "column-norm-1e40", "column-norm-1e70"])
    def test_float_and_fit_failures_name_the_sweep_point_exit_1(self, tmp_path, command, text, point):
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(text)
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        proc = subprocess.run([sys.executable, "-m", "rosenau.cli", command, "--config", str(cfg),
                               "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1, proc.stderr
        # one line, refused before the fit: no numpy warning, no LAPACK complaint
        (line,) = proc.stderr.splitlines()
        assert line.startswith(f"numerical failure: sweep point ({point}): ")
        assert "too far from 0" in line
        assert "Warning" not in proc.stderr and "DLASCL" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_d3_rhs_past_the_float_power_range_exit_0(self, tmp_path):
        # (1 + t)^1.5 overflows a float at t = 1e300; the d0 term is then 0 and the
        # record stays finite: every d3 distance and B_eps underflow to 0 at sigma = 1e-150
        cfg = tmp_path / "edge.cfg"
        cfg.write_text("kernel = rosenau\nsigma = 1e-150\nepsilons = 1e-6\ntimes = 1e300\n"
                       "initial = mixture-matched\nchecks = d3_bound\n")
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        written = (tmp_path / "out" / "checks.jsonl").read_text().splitlines()
        (record,) = [json.loads(line) for line in written]
        assert record["name"] == "d3-bound rosenau eps=1e-06 t=1e+300"
        assert (record["lhs"], record["rhs"], record["margin"]) == (0.0, 0.0, 0.0)
        assert record["params"]["b_eps"] == 0.0 and record["satisfied"] is True

    def test_non_finite_rhs_names_the_check_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(analysis.D2_CONSTANTS, "central-diff", math.inf)
        out = tmp_path / "out"
        assert main(["check", "--config", os.path.join(CONFIG_DIR, "decay_sweep.cfg"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "sweep point (kernel=central-diff, eps=0.05, t in [" in err
        assert "d2-bound central-diff eps=0.05 t=0.5: rhs is not finite: inf" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["metrics", "check"])
    def test_negative_threads_exit_2(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", os.path.join(CONFIG_DIR, "decay_sweep.cfg"),
                  "--out", str(tmp_path / "out"), "--threads", "-5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--threads" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("window", [("nan", "5"), ("50", "5"), ("5", "5"), ("5", "nan")])
    def test_rates_bad_window_exit_2(self, capsys, window):
        with pytest.raises(SystemExit) as exc:
            main(["rates", "--csv", "results.csv", "--window", *window])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "usage:" in captured.err and "argument --window:" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("threads", [2, 3])
    def test_check_uses_threads(self, tmp_path, monkeypatch, threads):
        started = []

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        # the runner imports the pool when it starts one
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        cfg = os.path.join(CONFIG_DIR, "decay_sweep.cfg")
        assert main(["check", "--config", cfg, "--out", str(tmp_path), "--threads", str(threads)]) == 0
        assert started == [threads]
        serial = compute_checks(load_config(cfg))  # no threads argument: no pool
        assert started == [threads]
        written = (tmp_path / "checks.jsonl").read_text().splitlines()
        assert [json.loads(line)["lhs"] for line in written] == [c.lhs for c in serial]

    @pytest.mark.parametrize("threads", ["0", "2"])
    def test_simulate_rejects_threads(self, tmp_path, capsys, threads):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", os.path.join(CONFIG_DIR, "minimal.cfg"),
                  "--out", str(tmp_path / "out"), "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,config", [("metrics", "decay_sweep"),
                                                ("check", "decay_sweep"), ("simulate", "minimal")])
    def test_prints_one_line_per_file_written(self, tmp_path, capsys, command, config):
        # the report is the default: one `wrote <path>` line per file, and no --verbose
        path = os.path.join(CONFIG_DIR, f"{config}.cfg")
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sorted(lines) == sorted(f"wrote {p}" for p in out.iterdir())
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", path, "--out", str(tmp_path / "v"), "--verbose"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --verbose" in captured.err and captured.out == ""
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("flag", ["--out", "--verbose"])
    def test_rates_rejects_out_and_verbose(self, tmp_path, capsys, flag):
        # rates prints its fits and writes no file, so it takes neither flag
        args = [flag, str(tmp_path / "r")] if flag == "--out" else [flag]
        with pytest.raises(SystemExit) as exc:
            main(["rates", "--csv", str(tmp_path / "results.csv"),
                  "--quantity", "l1_heat_gap", "--window", "5", "200", *args])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "usage:" in captured.err and flag in captured.err and captured.out == ""
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command,key,name", [("check", "checks", "d3_bound"),
                                                  ("metrics", "metrics", "d3_selfsim")])
    def test_d3_on_mismatched_m2_exit_2(self, tmp_path, capsys, command, key, name):
        # gaussian-unit has m2 = 1 and the profile 2 sigma^2 = 2, so d_3 diverges
        cfg = tmp_path / "d3.cfg"
        cfg.write_text("kernel = rosenau\nepsilons = 0.1\ntimes = 1 2\n"
                       f"initial = gaussian-unit\n{key} = {name}\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: line 5: {key}: {name}" in err and "m2 = 1" in err
        assert not out.exists()

    def test_unknown_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--tmax", "nan"), ("--tmax", "inf"), ("--tmax", "-5"), ("--tmax", "0"),
        ("--tmax", "1e300"),
        ("--points", "1"),
        ("--s", "1.5"), ("--s", "0"), ("--s", "nan"),
    ])
    def test_appendix_bad_value_exit_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["appendix", flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "usage:" in captured.err and f"argument {flag}:" in captured.err
        assert captured.out == ""


class TestBenchmarkHooks:
    def test_tracer_installs(self):
        # perfbench/tracing.py wraps package functions by name, so deleting or
        # renaming one of them fails here, not only in a traced benchmark run
        script = "import tracing\ntracing.install(tracing.Tracer('hooks'))\n"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC_DIR, PERFBENCH_DIR]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_traced_sweep_counts_every_d_s(self):
        # decay_sweep under the installed tracer: every d_s the sweep computes, each
        # distinct metric row and each check's d0 at t = 0, passes through the wrapped
        # ds_distance.  At N = 4096 the datum's live span is every one of the N/2 + 1 nodes
        # xi <= 0 at every t, and the d_s horizon leaves the kinetic symbol fewer than those;
        # the count repeats exactly from run to run
        script = (
            "import json, tracing\n"
            "tracer = tracing.Tracer('hooks')\n"
            "tracing.install(tracer)\n"
            "from rosenau import config, runner\n"
            f"cfg = config.load_config({os.path.join(CONFIG_DIR, 'decay_sweep.cfg')!r})\n"
            "rows, checks = runner._sweep(cfg, 2)\n"
            "print(json.dumps({'counts': dict(tracer.counts), 'checks': len(checks),\n"
            "                  'rows': [(r.epsilon, r.t, r.quantity) for r in rows]}))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC_DIR, PERFBENCH_DIR]))
        runs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
        out = runs[0]
        cfg = load_config(os.path.join(CONFIG_DIR, "decay_sweep.cfg"))
        ds_metrics = {"d2_selfsim", "d3_selfsim", "d2_gap", "d2_selfsim_heat"}
        assert ds_metrics >= set(cfg.metrics) >= {analysis.CHECKS[n][0] for n in cfg.checks}
        # a metric keyed by t alone is computed once per t and read by every eps
        ds_rows = {(None if analysis.REGISTRY[q][0] else eps, t, q)
                   for eps, t, q in out["rows"] if q in ds_metrics}
        d0_points = out["checks"] // len(cfg.times)
        assert (len(ds_rows), d0_points) == (4 * 7 * 2 + 7, 4 + 1)
        assert out["counts"]["metrics.ds_calls"] == len(ds_rows) + d0_points
        # h_kin at every (eps, t) and at t = 0 for each eps's d2_bound d0
        n_eps = len(cfg.epsilons)
        live_spans = (cfg.N // 2 + 1) * n_eps * (len(cfg.times) + 1)
        assert 0 < out["counts"]["kernels.symbol_elems"] < live_spans
        assert runs[1]["counts"] == out["counts"]

    def test_traced_symbol_count_is_below_the_live_span(self):
        # minimal under the installed tracer: its datum underflows to 0 inside the half
        # line, so the kinetic symbol is evaluated within the live spans alone, and the d_s
        # horizon stops short of their outer ends; the live spans' lengths come here from
        # the datum closure on the half-line z, with their own span finder
        script = (
            "import json, tracing\n"
            "tracer = tracing.Tracer('hooks')\n"
            "tracing.install(tracer)\n"
            "from rosenau import config, runner\n"
            f"cfg = config.load_config({os.path.join(CONFIG_DIR, 'minimal.cfg')!r})\n"
            "rows, checks = runner._sweep(cfg, 2)\n"
            "print(json.dumps(dict(tracer.counts)))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC_DIR, PERFBENCH_DIR]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        counts = json.loads(proc.stdout.splitlines()[-1])
        cfg = load_config(os.path.join(CONFIG_DIR, "minimal.cfg"))
        _, g0 = runner._setup(cfg)
        half = g0.grid.points // 2 + 1
        xi = g0.grid.dxi * (np.arange(half) - (half - 1))
        spans = []
        for t in cfg.times:
            nonzero = np.flatnonzero(g0.analytic(xi / math.sqrt(1.0 + t)))
            spans.append(int(nonzero[-1] - nonzero[0] + 1) if nonzero.size else 0)
        n_eps = len(cfg.epsilons)
        assert 0 < counts["kernels.symbol_elems"] < n_eps * sum(spans) < half * n_eps * len(cfg.times)

    def test_traced_l1_sweep_sees_every_inverse(self):
        # regularized_l1 under the installed tracer: every inverse transform the sweep
        # runs passes through the wrapped inverse_transform, so a batched inverse path
        # beside the registry would show here as missing calls
        script = (
            "import json, tracing\n"
            "tracer = tracing.Tracer('hooks')\n"
            "tracing.install(tracer)\n"
            "from rosenau import config, runner\n"
            f"cfg = config.load_config({os.path.join(CONFIG_DIR, 'regularized_l1.cfg')!r})\n"
            "rows, checks = runner._sweep(cfg, 2)\n"
            "print(json.dumps(dict(tracer.counts)))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC_DIR, PERFBENCH_DIR]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        counts = json.loads(proc.stdout.splitlines()[-1])
        cfg = load_config(os.path.join(CONFIG_DIR, "regularized_l1.cfg"))
        # l1_reg_gap and m2's density: one inverse each per (eps, t); l1_heat_gap: one per t
        assert sorted(cfg.metrics) == ["l1_heat_gap", "l1_reg_gap", "m2", "mass"]
        n_eps, n_times = len(cfg.epsilons), len(cfg.times)
        assert counts["spectral.inverse_calls"] == (2 * n_eps + 1) * n_times == 27


class TestImportFootprint:
    def test_pool_loads_only_on_request(self, tmp_path):
        # a fresh interpreter: a default run walks serially and leaves concurrent.futures,
        # and the logging it imports, unloaded; --threads 2 starts the pool and loads both
        minimal = os.path.join(CONFIG_DIR, "minimal.cfg")
        script = (
            "import sys\n"
            "def pool_mods():\n"
            "    return [m in sys.modules for m in ('concurrent.futures', 'logging')]\n"
            "from rosenau.cli import main\n"
            "print('import', pool_mods())\n"
            f"assert main(['metrics', '--config', {minimal!r}, '--out', {str(tmp_path / 'a')!r}]) == 0\n"
            "print('serial', pool_mods())\n"
            f"assert main(['metrics', '--config', {minimal!r}, '--out', {str(tmp_path / 'b')!r}, "
            "'--threads', '2']) == 0\n"
            "print('pool', pool_mods())\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        stages = [line for line in proc.stdout.splitlines()
                  if line.split(" ")[0] in ("import", "serial", "pool")]
        assert stages == ["import [False, False]", "serial [False, False]", "pool [True, True]"]
        assert (tmp_path / "a" / "results.csv").read_bytes() == \
            (tmp_path / "b" / "results.csv").read_bytes()

    def test_no_scipy_loaded(self, tmp_path):
        # a fresh interpreter: importing rosenau, a shipped-config metrics run
        # and the appendix table must all leave scipy and numpy.polynomial
        # unloaded (the appendix's Gauss-Legendre rule is a module constant)
        script = (
            "import sys\n"
            "def scipy_mods():\n"
            "    return sorted(k for k in sys.modules if k.split('.')[0] == 'scipy')\n"
            "import rosenau\n"
            "print('import', scipy_mods(), 'numpy.polynomial' in sys.modules)\n"
            "from rosenau.cli import main\n"
            f"assert main(['metrics', '--config', {os.path.join(CONFIG_DIR, 'minimal.cfg')!r}, "
            f"'--out', {str(tmp_path)!r}]) == 0\n"
            "print('metrics', scipy_mods(), 'numpy.polynomial' in sys.modules)\n"
            "assert main(['appendix']) == 0\n"
            "print('appendix', scipy_mods(), 'numpy.polynomial' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        stages = [line for line in proc.stdout.splitlines()
                  if line.split(" ")[0] in ("import", "metrics", "appendix")]
        assert stages == ["import [] False", "metrics [] False", "appendix [] False"]
