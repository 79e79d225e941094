import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rosenau.cli import main
from rosenau.config import ExperimentConfig, load_config, parse_config
from rosenau.errors import ConfigError
from rosenau.kernels import kernel_by_name
from rosenau import metrics, runner
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

    @pytest.mark.parametrize("first,again", [
        ("times = 1 2", "times = 3"),
        ("out = a", "outputs = b"),
        ("[grid]\nN = 256", "points = 512"),
    ], ids=["same-key", "out-outputs", "N-points"])
    def test_repeated_key_names_both_lines(self, first, again):
        text = f"metrics = mass\n{first}\n{again}\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        line = text.count("\n")
        key = again.split(" =")[0]
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}: {key}: repeated; line {line - 1} ")

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
        assert cfg.grid_points == 2048

    def test_nothing_to_do_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("kernel = rosenau\n")

    @pytest.mark.parametrize("line,key", [
        ("times = 1 inf", "times"),
        ("epsilons = nan", "epsilons"),
        ("sigma = -1", "sigma"),
        ("sigma = nan", "sigma"),
        ("times = 1 1", "times"),
        ("epsilons = 0.1 0.1", "epsilons"),
        ("[grid]\nL = inf", "grid_length"),
        ("[grid]\nN = 100", "grid_points"),
        ("[grid]\nN = 8", "grid_points"),
        ("epsilons = 1e-170", "epsilons"),
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

        class Pool(runner.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(runner, "ThreadPoolExecutor", Pool)
        for threads in (2, 4, 64):
            assert [r.csv() for r in compute_rows(cfg, threads=threads)] == serial
        # the pool maps over times: never more workers than the config has times
        assert started == [2, 3, 3]

    def test_layout_built_once_under_pool(self, monkeypatch):
        # slow frequency grids keep the pool threads in step, so every thread
        # reaches the d_s layout cache at once; each (grid, s) is still built once
        xi = runner.GridSpec.xi

        def slow_xi(grid):
            time.sleep(0.01)
            return xi(grid)

        monkeypatch.setattr(runner.GridSpec, "xi", slow_xi)
        cfg = ExperimentConfig(kernel="central-diff", epsilons=[0.2], times=[1.0, 2.0, 3.0, 4.0],
                               metrics=["d2_selfsim", "d3_selfsim"], initial="mixture-matched",
                               grid_points=256)
        metrics._ds_layout.cache_clear()
        rows = compute_rows(cfg, threads=4)
        assert len(rows) == 8 and metrics._ds_layout.cache_info().misses == 2

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
                               metrics=["m2"], grid_length=20.0, grid_points=256)
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
        rc = main(["rates", "--config", str(cfg_path), "--quantity", "d2_selfsim_heat"])
        assert rc == 0
        line = capsys.readouterr().out.strip()
        exponent = float(line.split("exponent")[1].split()[0])
        assert exponent == pytest.approx(-1.0, abs=0.1)

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

    def test_rates_unknown_quantity_exit_2(self, capsys):
        rc = main(["rates", "--config", os.path.join(CONFIG_DIR, "minimal.cfg"),
                   "--quantity", "bogus"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'bogus'" in err and "d2_selfsim" in err

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

    @pytest.mark.parametrize("text,message", [
        (None, "No such file or directory"),
        ("kernel,epsilon,t,value\nrosenau,0.1,1,0.5\n",
         "not a results CSV, no column quantity argsup grid_L grid_N"),
        (CSV_HEADER + "\nrosenau,0.1,1,mass,abc,0,40,4096\n",
         "line 2: could not convert string to float: 'abc'"),
        (CSV_HEADER + "\nrosenau,0.1,1,mass,1,0,40,100\n",
         "line 2: grid points must be a power of two"),
    ], ids=["missing", "columns", "value", "grid_N"])
    def test_plot_bad_csv_exit_2(self, tmp_path, capsys, text, message):
        csv_path = tmp_path / "results.csv"
        if text is not None:
            csv_path.write_text(text)
        assert main(["plot", "--csv", str(csv_path), "--out", str(tmp_path / "svg")]) == 2
        assert f"config error: --csv: {csv_path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "svg").exists()

    @pytest.mark.parametrize("command", ["metrics", "check", "simulate"])
    def test_numerical_failure_exit_1(self, tmp_path, capsys, command):
        cfg = tmp_path / "tight.cfg"
        cfg.write_text("kernel = rosenau\nepsilons = 0.2\ntimes = 50\nmetrics = m2\n"
                       "checks = d2_bound\n[grid]\nL = 20\nN = 256\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "eps=0.2" in err and "t=50" in err and "estimated mass" in err
        assert not out.exists() or os.listdir(out) == []

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
        assert not out.exists() or os.listdir(out) == []

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

    @pytest.mark.parametrize("command", ["metrics", "check", "rates"])
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
            main(["rates", "--config", os.path.join(CONFIG_DIR, "decay_sweep.cfg"),
                  "--window", *window])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "usage:" in captured.err and "argument --window:" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("threads", [2, 3])
    def test_check_uses_threads(self, tmp_path, monkeypatch, threads):
        started = []

        class Pool(runner.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(runner, "ThreadPoolExecutor", Pool)
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

    @pytest.mark.parametrize("flag", ["--out", "--verbose"])
    def test_rates_rejects_out_and_verbose(self, tmp_path, capsys, flag):
        # rates prints its fits and writes no file, so it takes neither flag
        args = [flag, str(tmp_path / "r")] if flag == "--out" else [flag]
        with pytest.raises(SystemExit) as exc:
            main(["rates", "--config", os.path.join(CONFIG_DIR, "regularized_l1.cfg"),
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
        assert not out.exists() or os.listdir(out) == []

    def test_unknown_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--tmax", "nan"), ("--tmax", "inf"), ("--tmax", "-5"), ("--tmax", "0"),
        ("--tmax", "1e300"),
        ("--panels", "0"), ("--panels", "-3"), ("--panels", "1"), ("--points", "1"),
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


class TestImportFootprint:
    def test_no_scipy_loaded(self, tmp_path):
        # a fresh interpreter: importing rosenau, a shipped-config metrics run
        # and the appendix table must all leave scipy unloaded
        script = (
            "import sys\n"
            "def scipy_mods():\n"
            "    return sorted(k for k in sys.modules if k.split('.')[0] == 'scipy')\n"
            "import rosenau\n"
            "print('import', scipy_mods())\n"
            "from rosenau.cli import main\n"
            f"assert main(['metrics', '--config', {os.path.join(CONFIG_DIR, 'minimal.cfg')!r}, "
            f"'--out', {str(tmp_path)!r}]) == 0\n"
            "print('metrics', scipy_mods())\n"
            "assert main(['appendix']) == 0\n"
            "print('appendix', scipy_mods())\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        stages = [line for line in proc.stdout.splitlines()
                  if line.split(" ")[0] in ("import", "metrics", "appendix")]
        assert stages == ["import []", "metrics []", "appendix []"]
