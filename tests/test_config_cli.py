import hashlib
import json
import math
import os

import numpy as np
import pytest

from rosenau.cli import main
from rosenau.config import ExperimentConfig, load_config, parse_config
from rosenau.errors import ConfigError
from rosenau.runner import CSV_HEADER, RunError, compute_rows, run
from rosenau.spectral import load_distribution

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


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

    def test_sigma_with_custom_kernel_exit_2(self, tmp_path, capsys):
        table = tmp_path / "kernel.txt"
        xi = np.linspace(-400.0, 400.0, 8001)
        np.savetxt(table, np.column_stack([xi, np.cos(0.1 * xi)]))
        cfg = tmp_path / "custom.cfg"
        cfg.write_text(f"kernel = custom:{table}\nsigma = 2\nepsilons = 0.1\n"
                       "times = 1\nmetrics = mass\n")
        assert main(["metrics", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "line 2" in err and "sigma" in err

    def test_grid_section_with_file_initial_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("metrics = mass\ninitial = file:dist.txt\n[grid]\nN = 1024\n")
        assert err.value.line == 4


class TestRunner:
    def test_row_count_and_header(self, tmp_path):
        cfg = load_config(os.path.join(CONFIG_DIR, "minimal.cfg"))
        out = run(cfg, out_dir=str(tmp_path), make_plots=False)
        lines = open(out["results"]).read().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(cfg.epsilons) * len(cfg.times) * len(cfg.metrics)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = load_config(os.path.join(CONFIG_DIR, "minimal.cfg"))
        a = run(cfg, out_dir=str(tmp_path / "a"), make_plots=False)
        b = run(cfg, out_dir=str(tmp_path / "b"), make_plots=False)
        assert sha256(a["results"]) == sha256(b["results"])

    def test_threaded_matches_serial(self, tmp_path):
        cfg = ExperimentConfig(kernel="rosenau", epsilons=[0.2, 0.1],
                               times=[1.0, 5.0], metrics=["d2_selfsim", "mass"])
        serial = compute_rows(cfg, threads=1)
        threaded = compute_rows(cfg, threads=4)
        assert [r.csv() for r in serial] == [r.csv() for r in threaded]

    def test_checks_jsonl_schema(self, tmp_path):
        cfg = ExperimentConfig(kernel="rosenau", epsilons=[0.2], times=[1.0, 10.0],
                               metrics=[], checks=["heat_decay", "d2_bound"],
                               initial="mixture-unit")
        out = run(cfg, out_dir=str(tmp_path))
        records = [json.loads(line) for line in open(out["checks"])]
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
        records = [json.loads(l) for l in open(tmp_path / "checks.jsonl")]
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

    @pytest.mark.parametrize("content", [None, "xi symbol\nzero one\n"],
                             ids=["missing", "malformed"])
    def test_bad_custom_kernel_file_exit_2(self, tmp_path, capsys, content):
        table = tmp_path / "kernel.txt"
        if content is not None:
            table.write_text(content)
        cfg = tmp_path / "custom.cfg"
        cfg.write_text(f"kernel = custom:{table}\nepsilons = 0.1\ntimes = 1\nmetrics = mass\n")
        assert main(["metrics", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "line 1" in err and "kernel" in err

    def test_missing_config_exit_2(self, capsys):
        assert main(["metrics", "--config", "/nonexistent.cfg"]) == 2

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

    def test_unknown_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
