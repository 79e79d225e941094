"""Command-line front end.

Subcommands: simulate, metrics and check run a config's sweep; rates and plot
read the results CSV that metrics writes; appendix prints the growth table.
Exit codes: 0 ok, 1 numerical failure (the message names the failing sweep
point), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import List, Optional

from . import analysis
from .config import ExperimentConfig, load_config
from .errors import ConfigError, InvalidDataError, RosenauError
from .runner import read_rows, run, simulate


def _checked(convert, ok, what: str):
    """argparse type: ``convert`` the text, then reject values failing ``ok``.

    A rejected value is a usage error (exit 2) naming the flag.
    """
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse names the type in "invalid int value"
    return parse


def _add_common(p: argparse.ArgumentParser, threads: bool = True) -> None:
    p.add_argument("--config", required=True, help="experiment config file")
    if threads:
        p.add_argument("--threads", type=_checked(int, lambda v: v >= 0, "0 (auto) or positive"),
                       default=1, help="worker threads, 1 = serial (default), 0 = one per core")
    p.add_argument("--out", default=None, help="output directory (overrides config)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rosenau",
        description="Kinetic approximations to the heat equation: sweeps, metrics, decay checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("simulate", help="solve and dump distributions"), threads=False)
    _add_common(sub.add_parser("metrics", help="compute metric series to CSV"))
    _add_common(sub.add_parser("check", help="run the decay bound checks"))

    p_rates = sub.add_parser("rates", help="fit decay exponents to a results CSV")
    p_rates.add_argument("--csv", required=True, help="results.csv produced by `metrics`")
    p_rates.add_argument("--quantity", default=None,
                         help="quantity to fit (default: every quantity in the CSV)")
    p_rates.add_argument("--window", nargs=2, type=float, default=(5.0, 100.0),
                         metavar=("T_LO", "T_HI"), help="fit window, T_LO < T_HI")

    p_app = sub.add_parser("appendix", help="growth table of the regularized-kernel norm")
    p_app.add_argument("--s", type=_checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)"),
                       default=0.9)
    p_app.add_argument("--tmax", type=_checked(float, lambda v: 0.0 < v <= analysis.APPENDIX_T_MAX,
                                               f"in (0, {analysis.APPENDIX_T_MAX:g}]"),
                       default=1000.0)
    p_app.add_argument("--points", type=_checked(int, lambda v: v >= 2, "at least 2"), default=13)

    p_plot = sub.add_parser("plot", help="render SVG decay plots from a results CSV")
    p_plot.add_argument("--csv", required=True, help="results.csv produced by `metrics`")
    p_plot.add_argument("--out", default=".", help="directory for the SVG files")
    return parser


@contextmanager
def _file_of(flag: str, path: str):
    """Re-raise a file error as a usage error (exit 2) naming the flag and its path."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{flag}: {path}: {exc.strerror or exc}") from exc


def _load(args) -> ExperimentConfig:
    with _file_of("--config", args.config):
        return load_config(args.config)


def _cmd_rates(args) -> int:
    rows = read_rows(args.csv)
    held = sorted({r.quantity for r in rows})
    if not held or args.quantity not in (None, *held):
        wanted = f"quantity {args.quantity!r}" if args.quantity else "any quantity"
        raise ConfigError(f"--csv: {args.csv}: no rows of {wanted}; it holds: {' '.join(held) or 'none'}")
    lines = []  # every series is fitted before the first line is printed
    for quantity in [args.quantity] if args.quantity else held:
        for eps in sorted({r.epsilon for r in rows if r.quantity == quantity}):
            series = [(r.t, r.value) for r in rows if r.quantity == quantity and r.epsilon == eps]
            try:
                fit = analysis.rate_fit(series, window=tuple(args.window))
            except InvalidDataError as exc:
                raise ConfigError(f"--csv: {args.csv}: {quantity} eps={eps:g}: {exc}") from exc
            lines.append(f"{quantity} eps={eps:g}: exponent {fit.exponent:+.4f} "
                         f"prefactor {fit.prefactor:.6g} r2 {fit.r_squared:.6f} "
                         f"window [{fit.window[0]:g}, {fit.window[1]:g}] n={fit.n_points}")
    print("\n".join(lines))
    return 0


def _cmd_appendix(args) -> int:
    times = [0.0] + [args.tmax ** (k / (args.points - 1)) for k in range(args.points)]
    print(f"{'t':>12} {'I_s':>14} {'B_s':>12} {'B_s/(1+t)^0.1':>14} {'balanced':>12}")
    for t in times:
        rep = analysis.appendix_report(args.s, t)
        print(f"{t:12.4g} {rep.integral:14.6e} {rep.value:12.6g} "
              f"{rep.normalized:14.6g} {rep.value_balanced:12.6g}")
    return 0


def _cmd_plot(args) -> int:
    from .svg import write_plots

    rows = read_rows(args.csv)
    with _file_of("--out", args.out):
        os.makedirs(args.out, exist_ok=True)
        paths = write_plots(rows, args.out).values()
    return _report(paths)


def _report(paths) -> int:
    for path in paths:
        print(f"wrote {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "rates" and not args.window[0] < args.window[1]:  # also rejects nan
        parser.error(f"argument --window: must be T_LO < T_HI, got {args.window[0]!r} "
                     f"{args.window[1]!r}")
    try:
        if args.command in ("simulate", "metrics", "check"):
            cfg = _load(args)
            if args.command != "simulate":  # simulate reads neither list; the others need their own
                key, other = ("metrics", "checks") if args.command == "metrics" else ("checks", "metrics")
                if not getattr(cfg, key):
                    raise ConfigError(f"{key}: none configured; `rosenau {args.command}` needs a "
                                      f"`{key} = ...` line")
                setattr(cfg, other, [])
            with _file_of("--out" if args.out else "out", args.out or cfg.out):
                paths = (simulate(cfg, out_dir=args.out) if args.command == "simulate" else
                         run(cfg, out_dir=args.out, threads=args.threads).values())
            return _report(paths)
        if args.command == "rates":
            return _cmd_rates(args)
        if args.command == "appendix":
            return _cmd_appendix(args)
        return _cmd_plot(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RosenauError as exc:  # RunError names the sweep point
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
