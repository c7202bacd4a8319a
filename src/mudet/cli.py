"""Command-line front end.

``mudet simulate --config scenario.cfg --out results.csv`` runs a BER
sweep and writes the CSV (and optionally plot-friendly blocks). Flags
override the corresponding config keys. Exit codes: 0 success, 1 config
error, 2 runtime error.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .bench import (
    _str_list,
    emit_plot_data,
    parse_config,
    parse_snr_spec,
    run_scenario,
    write_csv,
)
from .errors import ConfigError, ConfigValidationError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mudet", description="Multi-user MIMO uplink link-level simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sim = sub.add_parser("simulate", help="run a Monte-Carlo BER sweep")
    sim.add_argument("--config", required=True, help="scenario config file (key=value lines)")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument("--plot", help="optional plot-data output path")
    sim.add_argument("--seed", type=int, help="override master_seed")
    sim.add_argument("--detectors", help="override detector list, comma separated")
    sim.add_argument("--snr", help="override SNR grid, lo:hi:step or comma list")
    return parser


def _load_config(args):
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    cfg = parse_config(text)
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if args.detectors is not None:
        cfg = replace(cfg, detectors=_str_list(args.detectors))
    if args.snr is not None:
        try:
            grid = parse_snr_spec(args.snr)
        except ValueError as exc:
            raise ConfigValidationError("snr_db", str(exc)) from exc
        cfg = replace(cfg, snr_grid_db=grid)
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        records = run_scenario(cfg)
        write_csv(records, args.out)
        if args.plot:
            emit_plot_data(records, args.plot)
    except Exception as exc:  # runtime failures map to exit code 2
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
