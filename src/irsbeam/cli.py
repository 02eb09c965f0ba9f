"""Command-line entry point.

The positional argument names the experiment scenario; results are written as CSV.
Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig, Scenario, parse_config
from .experiments import ExperimentResult, format_csv, run_convergence, \
    run_oracle_check, run_rate_vs_n, run_srr_sweep

_RUNNERS = {
    Scenario.CONVERGENCE: run_convergence,
    Scenario.SRR_SWEEP: run_srr_sweep,
    Scenario.RATE_VS_N: run_rate_vs_n,
    Scenario.SINGLE: run_rate_vs_n,
    Scenario.ORACLE_CHECK: run_oracle_check,
}

_SUPPORTS_TRIAL_LOG = {Scenario.SRR_SWEEP, Scenario.RATE_VS_N, Scenario.SINGLE}


_HELP = {
    Scenario.CONVERGENCE: "per-iteration traces of the iterative method",
    Scenario.SRR_SWEEP: "selective reflecting versus selection size and BS power",
    Scenario.RATE_VS_N: "mean rate of all methods versus element count",
    Scenario.SINGLE: "all methods on a single configuration",
    Scenario.ORACLE_CHECK: "compare methods against the brute-force grid optimum (n <= 2)",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irsbeam",
        description="Active-IRS beamforming rate experiments (seeded, CSV output)",
        epilog="scenarios:\n" + "".join(f"  {scenario.value:<14}{text}\n"
                                         for scenario, text in _HELP.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", metavar="SCENARIO", choices=[s.value for s in Scenario],
                        help="the experiment to run, one of those listed below")
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--seed", type=int, metavar="U64", help="master seed override")
    parser.add_argument("--trials", type=int, help="Monte-Carlo trials per cell")
    parser.add_argument("--out", metavar="PATH", help="output CSV path")
    parser.add_argument("--verbose-trials", action="store_true",
                        help="also write the per-trial rate log")
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    text = ""
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"config: cannot read {args.config}: {err}") from err
    overrides = {
        "master_seed": args.seed,
        "trials": args.trials,
        "output_path": args.out,
    }
    return parse_config(text, scenario=args.command, overrides=overrides)


def _trial_log_path(out_path: Path) -> Path:
    if out_path.suffix == ".csv":
        return out_path.with_suffix(".trials.csv")
    return out_path.with_name(out_path.name + ".trials.csv")


def _write_result(result: ExperimentResult, out_path: Path, log_path: Path) -> None:
    out_path.write_text(format_csv(result.header, result.table))
    print(f"wrote {len(result.table)} rows to {out_path}")
    if result.trial_table is not None:
        log_path.write_text(format_csv(result.trial_header, result.trial_table))
        print(f"wrote {len(result.trial_table)} per-trial rows to {log_path}")
    for note in result.notes:
        print(note)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        scenario = cfg.scenario
        if args.verbose_trials and scenario not in _SUPPORTS_TRIAL_LOG:
            raise ConfigError(f"--verbose-trials: not used by the {scenario.value} scenario")
        out_path = Path(cfg.output_path)
        log_path = _trial_log_path(out_path)
        if args.verbose_trials and log_path.is_dir():  # written once every trial has run
            raise ConfigError(f"output_path: {str(log_path)!r} is a directory")
        runner = _RUNNERS[scenario]
        result = runner(cfg, verbose_trials=True) if args.verbose_trials else runner(cfg)
        _write_result(result, out_path, log_path)
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
