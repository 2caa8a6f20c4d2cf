"""Command-line interface: run, batch, score, boxplot."""
from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from .harness import (
    SETTINGS,
    ConfigError,
    ExperimentConfig,
    algorithm_settings,
    canonical_algorithm,
    emit_boxplot_data,
    expand_grid,
    parse_grid,
    run_batch,
    run_experiment,
    score_runs,
    write_run_csv,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raceopt",
        description="Noisy multi-objective optimization with racing-based selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # A flag left out is left out of the namespace, so its setting takes its config default.
    run = sub.add_parser("run", help="execute a single seeded run and write its CSV",
                         argument_default=argparse.SUPPRESS)
    for field in fields(ExperimentConfig):
        if field.name in SETTINGS:
            flag, _, kind, text = SETTINGS[field.name]
            run.add_argument(flag, dest=field.name, type=kind, help=text,
                             required=field.default is MISSING)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--out", required=True)

    batch = sub.add_parser("batch", help="run a grid of configurations and score it")
    batch.add_argument("--config", required=True, help="grid file (key = value lines)")
    batch.add_argument("--out", required=True, help="output directory")
    batch.add_argument("--jobs", type=int, default=1)

    score = sub.add_parser("score", help="score run files into a summary CSV")
    score.add_argument("--in", dest="source", required=True, help="run file or directory")
    score.add_argument("--out", required=True, help="summary CSV path")
    score.add_argument("--front-resolution", type=int, default=1000)

    boxplot = sub.add_parser("boxplot", help="five-number summaries per variant")
    boxplot.add_argument("--in", dest="source", required=True, help="summary CSV")
    boxplot.add_argument("--out", required=True)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    given = {field: value for field, value in vars(args).items() if field in SETTINGS}
    algo = canonical_algorithm(args.algorithm)
    # An algorithm names the settings it takes by their flags without the dashes.
    for field in ("sampling_budget", "confidence"):
        flag = SETTINGS[field].flag
        if (flag[2:] in algorithm_settings(algo)) != (field in given):
            rule = "does not apply to" if field in given else "is required for"
            raise ConfigError(f"{flag} {rule} algorithm {algo!r}")
    cfg = ExperimentConfig(**given, seeds=(args.seed,))
    record = run_experiment(cfg, args.seed)
    write_run_csv(record, args.out)
    print(f"wrote {args.out} ({record.evaluations} evaluations, "
          f"{len(record.gen_rows)} generations)")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    if not config_path.is_file():
        raise ConfigError(f"no such config file: {args.config}")
    if args.jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    configs = expand_grid(parse_grid(config_path.read_text()))
    summary, significance = run_batch(configs, args.out, jobs=args.jobs)
    print(f"wrote {summary} and {significance}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    if args.front_resolution < 2:
        raise ConfigError(f"--front-resolution must be at least 2, got {args.front_resolution}")
    out = Path(args.out)
    significance = out.with_name(out.stem + "_significance" + out.suffix)
    score_runs(args.source, out, significance, front_resolution=args.front_resolution)
    print(f"wrote {out} and {significance}")
    return 0


def _cmd_boxplot(args: argparse.Namespace) -> int:
    if not Path(args.source).is_file():
        raise ConfigError(f"no such summary file: {args.source}")
    emit_boxplot_data(args.source, args.out)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "batch": _cmd_batch,
    "score": _cmd_score,
    "boxplot": _cmd_boxplot,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
