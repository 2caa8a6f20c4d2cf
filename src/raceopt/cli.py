"""Command-line interface: run, batch, score, boxplot."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import (
    DEFAULT_POPULATION,
    DEFAULT_PROXIMITY,
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

    run = sub.add_parser("run", help="execute a single seeded run and write its CSV")
    run.add_argument("--problem", required=True)
    run.add_argument("--noise", required=True)
    run.add_argument("--algo", required=True)
    run.add_argument("--budget", type=int, help="sampling budget (static n / racing t_max)")
    run.add_argument("--confidence", type=float, help="racing confidence in (0, 1)")
    run.add_argument("--proximity", type=float, default=DEFAULT_PROXIMITY)
    run.add_argument("--pop", type=int, default=DEFAULT_POPULATION)
    run.add_argument("--evals", type=int, help="evaluation cap (default 100000; 500000 for zdt6)")
    run.add_argument("--max-generations", type=int, dest="max_generations")
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
    algo = canonical_algorithm(args.algo)
    takes = algorithm_settings(algo)
    for setting in ("budget", "confidence"):
        if (setting in takes) != (getattr(args, setting) is not None):
            rule = "is required for" if setting in takes else "does not apply to"
            raise ConfigError(f"--{setting} {rule} algorithm {algo!r}")
    cfg = ExperimentConfig(
        problem=args.problem,
        noise=args.noise,
        algorithm=algo,
        sampling_budget=args.budget,
        confidence=args.confidence,
        proximity_threshold=args.proximity,
        population_size=args.pop,
        max_evaluations=args.evals,
        seeds=(args.seed,),
        max_generations=args.max_generations,
    )
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
