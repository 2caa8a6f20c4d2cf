"""Experiment harness: configuration, runs, batches, scoring, CSV output.

A run is one (configuration, seed) pair. Runs are bit-deterministic: the
seed spawns four named substreams (initialization, evaluation noise,
variation, bootstrap), every float is serialized with repr, and batch
outputs are sorted canonically, so sequential and parallel execution
produce byte-identical files.
"""
from __future__ import annotations

import csv
import itertools
import math
import operator
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import Population, make_rng
from .metrics import (
    build_frame,
    delta_hypervolume,
    delta_hypervolumes,
    fallback_frame,
    wilcoxon_signed_rank,
)
from .moea import environmental_select
from .problems import NOISE_NAMES, PROBLEM_NAMES, NoisyProblem, make_noise, make_problem
from .racing import (
    ALGORITHM_IDS,
    DEFAULT_PROXIMITY,
    StopReason,
    algorithm_estimator,
    algorithm_settings,
    make_selector,
    nsga2_generation,
)


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _number(key: str, text: str, kind: type):
    """Parse one numeric setting; a bad value is a ConfigError naming its key."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {noun}, got {text!r}") from None


def _finite(key: str, text: str) -> float:
    """Parse one number that must be finite; a ConfigError names its key."""
    value = _number(key, text, float)
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    return value


DEFAULT_POPULATION = 100
DEFAULT_RUNS = 25

# Substream labels under the run seed.
STREAM_INIT = 0
STREAM_EVAL = 1
STREAM_VARIATION = 2
STREAM_BOOTSTRAP = 3


def default_max_evaluations(problem: str) -> int:
    return 500_000 if problem == "zdt6" else 100_000


def default_seeds(master_seed: int = 0, runs: int = DEFAULT_RUNS) -> tuple[int, ...]:
    return tuple(range(master_seed, master_seed + runs))


def canonical_algorithm(name) -> str:
    """Lower-case an algorithm id; an unknown one is a ConfigError listing the valid ids."""
    algorithm = str(name).lower()
    try:
        algorithm_estimator(algorithm)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return algorithm


@dataclass(unsafe_hash=True)
class ExperimentConfig:
    """One cell of the experiment grid plus its seeds.

    Construction canonicalizes: a setting the algorithm does not take is
    pinned (sampling_budget to 1, confidence to 0), and ``make_selector``
    checks the others. The estimator is derived from the algorithm and is
    not a setting. Canonical form makes equality and hashing, and so grid
    deduplication, well defined; a config is never mutated after
    construction, so it hashes by value.
    """

    problem: str
    noise: str
    algorithm: str
    sampling_budget: int = 1
    confidence: float = 0.0
    proximity_threshold: float = DEFAULT_PROXIMITY
    population_size: int = DEFAULT_POPULATION
    max_evaluations: int | None = None
    seeds: tuple[int, ...] | None = None
    max_generations: int | None = None

    def __post_init__(self) -> None:
        try:
            self.problem = make_problem(str(self.problem)).name
            self.noise = make_noise(str(self.noise)).kind
            self.algorithm = str(self.algorithm).lower()
            settings = algorithm_settings(self.algorithm)
            self.sampling_budget = int(self.sampling_budget) if "budget" in settings else 1
            self.confidence = float(self.confidence) if "confidence" in settings else 0.0
            make_selector(self.algorithm, self.sampling_budget, self.confidence)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        self.proximity_threshold = float(self.proximity_threshold)
        if not (math.isfinite(self.proximity_threshold) and self.proximity_threshold >= 0.0):
            raise ConfigError("proximity_threshold must be finite and non-negative")
        self.population_size = int(self.population_size)
        if self.population_size < 2:
            raise ConfigError("population_size must be at least 2")
        if self.max_evaluations is None:
            self.max_evaluations = default_max_evaluations(self.problem)
        self.max_evaluations = int(self.max_evaluations)
        if self.max_evaluations < self.population_size:
            raise ConfigError("max_evaluations must cover population initialization")
        if self.seeds is None:
            self.seeds = default_seeds()
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be non-negative, got {min(self.seeds)}")
        if self.max_generations is not None:
            self.max_generations = int(self.max_generations)
            if self.max_generations < 0:
                raise ConfigError("max_generations must be non-negative")

    @property
    def estimator(self) -> str:
        return algorithm_estimator(self.algorithm).value

    def run_filename(self, seed: int) -> str:
        return (
            f"{self.problem}_{self.noise}_{self.algorithm}"
            f"_b{self.sampling_budget}_c{self.confidence!r}_s{seed}.csv"
        )


@dataclass(frozen=True)
class GenRow:
    generation: int
    cumulative_evaluations: int
    stop_reason: str
    race_length: int


@dataclass
class RunRecord:
    """Everything one run produces: trace rows and the final population."""

    config: ExperimentConfig
    seed: int
    gen_rows: list[GenRow]
    final_points: np.ndarray
    evaluations: int


def run_experiment(cfg: ExperimentConfig, seed: int) -> RunRecord:
    """Execute one seeded run of the configured algorithm.

    The initial population is uniform in the box and evaluated once
    (counted against the budget). A generation starts only if its exact
    worst-case evaluation demand still fits, so the cap is never
    exceeded: the per-individual sample count for each of the mu offspring
    and for each parent still holding fewer samples than that count
    (such parents are sampled again, see ``nsga2_generation``).
    """
    problem = make_problem(cfg.problem)
    noise = make_noise(cfg.noise)
    noisy = NoisyProblem(problem, noise, make_rng(seed, STREAM_EVAL), cfg.max_evaluations)
    selector = make_selector(
        cfg.algorithm, cfg.sampling_budget, cfg.confidence, cfg.proximity_threshold
    )
    init_rng = make_rng(seed, STREAM_INIT)
    variation_rng = make_rng(seed, STREAM_VARIATION)
    boot_rng = make_rng(seed, STREAM_BOOTSTRAP)

    genomes = init_rng.uniform(
        problem.lower, problem.upper, size=(cfg.population_size, problem.n_variables)
    )
    parents = Population(genomes, problem.true_eval(genomes))
    parents.sample(np.arange(cfg.population_size), noisy)
    mating = environmental_select(parents.estimates(selector.estimator), cfg.population_size)

    gen_rows: list[GenRow] = []
    generation = 0
    while cfg.max_generations is None or generation < cfg.max_generations:
        if not noisy.can_afford(selector.worst_generation_evaluations(parents)):
            break
        parents, mating, result = nsga2_generation(
            parents, mating, selector, noisy, variation_rng, boot_rng
        )
        generation += 1
        gen_rows.append(
            GenRow(
                generation=generation,
                cumulative_evaluations=noisy.evaluations,
                stop_reason=result.stop_reason.value if result.stop_reason else "",
                race_length=result.iterations,
            )
        )
    # Assessment scores the true objectives of the surviving genomes: a
    # noisy archive estimate can land below the attainable front (a
    # Cauchy-corrupted mean does this routinely) and would be credited
    # with impossible hypervolume. These values are measurement, not
    # search, so they bypass the noise model and the budget counter.
    final_points = parents.objectives
    return RunRecord(
        config=cfg,
        seed=seed,
        gen_rows=gen_rows,
        final_points=final_points,
        evaluations=noisy.evaluations,
    )


_STOP_TALLY_ORDER = (
    StopReason.QUOTA_SELECTED.value,
    StopReason.QUOTA_DISCARDED.value,
    StopReason.PROXIMITY.value,
    StopReason.T_MAX.value,
)


def _write_csv(path, rows) -> None:
    """Write row tuples in column order; csv writes a float as its repr
    and None as an empty field."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerows(rows)


def _run_meta(cfg: ExperimentConfig, seed: int, generations: int, evaluations) -> dict:
    """The meta rows of a run file, in file order."""
    return {
        "problem": cfg.problem,
        "noise": cfg.noise,
        "algorithm": cfg.algorithm,
        "estimator": cfg.estimator,
        "sampling_budget": cfg.sampling_budget,
        "confidence": cfg.confidence,
        "proximity_threshold": cfg.proximity_threshold,
        "population_size": cfg.population_size,
        "max_evaluations": cfg.max_evaluations,
        "max_generations": cfg.max_generations,
        "seed": seed,
        "generations": generations,
        "evaluations": evaluations,
    }


def write_run_csv(record: RunRecord, path) -> None:
    """Serialize a run: meta rows, one row per generation, the final
    population's true objective values, and a fallback-frame score."""
    cfg = record.config
    meta = _run_meta(cfg, record.seed, len(record.gen_rows), record.evaluations)
    frame = fallback_frame(cfg.problem)
    report = delta_hypervolume(record.final_points, make_problem(cfg.problem), frame)
    rows = [("meta", key, value) for key, value in meta.items()]
    for row in record.gen_rows:
        tallies = [1 if row.stop_reason == reason else 0 for reason in _STOP_TALLY_ORDER]
        rows.append(("gen", row.generation, row.cumulative_evaluations, *tallies, row.race_length))
    rows += [("pop", *point) for point in record.final_points.tolist()]
    for key in ("hv_front", "hv_solution", "delta_hv"):
        rows.append(("score", key, getattr(report, key)))
    rows.append(("score", "frame", "fallback"))
    _write_csv(path, rows)


@dataclass
class RunFileData:
    meta: dict[str, str]
    gens: np.ndarray  # (G, 7) int64: generation, cumulative evaluations, 4 tallies, race length
    points: np.ndarray
    score: dict[str, str]

    @property
    def gen_rows(self) -> list[GenRow]:
        return [GenRow(g, spent, _STOP_TALLY_ORDER[t.index(1)] if 1 in t else "", length)
                for g, spent, *t, length in self.gens.tolist()]


class _NotARunFile(ValueError):
    """A file not starting with meta rows: some other file, such as a summary table."""


def _malformed(path, line: int, what: str) -> ConfigError:
    return ConfigError(f"{path}, line {line}: {what}")


def _line(text: str, kind: str, index: int = 0) -> tuple[int, str]:
    """The 1-based line and the text of row ``index`` of the ``kind`` section (errors only)."""
    number = text.count("\n", 0, text.find(f"\n{kind},")) + 2 + index
    return number, text.split("\n")[number - 1]


def _rows(path, text: str, start: int, end: int, kind: str, commas: int):
    """Each row of ``text[start:end]`` with its line; one of another kind or width is refused."""
    rows = text[start:end].split("\n") if end > start else []
    for line, row in enumerate(rows, start=text.count("\n", 0, start) + 1):
        found = row.partition(",")[0]
        if found != kind or row.count(",") != commas:
            size = "short" if row.count(",") < commas else "long"
            raise _malformed(path, line, f"{found!r} row {row!r} among the {kind} rows"
                             if found != kind else f"{size} {kind} row {row!r}")
        yield line, row


def _table(path, text: str, start: int, end: int, kind: str) -> dict[str, str]:
    """The ``kind,key,value`` rows of ``text[start:end]`` as a map; a repeated key is refused."""
    table, lines = {}, {}
    for line, row in _rows(path, text, start, end, kind, 2):
        _, key, value = row.split(",")
        if key in lines:
            raise _malformed(path, line, f"{kind} key {key!r} repeats line {lines[key]}")
        table[key], lines[key] = value, line
    return table


# Fields are matched first: np.fromstring reads "-" or a blank as a number, drops a trailing
# empty field and, in numpy 1.x, stops at a bad field without raising; the value count catches
# that. Gen fields are integers of at most 18 digits and one-hot or all-zero tallies.
_GEN_FIELDS = ",[0-9]{1,18}" * 2 + ",(?:0,0,0,0|1,0,0,0|0,1,0,0|0,0,1,0|0,0,0,1),[0-9]{1,18}"


def _numbers(fields: str, dtype, count: int) -> np.ndarray | None:
    """The numbers in comma-separated ``fields``, or None unless there are ``count`` of them."""
    try:
        values = np.fromstring(fields, dtype, sep=",")
    except ValueError:
        return None
    return values if values.size == count else None


def _array(path, text: str, start: int, end: int, kind: str, fields: str, dtype, width: int):
    """The ``kind`` rows of ``text[start:end]``, matched to ``fields`` and parsed in one piece,
    then copied: np.fromstring shrinks a 32 KB buffer in place, and kept results fragment the
    heap. If that fails, the rows are read one by one to name the first at fault."""
    section, pattern = text[start:end], kind + fields
    count = (section.count("\n") + 1) * width if section else 0
    if not section or re.fullmatch(rf"{pattern}(?:\n{pattern})*", section):
        values = _numbers(section[len(kind) + 1:].replace(f"\n{kind},", ","), dtype, count)
        if values is not None and np.isfinite(values).all():
            return values.reshape(-1, width).copy()
    for line, row in _rows(path, text, start, end, kind, width):
        values = _numbers(row[len(kind) + 1:], dtype, width) if re.fullmatch(pattern, row) else None
        if values is None or not np.isfinite(values).all():
            what = "malformed" if values is None else "non-finite"
            raise _malformed(path, line, f"{what} {kind} row {row!r}")


def read_run_csv(path) -> RunFileData:
    """Read a run file: meta, gen, pop and score rows, in ``write_run_csv``'s order. A file
    whose first non-blank row is not a meta row is not a run file (_NotARunFile). A row out of
    its section or malformed, a repeated key, gen rows not numbered 1, 2, ... or whose
    evaluations fall, or no final population is a ConfigError naming the file and line."""
    with Path(path).open() as handle:
        text = handle.read().removesuffix("\n")
    if not text.lstrip().startswith("meta,"):
        raise _NotARunFile(f"{path} is not a run file")

    def start(kind: str, end: int) -> int:  # the newline before the first ``kind`` row, else end
        at = text.find(f"\n{kind},", 0, end)
        return end if at < 0 else at

    # Each section runs to the next kind's first row. A kind whose first row follows a later
    # kind's gets an empty section, so its rows fail inside the later kind's section.
    score = start("score", len(text))
    pop = start("pop", score)
    gen = start("gen", pop)
    meta = _table(path, text, 0, gen, "meta")
    gens = _array(path, text, gen + 1, pop, "gen", _GEN_FIELDS, np.int64, 7)
    before = np.concatenate(([0], gens[:-1, 1]))
    bad = np.flatnonzero((gens[:, 0] != np.arange(1, len(gens) + 1)) | (gens[:, 1] < before))
    if len(bad):
        line, row = _line(text, "gen", bad[0])
        raise _malformed(path, line, f"gen row {row!r} does not follow generation {bad[0]} "
                                     f"at {before[bad[0]]} evaluations")
    width = max(2, text[pop + 1:score].partition("\n")[0].count(","))
    points = _array(path, text, pop + 1, score, "pop", r",[^,\s]+" * width, float, width)
    if not len(points):
        raise _malformed(path, text.count("\n") + 1, "file ends before the final population")
    return RunFileData(meta, gens, points, _table(path, text, score + 1, len(text), "score"))


SUMMARY_COLUMNS = (
    "problem",
    "noise",
    "algorithm",
    "estimator",
    "budget",
    "confidence",
    "seed",
    "delta_hv",
    "evaluations",
)

SIGNIFICANCE_COLUMNS = (
    "problem",
    "noise",
    "algorithm_a",
    "budget_a",
    "confidence_a",
    "algorithm_b",
    "budget_b",
    "confidence_b",
    "n",
    "p_value",
)


def score_runs(source, summary_path, significance_path, front_resolution: int = 1000) -> None:
    """Score run files with batch frames and write summary + significance.

    One normalization frame per (problem, noise) cell, built from the
    exact front sampled at ``front_resolution`` plus every final
    population in the cell. Pairwise two-sided Wilcoxon tests compare
    algorithm variants within a cell, paired by common seeds (at least 5
    required for a row). ``source`` is one run file or a directory whose
    ``.csv`` files are scanned; other files found there are skipped. A run
    file is a ConfigError when ``read_run_csv`` refuses it, when a meta key
    is missing, unknown, non-numeric or non-finite, when ``ExperimentConfig``
    rejects a setting, when a meta row differs from what its configuration
    and gen rows write, when its evaluations or generations exceed their
    caps, when its pop rows number other than its population size, or when
    they hold other than one value per objective of its problem.
    """
    root = Path(source)
    if not (root.is_file() or root.is_dir()):
        raise ConfigError(f"no such run source: {source}")
    by_cell: dict[tuple[str, str], list[tuple[tuple, np.ndarray]]] = {}
    for path in [root] if root.is_file() else sorted(root.rglob("*.csv")):
        try:
            data = read_run_csv(path)
        except _NotARunFile:
            if path == root:
                raise
            continue  # a scanned directory may hold other tables, such as a summary
        meta, gens, points = data.meta, data.gens, data.points
        try:
            max_generations = meta["max_generations"]
            cfg = ExperimentConfig(
                meta["problem"], meta["noise"], meta["algorithm"],
                _number("sampling_budget", meta["sampling_budget"], int),
                _finite("confidence", meta["confidence"]),
                _finite("proximity_threshold", meta["proximity_threshold"]),
                _number("population_size", meta["population_size"], int),
                _number("max_evaluations", meta["max_evaluations"], int),
                seeds=(_number("seed", meta["seed"], int),),
                max_generations=(_number("max_generations", max_generations, int)
                                 if max_generations else None),
            )
            # A run spent its last generation's evaluations, or its population's if none ran.
            spent = int(gens[-1, 1]) if len(gens) else cfg.population_size
            written = _run_meta(cfg, cfg.seeds[0], len(gens), spent)
            # Every meta row must be the one its configuration and gen rows write.
            for key in meta:
                if key not in written:
                    raise ConfigError(f"key {key!r} is not a run-file key")
            for key, value in written.items():
                if meta[key] != ("" if value is None else str(value)):
                    raise ConfigError(f"{key} {meta[key]!r} differs from the canonical {value!r}")
            for key, count, cap in (("evaluations", spent, cfg.max_evaluations),
                                    ("generations", len(gens), cfg.max_generations)):
                if cap is not None and count > cap:
                    raise ConfigError(f"{key} {count} exceed max_{key} {cap}")
            if points.shape[0] != cfg.population_size:
                raise ConfigError(f"population_size {cfg.population_size} differs from the "
                                  f"{points.shape[0]} pop rows")
            # The summary columns from algorithm to evaluations, delta_hv left out.
            run = (cfg.algorithm, cfg.estimator, cfg.sampling_budget, cfg.confidence,
                   cfg.seeds[0], spent)
        except KeyError as exc:
            raise ConfigError(f"{path}: missing meta key {exc.args[0]!r}") from None
        except ConfigError as exc:
            raise ConfigError(f"{path}: meta {exc}") from None
        width = make_problem(cfg.problem).n_objectives
        if points.shape[1] != width:
            line, row = _line(Path(path).read_text(), "pop")
            raise _malformed(path, line, f"pop row {row!r} holds {points.shape[1]} values, "
                                         f"{cfg.problem} has {width} objectives")
        by_cell.setdefault((cfg.problem, cfg.noise), []).append((run, points))
    if not by_cell:
        raise ConfigError(f"no run files found under {source}")

    summary_rows = []
    for (problem_name, noise_name), cell_runs in sorted(by_cell.items()):
        front = make_problem(problem_name).true_front(front_resolution)
        point_sets = [points for _, points in cell_runs]
        frame = build_frame(front, *point_sets)
        reports = delta_hypervolumes(point_sets, front, frame)
        for (run, _), report in zip(cell_runs, reports):
            summary_rows.append((problem_name, noise_name, *run[:-1], report.delta_hv, run[-1]))
    # By problem, noise, algorithm, budget, confidence and seed; stable for ties.
    summary_rows.sort(key=operator.itemgetter(0, 1, 2, 4, 5, 6))
    _write_csv(summary_path, [SUMMARY_COLUMNS, *summary_rows])

    cells: dict[tuple[str, str], dict[tuple[str, int, float], dict[int, float]]] = {}
    for problem, noise, algorithm, _, budget, confidence, seed, delta_hv, _ in summary_rows:
        cell = cells.setdefault((problem, noise), {})
        cell.setdefault((algorithm, budget, confidence), {})[seed] = delta_hv
    significance_rows = []
    for (problem_name, noise_name), variants in sorted(cells.items()):
        for va, vb in itertools.combinations(sorted(variants), 2):
            common = sorted(set(variants[va]) & set(variants[vb]))
            if len(common) < 5:
                continue
            a = [variants[va][s] for s in common]
            b = [variants[vb][s] for s in common]
            p = wilcoxon_signed_rank(a, b)
            significance_rows.append((problem_name, noise_name, *va, *vb, len(common), p))
    _write_csv(significance_path, [SIGNIFICANCE_COLUMNS, *significance_rows])


def _execute_run(cfg: ExperimentConfig, seed: int, path_str: str) -> tuple[str, str]:
    """Worker: run one (config, seed) pair and write its file."""
    try:
        record = run_experiment(cfg, seed)
        write_run_csv(record, path_str)
        return (path_str, "")
    except Exception as exc:  # recorded, batch continues
        return (path_str, f"{type(exc).__name__}: {exc}")


def run_batch(configs, out_dir, jobs: int = 1) -> tuple[Path, Path]:
    """Run every (config, seed) pair, then score the batch.

    Run files land in ``out_dir/runs``; the scored summary and the
    pairwise significance table in ``out_dir``. Failed runs are recorded
    in ``out_dir/failures.csv`` and excluded from scoring instead of
    aborting the batch. At most ``jobs`` worker processes run, and no more
    than there are runs or CPUs it may run on. Returns (summary_path, significance_path).

    A repeated (config, seed) pair runs once; two different runs that
    would write the same run file are a ConfigError naming the file.
    """
    configs = list(configs)
    if not configs:
        raise ConfigError("batch needs at least one configuration")
    # A run reads every config field but seeds.
    runs: dict[str, tuple[ExperimentConfig, int]] = {}
    for cfg in configs:
        for seed in cfg.seeds:
            name = cfg.run_filename(seed)
            run = (replace(cfg, seeds=(seed,)), seed)
            if runs.setdefault(name, run) != run:
                raise ConfigError(f"two different configurations write run file {name}")
    out_dir = Path(out_dir)
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(cfg, seed, str(runs_dir / name)) for name, (cfg, seed) in runs.items()]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, len(tasks), cpus or 1)
    if workers > 1:
        cfgs, seeds, paths = zip(*tasks)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_execute_run, cfgs, seeds, paths, chunksize=1))
    else:
        results = [_execute_run(*task) for task in tasks]
    failures = [(path, err) for path, err in results if err]
    if failures:
        rows = sorted((Path(path).name, err) for path, err in failures)
        _write_csv(out_dir / "failures.csv", [("run_file", "error"), *rows])
        for path, _ in failures:
            Path(path).unlink(missing_ok=True)
    summary_path = out_dir / "summary.csv"
    significance_path = out_dir / "significance.csv"
    score_runs(runs_dir, summary_path, significance_path)
    return summary_path, significance_path


_GRID_LIST_KEYS = ("problems", "noises", "algorithms", "budgets", "confidences")
_GRID_SCALAR_KEYS = (
    "population",
    "evaluations",
    "proximity",
    "master_seed",
    "runs",
    "max_generations",
)


def parse_grid(text: str) -> dict:
    """Parse a flat key=value grid file (comments with #, comma lists).

    A key set twice or set to nothing is a ConfigError naming the key and
    its 1-based line; a key left out takes its default.
    """
    grid: dict[str, object] = {}
    lines: dict[str, int] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in _GRID_LIST_KEYS:
            value = [item.strip() for item in value.split(",") if item.strip()]
        elif key in _GRID_SCALAR_KEYS:
            value = value.strip()
        else:
            raise ConfigError(
                f"unknown grid key: {key!r} (valid: "
                f"{', '.join(_GRID_LIST_KEYS + _GRID_SCALAR_KEYS)})"
            )
        if key in lines:
            raise ConfigError(f"line {number}: grid key {key!r} repeats line {lines[key]}")
        if not value:
            raise ConfigError(f"line {number}: grid key {key!r} has no value")
        grid[key] = value
        lines[key] = number
    return grid


def expand_grid(grid: dict) -> list[ExperimentConfig]:
    """Expand a parsed grid into canonical configs, deduplicated.

    An algorithm's cells collapse over the settings it does not take
    (``algorithm_settings``); one it takes needs its grid list.
    """
    problems = grid.get("problems") or list(PROBLEM_NAMES)
    noises = grid.get("noises") or list(NOISE_NAMES)
    algorithms = [canonical_algorithm(a) for a in grid.get("algorithms") or ALGORITHM_IDS]
    budgets = [_number("budgets", b, int) for b in grid.get("budgets", [])]
    confidences = [_number("confidences", c, float) for c in grid.get("confidences", [])]
    master_seed = _number("master_seed", grid.get("master_seed", 0), int)
    runs = _number("runs", grid.get("runs", DEFAULT_RUNS), int)
    if runs < 1:
        raise ConfigError(f"runs must be at least 1, got {runs}")
    seeds = default_seeds(master_seed, runs)
    common = {
        "proximity_threshold": _number(
            "proximity", grid.get("proximity", DEFAULT_PROXIMITY), float
        ),
        "population_size": _number(
            "population", grid.get("population", DEFAULT_POPULATION), int
        ),
        "seeds": seeds,
    }
    if grid.get("evaluations"):
        common["max_evaluations"] = _number("evaluations", grid["evaluations"], int)
    if grid.get("max_generations"):
        common["max_generations"] = _number("max_generations", grid["max_generations"], int)
    configs: dict[ExperimentConfig, None] = {}
    for problem, noise, algorithm, budget, confidence in itertools.product(
        problems, noises, algorithms, budgets or [1], confidences or [0.0]
    ):
        for setting, values in (("budget", budgets), ("confidence", confidences)):
            if setting in algorithm_settings(algorithm) and not values:
                raise ConfigError(f"{algorithm} requires a {setting}s list in the grid")
        configs.setdefault(
            ExperimentConfig(
                problem, noise, algorithm, sampling_budget=budget, confidence=confidence, **common
            )
        )
    return list(configs)


BOXPLOT_COLUMNS = (
    "problem",
    "noise",
    "algorithm",
    "budget",
    "confidence",
    "count",
    "min",
    "q1",
    "median",
    "q3",
    "max",
)


def emit_boxplot_data(summary_path, out_path) -> None:
    """Summarize delta_hv per variant as five-number rows.

    Quantiles use numpy's linear interpolation rule, so values 1..5 give
    q1 = 2, median = 3, q3 = 4. A summary lacking a column is a
    ConfigError naming the file and column; a short row, a non-integer
    budget or a non-finite confidence or delta_hv, one naming the file and
    the 1-based line.
    """
    groups: dict[tuple[str, str, str, int, float], list[float]] = {}
    with Path(summary_path).open(newline="") as handle:
        reader = csv.DictReader(handle)
        for column in ("problem", "noise", "algorithm", "budget", "confidence", "delta_hv"):
            if column not in (reader.fieldnames or ()):
                raise ConfigError(f"{summary_path}: missing column {column!r}")
        for row in reader:
            try:
                if None in row.values():
                    raise ConfigError("short row")
                key = (
                    row["problem"],
                    row["noise"],
                    row["algorithm"],
                    _number("budget", row["budget"], int),
                    _finite("confidence", row["confidence"]),
                )
                value = _finite("delta_hv", row["delta_hv"])
            except ConfigError as exc:
                raise _malformed(summary_path, reader.line_num, str(exc)) from None
            groups.setdefault(key, []).append(value)
    rows = [BOXPLOT_COLUMNS]
    for key in sorted(groups):
        values = np.asarray(groups[key], dtype=float)
        q = np.percentile(values, [0, 25, 50, 75, 100], method="linear")
        rows.append((*key, values.size, *q.tolist()))
    _write_csv(out_path, rows)
