from __future__ import annotations

import csv
import hashlib
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from raceopt import harness
from raceopt.cli import main as cli_main
from raceopt.harness import (
    BOXPLOT_COLUMNS,
    SUMMARY_COLUMNS,
    ConfigError,
    ExperimentConfig,
    default_max_evaluations,
    emit_boxplot_data,
    expand_grid,
    parse_grid,
    read_run_csv,
    run_batch,
    run_experiment,
    score_runs,
    write_run_csv,
)
from raceopt.core import make_rng
from raceopt.problems import NOISE_NAMES, PROBLEM_NAMES, NoiseModel, make_noise, make_problem
from raceopt.racing import ALGORITHM_IDS, ALGORITHMS, make_selector


def _tiny(algorithm="implicit", **overrides):
    base = dict(
        problem="zdt1",
        noise="none",
        algorithm=algorithm,
        population_size=8,
        max_evaluations=200,
        seeds=(0,),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_rows(path) -> list[dict]:
    with Path(path).open(newline="") as handle:
        return list(csv.DictReader(handle))


# ---------------------------------------------------------------------------
# configuration


def test_config_canonicalizes_per_algorithm():
    cfg = ExperimentConfig("ZDT1", "None", "IMPLICIT", sampling_budget=9, confidence=0.7)
    assert (cfg.problem, cfg.noise, cfg.algorithm) == ("zdt1", "none", "implicit")
    assert cfg.sampling_budget == 1
    assert cfg.confidence == 0.0
    assert cfg.estimator == "last"

    cfg = ExperimentConfig("zdt1", "none", "static-avg", sampling_budget=5, confidence=0.9)
    assert cfg.confidence == 0.0
    assert cfg.estimator == "mean"

    cfg = ExperimentConfig("zdt1", "none", "rsp-med", sampling_budget=5, confidence=0.25)
    assert cfg.estimator == "median"
    assert cfg.max_evaluations == default_max_evaluations("zdt1") == 100_000


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="unknown problem"):
        ExperimentConfig("zdt7", "none", "implicit")
    with pytest.raises(ConfigError, match="unknown noise"):
        ExperimentConfig("zdt1", "pink", "implicit")
    with pytest.raises(ConfigError, match="unknown algorithm"):
        ExperimentConfig("zdt1", "none", "racing")
    with pytest.raises(ConfigError, match="confidence"):
        ExperimentConfig("zdt1", "none", "rsp-i", sampling_budget=5)
    # The estimator is derived from the algorithm, not a setting.
    with pytest.raises(TypeError, match="estimator"):
        ExperimentConfig("zdt1", "none", "static-avg", sampling_budget=5, estimator="median")
    with pytest.raises(ConfigError, match="population initialization"):
        ExperimentConfig("zdt1", "none", "implicit", population_size=50, max_evaluations=10)
    with pytest.raises(ConfigError, match="seeds"):
        ExperimentConfig("zdt1", "none", "implicit", seeds=())


def test_config_rejects_non_finite_proximity():
    # x < nan is always False, so a NaN threshold would silently disable
    # the proximity stop.
    for value in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="proximity_threshold"):
            ExperimentConfig("zdt1", "none", "rsp-i", sampling_budget=5, confidence=0.5,
                             proximity_threshold=value)


def test_config_pickle_roundtrip():
    # Batch workers receive configs pickled; equal configs must hash alike,
    # because grid expansion deduplicates on the config itself.
    for cfg in (
        _tiny(),
        _tiny("static-med", sampling_budget=4),
        _tiny("rsp-avg", sampling_budget=6, confidence=0.25, seeds=(3, 4, 5)),
    ):
        copy = pickle.loads(pickle.dumps(cfg))
        assert copy == cfg
        assert hash(copy) == hash(cfg)
    # Canonical forms of one cell are equal and hash alike.
    spelled = ExperimentConfig("ZDT1", "None", "implicit", sampling_budget=7,
                               population_size=8, max_evaluations=200, seeds=(0,))
    assert spelled == _tiny()
    assert hash(spelled) == hash(_tiny())
    assert _tiny() != _tiny(seeds=(1,))


def test_run_filenames_distinguish_variants_and_seeds():
    names = {
        _tiny().run_filename(0),
        _tiny().run_filename(1),
        _tiny("static-avg", sampling_budget=5).run_filename(0),
        _tiny("rsp-avg", sampling_budget=5, confidence=0.25).run_filename(0),
        _tiny("rsp-avg", sampling_budget=5, confidence=0.95).run_filename(0),
    }
    assert len(names) == 5


# ---------------------------------------------------------------------------
# single runs


def test_budget_floor_leaves_no_room_for_generations():
    cfg = _tiny(population_size=8, max_evaluations=8)
    record = run_experiment(cfg, seed=0)
    assert record.gen_rows == []
    assert record.evaluations == 8
    assert record.final_points.shape == (8, 2)


def test_run_stays_within_budget_and_counts_consistently():
    for algorithm, kwargs in (
        ("implicit", {}),
        ("static-med", {"sampling_budget": 3}),
        ("rsp-avg", {"sampling_budget": 4, "confidence": 0.25}),
    ):
        cfg = _tiny(algorithm, noise="gaussian", max_evaluations=150, **kwargs)
        record = run_experiment(cfg, seed=7)
        assert record.evaluations <= cfg.max_evaluations
        cumulative = [row.cumulative_evaluations for row in record.gen_rows]
        assert cumulative == sorted(cumulative)
        assert record.evaluations == cumulative[-1]
        assert all(row.race_length >= 1 for row in record.gen_rows)


def test_max_generations_short_circuits_the_budget():
    cfg = _tiny(max_evaluations=10_000, max_generations=3)
    record = run_experiment(cfg, seed=1)
    assert len(record.gen_rows) == 3


def test_identical_runs_are_bit_identical(tmp_path):
    cfg = _tiny("rsp-med", noise="gaussian", sampling_budget=4, confidence=0.25,
                max_evaluations=300)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_run_csv(run_experiment(cfg, seed=3), a)
    write_run_csv(run_experiment(cfg, seed=3), b)
    assert a.read_bytes() == b.read_bytes()


def test_run_csv_roundtrip(tmp_path):
    for cfg in (_tiny("static-avg", noise="gaussian", sampling_budget=2, max_evaluations=100),
                _tiny("rsp-avg", noise="gaussian", sampling_budget=3, confidence=0.25)):
        record = run_experiment(cfg, seed=5)
        path = tmp_path / "run.csv"
        write_run_csv(record, path)
        data = read_run_csv(path)
        assert data.meta["problem"] == "zdt1"
        assert data.meta["algorithm"] == cfg.algorithm
        assert int(data.meta["seed"]) == 5
        assert int(data.meta["evaluations"]) == record.evaluations
        assert int(data.meta["generations"]) == len(record.gen_rows)
        assert data.points.shape == record.final_points.shape
        assert data.points.tobytes() == record.final_points.tobytes()
        assert data.gen_rows == record.gen_rows
        assert data.score["frame"] == "fallback"
        assert float(data.score["delta_hv"]) == pytest.approx(
            float(data.score["hv_front"]) - float(data.score["hv_solution"])
        )
    assert {row.stop_reason for row in data.gen_rows} - {""}


def test_read_run_csv_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_run_csv(path)


def _written_run(tmp_path) -> tuple[Path, list[str]]:
    path = tmp_path / "run.csv"
    write_run_csv(run_experiment(_tiny("rsp-i", noise="gaussian", sampling_budget=3,
                                       confidence=0.25, max_evaluations=200), seed=1), path)
    return path, path.read_text().splitlines(keepends=True)


def _first_line(lines, kind) -> int:
    return next(i for i, line in enumerate(lines) if line.startswith(kind + ","))


def test_read_run_csv_names_file_and_line_of_a_row_cut_short(tmp_path):
    path, lines = _written_run(tmp_path)
    cut = _first_line(lines, "gen") + 2
    path.write_text("".join(lines[:cut]) + "gen,119,")
    with pytest.raises(ConfigError, match=rf"run\.csv, line {cut + 1}: short gen row"):
        read_run_csv(path)


def test_read_run_csv_names_file_and_line_of_a_non_numeric_field(tmp_path, capsys):
    path, lines = _written_run(tmp_path)
    gen, pop, score = (_first_line(lines, kind) for kind in ("gen", "pop", "score"))
    delta_hv = _first_line(lines, "score,delta_hv")

    def replaced(row, text):
        return lines[:row] + [text] + lines[row + 1:], f"line {row + 1}: "

    # (the damaged file's lines, what the error names). The third and fourth follow
    # generation 1 with generation 9, and with a generation 2 that spent fewer evaluations
    # than the population; the sixth is a point wider than the one before it, and the
    # seventh a blank value; the eighth holds a count int64 cannot hold and the ninth ends in
    # a comma; the tenth moves the gen rows after the pop rows; the last gives a score key
    # twice, the first time before the real row.
    cases = (replaced(gen, "gen,1,x,0,0,0,1,3\n"), replaced(gen, "gen,1,60,0,2,0,0,3\n"),
             replaced(gen + 1, "gen,9,60,0,0,0,1,3\n"), replaced(gen + 1, "gen,2,0,0,0,0,1,3\n"),
             replaced(pop, "pop,0.5,abc\n"), replaced(pop + 1, "pop,0.5,0.5,0.5\n"),
             replaced(pop + 2, "pop,0.5, \n"),
             replaced(gen + 1, "gen,2,99999999999999999999,0,0,0,1,3\n"),
             replaced(gen, lines[gen].rstrip("\n") + ",\n"),
             (lines[:gen] + lines[pop:score] + lines[gen:pop] + lines[score:],
              f"line {gen + score - pop + 1}: 'gen' row"),
             (lines[:score] + ["score,delta_hv,-5.0\n"] + lines[score:],
              f"line {delta_hv + 2}: score key 'delta_hv' repeats line {score + 1}"))
    summary = tmp_path / "summary.csv"
    for damaged, named in cases:
        path.write_text("".join(damaged))
        with pytest.raises(ConfigError, match=re.escape(f"run.csv, {named}")):
            read_run_csv(path)
        # score reads run files through the same reader.
        assert cli_main(["score", "--in", str(path), "--out", str(summary)]) == 2
        assert f"run.csv, {named}" in capsys.readouterr().err
    assert not summary.exists()


def test_read_run_csv_counts_values_where_fromstring_stops_at_a_bad_field(tmp_path, monkeypatch):
    # numpy 1.x np.fromstring returns the values read before a bad field, with only a warning.
    def stops_at_a_bad_field(text, dtype, sep):
        values = []
        for field in text.split(sep):
            try:
                values.append(dtype(field))
            except ValueError:
                break
        return np.array(values, dtype)

    path, lines = _written_run(tmp_path)
    clean = read_run_csv(path)
    monkeypatch.setattr(harness.np, "fromstring", stops_at_a_bad_field)
    data = read_run_csv(path)
    assert data.gen_rows == clean.gen_rows and data.points.tobytes() == clean.points.tobytes()
    pop = _first_line(lines, "pop")
    # Two rows in, the values before the bad field fill whole rows: a truncated population.
    for row, text in ((pop, "pop,0.5,abc\n"), (pop + 2, "pop,abc,0.5\n")):
        path.write_text("".join(lines[:row] + [text] + lines[row + 1:]))
        with pytest.raises(ConfigError, match=rf"run\.csv, line {row + 1}: malformed pop row"):
            read_run_csv(path)


def test_read_run_csv_rejects_a_missing_population(tmp_path):
    path, lines = _written_run(tmp_path)
    path.write_text("".join(line for line in lines if not line.startswith("pop,")))
    with pytest.raises(ConfigError, match=r"run\.csv, line \d+: .*final population"):
        read_run_csv(path)


def test_read_run_csv_keeps_every_stop_reason(tmp_path):
    path, lines = _written_run(tmp_path)
    row = _first_line(lines, "gen")
    tallies = ["1,0,0,0", "0,1,0,0", "0,0,1,0", "0,0,0,1", "0,0,0,0"]
    gens = [f"gen,{i + 1},{60 + i},{t},2\n" for i, t in enumerate(tallies)]
    n_gens = sum(line.startswith("gen,") for line in lines)
    path.write_text("".join(lines[:row] + gens + lines[row + n_gens:]))
    rows = read_run_csv(path).gen_rows
    assert [r.stop_reason for r in rows] == [
        "quota_selected", "quota_discarded", "proximity", "t_max", ""
    ]
    assert [(r.generation, r.cumulative_evaluations, r.race_length) for r in rows] == [
        (i + 1, 60 + i, 2) for i in range(5)
    ]


def test_racing_runs_log_stop_reasons():
    cfg = _tiny("rsp-i", noise="gaussian", sampling_budget=4, confidence=0.25,
                max_evaluations=400)
    record = run_experiment(cfg, seed=2)
    reasons = {row.stop_reason for row in record.gen_rows}
    valid = {"quota_selected", "quota_discarded", "proximity", "t_max"}
    assert reasons <= valid and reasons


# ---------------------------------------------------------------------------
# batches and scoring


def test_batch_one_config_two_seeds(tmp_path):
    cfg = _tiny(seeds=(0, 1))
    summary, significance = run_batch([cfg], tmp_path)
    rows = _read_rows(summary)
    assert len(rows) == 2
    assert tuple(rows[0]) == SUMMARY_COLUMNS
    assert {r["seed"] for r in rows} == {"0", "1"}
    assert len(list((tmp_path / "runs").glob("*.csv"))) == 2
    # only one variant, so no pairwise tests
    assert _read_rows(significance) == []


def test_batch_deduplicates_repeated_configs(tmp_path):
    cfg = _tiny(seeds=(0, 1))
    run_batch([cfg, cfg], tmp_path)
    assert len(list((tmp_path / "runs").glob("*.csv"))) == 2


def test_identical_variants_score_p_value_one(tmp_path):
    # Same trajectories, different labels: under zero noise the mean and
    # median estimators see identical archives, so every paired difference
    # is zero and the test must report 1.0.
    seeds = (0, 1, 2, 3, 4)
    avg = _tiny("static-avg", sampling_budget=2, max_evaluations=120, seeds=seeds)
    med = _tiny("static-med", sampling_budget=2, max_evaluations=120, seeds=seeds)
    _, significance = run_batch([avg, med], tmp_path)
    rows = _read_rows(significance)
    assert len(rows) == 1
    assert rows[0]["algorithm_a"] == "static-avg"
    assert rows[0]["algorithm_b"] == "static-med"
    assert int(rows[0]["n"]) == 5
    assert float(rows[0]["p_value"]) == 1.0


def test_significance_needs_five_common_seeds(tmp_path):
    avg = _tiny("static-avg", sampling_budget=2, max_evaluations=120, seeds=(0, 1, 2))
    med = _tiny("static-med", sampling_budget=2, max_evaluations=120, seeds=(0, 1, 2))
    _, significance = run_batch([avg, med], tmp_path)
    assert _read_rows(significance) == []


def test_parallel_batch_matches_sequential_bytes(tmp_path):
    configs = [
        _tiny("implicit", noise="gaussian", seeds=(0, 1, 2)),
        _tiny("rsp-med", noise="gaussian", sampling_budget=3, confidence=0.25,
              seeds=(0, 1, 2)),
    ]
    seq_dir = tmp_path / "seq"
    par_dir = tmp_path / "par"
    run_batch(configs, seq_dir, jobs=1)
    run_batch(configs, par_dir, jobs=3)
    seq_files = sorted(p.relative_to(seq_dir) for p in seq_dir.rglob("*.csv"))
    par_files = sorted(p.relative_to(par_dir) for p in par_dir.rglob("*.csv"))
    assert seq_files == par_files
    for rel in seq_files:
        assert _digest(seq_dir / rel) == _digest(par_dir / rel), rel


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.mark.parametrize(
    "jobs, seeds, cpus, expected",
    [(64, (0, 1, 2, 3, 4), 3, [3]), (64, (0, 1), 8, [2]), (2, (0, 1, 2), 8, [2]),
     (64, (0, 1, 2), None, [])],
)
def test_batch_pool_is_bounded_by_jobs_runs_and_cpus(tmp_path, monkeypatch,
                                                      jobs, seeds, cpus, expected):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _RecordingPool)
    if cpus is None:
        # No affinity call on the platform and an unknown CPU count: one worker.
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    else:
        # The CPUs this process may run on, not the machine's count, bound the pool.
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    run_batch([_tiny(max_evaluations=30, seeds=seeds)], tmp_path, jobs=jobs)
    assert _RecordingPool.sizes == expected
    assert len(_read_rows(tmp_path / "summary.csv")) == len(seeds)


def test_score_runs_single_file(tmp_path):
    cfg = _tiny()
    record = run_experiment(cfg, seed=0)
    run_path = tmp_path / "single.csv"
    write_run_csv(record, run_path)
    summary = tmp_path / "summary.csv"
    significance = tmp_path / "sig.csv"
    score_runs(run_path, summary, significance)
    rows = _read_rows(summary)
    assert len(rows) == 1
    assert rows[0]["algorithm"] == "implicit"
    assert int(rows[0]["evaluations"]) == record.evaluations


def test_score_runs_missing_source(tmp_path):
    with pytest.raises(ConfigError, match="no such run source"):
        score_runs(tmp_path / "absent", tmp_path / "s.csv", tmp_path / "g.csv")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ConfigError, match="no run files"):
        score_runs(empty, tmp_path / "s.csv", tmp_path / "g.csv")


def test_score_runs_reads_each_run_file_once_and_skips_foreign_files(tmp_path, monkeypatch):
    batch = tmp_path / "batch"
    summary, _ = run_batch([_tiny(seeds=(0, 1))], batch)
    run_names = sorted(path.name for path in (batch / "runs").glob("*.csv"))
    opened = []
    real_open = Path.open

    def recording_open(self, *args, **kwargs):
        opened.append(self.name)
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", recording_open)
    # The batch directory also holds summary.csv and significance.csv.
    rescored = tmp_path / "rescored.csv"
    score_runs(batch, rescored, tmp_path / "rescored_sig.csv")
    assert sorted(name for name in opened if name in run_names) == run_names
    assert rescored.read_bytes() == summary.read_bytes()


def test_batch_frame_scores_differ_from_fallback_only_by_frame(tmp_path):
    # The per-run fallback score and the batch score use different nadirs,
    # but both must agree that the front hypervolume bounds the solution.
    cfg = _tiny("implicit", noise="gaussian", seeds=(0,))
    summary, _ = run_batch([cfg], tmp_path)
    row = _read_rows(summary)[0]
    run_file = next((tmp_path / "runs").glob("*.csv"))
    fallback = read_run_csv(run_file).score
    assert 0.0 <= float(row["delta_hv"])
    assert 0.0 <= float(fallback["delta_hv"])


# ---------------------------------------------------------------------------
# grid files


GRID = """
# comment line
problems = zdt1
noises = none, gaussian
algorithms = implicit, static-avg, rsp-i
budgets = 2, 3
confidences = 0.25
population = 8
evaluations = 120
runs = 2
master_seed = 5
"""


def test_parse_and_expand_grid():
    grid = parse_grid(GRID)
    configs = expand_grid(grid)
    # implicit collapses budgets: 1 per noise. static-avg: 2 budgets.
    # rsp-i: 2 budgets x 1 confidence. Per noise: 1 + 2 + 2 = 5.
    assert len(configs) == 10
    for cfg in configs:
        assert cfg.population_size == 8
        assert cfg.max_evaluations == 120
        assert cfg.seeds == (5, 6)
    implicit = [c for c in configs if c.algorithm == "implicit"]
    assert len(implicit) == 2
    assert {c.sampling_budget for c in implicit} == {1}


def test_expand_grid_requires_budgets_for_sampling_algorithms():
    with pytest.raises(ConfigError, match="budgets"):
        expand_grid({"problems": ["zdt1"], "noises": ["none"], "algorithms": ["static-avg"]})
    with pytest.raises(ConfigError, match="confidences"):
        expand_grid(
            {
                "problems": ["zdt1"],
                "noises": ["none"],
                "algorithms": ["rsp-i"],
                "budgets": ["3"],
            }
        )


def test_expand_grid_names_a_non_integer_budget():
    grid = parse_grid(GRID.replace("budgets = 2, 3", "budgets = 2.5"))
    with pytest.raises(ConfigError, match="budgets must be an integer, got '2.5'"):
        expand_grid(grid)
    grid = parse_grid(GRID.replace("population = 8", "population = many"))
    with pytest.raises(ConfigError, match="population must be an integer"):
        expand_grid(grid)
    grid = parse_grid(GRID + "proximity = nan\n")
    with pytest.raises(ConfigError, match="proximity_threshold"):
        expand_grid(grid)


def test_expand_grid_lower_cases_algorithm_ids():
    lower = parse_grid(GRID)
    mixed = parse_grid(GRID.replace("algorithms = implicit, static-avg, rsp-i",
                                    "algorithms = IMPLICIT, Static-Avg, RSP-i"))
    assert mixed["algorithms"] != lower["algorithms"]
    assert expand_grid(mixed) == expand_grid(lower)
    # Implicit needs no budgets, whatever its spelling.
    assert expand_grid({"problems": ["zdt1"], "noises": ["none"], "algorithms": ["IMPLICIT"]})


def test_expand_grid_names_an_unknown_algorithm_before_its_missing_budgets():
    grid = {"problems": ["zdt1"], "noises": ["none"], "algorithms": ["racing"]}
    with pytest.raises(ConfigError, match=r"unknown algorithm: 'racing' \(valid: implicit, "):
        expand_grid(grid)


def test_parse_grid_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown grid key"):
        parse_grid("flavor = vanilla\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_grid("problems zdt1\n")


def test_parse_grid_rejects_empty_values_naming_key_and_line():
    # An empty value would otherwise run the default (all five problems).
    for text, line in (("problems =\n", 1), ("runs = 2\nevaluations =   \n", 2),
                       ("# x\nnoises = , ,\n", 2)):
        with pytest.raises(ConfigError, match=rf"line {line}: grid key '\w+' has no value"):
            parse_grid(text)
    # An omitted key still means its default.
    assert expand_grid(parse_grid("problems = zdt1\nnoises = none\nalgorithms = implicit\n"))


def test_parse_grid_rejects_a_repeated_key_naming_both_lines():
    with pytest.raises(ConfigError, match="line 3: grid key 'runs' repeats line 1"):
        parse_grid("runs = 2\npopulation = 8\nruns = 3\n")
    with pytest.raises(ConfigError, match="line 2: grid key 'budgets' repeats line 1"):
        parse_grid("budgets = 2\nbudgets = 3\n")


def test_grid_key_jobs_is_rejected(tmp_path, capsys):
    # Workers are set by --jobs alone; a grid key that nothing reads is refused.
    with pytest.raises(ConfigError, match="unknown grid key: 'jobs'"):
        parse_grid("jobs = 2\n")
    grid_path = tmp_path / "grid.cfg"
    grid_path.write_text(GRID + "jobs = 8\n")
    assert cli_main(["batch", "--config", str(grid_path), "--out", str(tmp_path / "out")]) == 2
    assert "unknown grid key: 'jobs'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# boxplot summaries


def _summary_file(tmp_path, rows):
    path = tmp_path / "summary.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow(row)
    return path


def test_boxplot_five_number_summary(tmp_path):
    rows = [
        ("zdt1", "none", "implicit", "last", 1, "0.0", seed, str(float(v)), 100)
        for seed, v in enumerate([1, 2, 3, 4, 5])
    ]
    path = _summary_file(tmp_path, rows)
    out = tmp_path / "box.csv"
    emit_boxplot_data(path, out)
    got = _read_rows(out)
    assert len(got) == 1
    row = got[0]
    assert tuple(row) == BOXPLOT_COLUMNS
    assert int(row["count"]) == 5
    assert float(row["min"]) == 1.0
    assert float(row["q1"]) == 2.0
    assert float(row["median"]) == 3.0
    assert float(row["q3"]) == 4.0
    assert float(row["max"]) == 5.0


def test_cli_boxplot_rejects_bad_summaries_naming_file_and_culprit(tmp_path, capsys):
    good = ("zdt1", "none", "implicit", "last", 1, "0.0", 0, "0.5", 100)
    path = _summary_file(tmp_path, [good, good])
    out = tmp_path / "box.csv"
    lines = path.read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\r\n").split(",")
    for column in ("budget", "delta_hv", "problem"):
        at = header.index(column)
        path.write_text("".join(
            ",".join(f for i, f in enumerate(line.rstrip("\r\n").split(",")) if i != at) + "\n"
            for line in lines
        ))
        assert cli_main(["boxplot", "--in", str(path), "--out", str(out)]) == 2
        assert f"summary.csv: missing column '{column}'" in capsys.readouterr().err
    bad = {
        "budget": ("one", "budget must be an integer, got 'one'"),
        "delta_hv": ("nan", "delta_hv must be finite, got 'nan'"),
        "confidence": ("inf", "confidence must be finite, got 'inf'"),
    }
    for column, (value, message) in bad.items():
        row = list(good)
        row[header.index(column)] = value
        path = _summary_file(tmp_path, [good, row])
        assert cli_main(["boxplot", "--in", str(path), "--out", str(out)]) == 2
        assert f"summary.csv, line 3: {message}" in capsys.readouterr().err
    path.write_text("".join(lines[:2]) + "zdt1,none,implicit,last,1\n")
    assert cli_main(["boxplot", "--in", str(path), "--out", str(out)]) == 2
    assert "summary.csv, line 3: short row" in capsys.readouterr().err
    assert not out.exists()


def test_boxplot_groups_by_variant(tmp_path):
    rows = [
        ("zdt1", "none", "implicit", "last", 1, "0.0", 0, "0.5", 100),
        ("zdt1", "none", "static-avg", "mean", 5, "0.0", 0, "0.25", 100),
    ]
    path = _summary_file(tmp_path, rows)
    out = tmp_path / "box.csv"
    emit_boxplot_data(path, out)
    got = _read_rows(out)
    assert len(got) == 2
    assert {r["algorithm"] for r in got} == {"implicit", "static-avg"}


# ---------------------------------------------------------------------------
# command line


def test_cli_run_and_score_and_boxplot(tmp_path, capsys):
    run_path = tmp_path / "run.csv"
    code = cli_main(
        [
            "run",
            "--problem", "zdt1",
            "--noise", "none",
            "--algo", "implicit",
            "--pop", "8",
            "--evals", "100",
            "--seed", "0",
            "--out", str(run_path),
        ]
    )
    assert code == 0
    assert run_path.is_file()
    assert "wrote" in capsys.readouterr().out

    summary = tmp_path / "summary.csv"
    assert cli_main(["score", "--in", str(run_path), "--out", str(summary)]) == 0
    assert summary.is_file()
    assert summary.with_name("summary_significance.csv").is_file()

    box = tmp_path / "box.csv"
    assert cli_main(["boxplot", "--in", str(summary), "--out", str(box)]) == 0
    assert box.is_file()


def test_cli_run_lower_cases_the_algorithm_id(tmp_path, capsys):
    common = ["run", "--problem", "zdt1", "--noise", "none", "--pop", "8",
              "--evals", "60", "--seed", "0"]
    lower, upper = tmp_path / "lower.csv", tmp_path / "upper.csv"
    assert cli_main(common + ["--algo", "implicit", "--out", str(lower)]) == 0
    assert cli_main(common + ["--algo", "IMPLICIT", "--out", str(upper)]) == 0
    assert upper.read_bytes() == lower.read_bytes()
    capsys.readouterr()
    code = cli_main(common + ["--algo", "RSP-Med", "--budget", "3", "--out", str(upper)])
    assert code == 2
    assert "--confidence is required for algorithm 'rsp-med'" in capsys.readouterr().err


def test_cli_run_names_an_unknown_algorithm_before_its_missing_budget(tmp_path, capsys):
    code = cli_main(["run", "--problem", "zdt1", "--noise", "none", "--algo", "Racing",
                     "--seed", "0", "--out", str(tmp_path / "run.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown algorithm: 'racing' (valid: implicit, " in err
    assert "--budget" not in err


def test_cli_batch(tmp_path):
    grid_path = tmp_path / "grid.cfg"
    grid_path.write_text(
        "problems = zdt1\nnoises = none\nalgorithms = implicit\n"
        "population = 8\nevaluations = 60\nruns = 2\n"
    )
    out_dir = tmp_path / "out"
    assert cli_main(["batch", "--config", str(grid_path), "--out", str(out_dir)]) == 0
    assert (out_dir / "summary.csv").is_file()
    assert (out_dir / "significance.csv").is_file()


def test_cli_configuration_errors_exit_2(tmp_path, capsys):
    code = cli_main(
        [
            "run",
            "--problem", "zdt1",
            "--noise", "none",
            "--algo", "rsp-med",
            "--seed", "0",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert cli_main(["batch", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)]) == 2


def test_cli_malformed_inputs_exit_2_naming_the_culprit(tmp_path, capsys):
    path, lines = _written_run(tmp_path)
    summary = tmp_path / "summary.csv"
    path.write_text("".join(lines[: _first_line(lines, "gen") + 1]) + "gen,119,")
    assert cli_main(["score", "--in", str(path), "--out", str(summary)]) == 2
    assert "run.csv, line" in capsys.readouterr().err
    path.write_text("".join(line for line in lines if not line.startswith("pop,")))
    assert cli_main(["score", "--in", str(tmp_path), "--out", str(summary)]) == 2
    assert "final population" in capsys.readouterr().err
    grid_path = tmp_path / "grid.cfg"
    grid_path.write_text(GRID.replace("budgets = 2, 3", "budgets = 2.5"))
    code = cli_main(["batch", "--config", str(grid_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "budgets" in capsys.readouterr().err


def test_cli_score_rejects_a_front_resolution_below_two(tmp_path, capsys):
    path, _ = _written_run(tmp_path)
    summary = tmp_path / "summary.csv"
    for value in ("1", "0", "-4"):
        code = cli_main(["score", "--in", str(path), "--out", str(summary),
                         "--front-resolution", value])
        assert code == 2
        assert f"--front-resolution must be at least 2, got {value}" in capsys.readouterr().err
    assert not summary.exists()
    assert cli_main(["score", "--in", str(path), "--out", str(summary),
                     "--front-resolution", "2"]) == 0


def test_cli_run_file_missing_a_meta_key_exits_2_naming_file_and_key(tmp_path, capsys):
    path, lines = _written_run(tmp_path)
    summary = tmp_path / "summary.csv"
    for key in ("problem", "noise", "algorithm", "estimator", "sampling_budget",
                "confidence", "proximity_threshold", "population_size", "max_evaluations",
                "max_generations", "seed", "generations", "evaluations"):
        path.write_text("".join(line for line in lines if not line.startswith(f"meta,{key},")))
        assert cli_main(["score", "--in", str(path), "--out", str(summary)]) == 2
        assert f"run.csv: missing meta key '{key}'" in capsys.readouterr().err
    path.write_text("".join("meta,seed,one\n" if line.startswith("meta,seed,") else line
                            for line in lines))
    assert cli_main(["score", "--in", str(path), "--out", str(summary)]) == 2
    assert "run.csv: meta seed must be an integer, got 'one'" in capsys.readouterr().err
    path.write_text("meta,colour,blue\n" + "".join(lines))
    assert cli_main(["score", "--in", str(path), "--out", str(summary)]) == 2
    assert "run.csv: meta key 'colour' is not a run-file key" in capsys.readouterr().err
    assert not summary.exists()


def test_cli_score_rejects_non_finite_values_naming_file_and_culprit(tmp_path, capsys):
    path, lines = _written_run(tmp_path)
    summary = tmp_path / "summary.csv"
    pop = _first_line(lines, "pop") + 3
    for value in ("nan", "-inf"):
        path.write_text("".join(lines[:pop] + [f"pop,0.5,{value}\n"] + lines[pop + 1:]))
        assert cli_main(["score", "--in", str(path), "--out", str(summary)]) == 2
        assert (f"run.csv, line {pop + 1}: non-finite pop row 'pop,0.5,{value}'"
                in capsys.readouterr().err)
        assert cli_main(["score", "--in", str(tmp_path), "--out", str(summary)]) == 2
        assert f"run.csv, line {pop + 1}" in capsys.readouterr().err
    path.write_text("".join("meta,confidence,nan\n" if line.startswith("meta,confidence,")
                            else line for line in lines))
    assert cli_main(["score", "--in", str(path), "--out", str(summary)]) == 2
    assert ("run.csv: meta confidence must be finite, got 'nan'"
            in capsys.readouterr().err)
    assert not summary.exists()


def test_cli_run_rejects_flags_its_algorithm_ignores(tmp_path, capsys):
    common = ["run", "--problem", "zdt1", "--noise", "none", "--pop", "8",
              "--evals", "60", "--seed", "0", "--out", str(tmp_path / "run.csv")]
    for algo, extra, flag in (
        ("implicit", ["--budget", "9"], "--budget"),
        ("implicit", ["--confidence", "0.5"], "--confidence"),
        ("static-avg", ["--budget", "2", "--confidence", "0.5"], "--confidence"),
        ("Static-Med", ["--budget", "2", "--confidence", "0.5"], "--confidence"),
    ):
        assert cli_main(common + ["--algo", algo] + extra) == 2
        err = capsys.readouterr().err
        assert f"{flag} does not apply to algorithm {algo.lower()!r}" in err
    assert not (tmp_path / "run.csv").exists()
    assert cli_main(common + ["--algo", "static-avg", "--budget", "2"]) == 0


def test_cli_runtime_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    summary = tmp_path / "summary.csv"
    assert cli_main(["score", "--in", str(bad), "--out", str(summary)]) == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the algorithm table: which settings each algorithm takes

_FLAG_VALUES = {"budget": "2", "confidence": "0.5"}


def _flags(settings) -> list[str]:
    return [arg for setting in settings for arg in (f"--{setting}", _FLAG_VALUES[setting])]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_cli_run_takes_exactly_the_flags_the_table_lists(algorithm, tmp_path, capsys):
    takes = ALGORITHMS[algorithm][1]
    out = tmp_path / "run.csv"
    common = ["run", "--problem", "zdt1", "--noise", "none", "--pop", "8", "--evals", "60",
              "--seed", "0", "--algo", algorithm, "--out", str(out)]
    for setting in ("budget", "confidence"):
        if setting in takes:
            argv = common + _flags(s for s in takes if s != setting)
            rule = "is required for"
        else:
            argv = common + _flags(takes) + _flags([setting])
            rule = "does not apply to"
        assert cli_main(argv) == 2
        assert f"--{setting} {rule} algorithm {algorithm!r}" in capsys.readouterr().err
    assert not out.exists()
    assert cli_main(common + _flags(takes)) == 0


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_expand_grid_requires_the_lists_the_table_lists(algorithm):
    takes = ALGORITHMS[algorithm][1]
    full = {"problems": ["zdt1"], "noises": ["none"], "algorithms": [algorithm],
            "budgets": ["2"], "confidences": ["0.5"]}
    (cfg,) = expand_grid(full)
    assert cfg.sampling_budget == (2 if "budget" in takes else 1)
    assert cfg.confidence == (0.5 if "confidence" in takes else 0.0)
    for setting in ("budget", "confidence"):
        grid = {key: value for key, value in full.items() if key != setting + "s"}
        if setting in takes:
            with pytest.raises(ConfigError,
                               match=f"^{algorithm} requires a {setting}s list in the grid$"):
                expand_grid(grid)
        else:
            assert expand_grid(grid) == [cfg]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_config_and_selector_reject_a_bad_setting_with_one_message(algorithm):
    takes = ALGORITHMS[algorithm][1]
    budget_message = "sampling_budget must be at least 1"
    confidence_message = "racing algorithms need a confidence in (0, 1)"
    for budget, confidence, setting, message in (
        (0, 0.5, "budget", budget_message),
        (-3, 0.5, "budget", budget_message),
        (2, 0.0, "confidence", confidence_message),
        (2, 1.0, "confidence", confidence_message),
        (2, float("nan"), "confidence", confidence_message),
    ):
        if setting in takes:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                make_selector(algorithm, budget, confidence)
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                _tiny(algorithm, sampling_budget=budget, confidence=confidence)
        else:
            make_selector(algorithm, budget, confidence)
            _tiny(algorithm, sampling_budget=budget, confidence=confidence)


# ---------------------------------------------------------------------------
# configurations refused before any run


def test_batch_refuses_two_configs_that_write_one_run_file(tmp_path):
    small, large = _tiny(population_size=8), _tiny(population_size=10)
    name = small.run_filename(0)
    assert large.run_filename(0) == name
    with pytest.raises(ConfigError, match=f"write run file {re.escape(name)}$"):
        run_batch([small, large], tmp_path)
    assert not (tmp_path / "runs").exists()
    # The same (config, seed) pair runs once, whatever seed lists carry it.
    run_batch([_tiny(seeds=(0, 1)), _tiny(seeds=(1, 2))], tmp_path)
    assert len(list((tmp_path / "runs").glob("*.csv"))) == 3


def test_negative_seeds_exit_2_before_any_run(tmp_path, capsys):
    with pytest.raises(ConfigError, match="seeds must be non-negative, got -1"):
        _tiny(seeds=(3, -1))
    out = tmp_path / "run.csv"
    assert cli_main(["run", "--problem", "zdt1", "--noise", "none", "--algo", "implicit",
                     "--seed", "-1", "--out", str(out)]) == 2
    assert "configuration error: seeds must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()
    grid_path = tmp_path / "grid.cfg"
    grid_path.write_text(GRID.replace("master_seed = 5", "master_seed = -1"))
    out_dir = tmp_path / "out"
    assert cli_main(["batch", "--config", str(grid_path), "--out", str(out_dir)]) == 2
    assert "configuration error: seeds must be non-negative, got -1" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_score_names_file_and_key_of_an_unknown_meta_problem(tmp_path, capsys):
    path, lines = _written_run(tmp_path)
    path.write_text("".join("meta,problem,zdt7\n" if line.startswith("meta,problem,") else line
                            for line in lines))
    summary = tmp_path / "summary.csv"
    assert cli_main(["score", "--in", str(path), "--out", str(summary)]) == 2
    err = capsys.readouterr().err
    assert "run.csv: meta unknown problem: 'zdt7' (valid: zdt1, zdt2, zdt3, zdt4, zdt6)" in err
    assert not summary.exists()


# (algorithm of the written run, meta rows replaced, text naming the key)
META_EDITS = (
    ("rsp-i", {"noise": "pink"},
     "meta unknown noise: 'pink' (valid: none, gaussian, cauchy, gumbel)"),
    ("rsp-i", {"sampling_budget": "-7", "confidence": "5.0"},
     "meta sampling_budget must be at least 1"),
    ("implicit", {"sampling_budget": "7"},
     "meta sampling_budget '7' differs from the canonical 1"),
    ("rsp-med", {"estimator": "mean"},
     "meta estimator 'mean' differs from the canonical 'median'"),
    ("rsp-i", {"population_size": "-5"}, "meta population_size must be at least 2"),
    ("rsp-i", {"max_evaluations": "-1"},
     "meta max_evaluations must cover population initialization"),
    ("rsp-i", {"proximity_threshold": "nan"}, "meta proximity_threshold must be finite, got 'nan'"),
    ("rsp-avg", {"proximity_threshold": "0.50"},
     "meta proximity_threshold '0.50' differs from the canonical 0.5"),
    ("rsp-i", {"evaluations": "999999"}, "meta evaluations '999999' differs from the canonical"),
    ("rsp-i", {"generations": "7777"}, "meta generations '7777' differs from the canonical"),
    ("implicit", {"max_evaluations": "100"}, "meta evaluations 198 exceed max_evaluations 100"),
    ("rsp-i", {"max_generations": "1"}, "meta generations 7 exceed max_generations 1"),
    ("implicit", {"population_size": "6"}, "meta population_size 6 differs from the 8 pop rows"),
)


@pytest.mark.parametrize("algorithm, edits, named", META_EDITS,
                         ids=[case[0] + "-" + "-".join(case[1]) for case in META_EDITS])
def test_cli_score_rejects_meta_its_configuration_would_not_write(tmp_path, capsys, algorithm,
                                                                  edits, named):
    path = tmp_path / "run.csv"
    settings = {} if algorithm == "implicit" else {"sampling_budget": 3, "confidence": 0.25}
    write_run_csv(run_experiment(_tiny(algorithm, noise="gaussian", **settings), seed=1), path)
    lines = path.read_text().splitlines(keepends=True)
    # The file as written scores; only the edit makes it fail.
    assert cli_main(["score", "--in", str(path), "--out", str(tmp_path / "ok.csv")]) == 0
    capsys.readouterr()
    for key, value in edits.items():
        row = _first_line(lines, f"meta,{key}")
        lines[row] = f"meta,{key},{value}\n"
    path.write_text("".join(lines))
    summary = tmp_path / "summary.csv"
    assert cli_main(["score", "--in", str(path), "--out", str(summary)]) == 2
    assert f"run.csv: {named}" in capsys.readouterr().err
    assert not summary.exists()


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_grid_runs_below_one_exits_2_naming_runs_before_any_run(tmp_path, capsys, runs):
    text = GRID.replace("runs = 2", f"runs = {runs}")
    with pytest.raises(ConfigError, match=rf"^runs must be at least 1, got {runs}$"):
        expand_grid(parse_grid(text))
    grid_path = tmp_path / "grid.cfg"
    grid_path.write_text(text)
    out_dir = tmp_path / "out"
    assert cli_main(["batch", "--config", str(grid_path), "--out", str(out_dir)]) == 2
    assert f"configuration error: runs must be at least 1, got {runs}" in capsys.readouterr().err
    assert not out_dir.exists()


# (kind, its names in table order, an unknown name, the library lookup,
# a config built around the name)
REGISTRIES = (
    ("problem", PROBLEM_NAMES, "zdt7", make_problem,
     lambda name: ExperimentConfig(name, "none", "implicit")),
    ("noise", NOISE_NAMES, "laplace", make_noise,
     lambda name: ExperimentConfig("zdt1", name, "implicit")),
    ("algorithm", ALGORITHM_IDS, "racing", lambda name: make_selector(name, 3, 0.5),
     lambda name: ExperimentConfig("zdt1", "none", name, 3, 0.5)),
)


@pytest.mark.parametrize("kind, names, unknown, resolve, configure", REGISTRIES,
                         ids=[case[0] for case in REGISTRIES])
def test_every_registry_resolves_any_case_and_names_unknown_entries_alike(
        kind, names, unknown, resolve, configure):
    for name in names:
        for spelling in (name, name.upper()):
            resolve(spelling)
            assert getattr(configure(spelling), kind) == name
    message = f"unknown {kind}: '{unknown}' (valid: {', '.join(names)})"
    with pytest.raises(ValueError) as library:
        resolve(unknown)
    assert type(library.value) is ValueError and str(library.value) == message
    with pytest.raises(ConfigError) as config:
        configure(unknown)
    assert str(config.value) == message
    if kind == "noise":
        # The model's own draw looks its kind up in the same table.
        with pytest.raises(ValueError) as draw:
            NoiseModel(unknown).draw(2, make_rng(0))
        assert type(draw.value) is ValueError and str(draw.value) == message


def test_cli_score_names_both_lines_of_a_repeated_meta_key(tmp_path, capsys):
    # An earlier meta,seed,99 row must not be silently overridden by the real one.
    path, lines = _written_run(tmp_path)
    seed = _first_line(lines, "meta,seed")
    path.write_text("".join(lines[:1] + ["meta,seed,99\n"] + lines[1:]))
    summary = tmp_path / "summary.csv"
    assert cli_main(["score", "--in", str(path), "--out", str(summary)]) == 2
    assert f"run.csv, line {seed + 2}: meta key 'seed' repeats line 2" in capsys.readouterr().err
    assert not summary.exists()


def test_cli_score_names_the_first_pop_line_of_rows_wider_than_the_problem(tmp_path, capsys):
    path, lines = _written_run(tmp_path)
    pop = _first_line(lines, "pop")
    path.write_text("".join(line.rstrip("\n") + ",0.5\n" if line.startswith("pop,") else line
                            for line in lines))
    summary = tmp_path / "summary.csv"
    assert cli_main(["score", "--in", str(path), "--out", str(summary)]) == 2
    err = capsys.readouterr().err
    assert f"run.csv, line {pop + 1}: pop row '{lines[pop].rstrip()},0.5' holds 3 values" in err
    assert "zdt1 has 2 objectives" in err
    assert not summary.exists()
