"""The benchmark's workloads: inputs made from the workload seed, the CLI
commands of one pass, and the checks on what a pass wrote.

Every run seed is derived from the workload seed, so the same seed gives
the same inputs and different seeds give disjoint ones.
"""
from __future__ import annotations

import csv
import hashlib
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from raceopt import cli
from raceopt.harness import ExperimentConfig, GenRow, RunRecord, read_run_csv, write_run_csv
from raceopt.problems import make_problem

ALGORITHMS = ("implicit", "static-avg", "static-med", "rsp-i", "rsp-avg", "rsp-med")
POPULATION = 40
QUOTA_STOPS = ("quota_selected", "quota_discarded")


@dataclass
class PassReport:
    """What the checks found in the outputs of one pass."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    files: int = 0
    evaluations: int = 0  # summed from the files the pass produced or scored
    produced_evaluations: int = 0  # summed from the run files the pass wrote
    race_generations: int = 0
    race_iterations: int = 0
    quota_stops: int = 0
    delta_hv: list[float] = field(default_factory=list)
    digest: str = ""


def digest_files(root: Path, paths) -> str:
    """SHA-256 over (relative path, SHA-256 of content) pairs, sorted by path."""
    lines = sorted(
        f"{path.relative_to(root).as_posix()}\t{hashlib.sha256(path.read_bytes()).hexdigest()}\n"
        for path in paths
    )
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def _csv_rows(path: Path) -> int:
    with path.open(newline="") as handle:
        return sum(1 for _ in csv.reader(handle)) - 1


def check_run_file(path: Path, report: PassReport) -> None:
    """Parse one run file and check its accounting; record any failure."""
    try:
        run = read_run_csv(path)
    except Exception as exc:  # any parse error is a failed run
        report.failures.append(f"{path.name}: unreadable: {type(exc).__name__}: {exc}")
        return
    evaluations = int(run.meta["evaluations"])
    cap = int(run.meta["max_evaluations"])
    population = int(run.meta["population_size"])
    last = run.gen_rows[-1].cumulative_evaluations if run.gen_rows else population
    problems = []
    if evaluations > cap:
        problems.append(f"evaluations {evaluations} exceed the cap {cap}")
    if evaluations != last:
        problems.append(f"evaluations {evaluations} != last cumulative_evaluations {last}")
    if run.points.shape != (population, 2) or not np.all(np.isfinite(run.points)):
        problems.append(f"final points of shape {run.points.shape} not finite ({population}, 2)")
    delta_hv = float(run.score.get("delta_hv", "nan"))
    if not math.isfinite(delta_hv):
        problems.append("delta_hv is not finite")
    if problems:
        report.failures.append(f"{path.name}: " + "; ".join(problems))
        return
    race_rows = [row for row in run.gen_rows if row.stop_reason]
    report.files += 1
    report.evaluations += evaluations
    report.produced_evaluations += evaluations
    report.race_generations += len(race_rows)
    report.race_iterations += sum(row.race_length for row in race_rows)
    report.quota_stops += sum(row.stop_reason in QUOTA_STOPS for row in race_rows)
    report.delta_hv.append(delta_hv)


def _check_summary(summary: Path, significance: Path, runs: int, pairs: int,
                   report: PassReport) -> list[float] | None:
    """Check the row counts of the scored tables; return the summary's delta_hv."""
    for path in (summary, significance):
        if not path.is_file():
            report.failures.append(f"{path.name} missing")
            return
    if _csv_rows(summary) != runs:
        report.failures.append(f"{summary.name}: {_csv_rows(summary)} rows, expected {runs}")
    if _csv_rows(significance) != pairs:
        report.failures.append(
            f"{significance.name}: {_csv_rows(significance)} rows, expected {pairs}"
        )
    with summary.open(newline="") as handle:
        values = [float(row["delta_hv"]) for row in csv.DictReader(handle)]
    if not all(math.isfinite(v) for v in values):
        report.failures.append(f"{summary.name}: non-finite delta_hv")
    return values


class RunWorkload:
    """One ``raceopt run`` on zdt1 per pass; the run seed is the workload seed."""

    jobs = 1

    def __init__(self, name, why, algorithm, noise,
                 budget=None, confidence=None, evaluations=20000) -> None:
        self.name = name
        self.why = why
        self.algorithm = algorithm
        self.noise = noise
        self.budget = budget
        self.confidence = confidence
        self.evaluations = evaluations

    def _argv(self, run_seed: int, evaluations: int, out: Path) -> list[str]:
        argv = ["run", "--problem", "zdt1", "--noise", self.noise, "--algo", self.algorithm,
                "--pop", str(POPULATION), "--evals", str(evaluations),
                "--seed", str(run_seed), "--out", str(out)]
        if self.budget is not None:
            argv += ["--budget", str(self.budget)]
        if self.confidence is not None:
            argv += ["--confidence", str(self.confidence)]
        return argv

    def setup(self, work: Path, seed: int) -> dict:
        """Warm up with one short run of the same configuration."""
        work.mkdir(parents=True)
        warm = self._argv(seed, 10 * POPULATION, work / "warmup.csv")
        if cli.main(warm) != 0:
            raise RuntimeError(f"warm-up run failed: {' '.join(warm)}")
        return {"seed": seed}

    def commands(self, state: dict, out: Path, jobs: int) -> list[list[str]]:
        return [self._argv(state["seed"], self.evaluations, self._path(state, out))]

    @staticmethod
    def _path(state: dict, out: Path) -> Path:
        return out / f"run_s{state['seed']}.csv"

    def check(self, state: dict, out: Path, codes: list[int]) -> PassReport:
        report = PassReport(attempted=1)
        path = self._path(state, out)
        if codes != [0]:
            report.failures.append(f"raceopt run exited {codes}")
            return report
        check_run_file(path, report)
        report.digest = digest_files(out, [path])
        return report


class GridWorkload:
    """``raceopt batch`` over all six algorithms on zdt1 x {gaussian, cauchy}."""

    jobs = 2
    noises = ("gaussian", "cauchy")
    runs = 5
    # Small enough that several batches fit in one measuring window.
    evaluations = 1000

    def __init__(self, name, why) -> None:
        self.name = name
        self.why = why

    def grid_text(self, seed: int) -> str:
        return "\n".join([
            "problems = zdt1",
            f"noises = {', '.join(self.noises)}",
            f"algorithms = {', '.join(ALGORITHMS)}",
            "budgets = 5",
            "confidences = 0.95",
            f"population = {POPULATION}",
            f"evaluations = {self.evaluations}",
            f"runs = {self.runs}",
            f"master_seed = {seed * self.runs}",
        ]) + "\n"

    @property
    def expected_runs(self) -> int:
        return len(self.noises) * len(ALGORITHMS) * self.runs

    @property
    def expected_pairs(self) -> int:
        return len(self.noises) * math.comb(len(ALGORITHMS), 2)

    def setup(self, work: Path, seed: int) -> dict:
        """Write the grid file and warm up with one short run."""
        work.mkdir(parents=True)
        grid = work / "grid.cfg"
        grid.write_text(self.grid_text(seed))
        warm = ["run", "--problem", "zdt1", "--noise", "cauchy", "--algo", "rsp-med",
                "--budget", "5", "--confidence", "0.95", "--pop", str(POPULATION),
                "--evals", str(10 * POPULATION), "--seed", str(seed * self.runs),
                "--out", str(work / "warmup.csv")]
        if cli.main(warm) != 0:
            raise RuntimeError("warm-up run failed")
        return {"grid": grid}

    def commands(self, state: dict, out: Path, jobs: int) -> list[list[str]]:
        return [["batch", "--config", str(state["grid"]), "--out", str(out),
                 "--jobs", str(jobs)]]

    def check(self, state: dict, out: Path, codes: list[int]) -> PassReport:
        report = PassReport(attempted=self.expected_runs)
        if codes != [0]:
            report.failures.append(f"raceopt batch exited {codes}")
            return report
        if (out / "failures.csv").exists():
            report.failures.append("failures.csv was written")
        paths = sorted((out / "runs").glob("*.csv"))
        if len(paths) != self.expected_runs:
            report.failures.append(f"{len(paths)} run files, expected {self.expected_runs}")
        for path in paths:
            check_run_file(path, report)
        summary, significance = out / "summary.csv", out / "significance.csv"
        values = _check_summary(summary, significance, self.expected_runs,
                                self.expected_pairs, report)
        if values is not None:
            report.delta_hv = values
        report.digest = digest_files(out, [*paths, summary, significance])
        return report


# Generation traffic of real 20000-evaluation runs: zdt1, population 40,
# budget 5, confidence 0.95, noises none/gaussian/cauchy/gumbel, run seeds
# 0 and 1 (48 runs). Per algorithm family: the range of evaluations per
# generation, chosen so its mean equals the measured mean (implicit 38.0,
# static 192.5, rsp 180.5), and the race length. The runs had 507-555
# (implicit), 101-105 (static) and 100-133 (rsp) generations, every race ran
# to t_max at length 5, and they stopped 5-195 evaluations below the cap.
TRAFFIC = {
    "implicit": ((36, 40), 1),
    "static": ((185, 200), 1),
    "rsp": ((161, 200), 5),
}
CAMPAIGN_EVALUATIONS = 20000


class ScoreWorkload:
    """``raceopt score`` over a campaign of run files written in set-up."""

    jobs = 1
    problems = ("zdt1", "zdt2", "zdt3", "zdt4", "zdt6")
    noises = ("none", "gaussian", "cauchy", "gumbel")
    # The fewest seeds for which ``score`` emits Wilcoxon rows.
    seeds_per_variant = 5

    def __init__(self, name, why) -> None:
        self.name = name
        self.why = why

    @property
    def expected_files(self) -> int:
        return len(self.problems) * len(self.noises) * len(ALGORITHMS) * self.seeds_per_variant

    @property
    def expected_pairs(self) -> int:
        return len(self.problems) * len(self.noises) * math.comb(len(ALGORITHMS), 2)

    @staticmethod
    def gen_rows(rng, algorithm: str) -> list[GenRow]:
        """Generations as a real run of ``algorithm`` writes them: each adds
        evaluations until the next one would pass the cap."""
        (low, high), length = TRAFFIC[algorithm.split("-")[0]]
        reason = "t_max" if algorithm.startswith("rsp") else ""
        rows: list[GenRow] = []
        total = POPULATION
        while True:
            step = int(rng.integers(low, high + 1))
            if total + step > CAMPAIGN_EVALUATIONS:
                return rows
            total += step
            rows.append(GenRow(len(rows) + 1, total, reason, length))

    def records(self, seed: int):
        """Seeded run records: near-front final populations and gen rows."""
        cells = itertools.product(self.problems, self.noises, ALGORITHMS,
                                  range(self.seeds_per_variant))
        for index, (problem, noise, algorithm, k) in enumerate(cells):
            run_seed = seed * self.seeds_per_variant + k
            rng = np.random.default_rng([seed, index])
            cfg = ExperimentConfig(problem, noise, algorithm, sampling_budget=5,
                                   confidence=0.95, population_size=POPULATION,
                                   max_evaluations=CAMPAIGN_EVALUATIONS, seeds=(run_seed,))
            n = 10 if problem in ("zdt4", "zdt6") else 30
            genomes = np.empty((POPULATION, n))
            genomes[:, 0] = rng.uniform(0.0, 1.0, POPULATION)
            genomes[:, 1:] = rng.uniform(0.0, rng.uniform(0.002, 0.05), (POPULATION, n - 1))
            points = np.vstack([make_problem(problem).true_eval(g) for g in genomes])
            rows = self.gen_rows(rng, algorithm)
            total = rows[-1].cumulative_evaluations
            yield cfg.run_filename(run_seed), RunRecord(cfg, run_seed, rows, points, total)

    def setup(self, work: Path, seed: int) -> dict:
        """Write the campaign's run files, then warm up by scoring one of them."""
        runs = work / "runs"
        runs.mkdir(parents=True)
        evaluations = 0
        for name, record in self.records(seed):
            write_run_csv(record, runs / name)
            evaluations += record.evaluations
        first = min(runs.iterdir())
        warm = ["score", "--in", str(first), "--out", str(work / "warmup.csv")]
        if cli.main(warm) != 0:
            raise RuntimeError("warm-up score failed")
        return {"runs": runs, "evaluations": evaluations}

    def commands(self, state: dict, out: Path, jobs: int) -> list[list[str]]:
        return [["score", "--in", str(state["runs"]), "--out", str(out / "summary.csv")]]

    def check(self, state: dict, out: Path, codes: list[int]) -> PassReport:
        report = PassReport(attempted=self.expected_files)
        if codes != [0]:
            report.failures.append(f"raceopt score exited {codes}")
            return report
        summary, significance = out / "summary.csv", out / "summary_significance.csv"
        values = _check_summary(summary, significance, self.expected_files,
                                self.expected_pairs, report)
        if values is not None:
            report.delta_hv = values
            report.files = len(values)
            report.evaluations = state["evaluations"]
        report.digest = digest_files(out, [summary, significance])
        return report


WORKLOADS = {
    w.name: w
    for w in (
        RunWorkload(
            "implicit-gauss",
            "implicit averaging under Gaussian noise: no race, so variation, evaluation and "
            "sorting (moea, problems) dominate",
            "implicit", "gaussian",
        ),
        GridWorkload(
            "grid-batch",
            "the 60-run batch users run: process pool, CSV writes, static resampling, and races "
            "(racing and core take ~45% of its time) that run to t_max",
        ),
        ScoreWorkload(
            "score-campaign",
            "rescoring a paper-scale campaign of run files: only metrics and the harness "
            "reader work",
        ),
    )
}
