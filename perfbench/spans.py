"""Outside-in spans around raceopt's public functions.

Each wrapper is installed on the module or class attribute where the
calling code looks the function up, so the program's sources stay
untouched. ``installed`` restores every original on exit; nothing is
patched while tracing is off.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from raceopt import cli, core, harness, metrics, moea, problems, racing

MODULES = ("core", "problems", "moea", "racing", "metrics", "harness", "cli")

# Marker attribute set on every wrapper, so a check can tell whether any
# span wrapper is still in place.
MARK = "__perfbench_span__"

RACE = "racing.race_select"
GENERATION = "racing.nsga2_generation"


class Tracer:
    """Aggregates properly nested spans: calls and self time per name.

    A span's self time is its duration minus the durations of the spans
    opened directly inside it. ``counts`` holds extra counters recorded at
    the same boundaries (rows returned, bytes written, ...). Per-call
    durations are kept for ``GENERATION`` only.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.depth: dict[str, int] = {}
        self.durations: dict[str, list[float]] = {GENERATION: []}
        self._stack: list[list] = []

    def enter(self, name: str) -> None:
        self.depth[name] = self.depth.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        name, start, covered = self._stack.pop()
        duration = end - start
        self.depth[name] -= 1
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        if name in self.durations:
            self.durations[name].append(duration)

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + int(amount)

    def inside(self, name: str) -> bool:
        return self.depth.get(name, 0) > 0


# Hooks run after the wrapped call returns: hook(tracer, args, result, token),
# where token is what the optional "before" hook returned at entry.


def _as_array_rows(tracer, args, result, _):
    tracer.add("core.SampleArchive.as_array.rows", result.shape[0])
    tracer.add("core.SampleArchive.as_array.bytes", result.nbytes)


def _pool_points(tracer, args, result, _):
    tracer.add("moea.environmental_select.points", np.shape(args[0])[0])


def _hv_points(tracer, args, result, _):
    tracer.add("metrics.hypervolume_2d.points", np.shape(args[0])[0] if np.size(args[0]) else 0)


def _file_bytes(tracer, args, result, _):
    tracer.add("harness.write_run_csv.bytes", Path(args[1]).stat().st_size)


def _counted_in_race(counter):
    def hook(tracer, args, result, _):
        if tracer.inside(RACE):
            tracer.add(counter, 1)

    return hook


def _racing_count(args):
    return int(np.count_nonzero(args[0].status == racing.Status.RACING))


def _record_decisions(tracer, args, result, racing_before):
    race = args[0]
    tracer.add("racing.decided", racing_before - _racing_count(args))
    tracer.add("racing.slots", race.size)
    if race.iteration == 1:
        tracer.add("racing.racers", race.size)


# (span name, owner whose attribute is patched, attribute, before hook, after hook).
# A function bound under several names is patched at every lookup site.
def _sites():
    return (
        (RACE, racing, "race_select", None, None),
        ("racing.SelectionRace.record", racing.SelectionRace, "record",
         _racing_count, _record_decisions),
        ("racing.bootstrap_draw", racing, "bootstrap_draw", None,
         _counted_in_race("racing.bootstrap_in_race")),
        ("racing.static_select", racing, "static_select", None, None),
        (GENERATION, harness, "nsga2_generation", None, None),
        ("core.SampleArchive.as_array", core.SampleArchive, "as_array", None, _as_array_rows),
        ("core.estimator_value", core, "estimator_value", None, None),
        ("core.estimator_value", racing, "estimator_value", None, None),
        ("core.SampleArchive.append", core.SampleArchive, "append", None, None),
        ("problems.NoisyProblem.evaluate", problems.NoisyProblem, "evaluate", None,
         _counted_in_race("racing.fresh_in_race")),
        ("problems.Problem.true_eval", problems.Problem, "true_eval", None, None),
        ("problems.NoiseModel.draw", problems.NoiseModel, "draw", None, None),
        ("moea.environmental_select", racing, "environmental_select", None, _pool_points),
        ("moea.environmental_select", harness, "environmental_select", None, _pool_points),
        ("moea.nondominated_sort", moea, "nondominated_sort", None, None),
        ("moea.crowding_distance", moea, "crowding_distance", None, None),
        ("moea.sbx_crossover", racing, "sbx_crossover", None, None),
        ("moea.polynomial_mutation", racing, "polynomial_mutation", None, None),
        ("moea.binary_tournament", racing, "binary_tournament", None, None),
        ("metrics.hypervolume_2d", metrics, "hypervolume_2d", None, _hv_points),
        ("metrics.delta_hypervolume", harness, "delta_hypervolume", None, None),
        ("metrics.build_frame", harness, "build_frame", None, None),
        ("metrics.wilcoxon_signed_rank", harness, "wilcoxon_signed_rank", None, None),
        ("harness.run_experiment", cli, "run_experiment", None, None),
        ("harness.run_experiment", harness, "run_experiment", None, None),
        ("harness.write_run_csv", cli, "write_run_csv", None, _file_bytes),
        ("harness.write_run_csv", harness, "write_run_csv", None, _file_bytes),
        ("harness.read_run_csv", harness, "read_run_csv", None, None),
        ("harness.score_runs", cli, "score_runs", None, None),
        ("harness.score_runs", harness, "score_runs", None, None),
        ("harness.run_batch", cli, "run_batch", None, None),
        ("cli.main", cli, "main", None, None),
    )


SPAN_NAMES = tuple(dict.fromkeys(site[0] for site in _sites()))


def _wrap(tracer: Tracer, name: str, fn, before, after):
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def span(*args, **kwargs):
        token = before(args) if before else None
        enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if after:
            after(tracer, args, result, token)
        return result

    setattr(span, MARK, name)
    return span


@contextmanager
def installed(tracer: Tracer):
    """Patch every lookup site with a span wrapper; restore them on exit."""
    patched = []
    try:
        for name, owner, attr, before, after in _sites():
            original = vars(owner)[attr]
            setattr(owner, attr, _wrap(tracer, name, original, before, after))
            patched.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def wrapped_sites() -> list[str]:
    """Lookup sites that currently hold a span wrapper (empty when off)."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for _, owner, attr, _, _ in _sites()
        if hasattr(vars(owner)[attr], MARK)
    ]
