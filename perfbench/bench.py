"""Benchmark runner: set-up, timed passes, checks, optional trace, report.

One invocation runs one workload. Untraced passes repeat while another
one fits in ``--seconds`` (at least one runs); their medians are the
end-to-end metrics. With ``--trace 1`` one untraced pass runs, two traced
passes follow, and the per-layer metrics replace the end-to-end ones in
the result line.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from raceopt import cli

from . import spans
from .workloads import WORKLOADS, PassReport

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 15
TRACED_PASSES = 2
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
DIGESTS = Path(__file__).with_name("digests.json")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("evals_per_s", "1/s"),
    ("files_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_catalog() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for name in spans.SPAN_NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out += [
        (f"{spans.GENERATION}.p50_ms", "ms", "lower"),
        (f"{spans.GENERATION}.p90_ms", "ms", "lower"),
        ("core.SampleArchive.as_array.rows", "count", "lower"),
        ("core.SampleArchive.as_array.bytes", "B", "lower"),
        ("moea.environmental_select.points_mean", "count", "lower"),
        ("metrics.hypervolume_2d.points", "count", "lower"),
        ("harness.write_run_csv.bytes", "B", "lower"),
        ("racing.iterations_per_race", "ratio", "lower"),
        ("racing.fresh_share", "ratio", "lower"),
        ("racing.hoeffding_stop_share", "ratio", "higher"),
        ("racing.decided_share", "ratio", "higher"),
        ("harness.pool_cpu_share", "ratio", "higher"),
    ]
    out += [(f"{module}.self_s", "s", "lower") for module in spans.MODULES]
    out += [("trace_overhead_s", "s", "lower"), ("delta_hv_p50", "hv", "lower")]
    return out


@dataclass
class PassResult:
    wall: float
    child_cpu: float
    jobs: int
    report: PassReport
    tracer: spans.Tracer | None = None


def _child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_pass(workload, state: dict, out: Path, jobs: int, tracer=None) -> PassResult:
    """Time one pass of CLI commands, in-process, then check its outputs."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    commands = workload.commands(state, out, jobs)
    tracing = spans.installed(tracer) if tracer else contextlib.nullcontext()
    cpu_before = _child_cpu()
    with contextlib.redirect_stdout(io.StringIO()), tracing:
        start = time.perf_counter()
        codes = [cli.main(argv) for argv in commands]
        wall = time.perf_counter() - start
    child_cpu = _child_cpu() - cpu_before
    return PassResult(wall, child_cpu, jobs, workload.check(state, out, codes), tracer)


def _reconcile(result: PassResult) -> list[str]:
    """Counters of a traced pass that must equal what its run files say."""
    tracer, report = result.tracer, result.report
    calls, counts = tracer.calls, tracer.counts
    pairs = (
        ("problems.NoisyProblem.evaluate.calls", calls.get("problems.NoisyProblem.evaluate", 0),
         "run-file evaluations", report.produced_evaluations),
        ("racing.SelectionRace.record.calls", calls.get("racing.SelectionRace.record", 0),
         "race_length over race generations", report.race_iterations),
        ("racing.race_select.calls", calls.get(spans.RACE, 0),
         "race generations", report.race_generations),
        ("fresh + bootstrap representatives",
         counts.get("racing.fresh_in_race", 0) + counts.get("racing.bootstrap_in_race", 0),
         "pool slots over race iterations", counts.get("racing.slots", 0)),
    )
    return [f"{a} = {x} but {b} = {y}" for a, x, b, y in pairs if x != y]


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end_metrics(passes: list[PassResult], setup_s: float) -> dict[str, float]:
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "evals_per_s": statistics.median(p.report.evaluations / p.wall for p in passes),
        "files_per_s": statistics.median(p.report.files / p.wall for p in passes),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer_metrics(traced: list[PassResult], untraced: list[PassResult],
                      baseline: list[PassResult]) -> dict[str, float]:
    first = traced[0].tracer
    calls, counts = first.calls, first.counts
    values: dict[str, float] = {}
    for name in spans.SPAN_NAMES:
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = statistics.median(
            p.tracer.self_time.get(name, 0.0) for p in traced)
    durations = first.durations[spans.GENERATION]
    p50, p90 = np.percentile(durations, [50, 90]) * 1e3 if durations else (0.0, 0.0)
    reports = [p.report for p in traced]
    values.update({
        f"{spans.GENERATION}.p50_ms": float(p50),
        f"{spans.GENERATION}.p90_ms": float(p90),
        "core.SampleArchive.as_array.rows": counts.get("core.SampleArchive.as_array.rows", 0),
        "core.SampleArchive.as_array.bytes": counts.get("core.SampleArchive.as_array.bytes", 0),
        "moea.environmental_select.points_mean": _share(
            counts.get("moea.environmental_select.points", 0),
            calls.get("moea.environmental_select", 0)),
        "metrics.hypervolume_2d.points": counts.get("metrics.hypervolume_2d.points", 0),
        "harness.write_run_csv.bytes": counts.get("harness.write_run_csv.bytes", 0),
        "racing.iterations_per_race": _share(calls.get("racing.SelectionRace.record", 0),
                                             calls.get(spans.RACE, 0)),
        "racing.fresh_share": _share(counts.get("racing.fresh_in_race", 0),
                                     counts.get("racing.slots", 0)),
        "racing.hoeffding_stop_share": _share(reports[0].quota_stops,
                                              reports[0].race_generations),
        "racing.decided_share": _share(counts.get("racing.decided", 0),
                                       counts.get("racing.racers", 0)),
        "harness.pool_cpu_share": statistics.median(
            _share(p.child_cpu, p.jobs * p.wall) if p.jobs > 1 else 0.0 for p in untraced),
    })
    for module in spans.MODULES:
        values[f"{module}.self_s"] = sum(
            values[f"{name}.self_s"] for name in spans.SPAN_NAMES
            if name.startswith(module + "."))
    values["trace_overhead_s"] = (statistics.median(p.wall for p in traced)
                                  - statistics.median(p.wall for p in baseline))
    values["delta_hv_p50"] = float(np.median(reports[0].delta_hv)) if reports[0].delta_hv else 0.0
    return values


def _commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(root: Path, workload: str, seed: int, trace: bool) -> dict:
    sources = sorted((root / "src" / "raceopt").glob("*.py"))
    src_digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(root),
        "src_sha256": src_digest,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def import_seconds(root: Path) -> float:
    """Median time a fresh interpreter takes to import numpy and raceopt."""
    code = (f"import sys, time; sys.path.insert(0, {str(root / 'src')!r}); "
            "start = time.perf_counter(); import raceopt.cli; "
            "print(time.perf_counter() - start)")
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=120)
        times.append(float(done.stdout))
    return statistics.median(times)


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def measure(args, root: Path, work: Path) -> tuple[dict, int, list[str]]:
    """Run set-up, passes and checks; return (metrics, attempted, failures)."""
    workload = WORKLOADS[args.workload]
    failures: list[str] = []
    if spans.wrapped_sites():
        failures.append(f"span wrappers present with tracing off: {spans.wrapped_sites()}")

    # Set up at least SETUP_REPEATS times, and more while set-up is cheap,
    # so that its median is steady; the passes use the last set-up.
    setup_times: list[float] = []
    while len(setup_times) < SETUP_REPEATS or (
        sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
    ):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            state = workload.setup(work / f"setup{len(setup_times)}", args.seed)
        setup_times.append(time.perf_counter() - start)
    setup_s = import_seconds(root) + statistics.median(setup_times)

    out = work / "pass"
    untraced: list[PassResult] = []
    begin = time.perf_counter()
    while True:
        untraced.append(run_pass(workload, state, out, workload.jobs))
        if spans.wrapped_sites():
            failures.append("span wrappers present after an untraced pass")
        # A traced run needs one untraced pass, as the overhead baseline.
        # Otherwise start another pass only if it should end within the
        # measuring time.
        mean_wall = statistics.mean(result.wall for result in untraced)
        if args.trace or time.perf_counter() - begin + mean_wall > args.seconds:
            break

    traced: list[PassResult] = []
    one_job: list[PassResult] = []
    if args.trace:
        if workload.jobs > 1:
            # Traced passes run with one job so every span stays in-process;
            # the overhead baseline is an untraced pass with one job too.
            one_job = [run_pass(workload, state, out, 1)]
        for _ in range(TRACED_PASSES):
            traced.append(run_pass(workload, state, out, 1, spans.Tracer()))
            if spans.wrapped_sites():
                failures.append("span wrappers left installed after a traced pass")
        for result in traced:
            failures += _reconcile(result)
        first = traced[0].tracer
        for result in traced[1:]:
            if (result.tracer.calls, result.tracer.counts) != (first.calls, first.counts):
                failures.append("traced counters differ between traced passes")

    all_passes = untraced + one_job + traced
    for result in all_passes:
        failures += result.report.failures
    digests = {result.report.digest for result in all_passes}
    if len(digests) != 1:
        failures.append(f"passes wrote different outputs: {sorted(digests)}")
    pinned = json.loads(DIGESTS.read_text())
    if args.seed == pinned["seed"]:
        expected = pinned["sha256"].get(workload.name)
        if digests != {expected}:
            failures.append(f"output digest {sorted(digests)} != pinned {expected}")
    walls = " ".join(f"{result.wall:.3f}" for result in untraced)
    print(f"# passes: {len(untraced)} untraced ({walls} s), {len(traced)} traced; "
          f"output sha256 {sorted(digests)}", file=sys.stderr)

    if args.trace:
        values = per_layer_metrics(traced, untraced, one_job or untraced)
        units = {name: unit for name, unit, _ in per_layer_catalog()}
    else:
        values = end_to_end_metrics(untraced, setup_s)
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    attempted = sum(result.report.attempted for result in all_passes)
    return metrics, attempted, failures


def main(argv, root: Path) -> int:
    args = _parse(argv)
    print("# " + json.dumps(stamp(root, args.workload, args.seed, bool(args.trace))))
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        metrics, attempted, failures = measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    for reason in failures:
        print(f"FAILED: {reason}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0
