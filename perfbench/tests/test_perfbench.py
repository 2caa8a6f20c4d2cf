"""Tests of the benchmark's own machinery (not of raceopt)."""
import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from raceopt import cli  # noqa: E402
from raceopt.harness import read_run_csv  # noqa: E402

from perfbench import bench, spans  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    CAMPAIGN_EVALUATIONS,
    TRAFFIC,
    WORKLOADS,
    RunWorkload,
)


def _fake_clock(times):
    return iter(times).__next__


def test_self_time_subtracts_direct_children():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8].
    tracer = spans.Tracer(clock=_fake_clock([0, 1, 4, 5, 6, 8, 9, 10]))
    tracer.enter("a")
    tracer.enter("b")
    tracer.exit()
    tracer.enter("c")
    tracer.enter("d")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    assert tracer.self_time == {"a": 3, "b": 3, "c": 2, "d": 2}
    assert tracer.calls == {"a": 1, "b": 1, "c": 1, "d": 1}


def test_self_time_of_recursive_span_counts_each_level_once():
    tracer = spans.Tracer(clock=_fake_clock([0, 1, 2, 5]))
    tracer.enter("x")
    tracer.enter("x")
    assert tracer.inside("x")
    tracer.exit()
    tracer.exit()
    assert tracer.calls["x"] == 2
    assert tracer.self_time["x"] == 5
    assert not tracer.inside("x")


def _inputs_digest(workload, seed):
    if isinstance(workload, RunWorkload):
        return repr(workload.commands({"seed": seed}, Path("out"), 1))
    if hasattr(workload, "grid_text"):
        return workload.grid_text(seed)
    h = hashlib.sha256()
    for name, record in workload.records(seed):
        h.update(name.encode())
        h.update(record.final_points.tobytes())
        h.update(repr(record.gen_rows).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_repeat_per_seed_and_differ_across_seeds(name):
    workload = WORKLOADS[name]
    assert _inputs_digest(workload, 3) == _inputs_digest(workload, 3)
    assert _inputs_digest(workload, 3) != _inputs_digest(workload, 4)


def test_campaign_files_carry_the_traffic_of_real_runs():
    # Generation counts of real 20000-evaluation runs, per algorithm family.
    measured = {"implicit": (507, 555), "static": (101, 105), "rsp": (100, 133)}
    for name, record in WORKLOADS["score-campaign"].records(0):
        family = record.config.algorithm.split("-")[0]
        (_, high), length = TRAFFIC[family]
        rows = record.gen_rows
        low_gens, high_gens = measured[family]
        assert low_gens <= len(rows) <= high_gens, name
        assert record.evaluations == rows[-1].cumulative_evaluations
        assert CAMPAIGN_EVALUATIONS - high < record.evaluations <= CAMPAIGN_EVALUATIONS
        assert {row.race_length for row in rows} == {length}


def test_metric_names_are_valid_and_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for group, emitted in (
        ("end_to_end", [(name, unit) for name, unit in bench.END_TO_END]),
        ("per_layer", [(name, unit) for name, unit, _ in bench.per_layer_catalog()]),
    ):
        names = [name for name, _ in emitted]
        assert len(set(names)) == len(names)
        assert all(bench.NAME_PATTERN.fullmatch(name) for name in names)
        assert emitted == [(m["name"], m["unit"]) for m in declared[group]]
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)


def test_benchmark_json_keeps_to_its_format():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert unit.fullmatch(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    originals = {
        (owner, attr): vars(owner)[attr] for _, owner, attr, _, _ in spans._sites()
    }
    assert spans.wrapped_sites() == []
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert len(spans.wrapped_sites()) == len(originals)
        argv = ["run", "--problem", "zdt1", "--noise", "gaussian", "--algo", "implicit",
                "--pop", "10", "--evals", "50", "--seed", "1", "--out", str(tmp_path / "r.csv")]
        assert cli.main(argv) == 0
    assert spans.wrapped_sites() == []
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())
    assert tracer.calls["cli.main"] == 1
    evaluations = int(read_run_csv(tmp_path / "r.csv").meta["evaluations"])
    assert tracer.calls["problems.NoisyProblem.evaluate"] == evaluations


def test_wrappers_are_removed_when_the_traced_code_raises():
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer()):
            raise RuntimeError("boom")
    assert spans.wrapped_sites() == []


def test_traced_counters_reconcile_with_run_files(tmp_path):
    workload = RunWorkload("tiny", "tiny", "rsp-med", "cauchy",
                           budget=5, confidence=0.25, evaluations=600)
    state = {"seed": 0}
    result = bench.run_pass(workload, state, tmp_path / "out", 1, spans.Tracer())
    assert result.report.failures == []
    assert result.report.race_generations > 0
    assert bench._reconcile(result) == []
    assert spans.wrapped_sites() == []
