"""Acceptance gate: twelve numbered checks covering the whole toolkit.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line through the
capture-disabled channel so the verdicts are visible in a plain pytest run.
Criteria 6 to 9 run real optimization benchmarks; their combined wall-clock
time is tracked and bounded in criterion 9.
"""
from __future__ import annotations

import csv
import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

from raceopt.core import EstimatorKind, Individual, make_rng
from raceopt.harness import ExperimentConfig, run_batch, run_experiment, write_run_csv
from raceopt.metrics import hypervolume_2d, wilcoxon_signed_rank
from raceopt.moea import nondominated_sort
from raceopt.problems import NoisyProblem, Problem, make_noise
from raceopt.racing import RaceConfig, SelectionRace, race_select, static_select

_TIMES: dict[str, float] = {}


def _report(capsys, number: int, ok: bool) -> None:
    with capsys.disabled():
        print(f"[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'}")


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


# ---------------------------------------------------------------------------
# criterion 1: nondominated sorting against a brute-force oracle


def _oracle_fronts(points) -> list[list[int]]:
    pts = [tuple(map(float, p)) for p in points]
    k = len(pts[0])

    def dom(a, b):
        return all(x <= y for x, y in zip(a, b)) and any(
            x < y for x, y in zip(a, b)
        )

    remaining = set(range(len(pts)))
    fronts: list[list[int]] = []
    while remaining:
        front = [
            i
            for i in remaining
            if not any(j != i and dom(pts[j], pts[i]) for j in remaining)
        ]
        fronts.append(sorted(front))
        remaining -= set(front)
    assert k in (2, 3)
    return fronts


def test_criterion_01_sorting_matches_brute_force(capsys):
    try:
        rng = np.random.default_rng(1001)
        start = time.perf_counter()
        for case in range(200):
            lam = int(rng.integers(2, 61))
            k = int(rng.choice([2, 3]))
            if case % 2:
                pts = rng.integers(0, 8, size=(lam, k)).astype(float)
            else:
                pts = rng.normal(size=(lam, k))
            got = [f.tolist() for f in nondominated_sort(pts)]
            assert got == _oracle_fronts(pts), case
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"sorting check took {elapsed:.2f}s"
    except BaseException:
        _report(capsys, 1, False)
        raise
    _report(capsys, 1, True)


# ---------------------------------------------------------------------------
# criterion 2: hypervolume against Monte Carlo and a hand-computed value


def test_criterion_02_hypervolume_monte_carlo(capsys):
    try:
        start = time.perf_counter()
        pts = [[0.2, 0.8], [0.5, 0.5], [0.8, 0.2]]
        assert abs(hypervolume_2d(pts) - 0.37) < 1e-12
        rng = np.random.default_rng(1002)
        for case in range(20):
            n = int(rng.integers(2, 25))
            x = np.sort(rng.uniform(0.1, 0.9, size=n)) + np.arange(n) * 1e-9
            y = np.sort(rng.uniform(0.1, 0.9, size=n))[::-1] - np.arange(n) * 1e-9
            front = np.column_stack([x, y])
            exact = hypervolume_2d(front)
            samples = rng.random((1_000_000, 2))
            hit = (samples[:, None, :] >= front[None, :, :]).all(axis=2).any(axis=1)
            mc = float(hit.mean())
            sigma = math.sqrt(max(mc * (1.0 - mc), 1e-12) / samples.shape[0])
            assert abs(exact - mc) <= 4.0 * sigma, (case, exact, mc)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"hypervolume check took {elapsed:.2f}s"
    except BaseException:
        _report(capsys, 2, False)
        raise
    _report(capsys, 2, True)


# ---------------------------------------------------------------------------
# criterion 3: exact signed-rank branch against full enumeration


def _oracle_ranks2(values: np.ndarray) -> np.ndarray:
    """Average ranks of |values|, doubled so ties stay integral."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size)
    sv = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + 1) + (j + 1)  # doubled average
        i = j + 1
    return np.rint(ranks).astype(int)


def _oracle_pvalue(d: np.ndarray, alternative: str) -> float:
    d = d[d != 0.0]
    ranks2 = _oracle_ranks2(np.abs(d))
    n = ranks2.size
    signs = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    w2 = signs @ ranks2
    w2_obs = int(ranks2[d > 0.0].sum())
    if alternative == "greater":
        return float(np.mean(w2 >= w2_obs))
    if alternative == "less":
        return float(np.mean(w2 <= w2_obs))
    mid = ranks2.sum() / 2.0
    return float(np.mean(np.abs(w2 - mid) >= abs(w2_obs - mid)))


def test_criterion_03_wilcoxon_exact_enumeration(capsys):
    try:
        a = np.arange(10.0) + 1.0
        b = np.zeros(10)
        assert wilcoxon_signed_rank(a, b) == pytest.approx(2.0 / 2.0**10, abs=1e-15)
        rng = np.random.default_rng(1003)
        for case in range(50):
            n = int(rng.integers(5, 13))
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.integers(0, 6, size=n).astype(float)
            if np.all(x == y):
                x[0] += 1.0
            for alternative in ("two-sided", "greater", "less"):
                got = wilcoxon_signed_rank(x, y, alternative)
                want = _oracle_pvalue(x - y, alternative)
                assert got == pytest.approx(want, abs=1e-12), (case, alternative)
    except BaseException:
        _report(capsys, 3, False)
        raise
    _report(capsys, 3, True)


# ---------------------------------------------------------------------------
# criterion 4: confidence radius value and monotonicity


def test_criterion_04_hoeffding_radius(capsys):
    try:
        from raceopt.racing import hoeffding_radius

        # Closed form at t = 200, delta = 0.05, unit range:
        # sqrt(ln(2 / 0.05) / (2 * 200)) = sqrt(ln 40 / 400).
        want = math.sqrt(math.log(40.0) / 400.0)
        assert want == pytest.approx(0.09603227913199208, abs=1e-15)
        assert abs(hoeffding_radius(200, 0.05, 1.0) - want) < 1e-5
        # second pinned point, same derivation at t = 50, delta = 0.75
        assert abs(
            hoeffding_radius(50, 0.75) - 0.09903682411162659
        ) < 1e-12
        radii = np.array(
            [hoeffding_radius(t, 0.05) for t in range(1, 10_001)]
        )
        assert np.all(np.diff(radii) < 0.0), "radius must strictly decrease in t"
    except BaseException:
        _report(capsys, 4, False)
        raise
    _report(capsys, 4, True)


# ---------------------------------------------------------------------------
# criterion 5: decision error rate of synthetic races


def test_criterion_05_race_error_rate(capsys):
    try:
        start = time.perf_counter()
        p = np.array([0.95, 0.8, 0.65, 0.35, 0.25, 0.15, 0.1, 0.05])
        top = {0, 1, 2}
        rng = np.random.default_rng(1005)
        wrong_trials = 0
        for _trial in range(1000):
            race = SelectionRace(8, 3, delta=0.05)
            for _t in range(500):
                race.record(rng.random(8) < p)
                if race.quota_selected() or race.quota_discarded():
                    break
            # select_remaining is never called, so every decided status is
            # a definite confidence-interval decision.
            bad_select = set(race.selected_indices().tolist()) - top
            bad_discard = set(race.discarded_indices().tolist()) & top
            wrong_trials += bool(bad_select or bad_discard)
        elapsed = time.perf_counter() - start
        assert wrong_trials <= 100, f"{wrong_trials} of 1000 trials went wrong"
        assert elapsed < 60.0, f"race simulation took {elapsed:.2f}s"
    except BaseException:
        _report(capsys, 5, False)
        raise
    _report(capsys, 5, True)


# ---------------------------------------------------------------------------
# criteria 6-9: benchmark behavior (runtimes pooled, bounded in criterion 9)


def test_criterion_06_races_stop_early_without_noise(capsys):
    try:
        start = time.perf_counter()
        t_max = 30
        for seed in range(10):
            cfg = ExperimentConfig(
                "zdt1",
                "none",
                "rsp-i",
                sampling_budget=t_max,
                confidence=0.25,
                population_size=40,
                max_generations=20,
            )
            record = run_experiment(cfg, seed)
            assert len(record.gen_rows) == 20
            mean_length = float(
                np.mean([row.race_length for row in record.gen_rows])
            )
            assert mean_length < t_max / 2.0, (seed, mean_length)
        _TIMES["c6"] = time.perf_counter() - start
    except BaseException:
        _report(capsys, 6, False)
        raise
    _report(capsys, 6, True)


def _summary_deltas(summary_path) -> dict[tuple[str, str, int], dict[int, float]]:
    """delta_hv keyed by (noise, algorithm, budget) then seed."""
    out: dict[tuple[str, str, int], dict[int, float]] = {}
    with Path(summary_path).open(newline="") as handle:
        for row in csv.DictReader(handle):
            key = (row["noise"], row["algorithm"], int(row["budget"]))
            out.setdefault(key, {})[int(row["seed"])] = float(row["delta_hv"])
    return out


def _paired(deltas, key_a, key_b) -> tuple[list[float], list[float]]:
    common = sorted(set(deltas[key_a]) & set(deltas[key_b]))
    return (
        [deltas[key_a][s] for s in common],
        [deltas[key_b][s] for s in common],
    )


def test_criterion_07_more_sampling_wastes_budget_without_noise(
    capsys, tmp_path_factory
):
    try:
        start = time.perf_counter()
        seeds = tuple(range(15))
        configs = [
            ExperimentConfig(
                "zdt1",
                "none",
                "static-avg",
                sampling_budget=budget,
                population_size=40,
                max_evaluations=20_000,
                seeds=seeds,
            )
            for budget in (5, 30)
        ]
        out = tmp_path_factory.mktemp("static_budgets")
        summary, _ = run_batch(configs, out, jobs=1)
        deltas = _summary_deltas(summary)
        lean, heavy = _paired(
            deltas, ("none", "static-avg", 5), ("none", "static-avg", 30)
        )
        assert len(lean) == 15
        assert _median(heavy) > _median(lean)
        p = wilcoxon_signed_rank(heavy, lean)
        assert p < 0.1, f"p = {p}"
        _TIMES["c7"] = time.perf_counter() - start
    except BaseException:
        _report(capsys, 7, False)
        raise
    _report(capsys, 7, True)


@pytest.fixture(scope="module")
def bench_deltas(tmp_path_factory):
    """Shared benchmark batch for criteria 8 and 9.

    ZDT1 under three noise models, every static and racing variant at
    sampling budget 15, racing confidence 0.25, 15 seeds, population 40,
    20000 evaluations. Scored together so each (problem, noise) cell gets
    one normalization frame.
    """
    seeds = tuple(range(15))
    variants = (
        ("static-avg", 0.0),
        ("static-med", 0.0),
        ("rsp-i", 0.25),
        ("rsp-avg", 0.25),
        ("rsp-med", 0.25),
    )
    configs = [
        ExperimentConfig(
            "zdt1",
            noise,
            algorithm,
            sampling_budget=15,
            confidence=confidence,
            population_size=40,
            max_evaluations=20_000,
            seeds=seeds,
        )
        for noise in ("none", "gaussian", "cauchy")
        for algorithm, confidence in variants
    ]
    out = tmp_path_factory.mktemp("bench")
    start = time.perf_counter()
    summary, _ = run_batch(configs, out, jobs=1)
    _TIMES["bench89"] = time.perf_counter() - start
    return _summary_deltas(summary)


def test_criterion_08_median_beats_mean_under_heavy_tails(capsys, bench_deltas):
    try:
        start = time.perf_counter()
        med, avg = _paired(
            bench_deltas, ("cauchy", "static-med", 15), ("cauchy", "static-avg", 15)
        )
        assert len(med) == 15
        assert _median(med) < _median(avg)
        p = wilcoxon_signed_rank(med, avg)
        assert p < 0.1, f"p = {p}"
        _TIMES["c8"] = time.perf_counter() - start
    except BaseException:
        _report(capsys, 8, False)
        raise
    _report(capsys, 8, True)


def test_criterion_09_racing_is_not_significantly_worse(capsys, bench_deltas):
    try:
        start = time.perf_counter()
        for noise in ("none", "gaussian", "cauchy"):
            best_static = min(
                (("static-avg", 15), ("static-med", 15)),
                key=lambda v: _median(list(bench_deltas[(noise, *v)].values())),
            )
            best_rsp = min(
                (("rsp-i", 15), ("rsp-avg", 15), ("rsp-med", 15)),
                key=lambda v: _median(list(bench_deltas[(noise, *v)].values())),
            )
            rsp, static = _paired(
                bench_deltas, (noise, *best_rsp), (noise, *best_static)
            )
            # one-sided test of "racing is worse": must not be significant
            p = wilcoxon_signed_rank(rsp, static, alternative="greater")
            assert p > 0.05, (noise, best_rsp, best_static, p)
        _TIMES["c9"] = time.perf_counter() - start
        total = sum(_TIMES.values())
        assert total < 900.0, f"criteria 6-9 took {total:.0f}s"
    except BaseException:
        _report(capsys, 9, False)
        raise
    _report(capsys, 9, True)


# ---------------------------------------------------------------------------
# criterion 10: reproducibility


def _tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*.csv"))
    }


def test_criterion_10_bit_identical_reruns(capsys, tmp_path_factory):
    try:
        cfg = ExperimentConfig(
            "zdt1",
            "gaussian",
            "rsp-med",
            sampling_budget=4,
            confidence=0.25,
            population_size=16,
            max_evaluations=800,
            seeds=(5,),
        )
        out = tmp_path_factory.mktemp("rerun")
        a, b = out / "a.csv", out / "b.csv"
        write_run_csv(run_experiment(cfg, 5), a)
        write_run_csv(run_experiment(cfg, 5), b)
        assert a.read_bytes() == b.read_bytes()

        configs = [
            ExperimentConfig(
                "zdt1",
                "gaussian",
                "implicit",
                population_size=10,
                max_evaluations=400,
                seeds=(0, 1, 2),
            ),
            ExperimentConfig(
                "zdt1",
                "gaussian",
                "rsp-avg",
                sampling_budget=3,
                confidence=0.25,
                population_size=10,
                max_evaluations=400,
                seeds=(0, 1, 2),
            ),
        ]
        seq_dir = tmp_path_factory.mktemp("seq")
        par_dir = tmp_path_factory.mktemp("par")
        run_batch(configs, seq_dir, jobs=1)
        run_batch(configs, par_dir, jobs=3)
        assert _tree_digest(seq_dir) == _tree_digest(par_dir)
    except BaseException:
        _report(capsys, 10, False)
        raise
    _report(capsys, 10, True)


# ---------------------------------------------------------------------------
# criterion 11: evaluation budgets are honored exactly


def _plane() -> Problem:
    return Problem(
        name="plane",
        n_variables=2,
        lower=np.full(2, -100.0),
        upper=np.full(2, 100.0),
        _eval=lambda x: x.copy(),
        _front=lambda count: np.zeros((count, 2)),
    )


def test_criterion_11_budgets_never_exceeded(capsys):
    try:
        # The first generation's worst case: the 8 offspring, plus the 8
        # one-sample initial parents whenever the selector needs more than
        # one sample per individual (budget 3 and 4 below).
        cases = [
            ("implicit", {}, (8, 9, 23, 100), 8 * 1),
            ("static-med", {"sampling_budget": 3}, (8, 31, 40, 100), (8 + 8) * 3),
            ("rsp-avg", {"sampling_budget": 4, "confidence": 0.25}, (8, 40, 133),
             (8 + 8) * 4),
        ]
        for noise in ("gaussian", "cauchy"):
            for algorithm, kwargs, caps, first_generation in cases:
                for cap in caps:
                    cfg = ExperimentConfig(
                        "zdt1",
                        noise,
                        algorithm,
                        population_size=8,
                        max_evaluations=cap,
                        seeds=(0,),
                        **kwargs,
                    )
                    record = run_experiment(cfg, 0)
                    assert record.evaluations <= cap, (algorithm, noise, cap)
                    # a generation starts exactly when its worst case fits;
                    # otherwise the run stays at one evaluation per individual
                    affordable = cap >= 8 + first_generation
                    assert bool(record.gen_rows) == affordable, (algorithm, noise, cap)
                    cumulative = [g.cumulative_evaluations for g in record.gen_rows]
                    assert cumulative == sorted(cumulative)
                    if cumulative:
                        assert cumulative[0] >= 8
                        assert record.evaluations == cumulative[-1]
                    else:
                        assert record.evaluations == 8

        # exact reconciliation: the problem counter, the selector's report,
        # and the archive growth must all agree sample for sample
        rng = np.random.default_rng(1011)
        pop = [Individual(p, p) for p in rng.uniform(-5.0, 5.0, size=(6, 2))]
        noisy = NoisyProblem(_plane(), make_noise("gaussian"), make_rng(1))
        res = race_select(pop, 3, RaceConfig(delta=0.25, t_max=12), noisy, make_rng(2))
        grown = sum(len(ind.archive) for ind in pop)
        assert res.evaluations_used == noisy.evaluations == grown

        pop = [Individual(p, p) for p in rng.uniform(-5.0, 5.0, size=(5, 2))]
        noisy = NoisyProblem(_plane(), make_noise("gaussian"), make_rng(3))
        res = static_select(pop, 2, 7, EstimatorKind.MEAN, noisy)
        assert res.evaluations_used == noisy.evaluations == 5 * 7
    except BaseException:
        _report(capsys, 11, False)
        raise
    _report(capsys, 11, True)


# ---------------------------------------------------------------------------
# criterion 12: noise calibration


def test_criterion_12_noise_calibration(capsys):
    try:
        rng = make_rng(1012)
        gumbel = make_noise("gumbel").draw(1_000_000, rng)
        assert abs(float(np.median(gumbel))) < 0.01
        gaussian = make_noise("gaussian").draw(1_000_000, rng)
        assert abs(float(gaussian.std()) - 0.25) < 0.002
    except BaseException:
        _report(capsys, 12, False)
        raise
    _report(capsys, 12, True)
