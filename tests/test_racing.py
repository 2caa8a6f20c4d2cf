from __future__ import annotations

import math

import numpy as np
import pytest

from raceopt import racing
from raceopt.core import (
    EstimatorKind,
    Individual,
    Population,
    SampleArchive,
    estimator_value,
    make_rng,
)
from raceopt.moea import (
    SelectionOutcome,
    binary_tournament,
    environmental_select,
    polynomial_mutation,
    sbx_crossover,
)
from raceopt.harness import ExperimentConfig, run_experiment
from raceopt.problems import NoisyProblem, Problem, make_noise, make_problem
from raceopt.racing import (
    ALGORITHM_IDS,
    RaceConfig,
    RaceResult,
    SelectionRace,
    Status,
    StopReason,
    algorithm_estimator,
    bootstrap_draw,
    hoeffding_radius,
    make_selector,
    nsga2_generation,
    race_select,
    static_select,
)


def _plane():
    """Two-variable problem whose objectives are the genome itself."""
    return Problem(
        name="plane",
        n_variables=2,
        lower=np.full(2, -100.0),
        upper=np.full(2, 100.0),
        _eval=lambda x: x.copy(),
        _front=lambda count: np.zeros((count, 2)),
    )


def _pop(points):
    # On the plane the objectives are the genome itself.
    return [Individual(p, p) for p in np.asarray(points, dtype=float)]


# ---------------------------------------------------------------------------
# confidence radius


def test_radius_matches_closed_form():
    assert hoeffding_radius(200, 0.05) == pytest.approx(
        math.sqrt(math.log(40.0) / 400.0), abs=1e-12
    )
    assert hoeffding_radius(50, 0.75) == pytest.approx(
        math.sqrt(math.log(2.0 / 0.75) / 100.0), abs=1e-12
    )


def test_radius_vanishes_for_huge_t():
    assert hoeffding_radius(10**8, 0.05) < 1e-3


def test_radius_scales_with_range_width():
    assert hoeffding_radius(7, 0.1, 2.0) == pytest.approx(
        2.0 * hoeffding_radius(7, 0.1, 1.0)
    )


def test_radius_monotone_in_t_and_delta():
    rng = np.random.default_rng(40)
    for _ in range(1000):
        t = int(rng.integers(1, 10_000))
        delta = float(rng.uniform(0.01, 0.99))
        assert hoeffding_radius(t + 1, delta) < hoeffding_radius(t, delta)
        tighter = delta * 0.5
        assert hoeffding_radius(t, tighter) > hoeffding_radius(t, delta)


def test_radius_input_validation():
    with pytest.raises(ValueError):
        hoeffding_radius(0, 0.05)
    with pytest.raises(ValueError):
        hoeffding_radius(5, 0.0)
    with pytest.raises(ValueError):
        hoeffding_radius(5, 1.0)
    with pytest.raises(ValueError):
        hoeffding_radius(5, 0.05, 0.0)


# ---------------------------------------------------------------------------
# race bookkeeping


def test_race_rejects_bad_shapes_and_quotas():
    with pytest.raises(ValueError):
        SelectionRace(1, 1, 0.1)
    with pytest.raises(ValueError):
        SelectionRace(4, 0, 0.1)
    with pytest.raises(ValueError):
        SelectionRace(4, 4, 0.1)
    race = SelectionRace(4, 2, 0.1)
    with pytest.raises(ValueError):
        race.record([True, False])


def test_race_config_rejects_non_finite_settings():
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="proximity_threshold"):
            RaceConfig(delta=0.5, t_max=5, proximity_threshold=value)


def test_race_bounds_stay_valid_and_quotas_never_overshoot():
    rng = np.random.default_rng(41)
    for _ in range(300):
        size = int(rng.integers(3, 10))
        mu = int(rng.integers(1, size))
        race = SelectionRace(size, mu, float(rng.uniform(0.05, 0.5)))
        p = rng.random(size)
        for _t in range(int(rng.integers(1, 40))):
            race.record(rng.random(size) < p)
            racing = race.racing_indices()
            assert np.all(race.lower[racing] >= 0.0)
            assert np.all(race.upper[racing] <= 1.0)
            assert np.all(race.lower[racing] <= race.upper[racing])
            assert race.n_selected <= mu
            assert race.n_discarded <= size - mu
            statuses = race.status
            assert racing.size + race.n_selected + race.n_discarded == size
            assert set(np.unique(statuses)) <= {
                int(Status.RACING),
                int(Status.SELECTED),
                int(Status.DISCARDED),
            }


def test_race_separated_pair_decides_quickly():
    race = SelectionRace(2, 1, 0.5)
    for _ in range(30):
        race.record([True, False])
        if race.quota_selected():
            break
    assert race.selected_indices().tolist() == [0]
    # the loser is left racing; the caller decides what happens to it
    assert race.n_discarded in (0, 1)


def test_race_proximity_sum_is_the_pairwise_gap_total():
    race = SelectionRace(3, 1, 0.1)
    race.record([True, False, False])
    race.record([True, True, False])
    # p_hat = (1, 0.5, 0): pairwise gaps 0.5 + 1.0 + 0.5
    np.testing.assert_allclose(race.s / race.iteration, [1.0, 0.5, 0.0])
    assert race.proximity_sum() == pytest.approx(2.0)


def test_race_decisions_are_definite_on_synthetic_bernoulli_streams():
    # With a wide gap and a tight allowance, decided statuses must match
    # the true ordering. select_remaining is never called here, so every
    # non-racing status is a definite decision.
    rng = np.random.default_rng(42)
    p = np.array([0.9, 0.85, 0.1, 0.05])
    wrong = 0
    for _ in range(200):
        race = SelectionRace(4, 2, 0.05)
        for _t in range(400):
            race.record(rng.random(4) < p)
            if race.quota_selected() or race.quota_discarded():
                break
        wrong += bool(set(race.selected_indices()) - {0, 1})
        wrong += bool(set(race.discarded_indices()) & {0, 1})
    assert wrong <= 10


def _decide_loop(race: SelectionRace) -> None:
    """The decision pass as a plain loop, kept as the oracle for
    ``SelectionRace._decide``: population-index order, re-applied until a
    pass decides nothing, each racer compared with every racing peer."""
    changed = True
    while changed:
        changed = False
        for i in range(race.size):
            if race.status[i] != Status.RACING:
                continue
            racing = race.racing_indices()
            mu_rem = race.mu_remaining
            lam_rem = racing.size
            if mu_rem == 0 or lam_rem == mu_rem:
                return
            peers = racing[racing != i]
            if np.count_nonzero(race.lower[i] > race.upper[peers]) >= lam_rem - mu_rem:
                race.status[i] = Status.SELECTED
                changed = True
            elif np.count_nonzero(race.upper[i] < race.lower[peers]) >= mu_rem:
                race.status[i] = Status.DISCARDED
                changed = True


def _random_bounds(rng, size):
    """Valid bounds (lower <= upper) with many ties: either Hoeffding
    intervals around p-hats of a common iteration, clipped to [0, 1] as
    ``record`` clips them, or intervals on a coarse grid."""
    if rng.random() < 0.5:
        t = int(rng.integers(1, 12))
        p = rng.integers(0, t + 1, size=size) / t
        radius = hoeffding_radius(t, float(rng.choice([0.05, 0.25, 0.5, 0.75])))
        return np.maximum(0.0, p - radius), np.minimum(1.0, p + radius)
    steps = int(rng.integers(2, 9))
    lower = rng.integers(0, steps + 1, size=size) / steps
    width = rng.integers(0, steps + 1, size=size) / steps
    return lower, np.minimum(1.0, lower + width)


def test_vectorised_decide_matches_the_index_order_loop():
    rng = np.random.default_rng(46)
    decided = 0
    for size in range(2, 81):
        for mu in range(1, size):
            # Some racers may already be decided, within the quotas a race
            # can reach: at most mu selected, at most size - mu discarded.
            n_sel = int(rng.integers(0, mu + 1)) if rng.random() < 0.3 else 0
            n_dis = int(rng.integers(0, size - mu + 1)) if rng.random() < 0.3 else 0
            status = np.full(size, int(Status.RACING))
            order = rng.permutation(size)
            status[order[:n_sel]] = Status.SELECTED
            status[order[n_sel:n_sel + n_dis]] = Status.DISCARDED
            lower, upper = _random_bounds(rng, size)
            races = []
            for _ in range(2):
                race = SelectionRace(size, mu, 0.25)
                race.status[:] = status
                race.lower[:] = lower
                race.upper[:] = upper
                races.append(race)
            races[0]._decide()
            _decide_loop(races[1])
            np.testing.assert_array_equal(races[0].status, races[1].status)
            decided += int(np.count_nonzero(races[0].status != status))
    assert decided > 1000


# ---------------------------------------------------------------------------
# bootstrap representatives


def test_bootstrap_single_row_archive_is_deterministic():
    rows = np.array([(3.0, 4.0)])
    rng = make_rng(50)
    for _ in range(10):
        np.testing.assert_array_equal(bootstrap_draw(rows, rng), [3.0, 4.0])


def test_bootstrap_draw_frequencies_are_uniform():
    rows = np.array([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
    rng = make_rng(51)
    counts = np.zeros(4)
    for _ in range(100_000):
        counts[int(bootstrap_draw(rows, rng)[0])] += 1
    np.testing.assert_allclose(counts / 100_000, 0.25, atol=0.01)


def test_bootstrap_empty_archive_fails():
    with pytest.raises(ValueError, match="empty-archive"):
        bootstrap_draw(np.empty((0, 2)), make_rng(52))


# ---------------------------------------------------------------------------
# race_select end to end


def test_race_two_separated_pairs_stops_early():
    pop = _pop([(0.0, 0.0), (0.1, 0.1), (1.0, 1.0), (1.1, 1.1)])
    noisy = NoisyProblem(_plane(), make_noise("none"))
    cfg = RaceConfig(delta=0.75, t_max=50)
    res = race_select(pop, 2, cfg, noisy, make_rng(2))
    assert res.selected.tolist() == [0, 1]
    assert res.stop_reason == StopReason.QUOTA_SELECTED
    assert res.iterations < 50
    # every modified racer was sampled once per iteration until the stop
    assert res.evaluations_used == 4 * res.iterations
    for ind in pop:
        assert len(ind.archive) == res.iterations


def test_race_discard_quota_fills_the_selection():
    # Winners sit at the high indices, so the index-ordered decision pass
    # discards both losers first and the race ends on the discard quota.
    pop = _pop([(1.0, 1.0), (1.1, 1.1), (0.0, 0.0), (0.1, 0.1)])
    noisy = NoisyProblem(_plane(), make_noise("none"))
    cfg = RaceConfig(delta=0.75, t_max=50)
    res = race_select(pop, 2, cfg, noisy, make_rng(4))
    assert res.stop_reason == StopReason.QUOTA_DISCARDED
    assert res.selected.tolist() == [2, 3]


def test_race_huge_proximity_threshold_stops_at_t_one():
    pop = _pop([(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)])
    noisy = NoisyProblem(_plane(), make_noise("none"))
    cfg = RaceConfig(delta=0.25, t_max=50, proximity_threshold=1e9)
    res = race_select(pop, 1, cfg, noisy, make_rng(6))
    assert res.stop_reason == StopReason.PROXIMITY
    assert res.iterations == 1
    assert res.selected.tolist() == [0]


def test_race_with_t_max_one_matches_implicit_selection():
    points = [(0.3, 0.7), (0.6, 0.4), (0.2, 0.9), (0.8, 0.1)]
    noise = make_noise("gaussian")
    pop_a = _pop(points)
    pop_b = _pop(points)
    cfg = RaceConfig(delta=0.5, t_max=1, proximity_threshold=0.0)
    res_a = race_select(pop_a, 2, cfg, NoisyProblem(_plane(), noise, make_rng(7)), make_rng(8))
    res_b = make_selector("implicit").select(
        pop_b, 2, NoisyProblem(_plane(), noise, make_rng(7)), make_rng(8)
    )
    assert res_a.selected.tolist() == res_b.selected.tolist()
    assert res_a.stop_reason == StopReason.T_MAX
    assert res_a.iterations == 1


def test_race_unchanged_individuals_cost_no_evaluations():
    # An archive that already holds t_max samples is not sampled again.
    pop = _pop([(0.0, 0.0), (0.1, 0.1), (1.0, 1.0), (1.1, 1.1)])
    pop[2] = Individual(np.ones(2), np.ones(2), SampleArchive([(1.0, 1.0)] * 50))
    noisy = NoisyProblem(_plane(), make_noise("none"))
    cfg = RaceConfig(delta=0.75, t_max=50)
    res = race_select(pop, 2, cfg, noisy, make_rng(10))
    assert len(pop[2].archive) == 50  # untouched by the race
    assert res.evaluations_used == 3 * res.iterations
    assert res.selected.tolist() == [0, 1]


def test_race_samples_exactly_the_archives_short_of_t_max():
    # Archives of t_max - 1 rows are sampled; archives of t_max rows are not.
    t_max = 4
    pop = _pop([(0.0, 0.0), (0.1, 0.1), (1.0, 1.0), (1.1, 1.1)])
    held = [t_max - 1, t_max, t_max - 1, t_max]
    for ind, rows in zip(pop, held):
        for _ in range(rows):
            ind.archive.append(ind.genome)
    noisy = NoisyProblem(_plane(), make_noise("none"))
    res = race_select(pop, 2, RaceConfig(delta=0.75, t_max=t_max), noisy, make_rng(10))
    gained = [len(ind.archive) - rows for ind, rows in zip(pop, held)]
    assert gained[1] == gained[3] == 0
    assert gained[0] >= 1 and gained[2] >= 1
    assert res.evaluations_used == noisy.evaluations == gained[0] + gained[2]


def test_race_truncates_to_t_max_when_budget_runs_out():
    pop = _pop([(0.0, 0.0), (0.1, 0.1), (1.0, 1.0), (1.1, 1.1)])
    noisy = NoisyProblem(_plane(), make_noise("none"), max_evaluations=6)
    cfg = RaceConfig(delta=0.01, t_max=10)  # too tight to decide by t = 1
    res = race_select(pop, 2, cfg, noisy, make_rng(12))
    assert res.stop_reason == StopReason.T_MAX
    assert res.iterations == 1
    assert res.evaluations_used == 4
    assert res.selected.size == 2
    assert noisy.evaluations == 4


def test_race_unaffordable_first_iteration_raises():
    pop = _pop([(0.0, 0.0), (1.0, 1.0)])
    noisy = NoisyProblem(_plane(), make_noise("none"), max_evaluations=1)
    cfg = RaceConfig(delta=0.25, t_max=5)
    with pytest.raises(RuntimeError, match="first racing iteration"):
        race_select(pop, 1, cfg, noisy, make_rng(14))


def test_race_result_invariants_under_fuzz():
    rng = np.random.default_rng(43)
    for trial in range(200):
        lam = int(rng.integers(3, 9))
        mu = int(rng.integers(1, lam))
        pts = rng.uniform(-5.0, 5.0, size=(lam, 2))
        pop = _pop(pts)
        cfg = RaceConfig(
            delta=float(rng.uniform(0.05, 0.9)),
            t_max=int(rng.integers(1, 8)),
            proximity_threshold=float(rng.choice([0.0, 0.5])),
        )
        noisy = NoisyProblem(_plane(), make_noise("gaussian"), make_rng(44, trial))
        res = race_select(pop, mu, cfg, noisy, make_rng(45, trial))
        assert res.selected.size == mu
        assert 1 <= res.iterations <= cfg.t_max
        assert res.stop_reason is not None
        assert res.evaluations_used <= lam * cfg.t_max
        assert res.evaluations_used == sum(len(ind.archive) for ind in pop)


# ---------------------------------------------------------------------------
# static baselines


def test_static_sample_count_and_archives():
    pop = _pop([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
    noisy = NoisyProblem(_plane(), make_noise("gaussian"), make_rng(15))
    res = static_select(pop, 1, 5, EstimatorKind.MEAN, noisy)
    assert res.evaluations_used == 15
    assert res.iterations == 1
    assert res.stop_reason is None
    for ind in pop:
        assert len(ind.archive) == 5


def test_static_skips_unchanged_individuals():
    # An archive that already holds the sample count is not sampled again.
    pop = _pop([(0.0, 0.0), (1.0, 1.0)])
    pop[1] = Individual(np.ones(2), np.ones(2), SampleArchive([(9.0, 9.0)] * 3))
    noisy = NoisyProblem(_plane(), make_noise("none"))
    res = static_select(pop, 1, 3, EstimatorKind.MEAN, noisy)
    assert res.evaluations_used == 3
    assert len(pop[1].archive) == 3
    # the unchanged individual is judged by its archive estimate
    assert res.selected.tolist() == [0]


def test_static_samples_exactly_the_archives_short_of_the_sample_count():
    # Archives of n - 1 rows are sampled n more times; archives of n are not.
    n = 3
    pop = _pop([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
    for ind, rows in zip(pop, (n - 1, n, 0)):
        for _ in range(rows):
            ind.archive.append(ind.genome)
    noisy = NoisyProblem(_plane(), make_noise("none"))
    res = static_select(pop, 1, n, EstimatorKind.MEAN, noisy)
    assert [len(ind.archive) for ind in pop] == [2 * n - 1, n, n]
    assert res.evaluations_used == noisy.evaluations == 2 * n


@pytest.mark.parametrize("kind", list(EstimatorKind), ids=[k.value for k in EstimatorKind])
def test_static_judges_full_archives_by_exact_estimates_at_no_cost(monkeypatch, kind):
    judged = []

    def recorded(points, mu):
        judged.append(np.array(points))
        return environmental_select(points, mu)

    monkeypatch.setattr(racing, "environmental_select", recorded)
    pop = _pop([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (0.5, 1.5)])
    noisy = NoisyProblem(_plane(), make_noise("cauchy"), make_rng(20))
    first = static_select(pop, 2, 4, kind, noisy)
    # every archive now holds the sample count: the second selection
    # evaluates nothing and judges the same estimates
    second = static_select(pop, 2, 4, kind, noisy)
    assert (first.evaluations_used, second.evaluations_used) == (16, 0)
    assert noisy.evaluations == 16
    assert second.selected.tolist() == first.selected.tolist()
    want = np.array([estimator_value(ind.archive.as_array(), kind) for ind in pop])
    for points in judged:
        assert points.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_worst_generation_counts_parents_short_by_one_sample():
    pop = _pop([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
    for ind, rows in zip(pop, (2, 3, 4)):
        for _ in range(rows):
            ind.archive.append(ind.genome)
    parents = Population.stack(pop)
    # three offspring plus the one parent holding fewer than 3 samples
    assert make_selector("static-avg", 3).worst_generation_evaluations(parents) == 4 * 3
    assert make_selector("rsp-i", 4, 0.5).worst_generation_evaluations(parents) == 5 * 4


def test_static_budget_guard():
    pop = _pop([(0.0, 0.0), (1.0, 1.0)])
    noisy = NoisyProblem(_plane(), make_noise("none"), max_evaluations=5)
    with pytest.raises(RuntimeError, match="static resampling"):
        static_select(pop, 1, 3, EstimatorKind.MEAN, noisy)


def test_implicit_is_static_with_one_last_sample():
    points = [(0.4, 0.6), (0.6, 0.4), (0.1, 0.9)]
    noise = make_noise("gaussian")
    pop_a = _pop(points)
    pop_b = _pop(points)
    res_a = make_selector("implicit").select(
        pop_a, 2, NoisyProblem(_plane(), noise, make_rng(18)), make_rng(0)
    )
    res_b = static_select(
        pop_b, 2, 1, EstimatorKind.LAST, NoisyProblem(_plane(), noise, make_rng(18))
    )
    assert res_a.selected.tolist() == res_b.selected.tolist()
    for a, b in zip(pop_a, pop_b):
        np.testing.assert_array_equal(a.archive.as_array(), b.archive.as_array())


def test_median_resists_cauchy_outliers_better_than_mean():
    # Two individuals, one strictly better. Thirty samples each under
    # heavy-tailed noise: the median estimator should rank them correctly
    # nearly always, the mean noticeably less often.
    noise = make_noise("cauchy")
    correct = {EstimatorKind.MEDIAN: 0, EstimatorKind.MEAN: 0}
    for kind in correct:
        for trial in range(200):
            pop = _pop([(0.0, 0.0), (0.2, 0.2)])
            noisy = NoisyProblem(_plane(), noise, make_rng(19, trial))
            res = static_select(pop, 1, 30, kind, noisy)
            correct[kind] += res.selected.tolist() == [0]
    assert correct[EstimatorKind.MEDIAN] >= 190
    assert correct[EstimatorKind.MEAN] < correct[EstimatorKind.MEDIAN]


# ---------------------------------------------------------------------------
# selector construction


def test_selector_ids_and_estimators():
    assert ALGORITHM_IDS == (
        "implicit",
        "static-avg",
        "static-med",
        "rsp-i",
        "rsp-avg",
        "rsp-med",
    )
    assert algorithm_estimator("implicit") is EstimatorKind.LAST
    assert algorithm_estimator("static-avg") is EstimatorKind.MEAN
    assert algorithm_estimator("static-med") is EstimatorKind.MEDIAN
    assert algorithm_estimator("rsp-i") is EstimatorKind.LAST
    assert algorithm_estimator("rsp-avg") is EstimatorKind.MEAN
    assert algorithm_estimator("rsp-med") is EstimatorKind.MEDIAN
    with pytest.raises(ValueError, match="unknown algorithm"):
        algorithm_estimator("rsp-max")


def test_selector_worst_case_multipliers():
    assert make_selector("implicit").worst_evals_per_offspring == 1
    assert make_selector("static-avg", 7).worst_evals_per_offspring == 7
    assert make_selector("rsp-med", 12, 0.25).worst_evals_per_offspring == 12


def test_selector_parameter_validation():
    with pytest.raises(ValueError):
        make_selector("static-avg")
    with pytest.raises(ValueError):
        make_selector("rsp-i", 5)
    with pytest.raises(ValueError):
        make_selector("rsp-i", 5, 1.0)


# ---------------------------------------------------------------------------
# one full generation


def _fresh_parents(problem, noisy, rng, mu, samples=1):
    """mu random parents, each evaluated ``samples`` times, parent by parent."""
    genomes = _random_genomes(problem, rng, mu)
    parents = Population(genomes, problem.true_eval(genomes))
    parents.reserve(samples)
    parents.sample(np.arange(mu), noisy, samples)
    return parents


def test_generation_produces_mu_survivors_with_fresh_metadata():
    problem = make_problem("zdt1")
    noisy = NoisyProblem(problem, make_noise("none"))
    rng = make_rng(60)
    parents = _fresh_parents(problem, noisy, rng, 8)
    mating = environmental_select(parents.estimates(EstimatorKind.LAST), 8)
    selector = _PoolRecorder(make_selector("implicit"))
    survivors, next_mating, result = nsga2_generation(
        parents, mating, selector, noisy, make_rng(61), make_rng(63)
    )
    assert len(survivors) == 8
    assert next_mating.rank.shape == (8,)
    assert next_mating.crowding.shape == (8,)
    assert result.selected.size == 8
    # each parent already held its one sample, so none was sampled again
    assert selector.pool.counts[:8].tolist() == [1] * 8
    assert (survivors.counts == 1).all()


def test_generation_matches_deterministic_selection_oracle():
    # Under zero noise with implicit selection, survivors must be exactly
    # the environmental selection of the pool's true objective values.
    # The pool is reconstructed by replaying the variation stream.
    problem = make_problem("zdt1")
    noise = make_noise("none")
    noisy_a = NoisyProblem(problem, noise)
    parents = _fresh_parents(problem, noisy_a, make_rng(65), 6)
    genomes = parents.genomes.copy()
    mating = environmental_select(parents.estimates(EstimatorKind.LAST), 6)

    survivors, _, result = nsga2_generation(
        parents,
        mating,
        make_selector("implicit"),
        noisy_a,
        make_rng(66),
        make_rng(68),
    )

    replay = make_rng(66)
    n = problem.n_variables
    offspring = []
    while len(offspring) < 6:
        ia = binary_tournament(mating, replay)
        ib = binary_tournament(mating, replay)
        replay.random()  # the pair gate, drawn but never read
        pair = np.stack([genomes[ia], genomes[ib]])[None]
        children = sbx_crossover(
            pair, problem.lower, problem.upper, replay.random((1, 2, n)), 20.0
        )
        children = polynomial_mutation(
            children, problem.lower, problem.upper, replay.random((1, 2, 2, n)), 20.0, None
        )
        ca, cb = children[0]
        offspring.append(ca)
        if len(offspring) < 6:
            offspring.append(cb)
    pool_genomes = list(genomes) + offspring
    true_points = np.vstack([problem.true_eval(g) for g in pool_genomes])
    oracle = environmental_select(true_points, 6)
    assert result.selected.tolist() == oracle.selected.tolist()
    survivor_genomes = [pool_genomes[i] for i in oracle.selected]
    np.testing.assert_array_equal(survivors.genomes, survivor_genomes)
    # the generation leaves its parents as they were
    np.testing.assert_array_equal(parents.genomes, genomes)


def test_generation_evaluation_cost_is_bounded_by_the_race_cap():
    problem = make_problem("zdt1")
    noisy = NoisyProblem(problem, make_noise("gaussian"), make_rng(72))
    t_max = 6
    parents = _fresh_parents(problem, noisy, make_rng(70), 10)
    # half the parents already hold t_max samples, half hold one
    parents.reserve(t_max)
    parents.sample(np.arange(5), noisy, t_max - 1)
    mating = environmental_select(parents.estimates(EstimatorKind.MEDIAN), 10)
    before = noisy.evaluations
    selector = make_selector("rsp-med", sampling_budget=t_max, confidence=0.25)
    reserved = selector.worst_generation_evaluations(parents)
    assert reserved == (10 + 5) * t_max
    recorder = _PoolRecorder(selector)
    _, _, result = nsga2_generation(
        parents, mating, recorder, noisy, make_rng(71), make_rng(73)
    )
    spent = noisy.evaluations - before
    assert spent == result.evaluations_used
    # mu offspring plus the short parents are sampled, each at most t_max times
    assert spent <= reserved
    # a parent that already holds t_max samples gains none
    assert recorder.pool.counts[:5].tolist() == [t_max] * 5
    # a parent short of t_max is sampled in at least the first iteration
    assert (recorder.pool.counts[5:10] > 1).all()


def test_static_generation_samples_one_sample_parents_up_to_the_budget():
    # Initial individuals hold one noisy sample; static-med must not judge
    # them by it for the rest of the run.
    problem = make_problem("zdt1")
    noisy = NoisyProblem(problem, make_noise("cauchy"), make_rng(76))
    parents = _fresh_parents(problem, noisy, make_rng(74), 10)
    mating = environmental_select(parents.estimates(EstimatorKind.MEDIAN), 10)
    selector = _PoolRecorder(make_selector("static-med", sampling_budget=5))
    before = noisy.evaluations
    survivors, _, result = nsga2_generation(
        parents, mating, selector, noisy, make_rng(75), make_rng(77)
    )
    assert (survivors.counts >= 5).all()
    assert selector.pool.counts[:10].tolist() == [1 + 5] * 10
    assert noisy.evaluations - before == result.evaluations_used == (10 + 10) * 5


def test_race_survivor_with_a_short_archive_is_sampled_again():
    problem = make_problem("zdt1")
    noisy = NoisyProblem(problem, make_noise("none"))
    t_max = 8
    parents = _fresh_parents(problem, noisy, make_rng(78), 10, samples=t_max)
    mating = environmental_select(parents.estimates(EstimatorKind.MEDIAN), 10)
    selector = make_selector("rsp-med", sampling_budget=t_max, confidence=0.25)
    streams = [make_rng(79), make_rng(81)]
    # Without noise the first race retires individuals early, so some
    # offspring survive with fewer than t_max samples.
    survivors, mating, first = nsga2_generation(
        parents, mating, selector, noisy, *streams
    )
    assert first.iterations < t_max
    lengths = survivors.counts.tolist()
    short = [i for i, n in enumerate(lengths) if n < t_max]
    full = [i for i, n in enumerate(lengths) if n >= t_max]
    assert short and full
    before = noisy.evaluations
    assert selector.worst_generation_evaluations(survivors) == (10 + len(short)) * t_max
    recorder = _PoolRecorder(selector)
    _, _, second = nsga2_generation(survivors, mating, recorder, noisy, *streams)
    assert noisy.evaluations - before == second.evaluations_used
    gained = recorder.pool.counts[:10]
    for i in short:
        assert gained[i] > lengths[i]
    for i in full:
        assert gained[i] == lengths[i]


# ---------------------------------------------------------------------------
# batched variation against the per-pair reference
#
# Before variation was batched, each pair drew its own uniforms inside the
# operators. Those per-pair operators and the generation loop that called
# them are kept here as the oracle: the batched draw pass must consume the
# variation stream in the same order, and the array operators must give
# the same floats.


def _sbx_pair(parent_a, parent_b, lower, upper, eta, crossover_prob, rng):
    """Per-pair SBX that draws its own gate, exchange and spread uniforms."""
    a = np.asarray(parent_a, dtype=float)
    b = np.asarray(parent_b, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    child_a = a.copy()
    child_b = b.copy()
    if rng.random() >= crossover_prob:
        return child_a, child_b
    n = a.size
    exchange = rng.random(n) <= 0.5
    u = rng.random(n)
    beta = np.where(
        u <= 0.5,
        (2.0 * u) ** (1.0 / (eta + 1.0)),
        (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0)),
    )
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    mid = 0.5 * (lo + hi)
    half = 0.5 * beta * (hi - lo)
    child_a = np.where(exchange, mid - half, a)
    child_b = np.where(exchange, mid + half, b)
    np.clip(child_a, lower, upper, out=child_a)
    np.clip(child_b, lower, upper, out=child_b)
    return child_a, child_b


def _mutate_one(x, lower, upper, eta, mutation_prob, rng):
    """Per-genome polynomial mutation that draws its own gate and spread uniforms."""
    x = np.asarray(x, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = x.size
    if mutation_prob is None:
        mutation_prob = 1.0 / n
    gate = rng.random(n) < mutation_prob
    u = rng.random(n)
    span = upper - lower
    d_lo = (x - lower) / span
    d_hi = (upper - x) / span
    exp = 1.0 / (eta + 1.0)
    low_branch = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d_lo) ** (eta + 1.0)) ** exp - 1.0
    high_branch = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d_hi) ** (eta + 1.0)) ** exp
    delta = np.where(u <= 0.5, low_branch, high_branch)
    mutated = np.clip(x + delta * span, lower, upper)
    return np.where(gate, mutated, x)


def _offspring_loop(parents, mating, problem, rng):
    """The per-pair variation loop of a generation, with its clone rule.

    Also returns, per child, which parent of its pair it clones: "a", "b"
    or "new".
    """
    lower, upper = problem.lower, problem.upper

    def child(genome, pair):
        for parent, kind in zip(pair, "ab"):
            if np.array_equal(genome, parent.genome):
                archive = SampleArchive(parent.archive.as_array())
                return Individual(genome.copy(), parent.objectives, archive), kind
        return Individual(genome, problem.true_eval(genome), SampleArchive()), "new"

    offspring, kinds = [], []
    while len(offspring) < len(parents):
        ia = binary_tournament(mating, rng)
        ib = binary_tournament(mating, rng)
        ca, cb = _sbx_pair(
            parents[ia].genome, parents[ib].genome, lower, upper, 20.0, 1.0, rng
        )
        ca = _mutate_one(ca, lower, upper, 20.0, None, rng)
        cb = _mutate_one(cb, lower, upper, 20.0, None, rng)
        pair = (parents[ia], parents[ib])
        for genome in (ca, cb)[: len(parents) - len(offspring)]:
            ind, kind = child(genome, pair)
            offspring.append(ind)
            kinds.append(kind)
    return offspring, kinds


def _random_genomes(problem, rng, count):
    return problem.lower + rng.random((count, problem.n_variables)) * (problem.upper - problem.lower)


@pytest.mark.parametrize("name", ["zdt1", "zdt4"])
@pytest.mark.parametrize("eta", [20.0, 1.0])
def test_batched_sbx_matches_the_per_pair_reference(name, eta):
    problem = make_problem(name)
    n = problem.n_variables
    setup = make_rng(90)
    pairs = 400
    parents = np.stack([_random_genomes(problem, setup, pairs) for _ in range(2)], axis=1)
    parents[::7, 1] = parents[::7, 0]  # identical parents
    parents[1::9, :, 0] = problem.lower[0]  # coordinates on the bounds
    parents[2::9, :, -1] = problem.upper[-1]
    reference = make_rng(91)
    want = np.stack([
        np.stack(_sbx_pair(a, b, problem.lower, problem.upper, eta, 1.0, reference))
        for a, b in parents
    ])
    # the same draws, made ahead of the arithmetic: each pair's gate, which
    # always fires, then its 2n uniforms
    draws = make_rng(91)
    uniforms = np.empty((pairs, 2, n))
    for p in range(pairs):
        draws.random()
        draws.random(out=uniforms[p])
    got = sbx_crossover(parents, problem.lower, problem.upper, uniforms, eta)
    assert got.tobytes() == want.tobytes()
    assert draws.bit_generator.state == reference.bit_generator.state
    if eta == 1.0:
        clipped = (want == problem.lower) | (want == problem.upper)
        assert clipped.any()


@pytest.mark.parametrize("name", ["zdt1", "zdt4"])
@pytest.mark.parametrize("mutation_prob", [None, 0.0, 0.3, 1.0])
def test_batched_mutation_matches_the_per_pair_reference(name, mutation_prob):
    problem = make_problem(name)
    n = problem.n_variables
    rows = 500
    x = _random_genomes(problem, make_rng(92), rows)
    x[::5, 0] = problem.lower[0]
    x[1::5, -1] = problem.upper[-1]
    reference = make_rng(93)
    want = np.stack([
        _mutate_one(row, problem.lower, problem.upper, 20.0, mutation_prob, reference)
        for row in x
    ])
    draws = make_rng(93)
    uniforms = draws.random((rows, 2, n))
    got = polynomial_mutation(x, problem.lower, problem.upper, uniforms, 20.0, mutation_prob)
    assert got.tobytes() == want.tobytes()
    assert draws.bit_generator.state == reference.bit_generator.state
    moved = int((got != x).sum())
    if mutation_prob == 0.0:
        assert moved == 0
    else:
        assert moved > 0


class _PoolRecorder:
    """Keeps the pool it is given and selects with ``selector``; without
    one it keeps the first mu of the pool."""

    pool = None

    def __init__(self, selector=None):
        self.selector = selector

    def select(self, pool, mu, noisy, boot_rng):
        self.pool = pool
        if self.selector is not None:
            return self.selector.select(pool, mu, noisy, boot_rng)
        outcome = environmental_select(np.zeros((len(pool), 2)), mu)
        return RaceResult(np.arange(mu), 0, 1, None, outcome)


def _variation_parents(problem, rng, mu):
    """Parents whose genomes repeat or differ in one coordinate, so that
    children clone parent a, parent b, or both, and whose archives differ
    in length, so that each clone's archive copy can be told apart."""
    genomes = _random_genomes(problem, rng, 3)
    genomes[1] = genomes[0]
    genomes[1, 0] = problem.lower[0] + 0.25 * (problem.upper[0] - problem.lower[0])
    parents = []
    for i in range(mu):
        genome = genomes[rng.integers(genomes.shape[0])].copy()
        ind = Individual(genome, problem.true_eval(genome))
        for _ in range(1 + i % 4):
            ind.archive.append(rng.normal(size=2))
        parents.append(ind)
    return parents


def _generation_against_the_loop(problem, mu, seed):
    """One generation's offspring and the per-pair loop's, from the same
    parents and variation seed; checks the streams end in the same state."""
    setup = make_rng(94, seed)
    parents = _variation_parents(problem, setup, mu)
    # tied ranks and crowding, so tournaments also flip coins
    mating = SelectionOutcome(
        selected=np.arange(mu),
        rank=setup.integers(0, 2, size=mu),
        crowding=setup.choice([0.5, 1.0, np.inf], size=mu),
    )
    selector = _PoolRecorder()
    store = Population.stack(parents)
    variation = make_rng(95, seed)
    noisy = NoisyProblem(problem, make_noise("none"))
    nsga2_generation(store, mating, selector, noisy, variation, make_rng(1))
    reference = make_rng(95, seed)
    want, kinds = _offspring_loop(parents, mating, problem, reference)
    assert variation.bit_generator.state == reference.bit_generator.state
    return store, selector.pool.take(np.arange(mu, 2 * mu)), want, kinds


@pytest.mark.parametrize("name", ["zdt1", "zdt4"])
@pytest.mark.parametrize("mu", [2, 7, 40])
def test_generation_variation_matches_the_per_pair_loop(name, mu):
    problem = make_problem(name)
    kinds = []
    for seed in range(30):
        parents, got, want, seed_kinds = _generation_against_the_loop(problem, mu, seed)
        kinds += seed_kinds
        assert len(got) == len(want) == mu
        for j, w in enumerate(want):
            assert got.genomes[j].tobytes() == w.genome.tobytes()
            assert got.objectives[j].tobytes() == w.objectives.tobytes()
            assert got.counts[j] == len(w.archive)
            if len(w.archive):
                assert got.samples[j, : len(w.archive)].tobytes() == w.archive.as_array().tobytes()
        # each clone holds a copy of its parent's samples
        assert not np.shares_memory(got.samples, parents.samples)
    if mu > 2:
        assert {"a", "b", "new"} <= set(kinds)


# ---------------------------------------------------------------------------
# the race's sample contract: one evaluate call per evaluation, one
# bootstrap_draw call per other slot, representatives equal to the
# archive estimator over archive and draw


@pytest.mark.parametrize("kind", list(EstimatorKind), ids=[k.value for k in EstimatorKind])
def test_race_iterations_fill_every_slot_with_one_sample_or_one_draw(monkeypatch, kind):
    points = make_rng(120).uniform(-1.0, 1.0, size=(8, 2))
    pop = _pop(points)
    # rows 0-2 hold t_max samples and are never sampled; the others are short
    t_max = 5
    setup = make_rng(121)
    for i, ind in enumerate(pop):
        for _ in range(t_max if i < 3 else i % 3):
            ind.archive.append(points[i] + setup.normal(size=2))
    archives = [ind.archive.as_array().copy() if len(ind.archive) else np.empty((0, 2))
                for ind in pop]
    row_of = {p.tobytes(): i for i, p in enumerate(points)}
    iterations = []  # per iteration: (evaluated rows and samples, draws)
    evaluate = NoisyProblem.evaluate

    def counted_evaluate(self, objectives):
        sample = evaluate(self, objectives)
        iterations[-1][0].append((row_of[np.asarray(objectives).tobytes()], sample))
        return sample

    def counted_draw(rows, rng):
        draw = bootstrap_draw(rows, rng)
        iterations[-1][1].append((np.array(rows), draw))
        return draw

    def judged(reps, mu):
        fresh, draws = iterations[-1]
        # An end-of-race fill-in judges the racers again without a new slot.
        if fresh or draws:
            assert len(fresh) + len(draws) == len(pop) == len(reps)
            evaluated = [i for i, _ in fresh]
            assert evaluated == sorted(evaluated) and min(evaluated) >= 3
            for i, sample in fresh:
                archives[i] = np.vstack([archives[i], sample])
            others = [i for i in range(len(pop)) if i not in evaluated]
            want = np.empty_like(reps)
            for i in evaluated:
                want[i] = estimator_value(archives[i], kind)
            for i, (rows, draw) in zip(others, draws):
                assert rows.tobytes() == archives[i].tobytes()
                want[i] = estimator_value(np.vstack([archives[i], draw]), kind)
            assert reps.view(np.int64).tolist() == want.view(np.int64).tolist()
            iterations.append(([], []))
        return environmental_select(reps, mu)

    monkeypatch.setattr(NoisyProblem, "evaluate", counted_evaluate)
    monkeypatch.setattr(racing, "bootstrap_draw", counted_draw)
    monkeypatch.setattr(racing, "environmental_select", judged)
    noisy = NoisyProblem(_plane(), make_noise("cauchy"), make_rng(122))
    iterations.append(([], []))
    res = race_select(pop, 4, RaceConfig(0.5, t_max, 0.0, kind), noisy, make_rng(123))
    iterations = iterations[:res.iterations]
    assert res.iterations >= 3
    assert sum(len(fresh) for fresh, _ in iterations) == res.evaluations_used == noisy.evaluations
    # the list boundary hands every new sample back to its archive
    for ind, rows in zip(pop, archives):
        assert ind.archive.as_array().tobytes() == rows.tobytes()


@pytest.mark.parametrize("algorithm", ["rsp-i", "rsp-avg", "rsp-med"])
def test_run_race_slots_and_evaluations_reconcile(monkeypatch, algorithm):
    calls = {"evaluate": 0, "draw": 0, "slots": 0, "iterations": 0}
    evaluate, record = NoisyProblem.evaluate, SelectionRace.record

    def counted_evaluate(self, objectives):
        calls["evaluate"] += 1
        return evaluate(self, objectives)

    def counted_draw(rows, rng):
        calls["draw"] += 1
        return bootstrap_draw(rows, rng)

    def counted_record(self, chosen):
        # every pool slot got one fresh sample or one draw since the last record
        calls["slots"] += self.size
        calls["iterations"] += 1
        return record(self, chosen)

    monkeypatch.setattr(NoisyProblem, "evaluate", counted_evaluate)
    monkeypatch.setattr(racing, "bootstrap_draw", counted_draw)
    monkeypatch.setattr(SelectionRace, "record", counted_record)
    cfg = ExperimentConfig("zdt1", "gaussian", algorithm, 4, 0.25, population_size=8,
                           max_evaluations=400)
    record_ = run_experiment(cfg, 3)
    assert calls["evaluate"] == record_.evaluations
    assert calls["iterations"] == sum(row.race_length for row in record_.gen_rows)
    # the initial population's evaluations happen outside any race
    in_race = record_.evaluations - cfg.population_size
    assert in_race + calls["draw"] == calls["slots"]
