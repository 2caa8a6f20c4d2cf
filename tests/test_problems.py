from __future__ import annotations

import math

import numpy as np
import pytest

from raceopt.core import make_rng
from raceopt.moea import dominates
from raceopt.problems import (
    GUMBEL_LOCATION,
    GUMBEL_SCALE,
    NOISE_BLOCK_ROWS,
    NOISE_NAMES,
    PROBLEM_NAMES,
    ZDT3_FRONT_INTERVALS,
    ZDT6_F1_MIN,
    NoiseModel,
    NoisyProblem,
    make_noise,
    make_problem,
)


def _random_feasible(problem, rng, count):
    span = problem.upper - problem.lower
    return problem.lower + rng.random((count, problem.n_variables)) * span


# ---------------------------------------------------------------------------
# objective functions


def test_zdt1_known_points():
    p = make_problem("zdt1")
    np.testing.assert_allclose(p.true_eval(np.zeros(30)), [0.0, 1.0])
    x = np.zeros(30)
    x[0] = 1.0
    np.testing.assert_allclose(p.true_eval(x), [1.0, 0.0], atol=1e-12)
    x[0] = 0.25
    np.testing.assert_allclose(p.true_eval(x), [0.25, 0.5])


def test_zdt2_front_shape_at_g_equal_one():
    p = make_problem("zdt2")
    x = np.zeros(30)
    x[0] = 0.6
    f = p.true_eval(x)
    np.testing.assert_allclose(f, [0.6, 1.0 - 0.36])


def test_zdt3_oscillating_term():
    p = make_problem("zdt3")
    x = np.zeros(30)
    x[0] = 0.2
    f = p.true_eval(x)
    want = 1.0 - math.sqrt(0.2) - 0.2 * math.sin(10.0 * math.pi * 0.2)
    np.testing.assert_allclose(f, [0.2, want])


def test_zdt4_dimensions_and_bounds():
    p = make_problem("zdt4")
    assert p.n_variables == 10
    assert p.lower[0] == 0.0 and p.upper[0] == 1.0
    np.testing.assert_array_equal(p.lower[1:], -5.0)
    np.testing.assert_array_equal(p.upper[1:], 5.0)
    # Rastrigin tail vanishes at the origin, so g = 1 there.
    np.testing.assert_allclose(p.true_eval(np.zeros(10)), [0.0, 1.0])


def test_zdt6_g_and_f1_shape():
    p = make_problem("zdt6")
    assert p.n_variables == 10
    x = np.zeros(10)
    x[0] = 0.5
    f1 = 1.0 - math.exp(-2.0) * math.sin(3.0 * math.pi) ** 6
    f = p.true_eval(x)
    np.testing.assert_allclose(f[0], f1)
    np.testing.assert_allclose(f[1], 1.0 - f1 * f1)


def test_zdt6_f1_minimum_matches_grid_search():
    xs = np.linspace(0.0, 1.0, 1_000_001)
    f1 = 1.0 - np.exp(-4.0 * xs) * np.sin(6.0 * np.pi * xs) ** 6
    assert abs(f1.min() - ZDT6_F1_MIN) < 1e-10


def test_domain_violations_are_rejected():
    p = make_problem("zdt1")
    with pytest.raises(ValueError, match="domain-violation"):
        p.true_eval(np.zeros(29))
    bad = np.zeros(30)
    bad[3] = 1.5
    with pytest.raises(ValueError, match="domain-violation"):
        p.true_eval(bad)
    bad = np.zeros(30)
    bad[0] = np.nan
    with pytest.raises(ValueError, match="domain-violation"):
        p.true_eval(bad)


def test_true_eval_is_deterministic():
    rng = np.random.default_rng(11)
    for name in PROBLEM_NAMES:
        p = make_problem(name)
        for x in _random_feasible(p, rng, 20):
            np.testing.assert_array_equal(p.true_eval(x), p.true_eval(x))


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_rows_equal_single_genomes_bit_for_bit(name):
    # A stack of genomes is evaluated in one call; each row must carry the
    # exact bits of that genome evaluated alone, the arithmetic seeded run
    # files pin, boundary genomes included.
    p = make_problem(name)
    x = _random_feasible(p, np.random.default_rng(12), 200_000)
    x[::997] = p.lower
    x[1::997] = p.upper
    x[2::997, 0] = p.lower[0]
    x[3::997, 0] = p.upper[0]
    rows = p.true_eval(x)
    assert rows.shape == (200_000, 2)
    single = np.array([p.true_eval(genome) for genome in x])
    np.testing.assert_array_equal(rows.view(np.int64), single.view(np.int64))


def test_stacks_are_checked_per_genome():
    p = make_problem("zdt1")
    x = np.full((3, 30), 0.5)
    assert p.true_eval(x[:0]).shape == (0, 2)
    x[1, 4] = 1.5
    with pytest.raises(ValueError, match="domain-violation: point outside"):
        p.true_eval(x)
    with pytest.raises(ValueError, match="domain-violation.*shape"):
        p.true_eval(np.full((2, 3, 30), 0.5))


def test_unknown_problem_name():
    with pytest.raises(ValueError):
        make_problem("zdt5")


# ---------------------------------------------------------------------------
# reference fronts


def test_zdt1_front_endpoints_and_midpoint():
    p = make_problem("zdt1")
    two = p.true_front(2)
    np.testing.assert_allclose(two, [[0.0, 1.0], [1.0, 0.0]])
    three = p.true_front(3)
    np.testing.assert_allclose(three[1], [0.5, 1.0 - math.sqrt(0.5)])


def test_front_points_are_mutually_nondominated():
    for name in PROBLEM_NAMES:
        front = make_problem(name).true_front(200)
        assert front.shape == (200, 2)
        for i in range(200):
            for j in range(200):
                if i != j:
                    assert not dominates(front[i], front[j]), (name, i, j)


def test_front_is_not_dominated_by_random_feasible_points():
    rng = np.random.default_rng(202)
    for name in PROBLEM_NAMES:
        p = make_problem(name)
        front = p.true_front(200)
        objs = np.vstack([p.true_eval(x) for x in _random_feasible(p, rng, 2000)])
        le = (objs[:, None, :] <= front[None, :, :]).all(axis=2)
        lt = (objs[:, None, :] < front[None, :, :]).any(axis=2)
        assert not np.any(le & lt), name


def test_zdt3_front_stays_inside_the_known_intervals():
    front = make_problem("zdt3").true_front(500)
    f1 = front[:, 0]
    inside = np.zeros(f1.shape, dtype=bool)
    for lo, hi in ZDT3_FRONT_INTERVALS:
        inside |= (f1 >= lo) & (f1 <= hi)
    assert inside.all()
    # and the curve value is reproduced exactly on the front
    want = 1.0 - np.sqrt(f1) - f1 * np.sin(10.0 * np.pi * f1)
    np.testing.assert_allclose(front[:, 1], want, atol=1e-12)


def test_zdt6_front_range_uses_attainable_f1():
    front = make_problem("zdt6").true_front(100)
    assert front[0, 0] == pytest.approx(ZDT6_F1_MIN)
    assert front[-1, 0] == pytest.approx(1.0)
    np.testing.assert_allclose(front[:, 1], 1.0 - front[:, 0] ** 2, atol=1e-12)


def test_front_needs_at_least_two_points():
    with pytest.raises(ValueError):
        make_problem("zdt1").true_front(1)


# ---------------------------------------------------------------------------
# noise models


def test_dirac_noise_is_exactly_additive_zero():
    rng = make_rng(5)
    noise = make_noise("none")
    for name in PROBLEM_NAMES:
        p = make_problem(name)
        noisy = NoisyProblem(p, noise)
        for x in _random_feasible(p, rng, 1000):
            np.testing.assert_array_equal(noisy.evaluate(p.true_eval(x)), p.true_eval(x))


def test_gaussian_noise_moments():
    rng = make_rng(99)
    draws = make_noise("gaussian").draw(1_000_000, rng)
    assert abs(draws.mean()) < 0.002
    assert abs(draws.std() - 0.25) < 0.002


def test_gumbel_noise_median_is_centred():
    # Analytically: median = location + scale * (-ln ln 2) and the location
    # constant is -scale * ln ln 2, so the two cancel exactly.
    assert GUMBEL_LOCATION - GUMBEL_SCALE * math.log(math.log(2.0)) == 0.0
    rng = make_rng(100)
    draws = make_noise("gumbel").draw(1_000_000, rng)
    assert abs(np.median(draws)) < 0.01


def test_cauchy_noise_scale_via_absolute_median():
    # |X| has median equal to the scale parameter for a centred Cauchy.
    rng = make_rng(101)
    draws = make_noise("cauchy").draw(1_000_000, rng)
    assert abs(np.median(np.abs(draws)) - 0.25) < 0.01


def test_noise_names_roundtrip():
    assert set(NOISE_NAMES) == {"none", "gaussian", "cauchy", "gumbel"}
    for name in NOISE_NAMES:
        assert make_noise(name).kind == name
    with pytest.raises(ValueError):
        make_noise("laplace")


def test_non_finite_draws_are_redrawn(monkeypatch):
    calls = {"n": 0}
    real = NoiseModel._draw_once

    def flaky(self, k, rng):
        calls["n"] += 1
        if calls["n"] <= 2:
            return np.full(k, np.inf)
        return real(self, k, rng)

    monkeypatch.setattr(NoiseModel, "_draw_once", flaky)
    out = make_noise("gaussian").draw(2, make_rng(3))
    assert np.all(np.isfinite(out))
    assert calls["n"] == 3


def test_redraw_cap_raises(monkeypatch):
    monkeypatch.setattr(
        NoiseModel, "_draw_once", lambda self, k, rng: np.full(k, np.nan)
    )
    with pytest.raises(RuntimeError, match="non-finite"):
        make_noise("cauchy").draw(2, make_rng(4))


class _ScriptedStream:
    """Stand-in generator that hands out a fixed value sequence in order,
    whatever the shape asked for, so the block reader and per-evaluation
    draws read the same values from it."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.used = 0

    def _take(self, size):
        count = int(np.prod(size))
        out = self.values[self.used:self.used + count]
        assert out.size == count, "script exhausted"
        self.used += count
        return out.reshape(size)

    def normal(self, loc, scale, size):
        return loc + scale * self._take(size)

    def standard_cauchy(self, size):
        return self._take(size)

    def gumbel(self, loc, scale, size):
        return loc + scale * self._take(size)


def _stream_against_draws(noise, make_stream, evaluations):
    """Noise added by ``evaluations`` calls of ``evaluate``, and the noise
    of as many sequential ``NoiseModel.draw`` calls on an equal stream."""
    noisy = NoisyProblem(make_problem("zdt1"), noise, make_stream())
    got = np.array([noisy.evaluate(np.zeros(2)) for _ in range(evaluations)])
    reference = make_stream()
    want = np.array([noise.draw(2, reference) for _ in range(evaluations)])
    return got, want


@pytest.mark.parametrize("name", NOISE_NAMES)
def test_block_stream_equals_sequential_draws(name):
    noise = make_noise(name)
    got, want = _stream_against_draws(noise, lambda: make_rng(7), 3 * NOISE_BLOCK_ROWS + 5)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["gaussian", "cauchy", "gumbel"])
def test_block_stream_skips_non_finite_rows_as_draw_redraws(name):
    blocks = 4
    values = np.random.default_rng(8).normal(size=(blocks * NOISE_BLOCK_ROWS, 2))
    values[3, 1] = np.nan
    values[NOISE_BLOCK_ROWS - 1 : NOISE_BLOCK_ROWS + 1, 0] = np.inf  # across a block edge
    start = 2 * NOISE_BLOCK_ROWS + 10
    values[start : start + 99, 1] = -np.inf  # one short of the cap
    finite_rows = int(np.isfinite(values).all(axis=1).sum())
    got, want = _stream_against_draws(
        make_noise(name), lambda: _ScriptedStream(values.ravel()), finite_rows
    )
    assert np.isfinite(got).all()
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["gaussian", "cauchy", "gumbel"])
def test_block_stream_and_draw_share_the_redraw_cap(name):
    noise = make_noise(name)
    values = np.ones((2 * NOISE_BLOCK_ROWS, 2))
    values[5:105, 0] = np.nan  # 100 non-finite rows in a row
    script = values.ravel()
    noisy = NoisyProblem(make_problem("zdt1"), noise, _ScriptedStream(script))
    reference = _ScriptedStream(script)
    for _ in range(5):
        noisy.evaluate(np.zeros(2))
        noise.draw(2, reference)
    with pytest.raises(RuntimeError, match="non-finite"):
        noisy.evaluate(np.zeros(2))
    with pytest.raises(RuntimeError, match="non-finite"):
        noise.draw(2, reference)


# ---------------------------------------------------------------------------
# budget accounting


def test_evaluation_counter_and_budget():
    p = make_problem("zdt1")
    noisy = NoisyProblem(p, make_noise("none"), max_evaluations=3)
    f = p.true_eval(np.full(30, 0.5))
    assert noisy.evaluations == 0
    assert noisy.can_afford(3)
    assert not noisy.can_afford(4)
    for i in range(3):
        noisy.evaluate(f)
        assert noisy.evaluations == i + 1
    assert not noisy.can_afford(1)
    assert noisy.can_afford(0)
    with pytest.raises(RuntimeError, match="budget exhausted"):
        noisy.evaluate(f)


def test_unlimited_budget():
    noisy = NoisyProblem(make_problem("zdt1"), make_noise("none"))
    assert noisy.max_evaluations is None
    assert noisy.can_afford(10**9)
    noisy.evaluate(np.zeros(2))
    assert noisy.evaluations == 1
    assert noisy.can_afford(10**9)


def test_noise_without_a_generator_is_rejected():
    for name in ("gaussian", "cauchy", "gumbel"):
        with pytest.raises(ValueError, match=name):
            NoisyProblem(make_problem("zdt1"), make_noise(name))


def test_evaluate_rejects_a_vector_that_is_not_one_value_per_objective():
    p = make_problem("zdt1")
    noisy = NoisyProblem(p, make_noise("gaussian"), make_rng(9))
    for bad in (np.full(30, 0.5), np.zeros(1), np.zeros((1, 2)), 0.5):
        with pytest.raises(ValueError, match="2 objective values"):
            noisy.evaluate(bad)
    assert noisy.evaluations == 0


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        NoisyProblem(make_problem("zdt1"), make_noise("none"), max_evaluations=-1)
