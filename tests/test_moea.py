from __future__ import annotations

import numpy as np
import pytest

from raceopt.core import make_rng
from raceopt.moea import (
    SelectionOutcome,
    binary_tournament,
    crowding_distance,
    dominates,
    environmental_select,
    nondominated_sort,
    polynomial_mutation,
    sbx_crossover,
)
from raceopt.problems import PROBLEM_NAMES, make_problem


def _brute_force_fronts(points):
    """Fronts by definition: again and again, take every remaining point
    that no remaining point dominates."""
    pts = np.asarray(points, dtype=float)
    # dom[i, j]: point i is nowhere worse than point j and somewhere better
    dom = np.all(pts[:, None] <= pts[None], axis=-1) & np.any(pts[:, None] < pts[None], axis=-1)
    remaining = np.arange(len(pts))
    fronts = []
    while remaining.size:
        dominated = dom[np.ix_(remaining, remaining)].any(axis=0)
        fronts.append(remaining[~dominated].tolist())
        remaining = remaining[dominated]
    return fronts


# ---------------------------------------------------------------------------
# oracles: the per-front crowding and the selection that the bi-objective
# kernel replaced, kept verbatim apart from their names; the fronts come
# from _brute_force_fronts


def _oracle_crowding_distance(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a non-empty 2-d array")
    m = pts.shape[0]
    dist = np.zeros(m)
    for j in range(pts.shape[1]):
        order = np.argsort(pts[:, j], kind="stable")
        vals = pts[order, j]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        spread = vals[-1] - vals[0]
        if m > 2 and spread > 0.0:
            dist[order[1:-1]] += (vals[2:] - vals[:-2]) / spread
    return dist


def _oracle_environmental_select(points, mu: int) -> SelectionOutcome:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a non-empty 2-d array")
    n = pts.shape[0]
    if not 1 <= mu <= n:
        raise ValueError(f"mu must be in [1, {n}], got {mu}")
    fronts = [np.array(f) for f in _brute_force_fronts(pts)]
    rank = np.empty(n, dtype=int)
    crowding = np.empty(n)
    for r, front in enumerate(fronts):
        rank[front] = r
        crowding[front] = _oracle_crowding_distance(pts[front])
    chosen: list[np.ndarray] = []
    space = mu
    for front in fronts:
        if front.size <= space:
            chosen.append(front)
            space -= front.size
            if space == 0:
                break
        else:
            order = np.lexsort((front, -crowding[front]))
            chosen.append(front[order[:space]])
            break
    selected = np.sort(np.concatenate(chosen))
    return SelectionOutcome(selected=selected, rank=rank, crowding=crowding)


# Signed zeros, the largest finite magnitudes (whose differences overflow)
# and subnormals, beside ordinary values.
_EDGE_VALUES = np.array(
    [0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 3.0]
)


def _bi_objective_set(rng) -> np.ndarray:
    """One random bi-objective set of 1 to 120 points, of one of six kinds."""
    n = int(rng.integers(1, 121))
    kind = int(rng.integers(6))
    if kind == 0:  # continuous
        return rng.random((n, 2))
    if kind == 1:  # integer grid: ties on both objectives, whole duplicates
        return rng.integers(0, int(rng.integers(1, 8)), (n, 2)).astype(float)
    if kind == 2:  # ties on one objective only
        pts = rng.random((n, 2))
        pts[:, int(rng.integers(2))] = rng.integers(0, 4, n)
        return pts
    if kind == 3:  # edge values only
        return rng.choice(_EDGE_VALUES, (n, 2))
    if kind == 4:  # a few distinct points, each repeated
        distinct = rng.random((int(rng.integers(1, 6)), 2))
        return distinct[rng.integers(0, len(distinct), n)]
    pts = rng.integers(-3, 4, (n, 2)).astype(float)  # a grid sprinkled with edge values
    edge = rng.random((n, 2)) < 0.3
    pts[edge] = rng.choice(_EDGE_VALUES, int(edge.sum()))
    return pts


def test_kernel_matches_brute_force_fronts_and_the_per_front_crowding_oracles():
    rng = np.random.default_rng(35)
    kinds = set()
    with np.errstate(over="ignore", invalid="ignore"):  # 1e308 - -1e308 overflows
        for _ in range(3000):
            pts = _bi_objective_set(rng)
            mu = int(rng.integers(1, len(pts) + 1))
            want_fronts = _brute_force_fronts(pts)
            assert [f.tolist() for f in nondominated_sort(pts)] == want_fronts
            for front in want_fronts:
                got = crowding_distance(pts[front])
                assert got.tobytes() == _oracle_crowding_distance(pts[front]).tobytes()
            want = _oracle_environmental_select(pts, mu)
            got = environmental_select(pts, mu)
            assert got.rank.dtype == want.rank.dtype
            assert got.rank.tolist() == want.rank.tolist()
            assert got.selected.tolist() == want.selected.tolist()
            assert got.crowding.tobytes() == want.crowding.tobytes()
            kinds.add((len(want_fronts) > 1, len(np.unique(pts, axis=0)) < len(pts)))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_are_rejected(bad):
    pts = [[0.0, 1.0], [bad, 0.5], [1.0, 0.0], [2.0, 2.0]]
    with pytest.raises(ValueError, match="finite"):
        nondominated_sort(pts)
    with pytest.raises(ValueError, match="finite"):
        crowding_distance(pts)
    with pytest.raises(ValueError, match="finite"):
        environmental_select(pts, 2)


# ---------------------------------------------------------------------------
# dominance and sorting


def test_dominates_examples():
    assert dominates([0.0, 0.0], [1.0, 1.0])
    assert dominates([0.0, 1.0], [0.0, 2.0])
    assert not dominates([0.0, 1.0], [1.0, 0.0])
    assert not dominates([1.0, 1.0], [1.0, 1.0])


def test_sort_examples():
    assert [f.tolist() for f in nondominated_sort([[1.0, 1.0]])] == [[0]]
    fronts = nondominated_sort([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    assert [f.tolist() for f in fronts] == [[0, 1, 2]]
    fronts = nondominated_sort([[0.0, 0.0], [1.0, 1.0], [0.5, 2.0]])
    assert [f.tolist() for f in fronts] == [[0], [1, 2]]


def test_sort_matches_brute_force_with_duplicates():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(2, 40))
        k = int(rng.choice([2, 3]))
        pts = rng.integers(0, 6, size=(n, k)).astype(float)  # lots of ties
        got = [f.tolist() for f in nondominated_sort(pts)]
        assert got == _brute_force_fronts(pts)


def test_sort_indices_partition_the_population():
    rng = np.random.default_rng(32)
    pts = rng.normal(size=(50, 2))
    fronts = nondominated_sort(pts)
    flat = np.sort(np.concatenate(fronts))
    np.testing.assert_array_equal(flat, np.arange(50))


# ---------------------------------------------------------------------------
# crowding distance


def test_crowding_single_point():
    dist = crowding_distance(np.array([[0.3, 0.7]]))
    assert dist.shape == (1,)
    assert np.isinf(dist[0])


def test_crowding_three_point_example():
    dist = crowding_distance(np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]))
    assert np.isinf(dist[0]) and np.isinf(dist[2])
    assert dist[1] == pytest.approx(2.0)


def test_crowding_identical_points_degenerate_spread():
    dist = crowding_distance(np.full((4, 2), 0.5))
    assert np.isinf(dist).sum() == 2
    assert (dist[~np.isinf(dist)] == 0.0).all()


# ---------------------------------------------------------------------------
# environmental selection


def test_select_prefers_dominating_point():
    out = environmental_select([[0.0, 0.0], [1.0, 1.0]], 1)
    assert out.selected.tolist() == [0]
    assert out.rank.tolist() == [0, 1]


def test_select_boundary_points_win_on_crowding():
    pts = [[0.0, 1.0], [0.3, 0.7], [0.7, 0.3], [1.0, 0.0]]
    out = environmental_select(pts, 2)
    assert out.selected.tolist() == [0, 3]


def test_select_everyone_when_mu_equals_lambda():
    out = environmental_select([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]], 3)
    assert out.selected.tolist() == [0, 1, 2]


def test_select_takes_whole_fronts_first():
    out = environmental_select([[0.0, 0.0], [2.0, 2.0], [3.0, 3.0]], 2)
    assert out.selected.tolist() == [0, 1]
    assert out.rank.tolist() == [0, 1, 2]


def test_select_mu_out_of_range():
    with pytest.raises(ValueError):
        environmental_select([[0.0, 0.0]], 0)
    with pytest.raises(ValueError):
        environmental_select([[0.0, 0.0]], 2)


def test_select_always_keeps_a_strict_dominator():
    rng = np.random.default_rng(33)
    for _ in range(200):
        n = int(rng.integers(3, 25))
        pts = rng.random((n, 2)) + 1.0
        best = rng.integers(n)
        pts[best] = 0.0  # dominates every other point
        mu = int(rng.integers(1, n))
        out = environmental_select(pts, mu)
        assert best in out.selected
        assert out.selected.size == mu


def test_select_is_invariant_under_positive_scaling():
    # Rank ordering and crowding comparisons only use per-objective
    # ordering and ratios, so a common positive scale changes nothing.
    rng = np.random.default_rng(34)
    for _ in range(50):
        n = int(rng.integers(4, 20))
        pts = rng.normal(size=(n, 2))
        mu = int(rng.integers(1, n))
        a = environmental_select(pts, mu)
        b = environmental_select(pts * 37.5, mu)
        assert set(a.selected.tolist()) == set(b.selected.tolist())
        assert a.rank.tolist() == b.rank.tolist()


# ---------------------------------------------------------------------------
# binary tournament


def test_tournament_rank_beats_crowding():
    out = SelectionOutcome(
        selected=np.array([0]),
        rank=np.array([0, 1]),
        crowding=np.array([0.0, np.inf]),
    )
    rng = make_rng(1)
    assert all(binary_tournament(out, rng) == 0 for _ in range(200))


def test_tournament_crowding_breaks_rank_ties():
    out = SelectionOutcome(
        selected=np.array([0, 1]),
        rank=np.array([0, 0]),
        crowding=np.array([1.0, 2.0]),
    )
    rng = make_rng(2)
    assert all(binary_tournament(out, rng) == 1 for _ in range(200))


def test_tournament_full_tie_is_a_coin_flip():
    out = SelectionOutcome(
        selected=np.array([0, 1]),
        rank=np.array([0, 0]),
        crowding=np.array([1.0, 1.0]),
    )
    rng = make_rng(3)
    winners = {binary_tournament(out, rng) for _ in range(500)}
    assert winners == {0, 1}


def test_tournament_singleton_pool():
    out = SelectionOutcome(
        selected=np.array([0]), rank=np.array([0]), crowding=np.array([np.inf])
    )
    assert binary_tournament(out, make_rng(4)) == 0


# ---------------------------------------------------------------------------
# simulated binary crossover


def _pairs(a, b):
    """Stack parent vectors (or batches of them) into a (pairs, 2, n) array."""
    return np.stack([np.atleast_2d(a), np.atleast_2d(b)], axis=1)


def _crossed_children(a, b, lower, upper, rng):
    """Cross every pair, drawing its exchange and spread uniforms from rng."""
    parents = _pairs(a, b)
    uniforms = rng.random((parents.shape[0], 2, parents.shape[-1]))
    children = sbx_crossover(parents, lower, upper, uniforms)
    return children[:, 0], children[:, 1]


def test_sbx_identical_parents_yield_identical_children():
    p = np.full(8, 0.4)
    c1, c2 = _crossed_children(p, p, np.zeros(8), np.ones(8), make_rng(5))
    np.testing.assert_array_equal(c1[0], p)
    np.testing.assert_array_equal(c2[0], p)


def test_sbx_at_u_half_reproduces_parent_coordinates():
    # Exchange draws 0.0 recombine every coordinate,
    # spread u = 0.5 gives beta = 1, so children land exactly on the
    # parents' coordinate-wise min and max.
    a = np.array([0.1, 0.9, 0.5])
    b = np.array([0.7, 0.2, 0.5])
    uniforms = np.array([[np.zeros(3), np.full(3, 0.5)]])
    children = sbx_crossover(_pairs(a, b), np.zeros(3), np.ones(3), uniforms)
    c1, c2 = children[0]
    np.testing.assert_allclose(c1, np.minimum(a, b), atol=1e-12)
    np.testing.assert_allclose(c2, np.maximum(a, b), atol=1e-12)
    got = np.sort(np.vstack([c1, c2]), axis=0)
    want = np.sort(np.vstack([a, b]), axis=0)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_sbx_recombines_a_coordinate_whose_exchange_draw_is_one_half():
    a = np.array([0.1, 0.1])
    b = np.array([0.7, 0.7])
    uniforms = np.array([[[0.5, np.nextafter(0.5, 1.0)], [0.25, 0.25]]])
    c1, c2 = sbx_crossover(_pairs(a, b), np.zeros(2), np.ones(2), uniforms)[0]
    assert 0.1 < c1[0] < c2[0] < 0.7
    assert c1[1] == 0.1 and c2[1] == 0.7


def test_sbx_without_exchanges_returns_parent_copies():
    a = np.array([0.1, 0.9])
    b = np.array([0.7, 0.2])
    parents = _pairs(a, b)
    # every exchange draw exceeds 0.5, so no coordinate is recombined
    uniforms = np.array([[[np.nextafter(0.5, 1.0), 0.9], [0.25, 0.75]]])
    children = sbx_crossover(parents, np.zeros(2), np.ones(2), uniforms)
    c1, c2 = children[0]
    np.testing.assert_array_equal(c1, a)
    np.testing.assert_array_equal(c2, b)
    c1[0] = -1.0
    assert a[0] == 0.1  # children are copies, not views
    assert parents[0, 0, 0] == 0.1


def test_sbx_preserves_the_parent_sum_before_clipping():
    rng = make_rng(6)
    lower = np.full(5, -50.0)
    upper = np.full(5, 51.0)
    a = rng.random((10_000, 5))
    b = rng.random((10_000, 5))
    c1, c2 = _crossed_children(a, b, lower, upper, rng)
    np.testing.assert_allclose(c1 + c2, a + b, atol=1e-12)


def test_sbx_children_respect_problem_bounds():
    rng = make_rng(7)
    for name in PROBLEM_NAMES:
        p = make_problem(name)
        span = p.upper - p.lower
        a = p.lower + rng.random((2000, p.n_variables)) * span
        b = p.lower + rng.random((2000, p.n_variables)) * span
        c1, c2 = _crossed_children(a, b, p.lower, p.upper, rng)
        assert np.all(c1 >= p.lower) and np.all(c1 <= p.upper)
        assert np.all(c2 >= p.lower) and np.all(c2 <= p.upper)


# ---------------------------------------------------------------------------
# polynomial mutation


def _mutated(x, lower, upper, rng, mutation_prob=None):
    """Mutate every row of x, drawing its gate and spread uniforms from rng."""
    x = np.atleast_2d(x)
    uniforms = rng.random((x.shape[0], 2, x.shape[-1]))
    return polynomial_mutation(x, lower, upper, uniforms, mutation_prob=mutation_prob)


def test_mutation_rate_zero_is_identity():
    x = np.linspace(0.0, 1.0, 7)
    out = _mutated(x, np.zeros(7), np.ones(7), make_rng(8), mutation_prob=0.0)
    np.testing.assert_array_equal(out[0], x)


def test_mutation_at_u_half_moves_nothing():
    x = np.array([0.2, 0.8])
    uniforms = np.array([np.zeros(2), np.full(2, 0.5)])  # gate always fires, u = 0.5 means delta 0
    out = polynomial_mutation(x, np.zeros(2), np.ones(2), uniforms, mutation_prob=1.0)
    np.testing.assert_allclose(out, x, atol=1e-15)


def test_mutation_gate_draw_equal_to_the_rate_does_not_mutate():
    x = np.array([0.2, 0.2])
    uniforms = np.array([[0.5, np.nextafter(0.5, 0.0)], [0.25, 0.25]])
    out = polynomial_mutation(x, np.zeros(2), np.ones(2), uniforms, mutation_prob=0.5)
    assert out[0] == 0.2
    assert out[1] < 0.2


def test_mutation_from_a_bound_stays_feasible():
    rng = make_rng(9)
    lower = np.zeros(4)
    upper = np.ones(4)
    x = np.tile([0.0, 1.0, 0.0, 1.0], (2000, 1))
    out = _mutated(x, lower, upper, rng, mutation_prob=1.0)
    assert np.all(out >= lower) and np.all(out <= upper)


def test_mutation_respects_problem_bounds():
    rng = make_rng(10)
    for name in PROBLEM_NAMES:
        p = make_problem(name)
        span = p.upper - p.lower
        x = p.lower + rng.random((2000, p.n_variables)) * span
        out = _mutated(x, p.lower, p.upper, rng, mutation_prob=1.0)
        assert np.all(out >= p.lower) and np.all(out <= p.upper)


def test_mutation_default_rate_touches_one_coordinate_on_average():
    rng = make_rng(11)
    n = 30
    x = np.full(n, 0.5)
    trials = 2000
    out = _mutated(np.tile(x, (trials, 1)), np.zeros(n), np.ones(n), rng)
    changed = int((out != x).sum())
    # Binomial(2000 * 30, 1/30): mean 2000, sd ~44. A few sigmas of slack.
    assert 1750 < changed < 2250
