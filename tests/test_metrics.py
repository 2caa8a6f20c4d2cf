from __future__ import annotations

import numpy as np
import pytest
import scipy.stats

from raceopt.metrics import (
    FALLBACK_FRAMES,
    NormalizationFrame,
    _average_ranks,
    _wilcoxon_approx,
    _wilcoxon_exact,
    build_frame,
    delta_hypervolume,
    fallback_frame,
    hypervolume_2d,
    normalize,
    wilcoxon_signed_rank,
)
from raceopt.problems import PROBLEM_NAMES, make_problem


def _unit_frame():
    return NormalizationFrame(ideal=np.zeros(2), nadir=np.full(2, 2.0))


def _random_nondominated(rng, n, lo=0.05, hi=0.95):
    """n strictly nondominated points inside [lo, hi]^2."""
    x = np.sort(rng.uniform(lo, hi, size=n))
    y = np.sort(rng.uniform(lo, hi, size=n))[::-1]
    # strictly increasing x paired with strictly decreasing y
    x += np.arange(n) * 1e-9
    y -= np.arange(n) * 1e-9
    return np.column_stack([x, y])


def _enumerated_pvalue(d, alternative):
    """Exact signed-rank p by brute-force enumeration of all sign vectors."""
    d = np.asarray(d, dtype=float)
    d = d[d != 0.0]
    ranks2 = np.rint(2.0 * scipy.stats.rankdata(np.abs(d))).astype(int)
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


# ---------------------------------------------------------------------------
# normalization frames


def test_normalize_examples():
    frame = _unit_frame()
    np.testing.assert_allclose(normalize([[1.0, 1.0]], frame), [[0.5, 0.5]])
    np.testing.assert_allclose(normalize([[2.0, 2.0]], frame), [[1.0, 1.0]])
    # points beyond the nadir clip to 1; points below the ideal pass through
    np.testing.assert_allclose(normalize([[3.0, -1.0]], frame), [[1.0, -0.5]])


def test_degenerate_frames_are_rejected():
    with pytest.raises(ValueError, match="degenerate-frame"):
        NormalizationFrame(ideal=np.zeros(2), nadir=np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="degenerate-frame"):
        NormalizationFrame(ideal=np.zeros(2), nadir=np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        NormalizationFrame(ideal=np.zeros(3), nadir=np.ones(2))


def test_build_frame_ideal_comes_from_the_front_alone():
    front = [[0.0, 1.0], [1.0, 0.0]]
    frame = build_frame(front, [[2.0, 0.5]], [[-1.0, -1.0]])
    np.testing.assert_array_equal(frame.ideal, [0.0, 0.0])
    np.testing.assert_array_equal(frame.nadir, [2.0, 1.0])
    frame = build_frame(front, np.empty((0, 2)))
    np.testing.assert_array_equal(frame.nadir, [1.0, 1.0])


# ---------------------------------------------------------------------------
# hypervolume


def test_hypervolume_examples():
    assert hypervolume_2d(np.empty((0, 2))) == 0.0
    assert hypervolume_2d([[0.5, 0.5]]) == pytest.approx(0.25)
    pts = [[0.2, 0.8], [0.5, 0.5], [0.8, 0.2]]
    assert hypervolume_2d(pts) == pytest.approx(0.37, abs=1e-12)


def test_hypervolume_ignores_points_at_or_past_the_reference():
    assert hypervolume_2d([[1.0, 0.2]]) == 0.0
    assert hypervolume_2d([[0.5, 1.7]]) == 0.0
    assert hypervolume_2d([[0.5, 0.5], [2.0, 2.0]]) == pytest.approx(0.25)


def test_hypervolume_rejects_bad_shapes():
    with pytest.raises(ValueError):
        hypervolume_2d([[0.1, 0.2, 0.3]])


def test_hypervolume_invariant_to_order_and_dominated_points():
    rng = np.random.default_rng(80)
    for _ in range(100):
        pts = _random_nondominated(rng, int(rng.integers(2, 20)))
        base = hypervolume_2d(pts)
        shuffled = pts[rng.permutation(pts.shape[0])]
        assert hypervolume_2d(shuffled) == base
        extra = pts[rng.integers(pts.shape[0])] + 0.04
        augmented = np.vstack([pts, extra])
        assert hypervolume_2d(augmented) == base


def test_hypervolume_never_grows_when_a_point_is_removed():
    rng = np.random.default_rng(81)
    for _ in range(50):
        pts = _random_nondominated(rng, int(rng.integers(3, 15)))
        full = hypervolume_2d(pts)
        drop = int(rng.integers(pts.shape[0]))
        sub = hypervolume_2d(np.delete(pts, drop, axis=0))
        assert sub <= full + 1e-15


def test_hypervolume_agrees_with_monte_carlo():
    rng = np.random.default_rng(82)
    for _ in range(5):
        pts = _random_nondominated(rng, int(rng.integers(3, 12)))
        exact = hypervolume_2d(pts)
        samples = rng.random((200_000, 2))
        hit = (samples[:, None, :] >= pts[None, :, :]).all(axis=2).any(axis=1)
        mc = hit.mean()
        sigma = np.sqrt(max(mc * (1.0 - mc), 1e-12) / samples.shape[0])
        assert abs(exact - mc) <= 4.0 * sigma


def _hypervolume_loop(points, reference=(1.0, 1.0)) -> float:
    """The scalar sweep hypervolume_2d replaced; kept as the exact reference."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return 0.0
    ref = np.asarray(reference, dtype=float)
    pts = pts[np.all(pts < ref, axis=1)]
    if pts.shape[0] == 0:
        return 0.0
    xs: list[float] = []
    ys: list[float] = []
    best = np.inf
    for i in np.lexsort((pts[:, 1], pts[:, 0])):
        if pts[i, 1] < best:
            xs.append(pts[i, 0])
            ys.append(pts[i, 1])
            best = pts[i, 1]
    xs.append(float(ref[0]))
    area = 0.0
    for j in range(len(ys)):
        area += (xs[j + 1] - xs[j]) * (ref[1] - ys[j])
    return float(area)


def _random_point_set(rng) -> np.ndarray:
    """Points on a coarse grid (so f1 and f2 repeat), some of them on or
    beyond the reference, some below 0, sometimes none at all."""
    n = int(rng.integers(0, 40))
    pts = rng.integers(-2, 24, size=(n, 2)) / 20.0
    jitter = rng.random((n, 2)) < 0.5
    return np.where(jitter, pts + rng.normal(0.0, 0.01, (n, 2)), pts)


def test_hypervolume_matches_the_scalar_sweep_bit_for_bit():
    rng = np.random.default_rng(83)
    cases = [np.empty((0, 2)), [[0.3, 0.4]], [[1.0, 0.5]], [[0.5, 1.0]], [[1.2, -0.1]],
             [[0.2, 0.5], [0.2, 0.3], [0.2, 0.3]], [[0.1, 0.6], [0.4, 0.6], [0.7, 0.6]]]
    cases += [_random_point_set(rng) for _ in range(3000)]
    cases += [rng.random((200, 2)) for _ in range(20)]
    for pts in cases:
        assert hypervolume_2d(pts) == _hypervolume_loop(pts), pts


# ---------------------------------------------------------------------------
# hypervolume gap against the exact front


def test_delta_zero_for_the_front_itself():
    problem = make_problem("zdt1")
    front = problem.true_front(500)
    frame = build_frame(front)
    report = delta_hypervolume(front, problem, frame, front_resolution=500)
    assert report.delta_hv == pytest.approx(0.0, abs=1e-12)
    assert report.hv_solution == pytest.approx(report.hv_front)


def test_delta_of_the_nadir_point_is_the_whole_front_volume():
    problem = make_problem("zdt2")
    frame = fallback_frame("zdt2")
    report = delta_hypervolume(frame.nadir[None, :], problem, frame)
    assert report.hv_solution == 0.0
    assert report.delta_hv == pytest.approx(report.hv_front)


def test_delta_interior_point_sits_strictly_between():
    problem = make_problem("zdt1")
    frame = fallback_frame("zdt1")
    report = delta_hypervolume([[0.5, 0.6]], problem, frame)
    assert 0.0 < report.delta_hv < report.hv_front
    assert report.hv_solution > 0.0


def test_delta_never_shrinks_when_solution_points_are_removed():
    problem = make_problem("zdt1")
    frame = fallback_frame("zdt1")
    rng = np.random.default_rng(83)
    for _ in range(20):
        pts = _random_nondominated(rng, int(rng.integers(3, 10)), lo=0.1, hi=0.9)
        full = delta_hypervolume(pts, problem, frame).delta_hv
        sub = delta_hypervolume(pts[1:], problem, frame).delta_hv
        assert sub >= full - 1e-12


# ---------------------------------------------------------------------------
# signed-rank test


def test_wilcoxon_identical_samples():
    a = np.arange(8.0)
    assert wilcoxon_signed_rank(a, a) == 1.0


def test_wilcoxon_ten_positive_differences():
    a = np.arange(10.0) + 1.0
    b = np.zeros(10)
    assert wilcoxon_signed_rank(a, b) == pytest.approx(2.0 / 1024.0)
    assert wilcoxon_signed_rank(a, b, "greater") == pytest.approx(1.0 / 1024.0)
    assert wilcoxon_signed_rank(a, b, "less") == pytest.approx(1.0)


def test_wilcoxon_six_pairs_w_plus_21():
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    b = np.zeros(6)
    assert wilcoxon_signed_rank(a, b) == pytest.approx(2.0 / 64.0)


def test_wilcoxon_zero_differences_are_dropped():
    a = np.array([5.0, 5.0, 5.0, 5.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    b = np.array([5.0, 5.0, 5.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert wilcoxon_signed_rank(a, b) == pytest.approx(2.0 / 64.0)


def test_wilcoxon_input_validation():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0, 2.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank(np.ones(6), np.ones(5))
    with pytest.raises(ValueError):
        wilcoxon_signed_rank(np.ones(6), np.zeros(6), alternative="different")


def test_wilcoxon_matches_scipy_exact_on_continuous_data():
    rng = np.random.default_rng(84)
    for _ in range(50):
        n = int(rng.integers(5, 21))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        for alternative in ("two-sided", "greater", "less"):
            got = wilcoxon_signed_rank(a, b, alternative)
            want = scipy.stats.wilcoxon(
                a, b, alternative=alternative, method="exact"
            ).pvalue
            assert got == pytest.approx(want, abs=1e-12), alternative


def test_wilcoxon_matches_brute_force_enumeration_with_ties():
    rng = np.random.default_rng(85)
    for _ in range(50):
        n = int(rng.integers(5, 13))
        a = rng.integers(0, 5, size=n).astype(float)
        b = rng.integers(0, 5, size=n).astype(float)
        if np.all(a == b):
            a[0] += 1.0
        for alternative in ("two-sided", "greater", "less"):
            got = wilcoxon_signed_rank(a, b, alternative)
            want = _enumerated_pvalue(a - b, alternative)
            assert got == pytest.approx(want, abs=1e-12), alternative


def test_wilcoxon_normal_approximation_tracks_the_exact_branch():
    rng = np.random.default_rng(86)
    for _ in range(25):
        d = rng.normal(size=20)
        ranks = _average_ranks(np.abs(d))
        w_plus = float(ranks[d > 0.0].sum())
        for alternative in ("two-sided", "greater", "less"):
            exact = _wilcoxon_exact(ranks, w_plus, alternative)
            approx = _wilcoxon_approx(ranks, w_plus, 20, alternative)
            assert abs(exact - approx) <= 0.01, alternative


def test_wilcoxon_large_sample_branch_is_sane():
    rng = np.random.default_rng(87)
    a = rng.normal(size=40) + 1.5
    b = rng.normal(size=40)
    assert wilcoxon_signed_rank(a, b) < 1e-4
    assert wilcoxon_signed_rank(a, b, "greater") < 1e-4
    assert wilcoxon_signed_rank(a, b, "less") > 0.99


# ---------------------------------------------------------------------------
# fallback frames


def test_fallback_frames_cover_every_problem():
    assert set(FALLBACK_FRAMES) == set(PROBLEM_NAMES)
    for name in PROBLEM_NAMES:
        frame = fallback_frame(name)
        front = make_problem(name).true_front(1000)
        np.testing.assert_allclose(frame.ideal, front.min(axis=0), atol=1e-12)
        assert np.all(frame.nadir >= front.max(axis=0))
        scaled = normalize(front, frame)
        assert scaled.min() >= -1e-12
        assert scaled.max() <= 1.0


def test_fallback_frame_unknown_problem():
    with pytest.raises(ValueError, match="unknown fallback frame: 'zdt9'"):
        fallback_frame("zdt9")
