from __future__ import annotations

import numpy as np
import pytest

from raceopt.core import (
    EstimatorKind,
    Individual,
    Population,
    SampleArchive,
    estimator_value,
    estimator_values,
    make_rng,
)


def _estimate(archive, kind):
    return estimator_value(archive.as_array(), kind)


def test_single_sample_is_its_own_summary():
    arch = SampleArchive([(1.0, 2.0)])
    for kind in EstimatorKind:
        np.testing.assert_array_equal(_estimate(arch, kind), [1.0, 2.0])


def test_mean_estimator_example():
    arch = SampleArchive([(0.0, 0.0), (2.0, 4.0)])
    np.testing.assert_allclose(_estimate(arch, EstimatorKind.MEAN), [1.0, 2.0])


def test_median_estimator_example():
    arch = SampleArchive([(0.0, 0.0), (10.0, 10.0), (1.0, 1.0)])
    np.testing.assert_allclose(_estimate(arch, EstimatorKind.MEDIAN), [1.0, 1.0])


def test_median_even_size_uses_midpoint():
    arch = SampleArchive([(0.0, 0.0), (1.0, 2.0)])
    np.testing.assert_allclose(_estimate(arch, EstimatorKind.MEDIAN), [0.5, 1.0])


def test_last_estimator_returns_most_recent_row():
    arch = SampleArchive([(0.0, 0.0), (3.0, 4.0)])
    np.testing.assert_array_equal(_estimate(arch, EstimatorKind.LAST), [3.0, 4.0])


def test_empty_archive_rejected():
    with pytest.raises(ValueError, match="empty-archive"):
        estimator_value(np.empty((0, 2)), EstimatorKind.MEAN)
    with pytest.raises(ValueError, match="empty-archive"):
        _estimate(SampleArchive(), EstimatorKind.LAST)


def test_mean_is_permutation_invariant_but_last_is_not():
    rng = np.random.default_rng(42)
    for _ in range(50):
        rows = rng.normal(size=(rng.integers(2, 9), 2))
        perm = rng.permutation(rows.shape[0])
        a = SampleArchive([tuple(r) for r in rows])
        b = SampleArchive([tuple(r) for r in rows[perm]])
        np.testing.assert_allclose(
            _estimate(a, EstimatorKind.MEAN), _estimate(b, EstimatorKind.MEAN)
        )
        np.testing.assert_allclose(
            _estimate(a, EstimatorKind.MEDIAN), _estimate(b, EstimatorKind.MEDIAN)
        )
    # LAST depends on insertion order by definition.
    a = SampleArchive([(0.0, 0.0), (1.0, 1.0)])
    b = SampleArchive([(1.0, 1.0), (0.0, 0.0)])
    assert not np.array_equal(
        _estimate(a, EstimatorKind.LAST), _estimate(b, EstimatorKind.LAST)
    )


def test_median_ignores_a_single_wild_outlier():
    # Replacing the largest sample with anything even larger must not move
    # the median once the archive holds at least three rows.
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(3, 12))
        rows = np.sort(rng.normal(size=(n, 2)), axis=0)
        corrupted = rows.copy()
        corrupted[-1] = rows[-1] + rng.uniform(1.0, 1e9, size=2)
        med_a = estimator_value(rows, EstimatorKind.MEDIAN)
        med_b = estimator_value(corrupted, EstimatorKind.MEDIAN)
        np.testing.assert_allclose(med_a, med_b)
        mean_b = estimator_value(corrupted, EstimatorKind.MEAN)
        assert np.any(mean_b > estimator_value(rows, EstimatorKind.MEAN))


def test_archive_append_and_len():
    arch = SampleArchive()
    assert len(arch) == 0
    assert not arch
    arch.append(np.array([1.0, 2.0]))
    arch.append(np.array([3.0, 4.0]))
    assert len(arch) == 2
    assert arch
    got = arch.as_array()
    np.testing.assert_array_equal(got, [[1.0, 2.0], [3.0, 4.0]])


def test_archive_grows_past_its_first_buffer():
    rows = np.arange(100.0).reshape(50, 2)
    arch = SampleArchive()
    for count, row in enumerate(rows, start=1):
        arch.append(row)
        assert len(arch) == count
        np.testing.assert_array_equal(arch.as_array(), rows[:count])


def test_archive_as_array_is_read_only():
    arch = SampleArchive([(1.0, 2.0)])
    rows = arch.as_array()
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 5.0
    # A view handed out earlier still shows the rows it covered.
    arch.append(np.array([3.0, 4.0]))
    np.testing.assert_array_equal(rows, [[1.0, 2.0]])
    np.testing.assert_array_equal(arch.as_array(), [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_archive_rejects_a_non_finite_point(bad):
    arch = SampleArchive([(1.0, 2.0)])
    with pytest.raises(ValueError, match="finite"):
        arch.append(np.array([0.5, bad]))
    with pytest.raises(ValueError, match="finite"):
        SampleArchive().append([bad, 0.5])
    assert len(arch) == 1


def test_archive_rejects_a_point_of_another_length():
    arch = SampleArchive([(1.0, 2.0)])
    with pytest.raises(ValueError, match="3 values, the archive holds 2"):
        arch.append(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="1 values, the archive holds 2"):
        arch.append(np.array([1.0]))
    assert len(arch) == 1


def test_sort_median_equals_np_median_bit_for_bit():
    rng = np.random.default_rng(17)
    tiny = np.nextafter(0.0, 1.0)
    pools = (
        np.array([-0.0, 0.0, 1.0, -1.0]),
        np.array([-0.0, 0.0, tiny, -tiny, 3 * tiny, 0.5, -2.5]),
    )
    seen = set()
    for trial in range(6000):
        n = int(rng.integers(1, 41))
        k = int(rng.integers(1, 4))
        style = trial % 4
        if style == 0:
            rows = rng.normal(size=(n, k))
        elif style == 1:
            rows = rng.integers(-3, 4, size=(n, k)).astype(float)
        else:
            rows = rng.choice(pools[style - 2], size=(n, k))
        got = estimator_value(rows, EstimatorKind.MEDIAN)
        want = np.median(rows, axis=0)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), rows
        seen.add(n % 2)
    assert seen == {0, 1}


@pytest.mark.parametrize("kind", list(EstimatorKind), ids=[k.value for k in EstimatorKind])
def test_stacked_estimates_and_representatives_equal_the_archive_estimator(kind):
    # Row i holds counts[i] samples, 1 to 2 * t_max of them; a drawn row
    # also holds one of its own samples in the scratch slot past them, as
    # a race's bootstrap draw, and must equal the estimator over archive
    # and draw. NaN past a row's samples shows they are never read.
    rng = make_rng(112)
    t_max = 8
    tiny = np.nextafter(0.0, 1.0)
    palettes = (
        np.array([-0.0, 0.0]),
        np.array([-0.0, 0.0, tiny, -tiny, 3 * tiny, 2.2250738585072014e-308, -1.0, 1.0]),
        np.array([0.5, 0.5, -2.5, 7.0]),
    )
    checked = 0
    for trial in range(400):
        n = 16
        counts = rng.integers(1, 2 * t_max + 1, size=n)
        counts[:2] = (1, 2 * t_max)
        samples = np.full((n, 2 * t_max + 1, 2), np.nan)
        style = trial % 4
        for i, t in enumerate(counts.tolist()):
            if style == 3:
                samples[i, :t] = 0.25 * rng.standard_cauchy((t, 2))
            else:
                samples[i, :t] = rng.choice(palettes[style], size=(t, 2))
        drawn = rng.random(n) < 0.5
        for i in np.flatnonzero(drawn).tolist():
            samples[i, counts[i]] = samples[i, rng.integers(counts[i])]
        held = counts + drawn
        got = estimator_values(samples, held, kind)
        want = np.array([estimator_value(samples[i, :t], kind) for i, t in enumerate(held)])
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        checked += n
    assert checked == 6400


def test_stacked_estimates_reject_an_empty_row():
    with pytest.raises(ValueError, match="empty-archive"):
        estimator_values(np.zeros((2, 3, 2)), np.array([1, 0]), EstimatorKind.MEAN)


def test_population_stack_samples_and_take():
    archives = [SampleArchive(), SampleArchive([(1.0, 2.0), (3.0, 4.0)])]
    pop = [Individual(np.full(3, float(i)), np.array([i, -i], float), a)
           for i, a in enumerate(archives)]
    store = Population.stack(pop)
    assert store.counts.tolist() == [0, 2]
    np.testing.assert_array_equal(store.samples[1, :2], archives[1].as_array())

    class Noiseless:
        def evaluate(self, objectives):
            return objectives + 0.5

    store.reserve(3)
    # room for three more samples on the short row and a scratch slot past both
    assert store.samples.shape[1] >= 4
    store.sample(np.array([0, 1]), Noiseless(), 2)
    assert store.counts.tolist() == [2, 4]
    np.testing.assert_array_equal(store.samples[0, :2], [[0.5, 0.5]] * 2)
    np.testing.assert_array_equal(store.samples[1, 2:4], [[1.5, -0.5]] * 2)
    np.testing.assert_array_equal(store.estimates(EstimatorKind.LAST), [[0.5, 0.5], [1.5, -0.5]])
    # a taken row is a copy
    first = store.take([1])
    first.samples[0, 0] = 9.0
    assert store.samples[1, 0, 0] == 1.0
    both = store.join(first)
    assert len(both) == 3 and both.counts.tolist() == [2, 4, 4]
    with pytest.raises(ValueError, match="at least one individual"):
        Population.stack([])


def test_make_rng_is_deterministic_per_key_tuple():
    a = make_rng(12, 3, 0).random(100_000)
    b = make_rng(12, 3, 0).random(100_000)
    np.testing.assert_array_equal(a, b)
    c = make_rng(12, 3, 1).random(100_000)
    assert not np.array_equal(a, c)


def test_make_rng_key_order_matters():
    a = make_rng(1, 2).random(1000)
    b = make_rng(2, 1).random(1000)
    assert not np.array_equal(a, b)
