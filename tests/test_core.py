from __future__ import annotations

import numpy as np
import pytest

from raceopt import core
from raceopt.core import (
    EstimatorKind,
    SampleArchive,
    estimator_value,
    make_rng,
)


def test_single_sample_is_its_own_summary():
    arch = SampleArchive([(1.0, 2.0)])
    for kind in EstimatorKind:
        np.testing.assert_array_equal(arch.estimate(kind), [1.0, 2.0])


def test_mean_estimator_example():
    arch = SampleArchive([(0.0, 0.0), (2.0, 4.0)])
    np.testing.assert_allclose(arch.estimate(EstimatorKind.MEAN), [1.0, 2.0])


def test_median_estimator_example():
    arch = SampleArchive([(0.0, 0.0), (10.0, 10.0), (1.0, 1.0)])
    np.testing.assert_allclose(arch.estimate(EstimatorKind.MEDIAN), [1.0, 1.0])


def test_median_even_size_uses_midpoint():
    arch = SampleArchive([(0.0, 0.0), (1.0, 2.0)])
    np.testing.assert_allclose(arch.estimate(EstimatorKind.MEDIAN), [0.5, 1.0])


def test_last_estimator_returns_most_recent_row():
    arch = SampleArchive([(0.0, 0.0), (3.0, 4.0)])
    np.testing.assert_array_equal(arch.estimate(EstimatorKind.LAST), [3.0, 4.0])


def test_empty_archive_rejected():
    with pytest.raises(ValueError, match="empty-archive"):
        estimator_value(np.empty((0, 2)), EstimatorKind.MEAN)
    with pytest.raises(ValueError, match="empty-archive"):
        SampleArchive().estimate(EstimatorKind.LAST)


def test_mean_is_permutation_invariant_but_last_is_not():
    rng = np.random.default_rng(42)
    for _ in range(50):
        rows = rng.normal(size=(rng.integers(2, 9), 2))
        perm = rng.permutation(rows.shape[0])
        a = SampleArchive([tuple(r) for r in rows])
        b = SampleArchive([tuple(r) for r in rows[perm]])
        np.testing.assert_allclose(
            a.estimate(EstimatorKind.MEAN), b.estimate(EstimatorKind.MEAN)
        )
        np.testing.assert_allclose(
            a.estimate(EstimatorKind.MEDIAN), b.estimate(EstimatorKind.MEDIAN)
        )
    # LAST depends on insertion order by definition.
    a = SampleArchive([(0.0, 0.0), (1.0, 1.0)])
    b = SampleArchive([(1.0, 1.0), (0.0, 0.0)])
    assert not np.array_equal(
        a.estimate(EstimatorKind.LAST), b.estimate(EstimatorKind.LAST)
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


def test_archive_copy_is_independent():
    arch = SampleArchive([(1.0, 1.0)])
    dup = arch.copy()
    dup.append(np.array([2.0, 2.0]))
    assert len(arch) == 1
    assert len(dup) == 2
    arch.append(np.array([3.0, 3.0]))
    np.testing.assert_array_equal(arch.as_array(), [[1.0, 1.0], [3.0, 3.0]])
    np.testing.assert_array_equal(dup.as_array(), [[1.0, 1.0], [2.0, 2.0]])


def test_archive_estimate_is_computed_once_per_change(monkeypatch):
    calls = []

    def counted(samples, kind):
        calls.append(kind)
        return estimator_value(samples, kind)

    monkeypatch.setattr(core, "estimator_value", counted)
    arch = SampleArchive([(1.0, 4.0), (3.0, 2.0)])
    first = arch.estimate(EstimatorKind.MEAN)
    assert arch.estimate(EstimatorKind.MEAN) is first
    assert len(calls) == 1
    with pytest.raises(ValueError, match="read-only"):
        first[0] = 0.0
    # a copy carries the estimate; each archive drops it on its own append
    dup = arch.copy()
    assert dup.estimate(EstimatorKind.MEAN) is first
    assert len(calls) == 1
    dup.append(np.array([5.0, 0.0]))
    np.testing.assert_array_equal(dup.estimate(EstimatorKind.MEAN), [3.0, 2.0])
    assert arch.estimate(EstimatorKind.MEAN) is first
    arch.append(np.array([2.0, 0.0]))
    np.testing.assert_array_equal(arch.estimate(EstimatorKind.MEAN), [2.0, 2.0])
    # another estimator is computed, not read from the cache
    np.testing.assert_array_equal(arch.estimate(EstimatorKind.LAST), [2.0, 0.0])
    assert len(calls) == 4


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
