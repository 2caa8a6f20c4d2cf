"""Shared building blocks: sample archives, estimators, reproducible RNG."""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np


class EstimatorKind(enum.Enum):
    """How an individual's objective value is summarized from its archive."""

    LAST = "last"
    MEAN = "mean"
    MEDIAN = "median"


def estimator_value(samples: np.ndarray, kind: EstimatorKind) -> np.ndarray:
    """Collapse a stack of objective samples into one representative point.

    Args:
        samples: Array of shape (t, k), one row per evaluation, oldest first.
            Finite, as every archive is.
        kind: LAST returns the most recent row, MEAN and MEDIAN reduce
            component-wise. The median of an even number of samples is the
            midpoint of the two central order statistics, computed as
            ``np.median`` computes it, so the two agree exactly.

    Returns:
        Array of shape (k,).

    Raises:
        ValueError: If the archive is empty ("empty-archive").
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("empty-archive")
    if kind is EstimatorKind.LAST:
        return arr[-1].copy()
    if kind is EstimatorKind.MEAN:
        return arr.mean(axis=0)
    if kind is EstimatorKind.MEDIAN:
        # np.median averages the central order statistics with a sum that
        # starts from +0.0; starting from it here too makes the two agree
        # bit for bit, signed zeros included.
        ordered = np.sort(arr, axis=0)
        half = ordered.shape[0] // 2
        if ordered.shape[0] % 2:
            return 0.0 + ordered[half]
        return (0.0 + ordered[half - 1] + ordered[half]) / 2.0
    raise ValueError(f"unknown estimator: {kind!r}")


# Rows an archive holds before its buffer first grows.
_INITIAL_ROWS = 8


class SampleArchive:
    """Append-only store of objective samples for one individual.

    The rows live in one preallocated float buffer that doubles when it
    fills; ``as_array`` is a read-only view of the rows written so far.
    Every row is finite and all rows have the same length. ``estimate``
    keeps its last result, read-only, until the next ``append``.
    """

    __slots__ = ("_buffer", "_count", "_estimate")

    def __init__(self, rows=None) -> None:
        self._buffer: np.ndarray | None = None
        self._count = 0
        self._estimate: tuple[EstimatorKind, np.ndarray] | None = None
        if rows is not None:
            for row in rows:
                self.append(row)

    def append(self, point) -> None:
        row = np.asarray(point, dtype=float)
        if row.ndim != 1 or row.size == 0:
            raise ValueError("objective point must be a non-empty 1-d array")
        # Python floats: cheaper than a numpy reduction over a short row.
        if not all(map(math.isfinite, row.tolist())):
            raise ValueError(f"objective point must be finite, got {row.tolist()}")
        buffer = self._buffer
        if buffer is None:
            buffer = self._buffer = np.empty((_INITIAL_ROWS, row.size))
        elif row.size != buffer.shape[1]:
            raise ValueError(
                f"objective point has {row.size} values, the archive holds {buffer.shape[1]}"
            )
        elif self._count == buffer.shape[0]:
            grown = np.empty((2 * self._count, row.size))
            grown[: self._count] = buffer
            buffer = self._buffer = grown
        buffer[self._count] = row
        self._count += 1
        self._estimate = None

    def as_array(self) -> np.ndarray:
        if not self._count:
            raise ValueError("empty-archive")
        rows = self._buffer[: self._count]
        rows.flags.writeable = False
        return rows

    def estimate(self, kind: EstimatorKind) -> np.ndarray:
        if self._estimate is None or self._estimate[0] is not kind:
            value = estimator_value(self.as_array(), kind)
            value.flags.writeable = False
            self._estimate = (kind, value)
        return self._estimate[1]

    def copy(self) -> "SampleArchive":
        dup = SampleArchive()
        if self._buffer is not None:
            dup._buffer = self._buffer.copy()
        dup._count = self._count
        dup._estimate = self._estimate
        return dup

    def __len__(self) -> int:
        return self._count


@dataclass
class Individual:
    """A decision vector, its exact objectives and its accumulated noisy
    objective samples.

    Every sample in the archive is of the current genome: a clone inherits
    its parent's objectives and a copy of its parent's archive, a new child
    starts empty.
    """

    genome: np.ndarray
    objectives: np.ndarray
    archive: SampleArchive = field(default_factory=SampleArchive)

    def __post_init__(self) -> None:
        self.genome = np.asarray(self.genome, dtype=float)
        self.objectives = np.asarray(self.objectives, dtype=float)


def make_rng(*keys: int) -> np.random.Generator:
    """Build a PCG64 generator from a hierarchical integer key path.

    Identical key paths always produce identical streams; sibling paths are
    statistically independent. Used throughout so that every stochastic
    component (initialization, noise, variation, bootstrap) draws from its
    own named substream of the run seed.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(keys)))
