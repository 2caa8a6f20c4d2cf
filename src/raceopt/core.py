"""Shared building blocks: the population store, sample archives,
estimators, reproducible RNG."""
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


def estimator_values(samples: np.ndarray, counts: np.ndarray, kind: EstimatorKind) -> np.ndarray:
    """``estimator_value`` of every row of a stack of archives, in a fixed
    number of array calls.

    Args:
        samples: Array of shape (n, cap, k): row i holds its samples in
            ``samples[i, :counts[i]]``, oldest first; what lies past them is
            ignored.
        counts: Samples per row, each at least 1.
        kind: As for ``estimator_value``.

    Returns:
        Array of shape (n, k), row i equal bit for bit to
        ``estimator_value(samples[i, :counts[i]], kind)`` for k >= 2. The
        mean's column sums add the samples in order to +0.0, as numpy sums
        the first axis of a (t, k) array (one column it sums pairwise;
        every problem has two objectives). The median pads each row with
        +inf and sorts it.

    Raises:
        ValueError: If a row holds no sample ("empty-archive").
    """
    if counts.min(initial=1) < 1:
        raise ValueError("empty-archive")
    rows = np.arange(counts.size)
    if kind is EstimatorKind.LAST:
        return samples[rows, counts - 1]
    held = (np.arange(samples.shape[1]) < counts[:, None])[..., None]
    if kind is EstimatorKind.MEAN:
        return np.where(held, samples, 0.0).sum(axis=1) / counts[:, None]
    if kind is EstimatorKind.MEDIAN:
        ordered = np.sort(np.where(held, samples, np.inf), axis=1)
        lo = ordered[rows, (counts - 1) // 2]
        hi = ordered[rows, counts // 2]
        return np.where((counts % 2 == 1)[:, None], 0.0 + lo, (0.0 + lo + hi) / 2.0)
    raise ValueError(f"unknown estimator: {kind!r}")


# Rows an archive holds before its buffer first grows.
_INITIAL_ROWS = 8


class SampleArchive:
    """Append-only store of objective samples for one individual.

    The rows live in one preallocated float buffer that doubles when it
    fills; ``as_array`` is a read-only view of the rows written so far.
    Every row is finite and all rows have the same length.
    """

    __slots__ = ("_buffer", "_count")

    def __init__(self, rows=None) -> None:
        self._buffer: np.ndarray | None = None
        self._count = 0
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

    def as_array(self) -> np.ndarray:
        if not self._count:
            raise ValueError("empty-archive")
        rows = self._buffer[: self._count]
        rows.flags.writeable = False
        return rows

    def __len__(self) -> int:
        return self._count


@dataclass
class Individual:
    """A decision vector, its exact objectives and its accumulated noisy
    objective samples, all of that genome. ``race_select`` and
    ``static_select`` take a pool as a list of these, too.
    """

    genome: np.ndarray
    objectives: np.ndarray
    archive: SampleArchive = field(default_factory=SampleArchive)

    def __post_init__(self) -> None:
        self.genome = np.asarray(self.genome, dtype=float)
        self.objectives = np.asarray(self.objectives, dtype=float)


class Population:
    """A pool of individuals held as arrays, one row each.

    ``genomes`` (n, d) and exact ``objectives`` (n, k); ``samples`` (n, cap,
    k) holds row i's noisy samples in ``samples[i, :counts[i]]``, oldest
    first, all of the current genome. The slots past a row's count are
    scratch: a race writes a bootstrap draw in the first of them.
    """

    __slots__ = ("genomes", "objectives", "samples", "counts")

    def __init__(self, genomes, objectives, samples=None, counts=None) -> None:
        self.genomes = genomes
        self.objectives = objectives
        n, k = objectives.shape
        self.samples = np.empty((n, 1, k)) if samples is None else samples
        self.counts = np.zeros(n, dtype=np.intp) if counts is None else counts

    @classmethod
    def stack(cls, individuals: list[Individual]) -> "Population":
        """The store of a list of individuals, their archives copied."""
        if not individuals:
            raise ValueError("a pool needs at least one individual")
        archives = [ind.archive for ind in individuals]
        objectives = np.array([ind.objectives for ind in individuals], dtype=float)
        counts = np.array([len(archive) for archive in archives], dtype=np.intp)
        samples = np.empty((len(archives), max(1, counts.max(initial=0)), objectives.shape[1]))
        for row, archive in zip(samples, archives):
            if len(archive):
                row[: len(archive)] = archive.as_array()
        genomes = np.array([ind.genome for ind in individuals], dtype=float)
        return cls(genomes, objectives, samples, counts)

    def __len__(self) -> int:
        return self.counts.size

    def take(self, index) -> "Population":
        """The rows at ``index``, copied."""
        return Population(*(getattr(self, name)[index] for name in self.__slots__))

    def join(self, other: "Population") -> "Population":
        """These rows, then those of ``other``; both hold as many slots."""
        return Population(*(np.concatenate((getattr(self, name), getattr(other, name)))
                            for name in self.__slots__))

    def reserve(self, count: int) -> None:
        """Room for ``count`` more samples on every row holding fewer than
        ``count``, and for one scratch slot past every row."""
        need = int((self.counts + np.where(self.counts < count, count, 0)).max(initial=0)) + 1
        if need > self.samples.shape[1]:
            grown = np.empty((len(self), need, self.samples.shape[2]))
            grown[:, : self.samples.shape[1]] = self.samples
            self.samples = grown

    def sample(self, rows: np.ndarray, noisy, times: int = 1) -> None:
        """Append ``times`` fresh evaluations from ``noisy`` to each of
        ``rows``: all of a row's, then the next row's, one ``evaluate`` call
        each. The rows must have room (``reserve``)."""
        if not rows.size:
            return
        evaluate, objectives = noisy.evaluate, self.objectives
        new = [evaluate(objectives[i]) for i in rows.tolist() for _ in range(times)]
        slots = self.counts[rows, None] + np.arange(times)
        self.samples[rows.repeat(times), slots.ravel()] = new
        self.counts[rows] += times

    def estimates(self, kind: EstimatorKind) -> np.ndarray:
        """The estimator value of every row's samples, shape (n, k)."""
        return estimator_values(self.samples, self.counts, kind)


def lookup(table: dict, kind: str, name: str):
    """The entry of ``name`` in a registry keyed by lower-case names; an
    unknown name is a ValueError listing the valid names in table order."""
    try:
        return table[name.lower()]
    except KeyError:
        raise ValueError(f"unknown {kind}: {name!r} (valid: {', '.join(table)})") from None


def make_rng(*keys: int) -> np.random.Generator:
    """Build a PCG64 generator from a hierarchical integer key path.

    Identical key paths always produce identical streams; sibling paths are
    statistically independent. Used throughout so that every stochastic
    component (initialization, noise, variation, bootstrap) draws from its
    own named substream of the run seed.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(keys)))
