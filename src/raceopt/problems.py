"""ZDT benchmark problems and additive noise models.

All problems are bi-objective minimization. Objective values returned by
``Problem.true_eval`` are exact; ``NoisyProblem`` wraps a problem with an
additive noise model and a global evaluation counter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import lookup

# Nondominated x1 intervals of the ZDT3 trade-off curve, derived by
# scripts/derive_zdt3_front.py (bisection on the oscillating curve,
# boundary points strictly below the preceding local minimum).
ZDT3_FRONT_INTERVALS = (
    (0.0, 0.08300153492691426),
    (0.1822287280294026, 0.25776236338782743),
    (0.4093136748086569, 0.4538821040888268),
    (0.6183967944392659, 0.652511703804664),
    (0.8233317983266331, 0.8518328654364107),
)

# First objective of ZDT6 attains its minimum where tan(6*pi*x) = 9*pi
# (stationary point of exp(-4x) * sin(6*pi*x)^6 on the first arch).
_ZDT6_X_STAR = math.atan(9.0 * math.pi) / (6.0 * math.pi)
ZDT6_F1_MIN = 1.0 - math.exp(-4.0 * _ZDT6_X_STAR) * math.sin(6.0 * math.pi * _ZDT6_X_STAR) ** 6


@dataclass(frozen=True)
class Problem:
    """A benchmark problem: decision space in a finite box, two objectives.

    ``_eval`` maps one genome, shape (n,), or a stack of genomes, shape
    (m, n), to objectives of shape (2,) or (m, 2).
    """

    name: str
    n_variables: int
    lower: np.ndarray
    upper: np.ndarray
    _eval: Callable[[np.ndarray], np.ndarray]
    _front: Callable[[int], np.ndarray]

    @property
    def n_objectives(self) -> int:
        return 2

    def true_eval(self, x) -> np.ndarray:
        """Exact objective values of one genome, shape (2,), or of a stack
        of genomes, shape (m, 2), row for row as one genome gives them.

        Rejects out-of-domain genomes, NaN and infinite components included
        (no comparison with a NaN holds).
        """
        # C order keeps each genome's sums in the order one genome sums in.
        x = np.ascontiguousarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.n_variables:
            raise ValueError(
                f"domain-violation: {self.name} expects {self.n_variables} variables, "
                f"got shape {x.shape}"
            )
        if not ((x >= self.lower) & (x <= self.upper)).all():
            raise ValueError(f"domain-violation: point outside the box bounds of {self.name}")
        return self._eval(x)

    def true_front(self, count: int) -> np.ndarray:
        """Evenly sampled points on the exact trade-off curve.

        Args:
            count: Number of points, at least 2.

        Returns:
            Array of shape (count, 2), mutually nondominated, sorted by f1.
        """
        if count < 2:
            raise ValueError("front sample needs at least 2 points")
        return self._front(count)


# Each formula reads the coordinates of x.T: one genome gives numpy
# scalars and a stack of genomes gives one value per genome, so a single
# genome costs scalar arithmetic only.


def _powers(values, exponent: float):
    """``values ** exponent``, one numpy scalar at a time.

    On numpy 2.4 a scalar ``**`` differs from an array ``**`` in the last
    bit for some values, and seeded run files pin the scalar results.
    """
    if isinstance(values, np.ndarray):
        return np.array([value**exponent for value in values])
    return values**exponent


def _zdt1_eval(x: np.ndarray) -> np.ndarray:
    f1, tail = x.T[0], x.T[1:]
    g = 1.0 + 9.0 * tail.sum(axis=0) / tail.shape[0]
    return np.array([f1, g * (1.0 - np.sqrt(f1 / g))]).T


def _zdt2_eval(x: np.ndarray) -> np.ndarray:
    f1, tail = x.T[0], x.T[1:]
    g = 1.0 + 9.0 * tail.sum(axis=0) / tail.shape[0]
    return np.array([f1, g * (1.0 - _powers(f1 / g, 2))]).T


def _zdt3_eval(x: np.ndarray) -> np.ndarray:
    f1, tail = x.T[0], x.T[1:]
    g = 1.0 + 9.0 * tail.sum(axis=0) / tail.shape[0]
    ratio = f1 / g
    return np.array([f1, g * (1.0 - np.sqrt(ratio) - ratio * np.sin(10.0 * np.pi * f1))]).T


def _zdt4_eval(x: np.ndarray) -> np.ndarray:
    f1, tail = x.T[0], x.T[1:]
    g = 1.0 + 10.0 * tail.shape[0] + np.sum(tail**2 - 10.0 * np.cos(4.0 * np.pi * tail), axis=0)
    return np.array([f1, g * (1.0 - np.sqrt(f1 / g))]).T


def _zdt6_eval(x: np.ndarray) -> np.ndarray:
    x1, tail = x.T[0], x.T[1:]
    f1 = 1.0 - np.exp(-4.0 * x1) * _powers(np.sin(6.0 * np.pi * x1), 6)
    g = 1.0 + 9.0 * _powers(tail.sum(axis=0) / tail.shape[0], 0.25)
    return np.array([f1, g * (1.0 - _powers(f1 / g, 2))]).T


def _convex_front(count: int) -> np.ndarray:
    f1 = np.linspace(0.0, 1.0, count)
    return np.column_stack([f1, 1.0 - np.sqrt(f1)])


def _concave_front(count: int) -> np.ndarray:
    f1 = np.linspace(0.0, 1.0, count)
    return np.column_stack([f1, 1.0 - f1**2])


def _zdt3_front(count: int) -> np.ndarray:
    lengths = np.array([b - a for a, b in ZDT3_FRONT_INTERVALS])
    quota = count * lengths / lengths.sum()
    alloc = np.floor(quota).astype(int)
    frac = quota - alloc
    # Largest remainder wins the leftover points; ties go to the lower index.
    for idx in np.argsort(-frac, kind="stable")[: count - alloc.sum()]:
        alloc[idx] += 1
    xs = np.concatenate(
        [np.linspace(a, b, m) for (a, b), m in zip(ZDT3_FRONT_INTERVALS, alloc) if m > 0]
    )
    f2 = 1.0 - np.sqrt(xs) - xs * np.sin(10.0 * np.pi * xs)
    return np.column_stack([xs, f2])


def _zdt6_front(count: int) -> np.ndarray:
    f1 = np.linspace(ZDT6_F1_MIN, 1.0, count)
    return np.column_stack([f1, 1.0 - f1**2])


# Per problem: variables, the box of every variable after the first (the
# first lies in [0, 1]), objective function and front sampler.
_PROBLEMS = {
    "zdt1": (30, (0.0, 1.0), _zdt1_eval, _convex_front),
    "zdt2": (30, (0.0, 1.0), _zdt2_eval, _concave_front),
    "zdt3": (30, (0.0, 1.0), _zdt3_eval, _zdt3_front),
    "zdt4": (10, (-5.0, 5.0), _zdt4_eval, _convex_front),
    "zdt6": (10, (0.0, 1.0), _zdt6_eval, _zdt6_front),
}
PROBLEM_NAMES = tuple(_PROBLEMS)


def make_problem(name: str) -> Problem:
    """Look up a benchmark problem by identifier, in any case."""
    n, (lo, hi), evaluate, front = lookup(_PROBLEMS, "problem", name)
    lower, upper = np.full(n, lo), np.full(n, hi)
    lower[0], upper[0] = 0.0, 1.0
    return Problem(name.lower(), n, lower, upper, evaluate, front)


# Gumbel location chosen so the noise median is exactly zero:
# median = mu + beta * (-ln(ln 2)) = 0 with beta = 2.
GUMBEL_SCALE = 2.0
GUMBEL_LOCATION = 2.0 * math.log(math.log(2.0))

# Per noise model: raw draws of a given shape from a generator.
_NOISES = {
    "none": lambda size, rng: np.zeros(size),
    "gaussian": lambda size, rng: rng.normal(0.0, 0.25, size=size),
    "cauchy": lambda size, rng: 0.25 * rng.standard_cauchy(size=size),
    "gumbel": lambda size, rng: rng.gumbel(GUMBEL_LOCATION, GUMBEL_SCALE, size=size),
}
NOISE_NAMES = tuple(_NOISES)

_REDRAW_CAP = 100

# Noise rows a NoisyProblem draws from its generator at a time.
NOISE_BLOCK_ROWS = 256


@dataclass(frozen=True)
class NoiseModel:
    """Additive, component-wise noise on the objective vector.

    Draws with any non-finite component are redrawn as a whole vector, up
    to a cap of 100 attempts.
    """

    kind: str

    def draw(self, k: int, rng: np.random.Generator) -> np.ndarray:
        for _ in range(_REDRAW_CAP):
            eps = self._draw_once(k, rng)
            if np.isfinite(eps).all():
                return eps
        raise RuntimeError(f"noise model {self.kind} produced non-finite draws {_REDRAW_CAP} times")

    def _draw_once(self, size, rng: np.random.Generator) -> np.ndarray:
        """Raw draws of shape ``size``: k values for one vector, or (rows, k)
        for a block, filled row by row as that many k-value draws would be."""
        return lookup(_NOISES, "noise", self.kind)(size, rng)


def make_noise(name: str) -> NoiseModel:
    lookup(_NOISES, "noise", name)
    return NoiseModel(name.lower())


class NoisyProblem:
    """A problem observed through additive noise, with an evaluation budget.

    The noise stream belongs to the problem: ``rng`` is read in blocks of
    ``NOISE_BLOCK_ROWS`` rows, and each evaluation takes the next finite
    row. That gives the values of one ``NoiseModel.draw`` per evaluation,
    since a redraw reads exactly the next row. Every call to ``evaluate``
    burns one evaluation regardless of the noise model.
    ``max_evaluations=None`` disables the cap.
    """

    def __init__(
        self,
        problem: Problem,
        noise: NoiseModel,
        rng: np.random.Generator | None = None,
        max_evaluations: int | None = None,
    ) -> None:
        if max_evaluations is not None and max_evaluations < 0:
            raise ValueError("max_evaluations must be non-negative")
        if rng is None and noise.kind != "none":
            raise ValueError(f"noise model {noise.kind!r} needs a generator")
        self.problem = problem
        self.noise = noise
        self.max_evaluations = max_evaluations
        self.evaluations = 0
        self._rng = rng
        # The rows of the current block, None where a row is not finite.
        self._rows: list[np.ndarray | None] = []
        self._next = 0

    def can_afford(self, count: int) -> bool:
        return self.max_evaluations is None or self.evaluations + count <= self.max_evaluations

    def evaluate(self, objectives: np.ndarray) -> np.ndarray:
        """One noisy observation of the true ``objectives`` of a genome.

        Raises:
            ValueError: If ``objectives`` is not one value per objective.
            RuntimeError: If the budget is spent, or the noise model gave
                non-finite rows 100 times in a row.
        """
        k = self.problem.n_objectives
        if np.shape(objectives) != (k,):
            raise ValueError(
                f"evaluate expects {k} objective values, got shape {np.shape(objectives)}"
            )
        # The counter never passes the cap, so reaching it means spent.
        if self.evaluations == self.max_evaluations:
            raise RuntimeError("evaluation budget exhausted")
        self.evaluations += 1
        for _ in range(_REDRAW_CAP):
            if self._next == len(self._rows):
                block = self.noise._draw_once((NOISE_BLOCK_ROWS, k), self._rng)
                finite = np.isfinite(block).all(axis=1).tolist()
                self._rows = [row if ok else None for row, ok in zip(block, finite)]
                self._next = 0
            row = self._rows[self._next]
            self._next += 1
            if row is not None:
                return objectives + row
        raise RuntimeError(
            f"noise model {self.noise.kind} produced non-finite draws {_REDRAW_CAP} times"
        )
