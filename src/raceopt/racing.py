"""Racing selection: Hoeffding races on survival probability, plus baselines.

Environmental selection under noise is treated as a bandit-style
identification problem. Each iteration re-draws representative objective
values for the whole pool, applies one environmental selection, and feeds
the resulting survive/perish indicators into per-individual confidence
intervals on the probability of being selected. Individuals whose interval
provably places them in the top mu are selected and leave the race;
provable losers are discarded. Static resampling and implicit averaging
are provided as baselines behind the same interface.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

# estimator_value is unused here; the benchmark's spans still patch it on
# this module until the benchmark counts what the library owns (ROADMAP
# item 1), which drops the import.
from .core import EstimatorKind, Population, estimator_value, estimator_values, lookup  # noqa: F401
from .moea import (
    SelectionOutcome,
    binary_tournament,
    environmental_select,
    polynomial_mutation,
    sbx_crossover,
)
from .problems import NoisyProblem, Problem


def hoeffding_radius(t: int, delta: float, range_width: float = 1.0) -> float:
    """Half-width of a two-sided Hoeffding confidence interval.

    After t observations of a bounded quantity with range ``range_width``,
    the empirical mean is within this radius of the true mean with
    probability at least 1 - delta.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if range_width <= 0.0:
        raise ValueError("range_width must be positive")
    return range_width * math.sqrt(math.log(2.0 / delta) / (2.0 * t))


class Status(enum.IntEnum):
    RACING = 0
    SELECTED = 1
    DISCARDED = 2


# Plain ints for the hot paths: an enum member costs a class-attribute
# lookup through the enum machinery on every use.
_RACING, _SELECTED, _DISCARDED = (int(member) for member in Status)


class StopReason(enum.Enum):
    QUOTA_SELECTED = "quota_selected"
    QUOTA_DISCARDED = "quota_discarded"
    PROXIMITY = "proximity"
    T_MAX = "t_max"


DEFAULT_PROXIMITY = 0.5


@dataclass(frozen=True)
class RaceConfig:
    """Parameters of one race.

    ``delta`` is the per-individual error allowance (1 - confidence),
    ``t_max`` the resampling cap, ``proximity_threshold`` the early-stop
    bound on the summed pairwise gaps between racing estimates.
    """

    delta: float
    t_max: int
    proximity_threshold: float = DEFAULT_PROXIMITY
    estimator: EstimatorKind = EstimatorKind.LAST

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.t_max < 1:
            raise ValueError("t_max must be at least 1")
        if not (math.isfinite(self.proximity_threshold) and self.proximity_threshold >= 0.0):
            raise ValueError("proximity_threshold must be finite and non-negative")


class SelectionRace:
    """Confidence-interval bookkeeping for one race over ``size`` individuals.

    The race itself only sees boolean selection indicators; drawing the
    representatives and running environmental selection is the caller's
    job. ``record`` ingests one indicator vector, updates the Hoeffding
    intervals of everyone still racing, and applies definite decisions to
    a fixed point.

    A definite decision needs the shrunk quotas: with mu_rem open slots
    and lam_rem racers, an individual is selected once its lower bound
    beats the upper bound of at least lam_rem - mu_rem racing peers, and
    discarded once its upper bound is beaten by the lower bound of at
    least mu_rem racing peers. One sweep in population-index order reaches
    the fixed point, since a decision never makes an undecided racer
    decidable (``_decide`` proves it); nothing is decided while lam_rem ==
    mu_rem (a full quota of discards, handled by the caller) or mu_rem == 0
    (race over). Every racer's lower bound is at most its upper bound.
    """

    def __init__(self, size: int, mu: int, delta: float) -> None:
        if size < 2:
            raise ValueError("a race needs at least 2 individuals")
        if not 1 <= mu < size:
            raise ValueError(f"mu must be in [1, {size - 1}], got {mu}")
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        self.size = size
        self.mu = mu
        self.delta = delta
        self.iteration = 0
        self.status = np.full(size, _RACING, dtype=int)
        # Times selected. A racer is observed once per iteration and no
        # retired individual races again, so its p-hat is s / iteration.
        self.s = np.zeros(size, dtype=int)
        self.lower = np.zeros(size)
        self.upper = np.ones(size)

    def racing_indices(self) -> np.ndarray:
        return np.flatnonzero(self.status == _RACING)

    def selected_indices(self) -> np.ndarray:
        return np.flatnonzero(self.status == _SELECTED)

    def discarded_indices(self) -> np.ndarray:
        return np.flatnonzero(self.status == _DISCARDED)

    @property
    def n_selected(self) -> int:
        return int(np.count_nonzero(self.status == _SELECTED))

    @property
    def n_discarded(self) -> int:
        return int(np.count_nonzero(self.status == _DISCARDED))

    @property
    def mu_remaining(self) -> int:
        return self.mu - self.n_selected

    def record(self, chosen) -> None:
        """Ingest one selection-indicator vector over the full pool."""
        chosen = np.asarray(chosen, dtype=bool)
        if chosen.shape != (self.size,):
            raise ValueError(f"indicator vector must have shape ({self.size},)")
        racing = self.racing_indices()
        self.iteration += 1
        self.s[racing] += chosen[racing]
        radius = hoeffding_radius(self.iteration, self.delta)
        p = self.s[racing] / self.iteration
        self.lower[racing] = np.maximum(0.0, p - radius)
        self.upper[racing] = np.minimum(1.0, p + radius)
        self._decide()

    def _decide(self) -> None:
        """Apply definite decisions one at a time in population-index order.

        Each step counts every racer's beaten peers at once with
        ``searchsorted`` on the sorted bounds of the racers (a racer never
        beats itself, since its lower bound is at most its upper bound),
        decides the first decidable racer at or after the sweep position
        and drops it from the racers.

        One sweep reaches the fixed point, since a decision never makes an
        undecided racer i decidable. Selecting x keeps i's selection quota
        and lowers its discard quota by one. If x lies above i, i's count
        for that quota drops too; if not, the lam_rem - mu_rem peers below
        x are not above i either, so at most mu_rem - 2 peers lie above i.
        Discarding x is the mirror image.
        """
        racing = self.racing_indices()
        if racing.size == 0:
            return
        lower = self.lower[racing]
        upper = self.upper[racing]
        # No strict comparison between two racers can succeed.
        if lower.max() <= upper.min():
            return
        mu_rem = self.mu_remaining
        position = 0
        while mu_rem != 0 and racing.size != mu_rem:
            lam_rem = racing.size
            beats = np.searchsorted(np.sort(upper), lower, side="left")
            beaten_by = lam_rem - np.searchsorted(np.sort(lower), upper, side="right")
            select = beats >= lam_rem - mu_rem
            decided = np.flatnonzero((select | (beaten_by >= mu_rem))[position:])
            if decided.size == 0:
                return
            position += int(decided[0])
            if select[position]:
                self.status[racing[position]] = _SELECTED
                mu_rem -= 1
            else:
                self.status[racing[position]] = _DISCARDED
            racing = np.delete(racing, position)
            lower = np.delete(lower, position)
            upper = np.delete(upper, position)

    def proximity_sum(self) -> float:
        """Sum of |p_hat_i - p_hat_j| over all pairs still racing."""
        p = np.sort(self.s[self.racing_indices()] / self.iteration)
        r = p.size
        weights = 2.0 * np.arange(r) - (r - 1)
        return float(np.dot(p, weights))

    def quota_selected(self) -> bool:
        return self.n_selected == self.mu

    def quota_discarded(self) -> bool:
        return self.n_discarded == self.size - self.mu

    def select_remaining(self) -> None:
        self.status[self.racing_indices()] = _SELECTED


@dataclass(frozen=True)
class RaceResult:
    """What a selection round reports back to the generation loop.

    ``outcome`` is the environmental-selection view of the full pool from
    the final resampling iteration; its ranks and crowding distances drive
    the next round of mating tournaments. Baselines report iterations = 1
    and stop_reason = None.
    """

    selected: np.ndarray
    evaluations_used: int
    iterations: int
    stop_reason: StopReason | None
    outcome: SelectionOutcome


def bootstrap_draw(rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One uniform draw, with replacement, from an individual's sample rows
    (shape (t, k))."""
    if not len(rows):
        raise ValueError("empty-archive")
    return rows[int(rng.integers(len(rows)))].copy()


def _on_store(select):
    """Let a selector take its pool as a ``list[Individual]`` too: it then
    runs on the stacked store, and each new sample is appended to its
    individual's archive."""

    @functools.wraps(select)
    def boundary(population, *args, **kwargs):
        if isinstance(population, Population):
            return select(population, *args, **kwargs)
        pool = Population.stack(population)
        held = pool.counts.tolist()
        result = select(pool, *args, **kwargs)
        for ind, start, stop, rows in zip(population, held, pool.counts.tolist(), pool.samples):
            for row in rows[start:stop]:
                ind.archive.append(row)
        return result

    return boundary


@_on_store
def race_select(
    pool: Population,
    mu: int,
    config: RaceConfig,
    noisy: NoisyProblem,
    boot_rng: np.random.Generator,
) -> RaceResult:
    """Choose mu of the pool by racing the selection indicators.

    Per iteration, every racing row that held fewer than t_max samples
    when the race began receives one fresh evaluation (appended to its
    samples); the others and retired rows contribute bootstrap
    representatives instead (the estimator over their samples plus one
    draw from them, or the draw itself for LAST), so the diversity-aware
    selection always sees the whole pool. One environmental selection
    over the representatives yields the indicator vector recorded by the
    race.

    Stops on a filled selection quota, a filled discard quota (remaining
    racers are selected), estimate proximity below the threshold, or
    t_max iterations; the last two fill the remaining slots by
    environmental selection restricted to the racers. If the evaluation
    budget cannot cover an iteration beyond the first, the race truncates
    as if t_max were reached.
    """
    lam = len(pool)
    if not 1 <= mu < lam:
        raise ValueError(f"mu must be in [1, {lam - 1}], got {mu}")
    race = SelectionRace(lam, mu, config.delta)
    pool.reserve(config.t_max)
    evals_before = noisy.evaluations
    outcome: SelectionOutcome | None = None
    stop: StopReason | None = None
    iterations = 0
    modified = pool.counts < config.t_max
    for it in range(1, config.t_max + 1):
        fresh = modified & (race.status == _RACING)
        sampled = np.flatnonzero(fresh)
        if not noisy.can_afford(sampled.size):
            if outcome is None:
                raise RuntimeError("budget cannot cover the first racing iteration")
            stop = StopReason.T_MAX
            break
        pool.sample(sampled, noisy)
        drawn = np.flatnonzero(~fresh)
        if drawn.size:
            # Each draw goes to the scratch slot past its row's samples.
            samples, held = pool.samples, pool.counts[drawn]
            samples[drawn, held] = [
                bootstrap_draw(samples[i, :t], boot_rng)
                for i, t in zip(drawn.tolist(), held.tolist())
            ]
        reps = estimator_values(pool.samples, pool.counts + ~fresh, config.estimator)
        outcome = environmental_select(reps, mu)
        chosen = np.zeros(lam, dtype=bool)
        chosen[outcome.selected] = True
        race.record(chosen)
        iterations = it
        if race.quota_selected():
            stop = StopReason.QUOTA_SELECTED
            break
        if race.quota_discarded():
            race.select_remaining()
            stop = StopReason.QUOTA_DISCARDED
            break
        if race.proximity_sum() < config.proximity_threshold:
            stop = StopReason.PROXIMITY
            break
        if it == config.t_max:
            stop = StopReason.T_MAX
            break
    if stop in (StopReason.PROXIMITY, StopReason.T_MAX):
        racing = race.racing_indices()
        mu_rem = race.mu_remaining
        if mu_rem > 0:
            sub = environmental_select(reps[racing], mu_rem)
            race.status[racing[sub.selected]] = _SELECTED
    selected = race.selected_indices()
    return RaceResult(
        selected=selected,
        evaluations_used=noisy.evaluations - evals_before,
        iterations=iterations,
        stop_reason=stop,
        outcome=outcome,
    )


@_on_store
def static_select(
    pool: Population,
    mu: int,
    n_samples: int,
    estimator: EstimatorKind,
    noisy: NoisyProblem,
) -> RaceResult:
    """Static resampling: n fresh samples per row holding fewer than n,
    added to its samples, then one environmental selection on the
    estimator values."""
    lam = len(pool)
    if not 1 <= mu < lam:
        raise ValueError(f"mu must be in [1, {lam - 1}], got {mu}")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    evals_before = noisy.evaluations
    modified = np.flatnonzero(pool.counts < n_samples)
    if not noisy.can_afford(n_samples * modified.size):
        raise RuntimeError("budget cannot cover static resampling")
    pool.reserve(n_samples)
    pool.sample(modified, noisy, n_samples)
    outcome = environmental_select(pool.estimates(estimator), mu)
    return RaceResult(
        selected=outcome.selected,
        evaluations_used=noisy.evaluations - evals_before,
        iterations=1,
        stop_reason=None,
        outcome=outcome,
    )


# Per algorithm id: its estimator and the settings it takes. Every other
# rule that depends on an algorithm's family reads it here.
ALGORITHMS = {
    "implicit": (EstimatorKind.LAST, ()),
    "static-avg": (EstimatorKind.MEAN, ("budget",)),
    "static-med": (EstimatorKind.MEDIAN, ("budget",)),
    "rsp-i": (EstimatorKind.LAST, ("budget", "confidence")),
    "rsp-avg": (EstimatorKind.MEAN, ("budget", "confidence")),
    "rsp-med": (EstimatorKind.MEDIAN, ("budget", "confidence")),
}
ALGORITHM_IDS = tuple(ALGORITHMS)


def _algorithm(algorithm: str) -> tuple[EstimatorKind, tuple[str, ...]]:
    return lookup(ALGORITHMS, "algorithm", algorithm)


def algorithm_estimator(algorithm: str) -> EstimatorKind:
    return _algorithm(algorithm)[0]


def algorithm_settings(algorithm: str) -> tuple[str, ...]:
    """The settings an algorithm takes: none, budget, or budget and confidence."""
    return _algorithm(algorithm)[1]


@dataclass(frozen=True)
class Selector:
    """A selection strategy bound to its parameters.

    ``worst_evals_per_offspring`` is the per-individual sample count: the
    exact worst-case cost of one individual sampled as new, and the archive
    length that spares an individual fresh samples. With a ``race`` the
    selector races; without one it resamples statically with that count,
    which for implicit averaging is one sample and ``LAST``.
    """

    estimator: EstimatorKind
    worst_evals_per_offspring: int
    race: RaceConfig | None = None

    def select(self, population, mu, noisy, boot_rng) -> RaceResult:
        if self.race is not None:
            return race_select(population, mu, self.race, noisy, boot_rng)
        return static_select(population, mu, self.worst_evals_per_offspring, self.estimator, noisy)

    def worst_generation_evaluations(self, parents: Population) -> int:
        """Exact worst case of one generation from these parents: mu
        offspring plus every parent holding fewer samples than the count,
        each sampled as new."""
        count = self.worst_evals_per_offspring
        return (len(parents) + int(np.count_nonzero(parents.counts < count))) * count


def make_selector(
    algorithm: str,
    sampling_budget: int | None = None,
    confidence: float | None = None,
    proximity_threshold: float = DEFAULT_PROXIMITY,
) -> Selector:
    """Build a selector from an algorithm id; the one check of its settings.

    The sampling budget doubles as the static sample count and the racing
    iteration cap. Racing variants additionally need a confidence level in
    (0, 1); the race's error allowance is delta = 1 - confidence. A setting
    the algorithm does not take is ignored.
    """
    estimator, settings = _algorithm(algorithm)
    if not settings:
        return Selector(estimator, 1)
    if sampling_budget is None or sampling_budget < 1:
        raise ValueError("sampling_budget must be at least 1")
    if "confidence" not in settings:
        return Selector(estimator, sampling_budget)
    if confidence is None or not 0.0 < confidence < 1.0:
        raise ValueError("racing algorithms need a confidence in (0, 1)")
    race = RaceConfig(
        delta=1.0 - confidence,
        t_max=sampling_budget,
        proximity_threshold=proximity_threshold,
        estimator=estimator,
    )
    return Selector(estimator, sampling_budget, race)


def _offspring(
    parents: Population, mating: SelectionOutcome, problem: Problem, rng: np.random.Generator
) -> Population:
    """mu offspring from ceil(mu / 2) mating pairs, in two passes.

    The draw pass makes every random draw of the generation, pair by pair:
    two tournaments, an SBX pair-gate draw that is never read (every pair
    is recombined; the draw only keeps the stream), the 2n SBX uniforms,
    then the gate and spread uniforms of each child's mutation. The
    arithmetic pass runs SBX and mutation once over all pairs. With an odd
    mu the last pair's second child is drawn and mutated, then dropped.

    A child equal to a parent of its pair (parent a first) is a clone: it
    inherits that parent's objectives and a copy of its samples, so a clone
    of a parent short of samples is sampled as new too. The objectives of
    the other children come from one ``true_eval`` over their genomes, and
    they start with no sample.
    """
    mu = len(parents)
    pairs = (mu + 1) // 2
    n = parents.genomes.shape[1]
    # Per pair: the unread gate draw, SBX exchange and spread, then (gate,
    # spread) of each child's mutation.
    draws = np.empty((pairs, 1 + 6 * n))
    mates = []
    for row in draws:
        mates.append((binary_tournament(mating, rng), binary_tournament(mating, rng)))
        rng.random(out=row)
    mates = np.array(mates)
    uniforms = draws[:, 1:].reshape(pairs, 6, n)
    lower, upper = problem.lower, problem.upper
    genomes = parents.genomes[mates]
    children = sbx_crossover(genomes, lower, upper, uniforms[:, :2])
    children = polynomial_mutation(
        children, lower, upper, uniforms[:, 2:].reshape(pairs, 2, 2, n)
    )
    # same[p, c, j]: child c of pair p equals parent j of that pair.
    same = (children[:, :, None] == genomes[:, None]).all(axis=-1)
    # Index of the parent each child clones, or -1.
    source = np.where(same[..., 0], mates[:, :1], np.where(same[..., 1], mates[:, 1:], -1))
    children = children.reshape(2 * pairs, n)[:mu]
    source = source.ravel()[:mu]
    new = source < 0
    # A new child takes the last parent's row as a placeholder, then its own
    # objectives and no sample.
    offspring = parents.take(source)
    offspring.genomes = children
    offspring.objectives[new] = problem.true_eval(children[new])
    offspring.counts[new] = 0
    return offspring


def nsga2_generation(
    parents: Population,
    mating: SelectionOutcome,
    selector: Selector,
    noisy: NoisyProblem,
    variation_rng: np.random.Generator,
    boot_rng: np.random.Generator,
) -> tuple[Population, SelectionOutcome, RaceResult]:
    """One (mu + mu) NSGA-II generation under the given selection strategy.

    Binary tournaments on the previous selection outcome pick mating
    pairs; SBX plus polynomial mutation produce mu offspring. A parent is
    spared fresh samples only if it already holds the selector's
    per-individual sample count; any other parent (say, one evaluated once
    at initialization, or one a race retired after a few samples) is
    sampled as new, on top of the samples it keeps. The combined pool,
    parents first, goes through the selector, and the survivors plus their
    ranks and crowding distances come back for the next round of
    tournaments. ``parents`` is left as it was. The worst-case cost is
    ``selector.worst_generation_evaluations(parents)``.
    """
    mu_pop = len(parents)
    if mu_pop < 2:
        raise ValueError("need at least 2 parents")
    pool = parents.join(_offspring(parents, mating, noisy.problem, variation_rng))
    result = selector.select(pool, mu_pop, noisy, boot_rng)
    next_mating = SelectionOutcome(
        selected=np.arange(mu_pop),
        rank=result.outcome.rank[result.selected],
        crowding=result.outcome.crowding[result.selected],
    )
    return pool.take(result.selected), next_mating, result
