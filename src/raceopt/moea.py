"""NSGA-II building blocks: dominance, sorting, crowding, variation."""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np


def dominates(a, b) -> bool:
    """Pareto dominance for minimization: a is nowhere worse and somewhere better."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("objective vectors must have equal length")
    return bool(np.all(a <= b) and np.any(a < b))


def _points(points) -> np.ndarray:
    """The objective points as a float array; bad input is a ValueError."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a non-empty 2-d array")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return pts


def _peel(pts: np.ndarray) -> np.ndarray:
    """Front number of each point by repeated removal of nondominated sets.

    O(n^2 k); the path for any number of objectives but two.
    """
    n = pts.shape[0]
    le = np.all(pts[:, None, :] <= pts[None, :, :], axis=-1)
    lt = np.any(pts[:, None, :] < pts[None, :, :], axis=-1)
    dom = le & lt  # dom[i, j]: i dominates j
    counts = dom.sum(axis=0)
    active = np.ones(n, dtype=bool)
    rank = np.empty(n, dtype=int)
    r = 0
    while active.any():
        front = np.flatnonzero(active & (counts == 0))
        rank[front] = r
        r += 1
        active[front] = False
        counts = counts - dom[front].sum(axis=0)
        counts[~active] = 1  # keep retired points out of later fronts
    return rank


def _ranks(pts: np.ndarray) -> np.ndarray:
    """Front number of each point (0 = nondominated).

    Two objectives take one sweep in (f1, f2) order, after Jensen (IEEE
    TEVC 7(5), 2003): every earlier point has f1 no larger, so it
    dominates the current one iff its f2 is no larger and the two points
    differ. ``lows[r]``, front r's smallest f2 so far, never decreases
    with r, so the fronts holding a dominator are the first
    ``bisect_right(lows, f2)``. A point equal to the one before it takes
    that point's front, since duplicates never dominate each other.
    """
    if pts.shape[1] != 2:
        return _peel(pts)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    rank = [0] * pts.shape[0]
    lows: list[float] = []
    prev = None
    r = 0
    for i, point in zip(order.tolist(), pts[order].tolist()):
        if point != prev:
            f2 = point[1]
            r = bisect_right(lows, f2)
            if r == len(lows):
                lows.append(f2)
            else:
                lows[r] = f2
            prev = point
        rank[i] = r
    return np.array(rank)


def _crowding(pts: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Crowding distance of every point within its own front.

    Per objective, one sort by (front, value, index) lines up every front;
    each front's first and last points get infinity, and interior points
    add the gap between their neighbours over the front's spread, unless
    that spread is zero. Objectives add in order, so each float equals a
    front-by-front computation.
    """
    n = pts.shape[0]
    index = np.arange(n)
    dist = np.zeros(n)
    edge = np.ones(n + 1, dtype=bool)
    for j in range(pts.shape[1]):
        order = np.lexsort((index, pts[:, j], rank))
        vals = pts[order, j]
        np.not_equal(rank[order[1:]], rank[order[:-1]], out=edge[1:-1])
        first = edge[:-1]
        last = edge[1:]
        ends = first | last
        spread = (vals[last] - vals[first])[np.cumsum(first) - 1]
        inner = np.flatnonzero(~ends & (spread > 0.0))
        dist[order[ends]] = np.inf
        dist[order[inner]] += (vals[inner + 1] - vals[inner - 1]) / spread[inner]
    return dist


def nondominated_sort(points) -> list[np.ndarray]:
    """Partition points into fronts by Pareto dominance (minimization).

    Returns a list of index arrays (each ascending); front 0 holds the
    nondominated points of the whole set, front r the points that become
    nondominated once fronts 0..r-1 are removed. Duplicates never dominate
    each other and land in the same front. Non-finite points are rejected.
    """
    rank = _ranks(_points(points))
    order = np.argsort(rank, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(rank[order])) + 1)


def crowding_distance(points) -> np.ndarray:
    """Crowding distance of points within one front.

    Boundary points on each objective get infinity; interior points sum the
    normalized gap between their neighbours over all objectives. Objectives
    with zero range contribute nothing. Ties in an objective keep their
    original order (stable sort), so with duplicated points the lowest and
    highest indices act as the boundaries.
    """
    pts = _points(points)
    return _crowding(pts, np.zeros(pts.shape[0], dtype=int))


@dataclass(frozen=True)
class SelectionOutcome:
    """Result of environmental selection over a pool of objective points.

    ``selected`` lists the chosen indices in ascending order; ``rank`` and
    ``crowding`` cover the whole pool (rank = front number, crowding
    computed within each front).
    """

    selected: np.ndarray
    rank: np.ndarray
    crowding: np.ndarray


def environmental_select(points, mu: int) -> SelectionOutcome:
    """Pick mu of the given points by (rank, crowding), NSGA-II style.

    Whole fronts are taken while they fit; the splitting front is truncated
    by descending crowding distance, ties broken by lower index.
    """
    pts = _points(points)
    n = pts.shape[0]
    if not 1 <= mu <= n:
        raise ValueError(f"mu must be in [1, {n}], got {mu}")
    rank = _ranks(pts)
    crowding = _crowding(pts, rank)
    best = np.lexsort((np.arange(n), -crowding, rank))
    selected = np.sort(best[:mu])
    return SelectionOutcome(selected=selected, rank=rank, crowding=crowding)


def binary_tournament(outcome: SelectionOutcome, rng: np.random.Generator) -> int:
    """Pick one index from the pool described by ``outcome``.

    Two distinct contestants are drawn uniformly; lower rank wins, then
    higher crowding, then a coin flip.
    """
    n = outcome.rank.size
    if n == 1:
        return 0
    i = int(rng.integers(n))
    j = int(rng.integers(n - 1))
    if j >= i:
        j += 1
    if outcome.rank[i] != outcome.rank[j]:
        return i if outcome.rank[i] < outcome.rank[j] else j
    if outcome.crowding[i] != outcome.crowding[j]:
        return i if outcome.crowding[i] > outcome.crowding[j] else j
    return i if rng.random() < 0.5 else j


def sbx_crossover(parents, lower, upper, uniforms, eta: float = 20.0) -> np.ndarray:
    """Simulated binary crossover over a batch of mating pairs.

    ``parents`` has shape (pairs, 2, n), and ``uniforms[p]`` holds pair p's
    2n uniforms in draw order: n exchange draws, then n spread draws. A
    coordinate is recombined when its exchange draw is at most 0.5, using
    a spread factor from the polynomial spread distribution with index
    ``eta``. Recombined coordinates are ordered: the first child takes the
    lower mix and the second the upper mix, so one child contracts toward
    the coordinate-wise minimum and the other toward the maximum; before
    clipping each such pair preserves the parents' sum. Children are
    clipped to the box. Returns the children as a new (pairs, 2, n) array.

    Only recombined coordinates are computed, and every power is an array
    ufunc: a Python float or numpy scalar power can differ from it in the
    last bit, which would change run files.
    """
    parents = np.asarray(parents, dtype=float)
    uniforms = np.asarray(uniforms, dtype=float)
    children = parents.copy()
    pair, col = np.nonzero(uniforms[:, 0] <= 0.5)
    a = parents[pair, 0, col]
    b = parents[pair, 1, col]
    u = uniforms[pair, 1, col]
    beta = np.where(u <= 0.5, 2.0 * u, 1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0))
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    mid = 0.5 * (lo + hi)
    half = 0.5 * beta * (hi - lo)
    children[pair, 0, col] = mid - half
    children[pair, 1, col] = mid + half
    np.clip(children, lower, upper, out=children)
    return children


def polynomial_mutation(
    x, lower, upper, uniforms, eta: float = 20.0, mutation_prob: float | None = None
) -> np.ndarray:
    """Bounded polynomial mutation over a batch of genomes.

    ``x`` has shape (..., n) and ``uniforms`` shape (..., 2, n): for each
    genome, n gate draws, then n spread draws. A coordinate mutates when
    its gate draw is below ``mutation_prob`` (default 1/n); only those
    coordinates are computed, and each is clipped to the box. Returns the
    mutated genomes as a new array.
    """
    x = np.asarray(x, dtype=float)
    uniforms = np.asarray(uniforms, dtype=float)
    n = x.shape[-1]
    if mutation_prob is None:
        mutation_prob = 1.0 / n
    out = x.copy()
    gated = np.nonzero(uniforms[..., 0, :] < mutation_prob)
    col = gated[-1]
    lower = np.asarray(lower, dtype=float)[col]
    upper = np.asarray(upper, dtype=float)[col]
    xs = x[gated]
    u = uniforms[..., 1, :][gated]
    span = upper - lower
    low = u <= 0.5
    # Each coordinate raises only the base of the branch it keeps, with
    # array powers as in sbx_crossover, so every float equals the one an
    # evaluation of both branches over the whole vector would keep.
    y = np.where(low, 1.0 - (xs - lower) / span, 1.0 - (upper - xs) / span) ** (eta + 1.0)
    base = np.where(low, 2.0 * u + (1.0 - 2.0 * u) * y, 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * y)
    root = base ** (1.0 / (eta + 1.0))
    delta = np.where(low, root - 1.0, 1.0 - root)
    out[gated] = np.clip(xs + delta * span, lower, upper)
    return out
