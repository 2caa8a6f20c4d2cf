"""Performance assessment: normalization, 2-D hypervolume, Wilcoxon test."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import lookup
from .problems import Problem


@dataclass(frozen=True)
class NormalizationFrame:
    """Affine frame mapping raw objectives to the assessment space.

    ``ideal`` is the component-wise minimum of the exact front; ``nadir``
    the component-wise maximum over the union of the exact front and every
    point an experiment batch produced. Normalized front points span
    [0, 1]; batch points may exceed 1 (clipped later) or undercut 0
    (noisy estimates below the true front pass through).
    """

    ideal: np.ndarray
    nadir: np.ndarray

    def __post_init__(self) -> None:
        ideal = np.asarray(self.ideal, dtype=float)
        nadir = np.asarray(self.nadir, dtype=float)
        if ideal.shape != nadir.shape or ideal.ndim != 1:
            raise ValueError("ideal and nadir must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(ideal)) and np.all(np.isfinite(nadir))):
            raise ValueError("degenerate-frame")
        if not np.all(nadir > ideal):
            raise ValueError("degenerate-frame")
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "nadir", nadir)


def build_frame(front_points, *point_sets) -> NormalizationFrame:
    """Frame from the exact front plus any number of batch point sets."""
    front = np.asarray(front_points, dtype=float)
    ideal = front.min(axis=0)
    nadir = front.max(axis=0)
    for pts in point_sets:
        pts = np.asarray(pts, dtype=float)
        if pts.size:
            nadir = np.maximum(nadir, pts.max(axis=0))
    return NormalizationFrame(ideal=ideal, nadir=nadir)


def normalize(points, frame: NormalizationFrame) -> np.ndarray:
    """Map points into frame coordinates; clip above 1 only."""
    pts = np.asarray(points, dtype=float)
    scaled = (pts - frame.ideal) / (frame.nadir - frame.ideal)
    return np.minimum(scaled, 1.0)


def hypervolume_2d(points) -> float:
    """Exact area dominated by a 2-D point set, bounded by the reference
    point (1, 1), the nadir of the normalized frame.

    Points with any component at or beyond 1 contribute nothing and are
    dropped; so are dominated points. The remainder is swept in ascending
    f1, each point contributing the box from itself to its successor's f1
    and the reference's f2.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return 0.0
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must form an (n, 2) array")
    pts = pts[np.all(pts < 1.0, axis=1)]
    if pts.shape[0] == 0:
        return 0.0
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    # A point is on the staircase iff it undercuts every f2 before it.
    best_before = np.minimum.accumulate(np.concatenate(([math.inf], pts[:-1, 1])))
    stairs = pts[pts[:, 1] < best_before]
    widths = np.diff(np.append(stairs[:, 0], 1.0))
    # cumsum adds strictly left to right, as a scalar loop would; np.sum's
    # pairwise summation would change the last bits.
    return float(np.cumsum(widths * (1.0 - stairs[:, 1]))[-1])


@dataclass(frozen=True)
class HvReport:
    """Hypervolume of the reference front, of a solution set, and their gap."""

    hv_front: float
    hv_solution: float
    delta_hv: float


def delta_hypervolume(
    solution,
    problem: Problem,
    frame: NormalizationFrame,
    front_resolution: int = 1000,
) -> HvReport:
    """Hypervolume shortfall of a solution set against the exact front.

    Both the sampled exact front and the solution are normalized by the
    frame; the reference point is (1, 1), the normalized nadir. Noisy
    estimator values below the true front can make the gap negative.
    """
    front = problem.true_front(front_resolution)
    return delta_hypervolumes([solution], front, frame)[0]


def delta_hypervolumes(solutions, front, frame: NormalizationFrame) -> list[HvReport]:
    """``delta_hypervolume`` of many solution sets sharing one frame, given
    the sampled exact front; the front's hypervolume is computed once."""
    hv_front = hypervolume_2d(normalize(front, frame))
    reports = []
    for solution in solutions:
        hv_solution = hypervolume_2d(normalize(solution, frame))
        reports.append(HvReport(hv_front, hv_solution, hv_front - hv_solution))
    return reports


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties replaced by the mean of their rank block."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * ((i + 1) + (j + 1))
        i = j + 1
    return ranks


_EXACT_LIMIT = 20


def wilcoxon_signed_rank(a, b, alternative: str = "two-sided") -> float:
    """Wilcoxon signed-rank p-value for paired samples.

    Zero differences are dropped; tied absolute differences get average
    ranks. For at most 20 effective pairs the exact null distribution is
    enumerated (by convolution over doubled ranks, so half-integer ranks
    stay exact); beyond that a normal approximation with tie correction
    and a 0.5 continuity correction is used. With ``alternative``
    "greater" the alternative hypothesis is that a systematically exceeds
    b; "less" is the mirror image. All differences zero gives p = 1.0.
    """
    if alternative not in ("two-sided", "greater", "less"):
        raise ValueError(f"unknown alternative: {alternative!r}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("samples must be 1-d arrays of equal length")
    if a.size < 5:
        raise ValueError("need at least 5 pairs")
    d = a - b
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return 1.0
    ranks = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0.0].sum())
    if n <= _EXACT_LIMIT:
        return _wilcoxon_exact(ranks, w_plus, alternative)
    return _wilcoxon_approx(ranks, w_plus, n, alternative)


def _wilcoxon_exact(ranks: np.ndarray, w_plus: float, alternative: str) -> float:
    ranks2 = np.rint(2.0 * ranks).astype(int)
    total = int(ranks2.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in ranks2:
        counts[r:] += counts[: total + 1 - r].copy()
    mass = 2.0 ** ranks2.size
    w2 = int(round(2.0 * w_plus))
    mid = total / 2.0
    if alternative == "greater":
        return float(counts[w2:].sum() / mass)
    if alternative == "less":
        return float(counts[: w2 + 1].sum() / mass)
    dev = abs(w2 - mid)
    values = np.arange(total + 1)
    return float(counts[np.abs(values - mid) >= dev].sum() / mass)


def _wilcoxon_approx(ranks: np.ndarray, w_plus: float, n: int, alternative: str) -> float:
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    var -= float(np.sum(tie_counts.astype(float) ** 3 - tie_counts)) / 48.0
    if var <= 0.0:
        return 1.0
    sd = math.sqrt(var)
    if alternative == "greater":
        z = (w_plus - mean - 0.5) / sd
        return 0.5 * math.erfc(z / math.sqrt(2.0))
    if alternative == "less":
        z = (mean - w_plus - 0.5) / sd
        return 0.5 * math.erfc(z / math.sqrt(2.0))
    z = max((abs(w_plus - mean) - 0.5) / sd, 0.0)
    return math.erfc(z / math.sqrt(2.0))


# Fixed frames for scoring a single run without a batch. Ideals are the
# exact-front minima; nadirs additionally cover every final population of
# the reference batch defined in scripts/derive_fallback_frames.py, whose
# output these literals freeze.
FALLBACK_FRAMES: dict[str, NormalizationFrame] = {
    "zdt1": NormalizationFrame(
        ideal=np.array([0.0, 0.0]),
        nadir=np.array([1.0, 5.486364227001071]),
    ),
    "zdt2": NormalizationFrame(
        ideal=np.array([0.0, 0.0]),
        nadir=np.array([1.0, 6.20477019607209]),
    ),
    "zdt3": NormalizationFrame(
        ideal=np.array([0.0, -0.7733690123266405]),
        nadir=np.array([0.924617477460962, 5.367925814859021]),
    ),
    "zdt4": NormalizationFrame(
        ideal=np.array([0.0, 0.0]),
        nadir=np.array([1.0, 222.78613238575534]),
    ),
    "zdt6": NormalizationFrame(
        ideal=np.array([0.28077531881536977, 0.0]),
        nadir=np.array([1.0, 8.93921774373024]),
    ),
}


def fallback_frame(problem_name: str) -> NormalizationFrame:
    return lookup(FALLBACK_FRAMES, "fallback frame", problem_name)
