"""Exact small-instance solver and Monte-Carlo verifiers.

The brute-force optimum is the ground truth behind every approximation claim
in the test suite, so it trades all cleverness for auditability: enumerate
every partition of the points into at most k nonempty groups, score each by
the centroid cost of its groups, keep the best. It returns a
`ClusteringResult` like every other solver. Alongside it live the two
statistical experiments that the sampling guarantees rest on: the centroids
of weight-proportional subsamples (success within a (1 + 1/(delta*M)) cost
factor) and the gated null-sampling process. Both draw with the PTAS
evaluator's inverse CDF, through `_draw`, and price with the package's
distance kernel.
"""

from __future__ import annotations

import math

import numpy as np

from wkmeans import ptas
from wkmeans.core import (
    ClusteringResult,
    WeightedPointSet,
    _check_positive_int,
    _check_weight_total,
    _exact_sum,
    min_squared_distances,
    weighted_centroid,
    weighted_cost,
)
from wkmeans.sampling import RandomSource

__all__ = [
    "InstanceTooLarge",
    "brute_force_opt",
    "verify_inaba",
    "verify_null_sampling",
]

MAX_EXACT_POINTS = 14
# sum of Stirling set numbers we are willing to walk; S(14,3) ~ 2.3M sits
# comfortably under this.
MAX_PARTITIONS = 6_000_000


class InstanceTooLarge(ValueError):
    """Exact enumeration would exceed the desk-scale budget."""


def _draw(mass: np.ndarray, count: int, gen: np.random.Generator) -> np.ndarray:
    """`count` i.i.d. draws from the masses, shape (count,), one uniform each.

    The draw is the PTAS evaluator's: `ptas._inverse_cdf_rows` on `mass` as
    one (n, 1) row of masses, so a draw lands on point p with probability
    mass[p] / total and never on a zero mass. The masses must be finite,
    nonnegative and not all zero, with a total inside float64; the callers
    check that.
    """
    mass = np.asarray(mass, dtype=np.float64)[:, None]
    u = gen.random(count)[:, None]
    cols, _ = ptas._inverse_cdf_rows(mass, u, np.empty_like(mass))
    return cols[:, 0]


def partition_count(n: int, k: int) -> int:
    """Number of partitions of n items into at most k nonempty groups.

    Sum over j <= k of the Stirling set numbers S(n, j), via the standard
    recurrence S(n, j) = j*S(n-1, j) + S(n-1, j-1).
    """
    row = [1] + [0] * n
    for m in range(1, n + 1):
        new = [0] * (n + 1)
        for j in range(1, m + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return sum(row[1 : min(k, n) + 1])


def _exact_result(
    P: WeightedPointSet, centers, groups: list[list[int]], evaluated: int
) -> ClusteringResult:
    meta = {"solver": "oracle", "partitions_evaluated": evaluated, "groups": groups}
    return ClusteringResult.from_centers(P, centers, meta)


def brute_force_opt(P: WeightedPointSet, k: int) -> ClusteringResult:
    """Exhaustive optimum over all partitions into at most k nonempty groups.

    Each group is scored with its weighted centroid as center; centroid
    optimality makes that the best possible center, so the minimum over
    partitions is the global optimum. Enumeration walks restricted-growth
    strings, so structurally identical partitions are visited exactly once.
    No pruning: the visit count doubles as a combinatorial self-check. The
    result's meta holds that count as partitions_evaluated (0 when k >= n,
    where every point is its own center) and the winning partition as
    groups, lists of point indices in increasing order; its cost is the
    exactly rounded cost of the winning centers, and the incremental totals
    only rank partitions.
    """
    _check_positive_int("k", k)
    n = P.n
    if n > MAX_EXACT_POINTS:
        raise InstanceTooLarge("instance too large for exact oracle")
    if k >= n:
        return _exact_result(P, P.coords, [[i] for i in range(n)], 0)
    if partition_count(n, k) > MAX_PARTITIONS:
        raise InstanceTooLarge("instance too large for exact oracle")

    coords = P.coords
    w = P.weights
    d = P.dim
    # Per-point sufficient statistics: a group's centroid cost is
    # Q - ||S||^2 / W with W = sum w, S = sum w*p, Q = sum w*||p||^2.
    wp = (w[:, None] * coords).tolist()
    wq = (w * np.einsum("ij,ij->i", coords, coords)).tolist()
    wl = w.tolist()

    group_w = [0.0] * k
    group_s = [[0.0] * d for _ in range(k)]
    group_q = [0.0] * k
    group_cost = [0.0] * k
    assign = [0] * n

    best_cost = math.inf
    best_assign: list[int] | None = None
    leaves = 0

    def place(i: int, g: int) -> float:
        group_w[g] += wl[i]
        sg = group_s[g]
        for j in range(d):
            sg[j] += wp[i][j]
        group_q[g] += wq[i]
        old = group_cost[g]
        new = group_q[g] - sum(v * v for v in sg) / group_w[g]
        group_cost[g] = new
        return old

    def unplace(i: int, g: int, old_cost: float) -> None:
        group_w[g] -= wl[i]
        sg = group_s[g]
        for j in range(d):
            sg[j] -= wp[i][j]
        group_q[g] -= wq[i]
        group_cost[g] = old_cost

    def walk(i: int, used: int, total: float) -> None:
        nonlocal best_cost, best_assign, leaves
        if i == n:
            leaves += 1
            if total < best_cost:
                best_cost = total
                best_assign = assign.copy()
            return
        # Restricted growth: point i may join an existing group or open the
        # next one; opening beyond k groups is not allowed.
        limit = min(used + 1, k)
        for g in range(limit):
            old = place(i, g)
            assign[i] = g
            walk(i + 1, max(used, g + 1), total + group_cost[g] - old)
            unplace(i, g, old)

    # Point 0 always opens group 0; skipping its relabelings keeps the count
    # at the partition count rather than k times it.
    old0 = place(0, 0)
    assign[0] = 0
    walk(1, 1, group_cost[0] - old0)
    unplace(0, 0, old0)

    assert best_assign is not None
    used = max(best_assign) + 1
    groups = [[i for i in range(n) if best_assign[i] == g] for g in range(used)]
    centers = np.array([weighted_centroid(P.subset(g)) for g in groups])
    return _exact_result(P, centers, groups, leaves)


def verify_inaba(
    P: WeightedPointSet,
    M: int,
    delta: float,
    repetitions: int,
    rng: RandomSource,
) -> float:
    """Success rate of the subsample-centroid bound.

    Each repetition draws M points with replacement, each with probability
    proportional to its weight (`_draw`, the PTAS evaluator's draw; integer
    weights act as that many unit copies drawn uniformly), and counts how
    often the plain mean of the draws has a single-center cost, priced with
    the distance kernel, within (1 + 1/(delta*M)) of the optimum. Any
    positive weights are accepted; a weight total that overflows float64 is
    refused with ValueError. The bound promises a rate of at least 1 - delta.
    """
    _check_positive_int("M", M)
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    _check_positive_int("repetitions", repetitions)
    _check_weight_total(P)
    threshold = (1.0 + 1.0 / (delta * M)) * weighted_cost(P, [weighted_centroid(P)])
    idx = _draw(P.weights, repetitions * M, rng.generator())
    centroids = P.coords[idx.reshape(repetitions, M)].mean(axis=1)
    successes = sum(weighted_cost(P, c) <= threshold for c in centroids)
    return successes / repetitions


def verify_null_sampling(
    gamma: float,
    epsilon: float,
    points: np.ndarray,
    repetitions: int,
    rng: RandomSource,
) -> tuple[float, float]:
    """Success rates of the gated uniform-sampling experiment, (count, full).

    One run makes l = ceil(400 / (gamma * epsilon)) draws; each is null with
    probability 1 - gamma, otherwise a uniform point of `points` (drawn by
    `_draw` from unit masses). The count rate is the share of runs with at
    least m = ceil(100 / epsilon) non-null draws. The full rate also asks
    that the centroid of a uniformly chosen m-subset of them have a
    single-center cost, priced with the distance kernel, within
    (1 + epsilon/20) of optimal.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must be in (0, 1]")
    _check_positive_int("repetitions", repetitions)
    n_draws = math.ceil(400.0 / (gamma * epsilon))
    if n_draws > 1_000_000:
        raise ValueError("experiment too large")
    m = math.ceil(100.0 / epsilon)

    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    uniform = np.ones(pts.shape[0])
    threshold = (1.0 + epsilon / 20.0) * _exact_sum(
        min_squared_distances(pts, pts.mean(axis=0))
    )

    gen = rng.generator()
    counted = successes = 0
    for _ in range(repetitions):
        # Fixed three-block draw layout per run: gates, point picks, subset
        # keys. Unused picks/keys still consume stream positions, so the
        # layout is independent of the gate outcomes.
        gates = gen.random(n_draws) < gamma
        picks = _draw(uniform, n_draws, gen)
        keys = gen.random(n_draws)
        if np.count_nonzero(gates) < m:
            continue
        counted += 1
        keys = np.where(gates, keys, np.inf)
        g = pts[picks[np.argpartition(keys, m - 1)[:m]]].mean(axis=0)
        if _exact_sum(min_squared_distances(pts, g)) <= threshold:
            successes += 1
    return counted / repetitions, successes / repetitions
