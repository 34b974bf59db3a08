"""Exact small-instance solver and Monte-Carlo verifiers.

The brute-force optimum is the ground truth behind every approximation claim
in the test suite, so it trades all cleverness for auditability: enumerate
every partition of the points into at most k nonempty groups, score each by
the centroid cost of its groups, keep the best. Alongside it live the two
statistical experiments that the sampling guarantees rest on: uniform
subsample centroids (success within a (1 + 1/(delta*M)) cost factor) and the
gated null-sampling process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wkmeans.core import CenterSet, WeightedPointSet, weighted_centroid, weighted_cost
from wkmeans.core import _check_positive_int
from wkmeans.sampling import RandomSource

__all__ = [
    "ExactResult",
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


@dataclass(frozen=True)
class ExactResult:
    """Optimal clustering found by brute-force search over set partitions."""

    cost: float
    groups: tuple[tuple[int, ...], ...]
    centers: CenterSet
    partitions_evaluated: int


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


def brute_force_opt(P: WeightedPointSet, k: int) -> ExactResult:
    """Exhaustive optimum over all partitions into at most k nonempty groups.

    Each group is scored with its weighted centroid as center; centroid
    optimality makes that the best possible center, so the minimum over
    partitions is the global optimum. Enumeration walks restricted-growth
    strings, so structurally identical partitions are visited exactly once.
    No pruning: the visit count doubles as a combinatorial self-check.
    """
    _check_positive_int("k", k)
    n = P.n
    if n > MAX_EXACT_POINTS:
        raise InstanceTooLarge("instance too large for exact oracle")
    if k >= n:
        groups = tuple((i,) for i in range(n))
        return ExactResult(0.0, groups, CenterSet(P.coords.copy()), 0)
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
    groups = tuple(
        tuple(i for i in range(n) if best_assign[i] == g) for g in range(used)
    )
    centers = CenterSet(
        np.array([weighted_centroid(P.subset(list(g))) for g in groups])
    )
    # Report the fsum-exact cost of the winning centers; the incremental total
    # only ranks partitions.
    return ExactResult(weighted_cost(P, centers), groups, centers, leaves)


def _expand_integer_weights(P: WeightedPointSet) -> np.ndarray:
    """Indices repeating each point w_p times; requires integer weights."""
    rounded = np.rint(P.weights)
    if not np.allclose(P.weights, rounded, rtol=0.0, atol=1e-9):
        raise ValueError("expand requires integer weights")
    return np.repeat(np.arange(P.n), rounded.astype(np.int64))


def verify_inaba(
    P: WeightedPointSet,
    M: int,
    delta: float,
    repetitions: int,
    rng: RandomSource,
) -> float:
    """Success rate of the uniform-subsample centroid bound.

    Treats P as a multiset of unit-weight copies (hence integer weights),
    draws M copies with replacement per repetition, and counts how often the
    sample centroid's single-center cost stays within (1 + 1/(delta*M)) of
    the optimum. The bound promises a rate of at least 1 - delta.
    """
    _check_positive_int("M", M)
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    _check_positive_int("repetitions", repetitions)
    copies = _expand_integer_weights(P)
    E = P.coords[copies]
    n_copies = E.shape[0]

    g = weighted_centroid(P)
    opt = weighted_cost(P, [g])
    threshold = (1.0 + 1.0 / (delta * M)) * opt

    # Cost of P about any c from sufficient statistics:
    # Q - 2 c.S + W ||c||^2.
    W = P.total_weight
    S = np.einsum("i,ij->j", P.weights, P.coords)
    Q = float(np.einsum("i,ij,ij->", P.weights, P.coords, P.coords))

    gen = rng.generator()
    u = gen.random((repetitions, M))
    idx = np.minimum((u * n_copies).astype(np.intp), n_copies - 1)
    successes = 0
    for lo in range(0, repetitions, 2048):
        hi = min(lo + 2048, repetitions)
        centroids = E[idx[lo:hi]].mean(axis=1)
        costs = Q - 2.0 * centroids @ S + W * np.einsum(
            "ij,ij->i", centroids, centroids
        )
        successes += int(np.count_nonzero(costs <= threshold))
    return successes / repetitions


def verify_null_sampling(
    gamma: float,
    epsilon: float,
    points: np.ndarray,
    repetitions: int,
    rng: RandomSource,
    count_only: bool = False,
) -> float:
    """Success rate of the gated uniform-sampling experiment.

    One run makes l = ceil(400 / (gamma * epsilon)) draws; each is null with
    probability 1 - gamma, otherwise a uniform point of `points` (unweighted).
    A run succeeds when at least m = ceil(100 / epsilon) draws are non-null
    and the centroid of a uniformly chosen m-subset of them has single-center
    cost within (1 + epsilon/20) of optimal. `count_only` scores just the
    first condition.
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
    n = pts.shape[0]
    centroid = pts.mean(axis=0)
    diffs = pts - centroid
    opt = float(np.einsum("ij,ij->", diffs, diffs))
    threshold = (1.0 + epsilon / 20.0) * opt

    S = pts.sum(axis=0)
    Q = float(np.einsum("ij,ij->", pts, pts))

    gen = rng.generator()
    successes = 0
    for _ in range(repetitions):
        # Fixed three-block draw layout per run: gates, point picks, subset
        # keys. Unused picks/keys still consume stream positions, so the
        # layout is independent of the gate outcomes.
        gates = gen.random(n_draws) < gamma
        picks = np.minimum((gen.random(n_draws) * n).astype(np.intp), n - 1)
        keys = gen.random(n_draws)
        hit = int(np.count_nonzero(gates))
        if hit < m:
            continue
        if count_only:
            successes += 1
            continue
        keys = np.where(gates, keys, np.inf)
        chosen = np.argpartition(keys, m - 1)[:m]
        sub = picks[chosen]
        g = pts[sub].mean(axis=0)
        cost = Q - 2.0 * float(g @ S) + n * float(g @ g)
        if cost <= threshold:
            successes += 1
    return successes / repetitions
