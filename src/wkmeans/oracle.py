"""Exact small-instance solver.

The brute-force optimum is the ground truth behind every approximation claim
in the test suite, so it trades all cleverness for auditability: enumerate
every partition of the points into at most k nonempty groups, score each by
the centroid cost of its groups, keep the best. It returns a
`ClusteringResult` like every other solver.
"""

from __future__ import annotations

import math

import numpy as np

from wkmeans.core import (
    ClusteringResult,
    WeightedPointSet,
    _check_positive_int,
    _in_local_frame,
    weighted_centroid,
)

__all__ = ["InstanceTooLarge", "brute_force_opt"]

MAX_EXACT_POINTS = 14
# sum of Stirling set numbers we are willing to walk; S(14,3) ~ 2.3M sits
# comfortably under this.
MAX_PARTITIONS = 6_000_000


class InstanceTooLarge(ValueError):
    """Exact enumeration would exceed the desk-scale budget."""


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
    only rank partitions. The walk runs in the local frame of
    `core._in_local_frame`. When every partition's total overflows float64,
    or the winning centroids' sums of weights times coordinates do, it
    raises ValueError.
    """
    _check_positive_int("k", k)
    n = P.n
    if n > MAX_EXACT_POINTS:
        raise InstanceTooLarge("instance too large for exact oracle")
    if k >= n:
        return _exact_result(P, P.coords, [[i] for i in range(n)], 0)
    if partition_count(n, k) > MAX_PARTITIONS:
        raise InstanceTooLarge("instance too large for exact oracle")
    return _in_local_frame(P, lambda local: _enumerate(local, k))


def _centroid(G: WeightedPointSet) -> np.ndarray:
    """G's weighted centroid about its heaviest point, whose own term is 0:
    a weight that dwarfs the rest keeps the center on its point, where the
    rounded product of that weight and coordinate could move it an ulp."""
    ref = G.coords[int(np.argmax(G.weights))]
    return ref + weighted_centroid(WeightedPointSet(G.coords - ref, G.weights))


def _enumerate(P: WeightedPointSet, k: int) -> ClusteringResult:
    """`brute_force_opt`'s walk over partitions of P into at most k groups.

    Each group keeps its weight W and mean, and a point p of weight w joining
    it adds w W / (W + w) |p - mean|^2 to its cost (Welford's update). A
    partition's total adds these nonnegative terms, so no sum cancels
    however far the weights spread. Leaving a group restores the (W, mean) saved when the point
    joined it. Scaling the weights or the coordinates by a power of two
    scales every term exactly. A term past float64 is inf, or nan, and its
    partitions lose to every finite total.
    """
    n = P.n
    pts = P.coords.tolist()
    wl = P.weights.tolist()
    group_w = [0.0] * k
    group_mean: list[list[float]] = [[] for _ in range(k)]
    assign = [0] * n

    best_cost = math.inf
    best_assign: list[int] | None = None
    leaves = 0

    def walk(i: int, used: int, total: float) -> None:
        nonlocal best_cost, best_assign, leaves
        if i == n:
            leaves += 1
            if total < best_cost:
                best_cost = total
                best_assign = assign.copy()
            return
        w, p = wl[i], pts[i]
        # Restricted growth: point i may join an existing group or open the
        # next one; opening beyond k groups is not allowed.
        for g in range(min(used + 1, k)):
            W, mean = group_w[g], group_mean[g]
            if W:
                grown = W + w
                share = w / grown
                delta = [a - b for a, b in zip(p, mean)]
                group_w[g] = grown
                group_mean[g] = [b + share * a for a, b in zip(delta, mean)]
                added = w * (W / grown) * sum([a * a for a in delta])
            else:
                group_w[g], group_mean[g] = w, p
                added = 0.0
            assign[i] = g
            walk(i + 1, max(used, g + 1), total + added)
            group_w[g], group_mean[g] = W, mean

    # Point 0 always opens group 0; skipping its relabelings keeps the count
    # at the partition count rather than k times it.
    group_w[0], group_mean[0] = wl[0], pts[0]
    walk(1, 1, 0.0)

    centers = np.array([np.nan])
    if best_assign is not None:
        used = max(best_assign) + 1
        groups = [[i for i in range(n) if best_assign[i] == g] for g in range(used)]
        with np.errstate(over="ignore"):
            centers = np.array([_centroid(P.subset(g)) for g in groups])
    if not np.isfinite(centers).all():
        raise ValueError(
            "no candidate has a finite cost: weights times coordinates or squared"
            " distances overflow float64; scale the weights down"
        )
    return _exact_result(P, centers, groups, leaves)
