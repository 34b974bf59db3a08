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
    `core._in_local_frame`, where those totals do not cancel at geo offsets.
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


def _enumerate(P: WeightedPointSet, k: int) -> ClusteringResult:
    """`brute_force_opt`'s walk over partitions of P into at most k groups."""
    n = P.n
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
