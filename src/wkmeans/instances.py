"""Fixed benchmark instances with known optima, plus random-instance helpers.

The five oracle instances are small enough for a brute-force search and have
hand-derived optimal costs; they anchor both the test suite and the bench
command. Optima marked "by separation" additionally rely on the two-point
bound: any cluster containing points p, q costs at least
w_p*w_q/(w_p+w_q) * ||p-q||^2, so well-separated groups cannot profitably mix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wkmeans.core import WeightedPointSet, weighted_centroid, weighted_cost
from wkmeans.sampling import RandomSource

__all__ = [
    "Instance",
    "line4",
    "heavy2",
    "pairw4",
    "skew12",
    "wskew9",
    "tri9",
    "wclust12",
    "oracle_instances",
    "stress_instances",
    "chi6",
    "inaba10",
    "kpp20",
    "random_instance",
]


@dataclass(frozen=True)
class Instance:
    name: str
    points: WeightedPointSet
    k: int
    opt_cost: float


def line4() -> Instance:
    """Four unit-weight points on a line; optimal split {0,1} / {4,5}."""
    P = WeightedPointSet(np.array([[0.0], [1.0], [4.0], [5.0]]), np.ones(4))
    return Instance("line4", P, 2, 1.0)


def heavy2() -> Instance:
    """Two points, 9:1 weights; the k=1 optimum is the weighted centroid."""
    P = WeightedPointSet(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([9.0, 1.0]))
    return Instance("heavy2", P, 1, 0.9)


def pairw4() -> Instance:
    """Weighted line instance; optimal split {0,2} / {6,8}, cost 2 * 8/3."""
    P = WeightedPointSet(
        np.array([[0.0], [2.0], [6.0], [8.0]]), np.array([2.0, 1.0, 1.0, 2.0])
    )
    return Instance("pairw4", P, 2, 16.0 / 3.0)


def skew12() -> Instance:
    """Three separated unit-weight groups of sizes 8, 3, 1; k=3 optimum 3.5.

    The 8/3/1 mass split keeps every sampling round dominated by a single
    uncovered group, which is what lets small-subset candidate search find
    the group structure reliably; see skewed_vs_balanced in the success-rate
    script for the contrast with balanced groups.
    """
    big = np.array(
        [
            [-0.5, 0.0],
            [0.5, 0.0],
            [0.0, -0.5],
            [0.0, 0.5],
            [-0.5, -0.5],
            [0.5, -0.5],
            [-0.5, 0.5],
            [0.5, 0.5],
        ]
    )
    mid = np.array([[-0.5, 0.0], [0.0, 0.0], [0.5, 0.0]])
    coords = np.vstack([big, [10.0, 0.0] + mid, [[5.0, 8.0]]])
    P = WeightedPointSet(coords, np.ones(12))
    return Instance("skew12", P, 3, 3.5)


def wskew9() -> Instance:
    """Three separated weighted groups with masses 8, 3, 1; k=3 optimum 2.75."""
    cross = np.array([[-0.5, 0.0], [0.5, 0.0], [0.0, -0.5], [0.0, 0.5]])
    mid = np.array([[-0.5, 0.0], [0.0, 0.0], [0.5, 0.0]])
    pair = np.array([[0.0, -0.5], [0.0, 0.5]])
    coords = np.vstack([cross, [10.0, 0.0] + mid, [5.0, 8.0] + pair])
    weights = np.concatenate([np.full(4, 2.0), np.ones(3), np.full(2, 0.5)])
    P = WeightedPointSet(coords, weights)
    return Instance("wskew9", P, 3, 2.75)


def tri9() -> Instance:
    """Three separated balanced triads; per-triad cost 2/3, optimal by separation.

    Balanced equal-mass groups make random small-subset search hard at desk
    budgets (each group must be hit purely, probability about (1/3)^M), so
    this instance is a stress case rather than an oracle benchmark.
    """
    offsets = np.array([[-0.5, 0.0], [0.5, 0.0], [0.0, 0.5]])
    anchors = np.array([[0.0, 0.0], [6.0, 0.0], [3.0, 5.0]])
    coords = (anchors[:, None, :] + offsets[None, :, :]).reshape(-1, 2)
    P = WeightedPointSet(coords, np.ones(9))
    return Instance("tri9", P, 3, 2.0)


def wclust12() -> Instance:
    """Three separated balanced weighted crosses; stress case like tri9."""
    cross = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
    cross_w = np.array([2.0, 2.0, 1.0, 1.0])
    anchors = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 8.0]])
    coords = (anchors[:, None, :] + cross[None, :, :]).reshape(-1, 2)
    weights = np.tile(cross_w, 3)
    P = WeightedPointSet(coords, weights)
    return Instance("wclust12", P, 3, 18.0)


def oracle_instances() -> tuple[Instance, ...]:
    """The five fixed benchmark instances with oracle-verified optima."""
    return (line4(), heavy2(), pairw4(), skew12(), wskew9())


def stress_instances() -> tuple[Instance, ...]:
    """Balanced k=3 instances where desk-budget tuple search usually fails."""
    return (tri9(), wclust12())


def chi6() -> tuple[WeightedPointSet, np.ndarray]:
    """Six weighted line points and one center for distribution tests.

    Returns (P, center). Against the center at 2.0, the distance-weighted
    sampling vector is (4, 2, 0, 0.5, 13.5, 90): unequal weights, one exact
    zero, and a dominant tail.
    """
    P = WeightedPointSet(
        np.array([[0.0], [1.0], [2.0], [3.0], [5.0], [8.0]]),
        np.array([1.0, 2.0, 3.0, 0.5, 1.5, 2.5]),
    )
    return P, np.array([[2.0]])


def inaba10() -> WeightedPointSet:
    """Fixed 10-point integer-weight instance for subsample-centroid runs."""
    coords = np.array(
        [
            [0.0, 0.0],
            [2.0, 1.0],
            [-1.0, 3.0],
            [4.0, -2.0],
            [1.5, 2.5],
            [-3.0, -1.0],
            [0.5, -4.0],
            [3.0, 3.0],
            [-2.0, 2.0],
            [1.0, -1.5],
        ]
    )
    weights = np.array([1.0, 2.0, 1.0, 3.0, 2.0, 1.0, 2.0, 1.0, 1.0, 2.0])
    return WeightedPointSet(coords, weights)


def kpp20() -> Instance:
    """Twenty points in three separated groups; k=3 optimum by separation.

    Group radii stay below 1 while the closest inter-group gap exceeds 13, so
    the two-point bound (>= 0.5 * 13^2 with all weights >= 1) dwarfs the
    natural per-group centroid cost and forces the group partition.
    """
    gen = RandomSource(918273).generator()
    anchors = np.array([[0.0, 0.0], [20.0, 0.0], [10.0, 15.0]])
    sizes = (7, 7, 6)
    coords = []
    for a, size in zip(anchors, sizes):
        offsets = gen.random((size, 2)) * 2.0 - 1.0
        coords.append(a + offsets)
    coords = np.vstack(coords)
    weights = np.where(gen.random(20) < 0.5, 1.0, 2.0)
    P = WeightedPointSet(coords, weights)
    opt = 0.0
    start = 0
    for size in sizes:
        group = P.subset(range(start, start + size))
        opt += weighted_cost(group, [weighted_centroid(group)])
        start += size
    return Instance("kpp20", P, 3, opt)


def random_instance(
    rng: RandomSource,
    max_n: int = 50,
    max_dim: int = 5,
    weight_low: float = 0.1,
    weight_high: float = 3.0,
) -> WeightedPointSet:
    """Random point set with coords in [0, 1); sizes drawn uniformly.

    The unit coordinate box keeps costs at most O(n * w_high), so absolute
    floating-point slack tolerances like 1e-12 are meaningful.
    """
    gen = rng.generator()
    n = 1 + int(gen.random() * max_n)
    d = 1 + int(gen.random() * max_dim)
    coords = gen.random((n, d))
    weights = weight_low + gen.random(n) * (weight_high - weight_low)
    return WeightedPointSet(coords, weights)
