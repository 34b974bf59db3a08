"""Classic baselines: distance-weighted seeding and Lloyd refinement.

Seeding picks actual input points by sequential distance-weighted draws; it
carries the usual O(log k) expected-cost guarantee and serves as the
comparison solver. Lloyd descent alternates assignment and reweighted
centroids; with the keep-previous-center policy for emptied clusters every
iteration is provably non-increasing in cost.
"""

from __future__ import annotations

import numpy as np

from wkmeans.core import (
    CenterSet,
    ClusteringResult,
    WeightedPointSet,
    _check_positive_int,
    _check_weight_total,
    _cost,
    _nearest,
    min_squared_distances,
)
from wkmeans.sampling import RandomSource, sample_indices

__all__ = ["kmeanspp_seed", "lloyd_descend", "kmeanspp_lloyd"]

_MASS_OVERFLOW = (
    "the products of weights and squared distances, or their sum, overflow"
    " float64; scale the weights down"
)

# Lloyd's stopping rule: at most _MAX_ITERS rounds, and stop after a round
# that lowers the cost by less than _REL_TOL of the previous cost.
_MAX_ITERS = 200
_REL_TOL = 1e-9


def kmeanspp_seed(P: WeightedPointSet, k: int, rng: RandomSource) -> CenterSet:
    """Pick k input points by sequential distance-weighted sampling.

    The first draw is weight-proportional; each later draw is proportional to
    weight times squared distance to the chosen set. Once every point lies on
    a chosen center the remaining slots cycle through the existing centers
    (the zero-cost situation; duplicates are harmless). Masses w * d^2 or
    their total past float64 raise ValueError.
    """
    _check_positive_int("k", k)
    gen = rng.generator()
    first = int(sample_indices(P.weights, 1, gen)[0])
    chosen = [first]
    cache = min_squared_distances(P.coords, P.coords[first])
    while len(chosen) < k:
        with np.errstate(over="ignore"):
            mass = P.weights * cache
            # The masses are nonnegative, so their sum is finite only when
            # every mass is and the total stays inside float64.
            finite = np.isfinite(mass.sum())
        if not mass.any():
            # All mass covered; cycle existing picks without consuming draws.
            base = len(chosen)
            while len(chosen) < k:
                chosen.append(chosen[len(chosen) % base])
            break
        if not finite:
            raise ValueError(_MASS_OVERFLOW)
        idx = int(sample_indices(mass, 1, gen)[0])
        chosen.append(idx)
        np.minimum(cache, min_squared_distances(P.coords, P.coords[idx]), out=cache)
    return CenterSet(P.coords[np.array(chosen, dtype=np.intp)])


def lloyd_descend(P: WeightedPointSet, init: CenterSet) -> ClusteringResult:
    """Alternate nearest-center assignment and weighted centroid updates.

    Ties assign to the lowest center index; a cluster that loses all points
    keeps its previous center. Stops when a round improves the cost by less
    than a relative 1e-9 or after 200 rounds. The cost history (including
    the initial cost) lands in meta["cost_history"].

    Each round makes one kernel pass over the new centers: it prices them
    and gives the assignment for the next centroids, and the last pass is
    the result's. Centroids are per-cluster sums from `np.bincount`; sums
    of weights times coordinates past float64 raise ValueError.
    """
    centers = init.centers.copy()
    k = centers.shape[0]
    with np.errstate(over="ignore"):
        weighted_t = (P.coords * P.weights[:, None]).T.copy()
    assignment, d2 = _nearest(P.coords, centers)
    history = [_cost(P.weights, d2)]
    iterations = 0
    for _ in range(_MAX_ITERS):
        mass = np.bincount(assignment, weights=P.weights, minlength=k)
        live = mass > 0.0
        new_centers = centers.copy()
        for j, column in enumerate(weighted_t):
            sums = np.bincount(assignment, weights=column, minlength=k)
            new_centers[live, j] = sums[live] / mass[live]
        if not np.isfinite(new_centers).all():
            raise ValueError(
                "the sums of weights times coordinates overflow float64;"
                " scale the weights down"
            )
        assignment, d2 = _nearest(P.coords, new_centers)
        cost = _cost(P.weights, d2)
        centers = new_centers
        history.append(cost)
        iterations += 1
        prev = history[-2]
        if prev <= 0.0 or (prev - cost) < _REL_TOL * prev:
            break
    meta = {"solver": "lloyd", "iterations": iterations, "cost_history": history}
    return ClusteringResult(CenterSet(centers), assignment, history[-1], meta)


def kmeanspp_lloyd(P: WeightedPointSet, k: int, rng: RandomSource) -> ClusteringResult:
    """Seed with distance-weighted sampling, refine with Lloyd descent."""
    _check_weight_total(P)
    init = kmeanspp_seed(P, k, rng)
    result = lloyd_descend(P, init)
    meta = dict(result.meta)
    meta["solver"] = "kmeanspp-lloyd"
    return ClusteringResult(result.centers, result.assignment, result.cost, meta)
