"""Classic baselines: distance-weighted seeding and Lloyd refinement.

Seeding picks actual input points by sequential distance-weighted draws; it
carries the usual O(log k) expected-cost guarantee and serves as the
comparison solver. Lloyd descent alternates assignment and reweighted
centroids; with the keep-previous-center policy for emptied clusters every
iteration is provably non-increasing in cost.
"""

from __future__ import annotations

from dataclasses import dataclass

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

__all__ = ["LloydParams", "kmeanspp_seed", "lloyd_descend", "kmeanspp_lloyd"]

_MASS_OVERFLOW = (
    "the products of weights and squared distances, or their sum, overflow"
    " float64; scale the weights down"
)


@dataclass(frozen=True)
class LloydParams:
    max_iters: int = 200
    rel_improvement_tol: float = 1e-9

    def __post_init__(self) -> None:
        _check_positive_int("max_iters", self.max_iters)
        if self.rel_improvement_tol < 0.0:
            raise ValueError("rel_improvement_tol must be nonnegative")


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


def lloyd_descend(
    P: WeightedPointSet, init: CenterSet, params: LloydParams | None = None
) -> ClusteringResult:
    """Alternate nearest-center assignment and weighted centroid updates.

    Ties assign to the lowest center index; a cluster that loses all points
    keeps its previous center. Stops when relative improvement drops below
    the tolerance or after max_iters rounds. The cost history (including the
    initial cost) lands in meta["cost_history"].

    Each round makes one kernel pass over the new centers: it prices them
    and gives the assignment for the next centroids, and the last pass is
    the result's. Centroids are per-cluster sums from `np.bincount`; sums
    of weights times coordinates past float64 raise ValueError.
    """
    params = params or LloydParams()
    centers = init.centers.copy()
    k = centers.shape[0]
    with np.errstate(over="ignore"):
        weighted_t = (P.coords * P.weights[:, None]).T.copy()
    assignment, d2 = _nearest(P.coords, centers)
    history = [_cost(P.weights, d2)]
    iterations = 0
    for _ in range(params.max_iters):
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
        if prev <= 0.0 or (prev - cost) < params.rel_improvement_tol * prev:
            break
    meta = {"solver": "lloyd", "iterations": iterations, "cost_history": history}
    return ClusteringResult(CenterSet(centers), assignment, history[-1], meta)


def kmeanspp_lloyd(
    P: WeightedPointSet,
    k: int,
    rng: RandomSource,
    params: LloydParams | None = None,
) -> ClusteringResult:
    """Seed with distance-weighted sampling, refine with Lloyd descent."""
    _check_weight_total(P)
    init = kmeanspp_seed(P, k, rng)
    result = lloyd_descend(P, init, params)
    meta = dict(result.meta)
    meta["solver"] = "kmeanspp-lloyd"
    return ClusteringResult(result.centers, result.assignment, result.cost, meta)
