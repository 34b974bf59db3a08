"""Classic baselines: k-means++ seeding and Lloyd refinement.

k-means++ seeding (Arthur and Vassilvitskii, SODA 2007) is the PTAS
evaluator's one-tuple, M = 1 case; it carries the usual O(log k)
expected-cost guarantee and serves as the comparison solver. Lloyd descent
alternates assignment and reweighted centroids; with the
keep-previous-center policy for emptied clusters every iteration is
provably non-increasing in cost.
"""

from __future__ import annotations

import numpy as np

from wkmeans.core import (
    CenterSet,
    ClusteringResult,
    WeightedPointSet,
    _check_positive_int,
    _cost,
    _in_local_frame,
    _nearest,
)
from wkmeans.ptas import _best_for_trial
from wkmeans.sampling import RandomSource

__all__ = ["lloyd_descend", "kmeanspp_lloyd"]

# Lloyd's stopping rule: at most _MAX_ITERS rounds, and stop after a round
# that lowers the cost by less than _REL_TOL of the previous cost.
_MAX_ITERS = 200
_REL_TOL = 1e-9


def _lloyd_centers(
    assignment: np.ndarray, weighted_t: np.ndarray, weights: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Each cluster's weighted centroid from weighted_t, the (d, n) weights
    times coordinates; a cluster with no points keeps its center."""
    k = centers.shape[0]
    mass = np.bincount(assignment, weights=weights, minlength=k)
    live = mass > 0.0
    out = centers.copy()
    for j, column in enumerate(weighted_t):
        sums = np.bincount(assignment, weights=column, minlength=k)
        out[live, j] = sums[live] / mass[live]
    return out


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
    with np.errstate(over="ignore"):
        weighted_t = (P.coords * P.weights[:, None]).T.copy()
    assignment, d2 = _nearest(P.coords, centers)
    history = [_cost(P.weights, d2)]
    iterations = 0
    for _ in range(_MAX_ITERS):
        new_centers = _lloyd_centers(assignment, weighted_t, P.weights, centers)
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
    """Seed with k-means++, refine with Lloyd descent.

    Both run in the local frame of `core._in_local_frame`. The seed is one
    PTAS candidate tuple with M = 1, drawn from rng.generator(). A seed
    center is (w * x) / w of its drawn point's offset x, plus the origin,
    which can sit an ulp from the point; once every point lies on a center,
    later draws repeat the previous one.
    """
    _check_positive_int("k", k)

    def seed_and_descend(local: WeightedPointSet) -> ClusteringResult:
        _, seed, _ = _best_for_trial(local, k, 1, 1, rng.generator())
        result = lloyd_descend(local, CenterSet(seed))
        result.meta["solver"] = "kmeanspp-lloyd"
        return result

    return _in_local_frame(P, seed_and_descend)
