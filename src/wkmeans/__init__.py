"""Weighted k-means toolkit.

A sampling-based (1 + eps)-approximation solver for weighted k-means with
squared Euclidean cost, classic baselines (D^2 seeding plus Lloyd), an exact
small-instance oracle, statistical self-checks, and a continuous coverage
solver that places sensors over a convex region by clustering a discretized
density.
"""

from wkmeans.core import (
    CenterSet,
    ClusteringResult,
    PointFileError,
    WeightedPointSet,
    load_weighted_points,
    save_weighted_points,
    weighted_cost,
    weighted_centroid,
)

__version__ = "0.1.0"

__all__ = [
    "CenterSet",
    "ClusteringResult",
    "PointFileError",
    "WeightedPointSet",
    "load_weighted_points",
    "save_weighted_points",
    "weighted_cost",
    "weighted_centroid",
    "__version__",
]
