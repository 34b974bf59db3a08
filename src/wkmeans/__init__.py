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
    _check_seed,
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
    "SOLVERS",
    "WeightedPointSet",
    "load_weighted_points",
    "save_weighted_points",
    "weighted_cost",
    "weighted_centroid",
    "__version__",
]

# The solvers of cluster, sensor, bench and sensor.place_sensors, by name;
# each returns a ClusteringResult. Only the PTAS reads epsilon and overrides.
# Each entry imports its module when called, so `import wkmeans`
# loads core only, and looks the function up on the module then, so a
# rebound attribute (a tracer's wrapper, a test's spy) is the one that runs.


def _seeded(solver):
    """Wrap a SOLVERS entry so that it refuses a bad seed, read or not."""
    def entry(P, k, epsilon, overrides, seed) -> ClusteringResult:
        _check_seed(seed)
        return solver(P, k, epsilon, overrides, seed)
    return entry


@_seeded
def _ptas(P, k, epsilon, overrides, seed) -> ClusteringResult:
    from wkmeans import ptas
    return ptas.solve(P, k, epsilon, overrides, master_seed=seed)


@_seeded
def _kmeanspp_lloyd(P, k, epsilon, overrides, seed) -> ClusteringResult:
    from wkmeans import baselines, sampling
    return baselines.kmeanspp_lloyd(P, k, sampling.RandomSource(seed))


@_seeded
def _oracle(P, k, epsilon, overrides, seed) -> ClusteringResult:
    from wkmeans import oracle
    return oracle.brute_force_opt(P, k)


SOLVERS = {"ptas": _ptas, "kmeanspp-lloyd": _kmeanspp_lloyd, "oracle": _oracle}
