"""Seeded randomness and distance-weighted sampling.

Two policies keep every run bit-reproducible:

* All randomness flows from a `RandomSource`, a counter-based generator
  addressed by (seed, stream path). Derived sources are independent of each
  other and of how many draws their siblings consumed.
* Samplers consume uniform doubles only (`Generator.random`), never integer
  or bounded draws, so the consumed stream layout is fixed and easy to audit.

Categorical draws are inverse-CDF: one uniform u lands on the point whose
interval of the running sum of the (unnormalized) weights holds u times the
total, found by `searchsorted(side="right")`, so a zero weight is never
drawn. `sample_indices` searches one running sum with an exact total, so a
draw is a deterministic function of the weight vector and one uniform.
Where rounding puts a target at or past the end of the running sum, the
draw lands on the last positive weight. `searchsorted_rows` is the same
search run on many rows of running sums at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from wkmeans.core import (
    WeightedPointSet,
    _exact_sum,
    as_center_array,
    min_squared_distances,
)

__all__ = [
    "RandomSource",
    "SamplingWeights",
    "DegenerateDistribution",
    "CostAlreadyZero",
    "sample_indices",
    "searchsorted_rows",
    "d2_weights",
    "d2_sample",
]


@dataclass(frozen=True)
class RandomSource:
    """Seeded, hierarchical source of `numpy` generators.

    `derive(*ids)` appends integer ids to the stream path, giving a child
    source whose output is unrelated to the parent's. Equal (seed, stream)
    always produce identical generators, regardless of platform or thread
    scheduling.
    """

    seed: int
    stream: tuple[int, ...] = ()

    def derive(self, *ids: int) -> "RandomSource":
        return RandomSource(self.seed, self.stream + tuple(int(i) for i in ids))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=self.stream)
        return np.random.Generator(np.random.Philox(seq))


class DegenerateDistribution(ValueError):
    """All sampling weights are zero; no draw is defined."""


class CostAlreadyZero(Exception):
    """Every point sits on a current center, so distance sampling is moot."""


@dataclass(frozen=True)
class SamplingWeights:
    """Nonnegative, finite weight vector for categorical draws.

    A zero total is representable (`is_degenerate`); callers that need a draw
    must check or catch `DegenerateDistribution`. `total`, the correctly
    rounded sum of the values, is computed once at construction.
    """

    values: np.ndarray
    total: float = field(init=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64).ravel()
        if vals.size == 0:
            raise ValueError("empty weight vector")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
            raise ValueError("weights must be finite and nonnegative")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "total", _exact_sum(vals))

    @property
    def is_degenerate(self) -> bool:
        return self.total == 0.0


def sample_indices(
    weights: SamplingWeights, count: int, gen: np.random.Generator
) -> np.ndarray:
    """`count` i.i.d. categorical draws (one uniform each), shape (count,)."""
    total = weights.total
    if total <= 0.0:
        raise DegenerateDistribution("all sampling weights are zero")
    if count < 0:
        raise ValueError("count must be nonnegative")
    u = gen.random(count)
    cum = np.cumsum(weights.values)
    idx = np.searchsorted(cum, u * total, side="right")
    # The exact total can exceed cum[-1], so a target may pass the last entry;
    # it lands on the last positive weight. Any other draw is at or before it.
    last = np.flatnonzero(weights.values)[-1]
    return np.minimum(idx, last).astype(np.intp)


def searchsorted_rows(cum: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-row `np.searchsorted(cum[r], targets[r], side="right")`.

    `cum` is (b, n) with every row nondecreasing (a running sum of
    nonnegative weights); `targets` is (b, m). Returns (b, m) indices in
    [0, n]. A branchless binary search run on all rows at once: every row
    takes the same halving steps, about log2(n) small numpy calls in all,
    and each result is exact and independent of the other rows.
    """
    b, n = cum.shape
    flat = cum.reshape(-1)
    row_start = np.arange(0, b * n, n, dtype=np.intp)[:, None]
    # pos is a flat index; the answer lies in [pos, pos + size] of its row.
    pos = np.broadcast_to(row_start, targets.shape)
    size = n
    while size > 1:
        half = size // 2
        probe = pos + half
        pos = np.where(flat[probe] <= targets, probe, pos)
        size -= half
    return pos - row_start + (flat[pos] <= targets)


def d2_weights(P: WeightedPointSet, centers=None) -> SamplingWeights:
    """Distance-weighted sampling vector against the current centers.

    With no centers yet, entry p is the point weight w_p; otherwise it is
    w_p times the squared distance from p to its nearest center.
    """
    c = as_center_array(centers)
    if c.shape[0] == 0:
        return SamplingWeights(P.weights)
    return SamplingWeights(P.weights * min_squared_distances(P.coords, c))


def d2_sample(
    P: WeightedPointSet, centers, count: int, gen: np.random.Generator
) -> np.ndarray:
    """Draw `count` point indices distance-weighted against `centers`.

    All draws are independent, with replacement, from the distribution induced
    by the fixed center set (centers are not updated between draws). Raises
    CostAlreadyZero when every point already coincides with a center, i.e. the
    induced distribution has zero mass.
    """
    if count < 1:
        raise ValueError("count must be positive")
    w = d2_weights(P, centers)
    try:
        return sample_indices(w, count, gen)
    except DegenerateDistribution:
        raise CostAlreadyZero(
            "all points lie on current centers; cost is already zero"
        ) from None

