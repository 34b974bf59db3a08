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
search run on many rows of running sums at once; it counts entries on
short rows and halves the range on longer ones, with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wkmeans.core import WeightedPointSet, _exact_sum, min_squared_distances

__all__ = ["RandomSource", "sample_indices", "searchsorted_rows", "d2_weights"]

# Running sums of at most this many entries are searched by counting, not
# halving (see `searchsorted_rows`). Measured by
# scripts/searchsorted_crossover.py on 1024 rows, 2-vCPU host, count against
# binary search in us per call: at 3 targets per row 96 vs 129 at n = 24,
# 123 vs 125 at 28 and 217 vs 174 at 48; at 8 targets 229 vs 387 at 24 and
# 696 vs 474 at 64. With one target per row the binary search wins from
# n = 12 (66 vs 57 us); desk-scale PTAS runs (c2 = 4, epsilon = 0.5) draw
# 8 per row.
_COUNT_MAX_TERMS = 24


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


def sample_indices(values, count: int, gen: np.random.Generator) -> np.ndarray:
    """`count` i.i.d. categorical draws (one uniform each), shape (count,).

    `values` are the unnormalized masses: finite, nonnegative, not all zero
    and with a total inside float64, or ValueError is raised.
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size == 0:
        raise ValueError("empty weight vector")
    if not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
        raise ValueError("weights must be finite and nonnegative")
    if count < 0:
        raise ValueError("count must be nonnegative")
    try:
        total = _exact_sum(vals)
    except OverflowError:
        raise ValueError("the total of the sampling weights overflows float64") from None
    if total <= 0.0:
        raise ValueError("all sampling weights are zero")
    u = gen.random(count)
    cum = np.cumsum(vals)
    idx = np.searchsorted(cum, u * total, side="right")
    # The exact total can exceed cum[-1], so a target may pass the last entry;
    # it lands on the last positive weight. Any other draw is at or before it.
    last = np.flatnonzero(vals)[-1]
    return np.minimum(idx, last).astype(np.intp)


def searchsorted_rows(cum: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-row `np.searchsorted(cum[r], targets[r], side="right")`.

    `targets` is (b, m) and `cum` (b, n), or (1, n) for one row shared by
    all b rows of targets; every row of `cum` is nondecreasing (a running
    sum of nonnegative weights). Returns (b, m) indices in [0, n], each
    exact and independent of the other rows.

    A row of at most `_COUNT_MAX_TERMS` entries is searched by counting
    the entries at or below each target, one column at a time: n
    compare-and-add passes over the (b, m) targets. On a nondecreasing row
    that count is the side="right" position. A longer shared row takes
    `np.searchsorted`, and longer rows run a branchless binary search on
    all rows at once: every row takes the same halving steps, about
    log2(n) small numpy calls in all.
    """
    b, n = cum.shape
    if n <= _COUNT_MAX_TERMS:
        # Targets are walked transposed, so each pass's inner loop runs
        # over the b rows rather than the m targets of one row.
        targets_t = np.ascontiguousarray(targets.T)
        # The narrowest unsigned type that holds n: uint8 up to 255.
        count = np.zeros(targets_t.shape, dtype=np.min_scalar_type(n))
        hit = np.empty(targets_t.shape, dtype=bool)
        for col in np.ascontiguousarray(cum.T):
            np.less_equal(col, targets_t, out=hit)
            count += hit.view(np.uint8)
        return count.T.astype(np.intp)
    if b == 1:
        return np.searchsorted(cum[0], targets, side="right")
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


def d2_weights(P: WeightedPointSet, centers) -> np.ndarray:
    """Distance-weighted masses: w_p times p's squared distance to its nearest center."""
    return P.weights * min_squared_distances(P.coords, centers)
