"""Seeded randomness and the inverse-CDF search of distance-weighted sampling.

Two policies keep every run bit-reproducible:

* All randomness flows from a `RandomSource`, a counter-based generator
  addressed by (seed, stream path). Derived sources are independent of each
  other and of how many draws their siblings consumed.
* Samplers consume uniform doubles only (`Generator.random`), one per
  draw, never integer or bounded draws, so the consumed stream layout is
  fixed and easy to audit.

Categorical draws are inverse-CDF: one uniform u lands on the point whose
interval of the running sum of the (unnormalized) weights holds u times the
total, found by `searchsorted(side="right")`, so a zero weight is never
drawn. `searchsorted_rows` is that search run on many running sums at once,
held point-major as the columns of an (n, b) array; it counts entries on
short sums and halves the range on longer ones, with identical results.
Every draw in the package, the solvers' and the verifiers', is made by the
PTAS evaluator (`ptas._inverse_cdf_rows` and its two-level form), which
searches with `searchsorted_rows` and sends a target that rounding puts at
or past the end of the running sum to the last positive weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wkmeans.core import _check_seed

__all__ = ["RandomSource", "searchsorted_rows"]

# Running sums of at most this many entries are searched by counting, not
# halving (see `searchsorted_rows`). Measured by
# scripts/searchsorted_crossover.py on point-major sums of 1024 columns,
# 2-vCPU host, count against binary search in us per call: at 8 targets per
# column 157 vs 429 at n = 24, 271 vs 373 at 48 (380 vs 510 and 412 vs 551
# in reruns), a tie at 64 and 756 vs 462 at 128; at 3 targets 79 vs 119 at
# 24, 103 vs 129 at 32 and 163 vs 148 at 48. Desk-scale PTAS runs
# (c2 = 4, epsilon = 0.5) draw 8 per column. A shared (n, 1) sum, the first
# draw's, is counted in 253 us against 446 for np.searchsorted at n = 48.
_COUNT_MAX_TERMS = 48


@dataclass(frozen=True)
class RandomSource:
    """Seeded, hierarchical source of `numpy` generators.

    `derive(*ids)` appends integer ids to the stream path, giving a child
    source whose output is unrelated to the parent's. Equal (seed, stream)
    always produce identical generators, regardless of platform or thread
    scheduling. The seed must be an int >= 0; a bool or float is refused.
    """

    seed: int
    stream: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_seed(self.seed)

    def derive(self, *ids: int) -> "RandomSource":
        return RandomSource(self.seed, self.stream + tuple(int(i) for i in ids))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=self.stream)
        return np.random.Generator(np.random.Philox(seq))


def searchsorted_rows(cum: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per column c, `np.searchsorted(cum[:, c], targets[:, c], side="right")`.

    The layout is point-major: `cum` is (n, b), one running sum per column,
    or (n, 1) for one running sum shared by all b columns of targets, and
    `targets` is (m, b); every column of `cum` is nondecreasing (a running
    sum of nonnegative weights). `cum` may be C-ordered or F-ordered, with
    its columns along memory. Returns (m, b) indices in [0, n], each exact
    and independent of the other columns.

    A running sum of at most `_COUNT_MAX_TERMS` entries is searched by
    counting the entries at or below each target: one compare-and-add
    pass over the (m, b) targets per row of `cum`, each pass running along
    the b columns. On a nondecreasing column that count is the side="right"
    position. A longer shared running sum takes `np.searchsorted`, and
    longer columns run a branchless binary search on all columns at once:
    every column takes the same halving steps, about log2(n) small numpy
    calls in all.
    """
    n, b = cum.shape
    if n <= _COUNT_MAX_TERMS:
        # The narrowest unsigned type that holds n: uint8 up to 255.
        count = np.zeros(targets.shape, dtype=np.min_scalar_type(n))
        hit = np.empty(targets.shape, dtype=bool)
        for row in cum:
            np.less_equal(row, targets, out=hit)
            count += hit.view(np.uint8)
        return count.astype(np.intp)
    if b == 1:
        return np.searchsorted(cum[:, 0], targets, side="right")
    # Entry (p, c) of a C-ordered cum is flat[p * b + c]; of an F-ordered
    # one, whose columns run along memory, flat[c * n + p].
    if cum.flags.f_contiguous:
        flat, step, start = cum.T.reshape(-1), 1, np.arange(0, b * n, n, dtype=np.intp)
    else:
        flat, step, start = cum.reshape(-1), b, np.arange(b, dtype=np.intp)
    # pos is a flat index; the answer lies in [pos, pos + size * step].
    pos = np.broadcast_to(start, targets.shape)
    size = n
    while size > 1:
        half = size // 2
        probe = pos + half * step
        pos = np.where(flat[probe] <= targets, probe, pos)
        size -= half
    return (pos - start) // step + (flat[pos] <= targets)
