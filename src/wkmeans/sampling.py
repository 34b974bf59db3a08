"""Seeded randomness and the inverse-CDF search of distance-weighted sampling.

Two policies keep every run bit-reproducible:

* All randomness flows from a `RandomSource`, a PCG64 generator addressed
  by (seed, stream path) through `SeedSequence(seed, spawn_key=stream)`.
  Derived sources are independent of each other and of how many draws
  their siblings consumed. PCG64 is numpy's default bit generator, and at
  the PTAS's batch sizes it draws a double in 4.3-4.7 ns against 6.6-6.9
  for Philox, on (k, M, rows) blocks of 3,200-25,000 doubles, and builds
  in 12 us against 24 (timeit, 2-vCPU x86-64 host, numpy 2.4.6).
  `test_generator_stream_is_pinned` holds the first doubles of two streams.
* Samplers consume uniform doubles only (`Generator.random`), one per
  draw, never integer or bounded draws, so the consumed stream layout is
  fixed and easy to audit.

Categorical draws are inverse-CDF: one uniform u lands on the point whose
interval of the running sum of the (unnormalized) weights holds u times the
total, found by `searchsorted(side="right")`, so a zero weight is never
drawn. `searchsorted_rows` is that search run on many running sums at once,
held point-major as the columns of an (n, b) array; it counts entries on
short sums, with one broadcast compare and one sum per block of targets,
and halves the range on longer ones, with identical results.
Every draw in the package, the solvers' and the verifiers', is made by the
PTAS evaluator (`ptas._inverse_cdf_rows` and its two-level form), which
searches with `searchsorted_rows` and sends a target that rounding puts at
or past the end of the running sum to the last positive weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wkmeans.core import _BLOCK_VALUES, _check_seed

__all__ = ["RandomSource", "searchsorted_rows"]

# Running sums of at most this many entries are searched by counting, not
# halving (see `searchsorted_rows`). Measured by
# scripts/searchsorted_crossover.py on point-major sums of 1024 columns,
# 2-vCPU host, count against binary search in us per call, at 8 targets per
# column: 49-64 vs 224-248 at n = 12 and 279-341 vs 355-380 at 48; at 64
# the count won four of six runs (363-421 vs 380-505) and lost two by under
# 4% (396 vs 393, 398 vs 385); at 96 it lost two of three (549-654 vs
# 431-628). At 3 targets it won at 64 (142 vs 153, 145 vs 146). Desk-scale
# PTAS runs (c2 = 4, epsilon = 0.5) draw 8 per column. A shared (n, 1) sum,
# the first draw's, is counted in 63-70 us against 326-347 for
# np.searchsorted at n = 48, and in 181-219 against 361-419 at n = 64.
_COUNT_MAX_TERMS = 64


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
        return np.random.Generator(np.random.PCG64(seq))


def searchsorted_rows(cum: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per column c, `np.searchsorted(cum[:, c], targets[:, c], side="right")`.

    The layout is point-major: `cum` is (n, b), one running sum per column,
    or (n, 1) for one running sum shared by all b columns of targets, and
    `targets` is (m, b); every column of `cum` is nondecreasing (a running
    sum of nonnegative weights). `cum` may be C-ordered or F-ordered, with
    its columns along memory. Returns (m, b) indices in [0, n], each exact
    and independent of the other columns.

    A running sum of at most `_COUNT_MAX_TERMS` entries is searched by
    counting the entries at or below each target: one broadcast compare of
    `cum` against a block of target rows into an (n, rows, b) boolean
    block, summed down axis 0 in the narrowest unsigned type that holds n.
    On a nondecreasing column that count is the side="right" position. A
    block and its count take at most 2^18 bytes (one target row where a
    row takes more), so no temporary grows with m, and numpy's iteration
    buffers for the compare (under 136 KiB) keep a call's temporaries
    within 2^19 bytes, `core._BLOCK_VALUES` float64s. One block holds a
    desk-scale call of 12 x 8 x 1024. A longer shared running sum takes
    `np.searchsorted`, and longer columns run a branchless binary search on
    all columns at once: every column takes the same halving steps, about
    log2(n) small numpy calls in all.
    """
    n, b = cum.shape
    if n <= _COUNT_MAX_TERMS:
        m, width = targets.shape
        # Target rows per block: the (n, step, width) compare block and its
        # (step, width) count take at most half of _BLOCK_VALUES float64s'
        # bytes; the other half is left for the compare's iteration buffers.
        step = max(1, 4 * _BLOCK_VALUES // max(1, (n + 1) * width))
        hit = np.empty((n, min(step, m), width), dtype=bool)
        out = np.empty(targets.shape, dtype=np.intp)
        # The narrowest unsigned type that holds n: uint8 up to 255.
        narrow = np.min_scalar_type(n)
        for lo in range(0, m, step):
            hi = min(lo + step, m)
            block = hit[:, : hi - lo]
            np.less_equal(cum[:, None, :], targets[None, lo:hi], out=block)
            out[lo:hi] = np.add.reduce(block.view(np.uint8), axis=0, dtype=narrow)
        return out
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
