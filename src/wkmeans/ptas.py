"""Sampling-based (1 + eps)-approximation for weighted k-means.

One trial builds k centers iteratively: draw N points by distance-weighted
(D^2) sampling against the centers so far, with probability proportional to
w * d^2 (to w for the first center), pick an M-subset of the draw positions
(the candidate tuple), and add the w-weighted mean of those drawn points as
the next center. A point's weight therefore counts twice, once in the draw
and once in the mean. The best center set over all trials and candidate tuples is
returned. With N = c1*k/eps^2, M = c2/eps and 2^k trials this is the
theoretical scheme; desk-scale runs shrink the constants and replace full
tuple enumeration with a uniform random tuple budget.

Tuples are evaluated in batches of B <= 1024. A batch first draws all of
its uniforms, k blocks of (B, M) in budget mode or (B, N) in exhaustive
mode, so the random-number layout is fixed before any work starts. Each
row draws through an exact inverse CDF of its own; D is its draw count (M
in budget mode, N in exhaustive mode). The rows are walked in two tiers:
per-point passes (distances, running minimum, block sums) in sub-blocks of
max(1, 2^16 // n) rows, and draws and centroids once per outer block.

- A row of up to 2 * D blocks of 128 points (every desk-scale instance)
  takes one running sum and a per-row binary search. An outer block is
  one sub-block, held in three (rows, n) buffers: the min-distance cache,
  the mass array weights * cache and a running sum.
- A longer row takes two levels, and its outer blocks hold
  max(1, 2^18 // n) rows of the cache, zero-padded to whole blocks. One
  einsum pass reads each sub-block's new cache against the zero-padded
  weights into 128-point block sums, with no mass array. A running sum
  over the block sums picks each draw's block, and only the D drawn
  blocks' masses are formed and running-summed to find the point. A
  candidate's cost is the pairwise sum of its final block sums.

No work array grows with B x n: the cache holds about max(2^18, n) values
(2 MiB of float64 up to n = 2^18) plus under 128 of padding per row, two
scratch arrays max(2^16, n) values each, and the gathered blocks fewer
than the cache. The output does not depend on either block size.
Per-trial random streams are derived from (master_seed, trial), so
results are independent of thread scheduling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from wkmeans.core import (
    CenterSet,
    ClusteringResult,
    WeightedPointSet,
    _sq_dist_rows,
)
from wkmeans.sampling import RandomSource, searchsorted_rows

__all__ = [
    "PtasParams",
    "EnumerationInfeasible",
    "derive_params",
    "solve",
]

DEFAULT_C1 = 800.0
DEFAULT_C2 = 100.0
DEFAULT_TUPLE_BUDGET = 2000
MAX_EXHAUSTIVE_TUPLES = 10_000_000
_CHUNK = 1024
# Values per (rows, n) scratch array of the batch evaluator's per-point
# passes: 512 KiB of float64, so a sub-block's scratch and cache rows fit
# together in a 2 MiB per-core L2 cache.
_BLOCK_VALUES = 1 << 16
# Cache values per outer row block of the two-level path, whose draws and
# centroids run once per outer block: 2 MiB of float64.
_DRAW_VALUES = 1 << 18
# Points per block of the evaluator's two-level inverse CDF.
_CDF_BLOCK = 128
_TUPLE_STREAM, _SAMPLE_STREAM = 0, 1


class EnumerationInfeasible(RuntimeError):
    """Exhaustive tuple enumeration exceeds the feasibility cutoff."""


@dataclass(frozen=True)
class PtasParams:
    """Solver parameters; N and M derive from the effective accuracy.

    With adjust_epsilon the working accuracy shrinks to
    eps / ((1 + eps/2) * k), which upgrades the guarantee from
    irreducible-instance-only to unconditional at the price of larger N, M.
    """

    k: int
    epsilon: float
    c1: float = DEFAULT_C1
    c2: float = DEFAULT_C2
    trials: int = 1
    tuple_budget: int | str = DEFAULT_TUPLE_BUDGET
    adjust_epsilon: bool = False

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if self.c1 <= 0.0 or self.c2 <= 0.0:
            raise ValueError("c1 and c2 must be positive")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if isinstance(self.tuple_budget, str):
            if self.tuple_budget != "exhaustive":
                raise ValueError("tuple_budget must be a positive int or 'exhaustive'")
        elif self.tuple_budget < 1:
            raise ValueError("tuple_budget must be a positive int or 'exhaustive'")
        if not self.N >= self.M >= 1:
            raise ValueError("derived N must be at least derived M (and M >= 1)")

    @property
    def epsilon_eff(self) -> float:
        if self.adjust_epsilon:
            return self.epsilon / ((1.0 + self.epsilon / 2.0) * self.k)
        return self.epsilon

    @property
    def N(self) -> int:
        return math.ceil(self.c1 * self.k / self.epsilon_eff**2)

    @property
    def M(self) -> int:
        return math.ceil(self.c2 / self.epsilon_eff)


def derive_params(
    k: int,
    epsilon: float,
    c1: float | None = None,
    c2: float | None = None,
    trials: int | None = None,
    tuple_budget: int | str | None = None,
    adjust_epsilon: bool | None = None,
) -> PtasParams:
    """Fill parameter defaults: theory constants and 2^k trials."""
    if k < 1:
        raise ValueError("k must be positive")
    return PtasParams(
        k=k,
        epsilon=epsilon,
        c1=DEFAULT_C1 if c1 is None else c1,
        c2=DEFAULT_C2 if c2 is None else c2,
        trials=2**k if trials is None else trials,
        tuple_budget=DEFAULT_TUPLE_BUDGET if tuple_budget is None else tuple_budget,
        adjust_epsilon=False if adjust_epsilon is None else adjust_epsilon,
    )


def _distinct_points(coords: np.ndarray, limit: int) -> np.ndarray:
    """The first `limit` distinct rows of coords, in lexicographic order.

    Rows are distinct when some coordinate differs, by exact equality as
    `np.unique` decides (a squared difference can underflow to zero). The
    scan marks every row equal to the latest distinct row and takes the
    first unmarked row as the next one, so it makes at most limit - 1
    passes over the points. With fewer than `limit` distinct rows the
    result is `np.unique(coords, axis=0)`.
    """
    coords_t = np.ascontiguousarray(coords.T)
    seen = np.zeros(coords.shape[0], dtype=bool)
    hit = np.empty_like(seen)
    same = np.empty_like(seen)
    found = [0]
    while len(found) < limit:
        p = coords[found[-1]]
        np.equal(coords_t[0], p[0], out=hit)
        for j in range(1, coords_t.shape[0]):
            np.equal(coords_t[j], p[j], out=same)
            hit &= same
        seen |= hit
        nxt = int(np.argmin(seen))
        if seen[nxt]:
            break
        found.append(nxt)
    pts = coords[found]
    return pts[np.lexsort(pts.T[::-1])]


def _exhaustive_count(params: PtasParams) -> int:
    return math.comb(params.N, params.M) ** params.k


def _selector_chunks(
    params: PtasParams, gen: np.random.Generator | None
) -> Iterator[np.ndarray]:
    """Yield (B, k, M) selector blocks, B <= _CHUNK, in a fixed order.

    Exhaustive mode streams every tuple once, lexicographically. Random mode
    draws uniform M-subsets per tuple position: the M smallest of N uniform
    keys, a standard trick that stays inside the uniform-doubles policy.
    """
    N, M, k = params.N, params.M, params.k
    if params.tuple_budget == "exhaustive":
        if _exhaustive_count(params) > MAX_EXHAUSTIVE_TUPLES:
            raise EnumerationInfeasible("enumeration infeasible; set tuple_budget")
        combos = itertools.combinations(range(N), M)
        if k == 1:
            # product() would materialize all C(N, M) combinations; stream.
            tuples = ((c,) for c in combos)
        else:
            tuples = itertools.product(combos, repeat=k)
        buf: list = []
        for t in tuples:
            buf.append(t)
            if len(buf) == _CHUNK:
                yield np.array(buf, dtype=np.intp)
                buf = []
        if buf:
            yield np.array(buf, dtype=np.intp)
        return
    assert gen is not None
    remaining = int(params.tuple_budget)
    while remaining > 0:
        b = min(_CHUNK, remaining)
        keys = gen.random((b, k, N))
        sel = np.argpartition(keys, M - 1, axis=2)[:, :, :M]
        sel.sort(axis=2)
        yield sel.astype(np.intp)
        remaining -= b


def _cdf_blocks(n: int, draws: int) -> int:
    """Blocks of the two-level inverse CDF over n points; 0 means one level.

    The two-level draw gathers and running-sums one block per draw, so it
    pays only when a row holds more than 2 * draws blocks' worth of points.
    """
    return -(-n // _CDF_BLOCK) if n > 2 * draws * _CDF_BLOCK else 0


def _last_positive(v: np.ndarray) -> np.ndarray:
    """Index of the last entry > 0 along the last axis (the last one if none)."""
    return v.shape[-1] - 1 - np.argmax(v[..., ::-1] > 0.0, axis=-1)


def _inverse_cdf_rows(
    v: np.ndarray, u: np.ndarray, cum: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per row r, the points drawn by the uniforms u[r] from the masses v[r].

    v is (rows, n) and nonnegative, u is (rows, D) in [0, 1) and cum a
    (rows, n) scratch buffer; v is left unchanged. Returns the (rows, D)
    drawn indices and the (rows,) mask of zero-mass rows. Draw u lands on
    the point whose running-sum interval holds u times the row total, so
    point p is drawn with probability v[r, p] / total up to summation
    rounding. The row takes one running sum, searched per row by
    `searchsorted_rows` (searchsorted(side="right")). A target that
    rounding pushes to or past the end of the running sum lands on the
    last positive-mass point, never on a zero-mass one.
    """
    w = v.shape[1]
    np.cumsum(v, axis=1, out=cum)
    totals = cum[:, -1]
    cols = searchsorted_rows(cum, u * totals[:, None])
    over = cols == w
    if over.any():
        cols[over] = _last_positive(v[np.nonzero(over)[0]])
    return cols, totals <= 0.0


def _inverse_cdf_blocks(
    sums: np.ndarray, cache: np.ndarray, w_blocks: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`_inverse_cdf_rows` in two levels, for masses w_blocks * cache[r].

    cache is (rows, nb, _CDF_BLOCK), w_blocks (nb, _CDF_BLOCK), both
    zero-padded past the last point, and sums (rows, nb) holds the block
    sums of the masses. The running sum of the block sums gives each draw
    its block and residual target; only the D drawn blocks' masses are
    formed and running-summed to find the point, so no mass array or
    running sum spans the row. Both levels count the entries at or below
    the target, which is searchsorted(side="right") on a nondecreasing
    row, and a target past the end of either running sum lands on the last
    positive-mass point there.
    """
    rows, nb = sums.shape
    # bcum[:, j] is the mass before block j; bcum[:, -1] the row total.
    bcum = np.zeros((rows, nb + 1))
    np.cumsum(sums, axis=1, out=bcum[:, 1:])
    totals = bcum[:, -1]
    target = u * totals[:, None]
    blk = (bcum[:, None, 1:] <= target[:, :, None]).sum(axis=2)
    over = blk == nb
    if over.any():
        blk[over] = _last_positive(sums[np.nonzero(over)[0]])
        target[over] = np.inf
    r = np.arange(rows)[:, None]
    target -= bcum[r, blk]
    inner = cache[r, blk]
    inner *= w_blocks[blk]
    np.cumsum(inner, axis=2, out=inner)
    pos = (inner <= target[:, :, None]).sum(axis=2)
    over = pos == _CDF_BLOCK
    if over.any():
        r, m = np.nonzero(over)
        b = blk[r, m]
        pos[over] = _last_positive(cache[r, b] * w_blocks[b])
    return blk * _CDF_BLOCK + pos, totals <= 0.0


def _run_tuple_batch(
    coords: np.ndarray,
    weights: np.ndarray,
    u: np.ndarray,
    selectors: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run all k iterations for B candidate tuples in bounded memory.

    u is the (k, B, D) block of uniforms for the whole batch, drawn by the
    caller before any work starts: row b of u[i] turns into the D
    distance-weighted draws of tuple b in iteration i. selectors (B, k, M)
    picks each tuple's M positions among its D draws (exhaustive mode,
    D = N); None means every draw is selected (budget mode, D = M).
    Returns (costs (B,), centers (B, k, d)).

    Rows are walked in two tiers. The per-point passes (the distance
    kernel `core._sq_dist_rows`, the running minimum and, on the two-level
    path, the block sums) take sub-blocks of max(1, _BLOCK_VALUES // n)
    rows through two (rows, n) scratch buffers. The draws and centroids
    run once per outer block, and all k iterations finish on an outer block
    before the next starts. The outer block's rows share one min-distance
    cache. Iteration 0 draws every row from one shared CDF of the weights.

    - n at most 2 * D * _CDF_BLOCK (every desk-scale instance): one level.
      An outer block is one sub-block; its draws form the mass array
      weights * cache in a scratch buffer and take one running sum per row
      (`_inverse_cdf_rows`), and a cost is that array's row sum.
    - Longer rows: two levels. Outer blocks hold max(1, _DRAW_VALUES // n)
      rows of the cache, zero-padded to whole CDF blocks. Each per-point
      pass ends with one `einsum` read of the new cache against the
      zero-padded weights, giving every row's block sums of weights * cache
      with no mass array; `_inverse_cdf_blocks` draws from them and forms
      only the drawn blocks' masses. A cost is the pairwise sum of its
      row's last block sums.

    The buffers hold at most max(2^18, n) cache values (2 MiB of float64
    while n <= 2^18) plus 2 x max(2^16, n) scratch values and padding under
    128 per row, so no array grows with B x n. Every draw and cost is
    computed within its own row, so no value depends on either block size:
    the output is byte-identical for any block sizes and thread count.

    A row whose distribution has zero mass already sits on every point; it
    repeats its previous center, consuming the same draws.
    """
    k, B, D = u.shape
    n, d = coords.shape
    coords_t = np.ascontiguousarray(coords.T)
    cum0 = np.cumsum(weights)
    nb = _cdf_blocks(n, D)
    sub = max(1, _BLOCK_VALUES // n)
    outer = max(1, _DRAW_VALUES // n) if nb else sub
    sub = min(sub, outer, B)
    costs = np.empty(B)
    centers = np.empty((B, k, d))
    # The cache keeps zeros past column n, padding its rows to whole blocks.
    cache_buf = np.zeros((min(outer, B), nb * _CDF_BLOCK or n))
    scratch = np.empty((2, sub, n))
    if nb:
        w_blocks = np.zeros(nb * _CDF_BLOCK)
        w_blocks[:n] = weights
        w_blocks = w_blocks.reshape(nb, _CDF_BLOCK)
        sums_buf = np.empty((cache_buf.shape[0], nb))
    for lo in range(0, B, outer):
        hi = min(lo + outer, B)
        rows = hi - lo
        cache = cache_buf[:rows]
        blk_centers = centers[lo:hi]
        if nb:
            sums = sums_buf[:rows]
            cache_blocks = cache.reshape(rows, nb, _CDF_BLOCK)
        for i in range(k):
            ui = u[i, lo:hi]
            if i == 0:
                cols = np.searchsorted(cum0, ui * cum0[-1], side="right")
                dead = None
            elif nb:
                cols, dead = _inverse_cdf_blocks(sums, cache_blocks, w_blocks, ui)
            else:
                mass, cum = scratch[:, :rows]
                np.multiply(cache, weights, out=mass)
                cols, dead = _inverse_cdf_rows(mass, ui, cum)
            # Only a zero-mass row, whose draw is discarded, lands past n - 1.
            np.minimum(cols, n - 1, out=cols)
            if selectors is not None:
                cols = np.take_along_axis(cols, selectors[lo:hi, i, :], axis=1)
            tw = weights[cols]
            ci = np.einsum("bm,bmd->bd", tw, coords[cols]) / tw.sum(axis=1)[:, None]
            if dead is not None and dead.any():
                ci[dead] = blk_centers[dead, i - 1]
            blk_centers[:, i, :] = ci
            for s in range(0, rows, sub):
                e = min(s + sub, rows)
                d2, diff = scratch[:, : e - s]
                cache_s = cache[s:e, :n]
                _sq_dist_rows(coords_t, ci[s:e], cache_s if i == 0 else d2, diff)
                if i > 0:
                    np.minimum(cache_s, d2, out=cache_s)
                if nb:
                    np.einsum("rjp,jp->rj", cache_blocks[s:e], w_blocks, out=sums[s:e])
        if nb:
            costs[lo:hi] = sums.sum(axis=1)
        else:
            mass = scratch[0, :rows]
            np.multiply(cache, weights, out=mass)
            costs[lo:hi] = mass.sum(axis=1)
    return costs, centers


def _best_for_trial(
    P: WeightedPointSet, params: PtasParams, master: RandomSource, t: int
) -> tuple[float, np.ndarray, int, int]:
    """Minimum-cost candidate over the tuple stream of trial t.

    Returns its cost, its centers, the number of tuples evaluated and the
    candidate's index in the trial's tuple stream (the first on ties).

    Budget mode draws exactly M points per iteration and selects them all:
    with fresh draws per tuple, a uniform M-subset of N i.i.d. draws is
    distributed exactly like M i.i.d. draws, so the subset choice carries no
    information. Exhaustive mode draws N points per tuple and enumerates
    the M-subsets.
    """
    sample_gen = master.derive(_SAMPLE_STREAM, t).generator()
    k = params.k
    if params.tuple_budget == "exhaustive":
        tuple_gen = master.derive(_TUPLE_STREAM, t).generator()
        batches = (
            (sample_gen.random((k, sel.shape[0], params.N)), sel)
            for sel in _selector_chunks(params, tuple_gen)
        )
    else:
        budget = int(params.tuple_budget)
        batches = (
            (sample_gen.random((k, min(_CHUNK, budget - lo), params.M)), None)
            for lo in range(0, budget, _CHUNK)
        )
    best_cost = math.inf
    best_centers: np.ndarray | None = None
    best_tuple = 0
    evaluated = 0
    for u, selectors in batches:
        costs, centers = _run_tuple_batch(P.coords, P.weights, u, selectors)
        j = int(np.argmin(costs))
        if float(costs[j]) < best_cost:
            best_cost = float(costs[j])
            best_centers = centers[j].copy()
            best_tuple = evaluated + j
        evaluated += costs.shape[0]
    assert best_centers is not None
    return best_cost, best_centers, evaluated, best_tuple


def solve(
    P: WeightedPointSet,
    k: int,
    epsilon: float,
    overrides: dict | None = None,
    master_seed: int = 0,
    threads: int = 1,
) -> ClusteringResult:
    """Best center set over trials x tuples; deterministic in master_seed.

    Trials run as independent tasks on streams derived from
    (master_seed, trial), and the reduction scans trials in index order with
    a strict minimum, so the result is bit-identical for any thread count.
    meta["trial_costs"] holds each trial's best candidate cost in the
    input's weight units; meta["best_trial"] is the winning trial and
    meta["best_tuple"] the winning candidate's index in that trial's tuple
    stream. When k is at least the number of distinct points
    the exact zero-cost placement on the distinct points is returned
    directly.
    """
    params = derive_params(k, epsilon, **(overrides or {}))
    distinct = _distinct_points(P.coords, k + 1)
    if k >= distinct.shape[0]:
        meta = {
            "solver": "ptas",
            "master_seed": master_seed,
            "note": "k >= distinct points; zero-cost placement",
        }
        return ClusteringResult.from_centers(P, CenterSet(distinct), meta)
    if params.tuple_budget == "exhaustive":
        # Surface infeasibility before any work is scheduled.
        if _exhaustive_count(params) > MAX_EXHAUSTIVE_TUPLES:
            raise EnumerationInfeasible("enumeration infeasible; set tuple_budget")

    master = RandomSource(master_seed)

    def worker(t: int) -> tuple[float, np.ndarray, int, int]:
        return _best_for_trial(P, params, master, t)

    if threads > 1:
        # Imported here: concurrent.futures adds about 7.5 ms to every
        # interpreter that imports this module.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(worker, range(params.trials)))
    else:
        outcomes = [worker(t) for t in range(params.trials)]

    best_cost = math.inf
    best_centers: np.ndarray | None = None
    best_trial = best_tuple = 0
    trial_costs = []
    evaluated = 0
    for t, (cost, centers, count, tuple_index) in enumerate(outcomes):
        trial_costs.append(cost)
        evaluated += count
        if cost < best_cost:
            best_cost = cost
            best_centers = centers
            best_trial, best_tuple = t, tuple_index
    assert best_centers is not None
    meta = {
        "solver": "ptas",
        "epsilon": params.epsilon,
        "epsilon_eff": params.epsilon_eff,
        "N": params.N,
        "M": params.M,
        "trials": params.trials,
        "tuple_budget": params.tuple_budget,
        "tuples_evaluated": evaluated,
        "master_seed": master_seed,
        "trial_costs": trial_costs,
        "best_trial": best_trial,
        "best_tuple": best_tuple,
    }
    return ClusteringResult.from_centers(P, CenterSet(best_centers), meta)
