"""Sampling-based (1 + eps)-approximation for weighted k-means.

A candidate tuple builds k centers iteratively: draw M points by
distance-weighted (D^2) sampling against the centers so far, with
probability proportional to w * d^2 (to w for the first center), and add
the w-weighted mean of those drawn points as the next center. A point's
weight therefore counts twice, once in the draw and once in the mean. Inaba's
lemma covers the plain mean of the draws instead; the double-weighted mean
is kept because it measured better before polishing (median cost ratio 2.47
against 3.54 on cluster-geo at 16 tuples) and equal after Lloyd. Each
trial evaluates `tuple_budget` tuples, every one on fresh draws, and the
best center set over all trials and tuples is returned. With
N = c1*k/eps^2, M = c2/eps and 2^k trials the constants are the theory's;
desk-scale runs shrink them.

The analysis (Jaiswal, Kumar and Sen, Algorithmica 2014) draws N points per
step and branches on every M-subset of them. A tuple here draws M points
and keeps them all: with fresh draws per tuple, a uniform M-subset of N
i.i.d. draws is distributed exactly like M i.i.d. draws, which is why N
stays a parameter. Enumerating all C(N, M)^k subsets is not offered; it is
out of reach at any useful constants: C(32, 8) is about 1.05e7 at k = 1
with c1 = 8, c2 = 4 and eps = 0.5.

k-means++ seeding (Arthur and Vassilvitskii, SODA 2007) is the one-tuple,
M = 1 case, since the mean of one draw is the drawn point; `baselines`
seeds through the same candidate loop, `_best_for_trial`.

Tuples are evaluated in batches of B <= 1024. A batch first draws all of
its uniforms, k blocks of (M, B), so the random-number layout is fixed
before any work starts; it is the (M, rows) target layout the one-level
draw searches. Each row draws its M points through an exact inverse CDF
of its own, and its cost adds its masses in point order. The batch
evaluator, `_run_tuple_batch`, walks the rows in bounded memory; its
docstring gives the block sizes, the memory layouts, the memory bound and
the float32 precision of the two-level path's per-point passes, and
`searchsorted_rows`'s the search cutoff. No output byte depends on any
block size. Each trial draws from its own stream, derived from
(master_seed, trial), and the trials run one after another.

`solve` draws, averages and prices in the local frame every solver shares,
`core._in_local_frame`, which also scales the coordinates and weights by
powers of two. So a translation that moves every coordinate exactly moves
no output byte but the centers, by the shift, and no weight's scale can
overflow a sum the evaluator forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wkmeans.core import (
    CenterSet,
    ClusteringResult,
    WeightedPointSet,
    _check_positive_int,
    _in_local_frame,
    _sq_dist_rows,
)
from wkmeans.sampling import RandomSource, searchsorted_rows

__all__ = [
    "PtasParams",
    "solve",
]

DEFAULT_C1 = 800.0
DEFAULT_C2 = 100.0
DEFAULT_TUPLE_BUDGET = 2000
_CHUNK = 1024
# Values per (rows, n) scratch array of the batch evaluator's per-point
# passes: 512 KiB of float64 (one level) or 256 KiB of float32 (two levels),
# so a sub-block's scratch and cache rows fit together in a 2 MiB per-core
# L2 cache.
_BLOCK_VALUES = 1 << 16
# Cache values per outer row block of the two-level path, whose draws and
# centroids run once per outer block: 1 MiB of float32.
_DRAW_VALUES = 1 << 18
# Points per block of the evaluator's two-level inverse CDF.
_CDF_BLOCK = 128
# Stream id of each trial's uniforms, (master_seed, _SAMPLE_STREAM, trial);
# every seeded result depends on its value.
_SAMPLE_STREAM = 1


@dataclass(frozen=True)
class PtasParams:
    """Solver parameters; N and M derive from the effective accuracy.

    The defaults are the theory constants, and trials=None means 2^k
    trials. With adjust_epsilon the working accuracy shrinks to
    eps / ((1 + eps/2) * k), which upgrades the guarantee from
    irreducible-instance-only to unconditional at the price of larger N, M.
    """

    k: int
    epsilon: float
    c1: float = DEFAULT_C1
    c2: float = DEFAULT_C2
    trials: int | None = None
    tuple_budget: int = DEFAULT_TUPLE_BUDGET
    adjust_epsilon: bool = False

    def __post_init__(self) -> None:
        _check_positive_int("k", self.k)
        if self.trials is None:
            object.__setattr__(self, "trials", 2**self.k)
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        for name, c in (("c1", self.c1), ("c2", self.c2)):
            if not (math.isfinite(c) and c > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {c!r}")
        _check_positive_int("trials", self.trials)
        _check_positive_int("tuple_budget", self.tuple_budget)
        # eps_eff^2 underflows to 0 for eps_eff below about 1e-162.
        eps = self.epsilon_eff
        n_size = self.c1 * self.k / eps**2 if eps**2 > 0.0 else math.inf
        for name, size in (("c1 * k / eps_eff^2", n_size), ("c2 / eps_eff", self.c2 / eps)):
            if not math.isfinite(size):
                raise ValueError(f"{name} is not finite at k={self.k}, eps_eff={eps!r}")
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
    """Per row r, the points drawn by the uniforms u[:, r] from masses v[:, r].

    The layout is point-major: v is (n, rows) and nonnegative, in C or F
    order, u is (D, rows) in [0, 1) and cum an (n, rows) scratch buffer in
    v's order; v is left unchanged. Returns the (D, rows) drawn indices and
    the (rows,) row totals. Draw u lands on the point whose
    running-sum interval holds u times the row total, so point p is drawn
    with probability v[p, r] / total up to summation rounding. The row
    takes one running sum down axis 0, added in point order in either
    layout, searched by `searchsorted_rows` (searchsorted(side="right"), by
    counting on short rows). A target that rounding pushes to or past the
    end of the running sum lands on the last positive-mass point, never on
    a zero-mass one.
    """
    n = v.shape[0]
    if v.flags.f_contiguous:
        np.cumsum(v, axis=0, out=cum)
    else:
        # Rows along memory: n whole-row adds, where np.cumsum would walk
        # the block one column at a time (about 4x slower at 12 x 1024).
        cum[0] = v[0]
        for p in range(1, n):
            np.add(cum[p - 1], v[p], out=cum[p])
    totals = cum[-1]
    cols = searchsorted_rows(cum, u * totals)
    over = cols == n
    if over.any():
        cols[over] = _last_positive(v[:, np.nonzero(over)[1]].T)
    return cols, totals


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
    positive-mass point there. Returns the drawn indices and the row totals.
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
    return blk * _CDF_BLOCK + pos, totals


def _centroids(coords_t: np.ndarray, weights: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The w-weighted means of the drawn points, (d, rows); cols is (M, rows).

    A mean's M products are added onto a zero in draw order and divided by
    its M drawn weights, also added in draw order; no sum is pairwise, and
    the tests' reference evaluator computes the same with explicit loops.
    `einsum("mr,dmr->dr")` and `np.add.reduce` down axis 0 of the (M, rows)
    gather do that for every row, since their inner loops run along the
    rows. A lone row would put the draws in that inner loop, which numpy
    sums in SIMD lanes or pairwise, so it is summed beside a copy of itself.
    """
    rows = cols.shape[1]
    wide = cols if rows > 1 else np.repeat(cols, 2, axis=1)
    tw = weights.take(wide)
    num = np.einsum("mr,dmr->dr", tw, coords_t.take(wide, axis=1))
    return (num / np.add.reduce(tw, axis=0))[:, :rows]


def _run_tuple_batch(
    coords: np.ndarray,
    weights: np.ndarray,
    u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Run all k iterations for B candidate tuples in bounded memory.

    u is the (k, M, B) block of uniforms for the whole batch, drawn by the
    caller before any work starts: column b of u[i] turns into the M
    distance-weighted draws of tuple b in iteration i, whose w-weighted
    mean is the tuple's i-th center. An outer block reads u[i] as (M, rows)
    targets, as it lies, and the two-level draw reads its transpose.
    Returns (costs (B,), centers (B, k, d)).

    Rows are walked in two tiers. The per-point passes (the distance
    kernel `core._sq_dist_rows`, the running minimum and, on the two-level
    path, the block sums) take sub-blocks of max(1, _BLOCK_VALUES // n)
    rows through two scratch buffers of the sub-block's size. The draws
    and centroids (`_centroids`) run once per outer block, and all k
    iterations finish on an outer block before the next starts. The outer
    block's rows share one min-distance cache. Iteration 0 draws every row
    from one shared (n, 1) CDF of the weights through `searchsorted_rows`.

    - n at most 2 * M * _CDF_BLOCK (every desk-scale instance): one level.
      An outer block is one sub-block, and its cache, masses weights *
      cache and running sums are (n, rows) arrays. Point-major (C order)
      when rows >= n, every desk-scale block, each pass runs along the
      rows: the kernel is called with points and centers swapped, the
      running sums go down axis 0 (`_inverse_cdf_rows`) and the (M, rows)
      targets are searched with no transposes. A block with more points
      than rows stores the same arrays in F order, so its passes run along
      the points. A cost adds its row's masses in point order on either
      layout: `np.add.reduce` down axis 0 of a point-major block makes
      whole-row adds, and an F-ordered block takes the last entry of its
      running sum down the points, with the same bytes.
    - Longer rows: two levels, with float32 per-point passes (below).
      Outer blocks hold max(1, _DRAW_VALUES // n) rows of the cache,
      zero-padded to whole CDF blocks. Each per-point pass ends with one
      `einsum` read of the new cache against the zero-padded weights,
      giving every row's block sums of weights * cache with no mass array;
      `_inverse_cdf_blocks` draws from them, running-summing them in
      float64, and forms only the drawn blocks' masses. A cost is the
      pairwise float64 sum of its row's last block sums.

    The inputs are in the local frame of `core._in_local_frame`, as
    `_best_for_trial` gets them: point 0 at the origin, every coordinate in
    (-1, 1) and every weight in (0, 1]. So no sum either path forms comes
    near the top of float64. Direct callers (the tests, and `verify`'s
    `inaba` on one-level rows) pass such inputs or keep their sums inside
    float64 themselves. The two-level path holds the min-distance cache,
    the two scratch buffers, the zero-padded weights and the block sums in
    float32, and runs the kernel on float32 copies of the coordinates and
    of each iteration's centers. In the frame those copies keep the digits
    that a geo-referenced origin such as 5e6 would take from float32, and
    scaling the input's weights or coordinates by 2^j leaves them, and
    with them every draw and center, byte-identical. A weight below about
    2^-150 of the largest, or a squared distance that underflows in
    float32, has mass 0 and is never drawn.

    The draws stay D^2 draws up to a constant factor. With u = 2^-24, a
    float32 squared distance d_p^2 is off by at most about
    4u sqrt(d) d_p + (d + 2)u d_p^2, and a block sum of 128 nonnegative
    terms by 128u of its value. So for d <= 16 a point at least 2^-12
    from every center has a mass within a factor 1 +- 2^-7 of w d_p^2, and
    nearer points hold a negligible share of any total not itself at that
    scale. The analysis of Jaiswal, Kumar and Sen needs only that each
    point be drawn with at least a constant times its D^2 share, and
    Bachem, Lucic, Hassani and Krause (AAAI 2016) treat samplers close to
    D^2. Centers are float64 means of the drawn points, and `solve` prices
    its winner again exactly; the costs returned here are estimates.

    The two-level buffers hold at most max(2^18, n) float32 cache values
    (1 MiB while n <= 2^18), 2 x max(2^16, n) float32 scratch values, the
    (d + 1) x n float32 coordinates and weights, and padding under 128 per
    row; the one-level path holds 3 x max(2^16, n) float64 values. So no array
    grows with B x n. Every draw and cost is computed within its own row,
    so no value depends on either block size: the output is byte-identical
    for any block sizes.

    A row whose distribution has zero mass already sits on every point; it
    repeats its previous center, consuming the same draws.
    """
    k, M, B = u.shape
    n, d = coords.shape
    nb = _cdf_blocks(n, M)
    sub = max(1, _BLOCK_VALUES // n)
    outer = min(max(1, _DRAW_VALUES // n) if nb else sub, B)
    sub = min(sub, outer)
    cum0 = np.cumsum(weights)[:, None]
    costs = np.empty(B)
    centers = np.empty((B, k, d))
    coords_t = np.ascontiguousarray(coords.T)
    if nb:
        x32_t = coords_t.astype(np.float32)
        # The cache keeps zeros past column n, padding its rows to whole blocks.
        cache_buf = np.zeros((outer, nb * _CDF_BLOCK), dtype=np.float32)
        scratch = np.empty((2, sub, n), dtype=np.float32)
        w_blocks = np.zeros(nb * _CDF_BLOCK, dtype=np.float32)
        w_blocks[:n] = weights
        w_blocks = w_blocks.reshape(nb, _CDF_BLOCK)
        sums_buf = np.empty((outer, nb), dtype=np.float32)
    else:
        # Cache, masses and running sum, flat so that the (n, rows) views of
        # a short last block stay contiguous.
        flat = np.empty((3, n * outer))
        w_col = weights[:, None]
    for lo in range(0, B, outer):
        hi = min(lo + outer, B)
        rows = hi - lo
        blk_centers = centers[lo:hi]
        if nb:
            cache = cache_buf[:rows]
            sums = sums_buf[:rows]
            cache_blocks = cache.reshape(rows, nb, _CDF_BLOCK)
        else:
            # (n, rows) views whose longer side runs along memory: point-major
            # when the block holds at least as many rows as points.
            cache, mass, cum = (
                f[: n * rows].reshape(n, rows) if rows >= n else f[: n * rows].reshape(rows, n).T
                for f in flat
            )
        for i in range(k):
            ui = u[i, :, lo:hi]
            if i == 0:
                cols = searchsorted_rows(cum0, ui * cum0[-1])
            elif nb:
                cols, totals = _inverse_cdf_blocks(sums, cache_blocks, w_blocks, ui.T)
                cols = cols.T
            else:
                np.multiply(cache, w_col, out=mass)
                cols, totals = _inverse_cdf_rows(mass, ui, cum)
            # Only a zero-mass row, whose draw is discarded, lands past n - 1.
            np.minimum(cols, n - 1, out=cols)
            ci_t = _centroids(coords_t, weights, cols)
            if i > 0 and not (totals > 0.0).all():
                dead = totals <= 0.0
                ci_t[:, dead] = blk_centers[dead, i - 1].T
            blk_centers[:, i, :] = ci_t.T
            if nb:
                c32 = ci_t.astype(np.float32).T
                for s in range(0, rows, sub):
                    e = min(s + sub, rows)
                    d2, diff = scratch[:, : e - s]
                    cache_s = cache[s:e, :n]
                    _sq_dist_rows(x32_t, c32[s:e], cache_s if i == 0 else d2, diff)
                    if i > 0:
                        np.minimum(cache_s, d2, out=cache_s)
                    np.einsum("rjp,jp->rj", cache_blocks[s:e], w_blocks, out=sums[s:e])
            else:
                # Points and centers swap places in the kernel, which fills
                # (n, rows); coords_t.T hands it contiguous coordinate columns.
                _sq_dist_rows(ci_t, coords_t.T, cache if i == 0 else mass, cum)
                if i > 0:
                    np.minimum(cache, mass, out=cache)
        if nb:
            costs[lo:hi] = sums.sum(axis=1, dtype=np.float64)
        else:
            # Each cost adds its row's masses in point order: whole-row adds
            # down a point-major block, a running sum down an F-ordered one.
            np.multiply(cache, w_col, out=mass)
            if rows >= n:
                np.add.reduce(mass, axis=0, out=costs[lo:hi])
            else:
                costs[lo:hi] = np.cumsum(mass, axis=0, out=cum)[-1]
    return costs, centers


def _best_for_trial(
    P: WeightedPointSet, k: int, M: int, budget: int, gen: np.random.Generator
) -> tuple[float, np.ndarray, int]:
    """Minimum-cost candidate over `budget` tuples of k centers, M draws each.

    Returns its cost, its centers and its index in the stream of tuples
    (the first on ties), drawing uniforms from gen in (k, M, rows) batches.
    One tuple with M = 1 is a k-means++ seed (see the module docstring),
    which draws its k uniforms in stream order.

    P is in the local frame of `core._in_local_frame`, which
    `_run_tuple_batch` needs. A batch of uniforms too large to allocate
    raises ValueError.
    """
    best_cost = math.inf
    best_centers: np.ndarray | None = None
    best_tuple = 0
    for lo in range(0, budget, _CHUNK):
        try:
            u = gen.random((k, M, min(_CHUNK, budget - lo)))
        except MemoryError:
            raise ValueError(
                f"M = {M} draws per center at k = {k}: a batch of uniforms is"
                " too large to allocate; raise epsilon or lower c2"
            ) from None
        costs, centers = _run_tuple_batch(P.coords, P.weights, u)
        j = int(np.argmin(costs))
        if float(costs[j]) < best_cost:
            best_cost = float(costs[j])
            best_centers = centers[j].copy()
            best_tuple = lo + j
    return best_cost, best_centers, best_tuple


def solve(
    P: WeightedPointSet,
    k: int,
    epsilon: float,
    overrides: dict | None = None,
    master_seed: int = 0,
    threads: int = 1,
) -> ClusteringResult:
    """Best center set over trials x tuples; deterministic in master_seed.

    Trials run in index order, each on its own stream derived from
    (master_seed, trial), and the reduction keeps the first strict minimum.
    meta["trial_costs"] holds each trial's best candidate cost in the
    input's weight units; meta["best_trial"] is the winning trial and
    meta["best_tuple"] the winning candidate's index in that trial's tuple
    stream. Candidates are drawn, averaged and priced in the local frame of
    `core._in_local_frame`. On the evaluator's two-level path (more than
    2 * M * 128 points) trial_costs are its float32 estimates, within
    (131 + d) 2^-24 of the exact cost, relatively, plus 2^-22 s
    sqrt(d W cost), where W is the total weight and s the power of two just
    above every offset from the first point. The returned cost is the exact
    cost of the winning centers as the frame holds them; the returned
    centers are those mapped back to the input's frame and rounded, so at a
    geo-referenced offset their own cost can differ from it in the last
    digits (6e-11 relative at an offset of 5e6). When k is at least the
    number of distinct points the exact zero-cost placement on the
    distinct points is returned directly, in the input's frame.

    threads changes nothing and must be a positive int. It stays only
    because the benchmark's workloads (`bench/workloads.py`) pass it, 1 in
    the closed loop and 2 in the traced byte check; it goes once they stop.
    """
    params = PtasParams(k, epsilon, **(overrides or {}))
    _check_positive_int("threads", threads)
    master = RandomSource(master_seed)
    distinct = _distinct_points(P.coords, k + 1)
    if k >= distinct.shape[0]:
        meta = {
            "solver": "ptas",
            "master_seed": master_seed,
            "note": "k >= distinct points; zero-cost placement",
        }
        return ClusteringResult.from_centers(P, CenterSet(distinct), meta)
    return _in_local_frame(P, lambda local: _search(local, params, master))


def _search(P: WeightedPointSet, params: PtasParams, master: RandomSource) -> ClusteringResult:
    """`solve`'s trials on P, their reduction and the result's meta."""
    best_cost = math.inf
    best_centers: np.ndarray | None = None
    best_trial = best_tuple = 0
    trial_costs = []
    for t in range(params.trials):
        gen = master.derive(_SAMPLE_STREAM, t).generator()
        cost, centers, tuple_index = _best_for_trial(
            P, params.k, params.M, params.tuple_budget, gen
        )
        trial_costs.append(cost)
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
        "tuples_evaluated": params.trials * params.tuple_budget,
        "master_seed": master.seed,
        "trial_costs": trial_costs,
        "best_trial": best_trial,
        "best_tuple": best_tuple,
    }
    return ClusteringResult.from_centers(P, CenterSet(best_centers), meta)
