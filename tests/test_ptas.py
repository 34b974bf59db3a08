import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wkmeans import SOLVERS, ptas, sampling
from wkmeans.baselines import kmeanspp_lloyd
from wkmeans.core import WeightedPointSet, _sq_dist_rows
from wkmeans.instances import line4, oracle_instances, skew12
from wkmeans.ptas import (
    PtasParams,
    _CDF_BLOCK,
    _cdf_blocks,
    _distinct_points,
    _inverse_cdf_blocks,
    _inverse_cdf_rows,
    _last_positive,
    _run_tuple_batch,
    solve,
)
from wkmeans.oracle import brute_force_opt
from wkmeans.sampling import _COUNT_MAX_TERMS, RandomSource

from conftest import dyadic_points, in_local_frame, make_points


def test_params_default_to_theory_constants():
    p = PtasParams(2, 0.5)
    assert p.N == math.ceil(800 * 2 / 0.25) == 6400
    assert p.M == math.ceil(100 / 0.5) == 200
    assert p.trials == 4
    assert not p.adjust_epsilon


def test_params_reduced_constants():
    p = PtasParams(1, 0.5, c1=8.0, c2=4.0)
    assert (p.N, p.M) == (32, 8)


def test_adjusted_epsilon_shrinks_accuracy():
    p = PtasParams(2, 0.5, adjust_epsilon=True)
    assert p.epsilon_eff == pytest.approx(0.2)
    assert p.N == math.ceil(800 * 2 / 0.2**2) == 40000
    assert p.M == 500


def test_params_validation():
    with pytest.raises(ValueError):
        PtasParams(k=0, epsilon=0.5)
    with pytest.raises(ValueError):
        PtasParams(k=2, epsilon=1.0)
    with pytest.raises(ValueError):
        PtasParams(k=2, epsilon=0.5, trials=0)
    with pytest.raises(ValueError, match="N must be at least"):
        PtasParams(k=1, epsilon=0.5, c1=0.1, c2=100.0)
    # Constants and derived sizes that are not finite name themselves.
    for c in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="c1 must be positive and finite"):
            PtasParams(k=2, epsilon=0.5, c1=c)
        with pytest.raises(ValueError, match="c2 must be positive and finite"):
            PtasParams(k=2, epsilon=0.5, c2=c)
    with pytest.raises(ValueError, match=r"c2 / eps_eff is not finite"):
        PtasParams(k=2, epsilon=0.5, c2=1e308)
    with pytest.raises(ValueError, match=r"c1 \* k / eps_eff\^2 is not finite"):
        PtasParams(k=2, epsilon=0.5, c1=1e308)
    # eps^2 underflows to 0 here: refused, not a ZeroDivisionError.
    with pytest.raises(ValueError, match=r"c1 \* k / eps_eff\^2 is not finite"):
        PtasParams(k=2, epsilon=1e-200)


@pytest.mark.parametrize("field", ["k", "trials", "tuple_budget"])
@pytest.mark.parametrize("value", [0, -3, 2.5, 2.0, True, "exhaustive"])
def test_params_reject_bad_integers(field, value):
    """Counts are ints >= 1: no float, bool or string."""
    args = {"k": 2, "epsilon": 0.5, field: value}
    with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
        PtasParams(**args)


def test_params_accept_numpy_integers():
    p = PtasParams(np.int64(2), 0.5, trials=np.int32(3), tuple_budget=np.int64(7))
    assert (p.trials, p.tuple_budget) == (3, 7)


@pytest.mark.parametrize("threads", [0, -3, 2.5, True])
def test_solve_rejects_bad_thread_counts(threads):
    with pytest.raises(ValueError, match="threads must be a positive integer"):
        solve(line4().points, 2, 0.5, {"c1": 8.0, "c2": 4.0}, threads=threads)


def test_trial_streams_are_budget_tuples_of_k_rows_of_m(monkeypatch):
    """Each trial evaluates tuple_budget tuples, each k rows of M uniforms.

    The tuples come in batches of at most 1024, the last one partial, and
    a batch's uniforms are drawn as (k, M, rows), the evaluator's layout.
    """
    shapes = []
    evaluate = ptas._run_tuple_batch

    def spy(coords, weights, u):
        shapes.append(u.shape)
        return evaluate(coords, weights, u)

    monkeypatch.setattr(ptas, "_run_tuple_batch", spy)
    ovr = {"c1": 8.0, "c2": 4.0, "trials": 2, "tuple_budget": 2100}
    res = solve(make_points(3, 40, 2), 2, 0.5, ovr)
    M = PtasParams(2, 0.5, **ovr).M
    assert shapes == [(2, M, 1024), (2, M, 1024), (2, M, 52)] * 2
    assert res.meta["tuples_evaluated"] == 2 * 2100


def test_tuple_batch_single_location_collapses_to_zero_cost():
    """Every draw is the same location, so the one centroid lands on it.

    With several distinct points a single tuple may select a mixed subset
    whose centroid sits between them; only the solve-level shortcut promises
    zero cost for k >= distinct points.
    """
    P = WeightedPointSet(np.array([[2.0, 2.0]] * 3), np.array([1.0, 2.0, 0.5]))
    params = PtasParams(1, 0.5, c1=8.0, c2=4.0)
    u = RandomSource(2).generator().random((params.k, params.M, 1))
    costs, centers = _run_tuple_batch(P.coords, P.weights, u)
    assert costs.tolist() == [0.0]
    np.testing.assert_array_equal(centers[0], [[2.0, 2.0]])


def test_tuple_batch_two_point_instance_lands_on_support():
    P = WeightedPointSet(np.array([[0.0], [10.0]]), np.ones(2))
    params = PtasParams(k=1, epsilon=0.5, c1=0.5, c2=1.0)  # N = M = 2
    seen = set()
    for seed in range(12):
        u = RandomSource(seed).generator().random((params.k, params.M, 1))
        _, centers = _run_tuple_batch(P.coords, P.weights, u)
        c = float(centers[0, 0, 0])
        assert c in (0.0, 5.0, 10.0)
        seen.add(c)
    assert len(seen) > 1


def _draw(v, u):
    """The evaluator's draw from masses v: one level, or two over v as cache.

    The one-level path takes v and u point-major, as (n, rows) and
    (D, rows). On the two-level path v is zero-padded to whole blocks as
    the evaluator pads its cache, the weights are ones, and the block sums
    come from the evaluator's einsum. Returns the drawn indices and the
    mask of zero-mass (dead) rows.
    """
    rows, n = v.shape
    nb = _cdf_blocks(n, u.shape[1])
    before = v.copy()
    if nb == 0:
        v_t = np.ascontiguousarray(v.T)
        cols, totals = _inverse_cdf_rows(v_t, np.ascontiguousarray(u.T), np.empty_like(v_t))
        np.testing.assert_array_equal(v_t, before.T)
        cols = cols.T
    else:
        cache = np.zeros((rows, nb, _CDF_BLOCK))
        cache.reshape(rows, -1)[:, :n] = v
        w = np.zeros((nb, _CDF_BLOCK))
        w.reshape(-1)[:n] = 1.0
        sums = np.einsum("rjp,jp->rj", cache, w)
        cols, totals = _inverse_cdf_blocks(sums, cache, w, u)
        np.testing.assert_array_equal(cache.reshape(rows, -1)[:, :n], v)
    np.testing.assert_array_equal(v, before)
    assert cols.shape == u.shape and cols.dtype == np.intp
    return cols, totals <= 0.0


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.integers(0, 10),
    st.sampled_from([0, 1, 2, 37, _CDF_BLOCK - 1]),
    st.integers(1, 4),
    st.sampled_from(["random", "ties", "zero-runs", "spread"]),
)
def test_inverse_cdf_matches_one_running_sum(seed, rows, blocks, tail, D, kind):
    """Each draw is searchsorted(cumsum(v), u * total, "right") on its row.

    The one exception is a target within summation rounding of a running-sum
    boundary, which the two-level sum may place on the other side. Row
    lengths run from under one block to ten blocks plus a ragged tail, so
    both the one-level and the two-level path are taken. No draw lands on a
    zero-mass point; an all-zero row is reported dead.
    """
    n = blocks * _CDF_BLOCK + tail
    if n == 0:
        n = 1
    gen = RandomSource(seed).generator()
    if kind == "random":
        v = gen.random((rows, n))
    elif kind == "ties":
        v = np.floor(gen.random((rows, n)) * 3.0)
    elif kind == "zero-runs":
        v = gen.random((rows, n)) * (gen.random((rows, n)) < 0.05)
    else:
        v = np.exp(60.0 * (gen.random((rows, n)) - 0.5))
    v[0] = 0.0
    u = np.concatenate(
        [gen.random((rows, D - 1)), np.full((rows, 1), 1.0 - 2.0**-53)], axis=1
    )
    u[:, 0] = 0.0
    cols, dead = _draw(v, u)
    for r in range(rows):
        cum = np.cumsum(v[r])
        total = cum[-1]
        assert bool(dead[r]) == (total == 0.0)
        if total == 0.0:
            continue
        t = u[r] * total
        ref = np.searchsorted(cum, t, side="right")
        tol = 4.0 * n * 2.0**-53 * total
        for got, want, target in zip(cols[r], ref, t):
            assert 0 <= got < n and v[r, got] > 0.0
            lo, hi = sorted((int(got), int(want)))
            assert np.all(np.abs(cum[lo:hi] - target) <= tol)


@pytest.mark.parametrize("n,D", [(100, 64), (20_037, 64), (1_024, 1), (1_037, 1)])
def test_inverse_cdf_is_exact_on_integer_masses(n, D):
    """Integer masses and dyadic uniforms make every sum exact.

    Each draw is then exactly searchsorted(cumsum(v), u * total, "right"),
    also for a target on a block boundary: row 0 is all ones, so at
    n = 1024 every eighth target ends a block.
    """
    gen = RandomSource(n).generator()
    rows = 64 // D
    v = np.floor(gen.random((rows, n)) * 4.0)
    v[0] = 1.0
    u = (np.arange(64.0) / 64.0).reshape(rows, D)
    cols, _ = _draw(v, u)
    for r in range(rows):
        cum = np.cumsum(v[r])
        want = np.searchsorted(cum, u[r] * cum[-1], side="right")
        np.testing.assert_array_equal(cols[r], want)


def test_inverse_cdf_overshoot_skips_trailing_zeros():
    """A block sum above its own running sum sends a target past that sum.

    Block 0 holds 1 and then tiny masses that its sequential running sum
    absorbs but its pairwise block sum keeps, then zeros. A target between
    the running sum's end and the block sum lands on the last tiny mass,
    not on the zeros after it.
    """
    n = 3 * 2 * _CDF_BLOCK
    v = np.ones((1, n))
    v[0, :_CDF_BLOCK] = 0.0
    v[0, 0] = 1.0
    v[0, 1:100] = 2.0**-53
    assert _cdf_blocks(n, 1) == 6
    inner_end = np.cumsum(v[0, :_CDF_BLOCK])[-1]
    block_sum = v[0, :_CDF_BLOCK].sum()
    assert inner_end == 1.0 < block_sum
    blocks = v.reshape(1, 6, _CDF_BLOCK)
    sums = blocks.sum(axis=2)
    total = np.cumsum(sums)[-1]
    u = np.array([[(1.0 + block_sum) / 2.0 / total]])
    assert inner_end <= u[0, 0] * total < block_sum
    cols, totals = _inverse_cdf_blocks(sums, blocks, np.ones((6, _CDF_BLOCK)), u)
    dead = totals <= 0.0
    assert cols.tolist() == [[99]] and not dead[0]


def test_inverse_cdf_one_level_overshoot_skips_trailing_zeros():
    """A subnormal total rounds u * total up to it; the draw skips zeros."""
    v = np.array([[0.0, 5e-324, 5e-324, 0.0, 0.0]])
    u = np.array([[1.0 - 2.0**-53]])
    assert u[0, 0] * 1e-323 == 1e-323
    cols, dead = _draw(v, u)
    assert cols.tolist() == [[2]] and not dead[0]


def _reference_inverse_cdf_rows(v, u, sums):
    """The single-pass evaluator's draw: masses v padded to whole blocks.

    One-level rows (sums None) search each row's own running sum with
    np.searchsorted; a target past its end lands on the last positive mass
    (the last point of an all-zero row). Two-level rows take the block sums
    `sums` of the mass array, running-sum them in float64 and running-sum
    the drawn blocks of the mass array itself.
    """
    rows, w = v.shape
    if sums is None:
        cols = np.empty(u.shape, dtype=np.intp)
        totals = np.empty(rows)
        for r in range(rows):
            cum = np.cumsum(v[r])
            totals[r] = cum[-1]
            positive = np.flatnonzero(v[r])
            last = positive[-1] if positive.size else w - 1
            found = np.searchsorted(cum, u[r] * cum[-1], side="right")
            cols[r] = np.minimum(found, last)
        return cols, totals <= 0.0
    nb = sums.shape[1]
    blocks = v.reshape(rows, nb, _CDF_BLOCK)
    bcum = np.zeros((rows, nb + 1))
    bcum[:, 1:] = np.cumsum(sums.astype(np.float64), axis=1)
    totals = bcum[:, -1]
    target = u * totals[:, None]
    blk = (bcum[:, None, 1:] <= target[:, :, None]).sum(axis=2)
    over = blk == nb
    if over.any():
        blk[over] = _last_positive(sums[np.nonzero(over)[0]])
        target[over] = np.inf
    r = np.arange(rows)[:, None]
    target -= bcum[r, blk]
    inner = blocks[r, blk]
    np.cumsum(inner, axis=2, out=inner)
    pos = (inner <= target[:, :, None]).sum(axis=2)
    over = pos == _CDF_BLOCK
    if over.any():
        r, m = np.nonzero(over)
        pos[over] = _last_positive(blocks[r, blk[r, m]])
    return blk * _CDF_BLOCK + pos, totals <= 0.0


def _reference_run_tuple_batch(coords, weights, u):
    """The single-tier evaluator: blocks of max(1, 2^16 // n) rows.

    u is (k, D, B), tuple b drawing with u[i, :, b] in iteration i. Every
    iteration writes the whole mass array cache * weights and draws from
    it, and a cost adds its row's masses in point order, one at a time, in
    float64. One-level rows work in float64 throughout. Two-level rows hold
    the cache and masses in float32, over float32 copies of the coordinates,
    the weights and each center. Their block sums are the evaluator's
    einsum of the cache against the weights, so every draw sees the
    evaluator's bytes.
    """
    k, D, B = u.shape
    n, d = coords.shape
    nb = _cdf_blocks(n, D)
    if nb:
        points_t = np.ascontiguousarray(coords.T, dtype=np.float32)
        w = weights.astype(np.float32)
        w_blocks = np.zeros(nb * _CDF_BLOCK, dtype=np.float32)
        w_blocks[:n] = w
        w_blocks = w_blocks.reshape(nb, _CDF_BLOCK)
        dtype = np.float32
    else:
        points_t = np.ascontiguousarray(coords.T)
        w = weights
        dtype = np.float64
    cum0 = np.cumsum(weights)
    rows = max(1, 2**16 // n)
    width = nb * _CDF_BLOCK or n
    costs = np.empty(B)
    centers = np.empty((B, k, d))
    work = np.zeros((3, min(rows, B), width), dtype=dtype)
    for lo in range(0, B, rows):
        hi = min(lo + rows, B)
        mass_b = work[1, : hi - lo]
        cache_b, scratch_b, diff_b = work[:, : hi - lo, :n]
        blk_centers = centers[lo:hi]
        for i in range(k):
            ui = u[i, :, lo:hi].T
            if i == 0:
                cols = np.searchsorted(cum0, ui * cum0[-1], side="right")
                dead = None
            else:
                sums = None
                if nb:
                    cache_blocks = work[0, : hi - lo].reshape(hi - lo, nb, _CDF_BLOCK)
                    sums = np.einsum("rjp,jp->rj", cache_blocks, w_blocks)
                np.multiply(cache_b, w, out=scratch_b)
                cols, dead = _reference_inverse_cdf_rows(mass_b, ui, sums)
            np.minimum(cols, n - 1, out=cols)
            tw = weights[cols]
            # Each mean's D products, and its D weights, are added onto a
            # zero in draw order.
            ci = np.zeros((hi - lo, d))
            total = np.zeros(hi - lo)
            for m in range(D):
                ci += tw[:, m, None] * coords[cols[:, m]]
                total += tw[:, m]
            ci /= total[:, None]
            if dead is not None and dead.any():
                ci[dead] = blk_centers[dead, i - 1]
            blk_centers[:, i, :] = ci
            if nb:
                ci = ci.astype(np.float32)
            d2 = cache_b if i == 0 else scratch_b
            _sq_dist_rows(points_t, ci, d2, diff_b)
            if i > 0:
                np.minimum(cache_b, d2, out=cache_b)
        np.multiply(cache_b, w, out=scratch_b)
        cost = np.zeros(hi - lo)
        for p in range(n):
            cost += scratch_b[:, p]
        costs[lo:hi] = cost
    return costs, centers


def _batch_case(seed, n, D, k, d, B, kind):
    """Points, weights and uniforms for one batch of D draws per row."""
    gen = RandomSource(seed).generator()
    if kind == "few-locations":
        coords = np.floor(gen.random((n, d)) * 2.0)
    else:
        coords = gen.random((n, d)) * 1e3 + (5e6 if kind == "geo" else 0.0)
    weights = np.exp(2.0 * gen.standard_normal(n))
    return coords, weights, gen.random((k, D, B))


_BATCH_KINDS = st.sampled_from(["random", "few-locations", "geo"])


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("M", [1, 7, 8, 9, 17, 129])
@pytest.mark.parametrize("rows", [1, 2, 1024])
def test_centroids_sum_in_draw_order(rows, M, d):
    """Each mean's products and weights are added onto a zero in draw order.

    A per-row Python loop is the reference. M = 8 and 129 sit past numpy's
    pairwise thresholds, and one row takes the lone-row copy.
    """
    coords, weights, u = _batch_case(rows * M + d, 50, M, 1, d, rows, "geo")
    cols = np.floor(u[0] * 50).astype(np.intp)
    got = ptas._centroids(np.ascontiguousarray(coords.T), weights, cols)
    want = np.empty((d, rows))
    for r in range(rows):
        num, total = [0.0] * d, 0.0
        for p in cols[:, r].tolist():
            w = float(weights[p])
            total += w
            num = [s + w * float(x) for s, x in zip(num, coords[p])]
        want[:, r] = [s / total for s in num]
    assert got.shape == (d, rows)
    assert got.tobytes() == want.tobytes()


# Draws per center: numpy's pairwise row sum, which the centroid's sums
# must not take, differs from a sequential sum from 8 terms on.
_DRAW_COUNTS = st.sampled_from([1, 2, 3, 7, 8, 9, 16])


@pytest.mark.deep
@given(
    st.integers(0, 2**32 - 1),
    _DRAW_COUNTS,
    st.integers(0, 5),
    st.integers(1, _CDF_BLOCK),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(1, 40),
    _BATCH_KINDS,
)
def test_run_tuple_batch_matches_reference(seed, D, extra, tail, k, d, B, kind):
    """Two-level rows: the same centers bytewise, costs within float32 rounding.

    n > 2 * D * 128, so every row draws in two levels, on float32 caches
    of the inputs as the solvers' local frame gives them (so the geo kind
    keeps its digits). The reference draws from whole mass arrays in one tier; its block sums are
    the evaluator's einsum, so the centers agree bytewise.

    The costs differ in summation only. Write m_p for the exact product of
    the float32 cache entry and weight, u = 2^-24 and v = 2^-53. The
    reference rounds each m_p to float32 (one u) and adds the n results in
    float64 (n - 1 roundings of v). The evaluator adds each block's 128
    products in float32, in any order, with or without fused multiply-adds
    (at most 128 roundings of u per term, gamma_128 = 128u / (1 - 128u)),
    and adds the nb block sums pairwise in float64 (at most nb - 1
    roundings of v). All terms are nonnegative, so relative to the sum of m_p the reference is
    within u + (n - 1)v and the evaluator within gamma_128 + (nb - 1)v, up
    to products of these; their difference over the reference's cost stays
    under 130u + 2(n + nb)v. Points on a few locations give rows whose mass
    runs out (dead rows).
    """
    n = (2 * D + extra) * _CDF_BLOCK + tail
    nb = _cdf_blocks(n, D)
    assert nb > 0
    coords, weights, u = _batch_case(seed, n, D, k, d, B, kind)
    coords, weights = in_local_frame(coords, weights)
    costs, centers = _run_tuple_batch(coords, weights, u)
    ref_costs, ref_centers = _reference_run_tuple_batch(coords, weights, u)
    assert centers.tobytes() == ref_centers.tobytes()
    rtol = 130 * 2.0**-24 + 2 * (n + nb) * 2.0**-53
    np.testing.assert_allclose(costs, ref_costs, rtol=rtol, atol=0.0)


@st.composite
def _one_level_shape(draw):
    """(D, n) with n from 1 to the one-level limit 2 * D * 128."""
    D = draw(_DRAW_COUNTS)
    top = 2 * D * _CDF_BLOCK
    edges = [1, _COUNT_MAX_TERMS, _COUNT_MAX_TERMS + 1, top]
    return D, draw(st.one_of(st.sampled_from(edges), st.integers(1, top)))


@pytest.mark.deep
@given(
    st.integers(0, 2**32 - 1),
    _one_level_shape(),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(1, 40),
    _BATCH_KINDS,
)
def test_run_tuple_batch_one_level_matches_reference(seed, shape, k, d, B, kind):
    """One-level rows: centers and costs byte for byte.

    n <= 2 * D * 128, on both sides of the count's cutoff. The reference
    draws with a per-row np.searchsorted and gathers by fancy indexing;
    its masses and costs are summed as the evaluator's are, so every byte
    agrees. Points on a few locations give dead rows, and n = 1 makes every
    row dead after the first center.
    """
    D, n = shape
    assert _cdf_blocks(n, D) == 0
    coords, weights, u = _batch_case(seed, n, D, k, d, B, kind)
    costs, centers = _run_tuple_batch(coords, weights, u)
    ref_costs, ref_centers = _reference_run_tuple_batch(coords, weights, u)
    assert centers.tobytes() == ref_centers.tobytes()
    assert costs.tobytes() == ref_costs.tobytes()


def test_solve_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        solve(line4().points, 0, 0.5)


@pytest.mark.filterwarnings("error")
def test_solve_solves_weight_totals_past_float64():
    """Weights and D^2 totals past float64 in the input's units are solved.

    Four weights of 1e308 sum past float64, and every sum of 8 drawn
    weights of 4e307 does; unit weights 1e154 apart have D^2 totals past
    it. In the frame none of these sums overflows: each case returns its
    optimum, with no warning.
    """
    coords = [[0.0], [1.0], [4.0], [5.0]]
    overrides = {"c1": 8.0, "c2": 4.0}
    for w in (1e308, 4e307, 1e300):
        assert solve(WeightedPointSet(coords, [w] * 4), 2, 0.5, overrides).cost == w
    spread = WeightedPointSet([[0.0], [1e154], [2e154], [3e154]], [1.0] * 4)
    assert solve(spread, 2, 0.5, overrides).cost == 1.0000000000000002e308


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "n,span,ovr",
    [
        (4, 3e154, {"c1": 8.0, "c2": 4.0}),
        (300, 3e153, {"c1": 8.0, "c2": 0.5, "tuple_budget": 50}),
    ],
    ids=["4", "300"],
)
def test_d2_totals_past_float64_leave_finite_centers(n, span, ovr):
    """Unit weights over [0, span]: the D^2 total from the point at 0 passes
    float64 in the input's units, but no total does in the frame, so the
    centers and the cost are finite. n = 4 draws in one level, n = 300 in two.
    """
    P = WeightedPointSet(np.linspace(0.0, span, n)[:, None], np.ones(n))
    assert (_cdf_blocks(n, 1) > 0) == (n == 300)
    with np.errstate(over="ignore"):
        assert not np.isfinite((P.coords[:, 0] ** 2).sum())
    res = solve(P, 2, 0.5, ovr)
    assert math.isfinite(res.cost) and np.isfinite(res.centers.centers).all()


def test_solve_refuses_coordinate_spreads_past_float64():
    """Offsets from the first point that overflow: a ValueError, no warning."""
    P = WeightedPointSet(np.array([[-1e308], [0.0], [1e308]]), np.ones(3))
    with pytest.raises(ValueError, match="coordinate differences overflow float64"):
        solve(P, 2, 0.5, {"c1": 8.0, "c2": 4.0})


def test_solve_covers_distinct_points_exactly():
    P = WeightedPointSet(np.array([[0.0], [3.0], [3.0]]), np.ones(3))
    res = solve(P, 2, 0.5)
    assert res.cost == 0.0
    assert sorted(res.centers.centers[:, 0].tolist()) == [0.0, 3.0]


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 60),
    st.integers(1, 3),
    st.integers(1, 5),
    st.integers(1, 12),
)
def test_distinct_points_match_np_unique(seed, n, d, values, limit):
    """Sets with many duplicates: the first `limit` distinct rows, sorted.

    With at most `limit` - 1 distinct rows the scan returns np.unique's
    rows bytewise; otherwise it stops at `limit` of them.
    """
    gen = RandomSource(seed).generator()
    coords = np.floor(gen.random((n, d)) * values) * 0.1 + 5e6
    unique = np.unique(coords, axis=0)
    got = _distinct_points(coords, limit)
    if unique.shape[0] < limit:
        assert got.tobytes() == unique.tobytes()
    else:
        assert got.shape == (limit, d)
        assert np.unique(got, axis=0).tobytes() == got.tobytes()
        assert all(np.any(np.all(coords == p, axis=1)) for p in got)


def test_distinct_points_use_exact_equality():
    """1e-200 apart: the squared difference underflows, the points differ."""
    coords = np.array([[0.0], [1e-200], [0.0]])
    assert (coords[1, 0] - coords[0, 0]) ** 2 == 0.0
    assert _distinct_points(coords, 3).tolist() == [[0.0], [1e-200]]
    P = WeightedPointSet(coords, np.ones(3))
    assert solve(P, 1, 0.5, {"c1": 8.0, "c2": 4.0}).meta.get("note") is None
    res = solve(P, 2, 0.5)
    assert res.cost == 0.0
    assert res.centers.centers.tolist() == [[0.0], [1e-200]]


def test_solve_line_instance_within_half_of_optimal():
    inst = line4()
    res = solve(inst.points, inst.k, 0.5, {"c1": 8.0, "c2": 4.0}, master_seed=7)
    assert 1.0 <= res.cost <= 1.5
    assert res.meta["tuples_evaluated"] == res.meta["trials"] * res.meta["tuple_budget"]


@pytest.mark.parametrize("seed", [True, 1.5, -1])
@pytest.mark.parametrize("k", [2, 4], ids=["solved", "k-covers-every-point"])
def test_solve_refuses_seeds_that_are_not_nonnegative_ints(seed, k):
    """True once ran as seed 1 and 1.5 failed inside numpy; k = 4 returns early."""
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        solve(line4().points, k, 0.5, {"c2": 4.0}, master_seed=seed)


def test_solve_is_deterministic_and_thread_invariant():
    inst = skew12()
    ovr = {"c1": 8.0, "c2": 4.0, "tuple_budget": 300}
    a = solve(inst.points, inst.k, 0.5, ovr, master_seed=3, threads=1)
    b = solve(inst.points, inst.k, 0.5, ovr, master_seed=3, threads=4)
    c = solve(inst.points, inst.k, 0.5, ovr, master_seed=3, threads=1)
    assert np.array_equal(a.centers.centers, b.centers.centers)
    assert np.array_equal(a.centers.centers, c.centers.centers)
    assert a.cost == b.cost == c.cost
    d = solve(inst.points, inst.k, 0.5, ovr, master_seed=4)
    assert not np.array_equal(a.centers.centers, d.centers.centers)


def test_retained_cost_is_best_over_trials():
    inst = skew12()
    res = solve(inst.points, inst.k, 0.5, {"c1": 8.0, "c2": 4.0, "tuple_budget": 200}, master_seed=5)
    trial_costs = res.meta["trial_costs"]
    assert len(trial_costs) == res.meta["trials"]
    assert min(trial_costs) == pytest.approx(res.cost, rel=1e-12)


def test_meta_names_the_winning_trial_and_tuple():
    """best_trial is the first trial of least cost; best_tuple indexes its stream.

    Replaying the winning trial's sample stream batch by batch, as (k, M,
    rows) draws, through the evaluator on the points as offsets from the
    first (the solver's frame up to its powers of two, which change no draw
    and scale the costs exactly) puts the winning candidate, with the
    trial's cost, at index best_tuple of the whole stream (the first of the
    least-cost ones); its centers plus the first point are the returned
    ones. Two full batches per trial, so some winners sit in the second
    batch.
    """
    P = make_points(31, 2500, 2)
    coords = P.coords - P.coords[0]
    ovr = {"c1": 8.0, "c2": 4.0, "trials": 2, "tuple_budget": 2 * ptas._CHUNK}
    params = PtasParams(2, 0.5, **ovr)
    winners = []
    for seed in range(4):
        res = solve(P, 2, 0.5, ovr, master_seed=seed)
        t, j = res.meta["best_trial"], res.meta["best_tuple"]
        trial_costs = res.meta["trial_costs"]
        assert trial_costs.index(min(trial_costs)) == t
        gen = RandomSource(seed).derive(ptas._SAMPLE_STREAM, t).generator()
        batches = [
            _run_tuple_batch(coords, P.weights, gen.random((2, params.M, ptas._CHUNK)))
            for _ in range(2)
        ]
        costs = np.concatenate([c for c, _ in batches])
        centers = np.concatenate([c for _, c in batches])
        assert int(np.argmin(costs)) == j and costs[j] == trial_costs[t]
        assert (centers[j] + P.coords[0]).tobytes() == res.centers.centers.tobytes()
        winners.append(j)
    assert any(j >= ptas._CHUNK for j in winners)


def _lognormal_points(seed, n, d):
    gen = RandomSource(seed).generator()
    return WeightedPointSet(gen.random((n, d)), np.exp(gen.standard_normal(n)))


def test_trial_costs_are_in_input_weight_units():
    """The best trial's cost is the reported cost, whatever the weights' scale."""
    P = _lognormal_points(4, 300, 2)
    assert P.weights.min() < 0.1
    ovr = {"c1": 8.0, "c2": 4.0, "trials": 2, "tuple_budget": 100}
    res = solve(P, 3, 0.5, ovr, master_seed=2)
    assert min(res.meta["trial_costs"]) == pytest.approx(res.cost, rel=1e-12)


def test_two_level_costs_are_exact_and_trial_costs_within_float32_rounding():
    """On a two-level solve the cost is exact and trial_costs are estimates.

    The reported cost matches a float64 numpy recomputation within 1e-12.
    The winning trial's cost is the evaluator's float32 estimate of the same
    centers. With u = 2^-24, scaled offsets below 1 in magnitude and
    centers in the points' box, each scaled coordinate difference a is off
    by at most 2u + u|a|, so a float32 squared distance is within 4u|a|_1 +
    (d + 2)u|a|^2 of the exact one (squares and d - 1 adds), to first order
    in u, and so is the running minimum over centers. Weights cast to
    float32 add u, and the block sums gamma_128 (see
    `test_run_tuple_batch_matches_reference`); the float64 adds and the
    exact cost's own rounding are below 2^-40. Summed with weights, by
    Cauchy-Schwarz on sum w |a|, and scaled back to input units by the
    coordinate scale s (a power of two above every offset from point 0):
    |trial - cost| <= (131 + d)u cost + 4u sqrt(d) s sqrt(W cost), here with
    a slack of 2^-10 for the second-order terms.
    """
    P = _lognormal_points(4, 3000, 2)
    ovr = {"c1": 8.0, "c2": 4.0, "trials": 2, "tuple_budget": 100}
    assert _cdf_blocks(P.n, PtasParams(3, 0.5, **ovr).M) > 0
    res = solve(P, 3, 0.5, ovr, master_seed=2)
    c = res.centers.centers
    d2 = ((P.coords[:, None, :] - c[None, :, :]) ** 2).sum(axis=2).min(axis=1)
    assert res.cost == pytest.approx(float((P.weights * d2).sum()), rel=1e-12)
    u, d = 2.0**-24, P.dim
    s = 2.0 ** math.frexp(float(np.abs(P.coords - P.coords[0]).max()))[1]
    W = float(P.weights.sum())
    bound = (131 + d) * u * res.cost + 4 * u * math.sqrt(d) * s * math.sqrt(W * res.cost)
    assert abs(min(res.meta["trial_costs"]) - res.cost) <= bound * (1 + 2.0**-10)


def _assert_scale_equivariant(P, k, ovr, seed, j_w, j_x):
    """solve on weights times 2^j_w and coordinates times 2^j_x, against P.

    Centers times 2^j_x and the same assignment, the cost and every
    trial_costs entry times 2^(j_w + 2 j_x), byte for byte.
    """
    scaled = WeightedPointSet(np.ldexp(P.coords, j_x), np.ldexp(P.weights, j_w))
    base = solve(P, k, 0.5, ovr, master_seed=seed)
    res = solve(scaled, k, 0.5, ovr, master_seed=seed)
    assert res.centers.centers.tobytes() == np.ldexp(base.centers.centers, j_x).tobytes()
    assert res.assignment.tobytes() == base.assignment.tobytes()
    factor = 2.0 ** (j_w + 2 * j_x)
    assert res.cost == base.cost * factor
    assert res.meta["trial_costs"] == [c * factor for c in base.meta["trial_costs"]]


def _weight_scaling_cases():
    for inst in oracle_instances():
        yield pytest.param(inst.points, inst.k, id=inst.name)
    yield pytest.param(_lognormal_points(9, 300, 3), 3, id="lognormal-3d")


@pytest.mark.parametrize("j", [-20, 30])
@pytest.mark.parametrize("P,k", list(_weight_scaling_cases()))
def test_solve_is_weight_scale_equivariant(P, k, j):
    """Weights times 2^j: the same centers and assignment, cost times 2^j."""
    ovr = {"c1": 8.0, "c2": 4.0, "trials": 4, "tuple_budget": 200}
    for seed in range(3):
        _assert_scale_equivariant(P, k, ovr, seed, j, 0)


@pytest.mark.parametrize("j_w,j_x", [(-300, 0), (300, 0), (0, -100), (0, 100)])
def test_two_level_solve_is_exact_under_power_of_two_scaling(j_w, j_x):
    """The float32 passes scale by powers of two, so no output byte moves.

    n = 3,000 draws in two levels. Weights times 2^+-300 and coordinates
    times 2^+-100 give the float32 copies the same bytes, since each is
    scaled by the power of two that puts its largest entry in [1/2, 1).
    """
    P = dyadic_points(3000)
    ovr = {"c1": 8.0, "c2": 4.0, "trials": 2, "tuple_budget": 100}
    assert _cdf_blocks(P.n, PtasParams(3, 0.5, **ovr).M) > 0
    _assert_scale_equivariant(P, 3, ovr, 5, j_w, j_x)


@pytest.mark.deep
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2 * 8 * _CDF_BLOCK + 1, 4000),
    st.integers(-300, 300),
    st.integers(-100, 100),
)
def test_two_level_solve_scaling_property(seed, n, j_w, j_x):
    """Random two-level n, weights times 2^j_w and coordinates times 2^j_x."""
    P = make_points(seed, n, 2)
    ovr = {"c1": 8.0, "c2": 4.0, "trials": 1, "tuple_budget": 32}
    _assert_scale_equivariant(P, 3, ovr, seed, j_w, j_x)


def test_centers_stay_in_the_coordinate_box():
    P = make_points(8, 30, 2)
    res = solve(P, 3, 0.5, {"c1": 8.0, "c2": 4.0, "tuple_budget": 100}, master_seed=1)
    lo, hi = P.coords.min(axis=0), P.coords.max(axis=0)
    assert np.all(res.centers.centers >= lo - 1e-12)
    assert np.all(res.centers.centers <= hi + 1e-12)


def _result_bytes(res):
    return (
        res.centers.centers.tobytes(),
        res.assignment.tobytes(),
        np.float64(res.cost).tobytes(),
        np.array(res.meta["trial_costs"]).tobytes(),
        res.meta.get("best_trial"),
        res.meta.get("best_tuple"),
    )


def _block_invariance_cases():
    desk = {"c1": 8.0, "c2": 4.0, "tuple_budget": 200}
    for inst in oracle_instances():
        yield pytest.param(inst.points, inst.k, desk, id=inst.name)
    big = {"c1": 8.0, "c2": 4.0, "trials": 2, "tuple_budget": 40}
    yield pytest.param(make_points(21, 3000, 2), 3, big, id="random-3000")
    # 17 whole CDF blocks and a one-point tail: the two-level draw.
    ragged = make_points(22, 17 * _CDF_BLOCK + 1, 3)
    yield pytest.param(ragged, 4, big, id="random-2177")
    # One level (n <= 2 * M * 128) on both layouts: a whole batch of 1024
    # rows is point-major, and the last 76 rows and every smaller block are
    # F-ordered.
    wide = {"c1": 8.0, "c2": 4.0, "trials": 1, "tuple_budget": 1100}
    yield pytest.param(make_points(23, 1000, 2), 3, wide, id="random-1000")
    # Two draws per center (N = 8, M = 2) and 1500 tuples per trial: one
    # whole batch of 1024 and a partial one.
    P = WeightedPointSet(np.array([[0.0], [1.0], [4.0], [5.0], [9.0]]), np.arange(1.0, 6.0))
    pairs = {"c1": 1.0, "c2": 1.0, "tuple_budget": 1500, "trials": 2}
    yield pytest.param(P, 2, pairs, id="five-points")


@pytest.mark.parametrize("P,k,ovr", list(_block_invariance_cases()))
def test_output_bytes_do_not_depend_on_block_size(monkeypatch, P, k, ovr):
    """Block sizes and the count's cutoff leave every output byte alone.

    Each pair is (sub-block rows, outer block rows): one-row blocks, outer
    blocks that are not a multiple of the sub-block, an outer block smaller
    than the sub-block, and one block for the whole batch. Desk instances
    take one level, where an outer block is one sub-block. A cutoff of 0
    sends every search to the binary search or np.searchsorted, and one of
    2^20 counts every running sum, the first center's over all n points too.
    """
    outputs = []
    blocks = ((1, 1), (1, 5), (3, 7), (7, 3), (10**6, 10**6))
    cases = [(sub, outer, _COUNT_MAX_TERMS) for sub, outer in blocks]
    cases += [(3, 7, 0), (3, 7, 1 << 20)]
    for sub, outer, cutoff in cases:
        monkeypatch.setattr(ptas, "_BLOCK_VALUES", sub * P.n)
        monkeypatch.setattr(ptas, "_DRAW_VALUES", outer * P.n)
        monkeypatch.setattr(sampling, "_COUNT_MAX_TERMS", cutoff)
        outputs.append(_result_bytes(solve(P, k, 0.5, ovr, master_seed=11)))
    assert all(out == outputs[0] for out in outputs[1:])


@pytest.mark.parametrize("n", [12, 500, 3000])
def test_solve_is_exact_under_dyadic_translation(n):
    """Shifts of 2^17, 2^22 and 2^23: every result byte, centers plus the
    shift, from every solver called directly and through SOLVERS.

    Coordinates on a 2^-4 grid in [0, 64) move exactly under these shifts,
    and so do their offsets from the first point, the frame every solver
    works in. For the PTAS, n = 12 takes point-major one-level blocks, 500
    F-ordered ones and 3,000 the two-level draw; the oracle runs at n = 12
    only.
    """
    P = dyadic_points(n)
    ovr = {"c1": 8.0, "c2": 4.0, "trials": 2, "tuple_budget": 100}
    direct = {
        "ptas": lambda Q: solve(Q, 3, 0.5, ovr, master_seed=5),
        "kmeanspp-lloyd": lambda Q: kmeanspp_lloyd(Q, 3, RandomSource(5)),
        "oracle": lambda Q: brute_force_opt(Q, 3),
    }
    assert set(direct) == set(SOLVERS)
    for name, run in direct.items():
        if name == "oracle" and n > 12:
            continue
        base = run(P)
        for shift in (2.0**17, 2.0**22, 2.0**23):
            moved = WeightedPointSet(P.coords + shift, P.weights)
            assert (moved.coords - shift).tobytes() == P.coords.tobytes()
            for res in (run(moved), SOLVERS[name](moved, 3, 0.5, ovr, 5)):
                assert res.centers.centers.tobytes() == (base.centers.centers + shift).tobytes()
                assert res.assignment.tobytes() == base.assignment.tobytes()
                assert np.float64(res.cost).tobytes() == np.float64(base.cost).tobytes()
                assert res.meta == base.meta


def test_two_level_draws_do_not_depend_on_an_offset(monkeypatch):
    """The solvers' frame, not the evaluator, re-centres and scales the points.

    `solve` hands `_run_tuple_batch` the frame's inputs: point 0 at the
    origin, and the largest coordinate and weight magnitudes in [1/2, 1).
    Points at offset 2^22, where float32 spacing is 0.5, so reach it as the
    unshifted points' bytes and draw the same points, tuple for tuple.
    """
    P = dyadic_points(3000)
    assert _cdf_blocks(P.n, 8) > 0
    inputs, draws = [], []
    run, centroids = ptas._run_tuple_batch, ptas._centroids

    def spy_run(coords, weights, u):
        inputs.append((coords.copy(), weights.copy()))
        return run(coords, weights, u)

    def spy_centroids(coords_t, weights, cols):
        draws.append(cols.copy())
        return centroids(coords_t, weights, cols)

    monkeypatch.setattr(ptas, "_run_tuple_batch", spy_run)
    monkeypatch.setattr(ptas, "_centroids", spy_centroids)
    ovr = {"c1": 8.0, "c2": 4.0, "trials": 1, "tuple_budget": 64}
    for Q in (P, WeightedPointSet(P.coords + 2.0**22, P.weights)):
        solve(Q, 3, 0.5, ovr, master_seed=7)
    (coords, weights), moved = inputs
    assert not coords[0].any()
    assert 0.5 <= np.abs(coords).max() < 1.0 and 0.5 <= weights.max() < 1.0
    assert moved[0].tobytes() == coords.tobytes() and moved[1].tobytes() == weights.tobytes()
    assert len(draws) == 6
    for base, shifted in zip(draws[:3], draws[3:]):
        np.testing.assert_array_equal(shifted, base)


def test_evaluator_memory_is_bounded_for_large_n():
    """Peak allocation stays near the block buffers, not batch x n."""
    gen = RandomSource(8).generator()
    n = 50_000
    P = WeightedPointSet(gen.random((n, 2)), 0.5 + gen.random(n))
    ovr = {"c1": 8.0, "c2": 4.0, "trials": 1, "tuple_budget": 256}
    tracemalloc.start()
    try:
        solve(P, 3, 0.5, ovr, master_seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("shift", [1e4, 1e8])
@pytest.mark.parametrize("inst", oracle_instances(), ids=lambda inst: inst.name)
def test_solve_is_translation_equivariant(inst, shift):
    """solve(P + t) returns solve(P)'s assignment, centers + t and cost."""
    P = inst.points
    moved = WeightedPointSet(P.coords + shift, P.weights)
    ovr = {"c1": 8.0, "c2": 4.0}
    for seed in range(10):
        base = solve(P, inst.k, 0.5, ovr, master_seed=seed)
        res = solve(moved, inst.k, 0.5, ovr, master_seed=seed)
        np.testing.assert_array_equal(res.assignment, base.assignment)
        np.testing.assert_allclose(
            res.centers.centers, base.centers.centers + shift, rtol=0, atol=1e-12 * shift
        )
        assert res.cost == pytest.approx(base.cost, rel=1e-8)
