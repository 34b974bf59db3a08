import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wkmeans import ptas, sampling
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
from wkmeans.sampling import _COUNT_MAX_TERMS, RandomSource

from conftest import make_points


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

    The tuples come in batches of at most 1024, the last one partial.
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
    assert shapes == [(2, 1024, M), (2, 1024, M), (2, 52, M)] * 2
    assert res.meta["tuples_evaluated"] == 2 * 2100


def test_tuple_batch_single_location_collapses_to_zero_cost():
    """Every draw is the same location, so the one centroid lands on it.

    With several distinct points a single tuple may select a mixed subset
    whose centroid sits between them; only the solve-level shortcut promises
    zero cost for k >= distinct points.
    """
    P = WeightedPointSet(np.array([[2.0, 2.0]] * 3), np.array([1.0, 2.0, 0.5]))
    params = PtasParams(1, 0.5, c1=8.0, c2=4.0)
    u = RandomSource(2).generator().random((params.k, 1, params.M))
    costs, centers = _run_tuple_batch(P.coords, P.weights, u)
    assert costs.tolist() == [0.0]
    np.testing.assert_array_equal(centers[0], [[2.0, 2.0]])


def test_tuple_batch_two_point_instance_lands_on_support():
    P = WeightedPointSet(np.array([[0.0], [10.0]]), np.ones(2))
    params = PtasParams(k=1, epsilon=0.5, c1=0.5, c2=1.0)  # N = M = 2
    seen = set()
    for seed in range(12):
        u = RandomSource(seed).generator().random((params.k, 1, params.M))
        _, centers = _run_tuple_batch(P.coords, P.weights, u)
        c = float(centers[0, 0, 0])
        assert c in (0.0, 5.0, 10.0)
        seen.add(c)
    assert len(seen) > 1


def _draw(v, u):
    """The evaluator's draw from masses v: one level, or two over v as cache.

    On the two-level path v is zero-padded to whole blocks as the evaluator
    pads its cache, the weights are ones, and the block sums come from the
    evaluator's einsum.
    """
    rows, n = v.shape
    nb = _cdf_blocks(n, u.shape[1])
    before = v.copy()
    if nb == 0:
        cols, dead = _inverse_cdf_rows(v, u, np.empty_like(v))
    else:
        cache = np.zeros((rows, nb, _CDF_BLOCK))
        cache.reshape(rows, -1)[:, :n] = v
        w = np.zeros((nb, _CDF_BLOCK))
        w.reshape(-1)[:n] = 1.0
        sums = np.einsum("rjp,jp->rj", cache, w)
        cols, dead = _inverse_cdf_blocks(sums, cache, w, u)
        np.testing.assert_array_equal(cache.reshape(rows, -1)[:, :n], v)
    np.testing.assert_array_equal(v, before)
    assert cols.shape == u.shape and cols.dtype == np.intp
    return cols, dead


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
    cols, dead = _inverse_cdf_blocks(sums, blocks, np.ones((6, _CDF_BLOCK)), u)
    assert cols.tolist() == [[99]] and not dead[0]


def test_inverse_cdf_one_level_overshoot_skips_trailing_zeros():
    """A subnormal total rounds u * total up to it; the draw skips zeros."""
    v = np.array([[0.0, 5e-324, 5e-324, 0.0, 0.0]])
    u = np.array([[1.0 - 2.0**-53]])
    assert u[0, 0] * 1e-323 == 1e-323
    cols, dead = _draw(v, u)
    assert cols.tolist() == [[2]] and not dead[0]


def _reference_inverse_cdf_rows(v, u):
    """The single-pass evaluator's draw: masses v padded to whole blocks.

    One-level rows search each row's own running sum with np.searchsorted;
    a target past its end lands on the last positive mass (the last point
    of an all-zero row). Two-level rows take block sums of the mass array
    by a pairwise reshape-sum and running-sum the drawn blocks of it.
    """
    rows, w = v.shape
    nb = _cdf_blocks(w, u.shape[1])
    if nb == 0:
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
    blocks = v.reshape(rows, nb, _CDF_BLOCK)
    sums = blocks.sum(axis=2)
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

    Every iteration writes the whole mass array cache * weights and draws
    from it, and a cost is that array's row sum.
    """
    k, B, D = u.shape
    n, d = coords.shape
    coords_t = np.ascontiguousarray(coords.T)
    cum0 = np.cumsum(weights)
    rows = max(1, 2**16 // n)
    width = _cdf_blocks(n, D) * _CDF_BLOCK or n
    costs = np.empty(B)
    centers = np.empty((B, k, d))
    work = np.zeros((3, min(rows, B), width))
    for lo in range(0, B, rows):
        hi = min(lo + rows, B)
        mass_b = work[1, : hi - lo]
        cache_b, scratch_b, diff_b = work[:, : hi - lo, :n]
        blk_centers = centers[lo:hi]
        for i in range(k):
            ui = u[i, lo:hi]
            if i == 0:
                cols = np.searchsorted(cum0, ui * cum0[-1], side="right")
                dead = None
            else:
                np.multiply(cache_b, weights, out=scratch_b)
                cols, dead = _reference_inverse_cdf_rows(mass_b, ui)
            np.minimum(cols, n - 1, out=cols)
            tw = weights[cols]
            ci = np.einsum("bm,bmd->bd", tw, coords[cols]) / tw.sum(axis=1)[:, None]
            if dead is not None and dead.any():
                ci[dead] = blk_centers[dead, i - 1]
            blk_centers[:, i, :] = ci
            d2 = cache_b if i == 0 else scratch_b
            _sq_dist_rows(coords_t, ci, d2, diff_b)
            if i > 0:
                np.minimum(cache_b, d2, out=cache_b)
        np.multiply(cache_b, weights, out=scratch_b)
        costs[lo:hi] = scratch_b.sum(axis=1)
    return costs, centers


def _batch_case(seed, n, D, k, d, B, kind):
    """Points, weights and uniforms for one batch of D draws per row."""
    gen = RandomSource(seed).generator()
    if kind == "few-locations":
        coords = np.floor(gen.random((n, d)) * 2.0)
    else:
        coords = gen.random((n, d)) * 1e3 + (5e6 if kind == "geo" else 0.0)
    weights = np.exp(2.0 * gen.standard_normal(n))
    return coords, weights, gen.random((k, B, D))


_BATCH_KINDS = st.sampled_from(["random", "few-locations", "geo"])


@pytest.mark.deep
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(0, 5),
    st.integers(1, _CDF_BLOCK),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(1, 40),
    _BATCH_KINDS,
)
def test_run_tuple_batch_matches_reference(seed, D, extra, tail, k, d, B, kind):
    """Two-level rows: the same centers bytewise, costs to summation rounding.

    n > 2 * D * 128, so every row draws in two levels. The evaluator forms
    block sums by einsum and costs from them; the reference sums the mass
    array pairwise. Only a target within rounding of a block boundary could
    draw differently, so the centers agree bytewise, and each cost agrees
    within 4 n 2^-53 of the reference (a bound on both summation errors).
    Points on a few locations give rows whose mass runs out (dead rows).
    """
    n = (2 * D + extra) * _CDF_BLOCK + tail
    assert _cdf_blocks(n, D) > 0
    coords, weights, u = _batch_case(seed, n, D, k, d, B, kind)
    costs, centers = _run_tuple_batch(coords, weights, u)
    ref_costs, ref_centers = _reference_run_tuple_batch(coords, weights, u)
    assert centers.tobytes() == ref_centers.tobytes()
    np.testing.assert_allclose(costs, ref_costs, rtol=4 * n * 2.0**-53, atol=0.0)


@st.composite
def _one_level_shape(draw):
    """(D, n) with n from 1 to the one-level limit 2 * D * 128."""
    D = draw(st.integers(1, 3))
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
def test_solve_refuses_weight_totals_that_overflow():
    """Four weights of 1e308 sum past float64: a ValueError names the total.

    Weights of 4e307 have a finite total, but every candidate's sum of 8
    drawn weights overflows, so no cost is finite: the ValueError names the
    sums, with no RuntimeWarning on the way. 1e300 solves.
    """
    coords = [[0.0], [1.0], [4.0], [5.0]]
    overrides = {"c1": 8, "c2": 4, "tuple_budget": 50}
    with pytest.raises(ValueError, match=r"weight total 4\.00e\+308 overflows float64"):
        solve(WeightedPointSet(coords, [1e308] * 4), 2, 0.5, overrides)
    with pytest.raises(ValueError, match="sums of drawn weights.*scale the weights down"):
        solve(WeightedPointSet(coords, [4e307] * 4), 2, 0.5, overrides)
    assert math.isfinite(solve(WeightedPointSet(coords, [1e300] * 4), 2, 0.5, overrides).cost)


@pytest.mark.filterwarnings("error")
def test_overflowing_candidates_lose_to_finite_ones():
    """A batch whose overflowing candidates cost nan keeps its finite ones.

    Two heavy points at x = 1 and 1.001 hold 8e307 of the weight; a tuple
    that draws five of them sums its weights past float64, and its centroid
    and cost turn nan. About 40% of a batch does; the rest compete as usual.
    """
    coords = np.concatenate([[1.0, 1.001], 2.0 + np.arange(90) * 1e-3])[:, None]
    P = WeightedPointSet(coords, np.concatenate([[4e307, 4e307], np.full(90, 1e306)]))
    u = RandomSource(0).generator().random((2, 64, 8))
    with np.errstate(all="ignore"):
        costs, _ = _run_tuple_batch(P.coords, P.weights, u)
    assert 0 < np.isnan(costs).sum() < 64 and not np.isinf(costs).any()
    res = solve(P, 2, 0.5, {"c1": 8.0, "c2": 4.0, "tuple_budget": 50})
    assert math.isfinite(res.cost)
    assert all(math.isfinite(c) for c in res.meta["trial_costs"])


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

    Replaying the winning trial's sample stream batch by batch through the
    evaluator puts the winning candidate, with the trial's cost and the
    returned centers, at index best_tuple of the whole stream (the first of
    the least-cost ones). Two full batches per trial, so some winners sit
    in the second batch.
    """
    P = make_points(31, 2500, 2)
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
            _run_tuple_batch(P.coords, P.weights, gen.random((2, ptas._CHUNK, params.M)))
            for _ in range(2)
        ]
        costs = np.concatenate([c for c, _ in batches])
        centers = np.concatenate([c for _, c in batches])
        assert int(np.argmin(costs)) == j and costs[j] == trial_costs[t]
        assert centers[j].tobytes() == res.centers.centers.tobytes()
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


def _weight_scaling_cases():
    for inst in oracle_instances():
        yield pytest.param(inst.points, inst.k, id=inst.name)
    yield pytest.param(_lognormal_points(9, 300, 3), 3, id="lognormal-3d")


@pytest.mark.parametrize("j", [-20, 30])
@pytest.mark.parametrize("P,k", list(_weight_scaling_cases()))
def test_solve_is_weight_scale_equivariant(P, k, j):
    """Weights times 2^j: the same centers and assignment, cost times 2^j."""
    scaled = WeightedPointSet(P.coords, P.weights * 2.0**j)
    ovr = {"c1": 8.0, "c2": 4.0, "trials": 4, "tuple_budget": 200}
    for seed in range(3):
        base = solve(P, k, 0.5, ovr, master_seed=seed)
        res = solve(scaled, k, 0.5, ovr, master_seed=seed)
        assert res.centers.centers.tobytes() == base.centers.centers.tobytes()
        np.testing.assert_array_equal(res.assignment, base.assignment)
        assert res.cost == base.cost * 2.0**j
        assert res.meta["trial_costs"] == [c * 2.0**j for c in base.meta["trial_costs"]]


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
        for threads in (1, 2):
            res = solve(P, k, 0.5, ovr, master_seed=11, threads=threads)
            outputs.append(_result_bytes(res))
    assert all(out == outputs[0] for out in outputs[1:])


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
