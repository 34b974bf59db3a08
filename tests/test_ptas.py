import math
import tracemalloc

import numpy as np
import pytest

from wkmeans import ptas
from wkmeans.core import WeightedPointSet
from wkmeans.instances import line4, oracle_instances, skew12
from wkmeans.ptas import (
    CandidateTuple,
    EnumerationInfeasible,
    PtasParams,
    derive_params,
    enumerate_or_sample_tuples,
    rescale_weights,
    run_trial,
    solve,
)
from wkmeans.sampling import RandomSource

from conftest import make_points


def test_derive_params_theory_constants():
    p = derive_params(2, 0.5)
    assert p.N == math.ceil(800 * 2 / 0.25) == 6400
    assert p.M == math.ceil(100 / 0.5) == 200
    assert p.trials == 4
    assert not p.adjust_epsilon


def test_derive_params_reduced_constants():
    p = derive_params(1, 0.5, c1=8.0, c2=4.0)
    assert (p.N, p.M) == (32, 8)


def test_adjusted_epsilon_shrinks_accuracy():
    p = derive_params(2, 0.5, adjust_epsilon=True)
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
    with pytest.raises(ValueError):
        PtasParams(k=2, epsilon=0.5, tuple_budget="sometimes")
    with pytest.raises(ValueError, match="N must be at least"):
        PtasParams(k=1, epsilon=0.5, c1=0.1, c2=100.0)


def test_exhaustive_enumeration_is_lexicographic():
    p = PtasParams(k=1, epsilon=0.5, c1=0.75, c2=1.0, tuple_budget="exhaustive")
    assert (p.N, p.M) == (3, 2)
    tuples = [t.selectors[0].tolist() for t in enumerate_or_sample_tuples(p, RandomSource(0))]
    assert tuples == [[0, 1], [0, 2], [1, 2]]


def test_exhaustive_enumeration_counts_pairs():
    p = PtasParams(k=2, epsilon=0.5, c1=0.5, c2=1.0, tuple_budget="exhaustive")
    assert (p.N, p.M) == (4, 2)
    assert sum(1 for _ in enumerate_or_sample_tuples(p, RandomSource(0))) == 36


def test_budget_mode_yields_exactly_budget_tuples():
    p = PtasParams(k=3, epsilon=0.5, c1=8.0, c2=4.0, tuple_budget=500)
    seen = 0
    for t in enumerate_or_sample_tuples(p, RandomSource(12)):
        sel = t.selectors
        assert sel.shape == (3, 8)
        assert np.all(np.diff(sel, axis=1) > 0)
        assert sel.min() >= 0 and sel.max() < p.N
        seen += 1
    assert seen == 500


def test_exhaustive_infeasible_raises():
    p = PtasParams(k=3, epsilon=0.5, c1=8.0, c2=4.0, tuple_budget="exhaustive")
    with pytest.raises(EnumerationInfeasible):
        list(enumerate_or_sample_tuples(p, RandomSource(0)))
    with pytest.raises(EnumerationInfeasible):
        solve(skew12().points, 3, 0.5, {"c1": 8.0, "c2": 4.0, "tuple_budget": "exhaustive"})


def test_candidate_tuple_must_increase():
    with pytest.raises(ValueError):
        CandidateTuple(np.array([[0, 0, 1]]))
    with pytest.raises(ValueError):
        CandidateTuple(np.array([[2, 1, 3]]))


def test_rescale_weights_normalizes_minimum():
    P = WeightedPointSet(np.zeros((3, 1)), np.array([2.0, 4.0, 6.0]))
    Q, scale = rescale_weights(P)
    assert scale == 2.0
    np.testing.assert_array_equal(Q.weights, [1.0, 2.0, 3.0])
    R, scale1 = rescale_weights(Q)
    assert scale1 == 1.0 and R is Q


def test_run_trial_single_location_collapses_to_zero_cost():
    """Every draw is the same location, so the one centroid lands on it.

    With several distinct points a single trial may select a mixed subset
    whose centroid sits between them; only the solve-level shortcut promises
    zero cost for k >= distinct points.
    """
    P = WeightedPointSet(np.array([[2.0, 2.0]] * 3), np.array([1.0, 2.0, 0.5]))
    params = derive_params(1, 0.5, c1=8.0, c2=4.0)
    tup = next(iter(enumerate_or_sample_tuples(params, RandomSource(1))))
    res = run_trial(P, tup, params, RandomSource(2))
    assert res.cost == 0.0
    np.testing.assert_array_equal(res.centers.centers, [[2.0, 2.0]])


def test_run_trial_two_point_instance_lands_on_support():
    P = WeightedPointSet(np.array([[0.0], [10.0]]), np.ones(2))
    params = PtasParams(k=1, epsilon=0.5, c1=0.5, c2=1.0)  # N = M = 2
    tup = CandidateTuple(np.array([[0, 1]]))
    seen = set()
    for seed in range(12):
        res = run_trial(P, tup, params, RandomSource(seed))
        c = float(res.centers.centers[0, 0])
        assert c in (0.0, 5.0, 10.0)
        seen.add(c)
    assert len(seen) > 1


def test_solve_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        solve(line4().points, 0, 0.5)


def test_solve_covers_distinct_points_exactly():
    P = WeightedPointSet(np.array([[0.0], [3.0], [3.0]]), np.ones(3))
    res = solve(P, 2, 0.5)
    assert res.cost == 0.0
    assert sorted(res.centers.centers[:, 0].tolist()) == [0.0, 3.0]


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
    rescaled_cost = res.meta["trial_costs"]
    assert len(rescaled_cost) == res.meta["trials"]
    # trial costs are reported on the weight-rescaled set; weights here are 1
    assert res.cost <= min(rescaled_cost) + 1e-12


def test_centers_stay_in_the_coordinate_box():
    P = make_points(8, 30, 2)
    res = solve(P, 3, 0.5, {"c1": 8.0, "c2": 4.0, "tuple_budget": 100}, master_seed=1)
    lo, hi = P.coords.min(axis=0), P.coords.max(axis=0)
    assert np.all(res.centers.centers >= lo - 1e-12)
    assert np.all(res.centers.centers <= hi + 1e-12)


def test_exhaustive_mode_evaluates_every_tuple():
    P = WeightedPointSet(np.array([[0.0], [1.0], [4.0], [5.0]]), np.ones(4))
    ovr = {"c1": 1.0, "c2": 1.0, "tuple_budget": "exhaustive", "trials": 2}
    res = solve(P, 2, 0.5, ovr, master_seed=0)
    # N=8, M=2 per iteration: 28^2 tuples per trial
    assert res.meta["tuples_evaluated"] == 2 * 28**2


def _result_bytes(res):
    return (
        res.centers.centers.tobytes(),
        res.assignment.tobytes(),
        res.cost,
        res.meta["trial_costs"],
    )


def _block_invariance_cases():
    desk = {"c1": 8.0, "c2": 4.0, "tuple_budget": 200}
    for inst in oracle_instances():
        yield pytest.param(inst.points, inst.k, desk, id=inst.name)
    big = {"c1": 8.0, "c2": 4.0, "trials": 2, "tuple_budget": 40}
    yield pytest.param(make_points(21, 3000, 2), 3, big, id="random-3000")
    P = WeightedPointSet(np.array([[0.0], [1.0], [4.0], [5.0], [9.0]]), np.arange(1.0, 6.0))
    exhaustive = {"c1": 1.0, "c2": 1.0, "tuple_budget": "exhaustive", "trials": 2}
    yield pytest.param(P, 2, exhaustive, id="exhaustive")


@pytest.mark.parametrize("P,k,ovr", list(_block_invariance_cases()))
def test_output_bytes_do_not_depend_on_block_size(monkeypatch, P, k, ovr):
    """One-row blocks, middle blocks and one block for the batch agree bytewise."""
    outputs = []
    for rows in (1, 7, 10**6):
        monkeypatch.setattr(ptas, "_BLOCK_VALUES", rows * P.n)
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
