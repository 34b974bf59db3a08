import math
import tracemalloc

import numpy as np
import pytest

from wkmeans import ptas
from wkmeans.core import WeightedPointSet
from wkmeans.instances import line4, oracle_instances, skew12
from wkmeans.ptas import (
    EnumerationInfeasible,
    PtasParams,
    _run_tuple_batch,
    _selector_chunks,
    derive_params,
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


def _tuples(params, gen=None):
    return [row for block in _selector_chunks(params, gen) for row in block]


def test_exhaustive_enumeration_is_lexicographic():
    p = PtasParams(k=1, epsilon=0.5, c1=0.75, c2=1.0, tuple_budget="exhaustive")
    assert (p.N, p.M) == (3, 2)
    tuples = [t[0].tolist() for t in _tuples(p)]
    assert tuples == [[0, 1], [0, 2], [1, 2]]


def test_exhaustive_enumeration_counts_pairs():
    p = PtasParams(k=2, epsilon=0.5, c1=0.5, c2=1.0, tuple_budget="exhaustive")
    assert (p.N, p.M) == (4, 2)
    assert len(_tuples(p)) == 36


def test_budget_mode_yields_exactly_budget_tuples():
    p = PtasParams(k=3, epsilon=0.5, c1=8.0, c2=4.0, tuple_budget=500)
    seen = 0
    for sel in _tuples(p, RandomSource(12).generator()):
        assert sel.shape == (3, 8)
        assert np.all(np.diff(sel, axis=1) > 0)
        assert sel.min() >= 0 and sel.max() < p.N
        seen += 1
    assert seen == 500


def test_exhaustive_infeasible_raises():
    p = PtasParams(k=3, epsilon=0.5, c1=8.0, c2=4.0, tuple_budget="exhaustive")
    with pytest.raises(EnumerationInfeasible):
        list(_selector_chunks(p, None))
    with pytest.raises(EnumerationInfeasible):
        solve(skew12().points, 3, 0.5, {"c1": 8.0, "c2": 4.0, "tuple_budget": "exhaustive"})


def test_candidate_tuple_must_increase():
    """Every tuple, enumerated or drawn, is k rows of M increasing positions."""
    exhaustive = PtasParams(k=2, epsilon=0.5, c1=0.5, c2=1.0, tuple_budget="exhaustive")
    budget = PtasParams(k=2, epsilon=0.5, c1=8.0, c2=4.0, tuple_budget=1500)
    for p, gen in ((exhaustive, None), (budget, RandomSource(3).generator())):
        for block in _selector_chunks(p, gen):
            assert block.dtype == np.intp and block.shape[1:] == (p.k, p.M)
            assert np.all(np.diff(block, axis=2) > 0)
            assert block.min() >= 0 and block.max() < p.N


def test_tuple_batch_single_location_collapses_to_zero_cost():
    """Every draw is the same location, so the one centroid lands on it.

    With several distinct points a single tuple may select a mixed subset
    whose centroid sits between them; only the solve-level shortcut promises
    zero cost for k >= distinct points.
    """
    P = WeightedPointSet(np.array([[2.0, 2.0]] * 3), np.array([1.0, 2.0, 0.5]))
    params = derive_params(1, 0.5, c1=8.0, c2=4.0)
    sel = next(_selector_chunks(params, RandomSource(1).generator()))[:1]
    u = RandomSource(2).generator().random((params.k, 1, params.N))
    costs, centers = _run_tuple_batch(P.coords, P.weights, u, sel)
    assert costs.tolist() == [0.0]
    np.testing.assert_array_equal(centers[0], [[2.0, 2.0]])


def test_tuple_batch_two_point_instance_lands_on_support():
    P = WeightedPointSet(np.array([[0.0], [10.0]]), np.ones(2))
    params = PtasParams(k=1, epsilon=0.5, c1=0.5, c2=1.0)  # N = M = 2
    sel = np.array([[[0, 1]]])
    seen = set()
    for seed in range(12):
        u = RandomSource(seed).generator().random((params.k, 1, params.N))
        _, centers = _run_tuple_batch(P.coords, P.weights, u, sel)
        c = float(centers[0, 0, 0])
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
    trial_costs = res.meta["trial_costs"]
    assert len(trial_costs) == res.meta["trials"]
    assert min(trial_costs) == pytest.approx(res.cost, rel=1e-12)


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
