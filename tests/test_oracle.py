import numpy as np
import pytest

from wkmeans.baselines import kmeanspp_lloyd
from wkmeans.core import WeightedPointSet, weighted_cost
from wkmeans.instances import inaba10, oracle_instances
from wkmeans.oracle import (
    InstanceTooLarge,
    brute_force_opt,
    partition_count,
    verify_inaba,
    verify_null_sampling,
)
from wkmeans.sampling import RandomSource

from conftest import make_points


def test_partition_count_known_values():
    # cumulative over group counts 1..k: S(4,1)+S(4,2) = 1+7, etc.
    assert partition_count(4, 2) == 8
    assert partition_count(5, 3) == 41
    assert partition_count(12, 3) == 88574
    assert partition_count(3, 3) == 5
    assert partition_count(6, 1) == 1


def test_partitions_evaluated_matches_count():
    P = make_points(0, 6, 2)
    res = brute_force_opt(P, 2)
    assert res.partitions_evaluated == partition_count(6, 2)


def test_exact_costs_on_fixed_instances():
    for inst in oracle_instances():
        res = brute_force_opt(inst.points, inst.k)
        assert res.cost == pytest.approx(inst.opt_cost, rel=5e-15)


def test_groups_form_a_partition():
    P = make_points(1, 8, 2)
    res = brute_force_opt(P, 3)
    flat = sorted(i for g in res.groups for i in g)
    assert flat == list(range(8))
    assert res.cost <= weighted_cost(P, P.coords[:3]) + 1e-12


def test_oracle_never_loses_to_descent():
    for seed in range(5):
        P = make_points(seed + 50, 9, 2)
        exact = brute_force_opt(P, 2)
        approx = kmeanspp_lloyd(P, 2, RandomSource(seed))
        assert exact.cost <= approx.cost + 1e-12


def test_k_at_least_n_is_free():
    P = make_points(2, 5, 2)
    res = brute_force_opt(P, 5)
    assert res.cost == 0.0
    assert res.partitions_evaluated == 0


@pytest.mark.parametrize("k", [0, 2.5, True])
def test_k_must_be_a_positive_integer(k):
    with pytest.raises(ValueError, match="k must be a positive integer"):
        brute_force_opt(make_points(2, 5, 2), k)


def test_size_guards():
    with pytest.raises(InstanceTooLarge):
        brute_force_opt(make_points(3, 15, 2), 2)
    with pytest.raises(InstanceTooLarge):
        brute_force_opt(make_points(4, 14, 2), 4)  # 10M+ partitions


def test_inaba_rate_beats_bound():
    P = inaba10()
    rate = verify_inaba(P, 20, 0.5, 2000, RandomSource(11))
    assert rate >= 1.0 - 0.5 - 3.0 * np.sqrt(0.25 / 2000)


def test_inaba_rejects_fractional_weights():
    P = WeightedPointSet(np.array([[0.0], [1.0]]), np.array([1.5, 1.0]))
    with pytest.raises(ValueError, match="integer weights"):
        verify_inaba(P, 5, 0.5, 10, RandomSource(0))


def test_inaba_parameter_validation():
    P = inaba10()
    with pytest.raises(ValueError):
        verify_inaba(P, 0, 0.5, 10, RandomSource(0))
    with pytest.raises(ValueError):
        verify_inaba(P, 5, 1.0, 10, RandomSource(0))
    with pytest.raises(ValueError):
        verify_inaba(P, 5, 0.5, 0, RandomSource(0))
    with pytest.raises(ValueError, match="M must be a positive integer"):
        verify_inaba(P, 2.5, 0.5, 10, RandomSource(0))
    with pytest.raises(ValueError, match="repetitions must be a positive integer"):
        verify_null_sampling(0.25, 1.0, make_points(7, 30, 2).coords, True, RandomSource(0))


def test_null_sampling_count_gate():
    pts = make_points(7, 30, 2).coords
    rate = verify_null_sampling(0.25, 1.0, pts, 200, RandomSource(5), count_only=True)
    assert rate >= 0.99


def test_null_sampling_full_experiment():
    pts = make_points(8, 25, 2).coords
    rate = verify_null_sampling(0.25, 1.0, pts, 100, RandomSource(6))
    assert rate >= 0.5


def test_null_sampling_size_guard():
    pts = make_points(9, 5, 2).coords
    with pytest.raises(ValueError, match="too large"):
        verify_null_sampling(1e-4, 0.01, pts, 10, RandomSource(0))
