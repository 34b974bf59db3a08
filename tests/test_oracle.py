from fractions import Fraction

import numpy as np
import pytest

from wkmeans import ptas
from wkmeans.baselines import kmeanspp_lloyd
from wkmeans.core import ClusteringResult, WeightedPointSet, weighted_centroid, weighted_cost
from wkmeans.instances import inaba10, oracle_instances, stress_instances
from wkmeans.oracle import InstanceTooLarge, brute_force_opt, partition_count
from wkmeans.sampling import RandomSource
from wkmeans.verification import _inaba_rate, _null_sampling

from conftest import dyadic_points, make_points


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
    assert res.meta["partitions_evaluated"] == partition_count(6, 2)


def test_exact_costs_on_fixed_instances():
    for inst in oracle_instances():
        res = brute_force_opt(inst.points, inst.k)
        assert res.cost == pytest.approx(inst.opt_cost, rel=5e-15)


@pytest.mark.parametrize("shift", [5e6, 1e7, 1e8])
@pytest.mark.parametrize(
    "inst", oracle_instances() + stress_instances(), ids=lambda inst: inst.name
)
def test_exact_at_geo_referenced_offsets(inst, shift):
    """Moved by a geo-referenced offset, every instance keeps its hand optimum.

    A group's one-pass cost Q - |S|^2 / W cancels at such offsets (19.7 times
    the optimum on skew12 at 1e8), so the oracle enumerates in the local frame.
    """
    moved = WeightedPointSet(inst.points.coords + shift, inst.points.weights)
    assert brute_force_opt(moved, inst.k).cost == pytest.approx(inst.opt_cost, rel=1e-9)


def test_exact_at_a_dyadic_offset():
    """The 12 dyadic points shifted by 2^23 keep the unshifted optimum."""
    P = dyadic_points(12)
    moved = WeightedPointSet(P.coords + 2.0**23, P.weights)
    opt = brute_force_opt(P, 3).cost
    assert brute_force_opt(moved, 3).cost == pytest.approx(opt, rel=1e-9)


def test_exact_when_weights_span_past_two_to_the_53():
    """Five unit weights and one of 1e20 to 1e304 on the line: the oracle's
    cost is that of the best two-group partition.

    Each partition is priced by `ClusteringResult.from_centers` at its
    groups' correctly rounded centroids, computed in rationals. An oracle
    that ranks groups by Q - |S|^2 / W, with running sums it also subtracts,
    returned a costlier partition or divided by a group weight cancelled to
    0 on most of these instances.
    """
    for seed in range(300):
        gen = RandomSource(seed).generator()
        x = gen.random(6)
        w = np.ones(6)
        w[gen.integers(6)] = 10.0 ** gen.uniform(20, 304)
        P = WeightedPointSet(x[:, None], w)
        best = np.inf
        for mask in range(1, 2**6 - 1):
            centers = []
            for side in (0, 1):
                g = [i for i in range(6) if (mask >> i) & 1 == side]
                total = sum(Fraction(float(x[i])) * Fraction(float(w[i])) for i in g)
                centers.append([float(total / sum(Fraction(float(w[i])) for i in g))])
            best = min(best, ClusteringResult.from_centers(P, centers).cost)
        assert brute_force_opt(P, 2).cost <= best * (1.0 + 1e-12), seed


def test_groups_form_a_partition():
    P = make_points(1, 8, 2)
    res = brute_force_opt(P, 3)
    flat = sorted(i for g in res.meta["groups"] for i in g)
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
    assert res.meta["partitions_evaluated"] == 0
    assert res.meta["groups"] == [[i] for i in range(5)]


@pytest.mark.parametrize("k", [0, 2.5, True])
def test_k_must_be_a_positive_integer(k):
    with pytest.raises(ValueError, match="k must be a positive integer"):
        brute_force_opt(make_points(2, 5, 2), k)


def test_size_guards():
    with pytest.raises(InstanceTooLarge):
        brute_force_opt(make_points(3, 15, 2), 2)
    with pytest.raises(InstanceTooLarge):
        brute_force_opt(make_points(4, 14, 2), 4)  # 10M+ partitions


# The Monte-Carlo experiments behind `verify`'s inaba and null-sampling
# checks, private to `wkmeans.verification`.


def _gate(delta, reps):
    return 1.0 - delta - 3.0 * np.sqrt(delta * (1.0 - delta) / reps)


def test_inaba_rate_beats_bound():
    """The solver's one-center estimator lands in its 1 - delta band, also at
    M = 1000, where the band excludes the optimum."""
    P = inaba10()
    rate, lo, _ = _inaba_rate(P, 20, 0.5, 2000, RandomSource(11).generator())
    assert rate >= _gate(0.5, 2000)
    assert lo == 1.0
    rate, lo, hi = _inaba_rate(P, 1000, 0.5, 500, RandomSource(11).generator())
    assert rate >= _gate(0.5, 500)
    assert (round(lo, 4), round(hi, 4)) == (1.0253, 1.1025)


@pytest.mark.parametrize("M,delta", [(1, 0.5), (20, 0.5), (100, 0.25)])
def test_inaba_band_is_inabas_for_equal_weights(M, delta):
    """With equal weights the w-weighted mean is the plain mean, and the band
    is Inaba's [1, 1 + 1/(delta M)]."""
    P = WeightedPointSet(inaba10().coords, np.full(10, 3.0))
    _, lo, hi = _inaba_rate(P, M, delta, 10, RandomSource(0).generator())
    assert lo == 1.0
    assert hi == pytest.approx(1.0 + 1.0 / (delta * M), rel=1e-12)


def _copy_expansion(P, u, lo, hi):
    """Centers and in-band rate of the w-weighted means of uniform draws over
    each point repeated w_p times, on (1, M, reps) uniforms u."""
    copies = np.repeat(np.arange(P.n), np.rint(P.weights).astype(np.int64))
    drawn = copies[np.minimum((u[0].T * copies.size).astype(np.intp), copies.size - 1)]
    w = P.weights[drawn]
    centers = np.einsum("rm,rmd->rd", w, P.coords[drawn]) / w.sum(axis=1)[:, None]
    opt = weighted_cost(P, [weighted_centroid(P)])
    ratios = np.array([weighted_cost(P, [c]) / opt for c in centers])
    return centers, float(np.mean((lo <= ratios) & (ratios <= hi)))


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("M,delta", [(1, 0.5), (20, 0.5), (100, 0.25)])
def test_inaba_integer_weights_match_copy_expansion(seed, M, delta):
    """`inaba`'s tuples draw in proportion to integer weights as uniform draws
    over w_p copies of each point do, and center on the w-weighted mean."""
    P = inaba10()
    assert np.array_equal(P.weights, np.rint(P.weights))
    rate, lo, hi = _inaba_rate(P, M, delta, 500, RandomSource(seed).generator())
    u = RandomSource(seed).generator().random((1, M, 500))
    _, centers = ptas._run_tuple_batch(P.coords, P.weights, u)
    expected, expected_rate = _copy_expansion(P, u, lo, hi)
    np.testing.assert_allclose(centers[:, 0], expected, rtol=1e-12)
    assert rate == expected_rate


def test_inaba_accepts_fractional_weights():
    P = make_points(4, 30, 2)
    assert not np.array_equal(P.weights, np.rint(P.weights))
    rate, _, _ = _inaba_rate(P, 20, 0.5, 2000, RandomSource(3).generator())
    assert rate >= _gate(0.5, 2000)


def test_null_sampling_count_gate():
    pts = make_points(7, 30, 2).coords
    gen = RandomSource(5).generator()
    count_rate, full_rate, _ = _null_sampling(0.25, 1.0, pts, 200, gen)
    assert count_rate >= 0.99
    assert 0.0 <= full_rate <= count_rate


def test_null_sampling_full_experiment():
    pts = make_points(8, 25, 2).coords
    gen = RandomSource(6).generator()
    count_rate, full_rate, _ = _null_sampling(0.25, 1.0, pts, 100, gen)
    assert full_rate >= 0.5
    assert full_rate <= count_rate
