import numpy as np
import pytest
from hypothesis import given, strategies as st

from wkmeans import baselines, sampling
from wkmeans.baselines import kmeanspp_lloyd, kmeanspp_seed, lloyd_descend
from wkmeans.core import CenterSet, WeightedPointSet, _nearest, weighted_cost
from wkmeans.instances import kpp20, line4, oracle_instances, random_instance
from wkmeans.sampling import RandomSource

from conftest import make_points


def test_seeding_picks_input_points():
    P = make_points(1, 25, 3)
    centers = kmeanspp_seed(P, 4, RandomSource(2))
    assert centers.k == 4
    for c in centers.centers:
        assert np.any(np.all(P.coords == c, axis=1))


def test_seeding_rejects_bad_k():
    for k in (0, 2.5, True):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            kmeanspp_seed(make_points(0, 5, 2), k, RandomSource(0))


def test_kmeanspp_lloyd_refuses_weight_totals_that_overflow():
    """Four weights of 1e308 sum past float64: a ValueError names the total."""
    P = WeightedPointSet(np.array([[0.0], [1.0], [4.0], [5.0]]), np.full(4, 1e308))
    with pytest.raises(ValueError, match=r"weight total 4\.00e\+308 overflows float64"):
        kmeanspp_lloyd(P, 2, RandomSource(0))


@pytest.mark.parametrize(
    "xs,cause",
    [
        # One mass overflows: 4e307 * 25 at x = 5.
        ([0.0, 1.0, 4.0, 5.0], "products of weights and squared distances"),
        # Each mass is finite (at most 4e307 * 4.41), their total 4.8e308 is not.
        ([0.0, 1.9, 2.0, 2.1], "products of weights and squared distances, or their sum"),
        # The masses stay small, but a cluster's sum of w * x passes 8e308.
        ([10.0, 10.1, 10.4, 10.5], "sums of weights times coordinates"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_kmeanspp_lloyd_names_overflowing_products(xs, cause):
    """Four weights of 4e307 (finite total): ValueError names the overflow, no warning.

    Seed 0 picks the first point first, so the masses are 4e307 * (x - xs[0])^2.
    """
    P = WeightedPointSet(np.array(xs)[:, None], np.full(4, 4e307))
    with pytest.raises(ValueError, match=f"{cause}.*scale the weights down"):
        kmeanspp_lloyd(P, 2, RandomSource(0))


def test_seeding_cycles_when_support_is_exhausted():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    P = WeightedPointSet(coords, np.ones(4))
    centers = kmeanspp_seed(P, 5, RandomSource(3))
    assert centers.k == 5
    distinct = np.unique(centers.centers, axis=0)
    assert distinct.shape[0] == 2


def test_seeding_is_reproducible():
    P = make_points(4, 30, 2)
    a = kmeanspp_seed(P, 3, RandomSource(8)).centers
    b = kmeanspp_seed(P, 3, RandomSource(8)).centers
    assert np.array_equal(a, b)


def test_seeding_sums_each_draw_distribution_once(monkeypatch):
    """k draws take k exact totals: one per D^2 distribution, none repeated."""
    calls = []
    exact_sum = sampling._exact_sum

    def counted(terms):
        calls.append(len(terms))
        return exact_sum(terms)

    monkeypatch.setattr(sampling, "_exact_sum", counted)
    P = make_points(4, 30, 2)
    kmeanspp_seed(P, 4, RandomSource(8))
    assert calls == [30] * 4


def test_lloyd_keeps_optimal_centers_fixed():
    inst = line4()
    start = CenterSet(np.array([[0.5], [4.5]]))
    res = lloyd_descend(inst.points, start)
    assert np.array_equal(res.centers.centers, start.centers)
    assert res.cost == inst.opt_cost


def test_lloyd_keeps_empty_cluster_center_in_place(monkeypatch):
    monkeypatch.setattr(baselines, "_MAX_ITERS", 3)
    P = WeightedPointSet(np.array([[0.0], [1.0]]), np.ones(2))
    far = CenterSet(np.array([[0.4], [50.0]]))
    res = lloyd_descend(P, far)
    assert res.centers.k == 2
    assert np.all(np.isfinite(res.centers.centers))
    assert res.centers.centers[1, 0] == 50.0


def test_lloyd_history_is_monotone():
    for seed in range(10):
        P = random_instance(RandomSource(seed), max_n=60, max_dim=3)
        start = kmeanspp_seed(P, 3, RandomSource(seed + 1000))
        res = lloyd_descend(P, start)
        hist = res.meta["cost_history"]
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
        assert res.cost == hist[-1]


def _mask_loop_centroids(P, centers, assignment):
    out = centers.copy()
    for g in range(centers.shape[0]):
        mask = assignment == g
        if np.any(mask):
            w = P.weights[mask]
            out[g] = (w[:, None] * P.coords[mask]).sum(axis=0) / w.sum()
    return out


@pytest.mark.parametrize("offset", [0.0, 5e6])
def test_lloyd_round_matches_mask_loop_centroids(monkeypatch, offset):
    """Each round's bincount centroids, assignment and cost, one at a time.

    The fourth start center is far away, so its cluster starts empty and
    must keep its place.
    """
    monkeypatch.setattr(baselines, "_MAX_ITERS", 1)
    for seed in range(5):
        base = make_points(seed, 400, 2)
        P = WeightedPointSet(base.coords + offset, base.weights)
        centers = kmeanspp_seed(P, 3, RandomSource(seed)).centers
        centers = np.vstack([centers, [offset + 1e3, offset]])
        for _ in range(4):
            res = lloyd_descend(P, CenterSet(centers))
            ref = _mask_loop_centroids(P, centers, _nearest(P.coords, centers)[0])
            np.testing.assert_allclose(res.centers.centers, ref, rtol=1e-12, atol=0)
            assert res.centers.centers[3].tolist() == [offset + 1e3, offset]
            np.testing.assert_array_equal(
                res.assignment, _nearest(P.coords, res.centers)[0]
            )
            assert res.cost == weighted_cost(P, res.centers)
            assert res.cost == res.meta["cost_history"][-1]
            centers = res.centers.centers


@given(st.integers(0, 2_000))
def test_lloyd_never_beats_but_never_worsens_seeding(seed):
    P = random_instance(RandomSource(seed), max_n=40, max_dim=2)
    start = kmeanspp_seed(P, 2, RandomSource(seed ^ 0x77))
    before = weighted_cost(P, start)
    res = lloyd_descend(P, start)
    assert res.cost <= before + 1e-12


def test_end_to_end_baseline_on_separated_groups():
    inst = kpp20()
    res = kmeanspp_lloyd(inst.points, inst.k, RandomSource(6))
    assert res.meta["solver"] == "kmeanspp-lloyd"
    factor = 8.0 * (np.log(inst.k) + 2.0)
    assert res.cost <= factor * inst.opt_cost


def _weight_scaling_cases():
    for inst in oracle_instances():
        yield pytest.param(inst.points, inst.k, id=inst.name)
    gen = RandomSource(9).generator()
    P = WeightedPointSet(gen.random((300, 3)), np.exp(gen.standard_normal(300)))
    yield pytest.param(P, 3, id="lognormal-3d")


@pytest.mark.parametrize("j", [-20, 30])
@pytest.mark.parametrize("P,k", list(_weight_scaling_cases()))
def test_kmeanspp_lloyd_is_weight_scale_equivariant(P, k, j):
    """Weights times 2^j: the same centers, assignment and history up to 2^j."""
    scaled = WeightedPointSet(P.coords, P.weights * 2.0**j)
    for seed in range(3):
        base = kmeanspp_lloyd(P, k, RandomSource(seed))
        res = kmeanspp_lloyd(scaled, k, RandomSource(seed))
        assert res.centers.centers.tobytes() == base.centers.centers.tobytes()
        np.testing.assert_array_equal(res.assignment, base.assignment)
        assert res.cost == base.cost * 2.0**j
        assert res.meta["cost_history"] == [c * 2.0**j for c in base.meta["cost_history"]]
