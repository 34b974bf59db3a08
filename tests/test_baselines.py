from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wkmeans import baselines
from wkmeans.baselines import kmeanspp_lloyd, lloyd_descend
from wkmeans.core import CenterSet, WeightedPointSet, _nearest, weighted_cost
from wkmeans.instances import kpp20, line4, oracle_instances, random_instance
from wkmeans.ptas import _cdf_blocks, _run_tuple_batch
from wkmeans.sampling import RandomSource

from conftest import make_points

# The PTAS evaluator's error, which k-means++ seeding raises too.
_NO_FINITE_CANDIDATE = "no candidate has a finite cost"


def _seed(P, k, rng):
    """kmeanspp_lloyd's k-means++ seed: its result when Lloyd runs no round."""
    with mock.patch.object(baselines, "_MAX_ITERS", 0):
        return kmeanspp_lloyd(P, k, rng).centers


def test_seeding_picks_input_points():
    """Each seed center is (w * x) / w of some input point x, bit for bit,
    with x taken as its offset from the first point and that point added back."""
    P = make_points(1, 25, 3)
    centers = _seed(P, 4, RandomSource(2))
    assert centers.k == 4
    local = P.coords - P.coords[0]
    drawn = (P.weights[:, None] * local) / P.weights[:, None] + P.coords[0]
    for c in centers.centers:
        assert np.any(np.all(drawn == c, axis=1))


def test_seeding_rejects_bad_k():
    for k in (0, 2.5, True):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            kmeanspp_lloyd(make_points(0, 5, 2), k, RandomSource(0))


def test_kmeanspp_lloyd_refuses_weight_totals_that_overflow():
    """Four weights of 1e308 sum past float64: a ValueError names the total."""
    P = WeightedPointSet(np.array([[0.0], [1.0], [4.0], [5.0]]), np.full(4, 1e308))
    with pytest.raises(ValueError, match=r"weight total 4\.00e\+308 overflows float64"):
        kmeanspp_lloyd(P, 2, RandomSource(0))


@pytest.mark.parametrize(
    "xs,w,first,cause",
    [
        # One mass overflows: 4e307 * 25 at x = 5.
        pytest.param(
            [0.0, 1.0, 4.0, 5.0], 4e307, 0, _NO_FINITE_CANDIDATE,
            id="xs0-products of weights and squared distances",
        ),
        # Each mass is finite (at most 4e307 * 4.41), their total 4.8e308 is not.
        pytest.param(
            [0.0, 1.9, 2.0, 2.1], 4e307, 0, _NO_FINITE_CANDIDATE,
            id="xs1-products of weights and squared distances, or their sum",
        ),
        # The first center's w * x, 4e307 * 10, passes float64.
        pytest.param(
            [0.0, 10.0, 10.1, 10.4], 4e307, 1, _NO_FINITE_CANDIDATE,
            id="xs2-sums of weights times coordinates",
        ),
        # Unit weights: whichever point comes first, a squared distance to it
        # is at least (2e154)^2, past float64.
        pytest.param(
            [0.0, 1e154, 2e154, 3e154], 1.0, 0, _NO_FINITE_CANDIDATE,
            id="xs3-squared distances",
        ),
        # The seed is finite (w * x is at most 4e307 * 1.7 and the masses
        # about 1.6 sum to 4e307 * 2.58), but the Lloyd cluster {1.5, 1.6,
        # 1.7} sums w * x past float64.
        pytest.param(
            [0.0, 1.5, 1.6, 1.7], 4e307, 2, "the sums of weights times coordinates",
            id="xs4-sums of weights times coordinates in Lloyd",
        ),
    ],
)
@pytest.mark.filterwarnings("error")
def test_kmeanspp_lloyd_names_overflowing_products(xs, w, first, cause):
    """Four equal weights with a finite total: ValueError names the overflow, no warning.

    The seed is the first whose first draw picks point `first`, so the
    masses are w * (x - xs[first])^2. The solver works on offsets from
    xs[0] = 0, so the coordinates are the ones it sums.
    """
    P = WeightedPointSet(np.array(xs)[:, None], np.full(4, w))
    gens = (RandomSource(s).generator() for s in range(100))
    seed = next(s for s, g in enumerate(gens) if int(g.random() * 4) == first)
    # The premise: the first center, drawn by weight alone, is point
    # `first`; four equal weights draw alike at any scale.
    u = RandomSource(seed).generator().random((1, 1, 1))
    with np.errstate(over="ignore"):
        _, centers = _run_tuple_batch(P.coords, np.ones(4), u)
    assert centers[0, 0, 0] == xs[first]
    with pytest.raises(ValueError, match=f"{cause}.*scale the weights down"):
        kmeanspp_lloyd(P, 2, RandomSource(seed))


def test_seeding_cycles_when_support_is_exhausted():
    """Once every point lies on a center, the remaining draws repeat one."""
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    P = WeightedPointSet(coords, np.ones(4))
    centers = _seed(P, 5, RandomSource(3))
    assert centers.k == 5
    distinct = np.unique(centers.centers, axis=0)
    assert distinct.shape[0] == 2


def test_seeding_is_reproducible():
    P = make_points(4, 30, 2)
    a = _seed(P, 3, RandomSource(8)).centers
    b = _seed(P, 3, RandomSource(8)).centers
    assert np.array_equal(a, b)


def _sequential_kmeanspp(coords, weights, u):
    """k-means++ picks for the k uniforms u, by np.cumsum and np.searchsorted.

    The first pick is drawn by weight, each later one by w * d^2 to the
    centers so far, a center being (w * x) / w of its pick as in the
    evaluator. A target past the end of the running sum lands on the last
    positive mass, and a draw with zero mass repeats the previous pick.
    Returns the picks and, per pick, the running sum and target searched
    (None for a repeat).
    """
    picks, searches = [], []
    mass, d2 = weights, None
    for ui in u:
        cum = np.cumsum(mass)
        if cum[-1] == 0.0:
            picks.append(picks[-1])
            searches.append(None)
            continue
        target = ui * cum[-1]
        found = int(np.searchsorted(cum, target, side="right"))
        p = min(found, int(np.flatnonzero(mass)[-1]))
        picks.append(p)
        searches.append((cum, target))
        c = (weights[p] * coords[p]) / weights[p]
        d = ((coords - c) ** 2).sum(axis=1)
        d2 = d if d2 is None else np.minimum(d2, d)
        mass = weights * d2
    return picks, searches


@pytest.mark.deep
@given(
    st.integers(0, 2**32 - 1),
    st.one_of(st.sampled_from([1, 2, 48, 49, 256, 257, 700]), st.integers(1, 1200)),
    st.integers(1, 5),
    st.integers(1, 3),
    st.integers(1, 12),
    st.sampled_from(["random", "few-locations", "geo"]),
)
def test_m1_evaluator_matches_sequential_kmeanspp(seed, n, k, d, B, kind):
    """The evaluator's one-draw tuples are k-means++ seeds, pick for pick.

    Up to n = 256 the evaluator draws in one level from the same running
    sum, so every pick agrees. Past it, the two-level draw's block sums may
    put a target within summation rounding of an interval boundary on the
    other side; such a pick is allowed, and the tuple's later picks, which
    then draw from another distribution, are not compared. Points on a few
    locations run out of mass, so draws repeat.
    """
    gen = RandomSource(seed).generator()
    if kind == "few-locations":
        coords = np.floor(gen.random((n, d)) * 2.0)
    else:
        coords = gen.random((n, d)) * 1e3 + (5e6 if kind == "geo" else 0.0)
    weights = np.exp(2.0 * gen.standard_normal(n))
    u = gen.random((k, 1, B))
    _, centers = _run_tuple_batch(coords, weights, u)
    drawn = (weights[:, None] * coords) / weights[:, None]
    one_level = _cdf_blocks(n, 1) == 0
    for b in range(B):
        picks, searches = _sequential_kmeanspp(coords, weights, u[:, 0, b])
        for i, (p, search) in enumerate(zip(picks, searches)):
            if centers[b, i].tobytes() == drawn[p].tobytes():
                continue
            assert not one_level and search is not None
            got = np.flatnonzero((drawn == centers[b, i]).all(axis=1))
            assert got.size > 0
            cum, target = search
            lo, hi = sorted((int(got[0]), p))
            tol = 4.0 * n * 2.0**-53 * cum[-1]
            assert np.all(np.abs(cum[lo:hi] - target) <= tol)
            break


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
        res = kmeanspp_lloyd(P, 3, RandomSource(seed + 1000))
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
        centers = _seed(P, 3, RandomSource(seed)).centers
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
    start = _seed(P, 2, RandomSource(seed ^ 0x77))
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
