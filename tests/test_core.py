import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wkmeans.core import (
    CenterSet,
    ClusteringResult,
    PointFileError,
    WeightedPointSet,
    load_weighted_points,
    min_squared_distances,
    parallel_axis_rhs,
    save_weighted_points,
    weighted_centroid,
    weighted_cost,
)
from wkmeans import core
from wkmeans.sampling import RandomSource

from conftest import make_points


def test_weighted_point_rejects_bad_weights():
    for w in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="weights must be positive"):
            WeightedPointSet(np.array([[0.0]]), np.array([w]))


def test_point_set_shape_validation():
    for n_weights in (1, 2, 4):
        with pytest.raises(ValueError, match=f"{n_weights} weights for 3 points"):
            WeightedPointSet(np.zeros((3, 2)), np.ones(n_weights))
    with pytest.raises(ValueError):
        WeightedPointSet(np.array([[np.nan, 0.0]]), np.ones(1))
    with pytest.raises(ValueError, match="nonempty"):
        WeightedPointSet(np.zeros((0, 2)), np.ones(0))


def test_point_set_arrays_are_frozen():
    P = make_points(1, 5, 2)
    with pytest.raises(ValueError):
        P.coords[0, 0] = 99.0
    with pytest.raises(ValueError):
        P.weights[0] = 99.0


def test_total_weight_is_order_independent():
    w = np.full(10, 0.1)
    P = WeightedPointSet(np.zeros((10, 1)), w)
    assert P.total_weight == 1.0


def _sum_outcome(f):
    try:
        return f().hex()
    except OverflowError:
        return "overflow"


_EXACT_SUM_TERMS = st.one_of(
    st.floats(0.0, 1e300),
    st.floats(0.0, 1e-300),
    st.floats(0.0, 1.7976931348623157e308),
    st.sampled_from([0.0, 5e-324, 2.0**-1022, 1.0, 2.0**-53, 2.0**-54, 3.0 * 2.0**-53]),
)


@pytest.mark.deep
@given(
    st.lists(_EXACT_SUM_TERMS, min_size=1, max_size=200),
    st.integers(1, 3),
    st.sampled_from([core._EXACT_CHUNK, 1, 7]),
)
def test_exact_sum_equals_fsum(terms, copies, chunk):
    """The exponent-bucket sum is math.fsum bit for bit, overflow included.

    Terms span zeros, subnormals, 1e-300 to 1e300 and values near the
    largest double, whose sums overflow. Repeated copies and terms of 1,
    2^-53 and 2^-54 put exact sums on rounding ties. Chunks of 1 and 7
    terms take the path that inputs past 2^26 - 1 terms take. The fsum
    cut-over is lifted, so these short inputs take the bucket sum.
    """
    x = np.array(terms * copies)
    want = _sum_outcome(lambda: math.fsum(x.tolist()))
    old = core._EXACT_CHUNK, core._EXACT_MIN_TERMS
    core._EXACT_CHUNK, core._EXACT_MIN_TERMS = chunk, 0
    try:
        assert _sum_outcome(lambda: core._exact_sum(x)) == want
    finally:
        core._EXACT_CHUNK, core._EXACT_MIN_TERMS = old
    if want != "overflow":
        assert core._exact_sum(x).hex() == want
        w = np.ones_like(x)
        assert core._cost(w, x).hex() == want


@pytest.mark.parametrize(
    "terms",
    [
        [1.0, 2.0**-53],
        [1.0, 2.0**-53, 2.0**-106],
        [1.0 + 2.0**-52, 2.0**-53],
        [5e-324] * 3 + [2.0**-1022],
        [1e300, 1.0, 1e-300],
        [np.inf, 1.0],
        [np.nan, 1.0],
    ],
)
def test_exact_sum_ties_and_non_finite_terms(terms):
    """Round-half-even ties, a subnormal carry and non-finite terms."""
    x = np.array(terms)
    assert _sum_outcome(lambda: core._exact_sum(x)) == _sum_outcome(
        lambda: math.fsum(x.tolist())
    )


@pytest.mark.parametrize("offset, bucketed", [(-1, False), (0, True)])
def test_exact_sum_cut_over(monkeypatch, offset, bucketed):
    """Just below the cut-over math.fsum sums alone; at it the bucket sum runs.

    Both give the same bits. The terms are 1 and then 2^-53s, each of which
    a running float sum would round away on a tie.
    """
    frexp_calls = []
    frexp = np.frexp

    def counted(x):
        frexp_calls.append(x.size)
        return frexp(x)

    monkeypatch.setattr(core.np, "frexp", counted)
    x = np.full(core._EXACT_MIN_TERMS + offset, 2.0**-53)
    x[0] = 1.0
    assert core._exact_sum(x).hex() == math.fsum(x.tolist()).hex()
    assert bool(frexp_calls) == bucketed


def test_subset_allows_repeats_and_rejects_empty():
    P = make_points(2, 4, 2)
    S = P.subset([1, 1, 3])
    assert S.n == 3
    assert np.array_equal(S.coords[0], S.coords[1])
    with pytest.raises(ValueError, match="empty subset"):
        P.subset([])


def test_center_set_requires_centers():
    with pytest.raises(ValueError, match="no centers"):
        CenterSet(np.zeros((0, 2)))


def test_nearest_center_breaks_ties_toward_lower_index():
    point = np.array([[0.0]])
    for centers, idx in (([[-1.0], [1.0]], 0), ([[5.0], [1.0], [-1.0]], 1)):
        assert core._nearest(point, np.array(centers))[0].tolist() == [idx]
        assert min_squared_distances(point, np.array(centers)).tolist() == [1.0]


@given(st.integers(0, 2**32 - 1), st.integers(1, 80), st.integers(1, 9))
def test_assignment_is_first_argmin_on_tie_heavy_grids(seed, n, k):
    """Grid points and centers tie often; the lowest tying index wins."""
    gen = RandomSource(seed).generator()
    pts = np.floor(gen.random((n, 2)) * 4.0)
    centers = np.floor(gen.random((k, 2)) * 4.0)
    d2 = ((pts[None, :, :] - centers[:, None, :]) ** 2).sum(axis=2)
    np.testing.assert_array_equal(core._nearest(pts, centers)[0], np.argmin(d2, axis=0))


def test_weighted_cost_small_example():
    P = WeightedPointSet(np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([1.0, 3.0]))
    assert weighted_cost(P, np.array([[0.0, 0.0]])) == 12.0


def test_weighted_centroid_small_example():
    coords = np.array([[0.0, 0.0], [2.0, 2.0], [4.0, 4.0]])
    P = WeightedPointSet(coords, np.ones(3))
    np.testing.assert_array_equal(weighted_centroid(P), [2.0, 2.0])


def test_assignment_consistent_with_min_distances():
    P = make_points(3, 40, 3)
    centers = P.coords[:4]
    assign = core._nearest(P.coords, centers)[0]
    d2 = min_squared_distances(P.coords, centers)
    diffs = P.coords - centers[assign]
    direct = diffs[:, 0] ** 2
    for j in range(1, P.dim):  # left to right over coordinates
        direct = direct + diffs[:, j] ** 2
    np.testing.assert_array_equal(direct, d2)


@pytest.mark.parametrize("shift", [0.0, 1e2, 1e5, 1e8])
@pytest.mark.parametrize("d", [1, 3, 7])
def test_distance_kernel_matches_long_double(monkeypatch, d, shift):
    """Each squared distance is within (d + 2) roundings of the exact value.

    Every entry depends only on its own point and center: folding the
    centers one at a time and any block size give the same bytes.
    """
    gen = RandomSource(d).generator()
    pts = shift + gen.random((300, d)) * gen.choice([1e-3, 1.0, 10.0], (300, 1))
    centers = shift + gen.random((5, d))
    diffs = pts.astype(np.longdouble)[:, None, :] - centers.astype(np.longdouble)
    exact = (diffs * diffs).sum(axis=2).min(axis=1)
    got = min_squared_distances(pts, centers)
    err = np.abs(got.astype(np.longdouble) - exact)
    assert np.all(err <= (d + 2) * 2.0**-53 * exact)
    folded = np.full(pts.shape[0], np.inf)
    for c in centers:
        np.minimum(folded, min_squared_distances(pts, c), out=folded)
    np.testing.assert_array_equal(folded, got)
    assign = core._nearest(pts, centers)[0]
    for values in (1, 7, 5 * 64):
        monkeypatch.setattr(core, "_BLOCK_VALUES", values)
        np.testing.assert_array_equal(min_squared_distances(pts, centers), got)
        np.testing.assert_array_equal(core._nearest(pts, centers)[0], assign)


@given(st.integers(0, 10_000), st.integers(1, 50), st.integers(1, 5))
def test_parallel_axis_identity(seed, n, d):
    """Cost about any point equals spread about the centroid plus the shift term."""
    P = make_points(seed, n, d)
    gen = RandomSource(seed ^ 0x5BD1).generator()
    c = gen.random(d) * 4.0 - 2.0
    lhs = weighted_cost(P, c[None, :])
    rhs = parallel_axis_rhs(P, c)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


@given(st.integers(0, 10_000), st.integers(1, 50), st.integers(1, 5))
def test_weighted_cost_follows_weight_scale_and_joint_translation(seed, n, d):
    """Weights times lam scale the cost by lam, and moving points and centers
    by one offset of at most 5 leaves it, up to rounding."""
    P = make_points(seed, n, d)
    gen = RandomSource(seed ^ 0x7A11).generator()
    lam = 0.25 + 4.0 * gen.random()
    t = gen.random(d) * 10.0 - 5.0
    c = gen.random((3, d))
    base = weighted_cost(P, c)
    scaled = weighted_cost(WeightedPointSet(P.coords, P.weights * lam), c)
    assert abs(scaled - lam * base) <= 1e-12 * (1.0 + lam * base)
    moved = weighted_cost(WeightedPointSet(P.coords + t, P.weights), c + t)
    assert abs(moved - base) <= 1e-9 * (1.0 + base)


@given(st.integers(0, 10_000))
def test_centroid_is_the_single_center_optimum(seed):
    P = make_points(seed, 12, 3)
    g = weighted_centroid(P)
    best = weighted_cost(P, g[None, :])
    gen = RandomSource(seed ^ 0xC0FE).generator()
    for _ in range(5):
        c = gen.random(3)
        assert weighted_cost(P, c[None, :]) >= best - 1e-12


def test_clustering_result_recomputes_assignment_and_cost():
    P = make_points(4, 30, 2)
    centers = CenterSet(P.coords[[0, 7]])
    res = ClusteringResult.from_centers(P, centers, {"solver": "test"})
    assert res.cost == weighted_cost(P, centers)
    assert np.array_equal(res.assignment, core._nearest(P.coords, centers.centers)[0])
    assert res.meta["solver"] == "test"


def test_point_file_roundtrip(tmp_path):
    P = make_points(5, 17, 3)
    path = tmp_path / "pts.csv"
    save_weighted_points(path, P)
    Q = load_weighted_points(path)
    assert np.array_equal(P.coords, Q.coords)
    assert np.array_equal(P.weights, Q.weights)


def test_point_file_errors_carry_line_numbers(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b\n0,1\n")
    with pytest.raises(PointFileError, match="line 1"):
        load_weighted_points(bad_header)

    bad_value = tmp_path / "v.csv"
    bad_value.write_text("x1,weight\n0.0,1.0\noops,1.0\n")
    with pytest.raises(PointFileError, match="line 3"):
        load_weighted_points(bad_value)

    bad_weight = tmp_path / "w.csv"
    bad_weight.write_text("x1,weight\n0.0,-2.0\n")
    with pytest.raises(PointFileError, match="line 2"):
        load_weighted_points(bad_weight)


def test_point_file_requires_data(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("x1,x2,weight\n")
    with pytest.raises(PointFileError):
        load_weighted_points(empty)
