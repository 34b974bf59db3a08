import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wkmeans import sampling
from wkmeans.core import WeightedPointSet, min_squared_distances
from wkmeans.instances import chi6
from wkmeans.sampling import (
    _COUNT_MAX_TERMS,
    RandomSource,
    d2_weights,
    sample_indices,
    searchsorted_rows,
)

from conftest import make_points


def test_sampling_weights_reject_negative_and_nonfinite():
    gen = RandomSource(0).generator()
    with pytest.raises(ValueError):
        sample_indices(np.array([1.0, -0.5]), 1, gen)
    with pytest.raises(ValueError):
        sample_indices(np.array([np.inf, 1.0]), 1, gen)


def test_zero_total_is_rejected():
    with pytest.raises(ValueError, match="all sampling weights are zero"):
        sample_indices(np.zeros(4), 1, RandomSource(0).generator())


def test_total_past_float64_is_rejected():
    """Finite masses whose total overflows: a ValueError names the total."""
    with pytest.raises(ValueError, match="total of the sampling weights overflows float64"):
        sample_indices(np.array([1e308, 1e308]), 1, RandomSource(0).generator())


def test_identical_streams_replay_identically():
    w = np.array([1.0, 2.0, 3.0])
    a = sample_indices(w, 100, RandomSource(9, (4,)).generator())
    b = sample_indices(w, 100, RandomSource(9, (4,)).generator())
    sib = sample_indices(w, 100, RandomSource(9, (5,)).generator())
    assert np.array_equal(a, b)
    assert np.any(a != sib)


def test_derive_chains_give_distinct_streams():
    base = RandomSource(31)
    one = base.derive(0).generator().random(8)
    two = base.derive(1).generator().random(8)
    nested = base.derive(0, 1).generator().random(8)
    assert not np.array_equal(one, two)
    assert not np.array_equal(one, nested)


def test_each_draw_consumes_one_uniform():
    w = np.array([2.0, 1.0, 1.0])
    g1 = RandomSource(77).generator()
    sample_indices(w, 13, g1)
    g2 = RandomSource(77).generator()
    g2.random(13)
    assert g1.random() == g2.random()


def test_d2_weights_vector_on_fixed_instance():
    P, center = chi6()
    w = d2_weights(P, center)
    np.testing.assert_array_equal(w, [4.0, 2.0, 0.0, 0.5, 13.5, 90.0])


def test_d2_draw_with_zero_coverage_raises():
    P = WeightedPointSet(np.array([[0.0, 0.0], [1.0, 1.0]]), np.ones(2))
    with pytest.raises(ValueError, match="all sampling weights are zero"):
        sample_indices(d2_weights(P, P.coords), 5, RandomSource(0).generator())


def test_d2_draws_never_pick_zero_mass_points():
    P, center = chi6()
    idx = sample_indices(d2_weights(P, center), 5000, RandomSource(13).generator())
    assert not np.any(idx == 2)


def test_d2_draw_frequencies_roughly_match():
    P, center = chi6()
    draws = 40_000
    w = d2_weights(P, center)
    idx = sample_indices(w, draws, RandomSource(99).generator())
    freq = np.bincount(idx, minlength=P.n) / draws
    expect = w / math.fsum(w)
    sigma = np.sqrt(np.maximum(expect * (1.0 - expect), 1e-12) / draws)
    assert np.all(np.abs(freq - expect) <= 5.0 * sigma)


def test_normalized_probabilities_are_scale_invariant():
    P = make_points(21, 12, 3)
    centers = P.coords[:2] + 0.05
    base = d2_weights(P, centers)
    p0 = base / math.fsum(base)

    lam = WeightedPointSet(P.coords, P.weights * 7.5)
    w1 = d2_weights(lam, centers)
    np.testing.assert_allclose(w1 / math.fsum(w1), p0, rtol=1e-12)

    s = 3.0
    scaled = WeightedPointSet(P.coords * s, P.weights)
    w2 = d2_weights(scaled, centers * s)
    np.testing.assert_allclose(w2 / math.fsum(w2), p0, rtol=1e-12)


@given(st.integers(0, 5_000), st.integers(1, 6))
def test_incremental_cache_matches_direct_recomputation(seed, rounds):
    """Folding centers in one at a time, as seeding does, is exact."""
    P = make_points(seed, 25, 2)
    gen = RandomSource(seed ^ 0xABC).generator()
    centers = gen.random((rounds, 2))
    cache = np.full(P.n, np.inf)
    for c in centers:
        np.minimum(cache, min_squared_distances(P.coords, c), out=cache)
    np.testing.assert_array_equal(cache, min_squared_distances(P.coords, centers))


class _StubGenerator:
    """Returns one fixed uniform for every draw."""

    def __init__(self, u):
        self.u = u

    def random(self, count):
        return np.full(count, self.u)


def test_sample_indices_overshoot_lands_on_last_positive_weight():
    """The fsum total exceeds the running sum's last entry, 1e16 here."""
    w = np.array([1e16, 1.0, 1.0, 0.0])
    assert math.fsum(w) > np.cumsum(w)[-1]
    idx = sample_indices(w, 3, _StubGenerator(1.0 - 2.0**-53))
    assert idx.tolist() == [2, 2, 2]
    assert sample_indices(w, 1, _StubGenerator(0.0)).tolist() == [0]


def test_sample_index_matches_inverse_cdf_partition():
    w = np.array([0.25, 0.5, 0.25])
    counts = np.bincount(
        sample_indices(w, 20_000, RandomSource(5).generator()), minlength=3
    )
    assert abs(counts[1] / 20_000 - 0.5) < 0.02


def _per_row_searchsorted(cum, targets):
    return np.stack(
        [np.searchsorted(c, t, side="right") for c, t in zip(cum, targets)]
    )


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.one_of(
        st.sampled_from([_COUNT_MAX_TERMS, _COUNT_MAX_TERMS + 1]),
        st.integers(1, 3 * _COUNT_MAX_TERMS),
    ),
    st.integers(1, 9),
    st.sampled_from(["random", "ties", "zero-runs"]),
    st.booleans(),
)
def test_searchsorted_rows_matches_per_row_searchsorted(seed, b, n, m, kind, shared):
    """Exact side="right" search per row, whatever the row's shape.

    Row lengths fall on both sides of the count's cutoff. A shared (1, n)
    running sum is searched by every row of targets.
    """
    gen = RandomSource(seed).generator()
    if kind == "random":
        w = gen.random((b, n))
    elif kind == "ties":
        w = np.floor(gen.random((b, n)) * 3.0)  # many equal CDF steps
    else:
        w = gen.random((b, n)) * (gen.random((b, n)) < 0.3)  # runs of zeros
    w[0] = 0.0  # an all-zero row
    cum = np.cumsum(w, axis=1)
    totals = cum[:, -1:]
    on_entries = np.take_along_axis(
        cum, np.floor(gen.random((b, m)) * n).astype(np.intp), axis=1
    )
    targets = np.concatenate(
        [gen.random((b, m)) * totals, on_entries, np.zeros((b, 1)), totals], axis=1
    )
    if shared:
        cum = cum[-1:]
        want = _per_row_searchsorted(np.broadcast_to(cum, (b, n)), targets)
    else:
        want = _per_row_searchsorted(cum, targets)
    got = searchsorted_rows(cum, targets)
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("cutoff", [0, _COUNT_MAX_TERMS, 1 << 20])
@pytest.mark.parametrize("n", [1, _COUNT_MAX_TERMS, _COUNT_MAX_TERMS + 1, 300])
def test_searchsorted_rows_shared_row_over_many_targets(monkeypatch, cutoff, n):
    """One running sum searched by 1000 rows of targets, by either search.

    n = 300 counts past 255, beyond a uint8 count, when the cutoff is 2^20.
    """
    monkeypatch.setattr(sampling, "_COUNT_MAX_TERMS", cutoff)
    gen = RandomSource(n).generator()
    cum = np.cumsum(np.floor(gen.random((1, n)) * 3.0), axis=1)
    # Whole and half steps: targets on the entries, between them and past the end.
    targets = np.floor(gen.random((1000, 4)) * 2.0 * (cum[0, -1] + 2.0)) / 2.0
    got = searchsorted_rows(cum, targets)
    assert got.dtype == np.intp and got.shape == targets.shape
    np.testing.assert_array_equal(got, np.searchsorted(cum[0], targets, side="right"))


def test_searchsorted_rows_on_fixed_steps():
    cum = np.array([[0.0, 0.0, 1.0, 1.0, 3.0], [0.0, 0.0, 0.0, 0.0, 0.0]])
    targets = np.array([[0.0, 0.5, 1.0, 2.9, 3.0], [0.0, 0.0, 0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(
        searchsorted_rows(cum, targets), [[2, 2, 4, 4, 5], [5, 5, 5, 5, 5]]
    )
