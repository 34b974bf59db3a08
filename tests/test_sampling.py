import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wkmeans import core, sampling
from wkmeans.core import WeightedPointSet, min_squared_distances
from wkmeans.instances import chi6
from wkmeans.sampling import _COUNT_MAX_TERMS, RandomSource, searchsorted_rows
from wkmeans.verification import _draw

from conftest import make_points


@pytest.mark.parametrize("seed", [-1, True, False, 1.5, 2.0, "3", None])
def test_random_source_refuses_seeds_that_are_not_nonnegative_ints(seed):
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
        RandomSource(seed)


def test_random_source_accepts_numpy_integer_seeds():
    assert np.array_equal(
        RandomSource(np.int64(5)).derive(2).generator().random(4),
        RandomSource(5).derive(2).generator().random(4),
    )


def test_generator_stream_is_pinned():
    """The first doubles of two streams, bit for bit.

    Every seeded output in the package is drawn from these streams (PCG64
    on SeedSequence(seed, spawn_key=stream)), so a change of generator or
    of stream derivation fails here by name.
    """
    root = [x.hex() for x in RandomSource(0).generator().random(4)]
    assert root == [
        "0x1.461fd79fb3850p-1",
        "0x1.1442f7e20b674p-2",
        "0x1.4fa7b529d9bd0p-5",
        "0x1.0ec9ed84d0bc0p-6",
    ]
    derived = [x.hex() for x in RandomSource(7).derive(1, 3).generator().random(4)]
    assert derived == [
        "0x1.f2a4225b9ed74p-3",
        "0x1.21ae598ad3a38p-2",
        "0x1.cb9c6a4ccf228p-2",
        "0x1.7063f0b578e50p-2",
    ]


def test_identical_streams_replay_identically():
    w = np.array([1.0, 2.0, 3.0])
    a = _draw(w, 100, RandomSource(9, (4,)).generator())
    b = _draw(w, 100, RandomSource(9, (4,)).generator())
    sib = _draw(w, 100, RandomSource(9, (5,)).generator())
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
    _draw(w, 13, g1)
    g2 = RandomSource(77).generator()
    g2.random(13)
    assert g1.random() == g2.random()


def _d2_masses(P, centers):
    return P.weights * min_squared_distances(P.coords, centers)


def test_d2_weights_vector_on_fixed_instance():
    P, center = chi6()
    np.testing.assert_array_equal(_d2_masses(P, center), [4.0, 2.0, 0.0, 0.5, 13.5, 90.0])


def test_d2_draws_never_pick_zero_mass_points():
    P, center = chi6()
    idx = _draw(_d2_masses(P, center), 5000, RandomSource(13).generator())
    assert not np.any(idx == 2)


def test_d2_draw_frequencies_roughly_match():
    P, center = chi6()
    draws = 40_000
    w = _d2_masses(P, center)
    idx = _draw(w, draws, RandomSource(99).generator())
    freq = np.bincount(idx, minlength=P.n) / draws
    expect = w / math.fsum(w)
    sigma = np.sqrt(np.maximum(expect * (1.0 - expect), 1e-12) / draws)
    assert np.all(np.abs(freq - expect) <= 5.0 * sigma)


def test_normalized_probabilities_are_scale_invariant():
    P = make_points(21, 12, 3)
    centers = P.coords[:2] + 0.05
    base = _d2_masses(P, centers)
    p0 = base / math.fsum(base)

    lam = WeightedPointSet(P.coords, P.weights * 7.5)
    w1 = _d2_masses(lam, centers)
    np.testing.assert_allclose(w1 / math.fsum(w1), p0, rtol=1e-12)

    s = 3.0
    scaled = WeightedPointSet(P.coords * s, P.weights)
    w2 = _d2_masses(scaled, centers * s)
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


def test_sample_index_matches_inverse_cdf_partition():
    w = np.array([0.25, 0.5, 0.25])
    counts = np.bincount(
        _draw(w, 20_000, RandomSource(5).generator()), minlength=3
    )
    assert abs(counts[1] / 20_000 - 0.5) < 0.02


def _per_column_searchsorted(cum, targets):
    return np.stack(
        [np.searchsorted(c, t, side="right") for c, t in zip(cum.T, targets.T)], axis=1
    )


@pytest.mark.deep
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
    st.booleans(),
)
def test_searchsorted_rows_matches_per_row_searchsorted(seed, b, n, m, kind, shared, f_order):
    """Exact side="right" search per column, whatever the column's shape.

    Running sums are (n, b), one per column, in C order or in F order with
    the columns along memory (as the PTAS evaluator stores a block with
    more points than rows), and targets (m, b). Lengths fall on both sides
    of the count's cutoff. A shared (n, 1) running sum is searched by every
    column of targets.
    """
    gen = RandomSource(seed).generator()
    if kind == "random":
        w = gen.random((n, b))
    elif kind == "ties":
        w = np.floor(gen.random((n, b)) * 3.0)  # many equal CDF steps
    else:
        w = gen.random((n, b)) * (gen.random((n, b)) < 0.3)  # runs of zeros
    w[:, 0] = 0.0  # an all-zero column
    cum = np.cumsum(w, axis=0)
    totals = cum[-1:]
    on_entries = np.take_along_axis(
        cum, np.floor(gen.random((m, b)) * n).astype(np.intp), axis=0
    )
    targets = np.concatenate(
        [gen.random((m, b)) * totals, on_entries, np.zeros((1, b)), totals], axis=0
    )
    if shared:
        cum = np.ascontiguousarray(cum[:, -1:])
        want = _per_column_searchsorted(np.broadcast_to(cum, (n, b)), targets)
    else:
        want = _per_column_searchsorted(cum, targets)
    if f_order:
        cum = np.asfortranarray(cum)
    got = searchsorted_rows(cum, targets)
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("cutoff", [0, 24, 1 << 20])
@pytest.mark.parametrize("n", [1, 24, 25, 300])
def test_searchsorted_rows_shared_row_over_many_targets(monkeypatch, cutoff, n):
    """One (n, 1) running sum searched by 1000 columns of targets, by either search.

    The cutoff is patched: 0 halves every sum, 24 counts n = 24 and halves
    n = 25, and 2^20 counts n = 300, past 255, beyond a uint8 count.
    """
    monkeypatch.setattr(sampling, "_COUNT_MAX_TERMS", cutoff)
    gen = RandomSource(n).generator()
    cum = np.cumsum(np.floor(gen.random((n, 1)) * 3.0), axis=0)
    # Whole and half steps: targets on the entries, between them and past the end.
    targets = np.floor(gen.random((4, 1000)) * 2.0 * (cum[-1, 0] + 2.0)) / 2.0
    got = searchsorted_rows(cum, targets)
    assert got.dtype == np.intp and got.shape == targets.shape
    np.testing.assert_array_equal(got, np.searchsorted(cum[:, 0], targets, side="right"))


def test_searchsorted_rows_on_fixed_steps():
    cum = np.array([[0.0, 0.0, 1.0, 1.0, 3.0], [0.0, 0.0, 0.0, 0.0, 0.0]]).T
    targets = np.array([[0.0, 0.5, 1.0, 2.9, 3.0], [0.0, 0.0, 0.0, 0.0, 0.0]]).T
    np.testing.assert_array_equal(
        searchsorted_rows(cum, targets), np.array([[2, 2, 4, 4, 5], [5, 5, 5, 5, 5]]).T
    )


@pytest.mark.parametrize("layout", ["C", "F", "shared"])
@pytest.mark.parametrize("n", [_COUNT_MAX_TERMS, _COUNT_MAX_TERMS + 1])
def test_searchsorted_rows_counts_target_rows_in_blocks(n, layout):
    """At the count's cutoff and one past it, on targets spanning many blocks.

    The count compares `cum` with a block of target rows at a time; 40 rows
    of 1024 columns take over twice the 2^19-byte budget, so the count runs
    at least three blocks. Steps of 0, 1 and 2 give equal entries, and half
    of the targets sit on entries.
    """
    b, m = 1024, 40
    assert m * (n + 1) * b > 2 * 8 * core._BLOCK_VALUES
    gen = RandomSource(n).generator()
    cum = np.cumsum(np.floor(gen.random((n, 1 if layout == "shared" else b)) * 3.0), axis=0)
    full = np.broadcast_to(cum, (n, b))
    picks = np.floor(gen.random((m // 2, b)) * n).astype(np.intp)
    on_entries = np.take_along_axis(full, picks, axis=0)
    targets = np.concatenate([gen.random((m // 2, b)) * (full[-1] + 1.0), on_entries])
    if layout == "F":
        cum = np.asfortranarray(cum)
    got = searchsorted_rows(cum, targets)
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, _per_column_searchsorted(full, targets))


def test_searchsorted_rows_count_memory_is_bounded():
    """One count at the cutoff allocates its output and one target block.

    2,000 target rows of 1024 columns at n = _COUNT_MAX_TERMS would take a
    compare block of over 100 MB in one piece; the count stays within the
    budget of `core._BLOCK_VALUES` float64s' worth of bytes beside the
    (m, b) output.
    """
    n, m, b = _COUNT_MAX_TERMS, 2000, 1024
    gen = RandomSource(4).generator()
    cum = np.cumsum(gen.random((n, b)), axis=0)
    targets = gen.random((m, b)) * cum[-1]
    tracemalloc.start()
    try:
        got = searchsorted_rows(cum, targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * core._BLOCK_VALUES + got.nbytes
    np.testing.assert_array_equal(got[:8], _per_column_searchsorted(cum, targets[:8]))
