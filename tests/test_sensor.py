import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from scipy.spatial import ConvexHull, QhullError
from scipy.stats import multivariate_normal

from wkmeans import core, sensor
from wkmeans.core import load_weighted_points, save_weighted_points
from wkmeans.sensor import (
    GaussianMixtureDensity,
    RasterDensity,
    RegionFileError,
    SensorRegion,
    UniformDensity,
    coverage_cost,
    decomposition_check,
    discretize,
    load_region,
    place_sensors,
)

UNIT = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


_ANGLES = np.pi + np.arange(6) * np.pi / 3.0
HEXAGON = 0.5 + 0.5 * np.column_stack([np.cos(_ANGLES), np.sin(_ANGLES)])


def _area(poly: np.ndarray) -> float:
    # Shoelace about the first vertex, so it also holds at large offsets.
    x, y = (poly - poly[0]).T
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def test_region_validation():
    with pytest.raises(ValueError, match="counter-clockwise"):
        SensorRegion(UNIT[::-1], UniformDensity())
    with pytest.raises(ValueError, match="convex"):
        SensorRegion(
            np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.2], [2.0, 2.0], [0.0, 2.0]]),
            UniformDensity(),
        )
    with pytest.raises(ValueError, match="degenerate"):
        SensorRegion(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), UniformDensity())
    with pytest.raises(ValueError, match="at least 3"):
        SensorRegion(np.array([[0.0, 0.0], [1.0, 0.0]]), UniformDensity())


def _clip_one_square(square: np.ndarray, polygon: np.ndarray) -> np.ndarray | None:
    """One square through the batched clipper: CCW vertices, or None when empty."""
    verts, count = sensor._clip_squares(square[None], polygon)
    return verts[0, : count[0]] if count[0] else None


def test_clip_cell_cases():
    inside = np.array([[0.2, 0.2], [0.4, 0.2], [0.4, 0.4], [0.2, 0.4]])
    clipped = _clip_one_square(inside, UNIT)
    assert clipped is not None
    assert _area(clipped) == pytest.approx(0.04, rel=1e-12)

    outside = inside + 5.0
    assert _clip_one_square(outside, UNIT) is None

    # Square straddling the hypotenuse of the reference triangle: the piece
    # with x + y <= 1 is the corner triangle (0.4,0.4)-(0.6,0.4)-(0.4,0.6).
    straddle = np.array([[0.4, 0.4], [0.9, 0.4], [0.9, 0.9], [0.4, 0.9]])
    piece = _clip_one_square(straddle, TRI)
    assert piece is not None
    assert _area(piece) == pytest.approx(0.02, rel=1e-9)

    # A cell sharing edges with the region keeps its full area.
    corner = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
    kept = _clip_one_square(corner, UNIT)
    assert kept is not None
    assert _area(kept) == pytest.approx(0.25, rel=1e-12)


def test_normalize_density_unit_mass():
    """place_sensors normalizes the density by the exact mass of the mesh it
    builds: the reported cells weigh 1 in all, to 1e-12, and their masses,
    inertias and coverage are the unnormalized mesh's over that mass. On the
    bump hexagon a 64-node rule over the whole region, the normalization
    this replaced, left the mesh weighing 0.9779."""
    for region, grid in ((SensorRegion(TRI, UniformDensity()), 1.0), (_bumps_region(), 0.05)):
        report = place_sensors(region, 2, 0.5, grid, solver="kmeanspp-lloyd", master_seed=3)
        mesh = discretize(region, grid)
        mass = math.fsum(mesh.weights.tolist())
        assert abs(report.discretization.as_point_set.total_weight - 1.0) <= 1e-12
        assert report.discretization.vertices.tobytes() == mesh.vertices.tobytes()
        assert report.discretization.weights.tobytes() == (mesh.weights / mass).tobytes()
        assert report.inertia_sum == pytest.approx(mesh.inertia_sum / mass, rel=1e-15)
        raw = coverage_cost(region, report.centers, mesh)
        assert report.coverage == raw / mass


def test_normalize_density_zero_mass():
    flat = RasterDensity((0.0, 0.0), 1.0, np.zeros((2, 2)))
    for place in (
        lambda: discretize(SensorRegion(UNIT, flat), 0.5),
        lambda: place_sensors(SensorRegion(UNIT, flat), 1, 0.5, 0.5),
    ):
        with pytest.raises(ValueError, match="^density has zero mass on the region$"):
            place()


def test_discretize_unit_square_half_grid(unit_square):
    disc = discretize(unit_square, 0.5)
    assert len(disc.cells) == 4
    assert disc.starts.tolist() == [0, 4, 8, 12, 16]
    assert disc.vertices.shape == (16, 2)
    assert not disc.vertices.flags.writeable and not disc.starts.flags.writeable
    assert all(np.ptp(cell, axis=0).tolist() == [0.5, 0.5] for cell in disc.cells)
    assert disc.weights == pytest.approx(np.full(4, 0.25), rel=1e-12)
    expected = {(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)}
    assert {tuple(np.round(c, 12)) for c in disc.coms} == expected
    # Per-cell inertia of a uniform square of side s is s^4/6.
    assert disc.inertia_sum == pytest.approx(1.0 / 24.0, rel=1e-12)
    with pytest.raises(ValueError, match="positive"):
        discretize(unit_square, 0.0)


def test_coverage_cost_one_center_exact_on_mesh(unit_square):
    # The integrand is quadratic for one center, and no cell is cut: every
    # cell is priced as w |x - c|^2 + J from moments that are exact for
    # uniform density.
    mesh = discretize(unit_square, 0.5)
    val = coverage_cost(unit_square, np.array([[0.5, 0.5]]), mesh)
    assert val == pytest.approx(1.0 / 6.0, abs=1e-14)


def test_coverage_cost_mesh_uses_the_mesh_quadrature_order(unit_square):
    """A mesh is priced with the fixed order its moments were taken with."""
    centers = np.array([[0.31, 0.47], [0.69, 0.58]])
    mesh = discretize(unit_square, 0.25)
    assert coverage_cost(unit_square, centers, mesh=mesh) == pytest.approx(
        _integrated_coverage(unit_square, mesh, centers), rel=1e-12
    )


def test_coverage_cost_split_pair_exact_on_mesh(unit_square):
    # Voronoi boundary x = 0.5 lies on mesh lines, so the cell-by-cell
    # quadrature is exact: two 0.5 x 1 rectangles, each area*(w^2+h^2)/12.
    centers = np.array([[0.25, 0.5], [0.75, 0.5]])
    mesh = discretize(unit_square, 0.5)
    val = coverage_cost(unit_square, centers, mesh=mesh)
    assert val == pytest.approx(5.0 / 48.0, abs=1e-12)


def test_coverage_cost_requires_centers(unit_square):
    with pytest.raises(ValueError, match="centers"):
        coverage_cost(unit_square, np.empty((0, 2)), discretize(unit_square, 0.5))


def test_discretize_rejects_non_finite_grid_eps(unit_square):
    for grid_eps in (math.nan, math.inf, -math.inf, -0.5):
        with pytest.raises(ValueError, match="grid_eps must be positive and finite"):
            discretize(unit_square, grid_eps)


def test_decomposition_aligned_is_exact(unit_square):
    rep = decomposition_check(unit_square, 0.5, np.array([[0.5, 0.5]]))
    assert rep.lhs == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert rep.quantization_cost == pytest.approx(0.125, abs=1e-12)
    assert rep.inertia_sum == pytest.approx(1.0 / 24.0, abs=1e-12)
    assert rep.gap <= 1e-12

    pair = decomposition_check(unit_square, 0.5, np.array([[0.25, 0.5], [0.75, 0.5]]))
    assert pair.rhs == pytest.approx(5.0 / 48.0, abs=1e-12)
    assert pair.gap <= 1e-12


def test_decomposition_gap_shrinks_under_refinement(unit_square):
    centers = np.array([[0.31, 0.47], [0.69, 0.58]])
    coarse = decomposition_check(unit_square, 0.2, centers)
    fine = decomposition_check(unit_square, 0.1, centers)
    assert coarse.gap > 0.0
    assert fine.gap < coarse.gap


def test_gaussian_density_peaks_at_mean():
    bump = GaussianMixtureDensity(
        np.array([[0.5, 0.5]]), np.array([[[0.01, 0.0], [0.0, 0.01]]]), np.array([1.0])
    )
    vals = bump.evaluate(np.array([[0.5, 0.5], [0.0, 0.0]]))
    assert vals[0] > vals[1]
    with pytest.raises(ValueError, match="align"):
        GaussianMixtureDensity(
            np.array([[0.5, 0.5]]),
            np.array([[[0.01, 0.0], [0.0, 0.01]]]),
            np.array([1.0, 2.0]),
        )


_BUMP_MEANS = np.array([[0.3, 0.3], [0.6, 0.6]])


@pytest.mark.parametrize(
    "covs, message",
    [
        (np.full((2, 1, 1), 0.01), "shape"),
        (np.ones((2, 2, 3)), "shape"),
        (np.array([np.eye(2) * 0.01, [[0.02, 0.01], [0.0, 0.02]]]), "bump 1 is not symmetric"),
        (np.array([np.eye(2) * 0.01, [[0.01, 0.02], [0.02, 0.01]]]), "bump 1 is not positive definite"),
        (np.array([np.zeros((2, 2)), np.eye(2)]), "bump 0 is not positive definite"),
        (np.array([np.eye(2), [[1.0, 1.0], [1.0, 1.0]]]), "bump 1 is not positive definite"),
    ],
    ids=["1x1", "2x3", "asymmetric", "indefinite", "zero", "singular"],
)
def test_gaussian_mixture_rejects_bad_covariances(tmp_path, covs, message):
    """Each bad covariance fails at construction, and as a region file error on load."""
    with pytest.raises(ValueError, match=message):
        GaussianMixtureDensity(_BUMP_MEANS, covs, np.ones(2))
    density = {
        "type": "gaussian_mixture",
        "means": _BUMP_MEANS.tolist(),
        "covariances": covs.tolist(),
        "mixing": [1.0, 1.0],
    }
    path = tmp_path / "region.json"
    path.write_text(json.dumps({"polygon": UNIT.tolist(), "density": density}))
    with pytest.raises(RegionFileError, match=message):
        load_region(path)


def _scipy_mixture(density: GaussianMixtureDensity, pts: np.ndarray) -> np.ndarray:
    return sum(
        mix * multivariate_normal.pdf(pts, mean=mean, cov=cov)
        for mean, cov, mix in zip(density.means, density.covariances, density.mixing)
    )


@st.composite
def _spd(draw):
    """A 2x2 SPD covariance: isotropic, axis-aligned anisotropic or correlated."""
    kind = draw(st.sampled_from(["isotropic", "anisotropic", "correlated"]))
    sd = draw(st.floats(1e-3, 10.0))
    if kind == "isotropic":
        return np.eye(2) * sd * sd
    ratio = draw(st.floats(0.1, 1.0))
    cov = np.diag([sd * sd, (sd * ratio) ** 2])
    if kind == "correlated":
        angle = draw(st.floats(0.0, math.pi))
        rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        cov = rot @ cov @ rot.T
        cov = 0.5 * (cov + cov.T)
    return cov


@given(
    st.lists(
        st.tuples(_spd(), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.1, 10.0)),
        min_size=1,
        max_size=3,
    ),
    st.sampled_from([0.0, 1.0, 1e3, 1e5, 1e6]),
    st.sampled_from([1, 4096]),
    st.integers(0, 2**32 - 1),
)
def test_gaussian_mixture_matches_scipy(bumps, offset, rows, seed):
    """The cached-factor evaluator equals a sum of scipy pdfs to 1e-13 relative.

    Bump means sit within a few of the first bump's standard deviations of
    each other, up to 1e6 from the origin, and the points within three of
    the first mean, so every point has non-negligible density.
    """
    cov0 = bumps[0][0]
    scale = math.sqrt(cov0[0, 0] + cov0[1, 1])
    base = np.array([offset, -0.5 * offset])
    means = np.array([base + scale * np.array([dx, dy]) for _, dx, dy, _ in bumps])
    density = GaussianMixtureDensity(
        means, np.array([b[0] for b in bumps]), np.array([b[3] for b in bumps])
    )
    gen = np.random.default_rng(seed)
    pts = means[0] + gen.uniform(-3.0, 3.0, (rows, 2)) @ np.linalg.cholesky(cov0).T
    got = density.evaluate(pts)
    want = _scipy_mixture(density, pts)
    assert got.shape == (rows,)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def _row_sum_mixture(density: GaussianMixtureDensity, pts: np.ndarray) -> np.ndarray:
    """The mixture with each exponent taken as a numpy row sum, z.sum(axis=1)."""
    out = np.zeros(pts.shape[0])
    for mean, white, height in zip(density.means, density._white, density._height):
        z = (pts - mean) @ white
        np.square(z, out=z)
        q = z.sum(axis=1)
        q *= -0.5
        np.exp(q, out=q)
        q *= height
        out += q
    return out


@pytest.mark.deep
@given(
    st.lists(
        st.tuples(_spd(), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.1, 10.0)),
        min_size=1,
        max_size=3,
    ),
    st.sampled_from([0.0, 1e5, 5e6]),
    st.integers(1, 4096),
    st.integers(0, 2**32 - 1),
)
def test_gaussian_mixture_bytes_match_row_sum(bumps, offset, rows, seed):
    """In the plane, the column-add exponent gives the row sum's bytes exactly."""
    cov0 = bumps[0][0]
    scale = math.sqrt(cov0[0, 0] + cov0[1, 1])
    base = np.array([offset, -0.5 * offset])
    means = np.array([base + scale * np.array([dx, dy]) for _, dx, dy, _ in bumps])
    density = GaussianMixtureDensity(
        means, np.array([b[0] for b in bumps]), np.array([b[3] for b in bumps])
    )
    gen = np.random.default_rng(seed)
    pts = means[0] + gen.uniform(-4.0, 4.0, (rows, 2)) @ np.linalg.cholesky(cov0).T
    assert density.evaluate(pts).tobytes() == _row_sum_mixture(density, pts).tobytes()


@pytest.mark.parametrize("d", [1, 3, 5, 7, 8, 12])
def test_gaussian_mixture_in_other_dimensions(d):
    """Under 8 coordinates the row sum's bytes; from 8 on, within 1e-13 of it.

    numpy sums a row of 8 or more values pairwise, the column adds go left
    to right, so there the two differ only by rounding.
    """
    gen = np.random.default_rng(d)
    means = gen.uniform(-1.0, 1.0, (2, d)) + 1e5
    factors = gen.uniform(-0.3, 0.3, (2, d, d)) + np.eye(d)
    density = GaussianMixtureDensity(
        means, factors @ factors.transpose(0, 2, 1), np.array([1.0, 0.5])
    )
    pts = means[0] + gen.uniform(-1.5, 1.5, (2000, d))
    got, want = density.evaluate(pts), _row_sum_mixture(density, pts)
    if d < 8:
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_densities_refuse_points_of_another_dimension():
    bump = GaussianMixtureDensity(
        np.array([[0.5, 0.5]]), np.array([[[0.01, 0.0], [0.0, 0.01]]]), np.array([1.0])
    )
    with pytest.raises(ValueError, match="points are 1-d, the mixture is 2-d"):
        bump.evaluate(np.array([[0.5], [0.0]]))
    with pytest.raises(ValueError, match="points are 3-d, the mixture is 2-d"):
        bump.evaluate(np.zeros((2, 3)))
    ras = RasterDensity((0.0, 0.0), 0.5, np.ones((2, 2)))
    with pytest.raises(ValueError, match="points are 3-d, the raster is 2-d"):
        ras.evaluate(np.array([[0.25, 0.25, 7.0]]))
    with pytest.raises(ValueError, match="points are 1-d, the raster is 2-d"):
        ras.evaluate(np.array([[0.25], [0.75]]))


def test_pricing_refuses_centers_of_another_dimension():
    """Centers are checked against the plane before they are moved to the local frame."""
    region = SensorRegion(UNIT + 3.0, UniformDensity())
    mesh = discretize(region, 0.5)
    for centers, d in (([], 0), ([[3.5, 3.5, 3.5]], 3)):
        message = f"points are 2-d, centers are {d}-d"
        with pytest.raises(ValueError, match=message):
            coverage_cost(region, centers, mesh)
        with pytest.raises(ValueError, match=message):
            decomposition_check(region, 0.5, centers)


def test_coverage_cost_matches_scipy_backed_density():
    """Meshing and pricing the bump hexagon agree with a scipy density to 1e-12."""

    class ScipyMixture:
        def __init__(self, density):
            self.density = density

        def evaluate(self, pts):
            return _scipy_mixture(self.density, np.atleast_2d(pts))

    ours = _bumps_region()
    theirs = SensorRegion(ours.polygon, ScipyMixture(ours.density))
    mesh = discretize(ours, 0.05)
    assert discretize(theirs, 0.05).inertia_sum == pytest.approx(mesh.inertia_sum, rel=1e-12)
    centers = np.array([[0.3, 0.3], [0.7, 0.6]])
    assert coverage_cost(ours, centers, mesh) == pytest.approx(
        coverage_cost(theirs, centers, mesh), rel=1e-12
    )


def test_raster_density_lookup():
    ras = RasterDensity((0.0, 0.0), 0.5, np.array([[1.0, 2.0], [3.0, 4.0]]))
    pts = np.array([[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [-1.0, 0.2]])
    assert ras.evaluate(pts).tolist() == [1.0, 2.0, 3.0, 0.0]
    with pytest.raises(ValueError, match="pixel_size"):
        RasterDensity((0.0, 0.0), 0.0, np.ones((2, 2)))
    with pytest.raises(ValueError, match="nonnegative"):
        RasterDensity((0.0, 0.0), 1.0, np.array([[1.0, -2.0]]))


def test_load_region_errors(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(RegionFileError, match="not valid JSON"):
        load_region(bad_json)

    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2, 3]")
    with pytest.raises(RegionFileError, match="JSON object"):
        load_region(arr)

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"polygon": UNIT.tolist()}))
    with pytest.raises(RegionFileError, match="'polygon' and 'density'"):
        load_region(missing)

    unknown = tmp_path / "unknown.json"
    unknown.write_text(
        json.dumps({"polygon": UNIT.tolist(), "density": {"type": "perlin"}})
    )
    with pytest.raises(RegionFileError, match="unknown density"):
        load_region(unknown)

    clockwise = tmp_path / "cw.json"
    clockwise.write_text(
        json.dumps(
            {"polygon": UNIT[::-1].tolist(), "density": {"type": "uniform"}}
        )
    )
    with pytest.raises(RegionFileError, match="counter-clockwise"):
        load_region(clockwise)


def test_load_region_roundtrip(tmp_path):
    doc = {
        "polygon": UNIT.tolist(),
        "density": {"type": "uniform", "level": 2.0},
        "grid_eps": 0.25,
    }
    path = tmp_path / "region.json"
    path.write_text(json.dumps(doc))
    region, grid_eps = load_region(path)
    assert grid_eps == 0.25
    assert region.density.level == 2.0
    np.testing.assert_allclose(region.polygon, UNIT)

    del doc["grid_eps"]
    path.write_text(json.dumps(doc))
    _, grid_eps = load_region(path)
    assert grid_eps is None


def test_export_discretization_roundtrip(tmp_path, unit_square):
    disc = discretize(unit_square, 0.5)
    path = tmp_path / "cells.csv"
    save_weighted_points(path, disc.as_point_set)
    loaded = load_weighted_points(path)
    np.testing.assert_allclose(loaded.coords, disc.as_point_set.coords)
    np.testing.assert_allclose(loaded.weights, disc.as_point_set.weights)


def test_place_sensors_lloyd_single_center(unit_square):
    report = place_sensors(
        unit_square, 1, 0.5, 0.25, solver="kmeanspp-lloyd", master_seed=4
    )
    np.testing.assert_allclose(report.centers.centers, [[0.5, 0.5]], atol=1e-9)
    # One center means no Voronoi boundary at all, so the split is exact.
    assert report.coverage == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert report.coverage == pytest.approx(
        report.quantization_cost + report.inertia_sum, abs=1e-12
    )
    assert report.warnings == ()
    meta = report.result.meta
    assert meta["n_cells"] == 16
    assert meta["n_clipped_cells"] == 0
    gap = report.coverage - report.quantization_cost - report.inertia_sum
    assert meta["decomposition_gap"] == gap
    assert meta["decomposition_gap_rel"] == gap / report.coverage
    assert abs(meta["decomposition_gap_rel"]) <= 1e-12


def test_place_sensors_ptas_stays_near_optimal(unit_square):
    report = place_sensors(
        unit_square,
        1,
        0.5,
        0.25,
        solver="ptas",
        master_seed=0,
        overrides={"tuple_budget": 200},
    )
    # 1.5x the optimal coverage 1/6 is the epsilon=0.5 promise.
    assert report.coverage <= 1.5 * (1.0 / 6.0) + 1e-12
    assert report.result.meta["solver"] == "ptas"
    assert report.result.meta["grid_eps"] == 0.25


def test_place_sensors_rejects_bad_arguments(unit_square):
    with pytest.raises(ValueError, match="unsupported solver"):
        place_sensors(unit_square, 1, 0.5, 0.25, solver="agglomerative")
    # The solver is refused before the density is normalized or discretized.
    density = _CountingDensity()
    with pytest.raises(ValueError, match="unsupported solver"):
        place_sensors(
            SensorRegion(UNIT, density), 1, 0.5, 0.25, solver="agglomerative"
        )
    # So is a k that is not a positive integer, and a bad seed, even for a
    # solver that would never build a random stream from it.
    for k in (0, 2.5, True):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            place_sensors(SensorRegion(UNIT, density), k, 0.5, 0.25)
    # threads changes nothing, but a count that is not a positive int is
    # still refused, whatever the solver.
    for threads in (0, 2.5, True):
        with pytest.raises(ValueError, match="threads must be a positive integer"):
            place_sensors(SensorRegion(UNIT, density), 1, 0.5, 0.25, "oracle", threads=threads)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        place_sensors(SensorRegion(UNIT, density), 1, 0.5, 0.25, solver="oracle", master_seed=-1)
    assert density.points == 0


def test_place_sensors_warns_on_coarse_grid(unit_square):
    """The coarse-grid notes land in report.warnings only; under the
    suite's warnings-as-errors filter a warnings.warn would fail here."""
    report = place_sensors(
        unit_square, 1, 0.5, 2.0, solver="kmeanspp-lloyd", master_seed=1
    )
    assert len(report.discretization.cells) == 1
    assert report.quantization_cost == pytest.approx(0.0, abs=1e-15)
    assert any("single-cell" in w for w in report.warnings)
    assert any("inertia" in w for w in report.warnings)


def _bumps_region() -> SensorRegion:
    """The hexagon under a three-bump Gaussian mixture."""
    return SensorRegion(
        HEXAGON,
        GaussianMixtureDensity(
            np.array([[0.3, 0.35], [0.7, 0.4], [0.5, 0.7]]),
            np.array([np.eye(2) * sd * sd for sd in (0.10, 0.14, 0.18)]),
            np.array([1.0, 0.6, 1.3]),
        ),
    )


@pytest.mark.parametrize("solver", ["ptas", "kmeanspp-lloyd"])
def test_place_sensors_ignores_density_scale(solver):
    """Scaling the mixture by a power of two leaves the placement's bytes alone.

    The scale is exact, and normalization divides it back out exactly, so
    centers, assignment and every cost are unchanged bit for bit.
    """
    base = _bumps_region().density
    outputs = []
    for scale in (1.0, 4.0, 2.0**-10):
        density = GaussianMixtureDensity(base.means, base.covariances, base.mixing * scale)
        report = place_sensors(
            SensorRegion(HEXAGON, density), 3, 0.5, 0.02, solver=solver,
            master_seed=5, overrides={"tuple_budget": 64},
        )
        outputs.append(
            (
                report.centers.centers.tobytes(),
                report.result.assignment.tobytes(),
                report.quantization_cost.hex(),
                report.coverage.hex(),
                report.inertia_sum.hex(),
            )
        )
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_region_accepts_geo_referenced_offsets():
    region = SensorRegion(UNIT + 1e8, UniformDensity())
    assert _area(region.polygon) == 1.0
    with pytest.raises(ValueError, match="convex"):
        SensorRegion(
            np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.2], [2.0, 2.0], [0.0, 2.0]]) + 1e8,
            UniformDensity(),
        )


@pytest.mark.parametrize("shift", [1e5, 1e6, 5e6])
def test_discretize_is_translation_safe(shift):
    """Shifting the region keeps every cell; areas move only by corner rounding."""
    grid = 0.02
    base = discretize(SensorRegion(HEXAGON, UniformDensity()), grid)
    moved = discretize(SensorRegion(HEXAGON + shift, UniformDensity()), grid)
    assert len(moved.cells) == len(base.cells)
    before = np.array([_area(p) for p in base.cells])
    after = np.array([_area(p) for p in moved.cells])
    # Cell corners are float64 values near the shift, so each corner (and
    # hence each cell's area, per unit of side) moves by about ulp(shift).
    np.testing.assert_allclose(after, before, rtol=0, atol=4 * np.spacing(shift) * grid)
    assert moved.as_point_set.total_weight == pytest.approx(
        3.0 * math.sqrt(3.0) / 8.0, rel=1e-7
    )


def _exact_area(poly: np.ndarray) -> Fraction:
    """Shoelace area of the float vertices in exact rational arithmetic."""
    v = [(Fraction(x), Fraction(y)) for x, y in poly.tolist()]
    return sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(v, v[1:] + v[:1])) / 2


# Relative excess of the summed cell areas over 3*sqrt(3)/8 at grid 0.02
# when each square's right and top sides were built as left + grid_eps.
_SEPARATE_SIDES_EXCESS = {1e5: 4.0e-10, 1e6: 2.0e-9, 5e6: 4.6e-8}


@pytest.mark.parametrize("shift", sorted(_SEPARATE_SIDES_EXCESS))
def test_grid_squares_share_edges_at_offsets(shift):
    """Neighbouring squares share edges bit for bit, so cell areas add up."""
    grid = 0.02
    poly = HEXAGON + shift
    disc = discretize(SensorRegion(poly, UniformDensity()), grid)
    x0, y0 = poly.min(axis=0)
    whole = {}
    for cell in disc.cells:
        (l, b), (r, t) = cell[0], cell[2]
        if np.array_equal(cell, [[l, b], [r, b], [r, t], [l, t]]):
            whole[round((l - x0) / grid), round((b - y0) / grid)] = (l, b, r, t)
    assert len(whole) > 1000
    pairs = 0
    for (ix, iy), (l, b, r, t) in whole.items():
        if (ix + 1, iy) in whole:
            assert whole[ix + 1, iy][0] == r
            pairs += 1
        if (ix, iy + 1) in whole:
            assert whole[ix, iy + 1][1] == t
            pairs += 1
    assert pairs > 2000
    total = math.fsum(_area(p) for p in disc.cells)
    exact = 3.0 * math.sqrt(3.0) / 8.0
    assert abs(total - exact) <= 0.1 * _SEPARATE_SIDES_EXCESS[shift] * exact
    # Against the shifted hexagon's own (rounded-vertex) area, the cells miss
    # by less than one ulp(shift) wide strip along the perimeter.
    assert abs(Fraction(total) - _exact_area(poly)) <= 3.0 * np.spacing(shift)


@pytest.mark.parametrize("shift", [1e5, 5e6])
def test_decomposition_split_is_translation_safe(shift):
    """The analytic 1/6 = 1/8 + 1/24 split holds to 1e-6 relative far from the origin."""
    region = SensorRegion(UNIT + shift, UniformDensity())
    rep = decomposition_check(region, 0.5, np.array([[0.5, 0.5]]) + shift)
    assert rep.gap <= 1e-6 * rep.lhs
    assert rep.lhs == pytest.approx(1.0 / 6.0, rel=1e-6)
    assert rep.quantization_cost == pytest.approx(0.125, rel=1e-6)
    assert rep.inertia_sum == pytest.approx(1.0 / 24.0, rel=1e-6)


def _reference_clip(
    square: np.ndarray, polygon: np.ndarray, paths: set | None = None
) -> np.ndarray | None:
    """Scalar Sutherland-Hodgman on Python lists, one square at a time.

    The oracle for the batched clipper: the same side test, slack, crossing
    formula (clamped to the segment) and cleanup, written vertex by vertex.
    When `paths` is given it collects the cleanup rules that fired: "empty"
    (an edge cut everything away), "near-duplicate", "wrap" (a closing vertex
    popped) and "area".
    """
    square = np.asarray(square, dtype=np.float64)
    side_len = float(square[:, 0].max() - square[:, 0].min())
    slack = sensor._inside_slack(polygon, side_len).tolist()
    tiny = 1e-14 * max(sensor._extent(polygon), side_len)
    paths = set() if paths is None else paths
    verts = polygon.tolist()
    subject = [tuple(v) for v in square.tolist()]
    for i, (ax, ay) in enumerate(verts):
        if not subject:
            paths.add("empty")
            return None
        bx, by = verts[(i + 1) % len(verts)]
        ex, ey = bx - ax, by - ay
        sides = [ex * (p[1] - ay) - ey * (p[0] - ax) for p in subject]
        clipped = []
        for j, cur in enumerate(subject):
            prev = subject[j - 1]
            s_cur, s_prev = sides[j], sides[j - 1]
            cur_in = s_cur >= -slack[i]
            prev_in = s_prev >= -slack[i]
            if cur_in != prev_in:
                denom = s_prev - s_cur
                if abs(denom) > 0.0:
                    t = min(max(s_prev / denom, 0.0), 1.0)
                    clipped.append(
                        (
                            prev[0] + t * (cur[0] - prev[0]),
                            prev[1] + t * (cur[1] - prev[1]),
                        )
                    )
            if cur_in:
                clipped.append(cur)
        subject = clipped
    if not subject:
        paths.add("empty")
    if len(subject) < 3:
        return None
    out = [subject[0]]
    for v in subject[1:]:
        if abs(v[0] - out[-1][0]) > tiny or abs(v[1] - out[-1][1]) > tiny:
            out.append(v)
        else:
            paths.add("near-duplicate")
    while len(out) > 1 and (
        abs(out[0][0] - out[-1][0]) <= tiny and abs(out[0][1] - out[-1][1]) <= tiny
    ):
        paths.add("wrap")
        out.pop()
    if len(out) < 3:
        return None
    poly = np.array(out)
    if sensor._polygon_area(poly) < 1e-12 * side_len * side_len:
        paths.add("area")
        return None
    return poly


def _clip_every_square(poly: np.ndarray, grid_eps: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Reference grid: (square, piece) for every square, row-major, empty ones left out."""
    x0, y0 = float(poly[:, 0].min()), float(poly[:, 1].min())
    nx = max(1, math.ceil((float(poly[:, 0].max()) - x0) / grid_eps - 1e-12))
    ny = max(1, math.ceil((float(poly[:, 1].max()) - y0) / grid_eps - 1e-12))
    xs = x0 + np.arange(nx + 1) * grid_eps
    ys = y0 + np.arange(ny + 1) * grid_eps
    out = []
    for iy in range(ny):
        for ix in range(nx):
            (ax, bx), (ay, by) = xs[ix : ix + 2], ys[iy : iy + 2]
            square = np.array([[ax, ay], [bx, ay], [bx, by], [ax, by]])
            piece = _reference_clip(square, poly)
            if piece is not None:
                out.append((square, piece))
    return out


def _is_changed(square: np.ndarray, piece: np.ndarray) -> bool:
    return piece.shape != square.shape or not np.array_equal(piece, square)


_LATTICE = st.tuples(st.integers(0, 16), st.integers(0, 16)).map(
    lambda p: (p[0] / 8.0, p[1] / 8.0)
)
# Lattice vertices nudged to just inside or just outside the clip slack
# (1e-12 times the extent) put grid corners on either side of it.
_NUDGE = st.sampled_from([0.0, 4e-13, -4e-13, 4e-12, -4e-12])
_NUDGED = st.tuples(_LATTICE, _NUDGE, _NUDGE).map(
    lambda p: (p[0][0] + p[1], p[0][1] + p[2])
)
_FREE = st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0))


@pytest.mark.deep
@given(
    st.lists(st.one_of(_LATTICE, _NUDGED, _FREE), min_size=3, max_size=10),
    st.sampled_from([0.125, 0.1, 0.25, 0.3, 0.5, 3.0]),
    st.sampled_from([0.0, 0.37, 1e5, 5e6]),
)
# Both ends of a crossing within the slack on one side of the exact line: an
# unclamped crossing put a sliver at x = 0.25..0.3375 into [0, 0.125]^2.
@example([(0.25, 0.125), (0.0, 4e-13), (1.125, 0.125000000004)], 0.125, 0.0)
def test_bulk_classifier_matches_clip_cell(points, grid_eps, shift):
    """The classified and batch-clipped grid equals the scalar oracle on every square.

    Squares kept whole equal their clip, dropped ones clip to None, and the
    boundary squares' pieces and changed flags match bytewise. Every piece
    lies in its square, within the side test's slack plus a few ulps.
    """
    pts = np.array(points)
    try:
        hull = ConvexHull(pts)
    except QhullError:
        assume(False)
    poly = pts[hull.vertices] + shift
    vertices, counts, changed = sensor._clip_grid(poly, grid_eps)
    got = np.split(vertices, np.cumsum(counts))[:-1]
    want = _clip_every_square(poly, grid_eps)
    assert len(got) == len(want) == changed.shape[0]
    tol = 1e-12 * max(sensor._extent(poly), grid_eps) + 4 * np.spacing(np.abs(poly).max())
    for g, (square, w), flag in zip(got, want, changed.tolist()):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
        assert flag == _is_changed(square, w)
        assert (g >= square.min(axis=0) - tol).all() and (g <= square.max(axis=0) + tol).all()


_NEEDLE_A, _NEEDLE_B = 2.0**-28, 2.0**-12
# (polygon, square) pairs whose scalar clips reach every cleanup rule at
# shifts 0, 0.37, 1e5 and 5e6:
# - the square's first corner lies beyond the triangle's long edge and its
#   last corner on it, so the first crossing repeats the last vertex
#   (near-duplicate and wrap);
# - the needle triangle leaves the unit square a corner piece of area
#   2^-41 < 1e-12 (area);
# - the square lies off the unit square (empty).
_PATH_CASES = (
    (
        np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        np.array([[0.5, 0.0], [1.0, 0.0], [1.0, 0.5], [0.5, 0.5]]),
    ),
    (
        np.array(
            [[1.0 + _NEEDLE_A, 2.0 * _NEEDLE_B], [1.0 - 2.0 * _NEEDLE_A, -_NEEDLE_B], [3.0, 0.0]]
        ),
        UNIT,
    ),
    (UNIT, UNIT + 5.0),
)
_SIDES = st.sampled_from([0.125, 0.1, 0.3, 1.0, 1e-6])


@pytest.mark.deep
@given(
    st.lists(st.one_of(_LATTICE, _NUDGED, _FREE), min_size=3, max_size=10),
    st.lists(st.tuples(st.one_of(_LATTICE, _NUDGED, _FREE), _SIDES), min_size=1, max_size=40),
    st.sampled_from([0.0, 0.37, 1e5, 5e6]),
)
def test_clip_squares_matches_reference_clip(points, corners, shift):
    """A batch clips to the scalar oracle's bytes square by square, every rule reached.

    The random squares go against a random hull and against each path
    case's polygon, with that case's square at the head of the batch.
    """
    pts = np.array(points)
    try:
        hull = ConvexHull(pts)
    except QhullError:
        assume(False)
    squares = np.array(
        [[[x, y], [x + s, y], [x + s, y + s], [x, y + s]] for (x, y), s in corners]
    )
    paths = set()
    runs = [(pts[hull.vertices], squares)]
    runs += [(poly, np.concatenate([square[None], squares])) for poly, square in _PATH_CASES]
    for poly, batch in runs:
        poly, batch = poly + shift, batch + shift
        verts, count = sensor._clip_squares(batch, poly)
        assert count.shape == (batch.shape[0],)
        for square, v, m in zip(batch, verts, count.tolist()):
            want = _reference_clip(square, poly, paths)
            if want is None:
                assert m == 0
            else:
                got = v[:m]
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert paths >= {"empty", "near-duplicate", "wrap", "area"}


def test_place_sensors_counts_clipped_cells():
    """meta's n_clipped_cells is the oracle's count of cells clipping changed."""
    region = _bumps_region()
    grid = 0.05
    report = place_sensors(region, 3, 0.5, grid, solver="kmeanspp-lloyd", master_seed=2)
    pairs = _clip_every_square(region.polygon, grid)
    # Every piece is kept, so the oracle counts over the mesh's own cells.
    assert len(report.discretization.cells) == len(pairs)
    want = sum(_is_changed(square, piece) for square, piece in pairs)
    assert 0 < want < len(pairs)
    assert report.result.meta["n_clipped_cells"] == report.discretization.n_clipped == want


def _discretization_bytes(disc) -> bytes:
    return b"".join(
        [p.tobytes() for p in disc.cells]
        + [a.tobytes() for a in (disc.weights, disc.coms, disc.inertias, disc.origin)]
    )


_BLOCK_SIZES = (1, 7, 100, 1 << 12, 1 << 14, 1 << 40)


@pytest.mark.deep
@given(
    st.one_of(st.none(), st.lists(st.one_of(_LATTICE, _FREE), min_size=3, max_size=8)),
    st.sampled_from([0.05, 0.07, 0.1, 0.3]),
    st.sampled_from([0.0, 1e5 + 0.37, 5e6 + 0.37]),
    st.lists(_FREE, min_size=1, max_size=4),
)
@example(None, 0.05, 0.0, [(0.3, 0.3), (0.7, 0.6)])
def test_output_bytes_do_not_depend_on_block_size(points, grid_eps, shift, centers):
    """Every mesh array and the mesh coverage agree bytewise at any block
    size.

    points None stands for the bump hexagon; otherwise their convex hull
    carries the same three bumps. Blocks of 1 and 7 nodes hold one polygon
    and one grid row each, 100 splits both, 2^12 and 2^14 take many
    polygons and rows at once, and 2^40 takes everything in one block.
    """
    if points is None:
        poly = HEXAGON
    else:
        pts = np.array(points)
        try:
            hull = ConvexHull(pts)
        except QhullError:
            assume(False)
        assume(hull.volume > 0.01)
        poly = pts[hull.vertices]
    bumps = _bumps_region().density
    density = GaussianMixtureDensity(bumps.means + shift, bumps.covariances, bumps.mixing)
    region = SensorRegion(poly + shift, density)
    centers = np.array(centers) + shift
    outputs = []
    with pytest.MonkeyPatch.context() as mp:
        for block in _BLOCK_SIZES:
            mp.setattr(sensor, "_BLOCK_NODES", block)
            mesh = discretize(region, grid_eps)
            cost = coverage_cost(region, centers, mesh=mesh)
            bytes_ = _discretization_bytes(mesh) + mesh.starts.tobytes()
            outputs.append([bytes_, mesh.n_clipped, cost])
    assert all(out == outputs[0] for out in outputs[1:])


def test_cell_moments_match_long_double_recomputation():
    """Mass, center of mass and inertia of every cell, boundary slivers included.

    Whole grid squares take the product rule on their own sides, clipped
    pieces the fan of triangle rules.
    """
    region = _bumps_region()
    disc = discretize(region, 0.02)
    assert 0 < disc.n_clipped < disc.weights.shape[0]
    nodes, ref_w = sensor._tri_rule(4)
    u, v = nodes[:, 0], nodes[:, 1]
    square_nodes, square_w = sensor._square_rule(4)
    for poly, clipped, weight, com_i, inertia_i in zip(
        disc.cells, disc.clipped, disc.weights, disc.coms + disc.origin, disc.inertias
    ):
        poly = poly + disc.origin
        a = poly[0]
        if clipped:
            pts, wts = [], []
            for b, c in zip(poly[1:-1] - a, poly[2:] - a):
                area2 = b[0] * c[1] - b[1] * c[0]
                if area2 > 0.0:
                    pts.append(a + (np.outer(u, b) + np.outer(v, c)))
                    wts.append(ref_w * area2)
        else:
            side = poly[2] - a
            pts, wts = [a + square_nodes * side], [square_w * (side[0] * side[1])]
        pts = np.vstack(pts)
        node_mass = np.concatenate(wts).astype(np.longdouble) * region.density.evaluate(pts)
        pts = pts.astype(np.longdouble)
        mass = node_mass.sum()
        com = (node_mass[:, None] * pts).sum(axis=0) / mass
        inertia = (node_mass * ((pts - com) ** 2).sum(axis=1)).sum()
        assert abs(weight - mass) <= 1e-12 * mass
        assert np.all(np.abs(com_i - com) <= 1e-12 * np.abs(com))
        assert abs(inertia_i - inertia) <= 1e-9 * inertia


class _MonomialDensity:
    """Duck-typed density x^a y^b."""

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b

    def evaluate(self, pts):
        pts = np.atleast_2d(pts)
        return pts[:, 0] ** self.a * pts[:, 1] ** self.b


@pytest.mark.deep
@given(
    st.integers(1, 6),
    st.sampled_from([0.0, 0.37, 1e5 + 0.37]),
    st.floats(0.01, 1.0),
    st.integers(0, 7),
    st.integers(0, 7),
    st.integers(1, 3),
    st.integers(1, 3),
)
def test_square_rule_is_exact_on_grid_rectangles(q, shift, grid_eps, i, j, nx, ny):
    """The q x q rule integrates every x^a y^b, a, b <= 2q - 1, about the anchor.

    The rectangle spans nx x ny cells between the grid lines shift + k *
    grid_eps, and is integrated in its local frame, as discretize sees a
    region: its sides are taken from its vertices, so at a shift they are
    not multiples of grid_eps. Mass and center of mass of a uniform density
    are exact at every q; its inertia hx hy (hx^2 + hy^2) / 12 needs degree
    2, so q >= 2 (one node has none).
    """
    lines = shift + np.arange(12) * grid_eps
    x0, x1, y0, y1 = lines[i], lines[i + nx], lines[j], lines[j + ny]
    rect = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
    local = rect - rect[0]
    hx, hy = local[2]
    one = np.array([0]), np.array([4]), q

    def integrate(density):
        region = SensorRegion(local, density)
        return sensor._integrate_cells(region, local, *one, square=np.array([True]))

    for a in range(2 * q):
        for b in range(2 * q):
            mass = integrate(_MonomialDensity(a, b))[0][0]
            want = hx ** (a + 1) * hy ** (b + 1) / ((a + 1) * (b + 1))
            assert abs(mass - want) <= 1e-12 * want, (a, b)
    mass, com, inertia, _ = integrate(UniformDensity())
    assert abs(mass[0] - hx * hy) <= 1e-12 * hx * hy
    assert np.all(np.abs(com[0] - [hx / 2, hy / 2]) <= 1e-12 * np.array([hx, hy]) / 2)
    if q >= 2:
        want = hx * hy * (hx * hx + hy * hy) / 12.0
        assert abs(inertia[0] - want) <= 1e-12 * want


def _integrated_coverage(region, mesh, centers) -> float:
    """Coverage of the mesh with every cell integrated by its own rule, none
    priced in closed form."""
    cost = sensor._integrate_cells(
        region.local, mesh.vertices, mesh.starts[:-1], np.diff(mesh.starts), sensor._QUAD_ORDER,
        ~mesh.clipped, centers - mesh.origin,
    )[3]
    return math.fsum(cost.tolist())


def _mesh_centers(
    kind: str, mesh, grid_eps: float, free: np.ndarray, pick: int
) -> np.ndarray:
    """Centers of one kind for a mesh of step grid_eps; free is a few random
    points near it."""
    verts = mesh.vertices + mesh.origin
    if kind == "single":
        return free[:1]
    if kind == "free":
        return free
    if kind == "grid-vertex":
        # Centers on grid and polygon vertices put cell vertices at distance 0.
        return verts[np.arange(pick, pick + 3) % verts.shape[0]]
    if kind == "mirror":
        # Two centers mirrored about the grid line x = x0 + i * grid_eps: every
        # vertex on that line ties, and the tie goes to the lower index.
        x0 = float(verts[:, 0].min())
        line = x0 + (pick % 4 + 1) * grid_eps
        mid = free[0].copy()
        mid[0] = line
        step = np.array([0.3 * grid_eps, 0.0])
        return np.array([mid + step, mid - step])
    if kind == "duplicate":
        return np.concatenate([free, free[::-1], free[:1]])
    # "every-vertex": each vertex owns itself, so every cell is cut.
    return np.unique(verts, axis=0)


@pytest.mark.deep
@given(
    st.lists(st.one_of(_LATTICE, _FREE), min_size=3, max_size=8),
    st.sampled_from(["uniform", "gaussian"]),
    st.sampled_from([0.05, 0.1, 0.3]),
    st.sampled_from([0.0, 0.37, 1e5]),
    st.sampled_from(["single", "free", "grid-vertex", "mirror", "duplicate", "every-vertex"]),
    st.lists(_FREE, min_size=3, max_size=3),
    st.integers(0, 1000),
)
def test_mesh_coverage_matches_integrating_every_cell(
    points, density, grid_eps, shift, kind, free, pick
):
    """Pricing uncut cells from their moments equals integrating every cell to 1e-12."""
    pts = np.array(points)
    try:
        hull = ConvexHull(pts)
    except QhullError:
        assume(False)
    # Slivers leave no cell above DROP_WEIGHT, so discretize rightly refuses them.
    assume(hull.volume > 0.01)
    poly = pts[hull.vertices] + shift
    if density == "uniform":
        phi = UniformDensity(2.5)
    else:
        phi = GaussianMixtureDensity(
            np.array([[1.0, 0.8]]) + shift, np.eye(2)[None] * 0.4, np.array([1.0])
        )
    region = SensorRegion(poly, phi)
    mesh = discretize(region, grid_eps)
    centers = _mesh_centers(kind, mesh, grid_eps, np.array(free) + shift, pick)
    got = coverage_cost(region, centers, mesh=mesh)
    want = _integrated_coverage(region, mesh, centers)
    assert abs(got - want) <= 1e-12 * want


class _CountingDensity:
    """Uniform density that counts the points it is evaluated at."""

    def __init__(self) -> None:
        self.points = 0

    def evaluate(self, pts):
        pts = np.atleast_2d(pts)
        self.points += pts.shape[0]
        return np.ones(pts.shape[0])


def test_discretize_evaluates_q_squared_nodes_per_grid_square():
    """The unit square at grid 0.1 is 100 whole squares of q^2 nodes each."""
    density = _CountingDensity()
    mesh = discretize(SensorRegion(UNIT, density), 0.1)
    assert mesh.weights.shape[0] == 100 and mesh.n_clipped == 0
    assert density.points == 100 * 4**2


def test_mesh_coverage_evaluates_phi_only_at_cut_cell_nodes():
    """Only cut cells are integrated: q^2 nodes per whole square, (m - 2) q^2
    per clipped m-gon piece. The unit square has whole squares only, the
    hexagon clipped pieces on its rim too."""
    for poly in (UNIT, HEXAGON):
        density = _CountingDensity()
        region = SensorRegion(poly, density)
        mesh = discretize(region, 0.1)
        q2 = sensor._QUAD_ORDER**2
        counts = []
        for centers in (np.array([[0.43, 0.52]]), np.array([[0.31, 0.47], [0.69, 0.58]])):
            cut = [
                (p, clipped)
                for p, clipped in zip(mesh.cells, mesh.clipped)
                if np.unique(core._nearest(p + mesh.origin, centers)[0]).size > 1
            ]
            density.points = 0
            got = coverage_cost(region, centers, mesh=mesh)
            counts.append((len(cut), sum(clipped for _, clipped in cut), density.points))
            assert density.points == sum((p.shape[0] - 2 if c else 1) * q2 for p, c in cut)
            assert got == pytest.approx(_integrated_coverage(region, mesh, centers), rel=1e-12)
        # One center cuts nothing; the bisector of the pair crosses a few cells.
        assert counts[0] == (0, 0, 0)
        assert 0 < counts[1][0] < len(mesh.cells) // 4
        assert (counts[1][1] > 0) == (poly is HEXAGON)


def test_dropped_cells_stay_out_of_both_sides_of_the_split(unit_square):
    """Cells under zero and sub-threshold raster pixels leave the mesh and the split."""
    values = np.ones((4, 4))
    values[:, 0] = 0.0
    values[2, 2] = 0.0
    values[0, 3] = 1e-13  # each of its cells weighs 1.6e-15, under DROP_WEIGHT
    region = SensorRegion(unit_square.polygon, RasterDensity((0.0, 0.0), 0.25, values))
    mesh = discretize(region, 0.125)
    # Each pixel holds four cells; 6 of the 16 pixels are dropped.
    assert len(mesh.cells) == 4 * (16 - 6)
    assert np.all(mesh.weights >= sensor.DROP_WEIGHT)
    for centers in (np.array([[0.55, 0.45]]), np.array([[0.31, 0.47], [0.69, 0.58]])):
        rep = decomposition_check(region, 0.125, centers)
        assert rep.lhs == pytest.approx(
            _integrated_coverage(region, mesh, centers), rel=1e-12
        )
        assert rep.quantization_cost == core.weighted_cost(mesh.as_point_set, centers)
        assert rep.inertia_sum == mesh.inertia_sum
        if len(centers) == 1:
            assert rep.gap <= 1e-12 * rep.lhs


class _StepDensity:
    """Duck-typed density: 1 left of the line x = anchor + 0.5, 3 right of it."""

    def __init__(self, anchor: float) -> None:
        self.anchor = anchor

    def evaluate(self, pts):
        return np.where(np.atleast_2d(pts)[:, 0] - self.anchor < 0.5, 1.0, 3.0)


def _dyadic_density(kind: str, shift: float):
    """A density on the unit square shifted by (shift, shift); every input is dyadic."""
    if kind == "uniform":
        return UniformDensity(2.0)
    if kind == "gaussian":
        return GaussianMixtureDensity(
            np.array([[0.25, 0.375], [0.75, 0.5], [0.5, 0.75]]) + shift,
            np.array([np.eye(2) * sd * sd for sd in (0.10, 0.14, 0.18)]),
            np.array([1.0, 0.6, 1.3]),
        )
    if kind == "raster":
        values = np.arange(1.0, 17.0).reshape(4, 4)
        return RasterDensity((shift, shift), 0.25, values)
    return _StepDensity(shift)


def _placement_bytes(report, region) -> tuple:
    """Everything place_sensors computes in the local frame, as bytes."""
    disc = report.discretization
    return (
        report.result.assignment.tobytes(),
        disc.vertices.tobytes(),
        disc.weights.tobytes(),
        disc.coms.tobytes(),
        disc.inertias.tobytes(),
        report.quantization_cost.hex(),
        report.coverage.hex(),
        report.inertia_sum.hex(),
    )


@pytest.mark.deep
@pytest.mark.parametrize("solver", ["ptas", "kmeanspp-lloyd"])
@pytest.mark.parametrize("kind", ["uniform", "gaussian", "raster", "duck"])
def test_place_sensors_is_exact_under_dyadic_translation(kind, solver):
    """Shifting the dyadic square by 2^17, 2^22 or 2^23 changes no bit.

    Every shifted input is exact, so the local frame sees the same numbers
    as at shift 0; the centers are the shift-0 centers plus the shift,
    rounded once.
    """
    runs = {}
    for shift in (0.0, 2.0**17, 2.0**22, 2.0**23):
        region = SensorRegion(UNIT + shift, _dyadic_density(kind, shift))
        report = place_sensors(
            region, 4, 0.5, 1.0 / 64.0, solver=solver, master_seed=3,
            overrides={"tuple_budget": 64},
        )
        runs[shift] = report, _placement_bytes(report, region)
    base, base_bytes = runs.pop(0.0)
    for shift, (report, got) in runs.items():
        assert got == base_bytes
        want = base.centers.centers + shift
        assert report.centers.centers.tobytes() == want.tobytes()
        assert report.result.centers.centers.tobytes() == want.tobytes()


@pytest.mark.parametrize("shift", [1e5 + 0.37, 5e6 + 0.37])
def test_place_sensors_matches_region_re_expressed_at_its_first_vertex(shift):
    """The bump hexagon far out and the same region written from its first vertex agree bytewise.

    Rounding HEXAGON + shift itself moves the coverage by about 1e-9 at
    5e6 + 0.37, so the comparison is with P - P[0], not with the hexagon.
    """
    bumps = _bumps_region().density
    P = HEXAGON + shift
    means = bumps.means + shift
    far = SensorRegion(P, GaussianMixtureDensity(means, bumps.covariances, bumps.mixing))
    near = SensorRegion(
        P - P[0], GaussianMixtureDensity(means - P[0], bumps.covariances, bumps.mixing)
    )
    for solver in ("ptas", "kmeanspp-lloyd"):
        reports = [
            place_sensors(
                region, 3, 0.5, 0.02, solver=solver, master_seed=5,
                overrides={"tuple_budget": 64},
            )
            for region in (far, near)
        ]
        assert _placement_bytes(reports[0], far) == _placement_bytes(reports[1], near)
        centers = reports[1].centers.centers + P[0]
        assert reports[0].centers.centers.tobytes() == centers.tobytes()


def test_patching_after_the_region_is_built_sees_every_call(monkeypatch):
    """Class-level density and module-level pricing patches see the same calls either way.

    The local view holds a shifted density object whose evaluate is looked
    up at each call, and place_sensors prices through the public
    coverage_cost, so wrappers installed from outside miss nothing.
    """
    original_evaluate = GaussianMixtureDensity.evaluate
    original_cost = sensor.coverage_cost

    def build():
        bumps = _bumps_region().density
        means = bumps.means + 1e5
        return SensorRegion(
            HEXAGON + 1e5, GaussianMixtureDensity(means, bumps.covariances, bumps.mixing)
        )

    def patch(seen):
        def evaluate(self, pts):
            seen["points"].append(np.atleast_2d(pts).shape[0])
            return original_evaluate(self, pts)

        def coverage_cost(*args, **kwargs):
            seen["pricing"] += 1
            return original_cost(*args, **kwargs)

        monkeypatch.setattr(GaussianMixtureDensity, "evaluate", evaluate)
        monkeypatch.setattr(sensor, "coverage_cost", coverage_cost)

    outcomes = []
    for patch_first in (True, False):
        seen = {"points": [], "pricing": 0}
        if patch_first:
            patch(seen)
            region = build()
        else:
            region = build()
            patch(seen)
        place_sensors(region, 3, 0.5, 0.05, master_seed=1, overrides={"tuple_budget": 16})
        monkeypatch.undo()
        outcomes.append(seen)
    assert outcomes[0] == outcomes[1]
    assert outcomes[0]["pricing"] == 1
    assert sum(outcomes[0]["points"]) > 0


@pytest.mark.parametrize("poly, shift", [(UNIT, 0.0), (HEXAGON, 1e5 + 0.37)])
def test_region_copy_with_a_new_scale_shares_the_geometry(poly, shift):
    """A copy with another density, the mixture scaled by 0.3, shifts it
    into its local view, and changes nothing else.

    The copy places sensors bytewise as the region built again from the
    input's polygon and the new density. The unit square is its own local
    view, the hexagon is not.
    """
    bumps = _bumps_region().density
    density = GaussianMixtureDensity(bumps.means + shift, bumps.covariances, bumps.mixing)
    scaled = GaussianMixtureDensity(density.means, density.covariances, density.mixing * 0.3)
    region = SensorRegion(poly + shift, density)
    normalized = replace(region, density=scaled)
    assert normalized.polygon.tobytes() == region.polygon.tobytes()
    assert normalized.local.local is normalized.local
    assert (normalized.local is normalized) == (region.local is region)
    assert normalized.local.density.mixing.tobytes() == scaled.mixing.tobytes()
    assert region.local.density.mixing.tobytes() == density.mixing.tobytes()
    local_means = normalized.local.density.means
    assert local_means.tobytes() == (scaled.means - normalized.origin).tobytes()
    rebuilt = SensorRegion(region.polygon, scaled)
    for solver in ("ptas", "kmeanspp-lloyd"):
        reports = [
            place_sensors(
                r, 3, 0.5, 0.02, solver=solver, master_seed=5,
                overrides={"tuple_budget": 64},
            )
            for r in (normalized, rebuilt)
        ]
        want = _placement_bytes(reports[1], rebuilt)
        assert _placement_bytes(reports[0], normalized) == want
        assert reports[0].centers.centers.tobytes() == reports[1].centers.centers.tobytes()
