"""Continuous coverage over a convex region via weighted clustering.

Pipeline: normalize an importance density over a convex polygon, overlay a
square grid, clip each square to the region, and integrate per cell to get a
weighted point set of cell centers of mass. A weighted k-means solver places
the sensors; the coverage cost (integral of density times squared distance
to the nearest sensor) then splits into the discrete clustering cost plus the
cells' moments of inertia about their centers of mass. That identity is exact
when no Voronoi boundary cuts through a cell, and the residual gap is
reported, never hidden.

Everything runs in the region's local frame: a `SensorRegion` fixes its
first vertex as origin and builds, once, a `local` view as offsets from it.
The origin is added back only where coordinates leave (placed centers,
`as_point_set`, the CLI), so an exact shift of the input changes no bit.

The grid is classified in bulk: every square corner is tested against every
polygon edge's half-plane on arrays, squares wholly inside are kept as they
are, squares wholly outside one edge are dropped, and only the
O(perimeter / grid_eps) boundary squares are clipped, all in one
`_clip_squares` call that runs Sutherland-Hodgman on flat per-coordinate
arrays. Interior squares go into the vertex array as their four corners;
only the boundary squares are compared with their pieces, and a cell that
clipping left unchanged is flagged a whole square. All integrals go through
one batched function, `_integrate_cells`, with two rules of one order q
(`_QUAD_ORDER`, 4): a whole grid square takes the q x q Gauss-Legendre
product rule on its own sides (q^2 density nodes, exact to degree 2q-1 in
each variable), and every other convex polygon, a clipped piece or a whole
region, a fan of collapsed Gauss rules on the triangles from its first
vertex (q^2 nodes per triangle, exact to total degree 2q-2). Either way
cell masses, centers of mass and, from q = 2 on, inertias are
quadrature-exact for uniform density. Node offsets are built one coordinate
at a time, the density is evaluated in blocks of at most `_BLOCK_NODES`
nodes, and each cell's moments are taken about its own first vertex. On
sensor-fine (6,652 cells, 6,332 of them whole squares, q = 4) a
`place_sensors` call evaluates the density at about 115,000 points, against
220,000 when every square took the fan of two triangles.

The hot paths avoid numpy's per-row costs: a broadcast over rows of two
coordinates, and fancy or boolean indexing of (n, 2) arrays, run row by row
at several times the cost of `take`, `compress` or a pass per coordinate,
which move the same bytes. So every output is bit-identical to the plain
formulation.

From clipping to coverage, cell polygons live in one (V, 2) vertex array,
cell i at vertices[starts[i]:starts[i + 1]]; a `Discretization` holds them
with weight, center-of-mass and inertia arrays. `coverage_cost` prices a mesh:
it integrates only the cells that a Voronoi boundary cuts. It assigns every
cell vertex to its nearest center in one kernel call. A cell whose vertices
all go to one center c lies inside c's closed Voronoi cell, because both
are convex, so c is a nearest center of every quadrature node in it. The
quadrature coverage of that cell is then w |x - c|^2 + J (the parallel-axis
identity above, which holds exactly for the quadrature measure), priced
from the arrays without evaluating the density.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from wkmeans import SOLVERS
from wkmeans.core import (
    CenterSet,
    ClusteringResult,
    WeightedPointSet,
    _check_dims,
    _check_positive_int,
    _check_seed,
    _exact_sum,
    _nearest,
    as_center_array,
    min_squared_distances,
    weighted_cost,
)

__all__ = [
    "UniformDensity",
    "GaussianMixtureDensity",
    "RasterDensity",
    "SensorRegion",
    "Discretization",
    "DecompositionReport",
    "PlacementReport",
    "RegionFileError",
    "normalize_density",
    "discretize",
    "coverage_cost",
    "decomposition_check",
    "place_sensors",
    "load_region",
]

DROP_WEIGHT = 1e-12
INERTIA_WARN_FRACTION = 0.10
# Gauss order of normalization, the cell moments and the mesh coverage.
# q = 4 keeps cell masses, centers of mass and inertias exact for uniform
# density; grid_eps, not q, sets the accuracy.
_QUAD_ORDER = 4
# Quadrature nodes per density call in the cell integrator; it also caps
# the grid squares classified per block of rows in discretize. At 2^14 a
# block's (nodes, 2) coordinate arrays are 256 KiB each. On sensor-fine
# (2-vCPU host, 5 alternating 10 s bench runs each) 2^13, 2^14 and 2^15 gave
# op_s medians of 0.0595, 0.0583 and 0.0571 s and peak RSS of 66.8-67.1 MiB
# alike. 2^15 was no faster per op in 10 paired runs (median ratio 0.99), so
# the smaller block stays.
_BLOCK_NODES = 1 << 14


@dataclass(frozen=True)
class UniformDensity:
    level: float = 1.0

    def __post_init__(self) -> None:
        if not self.level > 0.0:
            raise ValueError("level must be positive")

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        return np.full(np.atleast_2d(pts).shape[0], self.level)


@dataclass(frozen=True)
class GaussianMixtureDensity:
    """Sum of weighted normal bumps; not normalized over the region.

    Each covariance must be positive definite and symmetric to 1e-12 of its
    largest entry, or construction raises ValueError naming the bump. It is
    factored once at construction (Sigma = L L^T), and the whitening matrix
    inv(L)^T and the bump's peak height mixing / ((2 pi)^(d/2) prod(diag L))
    are cached, so `evaluate` costs one small matmul and an exp per bump.
    Points are differenced against the mean before the matmul, which keeps
    the values accurate far from the origin. The difference is taken one
    coordinate at a time into a buffer reused for every bump, so the matmul
    sees the same C-ordered values as `pts - mean` without numpy's cost of
    broadcasting rows of d values.
    """

    means: np.ndarray
    covariances: np.ndarray
    mixing: np.ndarray

    def __post_init__(self) -> None:
        means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        covs = np.asarray(self.covariances, dtype=np.float64)
        mix = np.asarray(self.mixing, dtype=np.float64).ravel()
        if covs.ndim == 2:
            covs = covs[None, :, :]
        if means.shape[0] != covs.shape[0] or means.shape[0] != mix.shape[0]:
            raise ValueError("means, covariances, mixing must align")
        k, d = means.shape[0], means.shape[-1]
        if means.ndim != 2 or covs.shape != (k, d, d):
            raise ValueError(
                f"covariances must have shape ({k}, {d}, {d}) to match the "
                f"means, got {covs.shape}"
            )
        if np.any(mix <= 0.0):
            raise ValueError("mixing weights must be positive")
        for arr, name in ((means, "means"), (covs, "covariances"), (mix, "mixing")):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        white = np.empty_like(covs)
        height = np.empty(k)
        for i, cov in enumerate(covs):
            if np.abs(cov - cov.T).max() > 1e-12 * np.abs(cov).max():
                raise ValueError(f"covariance of bump {i} is not symmetric")
            try:
                chol = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise ValueError(
                    f"covariance of bump {i} is not positive definite"
                ) from None
            white[i] = np.linalg.inv(chol).T
            height[i] = mix[i] / ((2.0 * math.pi) ** (d / 2) * np.prod(np.diag(chol)))
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covariances", covs)
        object.__setattr__(self, "mixing", mix)
        object.__setattr__(self, "_white", white)
        object.__setattr__(self, "_height", height)

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        d = self.means.shape[1]
        if pts.shape[1] != d:
            raise ValueError(
                f"dimension mismatch: points are {pts.shape[1]}-d, the mixture "
                f"is {d}-d"
            )
        diff, z = np.empty((2, pts.shape[0], d))
        out, q = np.zeros(pts.shape[0]), np.empty(pts.shape[0])
        for mean, white, height in zip(self.means, self._white, self._height):
            for j in range(d):
                np.subtract(pts[:, j], mean[j], out=diff[:, j])
            np.matmul(diff, white, out=z)
            np.square(z, out=z)
            # Column adds, left to right: numpy's own order for a row of
            # fewer than 8 values, without the per-row cost of a reduction.
            np.copyto(q, z[:, 0])
            for j in range(1, d):
                q += z[:, j]
            q *= -0.5
            np.exp(q, out=q)
            q *= height
            out += q
        return out


@dataclass(frozen=True)
class RasterDensity:
    """Piecewise-constant density on a pixel grid; zero outside the raster."""

    origin: tuple[float, float]
    pixel_size: float
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.atleast_2d(np.asarray(self.values, dtype=np.float64))
        if self.pixel_size <= 0.0:
            raise ValueError("pixel_size must be positive")
        if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
            raise ValueError("raster values must be nonnegative and finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(
            self, "origin", (float(self.origin[0]), float(self.origin[1]))
        )

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        if pts.shape[1] != 2:
            raise ValueError(
                f"dimension mismatch: points are {pts.shape[1]}-d, the raster is 2-d"
            )
        ny, nx = self.values.shape
        ix = np.floor((pts[:, 0] - self.origin[0]) / self.pixel_size).astype(np.intp)
        iy = np.floor((pts[:, 1] - self.origin[1]) / self.pixel_size).astype(np.intp)
        inside = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
        out = np.zeros(pts.shape[0])
        out[inside] = self.values[iy[inside], ix[inside]]
        return out


Density = UniformDensity | GaussianMixtureDensity | RasterDensity


def _shifted(density, origin: np.ndarray):
    """The density over offsets from origin. Gaussian means or a raster origin
    move on a shallow copy that shares the validated factors and pixels; a
    uniform density stays, and any other is evaluated at origin + offset."""
    if isinstance(density, UniformDensity):
        return density
    if not isinstance(density, (GaussianMixtureDensity, RasterDensity)):
        return SimpleNamespace(evaluate=lambda pts: density.evaluate(origin + pts))
    shifted = copy.copy(density)
    if isinstance(density, GaussianMixtureDensity):
        object.__setattr__(shifted, "means", density.means - origin)
    else:
        object.__setattr__(shifted, "origin", tuple((density.origin - origin).tolist()))
    return shifted


def _polygon_area(poly: np.ndarray) -> float:
    """Signed shoelace area, taken about the first vertex so it holds at offsets."""
    d = poly[1:] - poly[0]
    return 0.5 * float(np.sum(d[:-1, 0] * d[1:, 1] - d[1:, 0] * d[:-1, 1]))


def _extent(poly: np.ndarray) -> float:
    return float(np.ptp(poly, axis=0).max())


def _inside_slack(polygon: np.ndarray, side) -> np.ndarray:
    """Per-edge slack of the inclusive half-plane test (shape (E,) + shape of side).

    A point counts as inside an edge when it lies at most
    1e-12 * max(region extent, cell side) beyond the edge's line. The side
    test is the cross product of the edge with (point - edge start), i.e.
    that distance times the edge length, so the slack carries the length
    too. No absolute coordinate enters, so clipping is translation-safe.
    """
    edges = np.concatenate([polygon[1:], polygon[:1]]) - polygon
    length = np.hypot(edges[:, 0], edges[:, 1])
    return 1e-12 * np.multiply.outer(length, np.maximum(_extent(polygon), side))


@dataclass(frozen=True)
class SensorRegion:
    """Convex region (CCW polygon) with an importance density over it.

    density_scale carries the normalization factor so that densities stay
    reusable across regions; phi() is the scaled density. origin is the
    first vertex; local, built once with `_shifted`, is the region as
    offsets from it (the region itself when its origin is (0, 0)). Both are
    derived here and nowhere else, so a copy with another field, such as
    `replace(region, density_scale=s)`, is checked and shifted again.
    """

    polygon: np.ndarray
    density: Density
    density_scale: float = 1.0
    origin: np.ndarray = field(init=False, repr=False)
    local: SensorRegion = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        poly = np.atleast_2d(np.asarray(self.polygon, dtype=np.float64))
        if poly.ndim != 2 or poly.shape[1] != 2 or poly.shape[0] < 3:
            raise ValueError("polygon needs at least 3 vertices in the plane")
        if not np.all(np.isfinite(poly)):
            raise ValueError("polygon vertices must be finite")
        area = _polygon_area(poly)
        if area <= 0.0:
            if area < 0.0:
                raise ValueError("polygon vertices must be counter-clockwise")
            raise ValueError("polygon is degenerate (zero area)")
        edges = np.roll(poly, -1, axis=0) - poly
        nxt = np.roll(edges, -1, axis=0)
        cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
        if np.any(cross < -1e-12 * _extent(poly) ** 2):
            raise ValueError("region must be convex")
        if self.density_scale <= 0.0:
            raise ValueError("density_scale must be positive")
        poly = poly.copy()
        poly.setflags(write=False)
        object.__setattr__(self, "polygon", poly)
        object.__setattr__(self, "origin", poly[0])
        local = self
        if poly[0].any():
            shifted = _shifted(self.density, poly[0])
            local = SensorRegion(poly - poly[0], shifted, self.density_scale)
        object.__setattr__(self, "local", local)

    def phi(self, pts: np.ndarray) -> np.ndarray:
        return self.density.evaluate(pts) * self.density_scale


class RegionFileError(ValueError):
    """Malformed region file."""


@dataclass(frozen=True)
class Discretization:
    """Grid cells clipped to a region, held on arrays in its local frame.

    Every coordinate is an offset from origin, the region's first vertex.
    Cell i is the CCW polygon vertices[starts[i]:starts[i + 1]] (`cells`
    gives these views), with starts of shape (n + 1,). weights, coms and
    inertias are its mass w_i, its center of mass x_i, shape (n, 2), and its
    inertia J_i about x_i. clipped[i] is set when clipping changed cell i
    from its grid square, and n_clipped counts those cells. All moments come
    from Gauss rules of the fixed order q = 4: a whole square (clipped
    unset) from the 4 x 4 product rule on the square, a clipped piece from
    the fan of triangle rules. coverage_cost prices the mesh with the same
    order and the same rule per cell. as_point_set, the centers of mass in
    the region's own frame (origin + coms) weighted by mass, is built once
    for export. All arrays are read-only. The grid step is not kept: the
    caller of `discretize` passed it and has it.
    """

    vertices: np.ndarray
    starts: np.ndarray
    weights: np.ndarray
    coms: np.ndarray
    inertias: np.ndarray
    clipped: np.ndarray
    origin: np.ndarray
    as_point_set: WeightedPointSet = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for arr in (self.vertices, self.starts, self.weights, self.coms, self.inertias):
            arr.setflags(write=False)
        self.clipped.setflags(write=False)
        points = WeightedPointSet(self.origin + self.coms, self.weights)
        object.__setattr__(self, "as_point_set", points)

    @property
    def cells(self) -> tuple[np.ndarray, ...]:
        return tuple(np.split(self.vertices, self.starts[1:-1]))

    @property
    def n_clipped(self) -> int:
        return int(np.count_nonzero(self.clipped))

    @property
    def inertia_sum(self) -> float:
        return _exact_sum(self.inertias)


@functools.lru_cache(maxsize=16)
def _tri_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Product Gauss rule on the reference triangle (0,0),(1,0),(0,1).

    Gauss-Legendre points on the unit square collapsed onto the triangle;
    the (1-u) Jacobian folds into the weights, which sum to the reference
    area 1/2. Exact for polynomials of degree <= 2*order - 2.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    uu, vv = np.meshgrid(u, u, indexing="ij")
    ww = np.outer(wu * (1.0 - u), wu)
    nodes = np.column_stack([uu.ravel(), (vv * (1.0 - uu)).ravel()])
    weights = ww.ravel()
    return nodes, weights


@functools.lru_cache(maxsize=16)
def _square_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre product rule on the unit square [0, 1]^2.

    order x order nodes; the weights sum to the area 1. Exact for
    polynomials of degree <= 2*order - 1 in each variable.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    uu, vv = np.meshgrid(u, u, indexing="ij")
    nodes = np.column_stack([uu.ravel(), vv.ravel()])
    weights = np.outer(wu, wu).ravel()
    return nodes, weights


def _fan_nodes(vertices: np.ndarray, first: np.ndarray, m: int, order: int):
    """Anchor, node offsets and node weights of convex m-gons, fan-triangulated.

    Per coordinate, the anchors (polygons,) and the node offsets from them
    (polygons, (m - 2) * order^2): u * b + v * c over the fan edges b and c
    from the first vertex. Triangles of non-positive area get zero weight.
    """
    ref_nodes, ref_w = _tri_rule(order)
    u, v = ref_nodes[:, 0], ref_nodes[:, 1]
    per_poly = (m - 2) * ref_w.shape[0]
    # Vertex k of every polygon in row k (`take` copies whole rows).
    group = vertices.take(first + np.arange(m)[:, None], axis=0)
    anchor = [group[0, :, j] for j in range(2)]
    b = [(group[1:-1, :, j] - anchor[j]).T.copy() for j in range(2)]
    c = [(group[2:, :, j] - anchor[j]).T.copy() for j in range(2)]
    area2 = b[0] * c[1] - b[1] * c[0]
    area2[area2 < 0.0] = 0.0
    local = [
        (b[j][..., None] * u + c[j][..., None] * v).reshape(-1, per_poly)
        for j in range(2)
    ]
    return anchor, local, (area2[:, :, None] * ref_w).reshape(-1, per_poly)


def _square_nodes(vertices: np.ndarray, first: np.ndarray, order: int):
    """Anchor, node offsets and node weights of whole grid squares.

    A square's nodes are anchor + (hx u, hy v) over the unit-square rule,
    with the anchor its first vertex, the lower-left corner, and hx, hy its
    own sides, taken from its opposite corner, vertex 2.
    """
    ref_nodes, ref_w = _square_rule(order)
    corner = vertices.take(first + np.array([[0], [2]]), axis=0)
    anchor = [corner[0, :, j] for j in range(2)]
    side = [corner[1, :, j] - anchor[j] for j in range(2)]
    local = [np.multiply.outer(side[j], ref_nodes[:, j]) for j in range(2)]
    return anchor, local, np.multiply.outer(side[0] * side[1], ref_w)


def _integrate_cells(
    region: SensorRegion,
    vertices: np.ndarray,
    first: np.ndarray,
    count: np.ndarray,
    order: int,
    centers: np.ndarray | None = None,
    square: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per convex polygon: mass, center of mass, inertia and coverage cost.

    Every integral of the module goes through here, with one of two rules
    of order q = `order`. Polygon i is vertices[first[i]:first[i] + count[i]];
    the vertices, the centers and region.phi share one frame, which every
    caller takes local. Where square[i] is set, polygon i is a whole grid
    square listed CCW from its lower-left corner, and takes the q x q
    Gauss-Legendre product rule (`_square_nodes`: q^2 nodes, exact to degree
    2q - 1 in each variable). Every other polygon is grouped by vertex count
    and each group is fan-triangulated from its first vertex at once
    (`_fan_nodes`: q^2 nodes per triangle, exact to total degree 2q - 2).
    Square is None means no polygon is a square. Whole polygons are taken in
    blocks of about _BLOCK_NODES nodes, phi is evaluated once per block, and
    every sum runs over one polygon's nodes in a fixed order, so no result
    depends on the block size. Moments are taken about the anchor, the first
    vertex: the center of mass is the anchor plus the mean node offset, and
    the inertia is the second moment about it. The coverage cost (phi times
    the squared distance to the nearest of `centers`) stays zero unless
    centers are given.
    """
    n = first.shape[0]
    mass, inertia, cost = np.zeros((3, n))
    com = np.zeros((2, n))
    fan = np.ones(n, dtype=bool) if square is None else ~square
    # (polygons, vertex count) per group; count 0 marks the squares.
    groups = [
        (np.flatnonzero(fan & (count == m)), m) for m in np.unique(count[fan]).tolist()
    ]
    if square is not None:
        groups.append((np.flatnonzero(square), 0))
    for index, m in groups:
        per_poly = (m - 2 if m else 1) * order * order
        step = max(1, _BLOCK_NODES // per_poly)
        for lo in range(0, index.shape[0], step):
            idx = index[lo : lo + step]
            if m:
                anchor, local, node_mass = _fan_nodes(vertices, first[idx], m, order)
            else:
                anchor, local, node_mass = _square_nodes(vertices, first[idx], order)
            pts = np.empty((idx.shape[0], per_poly, 2))
            for j in range(2):
                np.add(anchor[j][:, None], local[j], out=pts[..., j])
            node_mass *= region.phi(pts.reshape(-1, 2)).reshape(-1, per_poly)
            w = node_mass.sum(axis=1)
            safe = np.where(w > 0.0, w, 1.0)
            off = []
            for j in range(2):
                mean = (node_mass * local[j]).sum(axis=1) / safe
                com[j, idx] = anchor[j] + mean
                off.append(local[j] - mean[:, None])
            mass[idx] = w
            inertia[idx] = (node_mass * (off[0] ** 2 + off[1] ** 2)).sum(axis=1)
            if centers is not None:
                d2 = min_squared_distances(pts.reshape(-1, 2), centers)
                cost[idx] = (node_mass * d2.reshape(-1, per_poly)).sum(axis=1)
    return mass, com.T, inertia, cost


def normalize_density(region: SensorRegion) -> SensorRegion:
    """Rescale the density so its integral over the region is one.

    The result is the region rebuilt with density_scale divided by the
    mass, its local view included.
    """
    local = region.local
    one_cell = np.array([0]), np.array([len(local.polygon)])
    mass = float(_integrate_cells(local, local.polygon, *one_cell, _QUAD_ORDER)[0][0])
    if mass <= 0.0:
        raise ValueError("density has zero mass on the region")
    if mass < 1e-9:
        warnings.warn(
            "density mass inside the region is negligible; rescale is "
            "ill-conditioned",
            stacklevel=2,
        )
    return replace(region, density_scale=region.density_scale / mass)


def _clip_squares(
    squares: np.ndarray, polygon: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Clip S squares (S, 4, 2) to a convex polygon at once.

    Sutherland-Hodgman, one polygon edge at a time, on all the pieces end
    to end: one flat array per coordinate and a vertex count per square.
    Each vertex emits the crossing point with the edge's line when its
    predecessor lies on the other side, then itself when it is inside; one
    running sum of these emit counts places the output. Inside tests are
    inclusive within `_inside_slack`, which scales with edge length and cell
    side, so shared edges survive at any offset; each crossing is clamped to
    its segment, so every piece stays in its square. The cleanup then runs
    on a padded (S, width, 2) copy, square by square in sequence, vectorised
    over squares: drop each vertex within `tiny` of the last one kept, drop
    closing vertices within `tiny` of the first, and drop results with
    under 3 vertices or a shoelace area under 1e-12 side^2.

    Returns (vertices, counts): square i clips to vertices[i, :counts[i]],
    CCW, and counts[i] == 0 means the overlap is empty or degenerate. The
    vertex array is at least 4 wide, so it lines up with the squares.
    """
    n_sq = squares.shape[0]
    side = squares[:, :, 0].max(axis=1) - squares[:, :, 0].min(axis=1)
    slack = _inside_slack(polygon, side)
    tiny = 1e-14 * np.maximum(_extent(polygon), side)
    # The pieces end to end, one array per coordinate: square i holds the
    # count[i] vertices from start[i] on.
    x, y, count = squares[:, :, 0].ravel(), squares[:, :, 1].ravel(), np.full(n_sq, 4)
    for (ax, ay), (bx, by), eps in zip(polygon, np.roll(polygon, -1, axis=0), slack):
        ex, ey = bx - ax, by - ay
        start = np.cumsum(count) - count
        s = ex * (y - ay) - ey * (x - ax)
        inside = s >= -np.repeat(eps, count)
        # Each vertex's predecessor, the last one for the head of a piece.
        prev = np.arange(-1, s.shape[0] - 1)
        head = start[count > 0]
        prev[head] = head + count[count > 0] - 1
        # Sides differ exactly when the in/out tests do, so s[p] - s != 0.
        cross = inside != inside[prev]
        end = np.cumsum(cross.astype(np.intp) + inside)
        ends = np.concatenate([[0], end])
        count = ends[start + count] - ends[start]
        out_x, out_y = np.empty((2, ends[-1]))
        r = np.flatnonzero(cross)
        p = prev[r]
        # The slack can leave both ends on one side of the exact line, where
        # t would reach past the segment and out of the square: clamp it.
        t = np.clip(s[p] / (s[p] - s[r]), 0.0, 1.0)
        at = end[r] - 1 - inside[r]
        out_x[at] = x[p] + t * (x[r] - x[p])
        out_y[at] = y[p] + t * (y[r] - y[p])
        r = np.flatnonzero(inside)
        out_x[end[r] - 1] = x[r]
        out_y[end[r] - 1] = y[r]
        x, y = out_x, out_y
    width = max(4, int(count.max(initial=0)))
    start = np.cumsum(count) - count
    slot = np.arange(x.shape[0]) + np.repeat(width * np.arange(n_sq) - start, count)
    verts = np.zeros((n_sq * width, 2))
    verts[slot, 0] = x
    verts[slot, 1] = y
    verts = verts.reshape(n_sq, width, 2)
    kept = np.zeros((n_sq, width), dtype=bool)
    kept[:, 0] = count > 0
    last = verts[:, 0].copy()
    for j in range(1, width):
        far = (np.abs(verts[:, j] - last) > tiny[:, None]).any(axis=1)
        far &= j < count
        kept[:, j] = far
        last[far] = verts[far, j]
    count = kept.sum(axis=1)
    order = np.argsort(~kept, axis=1, kind="stable")
    verts = np.take_along_axis(verts, order[..., None], axis=1)
    rows = np.arange(n_sq)
    while True:
        close = (np.abs(verts[rows, count - 1] - verts[:, 0]) <= tiny[:, None]).all(axis=1)
        close &= count > 1
        if not close.any():
            break
        count[close] -= 1
    count[count < 3] = 0
    d = verts[:, 1:] - verts[:, :1]
    terms = d[:, :-1, 0] * d[:, 1:, 1] - d[:, 1:, 0] * d[:, :-1, 1]
    area2 = np.zeros(n_sq)
    # The terms of one square are summed as one contiguous row, in numpy's
    # own order for that length, so the threshold matches _polygon_area.
    for m in np.unique(count[count > 0]).tolist():
        group = count == m
        area2[group] = terms[group, : m - 2].sum(axis=1)
    count[0.5 * area2 < 1e-12 * side * side] = 0
    return verts, count


def _clip_grid(poly: np.ndarray, grid_eps: float) -> tuple[np.ndarray, ...]:
    """The grid squares clipped to the polygon, nonempty ones in row-major order.

    Blocks of rows are classified on arrays with the clipper's own side test
    and slack: a square whose corners all pass every edge is kept as is
    (clipping would return it unchanged), one whose corners all fail some
    edge is dropped (clipping would return None), and the boundary squares
    left over from every block go through one `_clip_squares` call. Returns
    the polygons' vertices end to end, each one's vertex count, and whether
    clipping changed it from its square.
    """
    x0, y0 = float(poly[:, 0].min()), float(poly[:, 1].min())
    x1, y1 = float(poly[:, 0].max()), float(poly[:, 1].max())
    # The -1e-12 guard keeps exact multiples of grid_eps from spawning an
    # extra all-empty row of cells.
    nx = max(1, math.ceil((x1 - x0) / grid_eps - 1e-12))
    ny = max(1, math.ceil((y1 - y0) / grid_eps - 1e-12))
    # Each square's sides lie on the grid lines, so neighbours share their
    # edge coordinates bit for bit at any offset.
    xs = x0 + np.arange(nx + 1) * grid_eps
    ys = y0 + np.arange(ny + 1) * grid_eps
    left, right = xs[:-1], xs[1:]
    bottom, top = ys[:-1], ys[1:]
    edges = np.roll(poly, -1, axis=0) - poly
    slack = _inside_slack(poly, right - left)
    at_y, at_x, on_boundary = [], [], []
    rows = max(1, _BLOCK_NODES // nx)
    for lo in range(0, ny, rows):
        bot, tp = bottom[lo : lo + rows], top[lo : lo + rows]
        inside = np.ones((bot.shape[0], nx), dtype=bool)
        outside = np.zeros_like(inside)
        for (ax, ay), (ex, ey), eps in zip(poly, edges, slack):
            sb, st = ex * (bot - ay), ex * (tp - ay)
            sl, sr = ey * (left - ax), ey * (right - ax)
            # Corner (x, y) passes when sy - sx >= -eps. Rounding is
            # monotone, so all four corners pass exactly when the least
            # difference does, and none passes exactly when the greatest fails.
            low = np.minimum(sb, st)[:, None] - np.maximum(sl, sr)
            high = np.maximum(sb, st)[:, None] - np.minimum(sl, sr)
            inside &= low >= -eps
            outside |= high < -eps
        iy, ix = np.nonzero(~outside)
        on_boundary.append(~inside[iy, ix])
        at_y.append(iy + lo)
        at_x.append(ix)
    iy, ix, on_boundary = (np.concatenate(a) for a in (at_y, at_x, on_boundary))
    boundary = np.flatnonzero(on_boundary)
    by, bx = iy[boundary], ix[boundary]
    squares = np.empty((boundary.shape[0], 4, 2))
    squares[:, [0, 3], 0] = left[bx, None]
    squares[:, [1, 2], 0] = right[bx, None]
    squares[:, :2, 1] = bottom[by, None]
    squares[:, 2:, 1] = top[by, None]
    verts, count = _clip_squares(squares, poly)
    counts = np.full(iy.shape[0], 4)
    counts[boundary] = count
    clipped = np.zeros(iy.shape[0], dtype=bool)
    clipped[boundary] = (count != 4) | (verts[:, :4] != squares).any(axis=(1, 2))
    # The polygons end to end: interior squares as their four corners, one
    # coordinate and corner at a time, and the boundary pieces in between.
    end = np.cumsum(counts)
    out = np.empty((int(end[-1]), 2))
    inner = np.flatnonzero(~on_boundary)
    at = end[inner] - 4
    cx = left[ix[inner]], right[ix[inner]]
    cy = bottom[iy[inner]], top[iy[inner]]
    for corner, (jx, jy) in enumerate(((0, 0), (1, 0), (1, 1), (0, 1))):
        out[at + corner, 0] = cx[jx]
        out[at + corner, 1] = cy[jy]
    r, j = np.nonzero(np.arange(verts.shape[1]) < count[:, None])
    out[end[boundary][r] - count[r] + j] = verts[r, j]
    kept = counts > 0
    return out, counts[kept], clipped[kept]


def discretize(region: SensorRegion, grid_eps: float) -> Discretization:
    """Clip a square grid to the region and integrate per cell.

    Works on region.local: the grid anchors at the lower-left corner of the
    local polygon's bounding box. Cells are emitted in row-major order (y
    rows, then x), each with mass w_i, center of mass x_i and inertia J_i
    about x_i. Cells with mass under the drop threshold are discarded.
    """
    if not (math.isfinite(grid_eps) and grid_eps > 0.0):
        raise ValueError("grid_eps must be positive and finite")
    verts, counts, clipped = _clip_grid(region.local.polygon, grid_eps)
    first = np.cumsum(counts) - counts
    mass, com, inertia, _ = _integrate_cells(
        region.local, verts, first, counts, _QUAD_ORDER, square=~clipped
    )
    keep = mass >= DROP_WEIGHT
    if not keep.any():
        raise ValueError("grid too coarse or density degenerate")
    # compress, not a boolean index: it moves the (V, 2) rows whole.
    return Discretization(
        verts.compress(np.repeat(keep, counts), axis=0),
        np.concatenate([[0], np.cumsum(counts[keep])]),
        mass[keep],
        com.compress(keep, axis=0),
        inertia[keep],
        clipped.compress(keep),
        region.origin,
    )


def coverage_cost(region: SensorRegion, centers, mesh: Discretization) -> float:
    """Integral of phi(z) * squared distance from z to the nearest center.

    Integrates cell by cell on the mesh with the rules of the fixed order
    the mesh was built with, so quadrature nodes never straddle cell
    boundaries and grid-aligned center configurations are exact. Every cell
    vertex is assigned to its nearest center in one pass. A cell whose
    vertices all go to center c lies inside c's closed Voronoi cell (both
    are convex), so its quadrature value is exactly w |x - c|^2 + J and is
    taken from the mesh arrays; only cells with vertices on more than one
    center are integrated, a whole square with the product rule and a
    clipped piece with the fan, as when the mesh was built, since that
    identity holds only for the rule that gave w, x and J. All terms go into
    one exactly rounded sum. The mesh must come from discretizing this
    region or its local view.
    """
    c = as_center_array(centers)
    if c.shape[0] == 0:
        raise ValueError("no centers")
    _check_dims(2, c)
    c = c - region.origin
    verts, first, counts = mesh.vertices, mesh.starts[:-1], np.diff(mesh.starts)
    owner = _nearest(verts, c)[0]
    cut = np.minimum.reduceat(owner, first) != np.maximum.reduceat(owner, first)
    d = mesh.coms.compress(~cut, axis=0) - c.take(owner[first[~cut]], axis=0)
    uncut = mesh.weights[~cut] * (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
    split = _integrate_cells(
        region.local, verts, first[cut], counts[cut], _QUAD_ORDER, c, ~mesh.clipped[cut]
    )
    return _exact_sum(np.concatenate([uncut, mesh.inertias[~cut], split[3]]))


@dataclass(frozen=True)
class DecompositionReport:
    """Both sides of the coverage-cost split and their absolute gap."""

    lhs: float
    rhs: float
    gap: float
    quantization_cost: float
    inertia_sum: float


def decomposition_check(region: SensorRegion, grid_eps: float, centers) -> DecompositionReport:
    """Compare the coverage integral against clustering cost plus inertias.

    lhs integrates phi * nearest-center distance cell by cell; rhs assigns
    each whole cell to its center of mass's nearest center. The two agree
    exactly when no Voronoi boundary crosses a cell interior; otherwise the
    rhs overshoots and the reported gap measures the discretization error.
    """
    disc = discretize(region, grid_eps)
    lhs = coverage_cost(region, centers, mesh=disc)
    c = as_center_array(centers) - region.origin
    quant = weighted_cost(WeightedPointSet(disc.coms, disc.weights), c)
    inertia = disc.inertia_sum
    rhs = quant + inertia
    return DecompositionReport(lhs, rhs, abs(lhs - rhs), quant, inertia)


@dataclass(frozen=True)
class PlacementReport:
    """Sensor placement with every cost component itemized; centers in the region's frame."""

    centers: CenterSet
    coverage: float
    quantization_cost: float
    inertia_sum: float
    discretization: Discretization
    result: ClusteringResult
    warnings: tuple[str, ...] = field(default_factory=tuple)


def place_sensors(
    region: SensorRegion,
    k: int,
    epsilon: float,
    grid_eps: float,
    solver: str = "ptas",
    master_seed: int = 0,
    overrides: dict | None = None,
    threads: int = 1,
) -> PlacementReport:
    """Normalize, discretize, cluster, and price the resulting placement.

    `wkmeans.SOLVERS[solver]` clusters the cells; k, the solver name and
    master_seed are checked before the density is normalized.

    The reported coverage cost is the cell-by-cell quadrature value for the
    returned centers (not the clustering objective), so the inertia floor and
    any cell-splitting error are included honestly. The result meta records
    that cell-splitting error as decomposition_gap (coverage minus
    quantization cost minus inertia sum) and decomposition_gap_rel (the gap
    over the coverage). Notes on a grid too coarse for the region or for
    the accuracy go to the report's warnings, not to the warnings module.
    """
    _check_positive_int("k", k)
    if solver not in SOLVERS:
        raise ValueError(f"unsupported solver {solver!r}; known: {', '.join(SOLVERS)}")
    _check_seed(master_seed)
    normalized = normalize_density(region)
    disc = discretize(normalized, grid_eps)
    notes = []
    if disc.weights.shape[0] == 1:
        notes.append("grid coarser than region: single-cell discretization")
    X = WeightedPointSet(disc.coms, disc.weights)
    result = SOLVERS[solver](X, k, epsilon, overrides, master_seed, threads)
    inertia = disc.inertia_sum
    coverage = coverage_cost(normalized.local, result.centers, mesh=disc)
    if coverage > 0.0 and inertia > INERTIA_WARN_FRACTION * coverage:
        notes.append(
            f"cell inertia is {inertia / coverage:.1%} of the coverage cost; "
            "grid_eps is too coarse for the requested accuracy"
        )
    meta = dict(result.meta)
    meta["grid_eps"] = grid_eps
    meta["n_cells"] = disc.weights.shape[0]
    meta["n_clipped_cells"] = disc.n_clipped
    gap = coverage - result.cost - inertia
    meta["decomposition_gap"] = gap
    meta["decomposition_gap_rel"] = gap / coverage if coverage > 0.0 else 0.0
    centers = CenterSet(disc.origin + result.centers.centers)
    final = ClusteringResult(centers, result.assignment, result.cost, meta)
    return PlacementReport(
        centers, coverage, result.cost, inertia, disc, final, tuple(notes)
    )


def _floats(*ndims: int):
    """Parser of a float array with one of these dimension counts (any if none).

    Every entry of the nested JSON arrays must be a number (`_number`):
    numpy would read true as 1.0 and "0.5" as 0.5.
    """

    def check(value) -> None:
        if isinstance(value, list):
            for item in value:
                check(item)
        else:
            _number(value)

    def parse(value) -> np.ndarray:
        check(value)
        arr = np.asarray(value, dtype=np.float64)
        if ndims and arr.ndim not in ndims:
            allowed = " or ".join(f"{d}-D" for d in ndims)
            raise ValueError(f"expected a {allowed} array, got {arr.ndim}-D")
        return arr

    return parse


def _number(value) -> float:
    """A JSON number as a float; true, false, strings and huge integers are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("integer too large for float64") from None


def _origin(value) -> tuple[float, float]:
    return _number(value[0]), _number(value[1])


# Per density type: its class and each field's parser; a field that is
# absent takes the default when one is listed.
_DENSITY_FIELDS = {
    "uniform": (UniformDensity, {"level": (_number, 1.0)}),
    "gaussian_mixture": (
        GaussianMixtureDensity,
        {"means": (_floats(1, 2),), "covariances": (_floats(2, 3),), "mixing": (_floats(),)},
    ),
    "raster": (
        RasterDensity,
        {"origin": (_origin,), "pixel_size": (_number,), "values": (_floats(),)},
    ),
}


def _parse_density(spec: dict) -> Density:
    """The density a region file describes; errors name the type and field."""
    kind = spec.get("type")
    if not isinstance(kind, str) or kind not in _DENSITY_FIELDS:
        raise RegionFileError(f"unknown density type: {kind!r}")
    cls, fields = _DENSITY_FIELDS[kind]
    args = {}
    for name, (parse, *default) in fields.items():
        if name not in spec:
            if not default:
                raise RegionFileError(f"{kind} density missing {name!r}")
            args[name] = default[0]
            continue
        try:
            args[name] = parse(spec[name])
        except (TypeError, ValueError, IndexError) as exc:
            raise RegionFileError(f"{kind} density {name!r}: {exc}") from None
    try:
        return cls(**args)
    except (TypeError, ValueError, IndexError) as exc:
        raise RegionFileError(f"{kind} density: {exc}") from None


def load_region(path: str | Path) -> tuple[SensorRegion, float | None]:
    """Read a region file: polygon, density spec, optional grid_eps."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise RegionFileError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise RegionFileError("region file must hold a JSON object")
    if "polygon" not in doc or "density" not in doc:
        raise RegionFileError("region file needs 'polygon' and 'density'")
    if not isinstance(doc["density"], dict):
        raise RegionFileError("'density' must be a JSON object")
    density = _parse_density(doc["density"])
    try:
        polygon = _floats()(doc["polygon"])
    except (TypeError, ValueError) as exc:
        raise RegionFileError(f"'polygon': {exc}") from None
    try:
        region = SensorRegion(polygon, density)
    except (TypeError, ValueError, IndexError) as exc:
        raise RegionFileError(str(exc)) from None
    grid_eps = doc.get("grid_eps")
    if grid_eps is not None:
        try:
            grid_eps = _number(grid_eps)
        except (TypeError, ValueError) as exc:
            raise RegionFileError(f"'grid_eps': {exc}") from None
    return region, grid_eps
