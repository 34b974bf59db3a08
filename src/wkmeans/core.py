"""Weighted point sets, center sets, and squared-Euclidean cost primitives.

Everything downstream (seeding, the sampling-based approximation scheme,
Lloyd refinement, the exact oracle, and the coverage solver) is built on the
handful of operations defined here. All functions are pure and operate on
immutable inputs; cost accumulation uses exactly rounded summation so results
do not depend on summation order.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "WeightedPointSet",
    "CenterSet",
    "ClusteringResult",
    "PointFileError",
    "min_squared_distances",
    "weighted_cost",
    "weighted_centroid",
    "load_weighted_points",
    "save_weighted_points",
]


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class WeightedPointSet:
    """A nonempty set of points in R^d, each carrying a positive weight.

    `coords` has shape (n, d) and `weights` shape (n,); both are stored as
    read-only float64 arrays.
    """

    coords: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        coords = np.atleast_2d(np.asarray(self.coords, dtype=np.float64))
        weights = np.asarray(self.weights, dtype=np.float64).ravel()
        if coords.ndim != 2 or coords.shape[0] == 0:
            raise ValueError("point set must be a nonempty (n, d) array")
        if weights.shape[0] != coords.shape[0]:
            raise ValueError(
                f"{weights.shape[0]} weights for {coords.shape[0]} points"
            )
        if not np.all(np.isfinite(coords)):
            raise ValueError("coordinates must be finite")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise ValueError("weights must be positive and finite")
        object.__setattr__(self, "coords", _readonly(coords))
        object.__setattr__(self, "weights", _readonly(weights))

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    @property
    def total_weight(self) -> float:
        return _exact_sum(self.weights)

    def subset(self, indices: Sequence[int]) -> "WeightedPointSet":
        """Sub-multiset by index; repeated indices contribute repeatedly."""
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size == 0:
            raise ValueError("empty subset")
        return WeightedPointSet(self.coords[idx], self.weights[idx])



@dataclass(frozen=True)
class CenterSet:
    """An ordered list of k >= 1 centers in R^d, shape (k, d), read-only."""

    centers: np.ndarray

    def __post_init__(self) -> None:
        centers = np.atleast_2d(np.asarray(self.centers, dtype=np.float64))
        if centers.shape[0] == 0:
            raise ValueError("no centers")
        if not np.all(np.isfinite(centers)):
            raise ValueError("centers must be finite")
        object.__setattr__(self, "centers", _readonly(centers))

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


def as_center_array(centers: "CenterSet | np.ndarray | Sequence | None") -> np.ndarray:
    """Normalize a center argument to a (k, d) float array; k may be 0."""
    if centers is None:
        return np.empty((0, 0))
    if isinstance(centers, CenterSet):
        return centers.centers
    arr = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    return arr


def _check_dims(d_points: int, centers: np.ndarray) -> None:
    if centers.shape[0] > 0 and centers.shape[1] != d_points:
        raise ValueError(
            f"dimension mismatch: points are {d_points}-d, centers are "
            f"{centers.shape[1]}-d"
        )


# Values per (k, m) block of the distance kernel: 512 KiB of float64.
_BLOCK_VALUES = 1 << 16


def _sq_dist_rows(
    coords_t: np.ndarray, c: np.ndarray, out: np.ndarray, diff: np.ndarray
) -> None:
    """out[r, p] = ||point p - c[r]||^2 from per-coordinate differences.

    coords_t is the (d, m) transposed coordinate block, c is (k, d), out is
    (k, m) and diff a (k, m) scratch buffer. The squares are summed over
    coordinates left to right. Given the centers as coords_t and the points
    as c, it fills a point-major (n, centers) block with the same bytes,
    since a difference and its negation square alike. Differencing before
    squaring keeps each error relative to the distance itself, whatever
    offset the coordinates carry;
    the inner-product expansion loses it at geo-referenced offsets. Every
    entry depends only on its own point and center, so no value changes
    with k, the block size or the caller.
    """
    np.subtract(coords_t[0], c[:, :1], out=out)
    np.square(out, out=out)
    for j in range(1, coords_t.shape[0]):
        np.subtract(coords_t[j], c[:, j : j + 1], out=diff)
        np.square(diff, out=diff)
        out += diff


def _nearest(
    points, centers, index: bool = True
) -> tuple[np.ndarray | None, np.ndarray]:
    """Per point, the nearest center's index and its squared distance, (n,).

    The index is None when not asked for. Ties go to the lowest center
    index: rows are scanned from last to first, and each one whose distance
    equals the column minimum overwrites the index, which is about twice as
    fast as `np.argmin` over the (k, m) block. The points are walked in
    (k, m) kernel blocks of at most max(k, _BLOCK_VALUES) values.
    """
    c = as_center_array(centers)
    if c.shape[0] == 0:
        raise ValueError("no centers")
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    _check_dims(pts.shape[1], c)
    n, k = pts.shape[0], c.shape[0]
    coords_t = np.ascontiguousarray(pts.T)
    cols = max(1, _BLOCK_VALUES // k)
    dist = np.empty(n)
    idx = np.full(n, k - 1, dtype=np.intp) if index else None
    work = np.empty((2, k, min(cols, n)))
    hit = np.empty(min(cols, n), dtype=bool)
    for lo in range(0, n, cols):
        hi = min(lo + cols, n)
        d2, diff = work[:, :, : hi - lo]
        _sq_dist_rows(coords_t[:, lo:hi], c, d2, diff)
        np.min(d2, axis=0, out=dist[lo:hi])
        if index:
            for g in range(k - 2, -1, -1):
                np.equal(d2[g], dist[lo:hi], out=hit[: hi - lo])
                np.putmask(idx[lo:hi], hit[: hi - lo], g)
    return idx, dist


def min_squared_distances(points: np.ndarray, centers) -> np.ndarray:
    """Per-point squared distance to the nearest center, shape (n,)."""
    return _nearest(points, centers, index=False)[1]


# Terms per `_exact_sum` chunk: below 2^26, each exponent bucket's sum of
# mantissa parts (at most 27 bits each) stays under 2^53, so float64 holds
# it exactly.
_EXACT_CHUNK = (1 << 26) - 1
# Below this many terms `math.fsum` of a list is faster than the bucket sum's
# fixed numpy cost of about 60 us (1 against 68 us at 12 terms, 65 against
# 68 us at 1,200 and 81 against 71 us at 1,500, timed in isolation on a
# 2-vCPU host).
_EXACT_MIN_TERMS = 1300


def _exact_sum(terms: np.ndarray) -> float:
    """Correctly rounded sum of nonnegative float64 terms; equals math.fsum.

    Each term is split by `np.frexp` into a 53-bit integer mantissa and an
    exponent, and the mantissa's high 27 and low 26 bits are summed per
    exponent with `np.bincount`. Those sums are exact integers below 2^53,
    so `np.ldexp` turns each into an exact float, subnormals included, and
    `math.fsum` rounds their sum (at most 4,198 partials per chunk) once.
    Inputs under `_EXACT_MIN_TERMS` terms, non-finite terms and sums that
    overflow go to `math.fsum` itself.
    """
    x = np.ravel(terms)
    if x.size >= _EXACT_MIN_TERMS and np.isfinite(x).all():
        parts = []
        for lo in range(0, x.size, _EXACT_CHUNK):
            m, e = np.frexp(x[lo : lo + _EXACT_CHUNK])
            mant = (m * 2.0**53).astype(np.int64)
            # frexp exponents of nonzero doubles run from -1073 to 1024.
            e += 1074
            hi = np.bincount(e, weights=mant >> 26)
            low = np.bincount(e, weights=mant & ((1 << 26) - 1))
            scale = np.arange(hi.size) - (1074 + 53)
            with np.errstate(over="ignore"):
                parts += [np.ldexp(hi, scale + 26), np.ldexp(low, scale)]
        p = np.concatenate(parts)
        # An infinite partial means the sum overflows: math.fsum raises.
        if np.isfinite(p).all():
            return math.fsum(p[p != 0.0].tolist())
    return math.fsum(x.tolist())


def _check_positive_int(name: str, value) -> None:
    """Raise ValueError unless value is an int >= 1 (a bool or float is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _check_seed(seed) -> None:
    """Raise ValueError unless seed is an int >= 0 (a bool or float is not)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _cost(weights: np.ndarray, d2: np.ndarray) -> float:
    """Correctly rounded sum of w_p * d2_p."""
    return _exact_sum(weights * d2)


def weighted_cost(P: WeightedPointSet, centers) -> float:
    """Total cost sum_p w_p * min_c ||p - c||^2.

    Accumulated exactly (`_exact_sum`, equal to math.fsum), so the value is
    the correctly rounded sum of the per-point terms and independent of
    their order.
    """
    return _cost(P.weights, _nearest(P.coords, centers, index=False)[1])


def weighted_centroid(P: WeightedPointSet) -> np.ndarray:
    """Weight-averaged mean of a point set, shape (d,).

    The centroid is the unique single-center minimizer of the weighted
    squared-distance cost. `WeightedPointSet` already refuses an empty set,
    mismatched weights and weights that are not positive.
    """
    coords, w = P.coords, P.weights
    sums = [math.fsum((w * coords[:, j]).tolist()) for j in range(P.dim)]
    return np.array(sums) / math.fsum(w.tolist())


@dataclass(frozen=True)
class ClusteringResult:
    """Centers plus the induced assignment, cost, and solver provenance."""

    centers: CenterSet
    assignment: np.ndarray
    cost: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        a = np.asarray(self.assignment, dtype=np.intp)
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)

    @classmethod
    def from_centers(
        cls, P: WeightedPointSet, centers, meta: dict | None = None
    ) -> "ClusteringResult":
        """Build a result with the assignment and cost recomputed from scratch."""
        cs = centers if isinstance(centers, CenterSet) else CenterSet(centers)
        assignment, d2 = _nearest(P.coords, cs)
        return cls(cs, assignment, _cost(P.weights, d2), dict(meta or {}))


def _in_local_frame(P: WeightedPointSet, solve) -> ClusteringResult:
    """solve(P) run on P's points as offsets from its first one.

    solve takes a WeightedPointSet and returns a ClusteringResult. The
    origin is added to its centers once; the assignment, cost and meta are
    solve's. So a translation that moves every coordinate exactly (a dyadic
    input and shift, say) moves no output byte but the centers, by the
    shift. The offsets are F-ordered, so their transpose, the (d, n) block
    the distance kernel reads, needs no copy. Offsets past float64 raise
    ValueError, and so does a weight total past float64: the solvers draw,
    average and price with weight sums, which would turn every cost nan.
    The message gives the total, summed exactly at a scale of 2^-64.
    """
    try:
        P.total_weight
    except OverflowError:
        # Imported here: decimal adds about 1.5 ms to every interpreter
        # that imports this module.
        from decimal import Decimal

        total = Decimal(_exact_sum(np.ldexp(P.weights, -64))) * 2**64
        raise ValueError(
            f"weight total {total:.3g} overflows float64; scale the weights down"
        ) from None
    origin = P.coords[0].copy()
    with np.errstate(over="ignore"):
        local_t = np.subtract(P.coords.T, origin[:, None], order="C")
    if not np.isfinite(local_t).all():
        raise ValueError("coordinate differences overflow float64")
    res = solve(WeightedPointSet(local_t.T, P.weights))
    return replace(res, centers=CenterSet(res.centers.centers + origin))


class PointFileError(ValueError):
    """Malformed weighted-point CSV; carries the 1-based offending line."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def load_weighted_points(path: str | Path) -> WeightedPointSet:
    """Read a weighted point set from CSV with header x1,...,xd,weight.

    The body goes through numpy's C reader in one pass. When it refuses the
    file, or reads a column count other than the header's, the file is read
    again row by row with `float`, which names the offending line and reads
    the few spellings only `float` accepts (such as `1_000`). Blank and
    whitespace-only lines are skipped, fields may be quoted, and `#` starts
    no comment.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        if not fh.seekable():
            # A pipe: keep its text, so the row reader can start over.
            fh = io.StringIO(fh.read(), newline="")
        width = _read_header(csv.reader(fh))
        try:
            with warnings.catch_warnings():
                # A header-only body: the row reader reports it.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
        except ValueError:
            data = None
        if data is None or data.shape[1] != width:
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            data = _read_rows(reader, width)
    try:
        return WeightedPointSet(data[:, :-1], data[:, -1])
    except ValueError as exc:
        raise PointFileError(2, str(exc)) from None


def _read_header(reader) -> int:
    """Check the header record x1,...,xd,weight; returns its width d + 1."""
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise PointFileError(reader.line_num, str(exc)) from None
    if header is None:
        raise PointFileError(1, "empty file")
    header = [h.strip() for h in header]
    if len(header) < 2 or header[-1] != "weight":
        raise PointFileError(1, "header must be x1,...,xd,weight")
    expected = [f"x{i + 1}" for i in range(len(header) - 1)]
    if header[:-1] != expected:
        raise PointFileError(1, f"coordinate columns must be {','.join(expected)}")
    return len(header)


def _read_rows(reader, width: int) -> np.ndarray:
    """The body record by record with `float`, (n, width); errors name the line."""
    rows: list[list[float]] = []
    try:
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != width:
                raise PointFileError(lineno, f"expected {width} fields, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise PointFileError(lineno, f"bad number: {exc}") from None
    except csv.Error as exc:
        raise PointFileError(reader.line_num, str(exc)) from None
    if not rows:
        raise PointFileError(2, "no data rows")
    return np.array(rows)


# Rows per block of `_write_rows`. Saving 20,000 2-d points raised peak RSS by
# 0.25 MiB at 2^10 rows and 5.4 MiB at 2^14, and pymalloc keeps that memory;
# 300,000 points saved no faster with the larger blocks.
_WRITE_ROWS = 1 << 10


def _write_rows(fh, P: WeightedPointSet, newline: str, labels=None) -> None:
    """Write P as CSV rows x1,...,xd,weight[,cluster], one block at a time.

    Floats are written with `repr`, the shortest string that reads back to
    the same double, and labels with `str`; these are the fields
    `csv.writer` would write, and none of them needs quoting.
    """
    header = [f"x{i + 1}" for i in range(P.dim)] + ["weight"]
    if labels is not None:
        header.append("cluster")
    fh.write(",".join(header) + newline)
    for lo in range(0, P.n, _WRITE_ROWS):
        hi = min(lo + _WRITE_ROWS, P.n)
        cols = [map(repr, P.coords[lo:hi, j].tolist()) for j in range(P.dim)]
        cols.append(map(repr, P.weights[lo:hi].tolist()))
        if labels is not None:
            cols.append(map(str, labels[lo:hi].tolist()))
        fh.write(newline.join(map(",".join, zip(*cols))) + newline)


def save_weighted_points(path: str | Path, P: WeightedPointSet) -> None:
    """Write a weighted point set as CSV with CRLF line ends; floats use repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_rows(fh, P, "\r\n")
