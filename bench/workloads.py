"""The three benchmark workloads: seeded inputs, one closed-loop op, checks.

Every workload is driven through the public API only. `run(i, threads)`
performs op `i` and returns its outputs plus the wall time of each public
call; `check(i, out)` verifies those outputs against independent numpy
recomputations and returns a list of failure messages (empty when the op is
correct). Op `i` is a deterministic function of (workload seed, i), so the
first `min_ops` ops, which every run performs, give quality figures and
counts that repeat exactly at the same seed.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wkmeans import baselines, core, instances, ptas, sensor
from wkmeans.sampling import RandomSource

HIT_FACTOR = 1.5
COST_RTOL = 1e-9


def master_seed(seed: int, i: int) -> int:
    """The solver seed of op i: distinct for every op of every run."""
    return seed * 100_000 + i


@dataclass
class OpOutput:
    """What one op returned: wall times (s) per public call, fingerprint, results."""

    timings: dict[str, list[float]]
    fingerprint: bytes
    results: dict


def _numpy_cost(coords: np.ndarray, weights: np.ndarray, centers: np.ndarray) -> float:
    """Weighted k-means cost by direct differences, independent of wkmeans."""
    d2 = ((coords[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).min(axis=1)
    return float(np.dot(weights, d2))


def _fingerprint(result: core.ClusteringResult) -> bytes:
    return (
        np.ascontiguousarray(result.centers.centers).tobytes()
        + np.ascontiguousarray(result.assignment).tobytes()
        + repr(result.cost).encode()
    )


def _check_result(
    tag: str, P: core.WeightedPointSet, result: core.ClusteringResult, k: int
) -> list[str]:
    """Centers finite with shape (k, d); cost equal to a numpy recomputation."""
    c = result.centers.centers
    if c.shape != (k, P.dim) or not np.all(np.isfinite(c)):
        return [f"{tag}: centers have shape {c.shape} or are not finite"]
    ref = _numpy_cost(P.coords, P.weights, c)
    if not abs(result.cost - ref) <= COST_RTOL * abs(ref):
        return [f"{tag}: cost {result.cost!r} differs from recomputed {ref!r}"]
    return []


def _check_history(tag: str, history: list[float]) -> list[str]:
    rises = [i for i in range(1, len(history)) if history[i] > history[i - 1]]
    if rises:
        return [f"{tag}: cost_history rises at step {rises[0]}"]
    return []


class ClusterGeo:
    """20,000 geo-referenced points in 4 planted blobs; PTAS then Lloyd."""

    name = "cluster-geo"
    k = 4
    epsilon = 0.5
    overrides = {"c1": 8.0, "c2": 4.0, "trials": 1, "tuple_budget": 1024}
    n = 20_000
    box_m = 10_000.0
    sigma_m = 600.0
    min_separation_m = 3_000.0
    offset = np.array([5.0e5, 5.0e6])
    min_ops = 9
    timing_names = ("solve_s", "baseline_s")

    def __init__(self, seed: int) -> None:
        gen = np.random.default_rng([seed, 1])
        planted: list[np.ndarray] = []
        while len(planted) < self.k:
            c = gen.uniform(2 * self.sigma_m, self.box_m - 2 * self.sigma_m, 2)
            if all(np.linalg.norm(c - p) >= self.min_separation_m for p in planted):
                planted.append(c)
        self.planted = np.array(planted) + self.offset
        labels = gen.integers(0, self.k, self.n)
        coords = self.planted[labels] + gen.normal(0.0, self.sigma_m, (self.n, 2))
        weights = gen.lognormal(0.0, 1.0, self.n)
        self.points = core.WeightedPointSet(coords, weights)
        self.reference = _numpy_cost(coords, weights, self.planted)
        self.seed = seed

    def write_inputs(self, directory: Path) -> dict[str, Path]:
        path = directory / "cluster_geo.csv"
        core.save_weighted_points(path, self.points)
        return {"points": path}

    def setup_code(self, inputs: dict[str, Path]) -> str:
        return (
            "import wkmeans\n"
            "from wkmeans import baselines, core, ptas\n"
            f"core.load_weighted_points({str(inputs['points'])!r})\n"
        )

    def run(self, i: int, threads: int = 1) -> OpOutput:
        ms = master_seed(self.seed, i)
        t0 = time.perf_counter()
        solved = ptas.solve(
            self.points, self.k, self.epsilon, self.overrides,
            master_seed=ms, threads=threads,
        )
        t1 = time.perf_counter()
        base = baselines.kmeanspp_lloyd(self.points, self.k, RandomSource(ms))
        t2 = time.perf_counter()
        return OpOutput(
            {"solve_s": [t1 - t0], "baseline_s": [t2 - t1]},
            _fingerprint(solved) + _fingerprint(base),
            {"ptas": solved, "baseline": base},
        )

    def quality(self, i: int, out: OpOutput) -> dict[str, list[float]]:
        return {
            "ptas_cost_ratio": [out.results["ptas"].cost / self.reference],
            "baseline_cost_ratio": [out.results["baseline"].cost / self.reference],
        }

    def check(self, i: int, out: OpOutput) -> list[str]:
        P = self.points
        return (
            _check_result("ptas", P, out.results["ptas"], self.k)
            + _check_result("kmeanspp_lloyd", P, out.results["baseline"], self.k)
            + _check_history("kmeanspp_lloyd", out.results["baseline"].meta["cost_history"])
        )

    def cli_args(self, inputs: dict[str, Path], output: Path) -> list[str]:
        return [
            "cluster", "--input", str(inputs["points"]), "--k", str(self.k),
            "--epsilon", repr(self.epsilon), *_override_flags(self.overrides),
            "--seed", str(master_seed(self.seed, 0)), "--output", str(output),
        ]

    def cli_matches(self, doc: dict, out: OpOutput) -> bool:
        solved = out.results["ptas"]
        return doc["centers"] == solved.centers.centers.tolist() and doc["cost"] == solved.cost


class SensorFine:
    """Regular hexagon in the unit square, 3-bump density, grid_eps 0.01."""

    name = "sensor-fine"
    k = 4
    epsilon = 0.5
    grid_eps = 0.01
    overrides = {"c1": 8.0, "c2": 4.0, "trials": 1, "tuple_budget": 256}
    bump_anchors = np.array([[0.3, 0.35], [0.7, 0.4], [0.5, 0.7]])
    min_ops = 3
    timing_names = ("place_s",)

    def __init__(self, seed: int) -> None:
        gen = np.random.default_rng([seed, 2])
        angles = np.pi + np.arange(6) * np.pi / 3.0
        hexagon = 0.5 + 0.5 * np.column_stack([np.cos(angles), np.sin(angles)])
        means = self.bump_anchors + gen.uniform(-0.05, 0.05, (3, 2))
        sds = gen.uniform(0.10, 0.18, 3)
        covs = np.array([np.eye(2) * s * s for s in sds])
        mixing = gen.uniform(0.5, 1.5, 3)
        self.doc = {
            "polygon": hexagon.tolist(),
            "density": {
                "type": "gaussian_mixture",
                "means": means.tolist(),
                "covariances": covs.tolist(),
                "mixing": mixing.tolist(),
            },
        }
        self.region = sensor.SensorRegion(
            hexagon, sensor.GaussianMixtureDensity(means, covs, mixing)
        )
        self.seed = seed
        self._reference: float | None = None

    def write_inputs(self, directory: Path) -> dict[str, Path]:
        path = directory / "sensor_fine.json"
        path.write_text(json.dumps(self.doc), encoding="utf-8")
        return {"region": path}

    def setup_code(self, inputs: dict[str, Path]) -> str:
        return (
            "import wkmeans\n"
            "from wkmeans import ptas, sensor\n"
            f"sensor.load_region({str(inputs['region'])!r})\n"
        )

    def run(self, i: int, threads: int = 1) -> OpOutput:
        t0 = time.perf_counter()
        report = sensor.place_sensors(
            self.region, self.k, self.epsilon, self.grid_eps,
            master_seed=master_seed(self.seed, i), overrides=self.overrides,
            threads=threads,
        )
        t1 = time.perf_counter()
        return OpOutput(
            {"place_s": [t1 - t0]},
            _fingerprint(report.result) + repr(report.coverage).encode(),
            {"report": report},
        )

    def quality(self, i: int, out: OpOutput) -> dict[str, list[float]]:
        report = out.results["report"]
        gap = abs(report.coverage - report.quantization_cost - report.inertia_sum)
        return {
            "ptas_cost_ratio": [report.coverage / self._reference_cost(report)],
            "coverage": [report.coverage],
            "decomposition_gap_rel": [gap / report.coverage],
        }

    def _reference_cost(self, report: sensor.PlacementReport) -> float:
        """Best-of-3 k-means++/Lloyd cost on the same cells plus their inertia.

        This approximates the coverage of the baseline placement; the cells
        are identical in every op of a run, so it is computed once.
        """
        if self._reference is None:
            X = report.discretization.as_point_set
            best = min(
                baselines.kmeanspp_lloyd(X, self.k, RandomSource(self.seed).derive(j)).cost
                for j in range(3)
            )
            self._reference = best + report.inertia_sum
        return self._reference

    def check(self, i: int, out: OpOutput) -> list[str]:
        report = out.results["report"]
        X = report.discretization.as_point_set
        fails = _check_result("place_sensors", X, report.result, self.k)
        if not fails:
            ref = _numpy_cost(X.coords, X.weights, report.centers.centers)
            if not abs(report.quantization_cost - ref) <= COST_RTOL * ref:
                fails.append("place_sensors: quantization_cost differs from recomputed")
        if not (math.isfinite(report.coverage) and report.coverage > 0.0):
            fails.append(f"place_sensors: coverage {report.coverage!r}")
        return fails

    def cli_args(self, inputs: dict[str, Path], output: Path) -> list[str]:
        return [
            "sensor", "--region", str(inputs["region"]), "--k", str(self.k),
            "--epsilon", repr(self.epsilon), "--grid-eps", repr(self.grid_eps),
            *_override_flags(self.overrides),
            "--seed", str(master_seed(self.seed, 0)), "--output", str(output),
        ]

    def cli_matches(self, doc: dict, out: OpOutput) -> bool:
        report = out.results["report"]
        return (
            doc["centers"] == report.centers.centers.tolist()
            and doc["coverage_cost"] == report.coverage
        )


class DeskSuite:
    """The five oracle instances (n <= 12); one op solves each of them once."""

    name = "desk-suite"
    epsilon = 0.5
    overrides = {"c1": 8.0, "c2": 4.0, "tuple_budget": 2000}
    min_ops = 50
    timing_names = ("solve_s",)

    def __init__(self, seed: int) -> None:
        self.instances = instances.oracle_instances()
        self.seed = seed

    def write_inputs(self, directory: Path) -> dict[str, Path]:
        return {}

    def setup_code(self, inputs: dict[str, Path]) -> str:
        return (
            "import wkmeans\n"
            "from wkmeans import instances, ptas\n"
            "instances.oracle_instances()\n"
        )

    def run(self, i: int, threads: int = 1) -> OpOutput:
        solved, times = [], []
        for inst in self.instances:
            t0 = time.perf_counter()
            solved.append(
                ptas.solve(
                    inst.points, inst.k, self.epsilon, self.overrides,
                    master_seed=master_seed(self.seed, i), threads=threads,
                )
            )
            times.append(time.perf_counter() - t0)
        return OpOutput(
            {"solve_s": times}, b"".join(_fingerprint(r) for r in solved), {"ptas": solved}
        )

    def quality(self, i: int, out: OpOutput) -> dict[str, list[float]]:
        return {
            "ptas_cost_ratio": [
                r.cost / inst.opt_cost for r, inst in zip(out.results["ptas"], self.instances)
            ]
        }

    def check(self, i: int, out: OpOutput) -> list[str]:
        fails = []
        for inst, solved in zip(self.instances, out.results["ptas"]):
            fails += _check_result(f"ptas {inst.name}", inst.points, solved, inst.k)
            if solved.cost < inst.opt_cost * (1.0 - 1e-12):
                fails.append(
                    f"ptas {inst.name}: cost {solved.cost!r} below optimum {inst.opt_cost!r}"
                )
        return fails


def _override_flags(overrides: dict) -> list[str]:
    flags = []
    for key, value in overrides.items():
        flags += ["--" + key.replace("_", "-"), repr(value)]
    return flags


WORKLOADS = {w.name: w for w in (ClusterGeo, SensorFine, DeskSuite)}
