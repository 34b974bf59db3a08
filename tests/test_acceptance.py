"""The nine acceptance gates, one test per criterion.

Each test enforces its stated tolerance and runtime budget and prints one
``criterion N: PASS/FAIL`` line (visible with -s or on failure). Parameters
are pinned, not tuned: if a gate regresses, the right fix is in the library,
never here.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import chisquare

from wkmeans import cli
from wkmeans.baselines import kmeanspp_lloyd
from wkmeans.core import (
    WeightedPointSet,
    min_squared_distances,
    save_weighted_points,
    weighted_cost,
)
from wkmeans.instances import chi6, inaba10, oracle_instances, random_instance, skew12
from wkmeans.oracle import brute_force_opt
from wkmeans.ptas import solve
from wkmeans.sampling import RandomSource
from wkmeans.sensor import SensorRegion, UniformDensity, decomposition_check, place_sensors
from wkmeans.verification import _draw, _inaba_rate, _parallel_axis_rhs

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_c1_parallel_axis_identity():
    started = time.perf_counter()
    rng = RandomSource(101)
    worst = 0.0
    for i in range(1000):
        P = random_instance(rng.derive(i))
        c = rng.derive(i, 1).generator().random(P.dim) * 2.0 - 0.5
        lhs = weighted_cost(P, [c])
        rhs = _parallel_axis_rhs(P, c)
        worst = max(worst, abs(lhs - rhs) / max(lhs, 1e-300))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(1, ok, f"max rel gap {worst:.3e} over 1000 instances in {elapsed:.2f}s")


def test_c2_distance_weighted_sampling_distribution():
    started = time.perf_counter()
    P, center = chi6()
    mass = P.weights * min_squared_distances(P.coords, center)
    draws = _draw(mass, 100_000, RandomSource(2026).generator())
    counts = np.bincount(draws, minlength=P.n)
    probs = mass / math.fsum(mass)
    live = probs > 0.0
    assert counts[~live].sum() == 0
    stat, pvalue = chisquare(counts[live], 100_000 * probs[live])

    first = _draw(np.array([1.0, 3.0]), 100_000, RandomSource(2027).generator())
    freq = float(np.mean(first == 1))
    elapsed = time.perf_counter() - started
    ok = pvalue >= 0.001 and 0.743 <= freq <= 0.757 and elapsed < 5.0
    _report(2, ok, f"chi2 p={pvalue:.4f}, heavy-point freq {freq:.4f} in {elapsed:.2f}s")


def test_c3_subsample_centroid_success_rate():
    """The solver's estimator, the w-weighted mean of M draws made in
    proportion to w, lands in its 1 - delta cost band (derived in
    `verification._inaba_rate`); at M = 1000 the band excludes the optimum."""
    started = time.perf_counter()
    P = inaba10()
    results = []
    configs = ((20, 0.5, 10_000, 31), (100, 0.25, 10_000, 32), (1000, 0.5, 1000, 33))
    for M, delta, reps, seed in configs:
        rate, _, _ = _inaba_rate(P, M, delta, reps, RandomSource(seed).generator())
        sigma = np.sqrt(delta * (1.0 - delta) / reps)
        results.append((M, delta, rate, 1.0 - delta - 3.0 * sigma))
    elapsed = time.perf_counter() - started
    ok = all(rate >= bound for _, _, rate, bound in results) and elapsed < 30.0
    detail = ", ".join(
        f"(M={M}, delta={d}): rate {r:.4f} >= {b:.4f}" for M, d, r, b in results
    )
    _report(3, ok, f"{detail} in {elapsed:.2f}s")


def test_c4_oracle_matches_hand_optima():
    started = time.perf_counter()
    expected_groups = {
        "line4": [[0, 1], [2, 3]],
        "heavy2": [[0, 1]],
        "pairw4": [[0, 1], [2, 3]],
        "skew12": [list(range(8)), [8, 9, 10], [11]],
        "wskew9": [[0, 1, 2, 3], [4, 5, 6], [7, 8]],
    }
    failures = []
    for inst in oracle_instances():
        res = brute_force_opt(inst.points, inst.k)
        groups = res.meta["groups"]
        if groups != expected_groups[inst.name]:
            failures.append(f"{inst.name}: groups {groups}")
        elif abs(res.cost - inst.opt_cost) > 5e-15 * inst.opt_cost:
            failures.append(f"{inst.name}: cost {res.cost!r} vs {inst.opt_cost!r}")
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 10.0
    _report(4, ok, f"{failures or '5 instances exact'} in {elapsed:.2f}s")


def test_c5_ptas_desk_scale_approximation():
    started = time.perf_counter()
    overrides = {"c1": 8.0, "c2": 4.0, "tuple_budget": 2000}
    tallies = []
    for inst in oracle_instances():
        bound = 1.5 * inst.opt_cost * (1.0 + 1e-12)
        hits = sum(
            solve(inst.points, inst.k, 0.5, overrides, master_seed=s).cost <= bound
            for s in range(100)
        )
        tallies.append((inst.name, hits))
    elapsed = time.perf_counter() - started
    ok = all(hits >= 95 for _, hits in tallies) and elapsed < 120.0
    detail = ", ".join(f"{name} {hits}/100" for name, hits in tallies)
    _report(5, ok, f"{detail} in {elapsed:.2f}s")


def test_c6_lloyd_descent_is_monotone():
    started = time.perf_counter()
    rng = RandomSource(606)
    worst = -np.inf
    for i in range(100):
        P = random_instance(rng.derive(i), max_n=200, max_dim=3)
        k = 1 + i % 5
        history = kmeanspp_lloyd(P, k, rng.derive(i, 1)).meta["cost_history"]
        worst = max(worst, float(np.max(np.diff(history), initial=-np.inf)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 10.0
    _report(6, ok, f"largest per-step increase {worst:.3e} in {elapsed:.2f}s")


def test_c7_coverage_cost_decomposition():
    started = time.perf_counter()
    region = SensorRegion(UNIT_SQUARE, UniformDensity())
    center = decomposition_check(region, 0.5, np.array([[0.5, 0.5]]))
    centered_ok = (
        center.gap <= 1e-6
        and center.lhs == pytest.approx(1.0 / 6.0, abs=1e-9)
        and center.quantization_cost == pytest.approx(0.125, abs=1e-9)
        and center.inertia_sum == pytest.approx(1.0 / 24.0, abs=1e-9)
    )
    aligned = decomposition_check(region, 0.5, np.array([[0.25, 0.5], [0.75, 0.5]]))
    generic_centers = np.array([[0.31, 0.47], [0.69, 0.58]])
    gaps = [
        decomposition_check(region, eps, generic_centers).gap
        for eps in (0.2, 0.1, 0.05)
    ]
    elapsed = time.perf_counter() - started
    ok = (
        centered_ok
        and aligned.gap <= 1e-6
        and gaps[0] > gaps[1] > gaps[2]
        and elapsed < 30.0
    )
    detail = (
        f"centered gap {center.gap:.2e}, aligned gap {aligned.gap:.2e}, "
        f"generic gaps {gaps[0]:.3e} > {gaps[1]:.3e} > {gaps[2]:.3e}"
    )
    _report(7, ok, f"{detail} in {elapsed:.2f}s")


def test_c8_end_to_end_coverage():
    started = time.perf_counter()
    region = SensorRegion(UNIT_SQUARE, UniformDensity())
    report = place_sensors(region, 1, 0.5, 0.25, solver="ptas", master_seed=0)
    target = 1.0 / 6.0
    center_err = float(np.linalg.norm(report.centers.centers[0] - [0.5, 0.5]))
    elapsed = time.perf_counter() - started
    ok = (
        abs(report.coverage - target) <= 0.02 * target
        and center_err <= 0.02
        and elapsed < 60.0
    )
    detail = (
        f"coverage {report.coverage:.6f} vs 1/6, center off by {center_err:.4f}"
    )
    _report(8, ok, f"{detail} in {elapsed:.2f}s")


def test_c9_byte_identical_across_threads(tmp_path):
    points_csv = tmp_path / "skew12.csv"
    save_weighted_points(points_csv, skew12().points)
    cluster_args = [
        "cluster",
        "--input",
        str(points_csv),
        "--k",
        "3",
        "--c1",
        "8",
        "--c2",
        "4",
        "--tuple-budget",
        "2000",
        "--seed",
        "11",
    ]
    cluster_files = []
    for tag, threads in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / f"cluster_{tag}.json"
        code = cli.main(cluster_args + ["--threads", str(threads), "--output", str(out)])
        assert code == 0
        cluster_files.append(out.read_bytes())

    sensor_payloads = []
    sensor_points = []
    for tag, threads in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / f"sensor_{tag}.json"
        pts = tmp_path / f"sensor_{tag}_points.csv"
        code = cli.main(
            [
                "sensor",
                "--seed",
                "0",
                "--threads",
                str(threads),
                "--output",
                str(out),
                "--points-output",
                str(pts),
            ]
        )
        assert code == 0
        sensor_payloads.append(out.read_bytes())
        sensor_points.append(pts.read_bytes())

    cluster_ok = cluster_files[0] == cluster_files[1] == cluster_files[2]
    sensor_ok = (
        sensor_payloads[0] == sensor_payloads[1] == sensor_payloads[2]
        and sensor_points[0] == sensor_points[1] == sensor_points[2]
    )
    cost = json.loads(cluster_files[0])["cost"]
    ok = cluster_ok and sensor_ok
    detail = (
        f"cluster bytes equal: {cluster_ok} (cost {cost:.4f}), "
        f"sensor bytes equal: {sensor_ok}, threads 1 vs 8"
    )
    _report(9, ok, detail)
