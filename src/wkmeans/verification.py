"""Self-contained invariant checks behind the `verify` command.

Each check builds its own synthetic instances from a stream derived off the
master seed (one stream per check, so filtering with --only never shifts
another check's randomness), computes a scalar statistic, and compares it to
a threshold. Thresholds for the statistical checks come from binomial
confidence intervals or chi-square significance levels; those for the
algebraic identities are floating-point slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from wkmeans import instances
from wkmeans.core import (
    CenterSet,
    WeightedPointSet,
    min_squared_distances,
    parallel_axis_rhs,
    weighted_cost,
    weighted_centroid,
)
from wkmeans.baselines import kmeanspp_lloyd, kmeanspp_seed, lloyd_descend
from wkmeans.oracle import brute_force_opt, partition_count, verify_inaba, verify_null_sampling
from wkmeans.ptas import solve
from wkmeans.sampling import RandomSource, d2_weights, sample_indices
from wkmeans.sensor import (
    GaussianMixtureDensity,
    SensorRegion,
    UniformDensity,
    coverage_cost,
    decomposition_check,
)

__all__ = ["CheckResult", "run_checks", "check_names"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    statistic: float
    threshold: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: statistic={self.statistic:.6g} "
            f"threshold={self.threshold:.6g} ({self.detail})"
        )


def _check_parallel_axis(rng: RandomSource, tol: float) -> CheckResult:
    gen_src = rng.derive(0)
    worst = 0.0
    for i in range(1000):
        P = instances.random_instance(
            gen_src.derive(i), max_n=50, max_dim=5, weight_low=0.1, weight_high=100.0
        )
        gen = gen_src.derive(i, 1).generator()
        c = gen.random(P.dim) * 4.0 - 2.0
        lhs = weighted_cost(P, [c])
        rhs = parallel_axis_rhs(P, c)
        worst = max(worst, abs(lhs - rhs) / (1.0 + lhs))
    return CheckResult(
        "parallel-axis",
        worst <= tol,
        worst,
        tol,
        "max relative gap between direct cost and spread-plus-shift over "
        "1000 random (P, c)",
    )


def _check_centroid_optimality(rng: RandomSource, tol: float) -> CheckResult:
    worst = 0.0
    for i in range(50):
        P = instances.random_instance(rng.derive(i))
        g = weighted_centroid(P)
        base = weighted_cost(P, [g])
        gen = rng.derive(i, 1).generator()
        for _ in range(200):
            c = gen.random(P.dim) * 4.0 - 2.0
            worst = max(worst, base - weighted_cost(P, [c]))
    return CheckResult(
        "centroid-optimality",
        worst <= tol,
        worst,
        tol,
        "max cost advantage of any random point over the centroid",
    )


def _check_weight_scaling(rng: RandomSource, tol: float) -> CheckResult:
    worst = 0.0
    for i in range(50):
        P = instances.random_instance(rng.derive(i))
        gen = rng.derive(i, 1).generator()
        lam = 0.25 + 4.0 * gen.random()
        s = 0.5 + 2.0 * gen.random()
        c = gen.random((2, P.dim))
        scaled = WeightedPointSet(P.coords, P.weights * lam)
        base = weighted_cost(P, c)
        worst = max(worst, abs(weighted_cost(scaled, c) - lam * base) / (1.0 + lam * base))
        # Distance-weighted sampling probabilities ignore both rescalings.
        pr = d2_weights(P, c[:1])
        pr_w = d2_weights(scaled, c[:1])
        stretched = WeightedPointSet(P.coords * s, P.weights)
        pr_s = d2_weights(stretched, c[:1] * s)
        p0 = pr / math.fsum(pr)
        worst = max(worst, float(np.abs(pr_w / math.fsum(pr_w) - p0).max()))
        worst = max(worst, float(np.abs(pr_s / math.fsum(pr_s) - p0).max()))
    return CheckResult(
        "weight-scaling",
        worst <= tol,
        worst,
        tol,
        "cost equivariance under weight scaling and invariance of sampling "
        "probabilities",
    )


def _check_translation(rng: RandomSource, tol: float) -> CheckResult:
    worst = 0.0
    for i in range(50):
        P = instances.random_instance(rng.derive(i))
        gen = rng.derive(i, 1).generator()
        t = gen.random(P.dim) * 10.0 - 5.0
        c = gen.random((3, P.dim))
        base = weighted_cost(P, c)
        moved = WeightedPointSet(P.coords + t, P.weights)
        worst = max(worst, abs(weighted_cost(moved, c + t) - base) / (1.0 + base))
    return CheckResult(
        "translation-invariance",
        worst <= tol,
        worst,
        tol,
        "relative cost drift under joint translation of points and centers",
    )


def _check_d2_distribution(rng: RandomSource, alpha: float) -> CheckResult:
    # scipy.stats is slow to import and only this check needs it, so it is
    # loaded here rather than whenever wkmeans or its CLI is imported.
    from scipy import stats

    P, center = instances.chi6()
    draws = 100_000
    mass = d2_weights(P, center)
    idx = sample_indices(mass, draws, rng.derive(0).generator())
    prob = mass / math.fsum(mass)
    observed = np.bincount(idx, minlength=P.n).astype(np.float64)
    live = prob > 0.0
    zero_hits = float(observed[~live].sum())
    if zero_hits == 0.0:
        chi = stats.chisquare(observed[live], prob[live] * draws)
        p_value = float(chi.pvalue)
    else:
        p_value = 0.0

    freq13 = float(
        np.mean(
            sample_indices(np.array([1.0, 3.0]), draws, rng.derive(1).generator()) == 1
        )
    )
    tail = float(np.mean(idx == 5))
    # 99% binomial bands around 3/4 and 9/11 at 1e5 draws.
    ok = (
        p_value >= alpha
        and zero_hits == 0.0
        and 0.743 <= freq13 <= 0.757
        and 0.815 <= tail <= 0.8214
    )
    return CheckResult(
        "d2-distribution",
        ok,
        p_value,
        alpha,
        f"chi-square p-value on 1e5 draws; freq(1,3)={freq13:.4f} in "
        f"[0.743, 0.757]; tail freq={tail:.4f} in [0.815, 0.8214]; "
        f"zero-probability hits={zero_hits:.0f}",
    )


def _check_reproducibility(rng: RandomSource, tol: float) -> CheckResult:
    P, center = instances.chi6()
    mass = d2_weights(P, center)
    a = sample_indices(mass, 1000, rng.derive(3).generator())
    b = sample_indices(mass, 1000, rng.derive(3).generator())
    sib = sample_indices(mass, 1000, rng.derive(4).generator())
    mismatches = float(np.count_nonzero(a != b))
    distinct = bool(np.any(a != sib))
    return CheckResult(
        "reproducibility",
        mismatches == 0.0 and distinct,
        mismatches,
        tol,
        "identical stream replays bit-identically; sibling stream differs",
    )


def _check_cache_coherence(rng: RandomSource, tol: float) -> CheckResult:
    worst = 0.0
    for i in range(25):
        P = instances.random_instance(rng.derive(i), max_n=40, max_dim=3)
        gen = rng.derive(i, 1).generator()
        centers = gen.random((5, P.dim))
        cache = np.full(P.n, np.inf)
        for j in range(centers.shape[0]):
            np.minimum(cache, min_squared_distances(P.coords, centers[j]), out=cache)
            direct = min_squared_distances(P.coords, centers[: j + 1])
            worst = max(worst, float(np.abs(cache - direct).max()))
    return CheckResult(
        "cache-coherence",
        worst <= tol,
        worst,
        tol,
        "incremental min-distance cache vs direct recomputation (exact)",
    )


def _check_inaba(rng: RandomSource, slack_sigmas: float) -> CheckResult:
    P = instances.inaba10()
    reps = 2000
    margin = math.inf
    details = []
    for i, (M, delta) in enumerate(((20, 0.5), (100, 0.25))):
        rate = verify_inaba(P, M, delta, reps, rng.derive(i))
        gate = 1.0 - delta - slack_sigmas * math.sqrt(delta * (1.0 - delta) / reps)
        margin = min(margin, rate - gate)
        details.append(f"(M={M}, delta={delta}): rate={rate:.4f} gate={gate:.4f}")
    return CheckResult(
        "inaba",
        margin >= 0.0,
        margin,
        0.0,
        "min(rate - gate) over " + "; ".join(details),
    )


def _check_null_sampling(rng: RandomSource, floor: float) -> CheckResult:
    P = instances.inaba10()
    count_rate = verify_null_sampling(
        0.5, 1.0, P.coords, 1000, rng.derive(0), count_only=True
    )
    full_rate = verify_null_sampling(0.5, 1.0, P.coords, 400, rng.derive(1))
    ok = count_rate >= 0.99 and full_rate >= floor
    return CheckResult(
        "null-sampling",
        ok,
        full_rate,
        floor,
        f"full success rate (count-only rate={count_rate:.3f}, gate 0.99)",
    )


def _check_oracle_instances(rng: RandomSource, tol: float) -> CheckResult:
    worst = 0.0
    for inst in instances.oracle_instances():
        res = brute_force_opt(inst.points, inst.k)
        worst = max(worst, abs(res.cost - inst.opt_cost))
    counts_ok = brute_force_opt(
        instances.line4().points, 2
    ).partitions_evaluated == partition_count(4, 2)
    return CheckResult(
        "oracle-instances",
        worst <= tol and counts_ok,
        worst,
        tol,
        "max |exact cost - hand optimum| over the 5 fixed instances; "
        "partition count cross-checked",
    )


def _check_lloyd_monotone(rng: RandomSource, slack: float) -> CheckResult:
    worst = -math.inf
    for i in range(20):
        P = instances.random_instance(rng.derive(i), max_n=120, max_dim=3)
        gen = rng.derive(i, 1).generator()
        k = 1 + int(gen.random() * 5)
        init = kmeanspp_seed(P, k, rng.derive(i, 2))
        history = lloyd_descend(P, init).meta["cost_history"]
        worst = max(worst, float(np.max(np.diff(history), initial=-math.inf)))
    return CheckResult(
        "lloyd-monotone",
        worst <= slack,
        worst,
        slack,
        "max per-iteration cost increase over 20 random descents",
    )


def _check_kmeanspp_quality(rng: RandomSource, tol_factor: float) -> CheckResult:
    inst = instances.kpp20()
    costs = []
    for i in range(1000):
        centers = kmeanspp_seed(inst.points, inst.k, rng.derive(i))
        costs.append(weighted_cost(inst.points, centers))
    mean = float(np.mean(costs))
    bound = tol_factor * (math.log(inst.k) + 2.0) * inst.opt_cost
    return CheckResult(
        "kmeanspp-quality",
        mean <= bound,
        mean,
        bound,
        "mean seeding cost over 1000 seeds vs the classical expectation bound",
    )


def _check_ptas_smoke(rng: RandomSource, factor: float) -> CheckResult:
    inst = instances.line4()
    result = solve(
        inst.points,
        inst.k,
        0.5,
        {"c1": 8.0, "c2": 4.0, "tuple_budget": 500},
        master_seed=rng.seed,
    )
    ratio = result.cost / inst.opt_cost
    return CheckResult(
        "ptas-smoke",
        ratio <= factor,
        ratio,
        factor,
        "single-seed cost ratio on the 4-point line instance with reduced "
        "constants",
    )


def _unit_square_region(shift: float = 0.0) -> SensorRegion:
    poly = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]) + shift
    return SensorRegion(poly, UniformDensity())


def _check_sensor_decomposition(rng: RandomSource, tol: float) -> CheckResult:
    worst = 0.0
    for shift in (0.0, 1e6):
        region = _unit_square_region(shift)
        rep1 = decomposition_check(region, 0.5, np.array([[0.5, 0.5]]) + shift)
        rep2 = decomposition_check(
            region, 0.5, np.array([[0.25, 0.5], [0.75, 0.5]]) + shift
        )
        worst = max(
            worst,
            rep1.gap,
            rep2.gap,
            abs(rep1.lhs - 1.0 / 6.0),
            abs(rep1.quantization_cost - 0.125),
            abs(rep1.inertia_sum - 1.0 / 24.0),
        )
    return CheckResult(
        "sensor-decomposition",
        worst <= tol,
        worst,
        tol,
        "aligned-boundary gaps and the analytic 1/6 = 1/8 + 1/24 split, on "
        "the unit square and on it shifted by 1e6",
    )


def _check_quadrature_convergence(rng: RandomSource, tol: float) -> CheckResult:
    # A Gaussian bump: no fixed-order rule integrates it exactly, so order 2
    # must show a real error. Each order is compared with a high-order
    # reference rather than with the next order.
    bump = GaussianMixtureDensity(
        np.array([[0.6, 0.4]]), np.eye(2) * 0.25**2, np.array([1.0])
    )
    region = SensorRegion(_unit_square_region().polygon, bump)
    centers = np.array([[0.31, 0.47]])
    reference = coverage_cost(region, centers, quad_order=32)
    errs = [
        abs(coverage_cost(region, centers, quad_order=q) - reference)
        for q in (2, 4, 8, 16)
    ]
    ok = errs[0] > tol and errs[-1] <= tol and all(
        hi > lo for hi, lo in zip(errs, errs[1:])
    )
    return CheckResult(
        "quadrature-convergence",
        ok,
        errs[-1],
        tol,
        "Gaussian-bump coverage cost at orders 2, 4, 8, 16 against order 32: "
        f"order-2 error {errs[0]:.3g} exceeds tolerance, error falls with each "
        "doubling and order 16 lands under tolerance",
    )


_CHECKS: tuple[tuple[str, Callable[[RandomSource, float], CheckResult], float], ...] = (
    ("parallel-axis", _check_parallel_axis, 1e-9),
    ("centroid-optimality", _check_centroid_optimality, 1e-12),
    ("weight-scaling", _check_weight_scaling, 1e-12),
    ("translation-invariance", _check_translation, 1e-9),
    ("d2-distribution", _check_d2_distribution, 0.001),
    ("reproducibility", _check_reproducibility, 0.0),
    ("cache-coherence", _check_cache_coherence, 0.0),
    ("inaba", _check_inaba, 3.0),
    ("null-sampling", _check_null_sampling, 0.5),
    ("oracle-instances", _check_oracle_instances, 1e-9),
    ("lloyd-monotone", _check_lloyd_monotone, 1e-12),
    ("kmeanspp-quality", _check_kmeanspp_quality, 8.0),
    ("ptas-smoke", _check_ptas_smoke, 1.5),
    ("sensor-decomposition", _check_sensor_decomposition, 1e-6),
    ("quadrature-convergence", _check_quadrature_convergence, 1e-6),
)


def check_names() -> tuple[str, ...]:
    return tuple(name for name, _, _ in _CHECKS)


def run_checks(seed: int = 0, only: tuple[str, ...] | None = None) -> list[CheckResult]:
    """Run the named checks (all by default) and return their results."""
    if only:
        unknown = set(only) - set(check_names())
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
    results = []
    for i, (name, fn, threshold) in enumerate(_CHECKS):
        if only and name not in only:
            continue
        results.append(fn(RandomSource(seed).derive(100 + i), threshold))
    return results
