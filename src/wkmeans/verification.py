"""Self-contained invariant checks behind the `verify` command.

Each check builds its own synthetic instances from a stream derived off the
master seed and the check's name, so filtering with --only, or adding or
deleting a check, never shifts another check's randomness. It computes a
scalar statistic and compares it to a threshold. Thresholds for the
statistical checks come from binomial confidence intervals or chi-square
significance levels; those for the algebraic identities are floating-point
slack. Each check is named once, in `_CHECKS`, and `run_checks` puts that
name on the `CheckResult`.

The sampling checks test the code the solvers run. Every draw goes through
the PTAS evaluator's inverse CDF (`_draw`), and `inaba` runs the evaluator
itself, `ptas._run_tuple_batch` at k = 1, so it tests the solver's
w-weighted mean of draws made proportional to w. `translation-invariance`
and `weight-scaling` run every `SOLVERS` entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from wkmeans import SOLVERS, instances, ptas
from wkmeans.core import (
    WeightedPointSet,
    _exact_sum,
    min_squared_distances,
    parallel_axis_rhs,
    weighted_cost,
    weighted_centroid,
)
from wkmeans.baselines import kmeanspp_lloyd
from wkmeans.oracle import brute_force_opt, partition_count
from wkmeans.sampling import RandomSource
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


# What a check returns: passed, statistic, threshold and detail. Each check
# returns its own threshold, because some print a bound they compute.
_Outcome = tuple[bool, float, float, str]


def _draw(mass: np.ndarray, count: int, gen: np.random.Generator) -> np.ndarray:
    """`count` i.i.d. draws from the masses, shape (count,), one uniform each.

    The draw is the PTAS evaluator's: `ptas._inverse_cdf_rows` on `mass` as
    one (n, 1) row of masses, so a draw lands on point p with probability
    mass[p] / total and never on a zero mass. The masses must be finite,
    nonnegative and not all zero, with a total inside float64.
    """
    mass = np.asarray(mass, dtype=np.float64)[:, None]
    u = gen.random(count)[:, None]
    cols, _ = ptas._inverse_cdf_rows(mass, u, np.empty_like(mass))
    return cols[:, 0]


def _inaba_rate(
    P: WeightedPointSet, M: int, delta: float, reps: int, gen: np.random.Generator
) -> tuple[float, float, float]:
    """Share of `reps` one-center PTAS tuples whose cost lies in a band that
    holds with probability at least 1 - delta, and the band's two ends as
    multiples of the optimum.

    Each tuple is `ptas._run_tuple_batch` at k = 1 on (1, M, reps)
    uniforms: M draws x_1..x_M made with probability w / W, where
    W = sum w, and their w-weighted mean m = sum w_i x_i / sum w_i, priced
    as the solver prices it. That mean tends to mu2 = sum w^2 x / sum w^2,
    not to the weighted centroid mu, so Inaba's (1 + 1/(delta M)) bound for
    the plain mean of the draws does not cover it. The band that does:

    - The numerator sum w_i (x_i - mu2) is a sum of M independent terms of
      mean 0, each of second moment sum w^3 |x - mu2|^2 / W.
    - The denominator is at least M w_min. So E|m - mu2|^2 <= S / M, with
      S = sum w^3 |x - mu2|^2 / (W w_min^2), and by Markov's inequality
      |m - mu2| < r = sqrt(S / (delta M)) with probability at least 1 - delta.
    - The cost of m is D1 + W |m - mu|^2 (parallel axis, D1 the optimum),
      and with a = |mu2 - mu| the triangle inequality puts |m - mu| in
      [max(0, a - r), a + r].

    So the cost lies in [D1 + W max(0, a - r)^2, D1 + W (a + r)^2]. With
    equal weights a = 0 and S = D1 / W, and the upper end is Inaba's
    (1 + 1/(delta M)) D1.
    """
    w = P.weights
    w2 = w * w
    W = math.fsum(w)
    mu = weighted_centroid(P)
    mu2 = weighted_centroid(WeightedPointSet(P.coords, w2))
    opt = weighted_cost(P, [mu])
    spread = weighted_cost(WeightedPointSet(P.coords, w2 * w), [mu2])
    a = math.dist(mu, mu2)
    r = math.sqrt(spread / (W * float(w.min()) ** 2) / (delta * M))
    lo = opt + W * max(0.0, a - r) ** 2
    hi = opt + W * (a + r) ** 2
    costs, _ = ptas._run_tuple_batch(P.coords, w, gen.random((1, M, reps)))
    rate = float(np.mean((lo <= costs) & (costs <= hi)))
    return rate, lo / opt, hi / opt


def _null_sampling(
    gamma: float,
    epsilon: float,
    points: np.ndarray,
    repetitions: int,
    gen: np.random.Generator,
) -> tuple[float, float]:
    """Success rates of the gated uniform-sampling experiment, (count, full).

    One run makes l = ceil(400 / (gamma * epsilon)) draws; each is null with
    probability 1 - gamma, otherwise a uniform point of `points` (drawn by
    `_draw` from unit masses). The count rate is the share of runs with at
    least m = ceil(100 / epsilon) non-null draws. The full rate also asks
    that the centroid of a uniformly chosen m-subset of them have a
    single-center cost, priced with the distance kernel, within
    (1 + epsilon/20) of optimal.
    """
    n_draws = math.ceil(400.0 / (gamma * epsilon))
    m = math.ceil(100.0 / epsilon)
    uniform = np.ones(points.shape[0])
    threshold = (1.0 + epsilon / 20.0) * _exact_sum(
        min_squared_distances(points, points.mean(axis=0))
    )
    counted = successes = 0
    for _ in range(repetitions):
        # Fixed three-block draw layout per run: gates, point picks, subset
        # keys. Unused picks/keys still consume stream positions, so the
        # layout is independent of the gate outcomes.
        gates = gen.random(n_draws) < gamma
        picks = _draw(uniform, n_draws, gen)
        keys = gen.random(n_draws)
        if np.count_nonzero(gates) < m:
            continue
        counted += 1
        keys = np.where(gates, keys, np.inf)
        g = points[picks[np.argpartition(keys, m - 1)[:m]]].mean(axis=0)
        if _exact_sum(min_squared_distances(points, g)) <= threshold:
            successes += 1
    return counted / repetitions, successes / repetitions


def _check_parallel_axis(rng: RandomSource, tol: float) -> _Outcome:
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
    return (
        worst <= tol,
        worst,
        tol,
        "max relative gap between direct cost and spread-plus-shift over "
        "1000 random (P, c)",
    )


def _check_centroid_optimality(rng: RandomSource, tol: float) -> _Outcome:
    worst = 0.0
    for i in range(50):
        P = instances.random_instance(rng.derive(i))
        g = weighted_centroid(P)
        base = weighted_cost(P, [g])
        gen = rng.derive(i, 1).generator()
        for _ in range(200):
            c = gen.random(P.dim) * 4.0 - 2.0
            worst = max(worst, base - weighted_cost(P, [c]))
    return (
        worst <= tol,
        worst,
        tol,
        "max cost advantage of any random point over the centroid",
    )


def _solver_mismatches(rng: RandomSource, moves) -> float:
    """Count the runs of SOLVERS entries that do not follow their base run.

    Instance i of 20 is a random one of at most 8 points with coordinates
    put on a 2^-4 grid in [0, 64), solved at k = 1 + i % 3 by every entry.
    Each move (ws, cs, t) multiplies the weights by ws and the coordinates
    by cs and adds t; solved again, it must give the base run's assignment,
    centers times cs plus t and cost times ws cs^2, byte for byte.
    """
    # Epsilon, overrides, seed and threads: 2 PTAS trials of 64 tuples.
    args = (0.5, {"c1": 8.0, "c2": 4.0, "trials": 2, "tuple_budget": 64}, 0, 1)
    bad = 0
    for i in range(20):
        R = instances.random_instance(rng.derive(i), max_n=8, max_dim=3)
        P = WeightedPointSet(np.floor(R.coords * 1024.0) / 16.0, R.weights)
        for solve in SOLVERS.values():
            base = solve(P, 1 + i % 3, *args)
            for ws, cs, t in moves:
                Q = WeightedPointSet(P.coords * cs + t, P.weights * ws)
                res = solve(Q, 1 + i % 3, *args)
                got = (res.centers.centers, res.assignment, np.float64(res.cost))
                cost = np.float64(base.cost * ws * cs * cs)
                want = (base.centers.centers * cs + t, base.assignment, cost)
                bad += any(a.tobytes() != b.tobytes() for a, b in zip(got, want))
    return float(bad)


def _check_weight_scaling(rng: RandomSource, tol: float) -> _Outcome:
    scales = [(2.0**j, 1.0, 0.0) for j in (-300, 300)] + [(1.0, 2.0**j, 0.0) for j in (-100, 100)]
    bad = _solver_mismatches(rng, scales)
    return bad <= tol, bad, tol, (
        "runs of every solver on 20 instances, with weights times 2^-300 and 2^300 "
        "or coordinates times 2^-100 and 2^100, whose assignment, centers and cost "
        "are not the unscaled run's, scaled, byte for byte"
    )


def _check_translation(rng: RandomSource, tol: float) -> _Outcome:
    bad = _solver_mismatches(rng, [(1.0, 1.0, 2.0**22)])
    return bad <= tol, bad, tol, (
        "runs of every solver on 20 dyadic instances shifted by 2^22 whose "
        "assignment and cost are not the unshifted run's, or whose centers are "
        "not its plus the shift, byte for byte"
    )


def _check_d2_distribution(rng: RandomSource, alpha: float) -> _Outcome:
    # scipy.stats is slow to import and only this check needs it, so it is
    # loaded here rather than whenever wkmeans or its CLI is imported.
    from scipy import stats

    P, center = instances.chi6()
    draws = 100_000
    mass = P.weights * min_squared_distances(P.coords, center)
    idx = _draw(mass, draws, rng.derive(0).generator())
    prob = mass / math.fsum(mass)
    observed = np.bincount(idx, minlength=P.n).astype(np.float64)
    live = prob > 0.0
    zero_hits = float(observed[~live].sum())
    if zero_hits == 0.0:
        chi = stats.chisquare(observed[live], prob[live] * draws)
        p_value = float(chi.pvalue)
    else:
        p_value = 0.0

    freq13 = float(np.mean(_draw(np.array([1.0, 3.0]), draws, rng.derive(1).generator()) == 1))
    tail = float(np.mean(idx == 5))
    # 99% binomial bands around 3/4 and 9/11 at 1e5 draws.
    ok = (
        p_value >= alpha
        and zero_hits == 0.0
        and 0.743 <= freq13 <= 0.757
        and 0.815 <= tail <= 0.8214
    )
    return (
        ok,
        p_value,
        alpha,
        f"chi-square p-value on 1e5 draws; freq(1,3)={freq13:.4f} in "
        f"[0.743, 0.757]; tail freq={tail:.4f} in [0.815, 0.8214]; "
        f"zero-probability hits={zero_hits:.0f}",
    )


def _check_reproducibility(rng: RandomSource, tol: float) -> _Outcome:
    P, center = instances.chi6()
    mass = P.weights * min_squared_distances(P.coords, center)
    a = _draw(mass, 1000, rng.derive(3).generator())
    b = _draw(mass, 1000, rng.derive(3).generator())
    sib = _draw(mass, 1000, rng.derive(4).generator())
    mismatches = float(np.count_nonzero(a != b))
    distinct = bool(np.any(a != sib))
    return (
        mismatches == 0.0 and distinct,
        mismatches,
        tol,
        "identical stream replays bit-identically; sibling stream differs",
    )


def _check_inaba(rng: RandomSource, slack_sigmas: float) -> _Outcome:
    P = instances.inaba10()
    margin = math.inf
    details = []
    configs = ((20, 0.5, 2000), (100, 0.25, 2000), (1000, 0.5, 500))
    for i, (M, delta, reps) in enumerate(configs):
        rate, lo, hi = _inaba_rate(P, M, delta, reps, rng.derive(i).generator())
        gate = 1.0 - delta - slack_sigmas * math.sqrt(delta * (1.0 - delta) / reps)
        margin = min(margin, rate - gate)
        details.append(
            f"(M={M}, delta={delta}): band=[{lo:.4f}, {hi:.4f}] x opt "
            f"rate={rate:.4f} gate={gate:.4f}"
        )
    return (
        margin >= 0.0,
        margin,
        0.0,
        "the evaluator's w-weighted mean of M draws made proportional to w, "
        "share of costs in its 1 - delta band; min(rate - gate) over "
        + "; ".join(details),
    )


def _check_null_sampling(rng: RandomSource, floor: float) -> _Outcome:
    P = instances.inaba10()
    gen = rng.derive(0).generator()
    count_rate, full_rate = _null_sampling(0.5, 1.0, P.coords, 1000, gen)
    ok = count_rate >= 0.99 and full_rate >= floor
    return (
        ok,
        full_rate,
        floor,
        f"full success rate (count-only rate={count_rate:.3f}, gate 0.99)",
    )


def _check_oracle_instances(rng: RandomSource, tol: float) -> _Outcome:
    worst = 0.0
    for inst in instances.oracle_instances():
        res = brute_force_opt(inst.points, inst.k)
        worst = max(worst, abs(res.cost - inst.opt_cost))
    line4 = brute_force_opt(instances.line4().points, 2)
    counts_ok = line4.meta["partitions_evaluated"] == partition_count(4, 2)
    return (
        worst <= tol and counts_ok,
        worst,
        tol,
        "max |exact cost - hand optimum| over the 5 fixed instances; "
        "partition count cross-checked",
    )


def _check_lloyd_monotone(rng: RandomSource, slack: float) -> _Outcome:
    worst = -math.inf
    for i in range(20):
        P = instances.random_instance(rng.derive(i), max_n=120, max_dim=3)
        gen = rng.derive(i, 1).generator()
        k = 1 + int(gen.random() * 5)
        history = kmeanspp_lloyd(P, k, rng.derive(i, 2)).meta["cost_history"]
        worst = max(worst, float(np.max(np.diff(history), initial=-math.inf)))
    return (
        worst <= slack,
        worst,
        slack,
        "max per-iteration cost increase over 20 random descents",
    )


def _check_kmeanspp_quality(rng: RandomSource, tol_factor: float) -> _Outcome:
    inst = instances.kpp20()
    costs = []
    for i in range(1000):
        # The seed kmeanspp_lloyd takes: one tuple with M = 1, priced by the evaluator.
        gen = rng.derive(i).generator()
        costs.append(ptas._best_for_trial(inst.points, inst.k, 1, 1, gen)[0])
    mean = float(np.mean(costs))
    bound = tol_factor * (math.log(inst.k) + 2.0) * inst.opt_cost
    return (
        mean <= bound,
        mean,
        bound,
        "mean seeding cost over 1000 seeds vs the classical expectation bound",
    )


def _check_ptas_smoke(rng: RandomSource, factor: float) -> _Outcome:
    inst = instances.line4()
    result = ptas.solve(
        inst.points,
        inst.k,
        0.5,
        {"c2": 4.0, "tuple_budget": 500},
        master_seed=rng.seed,
    )
    ratio = result.cost / inst.opt_cost
    return (
        ratio <= factor,
        ratio,
        factor,
        "single-seed cost ratio on the 4-point line instance with reduced "
        "constants",
    )


def _unit_square_region(shift: float = 0.0) -> SensorRegion:
    poly = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]) + shift
    return SensorRegion(poly, UniformDensity())


def _check_sensor_decomposition(rng: RandomSource, tol: float) -> _Outcome:
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
    return (
        worst <= tol,
        worst,
        tol,
        "aligned-boundary gaps and the analytic 1/6 = 1/8 + 1/24 split, on "
        "the unit square and on it shifted by 1e6",
    )


def _check_quadrature_convergence(rng: RandomSource, tol: float) -> _Outcome:
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
    return (
        ok,
        errs[-1],
        tol,
        "Gaussian-bump coverage cost at orders 2, 4, 8, 16 against order 32: "
        f"order-2 error {errs[0]:.3g} exceeds tolerance, error falls with each "
        "doubling and order 16 lands under tolerance",
    )


_CHECKS: tuple[tuple[str, Callable[[RandomSource, float], _Outcome], float], ...] = (
    ("parallel-axis", _check_parallel_axis, 1e-9),
    ("centroid-optimality", _check_centroid_optimality, 1e-12),
    ("weight-scaling", _check_weight_scaling, 0.0),
    ("translation-invariance", _check_translation, 0.0),
    ("d2-distribution", _check_d2_distribution, 0.001),
    ("reproducibility", _check_reproducibility, 0.0),
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
    for name, fn, threshold in _CHECKS:
        if only and name not in only:
            continue
        stream = int.from_bytes(name.encode(), "big")
        outcome = fn(RandomSource(seed).derive(stream), threshold)
        results.append(CheckResult(name, *outcome))
    return results
