"""Success-rate sweep for the sampling-based solver across tuple budgets.

The per-candidate hit probability is roughly the product over iterations of
(uncovered-group mass share)^M, so balanced well-separated groups need far
larger budgets than skewed ones. This sweep makes that visible: the five
benchmark instances stay near 100% at the default budget while the balanced
stress instances climb from single digits only as the budget grows.

Example:
    python scripts/ptas_success_rates.py --seeds 40 --budgets 500 2000 8000
"""

from __future__ import annotations

import argparse
import csv
import sys
import time

import numpy as np

from wkmeans import instances
from wkmeans.ptas import solve


def sweep(inst, budgets, seeds, epsilon, c2, writer):
    for budget in budgets:
        overrides = {"c2": c2, "tuple_budget": budget}
        t0 = time.perf_counter()
        ratios = np.array(
            [
                solve(inst.points, inst.k, epsilon, overrides, master_seed=s).cost
                / inst.opt_cost
                for s in range(seeds)
            ]
        )
        wall = time.perf_counter() - t0
        ok = int(np.sum(ratios <= 1.5 + 1e-12))
        row = {
            "instance": inst.name,
            "k": inst.k,
            "budget": budget,
            "seeds": seeds,
            "successes": ok,
            "rate": ok / seeds,
            "ratio_median": float(np.median(ratios)),
            "ratio_max": float(ratios.max()),
            "seconds_per_solve": wall / seeds,
        }
        writer.writerow(row)
        print(
            f"{inst.name:9s} budget={budget:7d}: {ok:3d}/{seeds} "
            f"(median ratio {row['ratio_median']:.3f}, max {row['ratio_max']:.3f}, "
            f"{row['seconds_per_solve'] * 1000:.0f} ms/solve)"
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=40)
    ap.add_argument("--budgets", type=int, nargs="+", default=[500, 2000, 8000])
    ap.add_argument("--epsilon", type=float, default=0.5)
    ap.add_argument("--c2", type=float, default=4.0)
    ap.add_argument(
        "--include-stress",
        action="store_true",
        help="also sweep the balanced k=3 instances (slow at large budgets)",
    )
    ap.add_argument("--output", default="success_rates.csv")
    args = ap.parse_args(argv)

    suite = list(instances.oracle_instances())
    if args.include_stress:
        suite += list(instances.stress_instances())
    fields = [
        "instance",
        "k",
        "budget",
        "seeds",
        "successes",
        "rate",
        "ratio_median",
        "ratio_max",
        "seconds_per_solve",
    ]
    with open(args.output, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for inst in suite:
            sweep(inst, args.budgets, args.seeds, args.epsilon, args.c2, writer)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
