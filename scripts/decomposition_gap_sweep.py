"""Grid-refinement sweep of the coverage-cost decomposition gap.

For centers aligned with cell boundaries the split
coverage = clustering cost on cell masses + sum of cell inertias
is exact at any resolution; for generic centers the whole-cell assignment
overshoots on cells straddling a nearest-center boundary and the gap decays
as the grid refines. The sweep prints both behaviours side by side.

Example:
    python scripts/decomposition_gap_sweep.py --grid-eps 0.2 0.1 0.05 0.025
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from wkmeans.sensor import SensorRegion, UniformDensity, decomposition_check, load_region


def unit_square() -> SensorRegion:
    poly = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return SensorRegion(poly, UniformDensity())


CONFIGS = {
    "center": np.array([[0.5, 0.5]]),
    "aligned-pair": np.array([[0.25, 0.5], [0.75, 0.5]]),
    "generic-pair": np.array([[0.31, 0.47], [0.69, 0.58]]),
    "generic-triple": np.array([[0.21, 0.33], [0.74, 0.29], [0.52, 0.81]]),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid-eps", type=float, nargs="+", default=[0.2, 0.1, 0.05])
    ap.add_argument("--region", help="region JSON; defaults to the unit square")
    ap.add_argument("--output", default="decomposition_gaps.csv")
    args = ap.parse_args(argv)

    if args.region:
        region, _ = load_region(args.region)
    else:
        region = unit_square()

    fields = ["config", "grid_eps", "coverage", "split", "gap"]
    with open(args.output, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for name, centers in CONFIGS.items():
            prev = None
            for eps in args.grid_eps:
                rep = decomposition_check(region, eps, centers)
                writer.writerow(
                    {
                        "config": name,
                        "grid_eps": eps,
                        "coverage": rep.lhs,
                        "split": rep.rhs,
                        "gap": rep.gap,
                    }
                )
                if prev is None:
                    trend = ""
                elif rep.gap < prev:
                    trend = "  v"
                else:
                    trend = "  =" if rep.gap == prev else "  ^"
                print(
                    f"{name:15s} grid_eps={eps:<6g} coverage={rep.lhs:.8f} "
                    f"split={rep.rhs:.8f} gap={rep.gap:.3e}{trend}"
                )
                prev = rep.gap
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
