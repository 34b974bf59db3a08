"""Crossover between the two searches of `sampling.searchsorted_rows`.

Times the short-row count against the branchless binary search on the
same point-major running sums, (n, rows), and (draws, rows) targets, the
layout the PTAS evaluator searches, for each n, and prints one CSV row
per n: the best time of each search in microseconds and which one is
faster. `sampling._COUNT_MAX_TERMS` should sit at the
last n where counting wins. The script also checks that both searches
give the same indices on each sum and on an F-ordered copy of it, the
layout the evaluator uses for a block with more points than rows, and
exits 1 if any of the four results disagrees.

Example:
    python scripts/searchsorted_crossover.py --rows 1024 --draws 8
"""

from __future__ import annotations

import argparse
import csv
import sys
import timeit

import numpy as np

from wkmeans import sampling
from wkmeans.sampling import RandomSource, searchsorted_rows


def run_search(cum: np.ndarray, targets: np.ndarray, cutoff: int, repeat: int):
    """Indices on cum and on an F-ordered copy of it, and best time per
    call (us) on cum, of `searchsorted_rows` at this cutoff."""
    saved = sampling._COUNT_MAX_TERMS
    sampling._COUNT_MAX_TERMS = cutoff
    try:
        # About 2^25 compared entries per repeat: some 50 ms on either search.
        number = max(10, 2**25 // (cum.shape[0] * targets.size))
        best = min(
            timeit.repeat(lambda: searchsorted_rows(cum, targets), number=number, repeat=repeat)
        )
        found = [searchsorted_rows(c, targets) for c in (cum, np.asfortranarray(cum))]
        return found, best / number * 1e6
    finally:
        sampling._COUNT_MAX_TERMS = saved


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", type=int, default=1024, help="running sums per call")
    ap.add_argument("--draws", type=int, default=8, help="targets per row")
    ap.add_argument(
        "--sizes", type=int, nargs="+", default=[4, 8, 12, 16, 20, 24, 28, 32, 48, 64, 128]
    )
    ap.add_argument("--repeat", type=int, default=7, help="timing repeats; the best is kept")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    gen = RandomSource(args.seed).generator()
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(["n", "count_us", "binary_us", "faster"])
    for n in args.sizes:
        cum = np.cumsum(gen.random((n, args.rows)), axis=0)
        targets = gen.random((args.draws, args.rows)) * cum[-1]
        # A cutoff of n forces the count and 0 the binary search.
        by_count, counted = run_search(cum, targets, n, args.repeat)
        by_halving, binary = run_search(cum, targets, 0, args.repeat)
        found = by_count + by_halving
        if not all(np.array_equal(found[0], f) for f in found[1:]):
            print(f"error: the searches or layouts disagree at n = {n}", file=sys.stderr)
            return 1
        faster = "count" if counted < binary else "binary"
        out.writerow([n, f"{counted:.1f}", f"{binary:.1f}", faster])
    return 0


if __name__ == "__main__":
    sys.exit(main())
