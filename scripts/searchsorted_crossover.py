"""Crossover between the two searches of `sampling.searchsorted_rows`.

Times the short-row count against the branchless binary search on the
same point-major running sums, (n, rows), and (draws, rows) targets, the
layout the PTAS evaluator searches, for each n. It also times the count
against `np.searchsorted` on one shared (n, 1) running sum searched by
the same (draws, rows) targets, the evaluator's first draw. It prints
one CSV row per n: the best time of each search in microseconds and
which one is faster, on per-row sums and on the shared sum.
`sampling._COUNT_MAX_TERMS` should sit at the last n where counting
wins. The script also checks that both searches give the same indices
on each sum, on an F-ordered copy of it (the layout the evaluator uses
for a block with more points than rows) and on the shared sum, and
exits 1 if any of the results disagrees.

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
    call (us) on cum, of `searchsorted_rows` at this cutoff. The copy of
    an (n, 1) sum is the sum itself."""
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
    out.writerow([
        "n", "count_us", "binary_us", "faster",
        "shared_count_us", "searchsorted_us", "shared_faster",
    ])
    for n in args.sizes:
        row = [n]
        cum = np.cumsum(gen.random((n, args.rows)), axis=0)
        shared = np.cumsum(gen.random((n, 1)), axis=0)
        for sums, rival in ((cum, "binary"), (shared, "searchsorted")):
            targets = gen.random((args.draws, args.rows)) * sums[-1]
            # A cutoff of n forces the count; 0 forces the binary search on
            # per-row sums and np.searchsorted on a shared one.
            by_count, counted = run_search(sums, targets, n, args.repeat)
            by_other, other = run_search(sums, targets, 0, args.repeat)
            found = by_count + by_other
            if not all(np.array_equal(found[0], f) for f in found[1:]):
                print(f"error: the searches or layouts disagree at n = {n}", file=sys.stderr)
                return 1
            row += [f"{counted:.1f}", f"{other:.1f}", "count" if counted < other else rival]
        out.writerow(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
