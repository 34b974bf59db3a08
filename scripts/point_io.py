"""Weighted-point CSV I/O at scale: a bit-identity check and a timing run.

Both commands build the same seeded point set: four Gaussian blobs
(sigma 300 m) at a UTM offset, lognormal weights.

    python scripts/point_io.py check --n 200000
        saves the set, reloads it, runs `wkmeans cluster --format csv` on the
        file and checks that the reloaded arrays and the CSV's coordinate and
        weight columns equal the input bit for bit; exits 1 if not.

    python scripts/point_io.py time --n 1000000
        times `load_weighted_points`, `save_weighted_points` and a
        `wkmeans cluster --format csv` run (kmeans++/Lloyd, k = 4), each in a
        fresh interpreter, and prints one JSON line per step: wall seconds
        and peak RSS growth over the step in MiB. The CLI line also splits
        its time into load, solve and write. It makes no timing assertion.

Run either with the package on PYTHONPATH (`PYTHONPATH=src`).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from wkmeans import cli, core

UTM_OFFSET = np.array([5.0e5, 4.2e6])
BLOBS = np.array([[1000.0, 1000.0], [4000.0, 1500.0], [2500.0, 4200.0], [600.0, 3900.0]])


def point_set(n: int, seed: int) -> core.WeightedPointSet:
    gen = np.random.default_rng([seed, 1])
    labels = gen.integers(0, len(BLOBS), n)
    coords = BLOBS[labels] + UTM_OFFSET + gen.normal(0.0, 300.0, (n, 2))
    return core.WeightedPointSet(coords, gen.lognormal(0.0, 1.0, n))


def _cluster_args(points: Path, output: Path) -> list[str]:
    return ["cluster", "--input", str(points), "--k", "4", "--solver", "kmeanspp-lloyd",
            "--format", "csv", "--output", str(output)]


def check(n: int, seed: int, workdir: Path) -> int:
    P = point_set(n, seed)
    points, out = workdir / "points.csv", workdir / "clusters.csv"
    core.save_weighted_points(points, P)
    Q = core.load_weighted_points(points)
    failures = []
    if Q.coords.tobytes() != P.coords.tobytes() or Q.weights.tobytes() != P.weights.tobytes():
        failures.append("reloaded arrays differ from the saved set")
    proc = subprocess.run(
        [sys.executable, "-m", "wkmeans.cli", *_cluster_args(points, out)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        failures.append(f"wkmeans cluster exited {proc.returncode}: {proc.stderr.strip()}")
    else:
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        body = np.array([[float(v) for v in row[:-1]] for row in rows[1:]])
        labels = {row[-1] for row in rows[1:]}
        if rows[0] != ["x1", "x2", "weight", "cluster"]:
            failures.append(f"CSV header is {rows[0]}")
        elif body.shape != (n, 3):
            failures.append(f"CSV body has shape {body.shape}, expected {(n, 3)}")
        elif (np.ascontiguousarray(body[:, :2]).tobytes() != P.coords.tobytes()
              or np.ascontiguousarray(body[:, 2]).tobytes() != P.weights.tobytes()):
            failures.append("CSV coordinate or weight columns differ from the input")
        elif not labels <= {"0", "1", "2", "3"}:
            failures.append(f"CSV cluster labels {sorted(labels)} outside 0..3")
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    if not failures:
        print(f"ok: {n} points saved, reloaded and clustered to CSV bit for bit")
    return 1 if failures else 0


def _peak_mib() -> float:
    """This process's peak RSS so far, in MiB.

    Linux's VmHWM starts afresh at exec; ru_maxrss, the fallback elsewhere,
    carries over the peak of the process that started this one.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def step(name: str, n: int, workdir: Path) -> dict:
    """One timed step, run in this (fresh) interpreter, on the set `time` wrote."""
    points = workdir / "points.csv"
    if name == "load":
        before = _peak_mib()
        t0 = time.perf_counter()
        core.load_weighted_points(points)
        out = {"seconds": time.perf_counter() - t0}
    elif name == "save":
        # Read back from .npy files: building the set has larger temporaries
        # than the arrays themselves, and they would mask the step's peak.
        P = core.WeightedPointSet(np.load(workdir / "coords.npy"), np.load(workdir / "weights.npy"))
        before = _peak_mib()
        t0 = time.perf_counter()
        core.save_weighted_points(workdir / "saved.csv", P)
        out = {"seconds": time.perf_counter() - t0}
    else:
        # The CLI's own loader is wrapped to time it; "solved in" is on stderr.
        load_s = []
        loader = cli.load_weighted_points

        def timed_load(path):
            t = time.perf_counter()
            try:
                return loader(path)
            finally:
                load_s.append(time.perf_counter() - t)

        cli.load_weighted_points = timed_load
        err = io.StringIO()
        before = _peak_mib()
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(err):
            code = cli.main(_cluster_args(points, workdir / "clusters.csv"))
        total = time.perf_counter() - t0
        if code != 0:
            raise SystemExit(f"wkmeans cluster exited {code}: {err.getvalue()}")
        solve = float(err.getvalue().rsplit("solved in ", 1)[1].rstrip().rstrip("s"))
        out = {"seconds": total, "load_s": load_s[0], "solve_s": solve,
               "write_s": total - load_s[0] - solve}
    return {"step": name, "n": n, **out, "peak_rss_growth_mib": _peak_mib() - before}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("command", choices=("check", "time", "step"))
    ap.add_argument("--n", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--step", choices=("load", "save", "cluster-csv"), help=argparse.SUPPRESS)
    ap.add_argument("--workdir", type=Path, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.command == "step":
        print(json.dumps(step(args.step, args.n, args.workdir)))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        if args.command == "check":
            return check(args.n, args.seed, workdir)
        P = point_set(args.n, args.seed)
        core.save_weighted_points(workdir / "points.csv", P)
        np.save(workdir / "coords.npy", P.coords)
        np.save(workdir / "weights.npy", P.weights)
        del P
        for name in ("load", "save", "cluster-csv"):
            proc = subprocess.run(
                [sys.executable, __file__, "step", "--step", name, "--n", str(args.n),
                 "--workdir", str(workdir)],
                env=os.environ, check=True, capture_output=True, text=True,
            )
            sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
