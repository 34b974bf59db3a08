"""Command-line front end.

Subcommands: cluster (weighted k-means on a CSV point set), sensor (coverage
placement over a region file), verify (the invariant suite), bench (solver
comparison matrix as long-format CSV, over the desk and stress instances).
The solvers that cluster, sensor and bench run, and the names --solver and
--solvers accept, are the entries of `wkmeans.SOLVERS`.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 an instance too large for the exact oracle. All randomness flows from
--seed (default 0); result payloads contain no timestamps or thread counts,
so identical configurations produce byte-identical files regardless of
--threads.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from importlib.resources import files
from pathlib import Path

from wkmeans import SOLVERS, instances, sensor, verification
from wkmeans.core import (
    _check_positive_int,
    _write_rows,
    load_weighted_points,
    save_weighted_points,
)
from wkmeans.oracle import InstanceTooLarge

__all__ = ["main", "entry"]


def _bundled(name: str) -> str:
    return str(files("wkmeans").joinpath("data", name))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
        _check_positive_int("value", value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}") from None
    return value


def _ptas_overrides(args: argparse.Namespace) -> dict:
    out = {}
    if args.c1 is not None:
        out["c1"] = args.c1
    if args.c2 is not None:
        out["c2"] = args.c2
    if args.trials is not None:
        out["trials"] = args.trials
    if args.tuple_budget is not None:
        out["tuple_budget"] = args.tuple_budget
    if args.adjust_epsilon:
        out["adjust_epsilon"] = True
    return out


def _add_ptas_flags(p: argparse.ArgumentParser) -> None:
    """The PTAS, seed, thread and output flags of cluster, sensor and bench."""
    p.add_argument("--epsilon", type=float, default=0.5, help="target accuracy")
    p.add_argument(
        "--c1",
        type=float,
        default=None,
        help="sets only the reported sample size N and the N >= M check;"
        " no draw uses N",
    )
    p.add_argument("--c2", type=float, default=None, help="subset-size multiplier")
    p.add_argument("--trials", type=_positive_int, default=None, help="independent trials")
    p.add_argument(
        "--tuple-budget",
        type=_positive_int,
        default=None,
        help="candidate tuples per trial, each drawing M fresh points per center;"
        " the C(N, M)^k subsets of N draws are not enumerated (C(32, 8) is about"
        " 1.05e7 at k=1, c1=8, c2=4, eps=0.5)",
    )
    p.add_argument(
        "--adjust-epsilon",
        action="store_true",
        help="derive N, M from the reduced accuracy eps/((1+eps/2)k)",
    )
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--threads", type=_positive_int, default=1, help="worker thread cap")
    p.add_argument("--output", type=Path, default=None, help="result file (default stdout)")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=_positive_int, help="number of centers")
    p.add_argument("--solver", choices=tuple(SOLVERS), default="ptas")
    _add_ptas_flags(p)


def _emit(text: str, output: Path | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text, encoding="utf-8")


def _json_document(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def cmd_cluster(args: argparse.Namespace) -> int:
    P = load_weighted_points(args.input)
    started = time.perf_counter()
    result = SOLVERS[args.solver](
        P, args.k, args.epsilon, _ptas_overrides(args), args.seed, args.threads
    )
    elapsed = time.perf_counter() - started

    if args.format == "csv":
        # Written block by block, each row with its cluster label.
        if args.output is None:
            _write_rows(sys.stdout, P, "\n", result.assignment)
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                _write_rows(fh, P, "\n", result.assignment)
        print(
            f"cost={result.cost!r} centers={result.centers.centers.tolist()!r}",
            file=sys.stderr,
        )
    else:
        payload = {
            "command": "cluster",
            "input": str(args.input),
            "k": args.k,
            "epsilon": args.epsilon,
            "solver": args.solver,
            "seed": args.seed,
            "centers": result.centers.centers.tolist(),
            "assignment": result.assignment.tolist(),
            "cost": result.cost,
            "meta": result.meta,
        }
        _emit(_json_document(payload), args.output)
    print(f"solved in {elapsed:.3f}s", file=sys.stderr)
    return 0


def cmd_sensor(args: argparse.Namespace) -> int:
    region, file_grid_eps = sensor.load_region(args.region)
    grid_eps = args.grid_eps if args.grid_eps is not None else file_grid_eps
    if grid_eps is None:
        grid_eps = 0.25
    started = time.perf_counter()
    report = sensor.place_sensors(
        region,
        args.k,
        args.epsilon,
        grid_eps,
        solver=args.solver,
        master_seed=args.seed,
        overrides=_ptas_overrides(args),
        threads=args.threads,
    )
    elapsed = time.perf_counter() - started
    payload = {
        "command": "sensor",
        "region": str(args.region),
        "k": args.k,
        "epsilon": args.epsilon,
        "grid_eps": grid_eps,
        "solver": args.solver,
        "seed": args.seed,
        "centers": report.centers.centers.tolist(),
        "coverage_cost": report.coverage,
        "quantization_cost": report.quantization_cost,
        "inertia_sum": report.inertia_sum,
        "n_cells": report.discretization.weights.shape[0],
        "meta": report.result.meta,
    }
    _emit(_json_document(payload), args.output)
    points_path = args.points_output
    if points_path is None and args.output is not None:
        points_path = args.output.with_name(args.output.stem + "_points.csv")
    if points_path is not None:
        save_weighted_points(points_path, report.discretization.as_point_set)
    for note in report.warnings:
        print(f"warning: {note}", file=sys.stderr)
    print(f"solved in {elapsed:.3f}s", file=sys.stderr)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    only: tuple[str, ...] | None = None
    if args.only:
        names = []
        for chunk in args.only:
            names.extend(s for s in chunk.split(",") if s)
        if not names:
            raise ValueError("--only names no check")
        only = tuple(names)
    results = verification.run_checks(args.seed, only)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed", file=sys.stderr)
        return 1
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    solvers = tuple(args.solvers.split(","))
    if not set(solvers) <= SOLVERS.keys():
        print(f"error: unknown solver in {args.solvers!r}", file=sys.stderr)
        return 2
    overrides = _ptas_overrides(args)
    # Desk-scale draws: the theory's c2 = 100 would dominate the matrix. No
    # draw reads c1, so it keeps its default.
    overrides.setdefault("c2", 4.0)

    rows = []
    for inst in instances.oracle_instances() + instances.stress_instances():
        for solver in solvers:
            for j in range(args.repeat):
                seed = args.seed + j
                started = time.perf_counter()
                cost = SOLVERS[solver](
                    inst.points, inst.k, args.epsilon, overrides, seed, args.threads
                ).cost
                elapsed = time.perf_counter() - started
                rows.append(
                    (inst.name, solver, seed, cost, cost / inst.opt_cost, elapsed)
                )

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["instance", "solver", "seed", "cost", "ratio_to_oracle", "wall_time_s"]
    )
    for name, solver, seed, cost, ratio, elapsed in rows:
        writer.writerow([name, solver, seed, repr(cost), repr(ratio), f"{elapsed:.6f}"])
    _emit(buf.getvalue(), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wkmeans",
        description="Weighted k-means solvers and sensor-coverage placement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cluster = sub.add_parser("cluster", help="cluster a weighted point CSV")
    p_cluster.add_argument(
        "--input",
        type=Path,
        default=Path(_bundled("sample_points.csv")),
        help="weighted point CSV (header x1,...,xd,weight)",
    )
    _add_solver_flags(p_cluster)
    p_cluster.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="structured (json) or tabular (csv) output",
    )
    p_cluster.set_defaults(func=cmd_cluster, k=2)

    p_sensor = sub.add_parser("sensor", help="place sensors over a region")
    p_sensor.add_argument(
        "--region",
        type=Path,
        default=Path(_bundled("sample_region.json")),
        help="region file (polygon, density, optional grid_eps)",
    )
    p_sensor.add_argument(
        "--grid-eps", type=float, default=None, help="discretization cell size"
    )
    p_sensor.add_argument(
        "--points-output",
        type=Path,
        default=None,
        help="where to write the discretized point CSV",
    )
    _add_solver_flags(p_sensor)
    p_sensor.set_defaults(func=cmd_sensor, k=1)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="CHECK[,CHECK...]",
        help=f"subset of checks; known: {', '.join(verification.check_names())}",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="solver comparison matrix")
    p_bench.add_argument("--repeat", type=_positive_int, default=20, help="seeds per cell")
    p_bench.add_argument(
        "--solvers",
        default=",".join(SOLVERS),
        help="comma-separated solver subset",
    )
    _add_ptas_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InstanceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
