import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wkmeans
from wkmeans import SOLVERS, baselines, cli, instances, oracle, ptas, verification
from wkmeans.core import WeightedPointSet, load_weighted_points, save_weighted_points
from wkmeans.oracle import brute_force_opt
from wkmeans.sensor import RegionFileError, load_region, place_sensors


def run(argv):
    return cli.main(argv)


def test_cluster_default_json(tmp_path):
    out = tmp_path / "result.json"
    assert run(["cluster", "--seed", "7", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "cluster"
    assert payload["k"] == 2
    assert payload["solver"] == "ptas"
    assert payload["seed"] == 7
    assert payload["cost"] >= 1.0 - 1e-12
    assert len(payload["centers"]) == 2
    assert len(payload["assignment"]) == 4
    assert payload["meta"]["master_seed"] == 7
    # Byte-determinism across thread counts depends on payloads carrying no
    # timing or machine facts.
    flat = json.dumps(payload)
    assert "wall" not in flat and "thread" not in flat


def test_cluster_desk_constants_near_optimal(tmp_path):
    # The theory sample sizes need branching on every subset to pay off; with
    # a random tuple budget the small bench constants are the accurate ones.
    out = tmp_path / "desk.json"
    args = ["cluster", "--c1", "8", "--c2", "4", "--seed", "7", "--output", str(out)]
    assert run(args) == 0
    payload = json.loads(out.read_text())
    assert 1.0 - 1e-12 <= payload["cost"] <= 1.5


def test_cluster_csv_format(tmp_path):
    out = tmp_path / "result.csv"
    code = run(
        [
            "cluster",
            "--solver",
            "kmeanspp-lloyd",
            "--seed",
            "1",
            "--format",
            "csv",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["x1", "weight", "cluster"]
    assert len(rows) == 5
    assert {r[2] for r in rows[1:]} == {"0", "1"}


def test_cluster_oracle_solver(tmp_path):
    out = tmp_path / "oracle.json"
    assert run(["cluster", "--solver", "oracle", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["cost"] == 1.0
    assert payload["meta"]["groups"] == [[0, 1], [2, 3]]


def test_cluster_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["cluster", "--k", "0"])
    assert exc.value.code == 2
    assert run(["cluster", "--input", str(tmp_path / "nope.csv")]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert run(["cluster", "--input", str(bad)]) == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["--tuple-budget", "exhaustive"],
        ["--tuple-budget", "2.5"],
        ["--tuple-budget", "0"],
        ["--trials", "2.5"],
        ["--threads", "-3"],
        ["--threads", "0"],
        ["--k", "0"],
        ["--k", "2.5"],
        ["--repeat", "0"],
    ],
    ids=lambda flags: f"{flags[0].lstrip('-')}={flags[1]}",
)
def test_cluster_rejects_bad_integer_flags(capsys, flags):
    """Counts are positive integers; there is no exhaustive tuple mode.

    --repeat is bench's; the other flags are tried on cluster and sensor.
    """
    if flags[0] == "--repeat":
        argvs = [["bench", *flags]]
    else:
        argvs = [[cmd, "--solver", s, *flags] for cmd in ("cluster", "sensor") for s in SOLVERS]
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "--seed", "-1"],
        ["cluster", "--solver", "kmeanspp-lloyd", "--seed", "-1"],
        ["cluster", "--solver", "oracle", "--seed", "-1"],
        ["sensor", "--seed", "-1"],
        ["bench", "--repeat", "1", "--solvers", "ptas", "--seed", "-1"],
        ["bench", "--repeat", "1", "--solvers", "oracle", "--seed", "-1"],
        ["verify", "--only", "reproducibility", "--seed", "-1"],
    ],
    ids=["cluster", "cluster-kmeanspp-lloyd", "cluster-oracle", "sensor", "bench", "bench-oracle", "verify"],
)
def test_negative_seed_is_a_usage_error(capsys, argv):
    """A seed below 0 exits 2 with an error that names the seed, for every solver."""
    assert run(argv) == 2
    assert "error: seed must be a non-negative integer, got -1" in capsys.readouterr().err


def test_sensor_rejects_format_flag(capsys):
    """--format belongs to cluster; sensor always writes JSON."""
    with pytest.raises(SystemExit) as exc:
        run(["sensor", "--format", "csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err


@pytest.mark.parametrize("solver", ["ptas", "kmeanspp-lloyd", "oracle"])
def test_cluster_refuses_weight_totals_that_overflow(tmp_path, capsys, solver):
    path = tmp_path / "huge.csv"
    save_weighted_points(path, WeightedPointSet([[0.0], [1.0], [4.0], [5.0]], [1e308] * 4))
    assert run(["cluster", "--input", str(path), "--solver", solver]) == 2
    assert "error: weight total 4.00e+308 overflows float64" in capsys.readouterr().err


@pytest.mark.parametrize(
    "solver,xs,w",
    [
        ("ptas", [0.0, 1.0, 4.0, 5.0], 4e307),
        ("kmeanspp-lloyd", [0.0, 1.0, 4.0, 5.0], 4e307),
        ("ptas", [0.0, 1e154, 2e154, 3e154], 1.0),
        ("kmeanspp-lloyd", [0.0, 1e154, 2e154, 3e154], 1.0),
    ],
    ids=["ptas", "kmeanspp-lloyd", "ptas-spread", "kmeanspp-lloyd-spread"],
)
@pytest.mark.filterwarnings("error")
def test_cluster_names_overflowing_weight_products(tmp_path, capsys, solver, xs, w):
    """Both solvers name one overflow, the candidate evaluator's, on one error line.

    Four weights of 4e307 have a finite total, but sums of drawn weights
    or of weights times squared distances do not. Unit weights 1e154 apart
    give D^2 totals past float64. Warnings are errors here, so a numpy
    RuntimeWarning on the way fails the test.
    """
    path = tmp_path / "heavy.csv"
    save_weighted_points(path, WeightedPointSet([[x] for x in xs], [w] * 4))
    assert run(["cluster", "--input", str(path), "--solver", solver, "--c2", "4"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: no candidate has a finite cost")
    assert err[0].endswith("scale the weights down")


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_cluster_runs_every_solver(tmp_path, solver):
    out = tmp_path / "result.json"
    assert run(["cluster", "--solver", solver, "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["solver"] == payload["meta"]["solver"] == solver
    # The bundled points have optimal cost 1 at k = 2.
    assert payload["cost"] >= 1.0 - 1e-12


def test_ptas_solve_is_looked_up_at_call_time(monkeypatch, tmp_path, unit_square):
    """A rebound ptas.solve, such as a tracer's wrapper, is what runs."""
    calls = []
    solve = ptas.solve

    def spy(P, k, *args, **kwargs):
        calls.append(k)
        return solve(P, k, *args, **kwargs)

    monkeypatch.setattr(ptas, "solve", spy)
    place_sensors(unit_square, 1, 0.5, 0.25, overrides={"tuple_budget": 8})
    assert run(["cluster", "--tuple-budget", "8", "--output", str(tmp_path / "r.json")]) == 0
    assert calls == [1, 2]


def test_bad_solver_choice_is_argparse_error():
    with pytest.raises(SystemExit) as exc:
        run(["cluster", "--solver", "simulated-annealing"])
    assert exc.value.code == 2


def test_sensor_default_region(tmp_path):
    out = tmp_path / "placement.json"
    pts = tmp_path / "cells.csv"
    code = run(
        [
            "sensor",
            "--solver",
            "kmeanspp-lloyd",
            "--seed",
            "3",
            "--output",
            str(out),
            "--points-output",
            str(pts),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "sensor"
    assert payload["k"] == 1
    assert payload["grid_eps"] == 0.25
    assert payload["n_cells"] == 16
    assert payload["coverage_cost"] == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert payload["centers"][0] == pytest.approx([0.5, 0.5], abs=1e-9)
    gap = payload["coverage_cost"] - payload["quantization_cost"] - payload["inertia_sum"]
    assert payload["meta"]["decomposition_gap"] == gap
    assert payload["meta"]["decomposition_gap_rel"] == gap / payload["coverage_cost"]
    assert abs(gap) <= 1e-12
    rows = pts.read_text().splitlines()
    assert rows[0] == "x1,x2,weight"
    assert len(rows) == 17


def test_sensor_points_path_derived_from_output(tmp_path):
    out = tmp_path / "place.json"
    code = run(
        ["sensor", "--solver", "kmeanspp-lloyd", "--output", str(out)]
    )
    assert code == 0
    assert (tmp_path / "place_points.csv").exists()


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_sensor_runs_every_solver(tmp_path, capsys, solver):
    out = tmp_path / "place.json"
    argv = ["sensor", "--solver", solver, "--k", "2", "--grid-eps", "0.5", "--output", str(out)]
    assert run(argv) == 0
    # The coarse-grid note is printed once, from the report.
    assert capsys.readouterr().err.count("too coarse") == 1
    payload = json.loads(out.read_text())
    assert payload["solver"] == payload["meta"]["solver"] == solver
    assert payload["n_cells"] == 4
    # Four cells of mass 1/4 at the quarter points, paired along one side.
    assert payload["quantization_cost"] >= 0.0625 - 1e-12


def test_sensor_oracle_is_brute_force_on_the_cells(tmp_path, capsys):
    out, cells = tmp_path / "place.json", tmp_path / "cells.csv"
    argv = ["sensor", "--solver", "oracle", "--k", "2", "--grid-eps", "0.5",
            "--output", str(out), "--points-output", str(cells)]
    assert run(argv) == 0
    payload = json.loads(out.read_text())
    exact = brute_force_opt(load_weighted_points(cells), 2)
    assert payload["centers"] == exact.centers.centers.tolist()
    assert payload["meta"]["groups"] == exact.meta["groups"]
    assert payload["quantization_cost"] == exact.cost
    # The bundled grid 0.25 makes 16 cells, past the oracle's 14 points.
    capsys.readouterr()
    assert run(["sensor", "--solver", "oracle"]) == 3
    assert "too large for exact oracle" in capsys.readouterr().err


def test_sensor_bad_region(tmp_path):
    bad = tmp_path / "region.json"
    bad.write_text("{]")
    assert run(["sensor", "--region", str(bad)]) == 2


_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
_MIXTURE = {
    "type": "gaussian_mixture",
    "means": [[0.5, 0.5]],
    "covariances": [[[0.01, 0.0], [0.0, 0.01]]],
    "mixing": [1.0],
}


@pytest.mark.parametrize(
    "changes, field",
    [
        ({"density": 3}, "'density'"),
        ({"grid_eps": [1]}, "'grid_eps'"),
        (
            {"density": {"type": "raster", "origin": 5, "pixel_size": 0.5, "values": [[1.0]]}},
            "raster density 'origin'",
        ),
        ({"density": {"type": "uniform", "level": None}}, "uniform density 'level'"),
        (
            {"density": {"type": "gaussian_mixture", "means": 3, "covariances": 1, "mixing": 1}},
            "gaussian_mixture density 'means'",
        ),
        ({"grid_eps": True}, "'grid_eps': expected a number, got true"),
        ({"grid_eps": "0.5"}, "'grid_eps': expected a number, got \"0.5\""),
        ({"grid_eps": 10**400}, "'grid_eps': integer too large for float64"),
        (
            {"density": {"type": "raster", "origin": [0, 0], "pixel_size": True, "values": [[1]]}},
            "raster density 'pixel_size': expected a number, got true",
        ),
        (
            {"density": {"type": "raster", "origin": [0, False], "pixel_size": 1, "values": [[1]]}},
            "raster density 'origin': expected a number, got false",
        ),
        (
            {"density": {"type": "uniform", "level": True}},
            "uniform density 'level': expected a number, got true",
        ),
        (
            {"density": {"type": "raster", "origin": [0, 0], "pixel_size": 1,
                         "values": [[True, 1], [1, 1]]}},
            "raster density 'values': expected a number, got true",
        ),
        (
            {"density": {**_MIXTURE, "means": [[True, 0.5]]}},
            "gaussian_mixture density 'means': expected a number, got true",
        ),
        (
            {"density": {**_MIXTURE, "covariances": [[[0.01, False], [0, 0.01]]]}},
            "gaussian_mixture density 'covariances': expected a number, got false",
        ),
        (
            {"density": {**_MIXTURE, "mixing": [True]}},
            "gaussian_mixture density 'mixing': expected a number, got true",
        ),
        (
            {"polygon": [[0, 0], [1, 0], [True, 1], [0, 1]]},
            "'polygon': expected a number, got true",
        ),
    ],
    ids=[
        "density-number", "grid-eps-list", "raster-origin-number", "level-null", "means-number",
        "grid-eps-bool", "grid-eps-string", "grid-eps-huge-int", "pixel-size-bool",
        "raster-origin-bool", "level-bool", "raster-values-bool", "means-bool",
        "covariances-bool", "mixing-bool", "polygon-bool",
    ],
)
def test_malformed_region_file_is_a_region_file_error(tmp_path, capsys, changes, field):
    """Wrongly typed fields fail as region file errors that name the field.

    A JSON true, false or string is not a number, as a field or inside an
    array: read as 1.0, 0.0 or the string's value it would run a grid of
    1.0, a density level of 1.0 or a raster pixel of 1.0 without a word. An integer past float64 would raise OverflowError. The
    CLI exits 2 with an error line, not a traceback.
    """
    path = tmp_path / "region.json"
    path.write_text(json.dumps({"polygon": _SQUARE, "density": {"type": "uniform"}, **changes}))
    with pytest.raises(RegionFileError):
        load_region(path)
    assert run(["sensor", "--region", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--c2", "inf"], "c2"),
        (["--c1", "inf"], "c1"),
        (["--c2", "nan"], "c2"),
        (["--c2", "1e308"], "c2 / eps_eff"),
        (["--epsilon", "1e-200"], "c1 * k / eps_eff^2"),
    ],
)
def test_cluster_rejects_ptas_sizes_that_are_not_finite(capsys, flags, name):
    """A constant or a derived size that is not finite exits 2 with a message
    naming it, not with a traceback and exit 1."""
    assert run(["cluster", "--k", "2", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} ")


def test_cluster_refuses_an_m_too_large_to_allocate(capsys):
    """Epsilon 1e-6 makes M = 1e8, and a batch's uniforms 1.49 TiB at k = 2:
    an error naming M and k and exit 2, not a MemoryError traceback and exit 1."""
    assert run(["cluster", "--k", "2", "--epsilon", "1e-6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: M = 100000000 draws per center at k = 2: ")


@pytest.mark.parametrize("grid_eps", ["nan", "inf"])
def test_sensor_rejects_non_finite_grid_eps(capsys, grid_eps):
    assert run(["sensor", "--grid-eps", grid_eps]) == 2
    assert "grid_eps must be positive and finite" in capsys.readouterr().err


def test_verify_subset_passes(capsys):
    assert run(["verify", "--only", "parallel-axis,centroid-optimality"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert all("PASS" in line for line in lines)


@pytest.mark.parametrize("only", [[","], [",,", "--only", ""]])
def test_verify_only_naming_no_check_is_a_usage_error(capsys, only):
    """An --only that names no check is refused, not read as all 14 checks."""
    assert run(["verify", "--only", *only]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--only names no check" in captured.err


def test_verify_full_suite_passes(capsys):
    """Every invariant `verify` prints as a claim holds at the default seed."""
    assert run(["verify", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 14
    assert all(line.startswith("PASS") for line in lines)


def test_verify_tolerance_hook_fails(monkeypatch, capsys):
    """The harness can fail: at threshold 0 the parallel-axis check's
    floating-point slack is over tolerance."""
    checks = [
        (name, fn, 0.0 if name == "parallel-axis" else threshold)
        for name, fn, threshold in verification._CHECKS
    ]
    monkeypatch.setattr(verification, "_CHECKS", tuple(checks))
    assert run(["verify", "--only", "parallel-axis"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_draws_through_the_evaluator(monkeypatch):
    """`d2-distribution` tests the solver's sampler: a mutant of
    `ptas._inverse_cdf_rows` that draws by sqrt(mass) makes it fail."""
    real = ptas._inverse_cdf_rows

    def by_sqrt(v, u, cum):
        return real(np.sqrt(v), u, cum)

    monkeypatch.setattr(ptas, "_inverse_cdf_rows", by_sqrt)
    [result] = verification.run_checks(0, only=("d2-distribution",))
    assert not result.passed


def test_verify_translation_runs_the_solvers_frame(monkeypatch):
    """`translation-invariance` tests the solvers' local frame: a frame
    helper that solves in the input's frame makes it fail."""

    def input_frame(P, solve):
        return solve(P)

    for module in (ptas, baselines, oracle):
        monkeypatch.setattr(module, "_in_local_frame", input_frame)
    [result] = verification.run_checks(0, only=("translation-invariance",))
    assert not result.passed


def test_verify_weight_scaling_runs_the_solvers(monkeypatch):
    """`weight-scaling` tests the solvers' draws: a mutant of
    `ptas._inverse_cdf_rows` that floors every mass at 1e-12, a bound that
    does not scale with the weights or the coordinates, makes it fail."""
    real = ptas._inverse_cdf_rows

    def floored(v, u, cum):
        return real(np.maximum(v, 1e-12), u, cum)

    monkeypatch.setattr(ptas, "_inverse_cdf_rows", floored)
    [result] = verification.run_checks(0, only=("weight-scaling",))
    assert not result.passed


def test_verify_inaba_tests_the_solvers_mean(monkeypatch):
    """`inaba` tests the evaluator's w-weighted mean: a mutant of
    `ptas._centroids` that takes the plain mean of the draws makes it fail."""

    def plain_mean(coords_t, weights, cols):
        return coords_t.take(cols, axis=1).mean(axis=1)

    monkeypatch.setattr(ptas, "_centroids", plain_mean)
    [result] = verification.run_checks(0, only=("inaba",))
    assert not result.passed


def test_verify_kmeanspp_quality_draws_through_the_evaluator(monkeypatch):
    """`kmeanspp-quality` seeds through the evaluator: a mutant of
    `ptas._inverse_cdf_rows` that ignores the masses makes it fail."""
    real = ptas._inverse_cdf_rows

    def uniform(v, u, cum):
        return real(np.ones_like(v), u, cum)

    monkeypatch.setattr(ptas, "_inverse_cdf_rows", uniform)
    [result] = verification.run_checks(0, only=("kmeanspp-quality",))
    assert not result.passed


def test_verify_streams_follow_check_names(monkeypatch):
    """Each check's stream comes from its name, so deleting the first check
    leaves every other check's line byte-identical."""
    full = [r.line() for r in verification.run_checks(0)]
    monkeypatch.setattr(verification, "_CHECKS", verification._CHECKS[1:])
    assert [r.line() for r in verification.run_checks(0)] == full[1:]


def test_bench_matrix(tmp_path):
    out = tmp_path / "bench.csv"
    code = run(["bench", "--repeat", "2", "--solvers", "oracle", "--output", str(out)])
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == [
        "instance",
        "solver",
        "seed",
        "cost",
        "ratio_to_oracle",
        "wall_time_s",
    ]
    assert len(rows) == 1 + 7 * 2
    for row in rows[1:]:
        assert float(row[4]) == pytest.approx(1.0, abs=1e-12)
        assert float(row[5]) >= 0.0


def test_bench_ptas_matrix(tmp_path):
    """The bench's PTAS flags reach the solver; no cost falls below the optimum."""
    out = tmp_path / "bench.csv"
    flags = ["--repeat", "1", "--solvers", "ptas,kmeanspp-lloyd", "--trials", "1"]
    code = run(["bench", *flags, "--tuple-budget", "64", "--output", str(out)])
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0][4] == "ratio_to_oracle"
    assert len(rows) == 1 + 7 * 2
    assert {row[1] for row in rows[1:]} == {"ptas", "kmeanspp-lloyd"}
    for row in rows[1:]:
        assert float(row[4]) >= 1.0 - 1e-12


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_bench_runs_every_solver(tmp_path, solver):
    out = tmp_path / "bench.csv"
    flags = ["--repeat", "1", "--solvers", solver, "--trials", "1", "--tuple-budget", "16"]
    assert run(["bench", *flags, "--output", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert len(rows) == 1 + 7
    for row in rows[1:]:
        assert row[1] == solver
        assert float(row[4]) >= 1.0 - 1e-12


def test_bench_default_is_every_solver(tmp_path):
    out = tmp_path / "bench.csv"
    flags = ["--repeat", "1", "--trials", "1", "--tuple-budget", "16"]
    assert run(["bench", *flags, "--output", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert [row[1] for row in rows[1:4]] == list(SOLVERS)


def test_bench_runs_desk_then_stress_instances(tmp_path):
    """The matrix covers the five desk instances, then the two stress ones,
    and each ratio is a plain `ptas.solve` at the bench's c2 over the optimum."""
    out = tmp_path / "bench.csv"
    flags = ["--solvers", "ptas", "--repeat", "2", "--tuple-budget", "50"]
    assert run(["bench", *flags, "--output", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    suite = instances.oracle_instances() + instances.stress_instances()
    cells = [(inst, s) for inst in suite for s in (0, 1)]
    assert len(cells) == 7 * 2
    assert [(row[0], int(row[2])) for row in rows] == [(i.name, s) for i, s in cells]
    for row, (inst, s) in zip(rows, cells):
        cost = ptas.solve(
            inst.points, inst.k, 0.5, {"c2": 4.0, "tuple_budget": 50}, master_seed=s
        ).cost
        assert float(row[4]) == cost / inst.opt_cost


def test_bench_usage_errors():
    with pytest.raises(SystemExit) as exc:
        run(["bench", "--repeat", "0"])
    assert exc.value.code == 2
    assert run(["bench", "--solvers", "ptas,magic"]) == 2


def test_threads_do_not_change_bytes(tmp_path):
    args = [
        "cluster",
        "--c1",
        "2",
        "--c2",
        "1",
        "--tuple-budget",
        "50",
        "--seed",
        "5",
    ]
    one = tmp_path / "t1.json"
    eight = tmp_path / "t8.json"
    assert run(args + ["--threads", "1", "--output", str(one)]) == 0
    assert run(args + ["--threads", "8", "--output", str(eight)]) == 0
    assert one.read_bytes() == eight.read_bytes()


def _fresh_import(imports: str, check: str) -> None:
    """Run `import <imports>` in a new interpreter on this checkout, then `assert <check>`."""
    src = str(Path(wkmeans.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        f"import {imports}\n"
        "assert wkmeans.__file__.startswith(sys.argv[1]), wkmeans.__file__\n"
        f"assert {check}, sorted(sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, src], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_import_does_not_load_scipy_stats():
    """scipy.stats is slow to import and only `verify` needs it, so it loads lazily."""
    _fresh_import("wkmeans, wkmeans.sensor, wkmeans.cli", "'scipy.stats' not in sys.modules")


def test_import_does_not_load_the_thread_pool():
    """concurrent.futures costs every fresh interpreter ~7.5 ms; only threads > 1 needs it."""
    _fresh_import("wkmeans.ptas, wkmeans.sensor", "'concurrent.futures' not in sys.modules")


def test_import_loads_no_solver_module():
    """`import wkmeans` loads core only; each SOLVERS entry imports its module on first call."""
    _fresh_import(
        "wkmeans", "{m for m in sys.modules if m.startswith('wkmeans')} == {'wkmeans', 'wkmeans.core'}"
    )


def test_sensor_writes_outputs_in_the_region_files_frame(tmp_path):
    """At a 5e6 offset the centers and the cell CSV come back in the file's coordinates."""
    offset = 5e6
    doc = {
        "polygon": [[offset, offset], [offset + 1, offset], [offset + 1, offset + 1],
                    [offset, offset + 1]],
        "density": {"type": "gaussian_mixture", "means": [[offset + 0.3, offset + 0.6]],
                    "covariances": [[[0.04, 0.0], [0.0, 0.04]]], "mixing": [1.0]},
    }
    region_path = tmp_path / "region.json"
    region_path.write_text(json.dumps(doc))
    out = tmp_path / "place.json"
    argv = ["sensor", "--region", str(region_path), "--k", "2", "--grid-eps", "0.125",
            "--solver", "kmeanspp-lloyd", "--seed", "4", "--output", str(out)]
    assert run(argv) == 0
    payload = json.loads(out.read_text())
    region, _ = load_region(region_path)
    report = place_sensors(region, 2, 0.5, 0.125, solver="kmeanspp-lloyd", master_seed=4)
    assert payload["centers"] == report.centers.centers.tolist()
    centers = report.centers.centers
    assert np.all((centers > offset) & (centers < offset + 1))
    cells = load_weighted_points(tmp_path / "place_points.csv")
    want = report.discretization.as_point_set
    assert cells.coords.tobytes() == want.coords.tobytes()
    assert cells.weights.tobytes() == want.weights.tobytes()
    assert np.all((cells.coords > offset) & (cells.coords < offset + 1))
