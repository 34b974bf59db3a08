import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wkmeans
from wkmeans import SOLVERS, baselines, cli, core, instances, oracle, ptas, sensor, verification
from wkmeans.core import WeightedPointSet, load_weighted_points, save_weighted_points
from wkmeans.oracle import brute_force_opt
from wkmeans.sampling import RandomSource
from wkmeans.sensor import RegionFileError, load_region, place_sensors


def run(argv):
    return cli.main(argv)


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def load_json(path):
    """A JSON file the CLI wrote, refusing NaN, Infinity and -Infinity."""
    return json.loads(path.read_text(), parse_constant=_refuse_constant)


def test_cluster_default_json(tmp_path):
    out = tmp_path / "result.json"
    assert run(["cluster", "--seed", "7", "--output", str(out)]) == 0
    payload = load_json(out)
    assert payload["command"] == "cluster"
    assert payload["k"] == 2
    assert payload["solver"] == "ptas"
    assert payload["seed"] == 7
    assert payload["cost"] >= 1.0 - 1e-12
    assert len(payload["centers"]) == 2
    assert len(payload["assignment"]) == 4
    assert payload["meta"]["master_seed"] == 7
    # Byte-determinism depends on payloads carrying no timing or machine
    # facts.
    flat = json.dumps(payload)
    assert "wall" not in flat and "thread" not in flat


def test_cluster_desk_constants_near_optimal(tmp_path):
    # The theory sample sizes need branching on every subset to pay off; with
    # a random tuple budget the small bench constants are the accurate ones.
    out = tmp_path / "desk.json"
    args = ["cluster", "--c1", "8", "--c2", "4", "--seed", "7", "--output", str(out)]
    assert run(args) == 0
    payload = load_json(out)
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
    payload = load_json(out)
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
@pytest.mark.filterwarnings("error")
def test_cluster_solves_weight_totals_past_float64(tmp_path, solver):
    """Four weights of 4e307 or 1e308 at x = 0, 1, 4, 5, whose total and
    sums of weights times squared distances pass float64: every solver
    returns the optimum, cost w, and `cluster` exits 0."""
    for w in (4e307, 1e308):
        path, out = tmp_path / "huge.csv", tmp_path / "out.json"
        save_weighted_points(path, WeightedPointSet([[0.0], [1.0], [4.0], [5.0]], [w] * 4))
        argv = ["cluster", "--input", str(path), "--solver", solver, "--c2", "4"]
        assert run([*argv, "--output", str(out)]) == 0
        assert load_json(out)["cost"] == w


@pytest.mark.filterwarnings("error")
def test_oracle_names_overflowing_weight_products():
    """Four weights of 4e307 at x = 0, 1, 4, 5 have finite group costs: the
    oracle returns the optimum. 1e10 apart, the optimum costs 4e327, past
    float64: the frame's ValueError names that cost, with no
    RuntimeWarning, directly and through SOLVERS.
    """
    P = WeightedPointSet([[0.0], [1.0], [4.0], [5.0]], [4e307] * 4)
    res = brute_force_opt(P, 2)
    assert res.meta["groups"] == [[0, 1], [2, 3]] and res.cost == 4e307
    P = WeightedPointSet([[0.0], [1e10], [4e10], [5e10]], [4e307] * 4)
    for solve in (lambda: brute_force_opt(P, 2), lambda: SOLVERS["oracle"](P, 2, 0.5, None, 0)):
        with pytest.raises(
            ValueError, match=r"^cost 4\.00e\+327 overflows float64; scale the weights down$"
        ):
            solve()


@pytest.mark.parametrize(
    "solver,xs,w",
    [
        ("ptas", [0.0, 1e10, 4e10, 5e10], 4e307),
        ("kmeanspp-lloyd", [0.0, 1e10, 4e10, 5e10], 4e307),
        ("oracle", [0.0, 1e10, 4e10, 5e10], 4e307),
        ("ptas", [0.0, 1e155, 2e155, 3e155], 1.0),
        ("kmeanspp-lloyd", [0.0, 1e155, 2e155, 3e155], 1.0),
    ],
    ids=["ptas", "kmeanspp-lloyd", "oracle", "ptas-spread", "kmeanspp-lloyd-spread"],
)
@pytest.mark.filterwarnings("error")
def test_cluster_names_overflowing_weight_products(tmp_path, capsys, solver, xs, w):
    """Every solver names one overflow, the frame's, on one error line.

    Four weights of 4e307 1e10 apart, and unit weights 1e155 apart, have
    optima whose sums of weights times squared distances pass float64
    (4e327 and 1e310). Warnings are errors here, so a numpy RuntimeWarning
    on the way fails the test.
    """
    path = tmp_path / "heavy.csv"
    save_weighted_points(path, WeightedPointSet([[x] for x in xs], [w] * 4))
    assert run(["cluster", "--input", str(path), "--solver", solver, "--c2", "4"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cost ")
    assert err[0].endswith("overflows float64; scale the weights down")


@pytest.mark.filterwarnings("error")
def test_cluster_writes_null_for_a_cost_history_past_float64(tmp_path, capsys):
    """Unit weights at x = 0, 1e154, 2e154, 3e154, seed 2: k-means++ seeds
    a placement costing 2e308, past float64, and Lloyd then reaches the
    optimum, 1e308. kmeanspp-lloyd writes that optimum with null for the
    seed's cost, where the JSON once held Infinity; the PTAS's own cost
    passes float64, so it exits 2 naming it and writes no file.
    """
    path, out = tmp_path / "spread.csv", tmp_path / "out.json"
    xs = [0.0, 1e154, 2e154, 3e154]
    save_weighted_points(path, WeightedPointSet([[x] for x in xs], [1.0] * 4))
    argv = ["cluster", "--input", str(path), "--seed", "2", "--output", str(out)]
    assert run([*argv, "--solver", "kmeanspp-lloyd"]) == 0
    payload = load_json(out)
    assert payload["cost"] == 1.0000000000000002e308
    assert payload["meta"]["cost_history"] == [None, payload["cost"], payload["cost"]]
    out.unlink()
    capsys.readouterr()
    assert run([*argv, "--solver", "ptas"]) == 2
    assert not out.exists()
    want = "error: cost 2.20e+308 overflows float64; scale the weights down"
    assert capsys.readouterr().err.splitlines() == [want]


def test_json_document_refuses_non_finite_values():
    """No NaN or Infinity token reaches a result file."""
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._json_document({"cost": value})


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_cluster_runs_every_solver(tmp_path, solver):
    out = tmp_path / "result.json"
    assert run(["cluster", "--solver", solver, "--output", str(out)]) == 0
    payload = load_json(out)
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
    payload = load_json(out)
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
    payload = load_json(out)
    assert payload["solver"] == payload["meta"]["solver"] == solver
    assert payload["n_cells"] == 4
    # Four cells of mass 1/4 at the quarter points, paired along one side.
    assert payload["quantization_cost"] >= 0.0625 - 1e-12


def test_sensor_oracle_is_brute_force_on_the_cells(tmp_path, capsys):
    out, cells = tmp_path / "place.json", tmp_path / "cells.csv"
    argv = ["sensor", "--solver", "oracle", "--k", "2", "--grid-eps", "0.5",
            "--output", str(out), "--points-output", str(cells)]
    assert run(argv) == 0
    payload = load_json(out)
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
    """`weight-scaling` tests the frame every solver runs in, which owns the
    scale: a frame that multiplies the cost back by 2^(e_w + e_x), as if a
    cost were linear in the coordinates, makes it fail."""
    real = core._in_local_frame

    def linear_cost(P, solve):
        res = real(P, solve)
        e_x = math.frexp(float(np.abs(P.coords - P.coords[0]).max()))[1]
        return replace(res, cost=math.ldexp(res.cost, -e_x))

    for module in (ptas, baselines, oracle):
        monkeypatch.setattr(module, "_in_local_frame", linear_cost)
    [result] = verification.run_checks(0, only=("weight-scaling",))
    assert not result.passed


def test_verify_null_sampling_needs_uniform_picks(monkeypatch):
    """`null-sampling` tests the evaluator's uniform draws: a mutant of
    `ptas._inverse_cdf_rows` that adds ten times the row total to point 0
    makes it fail, though its success rates pass (full rate 0.87 at seed 0,
    over the 0.5 floor)."""
    real = ptas._inverse_cdf_rows

    def first_heavy(v, u, cum):
        v = v.copy()
        v[0] += 10.0 * v.sum(axis=0)
        return real(v, u, cum)

    monkeypatch.setattr(ptas, "_inverse_cdf_rows", first_heavy)
    [result] = verification.run_checks(0, only=("null-sampling",))
    assert not result.passed and result.statistic >= result.threshold


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


def test_verify_parallel_axis_prices_through_the_kernel(monkeypatch):
    """`parallel-axis` tests the solvers' pricing: a `core._nearest` that
    drops the last coordinate makes it fail."""
    real = core._nearest

    def drops_one(points, centers, index=True):
        pts, c = np.atleast_2d(points), core.as_center_array(centers)
        if pts.shape[1] > 1:
            pts, c = pts[:, :-1], c[:, :-1]
        return real(pts, c, index)

    monkeypatch.setattr(core, "_nearest", drops_one)
    [result] = verification.run_checks(0, only=("parallel-axis",))
    assert not result.passed


def test_verify_quadrature_convergence_prices_the_mesh(monkeypatch):
    """`quadrature-convergence` runs the mesh pricing: a `coverage_cost`
    that leaves out the cells' inertias makes it fail."""
    real = sensor.coverage_cost

    def without_inertias(region, centers, mesh):
        return real(region, centers, replace(mesh, inertias=np.zeros_like(mesh.inertias)))

    monkeypatch.setattr(verification, "coverage_cost", without_inertias)
    [result] = verification.run_checks(0, only=("quadrature-convergence",))
    assert not result.passed


def test_verify_sensor_decomposition_runs_place_sensors(monkeypatch):
    """`sensor-decomposition` reads what `place_sensors` reports: an
    inertia sum off by 1e-3 relative makes it fail."""
    monkeypatch.setattr(
        sensor.Discretization,
        "inertia_sum",
        property(lambda self: core._exact_sum(self.inertias) * (1.0 + 1e-3)),
    )
    [result] = verification.run_checks(0, only=("sensor-decomposition",))
    assert not result.passed


def test_verify_centroid_optimality_tests_the_centroid(monkeypatch):
    """A `weighted_centroid` that takes the plain mean fails `centroid-optimality`."""
    monkeypatch.setattr(verification, "weighted_centroid", lambda P: P.coords.mean(axis=0))
    [result] = verification.run_checks(0, only=("centroid-optimality",))
    assert not result.passed


def test_verify_reproducibility_tests_the_streams(monkeypatch):
    """A `RandomSource.generator` that ignores the stream fails `reproducibility`."""

    def seed_only(self):
        return np.random.Generator(np.random.PCG64(self.seed))

    monkeypatch.setattr(RandomSource, "generator", seed_only)
    [result] = verification.run_checks(0, only=("reproducibility",))
    assert not result.passed


def test_verify_oracle_instances_runs_the_oracle(monkeypatch):
    """An `oracle._enumerate` that never opens the k-th group fails `oracle-instances`."""
    real = oracle._enumerate
    monkeypatch.setattr(oracle, "_enumerate", lambda P, k: real(P, max(1, k - 1)))
    [result] = verification.run_checks(0, only=("oracle-instances",))
    assert not result.passed


def test_verify_lloyd_monotone_runs_lloyd(monkeypatch):
    """A Lloyd step that takes the plain mean of each cluster fails `lloyd-monotone`."""
    real = baselines._lloyd_centers

    def plain_mean(assignment, weighted_t, weights, centers):
        return real(assignment, weighted_t / weights, np.ones_like(weights), centers)

    monkeypatch.setattr(baselines, "_lloyd_centers", plain_mean)
    [result] = verification.run_checks(0, only=("lloyd-monotone",))
    assert not result.passed


def test_verify_ptas_smoke_runs_the_solver(monkeypatch):
    """A `ptas._centroids` that returns each tuple's first draw fails `ptas-smoke`."""
    monkeypatch.setattr(
        ptas, "_centroids", lambda coords_t, weights, cols: coords_t.take(cols[0], axis=1)
    )
    [result] = verification.run_checks(0, only=("ptas-smoke",))
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
    """Trials run in one thread: no module imports concurrent.futures, not
    even a solve at the threads=2 the benchmark's byte check passes."""
    _fresh_import(
        "wkmeans.cli, wkmeans.instances, wkmeans.ptas, wkmeans.verification",
        "wkmeans.ptas.solve(wkmeans.instances.line4().points, 2, 0.5, {'c2': 4.0},"
        " threads=2).cost > 0 and 'concurrent.futures' not in sys.modules",
    )


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
    payload = load_json(out)
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
