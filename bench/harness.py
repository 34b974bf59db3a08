"""One benchmark run of one workload; started by run.py in a fresh process.

Untraced (--trace 0): time the workload's set-up in fresh interpreters, then
run ops in a closed loop (one client, threads=1) until at least `min_ops`
ops are done and --seconds have passed. Prints the end-to-end metrics, with
times scaled to a reference host speed (see SpeedProbe).

Traced (--trace 1): run each of ops 0..min_ops-1 both untraced and with
spans recorded around every public wkmeans function, then the threads=2
check and the CLI probe. Prints the per-layer metrics.

Either way a human-readable report comes first, every output is checked,
the results (and in a traced run the spans) are written under .bench_out/,
and the last stdout line is the JSON result. The exit code is 1 when any
op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import spans
import workloads

OUT_DIR = Path(".bench_out")
SETUP_MIN_REPEATS = 3
SETUP_SECONDS = 3.0
CHILD_TIMEOUT_S = 60
REF_PROBE_S = 0.045
PROBE_EVERY_S = 1.0
PROBE_WINDOW_S = 10.0


def machine_facts() -> dict:
    mem_kib = None
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_kib = int(line.split()[1])
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "mem_total_mib": None if mem_kib is None else round(mem_kib / 1024),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def fresh_python(args: list[str]) -> float:
    """Wall seconds of a fresh interpreter running args; raises if it fails."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{args[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return elapsed


class SpeedProbe:
    """Host speed, from timing a fixed mix of interpreter and numpy work.

    Shared hosts change speed by up to about 20% within tens of seconds,
    which would swamp the effect of a change on the program. Probes run
    between timed calls, and `scale` converts a call's wall time to seconds
    on a host where the probe takes REF_PROBE_S, using the median of the
    probes within PROBE_WINDOW_S of the call (one probe alone is noisy).
    """

    def __init__(self) -> None:
        gen = np.random.default_rng(0)
        self._small = gen.random(200_000)
        self._big = gen.random(2_000_000)
        self._tiny = gen.random((4, 2))
        self.samples: list[tuple[float, float]] = []  # (end time, duration)
        self._measure()  # warm-up
        self.samples.clear()

    def _measure(self) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        for _ in range(8):
            np.sort(self._small)
        for _ in range(8):
            self._big.sum()
        for _ in range(3000):
            (self._tiny - self._tiny[0]).min()
        end = time.perf_counter()
        self.samples.append((end, end - start))

    def mark(self, force: bool = False) -> None:
        """Probe, unless one ran within PROBE_EVERY_S and force is not set."""
        if force or time.perf_counter() - self.samples[-1][0] >= PROBE_EVERY_S:
            self._measure()

    def scale(self, wall: float, start: float, end: float) -> float:
        """Wall time of a call made between start and end, at reference speed."""
        near = [
            d for t, d in self.samples
            if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S
        ]
        return wall * REF_PROBE_S / statistics.median(near)


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least 10 samples beyond it, and its value."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (1.0 - 10.0 / n), sorted(values)[n - 11]


class CheckFailed(Exception):
    """An output check failed; args are the failure messages."""


class Ledger:
    """Counts attempted and failed operations; failures are logged to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def attempt(self, what: str, fn, *args):
        """Return fn(*args), or None after recording why it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except CheckFailed as exc:
            self.fail(f"{what}: " + "; ".join(exc.args))
        except Exception:  # an exception is a failed operation, not a crash
            self.fail(f"{what}: {traceback.format_exc()}")
        return None

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print("FAILED " + message, file=sys.stderr)


def do_op(ledger: Ledger, wl, i: int, threads: int = 1,
          tracer: spans.Tracer | None = None, expect: bytes | None = None):
    """Run and check op i; return (wall seconds, output), or None if it failed.

    With `expect`, the op also fails unless its output fingerprint equals it.
    """

    def step():
        start = time.perf_counter()
        if tracer is None:
            out = wl.run(i, threads)
        else:
            out = tracer.span("bench.op", wl.run, i, threads)
        wall = time.perf_counter() - start
        fails = wl.check(i, out)
        if expect is not None and out.fingerprint != expect:
            fails.append("output bytes differ from the untraced threads=1 run")
        if fails:
            raise CheckFailed(*fails)
        return wall, out

    return ledger.attempt(f"op {i} threads={threads}", step)


def timing_line(name: str, values: list[float]) -> str:
    t = tail(values)
    tail_text = (
        f"p{t[0]:.0f} {t[1]:.4f} s" if t else "no percentile has 10 samples beyond it"
    )
    return f"{name:<24} p50 {statistics.median(values):.4f} s   {tail_text}   (n={len(values)})"


def run_untraced(wl, seconds: float, tmp: Path, ledger: Ledger) -> tuple[dict, list[str]]:
    inputs = wl.write_inputs(tmp)
    probe = SpeedProbe()
    setup: list[tuple[float, float, float]] = []  # (wall, start, end)
    probe.mark(force=True)
    stop = time.perf_counter() + SETUP_SECONDS
    while len(setup) < SETUP_MIN_REPEATS or time.perf_counter() < stop:
        start = time.perf_counter()
        wall = fresh_python(["-c", wl.setup_code(inputs)])
        setup.append((wall, start, time.perf_counter()))
        probe.mark(force=True)
    walls: list[tuple[float, float, float]] = []
    timings: dict[str, list[float]] = {name: [] for name in wl.timing_names}
    quality: dict[str, list[float]] = {}
    start = time.perf_counter()
    i = 0
    while i < wl.min_ops or time.perf_counter() - start < seconds:
        probe.mark()
        op_start = time.perf_counter()
        done = do_op(ledger, wl, i)
        if done is not None:
            wall, out = done
            walls.append((wall, op_start, time.perf_counter()))
            for name in wl.timing_names:
                timings[name] += out.timings[name]
            if i < wl.min_ops:
                for name, values in wl.quality(i, out).items():
                    quality.setdefault(name, []).extend(values)
        i += 1
    elapsed = time.perf_counter() - start
    probe.mark(force=True)
    if not quality:
        return {}, [f"no op among the first {wl.min_ops} succeeded"]
    setup_ref = [probe.scale(*call) for call in setup]
    op_ref = [probe.scale(*call) for call in walls]
    ratios = quality["ptas_cost_ratio"]
    hit = workloads.HIT_FACTOR * (1.0 + 1e-12)
    quality["ptas_hit_share"] = [sum(r <= hit for r in ratios) / len(ratios)]
    metrics = {
        "setup_s": statistics.median(setup_ref),
        "op_s": statistics.median(op_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines = [
        f"closed loop, 1 client, threads=1: {i} ops in {elapsed:.1f} s;"
        f" quality over ops 0..{wl.min_ops - 1}",
        f"speed probe p50 {statistics.median(d for _, d in probe.samples):.4f} s"
        f" (n={len(probe.samples)}); setup_s and op_s are scaled to a {REF_PROBE_S} s probe",
        timing_line("setup_s", setup_ref),
        timing_line("op_s", op_ref),
        "raw wall times:",
        timing_line("setup_s", [call[0] for call in setup]),
        timing_line("op_s", [call[0] for call in walls]),
    ]
    lines += [timing_line(name, values) for name, values in timings.items()]
    for name, values in quality.items():
        lines.append(
            f"{name:<24} p50 {statistics.median(values):.6g}   mean {statistics.fmean(values):.6g}"
            f"   (n={len(values)})"
        )
    return metrics, lines


def run_traced(wl, tmp: Path, ledger: Ledger) -> tuple[dict, list[str], list]:
    inputs = wl.write_inputs(tmp)
    K = wl.min_ops
    probe = SpeedProbe()
    tracer = spans.Tracer()
    # Each op runs both untraced and traced, in alternating order, so drift
    # in host speed and any warm-up from the first run cancel out of the
    # overhead; the probes remove the rest.
    untraced, calls = [], []
    for i in range(K):
        done, span = {}, {}
        for traced in (False, True) if i % 2 == 0 else (True, False):
            probe.mark(force=True)
            if traced:
                tracer.install()
            start = time.perf_counter()
            try:
                done[traced] = do_op(ledger, wl, i, tracer=tracer if traced else None)
            finally:
                tracer.uninstall()
            span[traced] = (start, time.perf_counter())
        untraced.append(done[False])
        if done[False] and done[True]:
            if done[True][1].fingerprint != done[False][1].fingerprint:
                ledger.fail(f"op {i}: traced output bytes differ from the untraced run")
            calls.append([(done[t][0], *span[t]) for t in (False, True)])
    probe.mark(force=True)
    do_op(ledger, wl, 0, threads=2, expect=untraced[0] and untraced[0][1].fingerprint)

    cli = {"import_s": ledger.attempt("cli import", fresh_python, ["-c", "import wkmeans.cli"])}
    if hasattr(wl, "cli_args") and untraced[0]:
        command = wl.cli_args(inputs, tmp / "cli_out.json")[0]

        def run_cli():
            wall = fresh_python(["-m", "wkmeans.cli", *wl.cli_args(inputs, tmp / "cli_out.json")])
            doc = json.loads((tmp / "cli_out.json").read_text(encoding="utf-8"))
            if not wl.cli_matches(doc, untraced[0][1]):
                raise CheckFailed("centers or cost differ from the library result")
            return wall

        cli[f"{command}_s"] = ledger.attempt(f"cli {command}", run_cli)

    S = tracer.summary()

    def get(name: str, key: str) -> float:
        return S[name][key] if name in S else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    per_op = {}
    for name, keys in (
        ("ptas.solve", ("calls", "s", "self_s")),
        ("sampling.sample_index", ("calls", "s")),
        ("sampling.incremental_min_dist_update", ("calls", "s")),
        ("sampling.generator", ("calls",)),
        ("core.weighted_cost", ("calls", "s")),
        ("core.assign_to_centers", ("calls", "s")),
        ("core.min_squared_distances", ("calls", "s")),
        ("baselines.kmeanspp_seed", ("s",)),
        ("baselines.lloyd_descend", ("s",)),
        ("sensor.normalize_density", ("s",)),
        ("sensor.discretize", ("s", "self_s")),
        ("sensor.clip_cell", ("calls", "s")),
        ("sensor.density", ("calls", "points", "s")),
        ("sensor.coverage_cost", ("s",)),
    ):
        for key in keys:
            per_op[f"{name}.{key}"] = get(name, key) / K
    per_op["ptas.candidates"] = get("ptas.solve", "candidates") / K
    per_op["ptas.candidates_per_s"] = ratio(get("ptas.solve", "candidates"), get("ptas.solve", "s"))
    per_op["ptas.batch_working_set_mb"] = get("ptas.solve", "working_set_bytes") / 2**20
    per_op["ptas.trial_hit_ratio"] = ratio(get("ptas.solve", "trial_hits"), get("ptas.solve", "trials"))
    per_op["core.d2_values"] = sum(agg["d2_values"] for name, agg in S.items() if name.startswith("core.")) / K
    per_op["baselines.lloyd_iterations"] = get("baselines.lloyd_descend", "iterations") / K
    per_op["baselines.lloyd_s_per_iter"] = ratio(
        get("baselines.lloyd_descend", "s"), get("baselines.lloyd_descend", "iterations")
    )
    per_op["sensor.cells"] = get("sensor.discretize", "cells") / K
    per_op["sensor.boundary_cells"] = get("sensor.clip_cell", "boundary") / K
    per_op["sensor.cell_yield"] = ratio(get("sensor.discretize", "cells"), get("sensor.clip_cell", "calls"))
    per_op["sensor.ptas_share"] = ratio(get("ptas.solve", "s"), get("sensor.place_sensors", "s"))
    for module in (*spans.LAYERS, "bench"):
        per_op[f"{module}.self_s"] = sum(
            agg["self_s"] for name, agg in S.items() if name.split(".")[0] == module
        ) / K
    for key in ("import_s", "cluster_s", "sensor_s"):
        per_op[f"cli.{key}"] = cli.get(key) or 0.0
    # The mean, not the median: on desk-suite most solves are optimal, so the
    # median reads 1 however badly the rest do.
    per_op["quality.ptas_cost_ratio"] = statistics.fmean(
        r for i, done in enumerate(untraced) if done
        for r in wl.quality(i, done[1])["ptas_cost_ratio"]
    )
    per_op["trace.op_s"] = get("bench.op", "s") / K
    plain = sum(probe.scale(*u) for u, _ in calls)
    per_op["trace.overhead_share"] = ratio(sum(probe.scale(*t) for _, t in calls) - plain, plain)
    walls = [done[0] for done in untraced if done]

    self_sum = sum(per_op[f"{m}.self_s"] for m in (*spans.LAYERS, "bench"))
    lines = [
        f"ops 0..{K - 1}, each untraced and traced in alternating order; values are per traced op",
        "self time per module: "
        + ", ".join(f"{m} {per_op[f'{m}.self_s']:.4f}" for m in (*spans.LAYERS, "bench"))
        + f" = {self_sum:.4f} s; traced op wall {per_op['trace.op_s']:.4f} s",
        f"tracing overhead {per_op['trace.overhead_share']:+.2%} at reference speed;"
        f" raw untraced op wall {statistics.fmean(walls) if walls else 0.0:.4f} s",
    ]
    return per_op, lines, tracer.spans


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    facts = machine_facts()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    ledger = Ledger()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        if args.trace:
            values, lines, recorded = run_traced(wl, Path(tmp), ledger)
            with open(OUT_DIR / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "counts"],
                           "spans": recorded}, fh, separators=(",", ":"))
        else:
            values, lines = run_untraced(wl, args.seconds, Path(tmp), ledger)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if values and set(declared) != set(values):
        raise RuntimeError(f"metrics {sorted(set(declared) ^ set(values))} not both declared and measured")
    metrics = {name: (values[name], unit) for name, unit in declared.items() if name in values}

    failed = len(ledger.failures)
    attempted = ledger.attempted
    lines.append(f"{'fail_share':<24} {failed / attempted:.4f} ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "machine": facts, "report": lines, "failures": ledger.failures,
                   **result}, fh, indent=1)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print("# machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<24} {value:.6g} {unit}")
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
