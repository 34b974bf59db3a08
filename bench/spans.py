"""Span recording around the public functions of each wkmeans module.

`Tracer.install()` replaces every public function of the layer modules, in
every wkmeans namespace that binds it, with a wrapper that records a span
(name, start, end, parent) and a few counters taken from the call's
arguments and result. Density `evaluate` methods and
`RandomSource.generator` are wrapped at class level. Private helpers are
never wrapped, so time spent in them shows as the self time of the public
caller. Spans stay in memory until the run ends.

Only the thread that installed the tracer records; calls from other
threads run unwrapped, so spans always nest and self time is well defined.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict

import numpy as np

from wkmeans.core import as_center_array  # the unwrapped function, for counters

LAYERS = ("core", "sampling", "ptas", "baselines", "sensor")
NAMESPACES = (
    "wkmeans", "wkmeans.core", "wkmeans.sampling", "wkmeans.ptas",
    "wkmeans.baselines", "wkmeans.sensor", "wkmeans.instances",
    "wkmeans.oracle", "wkmeans.verification", "wkmeans.cli",
)
BATCH_CAP = 1024  # ptas evaluates candidate tuples in blocks of at most this many


def _n_centers(centers) -> int:
    return as_center_array(centers).shape[0]


def _d2_values(args, kwargs, out) -> dict:
    points, centers = args[0], args[1]
    n = points.n if hasattr(points, "n") else np.atleast_2d(points).shape[0]
    return {"d2_values": n * _n_centers(centers)}


def _solve_counts(args, kwargs, out) -> dict:
    meta = out.meta
    budget = meta.get("tuple_budget")
    costs = meta.get("trial_costs")
    if costs is None:  # the k >= distinct points shortcut evaluates nothing
        return {}
    best = min(costs)
    block = BATCH_CAP if budget == "exhaustive" else min(int(budget), BATCH_CAP)
    return {
        "candidates": meta["tuples_evaluated"],
        "trials": len(costs),
        "trial_hits": sum(c <= 1.01 * best for c in costs),
        "working_set_bytes": block * args[0].n * 8,
    }


def _clip_counts(args, kwargs, out) -> dict:
    square = np.asarray(args[0], dtype=np.float64)
    boundary = out is not None and not (
        out.shape == square.shape and np.array_equal(out, square)
    )
    return {"boundary": int(boundary)}


COUNTERS = {
    "core.weighted_cost": _d2_values,
    "core.assign_to_centers": _d2_values,
    "core.min_squared_distances": _d2_values,
    "ptas.solve": _solve_counts,
    "baselines.lloyd_descend": lambda a, k, o: {"iterations": o.meta["iterations"]},
    "sensor.clip_cell": _clip_counts,
    "sensor.discretize": lambda a, k, o: {"cells": len(o.cells)},
    "sensor.density": lambda a, k, o: {"points": int(np.atleast_2d(a[1]).shape[0])},
}
MAX_COUNTERS = {"working_set_bytes"}


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack, thread = self.spans, self._stack, self._thread

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != thread:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, out)
            return out

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of the given name (for the benchmark's ops)."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in NAMESPACES]
        for layer in LAYERS:
            mod = importlib.import_module(f"wkmeans.{layer}")
            for attr, fn in list(vars(mod).items()):
                public = not attr.startswith("_")
                if not (public and inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for ns in modules:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, bound, traced)
        from wkmeans import sampling, sensor

        for cls in (sensor.UniformDensity, sensor.GaussianMixtureDensity, sensor.RasterDensity):
            self._patch(cls, "evaluate", self._wrap("sensor.density", cls.evaluate))
        self._patch(
            sampling.RandomSource, "generator",
            self._wrap("sampling.generator", sampling.RandomSource.generator),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total s, self s and counters (summed; working set max)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, counts) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_time[i]
            for key, value in (counts or {}).items():
                if key in MAX_COUNTERS:
                    agg[key] = max(agg[key], value)
                else:
                    agg[key] += value
        return out
