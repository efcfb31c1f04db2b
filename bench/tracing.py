"""Spans around the calls into each mpcrb module, recorded from outside.

``Tracer.install`` wraps the public functions of the traced modules (and each
``experiments.run_*`` recipe plus ``cli.load_preset``) and rebinds every wrapper
in each mpcrb module that holds the original, because ``experiments``,
``ground`` and the package root import names with ``from ... import``.  Calls
between functions of one module go through the module globals and are
therefore traced too.  Spans stay in memory until ``write_spans``.  The
tracer keeps one stack of open spans, so it assumes the traced code runs on
one thread (the benchmark runs every recipe with ``workers=1``).
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("arrays", "scene", "bounds", "estimation", "ground", "experiments",
          "cli")

# Counters read from a traced call's result: span name -> (counter, value).
_RESULT_COUNTERS = {
    "estimation.monte_carlo_rmse":
        ("estimation.trials", lambda r: r.trials * len(r.rmse_rad)),
    "ground.range_point": ("ground.in_cell_points", lambda r: int(r.same_cell)),
}


def _traced(layer: str, name: str) -> bool:
    if layer == "experiments":
        return name.startswith("run_")
    if layer == "cli":
        return name == "load_preset"
    return not name.startswith("_")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.counters = {counter: 0 for counter, _ in _RESULT_COUNTERS.values()}
        self._stack: list[int] = []

    def install(self) -> "Tracer":
        """Wrap the public functions of every layer."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"mpcrb.{layer}")
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and _traced(layer, name)):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "mpcrb" and not mod_name.startswith("mpcrb."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        return self

    def _wrap(self, span_name: str, fn):
        idx = len(self.names)
        self.names.append(span_name)
        fns, parents, starts, ends, failed = (self.fn, self.parent, self.start,
                                              self.end, self.failed)
        stack = self._stack
        clock = time.perf_counter
        counter = _RESULT_COUNTERS.get(span_name)
        counters = self.counters

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = len(fns)
            fns.append(idx)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            failed.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[sid] = 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if counter is not None:
                counters[counter[0]] += counter[1](result)
            return result

        return span

    def summary(self) -> dict:
        """Calls, total, self time and raised calls per traced function."""
        fn = np.frombuffer(self.fn, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        failed = np.frombuffer(self.failed, dtype=np.int8)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=fn.size)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(fn, minlength=k)
        total = np.bincount(fn, weights=dur, minlength=k)
        own = np.bincount(fn, weights=self_time, minlength=k)
        raised = np.bincount(fn, weights=failed, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i]), "raised": int(raised[i])}
                for i, name in enumerate(self.names)}

    def write_spans(self, path) -> None:
        """All spans, one CSV row each, times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", newline="",
                       compresslevel=1) as fh:
            out = csv.writer(fh)
            out.writerow(["span", "parent", "function", "start_s", "end_s",
                          "raised"])
            names = self.names
            for sid in range(len(self.fn)):
                out.writerow([sid, self.parent[sid], names[self.fn[sid]],
                              f"{self.start[sid] - t0:.9f}",
                              f"{self.end[sid] - t0:.9f}", self.failed[sid]])


def layer_metrics(functions: dict, counters: dict, csv_rows: int,
                  csv_bytes: int) -> dict:
    """The per-layer metrics, as (value, unit) pairs, from one traced run."""

    def fn(name, key):
        return functions.get(name, {}).get(key, 0)

    m = {}
    for layer in LAYERS:
        mine = [v for k, v in functions.items() if k.startswith(layer + ".")]
        m[f"{layer}.calls"] = (sum(v["calls"] for v in mine), "count")
        m[f"{layer}.self_s"] = (sum(v["self_s"] for v in mine), "s")
    for name in ("arrays.steering", "bounds.theta_a",
                 "bounds.mcrb_theta_closed", "scene.compressed_mean",
                 "ground.range_point"):
        m[f"{name}.calls"] = (fn(name, "calls"), "count")
    for name in ("arrays.steering", "arrays.mimo_matrices", "arrays.e_adot",
                 "bounds.theta_a", "bounds.mcrb_theta_closed",
                 "bounds.crb_theta", "scene.scene_from_ratios",
                 "estimation.monte_carlo_rmse", "ground.range_point",
                 "experiments.run_fig5", "experiments.run_fig2",
                 "experiments.run_scenario"):
        m[f"{name}.self_s"] = (fn(name, "self_s"), "s")
    scenes = fn("bounds.mcrb_theta_closed", "calls")
    m["bounds.steering_calls_per_scene"] = (
        fn("arrays.steering", "calls") / scenes if scenes else 0.0,
        "calls/scene")
    m["bounds.degenerate_points"] = (fn("bounds.mcrb_theta_closed", "raised"),
                                     "count")
    trials = counters["estimation.trials"]
    m["estimation.trials"] = (trials, "count")
    m["estimation.us_per_trial"] = (
        1e6 * fn("estimation.monte_carlo_rmse", "self_s") / trials
        if trials else 0.0, "us")
    points = fn("ground.range_point", "calls")
    m["ground.in_cell_ratio"] = (
        counters["ground.in_cell_points"] / points if points else 0.0, "ratio")
    m["experiments.csv_rows"] = (csv_rows, "count")
    m["experiments.csv_bytes"] = (csv_bytes, "bytes")
    return m
