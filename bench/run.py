#!/usr/bin/env python3
"""mpcrb benchmark: the paper's sweeps in fresh single-threaded processes,
timed from outside, with every output checked.

Run from the repository root:

    python3 bench/run.py --workload ratio_map --seed 7 --seconds 40 --trace 0
    python3 bench/run.py                # every workload at the default seed

A timed run (``--trace 0``) starts one warm-up process, then ``WORKERS``
worker processes in turn, each for its share of ``--seconds``.  A worker
imports mpcrb, loads and validates the workload's config at its timed size
(one set-up sample), then forks one child per sample, and each child runs
the recipe once with ``workers=1`` (see ``worker.py``).  A traced run
(``--trace 1``) runs the full preset twice instead, untraced and traced, and
reports per-layer metrics.
The run prints each metric with the samples' median, quartiles and count,
writes a JSON run record under ``bench/out``, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every checked row passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEFAULT_SECONDS = 40
RUN_BUDGET_S = 165.0            # every run exits well within 180 s
WORKERS = 10                    # worker processes, hence set-up samples, per timed run


def _stats(values: list[float], unit: str, value: float | None = None) -> dict:
    """Median, quartiles and count of the samples; the reported value is the
    median unless ``value`` is given."""
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return {"value": median if value is None else value, "unit": unit,
            "median": median, "q1": q1, "q3": q3, "n": len(values)}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _spawn(workload, seed: int, size: str, deadline: float,
           out: Path | None = None, seconds: float = 0.0, trace: bool = False,
           spans: Path | None = None):
    """Run one worker process, which forks its samples; returns (report,
    None) or (None, error).  On a timeout the worker's whole process group,
    forked samples included, is killed and reaped."""
    from runenv import child_env

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
           "--seed", str(seed), "--size", size, "--seconds", repr(seconds)]
    if out is None:
        cmd.append("--setup-only")
    else:
        cmd += ["--out", str(out)]
    if trace:
        cmd.append("--trace")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = max(1.0, deadline - time.monotonic())
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"worker timed out after {timeout:.0f} s"
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, (f"worker exited with {proc.returncode}: "
                      + stderr.strip()[-1500:])
    report = json.loads(lines[-1])
    report["setup_s"] = report.pop("ready") - spawned
    return report, None


def _check_samples(workload, config, seed, size, dirs, n_rows):
    """Check the first sample's CSV; every later sample must match it byte
    for byte (the program promises reproducible outputs)."""
    from check import Verdict, check_output

    verdict, first, hashes = Verdict(), None, {}
    for d in dirs:
        hashes = {p.name: _sha256(p) for p in sorted(d.iterdir())}
        if first is None:
            first = (hashes, check_output(workload, config, seed, size,
                                          d / workload.csv))
            one = first[1]
            verdict.diffs, verdict.problems = one.diffs, list(one.problems)
        elif hashes != first[0]:
            verdict.fail_all(n_rows, f"{d.name}: outputs differ from the first sample")
            continue
        verdict.checked += first[1].checked
        verdict.failed += first[1].failed
    return verdict, (first[0] if first else {})


def _csv_size(out_dir: Path) -> tuple[int, int]:
    from check import read_csv

    paths = sorted(out_dir.glob("*.csv"))
    return (sum(len(read_csv(p)[1]) for p in paths),
            sum(p.stat().st_size for p in paths))


def _timed_samples(workload, seed, seconds, deadline, work, setups, samples,
                   dirs):
    """``WORKERS`` workers in turn, each forking timed samples for its share
    of ``seconds``; each worker's own start-up is a set-up sample.  Returns
    an error message or None."""
    begin = time.monotonic()
    for k in range(WORKERS):
        share = begin + seconds * (k + 1) / WORKERS - time.monotonic()
        if share <= 0 and k:
            continue
        out = work / f"worker-{k}"
        report, err = _spawn(workload, seed, "timed", deadline, out,
                             seconds=max(share, 0.0))
        if err:
            return err
        setups.append(report["setup_s"])
        samples += report["samples"]
        dirs += [out / f"sample-{i}" for i in range(len(report["samples"]))]
    return None


def _traced_pair(workload, seed, deadline, work, spans_path, samples, dirs):
    """One untraced and one traced sample of the full preset; returns
    (traced report or None, error message or None)."""
    report, err = _spawn(workload, seed, "preset", deadline, work / "untraced")
    if err:
        return None, err
    samples += report["samples"]
    dirs.append(work / "untraced" / "sample-0")
    traced, err = _spawn(workload, seed, "preset", deadline, work,
                         trace=True, spans=spans_path)
    if err:
        return None, err
    dirs.append(work / "traced")
    return traced, None


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns the run record."""
    import numpy as np
    from mpcrb.cli import load_preset
    from runenv import THREAD_ENV, git_commit
    from tracing import layer_metrics
    from workloads import config_for_seed, grid_values, items, rows

    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    size = "preset" if trace else "timed"
    config = config_for_seed(workload, load_preset(workload.preset), seed,
                             size=size)
    n_rows, n_items = rows(workload, config), items(workload, config)
    work = OUT / "work" / f"{workload.name}-{os.getpid()}"
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = (f"{time.strftime('%Y%m%dT%H%M%S')}-{workload.name}"
            f"-seed{seed}-trace{int(trace)}")
    spans_path = records / f"{stem}-spans.csv.gz" if trace else None
    shutil.rmtree(work, ignore_errors=True)

    setups, samples, dirs, traced = [], [], [], None
    try:
        _, err = _spawn(workload, seed, size, deadline)  # warm-up: bytecode, page cache
        if not err and trace:
            traced, err = _traced_pair(workload, seed, deadline, work,
                                       spans_path, samples, dirs)
        elif not err:
            err = _timed_samples(workload, seed, seconds, deadline, work,
                                 setups, samples, dirs)
        verdict, hashes = _check_samples(workload, config, seed, size, dirs,
                                         n_rows)
        csv_rows, csv_bytes = _csv_size(dirs[0]) if dirs else (0, 0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if err:
        verdict.fail_all(n_rows, f"crashed: {err}")

    metrics = {}
    if samples and not trace:
        # On a shared host other tenants slow the CPU by up to 2x, in phases
        # of a fraction of a second to a minute, so a run's median or mean
        # follows the neighbours.  The fastest of many short samples is the program's
        # time without that interference, and it is the reported recipe
        # time; the record keeps the median and quartiles beside it.
        walls = [s["wall_s"] for s in samples]
        cpus = [s["cpu_s"] for s in samples]
        metrics = {
            "wall_s": _stats(walls, "s", min(walls)),
            "setup_s": _stats(setups, "s"),
            "cpu_s": _stats(cpus, "s", min(cpus)),
            "peak_rss_mb": _stats([s["peak_rss_mb"] for s in samples], "MiB"),
            "items_per_s": _stats([n_items / w for w in walls], "1/s",
                                  n_items / min(walls)),
        }
    layer = {}
    if traced and samples:
        layer = {name: {"value": value, "unit": unit} for name, (value, unit)
                 in layer_metrics(traced["functions"], traced["counters"],
                                  csv_rows, csv_bytes).items()}
        layer["trace_overhead_s"] = {
            "value": traced["samples"][0]["wall_s"] - samples[0]["wall_s"],
            "unit": "s"}

    record = {
        "workload": workload.name,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "trace": trace,
        "input": {"rows": n_rows, "items": n_items, "item": workload.item,
                  "grid_points": {p: len(grid_values(config, p))
                                  for p in workload.grids},
                  "config": config},
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "threads": THREAD_ENV,
            "commit": git_commit(),
            "platform": platform.platform(),
        },
        "metrics": metrics,
        "per_layer": layer,
        "samples": samples,
        "setup_samples_s": setups,
        "check": {"rows_checked": verdict.checked, "rows_failed": verdict.failed,
                  "column_diffs": verdict.diffs, "problems": verdict.problems},
        "outputs_sha256": hashes,
        "elapsed_s": time.monotonic() - started,
    }
    if traced:
        record["traced_sample"] = {
            "wall_s": traced["samples"][0]["wall_s"], "spans": traced["spans"],
            "spans_file": str(spans_path.relative_to(ROOT)),
            "counters": traced["counters"], "functions": traced["functions"]}
    path = records / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    record["record_file"] = str(path.relative_to(ROOT))
    return record


def _print_record(record: dict) -> None:
    check = record["check"]
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"{record['input']['items']} {record['input']['item']}s): "
          f"rows checked {check['rows_checked']}, failed {check['rows_failed']}")
    for problem in check["problems"]:
        print(f"   FAIL {problem}")
    for name, m in record["metrics"].items():
        print(f"   {name:<14} {m['value']:12.6g} {m['unit']:<4} (median "
              f"{m['median']:.6g}, q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})")
    for name, m in record["per_layer"].items():
        print(f"   {name:<36} {m['value']:14.6g} {m['unit']}")
    print(f"   record: {record['record_file']}")


def main(argv=None) -> int:
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mpcrb" / "__init__.py").is_file():
        print(f"error: no mpcrb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from runenv import THREAD_ENV
    os.environ.update(THREAD_ENV)               # before numpy loads here
    sys.path.insert(0, str(ROOT / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        record = run_workload(WORKLOADS[name], args.seed, args.seconds,
                              bool(args.trace))
        _print_record(record)
        chosen = record["per_layer"] if args.trace else record["metrics"]
        results.append((name, record["check"], chosen))
    result, code = result_line(results)
    print(json.dumps(result))
    return code


def result_line(results: list[tuple[str, dict, dict]]) -> tuple[dict, int]:
    """The closing JSON object and the exit code, from (workload, check,
    metrics) per run; metric names get a workload prefix when there are
    several."""
    prefix = len(results) > 1
    result = {
        "correct": all(c["rows_failed"] == 0 for _, c, _ in results),
        "attempted": sum(c["rows_checked"] for _, c, _ in results),
        "failed": sum(c["rows_failed"] for _, c, _ in results),
        "metrics": {(f"{name}.{key}" if prefix else key):
                    {"value": m["value"], "unit": m["unit"]}
                    for name, _, chosen in results for key, m in chosen.items()},
    }
    return result, 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
