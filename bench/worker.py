"""Benchmark samples of one workload, run by bench/run.py in a fresh process.

The process imports mpcrb, loads the workload's preset at ``--size`` and
validates it, and notes the monotonic time at which it is ready: that span,
from spawn to ready, is one set-up sample.  Then (unless ``--setup-only``) it
forks one child per sample until ``--seconds`` have passed (at least one
sample; another starts only if at least half of it should fall inside that
window).  Each child runs the recipe once with ``workers=1`` into
``--out/sample-<k>`` and exits, so every sample starts from the same
freshly-imported state, with no cache warmed by an earlier sample.  With
``--trace`` the process instead runs the recipe once itself, traced.

It prints one JSON line: the ready time, and per sample the wall and CPU time
of the recipe call and the peak RSS (with ``--trace`` also the per-function
span summary).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _peak_rss_mib() -> float:
    """This process's own peak resident set.  VmHWM rather than ru_maxrss:
    Linux carries the spawning parent's peak over into a child's
    ru_maxrss across exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0    # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def _measure(recipe, config, out) -> dict:
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    recipe(config, out, svg=False, workers=1)
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    return {"wall_s": wall,
            "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            "peak_rss_mb": _peak_rss_mib()}


def _forked_sample(recipe, config, out) -> dict:
    """Run one sample in a forked child and return its measurements."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:                                    # child
        os.close(read_fd)
        code = 0
        try:
            result = _measure(recipe, config, out)
        except BaseException as exc:                # report, never return
            result, code = {"error": f"{type(exc).__name__}: {exc}"}, 1
        with os.fdopen(write_fd, "w") as fh:
            fh.write(json.dumps(result))
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    result = json.loads(text) if text else {}
    if os.waitstatus_to_exitcode(status) != 0 or "error" in result:
        raise RuntimeError(f"sample {out} failed: "
                           f"{result.get('error', f'exit status {status}')}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from mpcrb import cli, experiments
    from workloads import WORKLOADS, config_for_seed, validate

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer().install()
    workload = WORKLOADS[args.workload]
    config = config_for_seed(workload, cli.load_preset(workload.preset),
                             args.seed, size=args.size)
    validate(workload, config)
    recipe = getattr(experiments, f"run_{workload.preset}")
    report = {"ready": time.monotonic(), "numpy": np.__version__,
              "python": sys.version.split()[0], "samples": []}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    if tracer is not None:
        sample = _measure(recipe, config, Path(args.out) / "traced")
        report["samples"].append(sample)
        report["functions"] = tracer.summary()
        report["counters"] = tracer.counters
        report["spans"] = len(tracer.fn)
        if args.spans:
            tracer.write_spans(args.spans)
        print(json.dumps(report))
        return 0

    begin = report["ready"]
    while True:
        started = time.monotonic()
        sample = _forked_sample(recipe, config,
                                Path(args.out) / f"sample-{len(report['samples'])}")
        report["samples"].append(sample)
        now = time.monotonic()
        if now + (now - started) / 2 - begin >= args.seconds:
            break
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
