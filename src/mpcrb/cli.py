"""Command-line front end.

Example:
    mpcrb fig2 --out out/ --trials 500 --svg
    mpcrb scenario --config myscene.json --out out/
    mpcrb selftest

Exit codes: 0 success, 1 validation error, 2 numerical degeneracy in a
single-point bound request.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .bounds import BoundsError, DegenerateBoundError
from .experiments import (ConfigError, run_beampattern, run_bounds, run_fig2,
                          run_fig3, run_fig4, run_fig5, run_montecarlo,
                          run_scenario, run_selftest)

_RUNNERS = {
    "bounds": run_bounds,
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "scenario": run_scenario,
    "montecarlo": run_montecarlo,
    "beampattern": run_beampattern,
}


def load_preset(name: str) -> dict:
    ref = resources.files("mpcrb").joinpath("presets", f"{name}.json")
    with ref.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_config(args, name: str) -> dict:
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"--config: no such file: {path}")
        try:
            config = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--config: invalid JSON: {exc}") from exc
    else:
        config = load_preset(name)
    if not isinstance(config, dict):
        raise ConfigError("--config: top level must be a JSON object")
    if vars(args).get("trials") is not None:
        config["trials"] = args.trials
    if args.seed is not None:
        config["seed"] = args.seed
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpcrb",
        description="DOA error bounds for MIMO radar under ground multipath")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config (default: packaged preset)")
        p.add_argument("--out", default="out", help="output directory")
        if name in ("fig2", "montecarlo"):   # the two that run trials
            p.add_argument("--trials", type=int, help="override trial count")
        p.add_argument("--seed", type=int, help="override base seed")
        p.add_argument("--svg", action="store_true", help="also write SVG plots")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility and ignored: "
                            "runs are single-threaded")
    sub.add_parser("selftest", help="run the analytic invariant checks")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "selftest":
        ok, lines = run_selftest()
        for line in lines:
            print(line)
        print("selftest:", "all checks passed" if ok else "FAILURES present")
        return 0 if ok else 1
    try:
        config = _load_config(args, args.command)
        result = _RUNNERS[args.command](config, args.out, svg=args.svg,
                                        workers=args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DegenerateBoundError as exc:
        print(f"degenerate bound: {exc}", file=sys.stderr)
        return 2
    except BoundsError as exc:
        print(f"bound evaluation failed: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    for key, path in result.items():
        print(f"{key}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
