"""Command-line front end.

Example:
    mpcrb fig2 --out out/ --trials 500 --svg
    mpcrb scenario --config myscene.json --out out/
    mpcrb selftest

A subcommand registers only the options that can change its run (``_TAKES``):
``--trials`` and ``--seed`` on fig2 and montecarlo, which draw random numbers,
and ``--svg`` on every recipe but bounds, which has no plot; the ignored ``workers``
keyword of fig2, fig5 and scenario has none.  The config, ``--config``'s file or a copy of the
packaged preset, goes with the overrides to its recipe, which checks keys and kind.

Exit codes: 0 success, 1 invalid input or unwritable output, 2 numerical
degeneracy in a single-point bound request or an unregistered option.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

from . import experiments
from .bounds import BoundsError, DegenerateBoundError
from .experiments import ConfigError

_OPTIONS = {   # add_argument keywords; trials and seed override the config
    "trials": {"type": int, "help": "override trial count"},
    "seed": {"type": int, "help": "override base seed"},
    "svg": {"action": "store_true", "help": "also write SVG plots"},
}
_TAKES = {   # the options each subcommand registers and main passes on
    "bounds": (),
    "fig2": ("trials", "seed", "svg"),
    "fig3": ("svg",),
    "fig4": ("svg",),
    "fig5": ("svg",),
    "scenario": ("svg",),
    "montecarlo": ("trials", "seed", "svg"),
    "beampattern": ("svg",),
}
_RUNNERS = {name: getattr(experiments, f"run_{name}") for name in _TAKES}


def load_preset(name: str) -> dict:
    return copy.deepcopy(experiments._PRESETS[name])


def _load_config(config_path, name: str, overrides: dict) -> dict:
    if config_path:
        try:
            config = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--config: invalid JSON: {exc}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"--config: {exc}") from exc
    else:
        config = load_preset(name)
    if not isinstance(config, dict):
        raise ConfigError("--config: top level must be a JSON object")
    config.update((key, value) for key, value in overrides.items()
                  if value is not None)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpcrb",
        description="DOA error bounds for MIMO radar under ground multipath")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _TAKES:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config (default: packaged preset)")
        p.add_argument("--out", default="out", help="output directory")
        for option in _TAKES[name]:
            p.add_argument(f"--{option}", **_OPTIONS[option])
    sub.add_parser("selftest", help="run the analytic invariant checks")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "selftest":
        ok, lines = experiments.run_selftest()
        print(*lines, sep="\n")
        print("selftest:", "all checks passed" if ok else "FAILURES present")
        return 0 if ok else 1
    opts = {key: getattr(args, key) for key in _TAKES[args.command]}
    overrides = {key: opts.pop(key) for key in ("trials", "seed") if key in opts}
    try:
        config = _load_config(args.config, args.command, overrides)
        result = _RUNNERS[args.command](config, args.out, **opts)
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
    except OSError as exc:   # the config is read above: writing an output failed
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    for key, path in result.items():
        print(f"{key}: {path}")
    return 0
