"""The benchmark's workloads: which recipe runs on which preset, at which
size, and how a seed turns the preset into the run's inputs.

Each workload has two sizes.  ``preset`` is the packaged preset itself, the
paper's full sweep; the traced run profiles it.  ``timed`` is the same sweep
thinned to under a tenth of a second (coarser grids or fewer Monte-Carlo
trials, the same extent and parameters), so that a timed run holds hundreds of
samples.

The default seed is the one every packaged preset carries, and with it the
config is the sized preset unchanged.  Any other seed becomes the config's
Monte-Carlo base seed and shifts every swept grid by a seeded fraction of one
step, so the point count, and with it the amount of work, stays the same.
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 20260810
SIZES = ("timed", "preset")


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str                 # packaged preset, run by experiments.run_<preset>
    grids: tuple[str, ...]      # config paths of the swept axes
    item: str                   # what one unit of items_per_s is
    csv: str                    # the checked output file
    timed: tuple                # (config path, value) pairs of the timed size


WORKLOADS = {
    w.name: w for w in (
        # 9 x 9 = 81 of the preset's 97 x 81 scenes
        Workload("ratio_map", "fig5",
                 ("grid.delta_phi_rad", "grid.delta_theta_deg"), "scene",
                 "fig5.csv", (("grid.delta_phi_rad.step", math.pi / 4),
                              ("grid.delta_theta_deg.step", 5.0))),
        # 11 SNRs x 60 of the preset's 2,000 trials
        Workload("mc_snr", "fig2", ("sweep.snr_db",), "trial", "fig2.csv",
                 (("trials", 60),)),
        # 29 of the preset's 393 ranges, on both arrays
        Workload("range_sweep", "scenario", ("range_grid_m",), "point",
                 "scenario.csv", (("range_grid_m.step", 3.5),)),
    )
}


def node(config: dict, path: str) -> dict:
    for part in path.split("."):
        config = config[part]
    return config


def _set(config: dict, path: str, value) -> None:
    *parents, leaf = path.split(".")
    for part in parents:
        config = config[part]
    config[leaf] = value


def grid_values(config: dict, path: str) -> list[float]:
    """The swept values of one axis, computed as the recipes compute them."""
    g = node(config, path)
    n = int(round((g["stop"] - g["start"]) / g["step"])) + 1
    return [g["start"] + i * g["step"] for i in range(n)]


def config_for_seed(workload: Workload, preset: dict, seed: int, *,
                    size: str) -> dict:
    """The run's config: the preset at ``size``, and at any seed but the
    default one with the seed as MC base seed and each grid shifted."""
    if size not in SIZES:
        raise ValueError(f"size {size!r} is not one of {SIZES}")
    config = copy.deepcopy(preset)
    if size == "timed":
        for path, value in workload.timed:
            _set(config, path, value)
    if seed == DEFAULT_SEED:
        return config
    rng = random.Random(seed)
    for path in workload.grids:
        g = node(config, path)
        shift = rng.random() * g["step"]
        g["start"] += shift
        g["stop"] += shift
    config["seed"] = seed
    return config


def rows(workload: Workload, config: dict) -> int:
    """Data rows of the checked CSV."""
    n = 1
    for path in workload.grids:
        n *= len(grid_values(config, path))
    return n


def items(workload: Workload, config: dict) -> int:
    """Units of work: scenes, Monte-Carlo trials or range x array points."""
    n = rows(workload, config)
    if workload.name == "mc_snr":
        return n * config["trials"] * 2     # MML and matched-ML sweeps
    if workload.name == "range_sweep":
        return n * len(config["geometries"])
    return n


def validate(workload: Workload, config: dict) -> None:
    """Parse the config with the program's own public validators; each raises
    ConfigError on a bad field."""
    from mpcrb import experiments as ex

    ex.search_from_config(config)
    if workload.name == "range_sweep":
        ex.scenario_from_config(config)
        for name in config["geometries"]:
            ex.geometry_from_config(config, f"geometries.{name}")
        return
    ex.geometry_from_config(config)
    if workload.name == "mc_snr":
        ex.estimator_from_config(config)
