"""Regenerate bench/reference: each workload's CSV at the default seed at
both sizes (``reference/timed``, ``reference/preset``), plus
the relative seed-to-seed spread of each Monte-Carlo RMSE cell of mc_snr,
which the checker uses as that cell's standard error.

Run from the repository root, only when the program's outputs are meant to
change, and say why in the change that commits the new files:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPREAD_SEEDS = 40


def main() -> int:
    from runenv import THREAD_ENV, git_commit

    os.environ.update(THREAD_ENV)           # as in every benchmark sample
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from check import MC_COLUMNS, REFERENCE
    from mpcrb import cli, experiments as ex
    from mpcrb import monte_carlo_rmse, multipath_free
    from workloads import (DEFAULT_SEED, SIZES, WORKLOADS, config_for_seed,
                           grid_values)

    work = HERE / "out" / "reference-work"
    try:
        for size in SIZES:
            (REFERENCE / size).mkdir(parents=True, exist_ok=True)
            for w in WORKLOADS.values():
                config = config_for_seed(w, cli.load_preset(w.preset),
                                         DEFAULT_SEED, size=size)
                getattr(ex, f"run_{w.preset}")(config, work, svg=False,
                                               workers=1)
                shutil.copyfile(work / w.csv, REFERENCE / size / w.csv)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # seed-to-seed spread of each RMSE cell at the preset's trial count
    w = WORKLOADS["mc_snr"]
    config = config_for_seed(w, cli.load_preset(w.preset), DEFAULT_SEED,
                             size="preset")
    geom = ex.geometry_from_config(config)
    est = ex.estimator_from_config(config)
    scenes = [ex.scene_from_config(config, geom, snr_db=s)
              for s in grid_values(config, "sweep.snr_db")]
    runs = {col: [] for col in MC_COLUMNS}
    for seed in range(1, SPREAD_SEEDS + 1):
        for col, sweep in zip(MC_COLUMNS,
                              (scenes, [multipath_free(sc) for sc in scenes])):
            runs[col].append(monte_carlo_rmse(sweep, est, config["trials"],
                                              seed).rmse_rad)
    rel_sd = {col: [statistics.stdev(cell) / statistics.fmean(cell)
                    for cell in zip(*values)]
              for col, values in runs.items()}

    meta = {
        "seed": DEFAULT_SEED,
        "commit": git_commit(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "mc_snr": {"rmse_rel_sd": rel_sd, "trials": config["trials"],
                   "seeds": SPREAD_SEEDS},
    }
    (REFERENCE / "meta.json").write_text(json.dumps(meta, indent=2) + "\n",
                                         encoding="utf-8")
    for col, values in rel_sd.items():
        print(col, " ".join(f"{v:.3g}" for v in values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
