"""Correctness check of a workload's CSV output.

An operation is one output row.  A row fails when a cell lies outside its
column's tolerance, or is empty where the expected row has a value (or the
other way round).  At the default seed every row is compared with the stored
reference of the workload's size in ``bench/reference/<size>``.  At any other seed every row's swept inputs
are compared with the shifted grid, every other cell must be a finite number
or empty, and a seeded sample of rows is recomputed through the single-scene
public calls (``mcrb_theta_closed``, ``ground.range_point``, ``mml_doa``).

Tolerances:

* bound columns: 1e-9 relative (ROADMAP item 2's gate);
* columns that depend on the pseudo-true angle theta_A (``rmcrb_*`` and the
  ratios): an extra absolute term for |d theta_A| <= refine_tol.  Since
  rmcrb^2 = m + (theta - theta_A)^2 and |theta - theta_A| <= rmcrb, a shift of
  theta_A by refine_tol moves rmcrb (radians) by at most refine_tol, and a
  ratio rmcrb/rcrb by at most refine_tol / rcrb;
* Monte-Carlo RMSE columns: ``MC_SIGMAS`` standard errors of the difference.
  The relative standard error of each RMSE cell at the preset's trial count
  is its seed-to-seed spread, measured once over many base seeds and stored
  in ``reference/meta.json``; it scales as 1/sqrt(trials).  A measured spread
  rather than a formula, because at low SNR rare outliers near the search
  span's edge dominate the RMSE.  A recomputed row between two reference
  SNRs takes the larger of their spreads.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DEFAULT_SEED, Workload, grid_values, rows

REFERENCE = Path(__file__).resolve().parent / "reference"
BOUND_REL = 1e-9
GRID_REL = 1e-12
MC_SIGMAS = 5.0
MC_COLUMNS = ("rmse_mml_deg", "rmse_ml_deg")
SAMPLE_ROWS = {"ratio_map": 256, "mc_snr": 11, "range_sweep": 64}
MC_CHECK_ROWS = 2
MC_CHECK_TRIALS = 200
MC_CHECK_STREAM = 7_000_001     # keeps check noise apart from (seed, scene, trial)
MAX_PROBLEMS = 10


@dataclass(frozen=True)
class Rule:
    rel: float = BOUND_REL
    abs: float = 0.0
    per_rad_of: str | None = None   # abs is divided by this column's value in rad
    mc: bool = False
    exact: bool = False


@dataclass
class Verdict:
    checked: int = 0
    failed: int = 0
    diffs: dict = field(default_factory=dict)       # column -> max abs / rel
    problems: list = field(default_factory=list)

    def fail_all(self, n: int, why: str) -> "Verdict":
        self.checked += n
        self.failed += n
        self.problems.append(why)
        return self


def mc_rel_se(config: dict) -> dict[str, list[float]]:
    """Relative standard error per reference row of each Monte-Carlo column
    at the config's trial count."""
    meta = reference_meta()["mc_snr"]
    scale = math.sqrt(meta["trials"] / config["trials"])
    return {col: [scale * v for v in meta["rmse_rel_sd"][col]]
            for col in MC_COLUMNS}


def parse(cell: str):
    if cell == "":
        return None
    if cell in ("true", "false"):
        return cell
    try:
        return float(cell)
    except ValueError:
        return cell


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    return (table[0], table[1:]) if table else ([], [])


def reference(workload: Workload, size: str) -> tuple[list[str], list[list[str]]]:
    return read_csv(REFERENCE / size / workload.csv)


def reference_meta() -> dict:
    return json.loads((REFERENCE / "meta.json").read_text(encoding="utf-8"))


def column_rules(workload: Workload, config: dict) -> dict[str, Rule]:
    from mpcrb import crb_theta
    from mpcrb import experiments as ex

    tol = config["search"]["refine_tol_rad"]
    if workload.name == "ratio_map":
        geom = ex.geometry_from_config(config)
        theta = math.radians(config["scene"]["theta_deg"])
        # every scene of the map shares theta and SNR, hence one CRB
        rcrb = math.sqrt(crb_theta(ex.scene_from_config(
            config, geom, dphi=0.0, psi_rad=theta)))
        return {"delta_phi_rad": Rule(GRID_REL, 1e-15),
                "delta_theta_deg": Rule(GRID_REL, 1e-15),
                "rmcrb_over_rcrb": Rule(abs=tol / rcrb)}
    if workload.name == "mc_snr":
        return {"snr_db": Rule(GRID_REL, 1e-15), "rcrb_deg": Rule(),
                "rmcrb_deg": Rule(abs=math.degrees(tol)),
                "rmse_mml_deg": Rule(mc=True), "rmse_ml_deg": Rule(mc=True)}
    rules = {"r_d_m": Rule(GRID_REL), "psi_deg": Rule(),
             "smr_db": Rule(abs=1e-12), "delta_phi_rad": Rule(abs=1e-12),
             "same_cell": Rule(exact=True)}
    for name in config["geometries"]:
        rules[f"rcrb_deg_{name}"] = Rule()
        rules[f"rmcrb_deg_{name}"] = Rule(abs=math.degrees(tol))
        rules[f"ratio_{name}"] = Rule(abs=tol, per_rad_of=f"rcrb_deg_{name}")
    return rules


def _tolerance(rule: Rule, want: float, expected: dict, se) -> float:
    if rule.mc:
        return MC_SIGMAS * se
    extra = rule.abs
    if rule.per_rad_of is not None:
        extra /= math.radians(expected[rule.per_rad_of])
    return rule.rel * abs(want) + extra


def compare(header: list[str], data: list[list[str]], expected: list[dict],
            rules: dict[str, Rule], se: dict | None = None) -> Verdict:
    """Compare each output row with the expected row of the same index.

    ``expected[i]`` maps column -> value (None for an empty cell); a column
    absent from it is only required to be well formed.  ``se[col][i]`` is the
    standard error of the difference in a Monte-Carlo cell.
    """
    verdict = Verdict()
    for i, (cells, want_row) in enumerate(zip(data, expected)):
        verdict.checked += 1
        bad = []
        for col, cell in zip(header, cells):
            got = parse(cell)
            rule = rules[col]
            if col not in want_row:
                if not (got is None or rule.exact
                        or (isinstance(got, float) and math.isfinite(got))):
                    bad.append(f"{col}={cell!r} is not a finite number")
                continue
            want = want_row[col]
            if got is None or want is None or rule.exact:
                if got != want:
                    bad.append(f"{col}={cell!r}, expected {want!r}")
                continue
            if not isinstance(got, float) or not isinstance(want, float):
                bad.append(f"{col}={cell!r}, expected {want!r}")
                continue
            diff = abs(got - want)
            worst = verdict.diffs.setdefault(col, {"max_abs": 0.0, "max_rel": 0.0})
            worst["max_abs"] = max(worst["max_abs"], diff)
            if want != 0.0:
                worst["max_rel"] = max(worst["max_rel"], diff / abs(want))
            tol = _tolerance(rule, want, want_row, se[col][i] if rule.mc else None)
            if not diff <= tol:
                bad.append(f"{col}={got!r}, expected {want!r} +- {tol:.3g}")
        if bad:
            verdict.failed += 1
            if len(verdict.problems) < MAX_PROBLEMS:
                verdict.problems.append(f"row {i + 1}: " + "; ".join(bad))
    return verdict


def _reference_expected(workload: Workload, config: dict, ref_header, ref_data):
    expected = [{h: parse(v) for h, v in zip(ref_header, row)}
                for row in ref_data]
    se = None
    if workload.name == "mc_snr":
        se = {col: [math.sqrt(2.0) * rel * row[col]
                    for row, rel in zip(expected, rels)]
              for col, rels in mc_rel_se(config).items()}
    return expected, se


def _bound_cells(bb) -> tuple:
    if bb is None:
        return None, None
    return (math.degrees(math.sqrt(bb.crb_theta)),
            math.degrees(math.sqrt(bb.mcrb_theta)))


def _closed_or_none(scene, search):
    from mpcrb import DegenerateBoundError, mcrb_theta_closed
    try:
        return mcrb_theta_closed(scene, search=search)
    except DegenerateBoundError:
        return None


def _expected_ratio_map(config: dict, sample: list[int], seed: int):
    from mpcrb import experiments as ex

    dphis = grid_values(config, "grid.delta_phi_rad")
    dths = grid_values(config, "grid.delta_theta_deg")
    expected = [{"delta_phi_rad": dphi, "delta_theta_deg": dth}
                for dth in dths for dphi in dphis]
    geom = ex.geometry_from_config(config)
    search = ex.search_from_config(config)
    theta = math.radians(config["scene"]["theta_deg"])
    for i in sample:
        row = expected[i]
        scene = ex.scene_from_config(
            config, geom, dphi=row["delta_phi_rad"],
            psi_rad=theta - math.radians(row["delta_theta_deg"]))
        bb = _closed_or_none(scene, search)
        row["rmcrb_over_rcrb"] = (math.sqrt(bb.mcrb_theta / bb.crb_theta)
                                  if bb is not None else None)
    return expected, None


def _expected_mc_snr(config: dict, sample: list[int], seed: int):
    """Bounds for the sampled rows; RMSE for ``MC_CHECK_ROWS`` rows from
    ``MC_CHECK_TRIALS`` fresh trials of the single-statistic estimator, whose
    standard error is the reference spread scaled to that trial count."""
    from mpcrb import experiments as ex
    from mpcrb import mml_doa, multipath_free, synthesize_compressed

    geom = ex.geometry_from_config(config)
    est = ex.estimator_from_config(config)
    search = ex.search_from_config(config)
    snrs = grid_values(config, "sweep.snr_db")
    expected = [{"snr_db": s} for s in snrs]
    scenes = [ex.scene_from_config(config, geom, snr_db=s) for s in snrs]
    for i in sample:
        expected[i]["rcrb_deg"], expected[i]["rmcrb_deg"] = _bound_cells(
            _closed_or_none(scenes[i], search))
    se = {col: [0.0] * len(snrs) for col in MC_COLUMNS}
    rel_se = mc_rel_se(config)
    for i in random.Random(seed + 1).sample(range(len(snrs)), MC_CHECK_ROWS):
        for col, scene in zip(MC_COLUMNS, (scenes[i], multipath_free(scenes[i]))):
            errors = [mml_doa(synthesize_compressed(
                          scene, (seed, MC_CHECK_STREAM, i, t)), geom, est)
                      - scene.theta for t in range(MC_CHECK_TRIALS)]
            rmse = math.degrees(math.sqrt(math.fsum(e * e for e in errors)
                                          / len(errors)))
            # the grid was shifted up by less than one step from row i
            rel = max(rel_se[col][i:i + 2])
            expected[i][col] = rmse
            se[col][i] = rmse * rel * math.sqrt(
                1.0 + config["trials"] / MC_CHECK_TRIALS)
    return expected, se


def _expected_range_sweep(config: dict, sample: list[int], seed: int):
    from mpcrb import crb_theta, range_point
    from mpcrb import experiments as ex

    scn = ex.scenario_from_config(config)
    search = ex.search_from_config(config)
    geoms = {name: ex.geometry_from_config(config, f"geometries.{name}")
             for name in config["geometries"]}
    ranges = grid_values(config, "range_grid_m")
    expected = [{"r_d_m": r} for r in ranges]
    for i in sample:
        row = expected[i]
        for name, geom in geoms.items():
            p = range_point(scn, ranges[i], search=search, geom=geom)
            row.update(psi_deg=math.degrees(p.psi),
                       smr_db=p.smr_db if math.isfinite(p.smr_db) else None,
                       delta_phi_rad=p.delta_phi,
                       same_cell="true" if p.same_cell else "false")
            if p.bound is not None:
                rcrb, rmcrb = _bound_cells(p.bound)
                ratio = math.sqrt(p.bound.mcrb_theta / p.bound.crb_theta)
            else:
                rcrb = math.degrees(math.sqrt(crb_theta(p.scene)))
                rmcrb = ratio = None
            row[f"rcrb_deg_{name}"] = rcrb
            row[f"rmcrb_deg_{name}"] = rmcrb
            row[f"ratio_{name}"] = ratio
    return expected, None


_EXPECTED = {"ratio_map": _expected_ratio_map, "mc_snr": _expected_mc_snr,
             "range_sweep": _expected_range_sweep}


def recompute(workload: Workload, config: dict, seed: int):
    """Expected rows at a non-default seed: swept inputs for every row, all
    columns for a seeded sample recomputed through single-scene calls."""
    n = rows(workload, config)
    sample = sorted(random.Random(seed).sample(
        range(n), min(n, SAMPLE_ROWS[workload.name])))
    return _EXPECTED[workload.name](config, sample, seed)


def check_output(workload: Workload, config: dict, seed: int, size: str,
                 csv_path) -> Verdict:
    """Check one recipe output file; every expected row is one operation."""
    try:
        header, data = read_csv(csv_path)
    except OSError as exc:
        return Verdict().fail_all(rows(workload, config),
                                  f"cannot read {csv_path}: {exc}")
    return check_table(workload, config, seed, size, header, data)


def check_table(workload: Workload, config: dict, seed: int, size: str,
                header: list[str], data: list[list[str]]) -> Verdict:
    """Check one output table of ``workload`` run on ``config``, which is the
    preset at ``size`` for ``seed``."""
    n = rows(workload, config)
    ref_header, ref_data = reference(workload, size)
    if header != ref_header:
        return Verdict().fail_all(n, f"header {header} != {ref_header}")
    if len(data) != n or any(len(row) != len(header) for row in data):
        return Verdict().fail_all(n, f"{len(data)} rows or ragged rows; "
                                     f"expected {n} full rows")
    if seed == DEFAULT_SEED:
        expected, se = _reference_expected(workload, config, ref_header, ref_data)
    else:
        expected, se = recompute(workload, config, seed)
    return compare(header, data, expected, column_rules(workload, config), se)
