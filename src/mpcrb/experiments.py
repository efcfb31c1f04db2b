"""Experiment recipes: figure sweeps, scenario sweep, self-test, manifests.

Each runner takes a JSON-style config dict, refuses what its packaged preset lacks
(``_walk``; the ``*_from_config`` parsers only read values), writes CSV (canonical
output, RFC 4180, '.' decimal) plus a manifest with the config hash, seed and
versions, and optionally a standalone SVG.  Angles are degrees in all human-facing
columns and radians internally; degenerate bound points are empty cells.  All work
runs in one thread: fig2, fig5 and scenario ignore their ``workers`` keyword, which
the benchmark passes, and the command line has no ``--workers``.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import io
import json
import math
import platform
import random
import sys
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, svgplot
from .arrays import (ArrayGeometry, _direct_indirect, _vectors, beampattern,
                     standard_virtual_ula, virtual_hpbw)
from .bounds import (SearchConfig, _bounds, _closed, _crb, _curvature, _default_step,
                     _projection_derivs, _sandwich, _scene_columns, mcrb_sandwich,
                     mcrb_theta_closed, mcrb_theta_closed_columns)
from .estimation import MML_SEARCH, _rmse
from .ground import (GroundScenario, _reflection, indirect_geometry,
                     range_columns, reflection_coefficient)
from .scene import (MultipathScene, multipath_free, scene_from_ratios,
                    synthesize_compressed)


class ConfigError(Exception):
    """Invalid experiment configuration; message carries the field path."""


# Settings that were removed, by key, with what holds in their place.  _walk refuses
# one in any object of a config: ignored, e_p != 1 would give wrong bounds.
_REMOVED = {
    "e_p": "the pulse energy E_p is 1; it scales the SNR, so set the SNR instead",
    "coarse_step_deg": "the coarse search step is the virtual-array beamwidth / 20",
    "delta_phis_rad": "fig4's phase differences are fixed at 0 and 2pi/3",
    "estimator": "the estimator searches search.span_deg at 1e-6 rad",
}
# Each recipe's packaged preset, read once, at import: also its schema (see _walk).
_PRESETS = {ref.name.removesuffix(".json"): json.loads(ref.read_text(encoding="utf-8"))
            for ref in resources.files(__package__).joinpath("presets").iterdir()}
_GEOMETRY = dict.fromkeys(("m_t", "m_r", "tx_positions", "rx_positions"))
_REQUIRED = object()


def _walk(node, schema, path: str = ""):
    """``node``, refused by dotted path where it holds a key its preset ``schema`` lacks
    (a _REMOVED one by its reason), another kind, a non-object for an object, a
    non-str key or a non-JSON value.  A geometry takes _GEOMETRY, geometries any name."""
    if isinstance(schema, dict) and not isinstance(node, dict):
        raise ConfigError(f"{path or 'the config'}: expected an object")
    if not isinstance(node, (dict, list, tuple, str, int, float, type(None))):
        raise ConfigError(f"{path}: expected a JSON value, got {type(node).__name__}")
    for key, val in (node.items() if isinstance(node, dict) else
                     enumerate(node) if isinstance(node, (list, tuple)) else ()):
        at = f"{path}.{key}" if path else key
        if isinstance(node, dict) and not isinstance(key, str):
            raise ConfigError(f"{at}: expected a string key, got {type(key).__name__}")
        sub = (_GEOMETRY if path == "geometries" or at == "geometry" and key in schema
               else schema.get(key, _REQUIRED) if isinstance(schema, dict) else None)
        if sub is _REQUIRED:
            raise ConfigError(f"{at}: no longer a setting: {_REMOVED[key]}"
                              if key in _REMOVED else f"{at}: unknown key")
        if at == "kind" and val != sub:
            raise ConfigError(f"kind: {val!r} is not the subcommand {sub!r}")
        _walk(val, sub, at)
    return node


def _get(cfg: dict, path: str, default=_REQUIRED):
    """The value at the dotted ``path``."""
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is _REQUIRED:
                raise ConfigError(f"{path}: required field is missing")
            return default
        node = node[part]
    return node


def _get_num(cfg: dict, path: str, default=_REQUIRED, positive=False) -> float:
    val = _get(cfg, path, default)
    # the bound on abs(val) also refuses nan and integers beyond the float range
    if (not isinstance(val, (int, float)) or isinstance(val, bool)
            or not abs(val) <= sys.float_info.max):
        raise ConfigError(f"{path}: expected a finite number, got {val!r}")
    if positive and val <= 0:
        raise ConfigError(f"{path}: must be positive, got {val!r}")
    return float(val)


def _get_int(cfg: dict, path: str, default=_REQUIRED, minimum=None,
             maximum=None) -> int:
    val = _get(cfg, path, default)
    if not isinstance(val, int) or isinstance(val, bool):
        raise ConfigError(f"{path}: expected an integer, got {val!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {val}")
    if maximum is not None and val > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {val}")
    return val


# Sweep size caps.  The largest packaged axis is the 1,781-point beampattern
# grid and the largest sweep the 97 x 81 fig5 map; a bound sweep is evaluated
# in row blocks of bounded memory (bounds._rows).
MAX_AXIS_POINTS = 4096
MAX_SWEEP_POINTS = 65536
# Points of the coarse search grid over pi rad (1,703 on the 3x16 array): a cap
# on the virtual aperture, as the grid's step is its beamwidth / 20.
MAX_COARSE_POINTS = 65536
# fig4's constructive and destructive phase differences, rad
_FIG4_PHASES = (0.0, 2.0 * math.pi / 3.0)
# Monte-Carlo trials per sweep point; the largest preset runs 2,000.
_MAX_TRIALS = 100_000
# Pulses per scene: the bounds take K as a float, exact for integers up to 2^53.
MAX_PULSES = 2 ** 53
# Elements per array, four times the largest preset array (16).
MAX_ELEMENTS = 64


def _angle(cfg: dict, path: str, deg: float | None = None) -> float:
    """The angle ``deg``, by default the one at ``path`` (deg, default 0), in
    radians, inside (-90, 90) deg."""
    deg = _get_num(cfg, path, default=0.0) if deg is None else deg
    if abs(deg) >= 90.0:
        raise ConfigError(f"{path}: must lie inside (-90, 90), got {deg!r}")
    return math.radians(deg)


def _axis(cfg: dict, path: str) -> tuple[float, float, int]:
    """(start, step, point count) of a sweep axis, counted without building it: its
    last point is the last whole step from start up to stop, within 1e-9 of a step."""
    start = _get_num(cfg, f"{path}.start")
    stop = _get_num(cfg, f"{path}.stop")
    step = _get_num(cfg, f"{path}.step", positive=True)
    if stop < start:
        raise ConfigError(f"{path}: stop must be >= start")
    cells = (stop - start) / step
    n = math.floor(cells + 1e-9) + 1 if cells < MAX_AXIS_POINTS else math.inf
    if n > MAX_AXIS_POINTS:
        raise ConfigError(f"{path}: {cells + 1:.4g} points exceed the cap of "
                          f"{MAX_AXIS_POINTS} per axis")
    return start, step, n


def _grids(cfg: dict, *paths: str) -> list[list[float]]:
    """The sweep axes at ``paths``; their point counts and product are capped."""
    axes = [_axis(cfg, path) for path in paths]
    total = math.prod(n for _, _, n in axes)
    if total > MAX_SWEEP_POINTS:
        raise ConfigError(f"{' x '.join(paths)}: {total} points exceed the "
                          f"cap of {MAX_SWEEP_POINTS} per sweep")
    return [[start + i * step for i in range(n)] for start, step, n in axes]


def geometry_from_config(cfg: dict, path: str = "geometry") -> ArrayGeometry:
    """The array at ``path``, from its m_t and m_r or its tx_positions and
    rx_positions: element counts and virtual aperture capped."""
    node = _get(cfg, path)
    if "m_t" in node or "m_r" in node:
        if "tx_positions" in node or "rx_positions" in node:
            raise ConfigError(f"{path}: give m_t/m_r or explicit positions, not both")
        m_t = _get_int(cfg, f"{path}.m_t", minimum=1, maximum=MAX_ELEMENTS)
        m_r = _get_int(cfg, f"{path}.m_r", minimum=1, maximum=MAX_ELEMENTS)
        geom = standard_virtual_ula(m_t, m_r)
    elif "tx_positions" in node or "rx_positions" in node:
        pos = {key: _get(cfg, f"{path}.{key}") for key in ("tx_positions", "rx_positions")}
        for key, val in pos.items():
            if isinstance(val, list) and len(val) > MAX_ELEMENTS:
                raise ConfigError(f"{path}.{key}: {len(val)} elements exceed the "
                                  f"cap of {MAX_ELEMENTS} per array")
        try:
            geom = ArrayGeometry(**pos)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    else:
        raise ConfigError(f"{path}: give m_t/m_r or explicit positions")
    try:
        cells = math.pi / _default_step(geom)
    except ValueError:   # one virtual position: no beamwidth, no coarse grid
        return geom
    if not cells <= MAX_COARSE_POINTS - 1:
        raise ConfigError(f"{path}: virtual aperture too wide: the coarse search "
                          f"grid would take {cells + 1:.4g} points over pi rad, "
                          f"above the cap of {MAX_COARSE_POINTS}")
    return geom


def search_from_config(cfg: dict) -> SearchConfig:
    """theta_A's search: the MML's span at search.refine_tol_rad."""
    span = estimator_from_config(cfg).span
    tol = _get_num(cfg, "search.refine_tol_rad", default=SearchConfig.refine_tol,
                   positive=True)
    try:
        return SearchConfig(span, tol)
    except ValueError as exc:
        raise ConfigError(f"search.refine_tol_rad: {exc}") from exc


def estimator_from_config(cfg: dict) -> SearchConfig:
    """The MML's search: search.span_deg, which bounds theta_A too, at ``MML_SEARCH``'s
    tolerance."""
    span_deg = _get_num(cfg, "search.span_deg", default=60.0, positive=True)
    try:
        return SearchConfig((-math.radians(span_deg), math.radians(span_deg)),
                            MML_SEARCH.refine_tol)
    except ValueError as exc:
        raise ConfigError(f"search.span_deg: {exc}") from exc


def _search_and_target(cfg: dict, path="scene.theta_deg", parse=search_from_config):
    """The search ``parse`` reads and the target angle at ``path`` (rad), which its
    span must hold: the MCRB is taken about the maximizer over that span."""
    search = parse(cfg)
    theta, (lo, hi) = _angle(cfg, path), search.span
    if not lo <= theta <= hi:
        raise ConfigError(f"{path}: must lie inside +-search.span_deg = "
                          f"+-{math.degrees(hi):g}, got {math.degrees(theta):g}")
    return search, theta


def _pow10(x: float, path: str, db: float, zero_ok: bool = True) -> float:
    """10^x from the ``db`` value at ``path``; ConfigError where it overflows,
    or where it underflows to 0 unless ``zero_ok``."""
    try:
        val = 10.0 ** x
    except OverflowError:
        raise ConfigError(f"{path}: {db!r} dB overflows 10^{x:.6g}") from None
    if val == 0.0 and not zero_ok:
        raise ConfigError(f"{path}: {db!r} dB underflows 10^{x:.6g} to 0")
    return val


def _scene_grid(cfg: dict, **axes) -> tuple:
    """mcrb_theta_closed_columns' scene arguments (theta, psi, alpha_d, alpha_i, K,
    sigma_w2) from the scene block over the row-major grid of the ``axes`` given
    (snr_db, smr_db, dphi, psi_rad: a list sweeps, outer first; a number does not;
    None reads the scene block).  Each SNR and SMR is checked by _pow10 under its own
    key, sweep.<name> where given, and each value takes scene_from_ratios' expression."""
    theta = _angle(cfg, "scene.theta_deg")
    if axes.get("psi_rad") is None:
        axes["psi_rad"] = _angle(cfg, "scene.psi_deg", _get_num(cfg, "scene.psi_deg"))
    keys = {name: "scene." + name if axes.get(name) is None else "sweep." + name
            for name in ("snr_db", "smr_db")}
    axes.update({name: _get_num(cfg, key) for name, key in keys.items()
                 if axes.get(name) is None})
    if axes.get("dphi") is None:
        axes["dphi"] = _get_num(cfg, "scene.delta_phi_rad", default=0.0)
    k = _get_int(cfg, "scene.k_pulses", default=1, minimum=1, maximum=MAX_PULSES)
    swept = [name for name, vals in axes.items() if np.ndim(vals)]

    def grid(name, expr):   # expr of each value of ``name``, on its axis of the grid
        return np.reshape([expr(v) for v in np.ravel(axes[name]).tolist()],
                          [-1 if n == name else 1 for n in swept])

    sigma_w2 = grid("snr_db", lambda snr: _pow10(-snr / 10.0, keys["snr_db"], snr,
                                                 zero_ok=False))
    alpha_i = (grid("smr_db", lambda smr: _pow10(-smr / 20.0, keys["smr_db"], smr))
               * grid("dphi", lambda dphi: cmath.exp(-1j * dphi)))   # 0: no multipath
    return theta, grid("psi_rad", float), 1.0 + 0.0j, alpha_i, k, sigma_w2


def scene_from_config(cfg: dict, geom: ArrayGeometry, snr_db: float | None = None,
                      dphi: float | None = None,
                      psi_rad: float | None = None) -> MultipathScene:
    """The one row of :func:`_scene_grid` at the values given, as a scene."""
    try:
        return MultipathScene(geom, *(np.ravel(c).item() for c in _scene_grid(
            cfg, snr_db=snr_db, dphi=dphi, psi_rad=psi_rad)))
    except ValueError as exc:
        raise ConfigError(f"scene: {exc}") from exc


# ---------------------------------------------------------------------------
# output plumbing

def _cell(value) -> str:
    if type(value) is not float:
        if value is None or isinstance(value, bool):
            return "" if value is None else "true" if value else "false"
        value = float(value)
    return repr(value) if value == value else ""


def _root_columns(cols) -> tuple:
    """RCRB, RMCRB (deg) and their ratio from bound columns, None where not valid."""
    with np.errstate(invalid="ignore"):
        cells = (np.degrees(np.sqrt(cols.crb)), np.degrees(np.sqrt(cols.mcrb)),
                 np.sqrt(cols.mcrb / cols.crb))
    return tuple([v if ok else None for v, ok in zip(c.tolist(), cols.valid.tolist())]
                 for c in cells)


def _bound_counts(valid) -> dict:
    """Manifest counts of closed-form evaluations and degenerate ones."""
    return {"bound_points": len(valid),
            "degenerate_points": len(valid) - int(np.count_nonzero(valid))}


def _psi(theta: float, delta_theta_deg: float, path: str) -> float:
    """Indirect-path angle theta - delta_theta, kept inside (-90, 90) deg."""
    psi = theta - math.radians(delta_theta_deg)
    if abs(psi) >= math.pi / 2:
        raise ConfigError(f"{path}: psi leaves (-90, 90) deg")
    return psi


def _beampattern(cfg: dict, path: str, geom: ArrayGeometry, steer: float) -> dict:
    """Tx and rx gains (dB) at ``steer`` over the grid at ``path``, inside +-90 deg."""
    grid_deg = _grids(cfg, path)[0]
    _angle(cfg, path, max(grid_deg, key=abs))
    tx_db, rx_db = beampattern(geom, steer, np.radians(grid_deg))
    return {"phi_deg": grid_deg, "tx_gain_db": tx_db, "rx_gain_db": rx_db}


def _lines(table: dict, series: dict, xlabel: str, ylabel: str, title: str,
           ylog: bool = True):
    """SVG builder plotting each {label: column name} of ``series`` against the
    table's first column."""
    xs = next(iter(table.values()))
    return partial(svgplot.line_plot, [(label, xs, table[col])
                                       for label, col in series.items()],
                   xlabel, ylabel, title, ylog=ylog)


def _write_outputs(name: str, config: dict, out_dir, svg: bool, table: dict,
                   plot=None, extra: dict | None = None,
                   beampattern: dict | None = None) -> dict:
    """Write ``<name>.csv`` from ``table``, ``<name>_beampattern.csv`` from
    ``beampattern`` when given, ``<name>.svg`` from ``plot()`` when ``svg`` is
    set, and the manifest over all of them, each built before any is written.
    A table maps each CSV header to its column, in order.  Returns the paths by key."""
    tables = {"csv": (f"{name}.csv", table)}
    if beampattern is not None:
        tables["beampattern_csv"] = (f"{name}_beampattern.csv", beampattern)
    files = {}
    for key, (file_name, columns) in tables.items():
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(columns)
        writer.writerows([_cell(v) for v in row] for row in zip(*columns.values()))
        files[key] = (file_name, buf.getvalue().encode("utf-8"))
    if svg:
        files["svg"] = (f"{name}.svg", plot().encode("utf-8"))
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    manifest = {"experiment": name, "config": config,
                "config_sha256": hashlib.sha256(blob).hexdigest(),
                "seed": config.get("seed"),
                "outputs": {file_name: hashlib.sha256(data).hexdigest()
                            for file_name, data in files.values()},
                "versions": {"mpcrb": __version__, "numpy": np.__version__,
                             "python": platform.python_version()},
                **(extra or {})}
    files["manifest"] = (f"{name}_manifest.json", (
        json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for file_name, data in files.values():
        (out / file_name).write_bytes(data)
    return {key: out / file_name for key, (file_name, _) in files.items()}


# ---------------------------------------------------------------------------
# figure recipes

def _mc_sweep(config: dict, name: str):
    """The Monte-Carlo SNR sweep's estimator, trials, seed, SNR axis, geometry and
    scene columns, one row per SNR, in that order (trials is checked before any
    scene): the one set of columns that fig2's bound and both its estimators read."""
    geom = geometry_from_config(_walk(config, _PRESETS[name]))
    est = _search_and_target(config, parse=estimator_from_config)[0]
    trials = _get_int(config, "trials", minimum=1, maximum=_MAX_TRIALS)
    seed = _get_int(config, "seed", minimum=0)
    snrs = _grids(config, "sweep.snr_db")[0]
    return est, trials, seed, snrs, geom, _scene_grid(config, snr_db=snrs)


def run_fig2(config: dict, out_dir, svg: bool = False, workers: int = 1) -> dict:
    """SNR sweep: root bounds plus Monte-Carlo RMSE of the MML and matched ML."""
    est, trials, seed, snrs, geom, scenes = _mc_sweep(config, "fig2")
    cols = mcrb_theta_closed_columns(geom, *scenes, search=search_from_config(config))
    mml = _rmse(est, trials, seed, geom, *scenes)
    ml = _rmse(est, trials, seed + 1, geom, *scenes[:3], 0.0, *scenes[4:])   # alpha_i 0
    rcrb, rmcrb, _ = _root_columns(cols)
    table = {"snr_db": snrs, "rcrb_deg": rcrb, "rmcrb_deg": rmcrb,
             "rmse_mml_deg": np.degrees(mml.rmse_rad).tolist(),
             "rmse_ml_deg": np.degrees(ml.rmse_rad).tolist()}
    plot = _lines(table, {"RCRB": "rcrb_deg", "RMCRB": "rmcrb_deg",
                          "RMSE MML": "rmse_mml_deg", "RMSE ML": "rmse_ml_deg"},
                  "SNR [dB]", "root bound / RMSE [deg]", "DOA RMSE vs SNR")
    return _write_outputs("fig2", config, out_dir, svg, table, plot,
                          _bound_counts(cols.valid))


def run_fig3(config: dict, out_dir, svg: bool = False) -> dict:
    """DOA-separation sweep of the bounds, plus the array beampatterns."""
    geom = geometry_from_config(_walk(config, _PRESETS["fig3"]))
    search, theta = _search_and_target(config)
    dthetas = _grids(config, "sweep.delta_theta_deg")[0]
    bp = _beampattern(config, "beampattern_grid_deg", geom, theta)
    cols = mcrb_theta_closed_columns(geom, *_scene_grid(config, psi_rad=[
        _psi(theta, dth, "sweep.delta_theta_deg") for dth in dthetas]), search=search)
    rcrb, rmcrb, _ = _root_columns(cols)
    table = {"delta_theta_deg": dthetas, "rcrb_deg": rcrb, "rmcrb_deg": rmcrb}
    plot = _lines(table, {"RCRB": "rcrb_deg", "RMCRB": "rmcrb_deg"},
                  "delta theta [deg]", "root bound [deg]",
                  "Bounds vs DOA separation")
    return _write_outputs("fig3", config, out_dir, svg, table, plot,
                          _bound_counts(cols.valid), bp)


def run_fig4(config: dict, out_dir, svg: bool = False) -> dict:
    """SMR sweep at a constructive and a destructive phase difference."""
    geom = geometry_from_config(_walk(config, _PRESETS["fig4"]))
    search, theta = _search_and_target(config)
    psi = _psi(theta, _get_num(config, "scene.delta_theta_deg"), "scene.delta_theta_deg")
    smrs = _grids(config, "sweep.smr_db")[0]
    cols = mcrb_theta_closed_columns(geom, *_scene_grid(
        config, psi_rad=psi, smr_db=smrs, dphi=_FIG4_PHASES), search=search)
    rmcrb = _root_columns(cols)[1]   # row-major: SMR, then phase
    rcrb = math.degrees(math.sqrt(cols.crb[0]))   # depends on neither SMR nor phase
    table = {"smr_db": smrs, "rmcrb_dphi_0_deg": rmcrb[0::2],
             "rmcrb_dphi_2pi3_deg": rmcrb[1::2], "rcrb_deg": [rcrb] * len(smrs)}
    plot = _lines(table, {"RMCRB constructive": "rmcrb_dphi_0_deg",
                          "RMCRB destructive": "rmcrb_dphi_2pi3_deg",
                          "RCRB": "rcrb_deg"},
                  "SMR [dB]", "root bound [deg]", "Bounds vs SMR")
    return _write_outputs("fig4", config, out_dir, svg, table, plot,
                          _bound_counts(cols.valid))


def run_fig5(config: dict, out_dir, svg: bool = False, workers: int = 1) -> dict:
    """Ratio RMCRB/RCRB on a (delta_phi x delta_theta) grid, long CSV format."""
    geom = geometry_from_config(_walk(config, _PRESETS["fig5"]))
    search, theta = _search_and_target(config)
    dphis, dthetas = _grids(config, "grid.delta_phi_rad", "grid.delta_theta_deg")
    psis = [_psi(theta, dth, "grid.delta_theta_deg") for dth in dthetas]
    cols = mcrb_theta_closed_columns(geom, *_scene_grid(config, psi_rad=psis,
                                                        dphi=dphis), search=search)
    table = {"delta_phi_rad": dphis * len(dthetas),
             "delta_theta_deg": np.repeat(dthetas, len(dphis)).tolist(),
             "rmcrb_over_rcrb": _root_columns(cols)[2]}
    plot = partial(svgplot.heatmap, dphis, dthetas, table["rmcrb_over_rcrb"],
                   "delta phi [rad]", "delta theta [deg]", "RMCRB / RCRB (contour at 1)")
    return _write_outputs("fig5", config, out_dir, svg, table, plot,
                          _bound_counts(cols.valid))


def scenario_from_config(config: dict) -> GroundScenario:
    grid = _grids(config, "range_grid_m")[0]
    geom_names = _get(config, "geometries")
    if not isinstance(geom_names, dict) or not geom_names:
        raise ConfigError("geometries: expected a non-empty object")
    if any("." in name for name in geom_names):
        raise ConfigError("geometries: a geometry name must not contain '.'")
    theta = _angle(config, "theta_deg")
    try:
        scn = GroundScenario(
            h_r=_get_num(config, "h_r_m", positive=True),
            wavelength=_get_num(config, "wavelength_m", positive=True),
            eps_r=_get_num(config, "eps_r"),
            gamma_cond=_get_num(config, "gamma_cond_s_per_m"),
            range_grid=np.array(grid),
            theta=theta,
            v=_get_num(config, "v_mps"),
            r_res=_get_num(config, "r_res_m", positive=True),
            v_res=_get_num(config, "v_res_mps", positive=True),
            k_pulses=_get_int(config, "k_pulses", minimum=1, maximum=MAX_PULSES),
            snr_ref_db=_get_num(config, "snr_ref_db"),
            r_ref=_get_num(config, "r_ref_m", positive=True),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    with np.errstate(over="ignore"):   # h_r enters every image path as (... + 2 h_r)^2
        r_i = indirect_geometry(grid[0], scn.theta, scn.h_r)[0]
    if not math.isfinite(r_i):
        raise ConfigError(f"h_r_m: image path length overflows at h_r_m = {scn.h_r!r}")
    ratio = scn.r_ref / grid[0]   # the nearest direct path has the largest amplitude
    if not math.isfinite(ratio * ratio):
        raise ConfigError(f"r_ref_m: path amplitude (r_ref_m / r_d)^2 "
                          f"overflows at r_d = {grid[0]!r}")
    snr_ref = scn.snr_ref_db   # range_columns' noise power 1 / 10^(snr_ref_db / 10)
    if 1.0 / _pow10(snr_ref / 10.0, "snr_ref_db", snr_ref, zero_ok=False) == math.inf:
        raise ConfigError(f"snr_ref_db: noise power overflows at {snr_ref!r} dB")
    return scn


def run_scenario(config: dict, out_dir, svg: bool = False,
                 workers: int = 1) -> dict:
    """Automotive range sweep for each configured array geometry, on columns: one
    range_columns call, then per geometry one closed-form call over every range with
    alpha_i 0 out of cell (no search there, M = CRB); MCRB cells and counts: in cell."""
    scn = scenario_from_config(_walk(config, _PRESETS["scenario"]))
    search = _search_and_target(config, "theta_deg")[0]
    geoms = {name: geometry_from_config(config, f"geometries.{name}")
             for name in config["geometries"]}
    phys = range_columns(scn)
    alpha_i = np.where(phys.same_cell, phys.alpha_i, 0.0)
    table = {"r_d_m": phys.r_d.tolist(), "psi_deg": np.degrees(phys.psi).tolist(),
             "smr_db": [v if math.isfinite(v) else None for v in phys.smr_db.tolist()],
             "delta_phi_rad": phys.delta_phi.tolist(),
             "same_cell": phys.same_cell.tolist()}
    series, valid = {}, []
    for name, geom in geoms.items():
        cols = mcrb_theta_closed_columns(geom, scn.theta, phys.psi, phys.alpha_d, alpha_i,
                                         scn.k_pulses, phys.sigma_w2, search=search)
        table[f"rcrb_deg_{name}"] = np.degrees(np.sqrt(cols.crb)).tolist()
        table[f"rmcrb_deg_{name}"], table[f"ratio_{name}"] = _root_columns(
            cols._replace(valid=cols.valid & phys.same_cell))[1:]
        series[f"RMCRB {name}"] = f"rmcrb_deg_{name}"
        series[f"RCRB {name}"] = f"rcrb_deg_{name}"
        valid.append(cols.valid[phys.same_cell])
    plot = _lines(table, series, "range [m]", "root bound [deg]",
                  "Ground multipath vs range")
    counts = _bound_counts(np.concatenate(valid))
    counts["out_of_cell_points"] = int(np.count_nonzero(~phys.same_cell)) * len(geoms)
    return _write_outputs("scenario", config, out_dir, svg, table, plot, counts)


def run_montecarlo(config: dict, out_dir, svg: bool = False) -> dict:
    """Plain Monte-Carlo RMSE sweep of the misspecified estimator over SNR."""
    est, trials, seed, snrs, geom, scenes = _mc_sweep(config, "montecarlo")
    curve = _rmse(est, trials, seed, geom, *scenes)
    table = {"snr_db": snrs,
             "rmse_mml_deg": [math.degrees(r) for r in curve.rmse_rad],
             "bias_mml_deg": [math.degrees(b) for b in curve.bias_rad]}
    plot = _lines(table, {"RMSE MML": "rmse_mml_deg"}, "SNR [dB]", "RMSE [deg]",
                  "Monte-Carlo RMSE")
    return _write_outputs("montecarlo", config, out_dir, svg, table, plot)


def run_beampattern(config: dict, out_dir, svg: bool = False) -> dict:
    geom = geometry_from_config(_walk(config, _PRESETS["beampattern"]))
    steer = _angle(config, "steer_deg")
    table = _beampattern(config, "grid_deg", geom, steer)
    plot = _lines(table, {"tx": "tx_gain_db", "rx": "rx_gain_db"}, "phi [deg]",
                  "gain [dB]", "Beampatterns", ylog=False)
    return _write_outputs("beampattern", config, out_dir, svg, table, plot)


def run_bounds(config: dict, out_dir) -> dict:
    """Single-scene bound breakdown, without a plot.  Degenerate scenes raise."""
    geom = geometry_from_config(_walk(config, _PRESETS["bounds"]))
    search = _search_and_target(config)[0]
    scene = scene_from_config(config, geom)
    bb = mcrb_theta_closed(scene, search=search)
    return _write_outputs("bounds", config, out_dir, False, {
        "crb_rad2": [bb.crb_theta], "m_rad2": [bb.m_theta_theta],
        "b_rad2": [bb.b_theta_theta], "mcrb_rad2": [bb.mcrb_theta],
        "theta_a_deg": [math.degrees(bb.theta_a)],
        "rcrb_deg": [math.degrees(math.sqrt(bb.crb_theta))],
        "rmcrb_deg": [math.degrees(math.sqrt(bb.mcrb_theta))]})


# ---------------------------------------------------------------------------
# self-test

def _check(lines: list[str], name: str, ok: bool, detail: str) -> bool:
    lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def run_selftest():
    """Analytic invariants, limits and oracle comparisons.

    Returns ``(ok, lines)``: a named PASS/FAIL line per check, INFO lines aside.
    """
    rng = random.Random(20260810)
    lines: list[str] = []
    ok = True

    geoms = [standard_virtual_ula(3, 4)]
    for _ in range(24):
        m_t, m_r = rng.randint(1, 4), rng.randint(2, 8)
        geoms.append(ArrayGeometry(
            tx_positions=sorted(rng.uniform(-4, 4) for _ in range(m_t)),
            rx_positions=sorted(rng.uniform(-3, 3) for _ in range(m_r))))

    worst_norm = worst_i3 = worst_i4 = 0.0
    for geom in geoms:   # the c_k of Y = A(theta): 1, 0 and -E_Adot
        theta = np.array([rng.uniform(-1.2, 1.2)])
        s_t = _vectors(geom, theta)
        (c0,), (c1,), (c2,) = _projection_derivs(geom, _direct_indirect(s_t, s_t)[0],
                                                 theta)
        (e_dot,) = _crb(geom, theta, 1.0, 1, 1.0)[1]
        worst_norm, worst_i3 = max(worst_norm, abs(c0 - 1.0)), max(worst_i3, abs(c1))
        if e_dot > 0:
            worst_i4 = max(worst_i4, abs(c2 + e_dot) / e_dot)
    ok &= _check(lines, "steering-normalization", worst_norm < 1e-12,
                 f"max |tr(A^H A) - 1| = {worst_norm:.2e}")
    ok &= _check(lines, "derivative-trace-identity-i3", worst_i3 < 1e-12,
                 f"max |tr(dA^H A)| = {worst_i3:.2e}")
    ok &= _check(lines, "steering-curvature-identity-i4", worst_i4 < 1e-10,
                 f"max rel |tr(ddA^H A)+E_Adot| = {worst_i4:.2e}")

    geom = standard_virtual_ula(3, 4)
    coh = scene_from_ratios(geom, 0.0, 0.0, 10.0, 0.0, 0.0)
    tight = SearchConfig(refine_tol=1e-9)
    bb = mcrb_theta_closed(coh, search=tight)
    rel = abs(bb.mcrb_theta - bb.crb_theta / 9.0) / (bb.crb_theta / 9.0)
    ok &= _check(lines, "coherent-ninth-limit", rel < 1e-10,
                 f"closed-form rel err = {rel:.2e}")
    _, sb = mcrb_sandwich(coh, search=tight)
    rel = abs(sb.m_theta_theta - sb.crb_theta / 9.0) / (sb.crb_theta / 9.0)
    ok &= _check(lines, "coherent-ninth-limit-sandwich", rel < 1e-10,
                 f"sandwich rel err = {rel:.2e}")

    fb = mcrb_theta_closed(multipath_free(
        scene_from_ratios(geom, 0.0, np.deg2rad(12.0), 10.0, 0.0, 0.0)))
    ok &= _check(lines, "multipath-free-limit",
                 fb.mcrb_theta == fb.crb_theta and fb.theta_a == 0.0,
                 "MCRB == CRB and theta_A == theta for alpha_i = 0")

    def draw(n, smr_db, dth, dphi):
        """n scenes at theta = 0; SMR, separation and phase drawn in that order."""
        draws = [(rng.uniform(*smr_db), rng.uniform(-dth, dth), rng.uniform(-dphi, dphi))
                 for _ in range(n)]
        return [scene_from_ratios(geom, 0.0, -d, 10.0, s, p) for s, d, p in draws]

    def routes(mod, th_a):   # one theta_A search: both routes and the curvature stack
        return (*_closed(mod, th_a)[:2], *_sandwich(mod, th_a)[:2], _curvature(mod))

    hpbw = virtual_hpbw(geom)
    scenes = draw(1000, (-10, 30), 2 * hpbw, np.pi)
    closed, sandwich, sandwich_ok, cd = _bounds(routes, None, *_scene_columns(scenes))
    both = closed.valid & sandwich_ok
    devs = np.abs(closed.m[both] - sandwich[both]) / np.abs(sandwich[both])
    lines.append(
        "INFO closed-form-vs-sandwich: max rel dev = %.3e, median = %.3e "
        "over %d scenes (%d degenerate/ill-conditioned skipped); the closed "
        "form drops the DOA-amplitude coupling feedback and is exact "
        "only where tr(dA_d^H A_i) -> 0" % (devs.max(), np.median(devs),
                                            devs.size, len(scenes) - devs.size))

    _, *cols = _scene_columns(draw(50, (-6, 20), hpbw, 2.0))
    ad, ai = cols[2:4]      # paper form undefined where ad + ai ~ 0
    keep = np.abs(ad + ai) >= 1e-12 * (np.abs(ad) + np.abs(ai))
    th, psi, ad, ai, k, s2 = cols = [c[keep] for c in cols]
    gaps = np.abs(_bounds(_closed, None, geom, *cols)[0].theta_a - _bounds(
        _closed, None, geom, th, psi, 1.0, ai / (ad + ai), k, s2)[0].theta_a)
    lines.append("INFO theta-a-projection-vs-paper-form: max |gap| = %.3e rad "
                 "over %d scenes (the two weightings differ by an alpha_i "
                 "cross term)" % (gaps.max(), gaps.size))

    grazing = np.linspace(1e-4, np.pi / 2, 4000)
    top = max(map(abs, _reflection(grazing, 4.0, 0.005, 0.0038).tolist()))
    ok &= _check(lines, "reflection-magnitude-bound", top <= 1.0 + 1e-12,
                 f"max |Gamma_r| = {top:.12f}")
    g0 = reflection_coefficient(math.radians(0.1), 4.0, 0.005, 0.0038)
    ok &= _check(lines, "reflection-mirror-limit", abs(g0 + 1.0) < 0.01,
                 f"|Gamma_r(0.1 deg) + 1| = {abs(g0 + 1.0):.4f}")
    gq = reflection_coefficient(math.pi / 2, 4.0, 0.0, 0.0038)
    ok &= _check(lines, "reflection-normal-incidence",
                 abs(gq - (1.0 / 3.0)) < 1e-12,
                 f"Gamma_r(90 deg, lossless eps=4) = {gq.real:.12f}")

    y1 = synthesize_compressed(coh, 1234)
    y2 = synthesize_compressed(coh, 1234)
    ok &= _check(lines, "synthesis-determinism", bool(np.array_equal(y1, y2)),
                 "same seed gives identical noise")

    ok &= _check(lines, "curvature-matrix-symmetry",
                 bool(np.array_equal(cd, cd.transpose(0, 2, 1))), "C_D is symmetric")

    return ok, lines
