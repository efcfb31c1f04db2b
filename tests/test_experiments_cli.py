import argparse
import copy
import csv
import hashlib
import inspect
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mpcrb import bounds, svgplot
from mpcrb.cli import _RUNNERS, _TAKES, build_parser, load_preset, main
from mpcrb.experiments import (ConfigError, run_beampattern, run_bounds,
                               run_fig2, run_fig4, run_fig5, run_montecarlo,
                               run_selftest)
import mpcrb
import mpcrb.experiments as ex


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def small_fig2_config(**overrides):
    cfg = load_preset("fig2")
    cfg["trials"] = 25
    cfg["sweep"] = {"snr_db": {"start": 0.0, "stop": 20.0, "step": 10.0}}
    cfg.update(overrides)
    return cfg


# the sweep axes of every recipe's preset
RECIPE_AXES = {
    "bounds": [], "fig2": ["sweep.snr_db"],
    "fig3": ["sweep.delta_theta_deg", "beampattern_grid_deg"],
    "fig4": ["sweep.smr_db"],
    "fig5": ["grid.delta_phi_rad", "grid.delta_theta_deg"],
    "scenario": ["range_grid_m"], "montecarlo": ["sweep.snr_db"],
    "beampattern": ["grid_deg"],
}


def test_missing_field_reports_path():
    cfg = load_preset("fig2")
    del cfg["scene"]["smr_db"]
    with pytest.raises(ConfigError, match="scene.smr_db"):
        run_fig2(cfg, "unused")


def test_bad_geometry_reports_path():
    cfg = small_fig2_config()
    cfg["geometry"] = {"m_t": 0, "m_r": 4}
    with pytest.raises(ConfigError, match="geometry.m_t"):
        run_fig2(cfg, "unused")


def test_fig2_outputs_and_manifest(tmp_path):
    cfg = small_fig2_config()
    result = run_fig2(cfg, tmp_path)
    header, rows = read_csv(result["csv"])
    assert header == ["snr_db", "rcrb_deg", "rmcrb_deg", "rmse_mml_deg",
                      "rmse_ml_deg"]
    assert len(rows) == 3
    manifest = json.loads(result["manifest"].read_text())
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    assert manifest["config_sha256"] == hashlib.sha256(blob).hexdigest()
    got = hashlib.sha256(result["csv"].read_bytes()).hexdigest()
    assert manifest["outputs"]["fig2.csv"] == got
    assert manifest["versions"]["mpcrb"] == mpcrb.__version__
    # RFC 4180 line endings
    assert b"\r\n" in result["csv"].read_bytes()


def test_fig2_multipath_free_columns_coincide(tmp_path):
    cfg = small_fig2_config()
    cfg["scene"]["smr_db"] = 400.0     # numerically alpha_i = 0
    result = run_fig2(cfg, tmp_path)
    _, rows = read_csv(result["csv"])
    for row in rows:
        rcrb, rmcrb = float(row[1]), float(row[2])
        assert abs(rmcrb - rcrb) <= 1e-10 * rcrb


def test_fig2_rerun_byte_identical_any_workers(tmp_path):
    cfg = small_fig2_config()
    a = run_fig2(cfg, tmp_path / "a", workers=1)
    b = run_fig2(cfg, tmp_path / "b", workers=4)
    assert a["csv"].read_bytes() == b["csv"].read_bytes()
    ma = json.loads(a["manifest"].read_text())
    mb = json.loads(b["manifest"].read_text())
    assert ma["outputs"] == mb["outputs"]


def test_montecarlo_rerun_byte_identical(tmp_path):
    cfg = load_preset("montecarlo")
    cfg["trials"] = 20
    a = run_montecarlo(cfg, tmp_path / "a")
    b = run_montecarlo(cfg, tmp_path / "b")
    assert a["csv"].read_bytes() == b["csv"].read_bytes()


def test_fig4_degenerate_cell_is_empty(tmp_path):
    cfg = load_preset("fig4")
    cfg["scene"]["delta_theta_deg"] = 0.0
    cfg["sweep"] = {"smr_db": {"start": 0.0, "stop": 0.0, "step": 1.0}}
    result = run_fig4(cfg, tmp_path)
    header, rows = read_csv(result["csv"])
    assert rows[0][header.index("rmcrb_dphi_2pi3_deg")] == ""
    assert rows[0][header.index("rmcrb_dphi_0_deg")] != ""


def test_fig5_svg_and_grid(tmp_path):
    cfg = load_preset("fig5")
    cfg["grid"] = {
        "delta_phi_rad": {"start": -math.pi, "stop": math.pi, "step": math.pi / 4},
        "delta_theta_deg": {"start": 0.0, "stop": 4.0, "step": 2.0},
    }
    result = run_fig5(cfg, tmp_path, svg=True)
    header, rows = read_csv(result["csv"])
    assert header == ["delta_phi_rad", "delta_theta_deg", "rmcrb_over_rcrb"]
    assert len(rows) == 9 * 3
    svg = (tmp_path / "fig5.svg").read_text()
    assert svg.startswith("<svg")


def test_fig5_virtual_null_row_is_near_unity(tmp_path):
    # indirect angle on a virtual-array pattern null: the ratio hugs 1 and
    # is far flatter than a main-lobe row (measured band [1.007, 1.186])
    null_deg = math.degrees(math.asin(2.0 / 6.0))
    cfg = load_preset("fig5")
    cfg["grid"] = {
        "delta_phi_rad": {"start": -math.pi, "stop": math.pi, "step": math.pi / 12},
        "delta_theta_deg": {"start": null_deg, "stop": null_deg, "step": 1.0},
    }
    result = run_fig5(cfg, tmp_path)
    _, rows = read_csv(result["csv"])
    ratios = np.array([float(r[2]) for r in rows])
    assert np.all(np.abs(ratios - 1.0) < 0.2)

    cfg["grid"]["delta_theta_deg"] = {"start": 3.0, "stop": 3.0, "step": 1.0}
    result = run_fig5(cfg, tmp_path / "main")
    _, rows = read_csv(result["csv"])
    main_lobe = np.array([float(r[2]) for r in rows])
    assert main_lobe.max() - main_lobe.min() > (ratios.max() - ratios.min())


def test_fig4_low_smr_bias_grows_with_separation(tmp_path):
    plateaus = []
    for dth in (0.5, 2.0):
        cfg = load_preset("fig4")
        cfg["scene"]["delta_theta_deg"] = dth
        cfg["sweep"] = {"smr_db": {"start": -20.0, "stop": -20.0, "step": 1.0}}
        result = run_fig4(cfg, tmp_path / f"d{dth}")
        header, rows = read_csv(result["csv"])
        plateaus.append(float(rows[0][header.index("rmcrb_dphi_0_deg")]))
    assert plateaus[1] > plateaus[0]


def test_beampattern_csv_matches_library(tmp_path):
    cfg = load_preset("beampattern")
    cfg["grid_deg"] = {"start": -60.0, "stop": 60.0, "step": 1.0}
    result = run_beampattern(cfg, tmp_path)
    header, rows = read_csv(result["csv"])
    grid = np.array([float(r[0]) for r in rows])
    tx_db = np.array([float(r[1]) for r in rows])
    g = mpcrb.standard_virtual_ula(3, 4)
    ref_tx, _ = mpcrb.beampattern(g, 0.0, np.deg2rad(grid))
    np.testing.assert_array_equal(tx_db, ref_tx)


def test_bounds_runner(tmp_path):
    result = run_bounds(load_preset("bounds"), tmp_path)
    header, rows = read_csv(result["csv"])
    vals = dict(zip(header, map(float, rows[0])))
    assert vals["mcrb_rad2"] == pytest.approx(
        vals["m_rad2"] + vals["b_rad2"], rel=1e-12)
    assert vals["rmcrb_deg"] == pytest.approx(
        math.degrees(math.sqrt(vals["mcrb_rad2"])), rel=1e-12)


def _perturb_steering_curvature(monkeypatch):
    """Add 1e-3 to every c2 = tr(ddA^H Y) of the selftest's identity checks."""
    real = ex._projection_derivs

    def perturbed(geom, y, phi):
        c0, c1, c2 = real(geom, y, phi)
        return c0, c1, c2 + 1e-3
    monkeypatch.setattr(ex, "_projection_derivs", perturbed)


def test_selftest_passes_and_fault_injection_trips(monkeypatch):
    ok, lines = run_selftest()
    assert ok
    assert any(line.startswith("INFO closed-form-vs-sandwich") for line in lines)
    _perturb_steering_curvature(monkeypatch)
    bad, lines = run_selftest()
    assert not bad
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [
        "FAIL steering-curvature-identity-i4"]


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    # selftest: exit 0 iff the checks pass; a perturbed curvature must fail them
    assert main(["selftest"]) == 0
    with monkeypatch.context() as m:
        _perturb_steering_curvature(m)
        assert main(["selftest"]) == 1
    assert "FAIL steering-curvature-identity-i4" in capsys.readouterr().out

    # single-point degenerate bound -> exit 2
    cfg = load_preset("bounds")
    cfg["scene"]["psi_deg"] = 0.0
    cfg["scene"]["smr_db"] = 0.0
    cfg["scene"]["delta_phi_rad"] = 2.0 * math.pi / 3.0
    p = tmp_path / "degenerate.json"
    p.write_text(json.dumps(cfg))
    assert main(["bounds", "--config", str(p), "--out", str(tmp_path)]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{\"geometry\": {}}")
    assert main(["fig2", "--config", str(bad), "--out", str(tmp_path)]) == 1
    assert main(["fig2", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == 1
    capsys.readouterr()


def test_cli_runs_fig2_with_overrides(tmp_path, capsys):
    cfg = small_fig2_config()
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code = main(["fig2", "--config", str(p), "--out", str(tmp_path / "o"),
                 "--trials", "10", "--seed", "7", "--svg"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fig2.csv" in out
    manifest = json.loads((tmp_path / "o" / "fig2_manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["config"]["trials"] == 10
    assert (tmp_path / "o" / "fig2.svg").exists()


def test_options_that_cannot_change_a_run_are_usage_errors(tmp_path, capsys):
    # bound recipes draw no random numbers, bounds draws no plot, and no
    # recipe uses workers
    out = tmp_path / "o"
    refused = [["bounds", "--svg"]] + [[name, "--workers", "2"] for name in _RUNNERS] + [
        [name, *opt] for name in ("bounds", "fig3", "fig4", "fig5", "scenario",
                                  "beampattern")
        for opt in (["--trials", "5"], ["--seed", "3"])]
    for argv in refused:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert not out.exists()


def _registered(name):
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return [opt for action in sub.choices[name]._actions
            for opt in action.option_strings]


def test_every_run_option_changes_the_outputs(tmp_path):
    # each recipe on its thinned preset, with and without each registered run
    # option: one that moves no output byte (the manifest aside, which records
    # the config) does nothing
    no_ops = set()
    for name in _RUNNERS:
        cfg = thinned_preset(name, points=3, trials=5)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))

        def outputs(*opts):
            out = tmp_path / "_".join((name,) + opts)
            assert main([name, "--config", str(path), "--out", str(out), *opts]) == 0
            return {p.name: p.read_bytes() for p in out.iterdir()
                    if p.name != f"{name}_manifest.json"}

        base = outputs()
        values = {"--trials": [str(cfg.get("trials", 0) + 1)], "--svg": [],
                  "--seed": [str(cfg.get("seed", 0) + 1)], "--workers": ["2"]}
        for opt in values.keys() & set(_registered(name)):
            if outputs(opt, *values[opt]) == base:
                no_ops.add((name, opt))
    assert no_ops == set()


def test_svg_deterministic(tmp_path):
    cfg = small_fig2_config()
    a = run_fig2(cfg, tmp_path / "a", svg=True)
    b = run_fig2(cfg, tmp_path / "b", svg=True)
    assert (tmp_path / "a" / "fig2.svg").read_bytes() == \
        (tmp_path / "b" / "fig2.svg").read_bytes()


def test_sweep_axis_cap_by_size_arithmetic():
    # a billion-point axis is refused from its size alone, before any list
    # is built; the message names the field path
    cfg = {"sweep": {"snr_db": {"start": 0.0, "stop": 1.0, "step": 1e-9}}}
    with pytest.raises(ConfigError, match=r"sweep\.snr_db: .*cap"):
        ex._grids(cfg, "sweep.snr_db")[0]
    cfg["sweep"]["snr_db"] = {"start": -1e308, "stop": 1e308, "step": 1e-300}
    with pytest.raises(ConfigError, match=r"sweep\.snr_db"):
        ex._grids(cfg, "sweep.snr_db")[0]
    top = ex.MAX_AXIS_POINTS - 1
    cfg["sweep"]["snr_db"] = {"start": 0.0, "stop": float(top), "step": 1.0}
    assert ex._axis(cfg, "sweep.snr_db")[2] == ex.MAX_AXIS_POINTS
    cfg["sweep"]["snr_db"]["stop"] = float(top + 1)
    with pytest.raises(ConfigError, match=r"sweep\.snr_db"):
        ex._axis(cfg, "sweep.snr_db")
    fig3 = load_preset("fig3")
    fig3["sweep"]["delta_theta_deg"]["step"] = 1e-6
    with pytest.raises(ConfigError, match=r"sweep\.delta_theta_deg"):
        ex.run_fig3(fig3, "unused")


def _workloads(monkeypatch):
    """The benchmark's workload definitions, read from their file (no bytecode is
    written there) and registered for this test alone: its dataclass looks its
    module up."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    module = types.ModuleType("bench_workloads")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return module


def test_grids_give_the_benchmark_grid_values(monkeypatch):
    # every benchmark workload at both sizes, at the default seed and at
    # seeds whose grid shifts leave (stop - start) / step a rounded integer
    wl = _workloads(monkeypatch)
    for w in wl.WORKLOADS.values():
        for size in wl.SIZES:
            for seed in (wl.DEFAULT_SEED, 1, 2, 3, 57, 199):
                cfg = wl.config_for_seed(w, load_preset(w.preset), seed, size=size)
                for path in w.grids:
                    assert ex._grids(cfg, path)[0] == wl.grid_values(cfg, path), (
                        w.name, size, seed, path)


def test_swept_values_stay_inside_start_and_stop():
    # an axis takes every whole step up to stop, within 1e-9 of a step, and no
    # point past it: int(round(cells)) + 1 points went up to half a step over
    rng = random.Random(4711)
    for draw in range(2000):
        start, step = rng.uniform(-100.0, 100.0), 10.0 ** rng.uniform(-3.0, 1.0)
        cells = rng.randint(0, 300) if draw % 2 else rng.uniform(0.0, 300.0)
        stop = start + cells * step
        values = ex._grids({"a": {"start": start, "stop": stop, "step": step}}, "a")[0]
        assert all(start <= v <= stop + 1e-9 * step for v in values), (start, stop, step)
        assert start + len(values) * step > stop, (start, stop, step)
        if draw % 2:
            assert len(values) == cells + 1


@pytest.mark.parametrize("recipe, key, axis, column, want", [
    ("fig2", "sweep.snr_db", (0.0, 1.0, 0.6), "snr_db", [0.0, 0.6]),
    ("scenario", "range_grid_m", (2.0, 3.0, 0.6), "r_d_m", [2.0, 2.6]),
    ("beampattern", "grid_deg", (-89.0, 89.9, 1.3), "phi_deg", None)])
def test_sweep_axis_stops_at_its_last_whole_step(tmp_path, recipe, key, axis, column,
                                                 want):
    # fig2 wrote a 1.2 dB row, scenario a 3.2 m row, and beampattern refused
    # its grid with "grid_deg: must lie inside (-90, 90), got 90.4"
    cfg = load_preset(recipe)
    if "trials" in cfg:
        cfg["trials"] = 2
    node = cfg
    for part in key.split(".")[:-1]:
        node = node[part]
    node[key.split(".")[-1]] = dict(zip(("start", "stop", "step"), axis))
    header, rows = read_csv(getattr(ex, f"run_{recipe}")(cfg, tmp_path)["csv"])
    got = [float(row[header.index(column)]) for row in rows]
    assert got == (want or [-89.0 + i * 1.3 for i in range(138)])
    assert got[-1] <= axis[1]


@pytest.mark.parametrize("recipe, path", [("bounds", "geometry"),
                                          ("scenario", "geometries.3x8")])
@pytest.mark.parametrize("count", ["m_t", "m_r"])
def test_geometry_given_both_ways_is_refused(tmp_path, capsys, recipe, path, count):
    # counts and positions together ran the standard ULA under exit 0 and
    # ignored the positions
    cfg = load_preset(recipe)
    node = cfg
    for part in path.split("."):
        node = node[part]
    node.clear()
    node.update({count: 4, "tx_positions": [-1.0, 0.0, 1.0],
                 "rx_positions": [-0.25, 0.25]})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([recipe, "--config", str(p), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: {path}: give m_t/m_r or explicit positions, not both\n")
    assert not out.exists()


def test_sweep_product_cap_and_presets_fit():
    cfg = load_preset("fig5")
    per_axis = math.isqrt(ex.MAX_SWEEP_POINTS) + 1    # each axis under its cap
    cfg["grid"]["delta_phi_rad"]["step"] = 2 * math.pi / (per_axis - 1)
    cfg["grid"]["delta_theta_deg"]["step"] = 40.0 / (per_axis - 1)
    with pytest.raises(ConfigError, match=r"grid\.delta_phi_rad x grid\.delta_theta_deg"):
        run_fig5(cfg, "unused")
    for name, paths in RECIPE_AXES.items():
        for path in paths:
            ex._grids(load_preset(name), path)[0]
    ex._grids(load_preset("fig5"), "grid.delta_phi_rad", "grid.delta_theta_deg")


def test_manifests_count_bound_and_degenerate_points(tmp_path):
    cfg = load_preset("fig4")
    cfg["scene"]["delta_theta_deg"] = 0.0
    cfg["sweep"] = {"smr_db": {"start": -1.0, "stop": 1.0, "step": 1.0}}
    result = run_fig4(cfg, tmp_path / "fig4")
    manifest = json.loads(result["manifest"].read_text())
    # 3 SMRs x 2 phases; only SMR 0 dB at dphi = 2pi/3 cancels exactly
    assert manifest["bound_points"] == 6
    assert manifest["degenerate_points"] == 1
    again = run_fig4(cfg, tmp_path / "again")
    assert result["manifest"].read_bytes() == again["manifest"].read_bytes()

    fig5 = load_preset("fig5")
    fig5["grid"] = {
        "delta_phi_rad": {"start": 0.0, "stop": 2.0 * math.pi / 3.0,
                          "step": math.pi / 3.0},
        "delta_theta_deg": {"start": 0.0, "stop": 1.0, "step": 1.0},
    }
    fig5["scene"]["smr_db"] = 0.0
    manifest = json.loads(run_fig5(fig5, tmp_path / "fig5")["manifest"].read_text())
    assert (manifest["bound_points"], manifest["degenerate_points"]) == (6, 1)

    scen = load_preset("scenario")
    scen["range_grid_m"] = {"start": 2.0, "stop": 60.0, "step": 2.0}
    result = ex.run_scenario(scen, tmp_path / "scenario")
    manifest = json.loads(result["manifest"].read_text())
    _, rows = read_csv(result["csv"])
    out_of_cell = 2 * sum(row[4] == "false" for row in rows)
    assert manifest["out_of_cell_points"] == out_of_cell > 0
    assert manifest["bound_points"] == 2 * len(rows) - out_of_cell
    assert manifest["degenerate_points"] == 0


def thinned_preset(name, points=5, trials=10):
    """The packaged preset with ``points`` points per sweep axis and
    ``trials`` trials."""
    cfg = load_preset(name)
    for path in RECIPE_AXES[name]:
        axis = cfg
        for part in path.split("."):
            axis = axis[part]
        axis["step"] = (axis["stop"] - axis["start"]) / (points - 1)
    if "trials" in cfg:
        cfg["trials"] = trials
    return cfg


@pytest.mark.parametrize("svg", [False, True])
@pytest.mark.parametrize("name", list(RECIPE_AXES))
def test_recipe_manifest_lists_exactly_the_files_written(tmp_path, name, svg):
    # bounds writes no plot and takes no svg
    kwargs = {} if name == "bounds" else {"svg": svg}
    result = getattr(ex, f"run_{name}")(thinned_preset(name), tmp_path, **kwargs)
    keys = ["csv", "manifest"]
    if name == "fig3":
        keys.insert(1, "beampattern_csv")
    if svg and name != "bounds":
        keys.insert(-1, "svg")
    assert list(result) == keys
    assert sorted(result.values()) == sorted(tmp_path.iterdir())
    manifest = json.loads(result["manifest"].read_text())
    written = {p.name for p in tmp_path.iterdir()} - {result["manifest"].name}
    assert set(manifest["outputs"]) == written
    for file_name, digest in manifest["outputs"].items():
        assert hashlib.sha256((tmp_path / file_name).read_bytes()).hexdigest() == digest
    assert (tmp_path / f"{name}.svg").exists() == (svg and name != "bounds")


def test_a_run_that_fails_after_its_tables_writes_nothing(tmp_path, capsys):
    # every file, the manifest too, is built before the first is written: an
    # all-degenerate sweep with nothing to plot, or a config the manifest cannot
    # hold, left fig3.csv and fig3_beampattern.csv behind
    cfg = load_preset("fig3")
    cfg["sweep"]["delta_theta_deg"] = {"start": 0.0, "stop": 0.0, "step": 1.0}
    cfg["scene"].update(smr_db=20.0 * math.log10(2.0), delta_phi_rad=math.pi)
    p = tmp_path / "fig3.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["fig3", "--config", str(p), "--out", str(out), "--svg"]) == 1
    assert capsys.readouterr().err == "invalid input: nothing to plot\n"
    assert not out.exists()
    cfg = load_preset("fig3")
    cfg["geometry"] = {"tx_positions": np.array([0.0, 2.0]),
                       "rx_positions": [0.0, 0.5, 1.0]}
    with pytest.raises(ConfigError, match="^geometry.tx_positions: expected a "
                                          "JSON value, got ndarray$"):
        ex.run_fig3(cfg, out)
    assert not out.exists()


_BAD_JSON = ("invalid JSON: Expecting property name enclosed in double quotes: "
             "line 1 column 2 (char 1)")


@pytest.mark.parametrize("name, text, err", [
    ("bounds", "{not json", f"config error: --config: {_BAD_JSON}"),
    ("bounds", "[1, 2]", "config error: --config: top level must be a JSON object"),
    ("bounds", {"geometry": [3, 4]}, "config error: geometry: expected an object"),
    ("bounds", {"search": 60}, "config error: search: expected an object"),
    ("scenario", {"geometries": {}},
     "config error: geometries: expected a non-empty object"),
], ids=["json", "top-level", "geometry", "search", "geometries"])
def test_cli_refuses_a_config_of_the_wrong_shape(tmp_path, capsys, name, text,
                                                 err):
    if isinstance(text, dict):   # one key of the preset replaced
        text = json.dumps({**load_preset(name), **text})
    p = tmp_path / "cfg.json"
    p.write_text(text)
    out = tmp_path / "out"
    assert main([name, "--config", str(p), "--out", str(out)]) == 1
    assert capsys.readouterr().err == err + "\n"
    assert not out.exists()


@pytest.mark.parametrize("name, code, err", [
    ("bounds", 2, "bound evaluation failed: single-element arrays carry no DOA "
                  "information (E_Adot = 0)"),
    ("fig2", 2, "bound evaluation failed: single-element arrays carry no DOA "
                "information (E_Adot = 0)"),
    ("montecarlo", 1, "invalid input: beamwidth undefined for a single-element "
                      "virtual array"),
], ids=["bounds", "fig2", "montecarlo"])
def test_cli_refuses_a_single_element_array(tmp_path, capsys, name, code, err):
    cfg = load_preset(name)
    cfg["geometry"] = {"m_t": 1, "m_r": 1}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([name, "--config", str(p), "--out", str(out)]) == code
    assert capsys.readouterr().err == err + "\n"
    assert not out.exists()


def test_line_plot_draws_an_isolated_sample_as_a_dot():
    text = svgplot.line_plot([("a", [0.0, 1.0, 2.0, 3.0], [1.0, None, 2.0, 3.0])],
                             "x", "y", "t")
    assert text.count("<circle") == 1 and text.count("<polyline") == 1


def test_heatmap_of_no_finite_value_raises_and_of_one_value_renders():
    with pytest.raises(ValueError, match="^nothing to plot$"):
        svgplot.heatmap([0.0, 1.0], [0.0, 1.0], [None] * 4, "x", "y", "t")
    text = svgplot.heatmap([0.0, 1.0], [0.0, 1.0], [2.0] * 4, "x", "y", "t")
    assert text.count('fill="rgb(0,96,255)"') == 4


def test_plots_return_their_svg_text_and_open_no_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    plots = [svgplot.line_plot([("a", [0.0, 1.0], [1.0, 2.0])], "x", "y", "t"),
             svgplot.heatmap([0.0, 1.0], [0.0, 1.0], [0.5, 1.5, 2.0, None],
                             "x", "y", "t")]
    for text in plots:
        assert type(text) is str
        assert text.startswith("<svg xmlns=") and text.endswith("</svg>\n")
    for plot in (svgplot.line_plot, svgplot.heatmap):
        assert "path" not in inspect.signature(plot).parameters
    assert list(tmp_path.iterdir()) == []


def test_cli_refuses_a_config_of_another_kind(tmp_path, capsys):
    # each subcommand given each other's preset: montecarlo ran fig5's under
    # exit 0, and fig4 read fig3's as missing scene.delta_theta_deg
    out = tmp_path / "out"
    for name, other in ((a, b) for a in _RUNNERS for b in _RUNNERS if a != b):
        p = tmp_path / f"{other}.json"
        p.write_text(json.dumps(load_preset(other)))
        assert main([name, "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: kind: {other!r} is not the subcommand {name!r}\n")
    assert not out.exists()
    for name, other in ((a, b) for a in _RUNNERS for b in _RUNNERS if a != b):
        with pytest.raises(ConfigError, match=(
                f"^kind: {other!r} is not the subcommand {name!r}$")):
            _RUNNERS[name](load_preset(other), out)   # the recipe refuses it too
    assert not out.exists()
    cfg = load_preset("bounds")
    del cfg["kind"]   # a config without a kind runs as the subcommand
    p.write_text(json.dumps(cfg))
    assert main(["bounds", "--config", str(p), "--out", str(out)]) == 0


def test_cli_refuses_a_geometry_name_with_a_dot(tmp_path, capsys):
    # each geometry is read at the path geometries.<name>, which splits on
    # dots: "3.8" was reported as a missing field although it was given
    cfg = load_preset("scenario")
    cfg["geometries"] = {"3x4": {"m_t": 3, "m_r": 4}, "3.8": {"m_t": 3, "m_r": 8}}
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["scenario", "--config", str(p), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "config error: geometries: a geometry name must not contain '.'\n")
    assert not out.exists()


_STEP = "the coarse search step is the virtual-array beamwidth / 20"
_SEARCHING = ["bounds", "fig2", "fig3", "fig4", "fig5", "scenario", "montecarlo"]
# each removed setting: the recipes whose config reaches the object holding it
# (every recipe reads the top level), a value and the reason given
REMOVED_SETTINGS = {
    "scene.e_p": (["bounds", "fig2", "fig3", "fig4", "fig5", "montecarlo"], 2.0,
                  "the pulse energy E_p is 1"),
    "e_p": (list(RECIPE_AXES), 2.0, "the pulse energy E_p is 1"),
    "search.coarse_step_deg": (_SEARCHING, 0.5, _STEP),
    "estimator": (list(RECIPE_AXES), {"coarse_step_deg": 0.5},
                  "the estimator searches search.span_deg at 1e-6 rad"),
    "delta_phis_rad": (list(RECIPE_AXES), [1.0, 2.5],
                       "fig4's phase differences are fixed at 0 and 2pi/3"),
}


@pytest.mark.parametrize("recipe, key", [
    (recipe, key) for key, (recipes, _, _) in REMOVED_SETTINGS.items()
    for recipe in recipes])
def test_cli_refuses_a_removed_setting_by_its_key(tmp_path, capsys, recipe, key):
    # ignored, the setting would run with a value the recipe no longer reads:
    # scene.e_p = 2 would give bounds for E_p = 1 under exit 0
    _, value, reason = REMOVED_SETTINGS[key]
    cfg = load_preset(recipe)
    *parents, leaf = key.split(".")
    node = cfg
    for part in parents:   # montecarlo's preset has no search block
        node = node.setdefault(part, {})
    node[leaf] = value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([recipe, "--config", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: no longer a setting: {reason}")
    assert not out.exists()


def _siblings(node, path=""):
    """A dotted sibling <key>x of every key of every object of a JSON tree, but
    of the names in geometries, which may be any name."""
    for key, val in node.items():
        at = f"{path}.{key}" if path else key
        if path != "geometries":
            yield f"{at}x"
        if isinstance(val, dict):
            yield from _siblings(val, at)


def _unknown_keys():
    """(recipe, dotted key) for a sibling <key>x of every key at every depth of
    each preset (the top level, search, geometry or geometries.<name>, scene,
    sweep, grid and each axis), for each scene key its recipe sweeps, and for
    fig4's search.span, a misspelled span_deg."""
    for recipe in RECIPE_AXES:
        yield from ((recipe, key) for key in _siblings(load_preset(recipe)))
    yield from [("fig2", "scene.snr_db"), ("montecarlo", "scene.snr_db"),
                ("fig3", "scene.psi_deg"), ("fig4", "scene.smr_db"),
                ("fig4", "scene.delta_phi_rad"), ("fig5", "scene.delta_phi_rad"),
                ("fig4", "search.span")]


def _assert_refused_as_unknown(tmp_path, capsys, recipe, key, value):
    """``recipe`` run on its preset with ``key`` set to ``value`` exits 1 with
    the unknown-key refusal and writes nothing."""
    cfg = load_preset(recipe)
    *parents, leaf = key.split(".")
    node = cfg
    for part in parents:
        node = node[part]
    node[leaf] = value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([recipe, "--config", str(p), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {key}: unknown key\n"
    assert not out.exists()


@pytest.mark.parametrize("recipe, key", list(_unknown_keys()))
def test_cli_refuses_a_key_its_object_does_not_read(tmp_path, capsys, recipe, key):
    # ignored, a misspelled key ran on its default: fig4 with search.span = 10
    # wrote the +-60 deg preset's CSV byte for byte under exit 0; a swept scene
    # key was overwritten by its axis.  Refused before any computation.
    _assert_refused_as_unknown(tmp_path, capsys, recipe, key, 10.0)


@pytest.mark.parametrize("recipe, key, value", [
    ("fig4", "serach", {"span_deg": 10.0}),
    ("fig2", "sweep.snr_db.stpe", 1.0),
    ("fig2", "sweep.snrdb", {"start": 0.0, "stop": 10.0, "step": 5.0}),
    ("fig5", "grid.x", 1.0),
    ("fig3", "scene.delta_theta_deg", 3.0),
    ("fig5", "scene.delta_theta_deg", 3.0)],
    ids=["fig4-top-level", "fig2-inside-an-axis", "fig2-sweep", "fig5-grid",
         "fig3-scene-separation", "fig5-scene-separation"])
def test_cli_refuses_a_misspelled_key_that_ran_under_exit_0(tmp_path, capsys,
                                                            recipe, key, value):
    # each ran on its defaults and exited 0: fig4 searched +-60 deg, fig2 and
    # fig5 ran their preset axes, and fig3 and fig5 took their separations from
    # their own axes
    _assert_refused_as_unknown(tmp_path, capsys, recipe, key, value)


def test_swept_scene_parses_stay_accepted():
    # the per-point parses of bench/check.py and test_fig4_cells_match_per_scene_bounds
    fig5, fig2 = load_preset("fig5"), load_preset("fig2")
    geom = ex.geometry_from_config(fig5)
    scene = ex.scene_from_config(fig5, geom, dphi=1.0, psi_rad=-0.1)
    assert (scene.psi, scene.sigma_w2) == (-0.1, 0.1)
    assert ex.scene_from_config(fig2, geom, snr_db=20.0).sigma_w2 == 0.01
    fig4 = load_preset("fig4")   # fig4 reads scene.delta_theta_deg into psi_rad itself
    assert ex._scene_grid(fig4, smr_db=0.0, dphi=0.0, psi_rad=0.0)[1] == 0.0


@pytest.mark.parametrize("name", ["fig2", "montecarlo"])
@pytest.mark.parametrize("block", [
    {}, {"span_deg": 10.0}, {"span_deg": 60.0, "refine_tol_rad": 1e-6},
    {"refine_tol_rad": 1e-9}, None, 5], ids=["empty", "span", "preset-values", "tol",
                                             "null", "number"])
def test_estimator_block_is_refused_by_key(tmp_path, capsys, name, block):
    # the MML searches the run's one span, search.span_deg, at 1e-6 rad; an
    # estimator span of 10 deg with theta at 30 deg gave an RMSE of about 28 deg
    # under exit 0
    cfg = load_preset(name)
    cfg["estimator"] = block
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([name, "--config", str(p), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "config error: estimator: no longer a setting: the estimator searches "
        "search.span_deg at 1e-6 rad\n")
    assert not out.exists()


@pytest.mark.parametrize("name", ["fig2", "montecarlo"])
def test_estimator_search_keeps_the_presets_value(name):
    # span 60 deg and tolerance 1e-6 rad, the removed estimator blocks' values
    want = bounds.SearchConfig((-math.radians(60.0), math.radians(60.0)), 1e-6)
    assert "estimator" not in load_preset(name)
    assert ex.estimator_from_config(load_preset(name)) == want
    cfg = load_preset(name)
    cfg["search"] = {"span_deg": 20.0, "refine_tol_rad": 1e-9}
    assert ex.estimator_from_config(cfg) == replace(want, span=(
        -math.radians(20.0), math.radians(20.0)))


@pytest.mark.parametrize("name", ["fig2", "montecarlo"])
@pytest.mark.parametrize("theta", [30.0, -10.5])
def test_mc_target_outside_the_search_span_is_refused(tmp_path, capsys, name,
                                                      theta):
    # the MML cannot converge to an angle outside the span it searches
    cfg = load_preset(name)
    cfg["scene"]["theta_deg"], cfg["search"] = theta, {"span_deg": 10.0}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([name, "--config", str(p), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: scene.theta_deg: must lie inside +-search.span_deg = "
        f"+-10, got {theta:g}\n")
    assert not out.exists()


@pytest.mark.parametrize("name", ["fig2", "montecarlo"])
def test_mc_target_on_the_search_span_edge_runs(tmp_path, name):
    cfg = thinned_preset(name, points=2, trials=3)
    cfg["scene"]["theta_deg"], cfg["search"] = -10.0, {"span_deg": 10.0}
    header, rows = read_csv(getattr(ex, f"run_{name}")(cfg, tmp_path)["csv"])
    assert len(rows) == 2 and header[1] in ("rcrb_deg", "rmse_mml_deg")


@pytest.mark.parametrize("recipe, key, start, stop, bad", [
    ("beampattern", "grid_deg", 80.0, 135.0, 135.0),
    ("beampattern", "grid_deg", -90.0, 0.0, -90.0),
    ("fig3", "beampattern_grid_deg", -95.0, 85.0, -95.0),
    ("fig3", "beampattern_grid_deg", 0.0, 90.0, 90.0)])
def test_beampattern_grid_outside_the_half_plane_names_its_key(tmp_path, capsys,
                                                               recipe, key, start,
                                                               stop, bad):
    # a 95 deg row repeated the 85 deg row under exit 0; the angle furthest
    # from broadside is named
    cfg = load_preset(recipe)
    cfg[key] = {"start": start, "stop": stop, "step": 5.0}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([recipe, "--config", str(p), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: {key}: must lie inside (-90, 90), got {bad!r}\n")
    assert not out.exists()


_TOL = "refine_tol must be finite and >= ulp(pi/2) = 2.2e-16"


@pytest.mark.parametrize("leaf, value, reason", [
    ("refine_tol_rad", 1e-320, _TOL), ("refine_tol_rad", 5e-324, _TOL),
    ("refine_tol_rad", 1e-16, _TOL),
    ("refine_tol_rad", math.inf, "expected a finite number, got inf"),
    ("span_deg", 95.0, "span must be an interval inside (-pi/2, pi/2)")],
    ids=["1e-320", "5e-324", "1e-16", "inf", "span-95"])
def test_cli_refuses_a_search_tolerance_below_the_angle_spacing(tmp_path, capsys,
                                                                leaf, value, reason):
    # 1e-320 overflowed the kernel's round cap: an OverflowError traceback; a
    # SearchConfig refusal names the leaf that caused it
    cfg = load_preset("bounds")
    cfg["search"][leaf] = value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(p), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: search.{leaf}: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("name", _SEARCHING)
def test_target_outside_the_default_search_span_is_refused(tmp_path, capsys, name):
    # the MCRB is taken about the maximizer over the span; bounds, fig4 and fig5
    # refused at run time without a key, scenario ran under exit 0
    cfg = load_preset(name)
    key = "theta_deg" if name == "scenario" else "scene.theta_deg"
    _set_leaf(cfg, key.split("."), 70.0)
    cfg.get("search", {}).pop("span_deg", None)   # the default, +-60 deg
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([name, "--config", str(p), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: {key}: must lie inside +-search.span_deg = +-60, got 70\n")
    assert not out.exists()


@pytest.mark.parametrize("name", ["fig2", "montecarlo"])
def test_trials_cap_is_checked_before_any_scene(tmp_path, monkeypatch, capsys,
                                                name):
    assert all(load_preset(n).get("trials", 0) < ex._MAX_TRIALS
               for n in RECIPE_AXES)
    cfg = load_preset(name)
    cfg["sweep"]["snr_db"] = {"start": 10.0, "stop": 10.0, "step": 1.0}
    cfg["trials"] = ex._MAX_TRIALS + 1

    def no_scenes(*args, **kwargs):
        raise AssertionError("a scene was built before the trials check")

    monkeypatch.setattr(ex, "_scene_grid", no_scenes)
    with pytest.raises(ConfigError, match=r"^trials: must be <= "):
        getattr(ex, f"run_{name}")(cfg, tmp_path)
    # the CLI override goes through the same check
    assert main([name, "--trials", str(ex._MAX_TRIALS + 1),
                 "--out", str(tmp_path)]) == 1
    assert "trials" in capsys.readouterr().err
    # a negative seed is refused before any scene too, from the config or the CLI
    cfg["trials"], cfg["seed"] = 5, -1
    with pytest.raises(ConfigError, match=r"^seed: must be >= 0, got -1$"):
        getattr(ex, f"run_{name}")(cfg, tmp_path)
    assert main([name, "--seed", "-1", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "config error: seed: must be >= 0, got -1\n"


# ---------------------------------------------------------------------------
# bound sweeps on columns against per-scene bounds

def _scalar_bound(scene, search):
    try:
        return ex.mcrb_theta_closed(scene, search=search)
    except mpcrb.DegenerateBoundError:
        return None


def _assert_cell(cell, want):
    if want is None:
        assert cell == ""
    else:
        assert float(cell) == pytest.approx(want, rel=1e-12)


def _root_deg(var):
    return math.degrees(math.sqrt(var))


def test_fig3_cells_match_per_scene_bounds(tmp_path):
    cfg = load_preset("fig3")
    cfg["scene"]["delta_phi_rad"] = 2.0 * math.pi / 3.0   # degenerate at dth = 0
    cfg["sweep"] = {"delta_theta_deg": {"start": -6.0, "stop": 6.0, "step": 3.0}}
    result = ex.run_fig3(cfg, tmp_path)
    _, rows = read_csv(result["csv"])
    geom, search = ex.geometry_from_config(cfg), ex.search_from_config(cfg)
    empty = 0
    for row in rows:
        scene = ex.scene_from_config(cfg, geom, psi_rad=-math.radians(float(row[0])))
        bb = _scalar_bound(scene, search)
        empty += bb is None
        _assert_cell(row[1], bb and _root_deg(bb.crb_theta))
        _assert_cell(row[2], bb and _root_deg(bb.mcrb_theta))
    assert empty == 1
    assert json.loads(result["manifest"].read_text())["degenerate_points"] == 1


def test_fig4_cells_match_per_scene_bounds(tmp_path):
    cfg = load_preset("fig4")
    cfg["scene"]["delta_theta_deg"] = 0.0
    cfg["sweep"] = {"smr_db": {"start": -4.0, "stop": 4.0, "step": 2.0}}
    result = run_fig4(cfg, tmp_path)
    _, rows = read_csv(result["csv"])
    geom, search = ex.geometry_from_config(cfg), ex.search_from_config(cfg)
    empty = 0
    for row in rows:
        scenes = [mpcrb.scene_from_ratios(geom, 0.0, 0.0, cfg["scene"]["snr_db"],
                                          float(row[0]), dphi, cfg["scene"]["k_pulses"])
                  for dphi in (0.0, 2.0 * math.pi / 3.0)]
        for cell, scene in zip(row[1:3], scenes):
            bb = _scalar_bound(scene, search)
            empty += bb is None
            _assert_cell(cell, bb and _root_deg(bb.mcrb_theta))
        _assert_cell(row[3], _root_deg(mpcrb.crb_theta(scenes[0])))
    assert empty == 1


def test_fig5_cells_match_per_scene_bounds(tmp_path):
    cfg = load_preset("fig5")
    cfg["scene"]["smr_db"] = 0.0
    cfg["grid"] = {
        "delta_phi_rad": {"start": -math.pi, "stop": math.pi, "step": math.pi / 3},
        "delta_theta_deg": {"start": 0.0, "stop": 4.0, "step": 2.0},
    }
    result = run_fig5(cfg, tmp_path)
    _, rows = read_csv(result["csv"])
    geom, search = ex.geometry_from_config(cfg), ex.search_from_config(cfg)
    empty = 0
    for row in rows:
        scene = ex.scene_from_config(cfg, geom, dphi=float(row[0]),
                                     psi_rad=-math.radians(float(row[1])))
        bb = _scalar_bound(scene, search)
        empty += bb is None
        _assert_cell(row[2], bb and math.sqrt(bb.mcrb_theta / bb.crb_theta))
    assert len(rows) == 21 and empty == 2
    assert json.loads(result["manifest"].read_text())["degenerate_points"] == 2


def test_fig4_overflowing_smr_is_counted_degenerate(tmp_path):
    # |alpha_i| / |alpha_d| ~ 1e155 overflows the closed form's squares
    cfg = load_preset("fig4")
    cfg["sweep"] = {"smr_db": {"start": -3100.0, "stop": -3100.0, "step": 1.0}}
    result = run_fig4(cfg, tmp_path)
    _, rows = read_csv(result["csv"])
    assert rows[0][1] == rows[0][2] == "" and float(rows[0][3]) > 0.0
    assert json.loads(result["manifest"].read_text())["degenerate_points"] == 2


ZERO_NOISE = "{}: 4000.0 dB underflows 10^-400 to 0"


def test_swept_snr_with_zero_noise_names_the_scene(tmp_path):
    cfg = small_fig2_config()
    cfg["sweep"] = {"snr_db": {"start": 0.0, "stop": 4000.0, "step": 4000.0}}
    with pytest.raises(ConfigError) as err:
        run_fig2(cfg, tmp_path)
    assert str(err.value) == ZERO_NOISE.format("sweep.snr_db")
    cfg = load_preset("fig5")
    cfg["scene"]["snr_db"] = 4000.0
    with pytest.raises(ConfigError) as err:
        run_fig5(cfg, tmp_path)
    assert str(err.value) == ZERO_NOISE.format("scene.snr_db")


@pytest.mark.parametrize("recipe, axis", [
    ("fig3", "sweep.delta_theta_deg"), ("fig5", "grid.delta_theta_deg")])
def test_out_of_range_psi_names_its_axis(tmp_path, recipe, axis):
    cfg = load_preset(recipe)
    node = cfg
    for part in axis.split("."):
        node = node[part]
    node.update(start=0.0, stop=90.0, step=45.0)
    with pytest.raises(ConfigError, match=f"{axis}: psi leaves"):
        getattr(ex, f"run_{recipe}")(cfg, tmp_path)


@pytest.mark.parametrize("recipe, key, value", [
    ("fig3", "scene.theta_deg", 90.0), ("fig4", "scene.theta_deg", -90.0),
    ("fig5", "scene.theta_deg", 95.0), ("bounds", "scene.theta_deg", 90.0),
    ("beampattern", "steer_deg", 90.0), ("bounds", "scene.psi_deg", 95.0),
    ("fig2", "scene.psi_deg", 95.0), ("montecarlo", "scene.psi_deg", -95.0)])
def test_out_of_range_angle_names_its_own_key(tmp_path, recipe, key, value):
    # fig3-5 blamed their psi axis, bounds "scene", beampattern "theta"; bounds,
    # fig2 and montecarlo blamed "scene" for scene.psi_deg
    cfg = load_preset(recipe)
    _set_leaf(cfg, key.split("."), value)
    with pytest.raises(ConfigError) as err:
        getattr(ex, f"run_{recipe}")(cfg, tmp_path)
    assert str(err.value) == f"{key}: must lie inside (-90, 90), got {value!r}"


def _thinned_scene_grid(name):
    """A thinned preset of ``name`` and the axes its recipe passes to _scene_grid."""
    cfg = load_preset(name)
    theta = math.radians(cfg["scene"]["theta_deg"])
    if name == "fig2":
        cfg["sweep"]["snr_db"]["step"] = 6.25
        return cfg, {"snr_db": ex._grids(cfg, "sweep.snr_db")[0]}
    if name == "fig4":
        cfg["sweep"]["smr_db"]["step"] = 3.75
        return cfg, {"psi_rad": theta - math.radians(cfg["scene"]["delta_theta_deg"]),
                     "smr_db": ex._grids(cfg, "sweep.smr_db")[0], "dphi": ex._FIG4_PHASES}
    cfg["grid"]["delta_phi_rad"]["step"] *= 8
    cfg["grid"]["delta_theta_deg"]["step"] = 2.5
    dphis, dths = ex._grids(cfg, "grid.delta_phi_rad", "grid.delta_theta_deg")
    return cfg, {"psi_rad": [theta - math.radians(d) for d in dths], "dphi": dphis}


@pytest.mark.parametrize("name", ["fig2", "fig4", "fig5"])
def test_scene_grid_rows_are_the_scenes_of_scene_from_ratios(name):
    # _scene_grid copies scene_from_ratios' dB arithmetic; each row must be its
    # scene's fields bit for bit, in row-major order of the axes, outer first
    cfg, axes = _thinned_scene_grid(name)
    geom, scene = ex.geometry_from_config(cfg), cfg["scene"]
    theta, psi, alpha_d, alpha_i, k, sigma_w2 = (
        c.ravel() for c in np.broadcast_arrays(*ex._scene_grid(cfg, **axes)))
    swept = [key for key, vals in axes.items() if np.ndim(vals)]
    rows = list(itertools.product(*(axes[key] for key in swept)))
    assert len(theta) == len(rows) > 1
    for i, row in enumerate(rows):
        args = {"psi_rad": math.radians(scene.get("psi_deg", 0.0)),
                "snr_db": scene.get("snr_db"), "smr_db": scene.get("smr_db"),
                "dphi": scene.get("delta_phi_rad", 0.0)}
        args.update((key, val) for key, val in axes.items() if key not in swept)
        args.update(zip(swept, row))
        want = mpcrb.scene_from_ratios(
            geom, math.radians(scene["theta_deg"]), args["psi_rad"], args["snr_db"],
            args["smr_db"], args["dphi"], scene["k_pulses"])
        assert (theta[i], psi[i], sigma_w2[i], alpha_i[i].real, alpha_i[i].imag) == (
            want.theta, want.psi, want.sigma_w2, want.alpha_i.real, want.alpha_i.imag)
        assert (alpha_d[i], k[i]) == (want.alpha_d, want.k_pulses)


def test_fig4_out_of_range_psi_names_its_key(tmp_path):
    cfg = load_preset("fig4")
    cfg["scene"]["delta_theta_deg"] = 95.0
    with pytest.raises(ConfigError, match="scene.delta_theta_deg: psi leaves"):
        run_fig4(cfg, tmp_path)


def _config_leaves(node, path=""):
    """Dotted paths to the leaves of a JSON tree; a list is one leaf."""
    if not isinstance(node, dict):
        yield path
        return
    for key, val in node.items():
        yield from _config_leaves(val, f"{path}.{key}" if path else key)


@pytest.mark.parametrize("name", sorted(_RUNNERS))
def test_every_preset_key_is_read_by_its_recipe(tmp_path, monkeypatch, name):
    # a preset key that its recipe never reads is a setting that cannot change
    # a run; kind and seed are on every preset, read or not
    read = set()

    def get(cfg, path, default=ex._REQUIRED, _get=ex._get):
        read.add(path)
        return _get(cfg, path, default)
    monkeypatch.setattr(ex, "_get", get)
    cfg = load_preset(name)
    _RUNNERS[name](cfg, tmp_path)
    assert [leaf for leaf in _config_leaves(cfg)
            if leaf not in read and leaf not in ("kind", "seed")] == []


def _in_tree(node, path):
    """Whether the dotted ``path`` names a key, at any depth, of a JSON tree."""
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return False
        node = node[part]
    return True


@pytest.mark.parametrize("name", sorted(_RUNNERS))
def test_every_key_a_recipe_reads_is_in_its_preset(tmp_path, monkeypatch, name):
    # the reverse of the test above: a key read but missing from the preset
    # would be refused as unknown.  montecarlo read search.span_deg and
    # search.refine_tol_rad, which its preset lacked; the second changed nothing
    read = set()

    def get(cfg, path, default=ex._REQUIRED, _get=ex._get):
        read.add(path)
        return _get(cfg, path, default)
    monkeypatch.setattr(ex, "_get", get)
    cfg = thinned_preset(name, points=2, trials=2)
    _RUNNERS[name](cfg, tmp_path)
    geometry = re.compile(r"^(geometry|geometries\.[^.]+)\."
                          r"(m_t|m_r|tx_positions|rx_positions)$")
    assert sorted(path for path in read
                  if not _in_tree(cfg, path) and not geometry.match(path)) == []


def test_load_preset_returns_an_independent_copy():
    # the presets are read once, at import; a caller's edit stays its own
    first = load_preset("scenario")
    first["geometries"]["3x8"]["m_r"] = 4
    first["search"].clear()
    assert load_preset("scenario")["geometries"]["3x8"]["m_r"] == 8
    assert ex._PRESETS["scenario"]["geometries"]["3x8"]["m_r"] == 8
    assert load_preset("scenario")["search"] == ex._PRESETS["scenario"]["search"] != {}


def test_every_subcommand_has_exactly_one_preset():
    # a subcommand without a preset, or a stray preset file, shows up here
    assert sorted(ex._PRESETS) == sorted(_TAKES)
    assert all(preset["kind"] == name for name, preset in ex._PRESETS.items())


def test_a_value_json_cannot_hold_inside_a_list_is_refused_by_its_key(tmp_path,
                                                                      monkeypatch):
    # np.int64 positions ran every bound, then json.dumps raised a bare
    # TypeError from _write_outputs
    def no_bounds(*args, **kwargs):
        raise AssertionError("a bound was computed before the config was checked")

    monkeypatch.setattr(ex, "mcrb_theta_closed", no_bounds)
    cfg = load_preset("bounds")
    cfg["geometry"] = {"tx_positions": [np.int64(0), np.int64(2)],
                       "rx_positions": [0.0, 0.5]}
    with pytest.raises(ConfigError, match=r"^geometry\.tx_positions\.0: expected "
                                          r"a JSON value, got int64$"):
        run_bounds(cfg, tmp_path / "out")
    cfg = load_preset("fig3")   # any depth, a key no parser reads too
    cfg["seed"] = {"nested": [1, (2, np.float32(3.0))]}
    with pytest.raises(ConfigError, match=r"^seed\.nested\.1\.1: expected a JSON "
                                          r"value, got float32$"):
        ex.run_fig3(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where, value, match", [
    ("seed", {1: 2, "a": 3}, r"^seed\.1: expected a string key, got int$"),
    ("seed", {"a": [{(1,): 0}]}, r"^seed\.a\.0\.\(1,\): expected a string key, "
                                 r"got tuple$"),
    ("search", {"span_deg": 60.0, True: 1}, r"^search\.True: expected a string key, "
                                            r"got bool$"),
    (2.5, 0, r"^2\.5: expected a string key, got float$")])
def test_a_non_string_key_is_refused_by_its_path(tmp_path, monkeypatch, where,
                                                 value, match):
    # seed = {1: 2, "a": 3} computed the bound, then json.dumps(..., sort_keys=True)
    # raised a bare TypeError from _write_outputs
    def no_bounds(*args, **kwargs):
        raise AssertionError("a bound was computed before the config was checked")

    monkeypatch.setattr(ex, "mcrb_theta_closed", no_bounds)
    cfg = load_preset("bounds")
    cfg[where] = value
    with pytest.raises(ConfigError, match=match):
        run_bounds(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_manifest_hashes_the_written_bytes(tmp_path):
    cfg = load_preset("fig3")
    cfg["sweep"] = {"delta_theta_deg": {"start": 0.0, "stop": 2.0, "step": 1.0}}
    cfg["beampattern_grid_deg"] = {"start": -2.0, "stop": 2.0, "step": 1.0}
    result = ex.run_fig3(cfg, tmp_path, svg=True)
    outputs = json.loads(result["manifest"].read_text())["outputs"]
    assert sorted(outputs) == ["fig3.csv", "fig3.svg", "fig3_beampattern.csv"]
    for name, digest in outputs.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_python_dash_m_runs_the_cli():
    src = Path(mpcrb.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-m", "mpcrb", "--help"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0 and "selftest" in out.stdout


def test_monte_carlo_runs_do_not_import_numpy_random(tmp_path):
    # the noise and the selftest's draws come from the standard library's
    # MT19937: a fresh process that runs both Monte-Carlo recipes and the
    # selftest never loads numpy.random
    src = Path(mpcrb.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    code = (f"import sys\n"
            f"from mpcrb.cli import load_preset, main\n"
            f"from mpcrb.experiments import run_fig2, run_montecarlo\n"
            f"run_montecarlo(load_preset('montecarlo'), {str(tmp_path / 'mc')!r})\n"
            f"fig2 = load_preset('fig2')\n"
            f"fig2['trials'] = 20\n"
            f"run_fig2(fig2, {str(tmp_path / 'fig2')!r})\n"
            f"assert main(['selftest']) == 0\n"
            f"print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "mc" / "montecarlo.csv").exists()
    assert (tmp_path / "fig2" / "fig2.csv").exists()


# ---------------------------------------------------------------------------
# the scenario sweep on columns

def _scenario_config(start, stop, step):
    cfg = load_preset("scenario")
    cfg["range_grid_m"] = {"start": start, "stop": stop, "step": step}
    return cfg


def test_scenario_cells_match_per_range_points(tmp_path):
    # 30 ranges across both gates, each row against range_point + crb_theta
    # the way bench/check.py recomputes it
    cfg = _scenario_config(2.0, 89.0, 3.0)
    result = ex.run_scenario(cfg, tmp_path)
    _, rows = read_csv(result["csv"])
    scn, search = ex.scenario_from_config(cfg), ex.search_from_config(cfg)
    geoms = {name: ex.geometry_from_config(cfg, f"geometries.{name}")
             for name in cfg["geometries"]}
    assert len(rows) == 30
    counts = {"in": 0, "out": 0, "degenerate": 0}
    for row in rows:
        for k, (name, geom) in enumerate(geoms.items()):
            p = mpcrb.range_point(scn, float(row[0]), search=search, geom=geom)
            assert row[:5] == [ex._cell(v) for v in (
                p.r_d, math.degrees(p.psi),
                p.smr_db if math.isfinite(p.smr_db) else None, p.delta_phi,
                p.same_cell)]
            _assert_cell(row[5 + 3 * k], _root_deg(mpcrb.crb_theta(p.scene)))
            bb = p.bound
            for cell, want in zip(row[6 + 3 * k:8 + 3 * k], (
                    bb and _root_deg(bb.mcrb_theta),
                    bb and math.sqrt(bb.mcrb_theta / bb.crb_theta))):
                if want is None:
                    assert cell == ""
                else:
                    assert float(cell) == pytest.approx(want, rel=1e-9)
            counts["in" if p.same_cell else "out"] += 1
            counts["degenerate"] += p.same_cell and bb is None
    assert counts["in"] and counts["out"]
    manifest = json.loads(result["manifest"].read_text())
    assert (manifest["bound_points"], manifest["out_of_cell_points"],
            manifest["degenerate_points"]) == (counts["in"], counts["out"],
                                               counts["degenerate"])


@pytest.mark.parametrize("grid, in_cell", [((2.0, 4.0, 1.0), 0),
                                           ((60.0, 60.0, 1.0), 1)])
def test_scenario_with_no_or_one_in_cell_range(tmp_path, grid, in_cell):
    result = ex.run_scenario(_scenario_config(*grid), tmp_path)
    _, rows = read_csv(result["csv"])
    manifest = json.loads(result["manifest"].read_text())
    assert len(rows) == (3 if in_cell == 0 else 1)
    assert manifest["bound_points"] == 2 * in_cell
    assert manifest["out_of_cell_points"] == 2 * (len(rows) - in_cell)
    for row in rows:
        assert row[4] == ("true" if in_cell else "false")
        assert float(row[5]) > 0.0 and float(row[8]) > 0.0     # RCRB cells
        assert all((cell != "") == bool(in_cell)
                   for cell in row[6:8] + row[9:11])


def test_scenario_cells_stay_finite_at_large_snr(tmp_path):
    # the 3x16 CRB's denominator overflows at snr_ref_db = 3020 and 40 m; its
    # RCRB (~3.7e-153 deg) and the ratio RMCRB/RCRB must still be finite and
    # positive
    cfg = _scenario_config(40.0, 60.0, 20.0)
    cfg["snr_ref_db"] = 3020.0
    header, rows = read_csv(ex.run_scenario(cfg, tmp_path)["csv"])
    cells = dict(zip(header, rows[0]))
    for key in ("rcrb_deg_3x16", "ratio_3x16", "rcrb_deg_3x8", "ratio_3x8"):
        assert 0.0 < float(cells[key]) < math.inf


@pytest.mark.parametrize("field, value", [("r_ref_m", 1e160),
                                          ("h_r_m", 1e300),
                                          ("theta_deg", 95.0),
                                          ("theta_deg", -90.0)])
def test_cli_refuses_scenario_inputs_out_of_model(tmp_path, capsys, field,
                                                  value):
    cfg = load_preset("scenario")
    cfg[field] = value
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(cfg))
    assert main(["scenario", "--config", str(p), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ") and "Traceback" not in err


def test_cli_names_an_output_directory_it_cannot_make(tmp_path, capsys):
    # FileExistsError and NotADirectoryError from the output writer escaped main
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert main(["bounds", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"output error: [Errno ")
    assert blocker.read_text() == ""


def test_cli_names_a_config_it_cannot_read(tmp_path, capsys):
    # non-UTF-8 bytes were reported as "invalid input: 'utf-8' codec ..."
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"kind": "bounds", "note": "\u00e9"}'.encode("latin-1"))
    for path, reason in ((bad, "'utf-8' codec can't decode"),
                         (tmp_path / "missing.json", "[Errno "), (tmp_path, "[Errno ")):
        assert main(["bounds", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: --config: {reason}")
    assert not (tmp_path / "out").exists()


def test_scenario_sweep_makes_one_call_per_traced_layer_step(tmp_path,
                                                             monkeypatch):
    # the benchmark's tracer sees only public functions: the column physics
    # and the closed form must stay public calls, one per sweep and one per
    # geometry, not move into private helpers
    calls = {"range_columns": 0, "mcrb_theta_closed_columns": 0}
    for name in calls:
        fn = getattr(ex, name)
        assert not fn.__name__.startswith("_")
        assert getattr(sys.modules[fn.__module__], name) is fn

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(ex, name, counted)
    cfg = _scenario_config(10.0, 70.0, 6.0)
    ex.run_scenario(cfg, tmp_path)
    assert calls == {"range_columns": 1,
                     "mcrb_theta_closed_columns": len(cfg["geometries"])}


# ---------------------------------------------------------------------------
# no config ends in a traceback

def _numeric_leaves(node, path=()):
    """Paths to the numbers (bools excluded) of a JSON tree."""
    if isinstance(node, (dict, list)):
        for key, val in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _numeric_leaves(val, path + (key,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def _leaf(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


def _set_leaf(cfg, path, value):
    _leaf(cfg, path[:-1])[path[-1]] = value


def test_config_mutations_return_or_raise_a_mapped_error(tmp_path):
    # every number of every preset at +-1e300, +-4000 and the smallest
    # subnormal, on 3-point axes and 5 trials, and every integer at 10**400,
    # beyond the float range.  The other values are floats, so no integer
    # field builds a 4,000-element array.  cli.main maps ConfigError,
    # BoundsError and ValueError to exit 1 or 2; any other exception is a
    # traceback.
    failures = []
    for name, run in _RUNNERS.items():
        base = thinned_preset(name, points=3, trials=5)
        for path in _numeric_leaves(base):
            huge = [10 ** 400] if isinstance(_leaf(base, path), int) else []
            for value in [1e300, -1e300, 4000.0, -4000.0, 5e-324] + huge:
                cfg = copy.deepcopy(base)
                _set_leaf(cfg, path, value)
                try:
                    run(cfg, tmp_path / name)
                except (ConfigError, mpcrb.BoundsError, ValueError):
                    pass
                except Exception as exc:
                    failures.append((name, ".".join(map(str, path)), value,
                                     type(exc).__name__))
    assert failures == []


@pytest.mark.parametrize("recipe, key, value", [
    ("fig5", "scene.snr_db", -4000.0), ("bounds", "scene.smr_db", -1e300),
    ("montecarlo", "sweep.snr_db.start", -4000.0),
    ("scenario", "snr_ref_db", 4000.0), ("scenario", "snr_ref_db", -1e300),
    ("scenario", "snr_ref_db", -3085.0)])
def test_cli_refuses_powers_outside_the_float_range(tmp_path, capsys, recipe,
                                                    key, value):
    # each of these raised OverflowError or ZeroDivisionError from a power;
    # at snr_ref_db = -3085, 10^(snr_ref_db / 10) is subnormal and the noise
    # power, its inverse, is inf
    cfg = load_preset(recipe)
    _set_leaf(cfg, key.split("."), value)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main([recipe, "--config", str(p), "--out", str(tmp_path)]) == 1
    named = key.removesuffix(".start")   # a swept ratio is named by its axis
    assert capsys.readouterr().err.startswith(f"config error: {named}: ")


@pytest.mark.parametrize("recipe, key, value, message", [
    ("bounds", "scene.k_pulses", 10 ** 400,
     "scene.k_pulses: must be <= 9007199254740992, got 1000"),
    ("scenario", "k_pulses", 10 ** 400,
     "k_pulses: must be <= 9007199254740992, got 1000"),
    ("bounds", "scene.snr_db", -10 ** 400,
     "scene.snr_db: expected a finite number, got -1000"),
    ("bounds", "geometry.m_t", 10 ** 400, "geometry.m_t: must be <= 64, got 1000"),
    ("bounds", "geometry", {"m_t": 64, "m_r": 64},
     "geometry: virtual aperture too wide: the coarse search grid would take "
     "1.452e+05 points over pi rad, above the cap of 65536"),
    ("fig2", "geometry", {"tx_positions": [0.0] * 65, "rx_positions": [0.5]},
     "geometry.tx_positions: 65 elements exceed the cap of 64 per array"),
    ("fig2", "geometry", {"tx_positions": [10 ** 400], "rx_positions": [0.5]},
     "geometry: int too large to convert to float"),
    ("scenario", "geometries.3x16", {"m_t": 3, "m_r": 10 ** 400},
     "geometries.3x16.m_r: must be <= 64, got 1000")],
    ids=["k_pulses", "scenario-k_pulses", "snr_db", "m_t", "64x64", "positions",
         "huge-position", "scenario-m_r"])
def test_cli_refuses_integers_and_arrays_beyond_their_caps(tmp_path, capsys,
                                                           recipe, key, value,
                                                           message):
    # the integers raised OverflowError; 64x64 built a 189 MiB phasor block
    cfg = load_preset(recipe)
    _set_leaf(cfg, key.split("."), value)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main([recipe, "--config", str(p), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {message}")


def test_largest_pulse_count_runs(tmp_path):
    # 2^53, the cap, is the largest count that a float holds exactly
    for recipe in ("bounds", "scenario"):
        cfg = thinned_preset(recipe, points=3)
        _set_leaf(cfg, ["scene", "k_pulses"] if recipe == "bounds" else ["k_pulses"],
                  ex.MAX_PULSES)
        _, rows = read_csv(getattr(ex, f"run_{recipe}")(cfg, tmp_path)["csv"])
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row
                            if v not in ("", "true", "false"))


def test_default_grid_stays_within_the_cap_at_the_widest_aperture():
    # 28x64 (896 wavelengths) is the widest standard 64-element-receive array
    # that the aperture cap lets through: over the widest span, just under
    # +-90 deg, its default grid keeps within MAX_COARSE_POINTS; 29x64 is refused
    geom = ex.geometry_from_config({"geometry": {"m_t": 28, "m_r": 64}})
    half = math.nextafter(math.pi / 2, 0.0)
    assert math.ceil(2 * half / bounds._default_step(geom)) + 1 <= ex.MAX_COARSE_POINTS
    with pytest.raises(ConfigError, match="geometry: virtual aperture too wide"):
        ex.geometry_from_config({"geometry": {"m_t": 29, "m_r": 64}})
    for name in _RUNNERS:   # every preset geometry parses
        cfg = load_preset(name)
        for path in (["geometry"] if "geometry" in cfg else
                     [f"geometries.{g}" for g in cfg["geometries"]]):
            ex.geometry_from_config(cfg, path)


def test_mc_rmse_of_statistics_near_the_float_limit():
    # alpha_d, alpha_i and sigma_w2 scaled by 1e300 scale the SNR by 1e300, so
    # the noise is negligible: the MML sits at theta_A, so its RMSE is the
    # RMCRB (all bias), and the matched ML's RMSE is about the RCRB; both
    # bounds are the unscaled scene's with M and the CRB over 1e300.
    # Unscaled, |tr(A^H Y)|^2 overflows and every estimate lands on the edge
    # of the search span.
    cfg = small_fig2_config()
    geom, est = ex.geometry_from_config(cfg), ex.estimator_from_config(cfg)
    scenes = [ex.scene_from_config(cfg, geom, snr_db=s)
              for s in ex._grids(cfg, "sweep.snr_db")[0]]
    big = [replace(sc, alpha_d=1e300 * sc.alpha_d, alpha_i=1e300 * sc.alpha_i,
                   sigma_w2=1e300 * sc.sigma_w2) for sc in scenes]
    mml = mpcrb.monte_carlo_rmse(big, est, 40, 7)
    ml = mpcrb.monte_carlo_rmse([mpcrb.multipath_free(sc) for sc in big], est, 40, 8)
    for sc, r_mml, r_ml in zip(scenes, mml.rmse_rad, ml.rmse_rad):
        bb = mpcrb.mcrb_theta_closed(sc, search=ex.search_from_config(cfg))
        rmcrb = math.sqrt(bb.b_theta_theta + bb.m_theta_theta / 1e300)
        assert r_mml == pytest.approx(rmcrb, rel=1e-6)
        assert r_ml == pytest.approx(math.sqrt(bb.crb_theta / 1e300), rel=0.5)


# ---------------------------------------------------------------------------
# what the plots draw

LINE_SERIES = {
    "fig2": {"RCRB": "rcrb_deg", "RMCRB": "rmcrb_deg",
             "RMSE MML": "rmse_mml_deg", "RMSE ML": "rmse_ml_deg"},
    "fig3": {"RCRB": "rcrb_deg", "RMCRB": "rmcrb_deg"},
    "fig4": {"RMCRB constructive": "rmcrb_dphi_0_deg",
             "RMCRB destructive": "rmcrb_dphi_2pi3_deg", "RCRB": "rcrb_deg"},
    "scenario": {"RMCRB 3x8": "rmcrb_deg_3x8", "RCRB 3x8": "rcrb_deg_3x8",
                 "RMCRB 3x16": "rmcrb_deg_3x16", "RCRB 3x16": "rcrb_deg_3x16"},
    "montecarlo": {"RMSE MML": "rmse_mml_deg"},
    "beampattern": {"tx": "tx_gain_db", "rx": "rx_gain_db"},
}


def _svg_lines(svg):
    """{legend label: pixel coordinates x0, y0, x1, ... of its drawn samples}."""
    lines, coords = {}, []
    for line in svg.splitlines():
        if line.startswith("<polyline"):
            points = re.search(r'points="([^"]*)"', line).group(1)
            coords += [float(v) for xy in points.split() for v in xy.split(",")]
        elif line.startswith("<circle"):
            coords += [float(v) for v in re.findall(r'c[xy]="([^"]*)"', line)]
        elif m := re.fullmatch(r'<text x="\d+" y="\d+" font-size="11">(.*)</text>',
                               line):
            lines[m.group(1)], coords = coords, []
    return lines


@pytest.mark.parametrize("name", list(LINE_SERIES))
def test_line_plot_draws_each_labelled_column(tmp_path, name):
    # the legend lists the series in order, and each series draws its own CSV
    # column against the first, skipping empty and (log axis) non-positive cells
    ylog = name != "beampattern"
    cfg = small_fig2_config() if name == "fig2" else load_preset(name)
    result = getattr(ex, f"run_{name}")(cfg, tmp_path, svg=True)
    header, rows = read_csv(result["csv"])
    drawn = _svg_lines((tmp_path / f"{name}.svg").read_text())
    assert list(drawn) == list(LINE_SERIES[name])
    samples = {}
    for label, col in LINE_SERIES[name].items():
        cells = [(float(row[0]), row[header.index(col)]) for row in rows]
        samples[label] = [(x, float(y)) for x, y in cells
                          if y != "" and (not ylog or float(y) > 0.0)]
    xs, ys = zip(*[s for pts in samples.values() for s in pts])
    frame = svgplot._Frame((min(xs), max(xs)), (min(ys), max(ys)), ylog=ylog)
    for label, pts in samples.items():
        want = [v for x, y in pts for v in (frame.px(x), frame.py(y))]
        assert drawn[label] == pytest.approx(want, abs=1e-3)


def test_fig5_contour_marks_each_neighbour_pair_straddling_one(tmp_path):
    cfg = load_preset("fig5")
    cfg["grid"] = {
        "delta_phi_rad": {"start": -math.pi, "stop": math.pi, "step": math.pi / 12},
        "delta_theta_deg": {"start": 0.0, "stop": 40.0, "step": 2.0},
    }
    _, rows = read_csv(run_fig5(cfg, tmp_path, svg=True)["csv"])
    nx = len({row[0] for row in rows})
    z = [float(row[2]) if row[2] else None for row in rows]
    grid = [z[k:k + nx] for k in range(0, len(z), nx)]
    pairs = [(r[j], r[j + 1]) for r in grid for j in range(nx - 1)]
    pairs += [ab for r0, r1 in zip(grid, grid[1:]) for ab in zip(r0, r1)]
    want = sum(a is not None and b is not None and (a - 1.0) * (b - 1.0) < 0
               for a, b in pairs)
    svg = (tmp_path / "fig5.svg").read_text()
    assert svg.count('stroke="black" stroke-width="1.2"') == want > 0
