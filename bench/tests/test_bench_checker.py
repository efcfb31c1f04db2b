"""Tests of the benchmark's own checker and workload inputs.

They run in seconds and run no workload: each corrupts a copy of a stored
reference CSV in memory (or in a temporary directory) and expects the
checker to flag it.  Most run at both sizes of each workload.
"""

import copy
import csv
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from check import (MC_SIGMAS, check_table, column_rules,  # noqa: E402
                   compare, mc_rel_se, recompute, reference)
from mpcrb.cli import load_preset  # noqa: E402
from workloads import (DEFAULT_SEED, SIZES, WORKLOADS,  # noqa: E402
                       config_for_seed, grid_values, items, rows)


def _config(name, size, seed=DEFAULT_SEED):
    w = WORKLOADS[name]
    return config_for_seed(w, load_preset(w.preset), seed, size=size)


def _check(name, size, header, data):
    return check_table(WORKLOADS[name], _config(name, size), DEFAULT_SEED,
                       size, header, data)


def _first_filled(header, data, col):
    j = header.index(col)
    i = next(i for i, row in enumerate(data) if row[j] != "")
    return i, j


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_checker_accepts_stored_reference(name, size):
    header, data = reference(WORKLOADS[name], size)
    verdict = _check(name, size, header, data)
    assert verdict.checked == rows(WORKLOADS[name], _config(name, size))
    assert verdict.failed == 0, verdict.problems


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name,col", [("mc_snr", "rcrb_deg"),
                                      ("range_sweep", "rcrb_deg_3x16"),
                                      ("range_sweep", "psi_deg")])
def test_checker_flags_1e6_relative_change_in_bound_column(name, col, size):
    header, data = reference(WORKLOADS[name], size)
    i, j = _first_filled(header, data, col)
    data = copy.deepcopy(data)
    data[i][j] = repr(float(data[i][j]) * (1.0 + 1e-6))
    verdict = _check(name, size, header, data)
    assert verdict.failed == 1 and f"row {i + 1}:" in verdict.problems[0]


@pytest.mark.parametrize("size", SIZES)
def test_checker_flags_theta_a_column_beyond_refine_tol(size):
    # rmcrb/rcrb may move by refine_tol / rcrb (about 5e-6 here), not 1e-4
    header, data = reference(WORKLOADS["ratio_map"], size)
    i, j = _first_filled(header, data, "rmcrb_over_rcrb")
    data = copy.deepcopy(data)
    data[i][j] = repr(float(data[i][j]) * (1.0 + 1e-4))
    assert _check("ratio_map", size, header, data).failed == 1


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name,col", [("ratio_map", "rmcrb_over_rcrb"),
                                      ("mc_snr", "rmcrb_deg"),
                                      ("range_sweep", "ratio_3x8")])
def test_checker_flags_emptied_cell(name, col, size):
    header, data = reference(WORKLOADS[name], size)
    i, j = _first_filled(header, data, col)
    data = copy.deepcopy(data)
    data[i][j] = ""
    assert _check(name, size, header, data).failed == 1


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("col", ["rmse_mml_deg", "rmse_ml_deg"])
@pytest.mark.parametrize("sigmas,flagged", [(10.0, True), (-10.0, True),
                                            (2.0, False)])
def test_checker_flags_mc_column_moved_by_10_standard_errors(col, sigmas,
                                                             flagged, size):
    header, data = reference(WORKLOADS["mc_snr"], size)
    rel_se = mc_rel_se(_config("mc_snr", size))[col]
    j = header.index(col)
    data = copy.deepcopy(data)
    for i, row in enumerate(data):
        ref = float(row[j])
        row[j] = repr(ref * (1.0 + sigmas * rel_se[i]))
    assert MC_SIGMAS * math.sqrt(2.0) < 10.0
    verdict = _check("mc_snr", size, header, data)
    assert verdict.failed == (len(data) if flagged else 0), verdict.problems


def test_checker_flags_wrong_row_count_and_header():
    header, data = reference(WORKLOADS["range_sweep"], "timed")
    n = len(data)
    assert _check("range_sweep", "timed", header, data[:-1]).failed == n
    assert _check("range_sweep", "timed", header[::-1], data).failed == n
    # a timed-size table is not a preset-size one
    assert _check("range_sweep", "preset", header, data).failed == 393


def test_default_seed_yields_the_presets():
    for w in WORKLOADS.values():
        assert config_for_seed(w, load_preset(w.preset), DEFAULT_SEED,
                               size="preset") == load_preset(w.preset)


def _leaf(config, path):
    *parents, leaf = path.split(".")
    for part in parents:
        config = config[part]
    return config, leaf


def test_timed_size_changes_only_its_own_fields():
    for w in WORKLOADS.values():
        preset = load_preset(w.preset)
        timed = config_for_seed(w, preset, DEFAULT_SEED, size="timed")
        for path, value in w.timed:
            (t, leaf), (p, _) = _leaf(timed, path), _leaf(preset, path)
            assert t[leaf] == value != p[leaf]
            t[leaf] = p[leaf]
        assert timed == preset


@pytest.mark.parametrize("size", SIZES)
def test_other_seed_shifts_grids_within_one_step_and_keeps_size(size):
    for w in WORKLOADS.values():
        base_config = config_for_seed(w, load_preset(w.preset), DEFAULT_SEED,
                                      size=size)
        config = config_for_seed(w, load_preset(w.preset), 3, size=size)
        assert config["seed"] == 3
        assert config_for_seed(w, load_preset(w.preset), 3, size=size) == config
        assert items(w, config) == items(w, base_config)
        for path in w.grids:
            base = grid_values(base_config, path)
            moved = grid_values(config, path)
            step = base[1] - base[0]
            assert len(moved) == len(base)
            assert all(0.0 <= m - b < step for b, m in zip(base, moved))


def test_workload_sizes():
    sizes = {name: tuple(items(WORKLOADS[name], _config(name, size))
                         for size in ("timed", "preset"))
             for name in WORKLOADS}
    assert sizes == {"ratio_map": (9 * 9, 97 * 81),
                     "mc_snr": (11 * 60 * 2, 11 * 2_000 * 2),
                     "range_sweep": (29 * 2, 393 * 2)}


def test_bad_row_in_a_sample_makes_the_run_exit_nonzero(tmp_path):
    w = WORKLOADS["mc_snr"]
    header, data = reference(w, "timed")
    bad = copy.deepcopy(data)
    bad[3][header.index("rcrb_deg")] = "0.5"
    for sample, table in (("sample-0", bad), ("sample-1", data)):
        (tmp_path / sample).mkdir()
        with open(tmp_path / sample / w.csv, "w", newline="") as fh:
            csv.writer(fh).writerows([header, *table])
    verdict, _ = run._check_samples(w, _config("mc_snr", "timed"), DEFAULT_SEED,
                                    "timed",
                                    [tmp_path / "sample-0", tmp_path / "sample-1"],
                                    len(data))
    # the bad row fails in the checked first sample; the second sample
    # differs from the first, so all its rows fail
    assert (verdict.checked, verdict.failed) == (2 * len(data), 1 + len(data))
    check = {"rows_checked": verdict.checked, "rows_failed": verdict.failed}
    result, code = run.result_line([("mc_snr", check, {})])
    assert code != 0 and result["correct"] is False


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_recomputed_sample_agrees_with_stored_reference(name, size):
    # the oracle used at non-default seeds, run on the default grid
    w = WORKLOADS[name]
    config = _config(name, size)
    header, data = reference(w, size)
    expected, se = recompute(w, config, DEFAULT_SEED)
    verdict = compare(header, data, expected, column_rules(w, config), se)
    assert verdict.checked == len(data)
    assert verdict.failed == 0, verdict.problems
