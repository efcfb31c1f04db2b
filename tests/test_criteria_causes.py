"""Why acceptance criteria 04, 06, 07 and 08 fail, as tests that pass.

Each of those criteria misses its stated target for a reason the README gives
in prose.  Each test here checks that reason numerically, on the criterion's
own scenes or preset, at a tolerance fixed before it was measured, so a change
that moves a failure onto another mechanism shows up here.
"""

import csv
import math

import numpy as np
import pytest

from mpcrb import beampattern, scene_from_ratios, standard_virtual_ula, virtual_hpbw
from mpcrb.bounds import _closed, _model, _sandwich
from mpcrb.cli import load_preset
import mpcrb.experiments as ex


def _read(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(row[key] or "nan") for row in rows]) for key in rows[0]}


def _criterion_04_model():
    """The batched model of criterion 04's 1,000 scenes, drawn as it draws them."""
    geom = standard_virtual_ula(3, 4)
    rng = np.random.default_rng(4242)
    hpbw = virtual_hpbw(geom)
    scenes = []
    for _ in range(1000):
        smr_db = float(rng.uniform(-10.0, 30.0))
        dth = float(rng.uniform(-2 * hpbw, 2 * hpbw))
        dphi = float(rng.uniform(-math.pi, math.pi))
        scenes.append(scene_from_ratios(geom, 0.0, -dth, 10.0, smr_db, dphi))
    return _model(scenes)


def _closed_vs_sandwich(mod):
    """Relative deviation of the closed-form M from the sandwich's (theta, theta)
    element, per scene; every scene must be valid on both routes."""
    closed = _closed(mod, None)[0]
    m, sandwich, _ = _sandwich(mod, None)
    assert closed.valid.all() and sandwich.valid.all()
    return np.abs(closed.m - m[:, 4, 4]) / np.abs(m[:, 4, 4])


def test_criterion_04_closed_form_drops_only_the_zeta5_feedback():
    # both routes read the same zeta entries; only the 5x5 inverse feeds the
    # DOA-amplitude coupling zeta5 back, and zeta4 never reaches theta
    mod = _criterion_04_model()
    devs = _closed_vs_sandwich(mod)
    assert devs.max() > 1e3
    zero = np.zeros_like(mod.zeta5)
    assert _closed_vs_sandwich(mod._replace(zeta5=zero)).max() < 1e-12
    np.testing.assert_allclose(_closed_vs_sandwich(mod._replace(zeta4=zero)), devs,
                               rtol=1e-12, atol=0.0)


def test_criterion_06_dips_sit_where_the_pseudo_true_bias_changes_sign():
    # the dip near each grating lobe is the cell where theta - theta_A changes
    # sign, 1.5 deg inside the +-30 deg the criterion expects
    cfg = load_preset("fig3")
    geom = ex.geometry_from_config(cfg)
    search = ex.search_from_config(cfg)
    theta = math.radians(cfg["scene"]["theta_deg"])
    dths = np.array(ex._grids(cfg, "sweep.delta_theta_deg")[0])
    cols = ex._sweep_bounds(cfg, geom, search, psi_rad=theta - np.radians(dths))
    ratio, sign = cols.mcrb / cols.crb, np.sign(theta - cols.theta_a)
    for lo, hi in ((20.0, 40.0), (-40.0, -20.0)):
        inside = np.flatnonzero((lo < dths) & (dths < hi))
        assert cols.valid[inside[0] - 1:inside[-1] + 2].all()
        dips = [i for i in inside if ratio[i - 1] > ratio[i] < ratio[i + 1]]
        flips = [i for i in inside if sign[i] != sign[i + 1]]   # cell i .. i + 1
        assert len(dips) == len(flips) == 1, (dths[dips], dths[flips])
        assert dips[0] in (flips[0], flips[0] + 1)


def test_criterion_07_gap_at_40_db_is_two_cos_dphi_over_root_smr(tmp_path):
    # the closed form approaches the CRB as 2 cos(dphi) / sqrt(SMR): 2% and -1%
    # at 40 dB, not the criterion's 1%
    data = _read(ex.run_fig4(load_preset("fig4"), tmp_path)["csv"])
    i40 = int(np.flatnonzero(data["smr_db"] == 40.0)[0])
    for column, dphi in (("rmcrb_dphi_0_deg", 0.0),
                         ("rmcrb_dphi_2pi3_deg", 2.0 * math.pi / 3.0)):
        gap = 1.0 - data[column][i40] / data["rcrb_deg"][i40]
        assert gap == pytest.approx(2.0 * math.cos(dphi) / math.sqrt(1e4), rel=0.05)


def test_criterion_08_worst_row_sits_on_the_transmit_grating_lobe(tmp_path):
    # criterion 08's grid and spread; at the worst row's separation the sparse
    # transmit array (positions -2, 0, 2 wavelengths) still has full gain, so
    # the indirect path stays coupled although the receive array rejects it
    cfg = load_preset("fig5")
    cfg["grid"] = {
        "delta_phi_rad": {"start": -math.pi, "stop": math.pi, "step": math.pi / 24.0},
        "delta_theta_deg": {"start": 0.0, "stop": 40.0, "step": 0.5},
    }
    data = _read(ex.run_fig5(cfg, tmp_path)["csv"])
    geom = ex.geometry_from_config(cfg)
    dth, ratio = data["delta_theta_deg"], data["rmcrb_over_rcrb"]
    rows = [ratio[dth == t] for t in np.unique(dth)]
    spread = {t: (np.nanmax(row) - np.nanmin(row)) / np.nanmean(row)
              for t, row in zip(np.unique(dth), rows)
              if t >= 3.0 * math.degrees(virtual_hpbw(geom))}
    worst = max(spread, key=spread.get)
    theta = math.radians(cfg["scene"]["theta_deg"])
    (tx_db,), (rx_db,) = beampattern(geom, theta, np.array([theta - math.radians(worst)]))
    assert tx_db > -1.0 and rx_db < -20.0, (worst, tx_db, rx_db)
