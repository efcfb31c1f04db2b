"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  Each
test asserts the criterion at its stated tolerance; failure messages carry
the measured values.  Monte-Carlo criteria use the shipped presets, so the
numbers are reproducible bit-for-bit.
"""

import math

import numpy as np
import pytest
from conftest import raw_steering

from mpcrb import (ArrayGeometry, ConditioningError, DegenerateBoundError,
                   SearchConfig, crb_theta, mcrb_sandwich, mcrb_theta_closed,
                   multipath_free, range_point, scene_from_ratios,
                   standard_virtual_ula, virtual_hpbw, wrap_phase)
from mpcrb.arrays import _direct_indirect, _vectors
from mpcrb.bounds import _crb, _projection_derivs
from mpcrb.cli import load_preset
from mpcrb.experiments import run_fig2, run_fig3, run_fig4, run_fig5, run_scenario
from mpcrb.ground import GroundScenario
import mpcrb.experiments as exp

GEOM = standard_virtual_ula(3, 4)


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _read(path):
    import csv
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = {h: [] for h in header}
    for row in rows[1:]:
        for h, c in zip(header, row):
            data[h].append(float(c) if c not in ("", "true", "false")
                           else (math.nan if c == "" else c == "true"))
    return {h: np.array(v) for h, v in data.items()}


def test_criterion_01_coherent_limit():
    """Three coherent equal paths: the DOA bound drops to one ninth of the
    matched-model bound, relative error below 1e-10.  Milliseconds."""
    sc = scene_from_ratios(GEOM, 0.0, 0.0, 10.0, 0.0, 0.0)
    bb = mcrb_theta_closed(sc, search=SearchConfig(refine_tol=1e-9))
    rel = abs(bb.mcrb_theta - bb.crb_theta / 9.0) / (bb.crb_theta / 9.0)
    ok = _report(1, "coherent-limit MCRB = CRB/9", rel < 1e-10,
                 f"relative error {rel:.3e} (tolerance 1e-10)")
    assert ok


def test_criterion_02_multipath_free_limit():
    """No indirect path: the misspecified bound collapses to the matched
    bound.  Checked exactly at alpha_i = 0 and numerically at SMR = 1e12
    on a scene with the reflector in a sidelobe (the finite-SMR residual
    scales with the angle-coupling traces, which are weak there).
    Milliseconds."""
    clean = multipath_free(scene_from_ratios(GEOM, 0.0, np.deg2rad(12.0),
                                             10.0, 0.0, 0.0))
    bb0 = mcrb_theta_closed(clean)
    exact_ok = bb0.mcrb_theta == bb0.crb_theta and bb0.theta_a == 0.0

    sc = scene_from_ratios(GEOM, 0.0, np.deg2rad(12.0), 10.0, 120.0, 0.0)
    bb = mcrb_theta_closed(sc, search=SearchConfig(refine_tol=1e-8))
    ratio = bb.mcrb_theta / bb.crb_theta
    theta_gap = abs(bb.theta_a - sc.theta)
    ok = _report(2, "multipath-free limit",
                 exact_ok and abs(ratio - 1.0) < 1e-6 and theta_gap < 1e-7,
                 f"alpha_i=0 exact: {exact_ok}; SMR=1e12: MCRB/CRB-1 = "
                 f"{ratio - 1.0:+.3e} (tol 1e-6), |theta_A - theta| = "
                 f"{theta_gap:.3e} rad (tol 1e-7)")
    assert ok


def test_criterion_03_array_identities():
    """200 random centered geometries/angles: derivative-orthogonality and
    curvature traces hold, analytic derivatives match central differences.
    The traces are the c_k = tr(d^k A^H(theta) Y) of the bounds' one derivative
    of A: c1 = 0 and c2 = -E_Adot on Y = A(theta), and c1 on Y = A_i against a
    central difference of c0 built from raw steering vectors.  Seconds."""
    rng = np.random.default_rng(42)
    worst_i3 = worst_i4 = worst_fd = 0.0

    def derivs(geom, y, theta):
        return [c[0] for c in _projection_derivs(geom, y, np.array([theta]))]

    def raw_c0(geom, y, phi):
        return np.vdot(np.outer(raw_steering(geom.rx_positions, phi),
                                raw_steering(geom.tx_positions, phi)), y)

    for _ in range(200):
        m_t = int(rng.integers(1, 6))
        m_r = int(rng.integers(2, 10))
        geom = ArrayGeometry(tx_positions=rng.uniform(-5, 5, m_t),
                             rx_positions=rng.uniform(-4, 4, m_r))
        theta = float(rng.uniform(-1.3, 1.3))
        psi = float(rng.uniform(-1.3, 1.3))
        a_d, a_i = _direct_indirect(_vectors(geom, [theta]), _vectors(geom, [psi]))
        _, c1, c2 = derivs(geom, a_d, theta)
        e = _crb(geom, np.array([theta]), 1.0, 1, 1.0)[1][0]
        worst_i3 = max(worst_i3, abs(c1))
        if e > 0:
            worst_i4 = max(worst_i4, abs(c2 + e) / e)
        h = 1e-6
        fd = (raw_c0(geom, a_i[0], theta + h) - raw_c0(geom, a_i[0], theta - h)) / (2 * h)
        scale = max(abs(fd), 1e-9)
        worst_fd = max(worst_fd, abs(derivs(geom, a_i, theta)[1] - fd) / scale)
    ok = _report(3, "array trace identities", worst_i3 < 1e-12
                 and worst_i4 < 1e-10 and worst_fd < 1e-6,
                 f"max |tr(dA^H A)| = {worst_i3:.2e} (tol 1e-12), max rel "
                 f"curvature-trace residual = {worst_i4:.2e} (tol 1e-10), "
                 f"max FD mismatch = {worst_fd:.2e} (tol 1e-6)")
    assert ok


def test_criterion_04_closed_form_vs_sandwich():
    """1000 random scenes: closed-form DOA element against element (5,5) of
    the inverted-curvature sandwich, target max relative deviation < 1e-6.

    The closed form treats the amplitude/DOA coupling perturbatively (its
    denominator omits the |zeta5|^2 feedback and the zeta4 column), so the
    two routes agree only where the coupling trace vanishes; the measured
    deviation is reported either way."""
    rng = np.random.default_rng(4242)
    hpbw = virtual_hpbw(GEOM)
    devs = []
    skipped = 0
    for _ in range(1000):
        smr_db = float(rng.uniform(-10.0, 30.0))
        dth = float(rng.uniform(-2 * hpbw, 2 * hpbw))
        dphi = float(rng.uniform(-math.pi, math.pi))
        sc = scene_from_ratios(GEOM, 0.0, -dth, 10.0, smr_db, dphi)
        try:
            closed = mcrb_theta_closed(sc)
            _, sand = mcrb_sandwich(sc)
        except (DegenerateBoundError, ConditioningError):
            skipped += 1
            continue
        devs.append(abs(closed.m_theta_theta - sand.m_theta_theta)
                    / abs(sand.m_theta_theta))
    devs = np.array(devs)
    detail = (f"max rel deviation = {devs.max():.3e}, median = "
              f"{np.median(devs):.3e} over {devs.size} scenes "
              f"({skipped} degenerate skipped); target < 1e-6")
    ok = _report(4, "closed form vs sandwich oracle", devs.max() < 1e-6, detail)
    assert ok, ("closed-form/sandwich deviation exceeds target: " + detail
                + "; the closed form is a leading-order reduction, exact "
                  "only when the DOA-amplitude coupling trace is zero")


def test_criterion_05_mml_asymptotic_tightness(tmp_path):
    """Fig-2-style sweep with the shipped preset (2000 trials per SNR,
    -10..40 dB in 5 dB steps): (a) high-SNR RMSE within [RMCRB, 1.15 RMCRB],
    (b) RMCRB below RCRB up to 15 dB, (c) plateau within 5% of the
    pseudo-true offset.  About two seconds."""
    cfg = load_preset("fig2")
    result = run_fig2(cfg, tmp_path)
    data = _read(result["csv"])
    snr = data["snr_db"]

    hi = snr >= 25.0
    ratios = data["rmse_mml_deg"][hi] / data["rmcrb_deg"][hi]
    a_ok = bool(np.all((ratios >= 1.0) & (ratios <= 1.15)))

    lo = snr <= 15.0
    b_ok = bool(np.all(data["rmcrb_deg"][lo] < data["rcrb_deg"][lo]))

    sc = scene_from_ratios(GEOM, 0.0, np.deg2rad(0.5), 40.0, 0.0, 0.0, 8)
    offset = math.degrees(abs(mcrb_theta_closed(sc).theta_a))
    plateau = data["rmse_mml_deg"][-1]
    c_ok = abs(plateau / offset - 1.0) < 0.05

    detail = (f"(a) RMSE/RMCRB at 25..40 dB = "
              f"{np.array2string(ratios, precision=4)} (need [1, 1.15]): "
              f"{'ok' if a_ok else 'violated'}; (b) RMCRB<RCRB for SNR<=15: "
              f"{b_ok}; (c) plateau/|theta_A-theta| = {plateau / offset:.4f} "
              f"(tol 5%): {c_ok}")
    ok = _report(5, "MML asymptotic tightness", a_ok and b_ok and c_ok, detail)
    assert ok, ("criterion 5 failed: " + detail + "; the estimator attains "
                "the bound so tightly that its finite-SNR bias undershoots "
                "the asymptotic offset, putting E[RMSE] a fraction of a "
                "percent below RMCRB")


def test_criterion_06_separation_sweep_structure(tmp_path):
    """Fig-3-style sweep: bound ratio exactly 1/3 at zero separation
    (root units, 1e-9) and local minima within 0.5 deg of +-30 deg."""
    cfg = load_preset("fig3")
    result = run_fig3(cfg, tmp_path)
    data = _read(result["csv"])
    dth = data["delta_theta_deg"]
    rmcrb = data["rmcrb_deg"]
    rcrb = data["rcrb_deg"]

    i0 = int(np.argmin(np.abs(dth)))
    third = rmcrb[i0] / rcrb[i0]
    a_ok = abs(third - 1.0 / 3.0) < 1e-9

    minima = []
    for i in range(1, len(dth) - 1):
        window = rmcrb[i - 1:i + 2]
        if np.isnan(window).any():
            continue
        if rmcrb[i] < rmcrb[i - 1] and rmcrb[i] < rmcrb[i + 1]:
            minima.append(dth[i])
    minima = np.array(minima)
    near_pos = minima[np.abs(minima - 30.0) <= 2.5]
    near_neg = minima[np.abs(minima + 30.0) <= 2.5]
    b_ok = (near_pos.size > 0 and np.abs(near_pos - 30.0).min() <= 0.5
            and near_neg.size > 0 and np.abs(near_neg + 30.0).min() <= 0.5)

    detail = (f"ratio at zero separation = {third:.12f} (1/3 tol 1e-9): "
              f"{a_ok}; local minima near +-30 deg at {near_pos} / {near_neg} "
              f"(need within 0.5 deg): {b_ok}")
    ok = _report(6, "separation-sweep structure", a_ok and b_ok, detail)
    assert ok, ("criterion 6 failed: " + detail + "; the pseudo-true bias "
                "changes sign at 28.5 deg for this geometry, so the dip "
                "sits 1.5 deg inside the grating-lobe angle")


def test_criterion_07_smr_sweep_structure(tmp_path):
    """Fig-4-style sweep: the destructive-phase curve peaks within 2 dB of
    SMR = 0 dB; both curves converge to the matched bound within 1% at
    SMR = 40 dB."""
    cfg = load_preset("fig4")
    result = run_fig4(cfg, tmp_path)
    data = _read(result["csv"])
    smr = data["smr_db"]
    des = data["rmcrb_dphi_2pi3_deg"]
    con = data["rmcrb_dphi_0_deg"]
    rcrb = data["rcrb_deg"]

    peak_at = smr[int(np.nanargmax(des))]
    a_ok = abs(peak_at) <= 2.0

    i40 = int(np.argmin(np.abs(smr - 40.0)))
    dev_con = abs(con[i40] / rcrb[i40] - 1.0)
    dev_des = abs(des[i40] / rcrb[i40] - 1.0)
    b_ok = dev_con < 0.01 and dev_des < 0.01

    detail = (f"destructive peak at SMR = {peak_at:+.2f} dB (tol 2 dB): "
              f"{a_ok}; 40 dB deviations from RCRB: constructive "
              f"{dev_con:.4f}, destructive {dev_des:.4f} (tol 0.01): {b_ok}")
    ok = _report(7, "SMR-sweep structure", a_ok and b_ok, detail)
    assert ok, ("criterion 7 failed: " + detail + "; convergence toward the "
                "matched bound goes as 2cos(dphi)/sqrt(SMR), i.e. ~2% at "
                "40 dB for near-coincident angles, independent of geometry")


def test_criterion_08_phase_separation_map(tmp_path):
    """Fig-5-style ratio map at SNR 10 dB, SMR 10 dB: below unity at
    (dphi=0, dtheta=1 deg), above unity at (dphi=pi, dtheta=1 deg), and
    rows at |dtheta| >= 3 beamwidths flat within 10% across dphi."""
    cfg = load_preset("fig5")
    cfg["grid"] = {
        "delta_phi_rad": {"start": -math.pi, "stop": math.pi,
                          "step": math.pi / 24.0},
        "delta_theta_deg": {"start": 0.0, "stop": 40.0, "step": 0.5},
    }
    result = run_fig5(cfg, tmp_path)
    data = _read(result["csv"])
    dphi = data["delta_phi_rad"]
    dth = data["delta_theta_deg"]
    ratio = data["rmcrb_over_rcrb"]

    at = lambda p, t: ratio[(np.abs(dphi - p) < 1e-9) & (np.abs(dth - t) < 1e-9)][0]
    a_ok = at(0.0, 1.0) < 1.0
    b_ok = at(math.pi, 1.0) > 1.0

    hpbw_deg = math.degrees(virtual_hpbw(GEOM))
    spreads = {}
    for t in np.unique(dth):
        if t < 3.0 * hpbw_deg:
            continue
        vals = ratio[dth == t]
        spreads[float(t)] = float((np.nanmax(vals) - np.nanmin(vals))
                                  / np.nanmean(vals))
    worst_row = max(spreads, key=spreads.get)
    c_ok = all(s < 0.10 for s in spreads.values())

    detail = (f"ratio(0, 1deg) = {at(0.0, 1.0):.3f} (<1): {a_ok}; "
              f"ratio(pi, 1deg) = {at(math.pi, 1.0):.3f} (>1): {b_ok}; "
              f"rows >= {3 * hpbw_deg:.1f} deg: worst spread "
              f"{spreads[worst_row]:.1%} at {worst_row} deg (tol 10%): {c_ok}")
    ok = _report(8, "phase/separation ratio map", a_ok and b_ok and c_ok, detail)
    assert ok, ("criterion 8 failed: " + detail + "; the sparse transmit "
                "array keeps the indirect-path coupling strong at large "
                "separations, so those rows stay phase-sensitive")


def _asphalt_scenario(grid):
    return GroundScenario(h_r=1.0, wavelength=0.0038, eps_r=4.0,
                          gamma_cond=0.005, range_grid=np.asarray(grid), v=10.0,
                          r_res=0.5, v_res=0.05, k_pulses=256,
                          snr_ref_db=20.0, r_ref=50.0)


def test_criterion_09_scenario_physics():
    """Dry-asphalt physics: mirror limit of the reflection coefficient,
    normal-incidence value, amplitude-ratio null around 4 m, and the
    long-range phase-difference asymptote."""
    from mpcrb import reflection_coefficient

    g0 = reflection_coefficient(math.radians(0.1), 4.0, 0.005, 0.0038)
    a_ok = abs(g0 + 1.0) < 0.01

    gq = reflection_coefficient(math.pi / 2, 4.0, 0.0, 0.0038)
    b_ok = abs(gq - 1.0 / 3.0) < 1e-12

    grid = np.arange(2.0, 8.0001, 0.05)
    scn, geom = _asphalt_scenario(grid), standard_virtual_ula(3, 8)
    amp = np.array([10 ** (-range_point(scn, float(r), geom=geom).smr_db / 20.0)
                    for r in grid])
    i_min = int(np.argmin(amp))
    r_null = grid[i_min]
    c_ok = (3.0 <= r_null <= 5.0 and 0 < i_min < len(grid) - 1
            and amp[i_min] < amp[0] and amp[i_min] < amp[-1])

    pt = range_point(scn, 200.0, geom=geom)
    phi_rd = 2 * math.pi * pt.r_d / scn.wavelength
    phi_ri = 2 * math.pi * pt.r_i / scn.wavelength
    gap = abs(wrap_phase(pt.delta_phi - wrap_phase(phi_rd - phi_ri + math.pi)))
    d_ok = gap < 1e-2

    detail = (f"|Gamma(0.1deg)+1| = {abs(g0 + 1.0):.4f} (<0.01): {a_ok}; "
              f"Gamma(90deg, lossless) = {gq.real:.15f} (1/3 to 1e-12): "
              f"{b_ok}; amplitude-ratio null at {r_null:.2f} m (in [3,5]): "
              f"{c_ok}; phase asymptote gap at 200 m = {gap:.2e} rad "
              f"(<1e-2): {d_ok}")
    ok = _report(9, "ground-scenario physics", a_ok and b_ok and c_ok and d_ok,
                 detail)
    assert ok


def test_criterion_10_two_array_range_sweep(tmp_path):
    """Range sweep for 3x8 vs 3x16 vertical arrays.

    Checks: (a) the matched-bound ratio between the arrays is constant in
    range; (b) the misspecified bounds differ by more than 3 dB somewhere
    below 50 m; (c) beyond a crossover range the curves agree within 1 dB
    outside destructive-interference windows; (d) the destructive windows
    produce local maxima whose phase difference sits near +-2pi/3.

    Near-destructive windows are identified by |2 cos(dphi) + sqrt(SMR)|
    < 0.5, the closed form's cancellation condition for nearly coincident
    angles.  Inside those windows the bound genuinely spikes (that is
    clause (d)), and the two arrays' spikes differ by up to the matched
    ratio, so an everywhere-within-1-dB reading would contradict clause
    (d); the agreement clause is therefore evaluated outside the windows."""
    cfg = load_preset("scenario")
    result = run_scenario(cfg, tmp_path)
    data = _read(result["csv"])
    r_d = data["r_d_m"]
    same = data["same_cell"].astype(bool)
    rc8, rm8 = data["rcrb_deg_3x8"], data["rmcrb_deg_3x8"]
    rc16, rm16 = data["rcrb_deg_3x16"], data["rmcrb_deg_3x16"]

    rcrb_ratio = rc8 / rc16
    a_ok = float(np.nanmax(np.abs(rcrb_ratio / np.nanmedian(rcrb_ratio) - 1.0))) < 1e-9

    valid = same & ~np.isnan(rm8) & ~np.isnan(rm16)
    gap_db = 20.0 * np.log10(rm8 / rm16)
    b_ok = bool(np.nanmax(np.abs(gap_db[valid & (r_d < 50.0)])) > 3.0)

    prox = np.abs(2.0 * np.cos(data["delta_phi_rad"])
                  + 10 ** (data["smr_db"] / 20.0))
    included = valid & (prox >= 0.5)
    crossover = None
    idx = np.flatnonzero(included)
    for k in idx:
        if np.all(np.abs(gap_db[idx[idx >= k]]) <= 1.0):
            crossover = r_d[k]
            break
    c_ok = crossover is not None and crossover <= 80.0

    peaks = []
    vi = np.flatnonzero(valid)
    for k in range(1, len(vi) - 1):
        i0, i1, i2 = vi[k - 1], vi[k], vi[k + 1]
        if rm8[i1] > rm8[i0] and rm8[i1] > rm8[i2]:
            peaks.append(i1)
    blind = [i for i in peaks if prox[i] < 0.5 and r_d[i] >= 40.0]
    phases = np.abs([wrap_phase(data["delta_phi_rad"][i]) for i in blind])
    d_ok = len(blind) >= 3 and bool(np.all(np.abs(phases - 2 * math.pi / 3) < 0.5))

    detail = (f"(a) RCRB ratio constant to "
              f"{np.nanmax(np.abs(rcrb_ratio / np.nanmedian(rcrb_ratio) - 1.0)):.1e}"
              f" (tol 1e-9): {a_ok}; (b) max gap below 50 m = "
              f"{np.nanmax(np.abs(gap_db[valid & (r_d < 50.0)])):.1f} dB (>3): "
              f"{b_ok}; (c) 1 dB crossover at {crossover} m (<=80): {c_ok}; "
              f"(d) {len(blind)} destructive maxima beyond 40 m, |dphi| = "
              f"{np.array2string(phases, precision=2)} (within 2pi/3 +- 0.5): "
              f"{d_ok}")
    ok = _report(10, "two-array range sweep", a_ok and b_ok and c_ok and d_ok,
                 detail)
    assert ok


def test_criterion_11_determinism(tmp_path):
    """Re-running any Monte-Carlo experiment with the same config reproduces
    the CSV byte-for-byte, for any worker-pool size."""
    from mpcrb.experiments import run_montecarlo

    fig2 = load_preset("fig2")
    fig2["trials"] = 50
    fig2["sweep"] = {"snr_db": {"start": 0.0, "stop": 20.0, "step": 10.0}}
    a = run_fig2(fig2, tmp_path / "a", workers=1)
    b = run_fig2(fig2, tmp_path / "b", workers=4)
    c = run_fig2(fig2, tmp_path / "c", workers=2)
    fig2_ok = (a["csv"].read_bytes() == b["csv"].read_bytes()
               == c["csv"].read_bytes())

    mc = load_preset("montecarlo")
    mc["trials"] = 30
    d = run_montecarlo(mc, tmp_path / "d")
    e = run_montecarlo(mc, tmp_path / "e")
    mc_ok = d["csv"].read_bytes() == e["csv"].read_bytes()

    scen = load_preset("scenario")
    scen["range_grid_m"] = {"start": 30.0, "stop": 50.0, "step": 0.5}
    f = run_scenario(scen, tmp_path / "f")
    g = run_scenario(scen, tmp_path / "g")
    scen_ok = f["csv"].read_bytes() == g["csv"].read_bytes()

    ok = _report(11, "byte-identical reruns", fig2_ok and mc_ok and scen_ok,
                 f"fig2 across worker counts: {fig2_ok}; montecarlo: {mc_ok}; "
                 f"scenario: {scen_ok}")
    assert ok
