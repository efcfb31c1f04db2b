import math

import numpy as np
import pytest

from mpcrb import (SearchConfig, crb_theta, compressed_mean,
                   mcrb_theta_closed, mml_doa, monte_carlo_rmse,
                   multipath_free, scene_from_ratios, standard_virtual_ula,
                   synthesize_compressed, theta_a)
from mpcrb.bounds import _BLOCK, _argmax_projection, _resolve_search
from mpcrb.estimation import MML_SEARCH, _scene_errors

GEOM = standard_virtual_ula(3, 4)


def fig2_scene(snr_db=10.0):
    return scene_from_ratios(GEOM, 0.0, np.deg2rad(0.5), snr_db, 0.0, 0.0, 8, 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(span=(0.5, 0.1))
    with pytest.raises(ValueError):
        SearchConfig(coarse_step=1e-8, refine_tol=1e-6)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        mml_doa(np.zeros((2, 2), dtype=complex), GEOM)


def test_noise_free_matched_recovers_theta():
    sc = multipath_free(scene_from_ratios(GEOM, np.deg2rad(7.0), 0.1,
                                          10.0, 0.0, 0.0))
    got = mml_doa(compressed_mean(sc), GEOM)
    assert abs(got - sc.theta) < 1e-6


def test_noise_free_multipath_converges_to_pseudo_true():
    sc = fig2_scene()
    got = mml_doa(compressed_mean(sc), GEOM)
    assert abs(got - theta_a(sc)) < 10 * 1e-6


def test_mml_scale_invariance():
    sc = fig2_scene()
    y = synthesize_compressed(sc, 5)
    a = mml_doa(y, GEOM)
    b = mml_doa(3.7 * y, GEOM)
    c = mml_doa(y * np.exp(1.3j), GEOM)
    assert a == b
    assert abs(a - c) < 1e-9


def test_single_trial_reproducible():
    sc = fig2_scene()
    p1 = monte_carlo_rmse([multipath_free(sc)], None, 1, 99)
    p2 = monte_carlo_rmse([multipath_free(sc)], None, 1, 99)
    assert p1 == p2


def test_curve_determinism_and_worker_independence():
    scenes = [fig2_scene(s) for s in (0.0, 10.0, 20.0)]
    c1 = monte_carlo_rmse(scenes, None, 40, 1234)
    c2 = monte_carlo_rmse(scenes, None, 40, 1234)
    assert c1 == c2
    c4 = monte_carlo_rmse(scenes, None, 40, 1235)
    assert c4.rmse_rad != c1.rmse_rad


def test_reduction_is_order_independent():
    sc = fig2_scene(5.0)
    cfg = _resolve_search(GEOM, MML_SEARCH)
    errors = _scene_errors(sc, cfg, 64, 777, 0)
    rmse = math.sqrt(math.fsum((errors ** 2).tolist()) / errors.size)
    shuffled = errors.copy()
    np.random.default_rng(1).shuffle(shuffled)
    rmse_shuffled = math.sqrt(math.fsum((shuffled ** 2).tolist()) / errors.size)
    assert rmse == rmse_shuffled


def test_rmse_dominates_bias():
    scenes = [fig2_scene(s) for s in (-5.0, 5.0, 15.0)]
    curve = monte_carlo_rmse(scenes, None, 60, 4321)
    for rmse, bias in zip(curve.rmse_rad, curve.bias_rad):
        assert rmse ** 2 >= bias ** 2 - 1e-18


def test_zero_noise_sweep_hits_pseudo_true_error():
    psis = [np.deg2rad(d) for d in (0.5, 1.0, 2.0)]
    scenes = [scene_from_ratios(GEOM, 0.0, p, 300.0, 0.0, 0.0) for p in psis]
    curve = monte_carlo_rmse(scenes, None, 3, 1)
    for sc, rmse in zip(scenes, curve.rmse_rad):
        expected = abs(theta_a(sc))
        assert rmse == pytest.approx(expected, rel=1e-3)


def test_ml_reference_tracks_crb_at_high_snr():
    sc = fig2_scene(30.0)
    curve = monte_carlo_rmse([multipath_free(sc)], None, 4000, 2026)
    rcrb = math.sqrt(crb_theta(multipath_free(sc)))
    assert 0.95 <= curve.rmse_rad[0] / rcrb <= 1.15


def test_ml_reference_threshold_region():
    sc = fig2_scene(-10.0)
    curve = monte_carlo_rmse([multipath_free(sc)], None, 300, 2026)
    rcrb = math.sqrt(crb_theta(multipath_free(sc)))
    assert curve.rmse_rad[0] > 3.0 * rcrb


def test_mml_tracks_rmcrb_at_high_snr():
    # module-level example: 30 dB, RMSE within 10% of the root bound
    sc = fig2_scene(30.0)
    curve = monte_carlo_rmse([sc], None, 2000, 31)
    rmcrb = math.sqrt(mcrb_theta_closed(sc).mcrb_theta)
    assert abs(curve.rmse_rad[0] / rmcrb - 1.0) < 0.10


def test_trial_count_checked():
    with pytest.raises(ValueError):
        monte_carlo_rmse([fig2_scene()], None, 0, 1)


def _legacy_mml_doa_batch(y_batch, geom, cfg):
    """The estimator's own vectorized search before it moved into the shared
    bounds kernel, kept verbatim as a bit-for-bit oracle."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    cfg = _resolve_search(geom, cfg)
    lo, hi = cfg.span
    n = max(2, int(math.ceil((hi - lo) / cfg.coarse_step)) + 1)
    angles = np.linspace(lo, hi, n)
    s = np.sin(angles)
    a_r_grid = np.exp(2j * np.pi * np.outer(geom.rx_positions, s)) / np.sqrt(geom.m_r)
    a_t_grid = np.exp(2j * np.pi * np.outer(geom.tx_positions, s)) / np.sqrt(geom.m_t)

    def objective(ang):
        s = np.sin(ang)
        a_r = np.exp(2j * np.pi * np.outer(s, geom.rx_positions)) / math.sqrt(geom.m_r)
        a_t = np.exp(2j * np.pi * np.outer(s, geom.tx_positions)) / math.sqrt(geom.m_t)
        return np.abs(np.einsum("tm,tmn,tn->t", a_r.conj(), y_batch, a_t.conj())) ** 2

    vals = np.abs(np.einsum("mg,tmn,ng->tg", a_r_grid.conj(), y_batch,
                            a_t_grid.conj())) ** 2
    best = np.argmax(vals, axis=1)
    step = angles[1] - angles[0]
    a = np.maximum(lo, angles[best] - step)
    b = np.minimum(hi, angles[best] + step)
    c = b - golden * (b - a)
    d = a + golden * (b - a)
    fc, fd = objective(c), objective(d)
    iters = int(math.ceil(math.log(cfg.refine_tol / (2.0 * step)) / math.log(golden)))
    for _ in range(max(iters, 0)):
        keep_left = fc >= fd
        b = np.where(keep_left, d, b)
        a = np.where(keep_left, a, c)
        c = b - golden * (b - a)
        d = a + golden * (b - a)
        fc, fd = objective(c), objective(d)
    return 0.5 * (a + b)


@pytest.mark.parametrize("snr_db", [-10.0, 10.0, 40.0])
def test_kernel_mml_path_bit_for_bit(snr_db):
    sc = fig2_scene(snr_db)
    rng = np.random.default_rng(2305)
    scale = math.sqrt(sc.k_pulses * sc.e_p * sc.sigma_w2 / 2.0)
    shape = (_BLOCK, GEOM.m_r, GEOM.m_t)
    y = compressed_mean(sc) + scale * (rng.standard_normal(shape)
                                       + 1j * rng.standard_normal(shape))
    cfg = _resolve_search(GEOM, MML_SEARCH)
    want = _legacy_mml_doa_batch(y, GEOM, cfg)
    assert np.array_equal(_argmax_projection(y, GEOM, cfg), want)
    assert mml_doa(y[7], GEOM) == _legacy_mml_doa_batch(y[7:8], GEOM, cfg)[0]
