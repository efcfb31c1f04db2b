import math
from dataclasses import replace

import numpy as np
import pytest

from mpcrb import (ArrayGeometry, SearchConfig, crb_theta, compressed_mean,
                   mcrb_theta_closed, mml_doa, monte_carlo_rmse,
                   multipath_free, scene_from_ratios, standard_virtual_ula,
                   synthesize_compressed, theta_a, virtual_hpbw)
from mpcrb import bounds, estimation
from mpcrb.arrays import TWO_PI
from mpcrb.bounds import _argmax_projection, _coarse_winner, _projection_derivs
from mpcrb.estimation import MML_SEARCH

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
    assert abs(a - b) <= 4 * np.spacing(a)   # Newton's g/h rounds with the scale
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


def _engine_errors(monkeypatch, scenes, trials, base_seed):
    """Per-scene trial errors as the Monte-Carlo engine reduces them."""
    seen = []
    with monkeypatch.context() as m:
        m.setattr(estimation, "_reduce",
                  lambda errors: seen.append(errors) or (0.0, 0.0))
        monte_carlo_rmse(scenes, None, trials, base_seed)
    return seen


def test_reduction_is_order_independent(monkeypatch):
    sc = fig2_scene(5.0)
    (errors,) = _engine_errors(monkeypatch, [sc], 64, 777)
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


def test_empty_sweep_gives_empty_curve():
    curve = monte_carlo_rmse([], None, 10, 1)
    assert curve.rmse_rad == () and curve.bias_rad == ()


def test_trials_follow_the_single_statistic_path(monkeypatch):
    # trial t of scene i is mml_doa on statistic t of scene i's stream
    scenes = [fig2_scene(s) for s in (-5.0, 10.0, 25.0)]
    trials = 70          # past one coarse block of the kernel
    got = _engine_errors(monkeypatch, scenes, trials, 4242)
    for i, sc in enumerate(scenes):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((4242, i))))
        ys = synthesize_compressed(sc, rng, trials)
        want = [mml_doa(ys[t], GEOM) - sc.theta for t in range(trials)]
        assert got[i].tolist() == want


def test_shorter_run_is_a_prefix_of_a_longer_one(monkeypatch):
    scenes = [fig2_scene(0.0), fig2_scene(20.0)]
    (short_0, short_1) = _engine_errors(monkeypatch, scenes, 40, 99)
    (long_0, long_1) = _engine_errors(monkeypatch, scenes, 300, 99)   # past the block seam
    assert np.array_equal(short_0, long_0[:40])
    assert np.array_equal(short_1, long_1[:40])


def test_curve_does_not_depend_on_the_chunk_size(monkeypatch):
    # a 3x4 and a 3x8 geometry interleaved, with runs of equal geometry
    other = standard_virtual_ula(3, 8)
    scenes = [scene_from_ratios(g, 0.0, np.deg2rad(1.0), s, 3.0, 0.4, 8, 1.0)
              for g, s in ((GEOM, 0.0), (GEOM, 10.0), (other, 5.0),
                           (GEOM, 20.0), (other, 15.0), (other, 25.0))]
    whole = monte_carlo_rmse(scenes, None, 10, 31337)
    monkeypatch.setattr(estimation, "_MC_CHUNK", 7)
    assert monte_carlo_rmse(scenes, None, 10, 31337) == whole


def _explicit_step(geom, cfg):
    """``cfg`` with the kernel's default coarse step, beamwidth / 20, made explicit."""
    return replace(cfg, coarse_step=cfg.coarse_step or virtual_hpbw(geom) / 20.0)


def _legacy_mml_doa_batch(y_batch, geom, cfg):
    """The estimator's own vectorized search before it moved into the shared
    bounds kernel, kept verbatim as an oracle: two interior points evaluated
    per golden sweep, three-operand einsum."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    cfg = _explicit_step(geom, cfg)
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


def _legacy_coarse_winner(y_batch, geom, cfg, prefer=None):
    """The oracle's coarse scan on its own: index of the first grid maximum,
    or with ``prefer`` the grid angle nearest prefer[t] among values within
    1e-12 (relative) of the maximum, as the three-operand einsum scan broke
    ties before the scan became one matrix product."""
    cfg = _explicit_step(geom, cfg)
    lo, hi = cfg.span
    n = max(2, int(math.ceil((hi - lo) / cfg.coarse_step)) + 1)
    angles = np.linspace(lo, hi, n)
    s = np.sin(angles)
    a_r_grid = np.exp(2j * np.pi * np.outer(geom.rx_positions, s)) / np.sqrt(geom.m_r)
    a_t_grid = np.exp(2j * np.pi * np.outer(geom.tx_positions, s)) / np.sqrt(geom.m_t)
    vals = np.abs(np.einsum("mg,tmn,ng->tg", a_r_grid.conj(), y_batch,
                            a_t_grid.conj())) ** 2
    if prefer is None:
        return np.argmax(vals, axis=1)
    ties = vals >= vals.max(axis=1, keepdims=True) * (1.0 - 1e-12)
    return np.argmin(np.where(ties, np.abs(angles - prefer[:, None]), np.inf), axis=1)


# 3x4, 3x16 and one fixed non-uniform geometry
_KERNEL_GEOMS = (GEOM, standard_virtual_ula(3, 16),
                 ArrayGeometry(tx_positions=[-2.9, -0.4, 1.7],
                               rx_positions=[-1.6, -1.1, 0.2, 0.5, 1.9]))


def _noisy_statistics(geom, snr_db, n=512, seed=2305):
    sc = scene_from_ratios(geom, 0.0, np.deg2rad(0.5), snr_db, 0.0, 0.0, 8, 1.0)
    rng = np.random.default_rng(seed)
    scale = math.sqrt(sc.k_pulses * sc.e_p * sc.sigma_w2 / 2.0)
    shape = (n, geom.m_r, geom.m_t)
    return sc, compressed_mean(sc) + scale * (rng.standard_normal(shape)
                                              + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("snr_db", [-10.0, 10.0, 40.0])
def test_kernel_mml_path_matches_legacy_search(snr_db):
    # on every geometry: the same coarse winners, with and without the
    # tie-break toward theta, and Newton within refine_tol of the golden search
    for geom in _KERNEL_GEOMS:
        sc, y = _noisy_statistics(geom, snr_db)
        cfg = MML_SEARCH
        theta = np.full(len(y), sc.theta)
        assert np.array_equal(_coarse_winner(y, geom, cfg)[1],
                              _legacy_coarse_winner(y, geom, cfg))
        assert np.array_equal(_coarse_winner(y, geom, cfg, theta)[1],
                              _legacy_coarse_winner(y, geom, cfg, theta))
        want = _legacy_mml_doa_batch(y, geom, cfg)
        assert np.max(np.abs(_argmax_projection(y, geom, cfg) - want)) <= cfg.refine_tol
        assert abs(mml_doa(y[7], geom)
                   - _legacy_mml_doa_batch(y[7:8], geom, cfg)[0]) <= cfg.refine_tol


def test_kernel_safeguard_keeps_newton_in_the_bracket():
    # starts where plain Newton goes astray: a coarse step of 1.5 beamwidths
    # puts the winner on the convex flank of the main lobe (p'' >= 0), and a
    # source just past the span puts it on the span edge with the maximum
    # outside; all must end inside the bracket, at the golden-section argmax
    # to refine_tol
    hpbw = virtual_hpbw(GEOM)
    cfg = SearchConfig(coarse_step=1.5 * hpbw)
    lo, hi = cfg.span
    angles, _ = _coarse_winner(np.zeros((0, GEOM.m_r, GEOM.m_t)), GEOM, cfg)
    step = angles[1] - angles[0]
    w = angles[len(angles) // 2 + 3]
    sources = [w + 0.7 * hpbw, w - 0.7 * hpbw, hi + 0.5 * step]
    y = np.array([compressed_mean(multipath_free(
        scene_from_ratios(GEOM, src, 0.0, 10.0, 0.0, 0.0))) for src in sources])
    _, best = _coarse_winner(y, GEOM, cfg)
    start = angles[best]
    c0, c1, c2 = _projection_derivs(GEOM, y[:2], start[:2])
    assert np.all(np.abs(c1) ** 2 + (c0.conj() * c2).real >= 0.0)   # convex start
    assert start[2] == hi
    got = _argmax_projection(y, GEOM, cfg)
    assert np.all((np.maximum(lo, start - step) <= got)
                  & (got <= np.minimum(hi, start + step)))
    ref = _legacy_mml_doa_batch(y, GEOM, replace(cfg, refine_tol=1e-12))
    assert np.max(np.abs(got - ref)) <= cfg.refine_tol
    assert np.max(np.abs(got[:2] - sources[:2])) <= cfg.refine_tol
    assert got[2] == hi


def test_kernel_takes_an_empty_batch():
    cfg = MML_SEARCH
    empty = np.zeros((0, GEOM.m_r, GEOM.m_t), dtype=complex)
    assert _argmax_projection(empty, GEOM, cfg).shape == (0,)
    assert _argmax_projection(empty, GEOM, cfg, np.zeros(0)).shape == (0,)
    assert _coarse_winner(empty, GEOM, cfg)[1].shape == (0,)


# ---------------------------------------------------------------------------
# the kernel's per-geometry set-up against its uncached form, bit for bit

def _phasors(positions, sines):
    """``arrays._phasors`` before it was built in place, verbatim."""
    return np.exp(1j * TWO_PI * np.outer(positions, sines)) / np.sqrt(positions.size)


def _uncached_steering_grid(geom_key, lo, hi, n):
    """``bounds._steering_grid`` before its set-up was cached, kept verbatim
    as an oracle."""
    angles = np.linspace(lo, hi, n)
    tx, rx = (_phasors(np.asarray(pos), np.sin(angles)).conj() for pos in geom_key)
    return angles, (rx[:, None, :] * tx[None, :, :]).reshape(-1, n)


def _uncached_projection_derivs(geom, y, phi):
    """``bounds._projection_derivs`` before its set-up was cached, verbatim."""
    s, n = np.sin(phi), len(y)
    w = (_phasors(geom.rx_positions, -s).T[:, :, None] * y
         * _phasors(geom.tx_positions, -s).T[:, None, :]).reshape(n, 1, -1)
    q = (geom.rx_positions[:, None] + geom.tx_positions).ravel()
    m0, m1, m2 = (w @ np.stack([np.ones_like(q), q, q * q], axis=1))[:, 0].T
    k = TWO_PI * np.cos(phi)
    return m0, -1j * k * m1, 1j * TWO_PI * s * m1 - k * k * m2


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 3, 285, 1136])
def test_steering_grid_equals_linspace_and_kronecker_bitwise(n):
    spans = [(-math.pi / 3, math.pi / 3), (-0.5, 1.2), (-1.5, -1.4),
             (0.1, 0.1 + 1e-6), (-1e-3, 2.0 / 3.0)]
    for geom in _KERNEL_GEOMS:
        for lo, hi in spans:
            bounds._steering_grid.cache_clear()
            angles, v = bounds._steering_grid(geom.key(), lo, hi, n)
            want_angles, want_v = _uncached_steering_grid(geom.key(), lo, hi, n)
            assert _same_bits(angles, np.linspace(lo, hi, n))
            assert _same_bits(angles, want_angles) and _same_bits(v, want_v)


def test_projection_derivs_equal_the_uncached_form_bitwise():
    rng = np.random.default_rng(77)
    for geom in _KERNEL_GEOMS:
        for n in (1, 5, 300):
            shape = (n, geom.m_r, geom.m_t)
            y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            phi = rng.uniform(-1.2, 1.2, n)
            for got, want in zip(_projection_derivs(geom, y, phi),
                                 _uncached_projection_derivs(geom, y, phi)):
                assert _same_bits(got, want)


def test_default_coarse_step_is_a_twentieth_of_the_beamwidth():
    empty = np.zeros((0, GEOM.m_r, GEOM.m_t), dtype=complex)
    for cfg in (MML_SEARCH, SearchConfig()):
        grid = _coarse_winner(empty, GEOM, cfg)[0]
        want = _coarse_winner(empty, GEOM, _explicit_step(GEOM, cfg))[0]
        assert _same_bits(grid, want)
        assert grid[1] - grid[0] <= virtual_hpbw(GEOM) / 20.0
    explicit = SearchConfig(coarse_step=0.01)
    grid = _coarse_winner(empty, GEOM, explicit)[0]
    assert len(grid) == math.ceil((explicit.span[1] - explicit.span[0]) / 0.01) + 1
