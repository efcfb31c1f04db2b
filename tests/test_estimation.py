import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mpcrb import (ArrayGeometry, SearchConfig, crb_theta, compressed_mean,
                   mcrb_theta_closed, mml_doa, monte_carlo_rmse,
                   multipath_free, scene_from_ratios, standard_virtual_ula,
                   synthesize_compressed, theta_a, virtual_hpbw)
from mpcrb import bounds, estimation, scene
from mpcrb.arrays import TWO_PI
from mpcrb.scene import _stream
from mpcrb.bounds import _argmax_projection, _coarse_winner, _projection_derivs
from mpcrb.estimation import MML_SEARCH

GEOM = standard_virtual_ula(3, 4)


def fig2_scene(snr_db=10.0):
    return scene_from_ratios(GEOM, 0.0, np.deg2rad(0.5), snr_db, 0.0, 0.0, 8)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(span=(0.5, 0.1))


@pytest.mark.parametrize("fields, message", [
    (dict(refine_tol=math.nan), "refine_tol must be positive"),
    (dict(refine_tol=-1.0), "refine_tol must be positive"),
    (dict(refine_tol=0.0), "refine_tol must be positive"),
])
def test_search_config_refuses_nan_with_the_existing_messages(fields, message):
    # a NaN tolerance was accepted, and theta_a then failed with
    # "cannot convert float NaN to integer"
    with pytest.raises(ValueError) as err:
        SearchConfig(**fields)
    assert str(err.value) == message


@pytest.mark.parametrize("tol", [math.inf, 1e-320, 5e-324,
                                 math.nextafter(math.ulp(math.pi / 2), 0.0)])
def test_search_config_refuses_a_tolerance_below_the_angle_spacing(tol):
    # a step below the float spacing of angles near pi/2 cannot be told from 0:
    # 1e-320 overflowed the kernel's round cap, and inf failed in theta_a with
    # "math domain error"
    with pytest.raises(ValueError) as err:
        SearchConfig(refine_tol=tol)
    assert str(err.value) == "refine_tol must be finite and >= ulp(pi/2) = 2.2e-16"


def test_smallest_search_tolerance_runs():
    cfg = SearchConfig(refine_tol=math.ulp(math.pi / 2))
    sc = fig2_scene()
    assert abs(theta_a(sc, cfg) - theta_a(sc)) < 1e-7
    assert abs(mml_doa(compressed_mean(sc), GEOM, cfg) - theta_a(sc)) < 1e-7


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_mml_refuses_a_statistic_that_is_not_finite(bad):
    # it returned -1.0435 rad, with RuntimeWarnings
    y = compressed_mean(fig2_scene()).copy()
    y[1, 2] = bad
    with pytest.raises(ValueError, match="need finite entries"):
        mml_doa(y, GEOM)


@pytest.mark.parametrize("seed", [1.5, 1.0, "1"])
def test_monte_carlo_refuses_a_seed_that_is_not_an_integer(seed):
    # 1.5 ran seed 1's noise and recorded base_seed = 1.5
    with pytest.raises(TypeError):
        monte_carlo_rmse([fig2_scene()], None, 2, seed)


def test_monte_carlo_takes_numpy_integer_seeds():
    sc = fig2_scene()
    assert (monte_carlo_rmse([sc], None, 3, np.int64(7)).rmse_rad
            == monte_carlo_rmse([sc], None, 3, 7).rmse_rad)


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
    assert abs(a - b) <= 4 * abs(np.spacing(a))   # Newton's g/h rounds with the scale
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
        stream = _stream((4242, i))
        ys = [synthesize_compressed(sc, stream) for _ in range(trials)]
        want = [mml_doa(ys[t], GEOM) - sc.theta for t in range(trials)]
        assert got[i].tolist() == want


def test_shorter_run_is_a_prefix_of_a_longer_one(monkeypatch):
    scenes = [fig2_scene(0.0), fig2_scene(20.0)]
    (short_0, short_1) = _engine_errors(monkeypatch, scenes, 40, 99)
    (long_0, long_1) = _engine_errors(monkeypatch, scenes, 300, 99)   # past the block seam
    assert np.array_equal(short_0, long_0[:40])
    assert np.array_equal(short_1, long_1[:40])


def test_curve_does_not_depend_on_the_chunk_size(monkeypatch):
    # a 3x4 and a 3x8 sweep of three scenes each; 7 splits every scene's 10 trials
    for geom, snrs in ((GEOM, (0.0, 10.0, 20.0)),
                       (standard_virtual_ula(3, 8), (5.0, 15.0, 25.0))):
        scenes = [scene_from_ratios(geom, 0.0, np.deg2rad(1.0), s, 3.0, 0.4, 8)
                  for s in snrs]
        whole = monte_carlo_rmse(scenes, None, 10, 31337)
        with monkeypatch.context() as m:
            m.setattr(estimation, "_rows", lambda geom: 7)
            assert monte_carlo_rmse(scenes, None, 10, 31337) == whole


def test_engine_memory_stays_flat_past_one_batch(monkeypatch):
    # 64-statistic batches on 8x8: four times the trials hold about the same
    # memory, where a fixed 4,096-statistic chunk grew with them
    geom = standard_virtual_ula(8, 8)
    monkeypatch.setattr(bounds, "_MODEL_BYTES", 16 * 64 * 64)
    scenes = [scene_from_ratios(geom, 0.0, np.deg2rad(1.0), s, 3.0, 0.4, 8)
              for s in (10.0, 20.0)]

    def peak(trials):
        tracemalloc.start()
        try:
            assert len(monte_carlo_rmse(scenes, None, trials, 5).rmse_rad) == 2
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(64)   # first-call imports and caches
    one, four = peak(256), peak(1024)
    assert four <= 1.25 * one, (one, four)


def test_noise_free_statistics_are_each_scenes_compressed_mean(monkeypatch):
    # noise of negative zeros leaves every sum as it is, bit for bit; a chunk
    # of 5 splits scenes of 3 trials across estimator calls
    monkeypatch.setattr(scene, "_noise",
                        lambda rng, n, var: np.full(n, complex(-0.0, -0.0)))
    monkeypatch.setattr(estimation, "_rows", lambda geom: 5)
    seen = []
    monkeypatch.setattr(estimation, "_argmax_projection",
                        lambda y, geom, cfg: seen.extend(y.copy()) or np.zeros(len(y)))
    rng = np.random.default_rng(19)
    for geom in (GEOM, standard_virtual_ula(3, 8)):
        scenes = [scene_from_ratios(geom, *rng.uniform(-1.2, 1.2, 2),
                                    *rng.uniform(-10.0, 30.0, 2),
                                    rng.uniform(-math.pi, math.pi),
                                    int(rng.integers(1, 300)))
                  for _ in range(4)]
        seen.clear()
        monte_carlo_rmse(scenes, None, 3, 5)
        assert [y.tobytes() for y in seen] == [compressed_mean(sc).tobytes()
                                              for sc in scenes for _ in range(3)]


def test_a_sweep_past_one_batch_builds_its_means_one_batch_at_a_time(monkeypatch):
    # batches of 2 statistics: the 5 scenes' means come in 3 blocks of scenes,
    # and every noise-free statistic is still its own scene's mean, bit for bit
    monkeypatch.setattr(scene, "_noise",
                        lambda rng, n, var: np.full(n, complex(-0.0, -0.0)))
    monkeypatch.setattr(estimation, "_rows", lambda geom: 2)
    blocks, means = [], scene._means
    monkeypatch.setattr(estimation, "_means", lambda geom, *cols:
                        blocks.append(len(cols[0])) or means(geom, *cols))
    seen = []
    monkeypatch.setattr(estimation, "_argmax_projection",
                        lambda y, geom, cfg: seen.extend(y.copy()) or np.zeros(len(y)))
    scenes = [scene_from_ratios(GEOM, 0.0, np.deg2rad(d), 10.0, 0.0, 0.0, 8)
              for d in (0.5, 1.0, 2.0, 4.0, 8.0)]
    monte_carlo_rmse(scenes, None, 3, 5)
    assert blocks == [2, 2, 1]
    assert [y.tobytes() for y in seen] == [compressed_mean(sc).tobytes()
                                          for sc in scenes for _ in range(3)]


def test_mixed_geometry_sweep_is_refused_like_a_bound_batch():
    # equal positions on another object count as one geometry, in a bound
    # batch and in a sweep
    same = scene_from_ratios(standard_virtual_ula(3, 4), 0.0, 0.01, 5.0, 3.0, 0.4)
    assert same.geom is not GEOM and same.geom == GEOM
    assert bounds._scene_columns([fig2_scene(), same])[0] is GEOM
    assert monte_carlo_rmse([fig2_scene(), same], None, 2, 1).trials == 2
    assert monte_carlo_rmse([same, fig2_scene()], None, 2, 1).trials == 2
    mixed = [fig2_scene(), scene_from_ratios(standard_virtual_ula(3, 8), 0.0,
                                             0.01, 5.0, 3.0, 0.4)]
    with pytest.raises(ValueError) as batch:
        bounds._scene_columns(mixed)
    with pytest.raises(ValueError) as sweep:
        monte_carlo_rmse(mixed, None, 2, 1)
    assert str(sweep.value) == str(batch.value) == (
        "all scenes of a batch must share one array geometry")


def _patch_step(monkeypatch, step):
    """Set the kernel's coarse step to ``step``; None leaves it at beamwidth / 20."""
    if step is not None:
        monkeypatch.setattr(bounds, "_default_step", lambda geom: step)


def _legacy_mml_doa_batch(y_batch, geom, cfg, step=None):
    """The estimator's own vectorized search before it moved into the shared
    bounds kernel, kept verbatim as an oracle: two interior points evaluated
    per golden sweep, three-operand einsum.  ``step`` is the coarse step,
    by default the virtual-array beamwidth / 20."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = cfg.span
    n = max(2, int(math.ceil((hi - lo) / (step or virtual_hpbw(geom) / 20.0))) + 1)
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


def _legacy_coarse_winner(y_batch, geom, cfg, prefer=None, step=None):
    """The oracle's coarse scan on its own: index of the first grid maximum,
    or with ``prefer`` the grid angle nearest prefer[t] among values within
    1e-12 (relative) of the maximum, as the three-operand einsum scan broke
    ties before the scan became one matrix product.  ``step`` as in
    :func:`_legacy_mml_doa_batch`."""
    lo, hi = cfg.span
    n = max(2, int(math.ceil((hi - lo) / (step or virtual_hpbw(geom) / 20.0))) + 1)
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
    sc = scene_from_ratios(geom, 0.0, np.deg2rad(0.5), snr_db, 0.0, 0.0, 8)
    rng = np.random.default_rng(seed)
    scale = math.sqrt(sc.k_pulses * sc.sigma_w2 / 2.0)
    shape = (n, geom.m_r, geom.m_t)
    return sc, compressed_mean(sc) + scale * (rng.standard_normal(shape)
                                              + 1j * rng.standard_normal(shape))


def _tile_width(geom):
    """Grid columns per tile of the kernel's coarse scan."""
    return max(1, bounds._TILE_BYTES // (16 * geom.m_r * geom.m_t))


def _tiled_grids(geom):
    """Coarse steps, by grid size, whose grid over MML_SEARCH's span ends in a
    one-column tile, or is narrower than a tile."""
    width, (lo, hi) = _tile_width(geom), MML_SEARCH.span
    return {width + 1: (hi - lo) / (width - 0.5), width // 2 + 1: (hi - lo) / (width // 2)}


@pytest.mark.parametrize("snr_db", [-10.0, 10.0, 40.0])
def test_kernel_mml_path_matches_legacy_search(snr_db, monkeypatch):
    # on every geometry: the same coarse winners, with and without the
    # tie-break toward theta, on the default grid and on grids that end in a
    # one-column tile or fit in one tile, and Newton within refine_tol of the
    # golden search
    for geom in _KERNEL_GEOMS:
        sc, y = _noisy_statistics(geom, snr_db)
        cfg = MML_SEARCH
        theta = np.full(len(y), sc.theta)
        for n, step in [(None, None), *_tiled_grids(geom).items()]:
            k = len(y) if n is None else 130   # three blocks, the last of 2 rows
            y_k, theta_k = y[:k], theta[:k]
            with monkeypatch.context() as m:
                _patch_step(m, step)
                angles, best = _coarse_winner(y_k, geom, cfg)
                near = _coarse_winner(y_k, geom, cfg, theta_k)[1]
            assert n is None or len(angles) == n
            assert np.array_equal(best, _legacy_coarse_winner(y_k, geom, cfg, step=step))
            assert np.array_equal(near, _legacy_coarse_winner(y_k, geom, cfg, theta_k,
                                                              step=step))
        want = _legacy_mml_doa_batch(y, geom, cfg)
        assert np.max(np.abs(_argmax_projection(y, geom, cfg) - want)) <= cfg.refine_tol
        assert abs(mml_doa(y[7], geom)
                   - _legacy_mml_doa_batch(y[7:8], geom, cfg)[0]) <= cfg.refine_tol


def test_kernel_safeguard_keeps_newton_in_the_bracket(monkeypatch):
    # starts where plain Newton goes astray: a coarse step of 1.5 beamwidths
    # puts the winner on the convex flank of the main lobe (p'' >= 0), and a
    # source just past the span puts it on the span edge with the maximum
    # outside; all must end inside the bracket, at the golden-section argmax
    # to refine_tol
    hpbw = virtual_hpbw(GEOM)
    cfg = SearchConfig()
    _patch_step(monkeypatch, 1.5 * hpbw)
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
    ref = _legacy_mml_doa_batch(y, GEOM, replace(cfg, refine_tol=1e-12), 1.5 * hpbw)
    assert np.max(np.abs(got - ref)) <= cfg.refine_tol
    assert np.max(np.abs(got[:2] - sources[:2])) <= cfg.refine_tol
    assert got[2] == hi


def test_rows_without_a_finite_maximum_keep_their_winner(monkeypatch):
    # a NaN entry makes every grid value NaN: the winner is the first angle,
    # with or without prefer; an all-zero row ties everywhere, so prefer picks
    # the nearest grid angle; a real statistic ties twice, at +-0.3 rad (its
    # projection is even in phi), in the NaN row's block; finite rows keep
    # their winners
    for geom in _KERNEL_GEOMS[1:]:
        _, y = _noisy_statistics(geom, 10.0, n=130)
        q = np.add.outer(geom.rx_positions, geom.tx_positions)
        y[3, 0, 0], y[5], y[64] = np.nan, np.cos(TWO_PI * q * np.sin(0.3)), 0.0
        prefer = np.linspace(-0.9, 0.9, len(y))
        prefer[5] = 0.3
        for step in [None, *_tiled_grids(geom).values()]:
            with np.errstate(invalid="ignore"), monkeypatch.context() as m:
                _patch_step(m, step)
                angles, best = _coarse_winner(y, geom, MML_SEARCH)
                near = _coarse_winner(y, geom, MML_SEARCH, prefer)[1]
            assert best[3] == near[3] == 0 and best[64] == 0
            assert near[64] == np.argmin(np.abs(angles - prefer[64]))
            finite = np.isfinite(y).all(axis=(1, 2))
            assert np.array_equal(best[finite], _legacy_coarse_winner(
                y[finite], geom, MML_SEARCH, step=step))
            assert np.array_equal(near[finite], _legacy_coarse_winner(
                y[finite], geom, MML_SEARCH, prefer[finite], step=step))


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


def _uncached_steering_grid(geom, lo, hi, n):
    """The kernel's grid and whole virtual steering matrix V before its set-up
    was cached and V tiled, kept as an oracle."""
    angles = np.linspace(lo, hi, n)
    tx, rx = (_phasors(pos, np.sin(angles)).conj()
              for pos in (geom.tx_positions, geom.rx_positions))
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
def test_grid_tiles_equal_linspace_and_kronecker_bitwise(n):
    # the per-call grid is np.linspace, and its tiles cover V in order, at
    # most _TILE_BYTES (or one column) each, each the matching columns of V
    spans = [(-math.pi / 3, math.pi / 3), (-0.5, 1.2), (-1.5, -1.4),
             (0.1, 0.1 + 1e-6), (-1e-3, 2.0 / 3.0)]
    for geom in _KERNEL_GEOMS:
        for lo, hi in spans:
            angles, tiles = bounds._grid(geom, lo, hi, n)
            want_angles, want_v = _uncached_steering_grid(geom, lo, hi, n)
            assert _same_bits(angles, np.linspace(lo, hi, n))
            assert _same_bits(angles, want_angles)
            done = 0
            for cols, v in tiles():
                assert cols.start == done and v.shape[1] >= 1
                assert v.nbytes <= bounds._TILE_BYTES or v.shape[1] == 1
                assert _same_bits(v, want_v[:, cols])
                done += v.shape[1]
            assert done == n


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


def test_coarse_step_is_a_twentieth_of_the_beamwidth():
    empty = np.zeros((0, GEOM.m_r, GEOM.m_t), dtype=complex)
    step = virtual_hpbw(GEOM) / 20.0
    for cfg in (MML_SEARCH, SearchConfig(span=(-0.3, 1.2))):
        (lo, hi), grid = cfg.span, _coarse_winner(empty, GEOM, cfg)[0]
        assert _same_bits(grid, np.linspace(lo, hi, math.ceil((hi - lo) / step) + 1))
        assert grid[1] - grid[0] <= step
