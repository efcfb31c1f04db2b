import cmath
import math
import random

import numpy as np
import pytest
from conftest import (PathGeometryInputs, compressed_mean, path_coefficients,
                      raw_mimo, scene_ratios)

from mpcrb import (MultipathScene, scene_from_ratios, standard_virtual_ula,
                   synthesize_compressed, wrap_phase)
from mpcrb.scene import _noise, _statistics, _stream

GEOM = standard_virtual_ula(3, 4)
RNG = np.random.default_rng(202)


def test_wrap_phase_range():
    for x in np.linspace(-20.0, 20.0, 400):
        w = wrap_phase(x)
        assert -math.pi < w <= math.pi
        assert abs(cmath.exp(1j * w) - cmath.exp(1j * x)) < 1e-12
    assert wrap_phase(math.pi) == pytest.approx(math.pi)
    assert wrap_phase(-math.pi) == pytest.approx(math.pi)


def _math_wrap_phase(x):
    """``wrap_phase`` in math-module scalars, as it was before it took arrays."""
    y = math.fmod(x + math.pi, 2.0 * math.pi)
    if y <= 0.0:
        y += 2.0 * math.pi
    return y - math.pi


def test_wrap_phase_of_an_array_is_the_scalar_calls():
    x = np.concatenate((np.linspace(-1e5, 1e5, 2001), RNG.uniform(-50.0, 50.0, 500),
                        [0.0, -0.0, math.pi, -math.pi, 2.0 * math.pi, 3.0 * math.pi,
                         -3.0 * math.pi, 1e-300, -1e-300]))
    scalars = [wrap_phase(v) for v in x.tolist()]
    assert all(type(w) is float for w in scalars)
    want = np.array([_math_wrap_phase(v) for v in x.tolist()])
    assert np.array(scalars).tobytes() == want.tobytes()
    got = wrap_phase(x.reshape(2, -1))
    assert got.shape == (2, x.size // 2)
    assert got.tobytes() == want.reshape(2, -1).tobytes()


def test_path_coefficients_zero_surface():
    p = PathGeometryInputs(gamma_t=1.0, gamma_r=0.0, alpha_0d=1.0,
                           alpha_0i=1.0, r_d=5.0, r_i=5.5, wavelength=0.004)
    _, alpha_i = path_coefficients(p)
    assert alpha_i == 0


def test_path_coefficients_phase_wrap():
    lam = 0.0038
    p = PathGeometryInputs(gamma_t=1.0, gamma_r=1.0, alpha_0d=1.0,
                           alpha_0i=1.0, r_d=lam, r_i=lam, wavelength=lam)
    alpha_d, _ = path_coefficients(p)
    assert alpha_d == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_path_coefficients_half_wavelength_mirror():
    # alpha_i = exp(j(pi + pi)) = 1, checked by independent scalar arithmetic
    lam = 1.0
    p = PathGeometryInputs(gamma_t=1.0, gamma_r=-1.0, alpha_0d=1.0,
                           alpha_0i=1.0, r_d=lam / 2, r_i=lam / 2, wavelength=lam)
    _, alpha_i = path_coefficients(p)
    expected = 1.0 * abs(-1.0) * cmath.exp(1j * (cmath.phase(-1.0 + 0j)
                                                 + 2 * math.pi * 0.5))
    assert alpha_i == pytest.approx(expected, abs=1e-12)
    assert alpha_i == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_path_inputs_validation():
    with pytest.raises(ValueError):
        PathGeometryInputs(gamma_t=1.0, gamma_r=1.0, alpha_0d=1.0,
                           alpha_0i=1.0, r_d=5.0, r_i=4.0, wavelength=0.004)


def test_ratio_definitions():
    sc = MultipathScene(geom=GEOM, theta=0.0, psi=0.01, alpha_d=1.0 + 0j,
                        alpha_i=1.0 + 0j, sigma_w2=0.1)
    snr, smr, dphi = scene_ratios(sc)
    assert smr == pytest.approx(1.0)
    assert snr == pytest.approx(10.0)
    assert dphi == 0.0

    sc = MultipathScene(geom=GEOM, theta=0.0, psi=0.01, alpha_d=1.0 + 0j,
                        alpha_i=cmath.exp(2j * math.pi / 3) / math.sqrt(10),
                        sigma_w2=1.0)
    _, smr, dphi = scene_ratios(sc)
    assert 10 * math.log10(smr) == pytest.approx(10.0, abs=1e-12)
    assert dphi == pytest.approx(-2 * math.pi / 3, abs=1e-12)


def test_smr_infinite_sentinel():
    sc = MultipathScene(geom=GEOM, theta=0.0, psi=0.01, alpha_d=1.0 + 0j,
                        alpha_i=0.0 + 0j, sigma_w2=1.0)
    assert scene_ratios(sc)[1] == math.inf


def test_scene_from_ratios_unit_case():
    sc = scene_from_ratios(GEOM, 0.0, 0.01, 0.0, 0.0, 0.0)
    assert sc.alpha_d == 1.0 + 0j
    assert sc.alpha_i == pytest.approx(1.0 + 0j, abs=1e-15)
    assert sc.sigma_w2 == 1.0


def test_scene_from_ratios_round_trip():
    for _ in range(100):
        snr_db = float(RNG.uniform(-20, 40))
        smr_db = float(RNG.uniform(-20, 40))
        dphi = float(RNG.uniform(-math.pi + 1e-9, math.pi))
        sc = scene_from_ratios(GEOM, 0.0, 0.02, snr_db, smr_db, dphi, 4)
        snr, smr, got_dphi = scene_ratios(sc)
        assert 10 * math.log10(snr) == pytest.approx(snr_db, abs=1e-12)
        assert 10 * math.log10(smr) == pytest.approx(smr_db, abs=1e-12)
        assert got_dphi == pytest.approx(dphi, abs=1e-12)


@pytest.mark.parametrize("snr_db, smr_db", [(-4000.0, 0.0), (-3085.0, 0.0), (0.0, -7000.0)])
def test_scene_from_ratios_refuses_powers_that_overflow(snr_db, smr_db):
    # 10^(-snr_db / 10) and 10^(-smr_db / 20) raised a bare OverflowError
    with pytest.raises(ValueError) as err:
        scene_from_ratios(GEOM, 0.0, 0.1, snr_db, smr_db, 0.0)
    assert str(err.value) == "snr_db or smr_db overflows sigma_w2 or |alpha_i|"


def test_ratios_invariant_under_common_rotation():
    sc = scene_from_ratios(GEOM, 0.0, 0.02, 7.0, 3.0, 1.1)
    rot = cmath.exp(0.77j)
    sc2 = MultipathScene(geom=GEOM, theta=sc.theta, psi=sc.psi,
                         alpha_d=sc.alpha_d * rot, alpha_i=sc.alpha_i * rot,
                         k_pulses=sc.k_pulses,
                         sigma_w2=sc.sigma_w2)
    (snr2, smr2, dphi2), (snr, smr, dphi) = scene_ratios(sc2), scene_ratios(sc)
    assert smr2 == pytest.approx(smr, rel=1e-12)
    assert snr2 == pytest.approx(snr, rel=1e-12)
    assert dphi2 == pytest.approx(dphi, abs=1e-12)
    np.testing.assert_allclose(compressed_mean(sc2), rot * compressed_mean(sc),
                               atol=1e-14)


def test_scenes_on_equal_geometries_are_equal_values():
    # == raised ValueError and hash() TypeError once the geometries were
    # distinct objects
    a = MultipathScene(standard_virtual_ula(3, 4), 0.0, 0.1, 1.0, 0.5, 2, 0.3)
    b = MultipathScene(standard_virtual_ula(3, 4), 0.0, 0.1, 1.0, 0.5, 2, 0.3)
    assert a.geom is not b.geom and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != MultipathScene(standard_virtual_ula(3, 8), 0.0, 0.1, 1.0, 0.5, 2, 0.3)
    assert a != MultipathScene(standard_virtual_ula(3, 4), 0.0, 0.1, 1.0, 0.4, 2, 0.3)


def test_scene_validation():
    with pytest.raises(ValueError):
        MultipathScene(geom=GEOM, theta=1.6, psi=0.0, alpha_d=1, alpha_i=0)
    with pytest.raises(ValueError):
        MultipathScene(geom=GEOM, theta=0.0, psi=0.0, alpha_d=1, alpha_i=0,
                       sigma_w2=0.0)
    with pytest.raises(ValueError):
        MultipathScene(geom=GEOM, theta=0.0, psi=0.0, alpha_d=1, alpha_i=0,
                       k_pulses=0)


@pytest.mark.parametrize("field", ["sigma_w2", "k_pulses"])
def test_scene_refuses_nan_powers(field):
    # NaN passed the power rule's old `<=` form, and crb_theta then gave nan
    with pytest.raises(ValueError) as err:
        MultipathScene(geom=GEOM, theta=0.0, psi=0.1, alpha_d=1, alpha_i=0.5,
                       **{field: math.nan})
    assert str(err.value) == "require sigma_w2 > 0, k_pulses >= 1"


@pytest.mark.parametrize("k", [2.5, 2.0, np.float64(3.0), True, np.bool_(True)],
                         ids=["2.5", "2.0", "float64", "True", "bool_"])
def test_scene_refuses_a_pulse_count_that_is_not_an_integer(k):
    # crb_theta gave a bound for K = 2.5 (and K = 1 for True) before
    with pytest.raises(ValueError, match="k_pulses must be an int or a numpy integer"):
        MultipathScene(geom=GEOM, theta=0.0, psi=0.1, alpha_d=1, alpha_i=0.5, k_pulses=k)
    with pytest.raises(ValueError, match="k_pulses must be an int or a numpy integer"):
        scene_from_ratios(GEOM, 0.0, 0.1, 10.0, 0.0, 0.0, k)


def test_scene_takes_ints_and_numpy_integers_as_pulse_counts():
    for k in (3, np.int64(3), np.int32(3), np.uint8(3)):
        assert MultipathScene(geom=GEOM, theta=0.0, psi=0.1, alpha_d=1, alpha_i=0.5,
                              k_pulses=k).k_pulses == 3


def test_synthesis_deterministic_and_near_noise_free():
    sc = scene_from_ratios(GEOM, 0.0, np.deg2rad(0.5), 10.0, 0.0, 0.0, 4)
    y1 = synthesize_compressed(sc, 42)
    y2 = synthesize_compressed(sc, 42)
    np.testing.assert_array_equal(y1, y2)
    y3 = synthesize_compressed(sc, 43)
    assert not np.array_equal(y1, y3)

    # vanishing noise and no indirect path: the statistic is K*alpha_d*A_d
    quiet = scene_from_ratios(GEOM, 0.0, np.deg2rad(0.5), 600.0, 1e9, 0.0, 4)
    assert quiet.alpha_i == 0
    y = synthesize_compressed(quiet, 7)
    a_d_raw, _ = raw_mimo(GEOM, 0.0, np.deg2rad(0.5))
    np.testing.assert_allclose(y, 4 * a_d_raw, atol=1e-12)


def test_synthesis_moments():
    # 1e5 draws in turn from one stream: per-entry mean within 4 standard
    # errors, variance within 5%
    sc = scene_from_ratios(GEOM, 0.0, np.deg2rad(0.5), 3.0, 2.0, 0.7, 2)
    mean = compressed_mean(sc)
    n = 100_000
    var_expected = sc.k_pulses * sc.sigma_w2
    y = _statistics(random.Random(2026), var_expected, mean, n)
    se = math.sqrt(var_expected / n)
    assert np.abs(y.mean(axis=0) - mean).max() < 4.0 * se
    np.testing.assert_allclose((np.abs(y - mean) ** 2).mean(axis=0),
                               var_expected, rtol=0.05)


def test_synthesis_is_the_first_statistic_of_its_seeds_stream():
    # a seed starts a fresh stream, distinct for an int and a tuple; a stream
    # is drawn on in turn, each statistic taking its entries in row-major order
    sc = scene_from_ratios(GEOM, 0.0, np.deg2rad(0.5), 10.0, 3.0, 0.4, 4)
    var, mean = sc.k_pulses * sc.sigma_w2, compressed_mean(sc)
    np.testing.assert_array_equal(synthesize_compressed(sc, 42),
                                  _statistics(_stream(42), var, mean, 1)[0])
    np.testing.assert_array_equal(synthesize_compressed(sc, (42, 0)),
                                  _statistics(_stream((42, 0)), var, mean, 1)[0])
    assert not np.array_equal(synthesize_compressed(sc, 5),
                              synthesize_compressed(sc, (5,)))
    three = _statistics(_stream(5), var, mean, 3)
    np.testing.assert_array_equal(three[0], synthesize_compressed(sc, 5))
    w = _noise(_stream(5), 3 * GEOM.m_r * GEOM.m_t, var)
    np.testing.assert_array_equal(three, mean + w.reshape(3, GEOM.m_r, GEOM.m_t))


@pytest.mark.parametrize("seed, error", [
    (-1, ValueError), ((3, -1), ValueError), (1.5, TypeError), ("7", TypeError),
    ((1, 2.0), TypeError), (random.Random(5), TypeError)])   # no stream is continued
def test_synthesis_refuses_what_is_not_a_seed(seed, error):
    sc = scene_from_ratios(GEOM, 0.0, np.deg2rad(0.5), 10.0, 3.0, 0.4)
    with pytest.raises(error):
        synthesize_compressed(sc, seed)


def test_engine_noise_statistics():
    # the Monte-Carlo engine's noise, scene i on stream (seed, i): 3 scenes x
    # 20,000 trials x 12 entries, normalised to unit variance
    seed, n_scenes, trials, m, var = 20261019, 3, 20_000, 12, 2.5
    z = np.array([_noise(_stream((seed, i)), trials * m, var).reshape(trials, m)
                  for i in range(n_scenes)]) / math.sqrt(var)
    n = z.size

    def near_zero(c, pairs):   # Re and Im of a mean product of unit entries
        se = math.sqrt(0.5 / pairs)
        assert abs(c.real) < 4.0 * se and abs(c.imag) < 4.0 * se, (c, se)

    means = z.mean(axis=1)   # per scene and entry, over trials
    assert np.abs(means.real).max() < 4.0 * math.sqrt(0.5 / trials)
    assert np.abs(means.imag).max() < 4.0 * math.sqrt(0.5 / trials)
    power = (np.abs(z) ** 2).mean(axis=1)   # |z|^2 is exponential: variance 1
    assert np.abs(power - 1.0).max() < 5.0 / math.sqrt(trials)
    assert abs(np.mean(z.real * z.imag) / 0.5) < 4.0 / math.sqrt(n)
    for a, b in ((z[:, 1:], z[:, :-1]), (z[:, :, 1:], z[:, :, :-1]), (z[1:], z[:-1])):
        near_zero(np.mean(a * b.conj()), a.size)   # lag 1: trials, entries, scenes
    x = np.abs(np.concatenate((z.real, z.imag)).ravel()) * math.sqrt(2.0)
    for k in (1.0, 2.0, 3.0):
        p = math.erf(k / math.sqrt(2.0))
        assert abs(np.mean(x <= k) - p) < 5.0 * math.sqrt(p * (1.0 - p) / x.size), k
