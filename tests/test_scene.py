import cmath
import math

import numpy as np
import pytest
from conftest import raw_mimo

from mpcrb import (MultipathScene, PathGeometryInputs, compressed_mean,
                   delta_phi, path_coefficients, scene_from_ratios, smr, snr,
                   standard_virtual_ula, synthesize_compressed, wrap_phase)

GEOM = standard_virtual_ula(3, 4)
RNG = np.random.default_rng(202)


def test_wrap_phase_range():
    for x in np.linspace(-20.0, 20.0, 400):
        w = wrap_phase(x)
        assert -math.pi < w <= math.pi
        assert abs(cmath.exp(1j * w) - cmath.exp(1j * x)) < 1e-12
    assert wrap_phase(math.pi) == pytest.approx(math.pi)
    assert wrap_phase(-math.pi) == pytest.approx(math.pi)


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
    assert smr(sc) == pytest.approx(1.0)
    assert snr(sc) == pytest.approx(10.0)
    assert delta_phi(sc) == 0.0

    sc = MultipathScene(geom=GEOM, theta=0.0, psi=0.01, alpha_d=1.0 + 0j,
                        alpha_i=cmath.exp(2j * math.pi / 3) / math.sqrt(10),
                        sigma_w2=1.0)
    assert 10 * math.log10(smr(sc)) == pytest.approx(10.0, abs=1e-12)
    assert delta_phi(sc) == pytest.approx(-2 * math.pi / 3, abs=1e-12)


def test_smr_infinite_sentinel():
    sc = MultipathScene(geom=GEOM, theta=0.0, psi=0.01, alpha_d=1.0 + 0j,
                        alpha_i=0.0 + 0j, sigma_w2=1.0)
    assert smr(sc) == math.inf


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
        sc = scene_from_ratios(GEOM, 0.0, 0.02, snr_db, smr_db, dphi, 4, 2.0)
        assert 10 * math.log10(snr(sc)) == pytest.approx(snr_db, abs=1e-12)
        assert 10 * math.log10(smr(sc)) == pytest.approx(smr_db, abs=1e-12)
        assert delta_phi(sc) == pytest.approx(dphi, abs=1e-12)


def test_ratios_invariant_under_common_rotation():
    sc = scene_from_ratios(GEOM, 0.0, 0.02, 7.0, 3.0, 1.1)
    rot = cmath.exp(0.77j)
    sc2 = MultipathScene(geom=GEOM, theta=sc.theta, psi=sc.psi,
                         alpha_d=sc.alpha_d * rot, alpha_i=sc.alpha_i * rot,
                         k_pulses=sc.k_pulses, e_p=sc.e_p,
                         sigma_w2=sc.sigma_w2)
    assert smr(sc2) == pytest.approx(smr(sc), rel=1e-12)
    assert snr(sc2) == pytest.approx(snr(sc), rel=1e-12)
    assert delta_phi(sc2) == pytest.approx(delta_phi(sc), abs=1e-12)
    np.testing.assert_allclose(compressed_mean(sc2), rot * compressed_mean(sc),
                               atol=1e-14)


def test_scene_validation():
    with pytest.raises(ValueError):
        MultipathScene(geom=GEOM, theta=1.6, psi=0.0, alpha_d=1, alpha_i=0)
    with pytest.raises(ValueError):
        MultipathScene(geom=GEOM, theta=0.0, psi=0.0, alpha_d=1, alpha_i=0,
                       sigma_w2=0.0)
    with pytest.raises(ValueError):
        MultipathScene(geom=GEOM, theta=0.0, psi=0.0, alpha_d=1, alpha_i=0,
                       k_pulses=0)


def test_synthesis_deterministic_and_near_noise_free():
    sc = scene_from_ratios(GEOM, 0.0, np.deg2rad(0.5), 10.0, 0.0, 0.0, 4, 2.0)
    y1 = synthesize_compressed(sc, 42)
    y2 = synthesize_compressed(sc, 42)
    np.testing.assert_array_equal(y1, y2)
    y3 = synthesize_compressed(sc, 43)
    assert not np.array_equal(y1, y3)

    # vanishing noise and no indirect path: the statistic is K*E_p*alpha_d*A_d
    quiet = scene_from_ratios(GEOM, 0.0, np.deg2rad(0.5), 600.0, 1e9, 0.0, 4, 2.0)
    assert quiet.alpha_i == 0
    y = synthesize_compressed(quiet, 7)
    a_d_raw, _ = raw_mimo(GEOM, 0.0, np.deg2rad(0.5))
    np.testing.assert_allclose(y, 4 * 2.0 * a_d_raw, atol=1e-12)


def test_synthesis_moments():
    # 1e5 draws: per-entry mean within 4 standard errors, variance within 5%
    sc = scene_from_ratios(GEOM, 0.0, np.deg2rad(0.5), 3.0, 2.0, 0.7, 2, 1.5)
    mean = compressed_mean(sc)
    n = 100_000
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(2026)))
    y = synthesize_compressed(sc, rng, n)
    var_expected = sc.k_pulses * sc.e_p * sc.sigma_w2
    se = math.sqrt(var_expected / n)
    assert np.abs(y.mean(axis=0) - mean).max() < 4.0 * se
    np.testing.assert_allclose((np.abs(y - mean) ** 2).mean(axis=0),
                               var_expected, rtol=0.05)


def test_stacked_synthesis_is_the_single_stream():
    sc = scene_from_ratios(GEOM, 0.0, np.deg2rad(0.5), 10.0, 3.0, 0.4, 4, 2.0)
    np.testing.assert_array_equal(synthesize_compressed(sc, 42),
                                  synthesize_compressed(sc, 42, 1)[0])
    stream = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5)))
    singles = [synthesize_compressed(sc, stream) for _ in range(3)]
    stacked = synthesize_compressed(sc, 5, 3)
    assert stacked.shape == (3, GEOM.m_r, GEOM.m_t)
    np.testing.assert_array_equal(stacked, np.array(singles))
    np.testing.assert_array_equal(synthesize_compressed(sc, 5, np.int64(3)), stacked)


@pytest.mark.parametrize("n", [0, -2, 2.0, True, "3"])
def test_stacked_synthesis_rejects_bad_counts(n):
    sc = scene_from_ratios(GEOM, 0.0, np.deg2rad(0.5), 10.0, 3.0, 0.4)
    with pytest.raises(ValueError, match="n must be"):
        synthesize_compressed(sc, 1, n)
