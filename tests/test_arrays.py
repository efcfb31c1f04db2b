import numpy as np
import pytest
from conftest import fd_steering_derivative

from mpcrb import (ArrayGeometry, beampattern, e_adot, mimo_matrices,
                   standard_virtual_ula, steering, virtual_hpbw)

RNG = np.random.default_rng(101)


def virtual_positions(geom):
    """All pairwise sums of transmit and receive positions, sorted."""
    return np.sort(np.add.outer(geom.tx_positions, geom.rx_positions).ravel())


def random_geometry(rng=RNG, m_t=None, m_r=None):
    m_t = m_t or int(rng.integers(1, 5))
    m_r = m_r or int(rng.integers(2, 9))
    return ArrayGeometry(tx_positions=rng.uniform(-4, 4, m_t),
                         rx_positions=rng.uniform(-3, 3, m_r))


def test_standard_virtual_ula_3x4():
    g = standard_virtual_ula(3, 4)
    np.testing.assert_allclose(g.rx_positions, [-0.75, -0.25, 0.25, 0.75])
    np.testing.assert_allclose(g.tx_positions, [-2.0, 0.0, 2.0])
    v = virtual_positions(g)
    assert v.size == 12
    np.testing.assert_allclose(np.diff(v), 0.5, atol=1e-14)


def test_standard_virtual_ula_degenerate():
    g = standard_virtual_ula(1, 1)
    np.testing.assert_allclose(g.rx_positions, [0.0])
    np.testing.assert_allclose(g.tx_positions, [0.0])


def test_standard_virtual_ula_3x8_spacing():
    g = standard_virtual_ula(3, 8)
    np.testing.assert_allclose(np.diff(g.tx_positions), 4.0)
    v = virtual_positions(g)
    assert v.size == 24
    np.testing.assert_allclose(np.diff(v), 0.5, atol=1e-14)


def test_invalid_element_count():
    with pytest.raises(ValueError):
        standard_virtual_ula(0, 4)
    with pytest.raises(ValueError):
        ArrayGeometry(tx_positions=[], rx_positions=[0.0])
    with pytest.raises(ValueError):
        ArrayGeometry(tx_positions=[np.nan], rx_positions=[0.0])


def test_geometry_recentering():
    g = ArrayGeometry(tx_positions=[0.0, 2.0, 4.0], rx_positions=[1.0, 2.0])
    np.testing.assert_allclose(g.tx_positions, [-2.0, 0.0, 2.0])
    np.testing.assert_allclose(g.rx_positions, [-0.5, 0.5])


def test_steering_broadside():
    g = standard_virtual_ula(1, 4)
    s = steering(g, 0.0)
    np.testing.assert_allclose(s.a_r, 0.5 * np.ones(4))


def test_steering_quarter_wavelength_endfire_limit():
    # endfire limit, taken just inside the open angle domain
    g = ArrayGeometry(tx_positions=[0.0], rx_positions=[-0.25, 0.25])
    s = steering(g, np.pi / 2 - 1e-12)
    np.testing.assert_allclose(s.a_r, np.array([-1j, 1j]) / np.sqrt(2), atol=1e-9)
    with pytest.raises(ValueError):
        steering(g, np.pi / 2)


def test_steering_normalization_and_centering():
    for _ in range(50):
        g = random_geometry()
        theta = float(RNG.uniform(-1.4, 1.4))
        s = steering(g, theta)
        assert abs(np.linalg.norm(s.a_r) - 1.0) < 1e-12
        assert abs(np.linalg.norm(s.a_t) - 1.0) < 1e-12
        assert abs(np.vdot(s.a_r, s.da_r)) < 1e-12 * max(1.0, np.linalg.norm(s.da_r))


def test_steering_derivative_matches_finite_differences():
    for _ in range(30):
        g = random_geometry()
        theta = float(RNG.uniform(-1.2, 1.2))
        s = steering(g, theta)
        fd = fd_steering_derivative(g.rx_positions, theta)
        scale = max(np.abs(fd).max(), 1.0)
        assert np.abs(s.da_r - fd).max() < 1e-6 * scale


def test_mimo_matrices_collapse_and_traces():
    g = standard_virtual_ula(3, 4)
    theta = 0.21
    s_t = steering(g, theta)
    a_d, a_i, da_d, dda_d = mimo_matrices(s_t, s_t)
    np.testing.assert_allclose(a_i, 2.0 * a_d, atol=1e-15)
    for _ in range(20):
        th = float(RNG.uniform(-1.2, 1.2))
        ps = float(RNG.uniform(-1.2, 1.2))
        s1, s2 = steering(g, th), steering(g, ps)
        a_d, a_i, da_d, dda_d = mimo_matrices(s1, s2)
        assert abs(np.trace(a_d @ a_d.conj().T) - 1.0) < 1e-12
        assert abs(np.trace(da_d @ a_d.conj().T)) < 1e-12


def test_e_adot_values_and_identity():
    g1 = standard_virtual_ula(1, 1)
    assert e_adot(steering(g1, 0.3)) == 0.0

    g = standard_virtual_ula(3, 4)
    s = steering(g, 0.0)
    # independent finite-difference evaluation of ||da||^2 + analytic formula
    fd_r = fd_steering_derivative(g.rx_positions, 0.0)
    fd_t = fd_steering_derivative(g.tx_positions, 0.0)
    e_fd = np.sum(np.abs(fd_r) ** 2) + np.sum(np.abs(fd_t) ** 2)
    e_formula = (2 * np.pi) ** 2 * (np.sum(g.rx_positions ** 2) / 4
                                    + np.sum(g.tx_positions ** 2) / 3)
    assert e_adot(s) == pytest.approx(e_fd, rel=1e-8)
    assert e_adot(s) == pytest.approx(e_formula, rel=1e-12)
    assert e_adot(s) == pytest.approx(117.6128, rel=1e-4)


def test_e_adot_curvature_identity():
    for _ in range(30):
        g = random_geometry()
        theta = float(RNG.uniform(-1.2, 1.2))
        s = steering(g, theta)
        a_d, _, _, dda_d = mimo_matrices(s, s)
        e = e_adot(s)
        if e == 0.0:
            continue
        assert abs(np.trace(dda_d.conj().T @ a_d) + e) < 1e-10 * e


def test_e_adot_tx_rx_exchange():
    g = random_geometry(m_t=3, m_r=5)
    swapped = ArrayGeometry(tx_positions=g.rx_positions,
                            rx_positions=g.tx_positions)
    th = 0.4
    assert e_adot(steering(g, th)) == pytest.approx(
        e_adot(steering(swapped, th)), rel=1e-14)


def test_beampattern_unity_at_steer_and_bounded():
    g = standard_virtual_ula(3, 4)
    grid = np.deg2rad(np.arange(-89.0, 89.01, 0.05))
    tx_db, rx_db = beampattern(g, 0.0, grid)
    i0 = np.argmin(np.abs(grid))
    assert abs(tx_db[i0]) < 1e-9 and abs(rx_db[i0]) < 1e-9
    assert tx_db.max() < 1e-9 and rx_db.max() < 1e-9


def test_beampattern_tx_grating_lobes_at_30deg():
    g = standard_virtual_ula(3, 4)
    tx_db, _ = beampattern(g, 0.0, np.deg2rad(np.array([-30.0, 30.0])))
    assert np.all(np.abs(tx_db) < 1e-9)


def test_beampattern_rx_first_null_near_30deg():
    # dense-grid zero location of the 4-element half-wavelength pattern
    g = standard_virtual_ula(3, 4)
    grid = np.deg2rad(np.arange(20.0, 40.0, 0.001))
    _, rx_db = beampattern(g, 0.0, grid)
    null_at = np.rad2deg(grid[int(np.argmin(rx_db))])
    assert abs(null_at - 30.0) < 0.01


def test_virtual_hpbw_matches_ula_rule():
    g = standard_virtual_ula(3, 4)
    assert virtual_hpbw(g) == pytest.approx(0.886 / 6.0, rel=1e-12)
