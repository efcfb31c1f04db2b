import numpy as np
import pytest
from conftest import fd_steering_derivative, raw_mimo, raw_steering

from mpcrb import ArrayGeometry, beampattern, standard_virtual_ula, virtual_hpbw
from mpcrb.arrays import _direct_indirect, _phasors, _vectors
from mpcrb.bounds import _crb, _projection_derivs

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


def test_geometries_are_values():
    # == raised ValueError and hash() TypeError for two or more elements
    a, b = standard_virtual_ula(3, 4), standard_virtual_ula(3, 4)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1
    # positions compare after re-centring
    assert ArrayGeometry([0.0, 2.0], [1.0, 2.0]) == ArrayGeometry([5.0, 7.0], [-1.0, 0.0])
    for other in (standard_virtual_ula(4, 3), standard_virtual_ula(3, 8),
                  ArrayGeometry(a.tx_positions, a.rx_positions + [0.0, 0.0, 0.0, 1e-9])):
        assert a != other and not a == other
    assert a != (a.tx_positions, a.rx_positions) and a != None   # noqa: E711


def test_geometry_carries_its_kernel_constants_read_only():
    g = random_geometry(m_t=3, m_r=5)
    assert np.array_equal(g._pos, np.concatenate((g.rx_positions, g.tx_positions)))
    assert np.array_equal(g._root, np.sqrt([5.0] * 5 + [3.0] * 3))
    q = np.add.outer(g.rx_positions, g.tx_positions).ravel()
    assert np.array_equal(g._moments, np.stack([np.ones_like(q), q, q * q], axis=1))
    for arr in (g.tx_positions, g.rx_positions, g._pos, g._root, g._moments):
        assert not arr.flags.writeable


@pytest.mark.parametrize("m_t, m_r", [(1, 4), (3, 4), (2, 7), (4, 2)])
def test_vectors_are_the_kernel_phasors_bitwise(m_t, m_r):
    # one phasor formula: a_r and a_t are the rx and tx rows of _phasors
    rng = np.random.default_rng(m_t * 10 + m_r)
    g = random_geometry(rng, m_t, m_r)
    theta = np.concatenate(([0.0, -0.0], rng.uniform(-1.4, 1.4, 9)))
    e = _phasors(g, np.sin(theta))
    rows = _vectors(g, theta)
    assert rows.a_r.shape == (theta.size, m_r) and rows.a_t.shape == (theta.size, m_t)
    assert rows.a_r.tobytes() == np.ascontiguousarray(e[:m_r].T).tobytes()
    assert rows.a_t.tobytes() == np.ascontiguousarray(e[m_r:].T).tobytes()
    for t, th in enumerate(theta):   # a scalar angle is its row
        one = _vectors(g, float(th))
        assert one.a_r.shape == (m_r,) and one.a_t.shape == (m_t,)
        assert one.a_r.tobytes() == e[:m_r, t].tobytes()
        assert one.a_t.tobytes() == e[m_r:, t].tobytes()
    zero = _vectors(g, 0.0)   # broadside: every entry exactly 1/sqrt(M)
    assert np.array_equal(zero.a_r, np.full(m_r, 1.0 / np.sqrt(m_r)))
    assert np.array_equal(zero.a_t, np.full(m_t, 1.0 / np.sqrt(m_t)))


def _derivs(g, y, theta):
    """c0, c1, c2 of one statistic ``y`` at one angle."""
    return [c[0] for c in _projection_derivs(g, np.asarray(y)[None], np.array([theta]))]


def _a(g, theta):
    """A(theta) by the package's own steering vectors."""
    s = _vectors(g, [theta])
    return _direct_indirect(s, s)[0][0]


def _e_adot(g, theta):
    return _crb(g, np.array([theta]), 1.0, 1, 1.0)[1][0]


def test_steering_broadside():
    g = standard_virtual_ula(1, 4)
    np.testing.assert_allclose(_vectors(g, 0.0).a_r, 0.5 * np.ones(4))


def test_steering_quarter_wavelength_endfire_limit():
    # endfire limit, taken just inside the open angle domain
    g = ArrayGeometry(tx_positions=[0.0], rx_positions=[-0.25, 0.25])
    s = _vectors(g, np.pi / 2 - 1e-12)
    np.testing.assert_allclose(s.a_r, np.array([-1j, 1j]) / np.sqrt(2), atol=1e-9)
    with pytest.raises(ValueError):
        _vectors(g, np.pi / 2)


def test_steering_normalization_and_centering():
    # |a| = 1 per array, and on A itself c0 = tr(A^H A) = 1, c1 = tr(dA^H A) = 0
    for _ in range(50):
        g = random_geometry()
        theta = float(RNG.uniform(-1.4, 1.4))
        s = _vectors(g, theta)
        assert abs(np.linalg.norm(s.a_r) - 1.0) < 1e-12
        assert abs(np.linalg.norm(s.a_t) - 1.0) < 1e-12
        c0, c1, _ = _derivs(g, _a(g, theta), theta)
        assert abs(c0 - 1.0) < 1e-12
        assert abs(c1) < 1e-12 * max(1.0, np.sqrt(_e_adot(g, theta)))


def test_projection_derivs_match_finite_differences():
    # c1 and c2 against central differences of c0(phi) = tr(A^H(phi) Y) and of
    # p(phi) = |c0|^2, all from raw steering vectors, on random statistics Y
    h = 1e-4
    for _ in range(30):
        g = random_geometry()
        theta = float(RNG.uniform(-1.2, 1.2))
        y = RNG.normal(size=(g.m_r, g.m_t)) + 1j * RNG.normal(size=(g.m_r, g.m_t))
        c0_raw = [np.vdot(np.outer(raw_steering(g.rx_positions, phi),
                                   raw_steering(g.tx_positions, phi)), y)
                  for phi in (theta - h, theta, theta + h)]
        p = np.abs(c0_raw) ** 2
        c0, c1, c2 = _derivs(g, y, theta)
        scale = np.abs(y).sum() * (1.0 + 2 * np.pi * 7.0) ** 2
        assert abs(c0 - c0_raw[1]) < 1e-16 * scale
        assert abs(c1 - (c0_raw[2] - c0_raw[0]) / (2 * h)) < 5e-8 * scale
        assert abs(c2 - (c0_raw[2] - 2 * c0_raw[1] + c0_raw[0]) / h ** 2) < 1e-6 * scale
        assert abs(2 * (c0.conjugate() * c1).real
                   - (p[2] - p[0]) / (2 * h)) < 1e-10 * scale ** 2
        assert abs(2 * (abs(c1) ** 2 + (c0.conjugate() * c2).real)
                   - (p[2] - 2 * p[1] + p[0]) / h ** 2) < 1e-9 * scale ** 2


def test_direct_indirect_collapse_and_traces():
    g = standard_virtual_ula(3, 4)
    s_t = _vectors(g, 0.21)
    a_d, a_i = _direct_indirect(s_t, s_t)
    np.testing.assert_allclose(a_i, 2.0 * a_d, atol=1e-15)
    for _ in range(20):
        th = float(RNG.uniform(-1.2, 1.2))
        ps = float(RNG.uniform(-1.2, 1.2))
        a_d, a_i = _direct_indirect(_vectors(g, th), _vectors(g, ps))
        want_d, want_i = raw_mimo(g, th, ps)
        np.testing.assert_allclose(a_d, want_d, rtol=0, atol=1e-15)
        np.testing.assert_allclose(a_i, want_i, rtol=0, atol=1e-15)
        c0, c1, _ = _derivs(g, a_d, th)
        assert abs(c0 - 1.0) < 1e-12 and abs(c1) < 1e-12


def test_e_adot_values_and_identity():
    assert _e_adot(standard_virtual_ula(1, 1), 0.3) == 0.0

    g = standard_virtual_ula(3, 4)
    # independent finite-difference evaluation of ||da||^2 + analytic formula
    fd_r = fd_steering_derivative(g.rx_positions, 0.0)
    fd_t = fd_steering_derivative(g.tx_positions, 0.0)
    e_fd = np.sum(np.abs(fd_r) ** 2) + np.sum(np.abs(fd_t) ** 2)
    e_formula = (2 * np.pi) ** 2 * (np.sum(g.rx_positions ** 2) / 4
                                    + np.sum(g.tx_positions ** 2) / 3)
    assert _e_adot(g, 0.0) == pytest.approx(e_fd, rel=1e-8)
    assert _e_adot(g, 0.0) == pytest.approx(e_formula, rel=1e-12)
    assert _e_adot(g, 0.0) == pytest.approx(117.6128, rel=1e-4)


def test_e_adot_curvature_identity():
    # c2 = tr(ddA^H A) = -E_Adot on A itself
    for _ in range(30):
        g = random_geometry()
        theta = float(RNG.uniform(-1.2, 1.2))
        e = _e_adot(g, theta)
        if e == 0.0:
            continue
        assert abs(_derivs(g, _a(g, theta), theta)[2] + e) < 1e-10 * e


def test_e_adot_tx_rx_exchange():
    g = random_geometry(m_t=3, m_r=5)
    swapped = ArrayGeometry(tx_positions=g.rx_positions,
                            rx_positions=g.tx_positions)
    assert _e_adot(g, 0.4) == pytest.approx(_e_adot(swapped, 0.4), rel=1e-14)


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


@pytest.mark.parametrize("grid", [[0.0, np.pi / 2], [-np.pi / 2], [1.0, 2.0],
                                  [0.0, np.nan]])
def test_beampattern_refuses_grid_angles_outside_the_half_plane(grid):
    # sin folds 95 deg onto 85 deg: the gain there repeated the 85 deg one
    with pytest.raises(ValueError, match=r"\|theta\| < pi/2"):
        beampattern(standard_virtual_ula(3, 4), 0.0, grid)


def test_virtual_hpbw_matches_ula_rule():
    g = standard_virtual_ula(3, 4)
    assert virtual_hpbw(g) == pytest.approx(0.886 / 6.0, rel=1e-12)
