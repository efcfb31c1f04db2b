import math

import numpy as np
import pytest

from mpcrb import (GroundScenario, indirect_geometry, range_point,
                   range_sweep, reflection_coefficient, standard_virtual_ula,
                   wrap_phase)


def asphalt(grid, **overrides):
    params = dict(h_r=1.0, wavelength=0.0038, eps_r=4.0, gamma_cond=0.005,
                  range_grid=np.asarray(grid, dtype=float),
                  geom=standard_virtual_ula(3, 8), v=10.0, r_res=0.5,
                  v_res=0.05, k_pulses=256, e_p=1.0, snr_ref_db=20.0,
                  r_ref=50.0)
    params.update(overrides)
    return GroundScenario(**params)


def test_indirect_geometry_right_triangle():
    r_i, psi = indirect_geometry(math.sqrt(3.0), 0.0, 0.5)
    assert r_i == pytest.approx(2.0, rel=1e-12)
    assert abs(psi) == pytest.approx(math.radians(30.0), rel=1e-12)
    assert psi < 0     # below broadside


def test_indirect_geometry_ten_meters():
    r_i, psi = indirect_geometry(10.0, 0.0, 0.5)
    assert r_i == pytest.approx(math.sqrt(101.0), rel=1e-12)
    assert abs(psi) == pytest.approx(math.radians(5.7105931), rel=1e-6)


def test_indirect_geometry_long_range_asymptotics():
    h = 0.5
    prev_gap = None
    for r in (50.0, 200.0, 800.0):
        r_i, psi = indirect_geometry(r, 0.0, h)
        gap = r_i - r
        assert gap == pytest.approx(2.0 * h * h / r, rel=1e-3)
        assert abs(psi) < 2.1 * 2.0 * h / r
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap
    with pytest.raises(ValueError):
        indirect_geometry(-1.0, 0.0, 0.5)


def test_reflection_mirror_limit_and_rate():
    g3 = reflection_coefficient(1e-3, 4.0, 0.005, 0.0038)
    g4 = reflection_coefficient(1e-4, 4.0, 0.005, 0.0038)
    assert abs(g3 + 1.0) < 1e-2
    assert abs(g4 + 1.0) < abs(g3 + 1.0)
    assert abs(g4 + 1.0) == pytest.approx(abs(g3 + 1.0) / 10.0, rel=0.05)


def test_reflection_normal_incidence_lossless():
    g = reflection_coefficient(math.pi / 2, 4.0, 0.0, 0.0038)
    assert g == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_reflection_magnitude_bounded():
    for psi in np.linspace(1e-5, math.pi / 2, 2000):
        assert abs(reflection_coefficient(psi, 4.0, 0.005, 0.0038)) <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        reflection_coefficient(0.0, 4.0, 0.005, 0.0038)


def test_range_point_phase_asymptote():
    scn = asphalt([10.0, 200.0])
    pt = range_point(scn, 200.0)
    phi_rd = 2 * math.pi * pt.r_d / scn.wavelength
    phi_ri = 2 * math.pi * pt.r_i / scn.wavelength
    asympt = wrap_phase(phi_rd - phi_ri + math.pi)
    assert abs(wrap_phase(pt.delta_phi - asympt)) < 1e-2


def test_range_point_same_cell_gates():
    scn = asphalt([3.0, 60.0])
    near = range_point(scn, 3.0)       # r_i - r_d = 0.606 m > 0.5 m
    assert near.r_i - near.r_d > 0.5
    assert not near.same_cell and near.bound is None
    far = range_point(scn, 60.0)
    assert far.same_cell and far.bound is not None
    # doppler projection gate alone
    mid = range_point(scn, 12.0)       # in range cell but not doppler cell
    assert mid.r_i - mid.r_d < 0.5
    assert scn.v * (1 - math.cos(-mid.psi)) > scn.v_res
    assert not mid.same_cell


def test_amplitude_ratio_null_near_brewster_range():
    grid = np.arange(2.0, 8.01, 0.05)
    scn = asphalt(grid)
    pts = [range_point(scn, r) for r in grid]
    amp = np.array([10 ** (-p.smr_db / 20.0) for p in pts])
    r_min = grid[int(np.argmin(amp))]
    # pseudo-Brewster grazing angle for eps=4 sits at 26.57 deg -> 4 h_r
    assert 3.5 < r_min < 4.5
    assert amp.min() < 0.05


def test_snr_normalization_reference():
    scn = asphalt([50.0])
    pt = range_point(scn, 50.0)
    assert pt.snr_db == pytest.approx(20.0, abs=1e-9)
    pt2 = range_point(scn, 100.0)
    assert pt2.snr_db == pytest.approx(20.0 - 40.0 * math.log10(2.0), abs=1e-6)


def test_range_sweep_two_geometries_ordering():
    grid = np.arange(30.0, 40.01, 1.0)
    scn = asphalt(grid)
    out = range_sweep(scn, geoms={"a": standard_virtual_ula(3, 8),
                                  "b": standard_virtual_ula(3, 16)})
    assert set(out) == {"a", "b"}
    for pa, pb in zip(out["a"], out["b"]):
        assert pa.r_d == pb.r_d
        if pa.bound is not None and pb.bound is not None:
            assert pb.bound.crb_theta < pa.bound.crb_theta
    # shared path physics
    assert [p.smr_db for p in out["a"]] == [p.smr_db for p in out["b"]]


def test_scenario_validation():
    with pytest.raises(ValueError):
        asphalt([5.0, 4.0])
    with pytest.raises(ValueError):
        asphalt([5.0], eps_r=0.5)
    with pytest.raises(ValueError):
        asphalt([5.0], h_r=-1.0)


def test_range_sweep_batch_matches_range_point():
    scn = asphalt(np.arange(8.0, 100.01, 4.0))
    geom = standard_virtual_ula(3, 16)
    swept = range_sweep(scn, geoms={"g": geom})["g"]
    assert any(p.same_cell for p in swept) and not all(p.same_cell for p in swept)
    for p in swept:
        q = range_point(scn, p.r_d, geom=geom)
        assert (p.same_cell, p.bound is None) == (q.same_cell, q.bound is None)
        assert p.scene == q.scene
        if p.bound is not None:
            assert abs(p.bound.theta_a - q.bound.theta_a) <= 1e-7
            assert p.bound.m_theta_theta == pytest.approx(q.bound.m_theta_theta,
                                                          rel=1e-12)
