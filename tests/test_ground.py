import cmath
import math

import numpy as np
import pytest
from conftest import PathGeometryInputs, path_coefficients, scene_ratios

from mpcrb import (GroundScenario, MultipathScene, indirect_geometry,
                   range_point, reflection_coefficient, standard_virtual_ula,
                   wrap_phase)
from mpcrb.ground import range_columns


GEOM = standard_virtual_ula(3, 8)


def asphalt(grid, **overrides):
    params = dict(h_r=1.0, wavelength=0.0038, eps_r=4.0, gamma_cond=0.005,
                  range_grid=np.asarray(grid, dtype=float), v=10.0, r_res=0.5,
                  v_res=0.05, k_pulses=256, snr_ref_db=20.0,
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
    pt = range_point(scn, 200.0, geom=GEOM)
    phi_rd = 2 * math.pi * pt.r_d / scn.wavelength
    phi_ri = 2 * math.pi * pt.r_i / scn.wavelength
    asympt = wrap_phase(phi_rd - phi_ri + math.pi)
    assert abs(wrap_phase(pt.delta_phi - asympt)) < 1e-2


def test_range_point_same_cell_gates():
    scn = asphalt([3.0, 60.0])
    near = range_point(scn, 3.0, geom=GEOM)    # r_i - r_d = 0.606 m > 0.5 m
    assert near.r_i - near.r_d > 0.5
    assert not near.same_cell and near.bound is None
    far = range_point(scn, 60.0, geom=GEOM)
    assert far.same_cell and far.bound is not None
    # doppler projection gate alone
    mid = range_point(scn, 12.0, geom=GEOM)    # in range cell, not Doppler cell
    assert mid.r_i - mid.r_d < 0.5
    assert scn.v * (1 - math.cos(-mid.psi)) > scn.v_res
    assert not mid.same_cell


def test_amplitude_ratio_null_near_brewster_range():
    grid = np.arange(2.0, 8.01, 0.05)
    scn = asphalt(grid)
    pts = [range_point(scn, r, geom=GEOM) for r in grid]
    amp = np.array([10 ** (-p.smr_db / 20.0) for p in pts])
    r_min = grid[int(np.argmin(amp))]
    # pseudo-Brewster grazing angle for eps=4 sits at 26.57 deg -> 4 h_r
    assert 3.5 < r_min < 4.5
    assert amp.min() < 0.05


def test_snr_normalization_reference():
    scn = asphalt([50.0])
    pt = range_point(scn, 50.0, geom=GEOM)
    assert pt.snr_db == pytest.approx(20.0, abs=1e-9)
    pt2 = range_point(scn, 100.0, geom=GEOM)
    assert pt2.snr_db == pytest.approx(20.0 - 40.0 * math.log10(2.0), abs=1e-6)


def test_range_sweep_two_geometries_ordering():
    grid = np.arange(30.0, 40.01, 1.0)
    scn = asphalt(grid)
    geoms = {"a": standard_virtual_ula(3, 8), "b": standard_virtual_ula(3, 16)}
    out = {name: [range_point(scn, r, geom=g) for r in grid.tolist()]
           for name, g in geoms.items()}
    for pa, pb in zip(out["a"], out["b"]):
        assert pa.r_d == pb.r_d
        if pa.bound is not None and pb.bound is not None:
            assert pb.bound.crb_theta < pa.bound.crb_theta
    # shared path physics
    assert [p.smr_db for p in out["a"]] == [p.smr_db for p in out["b"]]


def test_scenarios_are_values():
    # == raised ValueError (the range grid is an array) and hash() TypeError
    a, b = asphalt([5.0, 6.0, 7.5]), asphalt((5.0, 6.0, 7.5))
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != asphalt([5.0, 6.0, 7.0]) and a != asphalt([5.0, 6.0])
    assert a != asphalt([5.0, 6.0, 7.5], h_r=1.5)
    assert asphalt([5.0]) == asphalt(5.0)


def test_scenario_validation():
    with pytest.raises(ValueError):
        asphalt([5.0, 4.0])
    with pytest.raises(ValueError):
        asphalt([5.0], eps_r=0.5)
    with pytest.raises(ValueError):
        asphalt([5.0], h_r=-1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid, overrides, message", [
    ([math.nan], {}, "range_grid must be positive and strictly increasing"),
    ([math.inf], {}, "range_grid must be positive and strictly increasing"),
    ([5.0, math.inf], {}, "range_grid must be positive and strictly increasing"),
    ([5.0, math.nan], {}, "range_grid must be positive and strictly increasing"),
    ([5.0], dict(h_r=math.nan), "h_r, wavelength and r_ref must be positive"),
    ([5.0], dict(wavelength=math.nan), "h_r, wavelength and r_ref must be positive"),
    ([5.0], dict(r_ref=math.nan), "h_r, wavelength and r_ref must be positive"),
    ([5.0], dict(eps_r=math.nan), "require eps_r >= 1 and gamma_cond >= 0"),
    ([5.0], dict(gamma_cond=math.nan), "require eps_r >= 1 and gamma_cond >= 0"),
    ([5.0], dict(r_res=math.nan), "require r_res > 0, v_res > 0 and a finite v"),
    ([5.0], dict(v_res=math.nan), "require r_res > 0, v_res > 0 and a finite v"),
    ([5.0], dict(v=math.nan), "require r_res > 0, v_res > 0 and a finite v"),
    ([5.0], dict(r_res=0.0), "require r_res > 0, v_res > 0 and a finite v"),
])
def test_scenario_refuses_nan(grid, overrides, message):
    # each was accepted: a NaN wavelength was refused later as "r_ref / r_d is
    # too large", a NaN r_res, v_res or v put every range out of cell, and an
    # infinite range made range_columns warn, then refuse it as a grazing angle
    # out of (0, pi/2]
    with pytest.raises(ValueError) as err:
        asphalt(grid, **overrides)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# the column physics against the per-range scalar physics it replaced

def _scalar_indirect_geometry(r_d, theta, h_r):
    """``indirect_geometry`` in math-module scalars, verbatim."""
    if r_d <= 0.0 or h_r <= 0.0:
        raise ValueError("require r_d > 0 and h_r > 0")
    r_i = math.sqrt((r_d * math.cos(theta)) ** 2
                    + (r_d * math.sin(theta) + 2.0 * h_r) ** 2)
    psi = math.acos(min(1.0, r_d * math.cos(theta) / r_i))
    return r_i, -psi


def _scalar_reflection_coefficient(psi, eps_r, gamma_cond, wavelength):
    """``reflection_coefficient`` in cmath scalars, verbatim."""
    if not (0.0 < psi <= math.pi / 2):
        raise ValueError("grazing angle must lie in (0, pi/2]")
    eps = complex(eps_r, -60.0 * wavelength * gamma_cond)
    root = cmath.sqrt(eps - math.cos(psi) ** 2)
    return (eps * math.sin(psi) - root) / (eps * math.sin(psi) + root)


def _scalar_range_physics(scn, r_d):
    """``ground._range_physics`` before the columns replaced it, verbatim (on
    the scalar forms above) with a unit target reflection coefficient, kept as
    an oracle."""
    r_i, psi = _scalar_indirect_geometry(r_d, scn.theta, scn.h_r)
    grazing = -psi
    gamma_r = _scalar_reflection_coefficient(grazing, scn.eps_r, scn.gamma_cond,
                                             scn.wavelength)
    alpha_0d = (scn.r_ref / r_d) ** 2
    alpha_0i = (scn.r_ref / r_i) ** 2
    alpha_d, alpha_i = path_coefficients(PathGeometryInputs(
        gamma_t=1.0, gamma_r=gamma_r, alpha_0d=alpha_0d,
        alpha_0i=alpha_0i, r_d=r_d, r_i=r_i, wavelength=scn.wavelength))
    sigma_w2 = 1.0 / (10.0 ** (scn.snr_ref_db / 10.0))
    fields = dict(theta=scn.theta, psi=psi, alpha_d=alpha_d, alpha_i=alpha_i,
                  k_pulses=scn.k_pulses, sigma_w2=sigma_w2)
    scene = MultipathScene(geom=GEOM, **fields)
    same_cell = ((r_i - r_d) < scn.r_res
                 and scn.v * (1.0 - math.cos(grazing)) < scn.v_res)
    snr_v, smr_v, dphi = scene_ratios(scene)
    return (r_d, r_i, psi, gamma_r,
            10.0 * math.log10(smr_v) if math.isfinite(smr_v) else math.inf,
            dphi, 10.0 * math.log10(snr_v), same_cell), fields


@pytest.mark.parametrize("theta_deg, h_r, stop, v_res", [
    (0.0, 1.0, 100.0, 0.05), (5.0, 1.0, 100.0, 0.1), (-3.0, 2.5, 45.0, 0.05)])
def test_range_columns_match_the_scalar_physics(theta_deg, h_r, stop, v_res):
    # 401 ranges on each side of both gates (at 5 deg the grazing angle stays
    # above 5 deg, hence the wider Doppler cell); a target below the road is
    # refused, so the -3 deg grid stops short of it
    scn = asphalt(np.linspace(2.0, stop, 401), theta=math.radians(theta_deg),
                  h_r=h_r, v_res=v_res)
    cols = range_columns(scn)
    want = [_scalar_range_physics(scn, r) for r in scn.range_grid.tolist()]
    heads = [head for head, _ in want]
    range_gate = cols.r_i - cols.r_d < scn.r_res
    doppler_gate = scn.v * (1.0 - np.cos(cols.psi)) < scn.v_res
    assert range_gate.any() and not range_gate.all()
    assert doppler_gate.any() and not doppler_gate.all()
    assert cols.same_cell.tolist() == [head[7] for head in heads]
    for k, name in ((0, "r_d"), (1, "r_i"), (2, "psi"), (3, "gamma_r"),
                    (4, "smr_db"), (6, "snr_db")):
        np.testing.assert_allclose(getattr(cols, name), [h[k] for h in heads],
                                   rtol=1e-12, atol=0.0, err_msg=name)
    # the path phases 2 pi r / lambda run to ~1e5 rad, so the phases of
    # alpha_d, alpha_i and delta_phi carry their rounding: a 1-ulp change in
    # r_i (the oracle's ``x ** 2`` is a C pow, one ulp off x * x now and
    # then) moves them by ~2e-11 rad.  Phases: within 8 ulps of that phase
    phase_tol = 8 * np.spacing(2.0 * math.pi * cols.r_i / scn.wavelength)
    for name in ("alpha_d", "alpha_i"):
        got, ref = getattr(cols, name), np.array([f[name] for _, f in want])
        np.testing.assert_allclose(np.abs(got), np.abs(ref), rtol=1e-12)
        assert np.all(np.abs(np.angle(got / ref)) <= phase_tol)
    assert cols.sigma_w2 == want[0][1]["sigma_w2"]
    gap = [wrap_phase(a - h[5]) for a, h in zip(cols.delta_phi.tolist(), heads)]
    assert np.all(np.abs(gap) <= phase_tol)


@pytest.mark.parametrize("k", [1.5, 256.0, True])
def test_scenario_refuses_a_pulse_count_that_is_not_an_integer(k):
    with pytest.raises(ValueError, match="k_pulses must be an int or a numpy integer"):
        asphalt([10.0, 20.0], k_pulses=k)
    assert asphalt([10.0, 20.0], k_pulses=np.int64(256)).k_pulses == 256


def _first_scalar_refusal(scn):
    for r in scn.range_grid.tolist():
        try:
            _scalar_range_physics(scn, r)
        except ValueError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("overrides, message", [
    (dict(theta=math.radians(95.0)), "grazing angle must lie in (0, pi/2]"),
    (dict(theta=math.radians(-3.0)), "require r_i >= r_d > 0"),
    (dict(snr_ref_db=math.inf), "require sigma_w2 > 0, k_pulses >= 1"),
    (dict(k_pulses=0), "require sigma_w2 > 0, k_pulses >= 1"),
    # one power rule for the scene and the columns: NaN fails both
    (dict(k_pulses=math.nan), "require sigma_w2 > 0, k_pulses >= 1"),
    (dict(snr_ref_db=math.nan), "require sigma_w2 > 0, k_pulses >= 1"),
])
def test_range_columns_refuse_as_the_scalar_physics(overrides, message):
    # below the road from 19.1 m at -3 deg: the grid starts in model
    scn = asphalt(np.arange(5.0, 60.0, 5.0), **overrides)
    assert _first_scalar_refusal(scn) == message
    for call in (range_columns, lambda s: range_point(s, 40.0, geom=GEOM)):
        with pytest.raises(ValueError) as err:
            call(scn)
        assert str(err.value) == message


def test_range_columns_refuse_overflowing_amplitudes():
    scn = asphalt([2.0, 60.0], r_ref=1e160)
    with pytest.raises(OverflowError):      # what the scalar physics did
        _first_scalar_refusal(scn)
    with pytest.raises(ValueError, match="path amplitudes must be finite"):
        range_columns(scn)


def test_range_point_is_a_one_range_sweep_of_the_columns():
    scn = asphalt(np.arange(10.0, 80.0, 7.0))
    cols = range_columns(scn)
    for i, r in enumerate(scn.range_grid.tolist()):
        pt = range_point(scn, r, geom=GEOM)
        assert (pt.r_d, pt.r_i, pt.psi, pt.gamma_r, pt.smr_db, pt.delta_phi,
                pt.snr_db, pt.same_cell) == tuple(c[i].item() for c in cols[:8])
        assert type(pt.same_cell) is bool and type(pt.r_i) is float
        assert (pt.scene.alpha_d, pt.scene.alpha_i) == (cols.alpha_d[i],
                                                        cols.alpha_i[i])


def test_range_columns_wrap_the_phase_difference_with_wrap_phase():
    cols = range_columns(asphalt(np.linspace(2.0, 300.0, 997)))
    want = wrap_phase(np.angle(cols.alpha_d) - np.angle(cols.alpha_i))
    assert cols.delta_phi.tobytes() == want.tobytes()


def test_range_point_takes_the_array_as_a_required_keyword():
    scn = asphalt([40.0])
    with pytest.raises(TypeError):
        range_point(scn, 40.0)
    with pytest.raises(TypeError):
        range_point(scn, 40.0, None, GEOM)
    assert range_point(scn, 40.0, geom=GEOM).scene.geom is GEOM
