import cmath
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import (compressed_mean, dense_grid_argmax, fim, raw_e_adot,
                      raw_mimo, raw_mimo_derivs, raw_steering, raw_traces,
                      theta_a, theta_a_paper_form)

from mpcrb import (ArrayGeometry, BoundBreakdown, ConditioningError,
                   DegenerateBoundError, MultipathScene, SearchConfig,
                   SingularInformationError, crb_theta, mcrb_sandwich,
                   mcrb_theta_closed, multipath_free, scene_from_ratios,
                   standard_virtual_ula, virtual_hpbw)
from mpcrb import bounds, experiments
from mpcrb.bounds import (_bounds, _breakdowns, _build, _closed, _curvature, _informative,
                          _pseudo_true, _sandwich, _scene_columns,
                          mcrb_theta_closed_columns)
from mpcrb.cli import load_preset
from mpcrb.experiments import run_fig5, run_scenario

GEOM = standard_virtual_ula(3, 4)
RNG = np.random.default_rng(303)
TIGHT = SearchConfig(refine_tol=1e-9)


def unit_e_adot_geometry():
    """Two-element receive pair placed so that E_Adot = 1 at broadside."""
    a = 1.0 / (2.0 * np.pi)
    return ArrayGeometry(tx_positions=[0.0], rx_positions=[-a, a])


def fig2_scene(snr_db=10.0, k=1):
    return scene_from_ratios(GEOM, 0.0, np.deg2rad(0.5), snr_db, 0.0, 0.0, k)


# ---------------------------------------------------------------------------
# FIM / CRB

def test_fim_unit_substitution():
    g = unit_e_adot_geometry()
    sc = scene_from_ratios(g, 0.0, 0.01, 0.0, 0.0, 0.0)      # snr 0 dB -> sigma 1
    j = fim(sc, f_tau=1.0, f_omega=1.0)
    np.testing.assert_allclose(j, np.diag([2.0, 2.0, 2.0, 2.0, 2.0]), atol=1e-12)


def test_fim_linear_in_pulse_count():
    sc1 = fig2_scene(k=1)
    sc2 = fig2_scene(k=2)
    np.testing.assert_allclose(fim(sc2, 1.0, 1.0), 2.0 * fim(sc1, 1.0, 1.0),
                               rtol=1e-14)


def test_fim_theta_entry_fig2_preset():
    sc = fig2_scene(snr_db=10.0, k=64)
    j = fim(sc, 1.0, 1.0)
    assert j[4, 4] == pytest.approx(2 * 10 * 64 * 117.6128, rel=1e-5)
    assert j[4, 4] * crb_theta(sc) == pytest.approx(1.0, rel=1e-12)


def test_fim_rejects_singular_information():
    g = standard_virtual_ula(1, 1)
    sc = scene_from_ratios(g, 0.0, 0.01, 10.0, 0.0, 0.0)
    with pytest.raises(SingularInformationError):
        fim(sc, 1.0, 1.0)
    with pytest.raises(SingularInformationError):
        crb_theta(sc)
    # refused before the search; its coarse grid once raised "beamwidth undefined"
    for bound in (mcrb_theta_closed, mcrb_sandwich):
        with pytest.raises(SingularInformationError):
            bound(sc)


def test_crb_unit_and_scaling():
    g = unit_e_adot_geometry()
    sc = scene_from_ratios(g, 0.0, 0.01, 0.0, 0.0, 0.0)
    assert crb_theta(sc) == pytest.approx(0.5, rel=1e-12)
    sc4 = scene_from_ratios(g, 0.0, 0.01, 10 * math.log10(4.0), 0.0, 0.0)
    assert crb_theta(sc4) == pytest.approx(0.125, rel=1e-12)


def test_crb_does_not_overflow_to_zero_at_small_noise_power():
    # 2 SNR K E_Adot overflows at sigma_w2 = 1e-304, the CRB (~1e-310) does not
    sc = scene_from_ratios(standard_virtual_ula(3, 16), 0.0, 0.1, 40.0, 0.0, 0.0, 256)
    big = replace(sc, sigma_w2=sc.sigma_w2 / 1e300)
    assert crb_theta(big) == pytest.approx(crb_theta(sc) / 1e300, rel=1e-12, abs=0.0)


def test_crb_fig2_value_via_fd_oracle():
    sc = fig2_scene()
    fd = (raw_steering(GEOM.rx_positions, 1e-6) - raw_steering(GEOM.rx_positions, -1e-6)) / 2e-6
    ft = (raw_steering(GEOM.tx_positions, 1e-6) - raw_steering(GEOM.tx_positions, -1e-6)) / 2e-6
    e_fd = np.sum(np.abs(fd) ** 2) + np.sum(np.abs(ft) ** 2)
    assert crb_theta(sc) == pytest.approx(1.0 / (2 * 10 * e_fd), rel=1e-7)


def test_fim_crb_identity_random_scenes():
    for _ in range(20):
        sc = scene_from_ratios(GEOM, float(RNG.uniform(-0.5, 0.5)), 0.3,
                               float(RNG.uniform(-10, 30)),
                               float(RNG.uniform(-10, 30)),
                               float(RNG.uniform(-3, 3)),
                               int(RNG.integers(1, 64)))
        assert fim(sc, 1.0, 1.0)[4, 4] * crb_theta(sc) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# zeta entries and curvature matrix

def test_zeta_multipath_free():
    sc = scene_from_ratios(GEOM, 0.0, 0.2, 10.0, 0.0, 0.0)
    sc = MultipathScene(geom=GEOM, theta=sc.theta, psi=sc.psi,
                        alpha_d=2.0 + 0j, alpha_i=0.0 + 0j,
                        sigma_w2=sc.sigma_w2)
    z = _build(*_scene_columns([sc]))
    e = raw_e_adot(GEOM, 0.0)
    assert z.zeta4 == 0 and z.zeta5 == 0
    assert z.zeta3 == pytest.approx(4.0 * e, rel=1e-12)


def test_zeta_coherent_triples_curvature():
    sc = scene_from_ratios(GEOM, 0.0, 0.0, 10.0, 0.0, 0.0)
    z = _build(*_scene_columns([sc]))
    e = raw_e_adot(GEOM, 0.0)
    assert z.zeta3 == pytest.approx(3.0 * e, rel=1e-12)


def test_zeta5_against_raw_trace_oracle():
    theta, psi = 0.13, -0.29
    alpha_i = 0.7 * cmath.exp(0.9j)
    sc = MultipathScene(geom=GEOM, theta=theta, psi=psi, alpha_d=1.2 + 0.4j,
                        alpha_i=alpha_i, sigma_w2=0.3)
    z = _build(*_scene_columns([sc]))
    # independent trace built from raw steering vectors and explicit sums
    h = 1e-7
    ar = raw_steering(GEOM.rx_positions, theta)
    at = raw_steering(GEOM.tx_positions, theta)
    dar = (raw_steering(GEOM.rx_positions, theta + h)
           - raw_steering(GEOM.rx_positions, theta - h)) / (2 * h)
    dat = (raw_steering(GEOM.tx_positions, theta + h)
           - raw_steering(GEOM.tx_positions, theta - h)) / (2 * h)
    _, a_i = raw_mimo(GEOM, theta, psi)
    da_d = np.outer(dar, at) + np.outer(ar, dat)
    trace = sum(np.conj(da_d[m, n]) * a_i[m, n]
                for m in range(4) for n in range(3))
    assert z.zeta5 == pytest.approx(alpha_i * trace, rel=1e-6)


def test_build_entries_match_the_product_rule_oracle():
    # E_Adot and zeta3..zeta5 from the virtual-array moments against explicit
    # product-rule matrices and einsum traces: 203 geometries, the three preset
    # ULAs and 200 random non-uniform ones, a quarter of them with M_t = 1;
    # each within 1e-12 of the oracle, relative to the larger of the value and
    # a bound on the magnitudes of its terms, which may cancel
    rng = np.random.default_rng(2323)
    geoms = [standard_virtual_ula(3, m_r) for m_r in (4, 8, 16)]
    geoms += [ArrayGeometry(tx_positions=rng.uniform(-5, 5, 1 if i % 4 == 0
                                                     else int(rng.integers(2, 6))),
                            rx_positions=rng.uniform(-4, 4, int(rng.integers(1, 10))))
              for i in range(200)]
    assert sum(g.m_t == 1 for g in geoms) == 50
    for geom in geoms:
        theta, psi = rng.uniform(-1.3, 1.3, (2, 5))
        alpha_d, alpha_i = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
        mod = bounds._build(geom, theta, psi, alpha_d, alpha_i, 1, 1.0)
        e_dot = raw_e_adot(geom, theta)
        t0, t1, t2 = raw_traces(geom, theta, psi)
        p_d, cross = np.abs(alpha_d) ** 2, np.conj(alpha_d) * alpha_i * t2
        for got, want, scale in (
                (mod.e_dot, e_dot, e_dot),
                (mod.zeta3, p_d * e_dot - cross.real, p_d * e_dot + np.abs(cross)),
                (mod.zeta4, alpha_i * t0, 2.0 * np.abs(alpha_i)),   # |t0| <= 2
                (mod.zeta5, alpha_i * t1, 2.0 * np.abs(alpha_i) * np.sqrt(e_dot))):
            assert (np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), scale)).all()


def _entries(zeta3, zeta4, zeta5):
    """A stand-in model holding only the zeta columns :func:`_curvature` reads."""
    return SimpleNamespace(zeta3=np.array(zeta3, dtype=float),
                           zeta4=np.array(zeta4, dtype=complex),
                           zeta5=np.array(zeta5, dtype=complex))


def test_cd_matrix_diagonal_case_and_symmetry():
    np.testing.assert_allclose(_curvature(_entries([5.0], [0.0], [0.0]))[0],
                               np.diag([1, 1, 1.0, 1.0, 5.0]))
    z4, z5 = 0.3 - 1.1j, -0.8 + 0.2j
    (c,) = _curvature(_entries([-1.0], [z4], [z5]))
    np.testing.assert_array_equal(c, c.T)
    assert c[0, 3] == z4.imag and c[1, 3] == -z4.real
    assert c[0, 4] == -z5.real and c[1, 4] == -z5.imag


def test_cd_matrix_against_finite_difference_curvature():
    """Assemble C_D rows (alpha_R, alpha_I, theta) from the definition:
    FD second derivatives of the assumed compressed mean contracted with the
    indirect-path residual."""
    theta, psi = 0.05, np.deg2rad(4.0)
    sc = scene_from_ratios(GEOM, theta, psi, 10.0, 3.0, 0.8, 2)
    k, sig2 = sc.k_pulses, sc.sigma_w2
    scale = 2.0 * k / sig2
    cd = scale * _curvature(_build(*_scene_columns([sc])))[0]

    _, a_i = raw_mimo(GEOM, theta, psi)
    res = k * sc.alpha_i * a_i.ravel()

    def mu(a_re, a_im, th):
        ar = raw_steering(GEOM.rx_positions, th)
        at = raw_steering(GEOM.tx_positions, th)
        return k * (a_re + 1j * a_im) * np.outer(ar, at).ravel()

    x0 = np.array([sc.alpha_d.real, sc.alpha_d.imag, theta])
    h = np.array([1e-5, 1e-5, 1e-6])

    def dmu(i):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        return (mu(*xp) - mu(*xm)) / (2 * h[i])

    def d2mu(i, j):
        if i == j:
            xp, xm = x0.copy(), x0.copy()
            xp[i] += h[i]
            xm[i] -= h[i]
            return (mu(*xp) - 2 * mu(*x0) + mu(*xm)) / h[i] ** 2
        out = np.zeros_like(res)
        for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            x = x0.copy()
            x[i] += si * h[i]
            x[j] += sj * h[j]
            out = out + si * sj * mu(*x)
        return out / (4 * h[i] * h[j])

    idx = [0, 1, 4]   # alpha_R, alpha_I, theta rows of the 5x5 matrix
    for a in range(3):
        for b in range(3):
            j_ab = (2.0 / (k * sig2)) * np.real(np.vdot(dmu(a), dmu(b)))
            c_ab = j_ab - (2.0 / (k * sig2)) * np.real(
                np.vdot(d2mu(a, b), res))
            assert cd[idx[a], idx[b]] == pytest.approx(
                c_ab, rel=2e-5, abs=1e-6 * scale)


# ---------------------------------------------------------------------------
# pseudo-true angle

def test_theta_a_trivial_cases():
    clean = MultipathScene(geom=GEOM, theta=0.1, psi=0.3, alpha_d=1.0,
                           alpha_i=0.0, sigma_w2=1.0)
    assert abs(theta_a(clean) - 0.1) < 1e-7
    coherent = scene_from_ratios(GEOM, 0.1, 0.1, 10.0, 0.0, 0.0)
    assert abs(theta_a(coherent) - 0.1) < 1e-7


def test_theta_a_fig2_regression_and_dense_grid_oracle():
    sc = fig2_scene()
    got = theta_a(sc)
    assert 0.0 < got < np.deg2rad(0.5)
    # independent dense-grid argmax of the projection objective, 1e-4 deg step
    mean = compressed_mean(sc)
    oracle = dense_grid_argmax(GEOM, mean, 0.0, np.deg2rad(0.5),
                               np.deg2rad(1e-4))
    assert got == pytest.approx(oracle, abs=np.deg2rad(2e-4))
    # frozen regression value: the root of p'(phi) for p(phi) = |<A(phi), mean>|^2,
    # solved with mpmath at 40 digits from the float positions, angles and
    # amplitudes of this scene (Illinois method on [2.5e-3, 3.5e-3])
    assert got == pytest.approx(2.9079432178619855e-3, abs=1e-12)


def test_theta_a_scale_and_rotation_invariance():
    sc = scene_from_ratios(GEOM, 0.0, np.deg2rad(2.0), 10.0, 4.0, 0.9)
    ref = theta_a(sc)
    for factor in (3.7, cmath.exp(1.3j), 0.2 * cmath.exp(-2.2j)):
        sc2 = MultipathScene(geom=GEOM, theta=sc.theta, psi=sc.psi,
                             alpha_d=sc.alpha_d * factor,
                             alpha_i=sc.alpha_i * factor,
                             sigma_w2=sc.sigma_w2)
        assert theta_a(sc2) == pytest.approx(ref, abs=1e-9)


def test_theta_a_span_must_contain_theta():
    sc = fig2_scene()
    with pytest.raises(ValueError):
        theta_a(sc, SearchConfig(span=(0.1, 0.5)))
    # without multipath there is no search, as in the bounds: theta itself
    assert theta_a(multipath_free(sc), SearchConfig(span=(0.1, 0.5))) == sc.theta


def test_theta_a_paper_form_differs_in_general():
    sc = scene_from_ratios(GEOM, 0.0, np.deg2rad(2.0), 10.0, 3.0, 0.7)
    a = theta_a(sc)
    b = theta_a_paper_form(sc)
    assert abs(a - b) > 1e-6      # the weightings genuinely differ
    with pytest.raises(ValueError):
        theta_a_paper_form(scene_from_ratios(GEOM, 0.0, 0.02, 10.0, 0.0, math.pi))


# ---------------------------------------------------------------------------
# closed form and sandwich

def test_mcrb_closed_multipath_free_is_crb():
    sc = MultipathScene(geom=GEOM, theta=0.07, psi=0.5, alpha_d=1.4 - 0.2j,
                        alpha_i=0.0, sigma_w2=0.25)
    bb = mcrb_theta_closed(sc)
    assert bb.mcrb_theta == bb.crb_theta
    assert bb.b_theta_theta == 0.0 and bb.theta_a == sc.theta


def test_mcrb_closed_coherent_ninth():
    sc = scene_from_ratios(GEOM, 0.0, 0.0, 10.0, 0.0, 0.0)
    bb = mcrb_theta_closed(sc, search=TIGHT)
    assert bb.mcrb_theta == pytest.approx(bb.crb_theta / 9.0, rel=1e-10)
    assert math.sqrt(bb.mcrb_theta) == pytest.approx(
        math.sqrt(bb.crb_theta) / 3.0, rel=1e-10)


def test_mcrb_closed_degenerate_denominator():
    # coherent geometry, SMR 0 dB, destructive phase 2*pi/3: exact cancellation
    sc = scene_from_ratios(GEOM, 0.0, 0.0, 10.0, 0.0, 2.0 * math.pi / 3.0)
    with pytest.raises(DegenerateBoundError) as err:
        mcrb_theta_closed(sc)
    assert err.value.denominator < err.value.threshold
    # theta_A is searched before the reduction, so a target outside the span is
    # refused first, even on a degenerate row
    outside = scene_from_ratios(GEOM, 1.2, 1.2, 10.0, 0.0, 2.0 * math.pi / 3.0)
    with pytest.raises(ValueError, match="search span must contain the true theta"):
        mcrb_theta_closed(outside)


def test_mcrb_phase_rotation_invariance():
    sc = scene_from_ratios(GEOM, 0.0, np.deg2rad(1.5), 12.0, 6.0, 0.4)
    ref = mcrb_theta_closed(sc, search=TIGHT)
    rot = cmath.exp(0.9j)
    sc2 = MultipathScene(geom=GEOM, theta=sc.theta, psi=sc.psi,
                         alpha_d=sc.alpha_d * rot, alpha_i=sc.alpha_i * rot,
                         sigma_w2=sc.sigma_w2)
    bb2 = mcrb_theta_closed(sc2, search=TIGHT)
    assert bb2.m_theta_theta == pytest.approx(ref.m_theta_theta, rel=1e-12)
    # the bias part carries the theta_A search tolerance
    assert bb2.mcrb_theta == pytest.approx(ref.mcrb_theta, rel=1e-6)
    _, s1 = mcrb_sandwich(sc, search=TIGHT)
    _, s2 = mcrb_sandwich(sc2, search=TIGHT)
    assert s2.m_theta_theta == pytest.approx(s1.m_theta_theta, rel=1e-12)


def test_mcrb_periodic_and_continuous_in_phase():
    base = 0.9
    sc0 = scene_from_ratios(GEOM, 0.0, np.deg2rad(1.0), 10.0, 5.0, base)
    m0 = mcrb_theta_closed(sc0, search=TIGHT).m_theta_theta
    sc_per = scene_from_ratios(GEOM, 0.0, np.deg2rad(1.0), 10.0, 5.0,
                               base + 2 * math.pi)
    assert mcrb_theta_closed(sc_per, search=TIGHT).m_theta_theta == \
        pytest.approx(m0, rel=1e-12)
    sc_eps = scene_from_ratios(GEOM, 0.0, np.deg2rad(1.0), 10.0, 5.0,
                               base + 1e-7)
    assert mcrb_theta_closed(sc_eps, search=TIGHT).m_theta_theta == \
        pytest.approx(m0, rel=1e-5)


def test_sandwich_diagonal_reduction():
    sc = MultipathScene(geom=GEOM, theta=0.05, psi=0.4, alpha_d=0.8 + 0.1j,
                        alpha_i=0.0, sigma_w2=0.5, k_pulses=3)
    m, bb = mcrb_sandwich(sc)
    assert bb.m_theta_theta == pytest.approx(crb_theta(sc), rel=1e-12)
    j = fim(sc, 1.0, 1.0)
    np.testing.assert_allclose(m[2:, :2], 0.0, atol=1e-15)
    # rows 1,2 reduce to the inverse amplitude information
    assert m[0, 0] == pytest.approx(1.0 / j[0, 0], rel=1e-12)


def test_sandwich_coherent_ninth():
    sc = scene_from_ratios(GEOM, 0.0, 0.0, 10.0, 0.0, 0.0)
    _, bb = mcrb_sandwich(sc, search=TIGHT)
    assert bb.m_theta_theta == pytest.approx(bb.crb_theta / 9.0, rel=1e-10)


def test_sandwich_vs_closed_fig2_comparison_recorded():
    # the closed form drops the DOA/amplitude coupling feedback; on
    # this preset the gap is ~0.6% (recorded, see also the self-test log)
    sc = fig2_scene()
    closed = mcrb_theta_closed(sc, search=TIGHT)
    _, sand = mcrb_sandwich(sc, search=TIGHT)
    dev = abs(closed.m_theta_theta - sand.m_theta_theta) / sand.m_theta_theta
    assert 1e-4 < dev < 0.05
    assert closed.m_theta_theta < sand.m_theta_theta


def test_sandwich_conditioning_error(monkeypatch):
    sc = fig2_scene()
    monkeypatch.setattr(bounds, "_COND_THRESHOLD", 1.0)
    with pytest.raises(ConditioningError, match="exceeds 1.0e[+]00") as err:
        mcrb_sandwich(sc)
    assert err.value.condition > 1.0


# ---------------------------------------------------------------------------
# batched closed form

def _mixed_scenes():
    """Multipath-free, degenerate, coherent CRB/9, fig2 regression, plus a
    spread of ordinary scenes, all on one geometry."""
    rng = np.random.default_rng(2305)
    scenes = [
        MultipathScene(geom=GEOM, theta=0.07, psi=0.5, alpha_d=1.4 - 0.2j,
                       alpha_i=0.0, sigma_w2=0.25),
        scene_from_ratios(GEOM, 0.0, 0.0, 10.0, 0.0, 2.0 * math.pi / 3.0),
        scene_from_ratios(GEOM, 0.0, 0.0, 10.0, 0.0, 0.0),
        fig2_scene(),
    ]
    scenes += [scene_from_ratios(GEOM, float(rng.uniform(-0.4, 0.4)),
                                 float(rng.uniform(-0.6, 0.6)),
                                 float(rng.uniform(-5, 25)),
                                 float(rng.uniform(-10, 20)),
                                 float(rng.uniform(-math.pi, math.pi)),
                                 int(rng.integers(1, 9)))
               for _ in range(40)]
    return scenes


def _closed_rows(scenes):
    """The closed-form columns of the scenes' gathered columns, one breakdown
    per scene (None where not valid)."""
    return _breakdowns(mcrb_theta_closed_columns(*_scene_columns(scenes)))


def _scalar_or_none(scene):
    try:
        return mcrb_theta_closed(scene)
    except DegenerateBoundError:
        return None


def _assert_same_bounds(got, want):
    """theta_A within the search tolerance, every other field within 1e-12."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if g is None:
            continue
        assert abs(g.theta_a - w.theta_a) <= SearchConfig().refine_tol
        for field in ("crb_theta", "m_theta_theta", "b_theta_theta", "mcrb_theta"):
            assert getattr(g, field) == pytest.approx(getattr(w, field), rel=1e-12)


def test_closed_many_matches_scalar_calls():
    scenes = _mixed_scenes()
    got = _closed_rows(scenes)
    want = [_scalar_or_none(sc) for sc in scenes]
    assert got[1] is None and want[1] is None          # the degenerate scene
    assert sum(bb is None for bb in got) == sum(bb is None for bb in want)
    _assert_same_bounds(got, want)
    free = got[0]
    assert free.mcrb_theta == free.crb_theta and free.theta_a == scenes[0].theta
    coh = got[2]
    assert coh.m_theta_theta == pytest.approx(coh.crb_theta / 9.0, rel=1e-10)
    assert got[3].theta_a == pytest.approx(2.9079547702e-3, abs=1e-7)


def test_closed_many_order_and_split_invariant():
    scenes = _mixed_scenes()
    whole = _closed_rows(scenes)
    reverse = _closed_rows(scenes[::-1])[::-1]
    cut = 17
    split = _closed_rows(scenes[:cut]) + _closed_rows(scenes[cut:])
    _assert_same_bounds(reverse, whole)
    _assert_same_bounds(split, whole)


def test_closed_many_out_of_span_theta_raises():
    outside = scene_from_ratios(GEOM, 1.2, 1.1, 10.0, 3.0, 0.5)   # span is +-60 deg
    with pytest.raises(ValueError, match="span"):
        mcrb_theta_closed(outside)
    with pytest.raises(ValueError, match="span"):
        _closed_rows(_mixed_scenes() + [outside])
    # theta_A is searched before the reduction, so a degenerate row outside the span
    # raises too, where it came back not valid
    degenerate = scene_from_ratios(GEOM, 1.2, 1.2, 10.0, 0.0, 2.0 * math.pi / 3.0)
    with pytest.raises(ValueError, match="search span must contain the true theta"):
        _closed_rows([fig2_scene(), degenerate])


def test_closed_many_rejects_mixed_geometries_and_takes_empty():
    # the scene-list gather refuses mixed geometries; empty columns give empty columns
    other = scene_from_ratios(standard_virtual_ula(3, 8), 0.0, 0.1, 10.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="geometry"):
        _scene_columns([fig2_scene(), other])
    cols = mcrb_theta_closed_columns(GEOM, *[[]] * 7)
    assert [c.shape for c in cols] == [(0,)] * len(cols)


def test_closed_many_blocks_past_one_argmax_block():
    # more statistics than one argmax block: the block seam changes nothing
    base = _mixed_scenes()[3:]
    scenes = (base * (600 // len(base) + 1))[:600]
    got = _closed_rows(scenes)
    _assert_same_bounds(got[len(base) * 12:len(base) * 13], got[:len(base)])


# ---------------------------------------------------------------------------
# closed form in zeta terms against the SMR / delta-phi form it replaced

def _legacy_closed_m(scenes, eps_den_factor=1e-9):
    """The closed form's M and degeneracy test as they were written in SMR /
    delta-phi terms, with a special case for multipath-free rows, before the
    closed form moved onto the shared zeta builder; kept verbatim as an
    oracle.  Returns (M, degenerate) per scene."""
    geom = scenes[0].geom
    theta = np.array([sc.theta for sc in scenes])
    ad = np.array([sc.alpha_d for sc in scenes], dtype=complex)
    ai = np.array([sc.alpha_i for sc in scenes], dtype=complex)
    A_d, A_i, dA_d, ddA_d = raw_mimo_derivs(geom, theta, [sc.psi for sc in scenes])
    e_dot = raw_e_adot(geom, theta)
    k = np.array([sc.k_pulses for sc in scenes], dtype=float)
    sigma_w2 = np.array([sc.sigma_w2 for sc in scenes])
    p_d = np.abs(ad) ** 2
    crb = 1.0 / (2.0 * (p_d / sigma_w2) * k * e_dot)
    free = ai == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        smr_v = p_d / np.abs(ai) ** 2
        dphi = np.angle(ad) - np.angle(ai)       # enters only as exp(-j dphi)
        t1 = np.einsum("tmn,tmn->t", dA_d.conj(), A_i)
        t2 = np.einsum("tmn,tmn->t", ddA_d.conj(), A_i)
        den_base = (t2 * np.exp(-1j * dphi)).real - np.sqrt(smr_v) * e_dot
        den = den_base * den_base
        threshold = eps_den_factor * smr_v * e_dot * e_dot
        m = crb * e_dot * (np.abs(t1) ** 2 + smr_v * e_dot) / den
    degenerate = ~free & (den < threshold)
    m = np.where(free, crb, m)                   # the infinite-SMR limit
    return m, degenerate


def _oracle_scenes(geom, rng, n):
    """n random scenes on ``geom``: ordinary ones, multipath-free ones, and
    phase differences placed around the exact cancellation of the closed
    form's denominator, on both sides of the degeneracy threshold."""
    scenes = []
    while len(scenes) < n:
        theta = float(rng.uniform(-0.5, 0.5))
        psi = float(rng.uniform(-0.8, 0.8))
        snr_db, smr_db = float(rng.uniform(-5, 25)), float(rng.uniform(-10, 20))
        k = int(rng.integers(1, 9))
        kind = len(scenes) % 4
        dphis = [float(rng.uniform(-math.pi, math.pi))]
        if kind == 3:
            # Re{t2 e^{-j dphi}} = sqrt(SMR) E_Adot at dphi = arg t2 -+ acos(.)
            t2 = raw_traces(geom, theta, psi)[2]
            c = 10 ** (smr_db / 20) * raw_e_adot(geom, theta) / abs(t2)
            if c >= 1.0:
                continue
            root = cmath.phase(t2) + math.copysign(math.acos(c), rng.uniform(-1, 1))
            dphis = [root + sign * 10 ** float(rng.uniform(-8, -2))
                     for sign in (-1.0, 1.0)]
        for dphi in dphis:
            sc = scene_from_ratios(geom, theta, psi, snr_db, smr_db, dphi, k)
            if kind == 1:
                sc = MultipathScene(geom=geom, theta=theta, psi=psi,
                                    alpha_d=sc.alpha_d, alpha_i=0.0,
                                    k_pulses=k, sigma_w2=sc.sigma_w2)
            scenes.append(sc)
    return scenes[:n]


def test_closed_form_matches_legacy_smr_dphi_form():
    rng = np.random.default_rng(515)
    geoms = [standard_virtual_ula(3, 4), standard_virtual_ula(3, 16)]
    geoms += [ArrayGeometry(tx_positions=np.sort(rng.uniform(-4, 4, int(m_t))),
                            rx_positions=np.sort(rng.uniform(-3, 3, int(m_r))))
              for m_t, m_r in zip(rng.integers(1, 5, 6), rng.integers(2, 9, 6))]
    counts = {"scenes": 0, "degenerate": 0}
    for geom, n in zip(geoms, [800, 800] + [100] * 6):
        scenes = _oracle_scenes(geom, rng, n)
        want_m, want_deg = _legacy_closed_m(scenes)
        got = _closed_rows(scenes)
        assert [bb is None for bb in got] == want_deg.tolist()
        for bb, m in zip(got, want_m):
            if bb is not None:
                assert bb.m_theta_theta == pytest.approx(m, rel=1e-9)
        counts["scenes"] += len(scenes)
        counts["degenerate"] += int(want_deg.sum())
    # both sides of the threshold are exercised
    assert counts["scenes"] >= 2000
    assert 50 <= counts["degenerate"] <= counts["scenes"] - 1000


@pytest.mark.parametrize("amp", [1e-85, 1e76, 1e80])
def test_closed_form_ratio_free_of_amplitude_scale(amp):
    # I^2 and zeta3^2 scale as |alpha_d|^4 and leave the double range here
    for ratio, want in ((0.0, 1.0), (0.5, 0.4405312874020134)):
        sc = MultipathScene(geom=GEOM, theta=0.0, psi=0.1, alpha_d=amp,
                            alpha_i=ratio * amp, sigma_w2=amp ** 2)
        bb = mcrb_theta_closed(sc)
        assert bb.m_theta_theta / bb.crb_theta == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# batched sandwich against the scalar sandwich it replaced

def _legacy_curvature(model, z1=1.0, z2=1.0):
    """The 5x5 curvature matrix of a one-scene model, laid out inline as the
    scalar sandwich built it."""
    z4, z5 = complex(model.zeta4[0]), complex(model.zeta5[0])
    return np.array([
        [1.0, 0.0, 0.0, z4.imag, -z5.real],
        [0.0, 1.0, 0.0, -z4.real, -z5.imag],
        [0.0, 0.0, z1, 0.0, 0.0],
        [z4.imag, -z4.real, 0.0, z2, 0.0],
        [-z5.real, -z5.imag, 0.0, 0.0, float(model.zeta3[0])],
    ])


def _legacy_sandwich(scene, search=None, cond_threshold=1e12):
    """The sandwich as it was written one scene at a time, before it became
    a batch of one, with its zeta helper and the 5x5 layout inlined (zeta1
    and zeta2 folded to 1); kept as an oracle."""
    model = _build(*_scene_columns([scene]))
    z1 = z2 = 1.0
    z = _legacy_curvature(model, z1, z2)
    cond = float(np.linalg.cond(z))
    if not np.isfinite(cond) or cond > cond_threshold:
        raise ConditioningError(
            f"curvature matrix condition {cond:.3e} exceeds {cond_threshold:.1e}",
            condition=cond)
    _informative(model.e_dot)
    info = abs(scene.alpha_d) ** 2 * model.e_dot[0]
    j_diag = np.array([1.0, 1.0, z1, z2, info])
    z_inv = np.linalg.inv(z)
    m_matrix = (z_inv * j_diag) @ z_inv / model.s[0]
    m_tt = float(m_matrix[4, 4])
    th_a = scene.theta if scene.alpha_i == 0 else float(
        _pseudo_true(model, search, [0])[0])
    b = (scene.theta - th_a) ** 2
    return m_matrix, BoundBreakdown(float(model.crb[0]), m_tt, th_a, b, m_tt + b)


def _legacy_batches():
    """Six oracle batches, 1,000 scenes in all: 3x4, 3x16 and four random arrays."""
    rng = np.random.default_rng(616)
    geoms = [standard_virtual_ula(3, 4), standard_virtual_ula(3, 16)]
    geoms += [ArrayGeometry(tx_positions=np.sort(rng.uniform(-4, 4, int(m_t))),
                            rx_positions=np.sort(rng.uniform(-3, 3, int(m_r))))
              for m_t, m_r in zip(rng.integers(1, 5, 4), rng.integers(2, 9, 4))]
    return [_oracle_scenes(geom, rng, n)
            for geom, n in zip(geoms, [250, 250, 125, 125, 125, 125])]


def test_curvature_equals_legacy_layout_bitwise():
    for scenes in _legacy_batches():
        want = np.array([_legacy_curvature(_build(*_scene_columns([sc]))) for sc in scenes])
        got = _curvature(_build(*_scene_columns(scenes)))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_sandwich_batch_matches_legacy_scalar_sandwich(monkeypatch):
    counts = {"scenes": 0, "ill": 0}
    for i, scenes in enumerate(_legacy_batches()):
        cond_threshold = 1e12
        if i == 2:      # half the batch ill-conditioned
            mod = _build(*_scene_columns(scenes))
            cond_threshold = float(np.median(_sandwich(mod, mod.theta)[3]))
        monkeypatch.setattr(bounds, "_COND_THRESHOLD", cond_threshold)
        cols, ms, _ = _bounds(_sandwich, None, *_scene_columns(scenes))
        for sc, m, bb in zip(scenes, ms, _breakdowns(cols)):
            try:
                want_m, want = _legacy_sandwich(sc, None, cond_threshold)
            except ConditioningError:
                assert bb is None
                counts["ill"] += 1
                continue
            np.testing.assert_allclose(m, want_m, rtol=1e-12,
                                       atol=1e-12 * np.abs(want_m).max())
            for field in ("crb_theta", "m_theta_theta", "theta_a",
                          "b_theta_theta", "mcrb_theta"):
                assert getattr(bb, field) == pytest.approx(getattr(want, field),
                                                           rel=1e-12)
        counts["scenes"] += len(scenes)
    assert counts["scenes"] >= 1000 and 50 <= counts["ill"] <= 100


def test_sandwich_gate_free_of_amplitude_unit():
    # alpha_d, alpha_i and the noise scaled together leave the scene as it
    # is; the gate must not refuse it for the unit, and M_theta_theta stays.
    # SMR 0..20 dB keeps cond(Z) <= 1e4, so the raw inverse's rounding,
    # which grows as cond(Z) * eps, stays well inside 1e-12
    rng = np.random.default_rng(808)
    base = [scene_from_ratios(GEOM, float(rng.uniform(-0.5, 0.5)),
                              float(rng.uniform(-0.8, 0.8)),
                              float(rng.uniform(-5, 25)), float(rng.uniform(0, 20)),
                              float(rng.uniform(-math.pi, math.pi)),
                              int(rng.integers(1, 9)))
            for _ in range(200)]
    mod = _build(*_scene_columns(base))
    want, ok = _sandwich(mod, mod.theta)[:2]
    assert ok.all()
    for amp in (1e-8, 1e5, 1e6, 1e10):
        scaled = [MultipathScene(geom=GEOM, theta=sc.theta, psi=sc.psi,
                                 alpha_d=amp * sc.alpha_d, alpha_i=amp * sc.alpha_i,
                                 sigma_w2=amp ** 2 * sc.sigma_w2, k_pulses=sc.k_pulses)
                  for sc in base]
        mod = _build(*_scene_columns(scaled))
        got, ok = _sandwich(mod, mod.theta)[:2]
        assert ok.all()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# the reductions on their own, and the one bound core under metamorphic moves

def _scalar_sandwich(mod):
    """(|zeta5|^2 + I) / (s (zeta3 - |zeta5|^2)^2), I = |alpha_d|^2 E_Adot: the
    sandwich's (theta, theta) element wherever Im(conj(zeta4) zeta5) = 0."""
    info, z5 = np.abs(mod.alpha_d) ** 2 * mod.e_dot, np.abs(mod.zeta5) ** 2
    return (z5 + info) / (mod.s * (mod.zeta3 - z5) ** 2)


def _sandwich_m(geom, theta, seed):
    """The sandwich reduction's M and valid on 100 criterion-04-like scenes at
    ``theta``, and their model."""
    rng, hpbw = np.random.default_rng(seed), virtual_hpbw(geom)
    mod = _build(*_scene_columns([
        scene_from_ratios(geom, theta, theta - float(rng.uniform(-2, 2)) * hpbw,
                          float(rng.uniform(-5, 25)), float(rng.uniform(-10, 30)),
                          float(rng.uniform(-math.pi, math.pi)), int(rng.integers(1, 9)))
        for _ in range(100)]))
    return (*_sandwich(mod, mod.theta)[:2], mod)


@pytest.mark.parametrize("m_t, m_r", [(3, 4), (3, 8), (2, 5)])
@pytest.mark.parametrize("theta_deg", [0.0, 20.0])
def test_sandwich_is_scalar_on_arrays_symmetric_about_their_centre(m_t, m_r,
                                                                   theta_deg):
    m, ok, mod = _sandwich_m(standard_virtual_ula(m_t, m_r), math.radians(theta_deg),
                             11 * m_t + m_r)
    assert ok.all()
    np.testing.assert_allclose(m, _scalar_sandwich(mod), rtol=1e-10, atol=0.0)


def test_sandwich_is_not_scalar_on_an_irregular_array():
    # zeta4 feeds the (theta, theta) element through Im(conj(zeta4) zeta5)
    geom = ArrayGeometry(tx_positions=[-1.3, 0.1, 1.9],
                         rx_positions=[-1.1, 0.2, 0.5, 2.2, 2.9])
    for theta_deg in (0.0, 20.0):
        m, ok, mod = _sandwich_m(geom, math.radians(theta_deg), 35)
        assert np.abs(_scalar_sandwich(mod)[ok] / m[ok] - 1.0).max() > 0.1


def _both_routes(mod, theta_a):
    """A reduction with the closed form's M and valid, then as extras the
    sandwich's and the condition numbers of its curvature matrices."""
    return (*_closed(mod, theta_a)[:2], *_sandwich(mod, theta_a)[:2],
            np.linalg.cond(_curvature(mod)))


def _metamorphic_columns():
    """40 random geometries, each with 50 rows of scene columns, the first 5
    degenerate for both routes (coherent, SMR 0 dB, phase 2 pi/3)."""
    rng = np.random.default_rng(5150)
    for _ in range(40):
        geom = ArrayGeometry(tx_positions=rng.uniform(-4, 4, int(rng.integers(1, 5))),
                             rx_positions=rng.uniform(-3, 3, int(rng.integers(2, 9))))
        theta = rng.uniform(-0.5, 0.5, 50)
        psi = theta - rng.uniform(-2, 2, 50) * virtual_hpbw(geom)
        alpha_d = 10 ** (rng.uniform(-5, 25, 50) / 20) * np.exp(1j * rng.uniform(-3, 3, 50))
        alpha_i = alpha_d * 10 ** (-rng.uniform(-10, 30, 50) / 20) * np.exp(
            -1j * rng.uniform(-math.pi, math.pi, 50))
        psi[:5], alpha_i[:5] = theta[:5], alpha_d[:5] * np.exp(-2j * math.pi / 3)
        yield geom, (theta, np.clip(psi, -1.5, 1.5), alpha_d, alpha_i,
                     rng.integers(1, 9, 50), rng.uniform(0.1, 10.0, 50))


@pytest.mark.parametrize("move", ["swap tx and rx", "scale K and sigma_w2", "mirror"])
def test_core_is_invariant_under_metamorphic_moves(move):
    # valid identical on both routes; the closed form's crb, m and mcrb within
    # 1e-12, the sandwich's M within the inverse's own rounding, 16 eps cond(Z)
    # where that exceeds 1e-12 (|zeta4| near 1 makes Z nearly singular); theta_A
    # within 1e-12 rad, negated by the mirror (p -> -p, theta -> -theta, psi -> -psi)
    invalid = 0
    for geom, cols in _metamorphic_columns():
        want, want_m, want_ok, cond = _bounds(_both_routes, None, geom, *cols)
        if move == "swap tx and rx":
            geom = ArrayGeometry(tx_positions=geom.rx_positions,
                                 rx_positions=geom.tx_positions)
        elif move == "mirror":
            geom = ArrayGeometry(tx_positions=-geom.tx_positions,
                                 rx_positions=-geom.rx_positions)
            cols = (-cols[0], -cols[1], *cols[2:])
        else:
            cols = (*cols[:4], 3 * cols[4], 3.0 * cols[5])
        got, got_m, got_ok, _ = _bounds(_both_routes, None, geom, *cols)
        assert np.array_equal(got.valid, want.valid) and np.array_equal(got_ok, want_ok)
        th_a = -got.theta_a if move == "mirror" else got.theta_a
        np.testing.assert_allclose(th_a, want.theta_a, rtol=0.0, atol=1e-12)
        for field in ("crb", "m", "mcrb"):
            g, w = getattr(got, field)[want.valid], getattr(want, field)[want.valid]
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0)
        rtol = np.maximum(1e-12, 16 * np.finfo(float).eps * cond[want_ok])
        assert (np.abs(got_m - want_m)[want_ok] <= rtol * want_m[want_ok]).all()
        invalid += np.count_nonzero(~want.valid) + np.count_nonzero(~want_ok)
    assert invalid >= 2 * 5 * 40


# ---------------------------------------------------------------------------
# column core against the scalar closed form

@pytest.mark.parametrize("geom", [
    GEOM, ArrayGeometry(tx_positions=[-1.3, 0.2, 2.9],
                        rx_positions=[-1.1, -0.4, 0.35, 1.6, 2.2])])
def test_closed_columns_equal_scalar_calls_bitwise(geom):
    scenes = _oracle_scenes(geom, np.random.default_rng(717), 240)
    cols = mcrb_theta_closed_columns(*_scene_columns(scenes))
    many = [_scalar_or_none(sc) for sc in scenes]
    assert cols.valid.tolist() == [bb is not None for bb in many]
    # mixed K and sigma_w2, multipath-free and degenerate rows
    assert len({sc.k_pulses for sc in scenes}) > 1 and len({sc.sigma_w2 for sc in scenes}) > 1
    assert any(sc.alpha_i == 0 for sc in scenes) and not cols.valid.all()
    for t, bb in enumerate(many):
        if bb is not None:
            assert (bb.crb_theta, bb.m_theta_theta, bb.theta_a, bb.b_theta_theta,
                    bb.mcrb_theta) == (cols.crb[t], cols.m[t], cols.theta_a[t],
                                       cols.bias[t], cols.mcrb[t])
    free = np.array([sc.alpha_i == 0 for sc in scenes])
    assert np.array_equal(cols.theta_a[free], [sc.theta for sc in scenes if sc.alpha_i == 0])
    # theta_a is one row of the core: theta itself where alpha_i = 0
    assert [theta_a(sc) for sc in scenes] == cols.theta_a.tolist()
    assert np.array_equal(cols.crb, _build(*_scene_columns(scenes)).crb)


def test_closed_columns_broadcast_every_argument():
    # scalar alpha_d and alpha_i raised IndexError, a scalar theta with 2-row
    # columns ValueError ("non-broadcastable output operand")
    full = mcrb_theta_closed_columns(GEOM, [0.0, 0.0], [0.1, 0.2], [1.0, 1.0],
                                     [0.5, 0.5], [1, 1], [1.0, 1.0])
    for args in ([[0.0, 0.0], [0.1, 0.2], 1.0, 0.5, 1, 1.0],
                 [0.0, [0.1, 0.2], [1.0, 1.0], [0.5, 0.5], [1, 1], [1.0, 1.0]],
                 [0.0, np.array([0.1, 0.2]), 1.0, 0.5, 1, 1.0]):
        cols = mcrb_theta_closed_columns(GEOM, *args)
        assert all(c.tobytes() == f.tobytes() and c.shape == (2,)
                   for c, f in zip(cols, full))
    one = mcrb_theta_closed_columns(GEOM, 0.0, 0.1, 1.0, 0.5, 1, 1.0)   # one row
    assert all(c.tobytes() == f[:1].tobytes() for c, f in zip(one, full))
    # a grid broadcasts outer axis first, as its full columns raveled
    psi, dphi = np.array([0.1, 0.2, 0.3])[:, None], np.array([0.0, 1.0])
    alpha_i = 0.5 * np.exp(-1j * dphi)
    grid = mcrb_theta_closed_columns(GEOM, 0.0, psi, 1.0, alpha_i, 4, [0.5])
    flat = mcrb_theta_closed_columns(GEOM, np.zeros(6), np.repeat(psi.ravel(), 2),
                                     np.ones(6), np.tile(alpha_i, 3), np.full(6, 4),
                                     np.full(6, 0.5))
    assert all(g.tobytes() == f.tobytes() for g, f in zip(grid, flat))
    with pytest.raises(ValueError):
        mcrb_theta_closed_columns(GEOM, [0.0, 0.0], [0.1, 0.2, 0.3], 1.0, 0.5, 1, 1.0)


def test_overflowing_multipath_ratio_is_degenerate():
    # |alpha_i| / |alpha_d| ~ 1e155: zeta3^2 and |zeta5|^2 overflow, and the
    # pseudo-true angle still follows the indirect-dominated limit
    far = [scene_from_ratios(GEOM, 0.0, math.radians(-0.5), 10.0, smr, 0.0)
           for smr in (-300.0, -3000.0, -3100.0)]
    assert mcrb_theta_closed(far[1]).m_theta_theta > 0.0
    with pytest.raises(DegenerateBoundError, match="not finite"):
        mcrb_theta_closed(far[2])
    assert _closed_rows(far)[2] is None
    for sc in far[1:]:
        assert theta_a(sc) == pytest.approx(theta_a(far[0]), abs=1e-9)


def test_pseudo_true_search_memory_is_bounded_by_its_tiles():
    # one 64-row batch on a 12x16 array: the coarse scan holds the grid's
    # phasors, one block of values and one tile of V, never all of V (13.3 MiB
    # for this grid), and keeps nothing after the call, on either array
    def columns(n=64):
        return (np.zeros(n), np.full(n, -0.05), np.ones(n, dtype=complex),
                0.5 * np.exp(1j * np.linspace(0.0, 3.0, n)), 8, 0.01)

    mcrb_theta_closed_columns(GEOM, *columns())   # first-call imports and caches
    tracemalloc.start()
    try:
        for m_t, m_r in ((12, 16), (16, 12)):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            cols = mcrb_theta_closed_columns(standard_virtual_ula(m_t, m_r), *columns())
            held, peak = (v - start for v in tracemalloc.get_traced_memory())
            assert cols.valid.all() and (cols.theta_a != 0.0).all()
            assert peak < 13 * 2 ** 20 and held < 2 ** 20
            del cols
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# closed-form columns in row blocks

def _closed_in_blocks(monkeypatch, run):
    """Run ``run`` with each of the recipe's closed-form column calls made
    twice, at the module's block budget and in 64-row blocks; returns, per call,
    the geometry, both results and the number of 64-row blocks."""
    calls, real, build = [], bounds.mcrb_theta_closed_columns, bounds._build

    def twice(geom, *args, **kwargs):
        whole = real(geom, *args, **kwargs)
        rows = []
        with monkeypatch.context() as m:
            m.setattr(bounds, "_MODEL_BYTES", 1)
            m.setattr(bounds, "_build",
                      lambda g, *c: rows.append(len(c[0])) or build(g, *c))
            calls.append((geom, whole, real(geom, *args, **kwargs), len(rows)))
        return whole

    monkeypatch.setattr(experiments, "mcrb_theta_closed_columns", twice)
    run()
    return calls


def test_closed_columns_in_row_blocks_are_bitwise_one_block(monkeypatch, tmp_path):
    fig5 = load_preset("fig5")   # 25 x 21 = 525 rows: 9 blocks of 64
    fig5["grid"]["delta_phi_rad"]["step"] = math.pi / 12
    fig5["grid"]["delta_theta_deg"]["step"] = 2.0
    scenario = load_preset("scenario")
    scenario["range_grid_m"]["step"] = 0.5
    calls = _closed_in_blocks(monkeypatch, lambda: run_fig5(fig5, tmp_path / "f"))
    calls += _closed_in_blocks(monkeypatch,
                               lambda: run_scenario(scenario, tmp_path / "s"))
    assert [(g.m_t, g.m_r) for g, *_ in calls] == [(3, 4), (3, 8), (3, 16)]
    assert calls[0][3] >= 3 and calls[2][3] >= 3
    for _, whole, blocked, _ in calls:
        assert [c.tobytes() for c in blocked] == [c.tobytes() for c in whole]


def test_closed_columns_memory_stays_flat_past_one_block(monkeypatch):
    # 256-row blocks on 3x16: four times the rows hold about the same memory
    geom = standard_virtual_ula(3, 16)
    monkeypatch.setattr(bounds, "_MODEL_BYTES", 16 * 48 * 256)

    def peak(n):
        cols = (np.zeros(n), np.full(n, -0.02), np.ones(n, dtype=complex),
                0.5 * np.exp(1j * np.linspace(0.0, 3.0, n)), 8, 0.01)
        tracemalloc.start()
        try:
            out = mcrb_theta_closed_columns(geom, *cols)
            assert out.valid.all()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(64)   # first-call imports and caches
    one, four = peak(256), peak(1024)
    assert four <= 1.25 * one, (one, four)
