"""Estimation error bounds for the target DOA under ignored multipath.

Two routes to the misspecified bound are provided and kept independent on
purpose: a closed-form expression for the DOA diagonal element, and a
numerical sandwich built from the full 5x5 curvature matrix (parameter
ordering ``[Re alpha_d, Im alpha_d, tau_d, omega_Dd, theta]``).  The
conventional FIM/CRB for the matched (multipath-free) model lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .arrays import (ArrayGeometry, e_adot, mimo_matrices, steering,
                     virtual_hpbw)
from .scene import MultipathScene, snr

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class BoundsError(Exception):
    """Base class for bound-evaluation failures."""


class SingularInformationError(BoundsError):
    """The array carries no angle information (E_Adot = 0)."""


class DegenerateBoundError(BoundsError):
    """Closed-form denominator too close to zero: bound numerically invalid."""

    def __init__(self, message: str, denominator: float, threshold: float):
        super().__init__(message)
        self.denominator = denominator
        self.threshold = threshold


class ConditioningError(BoundsError):
    """Curvature matrix too ill-conditioned to invert reliably."""

    def __init__(self, message: str, condition: float):
        super().__init__(message)
        self.condition = condition


@dataclass(frozen=True)
class ZetaSet:
    """Reduced curvature-matrix entries.

    zeta1/zeta2 are the delay/Doppler diagonal factors (|alpha_d|^2 F/E_p,
    folded to 1.0 by default since neither appears in the DOA closed form);
    zeta3 is the DOA curvature; zeta4/zeta5 couple the amplitude rows to the
    Doppler and DOA rows.
    """

    zeta1: float
    zeta2: float
    zeta3: float
    zeta4: complex
    zeta5: complex

    def __post_init__(self):
        if self.zeta1 <= 0.0 or self.zeta2 <= 0.0:
            raise ValueError("zeta1 and zeta2 must be positive")


@dataclass(frozen=True)
class BoundBreakdown:
    """CRB, covariance term, pseudo-true angle, bias term and their sum (rad^2)."""

    crb_theta: float
    m_theta_theta: float
    theta_a: float
    b_theta_theta: float
    mcrb_theta: float


@dataclass(frozen=True)
class SearchConfig:
    """Grid-then-golden-section argmax settings, shared by the pseudo-true
    angle and the MML estimator."""

    span: tuple[float, float] = (-math.pi / 3, math.pi / 3)
    coarse_step: float | None = None   # None: virtual-array beamwidth / 20
    refine_tol: float = 1e-7

    def __post_init__(self):
        lo, hi = self.span
        if not (-math.pi / 2 < lo < hi < math.pi / 2):
            raise ValueError("span must be an interval inside (-pi/2, pi/2)")
        if self.coarse_step is not None:
            if self.coarse_step <= 0.0 or self.refine_tol >= self.coarse_step:
                raise ValueError("require coarse_step > refine_tol > 0")
        if self.refine_tol <= 0.0:
            raise ValueError("refine_tol must be positive")


def _scene_matrices(scene: MultipathScene):
    s_t = steering(scene.geom, scene.theta)
    s_r = steering(scene.geom, scene.psi)
    A_d, A_i, dA_d, ddA_d = mimo_matrices(s_t, s_r)
    return A_d, A_i, dA_d, ddA_d, e_adot(s_t)


def fim(scene: MultipathScene, f_tau: float = 1.0, f_omega: float = 1.0) -> np.ndarray:
    """Conventional 5x5 FIM of the matched model, diagonal under orthogonal
    waveforms and centered arrays: (2K/sigma^2) * diag(E_p, E_p,
    |a|^2 F_tau, |a|^2 F_omega, E_p |a|^2 E_Adot)."""
    if f_tau <= 0.0 or f_omega <= 0.0:
        raise ValueError("f_tau and f_omega must be positive")
    s_t = steering(scene.geom, scene.theta)
    e_dot = e_adot(s_t)
    if e_dot <= 0.0:
        raise SingularInformationError(
            "single-element arrays carry no DOA information (E_Adot = 0)")
    a2 = abs(scene.alpha_d) ** 2
    k = scene.k_pulses
    ep = scene.e_p
    pref = 2.0 * k / scene.sigma_w2
    return np.diag(pref * np.array([ep, ep, a2 * f_tau, a2 * f_omega, ep * a2 * e_dot]))


def crb_theta(scene: MultipathScene) -> float:
    """Matched-model DOA bound 1/(2*SNR*K*E_p*E_Adot), rad^2."""
    s_t = steering(scene.geom, scene.theta)
    e_dot = e_adot(s_t)
    if e_dot <= 0.0:
        raise SingularInformationError(
            "single-element arrays carry no DOA information (E_Adot = 0)")
    return 1.0 / (2.0 * snr(scene) * scene.k_pulses * scene.e_p * e_dot)


def zeta_set(scene: MultipathScene, f_tau: float | None = None,
             f_omega: float | None = None) -> ZetaSet:
    """Reduced curvature entries for the scene.

    With ``f_tau``/``f_omega`` omitted, zeta1 = zeta2 = 1 (the delay/Doppler
    information scalars are out of scope and cancel from the DOA element for
    symmetric geometries); otherwise zeta = |alpha_d|^2 * F / E_p.
    """
    A_d, A_i, dA_d, ddA_d, e_dot = _scene_matrices(scene)
    ad, ai = scene.alpha_d, scene.alpha_i
    a2 = abs(ad) ** 2
    z1 = 1.0 if f_tau is None else a2 * f_tau / scene.e_p
    z2 = 1.0 if f_omega is None else a2 * f_omega / scene.e_p
    t2 = np.trace(ddA_d.conj().T @ A_i)
    z3 = a2 * e_dot - (np.conj(ad) * ai * t2).real
    z4 = ai * np.trace(A_d.conj().T @ A_i)          # slow-time scale folded to 1
    z5 = ai * np.trace(dA_d.conj().T @ A_i)
    return ZetaSet(zeta1=float(z1), zeta2=float(z2), zeta3=float(z3),
                   zeta4=complex(z4), zeta5=complex(z5))


def cd_matrix(zetas: ZetaSet, scale: float = 1.0) -> np.ndarray:
    """Assemble the symmetric 5x5 curvature matrix Re{Z} times ``scale``.

    ``scale`` is the physical prefactor 2*K*E_p/sigma_w2; the matrix layout
    couples the amplitude rows to Doppler through zeta4 and to DOA through
    zeta5, with diag(1, 1, zeta1, zeta2, zeta3).
    """
    z4, z5 = zetas.zeta4, zetas.zeta5
    z = np.array([
        [1.0, 0.0, 0.0, z4.imag, -z5.real],
        [0.0, 1.0, 0.0, -z4.real, -z5.imag],
        [0.0, 0.0, zetas.zeta1, 0.0, 0.0],
        [z4.imag, -z4.real, 0.0, zetas.zeta2, 0.0],
        [-z5.real, -z5.imag, 0.0, 0.0, zetas.zeta3],
    ])
    return scale * z


_BLOCK = 64    # statistics per coarse-grid block of the argmax kernel
_EPS_DEN_FACTOR = 1e-9   # degeneracy threshold on the closed-form denominator


@lru_cache(maxsize=32)
def _steering_grid(geom_key: tuple, lo: float, hi: float, n: int):
    tx = np.asarray(geom_key[0])
    rx = np.asarray(geom_key[1])
    angles = np.linspace(lo, hi, n)
    s = np.sin(angles)
    a_r = np.exp(2j * np.pi * np.outer(rx, s)) / np.sqrt(rx.size)
    a_t = np.exp(2j * np.pi * np.outer(tx, s)) / np.sqrt(tx.size)
    return angles, a_r, a_t


def _resolve_search(geom: ArrayGeometry, search: SearchConfig | None) -> SearchConfig:
    if search is None:
        search = SearchConfig()
    if search.coarse_step is None:
        search = replace(search, coarse_step=virtual_hpbw(geom) / 20.0)
    return search


def _projection(geom: ArrayGeometry, y: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """|tr(A^H(angle_t) Y_t)|^2 per statistic, one angle per statistic."""
    s = np.sin(angles)
    a_r = np.exp(2j * np.pi * np.outer(s, geom.rx_positions)) / math.sqrt(geom.m_r)
    a_t = np.exp(2j * np.pi * np.outer(s, geom.tx_positions)) / math.sqrt(geom.m_t)
    proj = (a_r.conj()[:, None, :] @ y @ a_t.conj()[:, :, None])[:, 0, 0]
    return proj.real ** 2 + proj.imag ** 2


def _coarse_winner(y: np.ndarray, geom: ArrayGeometry, search,
                   prefer: np.ndarray | None = None):
    """Coarse grid and the index of each statistic's winner on it.

    The winner is the first maximum of |tr(A^H(phi) Y_t)|^2 over the grid,
    or with ``prefer`` the grid angle nearest ``prefer[t]`` among values
    within 1e-12 (relative) of the maximum.  The grid is scanned ``_BLOCK``
    statistics at a time, which bounds its (block, grid) intermediate.
    """
    lo, hi = search.span
    n_grid = max(2, int(math.ceil((hi - lo) / search.coarse_step)) + 1)
    angles, a_r_grid, a_t_grid = _steering_grid(geom.key(), lo, hi, n_grid)
    best = np.empty(len(y), dtype=np.intp)
    for start in range(0, len(y), _BLOCK):
        stop = min(start + _BLOCK, len(y))
        vals = np.abs(np.einsum("mg,tmn,ng->tg", a_r_grid.conj(), y[start:stop],
                                a_t_grid.conj())) ** 2
        if prefer is None:
            best[start:stop] = np.argmax(vals, axis=1)
        else:
            ties = vals >= vals.max(axis=1, keepdims=True) * (1.0 - 1e-12)
            dist = np.where(ties, np.abs(angles - prefer[start:stop, None]), np.inf)
            best[start:stop] = np.argmin(dist, axis=1)
    return angles, best


def _argmax_projection(y: np.ndarray, geom: ArrayGeometry, search,
                       prefer: np.ndarray | None = None) -> np.ndarray:
    """Angle maximizing |tr(A^H(phi) Y_t)|^2 for each statistic Y_t of ``y``.

    ``y`` has shape (n, M_r, M_t); ``search`` carries the span, a resolved
    coarse step and the refinement tolerance.  After the coarse scan of
    :func:`_coarse_winner`, a classic golden-section shrink of the two cells
    around each winner runs over all statistics at once, for the fixed
    number of sweeps that brings the bracket below the tolerance.  Each
    sweep evaluates one new interior point and keeps the other's value.
    """
    lo, hi = search.span
    angles, best = _coarse_winner(y, geom, search, prefer)
    step = angles[1] - angles[0]
    iters = max(0, int(math.ceil(math.log(search.refine_tol / (2.0 * step))
                                 / math.log(GOLDEN))))
    a = np.maximum(lo, angles[best] - step)
    b = np.minimum(hi, angles[best] + step)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc = _projection(geom, y, c)
    fd = _projection(geom, y, d)
    for sweep in range(iters):
        keep_left = fc >= fd
        b = np.where(keep_left, d, b)
        a = np.where(keep_left, a, c)
        if sweep == iters - 1:
            break
        # the kept interior point becomes the other one of the new bracket
        new = np.where(keep_left, b - GOLDEN * (b - a), a + GOLDEN * (b - a))
        f_new = _projection(geom, y, new)
        c, d = np.where(keep_left, new, d), np.where(keep_left, c, new)
        fc, fd = np.where(keep_left, f_new, fd), np.where(keep_left, fc, f_new)
    return 0.5 * (a + b)


def _pseudo_true_angles(y: np.ndarray, geom: ArrayGeometry, theta: np.ndarray,
                        search: SearchConfig | None) -> np.ndarray:
    """Argmax of the direct-only projection of each mean in ``y``, coarse
    ties toward the true ``theta`` of its row, which the span must contain."""
    search = _resolve_search(geom, search)
    lo, hi = search.span
    if not np.all((lo <= theta) & (theta <= hi)):
        raise ValueError("search span must contain the true theta")
    return _argmax_projection(y, geom, search, prefer=theta)


def _pseudo_true(scene: MultipathScene, w_d: complex, w_i: complex,
                 search: SearchConfig | None) -> float:
    """Pseudo-true angle of w_d*A_d + w_i*A_i for one scene."""
    A_d, A_i, _, _ = mimo_matrices(steering(scene.geom, scene.theta),
                                   steering(scene.geom, scene.psi))
    y = (w_d * A_d + w_i * A_i)[None]
    return float(_pseudo_true_angles(y, scene.geom, np.array([scene.theta]),
                                     search)[0])


def theta_a(scene: MultipathScene, search: SearchConfig | None = None) -> float:
    """Pseudo-true DOA: argmax of the projection of the true compressed mean
    onto the assumed (direct-only) steering matrix, amplitude concentrated.

    Deterministic grid-then-golden-section argmax; coarse ties are broken
    toward the true theta.
    """
    return _pseudo_true(scene, scene.alpha_d, scene.alpha_i, search)


def theta_a_paper_form(scene: MultipathScene,
                       search: SearchConfig | None = None) -> float:
    """Pseudo-true DOA with the indirect term weighted by alpha_i/(alpha_d+alpha_i).

    Kept as a secondary definition for comparison against :func:`theta_a`;
    undefined when alpha_d + alpha_i ~ 0.
    """
    ad, ai = scene.alpha_d, scene.alpha_i
    denom = ad + ai
    if abs(denom) < 1e-12 * (abs(ad) + abs(ai)):
        raise ValueError("weight alpha_i/(alpha_d + alpha_i) undefined: "
                         "alpha_d + alpha_i ~ 0")
    return _pseudo_true(scene, 1.0, ai / denom, search)


def _closed_batch(scenes: list[MultipathScene], search: SearchConfig | None,
                  eps_den_factor: float):
    """Closed-form breakdowns (None where degenerate) plus the denominators
    and thresholds of the degeneracy test, all scenes on one geometry."""
    if not scenes:
        return [], np.empty(0), np.empty(0)
    geom = scenes[0].geom
    key = geom.key()
    if any(sc.geom is not geom and sc.geom.key() != key for sc in scenes):
        raise ValueError("all scenes of a batch must share one array geometry")
    theta = np.array([sc.theta for sc in scenes])
    ad = np.array([sc.alpha_d for sc in scenes], dtype=complex)
    ai = np.array([sc.alpha_i for sc in scenes], dtype=complex)
    s_t = steering(geom, theta)
    s_r = steering(geom, [sc.psi for sc in scenes])
    A_d, A_i, dA_d, ddA_d = mimo_matrices(s_t, s_r)
    e_dot = e_adot(s_t)
    if np.any(e_dot <= 0.0):
        raise SingularInformationError(
            "single-element arrays carry no DOA information (E_Adot = 0)")
    k = np.array([sc.k_pulses for sc in scenes], dtype=float)
    e_p = np.array([sc.e_p for sc in scenes])
    sigma_w2 = np.array([sc.sigma_w2 for sc in scenes])
    p_d = np.abs(ad) ** 2
    crb = 1.0 / (2.0 * (p_d / sigma_w2) * k * e_p * e_dot)
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
    th_a = theta.copy()
    rows = np.flatnonzero(~free & ~degenerate)
    if rows.size:
        y = (ad[rows, None, None] * A_d[rows] + ai[rows, None, None] * A_i[rows])
        th_a[rows] = _pseudo_true_angles(y, geom, theta[rows], search)
    b = (theta - th_a) ** 2
    out = [None if deg else BoundBreakdown(crb_theta=c, m_theta_theta=m_i,
                                           theta_a=t_a, b_theta_theta=b_i,
                                           mcrb_theta=m_i + b_i)
           for deg, c, m_i, t_a, b_i in zip(degenerate.tolist(), crb.tolist(),
                                            m.tolist(), th_a.tolist(), b.tolist())]
    return out, den, threshold


def mcrb_theta_closed_many(scenes: Sequence[MultipathScene],
                           search: SearchConfig | None = None,
                           ) -> list[BoundBreakdown | None]:
    """:func:`mcrb_theta_closed` for every scene of a batch on one geometry.

    Everything is evaluated over the whole batch at once and the pseudo-true
    angles come from one batched argmax.  Degenerate scenes give None instead
    of raising; a theta outside the search span raises ValueError.
    """
    return _closed_batch(list(scenes), search, _EPS_DEN_FACTOR)[0]


def mcrb_theta_closed(scene: MultipathScene, search: SearchConfig | None = None,
                      eps_den_factor: float = _EPS_DEN_FACTOR) -> BoundBreakdown:
    """Closed-form misspecified bound on the target DOA.

    M component: CRB(theta) * E_Adot*(|tr(dA_d^H A_i)|^2 + SMR*E_Adot) /
    (Re{tr(ddA_d^H A_i) e^{-j dphi}} - sqrt(SMR)*E_Adot)^2.  The bias
    component is (theta - theta_A)^2 with theta_A from :func:`theta_a`.
    For alpha_i = 0 the infinite-SMR limit is taken analytically.  A batch
    of one for :func:`mcrb_theta_closed_many`.
    """
    (bb,), den, threshold = _closed_batch([scene], search, eps_den_factor)
    if bb is None:
        raise DegenerateBoundError(
            "near-destructive paths: closed-form denominator below threshold",
            denominator=float(den[0]), threshold=float(threshold[0]))
    return bb


def mcrb_sandwich(scene: MultipathScene, f_tau: float | None = None,
                  f_omega: float | None = None,
                  search: SearchConfig | None = None,
                  cond_threshold: float = 1e12):
    """Numerical sandwich C_D^{-1} J C_D^{-1} and its DOA breakdown.

    Returns ``(m_matrix, breakdown)`` where ``m_matrix`` is the full 5x5
    covariance term and the breakdown's M component is its (theta, theta)
    element.  This is the oracle the closed form is compared against.
    """
    zetas = zeta_set(scene, f_tau, f_omega)
    scale = 2.0 * scene.k_pulses * scene.e_p / scene.sigma_w2
    z = cd_matrix(zetas, scale=1.0)
    cond = float(np.linalg.cond(z))
    if not np.isfinite(cond) or cond > cond_threshold:
        raise ConditioningError(
            f"curvature matrix condition {cond:.3e} exceeds {cond_threshold:.1e}",
            condition=cond)
    a2 = abs(scene.alpha_d) ** 2
    s_t = steering(scene.geom, scene.theta)
    e_dot = e_adot(s_t)
    if e_dot <= 0.0:
        raise SingularInformationError(
            "single-element arrays carry no DOA information (E_Adot = 0)")
    j_diag = np.array([1.0, 1.0, zetas.zeta1, zetas.zeta2, a2 * e_dot])
    z_inv = np.linalg.inv(z)
    m_matrix = (z_inv * j_diag) @ z_inv / scale
    m_tt = float(m_matrix[4, 4])
    crb = crb_theta(scene)
    if scene.alpha_i == 0:
        th_a, b = scene.theta, 0.0
    else:
        th_a = theta_a(scene, search)
        b = (scene.theta - th_a) ** 2
    breakdown = BoundBreakdown(crb_theta=crb, m_theta_theta=m_tt, theta_a=th_a,
                               b_theta_theta=b, mcrb_theta=m_tt + b)
    return m_matrix, breakdown
