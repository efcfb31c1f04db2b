"""Estimation error bounds for the target DOA under ignored multipath.

Both routes to the misspecified bound read the CRB and the reduced curvature
entries zeta3..zeta5 from one batched model builder and differ only in the
reduction: the closed form M = CRB * I (|zeta5|^2 + I) / zeta3^2, with
I = |alpha_d|^2 E_Adot, versus the inverse of the full 5x5 curvature matrix
(ordering ``[Re alpha_d, Im alpha_d, tau_d, omega_Dd, theta]``) in the
sandwich.  The CRB of the matched model lives here too.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .arrays import (TWO_PI, ArrayGeometry, _phasors, e_adot, mimo_matrices,
                     steering, virtual_hpbw)
from .scene import MultipathScene


class BoundsError(Exception):
    """Base class for bound-evaluation failures."""


class SingularInformationError(BoundsError):
    """The array carries no angle information (E_Adot = 0)."""


class DegenerateBoundError(BoundsError):
    """Closed-form denominator too close to zero, or bound not finite.

    ``denominator`` holds zeta3^2 and ``threshold`` 1e-9 * I^2, I = |alpha_d|^2
    E_Adot, both scaled by 2^-4k (k the binary exponent of |alpha_d|)."""

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

    zeta1/zeta2 are the delay/Doppler diagonal factors (|alpha_d|^2 F/E_p;
    :func:`zeta_set` and the sandwich take both at 1, the model's unit
    delay/Doppler convention, since neither appears in the DOA closed form);
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
    """Grid-then-safeguarded-Newton argmax settings, shared by the pseudo-true
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


# Model arrays of scenes on one geometry, one row per scene; s is the
# physical prefactor 2 K E_p / sigma_w2.
_Model = namedtuple("_Model", "geom theta alpha_d alpha_i A_d A_i e_dot s crb "
                              "zeta3 zeta4 zeta5")
_Columns = namedtuple("_Columns", "crb m theta_a bias mcrb valid")   # bound rows
_DTYPES = (float, float, complex, complex, float, float, float)   # _build's columns


def _crb(geom: ArrayGeometry, theta, alpha_d, k, e_p, sigma_w2):
    """Steering at theta, |alpha_d|^2, E_Adot and the CRB of 1-D columns; SNR and
    E_p enter as mantissas, their binary exponents undone after the reciprocal."""
    s_t = steering(geom, theta)
    p_d, e_dot = np.abs(alpha_d) ** 2, e_adot(s_t)
    (snr, j_s), (e_p, j_e) = np.frexp(p_d / sigma_w2), np.frexp(e_p)
    with np.errstate(divide="ignore", over="ignore"):
        crb = np.ldexp(1.0 / (2.0 * snr * k * e_p * e_dot), -j_s - j_e)
    return s_t, p_d, e_dot, crb


def _build(geom: ArrayGeometry, theta, psi, alpha_d, alpha_i, k, e_p,
           sigma_w2) -> _Model:
    """Steering, CRB and zeta3..zeta5 from 1-D columns of scenes on ``geom``,
    two steering calls in all.  Does not check E_Adot (:func:`_informative`)."""
    theta, psi, alpha_d, alpha_i, k, e_p, sigma_w2 = map(
        np.asarray, (theta, psi, alpha_d, alpha_i, k, e_p, sigma_w2), _DTYPES)
    s_t, p_d, e_dot, crb = _crb(geom, theta, alpha_d, k, e_p, sigma_w2)
    A_d, A_i, dA_d, ddA_d = mimo_matrices(s_t, steering(geom, psi))
    t2, t0, t1 = (np.einsum("tmn,tmn->t", x.conj(), A_i)   # tr(X^H A_i) per row
                  for x in (ddA_d, A_d, dA_d))
    return _Model(geom, theta, alpha_d, alpha_i, A_d, A_i, e_dot,
                  2.0 * k * e_p / sigma_w2, crb,
                  p_d * e_dot - (np.conj(alpha_d) * alpha_i * t2).real,
                  alpha_i * t0, alpha_i * t1)   # zeta4: slow-time scale folded to 1


def _model(scenes: Sequence[MultipathScene]) -> _Model:
    """:func:`_build` on the columns gathered from scenes on one geometry."""
    geom, key = scenes[0].geom, scenes[0].geom.key()
    if any(sc.geom is not geom and sc.geom.key() != key for sc in scenes):
        raise ValueError("all scenes of a batch must share one array geometry")
    return _build(geom, *zip(*[(sc.theta, sc.psi, sc.alpha_d, sc.alpha_i,
                                sc.k_pulses, sc.e_p, sc.sigma_w2) for sc in scenes]))


def _informative(e_dot):
    if (np.asarray(e_dot) <= 0.0).any():
        raise SingularInformationError(
            "single-element arrays carry no DOA information (E_Adot = 0)")
    return e_dot


def crb_theta(scene: MultipathScene) -> float:
    """Matched-model DOA bound 1/(2*SNR*K*E_p*E_Adot), rad^2, by :func:`_crb`."""
    _, _, e_dot, (crb,) = _crb(scene.geom, [scene.theta], scene.alpha_d,
                               scene.k_pulses, scene.e_p, scene.sigma_w2)
    _informative(e_dot)
    return float(crb)


def zeta_set(scene: MultipathScene) -> ZetaSet:
    """Reduced curvature entries for the scene at zeta1 = zeta2 = 1.

    zeta1 = 1: the delay row of the curvature matrix is decoupled, so its
    scale cannot reach the DOA element.  zeta2 = 1 is the unit Doppler scale
    at which zeta4 is taken too.
    """
    mod = _model([scene])
    return ZetaSet(1.0, 1.0, float(mod.zeta3[0]), complex(mod.zeta4[0]),
                   complex(mod.zeta5[0]))


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
def _geometry_consts(geom_key: tuple):
    """The argmax kernel's per-geometry constants: the rx then tx positions, a
    column of their sqrt(M) divisors and the moments [1, q, q^2] of q = p_r + p_t."""
    tx, rx = map(np.asarray, geom_key)
    root = np.sqrt(np.array([rx.size] * rx.size + [tx.size] * tx.size, dtype=float))
    q = (rx[:, None] + tx).ravel()   # no Python-level numpy helpers: their first
    moments = np.empty((q.size, 3), dtype=complex)   # call in a fork costs more
    moments[:, 0], moments[:, 1] = 1.0, q             # than the arithmetic
    moments[:, 2] = q * q
    return np.concatenate((rx, tx)), root[:, None], moments


@lru_cache(maxsize=32)
def _steering_grid(geom_key: tuple, lo: float, hi: float, n: int):
    """Grid angles (``np.linspace(lo, hi, n)`` bit for bit) and
    V = conj(a_r) (x) conj(a_t), shape (M_r*M_t, n): the row Y.reshape(-1) @ V
    holds tr(A^H(phi) Y) over the grid."""
    angles = np.arange(n, dtype=float)
    angles *= (hi - lo) / (n - 1)
    angles += lo
    angles[-1] = hi
    pos, root, _ = _geometry_consts(geom_key)
    e = _phasors(pos, np.sin(angles), root)   # every rx and tx row in one exp call
    np.conjugate(e, out=e)
    m_r = len(geom_key[1])
    v = np.empty((m_r, pos.size - m_r, n), dtype=complex)
    np.multiply(e[:m_r, None, :], e[None, m_r:, :], out=v)
    return angles, v.reshape(-1, n)


_DEFAULT_SEARCH = SearchConfig()


def _projection_derivs(geom: ArrayGeometry, y: np.ndarray, phi: np.ndarray):
    """c_k = <vec d^k A(phi_t), vec Y_t>, k = 0, 1, 2, per statistic: on the
    virtual array q = p_r + p_t, dA = u A and ddA = (u^2 - v) A with
    u = j 2 pi q cos(phi), v = j 2 pi q sin(phi) (``arrays._steer_one``), so
    the c_k follow from the moments sum q^j conj(A) Y, j = 0, 1, 2."""
    s, n, m_r = np.sin(phi), len(y), geom.m_r
    pos, root, moments = _geometry_consts(geom.key())
    e = _phasors(pos, -s, root)
    w = (e[:m_r].T[:, :, None] * y * e[m_r:].T[:, None, :]).reshape(n, 1, -1)
    m0, m1, m2 = (w @ moments)[:, 0].T
    k = TWO_PI * np.cos(phi)
    return m0, -1j * k * m1, 1j * TWO_PI * s * m1 - k * k * m2


def _coarse_winner(y: np.ndarray, geom: ArrayGeometry, search: SearchConfig,
                   prefer: np.ndarray | None = None):
    """Coarse grid (step ``search.coarse_step``, or the virtual-array beamwidth
    / 20 where it is None) and each statistic's winner on it: the first maximum
    of |tr(A^H(phi) Y_t)|^2, or with ``prefer`` the grid angle nearest prefer[t]
    among values within 1e-12 (relative) of the maximum.  One product with
    the virtual steering matrix per ``_BLOCK`` statistics bounds the
    (block, grid) intermediate."""
    lo, hi = search.span
    step = search.coarse_step or virtual_hpbw(geom) / 20.0
    n_grid = max(2, int(math.ceil((hi - lo) / step)) + 1)
    angles, v = _steering_grid(geom.key(), lo, hi, n_grid)
    flat = y.reshape(len(y), v.shape[0])
    best = np.empty(len(y), dtype=np.intp)
    for start in range(0, len(y), _BLOCK):
        stop = min(start + _BLOCK, len(y))
        proj = flat[start:stop] @ v
        vals = proj.real ** 2 + proj.imag ** 2
        if prefer is None:
            best[start:stop] = vals.argmax(axis=1)
        else:
            ties = vals >= vals.max(axis=1, keepdims=True) * (1.0 - 1e-12)
            dist = np.where(ties, np.abs(angles - prefer[start:stop, None]), np.inf)
            best[start:stop] = dist.argmin(axis=1)
    return angles, best


def _argmax_projection(y: np.ndarray, geom: ArrayGeometry, search: SearchConfig,
                       prefer: np.ndarray | None = None) -> np.ndarray:
    """Angle maximizing p(phi) = |tr(A^H(phi) Y_t)|^2 for each statistic Y_t.

    ``y`` has shape (n, M_r, M_t); ``search`` carries the span, the coarse
    step (None: the virtual-array beamwidth / 20) and the tolerance.  Newton
    steps on p'/2 = Re(c0* c1) and p''/2 = |c1|^2 + Re(c0* c2) refine each
    coarse winner inside its grid cells and the span, a bracket that the sign
    of p' shrinks; a step that leaves it, or one where p'' >= 0, bisects it
    instead.  Each row stops on its own at a step within the tolerance, or
    after twice the bisections.
    Each statistic is first scaled by an exact power of two to bring its
    largest entry into [0.5, 1), so p stays finite and the argmax unchanged.
    """
    y = y * np.ldexp(1.0, -np.frexp(np.abs(y).max(axis=(1, 2)))[1])[:, None, None]
    angles, best = _coarse_winner(y, geom, search, prefer)
    step, phi = angles[1] - angles[0], angles[best]
    lo, hi = search.span
    a, b = (np.minimum(np.maximum(phi + d, lo), hi) for d in (-step, step))
    rows = np.arange(len(y))
    for _ in range(2 * math.ceil(math.log2(2.0 * step / search.refine_tol))):
        if not rows.size:
            break
        x = phi[rows]
        c0, c1, c2 = _projection_derivs(geom, y[rows], x)
        g, h = (c0.conj() * c1).real, np.abs(c1) ** 2 + (c0.conj() * c2).real
        lo_r = a[rows] = np.where(g > 0, x, a[rows])
        hi_r = b[rows] = np.where(g < 0, x, b[rows])
        new = x - g / np.where(h < 0, h, 1.0)
        new = np.where((h < 0) & (lo_r <= new) & (new <= hi_r), new, 0.5 * (lo_r + hi_r))
        phi[rows] = new
        rows = rows[np.abs(new - x) > search.refine_tol]
    return phi


def _pseudo_true(model: _Model, w_d, w_i, search: SearchConfig | None,
                 rows=slice(None)) -> np.ndarray:
    """Argmax of the direct-only projection of w_d*A_d + w_i*A_i (weights scalar or
    per row) for the model's ``rows``, coarse ties toward each row's true theta,
    which the span must contain."""
    y = (np.reshape(w_d, (-1, 1, 1)) * model.A_d[rows]
         + np.reshape(w_i, (-1, 1, 1)) * model.A_i[rows])
    theta = model.theta[rows]
    search = search or _DEFAULT_SEARCH
    lo, hi = search.span
    if not ((lo <= theta) & (theta <= hi)).all():
        raise ValueError("search span must contain the true theta")
    return _argmax_projection(y, model.geom, search, prefer=theta)


def theta_a(scene: MultipathScene, search: SearchConfig | None = None) -> float:
    """Pseudo-true DOA: argmax of the projection of the true compressed mean
    onto the assumed (direct-only) steering matrix, amplitude concentrated,
    by the grid-then-safeguarded-Newton kernel; coarse ties go toward theta."""
    return float(_pseudo_true(_model([scene]), scene.alpha_d, scene.alpha_i,
                              search)[0])


def _bound_columns(mod: _Model, m: np.ndarray, valid: np.ndarray,
                   search: SearchConfig | None) -> _Columns:
    """Bound columns with M ``m``; theta_A searched where alpha_i != 0 and ``valid``."""
    th_a = mod.theta.copy()
    rows = np.flatnonzero((mod.alpha_i != 0) & valid)
    th_a[rows] = _pseudo_true(mod, mod.alpha_d[rows], mod.alpha_i[rows], search, rows)
    b = (mod.theta - th_a) ** 2
    return _Columns(mod.crb, m, th_a, b, m + b, valid)


def _breakdowns(cols: _Columns) -> list[BoundBreakdown | None]:
    """One breakdown per row of ``cols``, None where not valid."""
    return [BoundBreakdown(*row[:5]) if row[5] else None
            for row in zip(*(c.tolist() for c in cols))]


def _closed(mod: _Model, search: SearchConfig | None):
    """Closed-form columns, valid where M is finite and zeta3^2 reaches 1e-9 * I^2,
    plus both.  I and zeta3 are scaled by 2^-2k, zeta5 by 2^-k (k: binary exponent
    of |alpha_d|): exact, with finite squares up to |alpha_i|/|alpha_d| ~ 1e150."""
    _informative(mod.e_dot)
    k = np.frexp(np.abs(mod.alpha_d))[1]
    info = np.ldexp(np.abs(mod.alpha_d) ** 2 * mod.e_dot, -2 * k)   # I = |a_d|^2 E_Adot
    z3, z5 = np.ldexp(mod.zeta3, -2 * k), mod.zeta5 * np.ldexp(1.0, -k)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        den, threshold = z3 * z3, _EPS_DEN_FACTOR * info * info
        m = mod.crb * (info * (np.abs(z5) ** 2 + info) / den)
    valid = (den >= threshold) & np.isfinite(m)
    return _bound_columns(mod, m, valid, search), den, threshold


def mcrb_theta_closed_columns(geom: ArrayGeometry, theta, psi, alpha_d, alpha_i,
                              k_pulses, e_p, sigma_w2,
                              search: SearchConfig | None = None):
    """:func:`mcrb_theta_closed` on 1-D columns of scenes on ``geom``: the arrays
    ``(crb, m, theta_a, bias, mcrb, valid)``, ``valid`` False where degenerate."""
    return _closed(_build(geom, theta, psi, alpha_d, alpha_i, k_pulses, e_p,
                          sigma_w2), search)[0]


def mcrb_theta_closed(scene: MultipathScene,
                      search: SearchConfig | None = None) -> BoundBreakdown:
    """Closed-form misspecified bound on the target DOA.

    M component: CRB(theta) * I (|zeta5|^2 + I) / zeta3^2 with
    I = |alpha_d|^2 E_Adot, which equals CRB at alpha_i = 0.  The bias
    component is (theta - theta_A)^2 with theta_A from :func:`theta_a`.
    One row of :func:`mcrb_theta_closed_columns`, raising where it is not valid.
    """
    cols, (den,), (threshold,) = _closed(_model([scene]), search)
    if not cols.valid[0]:
        raise DegenerateBoundError(
            "near-destructive paths: closed-form denominator below threshold"
            if den < threshold else "closed-form bound is not finite",
            denominator=float(den), threshold=float(threshold))
    return _breakdowns(cols)[0]


def _sandwich_batch(scenes: list[MultipathScene], search: SearchConfig | None = None,
                    cond_threshold: float = 1e12):
    """Stacked sandwich matrices at zeta1 = zeta2 = 1 (void where Z is
    ill-conditioned), breakdowns (None there) and condition numbers, all scenes
    on one geometry.  The gate reads Z of the amplitude-normalised scene
    (alpha_d, alpha_i over |alpha_d|, zeta2 = 1), free of the amplitude unit."""
    mod = _model(scenes)
    z = np.array([cd_matrix(ZetaSet(1.0, 1.0, *zt)) for zt in zip(
        mod.zeta3.tolist(), mod.zeta4.tolist(), mod.zeta5.tolist())])
    u = np.ones((len(scenes), 5))
    u[:, 3:] = 1.0 / np.where(mod.alpha_d == 0, 1.0, np.abs(mod.alpha_d))[:, None]
    z_unit = u[:, :, None] * z * u[:, None, :]
    z_unit[:, 3, 3] = 1.0
    cond = np.linalg.cond(z_unit)
    ok = np.isfinite(cond) & (cond <= cond_threshold)
    _informative(mod.e_dot[ok])
    j = np.ones((len(scenes), 5))   # diagonal of J: (1, 1, 1, 1, I)
    j[:, 4] = np.abs(mod.alpha_d) ** 2 * mod.e_dot
    z_inv = np.linalg.inv(np.where(ok[:, None, None], z, np.eye(5)))  # singular Z raises
    m = (z_inv * j[:, None, :]) @ z_inv / mod.s[:, None, None]
    return m, _breakdowns(_bound_columns(mod, m[:, 4, 4], ok, search)), cond


def mcrb_sandwich(scene: MultipathScene, search: SearchConfig | None = None,
                  cond_threshold: float = 1e12):
    """Numerical sandwich C_D^{-1} J C_D^{-1} and its DOA breakdown.

    Returns ``(m_matrix, breakdown)`` where ``m_matrix`` is the full 5x5
    covariance term and the breakdown's M component is its (theta, theta)
    element.  This is the oracle the closed form is compared against.
    It is taken at zeta1 = zeta2 = 1 with zeta4 at the same unit Doppler
    scale (see :func:`zeta_set`), the convention on which the (theta, theta)
    element depends.  A batch of one.
    """
    (m,), (bb,), (cond,) = _sandwich_batch([scene], search, cond_threshold)
    if bb is None:
        raise ConditioningError(
            f"curvature matrix condition {cond:.3e} exceeds {cond_threshold:.1e}",
            condition=float(cond))
    return m, bb
