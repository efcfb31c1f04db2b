"""Estimation error bounds for the target DOA under ignored multipath.

Both routes to the misspecified bound run one core (``_bounds``): per row block it
builds the model (CRB and the reduced curvature entries zeta3..zeta5), searches
theta_A, then reduces: the closed form M = CRB * I (|zeta5|^2 + I) / zeta3^2, with
I = |alpha_d|^2 E_Adot, versus the inverse of the full 5x5 curvature matrix
(ordering ``[Re alpha_d, Im alpha_d, tau_d, omega_Dd, theta]``) in the
sandwich.  The CRB of the matched model lives here too.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arrays import (TWO_PI, ArrayGeometry, _direct_indirect, _phasors, _vectors,
                     virtual_hpbw)
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
    angle and the MML estimator; a refine_tol below ulp(pi/2) is not a step."""

    span: tuple[float, float] = (-math.pi / 3, math.pi / 3)
    refine_tol: float = 1e-7

    def __post_init__(self):
        lo, hi = self.span
        if not (-math.pi / 2 < lo < hi < math.pi / 2):
            raise ValueError("span must be an interval inside (-pi/2, pi/2)")
        if not self.refine_tol > 0.0:
            raise ValueError("refine_tol must be positive")
        if not math.ulp(math.pi / 2) <= self.refine_tol < math.inf:
            raise ValueError("refine_tol must be finite and >= ulp(pi/2) = 2.2e-16")


# Model arrays of scenes on one geometry, one row per scene; s is the
# physical prefactor 2 K / sigma_w2.
_Model = namedtuple("_Model", "geom theta alpha_d alpha_i A_d A_i e_dot s crb "
                              "zeta3 zeta4 zeta5")
_Columns = namedtuple("_Columns", "crb m theta_a bias mcrb valid")   # bound rows
_DTYPES = (float, float, complex, complex, float, float)   # _build's columns


def _crb(geom: ArrayGeometry, theta, alpha_d, k, sigma_w2):
    """|alpha_d|^2, E_Adot = ||da_r||^2 + ||da_t||^2 = (2 pi cos theta)^2
    (mean p_r^2 + mean p_t^2), exact for unit-modulus steering entries, and the
    CRB of 1-D columns; the SNR enters as a mantissa, its binary exponent undone
    after the reciprocal."""
    p_d, rx, tx = np.abs(alpha_d) ** 2, geom.rx_positions, geom.tx_positions
    e_dot = (TWO_PI * np.cos(theta)) ** 2 * (rx @ rx / rx.size + tx @ tx / tx.size)
    snr, j_s = np.frexp(p_d / sigma_w2)
    with np.errstate(divide="ignore", over="ignore"):
        crb = np.ldexp(1.0 / (2.0 * snr * k * e_dot), -j_s)
    return p_d, e_dot, crb


def _build(geom: ArrayGeometry, theta, psi, alpha_d, alpha_i, k, sigma_w2) -> _Model:
    """A_d, A_i, CRB and zeta3..zeta5 from 1-D arrays (``_DTYPES``) of scenes on
    ``geom``; the traces tr(d^k A_d^H A_i), k = 0, 1, 2, are the
    :func:`_projection_derivs` of Y = A_i at theta.  Does not check E_Adot."""
    A_d, A_i = _direct_indirect(_vectors(geom, theta), _vectors(geom, psi))
    p_d, e_dot, crb = _crb(geom, theta, alpha_d, k, sigma_w2)
    t0, t1, t2 = _projection_derivs(geom, A_i, theta)
    return _Model(geom, theta, alpha_d, alpha_i, A_d, A_i, e_dot,
                  2.0 * k / sigma_w2, crb,
                  p_d * e_dot - (np.conj(alpha_d) * alpha_i * t2).real,
                  alpha_i * t0, alpha_i * t1)   # zeta4: slow-time scale folded to 1


def _scene_columns(scenes: Sequence[MultipathScene]) -> tuple:
    """:func:`_build`'s arguments from a batch or sweep of scenes: their one geometry, by
    value (ValueError if mixed), then the columns theta, psi, alpha_d, alpha_i, K,
    sigma_w2 (``_DTYPES``)."""
    if len({sc.geom for sc in scenes}) > 1:
        raise ValueError("all scenes of a batch must share one array geometry")
    return (scenes[0].geom, *map(np.asarray, zip(*[
        (sc.theta, sc.psi, sc.alpha_d, sc.alpha_i, sc.k_pulses, sc.sigma_w2)
        for sc in scenes]), _DTYPES))


def _informative(e_dot):
    if (np.asarray(e_dot) <= 0.0).any():
        raise SingularInformationError(
            "single-element arrays carry no DOA information (E_Adot = 0)")
    return e_dot


def crb_theta(scene: MultipathScene) -> float:
    """Matched-model DOA bound 1/(2*SNR*K*E_Adot), rad^2, by :func:`_crb`."""
    _, e_dot, (crb,) = _crb(scene.geom, [scene.theta], scene.alpha_d,
                            scene.k_pulses, scene.sigma_w2)
    _informative(e_dot)
    return float(crb)


_BLOCK = 64    # statistics per block of the argmax kernel's coarse scan
_TILE_BYTES = 1 << 18   # V per tile of the coarse scan: a 3x4 grid is one tile
_MODEL_BYTES = 3 << 18   # one stacked M_r x M_t matrix per batch of _rows: 4,096
                         # statistics on a 3x4 array, 64 at M = 4,096
_EPS_DEN_FACTOR = 1e-9   # degeneracy threshold on the closed-form denominator
_COND_THRESHOLD = 1e12   # the sandwich's gate on the curvature's condition number


def _grid(geom: ArrayGeometry, lo: float, hi: float, n: int):
    """Grid angles (``np.linspace(lo, hi, n)`` bit for bit) and a generator
    function of (cols, V[:, cols]) tiles of V = conj(a_r) (x) conj(a_t), at most
    ``_TILE_BYTES`` each (one column at least), from the geometry's phasors at
    the grid, built here: Y.reshape(-1) @ V[:, cols] holds tr(A^H(phi) Y) there."""
    angles = np.arange(n, dtype=float)
    angles *= (hi - lo) / (n - 1)
    angles += lo
    angles[-1] = hi
    e = _phasors(geom, np.sin(angles))
    np.conjugate(e, out=e)
    m_r, m = geom.m_r, geom.m_r * geom.m_t
    width = max(1, _TILE_BYTES // (16 * m))

    def tiles():
        for cols in (slice(c, c + width) for c in range(0, n, width)):
            yield cols, (e[:m_r, None, cols] * e[None, m_r:, cols]).reshape(m, -1)
    return angles, tiles


def _projection_derivs(geom: ArrayGeometry, y: np.ndarray, phi: np.ndarray):
    """c_k = <vec d^k A(phi_t), vec Y_t> = tr(d^k A^H(phi_t) Y_t), k = 0, 1, 2, per
    statistic, the package's one derivative of A: on the virtual array
    q = p_r + p_t, A has entries exp(j 2 pi q sin(phi))/sqrt(M_r M_t), so
    dA = u A and ddA = (u^2 - v) A with u = j 2 pi q cos(phi), v = j 2 pi q
    sin(phi), and the c_k follow from the moments sum q^j conj(A) Y, j = 0, 1, 2,
    with the [1, q, q^2] the geometry carries.  Any number of rows, zero too."""
    s, n, m_r = np.sin(phi), len(y), geom.m_r
    e = _phasors(geom, -s)
    moments = geom._moments
    w = (e[:m_r].T[:, :, None] * y * e[m_r:].T[:, None, :]).reshape(n, 1, len(moments))
    m0, m1, m2 = (w @ moments)[:, 0].T
    k = TWO_PI * np.cos(phi)
    return m0, -1j * k * m1, 1j * TWO_PI * s * m1 - k * k * m2


def _default_step(geom: ArrayGeometry) -> float:
    """The coarse step of every search: virtual-array beamwidth / 20."""
    return virtual_hpbw(geom) / 20.0


def _coarse_winner(y: np.ndarray, geom: ArrayGeometry, search: SearchConfig,
                   prefer: np.ndarray | None = None):
    """Coarse grid (:func:`_default_step`) and each statistic's winner: the first maximum
    of |tr(A^H(phi) Y_t)|^2, or with ``prefer`` the grid angle nearest prefer[t]
    among values within 1e-12 (relative) of the maximum.  Per call, the grid's
    rx/tx phasors ((M_r + M_t) x G) are built once; each block of ``_BLOCK``
    statistics fills one (block, G) array of values, one tile of V at a time;
    distances to prefer only for a block where a row has 0 or 2+ ties."""
    lo, hi = search.span
    n_grid = max(2, int(math.ceil((hi - lo) / _default_step(geom))) + 1)
    angles, tiles = _grid(geom, lo, hi, n_grid)
    flat = y.reshape(len(y), geom.m_r * geom.m_t)
    vals = np.empty((min(_BLOCK, len(y)), n_grid))
    best = np.empty(len(y), dtype=np.intp)
    for start in range(0, len(y), _BLOCK):
        block = flat[start:start + _BLOCK]
        out, win = vals[:len(block)], best[start:start + _BLOCK]
        for cols, v in tiles():
            proj = block @ v
            np.multiply(proj.real, proj.real, out=out[:, cols])
            out[:, cols] += proj.imag ** 2
        win[:] = out.argmax(axis=1)
        if prefer is not None:   # blocks whose rows tie once keep the first maxima
            top = out.max(axis=1, keepdims=True)
            ties = out >= top * (1.0 - 1e-12)
            if np.count_nonzero(ties) != len(out) or np.isnan(top).any():
                dist = np.abs(angles - prefer[start:start + _BLOCK, None])
                win[:] = np.where(ties, dist, np.inf).argmin(axis=1)
    return angles, best


def _argmax_projection(y: np.ndarray, geom: ArrayGeometry, search: SearchConfig,
                       prefer: np.ndarray | None = None) -> np.ndarray:
    """Angle maximizing p(phi) = |tr(A^H(phi) Y_t)|^2 for each statistic Y_t.

    ``y`` has shape (n, M_r, M_t); ``search`` carries the span and the
    tolerance, the coarse step is the virtual-array beamwidth / 20.  Newton
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
    search = search or SearchConfig()
    lo, hi = search.span
    if not ((lo <= theta) & (theta <= hi)).all():
        raise ValueError("search span must contain the true theta")
    return _argmax_projection(y, model.geom, search, prefer=theta)


def theta_a(scene: MultipathScene, search: SearchConfig | None = None) -> float:
    """Pseudo-true DOA: argmax of the projection of the true compressed mean
    onto the assumed (direct-only) steering matrix, amplitude concentrated,
    by the grid-then-safeguarded-Newton kernel; coarse ties go toward theta.
    One row of the core (:func:`_bounds`): theta itself where alpha_i = 0."""
    return float(_bounds(_closed, search, *_scene_columns([scene]))[0].theta_a[0])


def _breakdowns(cols: _Columns) -> list[BoundBreakdown | None]:
    """One breakdown per row of ``cols``, None where not valid."""
    return [BoundBreakdown(*row[:5]) if row[5] else None
            for row in zip(*(c.tolist() for c in cols))]


def _closed(mod: _Model, theta_a: np.ndarray):
    """Closed form at theta: M, valid where M is finite and zeta3^2 reaches 1e-9 * I^2,
    and both.  I and zeta3 are scaled by 2^-2k, zeta5 by 2^-k (k: binary exponent
    of |alpha_d|): exact, with finite squares up to |alpha_i|/|alpha_d| ~ 1e150."""
    k = np.frexp(np.abs(mod.alpha_d))[1]
    info = np.ldexp(np.abs(mod.alpha_d) ** 2 * mod.e_dot, -2 * k)   # I = |a_d|^2 E_Adot
    z3, z5 = np.ldexp(mod.zeta3, -2 * k), mod.zeta5 * np.ldexp(1.0, -k)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        den, threshold = z3 * z3, _EPS_DEN_FACTOR * info * info
        m = mod.crb * (info * (np.abs(z5) ** 2 + info) / den)
    return m, (den >= threshold) & np.isfinite(m), den, threshold


def _curvature(mod: _Model) -> np.ndarray:
    """Stacked curvature matrices Re{Z} without the factor ``mod.s``:
    diag(1, 1, 1, 1, zeta3), amplitude rows coupled by zeta4 and zeta5.  zeta1 = 1
    (the delay row is decoupled, so its scale cannot reach the DOA element) and
    zeta2 = 1, the unit Doppler scale at which zeta4 is taken."""
    z = np.zeros((len(mod.zeta3), 5, 5))
    z[:, range(4), range(4)] = 1.0
    z[:, 4, 4] = mod.zeta3
    z[:, 0, 3] = z[:, 3, 0] = mod.zeta4.imag
    z[:, 1, 3] = z[:, 3, 1] = -mod.zeta4.real
    z[:, 0, 4] = z[:, 4, 0] = -mod.zeta5.real
    z[:, 1, 4] = z[:, 4, 1] = -mod.zeta5.imag
    return z


def _sandwich(mod: _Model, theta_a: np.ndarray):
    """Sandwich at theta: the (theta, theta) elements M of C_D^{-1} J C_D^{-1}, valid
    where the gate cond(Z) <= ``_COND_THRESHOLD`` passes, the matrices (void where
    Z is ill-conditioned) and the condition numbers.  The gate reads Z of the
    amplitude-normalised scene (alpha_d, alpha_i over |alpha_d|, zeta2 = 1)."""
    z = _curvature(mod)
    u = np.ones((len(z), 5))
    u[:, 3:] = 1.0 / np.where(mod.alpha_d == 0, 1.0, np.abs(mod.alpha_d))[:, None]
    z_unit = u[:, :, None] * z * u[:, None, :]
    z_unit[:, 3, 3] = 1.0
    cond = np.linalg.cond(z_unit)
    ok = np.isfinite(cond) & (cond <= _COND_THRESHOLD)
    j = np.ones((len(z), 5))   # diagonal of J: (1, 1, 1, 1, I)
    j[:, 4] = np.abs(mod.alpha_d) ** 2 * mod.e_dot
    z_inv = np.linalg.inv(np.where(ok[:, None, None], z, np.eye(5)))  # singular Z raises
    m = (z_inv * j[:, None, :]) @ z_inv / mod.s[:, None, None]
    return m[:, 4, 4], ok, m, cond


def _rows(geom: ArrayGeometry) -> int:
    """Rows per batch of the bounds and of the Monte-Carlo engine on ``geom``: a
    whole number of ``_BLOCK``s in which one stacked complex M_r x M_t matrix
    takes at most ``_MODEL_BYTES`` (or one ``_BLOCK``)."""
    return max(1, _MODEL_BYTES // (16 * geom.m_r * geom.m_t * _BLOCK)) * _BLOCK


def _bounds(reduction, search: SearchConfig | None, geom: ArrayGeometry, *args):
    """The one bound path: bound columns, then ``reduction``'s extras, of the scene
    columns ``args`` on ``geom`` (as :func:`mcrb_theta_closed_columns` takes them).  Per
    block: the model; E_Adot = 0 refused; theta_A searched where alpha_i != 0, theta
    elsewhere; then ``reduction(model, theta_a) -> (m, valid, *extras)``."""
    cols = [a.astype(t).ravel() for a, t in zip(np.broadcast_arrays(*args), _DTYPES)]
    rows, parts = _rows(geom), []
    for start in range(0, len(cols[0]) or 1, rows):   # no rows: one empty block
        mod = _build(geom, *(c[start:start + rows] for c in cols))
        _informative(mod.e_dot)
        th_a, i = mod.theta.copy(), np.flatnonzero(mod.alpha_i != 0)
        th_a[i] = _pseudo_true(mod, mod.alpha_d[i], mod.alpha_i[i], search, i)
        m, valid, *extras = reduction(mod, th_a)
        b = (mod.theta - th_a) ** 2
        parts.append((mod.crb, m, th_a, b, m + b, valid, *extras))
    crb, m, th_a, b, mcrb, valid, *extras = map(np.concatenate, zip(*parts))
    return (_Columns(crb, m, th_a, b, mcrb, valid), *extras)


def mcrb_theta_closed_columns(geom: ArrayGeometry, theta, psi, alpha_d, alpha_i, k_pulses,
                              sigma_w2, search: SearchConfig | None = None):
    """:func:`mcrb_theta_closed` on columns of scenes on ``geom``: the 1-D arrays ``(crb,
    m, theta_a, bias, mcrb, valid)``, ``valid`` False where degenerate.  The arguments
    broadcast, scalars to every row; the rows are the broadcast shape in row-major
    order, evaluated in blocks of :func:`_rows` rows, so memory does not grow with them."""
    return _bounds(_closed, search, geom, theta, psi, alpha_d, alpha_i, k_pulses,
                   sigma_w2)[0]


def mcrb_theta_closed(scene: MultipathScene,
                      search: SearchConfig | None = None) -> BoundBreakdown:
    """Closed-form misspecified bound on the target DOA.

    M component: CRB(theta) * I (|zeta5|^2 + I) / zeta3^2 with
    I = |alpha_d|^2 E_Adot, which equals CRB at alpha_i = 0.  The bias
    component is (theta - theta_A)^2 with theta_A from :func:`theta_a`.
    One row of :func:`mcrb_theta_closed_columns`, raising where it is not valid.
    """
    cols, (den,), (thr,) = _bounds(_closed, search, *_scene_columns([scene]))
    if not cols.valid[0]:
        raise DegenerateBoundError(
            "near-destructive paths: closed-form denominator below threshold"
            if den < thr else "closed-form bound is not finite",
            denominator=float(den), threshold=float(thr))
    return _breakdowns(cols)[0]


def mcrb_sandwich(scene: MultipathScene, search: SearchConfig | None = None):
    """Numerical sandwich C_D^{-1} J C_D^{-1} and its DOA breakdown.

    Returns ``(m_matrix, breakdown)`` where ``m_matrix`` is the full 5x5
    covariance term and the breakdown's M component is its (theta, theta)
    element.  This is the oracle the closed form is compared against.
    It is taken at zeta1 = zeta2 = 1 with zeta4 at the same unit Doppler
    scale, the convention on which the (theta, theta) element depends.
    One row of :func:`_sandwich`, raising where it is not valid.
    """
    cols, (m,), (cond,) = _bounds(_sandwich, search, *_scene_columns([scene]))
    if not cols.valid[0]:
        raise ConditioningError(
            f"curvature matrix condition {cond:.3e} exceeds {_COND_THRESHOLD:.1e}",
            condition=float(cond))
    return m, _breakdowns(cols)[0]
