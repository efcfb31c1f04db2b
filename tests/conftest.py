"""Shared oracles for the test suite.

These deliberately re-derive quantities from raw element positions (plain
loops / explicit outer products) so they stay independent of the package's
own linear-algebra paths.  The product-rule steering derivatives, MIMO
matrices and traces, the matched-model FIM, the paper-form pseudo-true angle,
the scalar path coefficients and the scene power ratios are reference forms
that only the tests use; the package takes its derivatives of the MIMO
steering matrix from virtual-array moments instead.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from mpcrb import MultipathScene, SearchConfig, wrap_phase
from mpcrb.bounds import _informative, _model, _pseudo_true


def raw_steering(positions, theta):
    m = len(positions)
    return np.exp(2j * np.pi * np.asarray(positions) * np.sin(theta)) / np.sqrt(m)


def fd_steering_derivative(positions, theta, h=1e-6):
    ap = raw_steering(positions, theta + h)
    am = raw_steering(positions, theta - h)
    return (ap - am) / (2.0 * h)


def raw_mimo(geom, theta, psi):
    """Direct/indirect steering matrices from raw positions only."""
    ar_t = raw_steering(geom.rx_positions, theta)
    at_t = raw_steering(geom.tx_positions, theta)
    ar_p = raw_steering(geom.rx_positions, psi)
    at_p = raw_steering(geom.tx_positions, psi)
    a_d = np.outer(ar_t, at_t)
    a_i = np.outer(ar_p, at_t) + np.outer(ar_t, at_p)
    return a_d, a_i


def raw_steering_derivs(positions, theta):
    """a, da/dtheta and d2a/dtheta2 by the product rule, from raw positions;
    one row per angle for a 1-D array of angles."""
    pos = np.asarray(positions, dtype=float)
    th = np.asarray(theta, dtype=float)[..., None]
    a = np.exp(2j * np.pi * pos * np.sin(th)) / np.sqrt(pos.size)
    slope = 2j * np.pi * pos * np.cos(th)
    return a, slope * a, (slope * slope - 2j * np.pi * pos * np.sin(th)) * a


def raw_mimo_derivs(geom, theta, psi):
    """(A_d, A_i, dA_d, ddA_d), the derivatives with respect to the target
    angle, by the product rule on explicit outer products; one matrix per row
    for arrays of angles."""
    def outer(u, v):
        return u[..., :, None] * v[..., None, :]

    ar, dar, ddar = raw_steering_derivs(geom.rx_positions, theta)
    at, dat, ddat = raw_steering_derivs(geom.tx_positions, theta)
    br, bt = (raw_steering_derivs(pos, psi)[0]
              for pos in (geom.rx_positions, geom.tx_positions))
    return (outer(ar, at), outer(br, at) + outer(ar, bt),
            outer(dar, at) + outer(ar, dat),
            outer(ddar, at) + 2.0 * outer(dar, dat) + outer(ar, ddat))


def raw_e_adot(geom, theta):
    """E_Adot = ||da_r||^2 + ||da_t||^2 of the product-rule derivatives."""
    return sum(np.sum(np.abs(raw_steering_derivs(pos, theta)[1]) ** 2, axis=-1)
               for pos in (geom.rx_positions, geom.tx_positions))


def raw_traces(geom, theta, psi):
    """tr(A_d^H A_i), tr(dA_d^H A_i) and tr(ddA_d^H A_i) per row, by einsum."""
    A_d, A_i, dA_d, ddA_d = raw_mimo_derivs(geom, theta, psi)
    return tuple(np.einsum("...mn,...mn->...", x.conj(), A_i) for x in (A_d, dA_d, ddA_d))


def projection_objective(geom, scene_mean, angle):
    """|tr(A^H(angle) M)|^2 evaluated directly from raw steering vectors."""
    a_r = raw_steering(geom.rx_positions, angle)
    a_t = raw_steering(geom.tx_positions, angle)
    return abs(np.vdot(np.outer(a_r, a_t), scene_mean)) ** 2


def dense_grid_argmax(geom, scene_mean, lo, hi, step):
    grid = np.arange(lo, hi + step / 2, step)
    vals = np.array([projection_objective(geom, scene_mean, a) for a in grid])
    return grid[int(np.argmax(vals))]


def fim(scene: MultipathScene, f_tau: float = 1.0, f_omega: float = 1.0) -> np.ndarray:
    """Conventional 5x5 FIM of the matched model, diagonal under orthogonal
    waveforms and centered arrays: (2K/sigma^2) * diag(1, 1,
    |a|^2 F_tau, |a|^2 F_omega, |a|^2 E_Adot), pulse energy 1."""
    if f_tau <= 0.0 or f_omega <= 0.0:
        raise ValueError("f_tau and f_omega must be positive")
    e_dot = _informative(raw_e_adot(scene.geom, scene.theta))
    a2 = abs(scene.alpha_d) ** 2
    pref = 2.0 * scene.k_pulses / scene.sigma_w2
    return np.diag(pref * np.array([1.0, 1.0, a2 * f_tau, a2 * f_omega, a2 * e_dot]))


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
    return float(_pseudo_true(_model([scene]), 1.0, ai / denom, search)[0])


@dataclass(frozen=True)
class PathGeometryInputs:
    """Physical inputs that determine the complex path coefficients."""

    gamma_t: complex
    gamma_r: complex
    alpha_0d: float
    alpha_0i: float
    r_d: float
    r_i: float
    wavelength: float

    def __post_init__(self):
        if not (self.r_i >= self.r_d > 0.0):
            raise ValueError("require r_i >= r_d > 0")
        if self.wavelength <= 0.0:
            raise ValueError("wavelength must be positive")
        if self.alpha_0d < 0.0 or self.alpha_0i < 0.0:
            raise ValueError("propagation-loss magnitudes must be non-negative")


def path_coefficients(p: PathGeometryInputs) -> tuple[complex, complex]:
    """Direct/indirect complex path coefficients from geometry and reflectivity.

    alpha_d = alpha_0d*|Gamma_t|*exp(j(ang(Gamma_t) + 2*pi*r_d/lambda));
    alpha_i picks up the surface coefficient and the indirect path phase.
    """
    ang_t = cmath.phase(p.gamma_t)
    ang_r = cmath.phase(p.gamma_r)
    phi_rd = 2.0 * math.pi * p.r_d / p.wavelength
    phi_ri = 2.0 * math.pi * p.r_i / p.wavelength
    alpha_d = p.alpha_0d * abs(p.gamma_t) * cmath.exp(1j * (ang_t + phi_rd))
    alpha_i = (p.alpha_0i * abs(p.gamma_t) * abs(p.gamma_r)
               * cmath.exp(1j * (ang_t + ang_r + phi_ri)))
    return alpha_d, alpha_i


def scene_ratios(scene: MultipathScene) -> tuple[float, float, float]:
    """(SNR, SMR, delta_phi) of a scene: |alpha_d|^2 / sigma_w2, |alpha_d|^2 /
    |alpha_i|^2 (+inf without multipath) and arg(alpha_d) - arg(alpha_i)
    wrapped to (-pi, pi]."""
    p_d = abs(scene.alpha_d) ** 2
    smr = math.inf if scene.alpha_i == 0 else p_d / abs(scene.alpha_i) ** 2
    dphi = wrap_phase(cmath.phase(scene.alpha_d) - cmath.phase(scene.alpha_i))
    return p_d / scene.sigma_w2, smr, dphi
