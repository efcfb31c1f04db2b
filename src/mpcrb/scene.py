"""True-model parameterization: direct plus single-bounce indirect path.

Everything downstream (bounds, estimators, experiments) consumes a
:class:`MultipathScene`.  Synthesis happens in the compressed domain: the
matched-filter / Doppler-integrated statistic ``Y`` of shape (M_r, M_t),
which is sufficient for the amplitude and DOA once the echoes share a
range-Doppler cell and the waveforms are orthogonal.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .arrays import ArrayGeometry, mimo_matrices, steering

_HALF_PLANE = math.pi / 2


def wrap_phase(x: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    y = math.fmod(x + math.pi, 2.0 * math.pi)
    if y <= 0.0:
        y += 2.0 * math.pi
    return y - math.pi


@dataclass(frozen=True)
class MultipathScene:
    """Complete true-model parameterization for one target/reflector pair."""

    geom: ArrayGeometry
    theta: float
    psi: float
    alpha_d: complex
    alpha_i: complex
    k_pulses: int = 1
    e_p: float = 1.0
    sigma_w2: float = 1.0

    def __post_init__(self):
        if not (abs(self.theta) < _HALF_PLANE and abs(self.psi) < _HALF_PLANE):
            raise ValueError("theta and psi must lie strictly inside (-pi/2, pi/2)")
        if self.sigma_w2 <= 0.0 or self.e_p <= 0.0 or self.k_pulses < 1:
            raise ValueError("require sigma_w2 > 0, e_p > 0, k_pulses >= 1")


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


def smr(scene: MultipathScene) -> float:
    """Signal-to-multipath power ratio; +inf for the multipath-free case."""
    if scene.alpha_i == 0:
        return math.inf
    return abs(scene.alpha_d) ** 2 / abs(scene.alpha_i) ** 2


def snr(scene: MultipathScene) -> float:
    return abs(scene.alpha_d) ** 2 / scene.sigma_w2


def delta_phi(scene: MultipathScene) -> float:
    """Phase of the direct path relative to the indirect path, in (-pi, pi]."""
    return wrap_phase(cmath.phase(scene.alpha_d) - cmath.phase(scene.alpha_i))


def scene_from_ratios(geom: ArrayGeometry, theta: float, psi: float,
                      snr_db: float, smr_db: float, dphi: float,
                      k_pulses: int = 1, e_p: float = 1.0) -> MultipathScene:
    """Scene with alpha_d = 1 as the reference and the stated power ratios.

    The phase difference is placed on alpha_i, so smr/snr/delta_phi recover
    (smr_db, snr_db, dphi) exactly.
    """
    alpha_d = 1.0 + 0.0j
    sigma_w2 = 10.0 ** (-snr_db / 10.0)
    alpha_i = 10.0 ** (-smr_db / 20.0) * cmath.exp(-1j * dphi)
    return MultipathScene(geom=geom, theta=theta, psi=psi, alpha_d=alpha_d,
                          alpha_i=alpha_i, k_pulses=k_pulses, e_p=e_p,
                          sigma_w2=sigma_w2)


def multipath_free(scene: MultipathScene) -> MultipathScene:
    """Same scene with the indirect path removed (correctly specified model)."""
    return replace(scene, alpha_i=0.0 + 0.0j)


def compressed_mean(scene: MultipathScene) -> np.ndarray:
    """Noise-free compressed statistic K*E_p*(alpha_d*A_d + alpha_i*A_i)."""
    s_t = steering(scene.geom, scene.theta)
    s_r = steering(scene.geom, scene.psi)
    A_d, A_i, _, _ = mimo_matrices(s_t, s_r)
    return scene.k_pulses * scene.e_p * (scene.alpha_d * A_d + scene.alpha_i * A_i)


def synthesize_compressed(scene: MultipathScene, noise_seed,
                          n: int | None = None) -> np.ndarray:
    """One realization of the compressed statistic Y (shape M_r x M_t), or
    with ``n`` a stack of ``n`` consecutive realizations (n, M_r, M_t).

    ``noise_seed`` may be an int (or tuple of ints) fed to a counter-style
    SeedSequence, or an already-constructed numpy Generator; the same seed
    always yields the same noise.  Noise entries are independent circular
    complex Gaussians with variance K*E_p*sigma_w2.  Each realization draws
    its real, then its imaginary parts from the stream, so ``n`` statistics
    are the ``n`` single ones drawn in turn from the same Generator.
    """
    if n is not None and (isinstance(n, bool) or not isinstance(n, Integral)
                          or n < 1):
        raise ValueError(f"n must be an int >= 1 or None, got {n!r}")
    if isinstance(noise_seed, np.random.Generator):
        rng = noise_seed
    else:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(noise_seed)))
    mean = compressed_mean(scene)
    scale = math.sqrt(scene.k_pulses * scene.e_p * scene.sigma_w2 / 2.0)
    w = rng.standard_normal((1 if n is None else n, 2) + mean.shape)
    y = mean + scale * (w[:, 0] + 1j * w[:, 1])
    return y[0] if n is None else y
