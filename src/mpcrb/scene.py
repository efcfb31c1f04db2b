"""True-model parameterization: direct plus single-bounce indirect path.

Everything downstream (bounds, estimators, experiments) consumes a
:class:`MultipathScene`.  Synthesis happens in the compressed domain: the
matched-filter / Doppler-integrated statistic ``Y`` of shape (M_r, M_t),
sufficient for amplitude and DOA when the echoes share a range-Doppler cell
and the waveforms are orthogonal, at pulse energy 1 (the SNR carries E_p).
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
import random
from dataclasses import dataclass, replace

import numpy as np

from .arrays import ArrayGeometry, _direct_indirect, _vectors

# the scene's two refusals, which ground.range_columns repeats per range
_ANGLE_REFUSAL = "theta and psi must lie strictly inside (-pi/2, pi/2)"
_POWER_REFUSAL = "require sigma_w2 > 0, k_pulses >= 1"
_COUNT_REFUSAL = "k_pulses must be an int or a numpy integer"   # GroundScenario's too


def _powers_ok(sigma_w2, k_pulses) -> bool:
    """The rule of _POWER_REFUSAL, which NaN fails; ground checks it per range."""
    return sigma_w2 > 0.0 and k_pulses >= 1


def _count_refused(k_pulses) -> bool:
    """A pulse count of at least 1 that is a float (2.0 too) or a bool; NaN and
    counts below 1 are left to the power rule and its message."""
    return k_pulses >= 1 and (isinstance(k_pulses, bool)
                              or not isinstance(k_pulses, numbers.Integral))


def wrap_phase(x):
    """Wrap an angle (a float) or each entry of an array to (-pi, pi]."""
    y = np.fmod(np.add(x, math.pi), 2.0 * math.pi)
    y = np.where(y <= 0.0, y + 2.0 * math.pi, y) - math.pi
    return float(y) if y.ndim == 0 else y


@dataclass(frozen=True)
class MultipathScene:
    """Complete true-model parameterization for one target/reflector pair."""

    geom: ArrayGeometry
    theta: float
    psi: float
    alpha_d: complex
    alpha_i: complex
    k_pulses: int = 1
    sigma_w2: float = 1.0

    def __post_init__(self):
        if not (abs(self.theta) < math.pi / 2 and abs(self.psi) < math.pi / 2):
            raise ValueError(_ANGLE_REFUSAL)
        if not _powers_ok(self.sigma_w2, self.k_pulses):
            raise ValueError(_POWER_REFUSAL)
        if _count_refused(self.k_pulses):
            raise ValueError(_COUNT_REFUSAL)


def scene_from_ratios(geom: ArrayGeometry, theta: float, psi: float,
                      snr_db: float, smr_db: float, dphi: float,
                      k_pulses: int = 1) -> MultipathScene:
    """Scene with alpha_d = 1 as the reference and the stated power ratios:
    SNR |alpha_d|^2 / sigma_w2, SMR |alpha_d|^2 / |alpha_i|^2 and the phase
    difference arg(alpha_d) - arg(alpha_i), which is placed on alpha_i.
    """
    alpha_d = 1.0 + 0.0j
    sigma_w2 = 10.0 ** (-snr_db / 10.0)
    alpha_i = 10.0 ** (-smr_db / 20.0) * cmath.exp(-1j * dphi)
    return MultipathScene(geom=geom, theta=theta, psi=psi, alpha_d=alpha_d,
                          alpha_i=alpha_i, k_pulses=k_pulses, sigma_w2=sigma_w2)


def multipath_free(scene: MultipathScene) -> MultipathScene:
    """Same scene with the indirect path removed (correctly specified model)."""
    return replace(scene, alpha_i=0.0 + 0.0j)


def compressed_mean(scene: MultipathScene) -> np.ndarray:
    """Noise-free compressed statistic K*(alpha_d*A_d + alpha_i*A_i)."""
    return _means(scene.geom, [scene])[0]


def _means(geom: ArrayGeometry, scenes) -> np.ndarray:
    """:func:`compressed_mean` of each scene on ``geom``, stacked (n, M_r, M_t),
    each entry bit for bit the scene's alone; the engine's means too."""
    theta, psi, alpha_d, alpha_i, k = (np.array(c) for c in zip(*[
        (sc.theta, sc.psi, sc.alpha_d, sc.alpha_i, sc.k_pulses)
        for sc in scenes]))
    A_d, A_i = _direct_indirect(_vectors(geom, theta), _vectors(geom, psi))
    return k[:, None, None] * (alpha_d[:, None, None] * A_d
                                 + alpha_i[:, None, None] * A_i)


def _stream(seed) -> random.Random:
    """The noise stream of ``seed``: a random.Random itself, else a new MT19937
    stream seeded with the decimal text of the int or of the tuple of ints,
    ``'7'`` or ``'(7, 0)'``, so distinct seeds start distinct streams.  Members
    must be non-negative: ValueError if not, TypeError if not integers."""
    if isinstance(seed, random.Random):
        return seed
    ints = tuple(map(operator.index, seed if isinstance(seed, tuple) else (seed,)))
    if any(i < 0 for i in ints):
        raise ValueError(f"noise seed {seed!r}: integers must be non-negative")
    return random.Random(repr(ints if isinstance(seed, tuple) else ints[0]))


# exp(j*2*pi*k/2^b) for the bit fields of a 32-bit angle word: its top 11
# bits (b = 11), the next 11 (b = 22) and the last 10 (b = 32)
_UNIT_PHASORS = tuple(np.exp(1j * (2.0 * math.pi / 2.0 ** b) * np.arange(n))
                      for b, n in ((11, 2048), (22, 2048), (32, 1024)))


def _noise(rng: random.Random, n: int, var: float) -> np.ndarray:
    """``n`` independent circular complex Gaussians of variance ``var`` by
    Box-Muller, from the next 2n 32-bit words of ``rng``: entry j takes words
    2j and 2j + 1, u and a, and is sqrt(-var ln((u + 1/2) 2^-32)) exp(j 2 pi
    a 2^-32), the phasor a product of three table entries.  |entry|^2 is at
    most var * 33 ln 2, a cut at the 2^-33 tail of its exponential law."""
    w = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u4")
    u, a = w[0::2], w[1::2]
    hi, mid, lo = _UNIT_PHASORS
    z = hi.take(a >> 21)
    z *= mid.take((a >> 10) & 0x7FF)
    z *= lo.take(a & 0x3FF)
    r = u * 2.0 ** -32
    r += 2.0 ** -33
    np.log(r, out=r)
    r *= -var
    z *= np.sqrt(r, out=r)
    return z


def synthesize_compressed(scene: MultipathScene, noise_seed) -> np.ndarray:
    """One realization of the compressed statistic Y (shape M_r x M_t).

    ``noise_seed`` is a non-negative int, a tuple of them, or a random.Random
    stream that the call continues; an int or tuple starts a fresh MT19937
    stream, distinct for distinct seeds (``5`` and ``(5,)`` differ), so the
    same seed always yields the same noise.  Noise entries are independent
    circular complex Gaussians with variance K*sigma_w2, drawn by
    Box-Muller from two 32-bit words each, in row-major order, so calls on
    one stream give the statistics that the Monte-Carlo engine draws in turn.
    A negative seed raises ValueError, one that is not an int or a tuple of
    ints TypeError.
    """
    return _statistics(_stream(noise_seed), scene, compressed_mean(scene), 1)[0]


def _statistics(rng: random.Random, scene: MultipathScene, mean: np.ndarray,
                n: int, out: np.ndarray | None = None) -> np.ndarray:
    """``n`` statistics ``mean`` + noise of ``scene`` drawn in turn from ``rng``,
    stacked (n, M_r, M_t) into ``out`` if given; the engine draws through it."""
    var = scene.k_pulses * scene.sigma_w2
    noise = _noise(rng, n * mean.size, var).reshape((n,) + mean.shape)
    return np.add(mean, noise, out=out)
