"""Colocated transmit/receive array geometry, steering vectors and beampatterns.

Element positions are stored in units of wavelength along a single array
axis, so no carrier frequency appears here.  Arrays are re-centered at
construction (zero-mean positions); that symmetry is what makes the
steering vector orthogonal to its own angular derivative, which the bound
expressions rely on.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


def _as_centered_positions(positions, label: str) -> np.ndarray:
    pos = np.atleast_1d(np.asarray(positions, dtype=float)).copy()
    if pos.ndim != 1 or pos.size < 1:
        raise ValueError(f"{label}: need a non-empty 1-D position list")
    if not np.all(np.isfinite(pos)):
        raise ValueError(f"{label}: positions must be finite")
    pos -= pos.mean()
    pos.flags.writeable = False
    return pos


@dataclass(frozen=True)
class ArrayGeometry:
    """Transmit/receive element positions along the array axis, in wavelengths.

    Positions are re-centered to zero mean at construction.
    """

    tx_positions: np.ndarray
    rx_positions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tx_positions",
                           _as_centered_positions(self.tx_positions, "tx_positions"))
        object.__setattr__(self, "rx_positions",
                           _as_centered_positions(self.rx_positions, "rx_positions"))

    @property
    def m_t(self) -> int:
        return self.tx_positions.size

    @property
    def m_r(self) -> int:
        return self.rx_positions.size

    def key(self) -> tuple:
        """Hashable identity of the positions: the cache key of the argmax
        kernel's per-geometry constants and the same-geometry check that a
        bound batch and a Monte-Carlo sweep share."""
        return (tuple(self.tx_positions), tuple(self.rx_positions))


_Vectors = namedtuple("_Vectors", "a_r a_t")   # receive and transmit steering vectors


def standard_virtual_ula(m_t: int, m_r: int) -> ArrayGeometry:
    """Geometry whose virtual array is a half-wavelength ULA of m_t*m_r elements.

    The receive array is a half-wavelength ULA of ``m_r`` elements; the
    transmit array is a sparse ULA of ``m_t`` elements whose spacing equals
    the receive aperture extent (m_r/2 wavelengths).
    """
    if m_t < 1 or m_r < 1:
        raise ValueError("element counts must be at least 1")
    rx = (np.arange(m_r) - (m_r - 1) / 2.0) * 0.5
    tx = (np.arange(m_t) - (m_t - 1) / 2.0) * (m_r / 2.0)
    return ArrayGeometry(tx_positions=tx, rx_positions=rx)


def _phasors(positions: np.ndarray, sines, root=None) -> np.ndarray:
    """exp(j*2*pi*p_m*sin(phi))/root_m, one column per entry of ``sines``; ``root``
    is sqrt(M) by default, or a column of per-position divisors.  One exp call,
    built in place."""
    e = 1j * TWO_PI * np.multiply.outer(positions, sines)
    np.exp(e, out=e)
    return np.divide(e, np.sqrt(positions.size) if root is None else root, out=e)


def _steer_a(positions: np.ndarray, theta):
    """The steering vector exp(j*2*pi*p_m*sin(theta))/sqrt(M), each entry of
    modulus 1/sqrt(M); its angular derivatives are taken on the virtual array
    by ``bounds._projection_derivs``."""
    return np.exp(1j * (TWO_PI * positions * np.sin(theta))) / np.sqrt(positions.size)


def _vectors(geom: ArrayGeometry, theta) -> _Vectors:
    """Receive and transmit steering vectors at ``theta`` (radians from
    broadside): one row per angle for a 1-D array of angles, shape (n, M).
    ValueError unless |theta| < pi/2."""
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.abs(theta) < np.pi / 2):
        raise ValueError("theta must satisfy |theta| < pi/2")
    col = theta[..., None]
    return _Vectors(_steer_a(geom.rx_positions, col), _steer_a(geom.tx_positions, col))


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., :, None] * v[..., None, :]


def _direct_indirect(s_target: _Vectors, s_reflect: _Vectors):
    """MIMO steering matrices ``A_d = a_r(theta) a_t(theta)^T`` and ``A_i =
    a_r(psi) a_t(theta)^T + a_r(theta) a_t(psi)^T`` from the :func:`_vectors` of
    the target and the reflection, one matrix per row, shape (n, M_r, M_t)."""
    a_r, a_t = s_target.a_r, s_target.a_t
    return _outer(a_r, a_t), _outer(s_reflect.a_r, a_t) + _outer(a_r, s_reflect.a_t)


def beampattern(geom: ArrayGeometry, steer: float, grid) -> tuple[np.ndarray, np.ndarray]:
    """Transmit and receive array gains in dB over ``grid`` for one steering angle.

    gain(phi) = 20*log10 |a^H(steer) a(phi)| per array; 0 dB at phi == steer.
    """
    s0, sines = _vectors(geom, steer), np.sin(np.asarray(grid, dtype=float))
    gains = [np.abs(a0.conj() @ _phasors(pos, sines))
             for pos, a0 in ((geom.tx_positions, s0.a_t), (geom.rx_positions, s0.a_r))]
    return tuple(20.0 * np.log10(np.maximum(g, 1e-300)) for g in gains)


def virtual_hpbw(geom: ArrayGeometry) -> float:
    """Half-power beamwidth of the virtual array, radians, at broadside.

    Uses the N*d-equivalent aperture of the virtual array (extent scaled by
    n/(n-1)), which reproduces 0.886/(N*d) for uniform virtual ULAs.  The
    virtual positions are all pairwise sums of transmit and receive positions.
    """
    vpos = np.sort((geom.tx_positions[:, None] + geom.rx_positions[None, :]).ravel())
    n = vpos.size
    extent = float(vpos[-1] - vpos[0])
    if n < 2 or extent <= 0.0:
        raise ValueError("beamwidth undefined for a single-element virtual array")
    return 0.886 / (extent * n / (n - 1))
