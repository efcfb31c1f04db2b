"""Colocated transmit/receive array geometry, steering vectors and beampatterns.

Element positions are stored in units of wavelength along a single array
axis, so no carrier frequency appears here.  Arrays are re-centered at
construction (zero-mean positions); that symmetry is what makes the
steering vector orthogonal to its own angular derivative, which the bound
expressions rely on.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

TWO_PI = 2.0 * np.pi


def _as_centered_positions(positions, label: str) -> np.ndarray:
    pos = np.atleast_1d(np.asarray(positions, dtype=float))
    if pos.ndim != 1 or pos.size < 1:
        raise ValueError(f"{label}: need a non-empty 1-D position list")
    if not np.all(np.isfinite(pos)):
        raise ValueError(f"{label}: positions must be finite")
    return pos - pos.mean()


class _Value:
    """Value ``==`` and hash for a frozen dataclass: fields compare as a tuple, a
    numpy array field as the tuple of its entries."""

    def _value(self) -> tuple:
        return tuple(tuple(v.tolist()) if isinstance(v, np.ndarray) else v
                     for v in (getattr(self, f.name) for f in fields(self)))

    def __eq__(self, other):
        same_type = type(other) is type(self)
        return self._value() == other._value() if same_type else NotImplemented

    def __hash__(self):
        return hash(self._value())


@dataclass(frozen=True, eq=False)
class ArrayGeometry(_Value):
    """Transmit/receive element positions along the array axis, in wavelengths.

    Positions are re-centered to zero mean at construction.  A geometry is a
    value (``==`` and hash over its positions) and carries the constants of its
    :func:`_phasors`, made once here and read-only: the rx then tx positions,
    their sqrt(M) divisors and the virtual moments [1, q, q^2] of q = p_r + p_t.
    """

    tx_positions: np.ndarray
    rx_positions: np.ndarray

    def __post_init__(self):
        tx = _as_centered_positions(self.tx_positions, "tx_positions")
        rx = _as_centered_positions(self.rx_positions, "rx_positions")
        q = (rx[:, None] + tx).ravel()   # no Python-level numpy helpers: their first
        moments = np.empty((q.size, 3), dtype=complex)   # call in a fork costs more
        moments[:, 0], moments[:, 1] = 1.0, q             # than the arithmetic
        moments[:, 2] = q * q
        root = np.sqrt(np.array([rx.size] * rx.size + [tx.size] * tx.size, dtype=float))
        vars(self).update(tx_positions=tx, rx_positions=rx, _pos=np.concatenate((rx, tx)),
                          _root=root, _moments=moments)
        for value in vars(self).values():
            value.flags.writeable = False

    @property
    def m_t(self) -> int:
        return self.tx_positions.size

    @property
    def m_r(self) -> int:
        return self.rx_positions.size


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


def _phasors(geom: ArrayGeometry, sines) -> np.ndarray:
    """The package's one steering phasor exp(j*2*pi*p_m*sin(phi))/sqrt(M): one row
    per position of ``geom``, rx then tx (M = M_r or M_t), then the axes of
    ``sines``; each entry of modulus 1/sqrt(M).  One exp call, built in place."""
    e = 1j * TWO_PI * np.multiply.outer(geom._pos, sines)
    np.exp(e, out=e)
    np.divide(e.T, geom._root, out=e.T)   # one divisor per position, any sines shape
    return e


def _vectors(geom: ArrayGeometry, theta) -> _Vectors:
    """Receive and transmit steering vectors at ``theta`` (radians from
    broadside), the :func:`_phasors` of ``geom`` split into a_r and a_t: one row
    per angle for a 1-D array of angles, shape (n, M).  ValueError unless
    |theta| < pi/2."""
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.abs(theta) < np.pi / 2):
        raise ValueError("theta must satisfy |theta| < pi/2")
    e = _phasors(geom, np.sin(theta)).T
    return _Vectors(e[..., :geom.m_r], e[..., geom.m_r:])


def _direct_indirect(s_target: _Vectors, s_reflect: _Vectors):
    """MIMO steering matrices ``A_d = a_r(theta) a_t(theta)^T`` and ``A_i =
    a_r(psi) a_t(theta)^T + a_r(theta) a_t(psi)^T`` from the :func:`_vectors` of
    the target and the reflection, one matrix per row, shape (n, M_r, M_t)."""
    a_r, a_t = s_target.a_r[..., :, None], s_target.a_t[..., None, :]
    return a_r * a_t, s_reflect.a_r[..., :, None] * a_t + a_r * s_reflect.a_t[..., None, :]


def beampattern(geom: ArrayGeometry, steer: float, grid) -> tuple[np.ndarray, np.ndarray]:
    """Transmit and receive array gains in dB over ``grid`` for one steering angle.

    gain(phi) = 20*log10 |a^H(steer) a(phi)| per array; 0 dB at phi == steer.
    The steering angle and the grid are checked as :func:`_vectors` checks them.
    """
    s0, s = _vectors(geom, steer), _vectors(geom, grid)
    gains = [np.abs(s0.a_t.conj() @ s.a_t.T), np.abs(s0.a_r.conj() @ s.a_r.T)]
    return tuple(20.0 * np.log10(np.maximum(g, 1e-300)) for g in gains)


def virtual_hpbw(geom: ArrayGeometry) -> float:
    """Half-power beamwidth of the virtual array, radians, at broadside.

    Uses the N*d-equivalent aperture of the virtual array (extent scaled by
    n/(n-1)), which reproduces 0.886/(N*d) for uniform virtual ULAs.  The
    virtual positions q are all pairwise sums of transmit and receive positions.
    """
    q, n = geom._moments[:, 1].real, len(geom._moments)
    extent = float(q.max() - q.min())
    if n < 2 or extent <= 0.0:
        raise ValueError("beamwidth undefined for a single-element virtual array")
    return 0.886 / (extent * n / (n - 1))
