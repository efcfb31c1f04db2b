"""Automotive ground-multipath scene: geometry, reflection physics, range sweep.

Maps a radar height / road-surface description to the path physics of every
range on numpy columns (:func:`range_columns`): image-path length and angle,
vertical-polarization reflection coefficient, two-way free-space amplitude
loss normalized at a reference range, and the same-range-Doppler-cell check
that gates the closed-form bound.  :func:`range_point` evaluates one range on
these columns, with its :class:`~mpcrb.scene.MultipathScene` and bound.

Sign convention: the geometric grazing angle from the road is positive; the
reflector enters the array model at negative elevation (below broadside),
so the stored scene angle is its negation.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .arrays import ArrayGeometry, _Value
from .bounds import (BoundBreakdown, SearchConfig, _breakdowns,
                     mcrb_theta_closed_columns)
from .scene import (_ANGLE_REFUSAL, _COUNT_REFUSAL, _POWER_REFUSAL, MultipathScene,
                    _count_refused, _powers_ok, wrap_phase)


@dataclass(frozen=True, eq=False)
class GroundScenario(_Value):
    """Flat-road multipath scenario over a range grid; a value, like ArrayGeometry."""

    h_r: float                      # radar height above the road, m
    wavelength: float               # carrier wavelength, m
    eps_r: float                    # road relative dielectric constant
    gamma_cond: float               # road conductivity, S/m
    range_grid: np.ndarray          # target ranges, m, strictly increasing
    theta: float = 0.0              # target elevation DOA (flat road: 0)
    v: float = 10.0                 # relative radial velocity, m/s
    r_res: float = 0.5              # range resolution, m
    v_res: float = 0.05             # velocity resolution, m/s
    k_pulses: int = 256
    snr_ref_db: float = 20.0        # SNR at the reference range
    r_ref: float = 50.0             # reference range for the r^-2 amplitude law, m

    def __post_init__(self):   # each check written so that NaN fails it
        grid = np.atleast_1d(np.asarray(self.range_grid, dtype=float)).copy()
        if not (grid.size >= 1 and np.all(grid > 0.0) and np.all(np.diff(grid) > 0.0)
                and grid[-1] < math.inf):
            raise ValueError("range_grid must be positive and strictly increasing")
        grid.flags.writeable = False
        object.__setattr__(self, "range_grid", grid)
        if not (self.h_r > 0.0 and self.wavelength > 0.0 and self.r_ref > 0.0):
            raise ValueError("h_r, wavelength and r_ref must be positive")
        if not (self.eps_r >= 1.0 and self.gamma_cond >= 0.0):
            raise ValueError("require eps_r >= 1 and gamma_cond >= 0")
        if not (self.r_res > 0.0 and self.v_res > 0.0 and abs(self.v) < math.inf):
            raise ValueError("require r_res > 0, v_res > 0 and a finite v")
        if _count_refused(self.k_pulses):
            raise ValueError(_COUNT_REFUSAL)


@dataclass(frozen=True)
class RangePoint:
    """Everything derived for one target range."""

    r_d: float
    r_i: float
    psi: float                      # reflector DOA in the array frame (negative)
    gamma_r: complex
    smr_db: float
    delta_phi: float
    snr_db: float
    same_cell: bool
    scene: MultipathScene
    bound: BoundBreakdown | None    # None when out of model or degenerate


_REFUSALS = ("grazing angle must lie in (0, pi/2]", "require r_i >= r_d > 0",
             _ANGLE_REFUSAL, _POWER_REFUSAL,
             "path amplitudes must be finite: r_ref / r_d is too large")
# range_columns' columns; the first eight are RangePoint's leading fields
_RangeColumns = namedtuple("_RangeColumns", "r_d r_i psi gamma_r smr_db delta_phi "
                                            "snr_db same_cell alpha_d alpha_i sigma_w2")


def _image_path(r_d: np.ndarray, theta: float, h_r: float):
    """(r_i, psi) of :func:`indirect_geometry` for a column of ranges."""
    x = r_d * math.cos(theta)
    r_i = np.sqrt(x ** 2 + (r_d * math.sin(theta) + 2.0 * h_r) ** 2)
    return r_i, -np.arccos(np.minimum(1.0, x / r_i))


def _reflection(grazing: np.ndarray, eps_r: float, gamma_cond: float, wavelength: float):
    """:func:`reflection_coefficient` for a column of grazing angles."""
    eps = complex(eps_r, -60.0 * wavelength * gamma_cond)
    root = np.sqrt(eps - np.cos(grazing) ** 2)
    return (eps * np.sin(grazing) - root) / (eps * np.sin(grazing) + root)


def indirect_geometry(r_d: float, theta: float, h_r: float) -> tuple[float, float]:
    """Image-path length and angle for a target at (r_d, theta).

    Returns ``(r_i, psi)`` with psi negative (below broadside); the grazing
    angle at the specular point is ``-psi``.
    """
    if r_d <= 0.0 or h_r <= 0.0:
        raise ValueError("require r_d > 0 and h_r > 0")
    (r_i,), (psi,) = _image_path(np.array([r_d], dtype=float), theta, h_r)
    return float(r_i), float(psi)


def reflection_coefficient(psi: float, eps_r: float, gamma_cond: float,
                           wavelength: float) -> complex:
    """Vertical-polarization surface reflection coefficient at grazing angle psi.

    Uses eps = eps_r - j*60*lambda*gamma and the principal complex square
    root; tends to -1 as psi -> 0 (the surface acts as a mirror).
    """
    if not (0.0 < psi <= math.pi / 2):
        raise ValueError(_REFUSALS[0])
    return complex(_reflection(np.array([psi], dtype=float), eps_r, gamma_cond,
                               wavelength)[0])


def range_columns(scn: GroundScenario) -> _RangeColumns:
    """Path physics of every grid range on 1-D columns: image path, reflection
    and path coefficients ((r_ref / r)^2 with the phases of the surface and of
    the path length), SMR, phase difference and SNR (dB, rad in (-pi, pi], dB)
    and the same-cell gate; ``sigma_w2`` is one float, set so that snr_ref_db
    is the SNR at r_ref.  Raises ValueError at the first range out of model,
    with the message that range's scene inputs give."""
    r_d = scn.range_grid
    r_i, psi = _image_path(r_d, scn.theta, scn.h_r)
    gamma_r = _reflection(-psi, scn.eps_r, scn.gamma_cond, scn.wavelength)
    sigma_w2 = 1.0 / (10.0 ** (scn.snr_ref_db / 10.0))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        alpha_d = ((scn.r_ref / r_d) ** 2
                   * np.exp(1j * (2.0 * math.pi * r_d / scn.wavelength)))
        alpha_i = ((scn.r_ref / r_i) ** 2 * np.abs(gamma_r) * np.exp(
            1j * (np.angle(gamma_r) + 2.0 * math.pi * r_i / scn.wavelength)))
        p_d, p_i = np.abs(alpha_d) ** 2, np.abs(alpha_i) ** 2
        smr_db = np.where(alpha_i == 0, np.inf, 10.0 * np.log10(p_d / p_i))
        snr_db = 10.0 * np.log10(p_d / sigma_w2)
    failed = np.array([   # per _REFUSALS entry and range, in the scalar checks' order
        ~((-math.pi / 2 <= psi) & (psi < 0.0)), ~(r_i >= r_d),
        ~((abs(scn.theta) < math.pi / 2) & (psi > -math.pi / 2)),
        np.full(r_d.shape, not _powers_ok(sigma_w2, scn.k_pulses)),
        ~(np.isfinite(alpha_d) & np.isfinite(alpha_i))])
    if failed.any():
        raise ValueError(_REFUSALS[failed[:, failed.any(axis=0).argmax()].argmax()])
    delta = wrap_phase(np.angle(alpha_d) - np.angle(alpha_i))
    same_cell = (r_i - r_d < scn.r_res) & (scn.v * (1.0 - np.cos(psi)) < scn.v_res)
    return _RangeColumns(r_d, r_i, psi, gamma_r, smr_db, delta, snr_db, same_cell,
                         alpha_d, alpha_i, sigma_w2)


def range_point(scn: GroundScenario, r_d: float,
                search: SearchConfig | None = None, *,
                geom: ArrayGeometry) -> RangePoint:
    """Evaluate geometry, path physics and (when in-cell) the closed-form bound
    of the array ``geom`` at one range, on the columns of the one-range
    scenario."""
    cols = range_columns(replace(scn, range_grid=[r_d]))
    head = [c.item() for c in cols[:10]]   # one range: Python scalars
    scene = MultipathScene(geom, scn.theta, head[2], head[8], head[9],
                           scn.k_pulses, cols.sigma_w2)
    bound = _breakdowns(mcrb_theta_closed_columns(
        geom, scn.theta, cols.psi, cols.alpha_d, cols.alpha_i, scn.k_pulses,
        cols.sigma_w2, search=search))[0] if head[7] else None   # same cell
    return RangePoint(*head[:8], scene=scene, bound=bound)
