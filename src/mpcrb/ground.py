"""Automotive ground-multipath scene: geometry, reflection physics, range sweep.

Maps a radar height / road-surface description to a
:class:`~mpcrb.scene.MultipathScene` per range: image-path length and angle,
vertical-polarization reflection coefficient, two-way free-space amplitude
loss normalized at a reference range, and the same-range-Doppler-cell check
that gates the closed-form bound.

Sign convention: the geometric grazing angle from the road is positive; the
reflector enters the array model at negative elevation (below broadside),
so the stored scene angle is its negation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .arrays import ArrayGeometry
from .bounds import BoundBreakdown, SearchConfig, mcrb_theta_closed_many
from .scene import (MultipathScene, PathGeometryInputs, delta_phi,
                    path_coefficients, smr, snr)


@dataclass(frozen=True)
class GroundScenario:
    """Flat-road multipath scenario evaluated over a range grid."""

    h_r: float                      # radar height above the road, m
    wavelength: float               # carrier wavelength, m
    eps_r: float                    # road relative dielectric constant
    gamma_cond: float               # road conductivity, S/m
    range_grid: np.ndarray          # target ranges, m, strictly increasing
    geom: ArrayGeometry             # vertical array
    theta: float = 0.0              # target elevation DOA (flat road: 0)
    gamma_t: complex = 1.0 + 0.0j   # target reflection coefficient
    v: float = 10.0                 # relative radial velocity, m/s
    r_res: float = 0.5              # range resolution, m
    v_res: float = 0.05             # velocity resolution, m/s
    k_pulses: int = 256
    e_p: float = 1.0
    snr_ref_db: float = 20.0        # SNR at the reference range
    r_ref: float = 50.0             # reference range for the r^-2 amplitude law, m

    def __post_init__(self):
        grid = np.atleast_1d(np.asarray(self.range_grid, dtype=float)).copy()
        if grid.size < 1 or np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
            raise ValueError("range_grid must be positive and strictly increasing")
        grid.flags.writeable = False
        object.__setattr__(self, "range_grid", grid)
        if self.h_r <= 0.0 or self.wavelength <= 0.0 or self.r_ref <= 0.0:
            raise ValueError("h_r, wavelength and r_ref must be positive")
        if self.eps_r < 1.0 or self.gamma_cond < 0.0:
            raise ValueError("require eps_r >= 1 and gamma_cond >= 0")


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


def indirect_geometry(r_d: float, theta: float, h_r: float) -> tuple[float, float]:
    """Image-path length and angle for a target at (r_d, theta).

    Returns ``(r_i, psi)`` with psi negative (below broadside); the grazing
    angle at the specular point is ``-psi``.
    """
    if r_d <= 0.0 or h_r <= 0.0:
        raise ValueError("require r_d > 0 and h_r > 0")
    r_i = math.sqrt((r_d * math.cos(theta)) ** 2
                    + (r_d * math.sin(theta) + 2.0 * h_r) ** 2)
    psi = math.acos(min(1.0, r_d * math.cos(theta) / r_i))
    return r_i, -psi


def reflection_coefficient(psi: float, eps_r: float, gamma_cond: float,
                           wavelength: float) -> complex:
    """Vertical-polarization surface reflection coefficient at grazing angle psi.

    Uses eps = eps_r - j*60*lambda*gamma and the principal complex square
    root; tends to -1 as psi -> 0 (the surface acts as a mirror).
    """
    if not (0.0 < psi <= math.pi / 2):
        raise ValueError("grazing angle must lie in (0, pi/2]")
    eps = complex(eps_r, -60.0 * wavelength * gamma_cond)
    root = cmath.sqrt(eps - math.cos(psi) ** 2)
    return (eps * math.sin(psi) - root) / (eps * math.sin(psi) + root)


def _range_physics(scn: GroundScenario, r_d: float) -> tuple:
    """RangePoint fields up to same_cell and the scene's fields but its array."""
    r_i, psi = indirect_geometry(r_d, scn.theta, scn.h_r)
    grazing = -psi
    gamma_r = reflection_coefficient(grazing, scn.eps_r, scn.gamma_cond,
                                     scn.wavelength)
    alpha_0d = (scn.r_ref / r_d) ** 2
    alpha_0i = (scn.r_ref / r_i) ** 2
    alpha_d, alpha_i = path_coefficients(PathGeometryInputs(
        gamma_t=scn.gamma_t, gamma_r=gamma_r, alpha_0d=alpha_0d,
        alpha_0i=alpha_0i, r_d=r_d, r_i=r_i, wavelength=scn.wavelength))
    sigma_w2 = abs(scn.gamma_t) ** 2 / (10.0 ** (scn.snr_ref_db / 10.0))
    fields = dict(theta=scn.theta, psi=psi, alpha_d=alpha_d, alpha_i=alpha_i,
                  k_pulses=scn.k_pulses, e_p=scn.e_p, sigma_w2=sigma_w2)
    scene = MultipathScene(geom=scn.geom, **fields)
    same_cell = ((r_i - r_d) < scn.r_res
                 and scn.v * (1.0 - math.cos(grazing)) < scn.v_res)
    smr_v = smr(scene)
    return (r_d, r_i, psi, gamma_r,
            10.0 * math.log10(smr_v) if math.isfinite(smr_v) else math.inf,
            delta_phi(scene), 10.0 * math.log10(snr(scene)), same_cell), fields


def range_point(scn: GroundScenario, r_d: float,
                search: SearchConfig | None = None,
                geom: ArrayGeometry | None = None) -> RangePoint:
    """Evaluate geometry, path physics and (when in-cell) the bound at one
    range: a one-range :func:`range_sweep`."""
    one = replace(scn, range_grid=[r_d], geom=scn.geom if geom is None else geom)
    return range_sweep(one, search=search)["default"][0]


def range_sweep(scn: GroundScenario,
                geoms: Mapping[str, ArrayGeometry] | None = None,
                search: SearchConfig | None = None,
                ) -> dict[str, list[RangePoint]]:
    """Evaluate every grid range for one or more array configurations.

    The path physics of each range is computed once; only the scene's
    geometry differs between configurations.  The bounds of each geometry's
    in-cell points come from one batched call.  Output lists follow the
    range grid order.
    """
    if geoms is None:
        geoms = {"default": scn.geom}
    base = [_range_physics(scn, float(r)) for r in scn.range_grid]
    in_cell = [i for i, (head, _) in enumerate(base) if head[-1]]
    out: dict[str, list[RangePoint]] = {}
    for name, geom in geoms.items():
        scenes = [MultipathScene(geom=geom, **fields) for _, fields in base]
        bounds = dict(zip(in_cell, mcrb_theta_closed_many(
            [scenes[i] for i in in_cell], search=search)))
        out[name] = [RangePoint(*head, scene=sc, bound=bounds.get(i))
                     for i, ((head, _), sc) in enumerate(zip(base, scenes))]
    return out
