"""Misspecified ML DOA estimator and the Monte-Carlo RMSE engine.

The estimator maximizes the direct-only matched projection
|tr(A^H(theta') Y)|^2 on the compressed statistic with the pseudo-true
angle's kernel (coarse grid, then safeguarded Newton); under multipath data
it converges to the pseudo-true angle, which is exactly what the bias term
of the bound predicts.  The engine draws its statistics through
:mod:`~mpcrb.scene`, trial ``t`` of scene ``i`` from the stream keyed by
(base_seed, i) alone (see :func:`monte_carlo_rmse`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arrays import ArrayGeometry
from .bounds import SearchConfig, _argmax_projection, _one_geometry
from .scene import MultipathScene, _means, _statistics, _stream

MML_SEARCH = SearchConfig(refine_tol=1e-6)   # the estimator's default search
_MC_CHUNK = 4096   # statistics per estimator call of the Monte-Carlo engine


@dataclass(frozen=True)
class RmseCurve:
    """Monte-Carlo RMSE/bias of an estimator per swept scene."""

    rmse_rad: tuple
    bias_rad: tuple
    trials: int
    base_seed: int


def mml_doa(y: np.ndarray, geom: ArrayGeometry,
            cfg: SearchConfig | None = None) -> float:
    """DOA estimate maximizing the direct-only projection of one finite statistic."""
    if y.shape != (geom.m_r, geom.m_t) or not np.isfinite(y).all():
        raise ValueError(f"statistic of shape {y.shape}: need finite entries and "
                         f"the geometry's shape ({geom.m_r}, {geom.m_t})")
    return float(_argmax_projection(y[None, :, :], geom, cfg or MML_SEARCH)[0])


def _reduce(errors: np.ndarray) -> tuple[float, float]:
    n = errors.size
    rmse = math.sqrt(math.fsum((errors * errors).tolist()) / n)
    bias = math.fsum(errors.tolist()) / n
    return rmse, bias


def monte_carlo_rmse(scene_sweep: Sequence[MultipathScene],
                     cfg: SearchConfig | None, trials: int,
                     base_seed: int) -> RmseCurve:
    """RMSE and mean bias of the misspecified estimator per swept scene.

    Every scene of a sweep is on one geometry; a mixed sweep is refused
    with the same ValueError as a mixed bound batch.  Scene ``i`` draws its
    ``trials`` statistics in order from its own stream, the one that
    ``synthesize_compressed`` starts from the seed (base_seed, i).
    Consecutive scenes are packed into estimator calls of at most
    ``_MC_CHUNK`` statistics, a scene split across calls where needed, so
    memory is bounded by the chunk.  Trial t of scene i is the
    same statistic whatever the packing, and the reduction uses exact
    compensated summation, so the curve does not depend on the chunk size
    and ``trials`` = n is a prefix of any larger count.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not scene_sweep:
        return RmseCurve((), (), trials, base_seed)
    geom = _one_geometry(scene_sweep)
    means = _means(geom, scene_sweep)
    buf = np.empty((min(_MC_CHUNK, trials * len(means)),) + means.shape[1:],
                   dtype=complex)
    results, est = [], np.empty(0)   # est: estimates not yet reduced, in order

    def flush(y):   # the next scene is complete once its trials estimates are in
        nonlocal est
        est = np.concatenate((est, _argmax_projection(y, geom, cfg or MML_SEARCH)))
        while len(est) >= trials:
            results.append(_reduce(est[:trials] - scene_sweep[len(results)].theta))
            est = est[trials:]

    fill = 0
    for idx, (scene, mean) in enumerate(zip(scene_sweep, means)):
        rng = _stream((base_seed, idx))
        left = trials
        while left:
            take = min(left, len(buf) - fill)
            _statistics(rng, scene, mean, take, out=buf[fill:fill + take])
            fill, left = fill + take, left - take
            if fill == len(buf):
                flush(buf)
                fill = 0
    if fill:
        flush(buf[:fill])
    return RmseCurve(*zip(*results), trials=trials, base_seed=base_seed)
