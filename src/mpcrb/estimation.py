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
from .bounds import SearchConfig, _argmax_projection, _columns, _rows, _scene_columns
from .scene import MultipathScene, _means, _statistics, _stream

MML_SEARCH = SearchConfig(refine_tol=1e-6)   # the estimator's default search


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

    The sweep becomes scene columns once, by ``bounds._scene_columns``, which
    refuses mixed geometries as for a bound batch, and runs through :func:`_rmse`.
    Scene ``i`` draws its ``trials`` statistics in order from its own stream, the
    one that ``synthesize_compressed`` starts from the seed (base_seed, i).
    Consecutive scenes are packed into estimator calls of at most
    ``bounds._rows(geom)`` statistics, the bounds' batch, a scene split
    across calls where needed; their means are built from the column slices of
    one such batch at a time, so memory grows neither with ``trials`` nor with the sweep.
    Trial t of scene i is the same statistic whatever the packing, and the
    reduction uses exact compensated summation, so the curve does not depend
    on the batch size and ``trials`` = n is a prefix of any larger count.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not scene_sweep:
        return RmseCurve((), (), trials, base_seed)
    return _rmse(cfg, trials, base_seed, *_scene_columns(scene_sweep))


def _rmse(cfg: SearchConfig | None, trials: int, base_seed: int, geom: ArrayGeometry,
          *columns) -> RmseCurve:
    """The engine of :func:`monte_carlo_rmse` on scene columns on ``geom`` as
    ``bounds.mcrb_theta_closed_columns`` takes them: one or more rows, trials >= 1."""
    *cols, sigma_w2 = _columns(*columns)   # theta, psi, alpha_d, alpha_i, K
    theta, var = cols[0], cols[4] * sigma_w2
    n = min(_rows(geom), trials * len(theta))
    buf = np.empty((n, geom.m_r, geom.m_t), dtype=complex)
    results, est, fill = [], np.empty(0), 0   # est: estimates not yet reduced
    for idx in range(len(theta)):
        if idx % n == 0:
            means = _means(geom, *(c[idx:idx + n] for c in cols))
        rng, left = _stream((base_seed, idx)), trials
        while left:
            take = min(left, n - fill)
            _statistics(rng, var[idx], means[idx % n], take, out=buf[fill:fill + take])
            fill, left = fill + take, left - take
            if fill == n or (not left and idx == len(theta) - 1):
                y, fill = buf[:fill], 0
                est = np.concatenate((est, _argmax_projection(y, geom, cfg or MML_SEARCH)))
                while len(est) >= trials:   # the next scene's estimates are all in
                    results.append(_reduce(est[:trials] - theta[len(results)]))
                    est = est[trials:]
    return RmseCurve(*zip(*results), trials=trials, base_seed=base_seed)
