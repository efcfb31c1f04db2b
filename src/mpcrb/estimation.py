"""Misspecified ML DOA estimator and the Monte-Carlo RMSE engine.

The estimator maximizes the direct-only matched projection
|tr(A^H(theta') Y)|^2 on the compressed statistic; under multipath data it
converges to the pseudo-true angle, which is exactly what the bias term of
the bound predicts.  Trials are seeded individually from
(base_seed, scene index, trial index), so results do not depend on
execution order or chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arrays import ArrayGeometry
from .bounds import _BLOCK, SearchConfig, _argmax_projection, _resolve_search
from .scene import MultipathScene, compressed_mean

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
    """DOA estimate maximizing the direct-only projection of one statistic."""
    if y.shape != (geom.m_r, geom.m_t):
        raise ValueError(f"statistic shape {y.shape} does not match geometry "
                         f"({geom.m_r}, {geom.m_t})")
    cfg = _resolve_search(geom, cfg or MML_SEARCH)
    return float(_argmax_projection(y[None, :, :], geom, cfg)[0])


def _trial_rng(base_seed: int, scene_index: int, trial_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence((int(base_seed), int(scene_index), int(trial_index)))
    return np.random.Generator(np.random.PCG64(ss))


def _scene_errors(scene: MultipathScene, cfg: SearchConfig, trials: int,
                  base_seed: int, scene_index: int) -> np.ndarray:
    mean = compressed_mean(scene)
    scale = math.sqrt(scene.k_pulses * scene.e_p * scene.sigma_w2 / 2.0)
    errors = np.empty(trials)
    for start in range(0, trials, _BLOCK):
        stop = min(start + _BLOCK, trials)
        y = np.empty((stop - start,) + mean.shape, dtype=complex)
        for t in range(start, stop):
            rng = _trial_rng(base_seed, scene_index, t)
            w = rng.standard_normal(mean.shape) + 1j * rng.standard_normal(mean.shape)
            y[t - start] = mean + scale * w
        errors[start:stop] = _argmax_projection(y, scene.geom, cfg) - scene.theta
    return errors


def _reduce(errors: np.ndarray) -> tuple[float, float]:
    n = errors.size
    rmse = math.sqrt(math.fsum((errors * errors).tolist()) / n)
    bias = math.fsum(errors.tolist()) / n
    return rmse, bias


def monte_carlo_rmse(scene_sweep: Sequence[MultipathScene],
                     cfg: SearchConfig | None, trials: int,
                     base_seed: int) -> RmseCurve:
    """RMSE and mean bias of the misspecified estimator per swept scene.

    Per-trial seeds derive from (base_seed, scene index, trial index); the
    reduction uses exact compensated summation, so the curve does not
    depend on execution order.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    results = []
    for idx, scene in enumerate(scene_sweep):
        search = _resolve_search(scene.geom, cfg or MML_SEARCH)
        results.append(_reduce(_scene_errors(scene, search, trials, base_seed,
                                             idx)))
    return RmseCurve(rmse_rad=tuple(r for r, _ in results),
                     bias_rad=tuple(b for _, b in results), trials=trials,
                     base_seed=base_seed)
