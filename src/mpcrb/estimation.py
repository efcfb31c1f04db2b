"""Misspecified ML DOA estimator and the Monte-Carlo RMSE engine.

The estimator maximizes the direct-only matched projection
|tr(A^H(theta') Y)|^2 on the compressed statistic; under multipath data it
converges to the pseudo-true angle, which is exactly what the bias term of
the bound predicts.  Trials are seeded individually from
(base_seed, scene index, trial index), so results do not depend on
execution order, chunking or worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .arrays import ArrayGeometry, virtual_hpbw
from .bounds import _BLOCK, _argmax_projection
from .scene import MultipathScene, compressed_mean, multipath_free

_TRIAL_CHUNK = _BLOCK      # one argmax block per chunk of trials


@dataclass(frozen=True)
class EstimatorConfig:
    """Search settings for the grid-then-refine DOA estimator."""

    span: tuple[float, float] = (-math.pi / 3, math.pi / 3)
    coarse_step: float | None = None   # None: virtual-array beamwidth / 20
    refine_tol: float = 1e-6

    def __post_init__(self):
        lo, hi = self.span
        if not (-math.pi / 2 < lo < hi < math.pi / 2):
            raise ValueError("span must be a non-empty interval inside (-pi/2, pi/2)")
        if self.coarse_step is not None:
            if self.coarse_step <= 0.0 or self.refine_tol >= self.coarse_step:
                raise ValueError("require coarse_step > refine_tol > 0")
        if self.refine_tol <= 0.0:
            raise ValueError("refine_tol must be positive")


@dataclass(frozen=True)
class RmseCurve:
    """Monte-Carlo RMSE/bias of an estimator versus a swept parameter."""

    sweep_name: str
    sweep_values: tuple
    rmse_rad: tuple
    bias_rad: tuple
    trials: int
    base_seed: int


class RmsePoint(NamedTuple):
    rmse_rad: float
    bias_rad: float
    trials: int
    seed: int


def _resolve_cfg(geom: ArrayGeometry, cfg: EstimatorConfig | None) -> EstimatorConfig:
    if cfg is None:
        cfg = EstimatorConfig()
    if cfg.coarse_step is None:
        cfg = EstimatorConfig(span=cfg.span, coarse_step=virtual_hpbw(geom) / 20.0,
                              refine_tol=cfg.refine_tol)
    return cfg


def mml_doa(y: np.ndarray, geom: ArrayGeometry,
            cfg: EstimatorConfig | None = None) -> float:
    """DOA estimate maximizing the direct-only projection of one statistic."""
    if y.shape != (geom.m_r, geom.m_t):
        raise ValueError(f"statistic shape {y.shape} does not match geometry "
                         f"({geom.m_r}, {geom.m_t})")
    cfg = _resolve_cfg(geom, cfg)
    return float(_argmax_projection(y[None, :, :], geom, cfg)[0])


def _trial_rng(base_seed: int, scene_index: int, trial_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence((int(base_seed), int(scene_index), int(trial_index)))
    return np.random.Generator(np.random.PCG64(ss))


def _scene_errors(scene: MultipathScene, cfg: EstimatorConfig, trials: int,
                  base_seed: int, scene_index: int) -> np.ndarray:
    mean = compressed_mean(scene)
    scale = math.sqrt(scene.k_pulses * scene.e_p * scene.sigma_w2 / 2.0)
    errors = np.empty(trials)
    for start in range(0, trials, _TRIAL_CHUNK):
        stop = min(start + _TRIAL_CHUNK, trials)
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
                     cfg: EstimatorConfig | None, trials: int, base_seed: int,
                     sweep_name: str = "scene_index",
                     sweep_values: Sequence | None = None,
                     workers: int = 1) -> RmseCurve:
    """RMSE and mean bias of the misspecified estimator per swept scene.

    Per-trial seeds derive from (base_seed, scene index, trial index); the
    reduction uses exact compensated summation, so the curve is identical
    for any worker count or execution order.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    scenes = list(scene_sweep)
    if sweep_values is None:
        sweep_values = list(range(len(scenes)))
    if len(sweep_values) != len(scenes):
        raise ValueError("sweep_values length must match the scene sweep")

    def run_one(idx: int) -> tuple[float, float]:
        cfg_i = _resolve_cfg(scenes[idx].geom, cfg)
        return _reduce(_scene_errors(scenes[idx], cfg_i, trials, base_seed, idx))

    if workers > 1 and len(scenes) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_one, range(len(scenes))))
    else:
        results = [run_one(i) for i in range(len(scenes))]
    rmse = tuple(r for r, _ in results)
    bias = tuple(b for _, b in results)
    return RmseCurve(sweep_name=sweep_name, sweep_values=tuple(sweep_values),
                     rmse_rad=rmse, bias_rad=bias, trials=trials,
                     base_seed=base_seed)


def ml_reference_doa(scene: MultipathScene, cfg: EstimatorConfig | None,
                     trials: int, seed: int) -> RmsePoint:
    """RMSE of the same estimator on matched (multipath-free) data."""
    clean = multipath_free(scene)
    cfg_r = _resolve_cfg(clean.geom, cfg)
    rmse, bias = _reduce(_scene_errors(clean, cfg_r, trials, seed, 0))
    return RmsePoint(rmse_rad=rmse, bias_rad=bias, trials=trials, seed=seed)
