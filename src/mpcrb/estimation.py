"""Misspecified ML DOA estimator and the Monte-Carlo RMSE engine.

The estimator maximizes the direct-only matched projection
|tr(A^H(theta') Y)|^2 on the compressed statistic with the pseudo-true
angle's kernel (coarse grid, then safeguarded Newton); under multipath data
it converges to the pseudo-true angle, which is exactly what the bias term
of the bound predicts.  Scene ``i`` of a sweep draws its trials in order
from one noise stream keyed by the counter pair (base_seed, i), so trial
``t`` of scene ``i`` depends only on (base_seed, i, t): a run of n trials
is a prefix of a longer run, and results do not depend on how the trials
are packed into estimator calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

import numpy as np

from .arrays import ArrayGeometry
from .bounds import SearchConfig, _argmax_projection, _model
from .scene import MultipathScene

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
    """DOA estimate maximizing the direct-only projection of one statistic."""
    if y.shape != (geom.m_r, geom.m_t):
        raise ValueError(f"statistic shape {y.shape} does not match geometry "
                         f"({geom.m_r}, {geom.m_t})")
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

    Scene ``i`` draws its ``trials`` statistics in order from its own
    stream, seeded by (base_seed, i).  Consecutive scenes on one geometry
    are packed into estimator calls of at most ``_MC_CHUNK`` statistics, a
    scene split across calls where needed, so memory is bounded by the
    chunk.  Trial t of scene i is the same statistic whatever the packing,
    and the reduction uses exact compensated summation, so the curve does
    not depend on the chunk size and ``trials`` = n is a prefix of any
    larger count.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    results, done = [], []   # done: error pieces of the scene being completed
    pieces = []              # (theta, statistics) held in the chunk buffer

    def flush(geom, y):
        est = _argmax_projection(y, geom, cfg or MML_SEARCH)
        start = 0
        for theta, n in pieces:
            done.append(est[start:start + n] - theta)
            start += n
            if sum(map(len, done)) == trials:
                results.append(_reduce(np.concatenate(done)))
                done.clear()
        pieces.clear()

    for _, run in groupby(enumerate(scene_sweep), lambda t: t[1].geom.key()):
        indices, run = zip(*run)
        mod = _model(run)       # noise-free means K E_p (alpha_d A_d + alpha_i A_i)
        means = (np.array([sc.k_pulses * sc.e_p for sc in run])[:, None, None]
                 * (mod.alpha_d[:, None, None] * mod.A_d
                    + mod.alpha_i[:, None, None] * mod.A_i))
        buf = np.empty((min(_MC_CHUNK, trials * len(run)),) + means.shape[1:],
                       dtype=complex)
        fill = 0
        for idx, scene, mean in zip(indices, run, means):
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence((int(base_seed), idx))))
            scale = math.sqrt(scene.k_pulses * scene.e_p * scene.sigma_w2 / 2.0)
            left = trials
            while left:     # real, then imaginary parts, as synthesize_compressed
                take = min(left, len(buf) - fill)
                w = rng.standard_normal((take, 2) + mean.shape)
                buf[fill:fill + take] = mean + scale * (w[:, 0] + 1j * w[:, 1])
                pieces.append((scene.theta, take))
                fill, left = fill + take, left - take
                if fill == len(buf):
                    flush(mod.geom, buf)
                    fill = 0
        if fill:
            flush(mod.geom, buf[:fill])
    return RmseCurve(rmse_rad=tuple(r for r, _ in results),
                     bias_rad=tuple(b for _, b in results), trials=trials,
                     base_seed=base_seed)
