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
from typing import Sequence

import numpy as np

from .arrays import ArrayGeometry
from .bounds import SearchConfig, _argmax_projection, _resolve_search
from .scene import MultipathScene, synthesize_compressed

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
    cfg = _resolve_search(geom, cfg or MML_SEARCH)
    return float(_argmax_projection(y[None, :, :], geom, cfg)[0])


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
    results = []
    pending = []        # (scene, statistics) pieces on one geometry
    done = []           # error pieces of the scene being completed
    room = _MC_CHUNK    # statistics the pending call can still take

    def flush():
        nonlocal room
        geom = pending[0][0].geom
        est = _argmax_projection(np.concatenate([y for _, y in pending]), geom,
                                 _resolve_search(geom, cfg or MML_SEARCH))
        start = 0
        for scene, y in pending:
            done.append(est[start:start + len(y)] - scene.theta)
            start += len(y)
            if sum(map(len, done)) == trials:
                results.append(_reduce(np.concatenate(done)))
                done.clear()
        pending.clear()
        room = _MC_CHUNK

    for idx, scene in enumerate(scene_sweep):
        if pending and scene.geom.key() != pending[0][0].geom.key():
            flush()
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((int(base_seed), idx))))
        left = trials
        while left:
            take = min(left, room)
            pending.append((scene, synthesize_compressed(scene, rng, take)))
            left -= take
            room -= take
            if not room:
                flush()
    if pending:
        flush()
    return RmseCurve(rmse_rad=tuple(r for r, _ in results),
                     bias_rad=tuple(b for _, b in results), trials=trials,
                     base_seed=base_seed)
