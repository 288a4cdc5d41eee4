"""Rectify feature-map styles toward the bank's prototype manifold.

For each sample the bank distances are turned into softmax weights, one
product ``w @ bank.vectors()`` forms both targets (mu', sigma'), and the
map is remapped per channel by the affine instance renormalization (AdaIN)
``f * scale + shift`` with ``scale = sigma' / sigma`` and
``shift = mu' - mu * scale``. A caller that has measured (mu, sigma)
passes them as ``stats``. All K prototypes participate; no KNN pruning.

Weighting modes:
  * ``neg-distance`` (default): weights = softmax(-d / temperature), so the
    nearest prototypes dominate.
  * ``raw-distance``: weights = softmax(d / temperature), kept selectable
    for A/B comparison; it weights the farthest prototypes most and is
    rarely what you want.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .style_memory_bank import StyleMemoryBank
from .style_statistics import ChannelStats, compute_stats
from .tensor_core import check_feature_map, softmax

WEIGHTINGS = ("neg-distance", "raw-distance")


@dataclass
class ProjectionResult:
    """Rectified sample plus the target statistics and weights that produced it."""

    rectified: np.ndarray  # (1, C, H, W)
    target_mean: np.ndarray  # (C,)
    target_std: np.ndarray  # (C,)
    weights: np.ndarray  # (K,)


def projection_weights(
    distances: np.ndarray,
    weighting: str = "neg-distance",
    temperature: float = 1.0,
) -> np.ndarray:
    if weighting not in WEIGHTINGS:
        raise ValueError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")
    if not temperature > 0.0:
        raise ValueError("softmax temperature must be positive")
    logits = np.asarray(distances, dtype=float) / temperature
    if weighting == "neg-distance":
        logits = -logits
    return softmax(logits)


def project(
    bank: StyleMemoryBank,
    f: np.ndarray,
    weighting: str = "neg-distance",
    temperature: float = 1.0,
    stats: list[ChannelStats] | None = None,
) -> list[ProjectionResult]:
    """Project every sample of a (B, C, H, W) map onto the bank's style manifold.

    ``stats`` is :func:`compute_stats` of ``f``, measured here when omitted.
    Returns one ProjectionResult per batch sample; ``rectified`` keeps the
    (1, C, H, W) layout. The scale divides by the epsilon-floored std from
    the statistics pass, so it is always well defined.
    """
    f = check_feature_map(f)
    if stats is None:
        stats = compute_stats(f)
    if len(stats) != f.shape[0]:
        raise ValueError(f"{len(stats)} statistics for a batch of {f.shape[0]}")
    vectors = bank.vectors()
    results = []
    for b, s in enumerate(stats):
        w = projection_weights(bank.distances(s), weighting, temperature)
        target_mean, target_std = np.split(w @ vectors, 2)
        scale = target_std / s.std
        shift = target_mean - s.mean * scale
        rectified = f[b : b + 1] * scale[None, :, None, None] + shift[None, :, None, None]
        results.append(ProjectionResult(rectified, target_mean, target_std, w))
    return results


def project_pyramid(
    banks: list[StyleMemoryBank],
    pyramid: list[np.ndarray],
    weighting: str = "neg-distance",
    temperature: float = 1.0,
    epsilon: float | None = None,
) -> list[list[ProjectionResult]]:
    """Independently project every pyramid level with its own bank.

    Returns a list over levels (order preserved) of per-sample results.
    """
    if len(banks) != len(pyramid):
        raise ValueError(f"{len(banks)} banks for {len(pyramid)} pyramid levels")
    if not pyramid:
        raise ValueError("empty pyramid")
    kwargs = {} if epsilon is None else {"epsilon": epsilon}
    return [
        project(bank, level, weighting, temperature, compute_stats(level, **kwargs))
        for bank, level in zip(banks, pyramid)
    ]


def rectified_stats(result: ProjectionResult) -> ChannelStats:
    """Re-measure the output statistics of a projection (convenience)."""
    return compute_stats(result.rectified)[0]
