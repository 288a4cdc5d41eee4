"""Rectify feature-map styles toward the bank's prototype manifold.

For each sample one row of bank distances (kept on the result as
``distances``, measured against the bank's (K, 2C) prototype matrix, which
is copied once per call) is turned into softmax weights, one product
``w @ bank.vectors()`` forms both targets (mu', sigma'), and the map is
remapped per channel by the affine instance renormalization (AdaIN)
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

from .errors import StateError
from .style_memory_bank import StyleMemoryBank
from .style_statistics import EPSILON, ChannelStats, compute_stats, sq_distances, style_vector
from .tensor_core import (
    _channel_blocks,
    _require_finite_block,
    check_feature_map,
    require_finite,
    softmax,
)

WEIGHTINGS = ("neg-distance", "raw-distance")


@dataclass
class ProjectionResult:
    """Rectified sample plus the target statistics, weights and bank distances behind it."""

    rectified: np.ndarray  # (1, C, H, W)
    target_mean: np.ndarray  # (C,)
    target_std: np.ndarray  # (C,)
    weights: np.ndarray  # (K,)
    distances: np.ndarray  # (K,)


def projection_weights(
    distances: np.ndarray,
    weighting: str = "neg-distance",
    temperature: float = 1.0,
) -> np.ndarray:
    if weighting not in WEIGHTINGS:
        raise ValueError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")
    if not temperature > 0.0:
        raise ValueError("softmax temperature must be positive")
    distances = np.asarray(distances, dtype=float)
    with np.errstate(over="ignore"):  # a tiny temperature overflows; reported below
        logits = distances / temperature
    if not np.isfinite(logits).all() and np.isfinite(distances).all():
        raise ValueError(
            f"softmax_temperature (--softmax-temperature) {temperature!r} is too small for "
            "these distances: distance / temperature overflows float64"
        )
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

    A non-finite map is the first fault reported, before a statistics count,
    bank or weighting error; the remap pass proves a finite one finite.
    """
    f = check_feature_map(f)
    if stats is None:
        stats = compute_stats(f)
    try:
        if len(stats) != f.shape[0]:
            raise ValueError(f"{len(stats)} statistics for a batch of {f.shape[0]}")
        vectors = bank.vectors()
        if vectors.shape[1] != 2 * f.shape[1]:
            raise ValueError(
                f"channel mismatch: bank has C={bank.channels}, feature map has C={f.shape[1]}"
            )
        targets = []  # (distances, weights, target mean, target std) per sample
        for s in stats:
            d = sq_distances(style_vector(s)[None], vectors)[0]
            w = projection_weights(d, weighting, temperature)
            targets.append((d, w, *np.split(w @ vectors, 2)))
    except (ValueError, StateError):
        require_finite(f, "feature map")
        raise
    results = []
    for b, (s, (d, w, target_mean, target_std)) in enumerate(zip(stats, targets)):
        scale = target_std / s.std
        shift = target_mean - s.mean * scale
        rectified = _remap(f[b], scale, shift)
        results.append(ProjectionResult(rectified, target_mean, target_std, w, d))
    return results


def _remap(sample: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """``sample * scale + shift`` per channel of one (C, H, W) sample, as (1, C, H, W).

    One pass over blocks of channel rows, written straight into the output;
    each output block's sum proves its input block finite.
    """
    c, h, w = sample.shape
    out = np.empty((1, c, h, w))
    src = sample.reshape(c, h * w)
    dst = out.reshape(c, h * w)
    for sl in _channel_blocks(c, h * w):
        block = dst[sl]
        np.multiply(src[sl], scale[sl, None], out=block)
        block += shift[sl, None]
        _require_finite_block(block.sum(), src[sl])
    return out


def project_pyramid(
    banks: list[StyleMemoryBank],
    pyramid: list[np.ndarray],
    weighting: str = "neg-distance",
    temperature: float = 1.0,
    epsilon: float = EPSILON,
) -> list[list[ProjectionResult]]:
    """Independently project every pyramid level with its own bank.

    Returns a list over levels (order preserved) of per-sample results.
    """
    if len(banks) != len(pyramid):
        raise ValueError(f"{len(banks)} banks for {len(pyramid)} pyramid levels")
    if not pyramid:
        raise ValueError("empty pyramid")
    return [
        project(bank, level, weighting, temperature, compute_stats(level, epsilon))
        for bank, level in zip(banks, pyramid)
    ]


def rectified_stats(result: ProjectionResult) -> ChannelStats:
    """Re-measure the output statistics of a projection (convenience)."""
    return compute_stats(result.rectified)[0]
