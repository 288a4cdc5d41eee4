"""Channel-wise style statistics of feature maps and the distance between styles.

The "style" of one sample is the pair of per-channel first and second
moments (mean, std) of its feature map, computed over the spatial extent.
The distance between two styles is the squared 2-Wasserstein distance
between diagonal Gaussians with those moments, which reduces to
``sum((mu - p_mu)^2) + sum((sigma - p_sigma)^2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import DTYPE, check_feature_map, require_finite

# Variance floor added under the square root; keeps std >= sqrt(EPSILON)
# so later divisions never hit zero.
EPSILON = 1e-6


@dataclass
class ChannelStats:
    """Per-channel (mean, std) pair for one sample; std is strictly positive."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=DTYPE)
        self.std = np.asarray(self.std, dtype=DTYPE)
        if self.mean.ndim != 1 or self.std.ndim != 1:
            raise ValueError("mean and std must be 1-D per-channel vectors")
        if self.mean.shape != self.std.shape:
            raise ValueError(
                f"mean/std channel counts disagree: {self.mean.shape} vs {self.std.shape}"
            )
        require_finite(self.mean, "channel means")
        require_finite(self.std, "channel stds")
        if np.any(self.std <= 0.0):
            raise ValueError("channel stds must be strictly positive")

    @property
    def channels(self) -> int:
        return self.mean.shape[0]


def compute_stats(f: np.ndarray, epsilon: float = EPSILON) -> list[ChannelStats]:
    """Per-sample channel statistics of a (B, C, H, W) feature map.

    mean[b, c] is the spatial average; std[b, c] = sqrt(spatial variance
    + epsilon), so a constant channel yields std = sqrt(epsilon).

    Returns one ChannelStats per batch sample.
    """
    f = check_feature_map(f)
    mean = f.mean(axis=(2, 3))
    var = np.mean((f - mean[:, :, None, None]) ** 2, axis=(2, 3))
    std = np.sqrt(var + epsilon)
    return [ChannelStats(mean[b], std[b]) for b in range(f.shape[0])]


def style_vector(s) -> np.ndarray:
    """Concatenated ``[mean, std]`` of a ChannelStats or of a stored prototype
    (``p_mean``/``p_std``), so squared euclidean distance is style distance."""
    if isinstance(s, ChannelStats):
        return np.concatenate([s.mean, s.std])
    return np.concatenate([s.p_mean, s.p_std])


def sq_distances(a, b) -> np.ndarray:
    """(n, m) squared euclidean distances between the rows of (n, D) ``a`` and
    (m, D) ``b``; each is a sum of squares, so never negative."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"need (n, D) and (m, D) row sets, got {a.shape} and {b.shape}")
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


def style_distance(s: ChannelStats, p) -> float:
    """Squared 2-Wasserstein distance between two diagonal-Gaussian styles.

    ``p`` may be another ChannelStats or a stored prototype (see
    :func:`style_vector`). Non-negative, symmetric, and zero exactly when
    the statistics coincide.
    """
    return float(sq_distances(style_vector(s)[None], style_vector(p)[None])[0, 0])
