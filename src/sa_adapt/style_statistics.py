"""Channel-wise style statistics of feature maps and the distance between styles.

The "style" of one sample is the pair of per-channel first and second
moments (mean, std) of its feature map, computed over the spatial extent.
The distance between two styles is the squared 2-Wasserstein distance
between diagonal Gaussians with those moments, which reduces to
``sum((mu - p_mu)^2) + sum((sigma - p_sigma)^2)``. ``ChannelStats`` is the
one (mean, std) record: the memory bank's prototypes subclass it, so a
measured style and a stored one share validation and :func:`style_vector`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import (
    DTYPE,
    _channel_blocks,
    _require_finite_block,
    check_feature_map,
    require_finite,
)

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
        if self.mean.ndim != 1 or self.std.ndim != 1 or self.mean.size == 0:
            raise ValueError("mean and std must be non-empty 1-D per-channel vectors")
        if self.mean.shape != self.std.shape:
            raise ValueError(
                f"mean/std channel counts disagree: {self.mean.shape} vs {self.std.shape}"
            )
        check_moment("mean", self.mean)
        check_moment("std", self.std)

    @property
    def channels(self) -> int:
        return self.mean.shape[0]


def check_moment(name: str, values: np.ndarray) -> None:
    """Raise ValueError unless ``values``, channel ``mean``s or ``std``s, are
    finite, and stds strictly positive."""
    require_finite(values, f"channel {name}s")
    if name == "std" and np.any(values <= 0.0):
        raise ValueError("channel stds must be strictly positive")


def compute_stats(f: np.ndarray, epsilon: float = EPSILON) -> list[ChannelStats]:
    """Per-sample channel statistics of a (B, C, H, W) feature map.

    mean[b, c] is the spatial average; std[b, c] = sqrt(spatial variance
    + epsilon), so a constant channel yields std = sqrt(epsilon). Returns
    one ChannelStats per batch sample.

    One pass over blocks of channel rows: per block, the row sums give the
    means, ``block - mean`` is written into one reused buffer and squared in
    place, and its row sums give the variances. Every channel is reduced
    over its own contiguous H*W run, as ``f.mean(axis=(2, 3))`` and
    ``np.mean((f - mean) ** 2, axis=(2, 3))`` reduce it, so the bits are
    theirs. The first row sums prove each block finite; one check of all
    (B, C) means and stds stands in for the records' own checks.
    """
    f = check_feature_map(f)
    b, c, h, w = f.shape
    rows = f.reshape(b * c, h * w)
    blocks = _channel_blocks(b * c, h * w)
    mean = np.empty(b * c)
    var = np.empty(b * c)
    buf = np.empty_like(rows[blocks[0]])
    for sl in blocks:
        block = rows[sl]
        total = block.sum(axis=1)
        _require_finite_block(total, block)
        np.divide(total, h * w, out=mean[sl])
        dev = buf[: block.shape[0]]
        np.subtract(block, mean[sl, None], out=dev)
        np.multiply(dev, dev, out=dev)
        np.divide(dev.sum(axis=1), h * w, out=var[sl])
    mean = mean.reshape(b, c)
    std = np.sqrt(var + epsilon).reshape(b, c)
    if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0.0).all()):
        return [ChannelStats(m, sd) for m, sd in zip(mean, std)]  # raises the first fault
    records = [object.__new__(ChannelStats) for _ in range(b)]  # valid, as checked above
    for s, m, sd in zip(records, mean, std):
        s.mean, s.std = m, sd
    return records


def style_vector(s: ChannelStats) -> np.ndarray:
    """Concatenated ``[mean, std]``, so squared euclidean distance is style distance."""
    return np.concatenate([s.mean, s.std])


def sq_distances(a, b) -> np.ndarray:
    """(n, m) squared euclidean distances between the rows of (n, D) ``a`` and
    (m, D) ``b``; each is a sum of squares, so never negative."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"need (n, D) and (m, D) row sets, got {a.shape} and {b.shape}")
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


def style_distance(s: ChannelStats, p: ChannelStats) -> float:
    """Squared 2-Wasserstein distance between two diagonal-Gaussian styles.

    Either may be a stored prototype, which is a ChannelStats. Non-negative,
    symmetric, and zero exactly when the statistics coincide.
    """
    return float(sq_distances(style_vector(s)[None], style_vector(p)[None])[0, 0])
