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
    _row_buffer,
    check_feature_map,
    require_finite,
)

# Variance floor added under the square root; keeps std >= sqrt(EPSILON)
# so later divisions never hit zero.
EPSILON = 1e-6


@dataclass(eq=False)
class ChannelStats:
    """Per-channel (mean, std) pair for one sample; std is strictly positive.
    Records compare by identity."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=DTYPE)
        self.std = np.asarray(self.std, dtype=DTYPE)
        checked_vector(self)

    @property
    def channels(self) -> int:
        return self.mean.shape[0]


def checked_vector(s: ChannelStats) -> np.ndarray:
    """``style_vector(s)`` in float64, raising the ValueError of the
    ``ChannelStats(s.mean, s.std)`` constructor for values assigned or changed
    in place since ``s`` was built."""
    mean = np.asarray(s.mean, dtype=DTYPE)
    std = np.asarray(s.std, dtype=DTYPE)
    if mean.ndim != 1 or std.ndim != 1 or mean.size == 0:
        raise ValueError("mean and std must be non-empty 1-D per-channel vectors")
    if mean.shape != std.shape:
        raise ValueError(f"mean/std channel counts disagree: {mean.shape} vs {std.shape}")
    v = np.concatenate([mean, std])
    if not (np.isfinite(v).all() and (std > 0.0).all()):  # one pass over a valid vector
        require_finite(mean, "channel means")
        require_finite(std, "channel stds")
        raise ValueError("channel stds must be strictly positive")
    return v


def compute_stats(f: np.ndarray, epsilon: float = EPSILON, out=None) -> list[ChannelStats]:
    """Per-sample channel statistics of a (B, C, H, W) feature map.

    mean[b, c] is the spatial average; std[b, c] = sqrt(spatial variance
    + epsilon), so a constant channel yields std = sqrt(epsilon). Returns
    one ChannelStats per batch sample. Row b of the (B, 2C) style matrix
    ``out`` (allocated when omitted) receives sample b's style vector
    ``[mean, std]``, and that record's ``mean`` and ``std`` are views of it.

    One pass over blocks of channel rows: per block, the row sums give the
    means, ``block - mean`` is written into one reused buffer and squared in
    place, and its row sums give the variances. Every channel is reduced
    over its own contiguous H*W run, as ``f.mean(axis=(2, 3))`` and
    ``np.mean((f - mean) ** 2, axis=(2, 3))`` reduce it, so the bits are
    theirs, whatever the batch size. The first row sums prove each block
    finite; one check of the style matrix stands in for the records' own
    checks.
    """
    return _moments(check_feature_map(f), epsilon, out=out)


def _moments(f, epsilon, scale=None, shift=None, out=None) -> list[ChannelStats]:
    """:func:`compute_stats` of a checked map ``f``, or, given (B*C,) ``scale`` and
    ``shift``, of ``f * scale + shift``, each block remapped into the buffer first."""
    b, c, h, w = f.shape
    rows = f.reshape(b * c, h * w)
    blocks = _channel_blocks(b * c, h * w)
    mean = np.empty(b * c)
    var = np.empty(b * c)
    buf = np.empty_like(rows[blocks[0]])
    with _row_buffer(h * w):
        for sl in blocks:
            block = rows[sl]
            dev = buf[: block.shape[0]]
            if scale is not None:
                block = np.multiply(block, scale[sl, None], out=dev)
                block += shift[sl, None]
            total = block.sum(axis=1)
            _require_finite_block(total, block)
            np.divide(total, h * w, out=mean[sl])
            np.subtract(block, mean[sl, None], out=dev)
            np.multiply(dev, dev, out=dev)
            np.divide(dev.sum(axis=1), h * w, out=var[sl])
    out = np.empty((b, 2 * c)) if out is None else out
    out[:, :c] = mean.reshape(b, c)
    var += epsilon
    np.sqrt(var.reshape(b, c), out=out[:, c:])
    if not (np.isfinite(out).all() and (out[:, c:] > 0.0).all()):
        return [ChannelStats(v[:c], v[c:]) for v in out]  # raises the first fault
    records = [object.__new__(ChannelStats) for _ in range(b)]  # valid, as checked above
    for s, v in zip(records, out):
        s.mean, s.std = v[:c], v[c:]
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
