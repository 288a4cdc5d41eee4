"""Dense-array substrate shared by all other modules.

Everything is computed in double precision on row-major (C-contiguous)
numpy arrays. Feature maps are always laid out as (B, C, H, W); one
canonical layout avoids transpose bugs across modules. Values returned by
the public helpers are finite whenever the inputs are finite.

Passes over a whole feature map (statistics, remap) walk it in blocks of
whole channel rows from :func:`_channel_blocks`, so each block and its
scratch stay in L2 between the reads of one pass, and prove the map finite
from their own results rather than from a separate scan. Over rows of at
least ``_ROW_BUFFER`` values a pass runs under :func:`_row_buffer`, which
holds numpy's ufunc buffer at ``_ROW_BUFFER`` values, no longer than a row:
numpy then feeds the stride-0 operand of each per-channel ``(rows, 1)``
broadcast nearly at the speed of a scalar (``compute_stats`` and the remap
of one C=256 level, in-process medians of four runs: 25-38% less time at
64x64, 18-33% at 32x32, -25% to +4% at 16x16). The bits are the same: each
value still gets one IEEE multiply, add or subtract, and a row sum is the
same under any buffer size (checked at 1,722 cases of shape, scale and
buffer size, rows of 240 to 20,000 values).
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

import numpy as np

DTYPE = np.float64

# Bytes of one block of channel rows in a blocked pass over a feature map:
# a block and a scratch buffer of the same size fit in L2 together.
_BLOCK_BYTES = 512 << 10
# Rows of at least this many values are passed under a ufunc buffer of this
# many values (see _row_buffer). Under numpy's default buffer of 8192 values,
# ``block * scale[:, None]`` over a (16, 4096) block cost 1.32 ns a value
# against 0.37 with a scalar operand, and 0.42 under this buffer; over a
# (256, 256) block, 1.19 against 0.28 and 0.58 (numpy 2.4.6, 2 vCPUs, best of
# 9). Over a (256, 64) block it rose 1.30 -> 1.63 ns under this buffer, so
# shorter rows keep the caller's.
_ROW_BUFFER = 256


def require_finite(arr: np.ndarray, what: str = "array") -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")


def check_feature_map(f: np.ndarray) -> np.ndarray:
    """Validate the layout of a (B, C, H, W) feature map; returns it as float64.

    Finiteness is left to the callers' pass over the map (see
    :func:`_channel_blocks`).
    """
    f = np.asarray(f, dtype=DTYPE)
    if f.ndim != 4:
        raise ValueError(f"feature map must be 4-D (B, C, H, W), got shape {f.shape}")
    b, c, h, w = f.shape
    if b < 1 or c < 1:
        raise ValueError(f"feature map needs B >= 1 and C >= 1, got shape {f.shape}")
    if h * w < 1:
        raise ValueError(f"feature map has zero-sized spatial extent: {f.shape}")
    return f


def _channel_blocks(rows: int, row_len: int) -> list[slice]:
    """Consecutive slices over ``rows`` rows of ``row_len`` float64 values,
    each at most ``_BLOCK_BYTES`` or one row; the first is the largest."""
    step = max(1, _BLOCK_BYTES // (row_len * np.dtype(DTYPE).itemsize))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _row_buffer(row_len: int):
    """A context that holds numpy's ufunc buffer at ``_ROW_BUFFER`` values while
    it runs, if rows of ``row_len`` values are at least that long; the caller's
    buffer size is restored however it ends. Shorter rows get a bare
    ``nullcontext``, which costs them well under a microsecond a pass."""
    return _short_buffer() if row_len >= _ROW_BUFFER else nullcontext()


@contextmanager
def _short_buffer():
    old = np.setbufsize(_ROW_BUFFER)
    try:
        yield
    finally:
        np.setbufsize(old)


def _require_finite_block(total: np.ndarray, block: np.ndarray) -> None:
    """Raise the feature-map error if ``block`` holds a non-finite value.

    ``total`` holds sums over terms that are non-finite wherever an entry of
    ``block`` is: the entries themselves, or ``block * scale + shift``. A NaN
    or infinite term makes its sum non-finite, so finite totals prove the
    block finite and nothing is scanned. Otherwise the block is scanned, and
    a finite block whose sum overflowed passes.
    """
    if not np.isfinite(total).all():
        require_finite(block, "feature map")


def softmax(x, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis`` (max-subtraction).

    Outputs along the axis sum to 1, each lies in (0, 1], and the map is
    order-preserving and invariant to adding a constant along the axis.
    """
    x = np.asarray(x, dtype=DTYPE)
    if x.size == 0 or x.shape[axis] == 0:
        raise ValueError("softmax of an empty vector is undefined")
    require_finite(x, "softmax input")
    with np.errstate(over="ignore"):  # huge finite gaps saturate to -inf, exp -> 0
        shifted = x - np.max(x, axis=axis, keepdims=True)
        e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)

