"""Dense-array substrate shared by all other modules.

Everything is computed in double precision on row-major (C-contiguous)
numpy arrays. Feature maps are always laid out as (B, C, H, W); one
canonical layout avoids transpose bugs across modules. Values returned by
the public helpers are finite whenever the inputs are finite.
"""

from __future__ import annotations

import numpy as np

DTYPE = np.float64


def require_finite(arr: np.ndarray, what: str = "array") -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")


def check_feature_map(f: np.ndarray) -> np.ndarray:
    """Validate a (B, C, H, W) feature map; returns it as float64."""
    f = np.asarray(f, dtype=DTYPE)
    if f.ndim != 4:
        raise ValueError(f"feature map must be 4-D (B, C, H, W), got shape {f.shape}")
    b, c, h, w = f.shape
    if b < 1 or c < 1:
        raise ValueError(f"feature map needs B >= 1 and C >= 1, got shape {f.shape}")
    if h * w < 1:
        raise ValueError(f"feature map has zero-sized spatial extent: {f.shape}")
    require_finite(f, "feature map")
    return f


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

