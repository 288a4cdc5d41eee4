"""Class queries updated by masked multi-head cross-attention over tokens.

One learnable d-vector per object category attends over the concatenated
multi-scale feature tokens, restricted by that category's gating mask:
keys are formed from token + positional encoding, values from the token
content alone, and the update is residual,

    Q_out = Q + MultiHead(query=Q, key=T + P, value=T, mask per category).

Masks and tokens must have equal (h, w) level shapes. Keys and values are
projected once per token sequence, and only for the tokens that some
category attends; the logits of all categories and heads then go through
one masked softmax, in which masked positions get weight exactly 0. A
category with no attendable tokens passes through unchanged (bit for
bit). Queries are plain (C, d) float arrays; projection parameters are
four bias-free d x d matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .object_gating import GatingMaskSet
from .tensor_core import DTYPE, _channel_blocks, require_finite


@dataclass
class TokenSequence:
    """Multi-scale feature tokens with sine positional encodings.

    ``level_shapes`` holds each level's positive (h, w), in token order;
    together they hold all N = sum(h * w) tokens.
    """

    tokens: np.ndarray  # (N, d)
    positions: np.ndarray  # (N, d)
    level_shapes: tuple[tuple[int, int], ...]

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=DTYPE)
        self.positions = np.asarray(self.positions, dtype=DTYPE)
        if self.tokens.shape != self.positions.shape or self.tokens.ndim != 2:
            raise ValueError(
                f"tokens {self.tokens.shape} and positions {self.positions.shape} "
                "must share an (N, d) shape"
            )
        require_finite(self.tokens, "tokens")
        require_finite(self.positions, "positions")
        shapes = self.level_shapes = tuple(map(tuple, self.level_shapes))
        if not shapes or any(h < 1 or w < 1 for h, w in shapes):
            raise ValueError(f"level shapes must be non-empty and positive, got {shapes}")
        if sum(h * w for h, w in shapes) != len(self.tokens):
            raise ValueError(f"level shapes {shapes} do not hold {len(self.tokens)} tokens")


@dataclass
class AttentionParams:
    """Bias-free projection matrices for one cross-attention layer."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray

    def __post_init__(self):
        d = np.shape(self.w_q)[0] if np.ndim(self.w_q) else 0
        for name in ("w_q", "w_k", "w_v", "w_o"):
            m = np.asarray(getattr(self, name), dtype=DTYPE)
            if m.shape != (d, d):
                raise ValueError(f"{name} must be square ({d}, {d}), got {m.shape}")
            require_finite(m, name)
            setattr(self, name, m)

    @property
    def dim(self) -> int:
        return self.w_q.shape[0]

    @classmethod
    def init_random(cls, d: int, rng: np.random.Generator) -> "AttentionParams":
        """Seeded uniform init on (-1/sqrt(d), 1/sqrt(d))."""
        bound = 1.0 / math.sqrt(d)
        mats = [rng.uniform(-bound, bound, size=(d, d)) for _ in range(4)]
        return cls(*mats)


def sine_positions(level_shapes: list[tuple[int, int]], d: int) -> np.ndarray:
    """Deterministic 2-D sine/cosine encodings for every level, concatenated.

    Half of the d dimensions encode the row coordinate, half the column,
    each as interleaved sin/cos over a geometric frequency ladder
    (base 10000). Rows depend only on (h, w, level shape), never on content.
    """
    if d % 2 != 0:
        raise ValueError(f"encoding dim must be even, got {d}")
    if not level_shapes:
        raise ValueError("level_shapes must be non-empty")
    for h, w in level_shapes:
        if h < 1 or w < 1:
            raise ValueError(f"invalid level shape ({h}, {w})")
    half = d // 2
    dim_t = 10000.0 ** (2.0 * (np.arange(half) // 2) / half)
    out = np.empty((sum(h * w for h, w in level_shapes), d), dtype=DTYPE)
    start = 0
    for h, w in level_shapes:
        ys = (np.arange(h, dtype=DTYPE) + 0.5) / h * (2.0 * math.pi)
        xs = (np.arange(w, dtype=DTYPE) + 0.5) / w * (2.0 * math.pi)
        grid = out[start : start + h * w].reshape(h, w, d)  # row-major: h varies slowly
        grid[:, :, :half] = _interleaved(ys[:, None] / dim_t[None, :])[:, None, :]
        grid[:, :, half:] = _interleaved(xs[:, None] / dim_t[None, :])[None, :, :]
        start += h * w
    return out


def _interleaved(angles: np.ndarray) -> np.ndarray:
    enc = np.empty_like(angles)
    enc[:, 0::2] = np.sin(angles[:, 0::2])
    enc[:, 1::2] = np.cos(angles[:, 1::2])
    return enc


def tokens_from_pyramid(pyramid: list[np.ndarray]) -> TokenSequence:
    """Flatten a single-sample pyramid into a token sequence with encodings.

    Each level must be (1, d, H, W) with a common channel count d, which
    becomes the token dimension; tokens run row-major within a level.
    """
    flats, shapes = [], []
    d = None
    for level in pyramid:
        level = np.asarray(level, dtype=DTYPE)
        if level.ndim != 4 or level.shape[0] != 1:
            raise ValueError(f"expected (1, C, H, W) level, got {level.shape}")
        _, c, h, w = level.shape
        if d is None:
            d = c
        elif c != d:
            raise ValueError(f"channel counts differ across levels: {d} vs {c}")
        flats.append(level[0].reshape(c, h * w).T)  # (H*W, d)
        shapes.append((h, w))
    return TokenSequence(np.concatenate(flats, axis=0), sine_positions(shapes, d), shapes)


class KeyValues(NamedTuple):
    """Key and value projections of the tokens that some category attends, and
    the :func:`_layout` of the ``masks`` they were projected for. ``index`` holds
    the attended tokens in ascending order; row i of ``keys`` and ``values``
    belongs to token ``index[i]``."""

    index: np.ndarray  # (M,) int
    keys: np.ndarray  # (M, d)
    values: np.ndarray  # (M, d)
    masks: GatingMaskSet
    layout: tuple[np.ndarray, ...]


def project_keys_values(
    seq: TokenSequence, masks: GatingMaskSet, params: AttentionParams, out: KeyValues | None = None
) -> KeyValues:
    """Project keys (token + position) and values (token) once for all categories.

    Only tokens attended by at least one category are read. ``out``, a result
    of this function for the same ``masks`` (the other sequence of a pair),
    lends its index, layout and arrays; its keys and values are overwritten.
    """
    token_masks = _token_masks(masks, seq)
    if out is None:
        index = np.flatnonzero(token_masks.any(axis=0))
        shape = (len(index), seq.tokens.shape[1])
        out = KeyValues(index, np.empty(shape), np.empty(shape), masks, _layout(token_masks, index))
    elif out.masks is not masks:
        raise ValueError("out was projected for other masks")
    index = out.index
    attended = seq.tokens[index]
    np.matmul(attended, params.w_v, out=out.values)
    for rows in _channel_blocks(len(index), attended.shape[1]):  # no (M, d) gather of positions
        attended[rows] += seq.positions[index[rows]]
    np.matmul(attended, params.w_k, out=out.keys)
    return out


def _layout(token_masks: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, ...]:
    """The categories with an attendable token among the ``index`` tokens (R
    rows), the flat positions of their attendable tokens in an (R, M) array,
    each row's count of them and the start of each row's run."""
    live = token_masks[:, index]  # (C, M)
    if live.sum() != token_masks.sum():
        raise ValueError("projections do not cover every attended token")
    rows = np.flatnonzero(live.any(axis=1))
    live = live[rows]  # (R, M), every row has an attendable token
    counts = live.sum(axis=1)
    return rows, np.flatnonzero(live), counts, np.cumsum(counts) - counts


def _token_masks(masks: GatingMaskSet, seq: TokenSequence) -> np.ndarray:
    """The masks' (C, N) token masks, checked against the sequence's layout:
    their level shapes must equal ``seq.level_shapes``."""
    if masks.level_shapes != seq.level_shapes:
        raise ValueError(
            f"masks aligned to levels {masks.level_shapes} do not match "
            f"token levels {seq.level_shapes}"
        )
    n_tokens = len(seq.tokens)
    if masks.token_masks.shape[1:] != (n_tokens,):
        raise ValueError(
            f"token masks {masks.token_masks.shape} do not match {n_tokens} tokens"
        )
    return masks.token_masks


def cross_attend(
    queries: np.ndarray,
    seq: TokenSequence,
    masks: GatingMaskSet,
    params: AttentionParams,
    heads: int,
    projections: KeyValues | None = None,
) -> np.ndarray:
    """One residual masked cross-attention update of the (C, d) query matrix.

    Category c attends only over tokens with ``masks.token_masks[c]`` True;
    rows with no attendable token are returned unchanged. Keys and values
    are projected once for the tokens any category attends (or taken from
    ``projections``, the :func:`project_keys_values` result for the same
    sequence, masks and parameters, with its layout if projected for this
    ``masks`` object, unchanged since); then the logits of all categories and
    heads go through one masked softmax. It gathers the attendable logits,
    scales, shifts and exponentiates them alone, and scatters them into a
    zeroed array, so a masked logit is never read.
    """
    q = np.asarray(queries, dtype=DTYPE)
    if q.ndim != 2:
        raise ValueError(f"queries must be (C, d), got {q.shape}")
    c_count, d = q.shape
    if d != params.dim:
        raise ValueError(f"query dim {d} does not match parameter dim {params.dim}")
    if heads < 1 or d % heads != 0:
        raise ValueError(f"heads={heads} must divide d={d}")
    token_masks = _token_masks(masks, seq)
    if token_masks.shape[0] != c_count:
        raise ValueError(f"token masks {token_masks.shape} do not match {c_count} categories")
    if projections is None:
        projections = project_keys_values(seq, masks, params)
    index, keys, values, kv_masks, layout = projections
    rows, attendable, counts, starts = layout if kv_masks is masks else _layout(token_masks, index)
    out = q.copy()
    if rows.size == 0:
        return out
    d_head = d // heads
    m = len(index)

    # (H, R, d_head) @ (H, d_head, M) -> logits (H, R, M)
    qh = (q[rows] @ params.w_q).reshape(len(rows), heads, d_head).transpose(1, 0, 2)
    logits = qh @ keys.reshape(m, heads, d_head).transpose(1, 2, 0)
    # the softmax over the attendable logits alone, gathered row by row
    by_head = logits.reshape(heads, -1)  # (H, R * M) view
    lv = by_head.take(attendable, axis=1)  # (H, L)
    lv *= 1.0 / math.sqrt(d_head)
    require_finite(lv, "attention logits")
    lv -= np.repeat(np.maximum.reduceat(lv, starts, axis=1), counts, axis=1)
    np.exp(lv, out=lv)
    logits.fill(0.0)
    by_head[:, attendable] = lv
    logits /= logits.sum(axis=2, keepdims=True)  # now the attention weights

    ctx = logits @ values.reshape(m, heads, d_head).transpose(1, 0, 2)  # (H, R, d_head)
    out[rows] += ctx.transpose(1, 0, 2).reshape(len(rows), d) @ params.w_o
    return out


def run_encoder_side(
    q0: np.ndarray,
    seq: TokenSequence,
    masks: GatingMaskSet,
    params: AttentionParams,
    heads: int,
    blocks: int,
    projections: KeyValues | None = None,
) -> np.ndarray:
    """Apply cross_attend ``blocks`` times over ``seq``, carrying queries across.

    All blocks share ``params``, so keys and values are projected once (or
    taken from ``projections``, as in :func:`cross_attend`).
    """
    if blocks < 1:
        raise ValueError(f"need at least one encoder block, got {blocks}")
    kv = project_keys_values(seq, masks, params) if projections is None else projections
    q = np.asarray(q0, dtype=DTYPE)
    for _ in range(blocks):
        q = cross_attend(q, seq, masks, params, heads, projections=kv)
    return q


def init_class_queries(num_categories: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded uniform query init on (-1/sqrt(d), 1/sqrt(d))."""
    bound = 1.0 / math.sqrt(d)
    return rng.uniform(-bound, bound, size=(num_categories, d))
