"""Class queries updated by masked multi-head cross-attention over tokens.

One learnable d-vector per object category attends over the concatenated
multi-scale feature tokens, restricted by that category's gating mask:
keys are formed from token + positional encoding, values from the token
content alone, and the update is residual,

    Q_out = Q + MultiHead(query=Q, key=T + P, value=T, mask per category).

Masks and tokens must have equal (h, w) level shapes. Keys and values are
projected once per token sequence, only for the tokens that some category
attends, and the projection spends the sequence; the logits of all
categories and heads then go through one masked softmax, in which masked
positions get weight exactly 0. A category with no attendable tokens
passes through unchanged (bit for bit). Queries are plain (C, d) float
arrays; projection parameters are four bias-free d x d matrices.
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
    together they hold all N = sum(h * w) tokens. ``positions`` is an explicit
    (N, d) array or a :class:`SineEncoding` of the same level shapes and d.
    A float64 ``tokens`` array is held, not copied, and :func:`project_keys_values`
    moves its rows and then sets ``tokens`` to None.
    """

    tokens: np.ndarray | None  # (N, d), None once projected
    positions: np.ndarray | SineEncoding  # (N, d)
    level_shapes: tuple[tuple[int, int], ...]

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=DTYPE)
        if not isinstance(self.positions, SineEncoding):  # an encoding checks its own tables
            self.positions = np.asarray(self.positions, dtype=DTYPE)
            require_finite(self.positions, "positions")
        if self.tokens.shape != self.positions.shape or self.tokens.ndim != 2:
            raise ValueError(
                f"tokens {self.tokens.shape} and positions {self.positions.shape} "
                "must share an (N, d) shape"
            )
        require_finite(self.tokens, "tokens")
        shapes = self.level_shapes = tuple(map(tuple, self.level_shapes))
        if not shapes or any(h < 1 or w < 1 for h, w in shapes):
            raise ValueError(f"level shapes must be non-empty and positive, got {shapes}")
        if sum(h * w for h, w in shapes) != len(self.tokens):
            raise ValueError(f"level shapes {shapes} do not hold {len(self.tokens)} tokens")
        if isinstance(self.positions, SineEncoding) and self.positions.level_shapes != shapes:
            raise ValueError(f"positions encode levels {self.positions.level_shapes}, not {shapes}")


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


class SineEncoding:
    """Deterministic 2-D sine/cosine encodings of a token layout, held as each
    level's (h, d/2) row table and (w, d/2) column table, not as (N, d) rows.

    Half of the d dimensions encode the row coordinate, half the column, each
    as interleaved sin/cos over a geometric frequency ladder (base 10000).
    Rows depend only on (h, w, level shape), never on content. ``enc[index]``
    gives the rows of the ``index`` tokens, ``np.asarray(enc)`` all N rows.
    """

    def __init__(self, level_shapes: list[tuple[int, int]], d: int):
        if d % 2 != 0:
            raise ValueError(f"encoding dim must be even, got {d}")
        if not level_shapes:
            raise ValueError("level_shapes must be non-empty")
        for h, w in level_shapes:
            if h < 1 or w < 1:
                raise ValueError(f"invalid level shape ({h}, {w})")
        shapes = self.level_shapes = tuple(map(tuple, level_shapes))
        dim_t = 10000.0 ** (2.0 * (np.arange(d // 2) // 2) / (d // 2))
        tables = []
        for sides in zip(*shapes):  # every level's h rows, then its w columns
            angles = [(np.arange(n, dtype=DTYPE) + 0.5) / n * (2.0 * math.pi) for n in sides]
            tables.append(np.concatenate([_interleaved(a[:, None] / dim_t) for a in angles]))
            require_finite(tables[-1], "positions")
        self.rows, self.cols = tables
        # each token's row of ``rows`` and of ``cols``, row-major within a level
        starts = np.cumsum([(0, 0), *shapes], axis=0)
        cells = [np.indices(s).reshape(2, -1) + at[:, None] for s, at in zip(shapes, starts)]
        self._row_of, self._col_of = np.hstack(cells)
        self.shape = (len(self._row_of), d)

    def __getitem__(self, index) -> np.ndarray:
        out = np.empty((len(index), self.shape[1]), dtype=DTYPE)
        half = self.shape[1] // 2
        out[:, :half] = self.rows[self._row_of[index]]
        out[:, half:] = self.cols[self._col_of[index]]
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self[np.arange(self.shape[0])], dtype=dtype)


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
    return TokenSequence(np.concatenate(flats, axis=0), SineEncoding(shapes, d), shapes)


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
    seq: TokenSequence,
    masks: GatingMaskSet,
    params: AttentionParams,
    out: KeyValues | None = None,
) -> KeyValues:
    """Project keys (token + position) and values (token) once for all categories.

    Only tokens attended by at least one category are read. They are moved to
    the first M rows of ``seq.tokens`` in place and projected there; then
    ``seq.tokens`` is set to None, since the sequence is spent (and the array
    it was built from holds moved rows). ``out``, a result of this function
    for the same ``masks`` (the other sequence of a pair), lends its index,
    layout and arrays; its keys and values are overwritten.
    """
    if seq.tokens is None:
        raise ValueError("seq was spent by an earlier projection")
    token_masks = _token_masks(masks, seq)
    if out is None:
        index = np.flatnonzero(token_masks.any(axis=0))
        shape = (len(index), seq.tokens.shape[1])
        out = KeyValues(index, np.empty(shape), np.empty(shape), masks, _layout(token_masks, index))
    elif out.masks is not masks:
        raise ValueError("out was projected for other masks")
    index = out.index
    # row i takes row index[i] >= i, so no row is read after it is written
    for rows in _channel_blocks(len(index), seq.tokens.shape[1]):
        seq.tokens[rows] = seq.tokens[index[rows]]
    attended = seq.tokens[: len(index)]
    seq.tokens = None
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
    kv: KeyValues,
    masks: GatingMaskSet,
    params: AttentionParams,
    heads: int,
) -> np.ndarray:
    """One residual masked cross-attention update of the (C, d) query matrix.

    Category c attends only over tokens with ``masks.token_masks[c]`` True;
    rows with no attendable token are returned unchanged. Keys, values and
    layout come from ``kv``, the :func:`project_keys_values` result for this
    ``masks`` object and ``params``; the logits of all categories and heads
    go through one masked softmax. It gathers the attendable logits and
    scales, shifts, exponentiates and divides them alone (by dense row sums),
    so a masked logit is never read.
    """
    if kv.masks is not masks:
        raise ValueError("kv holds projections for other masks")
    q = np.asarray(queries, dtype=DTYPE)
    if q.ndim != 2:
        raise ValueError(f"queries must be (C, d), got {q.shape}")
    c_count, d = q.shape
    if d != params.dim:
        raise ValueError(f"query dim {d} does not match parameter dim {params.dim}")
    if heads < 1 or d % heads != 0:
        raise ValueError(f"heads={heads} must divide d={d}")
    token_masks = masks.token_masks
    if token_masks.shape[0] != c_count:
        raise ValueError(f"token masks {token_masks.shape} do not match {c_count} categories")
    index, keys, values, _, (rows, attendable, counts, starts) = kv
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
    lv /= np.repeat(logits.sum(axis=2), counts, axis=1)  # the dense row sums
    by_head[:, attendable] = lv  # now the attention weights; a masked one stays 0.0

    ctx = logits @ values.reshape(m, heads, d_head).transpose(1, 0, 2)  # (H, R, d_head)
    out[rows] += ctx.transpose(1, 0, 2).reshape(len(rows), d) @ params.w_o
    return out


def run_encoder_side(
    q0: np.ndarray,
    kv: KeyValues,
    masks: GatingMaskSet,
    params: AttentionParams,
    heads: int,
    blocks: int,
) -> np.ndarray:
    """Apply :func:`cross_attend` ``blocks`` times over ``kv``, carrying queries
    across. All blocks share ``params``, and so one projection."""
    if blocks < 1:
        raise ValueError(f"need at least one encoder block, got {blocks}")
    q = np.asarray(q0, dtype=DTYPE)
    for _ in range(blocks):
        q = cross_attend(q, kv, masks, params, heads)
    return q


def init_class_queries(num_categories: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded uniform query init on (-1/sqrt(d), 1/sqrt(d))."""
    bound = 1.0 / math.sqrt(d)
    return rng.uniform(-bound, bound, size=(num_categories, d))
