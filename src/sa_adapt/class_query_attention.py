"""Class queries updated by masked multi-head cross-attention over tokens.

One learnable d-vector per object category attends over the concatenated
multi-scale feature tokens, restricted by that category's gating mask:
keys are formed from token + positional encoding, values from the token
content alone, and the update is residual,

    Q_out = Q + MultiHead(query=Q, key=T + P, value=T, mask per category).

A category with no attendable tokens passes through unchanged. Queries are
plain (C, d) float arrays; projection parameters are four bias-free d x d
matrices, loadable from a flat named-tensor container:

    magic ``SATENS`` (6 bytes), version u32, entry count u32, then per
    entry: name length u16 + UTF-8 name, ndim u8, extents u32 each, and
    the values as little-endian f64, row-major.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .object_gating import GatingMaskSet
from .tensor_core import DTYPE, require_finite, softmax

TENSOR_MAGIC = b"SATENS"
TENSOR_VERSION = 1


@dataclass
class TokenSequence:
    """Multi-scale feature tokens with sine positional encodings.

    ``level_boundaries`` holds the cumulative token offsets, starting at 0
    and ending at N = sum(H_l * W_l).
    """

    tokens: np.ndarray  # (N, d)
    positions: np.ndarray  # (N, d)
    level_boundaries: list[int]

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
        if self.level_boundaries[0] != 0 or self.level_boundaries[-1] != len(self.tokens):
            raise ValueError("level boundaries must span [0, N]")


@dataclass
class AttentionParams:
    """Bias-free projection matrices for one cross-attention layer."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray

    def __post_init__(self):
        d = self.w_q.shape[0]
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

    def to_named_tensors(self) -> dict[str, np.ndarray]:
        return {"w_q": self.w_q, "w_k": self.w_k, "w_v": self.w_v, "w_o": self.w_o}

    @classmethod
    def from_named_tensors(cls, tensors: dict[str, np.ndarray]) -> "AttentionParams":
        try:
            return cls(tensors["w_q"], tensors["w_k"], tensors["w_v"], tensors["w_o"])
        except KeyError as exc:
            raise FormatError(f"missing parameter tensor {exc}") from exc


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
    half = d // 2
    dim_t = 10000.0 ** (2.0 * (np.arange(half) // 2) / half)
    out = []
    for h, w in level_shapes:
        if h < 1 or w < 1:
            raise ValueError(f"invalid level shape ({h}, {w})")
        ys = (np.arange(h, dtype=DTYPE) + 0.5) / h * (2.0 * math.pi)
        xs = (np.arange(w, dtype=DTYPE) + 0.5) / w * (2.0 * math.pi)
        enc_y = _interleaved(ys[:, None] / dim_t[None, :])  # (h, half)
        enc_x = _interleaved(xs[:, None] / dim_t[None, :])  # (w, half)
        grid = np.concatenate(
            [
                np.repeat(enc_y, w, axis=0),  # row-major: h varies slowly
                np.tile(enc_x, (h, 1)),
            ],
            axis=1,
        )
        out.append(grid)
    return np.concatenate(out, axis=0)


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
    tokens = np.concatenate(flats, axis=0)
    positions = sine_positions(shapes, d)
    boundaries = [0]
    for h, w in shapes:
        boundaries.append(boundaries[-1] + h * w)
    return TokenSequence(tokens=tokens, positions=positions, level_boundaries=boundaries)


def cross_attend(
    queries: np.ndarray,
    seq: TokenSequence,
    masks: GatingMaskSet,
    params: AttentionParams,
    heads: int,
    return_weights: bool = False,
):
    """One residual masked cross-attention update of the (C, d) query matrix.

    Category c attends only over tokens with ``masks.token_masks[c]`` True;
    rows with no attendable token are returned unchanged. With
    ``return_weights`` the per-head attention weights are also returned as
    a (C, heads, N) array (zeros at ignored positions).
    """
    q = np.asarray(queries, dtype=DTYPE)
    if q.ndim != 2:
        raise ValueError(f"queries must be (C, d), got {q.shape}")
    c_count, d = q.shape
    if d != params.dim:
        raise ValueError(f"query dim {d} does not match parameter dim {params.dim}")
    if heads < 1 or d % heads != 0:
        raise ValueError(f"heads={heads} must divide d={d}")
    if masks.token_masks is None:
        raise ValueError("mask set has no token alignment; call align_to_tokens first")
    if masks.token_masks.shape != (c_count, len(seq.tokens)):
        raise ValueError(
            f"token masks {masks.token_masks.shape} do not match "
            f"{c_count} categories x {len(seq.tokens)} tokens"
        )
    d_head = d // heads
    scale = 1.0 / math.sqrt(d_head)
    key_base = seq.tokens + seq.positions
    out = q.copy()
    attn = np.zeros((c_count, heads, len(seq.tokens)), dtype=DTYPE) if return_weights else None
    for c in range(c_count):
        idx = np.flatnonzero(masks.token_masks[c])
        if idx.size == 0:
            continue
        k = key_base[idx] @ params.w_k
        v = seq.tokens[idx] @ params.w_v
        qp = q[c] @ params.w_q
        ctx = np.empty(d, dtype=DTYPE)
        for h in range(heads):
            sl = slice(h * d_head, (h + 1) * d_head)
            weights = softmax(k[:, sl] @ qp[sl] * scale)
            ctx[sl] = weights @ v[:, sl]
            if attn is not None:
                attn[c, h, idx] = weights
        out[c] = q[c] + ctx @ params.w_o
    return (out, attn) if return_weights else out


def run_encoder_side(
    q0: np.ndarray,
    seqs: list[TokenSequence],
    masks: GatingMaskSet,
    params,
    heads: int,
    l_blocks: int | None = None,
) -> np.ndarray:
    """Apply cross_attend once per encoder block, carrying queries across.

    ``params`` is either one AttentionParams shared by all blocks or a
    sequence with one entry per block.
    """
    if not seqs:
        raise ValueError("need at least one block token sequence")
    if l_blocks is not None and l_blocks != len(seqs):
        raise ValueError(f"l_blocks={l_blocks} but {len(seqs)} token sequences given")
    if isinstance(params, AttentionParams):
        per_block = [params] * len(seqs)
    else:
        per_block = list(params)
        if len(per_block) != len(seqs):
            raise ValueError(f"{len(per_block)} parameter sets for {len(seqs)} blocks")
    q = np.asarray(q0, dtype=DTYPE)
    for seq, block_params in zip(seqs, per_block):
        q = cross_attend(q, seq, masks, block_params, heads)
    return q


def init_class_queries(num_categories: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded uniform query init on (-1/sqrt(d), 1/sqrt(d))."""
    bound = 1.0 / math.sqrt(d)
    return rng.uniform(-bound, bound, size=(num_categories, d))


# ---------------------------------------------------------------------------
# named-tensor container


def save_tensors(tensors: dict[str, np.ndarray]) -> bytes:
    """Serialize a name -> array mapping (f64, row-major, little-endian)."""
    out = bytearray(struct.pack("<6sII", TENSOR_MAGIC, TENSOR_VERSION, len(tensors)))
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        encoded = name.encode("utf-8")
        out += struct.pack("<H", len(encoded))
        out += encoded
        out += struct.pack("<B", arr.ndim)
        for extent in arr.shape:
            out += struct.pack("<I", extent)
        out += arr.tobytes()
    return bytes(out)


def load_tensors(blob: bytes) -> dict[str, np.ndarray]:
    """Inverse of :func:`save_tensors`; raises FormatError on malformed input."""
    head = struct.Struct("<6sII")
    if len(blob) < head.size:
        raise FormatError("tensor blob shorter than header")
    magic, version, count = head.unpack_from(blob, 0)
    if magic != TENSOR_MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != TENSOR_VERSION:
        raise FormatError(f"unsupported tensor container version {version}")
    off = head.size
    tensors: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, off)
            off += 2
            if len(blob) < off + name_len:
                raise FormatError("truncated tensor name")
            name = blob[off : off + name_len].decode("utf-8")
            if name in tensors:
                raise FormatError(f"duplicate tensor name {name!r}")
            off += name_len
            (ndim,) = struct.unpack_from("<B", blob, off)
            off += 1
            shape = []
            for _ in range(ndim):
                (extent,) = struct.unpack_from("<I", blob, off)
                off += 4
                shape.append(extent)
            size = math.prod(shape)  # exact integer; int64 np.prod can wrap
            end = off + 8 * size
            if end > len(blob):
                raise FormatError(f"truncated payload for tensor {name!r}")
            arr = np.frombuffer(blob, dtype="<f8", count=size, offset=off).reshape(shape)
            if not np.all(np.isfinite(arr)):
                raise FormatError(f"non-finite values in tensor {name!r}")
            tensors[name] = arr.astype(DTYPE)
            off = end
    except FormatError:
        raise
    except (struct.error, ValueError) as exc:  # truncation, non-UTF-8 name, ndim > numpy's
        raise FormatError(f"malformed tensor container: {exc}") from exc
    if off != len(blob):
        raise FormatError("trailing bytes after last tensor")
    return tensors
