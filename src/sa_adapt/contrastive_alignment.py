"""Cross-domain contrastive loss over class queries, with analytic gradients.

Writing S and A for the source- and augmented-domain query matrices and P
for the set of present categories, the loss is

    L = -(1 / |P|) * sum_{i in P} log( exp(s_i . a_i)
                                       / sum_{j in P} exp(s_j . a_i) )

i.e. a softmax cross-entropy per augmented query a_i whose logits are its
dot products with every present source query. Similarities are raw dot
products, with no temperature and no normalization. Absent categories take
no part in numerator or denominator and receive exactly zero gradient.

The loss is asymmetric in (S, A) as written: the softmax normalizes over
the source index j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StateError
from .tensor_core import DTYPE, require_finite


@dataclass
class ContrastiveBatch:
    """Paired (C, d) query matrices plus the shared present-category flags."""

    q_source: np.ndarray
    q_augmented: np.ndarray
    present: np.ndarray

    def __post_init__(self):
        self.q_source = np.asarray(self.q_source, dtype=DTYPE)
        self.q_augmented = np.asarray(self.q_augmented, dtype=DTYPE)
        self.present = np.asarray(self.present, dtype=bool)
        if self.q_source.shape != self.q_augmented.shape or self.q_source.ndim != 2:
            raise ValueError(
                f"query matrices must share a (C, d) shape, got "
                f"{self.q_source.shape} and {self.q_augmented.shape}"
            )
        if self.present.shape != (self.q_source.shape[0],):
            raise ValueError("present must be a length-C boolean vector")
        require_finite(self.q_source, "source queries")
        require_finite(self.q_augmented, "augmented queries")


@dataclass
class LossReport:
    l_contra: float
    grad_q_source: np.ndarray  # (C, d), zero rows for categories not present
    grad_q_augmented: np.ndarray  # (C, d)


def _tail(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-shifted exponentials, their column sums and the loss of logits
    ``[j, i] = s_j . a_i``, (n, n) or (n, n, m) with m copies innermost. Each
    reduction over j takes one j at a time, so a copy's loss is its own alone."""
    shifted = logits - logits.max(axis=0, keepdims=True)
    log_prob_diag = shifted.diagonal(axis1=0, axis2=1).copy()  # ([m,] n)
    exp = np.exp(shifted, out=shifted)
    z = exp.sum(axis=0)
    log_prob_diag -= np.log(z).T
    return exp, z, -(log_prob_diag.sum(axis=-1) / logits.shape[0])


# Bound on one stack of perturbed logits copies in _fd_gradient: with its
# temporaries it stays in L2, whatever the number of present rows.
_FD_CHUNK_BYTES = 1 << 20
# About the cube root of float64's epsilon, where a central difference's
# truncation error and rounding error are of one size.
_FD_STEP = 1e-5


def _fd_gradient(s: np.ndarray, a: np.ndarray, source: bool) -> np.ndarray:
    """Central differences of the loss of (n, d) present-row queries with
    respect to x = ``s`` if ``source``, else ``a``.

    Entry (i, k) is ``(loss(up) - loss(down)) / (2 _FD_STEP)`` of the copies of x
    holding ``x[i, k] + _FD_STEP`` and ``x[i, k] - _FD_STEP``, each loss bit-identical
    to that copy's alone. A copy changes only row i (source) or column i
    (augmented) of the logits ``s_j . a_i``, so each column k and sign takes
    one product of x with column k of every row perturbed, and a copy's logits
    are the unperturbed ones with that line taken from the product. Loss tails
    run in one reused stack of at most ``_FD_CHUNK_BYTES`` (or one copy),
    copies innermost. x is left untouched.
    """
    x = s if source else a
    n, d = x.shape
    base = s @ a.T
    copies = max(1, _FD_CHUNK_BYTES // max(base.nbytes, 1))
    # (column, sign) pairs per stack, each with one perturbed copy of x
    groups = max(1, min(copies // max(n, 1), _FD_CHUNK_BYTES // max(x.nbytes, 1), 2 * d))
    rows = max(1, min(n, copies))
    stack = np.repeat(base[:, :, None], groups * rows, axis=2)  # stack[j, i, copy]
    # the replaced lines: rows of the logits on the source side, columns on the augmented
    lines, base_lines = (stack, base) if source else (stack.swapaxes(0, 1), base.T)
    values = np.empty((2 * d, n))  # values[2 k + sign, i]
    for g0 in range(0, 2 * d, groups):
        group = np.arange(g0, min(g0 + groups, 2 * d))
        xp, k = np.repeat(x[None], group.size, axis=0), group // 2
        xp[np.arange(group.size), :, k] = np.where(
            group % 2, x[:, k] - _FD_STEP, x[:, k] + _FD_STEP
        ).T
        product_lines = xp @ a.T if source else (s @ xp.swapaxes(1, 2)).swapaxes(1, 2)
        for r0 in range(0, n, rows):
            block = np.arange(r0, min(r0 + rows, n))
            j, i = np.repeat(np.arange(group.size), block.size), np.tile(block, group.size)
            copy = np.arange(j.size)
            lines[i, :, copy] = product_lines[j, i]
            values[group[j], i] = _tail(stack[:, :, : copy.size])[2]
            lines[i, :, copy] = base_lines[i]
    up, down = values.reshape(d, 2, n).transpose(1, 2, 0)
    return (up - down) / (2.0 * _FD_STEP)


def contrastive_loss(batch: ContrastiveBatch) -> LossReport:
    """Loss and analytic gradients for one batch of paired query sets."""
    idx = np.flatnonzero(batch.present)
    if idx.size == 0:
        raise StateError("contrastive loss needs at least one present category")
    s, a = batch.q_source[idx], batch.q_augmented[idx]
    exp, z, loss = _tail(s @ a.T)
    n = idx.size
    # d loss / d logits[j, i] = (softmax_j - delta_ji) / n
    g_logits = (exp / z - np.eye(n)) / n

    grad_source = np.zeros_like(batch.q_source)
    grad_augmented = np.zeros_like(batch.q_augmented)
    grad_source[idx] = g_logits @ a
    grad_augmented[idx] = g_logits.T @ s
    return LossReport(float(loss), grad_source, grad_augmented)


def total_loss(l_det: float, l_contra: float, lambda_c: float) -> float:
    """Combined objective: detection loss plus weighted contrastive term.

    The detection loss is an opaque caller-supplied scalar.
    """
    for name, value in (("l_det", l_det), ("l_contra", l_contra), ("lambda_c", lambda_c)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if lambda_c < 0.0:
        raise ValueError(f"lambda_c must be >= 0, got {lambda_c}")
    total = float(l_det + lambda_c * l_contra)
    if not math.isfinite(total):
        raise ValueError(
            f"l_det + lambda_c * l_contra overflows: {l_det} + {lambda_c} * {l_contra}"
        )
    return total
