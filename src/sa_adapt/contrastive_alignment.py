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
    """Column-shifted exponentials, their column sums and the per-column loss
    terms ``log softmax_j(logits[:, i])[i]`` of logits ``[j, i] = s_j . a_i``,
    (n, n) or (n, n, m) with m copies innermost; the terms are ([m,] n). Each
    reduction over j takes one j at a time, so a column's term is its own alone."""
    shifted = logits - logits.max(axis=0, keepdims=True)
    terms = shifted.diagonal(axis1=0, axis2=1).copy()  # ([m,] n)
    exp = np.exp(shifted, out=shifted)
    z = exp.sum(axis=0)
    terms -= np.log(z).T
    return exp, z, terms


def _loss(terms: np.ndarray) -> np.ndarray:
    """The loss of ([m,] n) per-column terms: minus their pairwise mean."""
    return -(terms.sum(axis=-1) / terms.shape[-1])


# Bound on one stack of perturbed logits copies (source side) or of perturbed
# logits columns (augmented side) in _fd_gradient: with its temporaries it stays
# in L2, whatever the number of present rows.
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
    (augmented) of the logits ``s_j . a_i``, so each group of (column k, sign)
    pairs takes one product of x with column k of every row perturbed.

    Source side: a copy's logits are the unperturbed ones with row i taken from
    the product, and their loss tails run in one reused stack of at most
    ``_FD_CHUNK_BYTES`` (or one copy), copies innermost. Augmented side: the
    product's column i is copy i's only changed column, so one tail over the
    group's (g, n, n) product gives every changed column's term, and a copy's
    loss is the unperturbed terms with entry i replaced: O(n) a copy, in blocks
    of at most ``_FD_CHUNK_BYTES`` (or one group). x is left untouched.
    """
    x = s if source else a
    n, d = x.shape
    if x.size == 0:
        return np.zeros_like(x)
    base = s @ a.T
    copies = max(1, _FD_CHUNK_BYTES // base.nbytes)  # n x n logits per block
    # (column, sign) pairs per group, each with one perturbed copy of x and its
    # n logits copies (source) or n changed logits columns (augmented)
    groups = max(1, min(copies // n if source else copies, _FD_CHUNK_BYTES // x.nbytes, 2 * d))
    values = np.empty((2 * d, n))  # values[2 k + sign, i]
    xp = np.repeat(x[None], groups, axis=0)  # xp[pair]: x with column k of every row perturbed
    if source:
        rows = max(1, min(n, copies))
        stack = np.repeat(base[:, :, None], groups * rows, axis=2)  # stack[j, i, copy]
    else:
        terms = _tail(base)[2]
        each = np.repeat(terms[None], groups * n, axis=0)  # each[copy, i]
    for g0 in range(0, 2 * d, groups):
        group = np.arange(g0, min(g0 + groups, 2 * d))
        pair, k = np.arange(group.size), group // 2
        xp[pair, :, k] = np.where(group % 2, x[:, k] - _FD_STEP, x[:, k] + _FD_STEP).T
        if source:
            product_rows = xp[: group.size] @ a.T
            for r0 in range(0, n, rows):
                block = np.arange(r0, min(r0 + rows, n))
                j, i = np.repeat(np.arange(group.size), block.size), np.tile(block, group.size)
                copy = np.arange(j.size)
                stack[i, :, copy] = product_rows[j, i]
                values[group[j], i] = _loss(_tail(stack[:, :, : copy.size])[2])
                stack[i, :, copy] = base[i]
        else:
            # product[p, j, i] = s_j . xp[p, i], the changed columns as [j, i, pair]
            changed = _tail((s @ xp[: group.size].swapaxes(1, 2)).transpose(1, 2, 0))[2]
            copy, i = np.arange(changed.size), np.tile(np.arange(n), group.size)
            each[copy, i] = changed.ravel()  # changed[pair, i] is copy (pair, i)'s term i
            values[group] = _loss(each[: copy.size]).reshape(group.size, n)
            each[copy, i] = terms[i]
        xp[pair, :, k] = x[:, k].T
    up, down = values.reshape(d, 2, n).transpose(1, 2, 0)
    return (up - down) / (2.0 * _FD_STEP)


def contrastive_loss(batch: ContrastiveBatch) -> LossReport:
    """Loss and analytic gradients for one batch of paired query sets."""
    idx = np.flatnonzero(batch.present)
    if idx.size == 0:
        raise StateError("contrastive loss needs at least one present category")
    s, a = batch.q_source[idx], batch.q_augmented[idx]
    exp, z, terms = _tail(s @ a.T)
    n = idx.size
    # d loss / d logits[j, i] = (softmax_j - delta_ji) / n
    g_logits = (exp / z - np.eye(n)) / n

    grad_source = np.zeros_like(batch.q_source)
    grad_augmented = np.zeros_like(batch.q_augmented)
    grad_source[idx] = g_logits @ a
    grad_augmented[idx] = g_logits.T @ s
    return LossReport(float(_loss(terms)), grad_source, grad_augmented)


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
