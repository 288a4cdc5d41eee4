"""Cross-domain contrastive loss over class queries, with analytic gradients.

Writing S and A for the source- and augmented-domain query matrices and P
for the set of present categories, the loss is

    L = -(1 / |P|) * sum_{i in P} log( exp(s_i . a_i)
                                       / sum_{j in P} exp(s_j . a_i) )

i.e. a softmax cross-entropy per augmented query a_i whose logits are its
dot products with every present source query. Similarities are raw dot
products; no temperature and no normalization by default (an optional L2
normalization is available for experimentation). Absent categories take
no part in numerator or denominator and receive exactly zero gradient.

The loss is asymmetric in (S, A) as written: the softmax normalizes over
the source index j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    grad_q_source: np.ndarray  # (C, d), zero rows for absent categories
    grad_q_augmented: np.ndarray  # (C, d)


class _Forward(NamedTuple):
    s_unit: np.ndarray  # (..., n, d) source queries, normalized if requested
    a_unit: np.ndarray
    s_norm: np.ndarray | None  # (..., n, 1) row norms when normalizing
    a_norm: np.ndarray | None
    exp: np.ndarray  # (..., n, n) column-shifted exponentials
    z: np.ndarray  # (..., n) column sums of exp
    loss: np.ndarray  # (...) one loss per stacked pair


def _forward(s: np.ndarray, a: np.ndarray, normalize: bool) -> _Forward:
    """The loss of (..., n, d) stacks of present-row queries, and the
    intermediates its gradients reuse.

    Stabilized by per-column max subtraction. Each stacked pair goes
    through the same operations as a lone (n, d) pair, so its loss is
    bit-identical to the loss of that pair alone.
    """
    s_norm = a_norm = None
    if normalize:
        s_norm = np.linalg.norm(s, axis=-1, keepdims=True)
        a_norm = np.linalg.norm(a, axis=-1, keepdims=True)
        if np.any(s_norm == 0.0) or np.any(a_norm == 0.0):
            raise ValueError("cannot normalize a zero query vector")
        s, a = s / s_norm, a / a_norm

    logits = s @ np.swapaxes(a, -1, -2)  # logits[..., j, i] = s_j . a_i
    shifted = logits - logits.max(axis=-2, keepdims=True)
    exp = np.exp(shifted)
    z = exp.sum(axis=-2)
    log_prob_diag = shifted.diagonal(axis1=-2, axis2=-1) - np.log(z)
    loss = -(log_prob_diag.sum(axis=-1) / logits.shape[-1])
    return _Forward(s, a, s_norm, a_norm, exp, z, loss)


def _present_forward(batch: ContrastiveBatch, normalize: bool) -> tuple[np.ndarray, _Forward]:
    """The present category indices and the forward pass over their rows."""
    idx = np.flatnonzero(batch.present)
    if idx.size == 0:
        raise StateError("contrastive loss needs at least one present category")
    return idx, _forward(batch.q_source[idx], batch.q_augmented[idx], normalize)


def contrastive_loss_stack(
    q_source: np.ndarray, q_augmented: np.ndarray, normalize: bool = False
) -> np.ndarray:
    """The loss of every pair in (..., n, d) stacks of present-row queries.

    The two stacks broadcast against each other, so one side may be a
    single (n, d) matrix. Each value is bit-identical to
    :func:`contrastive_loss_value` of a batch whose present rows are that
    pair; absent rows take no part in the loss and are left out here.
    Values are unchecked: this is the batched form behind finite-difference
    checks of already-validated queries.
    """
    return _forward(q_source, q_augmented, normalize).loss


def contrastive_loss_value(batch: ContrastiveBatch, normalize: bool = False) -> float:
    """The loss alone, exactly as :func:`contrastive_loss` reports it."""
    return float(_present_forward(batch, normalize)[1].loss)


def contrastive_loss(batch: ContrastiveBatch, normalize: bool = False) -> LossReport:
    """Loss and analytic gradients for one batch of paired query sets.

    With ``normalize`` the queries are L2-normalized first and the
    gradients are chained through the normalization.
    """
    idx, fw = _present_forward(batch, normalize)
    n = idx.size
    # d loss / d logits[j, i] = (softmax_j - delta_ji) / n
    g_logits = (fw.exp / fw.z - np.eye(n)) / n
    g_s = g_logits @ fw.a_unit
    g_a = g_logits.T @ fw.s_unit
    if normalize:
        g_s = (g_s - (g_s * fw.s_unit).sum(axis=1, keepdims=True) * fw.s_unit) / fw.s_norm
        g_a = (g_a - (g_a * fw.a_unit).sum(axis=1, keepdims=True) * fw.a_unit) / fw.a_norm

    grad_source = np.zeros_like(batch.q_source)
    grad_augmented = np.zeros_like(batch.q_augmented)
    grad_source[idx] = g_s
    grad_augmented[idx] = g_a
    return LossReport(float(fw.loss), grad_source, grad_augmented)


def total_loss(l_det: float, l_contra: float, lambda_c: float) -> float:
    """Combined objective: detection loss plus weighted contrastive term.

    The detection loss is an opaque caller-supplied scalar.
    """
    for name, value in (("l_det", l_det), ("l_contra", l_contra), ("lambda_c", lambda_c)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if lambda_c < 0.0:
        raise ValueError(f"lambda_c must be >= 0, got {lambda_c}")
    return float(l_det + lambda_c * l_contra)
