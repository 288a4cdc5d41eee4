"""Run configuration shared by the CLI and the pipeline phases.

Defaults follow the tuned operating point of the method: bank capacity
K=4, threshold coefficient alpha=0.7, contrastive weight lambda_c=0.1 and
statistics floor epsilon=1e-6; the EMA momentum (0.9) and the attention
geometry (heads=8, d=256) are artifact choices. ``selftest`` asserts that
the pinned defaults have not drifted.

The flags of the CLI are the one input path of a run: ``cli.build_config``
builds a RunConfig from them, and a field no flag sets keeps its default.

Every rule on the values lives in ``RunConfig.__post_init__``, so each
RunConfig, including a ``dataclasses.replace`` copy, is valid. A RunConfig
is frozen, so no later assignment can bypass those rules: derive a changed
copy with ``dataclasses.replace``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

DEFAULT_K = 4
DEFAULT_ALPHA = 0.7
DEFAULT_MOMENTUM = 0.9
DEFAULT_LAMBDA_C = 0.1
DEFAULT_EPSILON = 1e-6
EPSILON_LIMIT = 1e100  # a floored std of sqrt(1e100) keeps squared style distances finite
TTA_ORDERS = ("observe-first", "project-first")


@dataclass(frozen=True)
class RunConfig:
    k: int = DEFAULT_K
    alpha: float = DEFAULT_ALPHA
    momentum: float = DEFAULT_MOMENTUM  # EMA momentum, the bank's lambda
    lambda_c: float = DEFAULT_LAMBDA_C
    epsilon: float = DEFAULT_EPSILON
    softmax_temperature: float = 1.0
    tta_order: str = TTA_ORDERS[0]
    heads: int = 8
    d: int = 256
    seed: int = 0
    out_dir: str = "sa_out"

    def __post_init__(self):
        for name in ("k", "heads", "d", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.k < 1:
            raise ValueError(f"k (--k) must be at least 1, got {self.k!r}")
        if self.seed < 0:
            raise ValueError(f"seed (--seed) must be >= 0, got {self.seed!r}")
        if not self.alpha > 0:
            raise ValueError(f"alpha (--alpha) must be positive, got {self.alpha!r}")
        if not 0 < self.momentum < 1:
            raise ValueError(f"momentum (--momentum) must lie in (0, 1), got {self.momentum!r}")
        if not 0 <= self.lambda_c < math.inf:
            raise ValueError(
                f"lambda_c (--lambda-c) must be finite and >= 0, got {self.lambda_c!r}"
            )
        if not 0 < self.epsilon <= EPSILON_LIMIT:
            raise ValueError(
                f"epsilon (--epsilon) must be positive and at most {EPSILON_LIMIT:g}, so that "
                f"style distances stay finite in float64, got {self.epsilon!r}"
            )
        if self.tta_order not in TTA_ORDERS:
            raise ValueError(f"unknown tta_order {self.tta_order!r}")
        if not self.softmax_temperature > 0:
            raise ValueError(
                "softmax_temperature (--softmax-temperature) must be positive, "
                f"got {self.softmax_temperature!r}"
            )
        if self.d < 1:
            raise ValueError(f"d (--dim) must be at least 1, got {self.d}")
        if self.heads < 1 or self.d % self.heads != 0:
            raise ValueError(
                f"heads (--heads) must be at least 1 and divide d (--dim), "
                f"got {self.heads} and {self.d}"
            )
        if self.d % 2:
            raise ValueError(
                f"d (--dim) must be even, since the position encodings split it into row "
                f"and column halves, got {self.d}"
            )


def selftest() -> None:
    """Assert the pinned default operating point; raises AssertionError on drift."""
    cfg = RunConfig()
    assert cfg.k == 4, f"default bank capacity drifted: {cfg.k}"
    assert cfg.alpha == 0.7, f"default alpha drifted: {cfg.alpha}"
    assert cfg.lambda_c == 0.1, f"default lambda_c drifted: {cfg.lambda_c}"
    assert cfg.epsilon == 1e-6, f"default epsilon drifted: {cfg.epsilon}"
