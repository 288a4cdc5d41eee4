"""Run configuration shared by the CLI and the pipeline phases.

Defaults follow the tuned operating point of the method: bank capacity
K=4, threshold coefficient alpha=0.7, contrastive weight lambda_c=0.1 and
statistics floor epsilon=1e-6; the EMA momentum (0.9) and the attention
geometry (heads=8, d=256) are artifact choices. ``selftest`` asserts that
the pinned defaults have not drifted.

Config files are plain ``key = value`` text, one pair per line, ``#``
comments allowed; keys match the field names below (``lambda`` is accepted
as an alias for ``momentum``). Precedence: explicit CLI flags override the
file, and the ``SA_ADAPT_SEED`` environment variable overrides the seed
from both, so CI runs stay reproducible.

Every rule on the values lives in ``RunConfig.__post_init__``, so each
RunConfig, including a ``dataclasses.replace`` copy, is valid; the parser
and :func:`load_config` only read text and merge sources. A RunConfig is
frozen, so no later assignment can bypass those rules: derive a changed
copy with ``dataclasses.replace``.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, fields, replace

from .style_projection import WEIGHTINGS

SEED_ENV_VAR = "SA_ADAPT_SEED"

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
    weighting: str = WEIGHTINGS[0]
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
            raise ValueError("k must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not 0 < self.momentum < 1:
            raise ValueError("momentum must lie in (0, 1)")
        if self.lambda_c < 0:
            raise ValueError("lambda_c must be >= 0")
        if not 0 < self.epsilon <= EPSILON_LIMIT:
            raise ValueError(
                f"epsilon (--epsilon) must be positive and at most {EPSILON_LIMIT:g}, so that "
                f"style distances stay finite in float64, got {self.epsilon!r}"
            )
        if self.weighting not in WEIGHTINGS:
            raise ValueError(f"unknown weighting {self.weighting!r}")
        if self.tta_order not in TTA_ORDERS:
            raise ValueError(f"unknown tta_order {self.tta_order!r}")
        if not self.softmax_temperature > 0:
            raise ValueError("softmax_temperature must be positive")
        if self.heads < 1 or self.d < 1 or self.d % self.heads != 0:
            raise ValueError("heads must divide d")


_ALIASES = {"lambda": "momentum", "capacity": "k"}
_FIELD_PARSERS = {f.name: {"int": int, "float": float}.get(f.type, str) for f in fields(RunConfig)}


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into a {field: typed value} dict."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = _ALIASES.get(key.strip(), key.strip())
        value = value.strip()
        if key not in _FIELD_PARSERS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        out[key] = _FIELD_PARSERS[key](value)
    return out


def load_config(
    path: str | None = None, overrides: dict | None = None, env: dict | None = None
) -> RunConfig:
    """Merge file, overrides and environment into a RunConfig, which validates itself."""
    values: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            values.update(parse_config_text(fh.read()))
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    env = os.environ if env is None else env
    if SEED_ENV_VAR in env:
        values["seed"] = int(env[SEED_ENV_VAR])
    return replace(RunConfig(), **values)


def selftest() -> None:
    """Assert the pinned default operating point; raises AssertionError on drift."""
    cfg = RunConfig()
    assert cfg.k == 4, f"default bank capacity drifted: {cfg.k}"
    assert cfg.alpha == 0.7, f"default alpha drifted: {cfg.alpha}"
    assert cfg.lambda_c == 0.1, f"default lambda_c drifted: {cfg.lambda_c}"
    assert cfg.epsilon == 1e-6, f"default epsilon drifted: {cfg.epsilon}"
