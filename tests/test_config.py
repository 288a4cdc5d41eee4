import argparse
import math
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from sa_adapt.cli import build_parser
from sa_adapt.config import RunConfig, selftest


class TestDefaults:
    def test_tuned_operating_point(self):
        cfg = RunConfig()
        assert cfg.k == 4
        assert cfg.alpha == 0.7
        assert cfg.lambda_c == 0.1
        assert cfg.epsilon == 1e-6
        assert cfg.momentum == 0.9
        assert cfg.tta_order == "observe-first"
        assert cfg.heads == 8 and cfg.d == 256

    def test_fields(self):
        assert [f.name for f in fields(RunConfig)] == [
            "k", "alpha", "momentum", "lambda_c", "epsilon", "softmax_temperature",
            "tta_order", "heads", "d", "seed", "out_dir",
        ]

    def test_selftest_passes(self):
        selftest()


class TestValidation:
    def test_validation_runs(self):
        with pytest.raises(ValueError):
            RunConfig(k=0)
        with pytest.raises(ValueError):
            RunConfig(heads=3, d=256)

    def test_every_run_config_is_valid(self):
        with pytest.raises(ValueError, match="tta_order"):
            RunConfig(tta_order="bogus")
        with pytest.raises(ValueError, match=re.escape("k (--k) must be at least 1, got 0")):
            replace(RunConfig(), k=0)

    @pytest.mark.parametrize(
        "field, value", [("k", 2.5), ("k", "4"), ("heads", 2.0), ("d", 256.0), ("seed", 1.5)]
    )
    def test_integer_fields_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
            RunConfig(**{field: value})

    def test_numpy_integers_are_integers(self):
        cfg = RunConfig(k=np.int64(3), heads=np.int32(4), d=np.int64(64), seed=np.uint8(7))
        assert (cfg.k, cfg.heads, cfg.d, cfg.seed) == (3, 4, 64, 7)

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError, match=re.escape("seed (--seed) must be >= 0, got -1")):
            RunConfig(seed=-1)
        assert RunConfig(seed=0).seed == 0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.1])
    def test_lambda_c_must_be_finite_and_non_negative(self, value):
        message = f"lambda_c (--lambda-c) must be finite and >= 0, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(lambda_c=value)
        assert RunConfig(lambda_c=0.0).lambda_c == 0.0

    @pytest.mark.parametrize(
        "d, heads, message",
        [
            (256, 3, "heads (--heads) must be at least 1 and divide d (--dim), got 3 and 256"),
            (256, 0, "heads (--heads) must be at least 1 and divide d (--dim), got 0 and 256"),
            (0, 1, "d (--dim) must be at least 1, got 0"),
            (-2, 1, "d (--dim) must be at least 1, got -2"),
        ],
    )
    def test_heads_and_d_errors_name_their_flags_and_values(self, d, heads, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(d=d, heads=heads)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("k", -3, "k (--k) must be at least 1, got -3"),
            ("alpha", -1.0, "alpha (--alpha) must be positive, got -1.0"),
            ("alpha", math.nan, "alpha (--alpha) must be positive, got nan"),
            ("momentum", 1.5, "momentum (--momentum) must lie in (0, 1), got 1.5"),
            ("momentum", 0.0, "momentum (--momentum) must lie in (0, 1), got 0.0"),
            (
                "softmax_temperature",
                0.0,
                "softmax_temperature (--softmax-temperature) must be positive, got 0.0",
            ),
        ],
    )
    def test_errors_name_their_flags_and_values(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("d, heads", [(3, 1), (1, 1), (255, 5)])
    def test_d_must_be_even(self, d, heads):
        message = (
            f"d (--dim) must be even, since the position encodings split it into row and "
            f"column halves, got {d}"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(d=d, heads=heads)
        assert RunConfig(d=d + 1, heads=1).d == d + 1

    def test_fields_cannot_be_assigned_after_construction(self):
        cfg = RunConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.tta_order = "bogus"
        assert cfg.tta_order == "observe-first"


def test_every_run_config_field_has_a_flag():
    # cli.build_config reads the fields from the flags, the one input path of
    # a run; a field that no subcommand takes could not be set in any run.
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {action.dest for parser in sub.choices.values() for action in parser._actions}
    missing = {f.name for f in fields(RunConfig)} - dests
    assert not missing
