import argparse
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from sa_adapt.cli import build_parser
from sa_adapt.config import RunConfig, load_config, parse_config_text, selftest


class TestDefaults:
    def test_tuned_operating_point(self):
        cfg = RunConfig()
        assert cfg.k == 4
        assert cfg.alpha == 0.7
        assert cfg.lambda_c == 0.1
        assert cfg.epsilon == 1e-6
        assert cfg.momentum == 0.9
        assert cfg.weighting == "neg-distance"
        assert cfg.tta_order == "observe-first"
        assert cfg.heads == 8 and cfg.d == 256

    def test_selftest_passes(self):
        selftest()


class TestConfigFile:
    def test_parse_key_value(self):
        values = parse_config_text("k = 6\nalpha=0.5\n# comment\n\nseed = 42\n")
        assert values == {"k": 6, "alpha": 0.5, "seed": 42}

    def test_lambda_alias(self):
        assert parse_config_text("lambda = 0.8\n") == {"momentum": 0.8}
        assert parse_config_text("capacity = 2\n") == {"k": 2}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("banana = 1\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("k 6\n")

    def test_file_plus_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("k = 6\nalpha = 0.5\n")
        cfg = load_config(str(path), overrides={"alpha": 0.9, "seed": None}, env={})
        assert cfg.k == 6
        assert cfg.alpha == 0.9  # explicit override wins
        assert cfg.seed == 0  # None overrides are ignored

    def test_env_var_overrides_seed(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 5\n")
        cfg = load_config(str(path), overrides={"seed": 7}, env={"SA_ADAPT_SEED": "99"})
        assert cfg.seed == 99

    def test_validation_runs(self):
        with pytest.raises(ValueError):
            load_config(None, overrides={"k": 0}, env={})
        with pytest.raises(ValueError):
            load_config(None, overrides={"heads": 3, "d": 256}, env={})
        with pytest.raises(ValueError):
            load_config(None, overrides={"weighting": "mystery"}, env={})

    def test_every_run_config_is_valid(self):
        with pytest.raises(ValueError, match="tta_order"):
            RunConfig(tta_order="bogus")
        with pytest.raises(ValueError, match="k must be >= 1"):
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
        with pytest.raises(ValueError, match=re.escape("seed must be >= 0, got -1")):
            RunConfig(seed=-1)
        with pytest.raises(ValueError, match=re.escape("seed must be >= 0, got -7")):
            load_config(None, env={"SA_ADAPT_SEED": "-7"})
        assert RunConfig(seed=0).seed == 0

    def test_fields_cannot_be_assigned_after_construction(self):
        cfg = RunConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.tta_order = "bogus"
        assert cfg.tta_order == "observe-first"


def test_every_run_config_field_has_a_flag():
    # cli.build_config reads the fields from the flags; a field that no
    # subcommand takes could be set only in a config file.
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {action.dest for parser in sub.choices.values() for action in parser._actions}
    missing = {f.name for f in fields(RunConfig)} - dests
    assert not missing
