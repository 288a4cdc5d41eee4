"""The command line as a contract: each subcommand takes exactly the
configuration fields its run reads, and any value of its flags ends in a
finite report or in one error line that names the flag or field."""

import argparse
import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings, strategies as st

from sa_adapt import cli
from sa_adapt.config import RunConfig
from sa_adapt.harness import parse_report

# Tiny runs of each subcommand; drawn flags come after these and override them.
BASE = {
    "train-bank": ["--channels", "2", "--clusters", "2", "--samples-per-cluster", "2",
                   "--levels", "2x2"],
    "tta-run": ["--channels", "2", "--samples-per-cluster", "2", "--levels", "2x2"],
    "ocl-demo": ["--categories", "2", "--image-size", "4x4", "--demo-levels", "2x2",
                 "--blocks", "1", "--dim", "4", "--heads", "2"],
    "bench": ["--runs", "1", "--warmup", "0", "--bench-channels", "2", "--bench-levels", "2x2"],
}
RUN_COMMANDS = tuple(BASE)


def subparsers() -> dict[str, argparse.ArgumentParser]:
    action = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def config_fields(parser: argparse.ArgumentParser) -> set[str]:
    groups = [g for g in parser._action_groups if g.title == "run configuration"]
    return {a.dest for g in groups for a in g._group_actions} - {"config"}


@pytest.fixture(scope="module")
def bank_dir(tmp_path_factory):
    """Two trained levels of two channels, for tta-run."""
    out = tmp_path_factory.mktemp("banks")
    argv = ["train-bank", *BASE["train-bank"], "--levels", "2x2,2x2", "--out-dir", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return out


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class ReadRecorder:
    """A RunConfig stand-in that records the name of every field read from it."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.read: set[str] = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.config, name)


@pytest.mark.parametrize(
    "command, extra",
    [
        ("train-bank", []),
        ("tta-run", ["--tta-order", "observe-first"]),
        ("tta-run", ["--tta-order", "project-first"]),
        ("ocl-demo", []),
        ("bench", []),
    ],
)
def test_each_subcommand_takes_exactly_the_fields_its_run_reads(
    command, extra, bank_dir, tmp_path, monkeypatch
):
    real_build_config = cli.build_config
    recorders = []

    def recording_build_config(args):
        recorders.append(ReadRecorder(real_build_config(args)))
        return recorders[-1]

    monkeypatch.setattr(cli, "build_config", recording_build_config)
    argv = [command, *BASE[command], *extra, "--out-dir", str(tmp_path)]
    if command == "tta-run":
        argv += ["--bank-dir", str(bank_dir)]
    code, _, err = run_cli(argv)
    assert code == 0, err
    assert recorders[0].read == config_fields(subparsers()[command])


@pytest.mark.parametrize(
    "argv",
    [
        ["tta-run", "--k", "9", "--alpha", "1e308", "--momentum", "0.5"],
        ["ocl-demo", "--annotations", "F", "--image-size", "1x1"],
        ["ocl-demo", "--epsilon", "1e-3"],
        ["train-bank", "--heads", "4"],
    ],
)
def test_flags_a_run_does_not_read_are_usage_errors(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "usage: sa-adapt" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_one_config_file_serves_train_and_tta(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "k = 3\nalpha = 0.5\nlambda = 0.8\nlambda_c = 0.2\nepsilon = 1e-5\n"
        "weighting = raw-distance\nsoftmax_temperature = 2.0\ntta_order = project-first\n"
        f"heads = 4\nd = 32\nseed = 9\nout_dir = {tmp_path / 'run'}\n"
    )
    stream = ["--channels", "4", "--samples-per-cluster", "3", "--levels", "2x2"]
    assert cli.main(["train-bank", "--config", str(cfg), *stream]) == 0
    assert cli.main(["tta-run", "--config", str(cfg), *stream]) == 0
    capsys.readouterr()
    assert cli.main(["inspect-bank", str(tmp_path / "run" / "bank_level0.sabank")]) == 0
    assert "capacity 3\n" in capsys.readouterr().out
    summary = json.loads((tmp_path / "run" / "tta.summary.json").read_text())
    assert summary["extra"]["tta_order"] == "project-first"


# ---------------------------------------------------------------------------
# the contract property

FLOATS = ["0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0.5", "2"]
# Nothing in between: a size such as 10**6 could allocate gigabytes.
SIZES = ["-1", "0", "1", "2", "3", "8", str(2**50), str(2**62), str(2**63), str(10**30)]
# These loop once per unit before anything is allocated, so they stay small.
LOOPS = ["-1", "0", "1", "2", "3"]
LOOP_FLAGS = {"--warmup", "--runs", "--blocks", "--categories", "--clusters"}
SHAPES = [
    "0x0", "1x1", "1x2", "2x1", "2x2", "8x8", "2x2,2x2", "4", "4x", "x4", "4x4x4", "", ",",
    "ax4", "-2x2", "2x-2", "2.5x2", f"{2**50}x2", f"2x{2**50}", f"{2**50}x{2**50}",
]


def hostile_pool(action: argparse.Action) -> list[str] | None:
    """Values of the flag's own type, or None for a path flag (not drawn)."""
    if action.choices is not None:
        return list(action.choices)
    if action.type is float:
        return FLOATS
    if action.type is int:
        return LOOPS if action.option_strings[0] in LOOP_FLAGS else SIZES
    if isinstance(action.default, str) and re.fullmatch(r"\d+x\d+(,\d+x\d+)*", action.default):
        return SHAPES
    return None  # --config, --out-dir, --bank-dir, --annotations


def drawable_flags(parser: argparse.ArgumentParser) -> list[tuple[str, list[str]]]:
    flags = []
    for action in parser._actions:
        pool = hostile_pool(action) if action.option_strings and action.dest != "help" else None
        if pool is not None:
            flags.append((action.option_strings[0], pool))
    return flags


DRAWABLE = {name: drawable_flags(p) for name, p in subparsers().items() if name in RUN_COMMANDS}


@st.composite
def hostile_argv(draw):
    command = draw(st.sampled_from(RUN_COMMANDS))
    flags = DRAWABLE[command]
    chosen = draw(st.lists(st.sampled_from(range(len(flags))), min_size=1, max_size=4, unique=True))
    return [command, *(f"{flags[i][0]}={draw(st.sampled_from(flags[i][1]))}" for i in chosen)]


def names(argv: list[str]) -> set[str]:
    """Flags given, their fields, and every RunConfig field (a default can be at fault)."""
    parser = subparsers()[argv[0]]
    given_flags = {a.split("=")[0] for a in argv[1:] if a.startswith("--")}
    out = {f.name for f in fields(RunConfig)}
    for action in parser._actions:
        if given_flags & set(action.option_strings):
            out |= {action.dest, *action.option_strings}
            out |= {s.lstrip("-") for s in action.option_strings}
    return out


def names_one_of(message: str, words: set[str]) -> bool:
    return any(re.search(rf"(?<![\w-]){re.escape(w)}(?![\w-])", message) for w in words)


def strict_json(text: str):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


OUT_OF_MEMORY = "sa-adapt: error: out of memory: "


@settings(max_examples=300, deadline=None)
@given(hostile_argv())
@example(["train-bank", "--style-salt=-5"])
@example(["train-bank", "--spread=nan"])
@example(["train-bank", "--spread=1e308"])
@example(["train-bank", "--alpha=1e308"])
@example(["train-bank", "--clusters=3", "--samples-per-cluster=1", "--k=8"])
@example(["tta-run", "--softmax-temperature=1e-320"])
@example(["bench", "--softmax-temperature=1e-320"])
@example(["train-bank", "--epsilon=inf"])
@example(["train-bank", f"--samples-per-cluster={2**50}"])
@example(["train-bank", f"--channels={2**50}"])
@example(["train-bank", "--clusters=0"])
@example(["train-bank", f"--channels={2**63}"])
@example(["train-bank", "--spread=1e-320", "--channels=1"])
@example(["tta-run", "--channels=1"])
@example(["tta-run", "--epsilon=1e308"])
@example(["ocl-demo", "--demo-levels=8x8"])
@example(["ocl-demo", "--l-det=inf"])
@example(["ocl-demo", "--categories=8", "--image-size=8x8", "--lambda-c=1e308", "--l-det=1e308"])
@example(["bench", "--bench-channels=-1"])
def test_any_flag_value_ends_in_a_finite_report_or_one_error_line(bank_dir, argv):
    command, hostile = argv[0], argv[1:]
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        full = [command, *BASE[command], *hostile, "--out-dir", tmp]
        if command == "tta-run":
            full += ["--bank-dir", str(bank_dir)]
        code, out, err = run_cli(full)
        event(f"{command} exits {code}")
        if code == 0:
            assert err == ""
            for _, value, _ in parse_report(out):
                assert math.isfinite(value), out
            for summary in Path(tmp).glob("*.summary.json"):
                records = strict_json(summary.read_text())["records"]
                assert all(math.isfinite(r["value"]) for r in records)
            return
    assert code == 2, err
    assert err.startswith("sa-adapt: error: ") and err.count("\n") == 1, err
    assert err.startswith(OUT_OF_MEMORY) or names_one_of(err, names(full)), err
