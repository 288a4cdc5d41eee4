"""In-process A/B of one benchmark workload between two checkouts.

Usage, from anywhere:

    python3 tools/ab.py --workload train-churn --parent-dir PARENT \\
        --change-dir CHANGE --rounds 16 --seed 1209 --out ab.json

Both checkouts' ``sa_adapt`` packages are imported into one process (the
parent's first, then the change's, each under the package name in turn), so
no between-process bias can enter. Each side builds the workload from the
change's ``benchmarks/workloads.py`` (``WORKLOADS[name](pkg, seed, SIZES)``,
then ``setup()``): the shapes, seeds, set-up and checks of
``benchmarks/run.py``. Each side generates the workload's stream
(``workload.spec``) once; unless the items are equal by ``tobytes()`` the
tool exits 1, and both sides then replay the same item arrays. Other specs
go to the real generator.

A call reports ``call_s``; ``stream_s``, from its start until the pipeline
asks for the item after the last one (the whole call without a stream); and
``finalize_s``, the rest. Before timing, one call per side must pass
``workload.check``. In every round, rounds alternating which side runs
first, both sides' reports and the saved bytes of their banks, where the
workload has them, must be equal, or the tool exits 1. Prints (and with
``--out`` writes) per side and phase the median, quartiles and every run,
and per phase ``change_wins``, the rounds the change was faster.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import statistics
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
PHASES = ("call_s", "stream_s", "finalize_s")


def import_package(checkout: Path):
    """Import ``checkout``'s ``sa_adapt``, dropping any copy loaded before."""
    for name in [m for m in sys.modules if m == "sa_adapt" or m.startswith("sa_adapt.")]:
        del sys.modules[name]
    sys.path.insert(0, str(checkout / "src"))
    try:
        pkg = importlib.import_module("sa_adapt")
        for sub in ("cli", "config", "harness", "style_memory_bank"):
            importlib.import_module(f"sa_adapt.{sub}")
    finally:
        sys.path.pop(0)
    return pkg


def import_workloads(checkout: Path):
    """``checkout``'s ``benchmarks/workloads.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "ab_workloads", checkout / "benchmarks" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def item_key(item):
    pyramid, label = item
    return label, [(level.shape, level.tobytes()) for level in pyramid]


def same_stream(items, stream) -> bool:
    """Whether ``stream`` yields ``items``, level arrays equal by ``tobytes()``."""
    return all(
        a is not None and b is not None and item_key(a) == item_key(b)
        for a, b in itertools.zip_longest(items, stream)
    )


def replay(harness, workload, items, marks: list) -> None:
    """Make ``harness.generate_stream`` replay ``items`` for ``workload.spec``,
    appending to ``marks`` when asked for the item after the last one."""
    real = harness.generate_stream

    def generate_stream(spec):
        if spec is not workload.spec:
            yield from real(spec)
            return
        yield from items
        marks.append(time.perf_counter())

    harness.generate_stream = generate_stream


def timed_call(workload, marks: list, index: int):
    """One ``workload.call``: its three phase times and its report."""
    marks.clear()
    start = time.perf_counter()
    report = workload.call(index)
    end = time.perf_counter()
    mark = marks[-1] if marks else end
    return (end - start, mark - start, end - mark), report


def run(parent_dir: Path, change_dir: Path, name: str, rounds: int, seed: int,
        sizes: dict | None = None) -> dict:
    """The A/B result object; raises SystemExit with a message when the two
    sides' streams, checks or outputs disagree."""
    workloads = import_workloads(change_dir)
    if name not in workloads.WORKLOADS:
        known = ", ".join(workloads.WORKLOADS)
        raise SystemExit(f"error: unknown workload {name!r}, not one of {known}")
    sides, items = {}, None
    for side, checkout in zip(SIDES, (parent_dir, change_dir)):
        pkg = import_package(checkout)
        workload = workloads.WORKLOADS[name](pkg, seed, sizes or workloads.SIZES)
        workload.setup()
        marks = []
        if hasattr(workload, "spec"):
            stream = pkg.harness.generate_stream(workload.spec)
            if items is None:
                items = list(stream)
            elif not same_stream(items, stream):
                raise SystemExit(f"error: the two sides generate different {name} streams")
            replay(pkg.harness, workload, items, marks)
        sides[side] = workload, marks

    for side, (workload, marks) in sides.items():
        if errors := workload.check(timed_call(workload, marks, 0)[1]):
            raise SystemExit(f"error: {side} check failed: {'; '.join(errors)}")
    times = {side: {phase: [] for phase in PHASES} for side in SIDES}
    for r in range(rounds):
        seen = {}
        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
            phases, report = timed_call(*sides[side], r)
            banks = getattr(sides[side][0], "banks", None)
            seen[side] = workloads.report_key(report), banks and [b.save() for b in banks]
            for phase, value in zip(PHASES, phases):
                times[side][phase].append(value)
        if seen["parent"] != seen["change"]:
            raise SystemExit(f"error: reports or bank bytes differ in round {r}")

    out = {"workload": name, "seed": seed, "rounds": rounds, "reports_identical": True}
    for side in SIDES:
        out[side] = {}
        for phase, values in times[side].items():
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            out[side][phase] = {"median_s": median, "q1_s": q1, "q3_s": q3, "runs_s": values}
    out["change_wins"] = {
        phase: sum(c < p for p, c in zip(times["parent"][phase], times["change"][phase]))
        for phase in PHASES
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a key of WORKLOADS")
    parser.add_argument("--parent-dir", type=Path, required=True)
    parser.add_argument("--change-dir", type=Path, required=True)
    parser.add_argument("--rounds", type=int, default=16)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for quartiles")
    out = run(args.parent_dir, args.change_dir, args.workload, args.rounds, args.seed)
    text = json.dumps(out)
    print(text)
    if args.out:
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
