"""In-process A/B of one benchmark workload between two checkouts.

Usage, from anywhere:

    python3 tools/ab.py --workload train-churn --parent-dir PARENT \\
        --change-dir CHANGE --rounds 16 --seed 1209 --out ab.json

Both checkouts' ``sa_adapt`` packages are imported into one process, each
under the package name in turn, so no between-process bias can enter. The
side imported and set up second read faster in same-checkout runs, so the
rounds (an even number) run in two equal halves: the first half imports and
sets up the parent first, the second half the change first. Each side builds
the workload from the change's ``benchmarks/workloads.py``
(``WORKLOADS[name](pkg, seed, SIZES)``, then ``setup()``): the shapes, seeds,
set-up and checks of ``benchmarks/run.py``. Each side generates the workload's stream
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
and per phase ``change_wins``, the rounds the change was faster, overall
and, under ``halves``, per half with its import order.
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
    appending to ``marks`` when asked for the item after the last one. Each
    call gets fresh pyramid lists, since a phase takes the maps out of the
    lists it is given."""
    real = harness.generate_stream

    def generate_stream(spec):
        if spec is not workload.spec:
            yield from real(spec)
            return
        for pyramid, label in items:
            yield list(pyramid), label
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


def set_up(dirs: dict, workloads, name: str, seed: int, sizes: dict, order, items):
    """Import and set up each side in ``order``; their (workload, marks) and
    the stream items that both sides replay."""
    sides = {}
    for side in order:
        pkg = import_package(dirs[side])
        workload = workloads.WORKLOADS[name](pkg, seed, sizes)
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
    for side in SIDES:
        if errors := sides[side][0].check(timed_call(*sides[side], 0)[1]):
            raise SystemExit(f"error: {side} check failed: {'; '.join(errors)}")
    return sides, items


def wins(times: dict, rounds: range) -> dict:
    """Per phase, the rounds of ``rounds`` in which the change was faster."""
    return {phase: sum(times["change"][phase][r] < times["parent"][phase][r] for r in rounds)
            for phase in PHASES}


def run(parent_dir: Path, change_dir: Path, name: str, rounds: int, seed: int,
        sizes: dict | None = None) -> dict:
    """The A/B result object for an even ``rounds`` of at least 2; raises
    SystemExit with a message when the two sides' streams, checks or outputs
    disagree."""
    if rounds < 2 or rounds % 2:
        raise SystemExit(f"error: rounds must be even and at least 2, one half per "
                         f"import order, got {rounds}")
    workloads = import_workloads(change_dir)
    if name not in workloads.WORKLOADS:
        known = ", ".join(workloads.WORKLOADS)
        raise SystemExit(f"error: unknown workload {name!r}, not one of {known}")
    dirs = {"parent": parent_dir, "change": change_dir}
    times = {side: {phase: [] for phase in PHASES} for side in SIDES}
    halves, items = [], None
    for order, span in ((SIDES, range(rounds // 2)), (SIDES[::-1], range(rounds // 2, rounds))):
        sides, items = set_up(dirs, workloads, name, seed, sizes or workloads.SIZES, order, items)
        for r in span:
            seen = {}
            for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                phases, report = timed_call(*sides[side], r)
                banks = getattr(sides[side][0], "banks", None)
                seen[side] = workloads.report_key(report), banks and [b.save() for b in banks]
                for phase, value in zip(PHASES, phases):
                    times[side][phase].append(value)
            if seen["parent"] != seen["change"]:
                raise SystemExit(f"error: reports or bank bytes differ in round {r}")
        halves.append({"import_order": list(order), "rounds": len(span),
                       "change_wins": wins(times, span)})
        del sides  # the next half sets up without this half's workloads alive

    out = {"workload": name, "seed": seed, "rounds": rounds, "reports_identical": True}
    for side in SIDES:
        out[side] = {}
        for phase, values in times[side].items():
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            out[side][phase] = {"median_s": median, "q1_s": q1, "q3_s": q3, "runs_s": values}
    out["change_wins"] = wins(times, range(rounds))
    out["halves"] = halves
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
    out = run(args.parent_dir, args.change_dir, args.workload, args.rounds, args.seed)
    text = json.dumps(out)
    print(text)
    if args.out:
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
