"""Gather parent/change pairs of ``benchmarks/run.py`` runs into one JSON file.

Usage, from anywhere (standard library only):

    python3 tools/bench_pairs.py --parent-dir PARENT --change-dir CHANGE \\
        --pairs ocl-gated=10 --pairs tta-reference=5 --pairs train-churn=5 \\
        --first-seed 811 --seconds 25 --trace-seed 5 --out BENCH_8.json

``PARENT`` and ``CHANGE`` are two checkouts (a ``git clone`` or a ``git
archive`` export of the parent commit, and the tree under test); each runs
its own ``benchmarks/run.py`` against its own ``src``. Runs are strictly
sequential, one process at a time. Pair ``i`` of a workload uses seed
``first_seed + i`` (seeds keep counting across the workloads in the order
given), and the side that runs first alternates from pair to pair, starting
with the parent. ``--trace-seed`` adds one ``--trace 1`` pair per workload,
kept in ``runs`` for its per-layer counts and left out of ``summary``.

Every child runs with ``CHILD_ENV`` (``MALLOC_MMAP_THRESHOLD_=131072``) added
to the environment, so that its ``peak_rss_mb`` does not follow glibc's moving
mmap threshold. ``--default-malloc`` leaves it out: the children then run as
the benchmark's own command runs, and read the ``peak_rss_mb`` it gates. The
output holds the setting used (``child_env``), each side's
resolved checkout path (``checkouts``; a process's ``peak_rss_mb`` has been
seen to depend on the directory that holds its checkout), every run (side,
checkout, workload, seed, trace flag, return code, the ``host`` line, the
final JSON line of ``run.py``, under ``printed`` the value of each ``name
value unit`` line it printed, and ``minor_faults``, the child's minor page
faults: the ``ru_minflt`` growth of ``getrusage(RUSAGE_CHILDREN)`` across the
run) and, per workload, a summary of the untraced runs: both sides'
``minor_faults`` and ``minor_faults_per_item`` (over the run's attempted items;
set-up faults included) with median, quartiles and 95th percentile, and for
each end-to-end metric both sides' runs with median, quartiles and
95th percentile (``statistics.quantiles``, inclusive method, which is numpy's
linear percentile), the change/parent ratio of the medians, ``change_wins``,
the pairs in which the change read better (ties count for neither side), the
metric's ``bound`` from the ``end_to_end`` list of the ``BENCHMARK.json``
beside this tool, ``parent_spread``, the parent's (q3 - q1) / median, and
``resolved``. A metric is unresolved (``false``) when the parent's spread
exceeds the bound, unless every change run reads better than every parent run:
its runs then vary too widely for the bound to tell a regression or a gain
from noise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Set in every child's environment. glibc raises its mmap threshold to the size
# of each mmapped block that is freed, so later blocks of that size come from
# the heap and a process's peak RSS follows the order of its large allocations:
# tta-reference read ~80 or ~88 MB as its source bytes changed. A fixed
# threshold turns that off and keeps every block of 128 KiB or more on mmap.
CHILD_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}


def end_to_end_metrics() -> dict[str, tuple[bool, float]]:
    """{name: (higher is better, bound)} of each end-to-end metric of the benchmark."""
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: (m["better"] == "higher", m["bound"]) for m in spec["end_to_end"]}


def git_tree_hash(path: Path) -> str:
    """The git tree id ``path`` would have if committed as it stands.

    Compare it with ``git rev-parse <commit>:src`` to tell which commit a
    checkout without ``.git`` held. Bytecode caches are skipped.
    """
    entries = []
    for child in path.iterdir():
        if child.name == "__pycache__" or child.suffix == ".pyc":
            continue
        if child.is_dir():
            mode, digest, key = b"40000", bytes.fromhex(git_tree_hash(child)), child.name + "/"
        else:
            data = child.read_bytes()
            blob = hashlib.sha1(b"blob %d\0" % len(data) + data).digest()
            mode = b"100755" if os.access(child, os.X_OK) else b"100644"
            digest, key = blob, child.name
        entries.append((key, mode + b" " + child.name.encode() + b"\0" + digest))
    body = b"".join(entry for _, entry in sorted(entries))
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


def run_once(checkout: Path, side: str, workload: str, seed: int, seconds: float,
             trace: int, child_env: dict) -> dict:
    """One ``run.py`` process; its host line and final JSON line, parsed."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    print(f"{side:6} {workload} seed {seed} trace {trace}", file=sys.stderr, flush=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False,
                          env={**os.environ, **child_env})
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    lines = proc.stdout.splitlines()
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
        sys.stderr.write(proc.stderr)
    commit = host.get("git_commit", "unknown")
    records = [line.split() for line in lines[:-1] if not line.startswith("host ")]
    return {
        "side": side, "checkout": str(checkout), "workload": workload, "seed": seed,
        "seconds": seconds, "trace": trace,
        "commit": side if commit == "unknown" else commit, "host": host,
        "returncode": proc.returncode, "result": result, "minor_faults": faults,
        "printed": {r[0]: float(r[1]) for r in records if len(r) == 3},
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    p95 = statistics.quantiles(values, n=20, method="inclusive")[18]
    return {"median": median, "q1": q1, "q3": q3, "p95": p95, "n": len(values), "runs": values}


def summarize(runs: list[dict], metrics: dict[str, tuple[bool, float]]) -> dict:
    """Per workload: both sides' ``metrics`` over the untraced runs."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        plain = [r for r in runs if r["workload"] == workload and not r["trace"]]
        seeds = sorted({r["seed"] for r in plain})
        by = {(r["side"], r["seed"]): r["result"] for r in plain}
        ok = all(by.get((side, s)) is not None for side in SIDES for s in seeds)
        summary = {
            "seeds": seeds,
            "all_correct": ok and all(by[side, s]["correct"] for side in SIDES for s in seeds),
        }
        if ok:
            for key, name in (("attempted", "attempted_items"), ("failed", "failed_items")):
                summary[name] = {side: sum(by[side, s][key] for s in seeds) for side in SIDES}
            faults = {side: [r["minor_faults"] for r in plain if r["side"] == side]
                      for side in SIDES}
            per_item = {side: [r["minor_faults"] / max(r["result"]["attempted"], 1)
                               for r in plain if r["side"] == side] for side in SIDES}
            for name, values in (("minor_faults", faults), ("minor_faults_per_item", per_item)):
                summary[name] = {side: spread(values[side]) for side in SIDES}
            for metric, (higher, bound) in metrics.items():
                sign = 1.0 if higher else -1.0  # the better value has the larger sign * value
                values = {side: [by[side, s]["metrics"][metric]["value"] for s in seeds]
                          for side in SIDES}
                scored = {side: [sign * v for v in values[side]] for side in SIDES}
                wins = sum(c > p for p, c in zip(scored["parent"], scored["change"]))
                sides = {side: spread(values[side]) for side in SIDES}
                parent = sides["parent"]
                parent_spread = (parent["q3"] - parent["q1"]) / parent["median"]
                summary[metric] = {
                    **sides,
                    "change_over_parent": (statistics.median(values["change"])
                                           / statistics.median(values["parent"])),
                    "change_wins": f"{wins}/{len(seeds)}",
                    "bound": bound,
                    "parent_spread": parent_spread,
                    "resolved": (parent_spread <= bound
                                 or min(scored["change"]) > max(scored["parent"])),
                }
        out[workload] = summary
    return out


def pair_plan(pairs: list[tuple[str, int]], first_seed: int, trace_seed: int | None):
    """(workload, seed, trace, sides in order) for every pair, in run order."""
    seed = first_seed
    for workload, count in pairs:
        if trace_seed is not None:
            yield workload, trace_seed, 1, SIDES
        for i in range(count):
            yield workload, seed, 0, SIDES if i % 2 == 0 else SIDES[::-1]
            seed += 1


def parse_pairs(text: str) -> tuple[str, int]:
    workload, _, count = text.partition("=")
    if not count.isdigit() or int(count) < 2:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=N with N >= 2, got {text!r}")
    return workload, int(count)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-dir", type=Path, required=True)
    parser.add_argument("--change-dir", type=Path, required=True)
    parser.add_argument("--pairs", type=parse_pairs, action="append", required=True,
                        metavar="WORKLOAD=N", help="untraced pairs of one workload; repeatable")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace-seed", type=int, help="seed of one traced pair per workload")
    parser.add_argument("--about", default="", help="free text stored with the runs")
    parser.add_argument("--default-malloc", action="store_true",
                        help="run without CHILD_ENV, as the benchmark's command runs")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    dirs = {"parent": args.parent_dir.resolve(), "change": args.change_dir.resolve()}
    for side, path in dirs.items():
        if not (path / "benchmarks" / "run.py").is_file():
            parser.error(f"--{side}-dir {path} has no benchmarks/run.py")

    child_env = {} if args.default_malloc else CHILD_ENV
    runs = [
        run_once(dirs[side], side, workload, seed, args.seconds, trace, child_env)
        for workload, seed, trace, order in pair_plan(args.pairs, args.first_seed,
                                                      args.trace_seed)
        for side in order
    ]
    parent_commits = {r["commit"] for r in runs if r["side"] == "parent"}
    document = {
        "about": args.about,
        "command": "python3 benchmarks/run.py --workload <w> --seed <s> --seconds <n> "
                   "--trace <0|1>",
        "parent": parent_commits.pop() if len(parent_commits) == 1 else "unknown",
        "checkouts": {side: str(path) for side, path in dirs.items()},
        "child_env": child_env,
        "change_src_tree": git_tree_hash(dirs["change"] / "src"),
        "runs": runs,
        "summary": summarize(runs, end_to_end_metrics()),
    }
    args.out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    failed = [r for r in runs if r["returncode"] != 0 or not (r["result"] or {}).get("correct")]
    for r in failed:
        print(f"failed: {r['side']} {r['workload']} seed {r['seed']}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
