"""In-process A/B of the stream phase of ``harness.run_train_phase`` between
two checkouts.

Usage, from anywhere:

    python3 tools/train_ab.py --parent-dir PARENT --change-dir CHANGE \\
        --rounds 12 --seed 5 --out ab.json

Both checkouts' ``sa_adapt`` packages are imported into one process (see
``tta_ab.py``). Each side draws the ``train-churn`` stream at ``--seed``
(the sizes of ``benchmarks/workloads.py``: C=64; 8x8 and 4x4; K=8; 12
clusters of 200 samples) once and replays it, so the timed calls measure
system time only. The replayed stream marks the moment ``run_train_phase``
asks for the item after the last one; the time from the call's start to that
mark is the stream phase (statistics and ``observe`` per sample and level),
and the offline k-means and matching after it are not timed. Both sides'
reports and saved bank bytes must be identical. Rounds alternate which side
runs first. Prints (and optionally writes) per-side median, quartiles and
every stream-phase time, and ``change_wins``, the rounds the change was
faster.
"""

from __future__ import annotations

import sys
import time

from tta_ab import SIDES, alternate, import_package, parse_args, summarize


def prepare(pkg, workloads, seed: int):
    """The config, spec and stream-end marks of one side, with the stream replayed."""
    size = workloads.SIZES["train-churn"]
    cfg = pkg.config.RunConfig(k=size["k"], seed=seed)
    spec = workloads.domain_spec(
        pkg, cfg, 0, size["clusters"], size["per_cluster"], size["channels"], size["levels"]
    )
    items = list(pkg.harness.generate_stream(spec))
    marks = []

    def replay(spec):
        yield from items
        marks.append(time.perf_counter())

    pkg.harness.generate_stream = replay
    return pkg, cfg, spec, marks


def call(side):
    """One ``run_train_phase``: its stream-phase seconds and its outputs' text."""
    pkg, cfg, spec, marks = side
    start = time.perf_counter()
    banks, report = pkg.harness.run_train_phase(cfg, spec)
    return marks[-1] - start, report, [bank.save() for bank in banks]


def main() -> int:
    args = parse_args(__doc__, rounds=12)
    sys.path.insert(0, str(args.change_dir / "benchmarks"))
    import workloads

    sides = {}
    for name, checkout in zip(SIDES, (args.parent_dir, args.change_dir)):
        sides[name] = prepare(import_package(checkout), workloads, args.seed)
    outputs = {}
    for name, side in sides.items():
        _, report, blobs = call(side)
        outputs[name] = (workloads.report_key(report), blobs)
    if outputs["parent"] != outputs["change"]:
        print("reports or bank bytes differ", file=sys.stderr)
        return 1
    times = alternate(sides, lambda side: call(side)[0], args.rounds)
    summarize({"seed": args.seed, "rounds": args.rounds, "reports_identical": True,
               "banks_identical": True}, times, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
