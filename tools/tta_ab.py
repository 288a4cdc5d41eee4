"""In-process A/B of ``harness.run_tta_phase`` between two checkouts.

Usage, from anywhere:

    python3 tools/tta_ab.py --parent-dir PARENT --change-dir CHANGE \\
        --rounds 24 --seed 908 --out ab.json

Both checkouts' ``sa_adapt`` packages are imported into one process (the
parent's first, then the change's, each under the package name in turn), so
the two sides share the interpreter, the BLAS threads and the heap, and no
between-process bias can enter. Each side trains its banks and draws its
stream at the ``tta-reference`` shape (C=256; 64x64, 32x32, 16x16, 8x8; K=4;
16 samples); the stream is generated once and replayed, so the timed calls
measure system time only. Every call loads fresh banks from the same bytes.
Both sides' reports must be identical. Rounds alternate which side runs
first. Prints (and optionally writes) per-side median, quartiles and every
call time, and ``change_wins``, the rounds the change was faster.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

LEVELS = ((64, 64), (32, 32), (16, 16), (8, 8))
SIDES = ("parent", "change")


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


def prepare(pkg, workloads, seed: int):
    """Trained bank bytes, a replayed stream and the config of one side."""
    cfg = pkg.config.RunConfig(k=4, seed=seed, tta_order="observe-first")
    train = workloads.domain_spec(pkg, cfg, 0, 4, 4, 256, LEVELS)
    banks, _ = pkg.harness.run_train_phase(cfg, train)
    spec = workloads.domain_spec(pkg, cfg, 1, 1, 16, 256, LEVELS)
    items = list(pkg.harness.generate_stream(spec))
    pkg.harness.generate_stream = lambda spec: iter(items)
    return pkg, cfg, [bank.save() for bank in banks], spec


def call(side) -> tuple[float, str]:
    pkg, cfg, blobs, spec = side
    banks = [pkg.style_memory_bank.load(blob) for blob in blobs]
    start = time.perf_counter()
    report = pkg.harness.run_tta_phase(cfg, banks, spec)
    return time.perf_counter() - start, report


def parse_args(doc: str, rounds: int) -> argparse.Namespace:
    """The flags every in-process A/B takes."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--parent-dir", type=Path, required=True)
    parser.add_argument("--change-dir", type=Path, required=True)
    parser.add_argument("--rounds", type=int, default=rounds)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path)
    return parser.parse_args()


def alternate(sides: dict, call, rounds: int) -> dict[str, list[float]]:
    """Per side, the seconds ``call(side)`` returns in each round; rounds
    alternate which side runs first."""
    times = {name: [] for name in SIDES}
    for r in range(rounds):
        for name in SIDES if r % 2 == 0 else SIDES[::-1]:
            times[name].append(call(sides[name]))
    return times


def summarize(out: dict, times: dict[str, list[float]], path: Path | None) -> None:
    """Add per-side median, quartiles and runs and ``change_wins`` to
    ``out``; print it and, with ``path``, write it there."""
    for name, values in times.items():
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"median_s": median, "q1_s": q1, "q3_s": q3, "runs_s": values}
    out["change_wins"] = sum(c < p for p, c in zip(times["parent"], times["change"]))
    text = json.dumps(out)
    print(text)
    if path:
        path.write_text(text + "\n")


def main() -> int:
    args = parse_args(__doc__, rounds=24)
    sys.path.insert(0, str(args.change_dir / "benchmarks"))
    import workloads

    sides = {}
    for name, checkout in zip(SIDES, (args.parent_dir, args.change_dir)):
        sides[name] = prepare(import_package(checkout), workloads, args.seed)
    keys = {name: workloads.report_key(call(side)[1]) for name, side in sides.items()}
    if keys["parent"] != keys["change"]:
        print("reports differ", file=sys.stderr)
        return 1
    times = alternate(sides, lambda side: call(side)[0], args.rounds)
    summarize({"seed": args.seed, "rounds": args.rounds, "reports_identical": True},
              times, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
