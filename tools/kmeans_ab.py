"""In-process A/B of ``harness.offline_kmeans`` between two checkouts.

Usage, from anywhere:

    python3 tools/kmeans_ab.py --parent-dir PARENT --change-dir CHANGE \\
        --rounds 12 --seed 5 --out ab.json

Both checkouts' ``sa_adapt`` packages are imported into one process (see
``tta_ab.py``). The points are the style vectors the ``train-churn``
workload's banks observe at ``--seed`` (C=64; 8x8 and 4x4; 12 clusters of
200 samples), one (2400, 128) array per level. A call clusters both levels
as ``run_train_phase`` does (K=8, 50 restarts, the run's seed). Each side's
``_nearest_centers`` is wrapped to count its ``nearest`` calls, one per
Lloyd iteration, and every call's centers, assignment, inertia and
iteration count must be equal on both sides. Rounds alternate which side
runs first. Prints (and optionally writes) per-side median, quartiles and
every call time, the iterations per call, and ``change_wins``, the rounds
the change was faster.
"""

from __future__ import annotations

import sys
import time

import numpy as np
from tta_ab import SIDES, alternate, import_package, parse_args, summarize

LEVELS = ((8, 8), (4, 4))
K = 8


def count_iterations(harness) -> list[int]:
    """Wrap ``harness._nearest_centers``; the returned list counts ``nearest`` calls."""
    counter = [0]
    make = harness._nearest_centers

    def counting(points):
        nearest = make(points)

        def counted(centers):
            counter[0] += 1
            return nearest(centers)

        return counted

    harness._nearest_centers = counting
    return counter


def churn_points(pkg, workloads, seed: int) -> list:
    """Per level, the (N, 2C) style vectors of the train-churn stream."""
    cfg = pkg.config.RunConfig(k=K, seed=seed)
    spec = workloads.domain_spec(pkg, cfg, 0, 12, 200, 64, LEVELS)
    vectors = [[] for _ in LEVELS]
    for pyramid, _ in pkg.harness.generate_stream(spec):
        for li, fmap in enumerate(pyramid):
            stats = pkg.harness.compute_stats(fmap, cfg.epsilon)[0]
            vectors[li].append(pkg.harness.style_vector(stats))
    return [np.stack(level) for level in vectors]


def call(side) -> float:
    """Cluster every level once; record the Lloyd iterations and result bytes."""
    harness, counter, points, seed, seen = side
    counter[0] = 0
    start = time.perf_counter()
    results = [harness.offline_kmeans(p, K, restarts=50, seed=seed) for p in points]
    elapsed = time.perf_counter() - start
    seen["iterations"].add(counter[0])
    seen["results"].add(repr([(c.tobytes(), a.tobytes(), repr(i)) for c, a, i in results]))
    return elapsed


def main() -> int:
    args = parse_args(__doc__, rounds=12)
    sys.path.insert(0, str(args.change_dir / "benchmarks"))
    import workloads

    sides = {}
    for name, checkout in zip(SIDES, (args.parent_dir, args.change_dir)):
        pkg = import_package(checkout)
        sides[name] = [pkg.harness, count_iterations(pkg.harness)]
    points = churn_points(pkg, workloads, args.seed)
    seen = {"iterations": set(), "results": set()}  # over both sides
    for side in sides.values():
        side += [points, args.seed, seen]
    times = alternate(sides, call, args.rounds + 1)  # round 0 warms up and is not timed
    if len(seen["results"]) != 1 or len(seen["iterations"]) != 1:
        print(f"results differ; iterations per call {sorted(seen['iterations'])}", file=sys.stderr)
        return 1
    out = {"seed": args.seed, "rounds": args.rounds, "results_identical": True,
           "points": [list(p.shape) for p in points],
           "lloyd_iterations_per_call": seen["iterations"].pop()}
    summarize(out, {name: values[1:] for name, values in times.items()}, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
