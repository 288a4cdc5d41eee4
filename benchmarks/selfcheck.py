"""Fast self-check of the benchmark at tiny sizes (a few seconds).

    python3 benchmarks/selfcheck.py

For every workload, untraced and traced, it checks that

* the run is correct and the final metrics are exactly the ``end_to_end``
  or ``per_layer`` names of ``BENCHMARK.json``, each with its unit, and
  every pipeline-named metric and ``error_rate`` is printed with a unit;
* the stream clock partitions each call: prologue, per-item system time,
  generation and finalize add up to the call's wall time;
* in traced calls every span lies inside its parent and its item, self
  times are non-negative, and for each item the traced self times plus an
  untraced remainder (never negative) make up the item's system time;
* each workload exercises the layers it was chosen for.

Exits 1 and lists the failures if any check fails.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import TINY

EXERCISED = {  # per-layer counts that must be non-zero on each workload
    "tta-reference": (
        "style_projection.project.calls",
        "style_memory_bank.observe.calls",
        "style_memory_bank.fuse",
        "style_statistics.compute_stats.calls",
        "tensor_core.check_feature_map.calls",
    ),
    "train-churn": (
        "style_memory_bank.observe.calls",
        "style_memory_bank.replace",
        "harness.offline_kmeans.calls",
        "harness.match_to_centers.calls",
    ),
    "ocl-gated": (
        "class_query_attention.cross_attend.calls",
        "contrastive_alignment.contrastive_loss.calls",
        "object_gating.build_masks.calls",
    ),
}
TOLERANCE_S = 1e-3


def check_workload(name: str, trace: bool, spec: dict, failures: list[str]) -> None:
    def expect(condition: bool, message: str) -> None:
        if not condition:
            failures.append(f"{name} trace={int(trace)}: {message}")

    lines: list[str] = []
    workload, setup_s, records = run.collect(name, 1, 0.01, trace, sizes=TINY)
    result = run.summarize(workload, setup_s, records, trace, emit=lines.append)
    expect(result["correct"] and result["failed"] == 0, f"run not correct: {result}")
    expect(result["attempted"] >= 1, "nothing attempted")

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(emitted == declared, f"metrics {emitted} differ from BENCHMARK.json {declared}")
    expect(
        all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
        "a metric value is not a number",
    )
    printed = {line.split()[0]: line.split()[-1] for line in lines if len(line.split()) == 3}
    wanted = ["error_rate", *declared]
    if not trace:
        wanted += list(run.PIPELINE_NAMES[name])
    for metric in wanted:
        expect(bool(printed.get(metric)), f"{metric} not printed with a unit")

    for r in records:
        parts = r["prologue_s"] + sum(r["items_s"]) + r["gen_s"] + r["finalize_s"]
        if r["finalize_s"] or r["gen_s"]:  # stream calls only
            expect(abs(parts - r["wall_s"]) < TOLERANCE_S,
                   f"call {r['index']}: parts {parts} != wall {r['wall_s']}")
        if not r["traced"]:
            continue
        acc = r["accounting"]
        expect(acc["violations"] == 0, f"call {r['index']}: {acc['violations']} span violations")
        expect(len(acc["items"]) == workload.items_per_call, "not every item accounted")
        for wall, traced_self in acc["items"]:
            expect(-1e-9 <= wall - traced_self <= wall, f"item self {traced_self} vs wall {wall}")
        for layer in EXERCISED[name]:
            expect(r["layers"].get(layer, 0) > 0, f"{layer} is zero")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    for name in run.PIPELINE_NAMES:
        for trace in (False, True):
            check_workload(name, trace, spec, failures)
    for failure in failures:
        print("FAIL", failure)
    print("selfcheck", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    run.cap_blas_threads()
    sys.exit(main())
