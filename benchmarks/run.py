"""End-to-end and per-layer benchmark of the sa-adapt pipelines.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload tta-reference --seed 1 --seconds 25 --trace 0
    python3 benchmarks/selfcheck.py     # tiny-size check of the benchmark itself

Workloads are described in ``workloads.py``. One process runs one workload
closed loop with a single caller: the next pipeline call starts when the
previous one has returned. Set-up (training and persisting banks, a warm-up
call) is repeated ``SETUP_REPEATS`` times and reported as the median
``setup_s``; then calls run until ``--seconds`` have passed. Every report is
checked: reports of calls on equal inputs must agree exactly with one final
reference call made without any instrumentation installed, and the
workload's own checks must pass (bit-exact bank persistence, frozen
prototype counts, gradient tolerance). Items of a call whose checks fail
count as failed.

Synthetic-stream generation is excluded from system time by a wrapper over
``harness.generate_stream`` (see ``tracing.py``). Calls of ``run_ocl_demo``
have no stream; there the whole call is the item.

``--trace 0`` prints the end-to-end metrics; the final JSON line uses
workload-neutral names, the lines above it also the pipeline's own names:

    items_per_s   items / their summed system time (stream     tta.pyramids_per_s,
                  phase only; pairs for ocl)                   train.samples_per_s,
                                                               ocl.pairs_per_s
    call_s.mean   mean system time of one pipeline call        (train: mostly
                  (generation excluded)                        train.finalize_s)
    setup_s       median set-up time
    peak_rss_mb   peak resident set size of the process

Item-time percentiles (``item_ms.p25``/``.p50``/``.p90``,
``tta.pyramid_ms.p50``/``.p90``, ``ocl.pair_s.p50``) and the median
``train.finalize_s`` are printed but not in the JSON line. Each CPU of a
shared host alternates between full speed and phases of 5-15 s at about
0.7x. A percentile of item time then lands on one speed or the other,
depending on how much of the run was slow: over ten runs of identical code
the quartile spread of the median reached 37%, and of the lower quartile
27%. Means move only in proportion to the slow share (7-10%), so the gated
timings are means.

``--trace 1`` alternates untraced and traced calls and prints the per-layer
metrics: per pipeline call, the median over traced calls of each layer's
call count, self time and computed quantities, and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are ``name value unit`` records and one ``host`` line of metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

END_TO_END = {
    "items_per_s": "1/s",
    "call_s.mean": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "tensor_core.require_finite.calls": "count",
    "tensor_core.require_finite.elements": "count",
    "tensor_core.check_feature_map.calls": "count",
    "style_statistics.compute_stats.calls": "count",
    "style_statistics.compute_stats.self_s": "s",
    "style_statistics.compute_stats.bytes_in": "bytes_computed",
    "style_projection.project.calls": "count",
    "style_projection.project.self_s": "s",
    "style_projection.project.bytes_in": "bytes_computed",
    "style_projection.projection_weights.self_s": "s",
    "style_memory_bank.observe.calls": "count",
    "style_memory_bank.observe.self_s": "s",
    "style_memory_bank.distances.calls": "count",
    "style_memory_bank.distances.self_s": "s",
    "style_memory_bank.bootstrap": "count",
    "style_memory_bank.fuse": "count",
    "style_memory_bank.replace": "count",
    "style_memory_bank.save_s": "s",
    "style_memory_bank.load_s": "s",
    "style_memory_bank.bytes": "bytes",
    "harness.run_train_phase.self_s": "s",
    "harness.run_tta_phase.self_s": "s",
    "harness.run_ocl_demo.self_s": "s",
    "harness.offline_kmeans.self_s": "s",
    "harness.match_to_centers.self_s": "s",
    "harness.generate_stream.s": "s",
    "object_gating.build_masks.self_s": "s",
    "object_gating.align_to_tokens.self_s": "s",
    "object_gating.token_coverage": "ratio",
    "class_query_attention.tokens_from_pyramid.self_s": "s",
    "class_query_attention.cross_attend.calls": "count",
    "class_query_attention.cross_attend.self_s": "s",
    "class_query_attention.cross_attend.gflop": "GFLOP_computed",
    "contrastive_alignment.contrastive_loss.calls": "count",
    "contrastive_alignment.contrastive_loss.self_s": "s",
    "harness.fd_gradient.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# The end-to-end metrics under the names of the pipeline they measure.
PIPELINE_NAMES = {
    "tta-reference": {
        "tta.pyramids_per_s": ("items_per_s", 1.0, "1/s"),
        "tta.pyramid_ms.p50": ("item_ms.p50", 1.0, "ms"),
        "tta.pyramid_ms.p90": ("item_ms.p90", 1.0, "ms"),
    },
    "train-churn": {
        "train.samples_per_s": ("items_per_s", 1.0, "1/s"),
        "train.finalize_s": ("finalize_s.p50", 1.0, "s"),
    },
    "ocl-gated": {
        "ocl.pairs_per_s": ("items_per_s", 1.0, "1/s"),
        "ocl.pair_s.p50": ("item_ms.p50", 1e-3, "s"),
    },
}


def cap_blas_threads() -> None:
    """Keep BLAS thread counts at or below the CPUs this process may use.

    Must run before numpy is imported; unset variables leave the library
    default, which is the CPU count.
    """
    cpus = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var)
        if value is not None and not (value.isdigit() and 1 <= int(value) <= cpus):
            os.environ[var] = str(cpus)


def import_package():
    """Import ``sa_adapt`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "sa_adapt" / "__init__.py").is_file():
        raise SystemExit(f"error: no sa_adapt package under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    import sa_adapt
    import sa_adapt.cli
    import sa_adapt.harness

    if Path(sa_adapt.__file__).resolve().parent != (src / "sa_adapt").resolve():
        raise SystemExit(f"error: imported sa_adapt from {sa_adapt.__file__}, not {src}")
    return sa_adapt


def blas_threads(np) -> int | None:
    """Thread count of numpy's bundled OpenBLAS, asked through its C API."""
    import ctypes

    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_metadata() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(np),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def quantile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def measure_call(pkg, workload, index, clock, tracer):
    """Run and check one pipeline call; returns its record and canonical report text."""
    from tracing import span_accounting
    from workloads import report_key

    clock.reset()
    clock.tracer = tracer
    if tracer is not None:
        tracer.reset()
        tracer.install(pkg)
    errors = []
    start = time.perf_counter()
    try:
        report = workload.call(index)
    except Exception as exc:  # a failing call is counted, the run goes on
        traceback.print_exc()
        report = None
        errors.append(f"call raised {exc!r}")
    end = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    items = clock.item_seconds()
    if not clock.yields:  # no stream: the whole call is the item
        items = [end - start - clock.gen_s]
    elif report is not None and len(items) != workload.items_per_call:
        errors.append(f"{len(items)} items timed, expected {workload.items_per_call}")
    record = {
        "index": index,
        "prologue_s": clock.first_next - start if clock.first_next is not None else 0.0,
        "traced": tracer is not None,
        "completed": report is not None,
        "wall_s": end - start,
        "gen_s": clock.gen_s,
        "system_s": end - start - clock.gen_s,
        "items_s": items,
        "finalize_s": clock.finalize_seconds(end),
        "errors": errors,
    }
    if tracer is not None:
        record["layers"] = tracer.summary()
        record["accounting"] = span_accounting(tracer, clock, end - start)
    if report is not None:
        errors += workload.check(report)
        report = report_key(report)
    return record, report


def collect(workload_name: str, seed: int, seconds: float, trace: bool, sizes=None):
    """Set up, measure and check one workload.

    Returns (workload, set-up seconds per repeat, one record per call); the
    last record is the uninstrumented reference call.
    """
    pkg = import_package()
    from tracing import StreamClock, Tracer
    from workloads import SIZES, WORKLOADS

    cls = WORKLOADS[workload_name]
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = cls(pkg, seed, sizes or SIZES)
        workload.setup()
        setup_s.append(time.perf_counter() - start)

    clock = StreamClock(pkg.harness)
    tracer = Tracer() if trace else None
    records, keys = [], []
    clock.install()
    try:
        start = time.perf_counter()
        while len(records) < (2 if trace else 1) or time.perf_counter() - start < seconds:
            n = len(records)
            traced = trace and n % 2 == 1
            index = n // 2 if trace else n
            record, key = measure_call(pkg, workload, index, clock, tracer if traced else None)
            records.append(record)
            keys.append(key)
    finally:
        clock.uninstall()
    # the reference call: neither stream wrapper nor tracer installed
    record, key = measure_call(pkg, workload, 0, clock, None)
    records.append(record | {"reference": True})
    keys.append(key)

    # every report must equal the reference's, or the first on its input
    expected: dict[int, str] = {}
    for record, key in zip(records[-1:] + records[:-1], keys[-1:] + keys[:-1]):
        if key is not None and expected.setdefault(workload.input_key(record["index"]), key) != key:
            record["errors"].append("report differs from the reference on the same input")

    return workload, setup_s, records


def summarize(workload, setup_s, records, trace: bool, emit=print) -> dict:
    """Print every metric record and return the result object."""
    timed = [r for r in records if not r.get("reference")]
    attempted = len(timed) * workload.items_per_call
    failed = sum(workload.items_per_call for r in timed if r["errors"])
    for r in records:
        for message in r["errors"]:
            print(f"check failed (call {r['index']}): {message}", file=sys.stderr)
    reference_ok = not records[-1]["errors"]
    plain = [r for r in timed if r["completed"] and not r["traced"]]
    traced = [r for r in timed if r["completed"] and r["traced"]]
    if not plain or (trace and not traced):
        raise SystemExit("error: no pipeline call completed, nothing to time")
    item_s = [s for r in plain for s in r["items_s"]]
    e2e = {
        "items_per_s": len(item_s) / sum(item_s),
        "call_s.mean": statistics.fmean(r["system_s"] for r in plain),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {  # printed only: see the module docstring
        "item_ms.p25": quantile(item_s, 25) * 1e3,
        "item_ms.p50": quantile(item_s, 50) * 1e3,
        "item_ms.p90": quantile(item_s, 90) * 1e3,
        "finalize_s.p50": statistics.median(r["finalize_s"] for r in plain),
    }
    derived = e2e | info

    emit(f"workload {workload.name} seed {workload.seed} calls {len(plain)} items {len(item_s)}"
         f" traced_calls {len(traced)} setups {len(setup_s)}")
    if trace:
        metrics = per_layer_metrics(workload, plain, traced)
        units = PER_LAYER
    else:
        metrics = e2e
        units = END_TO_END
        for name, (source, scale, unit) in PIPELINE_NAMES[workload.name].items():
            emit(f"{name} {derived[source] * scale!r} {unit}")
        for name in ("item_ms.p25", "item_ms.p50", "item_ms.p90"):
            emit(f"{name} {info[name]!r} ms")
        emit(f"harness.generate_stream.s {statistics.median(r['gen_s'] for r in plain)!r} s")
    emit(f"error_rate {failed / attempted!r} ratio")
    for name, value in metrics.items():
        emit(f"{name} {value!r} {units[name]}")
    emit("host " + json.dumps(host_metadata(), sort_keys=True))
    return {
        "correct": failed == 0 and reference_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def per_layer_metrics(workload, plain, traced) -> dict:
    """Median over traced calls of each layer value; set-up layers from set-up."""
    out = {}
    for name in PER_LAYER:
        out[name] = statistics.median(r["layers"].get(name, 0.0) for r in traced)
    for i, name in enumerate(("save_s", "load_s", "bytes")):
        values = [t[i] for t in workload.round_trips]
        out[f"style_memory_bank.{name}"] = statistics.median(values) if values else 0
    out["harness.generate_stream.s"] = statistics.median(r["gen_s"] for r in plain)
    out["trace.overhead_ratio"] = (
        statistics.median(r["system_s"] for r in traced)
        / statistics.median(r["system_s"] for r in plain)
        - 1.0
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(PIPELINE_NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    trace = bool(args.trace)
    result = summarize(*collect(args.workload, args.seed, args.seconds, trace), trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    cap_blas_threads()
    raise SystemExit(main())
