"""Out-of-program instrumentation: a stream clock and a span tracer.

Both work by replacing module attributes of the imported ``sa_adapt``
package inside the benchmark's own process and putting the originals back
afterwards. No source file of the package is changed.

* ``StreamClock`` wraps ``harness.generate_stream``. It times every
  ``next()`` on the real generator (synthetic test-data cost) and the gap
  between handing out an item and being asked for the next one, which is
  the system time spent on that item. The time after the last item until
  the pipeline returns is its ``finalize`` phase.
* ``Tracer`` wraps the public functions of the layers at every module that
  imported them. Each call records one span (name, start, end, parent,
  item) into in-memory lists; ``summary`` turns them into per-layer call
  counts, self times and computed quantities once the traced call is over.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import numpy as np

CALL_LEVEL = -1  # spans outside any stream item: prologue and finalize
GENERATION = -2  # spans inside a generate_stream next()


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "sa_adapt" and m]


def _patch_everywhere(original, replacement, undo):
    """Point every package-module attribute bound to ``original`` at ``replacement``."""
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


def _restore(undo):
    while undo:
        owner, attr, original = undo.pop()
        setattr(owner, attr, original)


class StreamClock:
    """Splits one pipeline call into generation, per-item system time and finalize."""

    def __init__(self, harness):
        self.harness = harness
        self.tracer: Tracer | None = None  # set per call to trace generation too
        self._undo = []
        self.reset()

    def reset(self) -> None:
        self.gen_s = 0.0
        self.first_next = None  # perf_counter at the first next()
        self.yields: list[float] = []  # when item i was handed out
        self.resumes: list[float] = []  # when item i + 1 was asked for
        self.stopped = None  # when the real generator was exhausted

    def install(self) -> None:
        real = self.harness.generate_stream
        clock = self

        def generate_stream(spec):
            gen = real(spec)
            while True:
                start = time.perf_counter()
                if clock.first_next is None:
                    clock.first_next = start
                else:
                    clock.resumes.append(start)
                tracer = clock.tracer
                if tracer is not None:
                    tracer.item = GENERATION
                    span = tracer.open("harness.generate_stream")
                try:
                    item = next(gen)
                except StopIteration:
                    end = time.perf_counter()
                    clock.gen_s += end - start
                    clock.stopped = end
                    if tracer is not None:
                        tracer.close(span)
                        tracer.item = CALL_LEVEL
                    return
                if tracer is not None:
                    tracer.close(span)
                    tracer.item = len(clock.yields)
                end = time.perf_counter()
                clock.gen_s += end - start
                clock.yields.append(end)
                yield item

        _patch_everywhere(real, generate_stream, self._undo)

    def uninstall(self) -> None:
        _restore(self._undo)

    def item_seconds(self) -> list[float]:
        return [r - y for y, r in zip(self.yields, self.resumes)]

    def finalize_seconds(self, call_end: float) -> float:
        return call_end - self.stopped if self.stopped is not None else 0.0


# per-layer hooks: derive computed quantities from arguments and results


def _nbytes(arr) -> int:
    return int(np.asarray(arr).size) * 8  # every map is float64


def _stats_bytes(tracer, args, kwargs, result):
    tracer.add("style_statistics.compute_stats.bytes_in", _nbytes(args[0]))


def _project_bytes(tracer, args, kwargs, result):
    tracer.add("style_projection.project.bytes_in", _nbytes(args[1]))


def _observe_action(tracer, args, kwargs, result):
    tracer.add(f"style_memory_bank.{result.action}", 1)


def _coverage(tracer, args, kwargs, result):
    share = result.token_masks.sum(axis=1) / result.token_masks.shape[1]
    tracer.samples["object_gating.token_coverage"].append(float(share.mean()))


def _attention_gflop(tracer, args, kwargs, result):
    """Matrix-product FLOPs of one masked cross-attention call.

    Per category with n attendable tokens: key and value projections
    (2 * n * d^2 each), query and output projections (2 * d^2 each), and
    the per-head logits and weighted sums (2 * n * d each over all heads).
    """
    queries, seq, masks = args[0], args[1], args[2]
    d = np.asarray(queries).shape[1]
    n = masks.token_masks.sum(axis=1)
    n = n[n > 0].astype(float)
    flops = np.sum(4.0 * n * d * d + 4.0 * n * d + 4.0 * d * d)
    tracer.add("class_query_attention.cross_attend.gflop", float(flops) / 1e9)


def _finite_elements(tracer, args, kwargs, result):
    tracer.add("tensor_core.require_finite.elements", int(np.asarray(args[0]).size))


class Tracer:
    """In-memory span recorder over the package's public layer functions."""

    def __init__(self):
        self._undo = []
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.items: list[int] = []
        self._stack: list[int] = []
        self.item = CALL_LEVEL
        self.totals: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)

    def add(self, name: str, amount) -> None:
        self.totals[name] += amount

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.items.append(self.item)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def _span(self, name, fn, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def _counter(self, name, fn, hook=None):
        tracer = self

        def counted(*args, **kwargs):
            tracer.totals[name + ".calls"] += 1
            if hook is not None:
                hook(tracer, args, kwargs, None)
            return fn(*args, **kwargs)

        return counted

    def install(self, pkg) -> None:
        """Wrap the layer functions at every package module that imported them."""
        harness = pkg.harness
        hooks = {
            pkg.style_statistics.compute_stats: _stats_bytes,
            pkg.style_projection.project: _project_bytes,
            pkg.object_gating.align_to_tokens: _coverage,
            pkg.class_query_attention.cross_attend: _attention_gflop,
        }
        spans = {}
        for module in (harness, pkg.style_projection):
            prefix = module.__name__.split(".")[-1]
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                    and fn is not harness.generate_stream  # timed by StreamClock
                ):
                    spans[fn] = f"{prefix}.{attr}"
        for module, attr in (
            (pkg.style_statistics, "compute_stats"),
            (pkg.object_gating, "build_masks"),
            (pkg.object_gating, "align_to_tokens"),
            (pkg.class_query_attention, "tokens_from_pyramid"),
            (pkg.class_query_attention, "cross_attend"),
            (pkg.contrastive_alignment, "contrastive_loss"),
        ):
            spans[getattr(module, attr)] = f"{module.__name__.split('.')[-1]}.{attr}"
        for fn, name in spans.items():
            _patch_everywhere(fn, self._span(name, fn, hooks.get(fn)), self._undo)

        core = pkg.tensor_core
        _patch_everywhere(
            core.require_finite,
            self._counter("tensor_core.require_finite", core.require_finite, _finite_elements),
            self._undo,
        )
        _patch_everywhere(
            core.check_feature_map,
            self._counter("tensor_core.check_feature_map", core.check_feature_map),
            self._undo,
        )

        bank_cls = pkg.style_memory_bank.StyleMemoryBank
        for attr, hook in (("observe", _observe_action), ("distances", None)):
            original = vars(bank_cls)[attr]
            setattr(bank_cls, attr, self._span(f"style_memory_bank.{attr}", original, hook))
            self._undo.append((bank_cls, attr, original))

    def uninstall(self) -> None:
        _restore(self._undo)

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-span (duration, self time, parent); self = duration - children."""
        starts = np.asarray(self.starts)
        duration = np.asarray(self.ends) - starts
        parents = np.asarray(self.parents, dtype=int)
        has_parent = parents >= 0
        child = np.bincount(
            parents[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        return duration, duration - child, parents

    def summary(self) -> dict[str, float]:
        """Call counts and self seconds per span name, plus the hook totals."""
        out: dict[str, float] = defaultdict(float)
        if self.names:
            _, self_s, _ = self.self_times()
            for name, s in zip(self.names, self_s):
                out[name + ".calls"] += 1
                out[name + ".self_s"] += float(s)
        out.update(self.totals)
        for name, values in self.samples.items():
            out[name] = float(np.mean(values))
        return dict(out)


def span_accounting(tracer: Tracer, clock: StreamClock, wall_s: float) -> dict:
    """How the traced spans of one call account for its items' system time.

    For every item: its system time (hand-out to next request; the whole
    call when there is no stream) and the summed self time of the spans it
    caused; the difference is untraced glue code. ``violations`` counts
    children outside their parent, spans outside their item, and negative
    self times, each of which would make the self times overlap or leak.
    """
    if not tracer.names:
        return {"items": [], "violations": 0}
    _, self_s, parents = tracer.self_times()
    starts, ends = np.asarray(tracer.starts), np.asarray(tracer.ends)
    items = np.asarray(tracer.items)
    has = parents >= 0
    p = parents[has]
    violations = int(np.sum(starts[has] < starts[p]) + np.sum(ends[has] > ends[p]))
    violations += int(np.sum(self_s < -1e-9))
    rows = []
    if clock.yields:
        for i, (y, r) in enumerate(zip(clock.yields, clock.resumes)):
            mine = items == i
            violations += int(np.sum(starts[mine] < y) + np.sum(ends[mine] > r))
            rows.append((r - y, float(self_s[mine].sum())))
    else:
        rows.append((wall_s, float(self_s.sum())))
    return {"items": rows, "violations": violations}
