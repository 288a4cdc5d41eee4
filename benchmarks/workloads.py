"""The three benchmark workloads: inputs from a seed, one pipeline call, checks.

Each workload drives one real pipeline of ``sa_adapt.harness``:

* ``tta-reference`` -- ``run_tta_phase`` over an unseen one-cluster stream on
  the reference pyramid (C=256; 64x64, 32x32, 16x16, 8x8; K=4). The top
  level alone is 8 MiB, beyond the L2 cache, so statistics and projection
  dominate and the bank does little. Set-up trains the banks with
  ``run_train_phase`` and round-trips them through ``save``/``load``.
* ``train-churn`` -- ``run_train_phase`` with C=64 on 8x8 and 4x4, K=8 and 12
  clusters of 200 samples. More clusters than prototypes keep the bank
  replacing, and the small maps make ``observe``/``distances`` dominate the
  stream; it is also the only workload running ``offline_kmeans`` and
  ``match_to_centers``. Projection is idle here.
* ``ocl-gated`` -- one ``run_ocl_demo`` per synthetic annotated pair (a new
  seed per pair): 20 categories, d=256, 8 heads, 6 blocks, tokens from
  64x64, 32x32, 16x16 and 8x8 levels of a 512x512 image. The only workload
  using gating, class-query attention and the contrastive loss; the style
  adapter is bypassed.

An item is the unit the pipeline streams: a pyramid, a sample, or a pair.
"""

from __future__ import annotations

import argparse
import json
import time

REFERENCE_LEVELS = ((64, 64), (32, 32), (16, 16), (8, 8))

# Full sizes are the benchmark; TINY keeps every code path for the self-check.
SIZES = {
    "tta-reference": dict(
        channels=256, levels=REFERENCE_LEVELS, train_clusters=4, train_per_cluster=4,
        stream_samples=16, warmup_samples=2,
    ),
    "train-churn": dict(
        channels=64, levels=((8, 8), (4, 4)), k=8, clusters=12, per_cluster=200,
        warmup_per_cluster=1,
    ),
    "ocl-gated": dict(
        categories=20, image=(512, 512), levels=REFERENCE_LEVELS, d=256, heads=8,
        blocks=6, warmup_blocks=1,
    ),
}
TINY = {
    "tta-reference": dict(
        channels=8, levels=((8, 8), (4, 4)), train_clusters=2, train_per_cluster=4,
        stream_samples=3, warmup_samples=1,
    ),
    "train-churn": dict(
        channels=4, levels=((4, 4), (2, 2)), k=3, clusters=4, per_cluster=5,
        warmup_per_cluster=1,
    ),
    "ocl-gated": dict(
        categories=3, image=(16, 16), levels=((4, 4), (2, 2)), d=8, heads=2,
        blocks=2, warmup_blocks=1,
    ),
}

FD_TOLERANCE = 1e-6  # acceptance criterion C9


def domain_spec(pkg, config, salt, clusters, per_cluster, channels, levels):
    """The stream ``train-bank``/``tta-run`` build from the same flags."""
    flags = argparse.Namespace(
        channels=channels,
        levels=",".join(f"{h}x{w}" for h, w in levels),
        style_salt=salt,
        clusters=clusters,
        samples_per_cluster=per_cluster,
        spread=0.05,
    )
    return pkg.cli.build_domain_spec(config, flags)


def report_key(report) -> str:
    """Canonical text of a report, records and trajectories, for exact comparison."""
    return json.dumps(
        {"records": report.records, "extra": report.extra}, sort_keys=True, default=repr
    )


def round_trip(bank_module, banks):
    """Save and reload every bank and check ``load(save(bank))`` is bit-exact.

    Returns (errors, blobs, save seconds, load seconds).
    """
    errors = []
    t0 = time.perf_counter()
    blobs = [bank.save() for bank in banks]
    t1 = time.perf_counter()
    loaded = [bank_module.load(blob) for blob in blobs]
    t2 = time.perf_counter()
    for li, (bank, copy, blob) in enumerate(zip(banks, loaded, blobs)):
        same = (
            copy.save() == blob
            and (copy.capacity, copy.alpha, copy.momentum, copy.mode, copy.step)
            == (bank.capacity, bank.alpha, bank.momentum, bank.mode, bank.step)
            and len(copy) == len(bank)
            and all(
                p.p_mean.tobytes() == q.p_mean.tobytes()
                and p.p_std.tobytes() == q.p_std.tobytes()
                and (p.use_count, p.last_update) == (q.use_count, q.last_update)
                for p, q in zip(bank.prototypes, copy.prototypes)
            )
        )
        if not same:
            errors.append(f"level {li}: load(save(bank)) is not bit-exact")
    return errors, blobs, t1 - t0, t2 - t1


class Workload:
    """One pipeline on seeded inputs; ``call`` runs it once and returns its report."""

    name = ""

    def __init__(self, pkg, seed: int, sizes: dict):
        self.pkg = pkg
        self.harness = pkg.harness
        self.seed = seed
        self.size = sizes[self.name]
        self.round_trips: list[tuple[float, float, int]] = []  # save s, load s, bytes

    def _round_trip(self, banks) -> tuple[list[str], list[bytes]]:
        errors, blobs, save_s, load_s = round_trip(self.pkg.style_memory_bank, banks)
        self.round_trips.append((save_s, load_s, sum(len(b) for b in blobs)))
        return errors, blobs

    def input_key(self, index: int) -> int:
        """Calls with equal keys see equal inputs, so their reports must agree."""
        return 0

    def check(self, report) -> list[str]:
        """Workload-specific output checks beyond report equality."""
        return []


class TtaReference(Workload):
    name = "tta-reference"

    def _config(self):
        return self.pkg.config.RunConfig(k=4, seed=self.seed, tta_order="observe-first")

    def _stream(self, samples):
        z = self.size
        return domain_spec(self.pkg, self._config(), 1, 1, samples, z["channels"], z["levels"])

    def setup(self) -> None:
        z = self.size
        train = domain_spec(
            self.pkg, self._config(), 0, z["train_clusters"], z["train_per_cluster"],
            z["channels"], z["levels"],
        )
        banks, _ = self.harness.run_train_phase(self._config(), train)
        errors, self.blobs = self._round_trip(banks)
        if errors:
            raise RuntimeError("; ".join(errors))
        self.items_per_call = z["stream_samples"]
        self.spec = self._stream(z["stream_samples"])
        self.harness.run_tta_phase(
            self._config(), self._fresh_banks(), self._stream(z["warmup_samples"])
        )

    def _fresh_banks(self):
        return [self.pkg.style_memory_bank.load(blob) for blob in self.blobs]

    def call(self, index: int):
        self.banks = self._fresh_banks()
        return self.harness.run_tta_phase(self._config(), self.banks, self.spec)

    def check(self, report) -> list[str]:
        errors = [
            f"{name} = {value}"
            for name, value, _ in report.records
            if name.endswith("prototype_count_change") and value != 0
        ]
        return errors + self._round_trip(self.banks)[0]


class TrainChurn(Workload):
    name = "train-churn"

    def _config(self):
        return self.pkg.config.RunConfig(k=self.size["k"], seed=self.seed)

    def _spec(self, per_cluster):
        z = self.size
        return domain_spec(
            self.pkg, self._config(), 0, z["clusters"], per_cluster, z["channels"], z["levels"]
        )

    def setup(self) -> None:
        z = self.size
        self.items_per_call = z["clusters"] * z["per_cluster"]
        self.spec = self._spec(z["per_cluster"])
        self.harness.run_train_phase(self._config(), self._spec(z["warmup_per_cluster"]))

    def call(self, index: int):
        self.banks, report = self.harness.run_train_phase(self._config(), self.spec)
        return report

    def check(self, report) -> list[str]:
        return self._round_trip(self.banks)[0]


class OclGated(Workload):
    name = "ocl-gated"
    items_per_call = 1

    def _demo(self, pair: int, blocks: int):
        z = self.size
        cfg = self.pkg.config.RunConfig(
            d=z["d"], heads=z["heads"], seed=self.seed * 1_000_003 + pair
        )
        return self.harness.run_ocl_demo(
            cfg,
            num_categories=z["categories"],
            image_size=z["image"],
            level_shapes=z["levels"],
            blocks=blocks,
        )

    def setup(self) -> None:
        self._demo(0, self.size["warmup_blocks"])

    def input_key(self, index: int) -> int:
        return index

    def call(self, index: int):
        return self._demo(index, self.size["blocks"])

    def check(self, report) -> list[str]:
        err = report.value("ocl.fd_max_rel_error")
        return [] if err < FD_TOLERANCE else [f"ocl.fd_max_rel_error {err!r} >= {FD_TOLERANCE}"]


WORKLOADS = {cls.name: cls for cls in (TtaReference, TrainChurn, OclGated)}
