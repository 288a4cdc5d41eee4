"""Pipelines wiring the modules over synthetic multi-domain feature streams.

Streams are generated from seeded style clusters: each cluster owns
per-level per-channel (mean, std) centers, every sample draws its own
statistics around them (spread 0 reproduces the center exactly) and the
spatial content is seeded noise renormalized per channel so the sample
carries exactly those statistics (up to the epsilon floor of the
measurement).

Reports are emitted twice: a text file with one metric per line
(``name value unit``, whitespace-separated, values round-trip through
``repr``) and a JSON summary carrying the same records plus full
trajectories. Nothing time- or host-dependent enters train/tta/ocl
reports, so fixed seeds give byte-identical files; bench reports contain
measured durations and are exempt.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .class_query_attention import (
    AttentionParams,
    init_class_queries,
    run_encoder_side,
    tokens_from_pyramid,
)
from .config import RunConfig
from .contrastive_alignment import ContrastiveBatch, contrastive_loss, total_loss
from .object_gating import Annotation, align_to_tokens, build_masks
from .style_memory_bank import StyleMemoryBank, load
from .style_projection import project
from .style_statistics import ChannelStats, compute_stats, sq_distances, style_vector

BANK_FILE_PATTERN = "bank_level{level}.sabank"
style_vector_of = style_vector  # the prototype spelling, kept for importers


# ---------------------------------------------------------------------------
# synthetic domain streams


@dataclass
class StyleCluster:
    """Seeds and spread for one synthetic style domain."""

    mean_seed: int
    std_seed: int
    spread: float = 0.05

    def __post_init__(self):
        if self.spread < 0:
            raise ValueError("spread must be non-negative")


@dataclass
class SyntheticDomainSpec:
    style_clusters: list[StyleCluster]
    pyramid_shapes: list[tuple[int, int, int]]  # (C, H, W) per level
    samples_per_cluster: int
    rng_seed: int

    def __post_init__(self):
        if not self.style_clusters:
            raise ValueError("need at least one style cluster")
        if self.samples_per_cluster < 1:
            raise ValueError("samples_per_cluster must be >= 1")
        for c, h, w in self.pyramid_shapes:
            if c < 1 or h < 1 or w < 1:
                raise ValueError(f"invalid pyramid shape ({c}, {h}, {w})")
            if h * w < 2:
                raise ValueError("levels need H*W >= 2 so content can carry exact stats")


def cluster_centers(spec: SyntheticDomainSpec) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Per-cluster, per-level (mean, std) centers, fixed by the cluster seeds."""
    centers = []
    for cluster in spec.style_clusters:
        per_level = []
        for li, (c, _, _) in enumerate(spec.pyramid_shapes):
            mean_rng = np.random.default_rng(cluster.mean_seed + 7919 * li)
            std_rng = np.random.default_rng(cluster.std_seed + 7919 * li)
            per_level.append(
                (mean_rng.normal(0.0, 2.0, c), std_rng.uniform(0.5, 2.0, c))
            )
        centers.append(per_level)
    return centers


def generate_stream(spec: SyntheticDomainSpec):
    """Yield (pyramid, cluster label) pairs, deterministic under the seed.

    Pyramids are lists of (1, C, H, W) maps. Sample order is a seeded
    shuffle of the per-cluster sample list.
    """
    rng = np.random.default_rng(spec.rng_seed)
    centers = cluster_centers(spec)
    order = np.repeat(np.arange(len(spec.style_clusters)), spec.samples_per_cluster)
    rng.shuffle(order)
    for label in order:
        spread = spec.style_clusters[label].spread
        pyramid = []
        for li, (c, h, w) in enumerate(spec.pyramid_shapes):
            mu_center, sd_center = centers[label][li]
            mu = mu_center + spread * rng.normal(size=c)
            sd = np.maximum(sd_center + spread * rng.normal(size=c), 1e-3)
            z = rng.normal(size=(c, h, w))
            z = z - z.mean(axis=(1, 2), keepdims=True)
            z = z / z.std(axis=(1, 2), keepdims=True)
            pyramid.append((mu[:, None, None] + sd[:, None, None] * z)[None])
        yield pyramid, int(label)


# ---------------------------------------------------------------------------
# offline clustering reference (Lloyd's algorithm, multi-restart)


def offline_kmeans(
    points: np.ndarray, k: int, restarts: int = 50, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, float]:
    """Best-of-``restarts`` k-means; returns (centers, assignment, inertia)."""
    points = np.asarray(points, dtype=float)
    if len(points) < k:
        raise ValueError(f"{len(points)} points cannot form {k} clusters")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        centers = points[rng.choice(len(points), size=k, replace=False)].copy()
        assign = np.zeros(len(points), dtype=int)
        for _ in range(200):
            d2 = sq_distances(points, centers)
            assign = d2.argmin(axis=1)
            new_centers = centers.copy()
            for j in range(k):
                members = points[assign == j]
                if len(members):
                    new_centers[j] = members.mean(axis=0)
            if np.array_equal(new_centers, centers):
                break
            centers = new_centers
        inertia = float(((points - centers[assign]) ** 2).sum())
        if best is None or inertia < best[2]:
            best = (centers, assign, inertia)
    return best


def match_to_centers(
    vectors: np.ndarray, centers: np.ndarray
) -> tuple[list[int], list[float]]:
    """Optimal bijective matching (min total squared distance).

    Hungarian method (Kuhn 1955) by shortest augmenting paths with row and
    column potentials, O(K^3). Returns per-vector center index and squared
    distance.
    """
    k = len(vectors)
    if len(centers) != k:
        raise ValueError("need equally many vectors and centers")
    d2 = sq_distances(vectors, centers)
    # Rows and columns are numbered from 1; column 0 roots each augmenting path.
    u, v = np.zeros(k + 1), np.zeros(k + 1)
    owner = np.zeros(k + 1, dtype=int)  # row matched to each column, 0 if free
    for row in range(1, k + 1):
        owner[0] = row
        col = 0
        slack = np.full(k + 1, np.inf)
        via = np.zeros(k + 1, dtype=int)
        used = np.zeros(k + 1, dtype=bool)
        while owner[col] != 0:
            used[col] = True
            cur = d2[owner[col] - 1] - u[owner[col]] - v[1:]
            better = ~used[1:] & (cur < slack[1:])
            slack[1:][better] = cur[better]
            via[1:][better] = col
            nxt = 1 + int(np.argmin(np.where(used[1:], np.inf, slack[1:])))
            delta = slack[nxt]
            u[owner[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
            col = nxt
        while col:
            owner[col] = owner[via[col]]
            col = via[col]
    matched = np.argsort(owner[1:]).tolist()
    return matched, [float(d2[i, matched[i]]) for i in range(k)]


# ---------------------------------------------------------------------------
# metric reports


@dataclass
class Report:
    records: list[tuple[str, float, str]] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def add(self, name: str, value, unit: str) -> None:
        if isinstance(value, np.integer):
            value = int(value)
        elif isinstance(value, np.floating):
            value = float(value)
        self.records.append((name, value, unit))

    def value(self, name: str):
        for rec_name, value, _ in self.records:
            if rec_name == name:
                return value
        raise KeyError(name)


def format_report(records: list[tuple[str, float, str]]) -> str:
    lines = []
    for name, value, unit in records:
        if " " in name or " " in unit:
            raise ValueError("record names and units must not contain spaces")
        lines.append(f"{name} {value!r} {unit}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> list[tuple[str, float, str]]:
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"report line {lineno}: expected 'name value unit'")
        name, value, unit = parts
        records.append((name, int(value) if value.lstrip("-").isdigit() else float(value), unit))
    return records


def write_report(out_dir: Path, stem: str, report: Report) -> tuple[Path, Path]:
    """Write the text records and the JSON summary; returns both paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    text_path = out_dir / f"{stem}.report.txt"
    json_path = out_dir / f"{stem}.summary.json"
    text_path.write_text(format_report(report.records), encoding="utf-8")
    payload = {
        "records": [
            {"name": n, "value": v, "unit": u} for n, v, u in report.records
        ],
        "extra": report.extra,
    }
    json_path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return text_path, json_path


# ---------------------------------------------------------------------------
# train phase


def run_train_phase(
    config: RunConfig, spec: SyntheticDomainSpec, out_dir: str | Path | None = None
) -> tuple[list[StyleMemoryBank], Report]:
    """Populate one bank per pyramid level from the stream, in train mode.

    The report carries eviction counts, the adaptive-threshold trajectory
    and, per level, the distance of every final prototype to its matched
    offline k-means center (the clustering is computed first, on the same
    observations the bank saw).
    """
    levels = len(spec.pyramid_shapes)
    banks = [
        StyleMemoryBank(capacity=config.k, alpha=config.alpha, momentum=config.momentum)
        for _ in range(levels)
    ]
    tau_traj: list[list[float | None]] = [[] for _ in range(levels)]
    evictions = [0] * levels
    observed: list[list[np.ndarray]] = [[] for _ in range(levels)]
    samples = 0
    for pyramid, _ in generate_stream(spec):
        samples += 1
        for li, fmap in enumerate(pyramid):
            s = compute_stats(fmap, config.epsilon)[0]
            rep = banks[li].observe(s)
            tau_traj[li].append(rep.tau)
            if rep.action == "replace":
                evictions[li] += 1
            observed[li].append(style_vector(s))

    report = Report()
    report.add("train.samples", samples, "count")
    report.add("train.levels", levels, "count")
    report.add("train.capacity", config.k, "count")
    center_distances = []
    for li in range(levels):
        points = np.stack(observed[li])
        centers, assign, inertia = offline_kmeans(
            points, config.k, restarts=50, seed=config.seed
        )
        prot = banks[li].vectors()
        matched, dists = match_to_centers(prot, centers)
        spreads = [
            float(sq_distances(points[assign == j], centers[j : j + 1]).mean())
            for j in range(config.k)
        ]
        center_distances.append(dists)
        taus = [t for t in tau_traj[li] if t is not None]
        report.add(f"train.level{li}.evictions", evictions[li], "count")
        report.add(f"train.level{li}.kmeans_inertia", inertia, "dist2")
        report.add(
            f"train.level{li}.tau_mean",
            float(np.mean(taus)) if taus else 0.0,
            "dist2",
        )
        for j, (center_idx, dist) in enumerate(zip(matched, dists)):
            report.add(f"train.level{li}.proto{j}.center_distance", dist, "dist2")
            report.add(
                f"train.level{li}.proto{j}.cluster_spread", spreads[center_idx], "dist2"
            )
    report.extra["tau_trajectory"] = tau_traj
    report.extra["center_distances"] = center_distances

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for li, bank in enumerate(banks):
            (out_dir / BANK_FILE_PATTERN.format(level=li)).write_bytes(bank.save())
        write_report(out_dir, "train", report)
    return banks, report


def load_banks(bank_dir: str | Path, levels: int) -> list[StyleMemoryBank]:
    bank_dir = Path(bank_dir)
    banks = []
    for li in range(levels):
        path = bank_dir / BANK_FILE_PATTERN.format(level=li)
        banks.append(load(path.read_bytes()))
    return banks


# ---------------------------------------------------------------------------
# test-time adaptation phase


def run_tta_phase(
    config: RunConfig,
    banks: list[StyleMemoryBank],
    spec: SyntheticDomainSpec,
    out_dir: str | Path | None = None,
) -> Report:
    """Project every pyramid of the unseen stream with fusion-only bank updates.

    Banks are switched to tta mode; per level the report tracks the d_min
    trajectory, a prototype-count delta (always 0), and the nearest-prototype
    distance of the input to the bank the projection used (pre) and of the
    output to the bank after this sample's update (post).
    """
    if len(banks) != len(spec.pyramid_shapes):
        raise ValueError(f"{len(banks)} banks for {len(spec.pyramid_shapes)} levels")
    for bank in banks:
        bank.mode = "tta"
    counts_before = [len(b) for b in banks]
    levels = len(banks)
    dmin_traj: list[list[float]] = [[] for _ in range(levels)]
    pre_d: list[list[float]] = [[] for _ in range(levels)]
    post_d: list[list[float]] = [[] for _ in range(levels)]
    samples = 0
    for pyramid, _ in generate_stream(spec):
        samples += 1
        for li, fmap in enumerate(pyramid):
            bank = banks[li]
            s = compute_stats(fmap, config.epsilon)[0]
            if config.tta_order == "observe-first":
                rep = bank.observe(s)
            result = project(bank, fmap, config.weighting, config.softmax_temperature, [s])[0]
            pre_d[li].append(float(np.min(bank.distances(s))))
            if config.tta_order == "project-first":
                rep = bank.observe(s)
            dmin_traj[li].append(rep.d_min if rep.d_min is not None else 0.0)
            rect_stats = compute_stats(result.rectified, config.epsilon)[0]
            post_d[li].append(float(np.min(bank.distances(rect_stats))))

    report = Report()
    report.add("tta.samples", samples, "count")
    report.add("tta.levels", levels, "count")
    for li in range(levels):
        report.add(
            f"tta.level{li}.prototype_count_change",
            len(banks[li]) - counts_before[li],
            "count",
        )
        report.add(f"tta.level{li}.pre_distance_mean", float(np.mean(pre_d[li])), "dist2")
        report.add(f"tta.level{li}.post_distance_mean", float(np.mean(post_d[li])), "dist2")
        report.add(f"tta.level{li}.dmin_first", dmin_traj[li][0], "dist2")
        report.add(f"tta.level{li}.dmin_last", dmin_traj[li][-1], "dist2")
    report.extra["dmin_trajectory"] = dmin_traj
    report.extra["pre_distance"] = pre_d
    report.extra["post_distance"] = post_d
    # samples are consumed in generation order; recorded for reproducibility
    report.extra["stream_order"] = "generation"
    report.extra["tta_order"] = config.tta_order
    if out_dir is not None:
        write_report(Path(out_dir), "tta", report)
    return report


# ---------------------------------------------------------------------------
# object-gated contrastive demo


def synthetic_annotation(
    rng: np.random.Generator,
    image_size: tuple[int, int],
    num_categories: int,
    absent: int = 1,
) -> Annotation:
    """Random boxes for all but the last ``absent`` categories."""
    h, w = image_size
    boxes, cats = [], []
    for cat in range(max(num_categories - absent, 1)):
        for _ in range(int(rng.integers(1, 4))):
            x0 = float(rng.uniform(0, w - 2))
            y0 = float(rng.uniform(0, h - 2))
            x1 = float(rng.uniform(x0, w - 1))
            y1 = float(rng.uniform(y0, h - 1))
            boxes.append((x0, y0, x1, y1))
            cats.append(cat)
    return Annotation(boxes=boxes, categories=cats)


def fd_gradient(func, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        orig = x[ix]
        x[ix] = orig + step
        up = func()
        x[ix] = orig - step
        down = func()
        x[ix] = orig
        grad[ix] = (up - down) / (2.0 * step)
        it.iternext()
    return grad


def max_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entry-wise gap relative to the arrays' overall magnitude
    (per-entry ratios would be dominated by FD noise on tiny entries)."""
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-300)
    return float(np.abs(a - b).max() / scale)


def run_ocl_demo(
    config: RunConfig,
    num_categories: int = 5,
    image_size: tuple[int, int] = (64, 64),
    level_shapes: tuple[tuple[int, int], ...] = ((8, 8), (4, 4)),
    blocks: int = 2,
    l_det: float = 1.0,
    annotation: Annotation | None = None,
    identical_domains: bool = False,
    out_dir: str | Path | None = None,
) -> Report:
    """Gate, attend and contrast one synthetic source/augmented pair.

    Shared annotations and shared attention parameters on both domains;
    the report carries the loss, the combined objective, an analytic vs
    finite-difference gradient comparison, and per-category token
    coverage.
    """
    rng = np.random.default_rng(config.seed)
    if annotation is None:
        annotation = synthetic_annotation(rng, image_size, num_categories)
    mask_set = align_to_tokens(
        build_masks(annotation, image_size, num_categories), list(level_shapes)
    )

    d = config.d
    source = [rng.normal(size=(1, d, h, w)) for h, w in level_shapes]
    if identical_domains:
        augmented = [level.copy() for level in source]
    else:
        # augmented domain = per-channel affine style shift plus mild noise
        scale = rng.uniform(0.7, 1.3, size=d)[None, :, None, None]
        shift = rng.normal(0.0, 0.5, size=d)[None, :, None, None]
        augmented = [
            level * scale + shift + 0.05 * rng.normal(size=level.shape)
            for level in source
        ]

    params = AttentionParams.init_random(d, rng)
    q0 = init_class_queries(num_categories, d, rng)
    seq_src = tokens_from_pyramid(source)
    seq_aug = tokens_from_pyramid(augmented)
    q_source = run_encoder_side(q0, [seq_src] * blocks, mask_set, params, config.heads)
    q_augmented = run_encoder_side(q0, [seq_aug] * blocks, mask_set, params, config.heads)

    batch = ContrastiveBatch(q_source, q_augmented, mask_set.present)
    loss_rep = contrastive_loss(batch)
    loss_rep.l_total = total_loss(l_det, loss_rep.l_contra, config.lambda_c)

    fd_src = fd_gradient(lambda: contrastive_loss(batch).l_contra, batch.q_source)
    fd_aug = fd_gradient(lambda: contrastive_loss(batch).l_contra, batch.q_augmented)
    fd_err = max(
        max_relative_error(loss_rep.grad_q_source, fd_src),
        max_relative_error(loss_rep.grad_q_augmented, fd_aug),
    )

    report = Report()
    report.add("ocl.present_categories", int(mask_set.present.sum()), "count")
    report.add("ocl.blocks", blocks, "count")
    report.add(
        "ocl.query_gap", float(np.abs(q_source - q_augmented).max()), "l_inf"
    )
    report.add("ocl.contrastive_loss", loss_rep.l_contra, "nats")
    report.add("ocl.detection_loss_stub", float(l_det), "nats")
    report.add("ocl.total_loss", loss_rep.l_total, "nats")
    report.add("ocl.fd_max_rel_error", fd_err, "ratio")
    n_tokens = mask_set.token_masks.shape[1]
    for cat in range(num_categories):
        coverage = float(mask_set.token_masks[cat].sum()) / n_tokens
        report.add(f"ocl.category{cat}.token_coverage", coverage, "ratio")
        grad_norm = float(np.linalg.norm(loss_rep.grad_q_source[cat]))
        report.add(f"ocl.category{cat}.source_grad_norm", grad_norm, "l2")
    report.extra["present"] = mask_set.present.tolist()
    report.extra["q_source"] = q_source.tolist()
    report.extra["q_augmented"] = q_augmented.tolist()
    if out_dir is not None:
        write_report(Path(out_dir), "ocl", report)
    return report


# ---------------------------------------------------------------------------
# latency benchmark


def _reference_banks_and_pyramid(
    config: RunConfig, channels: int, level_hw: tuple[int, ...], seed: int
):
    rng = np.random.default_rng(seed)
    banks, pyramid, stats = [], [], []
    for side in level_hw:
        bank = StyleMemoryBank(
            capacity=config.k, alpha=config.alpha, momentum=config.momentum
        )
        for _ in range(config.k):
            mean = rng.normal(0.0, 2.0, channels)
            std = rng.uniform(0.5, 2.0, channels)
            bank.observe(ChannelStats(mean, std))
        bank.mode = "tta"
        banks.append(bank)
        fmap = rng.normal(size=(1, channels, side, side))
        pyramid.append(fmap)
        stats.append(compute_stats(fmap, config.epsilon)[0])
    return banks, pyramid, stats


def bench(
    config: RunConfig,
    runs: int = 500,
    warmup: int = 20,
    channels: int = 256,
    level_hw: tuple[int, ...] = (64, 32, 16, 8),
    out_dir: str | Path | None = None,
) -> Report:
    """Time the projection path and the bank update over ``runs`` iterations.

    (a) projection: statistics + distances + weighted remap of every level
    of the reference pyramid; (b) observe: one fusion-only bank update per
    level with precomputed statistics (the marginal cost of keeping
    adaptation on at test time). Reports mean and p95 in milliseconds.
    """
    banks, pyramid, stats = _reference_banks_and_pyramid(
        config, channels, level_hw, config.seed
    )

    def projection_pass():
        for bank, fmap in zip(banks, pyramid):
            level_stats = compute_stats(fmap, config.epsilon)
            project(bank, fmap, config.weighting, config.softmax_temperature, level_stats)

    def observe_pass():
        for bank, s in zip(banks, stats):
            bank.observe(s)

    def timed(fn) -> np.ndarray:
        for _ in range(warmup):
            fn()
        out = np.empty(runs)
        for i in range(runs):
            start = time.perf_counter_ns()
            fn()
            out[i] = (time.perf_counter_ns() - start) / 1e6
        return out

    proj_ms = timed(projection_pass)
    obs_ms = timed(observe_pass)

    report = Report()
    report.add("bench.runs", runs, "count")
    report.add("bench.warmup", warmup, "count")
    report.add("bench.levels", len(level_hw), "count")
    report.add("bench.channels", channels, "count")
    report.add("bench.projection_mean", float(proj_ms.mean()), "ms")
    report.add("bench.projection_p95", float(np.percentile(proj_ms, 95)), "ms")
    report.add("bench.observe_mean", float(obs_ms.mean()), "ms")
    report.add("bench.observe_p95", float(np.percentile(obs_ms, 95)), "ms")
    report.add(
        "bench.observe_overhead_ratio", float(obs_ms.mean() / proj_ms.mean()), "ratio"
    )
    report.extra["projection_ms"] = proj_ms.tolist()
    report.extra["observe_ms"] = obs_ms.tolist()
    if out_dir is not None:
        write_report(Path(out_dir), "bench", report)
    return report


# ---------------------------------------------------------------------------
# bank inspection


def describe_bank(bank: StyleMemoryBank) -> str:
    lines = [
        f"capacity {bank.capacity}",
        f"channels {bank.channels or 0}",
        f"prototypes {len(bank)}",
        f"mode {bank.mode}",
        f"step {bank.step}",
        f"alpha {bank.alpha!r}",
        f"momentum {bank.momentum!r}",
    ]
    for i, p in enumerate(bank.prototypes):
        lines.append(
            f"prototype {i}: use_count={p.use_count} last_update={p.last_update} "
            f"mean_avg={p.p_mean.mean()!r} std_avg={p.p_std.mean()!r}"
        )
    return "\n".join(lines) + "\n"
