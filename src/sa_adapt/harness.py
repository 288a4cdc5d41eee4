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
from .contrastive_alignment import (
    ContrastiveBatch,
    contrastive_loss,
    contrastive_loss_stack,
    total_loss,
)
from .object_gating import Annotation, align_to_tokens, build_masks
from .style_memory_bank import StyleMemoryBank, UpdateReport, load
from .style_projection import project, project_pyramid
from .style_statistics import ChannelStats, compute_stats, sq_distances, style_vector
from .tensor_core import require_finite

BANK_FILE_PATTERN = "bank_level{level}.sabank"
style_vector_of = style_vector  # the prototype spelling, kept for importers


# ---------------------------------------------------------------------------
# synthetic domain streams


# Under this spread a generated map's values, their squared deviations and the
# style distances between samples stay finite in float64.
SPREAD_LIMIT = 1e100
# numpy describes an array by a byte count below 2**63, so no float64 array
# holds this many values, whatever the host's memory.
MAX_ARRAY_VALUES = 2**60


def _require_allocatable(values: int, what: str) -> None:
    """Raise MemoryError for an array of ``values`` float64 values that cannot exist."""
    if values >= MAX_ARRAY_VALUES:
        raise MemoryError(f"{what} would hold {values} values, above the 2**60 that fit")


@dataclass
class StyleCluster:
    """Seeds and spread for one synthetic style domain."""

    mean_seed: int
    std_seed: int
    spread: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.spread < np.inf:
            raise ValueError(f"spread (--spread) must be finite and >= 0, got {self.spread!r}")
        if self.spread > SPREAD_LIMIT:
            raise ValueError(
                f"spread (--spread) must be at most {SPREAD_LIMIT:g}, so that the generated "
                f"maps' statistics stay finite in float64, got {self.spread!r}"
            )


@dataclass
class SyntheticDomainSpec:
    style_clusters: list[StyleCluster]
    pyramid_shapes: list[tuple[int, int, int]]  # (C, H, W) per level
    samples_per_cluster: int
    rng_seed: int

    def __post_init__(self):
        if not self.style_clusters:
            raise ValueError("need at least one style cluster (--clusters)")
        if self.samples_per_cluster < 1:
            raise ValueError("samples_per_cluster must be >= 1")
        _require_allocatable(
            len(self.style_clusters) * self.samples_per_cluster,
            "the stream (--clusters x --samples-per-cluster)",
        )
        for c, h, w in self.pyramid_shapes:
            if c < 1 or h < 1 or w < 1:
                raise ValueError(
                    f"invalid pyramid shape ({c}, {h}, {w}) from --channels and --levels"
                )
            if h * w < 2:
                raise ValueError("levels need H*W >= 2 so content can carry exact stats")
            _require_allocatable(c * h * w, f"a ({c}, {h}, {w}) level (--channels, --levels)")


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


_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = 2.0**-1074
_NO_OVERFLOW_NORMS = np.finfo(float).max / 8  # see offline_kmeans


def _nearest_centers(points: np.ndarray):
    """Return ``nearest(centers)``, equal to
    ``sq_distances(points, centers).argmin(axis=1)`` bit for bit.

    Each call of ``nearest`` costs one (K, D) x (D, N) product; the bound
    that makes it exact is derived in :func:`offline_kmeans`.
    """
    d = points.shape[1]
    minus_twice_t = -2.0 * np.ascontiguousarray(points.T)
    sq_norms = np.einsum("ij,ij->i", points, points)
    gamma = (d + 4) * _UNIT_ROUNDOFF / (1.0 - (d + 4) * _UNIT_ROUNDOFF)
    two_beta = 16.0 * (gamma * sq_norms + d * _SMALLEST_SUBNORMAL)  # less its center term
    headroom = _NO_OVERFLOW_NORMS - sq_norms.max()

    def nearest(centers: np.ndarray) -> np.ndarray:
        center_norms = np.einsum("ij,ij->i", centers, centers)
        center_max = center_norms.max()
        if not center_max < headroom:
            return sq_distances(points, centers).argmin(axis=1)
        approx = centers @ minus_twice_t  # (K, N), so reductions over centers run along rows
        approx += center_norms[:, None]
        threshold = approx.min(axis=0)
        threshold += two_beta
        threshold += 16.0 * gamma * center_max
        near = approx <= threshold
        assign = np.arange(len(centers)) @ near  # the only near center, where there is one
        unsure = np.flatnonzero(near.sum(axis=0) != 1)
        if len(unsure):
            assign[unsure] = sq_distances(points[unsure], centers).argmin(axis=1)
        return assign

    return nearest


def offline_kmeans(
    points: np.ndarray, k: int, restarts: int = 50, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, float]:
    """Best-of-``restarts`` k-means; returns (centers, assignment, inertia).

    ``points`` must be a finite (N, D) array, ``1 <= k <= N`` and
    ``restarts >= 1``. Each restart draws ``k`` distinct points as centers
    and runs at most 200 Lloyd iterations; the least inertia wins, the
    earliest restart on ties.

    The assignment is exactly ``sq_distances(points, centers).argmin(axis=1)``,
    first-index ties included, but costs one (K, D) x (D, N) product instead
    of an (N, K, D) temporary. Per point x and center c it ranks
    ``a = |c|^2 - 2 x.c``, which is |x - c|^2 - |x|^2: the point's own |x|^2
    is common to its row and changes no difference between centers. With
    unit roundoff u, gamma_n = n u / (1 - n u) (Higham, *Accuracy and
    Stability of Numerical Algorithms*, section 3.1) and S = |x|^2 + |c|^2:

    * x.c and |c|^2, summed in any order, are off by at most
      gamma_D |x||c| <= gamma_D S / 2 and gamma_D |c|^2, and the addition
      by at most u (1 + gamma_D) 2S, so a + |x|^2 is within
      2 gamma_{D+1} S of |x - c|^2;
    * ``sq_distances`` (difference, square, sum of D non-negative terms) is
      within gamma_{D+2} |x - c|^2 <= 2 gamma_{D+2} S of |x - c|^2;

    so a + |x|^2 and ``sq_distances`` differ by at most
    4 gamma_{D+2} (|x|^2 + max_j |c_j|^2). The computed norms understate
    that by at most a factor 1 - gamma_D, and each of the at most 3D
    products that can underflow adds at most 2^-1075. Per row,
    ``beta = 8 (gamma_{D+4} (|x|^2 + max_j |c_j|^2) + D 2^-1074)`` covers
    all of it with room for rounding beta and the threshold. A row with
    exactly one center whose ``a`` lies within ``2 beta`` of the row's least
    ``a`` has that center as its argmin under ``sq_distances``, strictly.
    Every other row (near-ties, exact ties) is recomputed with
    ``sq_distances`` on that row subset, whose values equal the full call's
    bit for bit. No value can overflow while max_x |x|^2 + max_j |c_j|^2 is
    below an eighth of the largest float; where it is not, every row is
    recomputed.

    Each Lloyd iteration updates only the dirty clusters, those a point
    moved into or out of; a restart's first iteration updates all of them.
    Every other center keeps its bits, which equal its recomputed
    ``members.mean(axis=0)`` because its members are the same rows in the
    same order. The inertia is the sum of squared differences in one
    reused C-ordered (N, D) buffer: the same elementwise operations and the
    same pairwise sum as ``((points - centers[assign]) ** 2).sum()``, whose
    temporary is C-ordered too.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"k-means points must be a 2-D (N, D) array, got shape {points.shape}")
    require_finite(points, "k-means points")
    if not 1 <= k <= len(points):
        raise ValueError(f"{len(points)} points cannot form {k} clusters")
    if restarts < 1:
        raise ValueError(f"k-means needs at least 1 restart, got {restarts}")
    nearest = _nearest_centers(points)
    buf = np.empty(points.shape)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        centers = points[rng.choice(len(points), size=k, replace=False)].copy()
        assign = None
        for _ in range(200):
            previous, assign = assign, nearest(centers)
            if previous is None:  # a restart's first iteration
                dirty = np.arange(k)
            else:
                moved = np.flatnonzero(assign != previous)
                touched = np.bincount(previous[moved], minlength=k)
                touched += np.bincount(assign[moved], minlength=k)
                dirty = np.flatnonzero(touched)
            new_centers = centers.copy()
            for j in dirty:
                members = points[assign == j]
                if len(members):
                    new_centers[j] = members.mean(axis=0)
            if np.array_equal(new_centers, centers):
                break
            centers = new_centers
        np.take(centers, assign, axis=0, out=buf, mode="clip")  # "raise" would buffer `out`
        np.subtract(points, buf, out=buf)
        np.square(buf, out=buf)
        inertia = float(buf.sum())
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
    """Write the text records and the JSON summary; returns both paths.

    The summary is strict JSON: a report holding a non-finite value raises
    ValueError before either file is written.
    """
    payload = {
        "records": [
            {"name": n, "value": v, "unit": u} for n, v, u in report.records
        ],
        "extra": report.extra,
    }
    try:
        summary = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"the {stem} report holds a non-finite value: {exc}") from None
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    text_path = out_dir / f"{stem}.report.txt"
    json_path = out_dir / f"{stem}.summary.json"
    text_path.write_text(format_report(report.records), encoding="utf-8")
    json_path.write_text(summary + "\n", encoding="utf-8")
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
    stream_size = len(spec.style_clusters) * spec.samples_per_cluster
    if stream_size < config.k:
        raise ValueError(
            f"k (--k) is {config.k}, but the stream has {stream_size} samples (--clusters x "
            "--samples-per-cluster) and offline k-means needs at least k"
        )
    levels = len(spec.pyramid_shapes)
    banks = [
        StyleMemoryBank(capacity=config.k, alpha=config.alpha, momentum=config.momentum)
        for _ in range(levels)
    ]
    # one (decision, style vector) step per sample and level
    steps: list[list[tuple[UpdateReport, np.ndarray]]] = [[] for _ in range(levels)]
    for pyramid, _ in generate_stream(spec):
        for li, fmap in enumerate(pyramid):
            s = compute_stats(fmap, config.epsilon)[0]
            steps[li].append((banks[li].observe(s), style_vector(s)))

    report = Report()
    report.add("train.samples", stream_size, "count")
    report.add("train.levels", levels, "count")
    report.add("train.capacity", config.k, "count")
    center_distances = []
    for li, level_steps in enumerate(steps):
        decisions, vectors = zip(*level_steps)
        points = np.stack(vectors)
        centers, assign, inertia = offline_kmeans(
            points, config.k, restarts=50, seed=config.seed
        )
        prot = banks[li].vectors()
        matched, dists = match_to_centers(prot, centers)
        spreads = []
        for j in range(config.k):
            members = points[assign == j]  # none when k-means drew equal points as centers
            spread = sq_distances(members, centers[j : j + 1]).mean() if len(members) else 0.0
            spreads.append(float(spread))
        center_distances.append(dists)
        taus = [rep.tau for rep in decisions if rep.tau is not None]
        evictions = sum(rep.action == "replace" for rep in decisions)
        report.add(f"train.level{li}.evictions", evictions, "count")
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
    report.extra["tau_trajectory"] = [[rep.tau for rep, _ in level] for level in steps]
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
    for li, (bank, (c, _, _)) in enumerate(zip(banks, spec.pyramid_shapes)):
        if not bank.prototypes:
            raise ValueError(f"the level {li} bank is empty; tta needs a trained bank")
        if bank.channels != c:
            raise ValueError(
                f"the level {li} bank has C={bank.channels}, but the stream has C={c} (--channels)"
            )
    for bank in banks:
        bank.mode = "tta"
    counts_before = [len(b) for b in banks]
    levels = len(banks)
    observe_first = config.tta_order == "observe-first"
    # one (decision, pre distance, post distance) step per sample and level
    steps: list[list[tuple[UpdateReport, float, float]]] = [[] for _ in range(levels)]
    samples = 0
    for pyramid, _ in generate_stream(spec):
        samples += 1
        for li, fmap in enumerate(pyramid):
            bank = banks[li]
            s = compute_stats(fmap, config.epsilon)[0]
            if observe_first:
                decision = bank.observe(s)
                result = project(bank, fmap, config.weighting, config.softmax_temperature, [s])[0]
            else:
                result = project(bank, fmap, config.weighting, config.softmax_temperature, [s])[0]
                decision = bank.observe(s)
            rect_stats = compute_stats(result.rectified, config.epsilon)[0]
            pre = float(np.min(result.distances))
            steps[li].append((decision, pre, float(np.min(bank.distances(rect_stats)))))

    report = Report()
    report.add("tta.samples", samples, "count")
    report.add("tta.levels", levels, "count")
    for li, level_steps in enumerate(steps):
        decisions, pres, posts = zip(*level_steps)
        report.add(
            f"tta.level{li}.prototype_count_change",
            len(banks[li]) - counts_before[li],
            "count",
        )
        report.add(f"tta.level{li}.pre_distance_mean", float(np.mean(pres)), "dist2")
        report.add(f"tta.level{li}.post_distance_mean", float(np.mean(posts)), "dist2")
        report.add(f"tta.level{li}.dmin_first", decisions[0].d_min, "dist2")
        report.add(f"tta.level{li}.dmin_last", decisions[-1].d_min, "dist2")
    report.extra["dmin_trajectory"] = [[rep.d_min for rep, _, _ in level] for level in steps]
    report.extra["pre_distance"] = [[d for _, d, _ in level] for level in steps]
    report.extra["post_distance"] = [[d for _, _, d in level] for level in steps]
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
    """Random boxes for all but the last ``absent`` categories.

    Raises ValueError for an image smaller than 2x2, which has no room for a box.
    """
    h, w = image_size
    if h < 2 or w < 2:
        raise ValueError(f"image size (--image-size) must be at least 2x2, got {h}x{w}")
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


# Bound on the perturbed copies of one fd_gradient chunk: keeps the check's
# working set a few MiB whatever the size of the array it perturbs.
_FD_CHUNK_BYTES = 4 << 20


def fd_gradient(loss, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a batched scalar function of an array.

    ``loss`` maps an (m, *x.shape) stack of arrays to their (m,) values.
    Entry i of the result is ``(loss(x + step e_i) - loss(x - step e_i)) /
    (2 step)``, with the perturbed entries formed as ``x[i] + step`` and
    ``x[i] - step``, exactly as when ``x`` is perturbed in place one entry
    at a time. The +step and -step copies of a chunk of entries go to
    ``loss`` in one stack of at most ``_FD_CHUNK_BYTES`` (or one entry's
    pair of copies); the stack is reused from chunk to chunk. ``x`` is left
    untouched.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    grad = np.empty(flat.size)
    per_chunk = max(1, min(_FD_CHUNK_BYTES // max(2 * x.nbytes, 1), flat.size))
    copies = np.tile(flat, (per_chunk, 2, 1))  # copies[k] = (up, down) of one entry
    for start in range(0, flat.size, per_chunk):
        entries = np.arange(start, min(start + per_chunk, flat.size))
        rows = np.arange(entries.size)
        copies[rows, 0, entries] += step
        copies[rows, 1, entries] -= step
        values = loss(copies[: entries.size].reshape(-1, *x.shape))
        copies[rows, :, entries] = flat[entries, None]
        up, down = values.reshape(-1, 2).T
        grad[entries] = (up - down) / (2.0 * step)
    return grad.reshape(x.shape)


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
    if num_categories < 1 or blocks < 1:
        raise ValueError(
            f"--categories and --blocks must be >= 1, got {num_categories} and {blocks}"
        )
    _require_allocatable(
        num_categories * image_size[0] * image_size[1], "the masks (--categories x --image-size)"
    )
    rng = np.random.default_rng(config.seed)
    if annotation is None:
        annotation = synthetic_annotation(rng, image_size, num_categories)
    for h, w in level_shapes:
        if not (1 <= h <= image_size[0] and 1 <= w <= image_size[1]):
            raise ValueError(
                f"token level {h}x{w} (--demo-levels) must fit in the "
                f"{image_size[0]}x{image_size[1]} image"
            )
        _require_allocatable(config.d * h * w, f"a ({config.d}, {h}, {w}) level (--dim)")
    mask_set = align_to_tokens(
        build_masks(annotation, image_size, num_categories), list(level_shapes)
    )
    if not mask_set.present.any():
        raise ValueError("annotation has no present category; the contrastive loss needs one")

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
    l_total = total_loss(l_det, loss_rep.l_contra, config.lambda_c)

    # Only present rows are perturbed: the loss never reads an absent row,
    # so its finite difference is exactly 0.0.
    idx = np.flatnonzero(batch.present)
    s, a = batch.q_source[idx], batch.q_augmented[idx]
    fd_src = np.zeros_like(batch.q_source)
    fd_aug = np.zeros_like(batch.q_augmented)
    fd_src[idx] = fd_gradient(lambda stack: contrastive_loss_stack(stack, a), s)
    fd_aug[idx] = fd_gradient(lambda stack: contrastive_loss_stack(s, stack), a)
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
    report.add("ocl.total_loss", l_total, "nats")
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
    Raises ValueError unless ``runs >= 1`` and ``warmup >= 0``.
    """
    if runs < 1 or warmup < 0:
        raise ValueError(f"bench needs runs >= 1 and warmup >= 0, got {runs} and {warmup}")
    if channels < 1 or min(level_hw, default=0) < 1:
        raise ValueError(
            f"bench needs --bench-channels and --bench-levels >= 1, got {channels} and {level_hw}"
        )
    _require_allocatable(channels * max(level_hw) ** 2, "a bench level (--bench-channels)")
    rng = np.random.default_rng(config.seed)
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

    def timed(fn) -> np.ndarray:
        for _ in range(warmup):
            fn()
        out = np.empty(runs)
        for i in range(runs):
            start = time.perf_counter_ns()
            fn()
            out[i] = (time.perf_counter_ns() - start) / 1e6
        return out

    proj_ms = timed(lambda: project_pyramid(
        banks, pyramid, config.weighting, config.softmax_temperature, config.epsilon
    ))
    obs_ms = timed(lambda: [bank.observe(s) for bank, s in zip(banks, stats)])

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
