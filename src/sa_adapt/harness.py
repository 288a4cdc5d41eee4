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
    TokenSequence,
    init_class_queries,
    project_keys_values,
    run_encoder_side,
    sine_positions,
)
from .config import RunConfig
from .contrastive_alignment import (
    ContrastiveBatch,
    _fd_gradient,
    contrastive_loss,
    total_loss,
)
from .object_gating import Annotation, align_to_tokens, build_masks
from .style_memory_bank import StyleMemoryBank, UpdateReport, load
from .style_projection import project
from .style_statistics import ChannelStats, compute_stats, sq_distances
from .tensor_core import _channel_blocks, _row_buffer, require_finite

BANK_FILE_PATTERN = "bank_level{level}.sabank"


# ---------------------------------------------------------------------------
# synthetic domain streams


# Under this spread a generated map's values, their squared deviations and the
# style distances between samples stay finite in float64.
SPREAD_LIMIT = 1e100
# ocl-demo draws boxes category by category; this is above any detection
# vocabulary the demo stands in for (LVIS has 1,203 categories).
MAX_CATEGORIES = 4096
# Each timed bench run reads every level's (k, 2C) style matrix, and the set-up
# fills the banks at a cost linear in k. At C=256 on the four reference levels
# (2 vCPUs), k = 1024 took ~0.35 s to set up and ~65 ms per run, so the 520
# default runs take about half a minute; k = 4096 took ~1.2 s and ~105 ms.
BENCH_MAX_K = 1024
# Bytes of train-stream maps whose statistics one call takes: at C=64, chunks of
# 8 (8x8) and 32 (4x4) samples cut the per-sample cost ~4x, as larger ones do.
# A buffer of this size adds to the peak of a stream of large maps.
_CHUNK_BYTES = 256 << 10
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
            raise ValueError("style_clusters (--clusters) must be non-empty, got []")
        if not self.pyramid_shapes:
            raise ValueError("pyramid_shapes (--levels) must be non-empty, got []")
        if self.samples_per_cluster < 1:
            raise ValueError(
                "samples_per_cluster (--samples-per-cluster) must be at least 1, "
                f"got {self.samples_per_cluster!r}"
            )
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
                raise ValueError(
                    "pyramid_shapes (--levels) must have H*W >= 2 at every level so content "
                    f"can carry exact stats, got {self.pyramid_shapes!r}"
                )
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


def _channel_std(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``z.std(axis=(1, 2), keepdims=True)`` of a (C, H, W) map, bit for bit: numpy's
    steps (sum and divide for the mean, subtract, square, sum, divide, sqrt), with
    the squared deviations of each block of channel rows from :func:`_channel_blocks`
    in the flat ``scratch``, which holds the first block, not in a temporary of z's
    size."""
    c, h, w = z.shape
    mean = z.mean(axis=(1, 2), keepdims=True)
    var = np.empty_like(mean)
    for rows in _channel_blocks(c, h * w):
        dev = scratch[: (rows.stop - rows.start) * h * w].reshape(-1, h, w)
        np.subtract(z[rows], mean[rows], out=dev)
        np.square(dev, out=dev)
        dev.sum(axis=(1, 2), keepdims=True, out=var[rows])
    var /= h * w
    return np.sqrt(var, out=var)


def generate_stream(spec: SyntheticDomainSpec):
    """Yield (pyramid, cluster label) pairs, deterministic under the seed.

    Pyramids are lists of (1, C, H, W) maps. Sample order is a seeded
    shuffle of the per-cluster sample list. The consumer owns each yielded
    list and its maps: the generator never reads or reuses them, and holds
    none of them while it draws the next pyramid. So a consumer that takes
    each map out of the list as it reads it holds one pyramid, not two.
    """
    rng = np.random.default_rng(spec.rng_seed)
    centers = cluster_centers(spec)
    order = np.repeat(np.arange(len(spec.style_clusters)), spec.samples_per_cluster)
    rng.shuffle(order)
    scratch = np.empty(
        max(_channel_blocks(c, h * w)[0].stop * h * w for c, h, w in spec.pyramid_shapes)
    )
    for label in order:
        spread = spec.style_clusters[label].spread
        pyramid = []
        for li, (c, h, w) in enumerate(spec.pyramid_shapes):
            mu_center, sd_center = centers[label][li]
            mu = mu_center + spread * rng.normal(size=c)
            sd = np.maximum(sd_center + spread * rng.normal(size=c), 1e-3)
            z = rng.normal(size=(c, h, w))
            with _row_buffer(h * w):  # each step in place: mu + sd * (z - mean) / std
                z -= z.mean(axis=(1, 2), keepdims=True)
                z /= _channel_std(z, scratch)
                z *= sd[:, None, None]
                z += mu[:, None, None]
            pyramid.append(z[None])
        del z
        yield pyramid, int(label)


# ---------------------------------------------------------------------------
# offline clustering reference (Lloyd's algorithm, multi-restart)


_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = 2.0**-1074
_NO_OVERFLOW_NORMS = np.finfo(float).max / 8  # see offline_kmeans
# Bytes of k-means state that one group of restarts keeps through its Lloyd
# iterations: per restart, its (K, N) rows of ``a`` (see offline_kmeans), its
# N assignments and, within a step, its N thresholds, 8 bytes each. A step's
# other temporaries (the product of the changed rows, the near mask, the
# counts) add at most about as much again. At the train-churn shape (N = 2400,
# D = 128, K = 8: 200 KB a restart; 2 vCPUs), bounds of 512 KiB, 1, 2 and 4 MiB
# (groups of 2, 5, 10 and 21) took 0.86, 0.73, 0.66 and 0.68 of the time of the
# restarts run one by one, each with all K rows per iteration, at peaks of
# traced memory of 4.1, 5.1, 7.0 and 10.9 MB against 7.1 MB one by one. 2 MiB
# is about as fast as 4 MiB, and its peak stays under the one-by-one form's.
# A restart whose rows alone are above the bound runs in a group of its own,
# which keeps them: one (K, N) block, the size of the product that the
# restarts run one by one take every iteration.
_GROUP_BYTES = 2 << 20
# OpenBLAS takes a product of at most 2**18 multiply-adds on one thread and
# wakes a second one above that. Where one restart's product is that small, the
# second thread costs more than it saves (2 vCPUs, N = 16, D = 512: 20 us for a
# (33, 512) x (512, 16) product back to back against 14 us for (32, 512); in the
# tta-reference set-up, 18-33 ms a level for groups of 50 against 7-13 ms for
# one restart at a time, and the work after it slowed too). So groups of such
# restarts keep their products under this size.
_ONE_THREAD_PRODUCT = 2**18


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u the unit roundoff."""
    return n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)


class _Lloyd:
    """Lloyd iterations of k-means restarts with ``k`` centers on one finite
    (N, D) point set; the bounds they use are derived in :func:`offline_kmeans`.

    ``run`` takes a group of restarts through their iterations in lockstep,
    ``nearest`` is one step's assignment of the group, and ``inertia`` a
    restart's exact inertia.
    """

    def __init__(self, points: np.ndarray, k: int):
        n, d = points.shape
        self.points, self.k = points, k
        self.sq_norms = np.einsum("ij,ij->i", points, points)
        self.gamma = _gamma(d + 4)
        # 2 beta per point (see offline_kmeans), less its center term
        self.two_beta = 16.0 * (self.gamma * self.sq_norms + d * _SMALLEST_SUBNORMAL)
        self.headroom = _NO_OVERFLOW_NORMS - self.sq_norms.max()
        self.group = max(1, _GROUP_BYTES // (8 * (k + 2) * n))
        if k * n * d <= _ONE_THREAD_PRODUCT:
            self.group = min(self.group, _ONE_THREAD_PRODUCT // (k * n * d))
        self.buf = np.empty(points.shape)

    def nearest(self, centers, rows, stale):
        """Each restart's ``sq_distances(points, centers).argmin(axis=1)``, bit
        for bit, as a (g, N) array, and each restart's largest squared center norm.

        ``centers`` holds g restarts' (K, D) centers and ``rows`` their
        (g, K, N) rows of ``a``, kept across steps: those flagged in the (g, K)
        ``stale`` are recomputed in one product, and ``stale`` then flags every
        row of a restart past the overflow headroom, which takes the direct
        distances.
        """
        points, (n, d) = self.points, self.points.shape
        norms = np.einsum("gkd,gkd->gk", centers, centers)
        center_max = norms.max(axis=1)
        fast = center_max < self.headroom
        margin = self.two_beta + (16.0 * self.gamma * center_max)[:, None]
        s, j = np.nonzero(stale & fast[:, None])
        if len(s) == stale.size:  # every row, as on a group's first steps
            np.matmul(-2.0 * centers.reshape(-1, d), points.T, out=rows.reshape(-1, n))
            rows += norms[:, :, None]
        elif len(s):
            block = (-2.0 * centers[s, j]) @ points.T
            block += norms[s, j][:, None]
            rows[s, j] = block
        stale[:] = ~fast[:, None]
        assign, unsure = self._choose(rows, margin)
        unsure |= ~fast[:, None]  # a restart past the headroom rechecks every row
        for s in np.flatnonzero(unsure.any(axis=1)):
            where = np.flatnonzero(unsure[s])
            assign[s, where] = sq_distances(points[where], centers[s]).argmin(axis=1)
        return assign, center_max

    @staticmethod
    def _choose(a, margin):
        """For the (g, K, m) block ``a``: each point's only center whose ``a``
        lies within ``margin`` of the least, and where there is not one."""
        threshold = a.min(axis=1)
        threshold += margin
        near = a <= threshold[:, None, :]
        # the only near center, where there is one; ``einsum`` casts ``near`` in
        # buffered chunks, where ``@`` would take an int copy of all of it
        assign = np.einsum("k,gkn->gn", np.arange(a.shape[1]), near)
        return assign, np.count_nonzero(near, axis=1) != 1

    def run(self, draws):
        """Take the restarts that start from ``draws`` (arrays of K point
        indices) through their Lloyd iterations in lockstep, and yield
        (position in ``draws``, centers, assignment, iterations, lower bound
        on the inertia) as each one finishes, the bound NaN where there is none.

        Finished restarts leave the group: the last live one takes the slot.
        """
        k, n = self.k, len(self.points)
        live = len(draws)
        slots = list(range(live))
        centers = self.points[np.stack(draws)]
        rows = np.zeros((live, k, n))
        stale = np.ones((live, k), dtype=bool)
        assign = np.zeros((live, n), dtype=np.intp)
        states = [centers, assign, stale, rows]
        for step in range(1, 201):
            new, center_max = self.nearest(centers[:live], rows[:live], stale[:live])
            dirty = np.full((live, k), step == 1)  # a restart's first step updates every cluster
            s, i = np.nonzero(new != assign[:live])
            dirty[s, assign[s, i]] = dirty[s, new[s, i]] = True
            assign[:live] = new
            for s in reversed(range(live)):
                if self._update(centers[s], assign[s], dirty[s], stale[s]) and step < 200:
                    continue
                bound = np.nan
                if not stale[s].any():
                    bound = self._lower_bound(rows[s], assign[s], center_max[s])
                yield slots[s], centers[s].copy(), assign[s].copy(), step, bound
                live -= 1
                slots[s] = slots[live]
                for state in states:
                    state[s] = state[live]
            if not live:
                return

    def _update(self, centers, assign, dirty, stale) -> bool:
        """Set each dirty cluster's center to its members' mean, and flag the
        rows of those that change; False, leaving ``centers``, if none does.

        A mean is ``members.mean(axis=0)`` bit for bit: the members are
        gathered in point order and summed by one ``np.add.reduce``.
        """
        js = np.flatnonzero(dirty)
        members = np.flatnonzero(dirty[assign])
        labels = assign[members]
        members = members[np.argsort(labels, kind="stable")]
        gathered = np.take(self.points, members, axis=0, out=self.buf[: len(members)], mode="clip")
        old = centers[js]
        means, start = old.copy(), 0
        for idx, count in enumerate(np.bincount(labels, minlength=self.k)[js].tolist()):
            if count == 1:
                means[idx] = gathered[start]  # the mean of one row is the row
            elif count:
                means[idx] = np.add.reduce(gathered[start : start + count], axis=0) / count
            start += count
        changed = (means != old).any(axis=1)
        if not changed.any():
            return False
        centers[js] = means
        stale[js[changed]] = True
        return True

    def _lower_bound(self, rows, assign, center_max) -> float:
        """A lower bound on ``inertia``, from the rows of the restart's centers."""
        n, d = self.points.shape
        t = np.take_along_axis(rows, assign[None], axis=0)[0]
        t += self.sq_norms
        total = t.sum()
        slack = (
            0.5 * self.two_beta.sum() + 8.0 * self.gamma * n * center_max
            + 2.0 * _gamma(n) * np.abs(t).sum() + _gamma(n * d + 2) * total
            + n * d * _SMALLEST_SUBNORMAL
        )
        return total - 2.0 * slack

    def inertia(self, centers, assign) -> float:
        """The sum of squared differences, in one reused C-ordered (N, D) buffer."""
        buf = self.buf
        np.take(centers, assign, axis=0, out=buf, mode="clip")  # "raise" would buffer `out`
        np.subtract(self.points, buf, out=buf)
        np.square(buf, out=buf)
        return float(buf.sum())


def offline_kmeans(
    points: np.ndarray, k: int, restarts: int = 50, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, float]:
    """Best-of-``restarts`` k-means; returns (centers, assignment, inertia).

    ``points`` must be a finite (N, D) array, taken in C order (other
    layouts give the result of their C-ordered copy), ``1 <= k <= N`` and
    ``restarts >= 1``. Each restart draws ``k`` distinct points as centers
    and runs at most 200 Lloyd iterations; the least inertia wins, the
    earliest restart on ties. The restarts run in groups of consecutive
    ones, whose state stays under ``_GROUP_BYTES`` (and whose product under
    ``_ONE_THREAD_PRODUCT``, where one restart's is below it): a group draws
    its restarts' centers in restart order, the draws of one restart after
    the other, and then runs their Lloyd iterations in lockstep.

    The assignment is exactly ``sq_distances(points, centers).argmin(axis=1)``,
    first-index ties included, but costs a matrix product instead of an
    (N, K, D) temporary. Per point x and center c it ranks
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
    bit for bit, as both sum C-ordered rows alike. No value can overflow
    while max_x |x|^2 + max_j |c_j|^2 is below an eighth of the largest
    float; where it is not, the restart's every row is recomputed.

    The argument holds for each ``a`` on its own, whatever product computed
    it. So a group keeps each restart's (K, N) values of ``a`` between
    steps, and each step recomputes, in one product for the whole group,
    only those of the centers that changed in the last update. A restart
    whose values alone exceed the bound runs in a group of its own.

    Each Lloyd iteration updates only the dirty clusters, those a point
    moved into or out of; a restart's first iteration updates all of them.
    Every other center keeps its bits, which equal its recomputed
    ``members.mean(axis=0)`` because its members are the same rows in the
    same order. The inertia is the sum of squared differences in one
    reused C-ordered (N, D) buffer: the same elementwise operations and the
    same pairwise sum as ``((points - centers[assign]) ** 2).sum()``, whose
    temporary is C-ordered too.

    That exact inertia is taken only for a restart that can still win. At
    convergence, the kept values give t_i = a_i + |x_i|^2 for each point's
    center, within beta_i of the true |x_i - c|^2 (above). So the true
    inertia I is at least sum t_i - sum beta_i - 2 gamma_N sum |t_i|, the
    last term for rounding t_i and summing it. The buffer holds N D squares
    of differences, each within gamma_3 (relative) and 2^-1075 (absolute)
    of its true value, and sums them within gamma_{ND-1}, in whatever
    order; so the exact inertia is at least
    (1 - gamma_{ND+2}) I - N D 2^-1075. The bound subtracts twice all of
    these terms from sum t_i, which also covers rounding the bound itself.
    A restart whose bound exceeds the least exact inertia so far cannot
    win, and is skipped. Ties with it, restarts past the overflow
    headroom and those stopped at 200 iterations all take the exact form.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"k-means points must be a 2-D (N, D) array, got shape {points.shape}")
    points = np.ascontiguousarray(points)
    require_finite(points, "k-means points")
    if not 1 <= k <= len(points):
        raise ValueError(f"{len(points)} points cannot form {k} clusters")
    if restarts < 1:
        raise ValueError(f"k-means needs at least 1 restart, got {restarts}")
    rng = np.random.default_rng(seed)
    lloyd = _Lloyd(points, k)
    best = None  # (inertia, restart, centers, assignment)
    for first in range(0, restarts, lloyd.group):
        size = min(lloyd.group, restarts - first)
        draws = [rng.choice(len(points), size=k, replace=False) for _ in range(size)]
        for r, centers, assign, _, bound in lloyd.run(draws):
            if best is not None and bound > best[0]:
                continue  # its inertia is above the best's
            inertia = lloyd.inertia(centers, assign)
            if best is None or (inertia, first + r) < best[:2]:
                best = (inertia, first + r, centers, assign)
    return best[2], best[3], best[0]


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

    Each level's statistics are taken per chunk of samples, at most
    ``_CHUNK_BYTES`` of maps stacked in one reused buffer (or one map alone,
    uncopied), straight into the level's (N, 2C) k-means points; the bank then
    observes the chunk's samples in stream order. The stream's last sample
    ends the last chunk, so no sample is drawn before those drawn are observed.
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
    # one step per sample and level: the bank's decision and the style vector
    decisions: list[list[UpdateReport]] = [[] for _ in range(levels)]
    for c, _, _ in spec.pyramid_shapes:
        _require_allocatable(stream_size * 2 * c, "the style vectors (stream x --channels)")
    points = [np.empty((stream_size, 2 * c)) for c, _, _ in spec.pyramid_shapes]
    chunks = [max(1, _CHUNK_BYTES // (8 * c * h * w)) for c, h, w in spec.pyramid_shapes]
    buffers = [
        np.empty((n, *shape)) if n > 1 else None for n, shape in zip(chunks, spec.pyramid_shapes)
    ]
    for i, (pyramid, _) in enumerate(generate_stream(spec)):
        for li in range(levels):
            j, buf = i % chunks[li], buffers[li]
            chunk, pyramid[li] = pyramid[li], None  # the map dies once read
            if buf is not None:
                buf[j] = chunk[0]
                chunk = buf[: j + 1]
            if j + 1 == chunks[li] or i + 1 == stream_size:
                stats = compute_stats(chunk, config.epsilon, out=points[li][i - j : i + 1])
                decisions[li].extend(banks[li].observe(s) for s in stats)
        del chunk

    report = Report()
    report.add("train.samples", stream_size, "count")
    report.add("train.levels", levels, "count")
    report.add("train.capacity", config.k, "count")
    center_distances = []
    for li, level_points in enumerate(points):
        centers, assign, inertia = offline_kmeans(
            level_points, config.k, restarts=50, seed=config.seed
        )
        prot = banks[li].vectors()
        matched, dists = match_to_centers(prot, centers)
        spreads = []
        for j in range(config.k):
            members = level_points[assign == j]  # none when k-means drew equal points as centers
            spread = sq_distances(members, centers[j : j + 1]).mean() if len(members) else 0.0
            spreads.append(float(spread))
        center_distances.append(dists)
        taus = [rep.tau for rep in decisions[li] if rep.tau is not None]
        evictions = sum(rep.action == "replace" for rep in decisions[li])
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
    report.extra["tau_trajectory"] = [[rep.tau for rep in level] for level in decisions]
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
    output to the bank after this sample's update (post). The output's
    statistics are taken inside the remap pass; no rectified map is built.
    """
    if len(banks) != len(spec.pyramid_shapes):
        raise ValueError(f"{len(banks)} banks for {len(spec.pyramid_shapes)} levels")
    for li, (bank, (c, _, _)) in enumerate(zip(banks, spec.pyramid_shapes)):
        if not len(bank):
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
        for li, bank in enumerate(banks):
            fmap, pyramid[li] = pyramid[li], None  # the map dies once read
            s = compute_stats(fmap, config.epsilon)[0]
            if observe_first:
                decision = bank.observe(s)
            (result,) = project(
                bank, fmap, config.softmax_temperature, [s],
                epsilon=config.epsilon, build_map=False,
            )
            if not observe_first:
                decision = bank.observe(s)
            post = float(np.min(bank.distances(result.rectified_stats)))
            steps[li].append((decision, float(np.min(result.distances)), post))
        del fmap

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
) -> Annotation:
    """Random boxes for all but the last category (for one, for that one).

    Raises ValueError for an image smaller than 2x2, which has no room for a box.
    """
    h, w = image_size
    if h < 2 or w < 2:
        raise ValueError(f"image size (--image-size) must be at least 2x2, got {h}x{w}")
    boxes, cats = [], []
    for cat in range(max(num_categories - 1, 1)):
        for _ in range(int(rng.integers(1, 4))):
            x0 = float(rng.uniform(0, w - 2))
            y0 = float(rng.uniform(0, h - 2))
            x1 = float(rng.uniform(x0, w - 1))
            y1 = float(rng.uniform(y0, h - 1))
            boxes.append((x0, y0, x1, y1))
            cats.append(cat)
    return Annotation(boxes=boxes, categories=cats)


def synthetic_pair(
    rng: np.random.Generator, d: int, level_shapes: tuple[tuple[int, int], ...]
) -> tuple[TokenSequence, TokenSequence]:
    """The token sequences of a random (1, d, h, w) source pyramid and of its
    augmented view: a per-channel affine style shift plus mild noise.

    Draws the source levels, the style scale and shift, and then each level's
    noise, each as (d, h * w) and transposed into its rows of the (N, d) tokens.
    The pair shares one positions array, since its levels share their shapes.
    """
    bounds = np.cumsum([0, *(h * w for h, w in level_shapes)]).tolist()
    source, augmented = np.empty((bounds[-1], d)), np.empty((bounds[-1], d))
    for lo, hi in zip(bounds, bounds[1:]):
        source[lo:hi] = rng.normal(size=(d, hi - lo)).T
    scale = rng.uniform(0.7, 1.3, size=d)
    shift = rng.normal(0.0, 0.5, size=d)
    for lo, hi in zip(bounds, bounds[1:]):  # level * scale + shift + 0.05 * noise, step by step
        aug = np.multiply(source[lo:hi], scale, out=augmented[lo:hi])
        aug += shift
        noise = rng.normal(size=(d, hi - lo))
        noise *= 0.05
        aug += noise.T
    positions = sine_positions(level_shapes, d)
    return tuple(TokenSequence(t, positions, level_shapes) for t in (source, augmented))


def fd_gradient(s: np.ndarray, a: np.ndarray, source: bool) -> np.ndarray:
    """Central differences of the contrastive loss of (n, d) present-row
    queries with respect to ``s`` (``source``) or ``a``, each perturbed copy's
    loss bit-identical to that copy's alone; see
    :func:`contrastive_alignment._fd_gradient`."""
    return _fd_gradient(np.asarray(s, dtype=float), np.asarray(a, dtype=float), source)


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
    if num_categories > MAX_CATEGORIES:
        raise ValueError(f"--categories must be at most {MAX_CATEGORIES}, got {num_categories}")
    if not np.isfinite(l_det):
        raise ValueError(f"l_det (--l-det) must be finite, got {l_det}")
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
    mask_set = align_to_tokens(build_masks(annotation, image_size, num_categories), level_shapes)
    if not mask_set.present.any():
        raise ValueError("annotation has no present category; the contrastive loss needs one")

    seq_src, seq_aug = synthetic_pair(rng, config.d, level_shapes)
    params = AttentionParams.init_random(config.d, rng)
    q0 = init_class_queries(num_categories, config.d, rng)
    kv = project_keys_values(seq_src, mask_set, params)
    q_source = run_encoder_side(q0, seq_src, mask_set, params, config.heads, blocks, kv)
    kv = project_keys_values(seq_aug, mask_set, params, out=kv)  # into the source side's arrays
    q_augmented = run_encoder_side(q0, seq_aug, mask_set, params, config.heads, blocks, kv)

    batch = ContrastiveBatch(q_source, q_augmented, mask_set.present)
    loss_rep = contrastive_loss(batch)
    l_total = total_loss(l_det, loss_rep.l_contra, config.lambda_c)

    # Only present rows are compared: the loss never reads the row of a category
    # that is not present, so its analytic and finite-difference gradients are both 0.0.
    idx = np.flatnonzero(batch.present)
    s, a = batch.q_source[idx], batch.q_augmented[idx]
    fd_err = max(
        max_relative_error(loss_rep.grad_q_source[idx], fd_gradient(s, a, source=True)),
        max_relative_error(loss_rep.grad_q_augmented[idx], fd_gradient(s, a, source=False)),
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
    Raises ValueError unless ``runs >= 1``, ``warmup >= 0`` and ``config.k <=
    BENCH_MAX_K``.
    """
    if runs < 1:
        raise ValueError(f"runs (--runs) must be at least 1, got {runs!r}")
    if warmup < 0:
        raise ValueError(f"warmup (--warmup) must be at least 0, got {warmup!r}")
    if channels < 1 or min(level_hw, default=0) < 1:
        raise ValueError(
            f"bench needs --bench-channels and --bench-levels >= 1, got {channels} and {level_hw}"
        )
    _require_allocatable(channels * max(level_hw) ** 2, "a bench level (--bench-channels)")
    if config.k > BENCH_MAX_K:
        raise ValueError(
            f"bench fills each level's bank one prototype at a time, so --k must be at most "
            f"{BENCH_MAX_K}, got {config.k}"
        )
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

    proj_ms = timed(lambda: [
        project(bank, level, config.softmax_temperature, epsilon=config.epsilon)
        for bank, level in zip(banks, pyramid)
    ])
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
            f"mean_avg={float(p.p_mean.mean())!r} std_avg={float(p.p_std.mean())!r}"
        )
    return "\n".join(lines) + "\n"
