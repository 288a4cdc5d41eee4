"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately written as plain loops (or a separate
textbook algorithm), independent of the library code paths it checks. The
whole-map formulas (``stats_whole_map``, ``affine_remap``), the stacked-copies
finite differences, the dense masked attention, the whole and the gathered
key and value products, the sequential k-means and the per-sample train
phase are the exception: they are the references that the faster forms
reproduce bit for bit. ``parse_report`` and ``rectified_stats`` are plain
helpers that only the tests call.
"""

from __future__ import annotations

import itertools
import math
import struct
from typing import NamedTuple

import numpy as np


def stats_double_loop(f, epsilon=1e-6):
    """Naive per-sample mean/std of a (B, C, H, W) map."""
    f = np.asarray(f, dtype=float)
    bsz, c, h, w = f.shape
    means = np.zeros((bsz, c))
    stds = np.zeros((bsz, c))
    for b in range(bsz):
        for ch in range(c):
            total = 0.0
            for y in range(h):
                for x in range(w):
                    total += f[b, ch, y, x]
            mu = total / (h * w)
            acc = 0.0
            for y in range(h):
                for x in range(w):
                    acc += (f[b, ch, y, x] - mu) ** 2
            means[b, ch] = mu
            stds[b, ch] = math.sqrt(acc / (h * w) + epsilon)
    return means, stds


def stats_whole_map(f, epsilon=1e-6):
    """Per-sample (mean, std) of a (B, C, H, W) map from whole-map numpy
    reductions: ``f.mean`` and ``np.mean((f - mean) ** 2)`` over (H, W)."""
    f = np.asarray(f, dtype=float)
    mean = f.mean(axis=(2, 3))
    var = np.mean((f - mean[:, :, None, None]) ** 2, axis=(2, 3))
    return mean, np.sqrt(var + epsilon)


def affine_remap(f, scale, shift):
    """``f * scale + shift`` per channel of a (B, C, H, W) map, in one expression."""
    return f * scale[None, :, None, None] + shift[None, :, None, None]


def squared_moment_gap(mean_a, std_a, mean_b, std_b):
    """Loop evaluation of sum((mu-mu')^2) + sum((sigma-sigma')^2)."""
    total = 0.0
    for m1, m2 in zip(mean_a, mean_b):
        total += (m1 - m2) ** 2
    for s1, s2 in zip(std_a, std_b):
        total += (s1 - s2) ** 2
    return total


def masks_point_in_box(boxes, categories, image_size, num_categories):
    """Per-(pixel, box) membership loop."""
    h, w = image_size
    masks = np.zeros((num_categories, h, w), dtype=bool)
    for y in range(h):
        for x in range(w):
            for (x0, y0, x1, y1), cat in zip(boxes, categories):
                if x0 <= x <= x1 and y0 <= y <= y1:
                    masks[cat, y, x] = True
    return masks


def token_align_any(per_category, level_shapes):
    """Per-cell any() pooling over floor-partition cells, concatenated."""
    c, h, w = per_category.shape
    columns = []
    for h_l, w_l in level_shapes:
        level = np.zeros((c, h_l, w_l), dtype=bool)
        for i in range(h_l):
            r0, r1 = (i * h) // h_l, ((i + 1) * h) // h_l
            for j in range(w_l):
                c0, c1 = (j * w) // w_l, ((j + 1) * w) // w_l
                for cat in range(c):
                    level[cat, i, j] = bool(per_category[cat, r0:r1, c0:c1].any())
        columns.append(level.reshape(c, h_l * w_l))
    return np.concatenate(columns, axis=1)


def naive_masked_attention(queries, tokens, positions, token_masks, params, heads):
    """Scaled dot-product cross-attention, one category and head at a time."""
    q = np.asarray(queries, dtype=float)
    c_count, d = q.shape
    d_head = d // heads
    out = q.copy()
    for cat in range(c_count):
        keep = [i for i in range(len(tokens)) if token_masks[cat, i]]
        if not keep:
            continue
        q_proj = q[cat] @ params.w_q
        context = np.zeros(d)
        for h in range(heads):
            lo, hi = h * d_head, (h + 1) * d_head
            scores = []
            for i in keep:
                key = (tokens[i] + positions[i]) @ params.w_k
                scores.append(float(np.dot(key[lo:hi], q_proj[lo:hi])) / math.sqrt(d_head))
            m = max(scores)
            exps = [math.exp(s - m) for s in scores]
            z = sum(exps)
            for weight, i in zip(exps, keep):
                value = tokens[i] @ params.w_v
                context[lo:hi] += (weight / z) * value[lo:hi]
        out[cat] = q[cat] + context @ params.w_o
    return out


def dense_masked_softmax(queries, tokens, positions, token_masks, params, heads):
    """The rows with an attendable token, the (H, R, M) attention weights of one
    dense softmax over all categories and heads, masked logits set to -inf
    first, and the (M, d) values. The earlier whole-array form of the softmax
    of ``cross_attend``."""
    q = np.asarray(queries, dtype=float)
    d = q.shape[1]
    index = np.flatnonzero(token_masks.any(axis=0))
    keys = (tokens[index] + positions[index]) @ params.w_k
    values = tokens[index] @ params.w_v
    live = token_masks[:, index]
    rows = np.flatnonzero(live.any(axis=1))
    live = live[rows]
    d_head, m = d // heads, len(index)
    qh = (q[rows] @ params.w_q).reshape(len(rows), heads, d_head).transpose(1, 0, 2)
    logits = qh @ keys.reshape(m, heads, d_head).transpose(1, 2, 0)
    logits *= 1.0 / math.sqrt(d_head)
    np.copyto(logits, -np.inf, where=~live)
    logits -= logits.max(axis=2, keepdims=True)
    weights = np.exp(logits, out=logits)
    weights /= weights.sum(axis=2, keepdims=True)
    return rows, weights, values


def dense_masked_attention(queries, tokens, positions, token_masks, params, heads):
    """Masked cross-attention through :func:`dense_masked_softmax`; returns the
    output. The earlier whole-array form of ``cross_attend``."""
    q = np.asarray(queries, dtype=float)
    out = q.copy()
    if not token_masks.any():
        return out
    rows, weights, values = dense_masked_softmax(q, tokens, positions, token_masks, params, heads)
    d = q.shape[1]
    d_head, m = d // heads, len(values)
    ctx = weights @ values.reshape(m, heads, d_head).transpose(1, 0, 2)
    out[rows] += ctx.transpose(1, 0, 2).reshape(len(rows), d) @ params.w_o
    return out


def whole_key_value_products(tokens, positions, index, params):
    """Keys ``(tokens + positions) @ w_k`` and values ``tokens @ w_v`` of the
    ``index`` rows, each one product over all M gathered rows, the positions
    gathered whole: ``class_query_attention.project_keys_values`` before it
    added them in row blocks and could write into another projection's arrays."""
    attended = tokens[index]
    values = attended @ params.w_v
    attended += positions[index]
    return attended @ params.w_k, values


class GatheredKeyValues(NamedTuple):
    keys: np.ndarray
    values: np.ndarray


def gathered_key_values(tokens, positions, index, params, out=None):
    """Keys and values of the ``index`` rows, gathered into a new (M, d) array:
    the value product of the gathered rows, then the positions added to them
    in place, then the key product. ``out``, an earlier result, receives both
    products. ``tokens`` is only read. The earlier default path of
    ``class_query_attention.project_keys_values``, which now moves the rows
    within the tokens instead."""
    attended = tokens[index]
    if out is None:
        out = GatheredKeyValues(np.empty_like(attended), np.empty_like(attended))
    np.matmul(attended, params.w_v, out=out.values)
    attended += positions[index]
    np.matmul(attended, params.w_k, out=out.keys)
    return out


def concatenated_sine_positions(level_shapes, d):
    """The sine encodings of every level built as whole blocks: each level's
    row half by ``repeat`` and column half by ``tile``, joined by two
    ``concatenate`` calls. The earlier form of ``np.asarray(SineEncoding(...))``."""
    half = d // 2
    dim_t = 10000.0 ** (2.0 * (np.arange(half) // 2) / half)

    def interleaved(angles):
        enc = np.empty_like(angles)
        enc[:, 0::2] = np.sin(angles[:, 0::2])
        enc[:, 1::2] = np.cos(angles[:, 1::2])
        return enc

    out = []
    for h, w in level_shapes:
        ys = (np.arange(h, dtype=float) + 0.5) / h * (2.0 * math.pi)
        xs = (np.arange(w, dtype=float) + 0.5) / w * (2.0 * math.pi)
        enc_y = interleaved(ys[:, None] / dim_t[None, :])
        enc_x = interleaved(xs[:, None] / dim_t[None, :])
        out.append(np.concatenate([np.repeat(enc_y, w, axis=0), np.tile(enc_x, (h, 1))], axis=1))
    return np.concatenate(out, axis=0)


def list_pair_pyramids(rng, d, level_shapes):
    """The source and augmented (1, d, h, w) pyramids of an ocl pair, drawn as
    lists with whole-expression arithmetic. The earlier form of the draws of
    ``harness.synthetic_pair``."""
    source = [rng.normal(size=(1, d, h, w)) for h, w in level_shapes]
    scale = rng.uniform(0.7, 1.3, size=d)[None, :, None, None]
    shift = rng.normal(0.0, 0.5, size=d)[None, :, None, None]
    augmented = [level * scale + shift + 0.05 * rng.normal(size=level.shape) for level in source]
    return source, augmented


def expression_stream(spec):
    """The (pyramid, label) pairs of ``harness.generate_stream``, each level
    built by whole-array expressions: the earlier form of the generator."""
    from sa_adapt.harness import cluster_centers

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


def central_difference(func, x, step=1e-5):
    """Central finite-difference gradient of scalar func() w.r.t. array x."""
    grad = np.zeros_like(x, dtype=float)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = func()
        flat[i] = orig - step
        down = func()
        flat[i] = orig
        grad.reshape(-1)[i] = (up - down) / (2 * step)
    return grad


def stacked_contrastive_loss(s, a):
    """The contrastive loss of every pair in (..., n, d) stacks of present-row
    queries, from whole (..., n, n) logits stacks. The earlier stacked form
    of the library's loss."""
    logits = s @ np.swapaxes(a, -1, -2)
    shifted = logits - logits.max(axis=-2, keepdims=True)
    z = np.exp(shifted).sum(axis=-2)
    log_prob_diag = shifted.diagonal(axis1=-2, axis2=-1) - np.log(z)
    return -(log_prob_diag.sum(axis=-1) / logits.shape[-1])

def stacked_fd_gradient(loss, x, step=1e-5, chunk_bytes=4 << 20):
    """Central differences from stacked whole copies of ``x``: ``loss`` maps
    an (m, *x.shape) stack to its (m,) values, and each chunk of entries
    sends its +step and -step copies in one stack of at most ``chunk_bytes``.
    The earlier form of ``harness.fd_gradient``."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    grad = np.empty(flat.size)
    per_chunk = max(1, min(chunk_bytes // max(2 * x.nbytes, 1), flat.size))
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


def relative_gap(a, b):
    """Largest entry-wise gap relative to the arrays' overall magnitude.

    Normalizing per entry would let finite-difference noise (~1e-11
    absolute) dominate entries whose true value is even smaller.
    """
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-300)
    return float(np.abs(a - b).max() / scale)


def lloyd_kmeans(points, k, restarts=50, seed=0):
    """Plain multi-restart Lloyd clustering; returns (centers, labels)."""
    points = np.asarray(points, dtype=float)
    rng = np.random.default_rng(seed)
    best_centers, best_labels, best_cost = None, None, np.inf
    for _ in range(restarts):
        centers = points[rng.choice(len(points), size=k, replace=False)].copy()
        labels = np.zeros(len(points), dtype=int)
        for _ in range(300):
            dists = np.stack(
                [np.linalg.norm(points - c, axis=1) for c in centers], axis=1
            )
            labels = dists.argmin(axis=1)
            moved = False
            for j in range(k):
                members = points[labels == j]
                if len(members):
                    new = members.mean(axis=0)
                    if not np.array_equal(new, centers[j]):
                        centers[j] = new
                        moved = True
            if not moved:
                break
        cost = sum(float(((p - centers[l]) ** 2).sum()) for p, l in zip(points, labels))
        if cost < best_cost:
            best_centers, best_labels, best_cost = centers.copy(), labels.copy(), cost
    return best_centers, best_labels


def broadcast_kmeans(points, k, restarts=50, seed=0):
    """Multi-restart Lloyd clustering assigned from the full (N, K, D)
    broadcast of squared differences; returns (centers, assignment, inertia).

    The same draws, update, convergence test and selection as
    ``harness.offline_kmeans``, whose assignment it must reproduce bit for bit.
    """
    points = np.asarray(points, dtype=float)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        centers = points[rng.choice(len(points), size=k, replace=False)].copy()
        for _ in range(200):
            d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
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


def sequential_kmeans(points, k, restarts=50, seed=0, iterations=None):
    """Multi-restart Lloyd clustering, one restart after the other; returns
    (centers, assignment, inertia) and appends each restart's Lloyd iteration
    count to ``iterations``, if given.

    ``harness.offline_kmeans`` as it ran before its restarts ran in lockstep:
    the same draws, assignment, update, convergence test and selection. Each
    iteration ranks all K centers of every point with one (K, D) x (D, N)
    product of ``|c|^2 - 2 x.c`` and rechecks with ``sq_distances`` each point
    with no single center within the rounding bound of its least value; each
    restart's inertia is taken in full.
    """
    from sa_adapt.style_statistics import sq_distances

    points = np.asarray(points, dtype=float)
    d = points.shape[1]
    minus_twice_t = -2.0 * np.ascontiguousarray(points.T)
    sq_norms = np.einsum("ij,ij->i", points, points)
    u = 2.0**-53
    gamma = (d + 4) * u / (1.0 - (d + 4) * u)
    two_beta = 16.0 * (gamma * sq_norms + d * 2.0**-1074)
    headroom = np.finfo(float).max / 8 - sq_norms.max()

    def nearest(centers):
        center_norms = np.einsum("ij,ij->i", centers, centers)
        center_max = center_norms.max()
        if not center_max < headroom:
            return sq_distances(points, centers).argmin(axis=1)
        approx = centers @ minus_twice_t
        approx += center_norms[:, None]
        threshold = approx.min(axis=0) + two_beta + 16.0 * gamma * center_max
        near = approx <= threshold
        assign = np.arange(len(centers)) @ near
        unsure = np.flatnonzero(near.sum(axis=0) != 1)
        if len(unsure):
            assign[unsure] = sq_distances(points, centers)[unsure].argmin(axis=1)
        return assign

    buf = np.empty(points.shape)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        centers = points[rng.choice(len(points), size=k, replace=False)].copy()
        assign = None
        for step in range(1, 201):
            previous, assign = assign, nearest(centers)
            if previous is None:
                dirty = np.arange(k)
            else:
                moved = np.flatnonzero(assign != previous)
                dirty = np.union1d(previous[moved], assign[moved])
            new_centers = centers.copy()
            for j in dirty:
                members = points[assign == j]
                if len(members):
                    new_centers[j] = members.mean(axis=0)
            if np.array_equal(new_centers, centers):
                break
            centers = new_centers
        if iterations is not None:
            iterations.append(step)
        np.take(centers, assign, axis=0, out=buf, mode="clip")
        np.subtract(points, buf, out=buf)
        np.square(buf, out=buf)
        inertia = float(buf.sum())
        if best is None or inertia < best[2]:
            best = (centers, assign, inertia)
    return best


def match_permutations(vectors, centers):
    """Bijective vector-to-center matching of least total squared distance,
    by trying every permutation (first minimum in lexicographic order)."""
    vectors = np.asarray(vectors, dtype=float)
    centers = np.asarray(centers, dtype=float)
    k = len(vectors)
    d2 = ((vectors[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    best_perm, best_cost = None, np.inf
    for perm in itertools.permutations(range(k)):
        cost = sum(d2[i, perm[i]] for i in range(k))
        if cost < best_cost:
            best_perm, best_cost = perm, cost
    return list(best_perm)


class ReferenceBank:
    """A style memory bank as a plain list of (mean, std, use_count,
    last_update) records, each observation a new record or a new tuple.

    Bootstrap appends while a train bank has room; otherwise the nearest
    record (distances from ``sq_distances``) fuses as ``lam * old + (1 - lam)
    * new``, unless a train bank finds ``d_min > tau``, with ``tau = alpha /
    capacity * sum(d)``: then the record of fewest uses, and of these the
    oldest, is replaced. ``observe`` returns (action, index, d_min, tau), and
    ``save`` packs the bank file field by field with ``struct``.
    """

    def __init__(self, capacity, alpha, momentum, mode="train", step=0, records=()):
        self.capacity, self.alpha, self.momentum = capacity, alpha, momentum
        self.mode, self.step = mode, step
        self.records = [(m.copy(), s.copy(), u, t) for m, s, u, t in records]

    def observe(self, mean, std):
        from sa_adapt.style_statistics import sq_distances

        self.step += 1
        n = len(self.records)
        if n < self.capacity and self.mode == "train":
            self.records.append((mean.copy(), std.copy(), 1, self.step))
            return "bootstrap", n, None, None
        stacked = np.stack([np.concatenate([m, s]) for m, s, _, _ in self.records])
        d = sq_distances(np.concatenate([mean, std])[None], stacked)[0]
        tau = float(self.alpha / self.capacity * np.sum(d))
        nearest = int(np.argmin(d))
        d_min = float(d[nearest])
        if d_min > tau and self.mode == "train":
            victim = 0
            for i, (_, _, u, t) in enumerate(self.records):
                if (u, t) < self.records[victim][2:]:
                    victim = i
            self.records[victim] = (mean.copy(), std.copy(), 1, self.step)
            return "replace", victim, d_min, tau
        m, s, u, _ = self.records[nearest]
        lam = self.momentum
        self.records[nearest] = (
            lam * m + (1.0 - lam) * mean, lam * s + (1.0 - lam) * std, u + 1, self.step
        )
        return "fuse", nearest, d_min, tau

    def save(self):
        c = len(self.records[0][0]) if self.records else 0
        blob = struct.pack(
            "<6sIIIIBQdd", b"SABANK", 1, self.capacity, c, len(self.records),
            ("train", "tta").index(self.mode), self.step, self.alpha, self.momentum,
        )
        for m, s, u, t in self.records:
            blob += struct.pack(f"<{c}d{c}dQQ", *m, *s, u, t)
        return blob


def per_sample_train_steps(config, spec):
    """The train stream one sample and level at a time, as it ran before the
    stream was taken in chunks: one ``compute_stats`` call per map and one
    ``style_vector`` per step. Returns (banks, steps), with ``steps[level][sample]``
    the (UpdateReport, style vector) of that observation."""
    from sa_adapt.harness import StyleMemoryBank, compute_stats, generate_stream
    from sa_adapt.style_statistics import style_vector

    levels = len(spec.pyramid_shapes)
    banks = [
        StyleMemoryBank(capacity=config.k, alpha=config.alpha, momentum=config.momentum)
        for _ in range(levels)
    ]
    steps = [[] for _ in range(levels)]
    for pyramid, _ in generate_stream(spec):
        for li, fmap in enumerate(pyramid):
            s = compute_stats(fmap, config.epsilon)[0]
            steps[li].append((banks[li].observe(s), style_vector(s)))
    return banks, steps


def per_sample_train(config, spec):
    """The train phase over ``per_sample_train_steps``, with the pre-lockstep
    k-means (``sequential_kmeans``). Returns (banks, report), the reference for
    ``harness.run_train_phase`` (which also writes the files)."""
    from sa_adapt.harness import Report, match_to_centers
    from sa_adapt.style_statistics import sq_distances

    stream_size = len(spec.style_clusters) * spec.samples_per_cluster
    levels = len(spec.pyramid_shapes)
    banks, steps = per_sample_train_steps(config, spec)

    report = Report()
    report.add("train.samples", stream_size, "count")
    report.add("train.levels", levels, "count")
    report.add("train.capacity", config.k, "count")
    center_distances = []
    for li, level_steps in enumerate(steps):
        decisions, vectors = zip(*level_steps)
        points = np.stack(vectors)
        centers, assign, inertia = sequential_kmeans(
            points, config.k, restarts=50, seed=config.seed
        )
        matched, dists = match_to_centers(banks[li].vectors(), centers)
        spreads = []
        for j in range(config.k):
            members = points[assign == j]
            spread = sq_distances(members, centers[j : j + 1]).mean() if len(members) else 0.0
            spreads.append(float(spread))
        center_distances.append(dists)
        taus = [rep.tau for rep in decisions if rep.tau is not None]
        evictions = sum(rep.action == "replace" for rep in decisions)
        report.add(f"train.level{li}.evictions", evictions, "count")
        report.add(f"train.level{li}.kmeans_inertia", inertia, "dist2")
        report.add(
            f"train.level{li}.tau_mean", float(np.mean(taus)) if taus else 0.0, "dist2"
        )
        for j, (center_idx, dist) in enumerate(zip(matched, dists)):
            report.add(f"train.level{li}.proto{j}.center_distance", dist, "dist2")
            report.add(
                f"train.level{li}.proto{j}.cluster_spread", spreads[center_idx], "dist2"
            )
    report.extra["tau_trajectory"] = [[rep.tau for rep, _ in level] for level in steps]
    report.extra["center_distances"] = center_distances
    return banks, report


def per_sample_tta(config, banks, spec):
    """The tta stream one sample and level at a time, each projection building
    its map and its output statistics measured again from it; switches
    ``banks`` to tta mode. Returns ``steps[level][sample]``, the (UpdateReport,
    pre, post) of that sample: the input's nearest-prototype distance to the
    bank the projection used and the output's to the bank after the update."""
    from sa_adapt.harness import compute_stats, generate_stream
    from sa_adapt.style_projection import project

    for bank in banks:
        bank.mode = "tta"
    steps = [[] for _ in banks]
    for pyramid, _ in generate_stream(spec):
        for li, (bank, fmap) in enumerate(zip(banks, pyramid)):
            s = compute_stats(fmap, config.epsilon)[0]
            if config.tta_order == "observe-first":
                update = bank.observe(s)
            pre = float(np.min(bank.distances(s)))
            (result,) = project(bank, fmap, config.softmax_temperature, [s], config.epsilon)
            if config.tta_order == "project-first":
                update = bank.observe(s)
            post = float(np.min(bank.distances(rectified_stats(result))))
            steps[li].append((update, pre, post))
    return steps


def parse_report(text):
    """The (name, value, unit) records of a text report, the inverse of
    ``harness.format_report``: an integer value reads back as int."""
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


def rectified_stats(result):
    """Output statistics of a projection: those taken in its remap pass when it
    built no map, else re-measured."""
    from sa_adapt.style_statistics import compute_stats

    return result.rectified_stats or compute_stats(result.rectified)[0]
