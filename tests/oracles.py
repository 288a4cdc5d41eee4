"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately written as plain loops (or a separate
textbook algorithm), independent of the library code paths it checks.
"""

from __future__ import annotations

import itertools
import math

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
