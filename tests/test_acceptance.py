"""Acceptance gate: one test per release criterion, at pinned tolerances.

Each test prints a single ``[PASS] C<n> ...`` line once its assertions
hold (run with ``pytest -s`` to see them; a failing criterion fails the
test). Every expected value is either hand-derived or computed by an
independent brute-force oracle from ``oracles.py`` before being compared.
"""

import math
import time

import numpy as np
import pytest

from sa_adapt.config import RunConfig, selftest
from sa_adapt.contrastive_alignment import ContrastiveBatch, contrastive_loss
from sa_adapt.harness import (
    StyleCluster,
    SyntheticDomainSpec,
    bench,
    generate_stream,
    run_train_phase,
)
from sa_adapt.class_query_attention import (
    AttentionParams,
    TokenSequence,
    cross_attend,
    init_class_queries,
    project_keys_values,
)
from sa_adapt.object_gating import Annotation, align_to_tokens, build_masks
from sa_adapt.style_memory_bank import StyleMemoryBank, load
from sa_adapt.style_projection import project
from sa_adapt.style_statistics import ChannelStats, compute_stats, style_distance, style_vector

import oracles


class Budget:
    """Context manager asserting the criterion finished inside its budget."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, (
                f"criterion exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
        return False


def test_c01_default_configuration_constants():
    with Budget(1.0):
        cfg = RunConfig()
        assert cfg.k == 4
        assert cfg.alpha == 0.7
        assert cfg.lambda_c == 0.1
        assert cfg.epsilon == 1e-6
        selftest()
    print("[PASS] C1 default constants K=4 alpha=0.7 lambda_c=0.1 epsilon=1e-6")


def test_c02_statistics_match_loop_oracle():
    with Budget(5.0):
        rng = np.random.default_rng(42)
        for _ in range(100):
            b = int(rng.integers(1, 3))
            c = int(rng.integers(1, 6))
            h = int(rng.integers(1, 7))
            w = int(rng.integers(1, 7))
            f = rng.normal(size=(b, c, h, w)) * rng.uniform(0.1, 4) + rng.normal()
            means, stds = oracles.stats_double_loop(f)
            got = compute_stats(f)
            for i in range(b):
                assert np.abs(got[i].mean - means[i]).max() < 1e-12
                assert np.abs(got[i].std - stds[i]).max() < 1e-12
    print("[PASS] C2 compute_stats equals naive loop oracle on 100 random pyramids")


def test_c03_style_distance_identity():
    with Budget(1.0):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            c = int(rng.integers(1, 32))
            a = ChannelStats(rng.normal(size=c), rng.uniform(0.2, 3, c))
            b = ChannelStats(rng.normal(size=c), rng.uniform(0.2, 3, c))
            want = oracles.squared_moment_gap(a.mean, a.std, b.mean, b.std)
            assert abs(style_distance(a, b) - want) < 1e-12
            assert style_distance(a, b) > 0.0  # random pairs never coincide
        s = ChannelStats(rng.normal(size=8), rng.uniform(0.2, 3, 8))
        assert style_distance(s, s) == 0.0
    print("[PASS] C3 style distance equals squared moment gap; zero iff equal")


def test_c04_bank_self_organization_vs_kmeans():
    with Budget(10.0):
        seed = 4
        cfg = RunConfig(seed=seed)
        spec = SyntheticDomainSpec(
            style_clusters=[
                StyleCluster(mean_seed=1000 * seed + 17 * i, std_seed=1000 * seed + 17 * i + 7919)
                for i in range(4)
            ],
            pyramid_shapes=[(64, 8, 8)],
            samples_per_cluster=50,  # 200 samples total
            rng_seed=seed,
        )
        # oracle first: collect the stream's stats and cluster them offline
        points = []
        samples = []
        for pyramid, _ in generate_stream(spec):
            (s,) = compute_stats(pyramid[0])
            samples.append(s)
            points.append(style_vector(s))
        points = np.stack(points)
        centers, labels = oracles.lloyd_kmeans(points, 4, restarts=50, seed=0)
        spreads = np.array(
            [((points[labels == j] - centers[j]) ** 2).sum(axis=1).mean() for j in range(4)]
        )

        bank = StyleMemoryBank(capacity=cfg.k, alpha=cfg.alpha, momentum=cfg.momentum)
        for s in samples:
            bank.observe(s)
        taken = set()
        for p in bank.prototypes:
            vec = style_vector(p)
            d = ((centers - vec) ** 2).sum(axis=1)
            j = int(d.argmin())
            assert j not in taken, "two prototypes matched the same center"
            taken.add(j)
            assert d[j] <= 0.10 * spreads[j]
    print("[PASS] C4 four prototypes within 10% of cluster spread of distinct k-means centers")


def test_c05_tta_contraction_and_frozen_count():
    with Budget(1.0):
        rng = np.random.default_rng(44)
        bank = StyleMemoryBank(capacity=4)
        for _ in range(4):
            bank.observe(ChannelStats(rng.normal(size=32), rng.uniform(0.5, 2, 32)))
        bank.mode = "tta"
        novel = ChannelStats(rng.normal(size=32) + 5.0, rng.uniform(0.5, 2, 32))
        lam2 = bank.momentum**2
        count = len(bank)
        prev = None
        for _ in range(100):
            rep = bank.observe(novel)
            assert rep.action == "fuse"
            assert len(bank) == count
            if prev is not None:
                assert rep.d_min <= lam2 * prev + 1e-12
            prev = rep.d_min
    print("[PASS] C5 tta d_min contracts by momentum^2 each step; prototype count frozen")


def test_c06_projection_identity_and_restatement():
    with Budget(5.0):
        rng = np.random.default_rng(45)
        # identity: single prototype equal to the input's own statistics
        f = rng.normal(size=(1, 16, 10, 10)) * 1.7 - 0.4
        bank = StyleMemoryBank(capacity=1)
        bank.observe(compute_stats(f)[0])
        (res,) = project(bank, f)
        assert np.abs(res.rectified - f).max() < 1e-9
        # restatement: re-measured output statistics equal the targets
        for _ in range(50):
            c = int(rng.integers(2, 24))
            f = rng.normal(size=(1, c, 8, 8)) * rng.uniform(0.5, 2) + rng.normal()
            bank = StyleMemoryBank(capacity=4)
            for _ in range(4):
                bank.observe(ChannelStats(rng.normal(size=c), rng.uniform(0.5, 2, c)))
            (res,) = project(bank, f)
            out = oracles.rectified_stats(res)
            assert np.abs(out.mean - res.target_mean).max() < 1e-4
            assert np.abs(out.std - res.target_std).max() < 1e-4
    print("[PASS] C6 projection identity within 1e-9; output stats equal targets within 1e-4")


def test_c07_mask_oracles():
    with Budget(5.0):
        rng = np.random.default_rng(46)
        for _ in range(100):
            h = int(rng.integers(4, 14))
            w = int(rng.integers(4, 14))
            cats = int(rng.integers(1, 5))
            n_boxes = int(rng.integers(0, 12))
            boxes, ids = [], []
            for _ in range(n_boxes):
                x0, x1 = sorted(rng.uniform(-1, w, 2))
                y0, y1 = sorted(rng.uniform(-1, h, 2))
                boxes.append((x0, y0, x1, y1))
                ids.append(int(rng.integers(0, cats)))
            ann = Annotation(boxes=boxes, categories=ids)
            ms = build_masks(ann, (h, w), cats)
            want = oracles.masks_point_in_box(boxes, ids, (h, w), cats)
            assert np.array_equal(ms.per_category, want)
            shapes = [(max(h // 2, 1), max(w // 2, 1)), (max(h // 4, 1), max(w // 4, 1))]
            aligned = align_to_tokens(ms, shapes)
            assert np.array_equal(
                aligned.token_masks, oracles.token_align_any(ms.per_category, shapes)
            )
    print("[PASS] C7 masks equal point-in-box oracle; token alignment equals any() oracle")


def test_c08_attention_mask_soundness_and_oracle():
    with Budget(5.0):
        rng = np.random.default_rng(47)
        from test_class_query_attention import make_masks

        for trial in range(20):
            tokens = rng.normal(size=(20, 8))
            positions = rng.normal(size=(20, 8))
            # the projection moves rows of the tokens it is given, so it gets a copy
            seq = TokenSequence(tokens=tokens.copy(), positions=positions, level_shapes=[(1, 20)])
            token_masks = rng.random((3, 20)) < 0.4
            token_masks[2, :] = False  # a fully masked category every trial
            masks = make_masks(token_masks)
            params = AttentionParams.init_random(8, rng)
            q = init_class_queries(3, 8, rng)
            out = cross_attend(q, project_keys_values(seq, masks, params), masks, params, heads=2)
            # naive-loop oracle agreement
            want = oracles.naive_masked_attention(
                q, tokens, positions, token_masks, params, 2
            )
            assert np.abs(out - want).max() < 1e-9
            # zeroing non-attendable content changes nothing
            zeroed = tokens.copy()
            zeroed[~token_masks.any(axis=0)] = 0.0
            out_zeroed = cross_attend(
                q,
                project_keys_values(
                    TokenSequence(tokens=zeroed, positions=positions, level_shapes=[(1, 20)]),
                    masks,
                    params,
                ),
                masks,
                params,
                heads=2,
            )
            assert np.abs(out - out_zeroed).max() < 1e-12
            # fully masked category passes through unchanged
            assert np.array_equal(out[2], q[2])
    print("[PASS] C8 attention ignores masked tokens, matches naive oracle, passes absents through")


def test_c09_contrastive_closed_forms_and_gradients():
    with Budget(10.0):
        # identical query sets (all rows one vector): uniform softmax
        for c in (2, 4, 7):
            q = np.tile(np.linspace(-0.5, 1.5, 16), (c, 1))
            rep = contrastive_loss(
                ContrastiveBatch(q, q.copy(), np.ones(c, dtype=bool))
            )
            assert abs(rep.l_contra - math.log(c)) < 1e-12
        # closed-form two-category diagonal cases
        for s in (0.0, 1.0, 5.0):
            a = math.sqrt(s)
            q = np.zeros((2, 4))
            q[0, 0] = a
            q[1, 1] = a
            rep = contrastive_loss(ContrastiveBatch(q, q.copy(), np.ones(2, dtype=bool)))
            want = -math.log(math.exp(s) / (math.exp(s) + 1.0))
            assert abs(rep.l_contra - want) < 1e-12
        # finite differences over 50 random batches
        rng = np.random.default_rng(48)
        worst = 0.0
        for _ in range(50):
            batch = ContrastiveBatch(
                rng.normal(size=(7, 16)), rng.normal(size=(7, 16)), np.ones(7, dtype=bool)
            )
            rep = contrastive_loss(batch)
            fd_s = oracles.central_difference(
                lambda: contrastive_loss(batch).l_contra, batch.q_source
            )
            fd_a = oracles.central_difference(
                lambda: contrastive_loss(batch).l_contra, batch.q_augmented
            )
            worst = max(
                worst,
                oracles.relative_gap(rep.grad_q_source, fd_s),
                oracles.relative_gap(rep.grad_q_augmented, fd_a),
            )
        assert worst < 1e-6
    print(f"[PASS] C9 contrastive closed forms exact; FD gradient gap {worst:.2e} < 1e-6")


def test_c10_determinism_and_bit_exact_persistence(tmp_path):
    with Budget(10.0):
        import contextlib
        import io

        from sa_adapt.cli import main as cli_main

        args = [
            "train-bank",
            "--seed",
            "5",
            "--channels",
            "16",
            "--samples-per-cluster",
            "12",
            "--levels",
            "6x6,4x4",
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(args + ["--out-dir", str(tmp_path / "a")])
            cli_main(args + ["--out-dir", str(tmp_path / "b")])
        for level in (0, 1):
            blob_a = (tmp_path / "a" / f"bank_level{level}.sabank").read_bytes()
            blob_b = (tmp_path / "b" / f"bank_level{level}.sabank").read_bytes()
            assert blob_a == blob_b
        # save/load round-trip after 1000 updates is bit-exact
        rng = np.random.default_rng(49)
        bank = StyleMemoryBank(capacity=4)
        for _ in range(1000):
            bank.observe(ChannelStats(rng.normal(size=8), rng.uniform(0.3, 2, 8)))
        blob = bank.save()
        assert load(blob).save() == blob
    print("[PASS] C10 repeated train-bank byte-identical; 1000-update save/load bit-exact")


def test_c11_latency_protocol():
    with Budget(60.0):
        cfg = RunConfig(seed=6)
        report = bench(cfg, runs=500, warmup=20, channels=256, level_hw=(64, 32, 16, 8))
        assert report.value("bench.runs") == 500
        assert len(report.extra["projection_ms"]) == 500
        assert len(report.extra["observe_ms"]) == 500
        for name in (
            "bench.projection_mean",
            "bench.projection_p95",
            "bench.observe_mean",
            "bench.observe_p95",
        ):
            assert report.value(name) > 0.0
        ratio = report.value("bench.observe_overhead_ratio")
        assert ratio < 0.15
    print(
        f"[PASS] C11 500-run protocol; observe overhead {100 * ratio:.2f}% of projection < 15%"
    )
