import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sa_adapt.cli import main as cli_main
from sa_adapt.config import TTA_ORDERS, RunConfig
from sa_adapt.contrastive_alignment import (
    ContrastiveBatch,
    contrastive_loss_stack,
    contrastive_loss_value,
)
from sa_adapt.object_gating import Annotation
import sa_adapt.harness as harness_mod
from sa_adapt.harness import (
    Report,
    StyleCluster,
    SyntheticDomainSpec,
    bench,
    cluster_centers,
    describe_bank,
    fd_gradient,
    format_report,
    generate_stream,
    load_banks,
    match_to_centers,
    offline_kmeans,
    parse_report,
    run_ocl_demo,
    run_tta_phase,
    run_train_phase,
    style_vector,
    write_report,
)
from sa_adapt.style_memory_bank import StyleMemoryBank, load
from sa_adapt.style_projection import project
from sa_adapt.style_statistics import compute_stats, sq_distances

import oracles


def small_spec(seed=3, clusters=4, samples=25, channels=16, levels=((6, 6),)):
    return SyntheticDomainSpec(
        style_clusters=[
            StyleCluster(mean_seed=100 * seed + 17 * i, std_seed=100 * seed + 17 * i + 7919)
            for i in range(clusters)
        ],
        pyramid_shapes=[(channels, h, w) for h, w in levels],
        samples_per_cluster=samples,
        rng_seed=seed,
    )


def small_config(**kw):
    base = dict(d=16, heads=2, seed=3, out_dir="unused")
    base.update(kw)
    return RunConfig(**base)


class TestGenerateStream:
    def test_deterministic_bit_identical(self):
        spec = small_spec()
        a = list(generate_stream(spec))
        b = list(generate_stream(spec))
        assert len(a) == len(b) == 100
        for (pyr_a, lab_a), (pyr_b, lab_b) in zip(a, b):
            assert lab_a == lab_b
            for la, lb in zip(pyr_a, pyr_b):
                np.testing.assert_array_equal(la, lb)

    def test_zero_spread_reproduces_cluster_center(self):
        spec = small_spec(clusters=2, samples=5)
        for c in spec.style_clusters:
            c.spread = 0.0
        centers = cluster_centers(spec)
        for pyramid, label in generate_stream(spec):
            (s,) = compute_stats(pyramid[0])
            mu_center, sd_center = centers[label][0]
            assert np.abs(s.mean - mu_center).max() < 1e-9
            raw_std = np.sqrt(s.std**2 - 1e-6)
            assert np.abs(raw_std - sd_center).max() < 1e-9

    def test_samples_balanced_per_cluster(self):
        spec = small_spec(clusters=3, samples=7)
        labels = [label for _, label in generate_stream(spec)]
        assert sorted(set(labels)) == [0, 1, 2]
        assert all(labels.count(c) == 7 for c in range(3))

    def test_measured_stats_recover_clusters(self):
        spec = small_spec()
        points = []
        labels = []
        for pyramid, label in generate_stream(spec):
            (s,) = compute_stats(pyramid[0])
            points.append(style_vector(s))
            labels.append(label)
        centers, assign = oracles.lloyd_kmeans(np.stack(points), 4, restarts=20, seed=0)
        # oracle clustering must agree with the generating labels up to relabeling
        mapping = {}
        for a, l in zip(assign, labels):
            mapping.setdefault(a, l)
            assert mapping[a] == l

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            small_spec(levels=((1, 1),))  # too small to carry exact stats
        with pytest.raises(ValueError):
            SyntheticDomainSpec([], [(4, 4, 4)], 5, 0)
        with pytest.raises(ValueError):
            StyleCluster(0, 0, spread=-0.1)
        for spread in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="spread"):
                StyleCluster(0, 0, spread=spread)

    def test_k_above_the_stream_size_fails_before_streaming(self, monkeypatch):
        def no_stream(spec):
            raise AssertionError("the stream was drawn")

        monkeypatch.setattr(harness_mod, "generate_stream", no_stream)
        spec = small_spec(clusters=2, samples=1)
        with pytest.raises(ValueError, match=r"k \(--k\) is 8, but the stream has 2 samples"):
            run_train_phase(RunConfig(k=8), spec)


class TestKmeansHelpers:
    def test_recovers_planted_centers(self):
        rng = np.random.default_rng(0)
        planted = rng.normal(0, 5, size=(3, 8))
        points = np.concatenate(
            [planted[i] + 0.1 * rng.normal(size=(40, 8)) for i in range(3)]
        )
        centers, assign, inertia = offline_kmeans(points, 3, restarts=20, seed=1)
        matched, dists = match_to_centers(planted, centers)
        assert sorted(matched) == [0, 1, 2]
        assert max(dists) < 0.1

    def test_match_is_bijective_and_minimal(self):
        vectors = np.array([[0.0, 0.0], [10.0, 0.0]])
        centers = np.array([[10.1, 0.0], [0.2, 0.0]])
        matched, dists = match_to_centers(vectors, centers)
        assert matched == [1, 0]
        assert dists[0] == pytest.approx(0.04)

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            k = int(rng.integers(1, 8))
            vectors = rng.normal(size=(k, 3))
            centers = rng.normal(size=(k, 3))
            matched, dists = match_to_centers(vectors, centers)
            assert matched == oracles.match_permutations(vectors, centers)
            d2 = ((vectors - centers[matched]) ** 2).sum(axis=1)
            np.testing.assert_array_equal(dists, d2)

    def test_large_k_is_a_bijection(self):
        rng = np.random.default_rng(22)
        vectors = rng.normal(size=(64, 5))
        perm = rng.permutation(64)
        centers = vectors[perm] + 1e-3 * rng.normal(size=(64, 5))
        matched, _ = match_to_centers(vectors, centers)
        assert sorted(matched) == list(range(64))
        assert matched == np.argsort(perm).tolist()


@st.composite
def kmeans_cases(draw):
    """(points, k, restarts, seed) with N <= 60, D <= 20 and 1 <= K <= 8.

    Besides random points: integer grids (exact ties), few distinct points
    repeated (identical initial centers), a 1e6 offset with 1e-3 spread
    (cancellation in the expanded form), 1e-160 scales (squares in the
    subnormal range) and 1e150 to 1e155 scales (squared norms near or past
    overflow).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(1, 60)), draw(st.integers(1, 20))
    kind = draw(st.sampled_from(["normal", "grid", "duplicates", "offset", "tiny", "huge"]))
    if kind == "normal":
        points = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4)
    elif kind == "grid":
        points = rng.integers(-2, 3, size=(n, d)).astype(float)
    elif kind == "duplicates":
        distinct = rng.normal(size=(1 + n // 4, d))
        points = distinct[rng.integers(0, len(distinct), size=n)]
    elif kind == "offset":
        points = 1e6 + 1e-3 * rng.normal(size=(n, d))
    elif kind == "tiny":
        points = 1e-160 * rng.normal(size=(n, d))
    else:
        points = 10.0 ** rng.integers(150, 156) * rng.normal(size=(n, d))
    k = draw(st.integers(1, min(8, n)))
    return points, k, draw(st.integers(1, 4)), draw(st.integers(0, 2**16))


@pytest.fixture
def rechecked(monkeypatch):
    """The row count of every ``sq_distances`` call that ``harness`` makes."""
    rows = []

    def recording(a, b):
        rows.append(len(a))
        return sq_distances(a, b)

    monkeypatch.setattr(harness_mod, "sq_distances", recording)
    return rows


class TestKmeansAssignment:
    @settings(deadline=None, max_examples=300)
    @given(kmeans_cases())
    def test_bit_identical_to_the_broadcast_reference(self, case):
        points, k, restarts, seed = case
        with np.errstate(over="ignore", invalid="ignore"):  # the "huge" scales overflow
            centers, assign, inertia = offline_kmeans(points, k, restarts, seed)
            ref = oracles.broadcast_kmeans(points, k, restarts, seed)
        ref_centers, ref_assign, ref_inertia = ref
        assert centers.tobytes() == ref_centers.tobytes()
        np.testing.assert_array_equal(assign, ref_assign)
        assert np.array_equal(inertia, ref_inertia, equal_nan=True)

    def test_planted_near_ties_are_rechecked_exactly(self, rechecked):
        centers = np.array([[0.0, 0.0], [2.0, 0.0]])
        ys = np.linspace(-3.0, 3.0, 7)[:, None]
        ones = np.ones_like(ys)
        points = np.concatenate(
            [
                np.hstack([ones, ys]),  # on the bisector: exact ties
                np.hstack([ones + 1e-15, ys]),  # a few ulps off it
                np.hstack([ones - 1e-15, ys]),
                np.hstack([0.1 * ones, ys]),  # clearly nearer one center
                np.hstack([1.9 * ones, ys]),
            ]
        )
        assign = harness_mod._nearest_centers(points)(centers)
        assert len(rechecked) == 1
        assert 21 <= rechecked[0] < len(points)
        exact = sq_distances(points, centers)
        np.testing.assert_array_equal(assign, exact.argmin(axis=1))
        assert (assign[:7] == 0).all()  # first index on exact ties
        assert (assign[7:14] == 1).all() and (assign[14:21] == 0).all()

    def test_recheck_runs_inside_offline_kmeans(self, rechecked):
        points = np.random.default_rng(5).integers(0, 3, size=(40, 2)).astype(float)
        result = offline_kmeans(points, 4, restarts=5, seed=2)
        assert rechecked and all(0 < rows < len(points) for rows in rechecked)
        reference = oracles.broadcast_kmeans(points, 4, restarts=5, seed=2)
        assert result[0].tobytes() == reference[0].tobytes()
        np.testing.assert_array_equal(result[1], reference[1])

    @pytest.mark.parametrize(
        "points, k, restarts, match",
        [
            (np.zeros((5, 2)), 0, 50, "5 points cannot form 0 clusters"),
            (np.zeros(5), 2, 50, "2-D"),
            (np.zeros((2, 5, 2)), 2, 50, "2-D"),
            (np.array([[0.0, 1.0], [np.nan, 0.0], [2.0, 2.0]]), 2, 50, "non-finite"),
            (np.array([[0.0, 1.0], [np.inf, 0.0], [2.0, 2.0]]), 2, 50, "non-finite"),
            (np.zeros((5, 2)), 2, 0, "at least 1 restart"),
        ],
        ids=["k0", "1-D", "3-D", "nan", "inf", "no-restart"],
    )
    def test_input_it_cannot_cluster_is_rejected(self, points, k, restarts, match):
        with pytest.raises(ValueError, match=match):
            offline_kmeans(points, k, restarts=restarts)


@st.composite
def blob_cases(draw):
    """(points, k, restarts, seed) on separated blobs, N <= 400, D <= 16, K <= 8.

    Lloyd takes many iterations here in which few points move and few
    clusters change. "duplicates" draws every point from a few distinct
    ones, so equal initial centers leave clusters empty across iterations;
    "offset" adds 1e6 to every coordinate. The points come in C order,
    Fortran order, as a transposed view or as a strided view.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(20, 400)), draw(st.integers(1, 16))
    blobs = draw(st.integers(1, 10))
    labels = rng.integers(0, blobs, size=n)
    points = 10.0 * rng.normal(size=(blobs, d))[labels]
    points += rng.uniform(0.5, 4.0) * rng.normal(size=(n, d))
    kind = draw(st.sampled_from(["blobs", "duplicates", "offset"]))
    if kind == "duplicates":
        points = points[rng.integers(0, draw(st.integers(1, 10)), size=n)]
    elif kind == "offset":
        points += 1e6
    layout = draw(st.sampled_from(["C", "F", "transposed", "strided"]))
    if layout == "F":
        points = np.asfortranarray(points)
    elif layout == "transposed":
        points = np.ascontiguousarray(points.T).T
    elif layout == "strided":
        points = np.repeat(points, 2, axis=1)[:, ::2]
    return points, draw(st.integers(1, 8)), draw(st.integers(1, 3)), draw(st.integers(0, 2**16))


def record_lloyd_iterations(monkeypatch):
    """The assignment of every ``nearest`` call, one per Lloyd iteration,
    of later ``offline_kmeans`` calls."""
    calls = []
    make = harness_mod._nearest_centers

    def recording(points):
        nearest = make(points)

        def recorded(centers):
            assign = nearest(centers)
            calls.append(assign)
            return assign

        return recorded

    monkeypatch.setattr(harness_mod, "_nearest_centers", recording)
    return calls


class TestKmeansFastRegime:
    @settings(deadline=None, max_examples=60)
    @given(blob_cases())
    def test_bit_identical_to_the_broadcast_reference(self, case):
        points, k, restarts, seed = case
        centers, assign, inertia = offline_kmeans(points, k, restarts, seed)
        ref_centers, ref_assign, ref_inertia = oracles.broadcast_kmeans(points, k, restarts, seed)
        assert centers.tobytes() == ref_centers.tobytes()
        assert assign.tobytes() == ref_assign.tobytes()
        assert repr(inertia) == repr(ref_inertia)

    def test_a_cluster_left_empty_across_iterations(self, monkeypatch):
        rng = np.random.default_rng(3)
        distinct = 10.0 * rng.normal(size=(5, 4))
        points = distinct[rng.integers(0, 5, size=300)]
        calls = record_lloyd_iterations(monkeypatch)
        centers, assign, inertia = offline_kmeans(points, 8, restarts=1, seed=0)
        ref_centers, ref_assign, ref_inertia = oracles.broadcast_kmeans(points, 8, 1, 0)
        assert centers.tobytes() == ref_centers.tobytes()
        assert assign.tobytes() == ref_assign.tobytes()
        assert repr(inertia) == repr(ref_inertia)
        assert len(calls) >= 3
        assert all(np.bincount(a, minlength=8).min() == 0 for a in calls)


class TestTrainPhase:
    def test_prototypes_match_kmeans_centers(self, tmp_path):
        # 50 fusions per cluster give the EMA time to wash out the
        # cross-cluster bootstrap residue (decays like momentum^n)
        cfg = small_config()
        banks, report = run_train_phase(
            cfg, small_spec(channels=64, samples=50), tmp_path
        )
        for j in range(cfg.k):
            dist = report.value(f"train.level0.proto{j}.center_distance")
            spread = report.value(f"train.level0.proto{j}.cluster_spread")
            assert dist <= 0.10 * spread

    def test_single_cluster_prototypes_stay_inside_cluster(self, tmp_path):
        # With one style cluster the K stored prototypes converge onto it;
        # replacements may fire (all K distances become comparable, so
        # d_min can exceed the mean-based threshold), but every prototype
        # must remain a member-scale distance from the center.
        cfg = small_config()
        spec = small_spec(clusters=1, samples=60)
        banks, report = run_train_phase(cfg, spec, tmp_path)
        spread = report.value("train.level0.proto0.cluster_spread")
        for j in range(cfg.k):
            assert report.value(f"train.level0.proto{j}.center_distance") <= 3 * spread

    def test_replay_is_byte_identical(self, tmp_path):
        cfg = small_config()
        run_train_phase(cfg, small_spec(), tmp_path / "a")
        run_train_phase(cfg, small_spec(), tmp_path / "b")
        for name in ("bank_level0.sabank", "train.report.txt", "train.summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_tta_and_ocl_reports_are_deterministic(self, tmp_path):
        cfg = small_config()
        run_train_phase(cfg, small_spec(), tmp_path / "bank")
        for sub in ("r1", "r2"):
            banks = load_banks(tmp_path / "bank", 1)
            run_tta_phase(cfg, banks, small_spec(seed=5), tmp_path / sub)
            run_ocl_demo(cfg, out_dir=tmp_path / sub)
        for name in ("tta.report.txt", "tta.summary.json", "ocl.report.txt", "ocl.summary.json"):
            assert (tmp_path / "r1" / name).read_bytes() == (
                tmp_path / "r2" / name
            ).read_bytes()

    def test_report_equals_the_banks_own_decisions(self):
        # six clusters over K=4 force replacements
        cfg = small_config()
        spec = small_spec(clusters=6, samples=10, levels=((6, 6), (4, 4)))
        _, report = run_train_phase(cfg, spec)
        banks = [
            StyleMemoryBank(capacity=cfg.k, alpha=cfg.alpha, momentum=cfg.momentum)
            for _ in spec.pyramid_shapes
        ]
        decisions = [[] for _ in banks]
        for pyramid, _ in generate_stream(spec):
            for li, fmap in enumerate(pyramid):
                decisions[li].append(banks[li].observe(compute_stats(fmap, cfg.epsilon)[0]))
        taus = [[rep.tau for rep in level] for level in decisions]
        assert report.extra["tau_trajectory"] == taus
        for li, level in enumerate(decisions):
            replaced = sum(rep.action == "replace" for rep in level)
            assert replaced > 0
            assert report.value(f"train.level{li}.evictions") == replaced

    def test_multi_level_banks_are_independent(self, tmp_path):
        cfg = small_config()
        spec = small_spec(levels=((6, 6), (4, 4)))
        banks, report = run_train_phase(cfg, spec, tmp_path)
        assert len(banks) == 2
        assert report.value("train.levels") == 2
        a = np.stack([p.p_mean for p in banks[0].prototypes])
        b = np.stack([p.p_mean for p in banks[1].prototypes])
        assert a.shape == b.shape and not np.allclose(a, b)


class TestTtaPhase:
    def test_known_style_projects_to_zero_distance_immediately(self, tmp_path):
        cfg = small_config()
        banks, _ = run_train_phase(cfg, small_spec(), tmp_path)
        replay = small_spec(clusters=1, samples=8)  # cluster 0 styles again
        report = run_tta_phase(cfg, load_banks(tmp_path, 1), replay, tmp_path)
        post = report.extra["post_distance"][0]
        assert post[0] < 1e-6
        assert max(post) < 1e-6

    def test_novel_style_dmin_strictly_decreasing(self, tmp_path):
        cfg = small_config()
        banks, _ = run_train_phase(cfg, small_spec(), tmp_path)
        novel = SyntheticDomainSpec(
            style_clusters=[StyleCluster(987654, 123456, spread=0.0)],
            pyramid_shapes=[(16, 6, 6)],
            samples_per_cluster=40,
            rng_seed=11,
        )
        report = run_tta_phase(cfg, load_banks(tmp_path, 1), novel, tmp_path)
        dmin = report.extra["dmin_trajectory"][0]
        assert all(b < a for a, b in zip(dmin, dmin[1:]))
        assert report.value("tta.level0.dmin_last") < report.value("tta.level0.dmin_first")

    def test_prototype_count_never_changes(self, tmp_path):
        cfg = small_config()
        run_train_phase(cfg, small_spec(), tmp_path)
        report = run_tta_phase(
            cfg, load_banks(tmp_path, 1), small_spec(seed=9), tmp_path
        )
        assert report.value("tta.level0.prototype_count_change") == 0

    def test_project_first_order_supported(self, tmp_path):
        cfg = small_config(tta_order="project-first")
        run_train_phase(cfg, small_spec(), tmp_path)
        report = run_tta_phase(cfg, load_banks(tmp_path, 1), small_spec(seed=5), tmp_path)
        assert report.value("tta.samples") == 100

    def test_project_first_pre_distance_is_measured_before_the_update(self, tmp_path):
        cfg = small_config(tta_order="project-first")
        levels = ((6, 6), (4, 4))
        run_train_phase(cfg, small_spec(levels=levels), tmp_path)
        report = run_tta_phase(cfg, load_banks(tmp_path, 2), small_spec(seed=5, levels=levels))
        pre, dmin = report.extra["pre_distance"], report.extra["dmin_trajectory"]
        assert len(pre) == 2
        for level_pre, level_dmin in zip(pre, dmin):
            assert level_pre == level_dmin

    @pytest.mark.parametrize("order", TTA_ORDERS)
    def test_report_equals_the_banks_own_decisions(self, tmp_path, order):
        cfg = small_config(tta_order=order)
        levels = ((6, 6), (4, 4))
        run_train_phase(cfg, small_spec(levels=levels), tmp_path)
        stream = small_spec(seed=5, levels=levels)
        report = run_tta_phase(cfg, load_banks(tmp_path, 2), stream)
        banks = load_banks(tmp_path, 2)
        for bank in banks:
            bank.mode = "tta"
        dmin, pre, post = [[], []], [[], []], [[], []]
        for pyramid, _ in generate_stream(stream):
            for li, fmap in enumerate(pyramid):
                bank = banks[li]
                s = compute_stats(fmap, cfg.epsilon)[0]
                if order == "observe-first":
                    dmin[li].append(bank.observe(s).d_min)
                pre[li].append(float(bank.distances(s).min()))
                (result,) = project(bank, fmap, cfg.weighting, cfg.softmax_temperature, [s])
                if order == "project-first":
                    dmin[li].append(bank.observe(s).d_min)
                rectified = compute_stats(result.rectified, cfg.epsilon)[0]
                post[li].append(float(bank.distances(rectified).min()))
        assert report.extra["dmin_trajectory"] == dmin
        assert report.extra["pre_distance"] == pre
        assert report.extra["post_distance"] == post
        for li in range(2):
            assert report.value(f"tta.level{li}.dmin_first") == dmin[li][0]
            assert report.value(f"tta.level{li}.dmin_last") == dmin[li][-1]

    def test_failed_call_leaves_every_bank_in_its_mode(self):
        rng = np.random.default_rng(4)
        trained = StyleMemoryBank(capacity=2)
        for _ in range(3):
            trained.observe(compute_stats(rng.normal(size=(1, 16, 6, 6)))[0])
        banks = [trained, StyleMemoryBank(capacity=2)]
        with pytest.raises(ValueError, match="level 1 bank is empty"):
            run_tta_phase(small_config(), banks, small_spec(levels=((6, 6), (4, 4))))
        assert [bank.mode for bank in banks] == ["train", "train"]

    def test_level_count_mismatch_rejected(self, tmp_path):
        cfg = small_config()
        banks, _ = run_train_phase(cfg, small_spec(), tmp_path)
        with pytest.raises(ValueError):
            run_tta_phase(cfg, banks, small_spec(levels=((6, 6), (4, 4))))


class TestOclDemo:
    def test_identical_domains_give_identical_query_sets(self, tmp_path):
        # shared parameters + identical pyramids: the two domains' query
        # sets coincide row-wise and the loss reduces to the softmax
        # cross-entropy of the queries' own Gram matrix
        cfg = small_config(d=16, heads=2)
        report = run_ocl_demo(cfg, identical_domains=True, out_dir=tmp_path)
        q_s = np.array(report.extra["q_source"])
        q_a = np.array(report.extra["q_augmented"])
        np.testing.assert_array_equal(q_s, q_a)
        assert report.value("ocl.query_gap") == 0.0
        from sa_adapt.contrastive_alignment import ContrastiveBatch, contrastive_loss

        recomputed = contrastive_loss(
            ContrastiveBatch(q_s, q_a, np.array(report.extra["present"]))
        )
        assert report.value("ocl.contrastive_loss") == recomputed.l_contra

    def test_uniform_rows_recover_log_c(self):
        # the degenerate identical-rows case where the loss has the ln C
        # closed form, fed through the same loss the demo uses
        from sa_adapt.contrastive_alignment import ContrastiveBatch, contrastive_loss

        q = np.tile(np.linspace(-1, 1, 16), (5, 1))
        rep = contrastive_loss(ContrastiveBatch(q, q.copy(), np.ones(5, dtype=bool)))
        assert rep.l_contra == pytest.approx(math.log(5), abs=1e-12)

    def test_absent_category_reports_zero_gradient(self):
        cfg = small_config(d=16, heads=2)
        report = run_ocl_demo(cfg)
        present = report.extra["present"]
        assert not all(present)
        for cat, is_present in enumerate(present):
            norm = report.value(f"ocl.category{cat}.source_grad_norm")
            coverage = report.value(f"ocl.category{cat}.token_coverage")
            if not is_present:
                assert norm == 0.0
                assert coverage == 0.0

    def test_fd_agreement_below_tolerance(self):
        cfg = small_config(d=16, heads=2)
        report = run_ocl_demo(cfg)
        assert report.value("ocl.fd_max_rel_error") < 1e-6

    def test_no_present_category_rejected_before_attention(self, monkeypatch):
        def no_attention(*args, **kwargs):
            raise AssertionError("attention ran")

        monkeypatch.setattr(harness_mod, "run_encoder_side", no_attention)
        with pytest.raises(ValueError, match="no present category"):
            run_ocl_demo(small_config(), annotation=Annotation(boxes=[], categories=[]))

    def test_total_combines_detection_stub(self):
        cfg = small_config(d=16, heads=2)
        report = run_ocl_demo(cfg, l_det=2.5)
        expected = 2.5 + cfg.lambda_c * report.value("ocl.contrastive_loss")
        assert report.value("ocl.total_loss") == pytest.approx(expected, abs=1e-12)


@st.composite
def fd_cases(draw):
    """A contrastive batch with at least one present category, the side to
    perturb, ``normalize``, and an fd_gradient chunk of 1..size entries."""
    c, d = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    present = np.array(draw(st.lists(st.booleans(), min_size=c, max_size=c)))
    present[draw(st.integers(0, c - 1))] = True
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = ContrastiveBatch(rng.normal(size=(c, d)), rng.normal(size=(c, d)), present)
    side, normalize = draw(st.sampled_from(["source", "augmented"])), draw(st.booleans())
    entries = draw(st.integers(1, int(present.sum()) * d))
    return batch, side, normalize, entries


class TestFdGradient:
    @settings(deadline=None, max_examples=150)
    @given(fd_cases())
    def test_batched_check_equals_the_per_entry_loop(self, case):
        batch, side, normalize, entries = case
        idx = np.flatnonzero(batch.present)
        s, a = batch.q_source[idx], batch.q_augmented[idx]
        if side == "source":
            x = batch.q_source
            stacked = lambda stack: contrastive_loss_stack(stack, a, normalize)
        else:
            x = batch.q_augmented
            stacked = lambda stack: contrastive_loss_stack(s, stack, normalize)
        expected = oracles.central_difference(
            lambda: contrastive_loss_value(batch, normalize), x
        )
        got = np.zeros_like(x)
        # a chunk of ``entries`` entries, so most cases end in a partial chunk
        chunk_bytes = entries * 2 * x[idx].nbytes
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness_mod, "_FD_CHUNK_BYTES", chunk_bytes)
            got[idx] = fd_gradient(stacked, x[idx])
        assert got.tobytes() == expected.tobytes()

    def test_stacks_stay_within_the_chunk_bound(self):
        x = np.random.default_rng(0).normal(size=(19, 256))
        before = x.copy()
        largest, entries = [0], [0]

        def spy(stack):
            largest[0] = max(largest[0], stack.nbytes)
            entries[0] += stack.shape[0] // 2
            return stack.sum(axis=(1, 2))

        grad = fd_gradient(spy, x)
        assert 0 < largest[0] <= harness_mod._FD_CHUNK_BYTES
        assert entries[0] == x.size
        assert x.tobytes() == before.tobytes()
        # each entry moves its row sum by +-step
        np.testing.assert_allclose(grad, 1.0, rtol=1e-6)

    def test_an_entry_larger_than_the_bound_goes_alone(self, monkeypatch):
        monkeypatch.setattr(harness_mod, "_FD_CHUNK_BYTES", 8)
        sizes = []
        fd_gradient(lambda stack: sizes.append(stack.shape[0]) or stack.sum(axis=1), np.ones(3))
        assert sizes == [2, 2, 2]


class TestBench:
    def test_protocol_fields_and_overhead(self, tmp_path):
        cfg = small_config()
        report = bench(
            cfg, runs=25, warmup=2, channels=32, level_hw=(16, 8), out_dir=tmp_path
        )
        assert report.value("bench.runs") == 25
        assert len(report.extra["projection_ms"]) == 25
        assert len(report.extra["observe_ms"]) == 25
        assert report.value("bench.projection_mean") > 0
        assert report.value("bench.observe_p95") >= 0
        ratio = report.value("bench.observe_overhead_ratio")
        assert ratio == pytest.approx(
            report.value("bench.observe_mean") / report.value("bench.projection_mean")
        )


class TestReports:
    def test_round_trip_through_parser(self):
        records = [
            ("a.count", 5, "count"),
            ("b.value", 0.125, "ms"),
            ("c.neg", -3.0e-7, "ratio"),
        ]
        parsed = parse_report(format_report(records))
        assert parsed == records
        assert format_report(parsed) == format_report(records)

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_report("name value\n")

    def test_space_in_name_rejected(self):
        with pytest.raises(ValueError):
            format_report([("bad name", 1, "count")])

    def test_write_report_files(self, tmp_path):
        report = Report()
        report.add("x", 1, "count")
        report.extra["traj"] = [1.0, 2.0]
        text_path, json_path = write_report(tmp_path, "demo", report)
        assert parse_report(text_path.read_text()) == [("x", 1, "count")]
        payload = json.loads(json_path.read_text())
        assert payload["records"] == [{"name": "x", "value": 1, "unit": "count"}]
        assert payload["extra"]["traj"] == [1.0, 2.0]

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_report_writes_neither_file(self, tmp_path, value):
        report = Report()
        report.add("x", 1, "count")
        report.extra["traj"] = [1.0, value]
        with pytest.raises(ValueError, match="the demo report holds a non-finite value"):
            write_report(tmp_path / "out", "demo", report)
        assert not (tmp_path / "out").exists()


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestCli:
    def test_train_then_tta_then_inspect(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli_main(
            [
                "train-bank",
                "--seed",
                "3",
                "--out-dir",
                str(out),
                "--channels",
                "12",
                "--samples-per-cluster",
                "10",
                "--levels",
                "6x6",
            ]
        )
        assert rc == 0
        assert (out / "bank_level0.sabank").exists()
        rc = cli_main(
            [
                "tta-run",
                "--seed",
                "3",
                "--out-dir",
                str(out),
                "--channels",
                "12",
                "--samples-per-cluster",
                "4",
                "--levels",
                "6x6",
            ]
        )
        assert rc == 0
        rc = cli_main(["inspect-bank", str(out / "bank_level0.sabank")])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "prototypes 4" in captured
        assert "mode train" in captured

    @staticmethod
    def user_error(capsys, argv):
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("sa-adapt: error: ")
        assert captured.err.count("\n") == 1
        return captured.err

    def test_missing_bank_file_is_a_user_error(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        argv = ["tta-run", "--bank-dir", str(missing), "--out-dir", str(tmp_path)]
        assert "bank_level0.sabank" in self.user_error(capsys, argv)
        self.user_error(capsys, ["inspect-bank", str(missing / "bank_level0.sabank")])

    @pytest.mark.parametrize("order", ["observe-first", "project-first"])
    def test_empty_bank_file_is_a_user_error(self, tmp_path, capsys, order):
        (tmp_path / "bank_level0.sabank").write_bytes(StyleMemoryBank().save())
        argv = ["tta-run", "--tta-order", order, "--out-dir", str(tmp_path)]
        assert "level 0" in self.user_error(capsys, argv)
        assert not (tmp_path / "tta.report.txt").exists()

    def test_missing_annotation_file_is_a_user_error(self, tmp_path, capsys):
        missing = tmp_path / "none.txt"
        argv = ["ocl-demo", "--annotations", str(missing), "--out-dir", str(tmp_path)]
        assert "none.txt" in self.user_error(capsys, argv)

    def test_annotation_file_without_records_is_a_user_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        argv = ["ocl-demo", "--annotations", str(empty), "--out-dir", str(tmp_path)]
        assert "holds no records" in self.user_error(capsys, argv)

    @pytest.mark.parametrize("size", ["0x0", "1x64", "64x1"])
    def test_image_below_two_by_two_is_a_user_error(self, tmp_path, capsys, size):
        argv = ["ocl-demo", "--image-size", size, "--out-dir", str(tmp_path)]
        assert f"at least 2x2, got {size}" in self.user_error(capsys, argv)
        assert not (tmp_path / "ocl.report.txt").exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("ocl-demo", "--image-size", "64"),
            ("ocl-demo", "--image-size", "64x"),
            ("train-bank", "--levels", "8"),
            ("train-bank", "--levels", "8x8x8"),
        ],
    )
    def test_malformed_shape_is_a_user_error(self, tmp_path, capsys, command, flag, value):
        argv = [command, flag, value, "--out-dir", str(tmp_path)]
        err = self.user_error(capsys, argv)
        assert f"{flag} expects HxW shapes such as 8x8,4x4, got {value!r}" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["64x64,8x8", "64x64,64x64", "8x8,4x4,2x2"])
    def test_more_than_one_image_size_is_a_user_error(self, tmp_path, capsys, value):
        argv = ["ocl-demo", "--image-size", value, "--out-dir", str(tmp_path)]
        err = self.user_error(capsys, argv)
        assert f"--image-size expects one HxW shape such as 64x64, got {value!r}" in err
        assert not any(tmp_path.iterdir())

    def test_negative_seed_is_a_user_error(self, tmp_path, capsys, monkeypatch):
        argv = ["train-bank", "--seed", "-1", "--out-dir", str(tmp_path)]
        assert "seed must be >= 0, got -1" in self.user_error(capsys, argv)
        monkeypatch.setenv("SA_ADAPT_SEED", "-1")
        argv = ["train-bank", "--out-dir", str(tmp_path)]
        assert "seed must be >= 0, got -1" in self.user_error(capsys, argv)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.1"])
    def test_bad_spread_is_a_user_error(self, tmp_path, capsys, value):
        argv = ["train-bank", f"--spread={value}", "--out-dir", str(tmp_path)]
        err = self.user_error(capsys, argv)
        assert f"spread (--spread) must be finite and >= 0, got {float(value)!r}" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", ["1e308", "1e200"])
    def test_huge_spread_is_a_user_error(self, tmp_path, capsys, value):
        argv = ["train-bank", f"--spread={value}", "--out-dir", str(tmp_path)]
        err = self.user_error(capsys, argv)
        assert "spread (--spread) must be at most 1e+100, so that the generated maps' " in err
        assert f"got {float(value)!r}" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.filterwarnings("error")
    def test_huge_alpha_is_a_user_error(self, tmp_path, capsys):
        argv = ["train-bank", "--alpha", "1e308", "--out-dir", str(tmp_path)]
        assert "alpha (--alpha) must be at most 1e+06, got 1e+308" in self.user_error(capsys, argv)
        assert not any(tmp_path.iterdir())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flags", [[], ["--alpha", "1e6"], ["--spread", "1e100"]])
    def test_largest_accepted_values_write_strict_json(self, tmp_path, flags):
        argv = ["train-bank", *flags, "--samples-per-cluster", "8", "--out-dir", str(tmp_path)]
        assert cli_main(argv) == 0
        text = (tmp_path / "train.summary.json").read_text()
        summary = json.loads(text, parse_constant=reject_constant)
        assert all(math.isfinite(r["value"]) for r in summary["records"])

    def test_fewer_samples_than_k_is_a_user_error_before_streaming(self, tmp_path, capsys):
        argv = ["train-bank", "--clusters", "3", "--samples-per-cluster", "1", "--k", "8",
                "--out-dir", str(tmp_path)]
        err = self.user_error(capsys, argv)
        assert "k (--k) is 8, but the stream has 3 samples" in err
        assert not any(tmp_path.iterdir())

    def test_negative_style_salt_is_a_user_error(self, tmp_path, capsys):
        argv = ["train-bank", "--style-salt", "-5", "--out-dir", str(tmp_path)]
        assert "--style-salt must be >= 0, got -5" in self.user_error(capsys, argv)
        assert not any(tmp_path.iterdir())

    def test_annotation_without_boxes_is_a_user_error(self, tmp_path, capsys):
        ann = tmp_path / "boxes.txt"
        ann.write_text("img 64 64\n")
        argv = ["ocl-demo", "--annotations", str(ann), "--out-dir", str(tmp_path)]
        assert "no present category" in self.user_error(capsys, argv)

    def test_corrupt_blob_is_a_user_error(self, tmp_path, capsys):
        path = tmp_path / "bank_level0.sabank"
        path.write_bytes(b"SABANK" + bytes(10))
        assert "shorter than header" in self.user_error(capsys, ["inspect-bank", str(path)])

    def test_invalid_config_value_is_a_user_error(self, tmp_path, capsys):
        err = self.user_error(capsys, ["train-bank", "--k", "0", "--out-dir", str(tmp_path)])
        assert "k must be >= 1" in err

    @pytest.mark.parametrize("value", ["inf", "nan", "1e308"])
    def test_infinite_or_huge_epsilon_is_a_user_error(self, tmp_path, capsys, value):
        argv = ["train-bank", "--epsilon", value, "--out-dir", str(tmp_path)]
        err = self.user_error(capsys, argv)
        assert "epsilon (--epsilon) must be positive and at most 1e+100" in err
        assert f"got {float(value)!r}" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            ["tta-run", "--channels", "4", "--samples-per-cluster", "2", "--levels", "4x4"],
            ["bench", "--runs", "1", "--warmup", "0", "--bench-channels", "4",
             "--bench-levels", "4x4"],
        ],
    )
    def test_overflowing_softmax_temperature_is_a_user_error(self, tmp_path, capsys, argv):
        out = ["--out-dir", str(tmp_path)]
        train = ["--channels", "4", "--samples-per-cluster", "2", "--levels", "4x4"]
        assert cli_main(["train-bank", *train, *out]) == 0
        capsys.readouterr()
        err = self.user_error(capsys, [*argv, "--softmax-temperature", "1e-320", *out])
        assert "softmax_temperature (--softmax-temperature) 1e-320 is too small" in err

    @pytest.mark.parametrize("flag", ["--samples-per-cluster", "--channels"])
    @pytest.mark.parametrize("value", [2**50, 2**63])
    def test_unallocatable_size_is_one_out_of_memory_line(self, tmp_path, capsys, flag, value):
        argv = ["train-bank", flag, str(value), "--out-dir", str(tmp_path)]
        assert self.user_error(capsys, argv).startswith("sa-adapt: error: out of memory: ")
        assert not any(tmp_path.iterdir())

    def test_bench_without_runs_is_a_user_error(self, tmp_path, capsys):
        out = ["--out-dir", str(tmp_path)]
        assert "runs >= 1" in self.user_error(capsys, ["bench", "--runs", "0", *out])
        assert "warmup >= 0" in self.user_error(capsys, ["bench", "--warmup", "-1", *out])

    def test_non_square_bench_level_is_a_user_error(self, tmp_path, capsys):
        argv = ["bench", "--bench-levels", "8x8,64x32", "--out-dir", str(tmp_path)]
        assert "64x32" in self.user_error(capsys, argv)

    def test_cli_determinism_byte_identical_banks(self, tmp_path):
        args = [
            "train-bank",
            "--seed",
            "11",
            "--channels",
            "8",
            "--samples-per-cluster",
            "8",
            "--levels",
            "4x4",
        ]
        cli_main(args + ["--out-dir", str(tmp_path / "x")])
        cli_main(args + ["--out-dir", str(tmp_path / "y")])
        a = (tmp_path / "x" / "bank_level0.sabank").read_bytes()
        b = (tmp_path / "y" / "bank_level0.sabank").read_bytes()
        assert a == b

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SA_ADAPT_SEED", "77")
        out = tmp_path / "env"
        cli_main(
            [
                "train-bank",
                "--seed",
                "3",
                "--out-dir",
                str(out),
                "--channels",
                "8",
                "--samples-per-cluster",
                "6",
                "--levels",
                "4x4",
            ]
        )
        monkeypatch.delenv("SA_ADAPT_SEED")
        out2 = tmp_path / "direct"
        cli_main(
            [
                "train-bank",
                "--seed",
                "77",
                "--out-dir",
                str(out2),
                "--channels",
                "8",
                "--samples-per-cluster",
                "6",
                "--levels",
                "4x4",
            ]
        )
        assert (out / "bank_level0.sabank").read_bytes() == (
            out2 / "bank_level0.sabank"
        ).read_bytes()

    def test_ocl_demo_command(self, tmp_path, capsys):
        rc = cli_main(
            [
                "ocl-demo",
                "--seed",
                "1",
                "--out-dir",
                str(tmp_path),
                "--dim",
                "16",
                "--heads",
                "2",
                "--categories",
                "4",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ocl.contrastive_loss" in out
        assert (tmp_path / "ocl.summary.json").exists()

    def test_bench_command_small(self, tmp_path, capsys):
        rc = cli_main(
            [
                "bench",
                "--runs",
                "5",
                "--warmup",
                "1",
                "--bench-channels",
                "16",
                "--bench-levels",
                "8x8,4x4",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert "bench.observe_overhead_ratio" in capsys.readouterr().out

    def test_annotation_file_demo(self, tmp_path, capsys):
        ann = tmp_path / "boxes.txt"
        ann.write_text("img0 32 32 0 2 2 20 20 1 5 5 12 12\n")
        rc = cli_main(
            [
                "ocl-demo",
                "--annotations",
                str(ann),
                "--seed",
                "2",
                "--out-dir",
                str(tmp_path),
                "--dim",
                "16",
                "--heads",
                "2",
                "--categories",
                "3",
                "--demo-levels",
                "8x8,4x4",
            ]
        )
        assert rc == 0
        assert "ocl.category0.token_coverage" in capsys.readouterr().out


def test_describe_bank_mentions_counters(tmp_path):
    cfg = small_config()
    banks, _ = run_train_phase(cfg, small_spec(samples=6), tmp_path)
    text = describe_bank(banks[0])
    assert "use_count=" in text
    assert "step 24" in text
