import json
import math

import numpy as np
import pytest

from sa_adapt.cli import main as cli_main
from sa_adapt.config import RunConfig
from sa_adapt.harness import (
    Report,
    StyleCluster,
    SyntheticDomainSpec,
    bench,
    cluster_centers,
    describe_bank,
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
from sa_adapt.style_memory_bank import load
from sa_adapt.style_statistics import compute_stats

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

    def test_total_combines_detection_stub(self):
        cfg = small_config(d=16, heads=2)
        report = run_ocl_demo(cfg, l_det=2.5)
        expected = 2.5 + cfg.lambda_c * report.value("ocl.contrastive_loss")
        assert report.value("ocl.total_loss") == pytest.approx(expected, abs=1e-12)


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

    def test_missing_annotation_file_is_a_user_error(self, tmp_path, capsys):
        missing = tmp_path / "none.txt"
        argv = ["ocl-demo", "--annotations", str(missing), "--out-dir", str(tmp_path)]
        assert "none.txt" in self.user_error(capsys, argv)

    def test_corrupt_blob_is_a_user_error(self, tmp_path, capsys):
        path = tmp_path / "bank_level0.sabank"
        path.write_bytes(b"SABANK" + bytes(10))
        assert "shorter than header" in self.user_error(capsys, ["inspect-bank", str(path)])

    def test_invalid_config_value_is_a_user_error(self, tmp_path, capsys):
        err = self.user_error(capsys, ["train-bank", "--k", "0", "--out-dir", str(tmp_path)])
        assert "k must be >= 1" in err

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
