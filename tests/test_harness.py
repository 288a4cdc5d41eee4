import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sa_adapt.cli import main as cli_main
from sa_adapt.config import TTA_ORDERS, RunConfig
from sa_adapt.contrastive_alignment import ContrastiveBatch, contrastive_loss
from sa_adapt.object_gating import Annotation
import sa_adapt.contrastive_alignment as ca_mod
import sa_adapt.harness as harness_mod
import sa_adapt.tensor_core as tensor_core
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
    run_ocl_demo,
    run_tta_phase,
    run_train_phase,
    synthetic_pair,
    write_report,
)
from sa_adapt.style_memory_bank import StyleMemoryBank, load


def _benchmark_report_key():
    """``report_key`` of ``benchmarks/workloads.py``: the canonical report text
    the benchmark compares calls by."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.report_key


report_key = _benchmark_report_key()


def stream_spec(seed, clusters, samples, channels, levels, spread=0.05):
    return SyntheticDomainSpec(
        style_clusters=[
            StyleCluster(mean_seed=31 * seed + 7 * i, std_seed=31 * seed + 7 * i + 1, spread=spread)
            for i in range(clusters)
        ],
        pyramid_shapes=[(channels, h, w) for h, w in levels],
        samples_per_cluster=samples,
        rng_seed=seed,
    )


def recording_stream(monkeypatch, on_next=None):
    """Wrap ``generate_stream`` in the harness; returns the list of the maps
    it yielded, per sample. ``on_next(i)`` runs before the i-th ``next()``."""
    real, yielded = harness_mod.generate_stream, []

    def stream(spec):
        gen = real(spec)
        while True:
            if on_next is not None:
                on_next(len(yielded))
            try:
                item = next(gen)
            except StopIteration:
                return
            yielded.append(list(item[0]))  # the phase empties the list it is given
            yield item

    monkeypatch.setattr(harness_mod, "generate_stream", stream)
    return yielded
from sa_adapt.style_projection import project
from sa_adapt.style_statistics import ChannelStats, compute_stats, sq_distances, style_vector

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

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        clusters=st.integers(1, 3),
        samples=st.integers(1, 3),
        channels=st.integers(1, 4),
        levels=st.lists(
            st.tuples(st.integers(1, 70), st.integers(1, 70)).filter(lambda hw: hw[0] * hw[1] >= 2),
            min_size=1,
            max_size=3,
        ),
        spread=st.sampled_from([0.0, 0.05, 3.0, 1e100]),
    )
    def test_equals_the_expression_form_bit_for_bit(
        self, seed, clusters, samples, channels, levels, spread
    ):
        """Rows above and below the buffered-row threshold alike, and the
        buffer size is the caller's again whenever the stream yields."""
        spec = stream_spec(seed, clusters, samples, channels, levels, spread)
        caller_buffer = np.getbufsize()
        got = generate_stream(spec)
        for pyramid, label in oracles.expression_stream(spec):
            got_pyramid, got_label = next(got)
            assert np.getbufsize() == caller_buffer
            assert got_label == label
            assert [a.tobytes() for a in got_pyramid] == [a.tobytes() for a in pyramid]
        assert next(got, None) is None

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 12), st.integers(1, 40), st.integers(1, 40)),
        block_rows=st.integers(1, 12),
        scale=st.sampled_from([0.0, 1e-3, 1.0, 1e100]),
    )
    def test_channel_std_in_blocks_equals_numpys_std(self, seed, shape, block_rows, scale):
        """Blocks of 1..12 channel rows, so most maps take more than one."""
        c, h, w = shape
        z = scale * np.random.default_rng(seed).normal(size=shape)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor_core, "_BLOCK_BYTES", block_rows * h * w * 8)
            got = harness_mod._channel_std(z, np.empty(min(block_rows, c) * h * w))
        assert got.tobytes() == z.std(axis=(1, 2), keepdims=True).tobytes()

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
        message = "pyramid_shapes (--levels) must be non-empty, got []"
        with pytest.raises(ValueError, match=re.escape(message)):
            SyntheticDomainSpec([StyleCluster(1, 2)], [], 3, 0)
        message = "samples_per_cluster (--samples-per-cluster) must be at least 1, got 0"
        with pytest.raises(ValueError, match=re.escape(message)):
            SyntheticDomainSpec([StyleCluster(0, 0)], [(4, 4, 4)], 0, 0)
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

    def test_unequal_counts_rejected(self):
        with pytest.raises(ValueError, match="need equally many vectors and centers"):
            match_to_centers(np.zeros((2, 3)), np.zeros((3, 3)))

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
        rows = np.zeros((1, 2, len(points)))
        lloyd = harness_mod._Lloyd(points, 2)
        assign, _ = lloyd.nearest(centers[None], rows, np.ones((1, 2), dtype=bool))
        assign = assign[0]
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
    Fortran order, as a transposed view or as a strided view; a reference
    takes their C-ordered copy, as ``offline_kmeans`` does.
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
    """The assignment of each restart in every lockstep step of later
    ``offline_kmeans`` calls: one per Lloyd iteration of a single restart."""
    calls = []
    nearest = harness_mod._Lloyd.nearest

    def recording(self, *args):
        assign, center_max = nearest(self, *args)
        calls.extend(assign.copy())
        return assign, center_max

    monkeypatch.setattr(harness_mod._Lloyd, "nearest", recording)
    return calls


class TestKmeansFastRegime:
    @settings(deadline=None, max_examples=60)
    @given(blob_cases())
    def test_bit_identical_to_the_broadcast_reference(self, case):
        points, k, restarts, seed = case
        centers, assign, inertia = offline_kmeans(points, k, restarts, seed)
        ref_centers, ref_assign, ref_inertia = oracles.broadcast_kmeans(
            np.ascontiguousarray(points), k, restarts, seed
        )
        assert centers.tobytes() == ref_centers.tobytes()
        assert assign.tobytes() == ref_assign.tobytes()
        assert repr(inertia) == repr(ref_inertia)

    @settings(deadline=None, max_examples=30)
    @given(blob_cases())
    def test_every_layout_gives_the_c_layouts_bytes(self, case):
        points, k, restarts, seed = case
        got = offline_kmeans(points, k, restarts, seed)
        want = offline_kmeans(np.ascontiguousarray(points), k, restarts, seed)
        assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in want]

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

    @pytest.mark.parametrize("layout", ["C", "F", "transposed", "strided", "reversed"])
    def test_near_ties_of_duplicate_points_in_every_layout(self, layout):
        # Two equal initial centers: one keeps the point's bits, the other
        # becomes the mean of copies of it, an ulp off. Points of another
        # value then lie within rounding of both and are rechecked; every
        # layout gives the result of its C-ordered copy.
        for seed, draw_seed in [(49, 5), (127, 4)]:
            rng = np.random.default_rng(seed)
            points = (10.0 * rng.normal(size=(3, 10)))[rng.integers(0, 3, size=20)]
            points = {
                "C": points,
                "F": np.asfortranarray(points),
                "transposed": np.ascontiguousarray(points.T).T,
                "strided": np.repeat(points, 2, axis=1)[:, ::2],
                "reversed": points[::-1],
            }[layout]
            centers, assign, inertia = offline_kmeans(points, 3, restarts=1, seed=draw_seed)
            ref_centers, ref_assign, ref_inertia = oracles.broadcast_kmeans(
                np.ascontiguousarray(points), 3, 1, draw_seed
            )
            assert centers.tobytes() == ref_centers.tobytes()
            assert assign.tobytes() == ref_assign.tobytes()
            assert repr(inertia) == repr(ref_inertia)


class TestKmeansRowRecheck:
    # numpy sums the last axis by a plain loop below 8 elements, 8-wide
    # unrolled blocks up to 128 and pairwise splits above; one case a branch
    @pytest.mark.parametrize("d", [1, 7, 8, 10, 17, 130, 257], ids=lambda d: f"d={d}")
    def test_rows_of_c_ordered_points_equal_the_full_call_bit_for_bit(self, d):
        # the recheck of offline_kmeans relies on this for its C-ordered points
        rng = np.random.default_rng(d)
        for _ in range(50):
            n, k = int(rng.integers(1, 50)), int(rng.integers(1, 6))
            points = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
            centers = rng.normal(size=(k, d))
            full = sq_distances(points, centers)
            where = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            for rows in (where, where[:1], where[-1:], np.array([0]), np.array([n - 1])):
                assert sq_distances(points[rows], centers).tobytes() == full[rows].tobytes()


@st.composite
def lockstep_cases(draw):
    """(points, k, restarts, seed, group bound in bytes).

    ``kmeans_cases`` and ``blob_cases`` inputs, the same points with k = N,
    and restarts that tie: two tight blobs far apart, so most restarts end on
    the same two clusters, with equal inertia, but not all in the same label
    order. The bound is the module's or a few hundred bytes, which spreads
    the restarts over several groups, down to groups of one restart whose
    rows alone exceed it.
    """
    kind = draw(st.sampled_from(["kmeans", "blobs", "k=N", "ties"]))
    if kind == "ties":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n, d = draw(st.integers(4, 40)), draw(st.integers(1, 8))
        blob = rng.integers(0, 2, size=n)
        blob[:2] = 0, 1  # neither blob is empty
        points = 100.0 * blob[:, None] + 1e-3 * rng.normal(size=(n, d))
        k, restarts, seed = 2, draw(st.integers(2, 12)), draw(st.integers(0, 2**16))
    else:
        points, k, restarts, seed = draw(blob_cases() if kind == "blobs" else kmeans_cases())
        if kind == "k=N":
            k = len(points)
        restarts = draw(st.sampled_from([restarts, 7]))
    bound = draw(st.sampled_from([harness_mod._GROUP_BYTES, 200, 700, 3000]))
    return points, k, restarts, seed, bound


class TestLockstepKmeans:
    @settings(deadline=None, max_examples=300)
    @given(lockstep_cases())
    def test_equals_the_sequential_restarts(self, case):
        points, k, restarts, seed, bound = case
        iterations = {}
        run = harness_mod._Lloyd.run

        def recording(self, draws):
            first = len(iterations)
            iterations.update({first + r: None for r in range(len(draws))})
            for out in run(self, draws):
                iterations[first + out[0]] = out[3]
                yield out

        expected = []
        with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
            mp.setattr(harness_mod, "_GROUP_BYTES", bound)
            mp.setattr(harness_mod._Lloyd, "run", recording)
            centers, assign, inertia = offline_kmeans(points, k, restarts, seed)
            ref_centers, ref_assign, ref_inertia = oracles.sequential_kmeans(
                np.ascontiguousarray(points), k, restarts, seed, iterations=expected
            )
        assert centers.tobytes() == ref_centers.tobytes()
        assert assign.tobytes() == ref_assign.tobytes()
        assert repr(inertia) == repr(ref_inertia)
        assert [iterations[r] for r in range(restarts)] == expected

    def test_groups_follow_the_byte_and_product_bounds(self, monkeypatch):
        points = np.random.default_rng(4).normal(size=(50, 3))
        sizes = []
        run = harness_mod._Lloyd.run

        def recording(self, draws):
            sizes.append(len(draws))
            yield from run(self, draws)

        monkeypatch.setattr(harness_mod._Lloyd, "run", recording)
        product = 4 * 50 * 3  # one restart's multiply-adds
        cases = [
            (2 << 20, 2**18, [50]),
            (8 * 6 * 50 * 3, 2**18, [3] * 16 + [2]),  # 3 restarts of K + 2 rows
            (8 * 4 * 50 - 1, 2**18, [1] * 50),  # below one restart's K rows
            (2 << 20, 7 * product + 1, [7] * 7 + [1]),
            (2 << 20, product - 1, [50]),  # no restart's product is that small
        ]
        for bound, one_thread, expected in cases:
            sizes.clear()
            monkeypatch.setattr(harness_mod, "_GROUP_BYTES", bound)
            monkeypatch.setattr(harness_mod, "_ONE_THREAD_PRODUCT", one_thread)
            offline_kmeans(points, 4, restarts=50, seed=1)
            assert sizes == expected

    def test_most_restarts_skip_the_exact_inertia(self, monkeypatch):
        points = np.random.default_rng(6).normal(size=(400, 6))
        exact = []
        inertia = harness_mod._Lloyd.inertia

        def recording(self, centers, assign):
            exact.append(inertia(self, centers, assign))
            return exact[-1]

        monkeypatch.setattr(harness_mod._Lloyd, "inertia", recording)
        result = offline_kmeans(points, 8, restarts=50, seed=3)
        reference = oracles.sequential_kmeans(points, 8, restarts=50, seed=3)
        assert repr(result[2]) == repr(reference[2])
        assert 1 <= len(exact) <= 10
        assert min(exact) == result[2]


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



class TestTrainChunks:
    """The train stream's statistics are taken per chunk of samples; every
    output equals the per-sample loop's (``oracles.per_sample_train``)."""

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**16),
        clusters=st.integers(1, 4),
        samples=st.integers(1, 9),
        channels=st.integers(1, 3),
        levels=st.lists(
            st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(lambda s: s[0] * s[1] >= 2),
            min_size=1, max_size=3,
        ),
        k=st.integers(1, 4),
        alpha=st.sampled_from([0.05, 0.7]),
        chunk_bytes=st.integers(1, 2048),
    )
    # one-sample chunks everywhere
    @example(seed=1, clusters=3, samples=5, channels=2, levels=[(3, 3), (2, 1)], k=3,
             alpha=0.05, chunk_bytes=1)
    # chunks of 3 over 10 samples: the last chunk holds one
    @example(seed=2, clusters=2, samples=5, channels=1, levels=[(2, 2)], k=2, alpha=0.05,
             chunk_bytes=100)
    # a 256-byte level over the bound, alone, beside a 32-byte level in chunks of 6, 6, 2
    @example(seed=3, clusters=2, samples=7, channels=2, levels=[(4, 4), (2, 1)], k=4,
             alpha=0.05, chunk_bytes=200)
    def test_chunked_stream_equals_the_per_sample_loop(
        self, seed, clusters, samples, channels, levels, k, alpha, chunk_bytes
    ):
        assume(k <= clusters * samples)
        config = RunConfig(k=k, alpha=alpha, seed=seed)
        spec = stream_spec(seed, clusters, samples, channels, levels, spread=0.8)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness_mod, "_CHUNK_BYTES", chunk_bytes)
            banks, report = run_train_phase(config, spec)
        ref_banks, ref_report = oracles.per_sample_train(config, spec)
        assert [b.save() for b in banks] == [b.save() for b in ref_banks]
        assert report_key(report) == report_key(ref_report)

    def test_chunks_follow_the_byte_bound(self, monkeypatch):
        monkeypatch.setattr(harness_mod, "_CHUNK_BYTES", 200)
        yielded = recording_stream(monkeypatch)
        calls, real = [], harness_mod.compute_stats

        def recording(f, *args, **kwargs):
            calls.append((f, f.copy()))  # a chunk's buffer is reused by the next chunk
            return real(f, *args, **kwargs)

        monkeypatch.setattr(harness_mod, "compute_stats", recording)
        spec = stream_spec(3, clusters=2, samples=7, channels=2, levels=[(4, 4), (2, 1)])
        run_train_phase(RunConfig(k=4), spec)
        big = [f for f, _ in calls if f.shape[1:] == (2, 4, 4)]
        small = [(f, seen) for f, seen in calls if f.shape[1:] == (2, 2, 1)]
        # a 256-byte map is over the bound: each goes alone, as the stream's own array
        assert len(big) == 14 and all(f is pyramid[0] for f, pyramid in zip(big, yielded))
        # 32-byte maps go six to a chunk, and the last chunk takes the rest
        assert [len(seen) for _, seen in small] == [6, 6, 2]
        assert small[0][0].base is small[1][0].base is small[2][0].base  # one reused buffer
        stacked = np.concatenate([pyramid[1] for pyramid in yielded])
        assert np.concatenate([seen for _, seen in small]).tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("chunk_bytes", [1, 100, harness_mod._CHUNK_BYTES])
    def test_every_sample_is_observed_before_the_stream_ends(self, monkeypatch, chunk_bytes):
        monkeypatch.setattr(harness_mod, "_CHUNK_BYTES", chunk_bytes)
        observed, nexts = [], []
        real_observe = StyleMemoryBank.observe

        def counting(bank, s):
            observed.append(1)
            return real_observe(bank, s)

        monkeypatch.setattr(StyleMemoryBank, "observe", counting)
        yielded = recording_stream(monkeypatch, on_next=lambda i: nexts.append(len(observed)))
        spec = stream_spec(5, clusters=3, samples=7, channels=2, levels=[(3, 2), (2, 1)])
        run_train_phase(RunConfig(k=3), spec)
        assert len(yielded) == 21
        # 22 next() calls; the last one, which ends the stream, finds all 2 x 21 observed
        assert len(nexts) == 22 and nexts[-1] == 2 * 21

    @pytest.mark.parametrize("sample, level", [(4, 1), (9, 0), (20, 1)])
    def test_a_non_finite_map_inside_a_chunk_fails_as_before(self, monkeypatch, sample, level):
        real = harness_mod.generate_stream

        def poisoned(spec):
            for i, (pyramid, label) in enumerate(real(spec)):
                if i == sample:
                    pyramid[level][0, 0, 0, 0] = np.nan
                yield pyramid, label

        monkeypatch.setattr(harness_mod, "generate_stream", poisoned)
        monkeypatch.setattr(harness_mod, "_CHUNK_BYTES", 3200)  # chunks of 8, and of all 21
        spec = stream_spec(6, clusters=3, samples=7, channels=2, levels=[(5, 5), (2, 1)])
        with pytest.raises(ValueError) as ours:
            run_train_phase(RunConfig(k=3), spec)
        with pytest.raises(ValueError) as reference:
            oracles.per_sample_train(RunConfig(k=3), spec)
        assert str(ours.value) == str(reference.value) == "feature map contains non-finite values"

    def test_train_bank_reports_a_non_finite_map_on_one_line(self, monkeypatch, tmp_path, capsys):
        real = harness_mod.generate_stream

        def poisoned(spec):
            for i, (pyramid, label) in enumerate(real(spec)):
                if i == 3:
                    pyramid[0][0, 0, 0, 0] = np.inf
                yield pyramid, label

        monkeypatch.setattr(harness_mod, "generate_stream", poisoned)
        argv = ["train-bank", "--channels", "4", "--levels", "4x4,2x2", "--out-dir", str(tmp_path)]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err == "sa-adapt: error: feature map contains non-finite values\n"
        assert not any(tmp_path.iterdir())


class TestStepRecords:
    """Each phase's report is built from its step list alone, plus what the phase
    takes after the stream: for train each level's style vectors and final bank,
    for tta each bank's prototype-count change. The steps here come from the
    oracles' per-sample loops."""

    # (clusters, samples per cluster, k, alpha): a stream whose banks only fuse
    # after bootstrap, a churned one (low alpha: replaces) and a one-sample stream
    STREAMS = [(3, 5, 3, 1.5), (4, 6, 2, 0.05), (1, 1, 1, 0.7)]
    LEVELS = [(4, 3), (2, 2)]

    @pytest.mark.parametrize("clusters, samples, k, alpha", STREAMS)
    def test_train_report_from_the_per_sample_steps(self, clusters, samples, k, alpha):
        config = RunConfig(k=k, alpha=alpha, seed=4)
        spec = stream_spec(4, clusters, samples, 3, self.LEVELS, spread=0.8)
        banks, steps = oracles.per_sample_train_steps(config, spec)
        records = [[harness_mod._Step(update) for update, _ in level] for level in steps]
        points = [np.stack([vector for _, vector in level]) for level in steps]
        rebuilt = harness_mod._train_report(config, records, points, banks)
        assert report_key(rebuilt) == report_key(run_train_phase(config, spec)[1])
        replaces = sum(u.action == "replace" for level in steps for u, _ in level)
        assert (replaces > 0) == (alpha < 0.1)

    @pytest.mark.parametrize("clusters, samples, k, alpha", STREAMS)
    @pytest.mark.parametrize("order", TTA_ORDERS)
    def test_tta_report_from_the_per_sample_steps(self, order, clusters, samples, k, alpha):
        config = RunConfig(k=k, alpha=alpha, seed=4, tta_order=order)
        trained, _ = run_train_phase(config, stream_spec(4, clusters, samples, 3, self.LEVELS))
        saved = [bank.save() for bank in trained]
        spec = stream_spec(9, clusters, samples, 3, self.LEVELS, spread=0.8)
        report = run_tta_phase(config, [load(blob) for blob in saved], spec)
        banks = [load(blob) for blob in saved]
        steps = oracles.per_sample_tta(config, banks, spec)
        records = [[harness_mod._Step(*step) for step in level] for level in steps]
        changes = [len(bank) - len(load(blob)) for bank, blob in zip(banks, saved)]
        rebuilt = harness_mod._tta_report(config, records, changes)
        assert report_key(rebuilt) == report_key(report)


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
                (result,) = project(bank, fmap, cfg.softmax_temperature, [s])
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


REFERENCE_LEVELS = ((64, 64), (32, 32), (16, 16), (8, 8))
PYRAMID_BYTES = sum(8 * 256 * h * w for h, w in REFERENCE_LEVELS)


def keeping_stream(monkeypatch):
    """Wrap ``generate_stream`` in the harness so that each yielded item stays
    referenced while the next is drawn, as a timing wrapper's loop variable does."""
    real = harness_mod.generate_stream

    def stream(spec):
        for item in real(spec):
            yield item

    monkeypatch.setattr(harness_mod, "generate_stream", stream)


def traced_peak(fn, *args) -> int:
    import tracemalloc

    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


BENCHMARK_OCL_LEVELS = ((64, 64), (32, 32), (16, 16), (8, 8))


def token_matrix_bytes(d: int) -> int:
    """Bytes of one (N, d) float64 token matrix of the ocl-gated levels."""
    return sum(h * w for h, w in BENCHMARK_OCL_LEVELS) * d * 8


@pytest.mark.parametrize("kept", [False, True], ids=["plain", "kept-items"])
class TestOnePyramidPerStreamLoop:
    """Each phase takes every map out of the yielded pyramid as it reads it, so
    at the reference shape (C = 256, 64x64 to 8x8) a stream loop peaks at about
    1.1-1.2 pyramids of traced memory. Holding the previous pyramid while the
    next is drawn read 2.06-2.16."""

    def test_train_phase_holds_one_pyramid(self, monkeypatch, kept):
        if kept:
            keeping_stream(monkeypatch)
        spec = stream_spec(7, clusters=2, samples=3, channels=256, levels=REFERENCE_LEVELS)
        peak = traced_peak(run_train_phase, RunConfig(k=4), spec)
        assert peak <= 1.5 * PYRAMID_BYTES, peak / PYRAMID_BYTES

    def test_tta_phase_holds_one_pyramid(self, monkeypatch, kept):
        config = RunConfig(k=4)
        train = stream_spec(7, clusters=2, samples=3, channels=256, levels=REFERENCE_LEVELS)
        banks, _ = run_train_phase(config, train)
        if kept:
            keeping_stream(monkeypatch)
        spec = stream_spec(8, clusters=1, samples=4, channels=256, levels=REFERENCE_LEVELS)
        peak = traced_peak(run_tta_phase, config, banks, spec)
        assert peak <= 1.5 * PYRAMID_BYTES, peak / PYRAMID_BYTES


class TestOclDemo:
    def test_identical_domains_give_identical_query_sets(self):
        # shared parameters + equal pyramids: the two domains' query sets
        # coincide row-wise and the loss reduces to the softmax cross-entropy
        # of the queries' own Gram matrix
        from sa_adapt.class_query_attention import (
            AttentionParams, init_class_queries, project_keys_values, run_encoder_side,
            tokens_from_pyramid,
        )
        from sa_adapt.object_gating import align_to_tokens, build_masks

        rng = np.random.default_rng(3)
        d, heads, shapes = 16, 2, [(8, 8), (4, 4)]
        annotation = harness_mod.synthetic_annotation(rng, (64, 64), 5)
        masks = align_to_tokens(build_masks(annotation, (64, 64), 5), shapes)
        levels = [rng.normal(size=(1, d, h, w)) for h, w in shapes]
        params = AttentionParams.init_random(d, rng)
        q0 = init_class_queries(5, d, rng)
        seq_src = tokens_from_pyramid(levels)
        seq_aug = tokens_from_pyramid([level.copy() for level in levels])
        kv_src = project_keys_values(seq_src, masks, params)
        q_s = run_encoder_side(q0, kv_src, masks, params, heads, blocks=2)
        kv_aug = project_keys_values(seq_aug, masks, params)
        q_a = run_encoder_side(q0, kv_aug, masks, params, heads, blocks=2)
        assert q_s.tobytes() == q_a.tobytes()
        rep = contrastive_loss(ContrastiveBatch(q_s, q_a, masks.present))
        gram = q_s[masks.present] @ q_s[masks.present].T
        expected = -np.mean(np.diag(gram) - np.log(np.exp(gram).sum(axis=0)))
        assert rep.l_contra == pytest.approx(expected, rel=1e-12)

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

    def test_the_pair_shares_one_positions_encoding(self, monkeypatch):
        made, encoded = [], []
        real_encoding, real_project = harness_mod.SineEncoding, harness_mod.project_keys_values
        monkeypatch.setattr(
            harness_mod, "SineEncoding",
            lambda *args: made.append(real_encoding(*args)) or made[-1],
        )
        # the projection spends the tokens, so the spy keeps their bytes first
        monkeypatch.setattr(
            harness_mod, "project_keys_values",
            lambda seq, *args, **kw: encoded.append((seq, seq.tokens.tobytes()))
            or real_project(seq, *args, **kw),
        )
        run_ocl_demo(small_config(d=16, heads=2))
        (seq_src, tokens_src), (seq_aug, tokens_aug) = encoded
        assert len(made) == 1
        assert seq_src.positions is seq_aug.positions is made[0]
        assert tokens_src != tokens_aug

    def test_each_side_is_projected_once_into_the_source_sides_arrays(self, monkeypatch):
        calls, real_project = [], harness_mod.project_keys_values

        def recording(seq, masks, params, out=None):
            calls.append((out, real_project(seq, masks, params, out=out)))
            return calls[-1][1]

        monkeypatch.setattr(harness_mod, "project_keys_values", recording)
        run_ocl_demo(small_config(d=16, heads=2))
        (out_src, kv_src), (out_aug, kv_aug) = calls
        assert out_src is None
        assert out_aug is kv_src and kv_aug is kv_src

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8).map(lambda half: 2 * half),
        st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=3),
    )
    def test_the_pair_equals_the_list_draws_tokenized(self, seed, d, shapes):
        from sa_adapt.class_query_attention import tokens_from_pyramid

        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        pair = synthetic_pair(rng, d, shapes)
        expected = [tokens_from_pyramid(p) for p in oracles.list_pair_pyramids(reference, d, shapes)]
        for seq, want in zip(pair, expected):
            assert seq.tokens.tobytes() == want.tokens.tobytes()
            assert np.asarray(seq.positions).tobytes() == np.asarray(want.positions).tobytes()
            assert seq.level_shapes == want.level_shapes
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_a_benchmark_size_pair_holds_at_most_4_point_4_token_matrices(self):
        # the ocl-gated shape: N = 5,440 tokens of d = 256. This run peaks at
        # 4.11-4.20 (N, d) float64 matrices (seeds 11-13) while the source keys
        # are projected: the source tokens with their attended rows moved to the
        # front (each key and value product stays one product over all attended
        # rows, for its bits), the augmented tokens, the values and the keys. A
        # gathered (M, d) copy of the attended tokens, with the source tokens
        # alive through the source attention, read 5.00-5.11; an (N, d)
        # positions array as well ~6.0, keeping the (C, H, W) pixel masks alive
        # as well ~6.5, and keeping both pyramids alive, a second attention
        # array and two token gathers per projection as well ~8.5
        cfg = RunConfig(seed=11)
        peak = traced_peak(run_ocl_demo, cfg, 20, (512, 512), BENCHMARK_OCL_LEVELS, 6)
        assert peak <= 4.4 * token_matrix_bytes(cfg.d), peak / token_matrix_bytes(cfg.d)

    def test_a_benchmark_size_pair_is_drawn_in_at_most_three_and_a_half_token_matrices(self):
        # the two token sequences plus one level's draw (2.94); with an (N, d)
        # positions array it read 3.14, and drawing both pyramids as lists and
        # then flattening them 5.14
        d = 256
        peak = traced_peak(synthetic_pair, np.random.default_rng(11), d, BENCHMARK_OCL_LEVELS)
        assert peak <= 3.5 * token_matrix_bytes(d), peak / token_matrix_bytes(d)

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
    perturb, and a stack bound of 1..2*n*d logits copies."""
    c, d = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    present = np.array(draw(st.lists(st.booleans(), min_size=c, max_size=c)))
    present[draw(st.integers(0, c - 1))] = True
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = ContrastiveBatch(rng.normal(size=(c, d)), rng.normal(size=(c, d)), present)
    copies = draw(st.integers(1, 2 * int(present.sum()) * d))
    return batch, draw(st.booleans()), copies


def stacked_fd(s, a, source, chunk_bytes=4 << 20):
    """The stacked-copies check of the same loss, from ``oracles``."""
    def loss(stack):
        return oracles.stacked_contrastive_loss(*((stack, a) if source else (s, stack)))

    return oracles.stacked_fd_gradient(loss, s if source else a, chunk_bytes=chunk_bytes)


@st.composite
def augmented_fd_cases(draw):
    """Present-row queries with n in each branch of numpy's pairwise sum over a
    row (under 8, 8 to 128, above 128), and a bound of 1..2d (column, sign)
    pairs per block of changed logits columns."""
    n = draw(st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 140)))
    d = draw(st.integers(1, 3 if n <= 128 else 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    s, a = scale * rng.normal(size=(n, d)), scale * rng.normal(size=(n, d))
    return s, a, draw(st.integers(1, 2 * d))


def spy_on_loss_tails(monkeypatch, seen):
    """Record the shape and size of every logits block the check hands to the loss tail."""
    real = ca_mod._tail

    def spy(logits):
        seen.append((logits.shape, logits.nbytes))
        return real(logits)

    monkeypatch.setattr(ca_mod, "_tail", spy)


def perturbed_entries(seen, source):
    """Perturbed entries of x in each block the spy saw: one per copy of a source
    stack (n, n, copies), n per (column, sign) pair of an augmented block (n, n,
    pairs). The augmented side's tail of the unperturbed (n, n) logits is no block."""
    return [shape[2] * (1 if source else shape[0]) for shape, _ in seen if len(shape) == 3]


class TestFdGradient:
    @settings(deadline=None, max_examples=150)
    @given(fd_cases())
    def test_batched_check_equals_the_per_entry_loop(self, case):
        batch, source, copies = case
        idx = np.flatnonzero(batch.present)
        s, a = batch.q_source[idx], batch.q_augmented[idx]
        x = batch.q_source if source else batch.q_augmented
        expected = oracles.central_difference(lambda: contrastive_loss(batch).l_contra, x)
        got = np.zeros_like(x)
        # stacks of ``copies`` logits copies, so most cases end in a partial stack
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ca_mod, "_FD_CHUNK_BYTES", copies * idx.size**2 * 8)
            got[idx] = fd_gradient(s, a, source)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("source", [True, False])
    def test_equals_the_stacked_copies_check_at_the_ocl_gated_shape(self, source):
        rng = np.random.default_rng(15)
        s, a = rng.normal(size=(19, 256)), rng.normal(size=(19, 256))
        assert fd_gradient(s, a, source).tobytes() == stacked_fd(s, a, source).tobytes()

    @settings(deadline=None, max_examples=60)
    @given(augmented_fd_cases())
    def test_augmented_side_equals_the_stacked_copies_check(self, case):
        s, a, pairs = case
        n = len(s)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ca_mod, "_FD_CHUNK_BYTES", pairs * n * n * 8)
            got = fd_gradient(s, a, source=False)
        assert got.tobytes() == stacked_fd(s, a, False, chunk_bytes=1 << 16).tobytes()

    @pytest.mark.parametrize("n, d", [(19, 256), (300, 2)])
    def test_logits_stacks_stay_within_the_chunk_bound(self, monkeypatch, n, d):
        # at n=300 one whole (n, n, n) stack of a column's copies would take 216 MB
        rng = np.random.default_rng(n)
        s, a = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        before = s.tobytes(), a.tobytes()
        report = contrastive_loss(ContrastiveBatch(s, a, np.ones(n, dtype=bool)))
        bound = max(ca_mod._FD_CHUNK_BYTES, n * n * 8)
        for source, analytic in ((True, report.grad_q_source),
                                 (False, report.grad_q_augmented)):
            seen = []
            with pytest.MonkeyPatch.context() as mp:
                spy_on_loss_tails(mp, seen)
                grad = fd_gradient(s, a, source)
            assert 0 < max(nbytes for _, nbytes in seen) <= bound
            assert sum(perturbed_entries(seen, source)) == 2 * n * d
            assert oracles.relative_gap(grad, analytic) < 1e-6
        assert (s.tobytes(), a.tobytes()) == before

    @pytest.mark.parametrize("source, entries", [(True, [1] * 12), (False, [3] * 4)])
    def test_a_copy_larger_than_the_bound_goes_alone(self, monkeypatch, source, entries):
        # a source copy, or an augmented (column, sign) pair with its n = 3 copies
        monkeypatch.setattr(ca_mod, "_FD_CHUNK_BYTES", 8)
        seen = []
        spy_on_loss_tails(monkeypatch, seen)
        s = np.arange(6.0).reshape(3, 2)
        fd_gradient(s, s[::-1], source)
        assert perturbed_entries(seen, source) == entries

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
    @pytest.mark.parametrize("source", [True, False])
    def test_empty_queries_give_an_empty_gradient(self, shape, source):
        assert fd_gradient(np.ones(shape), np.ones(shape), source).shape == shape


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
        parsed = oracles.parse_report(format_report(records))
        assert parsed == records
        assert format_report(parsed) == format_report(records)

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            oracles.parse_report("name value\n")

    def test_value_of_a_missing_name_is_a_key_error(self):
        report = Report()
        report.add("x", 1, "count")
        assert report.value("x") == 1
        with pytest.raises(KeyError):
            report.value("y")

    def test_numpy_scalars_are_stored_as_python_values(self):
        report = Report()
        report.add("a", np.int64(3), "count")
        report.add("b", np.float64(0.5), "ratio")
        assert [type(value) for _, value, _ in report.records] == [int, float]
        assert format_report(report.records) == "a 3 count\nb 0.5 ratio\n"

    def test_space_in_name_rejected(self):
        with pytest.raises(ValueError):
            format_report([("bad name", 1, "count")])

    def test_write_report_files(self, tmp_path):
        report = Report()
        report.add("x", 1, "count")
        report.extra["traj"] = [1.0, 2.0]
        text_path, json_path = write_report(tmp_path, "demo", report)
        assert oracles.parse_report(text_path.read_text()) == [("x", 1, "count")]
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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "-1", "seed (--seed) must be >= 0, got -1"),
            ("--alpha", "inf", "alpha (--alpha) must be positive and finite, got inf"),
            ("--clusters", "0", "clusters (--clusters) must be at least 1, got 0"),
            ("--clusters", "-1", "clusters (--clusters) must be at least 1, got -1"),
            (
                "--levels",
                "8x8,1x1",
                "pyramid_shapes (--levels) must have H*W >= 2 at every level so content can "
                "carry exact stats, got [(64, 8, 8), (64, 1, 1)]",
            ),
        ],
        ids=["seed", "alpha", "clusters", "negative-clusters", "levels"],
    )
    def test_a_bad_train_value_names_its_field_flag_and_value(
        self, tmp_path, capsys, flag, value, message
    ):
        argv = ["train-bank", flag, value, "--out-dir", str(tmp_path)]
        assert self.user_error(capsys, argv) == f"sa-adapt: error: {message}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--lambda-c", "nan", "lambda_c (--lambda-c) must be finite and >= 0, got nan"),
            ("--lambda-c", "inf", "lambda_c (--lambda-c) must be finite and >= 0, got inf"),
            ("--l-det", "nan", "l_det (--l-det) must be finite, got nan"),
            ("--l-det", "inf", "l_det (--l-det) must be finite, got inf"),
        ],
        ids=["lambda-c-nan", "lambda-c-inf", "l-det-nan", "l-det-inf"],
    )
    def test_non_finite_ocl_weight_fails_before_any_work(
        self, tmp_path, capsys, monkeypatch, flag, value, message
    ):
        def no_masks(*args):
            raise AssertionError("build_masks ran")

        monkeypatch.setattr(harness_mod, "build_masks", no_masks)
        argv = ["ocl-demo", f"{flag}={value}", "--out-dir", str(tmp_path)]
        assert self.user_error(capsys, argv) == f"sa-adapt: error: {message}\n"
        assert not any(tmp_path.iterdir())

    def test_an_odd_dim_fails_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_masks(*args):
            raise AssertionError("build_masks ran")

        monkeypatch.setattr(harness_mod, "build_masks", no_masks)
        argv = ["ocl-demo", "--dim=3", "--heads=1", "--out-dir", str(tmp_path)]
        assert self.user_error(capsys, argv) == (
            "sa-adapt: error: d (--dim) must be even, since the position encodings split it "
            "into row and column halves, got 3\n"
        )
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
        assert "k (--k) must be at least 1, got 0" in err

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
        err = self.user_error(capsys, ["bench", "--runs", "0", *out])
        assert err == "sa-adapt: error: runs (--runs) must be at least 1, got 0\n"
        err = self.user_error(capsys, ["bench", "--warmup", "-1", *out])
        assert err == "sa-adapt: error: warmup (--warmup) must be at least 0, got -1\n"

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


def test_describe_bank_prints_plain_floats():
    stats = ChannelStats(np.array([-0.1, 0.3]), np.array([1.0, 2.5]))
    bank = StyleMemoryBank(capacity=2)
    bank.observe(stats)
    line = describe_bank(bank).splitlines()[-1]
    assert "np.float64" not in line
    assert line.endswith(f"mean_avg={float(stats.mean.mean())!r} std_avg=1.75")
