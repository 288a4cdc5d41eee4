"""The blocked passes over a feature map: the statistics and the remap keep
the bits of the whole-map formulas, and carry the map's finiteness check."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sa_adapt import harness, tensor_core
from sa_adapt.config import RunConfig
from sa_adapt.style_memory_bank import StyleMemoryBank, load
from sa_adapt.style_projection import _remap, project
from sa_adapt.style_statistics import ChannelStats, compute_stats

import oracles

NON_FINITE = "feature map contains non-finite values"
# 48 channel rows of 64x64 doubles: 16 rows (512 KiB) a block, three blocks a sample
C, SIDE = 48, 64

# generators of small maps: any extent, the real block or blocks of one row or
# several (down to rows longer than a block), and values far from 0 or tiny or large
EXTENTS = st.integers(1, 9)
BLOCK_BYTES = st.one_of(st.none(), st.integers(1, 4096))
OFFSETS = st.sampled_from([0.0, 1e6, -1e6])
SCALES = st.sampled_from([1.0, 1e-150, 1e3])
SEEDS = st.integers(0, 2**32 - 1)


def random_bank(rng, channels, k=3):
    bank = StyleMemoryBank(capacity=k)
    for _ in range(k):
        bank.observe(ChannelStats(rng.normal(0, 3, channels), rng.uniform(0.5, 2.0, channels)))
    return bank


def assert_matches_whole_map_formulas(f, bank):
    mean, std = oracles.stats_whole_map(f)
    stats = compute_stats(f)
    assert np.stack([s.mean for s in stats]).tobytes() == mean.tobytes()
    assert np.stack([s.std for s in stats]).tobytes() == std.tobytes()
    for b, (s, res) in enumerate(zip(stats, project(bank, f, stats=stats))):
        scale = res.target_std / s.std
        shift = res.target_mean - s.mean * scale
        assert res.rectified.tobytes() == oracles.affine_remap(f[b : b + 1], scale, shift).tobytes()


class TestSameBitsAsTheWholeMap:
    @settings(max_examples=150, deadline=None)
    @given(
        batch=st.integers(1, 3),
        channels=EXTENTS,
        h=EXTENTS,
        w=EXTENTS,
        block_bytes=BLOCK_BYTES,
        offset=OFFSETS,
        scale=SCALES,
        seed=SEEDS,
    )
    def test_statistics_and_remap(self, batch, channels, h, w, block_bytes, offset, scale, seed):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(batch, channels, h, w)) * scale + offset
        with pytest.MonkeyPatch.context() as mp:
            if block_bytes is not None:
                mp.setattr(tensor_core, "_BLOCK_BYTES", block_bytes)
            assert_matches_whole_map_formulas(f, random_bank(rng, channels))

    @settings(max_examples=150, deadline=None)
    @given(
        channels=EXTENTS,
        h=EXTENTS,
        w=EXTENTS,
        block_bytes=BLOCK_BYTES,
        offset=OFFSETS,
        scale=SCALES,
        epsilon=st.sampled_from([1e-6, 1e-2]),
        seed=SEEDS,
    )
    def test_rectified_statistics_without_the_map(
        self, channels, h, w, block_bytes, offset, scale, epsilon, seed
    ):
        """The statistics taken inside the remap pass are those of the built map."""
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(1, channels, h, w)) * scale + offset
        bank = random_bank(rng, channels)
        with pytest.MonkeyPatch.context() as mp:
            if block_bytes is not None:
                mp.setattr(tensor_core, "_BLOCK_BYTES", block_bytes)
            (s,) = compute_stats(f, epsilon)
            (fused,) = project(bank, f, epsilon=epsilon, build_map=False)
            (built,) = project(bank, f, stats=[s])
            scale_ = built.target_std / s.std
            expected = compute_stats(
                _remap(f[0], scale_, built.target_mean - s.mean * scale_), epsilon
            )[0]
        assert fused.rectified is None and built.rectified_stats is None
        assert fused.rectified_stats.mean.tobytes() == expected.mean.tobytes()
        assert fused.rectified_stats.std.tobytes() == expected.std.tobytes()
        for name in ("target_mean", "target_std", "weights", "distances"):
            assert getattr(fused, name).tobytes() == getattr(built, name).tobytes()

    @pytest.mark.parametrize(
        "shape",
        [(2, 37, 64, 64), (2, 3, 300, 300), (3, 5, 1, 1)],
        ids=["channels-not-dividing-into-blocks", "rows-longer-than-a-block", "1x1-channels"],
    )
    def test_at_the_real_block_size(self, shape):
        rng = np.random.default_rng(sum(shape))
        assert_matches_whole_map_formulas(rng.normal(size=shape) * 2 + 1, random_bank(rng, shape[1]))

    @given(rows=st.integers(1, 40), row_len=st.integers(1, 70000))
    def test_blocks_cover_every_row_once_within_the_bound(self, rows, row_len):
        blocks = tensor_core._channel_blocks(rows, row_len)
        assert [i for sl in blocks for i in range(rows)[sl]] == list(range(rows))
        sizes = [sl.stop - sl.start for sl in blocks]
        assert sizes[0] == max(sizes)
        assert all(n == 1 or n * row_len * 8 <= tensor_core._BLOCK_BYTES for n in sizes)

    def test_a_finite_map_is_not_scanned(self, monkeypatch):
        scanned = []
        real = tensor_core.require_finite
        monkeypatch.setattr(
            tensor_core, "require_finite", lambda arr, what="array": scanned.append(arr) or real(arr, what)
        )
        rng = np.random.default_rng(3)
        f = rng.normal(size=(2, C, SIDE, SIDE))
        project(random_bank(rng, C), f, stats=compute_stats(f))
        # softmax checks its K logits; no row of the map is scanned
        assert all(np.size(arr) < SIDE * SIDE for arr in scanned)


# rows either side of the buffered-row threshold (256) and of numpy's default
# ufunc buffer (8192 values), as (H, W)
ROW_SHAPES = [(15, 17), (16, 16), (1, 257), (64, 64), (1, 8191), (64, 128), (3, 2731)]


class TestRowBuffer:
    """Over rows of at least ``_ROW_BUFFER`` values the passes run under a short
    ufunc buffer; the bits stay the whole-map formulas', and the caller's
    buffer size is back when a call returns or raises."""

    @staticmethod
    def passes(f, bank, epsilon=1e-6):
        """Check every pass over ``f`` against the oracles, and the buffer size
        against the caller's after each call."""
        caller_buffer = np.getbufsize()
        mean, std = oracles.stats_whole_map(f, epsilon)
        stats = compute_stats(f, epsilon)
        assert np.getbufsize() == caller_buffer
        assert np.stack([s.mean for s in stats]).tobytes() == mean.tobytes()
        assert np.stack([s.std for s in stats]).tobytes() == std.tobytes()
        built = project(bank, f, stats=stats, epsilon=epsilon)
        assert np.getbufsize() == caller_buffer
        fused = project(bank, f, epsilon=epsilon, build_map=False)
        assert np.getbufsize() == caller_buffer
        for b, (s, res, without_map) in enumerate(zip(stats, built, fused)):
            scale = res.target_std / s.std
            remapped = oracles.affine_remap(f[b : b + 1], scale, res.target_mean - s.mean * scale)
            assert res.rectified.tobytes() == remapped.tobytes()
            r_mean, r_std = oracles.stats_whole_map(remapped, epsilon)
            assert without_map.rectified_stats.mean.tobytes() == r_mean[0].tobytes()
            assert without_map.rectified_stats.std.tobytes() == r_std[0].tobytes()

    @pytest.mark.parametrize("shape", ROW_SHAPES, ids=lambda hw: str(hw[0] * hw[1]))
    def test_same_bits_and_buffer_at_every_row_length(self, shape):
        rng = np.random.default_rng(shape[0] * shape[1])
        f = rng.normal(size=(2, 20, *shape)) * 3 + 1e6  # several rows a block
        self.passes(f, random_bank(rng, 20))

    def test_a_caller_set_buffer_is_kept(self):
        rng = np.random.default_rng(16)
        f = rng.normal(size=(1, 8, 64, 64))
        with np.errstate():  # restores the default buffer however the test ends
            np.setbufsize(16)
            self.passes(f, random_bank(rng, 8))
            assert np.getbufsize() == 16

    @pytest.mark.parametrize("shape", [(64, 64), (8, 8)], ids=["buffered", "short-rows"])
    def test_the_buffer_is_restored_after_a_non_finite_map(self, shape):
        rng = np.random.default_rng(5)
        f = rng.normal(size=(1, 8, *shape))
        bank = random_bank(rng, 8)
        stats = compute_stats(f)
        f[0, 3, 1, 1] = np.nan
        caller_buffer = np.getbufsize()
        for call in (
            lambda: compute_stats(f),
            lambda: project(bank, f, stats=stats),
            lambda: project(bank, f, stats=stats, build_map=False),
        ):
            with pytest.raises(ValueError, match=NON_FINITE):
                call()
            assert np.getbufsize() == caller_buffer


@pytest.fixture(params=[np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def bad(request):
    return request.param


def faulty(batch, where, value):
    """A finite (batch, C, SIDE, SIDE) map, its statistics, and a copy with
    ``value`` in the first, a middle or the last channel block."""
    f = np.random.default_rng(batch).normal(size=(batch, C, SIDE, SIDE))
    stats = compute_stats(f)
    b, c = {"first": (0, 0), "middle": (batch // 2, C // 2), "last": (batch - 1, C - 1)}[where]
    g = f.copy()
    g[b, c, SIDE // 2, SIDE // 3] = value
    return g, stats


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
class TestNonFiniteMaps:
    def test_compute_stats(self, bad, where, batch):
        g, _ = faulty(batch, where, bad)
        with pytest.raises(ValueError, match=NON_FINITE):
            compute_stats(g)

    def test_project_measuring_the_statistics(self, bad, where, batch):
        g, _ = faulty(batch, where, bad)
        with pytest.raises(ValueError, match=NON_FINITE):
            project(random_bank(np.random.default_rng(1), C), g)

    def test_project_given_the_statistics(self, bad, where, batch):
        g, stats = faulty(batch, where, bad)
        with pytest.raises(ValueError, match=NON_FINITE):
            project(random_bank(np.random.default_rng(1), C), g, stats=stats)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_run_tta_phase_rejects_a_non_finite_map(bad, where, monkeypatch):
    g, _ = faulty(1, where, bad)  # tta pyramids hold one sample
    rng = np.random.default_rng(2)
    pyramid = [g, rng.normal(size=(1, C, 8, 8))]
    spec = harness.SyntheticDomainSpec(
        style_clusters=[harness.StyleCluster(mean_seed=1, std_seed=2)],
        pyramid_shapes=[(C, SIDE, SIDE), (C, 8, 8)],
        samples_per_cluster=1,
        rng_seed=0,
    )
    monkeypatch.setattr(harness, "generate_stream", lambda spec: iter([(pyramid, 0)]))
    banks = [random_bank(rng, C) for _ in range(2)]
    with pytest.raises(ValueError, match=NON_FINITE):
        harness.run_tta_phase(RunConfig(), banks, spec)


class TestFaultOrder:
    @pytest.mark.parametrize(
        "second_fault",
        [
            dict(stats_count=2),
            dict(bank=random_bank(np.random.default_rng(5), C + 1)),
            dict(bank=StyleMemoryBank()),
            dict(temperature=0.0),
        ],
        ids=["stats-count", "channel-mismatch", "empty-bank", "temperature"],
    )
    def test_a_non_finite_map_wins_over_a_second_fault(self, second_fault):
        g, stats = faulty(1, "last", np.nan)
        bank = second_fault.get("bank", random_bank(np.random.default_rng(5), C))
        stats = stats * second_fault.get("stats_count", 1)
        with pytest.raises(ValueError, match=NON_FINITE):
            project(bank, g, second_fault.get("temperature", 1.0), stats=stats)

    def test_a_non_finite_map_after_an_overflowing_block(self):
        g, stats = faulty(1, "last", np.nan)
        g[0, 0] = 1e308  # the first block's sums overflow, yet it is finite
        bank = random_bank(np.random.default_rng(6), C)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=NON_FINITE):
                compute_stats(g)
            with pytest.raises(ValueError, match=NON_FINITE):
                project(bank, g, stats=[ChannelStats(stats[0].mean, np.full(C, 1e-3))])

    def test_a_finite_map_near_the_float_limit_keeps_its_outcome(self):
        big = np.full((1, C, SIDE, SIDE), 1e308)  # the means overflow
        opposite = np.zeros((1, C, SIDE, SIDE))  # the means are 0, the variances overflow
        opposite[..., 0, :2] = [1e308, -1e308]
        bank = random_bank(np.random.default_rng(7), C)
        tiny = ChannelStats(np.zeros(C), np.full(C, 1e-3))  # scale > 1: the remap overflows
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="channel means contains non-finite values"):
                compute_stats(big)
            with pytest.raises(ValueError, match="channel stds contains non-finite values"):
                compute_stats(opposite)
            (res,) = project(bank, big, stats=[tiny])
            scale = res.target_std / tiny.std
            expected = oracles.affine_remap(big, scale, res.target_mean - tiny.mean * scale)
        assert np.isinf(res.rectified).all()
        assert res.rectified.tobytes() == expected.tobytes()


class TestOverflowingRemapInTheTtaStep:
    """A tta step whose remap overflows fails as ``project`` followed by
    ``compute_stats`` of the rectified map fails on the same inputs."""

    @staticmethod
    def step_inputs(case):
        """A 2-channel 2x2 map with finite statistics and a one-prototype bank
        whose target std makes the remap overflow."""
        if case == "non-finite-value":  # scale ~1e4 takes the constant 1e306 channel past 1e308
            channel, proto_std = np.full((2, 2), 1e306), 10.0
        else:  # scale ~2: the values stay finite, their squared deviations' sum overflows
            a = 6.5e153
            channel, proto_std = np.array([[a, -a], [a, -a]]), 2 * a
        fmap = np.stack([channel, np.array([[0.0, 1.0], [2.0, 3.0]])])[None]
        (s,) = compute_stats(fmap)
        bank = StyleMemoryBank(capacity=1)
        bank.observe(ChannelStats(s.mean, np.array([proto_std, s.std[1]])))
        return fmap, bank

    @pytest.mark.parametrize("order", ["observe-first", "project-first"])
    @pytest.mark.parametrize(
        "case, message",
        [
            ("non-finite-value", NON_FINITE),
            ("overflowing-sums", "channel stds contains non-finite values"),
        ],
    )
    def test_same_error_as_the_built_map(self, case, message, order, monkeypatch):
        fmap, bank = self.step_inputs(case)
        cfg = RunConfig(tta_order=order)
        oracle = load(bank.save())
        oracle.mode = "tta"
        with np.errstate(over="ignore", invalid="ignore"):
            (s,) = compute_stats(fmap, cfg.epsilon)
            if order == "observe-first":
                oracle.observe(s)
            (res,) = project(oracle, fmap, cfg.softmax_temperature, [s])
            if order == "project-first":
                before_the_update = oracle.save()
                oracle.observe(s)
            with pytest.raises(ValueError, match=message) as expected:
                compute_stats(res.rectified, cfg.epsilon)

            spec = harness.SyntheticDomainSpec(
                style_clusters=[harness.StyleCluster(mean_seed=1, std_seed=2)],
                pyramid_shapes=[(2, 2, 2)],
                samples_per_cluster=1,
                rng_seed=0,
            )
            monkeypatch.setattr(harness, "generate_stream", lambda spec: iter([([fmap], 0)]))
            with pytest.raises(ValueError) as got:
                harness.run_tta_phase(cfg, [bank], spec)
        assert str(got.value) == str(expected.value)
        assert bank.mode == oracle.mode == "tta"
        # project-first: the step now fails before the bank absorbs the sample
        assert bank.save() == (oracle.save() if order == "observe-first" else before_the_update)
