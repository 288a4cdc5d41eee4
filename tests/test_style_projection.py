import numpy as np
import pytest

from sa_adapt.errors import StateError
from sa_adapt.style_memory_bank import StyleMemoryBank
from sa_adapt.style_projection import (
    project,
    project_pyramid,
    projection_weights,
    rectified_stats,
)
from sa_adapt.style_statistics import ChannelStats, compute_stats, style_distance
from sa_adapt.tensor_core import softmax


def bank_with(stats_list):
    bank = StyleMemoryBank(capacity=max(len(stats_list), 1))
    for s in stats_list:
        bank.observe(s)
    return bank


def random_bank(rng, channels, k=4, scale=3.0):
    protos = [
        ChannelStats(rng.normal(0, scale, channels), rng.uniform(0.5, 2.0, channels))
        for _ in range(k)
    ]
    return bank_with(protos)


class TestProject:
    def test_own_stats_prototype_is_identity(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(1, 8, 6, 6)) * 2 + 1
        bank = bank_with(compute_stats(f))
        (res,) = project(bank, f)
        assert np.abs(res.rectified - f).max() < 1e-9

    def test_result_carries_the_distance_row_of_its_weights(self):
        rng = np.random.default_rng(4)
        bank = random_bank(rng, 5)
        f = rng.normal(size=(2, 5, 4, 4))
        for res, s in zip(project(bank, f), compute_stats(f)):
            np.testing.assert_array_equal(res.distances, bank.distances(s))
            np.testing.assert_array_equal(res.weights, projection_weights(res.distances))

    def test_equidistant_prototypes_average_uniformly(self):
        # prototypes at mean +r/-r around the input mean, equal stds:
        # both distances equal, so weights are 1/K and mu' is the average
        f = np.zeros((1, 2, 4, 4))
        f[0, :, 0, 0] = 2.0  # non-constant content
        (s,) = compute_stats(f)
        protos = [
            ChannelStats(s.mean + 1.0, s.std),
            ChannelStats(s.mean - 1.0, s.std),
        ]
        bank = bank_with(protos)
        (res,) = project(bank, f)
        np.testing.assert_allclose(res.weights, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(
            res.target_mean, (protos[0].mean + protos[1].mean) / 2, atol=1e-12
        )

    def test_output_statistics_match_targets(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            channels = int(rng.integers(2, 10))
            f = rng.normal(size=(1, channels, 8, 8)) * rng.uniform(0.5, 2) + rng.normal()
            bank = random_bank(rng, channels)
            (res,) = project(bank, f)
            out = rectified_stats(res)
            np.testing.assert_allclose(out.mean, res.target_mean, atol=1e-9)
            np.testing.assert_allclose(out.std, res.target_std, atol=1e-4)

    def test_batched_input_gives_per_sample_results(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=(3, 4, 5, 5))
        bank = random_bank(rng, 4)
        results = project(bank, f)
        assert len(results) == 3
        for b, res in enumerate(results):
            (single,) = project(bank, f[b : b + 1])
            np.testing.assert_array_equal(res.rectified, single.rectified)

    def test_weights_sum_to_one_and_positive(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(1, 6, 7, 7))
        bank = random_bank(rng, 6)
        (res,) = project(bank, f)
        assert abs(res.weights.sum() - 1.0) < 1e-12
        assert np.all(res.weights > 0) and np.all(res.weights < 1)
        assert np.all(res.target_std > 0)

    def test_spatial_structure_preserved(self):
        # per-channel Pearson correlation of input and output is 1
        rng = np.random.default_rng(4)
        f = rng.normal(size=(1, 5, 9, 9))
        bank = random_bank(rng, 5)
        (res,) = project(bank, f)
        for c in range(5):
            a = f[0, c].ravel()
            b = res.rectified[0, c].ravel()
            corr = np.corrcoef(a, b)[0, 1]
            assert abs(corr - 1.0) < 1e-9

    def test_idempotent_up_to_epsilon(self):
        # Inputs drawn around the prototype manifold (the operating regime
        # of an adapted bank): one prototype dominates the weights, so a
        # second projection leaves the style in place. Inputs parked
        # exactly between prototypes can re-sharpen instead; see the
        # boundary test below.
        rng = np.random.default_rng(5)
        for _ in range(50):
            bank = random_bank(rng, 64)
            base = bank.prototypes[int(rng.integers(0, 4))]
            mu = base.p_mean + 0.1 * rng.normal(size=64)
            sd = np.abs(base.p_std + 0.1 * rng.normal(size=64)) + 1e-3
            z = rng.normal(size=(1, 64, 6, 6))
            z = (z - z.mean(axis=(2, 3), keepdims=True)) / z.std(axis=(2, 3), keepdims=True)
            f = mu[None, :, None, None] + sd[None, :, None, None] * z
            (first,) = project(bank, f)
            (second,) = project(bank, first.rectified)
            s1 = rectified_stats(first)
            s2 = rectified_stats(second)
            assert np.abs(s1.mean - s2.mean).max() < 1e-3
            assert np.abs(s1.std - s2.std).max() < 1e-3

    def test_exact_tie_is_a_symmetric_fixed_point(self):
        # mirror-image prototypes around the input style: weights stay at
        # one half through any number of projections
        f = np.zeros((1, 3, 4, 4))
        f[0, :, 0, 0] = 1.0
        (s,) = compute_stats(f)
        bank = bank_with(
            [ChannelStats(s.mean + 2.0, s.std), ChannelStats(s.mean - 2.0, s.std)]
        )
        (first,) = project(bank, f)
        (second,) = project(bank, first.rectified)
        np.testing.assert_allclose(first.weights, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(second.weights, [0.5, 0.5], atol=1e-12)
        s1, s2 = rectified_stats(first), rectified_stats(second)
        assert np.abs(s1.mean - s2.mean).max() < 1e-9

    def test_projection_moves_style_toward_bank(self):
        rng = np.random.default_rng(6)
        improved = 0
        trials = 200
        for _ in range(trials):
            f = rng.normal(size=(1, 16, 6, 6)) * rng.uniform(0.3, 3) + rng.normal(0, 5)
            bank = random_bank(rng, 16)
            (s,) = compute_stats(f)
            pre = min(style_distance(s, p) for p in bank.prototypes)
            (res,) = project(bank, f)
            post = min(
                style_distance(rectified_stats(res), p) for p in bank.prototypes
            )
            if post < pre:
                improved += 1
        assert improved >= 0.99 * trials

    def test_normalizing_with_own_stats_centers_features(self):
        rng = np.random.default_rng(7)
        f = rng.normal(size=(2, 6, 10, 10)) * 4 - 2
        for b, s in enumerate(compute_stats(f)):
            normalized = (f[b] - s.mean[:, None, None]) / s.std[:, None, None]
            re_measured = compute_stats(normalized[None])[0]
            assert np.abs(re_measured.mean).max() < 1e-9
            assert np.abs(re_measured.std - 1.0).max() < 1e-4

    def test_empty_bank_is_state_error(self):
        with pytest.raises(StateError):
            project(StyleMemoryBank(), np.zeros((1, 2, 3, 3)))

    def test_channel_mismatch_is_rejected(self):
        bank = random_bank(np.random.default_rng(8), 4)
        with pytest.raises(ValueError, match="channel mismatch: bank has C=4"):
            project(bank, np.zeros((2, 3, 5, 5)))

    def test_distances_come_from_one_stack_of_the_bank(self, monkeypatch):
        rng = np.random.default_rng(9)
        bank = random_bank(rng, 5)
        f = rng.normal(size=(3, 5, 4, 4))
        expected = [bank.distances(s) for s in compute_stats(f)]
        stacks = []
        real_vectors = StyleMemoryBank.vectors
        monkeypatch.setattr(
            StyleMemoryBank, "vectors", lambda self: stacks.append(1) or real_vectors(self)
        )
        results = project(bank, f)
        assert len(stacks) == 1
        for res, d in zip(results, expected):
            assert res.distances.tobytes() == d.tobytes()


class TestWeighting:
    def test_monotone_in_distance(self):
        d = np.array([1.0, 2.0, 3.0, 4.0])
        w = projection_weights(d)
        assert np.all(np.diff(w) < 0)  # nearer prototypes weigh more
        d2 = d.copy()
        d2[2] = 0.5  # decreasing one distance must increase its weight
        w2 = projection_weights(d2)
        assert w2[2] > w[2]

    def test_literal_mode_weights_farthest(self):
        d = np.array([1.0, 2.0, 3.0])
        w = projection_weights(d, weighting="raw-distance")
        assert np.all(np.diff(w) > 0)

    def test_temperature_flattens(self):
        d = np.array([1.0, 5.0])
        sharp = projection_weights(d, temperature=0.5)
        flat = projection_weights(d, temperature=10.0)
        assert sharp[0] > flat[0] > 0.5

    @pytest.mark.filterwarnings("error")
    def test_temperature_that_overflows_the_logits_names_the_field(self):
        named = r"softmax_temperature \(--softmax-temperature\) 1e-320"
        with pytest.raises(ValueError, match=named):
            projection_weights(np.array([0.0, 2.0]), temperature=1e-320)
        with pytest.raises(ValueError, match="softmax input contains non-finite values"):
            projection_weights(np.array([np.nan, 2.0]), temperature=1e-320)
        d = np.array([0.0, 1e-300, 2.0, 3.5])
        for t in (1e-300, 1e-3, 1.0, 1e308):
            assert projection_weights(d, temperature=t).tobytes() == softmax(-(d / t)).tobytes()

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            projection_weights(np.ones(3), weighting="nearest-only")
        with pytest.raises(ValueError):
            projection_weights(np.ones(3), temperature=0.0)


class TestPyramid:
    def test_single_level_reduces_to_project(self):
        rng = np.random.default_rng(8)
        f = rng.normal(size=(1, 4, 5, 5))
        bank = random_bank(rng, 4)
        per_level = project_pyramid([bank], [f])
        (direct,) = project(bank, f)
        assert len(per_level) == 1
        np.testing.assert_array_equal(per_level[0][0].rectified, direct.rectified)

    def test_identity_banks_leave_pyramid_unchanged(self):
        rng = np.random.default_rng(9)
        pyramid = [rng.normal(size=(1, 4, 2 ** (4 - i), 2 ** (4 - i))) for i in range(4)]
        banks = [bank_with(compute_stats(level)) for level in pyramid]
        results = project_pyramid(banks, pyramid)
        for level, (res,) in zip(pyramid, results):
            assert np.abs(res.rectified - level).max() < 1e-9

    def test_levels_projected_independently(self):
        rng = np.random.default_rng(10)
        pyramid = [rng.normal(size=(1, 6, 8, 8)) for _ in range(4)]
        banks = [random_bank(rng, 6) for _ in range(4)]
        results = project_pyramid(banks, pyramid)
        for bank, level, (res,) in zip(banks, pyramid, results):
            (direct,) = project(bank, level)
            np.testing.assert_array_equal(res.rectified, direct.rectified)

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            project_pyramid([random_bank(rng, 2)], [np.zeros((1, 2, 2, 2))] * 2)
