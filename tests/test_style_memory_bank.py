import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sa_adapt.errors import FormatError, StateError
from sa_adapt.style_memory_bank import StyleMemoryBank, StylePrototype, load
from sa_adapt.style_statistics import ChannelStats, style_distance

import oracles


def stats(mean, std):
    return ChannelStats(np.atleast_1d(mean), np.atleast_1d(std))


def random_stats(rng, channels=6):
    return ChannelStats(rng.normal(size=channels), rng.uniform(0.3, 2.5, channels))


@st.composite
def mutated_blobs(draw):
    """A saved bank with a few bytes overwritten, then cut or extended."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bank = StyleMemoryBank(capacity=int(rng.integers(1, 4)), mode="train")
    channels = int(rng.integers(1, 3))
    for _ in range(int(rng.integers(0, 6))):
        bank.observe(random_stats(rng, channels))
    blob = bytearray(bank.save())
    for _ in range(draw(st.integers(0, 3))):
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    cut = draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob))))
    return bytes(blob[:cut]) + draw(st.one_of(st.just(b""), st.binary(max_size=24)))


def full_bank(rng, channels=6, k=4, **kwargs):
    bank = StyleMemoryBank(capacity=k, **kwargs)
    for _ in range(k):
        bank.observe(random_stats(rng, channels))
    return bank


class TestObserve:
    def test_bootstrap_copies_stats(self):
        bank = StyleMemoryBank()
        s = stats([1.0, 2.0], [0.5, 0.7])
        rep = bank.observe(s)
        assert rep.action == "bootstrap"
        assert len(bank) == 1
        np.testing.assert_array_equal(bank.prototypes[0].p_mean, s.mean)
        np.testing.assert_array_equal(bank.prototypes[0].p_std, s.std)
        assert bank.prototypes[0].use_count == 1

    def test_threshold_arithmetic_forces_fusion(self):
        # distances [1, 2, 3, 4] -> tau = 0.7 * 10 / 4 = 1.75, d_min = 1 <= tau
        bank = StyleMemoryBank(capacity=4, alpha=0.7)
        for v in (1.0, np.sqrt(2.0), np.sqrt(3.0), 2.0):
            bank.observe(stats([v], [1.0]))
        rep = bank.observe(stats([0.0], [1.0]))
        assert rep.action == "fuse"
        assert rep.index == 0
        assert rep.tau == pytest.approx(1.75, abs=1e-12)
        assert rep.d_min == pytest.approx(1.0, abs=1e-12)

    def test_ema_fusion_arithmetic(self):
        bank = StyleMemoryBank(capacity=1, momentum=0.9)
        bank.observe(stats([1.0], [1.0]))
        rep = bank.observe(stats([0.0], [1.0]))
        assert rep.action in ("fuse", "replace")
        # force pure fusion in tta mode instead, from a fresh bank
        bank = StyleMemoryBank(capacity=2, momentum=0.9)
        bank.observe(stats([1.0], [1.0]))
        bank.observe(stats([5.0], [1.0]))
        rep = bank.observe(stats([0.0], [1.0]))
        assert rep.action == "fuse" and rep.index == 0
        assert bank.prototypes[0].p_mean[0] == pytest.approx(0.9, abs=1e-15)

    def test_replacement_evicts_least_used_oldest(self):
        bank = StyleMemoryBank(capacity=3, alpha=0.7)
        for v in (0.0, 0.1, 0.2):
            bank.observe(stats([v], [1.0]))
        bank.observe(stats([0.05], [1.0]))  # fuses into a nearby prototype
        counts = [p.use_count for p in bank.prototypes]
        assert sorted(counts) == [1, 1, 2]
        # far-away style: d_min > tau, evict among the use_count == 1 pair
        # the tie breaks toward the older last_update
        tied = [i for i, p in enumerate(bank.prototypes) if p.use_count == 1]
        oldest = min(tied, key=lambda i: bank.prototypes[i].last_update)
        rep = bank.observe(stats([100.0], [1.0]))
        assert rep.action == "replace"
        assert rep.index == oldest
        assert bank.prototypes[oldest].p_mean[0] == 100.0
        assert bank.prototypes[oldest].use_count == 1

    def test_replacement_never_fires_below_threshold(self):
        rng = np.random.default_rng(0)
        bank = full_bank(rng)
        for _ in range(300):
            rep = bank.observe(random_stats(rng))
            if rep.action == "replace":
                assert rep.d_min > rep.tau
            else:
                assert rep.d_min <= rep.tau

    def test_fusion_touches_only_nearest(self):
        rng = np.random.default_rng(1)
        bank = full_bank(rng)
        for _ in range(50):
            before = [(p.p_mean.copy(), p.p_std.copy()) for p in bank.prototypes]
            rep = bank.observe(random_stats(rng))
            for i, (mean, std) in enumerate(before):
                if i != rep.index:
                    np.testing.assert_array_equal(bank.prototypes[i].p_mean, mean)
                    np.testing.assert_array_equal(bank.prototypes[i].p_std, std)

    def test_exactly_one_prototype_credited_per_observe(self):
        rng = np.random.default_rng(2)
        bank = StyleMemoryBank(capacity=4)
        for _ in range(100):
            before = {id(p): (p.use_count, p.last_update) for p in bank.prototypes}
            bank.observe(random_stats(rng))
            changed = 0
            for p in bank.prototypes:
                prev = before.get(id(p))
                if prev is None or prev != (p.use_count, p.last_update):
                    changed += 1
            assert changed == 1

    def test_use_counts_sum_to_observes_without_replacement(self):
        rng = np.random.default_rng(3)
        bank = full_bank(rng, k=4)
        bank.mode = "tta"  # fusion only, so no counter is ever reset
        assert sum(p.use_count for p in bank.prototypes) == 4
        for t in range(60):
            bank.observe(random_stats(rng))
            assert sum(p.use_count for p in bank.prototypes) == 4 + t + 1

    def test_identical_stream_is_fixed_point(self):
        rng = np.random.default_rng(4)
        bank = full_bank(rng)
        target = bank.prototypes[2]
        s = ChannelStats(target.p_mean.copy(), target.p_std.copy())
        mean_before = target.p_mean.copy()
        std_before = target.p_std.copy()
        for _ in range(20):
            rep = bank.observe(s)
            assert rep.action == "fuse" and rep.index == 2
        assert np.abs(bank.prototypes[2].p_mean - mean_before).max() < 1e-12
        assert np.abs(bank.prototypes[2].p_std - std_before).max() < 1e-12

    def test_channel_mismatch_rejected(self):
        bank = StyleMemoryBank()
        bank.observe(stats([0.0], [1.0]))
        with pytest.raises(ValueError):
            bank.observe(stats([0.0, 1.0], [1.0, 1.0]))


class TestTtaMode:
    def test_fusion_only_and_constant_count(self):
        rng = np.random.default_rng(5)
        bank = full_bank(rng)
        bank.mode = "tta"
        ids_before = [id(p) for p in bank.prototypes]
        for _ in range(200):
            rep = bank.observe(random_stats(rng, 6))
            assert rep.action == "fuse"
        assert [id(p) for p in bank.prototypes] == ids_before

    def test_partial_bank_never_grows_in_tta(self):
        bank = StyleMemoryBank(capacity=4)
        bank.observe(stats([0.0], [1.0]))
        bank.mode = "tta"
        rep = bank.observe(stats([10.0], [2.0]))
        assert rep.action == "fuse"
        assert len(bank) == 1

    def test_empty_bank_rejected_in_tta(self):
        bank = StyleMemoryBank(mode="tta")
        with pytest.raises(StateError):
            bank.observe(stats([0.0], [1.0]))

    def test_geometric_contraction_toward_fixed_style(self):
        rng = np.random.default_rng(6)
        bank = full_bank(rng, channels=16)
        bank.mode = "tta"
        target = random_stats(rng, 16)
        lam2 = bank.momentum**2
        prev = None
        for _ in range(100):
            rep = bank.observe(target)
            if prev is not None:
                assert rep.d_min <= lam2 * prev + 1e-12
            prev = rep.d_min
        assert prev < 1e-6  # converged


class TestDistances:
    def test_single_prototype_zero(self):
        bank = StyleMemoryBank()
        s = stats([0.3, -0.2], [1.1, 0.9])
        bank.observe(s)
        np.testing.assert_array_equal(bank.distances(s), [0.0])

    def test_two_prototype_hand_case(self):
        bank = StyleMemoryBank()
        bank.observe(stats([0.0], [1.0]))
        bank.observe(stats([1.0], [1.0]))
        np.testing.assert_allclose(bank.distances(stats([0.0], [1.0])), [0.0, 1.0])

    def test_matches_per_call_oracle(self):
        rng = np.random.default_rng(7)
        bank = full_bank(rng, channels=10)
        for _ in range(20):
            s = random_stats(rng, 10)
            expected = [style_distance(s, p) for p in bank.prototypes]
            np.testing.assert_array_equal(bank.distances(s), expected)

    def test_empty_bank_is_state_error(self):
        with pytest.raises(StateError):
            StyleMemoryBank().distances(stats([0.0], [1.0]))


class TestSelfOrganization:
    def test_recovers_separated_clusters(self):
        # 4 well-separated style clusters streamed in random (unbalanced)
        # order; the settled prototypes must match distinct offline k-means
        # centers to within a fraction of the within-cluster scatter.
        rng = np.random.default_rng(8)
        channels = 64
        centers = [rng.normal(0, 3, channels) for _ in range(4)]
        stds = [rng.uniform(0.5, 2.0, channels) for _ in range(4)]
        samples = []
        for _ in range(200):
            c = int(rng.integers(0, 4))
            mean = centers[c] + 0.05 * rng.normal(size=channels)
            std = stds[c] + 0.05 * rng.normal(size=channels)
            samples.append(ChannelStats(mean, np.abs(std) + 1e-3))
        points = np.stack([np.concatenate([s.mean, s.std]) for s in samples])
        km_centers, km_labels = oracles.lloyd_kmeans(points, 4, restarts=50, seed=0)

        bank = StyleMemoryBank(capacity=4)
        for s in samples:
            bank.observe(s)
        protos = np.stack(
            [np.concatenate([p.p_mean, p.p_std]) for p in bank.prototypes]
        )
        spread = np.array(
            [
                ((points[km_labels == j] - km_centers[j]) ** 2).sum(axis=1).mean()
                for j in range(4)
            ]
        )
        # bijective match: each prototype close to a distinct oracle center
        taken = set()
        for vec in protos:
            dists = ((km_centers - vec) ** 2).sum(axis=1)
            j = int(dists.argmin())
            assert j not in taken
            taken.add(j)
            assert dists[j] <= 0.10 * spread[j]
        assert len(taken) == 4


class TestPersistence:
    def test_fresh_bank_roundtrip(self):
        bank = StyleMemoryBank()
        bank.observe(stats([1.0, 2.0], [0.5, 0.25]))
        blob = bank.save()
        again = load(blob)
        assert again.save() == blob
        assert again.capacity == bank.capacity
        assert again.mode == bank.mode

    def test_roundtrip_after_thousand_observes(self):
        rng = np.random.default_rng(9)
        bank = StyleMemoryBank(capacity=4)
        for _ in range(1000):
            bank.observe(random_stats(rng, 8))
        blob = bank.save()
        again = load(blob)
        assert again.save() == blob
        assert again.step == bank.step
        for p, q in zip(bank.prototypes, again.prototypes):
            assert np.array_equal(p.p_mean, q.p_mean)
            assert np.array_equal(p.p_std, q.p_std)
            assert (p.use_count, p.last_update) == (q.use_count, q.last_update)

    def test_empty_bank_roundtrip(self):
        bank = StyleMemoryBank(capacity=2, alpha=0.5, momentum=0.8)
        again = load(bank.save())
        assert len(again) == 0
        assert again.save() == bank.save()

    def test_bad_magic(self):
        blob = bytearray(StyleMemoryBank().save())
        blob[:6] = b"NOTABK"
        with pytest.raises(FormatError):
            load(bytes(blob))

    def test_bad_version(self):
        blob = bytearray(StyleMemoryBank().save())
        blob[6:10] = (99).to_bytes(4, "little")
        with pytest.raises(FormatError):
            load(bytes(blob))

    def test_truncation(self):
        bank = StyleMemoryBank()
        bank.observe(stats([1.0, 2.0], [0.5, 0.25]))
        blob = bank.save()
        with pytest.raises(FormatError):
            load(blob[:-3])

    def test_corrupted_count_header(self):
        bank = StyleMemoryBank()
        bank.observe(stats([1.0, 2.0], [0.5, 0.25]))
        blob = bytearray(bank.save())
        blob[18:22] = (3).to_bytes(4, "little")  # count field, offset 6+4+4+4
        with pytest.raises(FormatError):
            load(bytes(blob))

    def test_trailing_bytes_rejected(self):
        blob = StyleMemoryBank().save() + b"\x00"
        with pytest.raises(FormatError):
            load(blob)

    def test_non_finite_payload_rejected(self):
        bank = StyleMemoryBank()
        bank.observe(stats([1.0], [0.5]))
        blob = bytearray(bank.save())
        header = 47  # documented header size
        blob[header : header + 8] = np.array([np.nan]).tobytes()
        with pytest.raises(FormatError):
            load(bytes(blob))

    def test_zero_channels_with_prototypes_rejected(self):
        blob = bytearray(StyleMemoryBank().save())
        blob[18:22] = (1).to_bytes(4, "little")  # count 1 with channels 0
        blob += (1).to_bytes(8, "little") + (0).to_bytes(8, "little")
        with pytest.raises(FormatError):
            load(bytes(blob))

    def test_channels_without_prototypes_rejected(self):
        blob = bytearray(StyleMemoryBank().save())
        blob[14:18] = (3).to_bytes(4, "little")  # channels 3 with count 0
        with pytest.raises(FormatError):
            load(bytes(blob))

    def test_zero_use_count_rejected(self):
        bank = StyleMemoryBank()
        bank.observe(stats([1.0, 2.0], [0.5, 0.25]))
        blob = bytearray(bank.save())
        blob[-16:-8] = (0).to_bytes(8, "little")
        with pytest.raises(FormatError):
            load(bytes(blob))

    def test_update_after_step_rejected(self):
        bank = StyleMemoryBank()
        bank.observe(stats([1.0, 2.0], [0.5, 0.25]))
        blob = bytearray(bank.save())
        blob[-8:] = (bank.step + 1).to_bytes(8, "little")
        with pytest.raises(FormatError):
            load(bytes(blob))

    @settings(deadline=None, max_examples=300)
    @given(st.one_of(st.binary(max_size=120), mutated_blobs()))
    def test_any_blob_is_rejected_or_round_trips(self, blob):
        try:
            bank = load(blob)
        except FormatError:
            return
        assert bank.save() == blob


class TestValidation:
    def test_capacity_and_hyperparameters(self):
        with pytest.raises(ValueError):
            StyleMemoryBank(capacity=0)
        with pytest.raises(ValueError):
            StyleMemoryBank(alpha=0.0)
        with pytest.raises(ValueError):
            StyleMemoryBank(momentum=1.0)
        with pytest.raises(ValueError):
            StyleMemoryBank(mode="other")

    def test_prototype_positive_std(self):
        with pytest.raises(ValueError):
            StylePrototype(np.zeros(2), np.array([1.0, 0.0]))
