import copy
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sa_adapt.errors import FormatError, StateError
import sa_adapt.style_memory_bank as bank_mod
from sa_adapt.style_memory_bank import StyleMemoryBank, StylePrototype, UpdateReport, load
from sa_adapt.style_statistics import ChannelStats, style_distance, style_vector

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


@st.composite
def constructible_banks(draw):
    """A StyleMemoryBank built from hostile values; None when a constructor refuses.

    Each hyperparameter and the mode is a hostile value one time in four, so
    a good share of the examples build a bank and reach ``save``.
    """

    def mostly(valid, hostile):
        return draw(st.sampled_from(hostile)) if draw(st.integers(0, 3)) == 3 else draw(valid)

    bad_floats = [0.0, -1.0, 1.0, np.inf, -np.inf, np.nan]
    counters = st.integers(-2, 2**64 - 1)
    capacity = draw(st.integers(1, 3))
    channels = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    try:
        prototypes = [
            StylePrototype(
                rng.normal(size=channels),
                rng.uniform(0.1, 2.0, channels),
                use_count=draw(counters),
                last_update=draw(counters),
            )
            for _ in range(draw(st.integers(0, capacity + 1)))
        ]
        return StyleMemoryBank(
            capacity=capacity,
            alpha=mostly(st.floats(0.01, 4.0), bad_floats),
            momentum=mostly(st.floats(0.01, 0.99), bad_floats),
            mode=mostly(st.sampled_from(["train", "tta"]), ["other"]),
            step=draw(st.one_of(counters, st.just(2**64 - 1))),
            prototypes=prototypes,
        )
    except ValueError:
        return None


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
            before = [(p.use_count, p.last_update) for p in bank.prototypes]
            bank.observe(random_stats(rng))
            after = [(p.use_count, p.last_update) for p in bank.prototypes]
            changed = sum(i >= len(before) or before[i] != a for i, a in enumerate(after))
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



def _assign(name, value):
    def mutate(s):
        setattr(s, name, value)
    return mutate


def _in_place(name, index, value):
    def mutate(s):
        getattr(s, name)[index] = value
    return mutate


HOSTILE_STATS = {  # changes to a valid 2-channel ChannelStats after it was built
    "nan-mean": _in_place("mean", 0, np.nan),
    "inf-mean": _assign("mean", np.array([np.inf, 0.0])),
    "zero-std": _in_place("std", 1, 0.0),
    "negative-std": _assign("std", np.array([-1.0, 1.0])),
    "nan-std": _in_place("std", 0, np.nan),
    "three-stds": _assign("std", np.ones(3)),
    "2-D-std": _assign("std", np.ones((2, 1))),
}


class TestBankGrowth:
    def test_bootstrap_writes_one_row_and_checks_only_the_new_prototype(self, monkeypatch):
        checked, real = [], bank_mod.checked_vector
        monkeypatch.setattr(bank_mod, "checked_vector", lambda s: checked.append(1) or real(s))
        rng = np.random.default_rng(0)
        bank = StyleMemoryBank(capacity=100)
        observed = [random_stats(rng, 3) for _ in range(100)]
        matrices = []
        for s in observed:
            bank.observe(s)
            if not matrices or matrices[-1] is not bank._matrix:
                matrices.append(bank._matrix)
        assert len(checked) == 100
        # grown 1, 3, 7, 15, 31, 63 and 100 rows: geometric, and never past capacity
        assert [len(m) for m in matrices] == [1, 3, 7, 15, 31, 63, 100]
        assert bank.vectors().tobytes() == np.stack([style_vector(s) for s in observed]).tobytes()

    def test_only_live_rows_are_read(self):
        rng = np.random.default_rng(1)
        bank = StyleMemoryBank(capacity=10)
        for _ in range(4):
            bank.observe(random_stats(rng, 2))
        assert len(bank._matrix) == 7  # three free rows
        bank._matrix[4:] = np.nan
        s = random_stats(rng, 2)
        assert bank.vectors().shape == (4, 4)
        assert bank.distances(s).shape == (4,)
        bank.mode = "tta"
        rep = bank.observe(s)
        assert rep.action == "fuse" and rep.index < 4 and np.isfinite(rep.tau)

    def test_a_prototype_tuple_read_before_an_update_keeps_its_entries(self):
        bank = StyleMemoryBank(capacity=3, alpha=0.05)
        bank.observe(stats([0.0, 0.0], [1.0, 1.0]))
        held = bank.prototypes
        bank.observe(stats([5.0, 5.0], [1.0, 1.0]))
        assert len(held) == 1 and len(bank.prototypes) == 2
        p, q = held[0], bank.prototypes[0]
        assert style_vector(p).tobytes() == style_vector(q).tobytes()
        assert (p.use_count, p.last_update) == (q.use_count, q.last_update)

    @pytest.mark.parametrize("mutate", HOSTILE_STATS.values(), ids=HOSTILE_STATS)
    def test_a_hostile_bootstrap_raises_the_constructor_error(self, mutate):
        bank = StyleMemoryBank(capacity=3)
        bank.observe(stats([0.0, 1.0], [1.0, 1.0]))
        s = stats([0.5, 0.5], [1.0, 2.0])
        mutate(s)
        with pytest.raises(ValueError) as expected:
            ChannelStats(s.mean, s.std)
        before = bank.save()
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            bank.observe(s)
        assert len(bank) == 1 and bank.vectors().tobytes() == load(before).vectors().tobytes()
        assert bank.save() == before  # ``step`` included

    @pytest.mark.parametrize("mode", ["train", "tta"])
    @pytest.mark.parametrize("mutate", HOSTILE_STATS.values(), ids=HOSTILE_STATS)
    def test_a_hostile_fuse_raises_the_constructor_error(self, mutate, mode):
        bank = full_bank(np.random.default_rng(5), channels=2, k=2)
        bank.mode = mode
        near = bank.prototypes[1]
        s = stats(near.mean + 0.01, near.std)
        assert copy.deepcopy(bank).observe(s).action == "fuse"
        mutate(s)
        with pytest.raises(ValueError) as expected:
            ChannelStats(s.mean, s.std)
        before = bank.save()
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            bank.observe(s)
        assert bank.save() == before

    @pytest.mark.parametrize("mode", ["train", "tta"])
    def test_a_valid_observation_whose_tau_overflows_is_fused(self, mode):
        # tau is inf, so the check falls back to the constructor's, which passes
        bank = full_bank(np.random.default_rng(5), channels=2, k=2)
        bank.mode = mode
        s = stats([1e300, -1e300], [1.0, 1.0])
        with np.errstate(over="ignore"):
            rep = bank.observe(s)
        assert (rep.action, rep.tau, bank.step) == ("fuse", np.inf, 3)
        assert load(bank.save()).vectors().tobytes() == bank.vectors().tobytes()

    @pytest.mark.parametrize("std", [0.0, -1.0])
    def test_a_hostile_replacement_raises_the_constructor_error(self, std):
        bank = full_bank(np.random.default_rng(5), channels=2, k=2, alpha=0.05)
        far = stats([1e3, -1e3], [1.0, 1.0])
        assert copy.deepcopy(bank).observe(far).action == "replace"
        far.std[0] = std
        held, before, saved = bank.prototypes, bank.vectors(), bank.save()
        with pytest.raises(ValueError, match="channel stds must be strictly positive"):
            bank.observe(far)
        assert [(p.use_count, p.last_update) for p in held] == [
            (p.use_count, p.last_update) for p in bank.prototypes
        ]
        assert bank.vectors().tobytes() == before.tobytes()
        assert bank.save() == saved  # ``step`` included


class TestTtaMode:
    def test_fusion_only_and_constant_count(self):
        rng = np.random.default_rng(5)
        bank = full_bank(rng)
        bank.mode = "tta"
        for _ in range(200):
            rep = bank.observe(random_stats(rng, 6))
            assert rep.action == "fuse"
        assert len(bank) == 4

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

    def test_save_writes_the_documented_layout(self):
        # README "Bank files": header '<6sIIIIBQdd', then per prototype
        # mean (C f64), std (C f64), use_count u64, last_update u64.
        bank = StyleMemoryBank(
            capacity=3, alpha=0.5, momentum=0.8, step=2,
            prototypes=[  # distinct counters, so a swap shows
                StylePrototype(np.array([1.0, -2.0]), np.array([0.5, 0.25]), 5, 1),
                StylePrototype(np.array([3.0, 4.0]), np.array([1.5, 2.0]), 1, 2),
            ],
        )
        expected = struct.pack("<6sIIIIBQdd", b"SABANK", 1, 3, 2, 2, 0, 2, 0.5, 0.8)
        expected += struct.pack("<2d2dQQ", 1.0, -2.0, 0.5, 0.25, 5, 1)
        expected += struct.pack("<2d2dQQ", 3.0, 4.0, 1.5, 2.0, 1, 2)
        assert bank.save() == expected

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

    def test_unknown_mode_code_rejected(self):
        blob = bytearray(StyleMemoryBank().save())
        blob[22] = 2  # mode field, offset 6+4+4+4+4
        with pytest.raises(FormatError, match="unknown mode code 2"):
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

    @settings(deadline=None, max_examples=300)
    @given(constructible_banks())
    def test_every_constructible_bank_round_trips(self, bank):
        if bank is not None:
            blob = bank.save()
            assert load(blob).save() == blob


class TestValidation:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: StyleMemoryBank(alpha=np.inf),
            lambda: StyleMemoryBank(step=-1),
            lambda: StyleMemoryBank(step=2**64),
            lambda: StyleMemoryBank(capacity=2**32),
            lambda: StylePrototype(np.zeros(2), np.ones(2), use_count=0),
            lambda: StylePrototype(np.zeros(2), np.ones(2), use_count=-1),
            lambda: StylePrototype(np.zeros(2), np.ones(2), use_count=2**64),
            lambda: StylePrototype(np.zeros(2), np.ones(2), last_update=-1),
            lambda: StyleMemoryBank(
                step=1, prototypes=[StylePrototype(np.zeros(2), np.ones(2), last_update=2)]
            ),
        ],
        ids=["inf-alpha", "negative-step", "u64-step", "u32-capacity", "zero-use",
             "negative-use", "u64-use", "negative-update", "update-past-step"],
    )
    def test_values_the_file_cannot_hold_are_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: StyleMemoryBank(capacity=2.5),
            lambda: StyleMemoryBank(capacity=4.0),
            lambda: StyleMemoryBank(step=1.5),
            lambda: StylePrototype(np.zeros(2), np.ones(2), use_count=1.5),
            lambda: StylePrototype(np.zeros(2), np.ones(2), last_update=0.5),
        ],
        ids=["float-capacity", "integral-float-capacity", "float-step", "float-use",
             "float-update"],
    )
    def test_counters_must_be_integers(self, build):
        with pytest.raises(ValueError, match="must be an integer"):
            build()

    def test_numpy_integer_counters_are_accepted(self):
        p = StylePrototype(
            np.zeros(2), np.ones(2), use_count=np.uint64(3), last_update=np.int64(2)
        )
        bank = StyleMemoryBank(capacity=np.int32(2), step=np.uint64(5), prototypes=[p])
        loaded = load(bank.save())
        assert (loaded.capacity, loaded.step) == (2, 5)
        assert (loaded.prototypes[0].use_count, loaded.prototypes[0].last_update) == (3, 2)
        assert loaded.save() == bank.save()

    def test_a_fuse_past_the_largest_use_count_changes_nothing(self):
        p = StylePrototype(np.zeros(2), np.ones(2), use_count=2**64 - 1)
        bank = StyleMemoryBank(capacity=1, mode="tta", prototypes=[p])
        before, saved = bank.vectors(), bank.save()
        with pytest.raises(ValueError, match=re.escape("use_count must be an integer in [1, 2**64)")):
            bank.observe(stats([1.0, 1.0], [1.0, 1.0]))
        assert bank.vectors().tobytes() == before.tobytes()
        assert bank.save() == saved  # ``step`` included
        assert load(bank.save()).prototypes[0].use_count == 2**64 - 1

    def test_a_numpy_step_does_not_wrap(self):
        bank = StyleMemoryBank(step=np.uint64(2**64 - 1))
        with pytest.raises(ValueError, match=re.escape("step must be an integer in [0, 2**64)")):
            bank.observe(stats([0.0], [1.0]))
        assert len(bank) == 0 and bank.step == 2**64 - 1

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

    def test_prototype_channel_counts_must_agree(self):
        with pytest.raises(ValueError):
            StylePrototype(np.zeros(2), np.ones(3))

    def test_zero_channel_prototype_rejected(self):
        # load rejects a bank of 0-channel prototypes, so none may be built
        with pytest.raises(ValueError):
            StylePrototype(np.zeros(0), np.zeros(0))

    def test_prototype_copies_caller_arrays(self):
        mean, std = np.zeros(2), np.ones(2)
        p = StylePrototype(mean, std)
        mean[0], std[0] = 5.0, 7.0
        np.testing.assert_array_equal(p.p_mean, [0.0, 0.0])
        np.testing.assert_array_equal(p.p_std, [1.0, 1.0])

    def test_equality_is_identity_and_never_raises(self):
        s = stats([0.0, 1.0], [1.0, 2.0])
        p = StylePrototype(s.mean, s.std)
        bank = full_bank(np.random.default_rng(0), channels=2)
        for a, b in [
            (s, stats(s.mean, s.std)), (p, StylePrototype(p.mean, p.std)), (bank, load(bank.save()))
        ]:
            assert (a == b) is False and (a == a) is True

    def test_bank_rejects_prototypes_of_different_channel_counts(self):
        protos = [
            StylePrototype(np.zeros(2), np.ones(2)),
            StylePrototype(np.zeros(3), np.ones(3)),
        ]
        with pytest.raises(ValueError):
            StyleMemoryBank(prototypes=protos)


class TestAssignment:
    @pytest.mark.parametrize(
        "name, value",
        [("capacity", 5), ("alpha", 0.5), ("momentum", 0.5), ("step", 10), ("prototypes", ()),
         ("capcity", 5), ("mode", "other")],
        ids=["capacity", "alpha", "momentum", "step", "prototypes", "misspelt", "bad-mode"],
    )
    def test_mode_is_the_one_assignable_field(self, name, value):
        bank = full_bank(np.random.default_rng(2))
        before = bank.save()
        error, message = AttributeError, f"'{name}' of a StyleMemoryBank is set when the bank is built"
        if name == "mode":
            error, message = ValueError, "mode must be one of ('train', 'tta'), got 'other'"
        with pytest.raises(error, match=re.escape(message)):
            setattr(bank, name, value)
        assert bank.save() == before and not hasattr(bank, "capcity")
        bank.mode = "tta"
        assert bank.mode == "tta"

    @pytest.mark.parametrize("name", ["step", "mode"])
    def test_no_field_can_be_deleted(self, name):
        bank = full_bank(np.random.default_rng(2))
        before = bank.save()
        message = f"'{name}' of a StyleMemoryBank is set when the bank is built"
        with pytest.raises(AttributeError, match=re.escape(message)):
            delattr(bank, name)
        assert bank.save() == before

    def test_a_capacity_below_the_prototype_count_is_rejected(self):
        bank = full_bank(np.random.default_rng(1), k=3)
        with pytest.raises(ValueError, match="3 prototypes exceed capacity 2"):
            StyleMemoryBank(capacity=2, step=bank.step, prototypes=bank.prototypes)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("use_count", 0),
            ("use_count", 2.5),
            ("use_count", -1),
            ("use_count", 2**64),
            ("last_update", -1),
            ("last_update", 0.5),
            ("mean", [np.nan, 0.0]),
            ("mean", [np.inf, 0.0]),
            ("std", [-1.0, 1.0]),
            ("std", [0.0, 1.0]),
            ("std", [np.nan, 1.0]),
        ],
    )
    def test_a_hostile_prototype_is_rejected_by_the_constructor(self, name, value):
        bank = full_bank(np.random.default_rng(3), channels=2)
        prototypes = list(bank.prototypes)
        setattr(prototypes[1], name, value)  # a plain value: the constructor checks it again
        with pytest.raises(ValueError):
            StyleMemoryBank(step=bank.step, prototypes=prototypes)

    def test_a_prototype_updated_past_the_step_is_rejected(self):
        bank = full_bank(np.random.default_rng(3), channels=2)
        prototypes = list(bank.prototypes)
        prototypes[1].last_update = bank.step + 5  # a prototype does not know its bank
        with pytest.raises(ValueError, match=f"last_update is past step {bank.step}"):
            StyleMemoryBank(step=bank.step, prototypes=prototypes)

    def test_writing_into_a_read_prototype_leaves_the_bank_as_it_was(self):
        bank = full_bank(np.random.default_rng(3), channels=2)
        before = bank.save()
        p = bank.prototypes[0]
        p.mean[1] = np.nan
        p.std[0] = -1.0
        assert bank.save() == before
        assert load(bank.save()).save() == before
        assert isinstance(bank.observe(random_stats(np.random.default_rng(4), 2)), UpdateReport)


@st.composite
def bank_programs(draw):
    """Two banks, their references, and a sequence of public operations, each
    on one of the banks: observe in either mode, a rebuild from prototypes
    (its own, repeated, the other bank's or a fresh one), ``load(save())``, a
    copy or deep copy, and a change to a read prototype, by assignment or in
    place."""
    capacity = draw(st.integers(1, 4))
    channels = draw(st.integers(1, 3))
    alpha = draw(st.sampled_from([0.05, 0.7, 2.0]))  # small alphas replace often
    momentum = draw(st.sampled_from([0.5, 0.9]))
    kinds = st.sampled_from(
        ["train", "train", "tta", "rebuild", "reload", "copy", "deepcopy", "rebind", "write"]
    )
    ops = draw(st.lists(st.tuples(kinds, st.integers(0, 1), st.integers(0, 2**32 - 1)),
                        max_size=30))
    pairs = [
        (StyleMemoryBank(capacity=capacity, alpha=alpha, momentum=momentum),
         oracles.ReferenceBank(capacity, alpha, momentum))
        for _ in range(2)
    ]
    return pairs, channels, ops


def observe_both(bank, ref, s):
    rep = bank.observe(s)
    assert (rep.action, rep.index, rep.d_min, rep.tau) == ref.observe(s.mean, s.std)


class TestReferenceBank:
    @settings(deadline=None, max_examples=200)
    @given(bank_programs())
    def test_every_operation_matches_the_reference(self, case):
        pairs, channels, ops = case
        for kind, target, seed in ops:
            rng = np.random.default_rng(seed)
            bank, ref = pairs[target]
            if kind in ("train", "tta"):
                bank.mode = ref.mode = kind
                s = random_stats(rng, channels)
                if kind == "tta" and not len(bank):
                    with pytest.raises(StateError):
                        bank.observe(s)
                else:
                    observe_both(bank, ref, s)
            elif kind == "rebuild":
                pool = [
                    *bank.prototypes,
                    *pairs[1 - target][0].prototypes,
                    StylePrototype(rng.normal(size=channels), rng.uniform(0.3, 2.5, channels)),
                ]
                picks = rng.integers(0, len(pool), int(rng.integers(0, bank.capacity + 1)))
                chosen = [pool[i] for i in picks]
                step = max([bank.step, *(p.last_update for p in chosen)])
                fields = bank.capacity, bank.alpha, bank.momentum, bank.mode, step
                pairs[target] = (
                    StyleMemoryBank(*fields, prototypes=chosen),
                    oracles.ReferenceBank(
                        *fields, records=[(p.mean, p.std, p.use_count, p.last_update)
                                          for p in chosen]
                    ),
                )
                for p in chosen:  # both banks hold copies, so this reaches neither
                    p.mean[0], p.std[-1] = np.nan, -1.0
            elif kind == "reload":
                pairs[target] = load(bank.save()), ref
            elif kind in ("copy", "deepcopy"):
                original, blob = bank, bank.save()
                bank, ref = pairs[target] = getattr(copy, kind)(bank), copy.deepcopy(ref)
                if len(bank):
                    bank.mode = ref.mode = "tta"
                    observe_both(bank, ref, random_stats(rng, channels))
                assert original.save() == blob  # the copy shares nothing
            elif kind in ("rebind", "write") and len(bank):
                p = bank.prototypes[int(rng.integers(len(bank)))]
                if kind == "rebind":
                    p.mean, p.std = rng.normal(size=channels), -np.ones(channels)
                    p.use_count, p.last_update = 0, bank.step + 1
                else:
                    p.mean[0], p.std[-1] = np.nan, -1.0
            for bank, ref in pairs:
                assert bank.save() == ref.save()
