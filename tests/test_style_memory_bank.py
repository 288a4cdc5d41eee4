import copy
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sa_adapt.errors import FormatError, StateError
from sa_adapt.style_memory_bank import StyleMemoryBank, StylePrototype, load
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


@st.composite
def checked_assignments(draw):
    """A bank that observed a few styles, and one assignment to a checked
    field, drawn from valid and hostile values alike."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    capacity = draw(st.integers(1, 3))
    bank = StyleMemoryBank(capacity=capacity)
    for _ in range(draw(st.integers(0, capacity + 1))):
        bank.observe(random_stats(rng, 2))
    bad_floats = [0.0, -1.0, 1.0, np.inf, -np.inf, np.nan]
    name = draw(st.sampled_from(["capacity", "alpha", "momentum", "mode", "step"]))
    value = draw(
        {
            "capacity": st.one_of(st.integers(-1, 4), st.sampled_from([2**32 - 1, 2**32])),
            "step": st.one_of(st.integers(-1, 6), st.sampled_from([2**64 - 1, 2**64])),
            "alpha": st.one_of(st.floats(0.01, 4.0), st.sampled_from(bad_floats)),
            "momentum": st.one_of(st.floats(0.01, 0.99), st.sampled_from(bad_floats)),
            "mode": st.sampled_from(["train", "tta", "other"]),
        }[name]
    )
    return bank, name, value


def constructor_accepts(bank, name, value):
    fields = {f: getattr(bank, f) for f in ("capacity", "alpha", "momentum", "mode", "step")}
    fields[name] = value
    try:
        StyleMemoryBank(**fields, prototypes=list(bank.prototypes))
    except ValueError:
        return False
    return True


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

    def test_save_writes_the_documented_layout(self):
        # README "Bank files": header '<6sIIIIBQdd', then per prototype
        # mean (C f64), std (C f64), use_count u64, last_update u64.
        bank = StyleMemoryBank(capacity=3, alpha=0.5, momentum=0.8)
        bank.observe(stats([1.0, -2.0], [0.5, 0.25]))
        bank.observe(stats([3.0, 4.0], [1.5, 2.0]))
        bank.prototypes[0].use_count = 5  # distinct counters, so a swap shows
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

    def test_bank_rejects_prototypes_of_different_channel_counts(self):
        protos = [
            StylePrototype(np.zeros(2), np.ones(2)),
            StylePrototype(np.zeros(3), np.ones(3)),
        ]
        with pytest.raises(ValueError):
            StyleMemoryBank(prototypes=protos)


class TestAssignment:
    def test_inf_alpha_is_rejected_at_the_assignment(self):
        bank = full_bank(np.random.default_rng(0))
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            bank.alpha = float("inf")
        assert bank.alpha == 0.7
        assert load(bank.save()).save() == bank.save()

    def test_capacity_below_the_prototype_count_is_rejected(self):
        bank = full_bank(np.random.default_rng(1), k=3)
        with pytest.raises(ValueError, match="3 prototypes exceed capacity 2"):
            bank.capacity = 2
        assert bank.capacity == 3

    @pytest.mark.parametrize(
        "name, value",
        [("capacity", 2.5), ("step", -1), ("step", 2**64), ("step", 3.0)],
        ids=["float-capacity", "negative-step", "u64-step", "float-step"],
    )
    def test_counters_are_checked_at_the_assignment(self, name, value):
        bank = full_bank(np.random.default_rng(2))
        before = bank.save()
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            setattr(bank, name, value)
        assert bank.save() == before

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
    def test_hostile_prototype_assignment_is_rejected(self, name, value):
        bank = full_bank(np.random.default_rng(3), channels=2)
        before = bank.save()
        with pytest.raises(ValueError):
            setattr(bank.prototypes[1], name, value)
        assert bank.save() == before

    def test_prototype_updated_past_the_bank_step_is_not_saved(self):
        bank = full_bank(np.random.default_rng(3), channels=2)
        bank.prototypes[1].last_update = bank.step + 5  # a prototype does not know its bank
        with pytest.raises(ValueError, match="last_update is past step"):
            bank.save()

    def test_step_below_a_last_update_is_rejected(self):
        bank = full_bank(np.random.default_rng(3), channels=2, k=3)
        before = bank.save()
        with pytest.raises(ValueError, match="last_update is past step 0"):
            bank.step = 0
        assert bank.save() == before

    @settings(deadline=None, max_examples=300)
    @given(checked_assignments())
    def test_assignment_follows_the_constructor(self, case):
        bank, name, value = case
        before = bank.save()
        if constructor_accepts(bank, name, value):
            setattr(bank, name, value)
            blob = bank.save()
            assert load(blob).save() == blob
        else:
            with pytest.raises(ValueError):
                setattr(bank, name, value)
            assert bank.save() == before


@st.composite
def bank_operations(draw):
    """A bank and a sequence of public operations on it: observe in either
    mode, assignment of ``prototypes`` (own, fresh, repeated or another
    bank's), rebinding a prototype's ``mean`` or ``std``, ``load(save())``
    and a (deep) copy."""
    capacity = draw(st.integers(1, 4))
    channels = draw(st.integers(1, 3))
    alpha = draw(st.sampled_from([0.05, 0.7, 2.0]))  # small alphas replace often
    kinds = st.sampled_from(["train", "train", "tta", "assign", "rebind", "reload", "copy"])
    ops = draw(st.lists(st.tuples(kinds, st.integers(0, 2**32 - 1)), max_size=30))
    return StyleMemoryBank(capacity=capacity, alpha=alpha), channels, ops


def assert_matrix_in_step(bank):
    """The bank's matrix is its prototypes' style vectors, and its file is
    that of a bank rebuilt from copies of them."""
    if bank.prototypes:
        fresh = np.stack([style_vector(p) for p in bank.prototypes])
        assert bank.vectors().tobytes() == fresh.tobytes()
    else:
        with pytest.raises(StateError):
            bank.vectors()
    rebuilt = StyleMemoryBank(
        capacity=bank.capacity, alpha=bank.alpha, momentum=bank.momentum, mode=bank.mode,
        step=bank.step,
        prototypes=[
            StylePrototype(p.mean.copy(), p.std.copy(), p.use_count, p.last_update)
            for p in bank.prototypes
        ],
    )
    assert bank.save() == rebuilt.save()


class TestStyleMatrix:
    @settings(deadline=None, max_examples=200)
    @given(bank_operations())
    def test_matrix_stays_the_prototypes_vectors(self, case):
        bank, channels, ops = case
        other = StyleMemoryBank(capacity=4)  # a second bank that shares prototypes
        for kind, seed in ops:
            rng = np.random.default_rng(seed)
            if kind in ("train", "tta") and (bank.prototypes or kind == "train"):
                bank.mode = kind
                before = bank.vectors() if bank.prototypes else None
                held = bank.prototypes
                s = random_stats(rng, channels)
                rep = bank.observe(s)
                if rep.action == "replace":  # the evicted prototype keeps its values
                    evicted = held[rep.index]
                    assert evicted is not bank.prototypes[rep.index]
                    assert style_vector(evicted).tobytes() == before[rep.index].tobytes()
                if rep.action == "fuse":  # the bits of the separate mean and std updates
                    lam = bank.momentum
                    old = np.split(before[rep.index], 2)
                    p = bank.prototypes[rep.index]
                    assert p.mean.tobytes() == (lam * old[0] + (1.0 - lam) * s.mean).tobytes()
                    assert p.std.tobytes() == (lam * old[1] + (1.0 - lam) * s.std).tobytes()
            elif kind == "assign":
                pool = [
                    *bank.prototypes,
                    *other.prototypes,
                    StylePrototype(rng.normal(size=channels), rng.uniform(0.3, 2.5, channels)),
                ]
                picks = rng.integers(0, len(pool), int(rng.integers(0, bank.capacity + 1)))
                chosen = [pool[i] for i in picks]
                own = {id(p) for p in bank.prototypes}
                bank.step = max([bank.step, *(p.last_update for p in chosen)])
                bank.prototypes = chosen
                for i, (p, q) in enumerate(zip(chosen, bank.prototypes)):
                    first = all(c is not p for c in chosen[:i])
                    if first and (id(p) in own or p is pool[-1]):
                        assert q is p  # identity stays
                    assert style_vector(q).tobytes() == style_vector(p).tobytes()
                if bank.prototypes and rng.integers(2):
                    other.step = max(other.step, bank.step)
                    other.prototypes = list(bank.prototypes)[:4]
                    other.observe(random_stats(rng, channels))
                    assert_matrix_in_step(other)
            elif kind == "rebind" and bank.prototypes:
                p = bank.prototypes[int(rng.integers(len(bank.prototypes)))]
                if rng.integers(2):
                    p.mean = rng.normal(size=channels)
                else:
                    p.std = rng.uniform(0.3, 2.5, channels)
            elif kind == "reload":
                bank = load(bank.save())
            elif kind == "copy":
                original, blob = bank, bank.save()
                bank = (copy.deepcopy if rng.integers(2) else copy.copy)(bank)
                if bank.prototypes:
                    bank.mode = "tta"
                    bank.observe(random_stats(rng, channels))
                assert original.save() == blob  # the copy shares nothing
                assert_matrix_in_step(original)
            assert_matrix_in_step(bank)
