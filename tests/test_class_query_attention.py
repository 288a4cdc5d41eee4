import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sa_adapt.class_query_attention import (
    AttentionParams,
    TokenSequence,
    cross_attend,
    init_class_queries,
    load_tensors,
    run_encoder_side,
    TENSOR_MAGIC,
    TENSOR_VERSION,
    save_tensors,
    sine_positions,
    tokens_from_pyramid,
)
from sa_adapt.errors import FormatError
from sa_adapt.object_gating import GatingMaskSet

import oracles


VALID_HEAD = struct.pack("<6sI", TENSOR_MAGIC, TENSOR_VERSION)


@st.composite
def mutated_tensor_blobs(draw):
    """A saved container with a few bytes overwritten, then cut or extended."""
    shapes = st.lists(st.integers(0, 3), max_size=3)
    tensors = draw(st.dictionaries(st.text(max_size=3), shapes, max_size=3))
    arrays = {n: np.arange(float(np.prod(shape))).reshape(shape) for n, shape in tensors.items()}
    blob = bytearray(save_tensors(arrays))
    for _ in range(draw(st.integers(0, 3))):
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    cut = draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob))))
    return bytes(blob[:cut]) + draw(st.one_of(st.just(b""), st.binary(max_size=16)))


def make_masks(token_masks, image_size=(8, 8)):
    c, n = token_masks.shape
    return GatingMaskSet(
        per_category=np.zeros((c, *image_size), dtype=bool),
        present=token_masks.any(axis=1),
        image_size=image_size,
        token_masks=token_masks,
        level_shapes=None,
    )


def random_setup(rng, c=3, n=20, d=8, attendable=0.5):
    tokens = rng.normal(size=(n, d))
    positions = rng.normal(size=(n, d))
    seq = TokenSequence(tokens=tokens, positions=positions, level_boundaries=[0, n])
    token_masks = rng.random((c, n)) < attendable
    token_masks[0, 0] = True  # at least one attendable row
    params = AttentionParams.init_random(d, rng)
    q = init_class_queries(c, d, rng)
    return q, seq, make_masks(token_masks), params


class TestSinePositions:
    def test_deterministic(self):
        a = sine_positions([(4, 4), (2, 2)], 16)
        b = sine_positions([(4, 4), (2, 2)], 16)
        np.testing.assert_array_equal(a, b)

    def test_no_collisions_on_16x16_grid(self):
        enc = sine_positions([(16, 16)], 64)
        assert enc.shape == (256, 64)
        distinct = {tuple(row) for row in enc.round(12)}
        assert len(distinct) == 256

    def test_rows_depend_only_on_shape_not_context(self):
        # the (2, 2) block is the same whether it appears alone or after
        # another level
        alone = sine_positions([(2, 2)], 32)
        stacked = sine_positions([(4, 4), (2, 2)], 32)
        np.testing.assert_array_equal(stacked[16:], alone)

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            sine_positions([(4, 4)], 63)

    def test_token_count(self):
        enc = sine_positions([(4, 6), (2, 3)], 8)
        assert enc.shape == (24 + 6, 8)


class TestCrossAttend:
    def test_fully_masked_category_passes_through_exactly(self):
        rng = np.random.default_rng(0)
        q, seq, masks, params = random_setup(rng)
        masks.token_masks[1, :] = False
        out = cross_attend(q, seq, masks, params, heads=2)
        np.testing.assert_array_equal(out[1], q[1])

    def test_single_token_single_head_closed_form(self):
        rng = np.random.default_rng(1)
        d = 6
        q, seq, masks, params = random_setup(rng, c=1, n=5, d=d)
        masks.token_masks[:] = False
        masks.token_masks[0, 3] = True
        out = cross_attend(q, seq, masks, params, heads=1)
        # one key forces the attention weight to 1
        expected = q[0] + (seq.tokens[3] @ params.w_v) @ params.w_o
        np.testing.assert_allclose(out[0], expected, atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        for heads in (1, 2, 4):
            q, seq, masks, params = random_setup(rng, c=3, n=20, d=8)
            got = cross_attend(q, seq, masks, params, heads=heads)
            want = oracles.naive_masked_attention(
                q, seq.tokens, seq.positions, masks.token_masks, params, heads
            )
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_masked_content_never_read(self):
        rng = np.random.default_rng(3)
        q, seq, masks, params = random_setup(rng)
        out = cross_attend(q, seq, masks, params, heads=2)
        any_mask = masks.token_masks.any(axis=0)
        zeroed_tokens = seq.tokens.copy()
        zeroed_tokens[~any_mask] = 0.0
        zeroed = TokenSequence(
            tokens=zeroed_tokens,
            positions=seq.positions,
            level_boundaries=seq.level_boundaries,
        )
        out2 = cross_attend(q, zeroed, masks, params, heads=2)
        assert np.abs(out - out2).max() < 1e-12

    def test_category_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        q, seq, masks, params = random_setup(rng, c=4)
        perm = np.array([2, 0, 3, 1])
        out = cross_attend(q, seq, masks, params, heads=2)
        permuted_masks = make_masks(masks.token_masks[perm])
        out_perm = cross_attend(q[perm], seq, permuted_masks, params, heads=2)
        np.testing.assert_allclose(out_perm, out[perm], atol=0)

    def test_attention_weights_sum_to_one(self):
        rng = np.random.default_rng(5)
        q, seq, masks, params = random_setup(rng)
        _, attn = cross_attend(q, seq, masks, params, heads=2, return_weights=True)
        for c in range(q.shape[0]):
            for h in range(2):
                if masks.token_masks[c].any():
                    assert abs(attn[c, h].sum() - 1.0) < 1e-12
                    assert not attn[c, h, ~masks.token_masks[c]].any()

    def test_zero_output_projection_is_identity(self):
        rng = np.random.default_rng(6)
        q, seq, masks, params = random_setup(rng)
        params.w_o = np.zeros_like(params.w_o)
        out = cross_attend(q, seq, masks, params, heads=2)
        np.testing.assert_array_equal(out, q)

    def test_dimension_errors(self):
        rng = np.random.default_rng(7)
        q, seq, masks, params = random_setup(rng)
        with pytest.raises(ValueError):
            cross_attend(q, seq, masks, params, heads=3)  # 3 does not divide 8
        with pytest.raises(ValueError):
            bad = make_masks(masks.token_masks[:, :10])
            cross_attend(q, seq, bad, params, heads=2)


class TestEncoderSide:
    def test_one_block_reduces_to_cross_attend(self):
        rng = np.random.default_rng(8)
        q, seq, masks, params = random_setup(rng)
        np.testing.assert_array_equal(
            run_encoder_side(q, [seq], masks, params, heads=2),
            cross_attend(q, seq, masks, params, heads=2),
        )

    def test_all_absent_through_six_blocks(self):
        rng = np.random.default_rng(9)
        q, seq, masks, params = random_setup(rng)
        masks.token_masks[:] = False
        out = run_encoder_side(q, [seq] * 6, masks, params, heads=2)
        np.testing.assert_array_equal(out, q)

    def test_two_blocks_equal_manual_composition(self):
        rng = np.random.default_rng(10)
        q, seq1, masks, params1 = random_setup(rng)
        _, seq2, _, params2 = random_setup(rng)
        manual = cross_attend(
            cross_attend(q, seq1, masks, params1, heads=2), seq2, masks, params2, heads=2
        )
        got = run_encoder_side(q, [seq1, seq2], masks, [params1, params2], heads=2)
        np.testing.assert_array_equal(got, manual)

    def test_queries_carry_across_blocks(self):
        rng = np.random.default_rng(11)
        q, seq, masks, params = random_setup(rng)
        two = run_encoder_side(q, [seq, seq], masks, params, heads=2)
        one = run_encoder_side(q, [seq], masks, params, heads=2)
        assert np.abs(two - one).max() > 1e-9  # second block does something

    def test_block_count_mismatch(self):
        rng = np.random.default_rng(12)
        q, seq, masks, params = random_setup(rng)
        with pytest.raises(ValueError):
            run_encoder_side(q, [seq, seq], masks, params, heads=2, l_blocks=3)
        with pytest.raises(ValueError):
            run_encoder_side(q, [seq, seq], masks, [params], heads=2)
        with pytest.raises(ValueError):
            run_encoder_side(q, [], masks, params, heads=2)


class TestTokensFromPyramid:
    def test_shapes_and_boundaries(self):
        rng = np.random.default_rng(13)
        pyramid = [rng.normal(size=(1, 8, 4, 4)), rng.normal(size=(1, 8, 2, 2))]
        seq = tokens_from_pyramid(pyramid)
        assert seq.tokens.shape == (20, 8)
        assert seq.level_boundaries == [0, 16, 20]
        # token 0 of level 1 is the feature column at (h=0, w=0)
        np.testing.assert_array_equal(seq.tokens[16], pyramid[1][0, :, 0, 0])

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tokens_from_pyramid([np.zeros((1, 8, 2, 2)), np.zeros((1, 4, 2, 2))])


class TestTensorContainer:
    def test_round_trip(self):
        rng = np.random.default_rng(14)
        params = AttentionParams.init_random(6, rng)
        blob = save_tensors(params.to_named_tensors())
        loaded = AttentionParams.from_named_tensors(load_tensors(blob))
        for name in ("w_q", "w_k", "w_v", "w_o"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(params, name))

    def test_mixed_shapes_round_trip(self):
        tensors = {
            "vec": np.arange(5.0),
            "mat": np.arange(6.0).reshape(2, 3),
            "scalarish": np.array(3.5).reshape(()),
        }
        loaded = load_tensors(save_tensors(tensors))
        assert set(loaded) == set(tensors)
        for name in tensors:
            np.testing.assert_array_equal(loaded[name], tensors[name])

    def test_bad_magic(self):
        blob = b"XXXXXX" + save_tensors({})[6:]
        with pytest.raises(FormatError):
            load_tensors(blob)

    def test_truncation(self):
        blob = save_tensors({"w": np.ones((3, 3))})
        with pytest.raises(FormatError):
            load_tensors(blob[:-5])

    def test_trailing_garbage(self):
        blob = save_tensors({"w": np.ones(2)}) + b"junk"
        with pytest.raises(FormatError):
            load_tensors(blob)

    def test_non_utf8_name_rejected(self):
        blob = bytearray(save_tensors({"ab": np.ones(2)}))
        blob[16:18] = b"\xff\xfe"  # the name follows the 14-byte header and its u16 length
        with pytest.raises(FormatError):
            load_tensors(bytes(blob))

    def test_overflowing_extents_rejected(self):
        blob = struct.pack("<6sIIH", TENSOR_MAGIC, TENSOR_VERSION, 1, 1) + b"w"
        blob += struct.pack("<B4I", 4, *[65536] * 4)  # 2**64 elements
        with pytest.raises(FormatError):
            load_tensors(blob)

    def test_duplicate_names_rejected(self):
        entry = save_tensors({"w": np.ones(2)})[14:]
        blob = struct.pack("<6sII", TENSOR_MAGIC, TENSOR_VERSION, 2) + entry + entry
        with pytest.raises(FormatError):
            load_tensors(blob)

    @settings(deadline=None, max_examples=300)
    @given(st.one_of(st.binary(max_size=80).map(VALID_HEAD.__add__), mutated_tensor_blobs()))
    def test_any_blob_is_rejected_or_round_trips(self, blob):
        try:
            tensors = load_tensors(blob)
        except FormatError:
            return
        assert save_tensors(tensors) == blob

    def test_missing_parameter_name(self):
        blob = save_tensors({"w_q": np.eye(2), "w_k": np.eye(2), "w_v": np.eye(2)})
        with pytest.raises(FormatError):
            AttentionParams.from_named_tensors(load_tensors(blob))
