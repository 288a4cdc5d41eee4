import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sa_adapt.class_query_attention import (
    AttentionParams,
    SineEncoding,
    TokenSequence,
    cross_attend,
    init_class_queries,
    project_keys_values,
    run_encoder_side,
    tokens_from_pyramid,
)
from sa_adapt.object_gating import Annotation, GatingMaskSet, align_to_tokens, build_masks
from sa_adapt.tensor_core import _channel_blocks
import sa_adapt.class_query_attention as cqa_mod

import oracles


def make_masks(token_masks):
    """Masks aligned to one 1 x N level, the layout of ``random_setup``'s tokens."""
    return GatingMaskSet(token_masks, token_masks.any(axis=1), ((1, token_masks.shape[1]),))


def random_setup(rng, c=3, n=20, d=8, attendable=0.5):
    tokens = rng.normal(size=(n, d))
    positions = rng.normal(size=(n, d))
    seq = TokenSequence(tokens=tokens, positions=positions, level_shapes=[(1, n)])
    token_masks = rng.random((c, n)) < attendable
    token_masks[0, 0] = True  # at least one attendable row
    params = AttentionParams.init_random(d, rng)
    q = init_class_queries(c, d, rng)
    return q, seq, make_masks(token_masks), params


def projected(seq, masks, params):
    """The projections of a copy of ``seq``'s tokens, so ``seq`` stays unspent."""
    return project_keys_values(
        TokenSequence(seq.tokens.copy(), seq.positions, seq.level_shapes), masks, params
    )


class TestSinePositions:
    def test_deterministic(self):
        a = np.asarray(SineEncoding([(4, 4), (2, 2)], 16))
        b = np.asarray(SineEncoding([(4, 4), (2, 2)], 16))
        np.testing.assert_array_equal(a, b)

    def test_no_collisions_on_16x16_grid(self):
        enc = np.asarray(SineEncoding([(16, 16)], 64))
        assert enc.shape == (256, 64)
        distinct = {tuple(row) for row in enc.round(12)}
        assert len(distinct) == 256

    def test_rows_depend_only_on_shape_not_context(self):
        # the (2, 2) block is the same whether it appears alone or after
        # another level
        alone = np.asarray(SineEncoding([(2, 2)], 32))
        stacked = np.asarray(SineEncoding([(4, 4), (2, 2)], 32))
        np.testing.assert_array_equal(stacked[16:], alone)

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            np.asarray(SineEncoding([(4, 4)], 63))

    @pytest.mark.parametrize(
        "shapes, message",
        [([], "level_shapes must be non-empty"),
         ([(2, 2), (0, 3)], r"invalid level shape \(0, 3\)")],
        ids=["no-level", "zero-side"],
    )
    def test_missing_or_empty_level_rejected(self, shapes, message):
        with pytest.raises(ValueError, match=message):
            np.asarray(SineEncoding(shapes, 4))

    def test_token_count(self):
        enc = np.asarray(SineEncoding([(4, 6), (2, 3)], 8))
        assert enc.shape == (24 + 6, 8)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=4),
        st.integers(1, 24).map(lambda half: 2 * half),
    )
    def test_equals_the_concatenated_blocks(self, shapes, d):
        expected = oracles.concatenated_sine_positions(shapes, d)
        assert np.asarray(SineEncoding(shapes, d)).tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=4),
        st.integers(1, 128).map(lambda half: 2 * half),
        st.data(),
    )
    @example(shapes=[(1, 1)], d=2, data=None)
    @example(shapes=[(5, 3), (1, 1), (2, 7)], d=256, data=None)
    def test_encoding_rows_equal_the_concatenated_blocks(self, shapes, d, data):
        # any index array: empty, repeated or unsorted; the examples take every row
        expected = oracles.concatenated_sine_positions(shapes, d)
        n = len(expected)
        index = np.arange(n) if data is None else np.array(
            data.draw(st.lists(st.integers(0, n - 1), max_size=3 * n)), dtype=np.intp
        )
        assert SineEncoding(shapes, d)[index].tobytes() == expected[index].tobytes()


@st.composite
def attention_cases(draw):
    """Queries, tokens and masks whose rows attend no token, every token, or
    a random share of them; heads of 1-4 dimensions."""
    c, n = draw(st.integers(1, 5)), draw(st.integers(1, 40))
    heads, d_head = draw(st.sampled_from([1, 2, 4])), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    token_masks = rng.random((c, n)) < draw(st.floats(0.05, 0.95))
    for row, mode in enumerate(draw(st.lists(st.sampled_from(["none", "all", "random"]),
                                             min_size=c, max_size=c))):
        if mode != "random":
            token_masks[row] = mode == "all"
    q, seq, _, params = random_setup(rng, c=c, n=n, d=heads * d_head)
    return q, seq, token_masks, params, heads


class TestCrossAttend:
    def test_fully_masked_category_passes_through_exactly(self):
        rng = np.random.default_rng(0)
        q, seq, masks, params = random_setup(rng)
        masks.token_masks[1, :] = False
        out = cross_attend(q, projected(seq, masks, params), masks, params, heads=2)
        np.testing.assert_array_equal(out[1], q[1])

    def test_single_token_single_head_closed_form(self):
        rng = np.random.default_rng(1)
        d = 6
        q, seq, masks, params = random_setup(rng, c=1, n=5, d=d)
        masks.token_masks[:] = False
        masks.token_masks[0, 3] = True
        out = cross_attend(q, projected(seq, masks, params), masks, params, heads=1)
        # one key forces the attention weight to 1
        expected = q[0] + (seq.tokens[3] @ params.w_v) @ params.w_o
        np.testing.assert_allclose(out[0], expected, atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        for heads in (1, 2, 4):
            q, seq, masks, params = random_setup(rng, c=3, n=20, d=8)
            got = cross_attend(q, projected(seq, masks, params), masks, params, heads=heads)
            want = oracles.naive_masked_attention(
                q, seq.tokens, seq.positions, masks.token_masks, params, heads
            )
            np.testing.assert_allclose(got, want, atol=1e-9)

    @settings(deadline=None, max_examples=150)
    @given(attention_cases())
    def test_equals_the_dense_masked_softmax(self, case):
        q, seq, token_masks, params, heads = case
        masks = make_masks(token_masks)
        out = cross_attend(q, projected(seq, masks, params), masks, params, heads)
        want = oracles.dense_masked_attention(
            q, seq.tokens, seq.positions, token_masks, params, heads
        )
        assert out.tobytes() == want.tobytes()

    def test_weights_equal_the_dense_divide(self):
        # the weighted-sum product's left operand, caught by a values view that
        # sees the product, against the dense softmax that divides every entry
        caught = []

        class Spy(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    caught.append(np.array(inputs[0]))
                return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

        for seed in range(20):
            q, seq, masks, params = random_setup(np.random.default_rng(seed), c=4, d=8)
            kv = projected(seq, masks, params)
            cross_attend(q, kv._replace(values=kv.values.view(Spy)), masks, params, 2)
            _, want, _ = oracles.dense_masked_softmax(
                q, seq.tokens, seq.positions, masks.token_masks, params, 2
            )
            assert caught.pop().tobytes() == want.tobytes()

    def test_masked_content_never_read(self):
        rng = np.random.default_rng(3)
        q, seq, masks, params = random_setup(rng)
        out = cross_attend(q, projected(seq, masks, params), masks, params, heads=2)
        any_mask = masks.token_masks.any(axis=0)
        zeroed_tokens = seq.tokens.copy()
        zeroed_tokens[~any_mask] = 0.0
        zeroed = TokenSequence(
            tokens=zeroed_tokens,
            positions=seq.positions,
            level_shapes=seq.level_shapes,
        )
        out2 = cross_attend(q, projected(zeroed, masks, params), masks, params, heads=2)
        assert np.abs(out - out2).max() < 1e-12

    def test_unattended_tokens_never_read_even_when_huge(self):
        rng = np.random.default_rng(15)
        q, seq, masks, params = random_setup(rng)
        masks.token_masks[:, :5] = False
        unattended = ~masks.token_masks.any(axis=0)

        def with_unattended(value):
            tokens = seq.tokens.copy()
            tokens[unattended] = value
            return TokenSequence(tokens, seq.positions, seq.level_shapes)

        zeroed = cross_attend(
            q, projected(with_unattended(0.0), masks, params), masks, params, heads=2
        )
        huge = cross_attend(
            q, projected(with_unattended(1e300), masks, params), masks, params, heads=2
        )
        np.testing.assert_array_equal(huge, zeroed)

    def test_masked_logits_never_read_even_when_they_overflow(self):
        # token 0 is attended by category 0 alone, and its key's logit with
        # category 1 overflows to inf; category 1's attendable logits are finite
        tokens = np.array([[1e200, 0.0], [1.0, 2.0], [-1.0, 1.0]])
        seq = TokenSequence(tokens, np.zeros_like(tokens), [(1, 3)])
        token_masks = np.array([[True, True, False], [False, True, True]])
        params = AttentionParams(*[np.eye(2)] * 4)
        q = np.array([[1e-200, 1.0], [1e200, 0.0]])
        with np.errstate(over="ignore"):  # the dense product of all logits overflows
            assert np.isinf((q @ params.w_q) @ (tokens @ params.w_k).T).any()
            masks = make_masks(token_masks)
            out = cross_attend(q, projected(seq, masks, params), masks, params, heads=1)
            want = oracles.dense_masked_attention(
                q, seq.tokens, seq.positions, token_masks, params, heads=1
            )
        assert out.tobytes() == want.tobytes()

    def test_overflowing_attendable_logits_raise(self):
        rng = np.random.default_rng(16)
        q, seq, masks, params = random_setup(rng)
        params.w_q = params.w_q * 1e200
        params.w_k = params.w_k * 1e200  # finite keys, logits overflow to inf
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            cross_attend(q, projected(seq, masks, params), masks, params, heads=2)

    def test_projections_missing_an_attended_token_rejected(self):
        rng = np.random.default_rng(17)
        q, seq, masks, params = random_setup(rng)
        fewer = masks.token_masks.copy()
        fewer[:, np.flatnonzero(fewer.any(axis=0))[-1]] = False
        kv = project_keys_values(seq, make_masks(fewer), params)
        with pytest.raises(ValueError, match="projections"):
            cross_attend(q, kv, masks, params, heads=2)

    def test_category_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        q, seq, masks, params = random_setup(rng, c=4)
        perm = np.array([2, 0, 3, 1])
        out = cross_attend(q, projected(seq, masks, params), masks, params, heads=2)
        permuted_masks = make_masks(masks.token_masks[perm])
        out_perm = cross_attend(
            q[perm], projected(seq, permuted_masks, params), permuted_masks, params, heads=2
        )
        np.testing.assert_allclose(out_perm, out[perm], atol=0)

    def test_zero_output_projection_is_identity(self):
        rng = np.random.default_rng(6)
        q, seq, masks, params = random_setup(rng)
        params.w_o = np.zeros_like(params.w_o)
        out = cross_attend(q, projected(seq, masks, params), masks, params, heads=2)
        np.testing.assert_array_equal(out, q)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("1-D", r"queries must be \(C, d\), got \(8,\)"),
            ("query-dim", "query dim 4 does not match parameter dim 8"),
            ("categories", r"token masks \(3, 20\) do not match 2 categories"),
        ],
        ids=["1-D", "query-dim", "categories"],
    )
    def test_queries_and_masks_of_another_layout_rejected(self, case, message):
        q, seq, masks, params = random_setup(np.random.default_rng(8))
        q = {"1-D": q[0], "query-dim": q[:, :4], "categories": q[:2]}.get(case, q)
        with pytest.raises(ValueError, match=message):
            cross_attend(q, projected(seq, masks, params), masks, params, heads=2)

    def test_dimension_errors(self):
        rng = np.random.default_rng(7)
        q, seq, masks, params = random_setup(rng)
        with pytest.raises(ValueError):
            # 3 does not divide 8
            cross_attend(q, projected(seq, masks, params), masks, params, heads=3)
        # a hand-built set whose token masks do not match its level shapes
        bad = replace(masks, token_masks=masks.token_masks[:, :10])
        with pytest.raises(ValueError, match=r"token masks \(3, 10\) do not match 20 tokens"):
            cross_attend(q, projected(seq, bad, params), bad, params, heads=2)


class TestEncoderSide:
    def test_one_block_reduces_to_cross_attend(self):
        rng = np.random.default_rng(8)
        q, seq, masks, params = random_setup(rng)
        np.testing.assert_array_equal(
            run_encoder_side(q, projected(seq, masks, params), masks, params, heads=2, blocks=1),
            cross_attend(q, projected(seq, masks, params), masks, params, heads=2),
        )

    def test_shared_params_equal_chained_cross_attend(self):
        # keys and values projected once are reused by every block
        rng = np.random.default_rng(18)
        q, seq, masks, params = random_setup(rng)
        chained = q
        for _ in range(3):
            chained = cross_attend(chained, projected(seq, masks, params), masks, params, heads=2)
        got = run_encoder_side(q, projected(seq, masks, params), masks, params, heads=2, blocks=3)
        np.testing.assert_array_equal(got, chained)

    def test_all_absent_through_six_blocks(self):
        rng = np.random.default_rng(9)
        q, seq, masks, params = random_setup(rng)
        masks.token_masks[:] = False
        out = run_encoder_side(q, projected(seq, masks, params), masks, params, heads=2, blocks=6)
        np.testing.assert_array_equal(out, q)

    def test_queries_carry_across_blocks(self):
        rng = np.random.default_rng(11)
        q, seq, masks, params = random_setup(rng)
        two = run_encoder_side(q, projected(seq, masks, params), masks, params, heads=2, blocks=2)
        one = run_encoder_side(q, projected(seq, masks, params), masks, params, heads=2, blocks=1)
        assert np.abs(two - one).max() > 1e-9  # second block does something

    def test_zero_blocks_rejected(self):
        rng = np.random.default_rng(12)
        q, seq, masks, params = random_setup(rng)
        with pytest.raises(ValueError, match="need at least one encoder block, got 0"):
            run_encoder_side(q, projected(seq, masks, params), masks, params, heads=2, blocks=0)


class TestProjectionOwnership:
    """A projection spends its sequence, and attention takes keys, values and
    layout only from projections made for the same masks object."""

    def test_a_spent_sequence_is_not_projected_again(self):
        q, seq, masks, params = random_setup(np.random.default_rng(20))
        project_keys_values(seq, masks, params)
        assert seq.tokens is None
        with pytest.raises(ValueError, match="^seq was spent by an earlier projection$") as raised:
            project_keys_values(seq, masks, params)
        assert "\n" not in str(raised.value)

    def test_a_spent_sequence_is_not_projected_into_the_other_sides_arrays(self):
        q, seq, masks, params = random_setup(np.random.default_rng(22))
        kv = projected(seq, masks, params)
        keys, values = kv.keys.tobytes(), kv.values.tobytes()
        project_keys_values(seq, masks, params)
        with pytest.raises(ValueError, match="^seq was spent by an earlier projection$"):
            project_keys_values(seq, masks, params, out=kv)
        assert kv.keys.tobytes() == keys
        assert kv.values.tobytes() == values

    def test_a_rejected_projection_leaves_the_sequence_unspent(self):
        q, seq, masks, params = random_setup(np.random.default_rng(23))
        tokens = seq.tokens
        before = tokens.tobytes()
        kv = projected(seq, masks, params)
        with pytest.raises(ValueError, match="out was projected for other masks"):
            project_keys_values(seq, make_masks(masks.token_masks.copy()), params, out=kv)
        assert seq.tokens is tokens
        assert tokens.tobytes() == before
        again = project_keys_values(seq, masks, params)
        assert again.keys.tobytes() == kv.keys.tobytes()
        assert again.values.tobytes() == kv.values.tobytes()

    def test_a_projection_moves_the_attended_rows_to_the_front_of_the_callers_array(self):
        q, seq, masks, params = random_setup(np.random.default_rng(24))
        tokens = seq.tokens
        original = tokens.copy()
        kv = project_keys_values(seq, masks, params)
        m = len(kv.index)
        # the first M rows held the attended tokens and then got their positions added
        np.testing.assert_array_equal(
            tokens[:m], original[kv.index] + seq.positions[kv.index]
        )
        np.testing.assert_array_equal(tokens[m:], original[m:])

    @pytest.mark.parametrize("attend", ["cross_attend", "run_encoder_side"])
    def test_projections_for_equal_but_distinct_masks_rejected_before_any_work(
        self, monkeypatch, attend
    ):
        q, seq, masks, params = random_setup(np.random.default_rng(21))
        equal = make_masks(masks.token_masks.copy())
        kv = project_keys_values(seq, equal, params)
        fn, blocks = getattr(cqa_mod, attend), {"run_encoder_side": (1,)}.get(attend, ())

        def no_work(*args, **kwargs):
            raise AssertionError("work ran")

        # projection, layout and the finite check of the attention logits
        for name in ("project_keys_values", "_layout", "_token_masks", "_channel_blocks",
                     "require_finite"):
            monkeypatch.setattr(cqa_mod, name, no_work)
        # 1-D queries would be rejected too, but only after this check
        with pytest.raises(ValueError, match="^kv holds projections for other masks$") as raised:
            fn(q[0], kv, masks, params, 2, *blocks)
        assert "\n" not in str(raised.value)


class TestKeyValueProducts:
    """Keys and values are each one product over all M attended rows. A row
    can get other bits in a product of another row count: with numpy 2.4.6 and
    OpenBLAS 0.3.31 on an AVX-512 CPU, 512-row blocks changed them at d = 17-20,
    25-28, 33-36, 41-44 and every d from 193 to 255 that is not a multiple of 8."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 256),
        st.one_of(
            st.integers(1, 2048),
            st.builds(lambda k, r: 512 * k + r, st.integers(1, 3), st.integers(1, 7)),
        ),
        st.integers(0, 40),
    )
    def test_keys_and_values_have_the_bits_of_whole_products(self, seed, d, m, unattended):
        rng = np.random.default_rng(seed)
        n = m + unattended
        token_masks = np.zeros((2, n), dtype=bool)
        attended = rng.choice(n, size=m, replace=False)
        token_masks[rng.integers(0, 2, size=m), attended] = True
        masks = make_masks(token_masks)
        params = AttentionParams.init_random(d, rng)
        pair = [TokenSequence(rng.normal(size=(n, d)), rng.normal(size=(n, d)), [(1, n)])
                for _ in range(2)]
        kv = projected(pair[0], masks, params)
        np.testing.assert_array_equal(kv.index, np.sort(attended))
        for seq in pair:  # the second side is projected into the first side's arrays
            keys, values = oracles.whole_key_value_products(
                seq.tokens, seq.positions, kv.index, params
            )
            kv = project_keys_values(seq, masks, params, out=None if seq is pair[0] else kv)
            assert kv.keys.tobytes() == keys.tobytes()
            assert kv.values.tobytes() == values.tobytes()

    def test_keys_and_values_have_the_bits_of_whole_products_at_one_blas_thread(self):
        node = (f"tests/{Path(__file__).name}::TestKeyValueProducts::"
                "test_keys_and_values_have_the_bits_of_whole_products")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", node],
            cwd=Path(__file__).resolve().parent.parent, capture_output=True, text=True,
            timeout=300,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert result.returncode == 0, result.stdout + result.stderr

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(st.integers(2, 256), st.integers(17, 20), st.integers(193, 255)),
        st.integers(0, 2),
        st.integers(1, 64),
        st.one_of(st.just(0), st.integers(0, 64), st.integers(0, 2**16)),
    )
    @example(seed=1, d=193, n_blocks=2, extra=7, missing=0)  # the identity over three blocks
    @example(seed=2, d=20, n_blocks=1, extra=9, missing=5)  # M = N - 5 crosses a block boundary
    @example(seed=3, d=2, n_blocks=0, extra=1, missing=0)  # M = N = 1
    def test_consumed_tokens_give_the_bits_of_the_gathered_ones(
        self, seed, d, n_blocks, extra, missing
    ):
        # N spans n_blocks whole row blocks of the move and ``extra`` rows; M = N - missing % N
        rng = np.random.default_rng(seed)
        n = n_blocks * _channel_blocks(1 << 16, d)[0].stop + extra  # a block holds < 2**16 rows
        m = n - missing % n
        token_masks = np.zeros((2, n), dtype=bool)
        token_masks[rng.integers(0, 2, size=m), rng.choice(n, size=m, replace=False)] = True
        masks = make_masks(token_masks)
        params = AttentionParams.init_random(d, rng)
        positions = rng.normal(size=(n, d))
        index = np.flatnonzero(token_masks.any(axis=0))
        gathered = consumed = None
        for tokens in (rng.normal(size=(n, d)) for _ in range(2)):
            # the second side is projected into the first side's arrays
            seq = TokenSequence(tokens, positions, [(1, n)])
            gathered = oracles.gathered_key_values(
                seq.tokens, seq.positions, index, params, out=gathered
            )
            assert seq.tokens.tobytes() == tokens.tobytes()  # the gather reads only
            spent = TokenSequence(tokens.copy(), positions, [(1, n)])
            consumed = project_keys_values(spent, masks, params, out=consumed)
            assert consumed.keys.tobytes() == gathered.keys.tobytes()
            assert consumed.values.tobytes() == gathered.values.tobytes()

    def test_out_projected_for_other_masks_rejected(self):
        q, seq, masks, params = random_setup(np.random.default_rng(19))
        kv = projected(seq, masks, params)
        with pytest.raises(ValueError, match="out was projected for other masks"):
            project_keys_values(seq, make_masks(masks.token_masks.copy()), params, out=kv)


class TestTokensFromPyramid:
    def test_token_and_level_shapes(self):
        rng = np.random.default_rng(13)
        pyramid = [rng.normal(size=(1, 8, 4, 4)), rng.normal(size=(1, 8, 2, 2))]
        seq = tokens_from_pyramid(pyramid)
        assert seq.tokens.shape == (20, 8)
        assert seq.level_shapes == ((4, 4), (2, 2))
        # token 0 of level 1 is the feature column at (h=0, w=0)
        np.testing.assert_array_equal(seq.tokens[16], pyramid[1][0, :, 0, 0])

    def test_positions_are_the_sine_encodings_of_the_levels(self):
        rng = np.random.default_rng(14)
        seq = tokens_from_pyramid([rng.normal(size=(1, 8, 4, 4)), rng.normal(size=(1, 8, 2, 2))])
        want = np.asarray(SineEncoding([(4, 4), (2, 2)], 8))
        assert np.asarray(seq.positions).tobytes() == want.tobytes()

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tokens_from_pyramid([np.zeros((1, 8, 2, 2)), np.zeros((1, 4, 2, 2))])

    @pytest.mark.parametrize("shape", [(2, 8, 2, 2), (8, 2, 2)], ids=["batch-of-two", "3-D"])
    def test_level_that_is_not_one_sample_rejected(self, shape):
        with pytest.raises(ValueError, match=r"expected \(1, C, H, W\) level"):
            tokens_from_pyramid([np.zeros((1, 8, 2, 2)), np.zeros(shape)])

    def test_tokens_and_positions_of_different_shapes_rejected(self):
        with pytest.raises(ValueError, match=r"must share an \(N, d\) shape"):
            TokenSequence(np.zeros((4, 2)), np.zeros((4, 3)), level_shapes=[(2, 2)])

    @pytest.mark.parametrize(
        "shapes, d, message",
        [([(2, 8)], 4, r"positions encode levels \(\(2, 8\),\), not \(\(4, 4\),\)"),
         ([(2, 2), (2, 6)], 4, "positions encode levels"),
         ([(4, 4)], 6, r"tokens \(16, 4\) and positions \(16, 6\) must share an \(N, d\) shape"),
         ([(4, 5)], 4, r"must share an \(N, d\) shape")],
        ids=["other-level", "other-levels-same-count", "other-dim", "other-count"],
    )
    def test_an_encoding_of_other_levels_or_dim_rejected(self, shapes, d, message):
        with pytest.raises(ValueError, match=message):
            TokenSequence(np.zeros((16, 4)), SineEncoding(shapes, d), level_shapes=[(4, 4)])

    @pytest.mark.parametrize("n", [2, 0], ids=["two-tokens", "no-tokens"])
    def test_empty_level_shapes_rejected(self, n):
        t = np.zeros((n, 4))
        with pytest.raises(ValueError, match=r"must be non-empty and positive, got \(\)"):
            TokenSequence(t, t, level_shapes=[])

    @pytest.mark.parametrize(
        "shapes, message",
        [([(4, 5), (0, 3)], r"non-empty and positive, got \(\(4, 5\), \(0, 3\)\)"),
         ([(-4, -5)], "non-empty and positive"),
         ([(4, 4)], r"level shapes \(\(4, 4\),\) do not hold 20 tokens"),
         ([(4, 4), (2, 3)], "do not hold 20 tokens"),
         ([(5, 4), (1, 1)], "do not hold 20 tokens")],
        ids=["zero-side", "negative-sides", "too-few", "too-many", "one-level-too-many"],
    )
    def test_level_shapes_that_are_not_positive_or_do_not_hold_n_tokens_rejected(
        self, shapes, message
    ):
        t = np.zeros((20, 4))
        with pytest.raises(ValueError, match=message):
            TokenSequence(t, t, level_shapes=shapes)

    @pytest.mark.parametrize(
        "mask_levels, token_levels",
        [(((8, 8), (4, 4)), ((4, 4), (8, 8))), (((4, 16),), ((8, 8),))],
        ids=["level-order", "same-offsets"],
    )
    def test_masks_of_another_level_layout_rejected(self, mask_levels, token_levels):
        # both layouts hold the same number of tokens; one 4x16 and one 8x8
        # level even share their offsets, [0, 64]
        rng = np.random.default_rng(17)
        ann = Annotation(boxes=[(0.0, 0.0, 20.0, 20.0)], categories=[0])
        masks = align_to_tokens(build_masks(ann, (32, 32), 2), mask_levels)
        seq = tokens_from_pyramid([rng.normal(size=(1, 8, h, w)) for h, w in token_levels])
        params = AttentionParams.init_random(8, rng)
        q = init_class_queries(2, 8, rng)
        layouts = re.escape(
            f"masks aligned to levels {mask_levels} do not match token levels {token_levels}"
        )
        with pytest.raises(ValueError, match=layouts):
            cross_attend(q, projected(seq, masks, params), masks, params, heads=2)
        with pytest.raises(ValueError, match=layouts):
            project_keys_values(seq, masks, params)
        matching = tokens_from_pyramid([rng.normal(size=(1, 8, h, w)) for h, w in mask_levels])
        kv = project_keys_values(matching, masks, params)
        assert cross_attend(q, kv, masks, params, heads=2).shape == (2, 8)

    def test_masks_built_with_a_list_of_level_shapes_match_a_sequence_of_those_shapes(self):
        # both records store their shapes as a tuple of tuples, however given
        q, seq, _, params = random_setup(np.random.default_rng(18))
        token_masks = np.ones((3, 20), dtype=bool)
        masks = GatingMaskSet(token_masks, token_masks.any(axis=1), [(1, 20)])
        assert masks.level_shapes == seq.level_shapes == ((1, 20),)
        kv = projected(seq, masks, params)
        assert cross_attend(q, kv, masks, params, heads=2).shape == (3, 8)
        project_keys_values(seq, masks, params)


class TestAttentionParams:
    @pytest.mark.parametrize("w_q", [np.ones((2, 3)), np.array(1.0)], ids=["2x3", "scalar"])
    def test_non_square_parameter_rejected(self, w_q):
        with pytest.raises(ValueError, match="w_q must be square"):
            AttentionParams(w_q, np.eye(2), np.eye(2), np.eye(2))

    @pytest.mark.parametrize("position", [1, 2, 3], ids=["w_k", "w_v", "w_o"])
    def test_every_matrix_must_have_the_shape_of_w_q(self, position):
        mats = [np.eye(2)] * 4
        mats[position] = np.eye(3)
        name = ("w_q", "w_k", "w_v", "w_o")[position]
        with pytest.raises(ValueError, match=f"{name} must be square \\(2, 2\\), got \\(3, 3\\)"):
            AttentionParams(*mats)

    def test_non_finite_parameter_rejected(self):
        with pytest.raises(ValueError, match="w_v contains non-finite values"):
            AttentionParams(np.eye(2), np.eye(2), np.array([[1.0, np.nan], [0.0, 1.0]]), np.eye(2))

    def test_nested_lists_become_float_arrays(self):
        params = AttentionParams([[1, 0], [0, 1]], [[2, 0], [0, 2]], np.eye(2), np.eye(2))
        assert params.dim == 2
        for m in (params.w_q, params.w_k, params.w_v, params.w_o):
            assert isinstance(m, np.ndarray) and m.dtype == np.float64
        np.testing.assert_array_equal(params.w_k, 2.0 * np.eye(2))
