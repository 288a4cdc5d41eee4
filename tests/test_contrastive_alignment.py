import math

import numpy as np
import pytest

from sa_adapt.contrastive_alignment import (
    ContrastiveBatch,
    contrastive_loss,
    contrastive_loss_stack,
    contrastive_loss_value,
    total_loss,
)
from sa_adapt.errors import StateError

import oracles


def batch_of(q_s, q_a, present=None):
    q_s = np.asarray(q_s, dtype=float)
    if present is None:
        present = np.ones(q_s.shape[0], dtype=bool)
    return ContrastiveBatch(q_s, np.asarray(q_a, dtype=float), np.asarray(present))


def diagonal_batch(s, c=2, d=4):
    """Orthogonal construction: q_i^S . q_i^A = s, cross terms 0."""
    a = math.sqrt(s)
    q = np.zeros((c, d))
    for i in range(c):
        q[i, i] = a
    return batch_of(q, q.copy())


class TestContrastiveLoss:
    def test_identical_rows_give_log_c(self):
        for c in (1, 2, 5, 9):
            v = np.arange(1.0, 4.0)
            q = np.tile(v, (c, 1))
            rep = contrastive_loss(batch_of(q, q.copy()))
            assert abs(rep.l_contra - math.log(c)) < 1e-12

    def test_uniform_logits_give_log_c_regardless_of_value(self):
        rng = np.random.default_rng(0)
        q_a = rng.normal(size=(4, 3))
        q_s = np.tile(rng.normal(size=3), (4, 1))  # every row identical
        rep = contrastive_loss(batch_of(q_s, q_a))
        assert abs(rep.l_contra - math.log(4)) < 1e-12

    @pytest.mark.parametrize("s", [0.0, 1.0, 5.0])
    def test_two_category_closed_form(self, s):
        rep = contrastive_loss(diagonal_batch(s))
        expected = -math.log(math.exp(s) / (math.exp(s) + 1.0))
        assert abs(rep.l_contra - expected) < 1e-12

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(20):
            q_s = rng.normal(size=(7, 16))
            q_a = rng.normal(size=(7, 16))
            present = rng.random(7) < 0.8
            present[0] = True
            batch = batch_of(q_s, q_a, present)
            rep = contrastive_loss(batch)
            fd_s = oracles.central_difference(
                lambda: contrastive_loss(batch).l_contra, batch.q_source
            )
            fd_a = oracles.central_difference(
                lambda: contrastive_loss(batch).l_contra, batch.q_augmented
            )
            worst = max(
                worst,
                oracles.relative_gap(rep.grad_q_source, fd_s),
                oracles.relative_gap(rep.grad_q_augmented, fd_a),
            )
        assert worst < 1e-6

    def test_normalized_variant_gradients(self):
        rng = np.random.default_rng(2)
        q_s = rng.normal(size=(4, 8))
        q_a = rng.normal(size=(4, 8))
        batch = batch_of(q_s, q_a)
        rep = contrastive_loss(batch, normalize=True)
        fd_s = oracles.central_difference(
            lambda: contrastive_loss(batch, normalize=True).l_contra, batch.q_source
        )
        fd_a = oracles.central_difference(
            lambda: contrastive_loss(batch, normalize=True).l_contra, batch.q_augmented
        )
        assert oracles.relative_gap(rep.grad_q_source, fd_s) < 1e-6
        assert oracles.relative_gap(rep.grad_q_augmented, fd_a) < 1e-6

    def test_absent_rows_get_exactly_zero_gradient(self):
        rng = np.random.default_rng(3)
        present = np.array([True, False, True, False, True])
        batch = batch_of(rng.normal(size=(5, 6)), rng.normal(size=(5, 6)), present)
        rep = contrastive_loss(batch)
        assert not rep.grad_q_source[~present].any()
        assert not rep.grad_q_augmented[~present].any()

    def test_absent_rows_do_not_change_loss(self):
        rng = np.random.default_rng(4)
        q_s = rng.normal(size=(5, 6))
        q_a = rng.normal(size=(5, 6))
        present = np.array([True, True, False, True, False])
        full = contrastive_loss(batch_of(q_s, q_a, present))
        packed = contrastive_loss(batch_of(q_s[present], q_a[present]))
        assert abs(full.l_contra - packed.l_contra) < 1e-15

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        q_s = rng.normal(size=(6, 4))
        q_a = rng.normal(size=(6, 4))
        present = np.array([True, True, False, True, True, False])
        perm = rng.permutation(6)
        base = contrastive_loss(batch_of(q_s, q_a, present))
        shuffled = contrastive_loss(batch_of(q_s[perm], q_a[perm], present[perm]))
        assert abs(base.l_contra - shuffled.l_contra) < 1e-12
        np.testing.assert_allclose(
            shuffled.grad_q_source, base.grad_q_source[perm], atol=1e-12
        )

    def test_swapping_domains_can_change_the_loss(self):
        # similarity matrix [[1, 2], [0, 0]] (rows: source, cols:
        # augmented): the softmax normalizes over the source index, so
        # transposing the roles redistributes the denominators differently
        q_s = np.array([[1.0, 0.0], [0.0, 1.0]])
        q_a = np.array([[1.0, 0.0], [2.0, 0.0]])
        forward = contrastive_loss(batch_of(q_s, q_a)).l_contra
        swapped = contrastive_loss(batch_of(q_a, q_s)).l_contra
        assert abs(forward - swapped) > 0.1

    def test_numerical_stability_with_large_logits(self):
        q_s = np.array([[600.0, 0.0], [0.0, 600.0]])
        q_a = np.array([[1.0, 0.0], [0.0, 1.0]])
        rep = contrastive_loss(batch_of(q_s, q_a))
        assert math.isfinite(rep.l_contra)
        assert np.all(np.isfinite(rep.grad_q_source))

    @pytest.mark.parametrize("normalize", [False, True])
    def test_loss_value_is_the_reported_loss(self, normalize):
        rng = np.random.default_rng(6)
        present = np.array([True, True, False, True])
        batch = batch_of(rng.normal(size=(4, 8)), rng.normal(size=(4, 8)), present)
        value = contrastive_loss_value(batch, normalize=normalize)
        assert value == contrastive_loss(batch, normalize=normalize).l_contra

    def test_no_present_categories_is_state_error(self):
        with pytest.raises(StateError):
            contrastive_loss(batch_of(np.ones((2, 2)), np.ones((2, 2)), [False, False]))

    def test_non_finite_inputs_rejected(self):
        with pytest.raises(ValueError):
            batch_of([[np.nan, 0.0]], [[0.0, 0.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ContrastiveBatch(np.ones((2, 3)), np.ones((2, 4)), np.ones(2, dtype=bool))


class TestStackedLoss:
    @pytest.mark.parametrize("normalize", [False, True])
    def test_each_stack_index_is_the_loss_of_that_slice(self, normalize):
        rng = np.random.default_rng(8)
        present = np.array([True, False, True, True, False])
        idx = np.flatnonzero(present)
        q_s = rng.normal(size=(6, 5, 8))
        q_a = rng.normal(size=(6, 5, 8))
        stacked = contrastive_loss_stack(q_s[:, idx], q_a[:, idx], normalize)
        assert stacked.shape == (6,)
        for k in range(6):
            batch = batch_of(q_s[k], q_a[k], present)
            assert stacked[k] == contrastive_loss_value(batch, normalize=normalize)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_a_lone_side_broadcasts_against_a_stack(self, normalize):
        rng = np.random.default_rng(9)
        q_s, q_a = rng.normal(size=(4, 3, 6)), rng.normal(size=(3, 6))
        by_source = contrastive_loss_stack(q_s, q_a, normalize)
        by_augmented = contrastive_loss_stack(q_a, q_s, normalize)
        for k in range(4):
            assert by_source[k] == contrastive_loss_value(batch_of(q_s[k], q_a), normalize)
            assert by_augmented[k] == contrastive_loss_value(batch_of(q_a, q_s[k]), normalize)


class TestTotalLoss:
    def test_zero_contrastive_term(self):
        assert total_loss(1.0, 0.0, 0.1) == 1.0

    def test_weighted_contrastive_only(self):
        assert total_loss(0.0, 2.0, 0.1) == pytest.approx(0.2, abs=1e-15)

    def test_disabled_contrastive(self):
        assert total_loss(1.5, 2.0, 0.0) == 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            total_loss(np.inf, 0.0, 0.1)
        with pytest.raises(ValueError):
            total_loss(0.0, 0.0, -0.1)

    def test_overflowing_sum_is_rejected(self):
        with pytest.raises(ValueError, match=r"l_det \+ lambda_c \* l_contra overflows"):
            total_loss(1e308, 2.0, 1e308)
