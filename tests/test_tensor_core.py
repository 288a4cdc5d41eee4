import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sa_adapt.tensor_core import check_feature_map, softmax


class TestSoftmax:
    def test_uniform_on_equal_inputs(self):
        np.testing.assert_allclose(softmax([0, 0, 0, 0]), [0.25] * 4, rtol=0, atol=0)

    @pytest.mark.parametrize("x", [-3.0, 0.0, 17.5])
    def test_single_element(self, x):
        assert softmax([x]).tolist() == [1.0]

    def test_hand_evaluated_two_point(self):
        # e^{ln 1} / (1 + 3) and e^{ln 3} / (1 + 3)
        out = softmax([math.log(1.0), math.log(3.0)])
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-15)

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            softmax([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            softmax([0.0, np.inf])

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12),
        st.floats(min_value=-100, max_value=100),
    )
    def test_shift_invariance(self, values, shift):
        base = softmax(values)
        shifted = softmax(np.asarray(values) + shift)
        assert np.abs(base - shifted).max() < 1e-12

    def test_outputs_sum_to_one_and_order_preserving(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=rng.integers(2, 20)) * 10
            w = softmax(v)
            assert abs(w.sum() - 1.0) < 1e-12
            assert np.all(w > 0) and np.all(w < 1)
            order = np.argsort(v)
            assert np.all(np.diff(w[order]) >= 0)

    def test_extreme_inputs_stay_finite(self):
        w = softmax([1e308, -1e308, 0.0])
        assert np.all(np.isfinite(w))
        assert abs(w.sum() - 1.0) < 1e-12


class TestDenseHelpers:
    def test_check_feature_map(self):
        check_feature_map(np.zeros((1, 2, 3, 4)))
        with pytest.raises(ValueError):
            check_feature_map(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError):
            check_feature_map(np.zeros((1, 2, 0, 4)))

    @pytest.mark.parametrize("shape", [(0, 2, 3, 4), (1, 0, 3, 4)], ids=["B=0", "C=0"])
    def test_check_feature_map_needs_a_sample_and_a_channel(self, shape):
        with pytest.raises(ValueError, match=r"B >= 1 and C >= 1"):
            check_feature_map(np.zeros(shape))
