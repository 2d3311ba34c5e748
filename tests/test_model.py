import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casgd import accuracy, loss, sig

from conftest import dataset_from_scaled, random_dataset
from oracles import finite_difference_gradient, full_gradient


class TestSig:
    def test_zero(self):
        np.testing.assert_array_equal(sig(np.array([0.0])), [0.5])

    def test_saturation_no_overflow(self):
        out = sig(np.array([1000.0, -1000.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0
        assert out[1] == 1.0

    def test_scalar_oracle(self):
        want = 1.0 / (1.0 + math.exp(-2.0))
        assert sig(np.array([-2.0]))[0] == pytest.approx(want, abs=1e-15)
        assert round(want, 6) == 0.880797

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-700.0, max_value=700.0, allow_nan=False))
    def test_symmetry(self, z):
        pair = sig(np.array([z, -z]))
        assert abs(pair[0] + pair[1] - 1.0) <= 1e-15

    def test_monotone_decreasing(self):
        z = np.linspace(-40, 40, 201)
        out = sig(z)
        assert np.all(np.diff(out) <= 0)
        mid = sig(np.linspace(-30, 30, 121))
        assert np.all(np.diff(mid) < 0)


class TestLoss:
    def test_x_zero_is_log2(self, tiny):
        assert abs(loss(tiny, np.zeros(2)) - math.log(2)) <= 1e-15

    def test_x_zero_is_log2_random(self):
        d = random_dataset(np.random.default_rng(1), 37, 13)
        assert abs(loss(d, np.zeros(13)) - math.log(2)) <= 1e-15

    def test_saturation_branch(self):
        d = dataset_from_scaled([[1.0]], [1.0])
        assert loss(d, np.array([36.8])) == math.exp(-36.8)

    def test_scalar_oracle(self, tiny):
        want = (math.log1p(math.exp(-1.0)) + math.log1p(math.exp(2.0))) / 2.0
        assert loss(tiny, np.array([1.0, 1.0])) == pytest.approx(want, abs=1e-15)
        assert want == pytest.approx((0.313262 + 2.126928) / 2, abs=1e-6)

    def test_dimension_mismatch(self, tiny):
        with pytest.raises(ValueError):
            loss(tiny, np.zeros(3))

    def test_convex_along_random_lines(self):
        rng = np.random.default_rng(9)
        d = random_dataset(rng, 40, 12)
        for _ in range(10):
            a = rng.uniform(-5, 5, size=12)
            b = rng.uniform(-5, 5, size=12)
            mid = loss(d, (a + b) / 2.0)
            assert mid <= (loss(d, a) + loss(d, b)) / 2.0 + 1e-12


class TestFullGradient:
    def test_tiny_example(self, tiny):
        np.testing.assert_allclose(full_gradient(tiny, np.zeros(2)), [-0.25, 0.5], rtol=0, atol=1e-15)

    def test_zero_column_gives_zero_entry(self):
        d = dataset_from_scaled([[1.0, 0.0, 2.0], [3.0, 0.0, -1.0]], [1.0, -1.0])
        g = full_gradient(d, np.array([0.3, -0.7, 1.1]))
        assert g[1] == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        d = random_dataset(rng, 10, 5)
        x = rng.uniform(-5, 5, size=5)
        g = full_gradient(d, x)
        fd = finite_difference_gradient(d, x, h=1e-6)
        assert np.linalg.norm(g - fd) / np.linalg.norm(fd) <= 1e-6

    def test_fd_requires_positive_h(self, tiny):
        with pytest.raises(ValueError):
            finite_difference_gradient(tiny, np.zeros(2), h=0.0)


class TestAccuracy:
    def test_x_zero_counts_positive_labels(self):
        d = dataset_from_scaled([[1.0], [2.0], [-3.0]], [1.0, 1.0, -1.0])
        assert accuracy(d, np.zeros(1)) == pytest.approx(2 / 3)

    def test_separable(self):
        # raw rows [[1,0],[0,1]] with labels (+1,-1); x = (1,-1) separates
        d = dataset_from_scaled([[1.0, 0.0], [0.0, -1.0]], [1.0, -1.0])
        assert accuracy(d, np.array([1.0, -1.0])) == 1.0

    def test_tiny_example(self, tiny):
        assert accuracy(tiny, np.array([1.0, -1.0])) == 1.0
