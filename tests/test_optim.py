import numpy as np
import pytest

from canet import ShapeError, Tensor
from canet.optim import Adam
from conftest import finite_difference_gradient


class TestAdam:
    def test_zero_gradient_leaves_parameter_unchanged(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        opt = Adam([p], lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_moves_by_roughly_lr(self):
        lr = 1e-2
        p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
        p.grad = np.array([3.0, -0.5])
        opt = Adam([p], lr=lr)
        opt.step()
        magnitude = np.abs(p.data)
        assert (magnitude >= 0.99 * lr).all() and (magnitude <= lr).all()
        assert np.sign(p.data[0]) == -1 and np.sign(p.data[1]) == 1

    def test_zero_lr_updates_moments_only(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([2.0])
        opt = Adam([p], lr=0.0)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0])
        assert opt.t == 1
        assert opt.m[0][0] != 0.0 and opt.v[0][0] != 0.0

    def test_step_counter_strictly_increases(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([p])
        for expected in (1, 2, 3):
            opt.step()
            assert opt.t == expected

    def test_shape_mismatch_rejected(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        p.grad = np.zeros(2)
        with pytest.raises(ShapeError):
            Adam([p]).step()

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            p.grad = 2.0 * p.data
            opt.step()
        assert np.abs(p.data).max() < 1e-2


class TestFiniteDifferenceGradient:
    def test_quadratic(self):
        x = Tensor(np.array([1.0, 2.0]))
        grad = finite_difference_gradient(lambda t: (t * t).sum(), x)
        np.testing.assert_allclose(grad.data, [2.0, 4.0], atol=1e-6)

    def test_constant_function(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]))
        grad = finite_difference_gradient(lambda t: 7.0, x)
        np.testing.assert_array_equal(grad.data, [0.0, 0.0, 0.0])

    def test_product(self):
        x = Tensor(np.array([3.0, 5.0]))
        grad = finite_difference_gradient(lambda t: float(t.data[0] * t.data[1]), x)
        np.testing.assert_allclose(grad.data, [5.0, 3.0], atol=1e-7)

    def test_input_restored_after_differencing(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        before = x.data.copy()
        finite_difference_gradient(lambda t: (t * t).sum(), x)
        np.testing.assert_array_equal(x.data, before)
