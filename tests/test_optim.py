import numpy as np
import pytest

from canet.optim import Adam
from canet.tensor import ShapeError, Tensor
from conftest import finite_difference_gradient, total


class TestAdam:
    def test_zero_gradient_leaves_parameter_unchanged(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        opt = Adam([p], lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_moves_by_roughly_lr(self):
        lr = 1e-2
        p = Tensor(np.zeros(2, np.float32), requires_grad=True)
        p.grad = np.array([3.0, -0.5], np.float32)
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

    def test_failed_step_changes_nothing(self):
        good = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        bad = Tensor(np.zeros(3), requires_grad=True)
        good.grad, bad.grad = np.array([0.5, 0.25]), np.ones(3)
        opt = Adam([good, bad], lr=0.1)
        opt.step()

        def state():
            return [opt.t] + [a.tobytes() for a in (good.data, bad.data, *opt.m, *opt.v)]

        before = state()
        bad.grad = np.ones(2)
        with pytest.raises(ShapeError):
            opt.step()
        assert state() == before

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            p.grad = 2.0 * p.data
            opt.step()
        assert np.abs(p.data).max() < 1e-2


class LoopAdam:
    """Oracle: Adam as one update per parameter, in its own moment arrays."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr, self.beta1, self.beta2, self.eps = params, lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self):
        self.t += 1
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / (1.0 - self.beta1 ** self.t)
            v_hat = v / (1.0 - self.beta2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class TestFlatAdam:
    SHAPES = [(3, 4), (5,), (2, 3, 2), (1,), (4, 4), (6, 1)]

    @pytest.mark.parametrize("dtype", [np.float32])
    def test_matches_the_per_parameter_loop_bytes(self, rng, dtype):
        values = [rng.standard_normal(shape).astype(dtype) for shape in self.SHAPES]
        flat = [Tensor(v.copy(), requires_grad=True) for v in values]
        loop = [Tensor(v.copy(), requires_grad=True) for v in values]
        opt, oracle = Adam(flat, lr=3e-2), LoopAdam(loop, lr=3e-2)
        for i in (1, 4):        # moments preset through the views
            opt.m[i][...] = oracle.m[i][...] = rng.standard_normal(self.SHAPES[i]).astype(dtype)
            opt.v[i][...] = oracle.v[i][...] = rng.random(self.SHAPES[i]).astype(dtype)
        for step in range(6):
            for j, (a, b) in enumerate(zip(flat, loop)):
                # parameter 2 never has a gradient, parameters 0 and 5 on odd steps only
                if j == 2 or (j in (0, 5) and step % 2 == 0):
                    a.grad = b.grad = None
                else:
                    a.grad = b.grad = (10.0 ** rng.integers(-4, 3)
                                       * rng.standard_normal(a.shape)).astype(dtype)
            opt.step()
            oracle.step()
            assert opt.t == oracle.t == step + 1
            for a, b, ma, mb, va, vb in zip(flat, loop, opt.m, oracle.m, opt.v, oracle.v):
                assert a.data.dtype == dtype and a.data.shape == b.data.shape
                assert a.data.tobytes() == b.data.tobytes()
                assert ma.tobytes() == mb.tobytes() and va.tobytes() == vb.tobytes()
        assert flat[2].data.tobytes() == values[2].tobytes()
        assert not opt.m[2].any() and not opt.v[2].any()


class TestFiniteDifferenceGradient:
    def test_quadratic(self):
        x = Tensor(np.array([1.0, 2.0]))
        grad = finite_difference_gradient(lambda t: total(t * t), x)
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
        finite_difference_gradient(lambda t: total(t * t), x)
        np.testing.assert_array_equal(x.data, before)
