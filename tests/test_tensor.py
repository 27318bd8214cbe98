import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from canet import (DegenerateMaskError, ShapeError, Tensor, backward, concat,
                   layer_norm, leaky_relu, matmul, no_grad, relu, row_normalize,
                   softmax, sqrt)
from conftest import assert_grads_match, param64


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(Tensor(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_hand_product(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_allclose(out.data, [[11.0]])

    def test_inner_dim_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        assert "(2, 3)" in str(err.value)

    def test_batched_broadcast(self, rng):
        a = rng.standard_normal((4, 3, 2, 5))
        b = rng.standard_normal((5, 6))
        out = matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, a @ b, rtol=1e-6)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_closed_form(self):
        out = softmax(Tensor([math.log(1.0), math.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-7)

    def test_masked_single_survivor(self):
        out = softmax(Tensor([5.0, 123.0]), mask=np.array([False, True]))
        np.testing.assert_array_equal(out.data, [1.0, 0.0])

    def test_fully_masked_slice_raises(self):
        with pytest.raises(DegenerateMaskError):
            softmax(Tensor([[1.0, 2.0], [3.0, 4.0]]), mask=np.array([[False, False], [True, True]]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_rows_are_probability_vectors(self, values):
        out = softmax(Tensor(np.array(values, dtype=np.float64))).data
        assert abs(out.sum() - 1.0) < 1e-6
        assert (out >= 0).all()

    @given(st.lists(st.tuples(st.floats(-30, 30), st.booleans()),
                    min_size=2, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_masked_positions_are_exactly_zero(self, entries):
        values = np.array([v for v, _ in entries])
        mask = np.array([m for _, m in entries])
        if mask.all():
            mask[0] = False
        out = softmax(Tensor(values), mask=mask).data
        assert (out[mask] == 0.0).all()
        assert abs(out.sum() - 1.0) < 1e-6


    def test_lower_rank_mask_matches_full_mask(self, rng):
        scores = rng.standard_normal((3, 5, 2, 4, 4)).astype(np.float32)
        causal = np.triu(np.ones((4, 4), dtype=bool), k=1)
        sparse = rng.random((5, 1, 1, 4)) < 0.5
        sparse[..., 0] = False
        for mask in (causal, causal[None, None], causal[0], sparse):
            full = np.broadcast_to(mask, scores.shape).copy()
            small = softmax(Tensor(scores), mask=mask).data
            assert small.tobytes() == softmax(Tensor(scores), mask=full).data.tobytes()

    def test_lower_rank_fully_masked_slice_raises(self):
        with pytest.raises(DegenerateMaskError):
            softmax(Tensor(np.zeros((3, 2, 2))), mask=np.array([[False, True], [True, True]]))

    @pytest.mark.parametrize("scores_shape, mask_shape", [
        ((2, 4), (3,)),            # last axis differs
        ((1, 4), (2, 4)),          # mask would grow the scores
        ((4,), (1, 4)),            # more axes than the scores
    ])
    def test_non_broadcastable_mask_rejected(self, scores_shape, mask_shape):
        with pytest.raises(ValueError, match="does not broadcast"):
            softmax(Tensor(np.zeros(scores_shape)), mask=np.zeros(mask_shape, dtype=bool))


class TestNoGrad:
    @staticmethod
    def taped(x):
        return (relu(x) * x).sum()

    def test_records_nothing_and_keeps_values(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        with no_grad():
            out = self.taped(x)
        assert out.creator is None and not out.requires_grad
        assert out.data.tobytes() == self.taped(x).data.tobytes()

    def test_nesting_restores_recording(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            with no_grad():
                assert (x * x).creator is None
            assert (x * x).creator is None
        assert (x * x).creator is not None

    def test_exception_restores_recording(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside")
        out = (x * x).sum()
        backward(out)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_state_is_per_thread(self):
        x = Tensor(np.ones(2), requires_grad=True)
        seen = []
        with no_grad():
            worker = threading.Thread(target=lambda: seen.append((x * x).creator))
            worker.start()
            worker.join()
            assert (x * x).creator is None
        assert seen[0] is not None


class TestLayerNorm:
    def test_constant_slice_hits_eps_path(self):
        out = layer_norm(Tensor([3.0, 3.0, 3.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 0.0])

    def test_two_point_slice(self):
        out = layer_norm(Tensor([1.0, 3.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-3)

    def test_zero_gain_broadcasts_bias(self, rng):
        x = Tensor(rng.standard_normal((4, 6)))
        bias = Tensor(rng.standard_normal(6))
        out = layer_norm(x, Tensor(np.zeros(6)), bias)
        np.testing.assert_allclose(out.data, np.broadcast_to(bias.data, (4, 6)), rtol=1e-6)

    def test_normalized_statistics(self, rng):
        x = Tensor(rng.standard_normal((5, 16)).astype(np.float64) * 3 + 1)
        out = layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16))).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)


class TestActivations:
    def test_leaky_relu_values(self):
        out = leaky_relu(Tensor([2.0, -1.0, 0.0]), slope=0.2)
        np.testing.assert_allclose(out.data, [2.0, -0.2, 0.0])

    def test_leaky_relu_slope_domain(self):
        with pytest.raises(ValueError):
            leaky_relu(Tensor([1.0]), slope=1.5)

    def test_relu_values(self):
        np.testing.assert_array_equal(relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
        np.testing.assert_array_equal(relu(Tensor([-3.0, -0.5])).data, [0.0, 0.0])

    def test_relu_gradient_by_finite_difference(self):
        x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
        assert_grads_match(lambda: relu(x).sum(), [x])
        backward(relu(x).sum())
        # fresh grads: first assert_grads_match cleared and refilled them
        x.grad = None
        backward(relu(x).sum())
        np.testing.assert_array_equal(x.grad, [1.0, 0.0])


class TestBackward:
    def test_bilinear_form(self, rng):
        x = Tensor(rng.standard_normal(5), requires_grad=True)
        y = Tensor(rng.standard_normal(5))
        backward((x * y).sum())
        np.testing.assert_allclose(x.grad, y.data, rtol=1e-6)

    def test_softmax_sum_has_zero_gradient(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        backward(softmax(x, axis=-1).sum())
        np.testing.assert_allclose(x.grad, 0.0, atol=1e-7)

    def test_composite_matches_finite_differences(self, rng):
        x = param64(rng, (3, 4))
        w = param64(rng, (4, 2))

        def loss():
            h = relu(matmul(x, w))
            return (softmax(h, axis=-1) * h).sum()

        assert_grads_match(loss, [x, w])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            backward(Tensor([1.0, 2.0], requires_grad=True))

    def test_gradients_accumulate_until_cleared(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        backward((x * x).sum())
        first = x.grad.copy()
        backward((x * x).sum())
        np.testing.assert_allclose(x.grad, 2 * first, rtol=1e-6)
        x.grad = None
        backward((x * x).sum())
        np.testing.assert_allclose(x.grad, first, rtol=1e-6)


class TestPrimitiveGradients:
    """Every differentiable primitive against the finite-difference oracle."""

    def test_add_sub_mul_broadcast(self, rng):
        a = param64(rng, (3, 4))
        b = param64(rng, (4,))
        assert_grads_match(lambda: ((a + b) * (a - b) * b).sum(), [a, b])

    def test_matmul_batched(self, rng):
        a = param64(rng, (2, 3, 4))
        b = param64(rng, (4, 5))
        assert_grads_match(lambda: matmul(a, b).sum(), [a, b])

    def test_transpose_reshape_slice(self, rng):
        a = param64(rng, (3, 4, 5))

        def loss():
            t = a.transpose()[..., 1:3, :].reshape((3, 8))
            return (t * t).sum()

        assert_grads_match(loss, [a])

    def test_concat(self, rng):
        a = param64(rng, (2, 3))
        b = param64(rng, (2, 2))

        def loss():
            joined = concat([a, b], axis=-1)
            return (joined * joined).sum()

        assert_grads_match(loss, [a, b])

    def test_sum_mean_axes(self, rng):
        a = param64(rng, (3, 4, 2))
        assert_grads_match(lambda: (a.sum(axis=1) * a.sum(axis=1)).mean(), [a])
        assert_grads_match(lambda: (a.mean(axis=(0, 2), keepdims=True) * a).sum(), [a])

    def test_sqrt(self, rng):
        a = Tensor(np.abs(rng.standard_normal((4,))) + 0.5, requires_grad=True)
        assert_grads_match(lambda: sqrt((a * a).mean()), [a])

    def test_softmax_masked_gradient(self, rng):
        a = param64(rng, (3, 5))
        mask = rng.random((3, 5)) < 0.3
        mask[:, 0] = False
        weights = rng.standard_normal((3, 5))
        assert_grads_match(lambda: (softmax(a, axis=-1, mask=mask) * Tensor(weights)).sum(), [a])

    def test_row_normalize_gradient(self, rng):
        a = Tensor(rng.uniform(0.1, 2.0, (4, 4)), requires_grad=True)
        weights = rng.standard_normal((4, 4))
        assert_grads_match(lambda: (row_normalize(a) * Tensor(weights)).sum(), [a])

    def test_layer_norm_gradient(self, rng):
        x = param64(rng, (2, 6))
        gain = Tensor(rng.standard_normal(6), requires_grad=True)
        bias = Tensor(rng.standard_normal(6), requires_grad=True)
        weights = rng.standard_normal((2, 6))
        assert_grads_match(lambda: (layer_norm(x, gain, bias) * Tensor(weights)).sum(),
                           [x, gain, bias])

    def test_leaky_relu_gradient(self, rng):
        a = param64(rng, (8,))
        assert_grads_match(lambda: (leaky_relu(a, 0.2) * leaky_relu(a, 0.2)).sum(), [a])


class TestInvariants:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_no_nan_inf_from_finite_inputs(self, seed):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((3, 4)) * gen.choice([0.0, 0.1, 1.0, 10.0])
        y = gen.standard_normal((3, 4))
        tx, ty = Tensor(x), Tensor(y)
        outputs = [
            (tx + ty).data, (tx - ty).data, (tx * ty).data, (-tx).data,
            matmul(tx, ty.transpose()).data,
            relu(tx).data, leaky_relu(tx).data,
            softmax(tx, axis=-1).data,
            layer_norm(tx, Tensor(np.ones(4)), Tensor(np.zeros(4))).data,
            row_normalize(relu(tx)).data,
            sqrt((tx * tx).sum()).data,
            tx.sum(axis=0).data, tx.mean(axis=1).data,
        ]
        for out in outputs:
            assert np.isfinite(out).all()

    def test_determinism_bit_identical(self):
        def run():
            gen = np.random.default_rng(99)
            x = Tensor(gen.standard_normal((4, 4)), requires_grad=True)
            y = softmax(matmul(x, x.transpose()), axis=-1)
            backward(y.sum())
            return y.data.tobytes(), x.grad.tobytes()

        assert run() == run()

    def test_values_are_float32_by_default(self):
        assert Tensor([[1, 2], [3, 4]]).dtype == np.float32
        assert Tensor(np.zeros((2, 2), dtype=np.float64)).dtype == np.float64
