import itertools
import math
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import canet.tensor
from canet.tensor import (Attention, ConsumedGraphError, Mul, ShapeError, Tensor, _mean,
                          _reduce_keepdims, _reduce_keys, _unbroadcast, backward, concat,
                          layer_norm, leaky_relu, matmul, no_grad, relu, row_matmul,
                          row_normalize, softmax, sqrt)
from conftest import (assert_grads_match, future_bias, param64, per_head_attention,
                      qkv_attention, total, traced_peak)


def composed_layer_norm(x, gain, bias, eps=1e-5):
    """Layer norm as primitive ops, its forward bytes' oracle: the inverse
    deviation is numpy's ``(var + eps) ** -0.5``, taken as a constant."""
    keep = x.shape[:-1] + (1,)
    mu = x.mean(axis=-1).reshape(keep)
    centered = x - mu
    var = (centered * centered).mean(axis=-1).reshape(keep)
    inv = Tensor((var.data + eps) ** -0.5)
    return centered * inv * gain + bias


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

    @pytest.mark.parametrize("shape", [(1, 8), (6, 1, 8), (6, 3, 8), (2, 1, 1, 8)])
    def test_row_matmul_takes_the_gemm_bytes_of_a_taller_product(self, rng, shape):
        # each row of a must come out as it does inside a 5-row GEMM
        w = rng.standard_normal((8, 7))
        a = rng.standard_normal(shape)
        taller = np.concatenate([a[..., None, :], rng.standard_normal(shape[:-1] + (4, 8))],
                                axis=-2)
        out = row_matmul(Tensor(a), Tensor(w))
        assert out.shape == shape[:-1] + (7,)
        assert out.data.tobytes() == (taller @ w)[..., 0, :].tobytes()

    @pytest.mark.parametrize("shape", [(1, 4), (3, 1, 4)])
    def test_row_matmul_gradients(self, rng, shape):
        a, w = param64(rng, shape), param64(rng, (4, 3))
        assert_grads_match(lambda: total(row_matmul(a, w) * row_matmul(a, w)), [a, w])


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_closed_form(self):
        out = softmax(Tensor([math.log(1.0), math.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-7)

    def test_masked_single_survivor(self):
        out = softmax(Tensor([5.0, -np.inf]))
        np.testing.assert_array_equal(out.data, [1.0, 0.0])

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_rows_are_probability_vectors(self, values):
        out = softmax(Tensor(np.array(values, dtype=np.float64))).data
        assert abs(out.sum() - 1.0) < 1e-6
        assert (out >= 0).all()

    # a caller excludes positions by adding -inf to them
    @given(st.lists(st.tuples(st.floats(-30, 30), st.booleans()),
                    min_size=2, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_masked_positions_are_exactly_zero(self, entries):
        values = np.array([v for v, _ in entries])
        mask = np.array([m for _, m in entries])
        if mask.all():
            mask[0] = False
        out = softmax(Tensor(np.where(mask, -np.inf, values))).data
        assert (out[mask] == 0.0).all()
        assert abs(out.sum() - 1.0) < 1e-6


class TestLeadingAxisReduce:
    """``_reduce_keepdims``, softmax's reduction over the last axis, against
    numpy's max and a sequential sum.  ``axis`` names the axis of the drawn
    array that is moved last, so all but -1 reduce a strided view."""

    @pytest.mark.parametrize("axis", [0, 1, 2, -1])
    def test_max_equals_numpy(self, rng, axis):
        a = np.moveaxis(rng.standard_normal((3, 4, 11, 6)).astype(np.float32), axis, -1)
        np.testing.assert_array_equal(_reduce_keepdims(np.maximum, a),
                                      np.max(a, axis=-1, keepdims=True))

    @pytest.mark.parametrize("axis", [0, 1, 2, -1])
    def test_sum_equals_sequential_loop(self, rng, axis):
        # at axis -1, 11 positions: enough for numpy's own sum to go pairwise
        a = np.moveaxis(rng.standard_normal((3, 4, 6, 11)).astype(np.float32), axis, -1)
        acc = a[..., 0]
        for i in range(1, a.shape[-1]):
            acc = acc + a[..., i]
        np.testing.assert_array_equal(_reduce_keepdims(np.add, a), acc[..., None])

    def test_sum_equals_numpy_on_short_axes(self, rng):
        a = rng.standard_normal((2, 5, 3, 7)).astype(np.float32)
        for axis in range(a.ndim):
            last = np.moveaxis(a, axis, -1)
            np.testing.assert_array_equal(_reduce_keepdims(np.add, last),
                                          np.sum(last, axis=-1, keepdims=True))


class TestKeyAxisReduce:
    """``_reduce_keys``, attention's reduction over the last (key) axis,
    against numpy's max and a sequential sum."""

    @pytest.mark.parametrize("keys", [1, 2, 6, 11])
    def test_max_equals_numpy(self, rng, keys):
        a = rng.standard_normal((3, 4, 5, keys)).astype(np.float32)
        np.testing.assert_array_equal(_reduce_keys(np.maximum, a),
                                      np.max(a, axis=-1, keepdims=True))

    @pytest.mark.parametrize("keys", [1, 2, 6, 11])
    def test_sum_equals_sequential_loop(self, rng, keys):
        # 11 keys are enough for numpy's own sum to go pairwise
        a = rng.standard_normal((3, 4, 5, keys)).astype(np.float32)
        acc = a[..., 0]
        for j in range(1, keys):
            acc = acc + a[..., j]
        assert _reduce_keys(np.add, a).tobytes() == acc[..., None].tobytes()

    def test_sum_equals_numpy_on_short_axes(self, rng):
        for keys in range(1, 8):
            a = rng.standard_normal((2, 5, 3, keys)).astype(np.float32)
            np.testing.assert_array_equal(_reduce_keys(np.add, a),
                                          np.sum(a, axis=-1, keepdims=True))

    @pytest.mark.parametrize("keys", [1, 2, 6])
    @pytest.mark.parametrize("ufunc", [np.maximum, np.add])
    def test_result_is_a_fresh_array(self, rng, keys, ufunc):
        # attention subtracts and divides by it in place of its operand
        a = rng.standard_normal((2, 3, keys)).astype(np.float32)
        assert not np.shares_memory(_reduce_keys(ufunc, a), a)


class TestNoGrad:
    @staticmethod
    def taped(x):
        return total(relu(x) * x)

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
        np.testing.assert_array_equal(backward(total(x * x))[x], [2.0, 2.0])

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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_bit_identical_to_composition(self, rng, dtype):
        x = Tensor((rng.standard_normal((3, 5, 6, 32)) * 2 + 0.5).astype(dtype))
        gain = Tensor(rng.standard_normal(32).astype(dtype))
        bias = Tensor(rng.standard_normal(32).astype(dtype))
        fused = layer_norm(x, gain, bias).data
        assert fused.dtype == dtype
        assert fused.tobytes() == composed_layer_norm(x, gain, bias).data.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [4, 32])
    def test_input_gradient_of_a_transposed_upstream_is_c_ordered(self, rng, dtype, width):
        # the closed form as one expression, the composed ops' arithmetic: its
        # means reduce g in the upstream's layout, and its last step makes a C array
        x = (rng.standard_normal((3, 5, 6, width)) * 2 + 0.5).astype(dtype)
        gain, bias = (rng.standard_normal(width).astype(dtype) for _ in range(2))
        upstream = np.swapaxes(rng.standard_normal((3, 5, width, 6)).astype(dtype), -1, -2)
        op = canet.tensor.LayerNorm((True,) * 3)
        op.forward(x, gain, bias)
        g = upstream * gain
        want = op.inv * (g - _mean(g, -1, True) - op.normed * _mean(g * op.normed, -1, True))
        got = op.backward(upstream)[0]
        assert got.tobytes() == want.tobytes()
        assert got.strides == want.strides and got.flags.c_contiguous

    def test_records_one_op(self, rng, recorded_creators):
        x, gain, bias = (param64(rng, s) for s in [(2, 3, 4), (4,), (4,)])
        layer_norm(x, gain, bias)
        assert recorded_creators == [True]


def fused_and_oracle(x0, ws0, loss, **kwargs):
    """``[output, gradient of x, gradients of w_q, w_k, w_v and w_out]`` for the
    scalar ``loss(output)``, from ``Attention`` and from its oracle
    :func:`qkv_attention`, each on fresh leaves over the arrays ``x0`` and ``ws0``."""
    results = []
    for attend in (Attention.apply, qkv_attention):
        x, *ws = (Tensor(a, requires_grad=True) for a in (x0, *ws0))
        out = attend(x, *ws, **kwargs)
        grads = backward(loss(out))
        results.append([out.data] + [grads[t] for t in (x, *ws)])
    return results


def attention_params(rng, width, widths, scale=1.0):
    """Distinct float64 leaves ``w_q``, ``w_k``, ``w_v`` and ``w_out`` mapping
    ``width`` to q and k of ``widths[0]`` and v of ``widths[1]``, and back."""
    qk, v = widths
    return [param64(rng, s, scale) for s in ((width, qk), (width, qk), (width, v), (v, width))]


class TestAttention:
    # no batch axes (2-D input), and (batch, sensors) stacks as the model runs it
    @pytest.mark.parametrize("batch", [(), (2, 3, 2)])
    @pytest.mark.parametrize("causal", [False, True])
    def test_gradients_match_finite_differences(self, rng, batch, causal):
        x = param64(rng, (*batch, 4, 3))
        ws = attention_params(rng, 3, (4, 2))
        weights = Tensor(rng.standard_normal((*batch, 4, 3)))
        assert_grads_match(lambda: total(Attention.apply(x, *ws, causal=causal) * weights),
                           [x, *ws])

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("causal", [False, True])
    def test_bit_identical_to_composition(self, rng, d, causal):
        # a strided (batch, sensors, seq, width) view, and weights of distinct widths
        x0 = rng.standard_normal((4, 5, 6, 2, 7)).astype(np.float32)[..., 0, :]
        ws0 = [rng.standard_normal(s).astype(np.float32) for s in ((7, d), (7, d), (7, 3), (3, 7))]
        upstream = Tensor(rng.standard_normal((4, 5, 7, 6)).astype(np.float32))
        # the transpose hands the op a non-contiguous upstream gradient
        fused, composed = fused_and_oracle(x0, ws0, lambda out: total(out.transpose() * upstream),
                                           causal=causal)
        assert fused[0].dtype == np.float32
        for a, b in zip(fused, composed):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("causal", [False, True])
    def test_projections_bit_identical_to_matmuls_and_composition(self, rng, dtype, causal):
        # x feeds the residual and the three projections, so its gradient sums
        # four parts, in the order the composed ops add them
        x0 = rng.standard_normal((3, 5, 6, 8)).astype(dtype)
        ws0 = [rng.standard_normal((8, 8)).astype(dtype) for _ in range(4)]
        upstream = Tensor(rng.standard_normal((3, 5, 6, 8)).astype(dtype))
        fused, composed = fused_and_oracle(x0, ws0, lambda out: total(out * upstream),
                                           causal=causal)
        assert fused[0].dtype == dtype
        for a, b in zip(fused, composed):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("causal", [False, True])
    def test_projection_gradients_match_finite_differences(self, rng, causal):
        x = param64(rng, (2, 3, 4, 6))
        ws = attention_params(rng, 6, (4, 6))
        weights = Tensor(rng.standard_normal((2, 3, 4, 6)))
        assert_grads_match(
            lambda: total(Attention.apply(x, *ws, causal=causal, heads=2) * weights), [x, *ws])

    @pytest.mark.parametrize("x_shape, w_shape, out_shape", [
        ((4, 3), (4, 3), (3, 3)), ((3,), (3, 3), (3, 3)), ((4, 3), (3, 3, 1), (3, 3)),
        ((4, 3), (3, 3), (2, 3)), ((4, 3), (3, 3), (3,)), ((4, 3), (3, 3), (3, 2))],
        ids=["inner-differs", "unbatched-input", "weight-not-2d", "out-inner-differs",
             "out-not-2d", "out-width-differs"])
    def test_projections_that_do_not_fit_rejected(self, x_shape, w_shape, out_shape):
        # out-width-differs: w_out maps v back to a width the residual does not have
        x, w = Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape))
        with pytest.raises(ShapeError, match="do not fit"):
            Attention.apply(x, w, w, w, Tensor(np.zeros(out_shape)))

    @pytest.mark.parametrize("rows", [0, 5])
    def test_rows_outside_the_sequence_rejected(self, rows):
        x, w = Tensor(np.zeros((2, 4, 3))), Tensor(np.zeros((3, 3)))
        with pytest.raises(ShapeError, match="rows"):
            Attention.apply(x, w, w, w, w, rows=rows)

    @pytest.mark.parametrize("heads", [2, 4])
    @pytest.mark.parametrize("causal", [False, True])
    def test_head_split_bit_identical_to_reshape_chain(self, rng, heads, causal):
        x, upstream = (rng.standard_normal((3, 5, 6, 12)).astype(np.float32) for _ in range(2))
        ws = [rng.standard_normal((12, 12)).astype(np.float32) for _ in range(4)]
        operands = [Tensor(a, requires_grad=True) for a in (x, *ws)]
        out = Attention.apply(*operands, causal=causal, heads=heads)
        got = backward(total(out * Tensor(upstream)))
        expected, grads = per_head_attention(x, ws, upstream, causal, heads)
        assert out.data.dtype == np.float32
        assert out.data.tobytes() == expected.tobytes()
        for t, g in zip(operands, grads):
            assert got[t].tobytes() == g.tobytes()

    # 8 heads of width 4 as the paper config runs them, over (batch, sensors) stacks
    @pytest.mark.parametrize("lead", [(), (3,), (2, 5)])
    @pytest.mark.parametrize("seq", [1, 2, 4, 6, 8])
    @pytest.mark.parametrize("causal", [False, True])
    def test_head_split_bit_identical_at_model_shapes(self, rng, lead, seq, causal):
        heads = 8
        x, upstream = (rng.standard_normal((*lead, seq, heads * 4)).astype(np.float32)
                       for _ in range(2))
        ws = [rng.standard_normal((heads * 4, heads * 4)).astype(np.float32) for _ in range(4)]
        operands = [Tensor(a, requires_grad=True) for a in (x, *ws)]
        out = Attention.apply(*operands, causal=causal, heads=heads)
        got = backward(total(out * Tensor(upstream)))
        expected, grads = per_head_attention(x, ws, upstream, causal, heads)
        assert out.data.dtype == np.float32
        assert out.data.tobytes() == expected.tobytes()
        for t, g in zip(operands, grads):
            assert got[t].tobytes() == g.tobytes()

    @pytest.mark.parametrize("heads", [1, 8])
    @pytest.mark.parametrize("layout, drawn", [
        (lambda a: a, (2, 3, 6, 32)),
        (lambda a: a[..., ::2], (2, 3, 6, 64)),
        (lambda a: np.swapaxes(a, -1, -2), (2, 3, 32, 6)),
    ], ids=["contiguous", "strided", "transposed"])
    def test_results_are_fresh_contiguous_arrays(self, rng, heads, layout, drawn):
        x = rng.standard_normal((2, 3, 6, 32)).astype(np.float32)
        weights = [rng.standard_normal(s).astype(np.float32)
                   for s in ((32, 32), (32, 32), (32, 16), (16, 32))]
        operands = (x, *weights)
        upstream = layout(rng.standard_normal(drawn).astype(np.float32))
        assert upstream.shape == x.shape
        op = Attention((True,) * 5)
        out = op.forward(*operands, causal=True, heads=heads)
        grads = op.backward(upstream)
        results = [out, *grads]
        for result, operand in zip(results, (x, *operands)):
            assert result.shape == operand.shape and result.dtype == np.float32
            assert result.flags.c_contiguous
            for other in (*operands, upstream):
                assert not np.shares_memory(result, other)
        for a, b in itertools.combinations(results, 2):
            assert not np.shares_memory(a, b)
        # the upstream gradient's layout does not change a byte
        reference = Attention((True,) * 5)
        reference.forward(*operands, causal=True, heads=heads)
        for got, want in zip(grads, reference.backward(np.ascontiguousarray(upstream))):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("causal", [False, True])
    def test_gradients_in_heads_match_finite_differences(self, rng, causal):
        x = param64(rng, (2, 3, 4, 6))
        ws = attention_params(rng, 6, (6, 4))
        weights = Tensor(rng.standard_normal((2, 3, 4, 6)))
        assert_grads_match(
            lambda: total(Attention.apply(x, *ws, causal=causal, heads=2) * weights), [x, *ws])

    def test_width_not_split_by_heads_rejected(self):
        x, w = Tensor(np.zeros((3, 6))), Tensor(np.zeros((6, 6)))
        with pytest.raises(ShapeError, match="heads"):
            Attention.apply(x, w, w, w, w, heads=4)

    # tracemalloc peak of the reconstruction decoder's last attention of an
    # 8-window paper micro-batch, forward then backward: 3.20 MiB when backward
    # held p and v to its end, 2.90 MiB when each goes at its last read (v's
    # input gradient is still held, since the sum's byte order adds it last)
    PEAK_BOUND_MIB = 3.05

    def test_backward_drops_p_and_v_at_their_last_read(self, rng):
        x = rng.standard_normal((8, 51, 8, 32)).astype(np.float32)
        ws = [rng.standard_normal((32, 32)).astype(np.float32) for _ in range(4)]
        upstream = rng.standard_normal((8, 51, 5, 32)).astype(np.float32)

        def forward_backward():
            op = Attention((True,) * 5)
            op.forward(x, *ws, causal=True, heads=8, rows=5)
            op.backward(upstream)

        peak = traced_peak(forward_backward) / 2 ** 20
        assert peak < self.PEAK_BOUND_MIB, f"peak {peak:.2f} MiB"


class TestOutputProjection:
    """``Attention``'s output projection, row crop and residual against the ops they fold."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("heads", [1, 2, 8])
    def test_bit_identical_to_matmul_slice_and_row_matmul(self, dtype, causal, heads):
        gen = np.random.default_rng(heads + 10 * causal)
        # B·N·rows = 1 is the lone row that row_matmul folds with a zero row
        for lead, seq, rows in [((), 1, None), ((2, 3), 5, None), ((1, 1), 4, 1), ((1,), 3, 1),
                                ((3, 2), 6, 1), ((2, 3), 6, 4), ((4,), 5, 5), ((), 7, 3)]:
            d, width = int(gen.integers(1, 5)), int(gen.integers(2, 9))
            x0 = gen.standard_normal((*lead, seq, width)).astype(dtype)
            ws0 = [gen.standard_normal(s).astype(dtype) for s in
                   [(width, heads * d)] * 2 + [(width, heads * 2), (heads * 2, width)]]
            kept = seq if rows is None else rows
            upstream = Tensor(gen.standard_normal((*lead, kept, width)).astype(dtype))
            results = fused_and_oracle(x0, ws0, lambda out: total(out * upstream),
                                       causal=causal, heads=heads, rows=rows)
            for a, b in zip(*results):
                assert a.dtype == dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), (lead, seq, rows)

    # x reaches the output through the residual, which the crop cuts, and the attention
    @pytest.mark.parametrize("shape, rows", [((2, 3, 5, 4), 2), ((1, 1, 4, 4), 1), ((3, 4), 1),
                                             ((2, 3, 5, 4), None)],
                             ids=["rows", "lone-row", "unbatched-lone-row", "no-crop"])
    def test_cropped_gradients_match_finite_differences(self, rng, shape, rows):
        x = param64(rng, shape)
        ws = attention_params(rng, 4, (4, 4))
        weights = Tensor(rng.standard_normal(shape[:-2] + (rows or shape[-2], 4)))
        assert_grads_match(
            lambda: total(Attention.apply(x, *ws, causal=True, heads=2, rows=rows) * weights),
            [x, *ws])


class TestActivations:
    def test_leaky_relu_values(self):
        out = leaky_relu(Tensor([2.0, -1.0, 0.0]))
        np.testing.assert_allclose(out.data, [2.0, -0.2, 0.0])

    def test_relu_values(self):
        np.testing.assert_array_equal(relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
        np.testing.assert_array_equal(relu(Tensor([-3.0, -0.5])).data, [0.0, 0.0])

    def test_relu_gradient_by_finite_difference(self):
        x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
        assert_grads_match(lambda: total(relu(x)), [x])
        np.testing.assert_array_equal(backward(total(relu(x)))[x], [1.0, 0.0])


class TestBackward:
    def test_bilinear_form(self, rng):
        x = Tensor(rng.standard_normal(5), requires_grad=True)
        y = Tensor(rng.standard_normal(5))
        np.testing.assert_allclose(backward(total(x * y))[x], y.data, rtol=1e-6)

    def test_softmax_sum_has_zero_gradient(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        np.testing.assert_allclose(backward(total(softmax(x)))[x], 0.0, atol=1e-7)

    def test_composite_matches_finite_differences(self, rng):
        x = param64(rng, (3, 4))
        w = param64(rng, (4, 2))

        def loss():
            h = relu(matmul(x, w))
            return total(softmax(h) * h)

        assert_grads_match(loss, [x, w])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            backward(Tensor([1.0, 2.0], requires_grad=True))

    def test_returns_exactly_the_leaves_the_loss_reaches(self, rng):
        x, w, other = (Tensor(rng.standard_normal((2, 2)), requires_grad=True)
                       for _ in range(3))
        constant = Tensor(rng.standard_normal((2, 2)))
        hidden = relu(matmul(x, w)) * constant
        separate = total(other * x)         # another graph over a shared leaf
        grads = backward(total(hidden))
        assert set(grads) == {x, w}         # no intermediate, constant or other leaf
        assert separate.creator.parents is not None     # the other graph is untouched

    def test_sets_no_grad(self, rng):
        x, w = (Tensor(rng.standard_normal(3), requires_grad=True) for _ in range(2))
        held = np.full(3, 7.0)
        w.grad = held
        hidden = x * w
        loss = total(hidden)
        grads = backward(loss)
        np.testing.assert_allclose(grads[w], x.data)
        assert x.grad is None and w.grad is held
        assert hidden.grad is None and loss.grad is None

    def test_loss_that_needs_no_gradient_gives_an_empty_dict(self, rng):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        assert backward(total(Tensor(rng.standard_normal(3)) * 2.0)) == {}
        with no_grad():
            untaped = total(x * x)
        assert backward(untaped) == {} and x.grad is None

    def test_sums_a_shared_tensors_gradients_in_a_fixed_order(self):
        # x feeds four products, added as ((m0 + m2) + m3) + m1; backward passes
        # the adds' gradients on in the order m0, m2, m3, m1, and x's gradient
        # is the float32 left fold of their weights in that order, which no
        # other order gives for these weights (1 + 2^24 rounds to 2^24)
        weights = np.array([1.0, 3.0, 2.0 ** 24, -1.0], dtype=np.float32)
        x = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
        m = [x * Tensor(w[None]) for w in weights]
        grad = backward(total(((m[0] + m[2]) + m[3]) + m[1]))[x]

        def fold(order):
            total = weights[order[0]]
            for i in order[1:]:
                total = total + weights[i]
            return np.array([total], dtype=np.float32).tobytes()

        assert grad.dtype == np.float32 and grad.tobytes() == fold((0, 2, 3, 1))
        others = {fold(order) for order in itertools.permutations(range(4))
                  if order[2:] != (3, 1)}
        assert grad.tobytes() not in others

    def test_in_place_sums_keep_every_byte_and_share_no_memory(self, rng, monkeypatch):
        # x feeds four ops, one of them the Add x + y, which hands one array to
        # both x and y; backward adds x's third and fourth gradients in place,
        # which must never reach the array y's gradient is
        arrivals = []       # (op type, parent, copy of its gradient) in backward's order
        received = {}       # op: copy of the gradient it was handed

        def recorded(method):
            def backward_and_record(op, grad):
                received[op] = grad.copy()
                grads = method(op, grad)
                arrivals.extend((type(op), parent, g.copy())
                                for parent, g in zip(op.parents, grads)
                                if parent is not None and g is not None)
                return grads
            return backward_and_record

        for cls in canet.tensor.Function.__subclasses__():
            monkeypatch.setattr(cls, "backward", recorded(cls.backward))

        def check(loss):
            arrivals.clear()
            grads = backward(loss)
            want = {}
            for _, parent, g in arrivals:
                want[parent] = g if parent not in want else want[parent] + g
            for node, g in want.items():     # each op's and each leaf's gradient
                got = received[node] if node in received else grads[node]
                assert got.dtype == g.dtype
                assert got.tobytes() == g.tobytes()
            for a, b in itertools.combinations(grads.values(), 2):
                assert not np.shares_memory(a, b)

        f32 = lambda *shape: rng.standard_normal(shape).astype(np.float32)
        add_positions = set()
        for order in itertools.permutations(range(4)):
            x, y, w = (Tensor(f32(*s), requires_grad=True) for s in ((3, 4), (3, 4), (4, 2)))
            terms = [x + y, x * Tensor(f32(3, 4)), matmul(x, w), x.transpose()]
            parts = [total(t * Tensor(f32(*t.shape))) for t in terms]
            check(((parts[order[0]] + parts[order[1]]) + parts[order[2]]) + parts[order[3]])
            into_x = [op for op, parent, _ in arrivals if parent is x]
            assert len(into_x) == 4
            add_positions.add(into_x.index(canet.tensor.Add))
        assert 0 in add_positions       # the shared array came first, then was summed
        # s gets a 0-d array from Add and two from Mul: the first sum is a
        # numpy scalar, which has no memory to add the third gradient into
        x = Tensor(f32(3, 4), requires_grad=True)
        s = x.mean()
        check(s * s + s)
        assert [parent is s.creator for _, parent, _ in arrivals].count(True) == 3

    # (op, operand shapes, keyword arguments): every op class
    READ_ONLY = [
        (canet.tensor.Add, [(2, 3, 4), (4,)], {}),
        (canet.tensor.Add, [(2, 3, 4), (3, 1)], {}),      # what a - b records
        (Mul, [(2, 3, 4), (3, 4)], {}),
        (canet.tensor.MatMul, [(2, 3, 4), (4, 5)], {}),
        (canet.tensor.MatMul, [(2, 3, 4), (2, 4, 5)], {}),
        (canet.tensor.Transpose, [(2, 3, 4)], {}),
        (canet.tensor.Reshape, [(2, 3, 4)], dict(shape=(6, 4))),
        (canet.tensor.Slice, [(2, 3, 4)], dict(key=(slice(None), 1))),
        (canet.tensor.Concat, [(2, 3, 4), (2, 1, 4)], dict(axis=-2)),
        (canet.tensor.Mean, [(2, 3, 4)], dict(axis=1)),
        (canet.tensor.Sqrt, [(2, 3, 4)], {}),
        (canet.tensor.Relu, [(2, 3, 4)], {}),
        (canet.tensor.LeakyRelu, [(2, 3, 4)], {}),
        (canet.tensor.Softmax, [(2, 3, 4)], {}),
        (canet.tensor.Softmax, [(5,)], {}),
        (Attention, [(2, 4, 3), (3, 4), (3, 4), (3, 2), (2, 3)], dict(causal=True, heads=2)),
        (Attention, [(4, 3), (3, 8), (3, 8), (3, 4), (4, 3)], dict(heads=4)),
        (canet.tensor.LayerNorm, [(2, 3, 4), (4,), (4,)], {}),
        (canet.tensor.RowNormalize, [(2, 3, 4)], {}),
        (Attention, [(2, 4, 3)] + [(3, 4)] * 3 + [(4, 3)], dict(causal=True, rows=3)),
        (Attention, [(4, 3)] + [(3, 4)] * 3 + [(4, 3)], dict(heads=2, rows=1)),
    ]

    def test_read_only_lists_every_op(self):
        assert {cls for cls, _, _ in self.READ_ONLY} == set(canet.tensor.Function.__subclasses__())

    @pytest.mark.parametrize("cls, shapes, kwargs", READ_ONLY,
                             ids=[f"{c.__name__}-{i}" for i, (c, _, _) in enumerate(READ_ONLY)])
    def test_ops_write_no_input_and_no_gradient(self, rng, cls, shapes, kwargs):
        def read_only(a):
            a.setflags(write=False)
            return a

        # positive operands keep Sqrt's and RowNormalize's results finite
        arrays = [read_only(np.abs(rng.standard_normal(s)) + 0.1) for s in shapes]
        op = cls((True,) * len(arrays))
        out = read_only(op.forward(*arrays, **kwargs))
        grads = op.backward(read_only(rng.standard_normal(out.shape)))
        assert len(grads) == len(arrays)
        for g, a in zip(grads, arrays):
            assert g.shape == a.shape


class TestTape:
    """The graph links ops, keeps only what backward reads, and backward frees it."""

    def test_only_leaves_keep_gradients(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        h = matmul(x, w)
        r = relu(h)
        grads = backward(total(r))
        assert set(grads) == {x, w}
        live = (h.data > 0).astype(h.data.dtype)
        np.testing.assert_allclose(grads[w], x.data.T @ live, rtol=1e-6)
        np.testing.assert_allclose(grads[x], live @ w.data.T, rtol=1e-6)

    def test_output_no_backward_reads_dies_with_the_forward(self, rng):
        x, y = (Tensor(rng.standard_normal((2, 5, 8)), requires_grad=True) for _ in range(2))
        gain, bias = (Tensor(rng.standard_normal(8), requires_grad=True) for _ in range(2))
        summed = x + y
        alive = weakref.ref(summed.data)
        out = layer_norm(summed, gain, bias)
        del summed
        assert alive() is None          # layer norm saves its own arrays, not its input
        grads = backward(total(out))
        assert x in grads and gain in grads

    def test_saved_arrays_die_when_backward_returns(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        hidden = relu(x)
        saved = weakref.ref(hidden.data)
        loss = total(matmul(hidden, w))
        del hidden
        assert saved() is not None      # MatMul keeps it for the weight's gradient
        backward(loss)
        assert saved() is None
        assert loss.creator is not None and loss.item() == loss.data.sum()

    def test_second_backward_names_the_consumed_graph(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        loss = total(x * x)
        backward(loss)
        with pytest.raises(ConsumedGraphError, match="already ran through this graph"):
            backward(loss)

    def test_backward_through_a_consumed_subgraph_raises(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        square = x * x
        backward(total(square))
        with pytest.raises(ConsumedGraphError):
            backward(total(square * 2.0))

    @pytest.mark.parametrize("constant_first", [False, True])
    def test_mul_by_constant_skips_the_constant(self, rng, constant_first):
        x = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32), requires_grad=True)
        c = Tensor(rng.standard_normal((3, 1)).astype(np.float32))
        out = c * x if constant_first else x * c
        op = out.creator
        grad = rng.standard_normal(out.shape).astype(np.float32)
        grads = op.backward(grad)
        gx, gc = grads[::-1] if constant_first else grads
        assert gc is None
        assert (op.b if constant_first else op.a) is None       # x is not saved
        # the formula of the op that saved and differentiated both operands
        assert gx.tobytes() == _unbroadcast(grad * c.data, x.shape).tobytes()

    def test_constant_operands_get_no_gradient_work(self, rng):
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        c = Tensor(rng.standard_normal((2, 3)))
        out = Mul.apply(x, c)
        assert out.creator.needs == (True, False)
        assert out.creator.parents == (x, None)
        with no_grad():
            assert Mul.apply(x, x).creator is None

    # (name, operand shapes, op): every op with more than one operand
    MULTI = [
        ("add", [(2, 3, 4), (4,)], lambda a, b: a + b),
        ("sub", [(2, 3, 4), (3, 1)], lambda a, b: a - b),
        ("mul", [(2, 3, 4), (3, 4)], lambda a, b: a * b),
        ("matmul-weight", [(2, 3, 4), (4, 5)], matmul),
        ("matmul-batched", [(2, 3, 4), (2, 4, 5)], matmul),
        ("attention", [(2, 4, 3), (3, 4), (3, 4), (3, 2), (2, 3)],
         lambda *operands: Attention.apply(*operands, causal=True, heads=2)),
        ("attention-rows", [(2, 4, 3)] + [(3, 4)] * 3 + [(4, 3)],
         lambda *operands: Attention.apply(*operands, causal=True, heads=2, rows=2)),
        ("layer-norm", [(2, 3, 4), (4,), (4,)], layer_norm),
        ("concat", [(2, 3, 4), (2, 1, 4)], lambda a, b: concat([a, b], axis=-2)),
    ]

    @pytest.mark.parametrize("name, shapes, op", MULTI, ids=[m[0] for m in MULTI])
    def test_needed_gradients_bit_identical_whatever_else_needs_one(self, rng, name, shapes, op):
        arrays = [rng.standard_normal(s).astype(np.float32) for s in shapes]

        def grads(needs):
            operands = [Tensor(a, requires_grad=n) for a, n in zip(arrays, needs)]
            out = op(*operands)
            upstream = Tensor(np.linspace(-1.0, 1.0, out.size, dtype=np.float32)
                              .reshape(out.shape))
            got = backward(total(out * upstream))
            return [got.get(t) for t in operands]

        full = grads([True] * len(arrays))
        for needs in itertools.product([False, True], repeat=len(arrays)):
            if any(needs):
                for got, want, need in zip(grads(needs), full, needs):
                    assert (got.tobytes() == want.tobytes()) if need else got is None


class TestPrimitiveGradients:
    """Every differentiable primitive against the finite-difference oracle."""

    def test_add_sub_mul_broadcast(self, rng):
        a = param64(rng, (3, 4))
        b = param64(rng, (4,))
        assert_grads_match(lambda: total((a + b) * (a - b) * b), [a, b])

    @pytest.mark.parametrize("graph_b", [True, False], ids=["graph", "constant"])
    def test_sub_broadcast(self, rng, graph_b):
        # a graph b is negated as b * -1.0, which no model run takes
        a = param64(rng, (2, 3, 4))
        b = Tensor(rng.standard_normal((3, 1)), requires_grad=graph_b)
        weights = Tensor(rng.standard_normal((2, 3, 4)))
        assert_grads_match(lambda: total((a - b) * weights), [a, b] if graph_b else [a])

    def test_matmul_batched(self, rng):
        a = param64(rng, (2, 3, 4))
        b = param64(rng, (4, 5))
        assert_grads_match(lambda: total(matmul(a, b)), [a, b])

    def test_matmul_two_dimensional(self, rng):
        a = param64(rng, (3, 4))
        w = param64(rng, (4, 5))
        weights = Tensor(rng.standard_normal((3, 5)))
        assert_grads_match(lambda: total(matmul(a, w) * weights), [a, w])

    def test_matmul_weight_with_strided_upstream_gradient(self, rng):
        # the transpose hands MatMul.backward a non-contiguous gradient
        a = param64(rng, (2, 3, 4, 5))
        w = param64(rng, (5, 6))
        weights = Tensor(rng.standard_normal((2, 3, 6, 4)))
        assert_grads_match(lambda: total(matmul(a, w).transpose() * weights), [a, w])

    def test_transpose_reshape_slice(self, rng):
        a = param64(rng, (3, 4, 5))

        def loss():
            t = a.transpose()[..., 1:3, :].reshape((3, 8))
            return total(t * t)

        assert_grads_match(loss, [a])

    def test_concat(self, rng):
        a = param64(rng, (2, 3))
        b = param64(rng, (2, 2))

        def loss():
            joined = concat([a, b], axis=-1)
            return total(joined * joined)

        assert_grads_match(loss, [a, b])

    def test_sum_mean_axes(self, rng):
        a = param64(rng, (3, 4, 2))
        assert_grads_match(lambda: (a.mean(axis=1) * a.mean(axis=1)).mean(), [a])

    def test_sqrt(self, rng):
        a = Tensor(np.abs(rng.standard_normal((4,))) + 0.5, requires_grad=True)
        assert_grads_match(lambda: sqrt((a * a).mean()), [a])

    def test_softmax_masked_gradient(self, rng):
        a = param64(rng, (3, 5))
        mask = rng.random((3, 5)) < 0.3
        mask[:, 0] = False
        excluded = Tensor(np.where(mask, -np.inf, 0.0))
        weights = rng.standard_normal((3, 5))
        assert_grads_match(lambda: total(softmax(a + excluded) * Tensor(weights)), [a])

    def test_softmax_causal_attention_gradient(self, rng):
        scores = param64(rng, (2, 3, 2, 4, 4))
        weights = Tensor(rng.standard_normal((2, 3, 2, 4, 4)))
        assert_grads_match(
            lambda: total(softmax(scores + future_bias(scores)) * weights), [scores])

    def test_row_normalize_gradient(self, rng):
        a = Tensor(rng.uniform(0.1, 2.0, (4, 4)), requires_grad=True)
        weights = rng.standard_normal((4, 4))
        assert_grads_match(lambda: total(row_normalize(a) * Tensor(weights)), [a])

    def test_layer_norm_gradient(self, rng):
        x = param64(rng, (2, 6))
        gain = Tensor(rng.standard_normal(6), requires_grad=True)
        bias = Tensor(rng.standard_normal(6), requires_grad=True)
        weights = rng.standard_normal((2, 6))
        assert_grads_match(lambda: total(layer_norm(x, gain, bias) * Tensor(weights)),
                           [x, gain, bias])

    def test_layer_norm_gradient_four_dimensional(self, rng):
        x = param64(rng, (2, 3, 4, 6))
        gain = param64(rng, (6,))
        bias = param64(rng, (6,))
        weights = Tensor(rng.standard_normal((2, 3, 4, 6)))
        assert_grads_match(lambda: total(layer_norm(x, gain, bias) * weights),
                           [x, gain, bias])

    def test_leaky_relu_gradient(self, rng):
        a = param64(rng, (8,))
        assert_grads_match(lambda: total(leaky_relu(a) * leaky_relu(a)), [a])


class TestInvariants:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_no_nan_inf_from_finite_inputs(self, seed):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((3, 4)) * gen.choice([0.0, 0.1, 1.0, 10.0])
        y = gen.standard_normal((3, 4))
        tx, ty = Tensor(x), Tensor(y)
        outputs = [
            (tx + ty).data, (tx - ty).data, (tx * ty).data,
            matmul(tx, ty.transpose()).data,
            relu(tx).data, leaky_relu(tx).data,
            softmax(tx).data,
            layer_norm(tx, Tensor(np.ones(4)), Tensor(np.zeros(4))).data,
            row_normalize(relu(tx)).data,
            sqrt(total(tx * tx)).data,
            tx.mean(axis=0).data, tx.mean(axis=1).data,
        ]
        for out in outputs:
            assert np.isfinite(out).all()

    @given(st.sampled_from([np.float32, np.float64]), st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_subtraction_is_numpys_bit_for_bit(self, dtype, graph_b, data):
        shape_a, shape_b = data.draw(hnp.mutually_broadcastable_shapes(num_shapes=2)).input_shapes
        values = st.floats(allow_nan=False, width=np.dtype(dtype).itemsize * 8) | st.sampled_from(
            [0.0, -0.0, np.inf, -np.inf])
        a, b = (data.draw(hnp.arrays(dtype, shape, elements=values)) for shape in (shape_a, shape_b))
        with np.errstate(over="ignore", invalid="ignore"):     # inf - inf is a NaN
            out = Tensor(a) - Tensor(b, requires_grad=graph_b)
            assert out.dtype == dtype and out.data.tobytes() == (a - b).tobytes()

    def test_determinism_bit_identical(self):
        def run():
            gen = np.random.default_rng(99)
            x = Tensor(gen.standard_normal((4, 4)), requires_grad=True)
            y = softmax(matmul(x, x.transpose()))
            return y.data.tobytes(), backward(total(y))[x].tobytes()

        assert run() == run()

    def test_values_are_float32_by_default(self):
        assert Tensor([[1, 2], [3, 4]]).dtype == np.float32
        assert Tensor(np.zeros((2, 2), dtype=np.float64)).dtype == np.float64
