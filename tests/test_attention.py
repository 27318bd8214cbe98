import numpy as np
import pytest

from canet.attention import (AttentionParams, multi_head_attention, scaled_dot_attention,
                             sinusoid_table)
from canet.model import _named_tensors
from canet.tensor import Attention, ShapeError, Tensor, no_grad
from conftest import (assert_grads_match, causal_mask, float64, future_bias, qkv_attention,
                      total)


def identity_params(width: int, heads: int = 1) -> AttentionParams:
    eye = np.eye(width)
    return AttentionParams(w_query=Tensor(eye), w_key=Tensor(eye), w_value=Tensor(eye),
                           w_out=Tensor(eye), heads=heads)


def per_head_reference(seq: np.ndarray, params: AttentionParams, causal: bool) -> np.ndarray:
    """``seq`` plus per-head attention assembled by hand from the column blocks, in numpy."""
    head_dim = params.w_query.shape[1] // params.heads
    outputs = []
    for i in range(params.heads):
        block = slice(i * head_dim, (i + 1) * head_dim)
        q, k, v = (seq @ w.data[:, block] for w in (params.w_query, params.w_key, params.w_value))
        scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(head_dim)
        if causal:
            scores = np.where(causal_mask(seq.shape[-2]), -np.inf, scores)
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
        outputs.append(weights @ v)
    return seq + np.concatenate(outputs, axis=-1) @ params.w_out.data


class TestProjectQkv:
    """Head i projects through column block i of the fused weights."""

    def test_identity_projection(self, rng):
        seq = Tensor(rng.standard_normal((5, 4)))
        out = multi_head_attention(seq, identity_params(4, heads=2))
        blocks = [Tensor(seq.data[:, :2]), Tensor(seq.data[:, 2:])]
        expected = np.concatenate([scaled_dot_attention(b, identity_params(2)).data
                                   for b in blocks], axis=-1)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_zero_input(self, rng):
        params = AttentionParams.create(6, 3, rng)
        out = multi_head_attention(Tensor(np.zeros((3, 4, 6), dtype=np.float32)), params)
        np.testing.assert_array_equal(out.data, np.zeros((3, 4, 6)))

    def test_hand_projection(self):
        # one position attends only to itself, so each head returns its value
        # block, which is projected and added to the input
        params = AttentionParams(
            w_query=Tensor(np.eye(2)), w_key=Tensor(np.eye(2)),
            w_value=Tensor([[2.0, 1.0], [3.0, -1.0]]), w_out=Tensor([[1.0, 0.0], [0.0, 10.0]]),
            heads=2)
        out = multi_head_attention(Tensor([[1.0, 2.0]]), params)
        np.testing.assert_allclose(out.data, [[9.0, -8.0]])

    def test_head_out_of_range(self, rng):
        with pytest.raises(ValueError):
            AttentionParams.create(4, 0, rng)


class TestScaledDotAttention:
    @staticmethod
    def projected(x, params, values):
        """The sublayer's output where each position of ``x`` reads ``values``:
        ``x`` plus ``values`` projected by ``w_out``."""
        return x.data + values @ params.w_out.data

    def test_single_position_returns_value(self, rng):
        params = float64(AttentionParams.create(4, 2, rng))
        x = Tensor(rng.standard_normal((1, 4)))
        out = scaled_dot_attention(x, params)
        np.testing.assert_allclose(out.data, self.projected(x, params, x.data @ params.w_value.data),
                                   rtol=1e-12)

    def test_identical_keys_average_values(self, rng):
        params = float64(AttentionParams.create(4, 2, rng))
        params.w_key = Tensor(np.zeros((4, 4)))       # every key is zero
        x = Tensor(rng.standard_normal((4, 4)))
        out = scaled_dot_attention(x, params)
        mean = (x.data @ params.w_value.data).mean(axis=0, keepdims=True)
        np.testing.assert_allclose(out.data, self.projected(x, params, mean), rtol=1e-12)

    def test_causal_first_position_sees_only_itself(self, rng):
        params = float64(AttentionParams.create(4, 2, rng))
        x = Tensor(rng.standard_normal((5, 4)))
        out = scaled_dot_attention(x, params, causal=True)
        first = Tensor(x.data[:1])
        np.testing.assert_allclose(out.data[:1], self.projected(
            first, params, first.data @ params.w_value.data), rtol=1e-12)

    def test_width_mismatch(self):
        # q and k are of widths 3 and 4
        x, w = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))
        with pytest.raises(ShapeError):
            Attention.apply(x, w, Tensor(np.zeros((3, 4))), w, w)

    @pytest.mark.parametrize("causal", [False, True])
    def test_batch_axes_do_not_broadcast(self, causal):
        # numpy's matmul would broadcast a weight's batch axes against x's
        x, w = Tensor(np.zeros((2, 4, 3))), Tensor(np.zeros((3, 3)))
        for batched in (Tensor(np.zeros((2, 3, 3))), Tensor(np.zeros((1, 3, 3)))):
            with pytest.raises(ShapeError):
                Attention.apply(x, w, batched, w, w, causal=causal)

    @pytest.mark.parametrize("causal", [False, True])
    def test_records_one_op_and_none_without_tape(self, rng, recorded_creators, causal):
        seq = Tensor(rng.standard_normal((2, 4, 6)), requires_grad=True)
        params = AttentionParams.create(6, 2, rng)
        scaled_dot_attention(seq, params, causal=causal)
        assert recorded_creators == [True]
        recorded_creators.clear()
        with no_grad():
            scaled_dot_attention(seq, params, causal=causal)
        assert recorded_creators == [False]


class TestMultiHead:
    def test_single_head_identity_reduces_to_attention(self, rng):
        seq = Tensor(rng.standard_normal((6, 4)))
        out = multi_head_attention(seq, identity_params(4))
        direct = qkv_attention(seq, *[Tensor(np.eye(4))] * 4)
        np.testing.assert_allclose(out.data, direct.data, rtol=1e-6)

    def test_zero_output_projection(self, rng):
        params = AttentionParams.create(4, 2, rng)
        params.w_out = Tensor(np.zeros((4, 4)))
        seq = Tensor(rng.standard_normal((5, 4)))
        out = multi_head_attention(seq, params)
        assert out.data.tobytes() == seq.data.tobytes()        # the residual alone

    def test_two_heads_match_hand_assembly(self, rng):
        params = AttentionParams.create(4, 2, rng)
        seq = Tensor(rng.standard_normal((3, 4)))
        out = multi_head_attention(seq, params)
        expected = per_head_reference(seq.data, params, causal=False)
        np.testing.assert_allclose(out.data, expected, rtol=1e-5)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("causal", [False, True])
    def test_float64_oracle_per_head_blocks(self, heads, causal):
        gen = np.random.default_rng(heads)
        params = float64(AttentionParams.create(8, heads, gen))
        seq = gen.standard_normal((3, 6, 8))
        out = multi_head_attention(Tensor(seq), params, causal=causal).data
        np.testing.assert_allclose(out, per_head_reference(seq, params, causal),
                                   rtol=0, atol=1e-13)

    def test_op_count_does_not_depend_on_heads(self, rng, recorded_creators):
        # the attention op, which projects q, k and v and the heads' output
        # itself, with or without a crop to the last rows
        seq = Tensor(rng.standard_normal((2, 5, 16)), requires_grad=True)
        for heads in (1, 2, 8):
            params = AttentionParams.create(16, heads, rng)
            for causal in (False, True):
                recorded_creators.clear()
                multi_head_attention(seq, params, causal=causal)
                assert recorded_creators == [True]
                recorded_creators.clear()
                multi_head_attention(seq, params, causal=causal, rows=2)
                assert recorded_creators == [True]

    def test_seeded_init_draws_the_per_head_blocks_in_order(self):
        params = AttentionParams.create(8, 4, np.random.default_rng(5))
        gen = np.random.default_rng(5)
        limit = np.sqrt(6.0 / (8 + 2))
        for w in (params.w_query, params.w_key, params.w_value):
            for i in range(4):
                block = gen.uniform(-limit, limit, size=(8, 2)).astype(np.float32)
                assert w.data[:, 2 * i:2 * i + 2].tobytes() == block.tobytes()

    def test_sensors_processed_independently(self, rng):
        params = AttentionParams.create(4, 2, rng)
        stacked = rng.standard_normal((3, 5, 4)).astype(np.float32)
        base = multi_head_attention(Tensor(stacked), params).data
        perturbed = stacked.copy()
        perturbed[2] += 1.0
        changed = multi_head_attention(Tensor(perturbed), params).data
        np.testing.assert_array_equal(base[:2], changed[:2])
        assert not np.allclose(base[2], changed[2])

    def test_width_not_divisible_by_heads(self, rng):
        with pytest.raises(ValueError):
            AttentionParams.create(6, 4, rng)

    def test_gradients(self):
        gen = np.random.default_rng(7)
        params = float64(AttentionParams.create(4, 2, gen))
        seq = Tensor(gen.standard_normal((3, 4)), requires_grad=True)
        tensors = [seq] + [p for _, p in _named_tensors(params, "p")]
        assert_grads_match(
            lambda: total(multi_head_attention(seq, params, causal=True)
                          * multi_head_attention(seq, params, causal=True)),
            tensors)


class TestInvariantProperties:
    def test_permutation_equivariance_without_positions(self, rng):
        params = AttentionParams.create(4, 2, rng)
        seq = rng.standard_normal((6, 4)).astype(np.float32)
        perm = rng.permutation(6)
        out = multi_head_attention(Tensor(seq), params).data
        out_perm = multi_head_attention(Tensor(seq[perm]), params).data
        np.testing.assert_allclose(out_perm, out[perm], rtol=1e-5, atol=1e-6)

    def test_causality_is_bit_exact(self, rng):
        params = AttentionParams.create(8, 2, rng)
        seq = rng.standard_normal((7, 8)).astype(np.float32)
        base = multi_head_attention(Tensor(seq), params, causal=True).data
        for t in (3, 5):
            perturbed = seq.copy()
            perturbed[t:] += rng.standard_normal(perturbed[t:].shape).astype(np.float32)
            out = multi_head_attention(Tensor(perturbed), params, causal=True).data
            assert out[:t].tobytes() == base[:t].tobytes()

    def test_attention_weight_rows_are_probabilities(self, rng):
        from canet.tensor import softmax, matmul
        q = Tensor(rng.standard_normal((5, 3)))
        k = Tensor(rng.standard_normal((5, 3)))
        scores = matmul(q, k.transpose()) * (1 / np.sqrt(3))
        weights = softmax(scores + future_bias(scores)).data
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-6)
        assert (weights >= 0).all()
        assert (weights[np.triu_indices(5, k=1)] == 0).all()


class TestPositionalEncoding:
    def test_position_zero(self):
        row = sinusoid_table(1, 8)[0]
        np.testing.assert_array_equal(row[0::2], np.zeros(4))
        np.testing.assert_array_equal(row[1::2], np.ones(4))

    def test_range(self):
        table = sinusoid_table(64, 10)
        assert (table >= -1).all() and (table <= 1).all()

    def test_rows_distinct(self):
        table = sinusoid_table(16, 8)
        for i in range(16):
            for j in range(i + 1, 16):
                assert np.linalg.norm(table[i] - table[j]) > 0
