import numpy as np
import pytest

from canet.graph import (GraphConvParams, SensorGraph, build_sensor_graph,
                         global_adjacency, global_local_conv, init_sensor_embedding,
                         local_adjacency, topk_mask, write_embeddings_csv)
from canet.tensor import Tensor, row_normalize
from conftest import assert_grads_match, float64, total


class TestGlobalAdjacency:
    def test_orthonormal_rows(self):
        out = global_adjacency(Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, np.eye(2))

    def test_hand_product(self):
        e = Tensor([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        expected = [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]]
        np.testing.assert_array_equal(global_adjacency(e).data, expected)

    def test_relu_clips_negative_similarity(self):
        out = global_adjacency(Tensor([[1.0], [-1.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 0.0], [0.0, 1.0]])

    def test_symmetric_nonnegative_for_random_embeddings(self, rng):
        for _ in range(20):
            e = Tensor(rng.standard_normal((6, 3)))
            a = global_adjacency(e).data
            assert np.abs(a - a.T).max() < 1e-6
            assert (a >= 0).all()


class TestTopkMask:
    def test_row_example(self):
        mask = topk_mask(np.array([[0.9, 0.1, 0.5]]), 2)
        np.testing.assert_array_equal(mask, [[1.0, 0.0, 1.0]])

    def test_k_at_least_n_keeps_all(self):
        mask = topk_mask(np.ones((3, 3)), 3)
        np.testing.assert_array_equal(mask, np.ones((3, 3)))
        mask = topk_mask(np.ones((3, 3)), 7)
        np.testing.assert_array_equal(mask, np.ones((3, 3)))

    def test_ties_break_toward_lower_index(self):
        mask = topk_mask(np.array([[0.5, 0.5, 0.1]]), 1)
        np.testing.assert_array_equal(mask, [[1.0, 0.0, 0.0]])

    def test_matches_sort_oracle_on_random_matrices(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n + 2))
            a = rng.random((n, n))
            mask = topk_mask(a, k)
            assert (mask.sum(axis=1) == min(k, n)).all()
            for i in range(n):
                keep = sorted(range(n), key=lambda j: (-a[i, j], j))[:min(k, n)]
                np.testing.assert_array_equal(np.flatnonzero(mask[i]), sorted(keep))

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            topk_mask(np.ones((2, 2)), 0)


class TestNormalizeAdjacency:
    # the global graph's normalization (build_sensor_graph) divides rows by their sums
    def test_row_mode(self):
        out = row_normalize(Tensor([[2.0, 2.0], [1.0, 3.0]])).data
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.25, 0.75]])

    def test_zero_row_stays_zero(self):
        out = row_normalize(Tensor([[0.0, 0.0], [1.0, 1.0]])).data
        np.testing.assert_array_equal(out[0], [0.0, 0.0])


class TestLocalAdjacency:
    @staticmethod
    def params(width, seq, rng):
        return GraphConvParams.create(width, seq, retain=0.8, rng=rng)

    def test_zero_attention_vector_gives_uniform_rows(self, rng):
        p = self.params(3, 4, rng)
        p.attn_vector = Tensor(np.zeros((2 * 4 * 3, 1)))
        out = local_adjacency(Tensor(rng.standard_normal((5, 4, 3))), p).data
        np.testing.assert_allclose(out, np.full((5, 5), 0.2), atol=1e-7)

    def test_single_sensor(self, rng):
        p = self.params(2, 3, rng)
        out = local_adjacency(Tensor(rng.standard_normal((1, 3, 2))), p).data
        np.testing.assert_array_equal(out, [[1.0]])

    def test_two_sensors_match_scalar_arithmetic(self):
        # seq=1, width=1: v_i = w*h_i, logit_ij = lrelu(c1*v_i + c2*v_j)
        gen = np.random.default_rng(3)
        p = GraphConvParams.create(1, 1, retain=0.5, rng=gen)
        w = 1.5
        c1, c2 = 0.7, -0.4
        p.feature_map = Tensor([[w]])
        p.attn_vector = Tensor([[c1], [c2]])
        h = np.array([[[2.0]], [[-1.0]]])
        out = local_adjacency(Tensor(h), p).data

        def lrelu(v):
            return v if v >= 0 else 0.2 * v

        v = w * h[:, 0, 0]
        logits = np.array([[lrelu(c1 * v[i] + c2 * v[j]) for j in range(2)] for i in range(2)])
        expected = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(out, expected, rtol=1e-6)

    def test_rows_sum_to_one_and_depend_on_window(self, rng):
        p = self.params(4, 3, rng)
        h = rng.standard_normal((6, 3, 4)).astype(np.float32)
        out = local_adjacency(Tensor(h), p).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
        shifted = local_adjacency(Tensor(h + rng.standard_normal(h.shape).astype(np.float32)), p).data
        assert not np.allclose(out, shifted)


class TestGlobalLocalConv:
    @staticmethod
    def graph_from(adjacency: np.ndarray) -> SensorGraph:
        n = adjacency.shape[0]
        return SensorGraph(
            normalized=Tensor(adjacency / np.maximum(adjacency.sum(axis=1, keepdims=True), 1e-12)),
            mask=np.ones((n, n)),
        )

    def test_full_retention_is_identity_with_identity_map(self, rng):
        n, seq, width = 4, 3, 5
        p = GraphConvParams.create(width, seq, retain=1.0, rng=rng)
        p.propagation = Tensor(np.eye(width, dtype=np.float32))
        h = rng.standard_normal((n, seq, width)).astype(np.float32)
        graph = self.graph_from(rng.random((n, n)))
        local = Tensor(np.full((n, n), 1.0 / n))
        out = global_local_conv(Tensor(h), graph, local, p).data
        assert out.tobytes() == h.tobytes()

    def test_identity_graph_zero_retention(self, rng):
        n, seq, width = 3, 2, 4
        p = GraphConvParams.create(width, seq, retain=0.0, rng=rng)
        p.propagation = Tensor(np.eye(width))
        h = rng.standard_normal((n, seq, width)).astype(np.float32)
        # local + normalized-global == identity, mask keeps everything
        graph = SensorGraph(normalized=Tensor(np.eye(n) * 0.5), mask=np.ones((n, n)))
        local = Tensor(np.eye(n) * 0.5)
        out = global_local_conv(Tensor(h), graph, local, p).data
        np.testing.assert_allclose(out, h, rtol=1e-6)

    def test_hand_swap_example(self):
        gen = np.random.default_rng(0)
        p = GraphConvParams.create(1, 1, retain=0.5, rng=gen)
        p.propagation = Tensor(np.eye(1))
        h = Tensor(np.array([[[1.0]], [[3.0]]]))
        graph = SensorGraph(normalized=Tensor(np.array([[0.0, 1.0], [1.0, 0.0]])),
                            mask=np.ones((2, 2)))
        out = global_local_conv(h, graph, None, p).data
        np.testing.assert_allclose(out, [[[2.0]], [[2.0]]])

    def test_mask_zeroes_non_candidates(self, rng):
        n, seq, width = 3, 2, 2
        p = GraphConvParams.create(width, seq, retain=0.0, rng=rng)
        p.propagation = Tensor(np.eye(width))
        mask = np.eye(n)
        graph = SensorGraph(normalized=Tensor(np.full((n, n), 1.0 / n)),
                            mask=mask)
        local = Tensor(np.full((n, n), 2.0 / n))
        h = rng.standard_normal((n, seq, width)).astype(np.float32)
        out = global_local_conv(Tensor(h), graph, local, p).data
        np.testing.assert_allclose(out, h, rtol=1e-6)  # masked combined graph is I

    def test_gradients_flow_to_embedding_and_params(self):
        gen = np.random.default_rng(11)
        emb = float64(init_sensor_embedding(3, 2, gen))
        p = float64(GraphConvParams.create(2, 2, retain=0.3, rng=gen))
        h = Tensor(gen.standard_normal((3, 2, 2)), requires_grad=True)

        def loss():
            graph = build_sensor_graph(emb, top_k=2)
            local = local_adjacency(h, p)
            out = global_local_conv(h, graph, local, p)
            return total(out * out)

        # smaller step: the softmax-over-leaky-relu composite has enough
        # curvature that 1e-5 truncation error shows up at this tolerance
        assert_grads_match(loss, [emb, h, p.feature_map, p.attn_vector, p.propagation],
                           step=1e-6)


class TestBuildSensorGraph:
    def test_fields_consistent(self, rng):
        emb = init_sensor_embedding(5, 3, rng)
        graph = build_sensor_graph(emb, top_k=2)
        assert (graph.mask.sum(axis=1) == 2).all()
        sums = graph.normalized.data.sum(axis=1)
        np.testing.assert_allclose(sums[sums > 0], 1.0, atol=1e-6)
        assert (graph.normalized.data >= 0).all()

    def test_embedding_scale(self, rng):
        emb = init_sensor_embedding(400, 16, rng)
        assert abs(float(emb.data.std()) - 1 / 4.0) < 0.02


class TestEmbeddingExport:
    def test_csv_layout(self, tmp_path):
        path = tmp_path / "emb.csv"
        write_embeddings_csv(path, ["a", "b"], np.array([[1.0, 2.0], [3.0, 4.0]]))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sensor_id,e_0,e_1"
        assert lines[1].startswith("a,1.0,2.0")
        assert len(lines) == 3

    @pytest.mark.parametrize("names", [["a"], ["a", "b", "c"]])
    def test_name_count_must_match_rows(self, tmp_path, names):
        fresh, existing = tmp_path / "emb.csv", tmp_path / "old.csv"
        existing.write_text("kept\n")
        for path in (fresh, existing):
            with pytest.raises(ValueError, match="sensor names"):
                write_embeddings_csv(path, names, np.ones((2, 2)))
        assert not fresh.exists()
        assert existing.read_text() == "kept\n"
