import itertools

import numpy as np
import pytest

import canet.tensor
from canet.attention import sinusoid_table
from canet.data import RawSeries, make_windows
from canet.detection import predict_series
from canet.graph import SensorGraph
from canet.model import (ABLATIONS, BOTTLENECK_DIMS, CanModel, Linear, ModelConfig,
                         bottleneck_ae, cam_forward, can_forward, decoder_forward,
                         encoder_forward, inference_batch_size)
from canet.tensor import ShapeError, Tensor, backward
from canet.train import _batch_loss
from conftest import assert_grads_match, float64, full_slot_forward


def small_config(**overrides) -> ModelConfig:
    base = dict(n_sensors=3, window=4, layers=2, heads=2, model_dim=8,
                embed_dim=4, neighbor_k=2, retain=0.8)
    base.update(overrides)
    return ModelConfig(**base)


def np_layer_norm(x, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


class TestCamForward:
    def test_shape_contract(self, rng):
        model = CanModel(small_config(n_sensors=3, window=5), seed=0)
        h = Tensor(rng.standard_normal((3, 6, 8)).astype(np.float32))
        graph = SensorGraph(normalized=Tensor(np.full((3, 3), 1 / 3)),
                            mask=np.ones((3, 3)))
        out = cam_forward(h, model.encoder[0], graph)
        assert out.shape == (3, 6, 8)

    def test_zero_weights_leave_double_layer_norm(self, rng):
        model = CanModel(small_config(), seed=0)
        layer = model.encoder[0]
        layer.attention.w_out = Tensor(np.zeros((8, 8), dtype=np.float32))
        layer.graph.propagation = Tensor(np.zeros((8, 8), dtype=np.float32))
        h = rng.standard_normal((3, 5, 8)).astype(np.float32)
        graph = SensorGraph(normalized=Tensor(np.full((3, 3), 1 / 3)),
                            mask=np.ones((3, 3)))
        out = cam_forward(Tensor(h), layer, graph).data
        np.testing.assert_allclose(out, np_layer_norm(np_layer_norm(h)), rtol=1e-4, atol=1e-5)

    def test_gradient_matches_finite_differences(self):
        gen = np.random.default_rng(21)
        model = float64(CanModel(small_config(n_sensors=2, window=2, layers=1, heads=2,
                                              model_dim=4, embed_dim=2), seed=4))
        layer = model.encoder[0]
        graph = SensorGraph(normalized=Tensor(np.full((2, 2), 0.5)),
                            mask=np.ones((2, 2)))
        h = Tensor(gen.standard_normal((2, 3, 4)), requires_grad=True)
        assert_grads_match(lambda: cam_forward(h, layer, graph).mean(), [h], step=1e-6)


class TestEncoder:
    def test_sequence_gains_placeholder_slot(self, rng):
        model = CanModel(small_config(), seed=0)
        embeddings = encoder_forward(rng.standard_normal((3, 4)), model)
        assert len(embeddings) == model.config.layers
        assert all(e.shape == (3, 8) for e in embeddings)

    def test_placeholder_reacts_to_every_timestamp(self, rng):
        model = CanModel(small_config(), seed=3)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        base = encoder_forward(x, model)
        for t in range(4):
            bumped = x.copy()
            bumped[:, t] += 0.5
            moved = encoder_forward(bumped, model)
            assert not np.allclose(base[-1].data, moved[-1].data)

    def test_scalar_walkthrough_oracle(self):
        cfg = ModelConfig(n_sensors=1, window=1, layers=1, heads=1, model_dim=2,
                          embed_dim=2, neighbor_k=1, retain=0.8)
        model = float64(CanModel(cfg, seed=0))

        w_in = np.array([[0.5, -0.2]])
        b_in = np.array([0.1, 0.2])
        w_q = np.array([[0.3, 0.0], [0.0, 0.3]])
        w_k = np.array([[0.2, 0.0], [0.0, 0.2]])
        w_v = np.array([[0.4, 0.1], [0.0, 0.5]])
        w_o = np.eye(2)
        w_local = np.array([[0.6, -0.3], [0.2, 0.1]])
        c_vec = np.array([[0.25], [-0.15], [0.05], [0.35],
                          [-0.45], [0.2], [0.1], [-0.05]])
        w_conv = np.array([[0.7, 0.2], [-0.1, 0.9]])
        emb = np.array([[0.8, -0.6]])

        model.input.weight.data = w_in.copy()
        model.input.bias.data = b_in.copy()
        layer = model.encoder[0]
        layer.attention.w_query.data = w_q.copy()
        layer.attention.w_key.data = w_k.copy()
        layer.attention.w_value.data = w_v.copy()
        layer.attention.w_out.data = w_o.copy()
        layer.graph.feature_map.data = w_local.copy()
        layer.graph.attn_vector.data = c_vec.copy()
        layer.graph.propagation.data = w_conv.copy()
        model.embedding.data = emb.copy()

        x = np.array([[0.3]])
        embeddings = encoder_forward(x, model)

        # independent numpy walkthrough of the same arithmetic
        cols = np.array([[0.3], [0.0]])
        h0 = cols @ w_in + b_in + sinusoid_table(2, 2).astype(np.float64)
        q, k, v = h0 @ w_q, h0 @ w_k, h0 @ w_v
        scores = q @ k.T / np.sqrt(2.0)
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
        h1 = np_layer_norm(h0 + (weights @ v) @ w_o)

        flat = (h1 @ w_local).reshape(1, 4)
        logit = float((flat @ c_vec[:4] + flat @ c_vec[4:]).item())
        logit = logit if logit >= 0 else 0.2 * logit
        local = np.array([[1.0]])            # softmax of a single logit
        assert np.exp(logit) / np.exp(logit) == 1.0
        combined = local + np.array([[1.0]])  # row-normalized 1x1 global graph
        mixed = 0.8 * h1 + 0.2 * (combined @ h1.reshape(1, 4)).reshape(2, 2)
        expected = np_layer_norm(h1 + mixed @ w_conv)[-1]

        np.testing.assert_allclose(embeddings[0].data[0], expected, rtol=1e-10)


def bottleneck(width, rng):
    dims = (width,) + BOTTLENECK_DIMS + (width,)
    return [Linear.create(a, b, rng) for a, b in zip(dims, dims[1:])]


class TestBottleneck:
    def test_zero_weights_give_zero_output(self, rng):
        ae = bottleneck(8, rng)
        for layer in ae:
            layer.weight.data = np.zeros_like(layer.weight.data)
        out = bottleneck_ae(Tensor(rng.standard_normal((5, 8))), ae)
        np.testing.assert_array_equal(out.data, np.zeros((5, 8)))

    def test_shape_preserved(self, rng):
        ae = bottleneck(16, rng)
        out = bottleneck_ae(Tensor(rng.standard_normal((7, 16))), ae)
        assert out.shape == (7, 16)

    def test_jacobian_rank_bounded_by_bottleneck_width(self):
        gen = np.random.default_rng(2)
        ae = float64(bottleneck(16, gen))
        x = Tensor(gen.standard_normal((1, 16)), requires_grad=True)
        rows = [backward(bottleneck_ae(x, ae)[0, i])[x][0] for i in range(16)]
        singular = np.linalg.svd(np.stack(rows), compute_uv=False)
        assert singular[4] / singular[0] < 1e-9


class TestDecoder:
    @staticmethod
    def build(layers=2, width=8, heads=2, seed=5):
        return CanModel(small_config(layers=layers, model_dim=width, heads=heads), seed=seed)

    def test_prediction_shape(self, rng):
        model = self.build()
        seeds = Tensor(rng.standard_normal((3, 1, 8)).astype(np.float32))
        embeddings = [Tensor(rng.standard_normal((3, 8)).astype(np.float32))
                      for _ in range(2)]
        out = decoder_forward(seeds, embeddings, model.pre_decoder, crop_len=1)
        assert out.shape == (3, 1, 8)

    def test_reconstruction_shape(self, rng):
        model = self.build()
        seeds = Tensor(rng.standard_normal((3, 4, 8)).astype(np.float32))
        embeddings = [Tensor(rng.standard_normal((3, 8)).astype(np.float32))
                      for _ in range(2)]
        out = decoder_forward(seeds, embeddings, model.rec_decoder, crop_len=4)
        assert out.shape == (3, 4, 8)

    def test_layer_count_mismatch(self, rng):
        model = self.build()
        seeds = Tensor(rng.standard_normal((3, 2, 8)).astype(np.float32))
        with pytest.raises(ShapeError):
            decoder_forward(seeds, [Tensor(np.zeros((3, 8)))], model.pre_decoder, 1)

    def test_crop_overflow(self, rng):
        model = self.build()
        seeds = Tensor(rng.standard_normal((3, 2, 8)).astype(np.float32))
        embeddings = [Tensor(rng.standard_normal((3, 8)).astype(np.float32))
                      for _ in range(2)]
        with pytest.raises(ShapeError):
            decoder_forward(seeds, embeddings, model.pre_decoder, crop_len=5)

    def test_final_embedding_perturbs_only_later_positions(self, rng):
        model = self.build()
        seeds = Tensor(rng.standard_normal((3, 3, 8)).astype(np.float32))
        embeddings = [Tensor(rng.standard_normal((3, 8)).astype(np.float32))
                      for _ in range(2)]
        base = decoder_forward(seeds, embeddings, model.pre_decoder, crop_len=5).data
        # bump the first layer's embedding: after the second prepend it sits at
        # slot 1, so slot 0 of the final sequence must be untouched
        bumped = [Tensor(embeddings[0].data + 1.0), embeddings[1]]
        moved = decoder_forward(seeds, bumped, model.pre_decoder, crop_len=5).data
        assert base[:, 0, :].tobytes() == moved[:, 0, :].tobytes()
        assert not np.allclose(base[:, 1:, :], moved[:, 1:, :])

    def test_seed_perturbation_respects_causality(self, rng):
        model = self.build()
        seed_arr = rng.standard_normal((3, 4, 8)).astype(np.float32)
        embeddings = [Tensor(rng.standard_normal((3, 8)).astype(np.float32))
                      for _ in range(2)]
        base = decoder_forward(Tensor(seed_arr), embeddings, model.pre_decoder, 6).data
        bumped = seed_arr.copy()
        bumped[:, 2, :] += 1.0          # final index 2 (layers) + 2 = 4
        moved = decoder_forward(Tensor(bumped), embeddings, model.pre_decoder, 6).data
        assert base[:, :4, :].tobytes() == moved[:, :4, :].tobytes()
        assert not np.allclose(base[:, 4:, :], moved[:, 4:, :])


class TestCanForward:
    def test_output_shapes(self, rng):
        model = CanModel(small_config(n_sensors=4, window=5), seed=0)
        x = rng.standard_normal((4, 5))
        out = can_forward(x, model)
        assert out.y_pred.shape == (4,)
        assert out.y_rec.shape == (4, 5)
        assert len(encoder_forward(x, model)) == model.config.layers

    def test_batched_matches_single(self, rng):
        model = CanModel(small_config(), seed=9)
        batch = rng.standard_normal((6, 3, 4)).astype(np.float32)
        stacked = can_forward(batch, model)
        single = can_forward(batch[2], model)
        np.testing.assert_array_equal(stacked.y_pred.data[2], single.y_pred.data)
        np.testing.assert_array_equal(stacked.y_rec.data[2], single.y_rec.data)

    def test_deterministic(self, rng):
        model = CanModel(small_config(), seed=1)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        a = can_forward(x, model)
        b = can_forward(x, model)
        assert a.y_pred.data.tobytes() == b.y_pred.data.tobytes()
        assert a.y_rec.data.tobytes() == b.y_rec.data.tobytes()

    def test_same_seed_same_model(self):
        a = CanModel(small_config(), seed=11)
        b = CanModel(small_config(), seed=11)
        for (name_a, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert pa.data.tobytes() == pb.data.tobytes(), name_a

    def test_input_shape_validated(self, rng):
        model = CanModel(small_config(), seed=0)
        with pytest.raises(ShapeError):
            can_forward(rng.standard_normal((5, 4)), model)
        with pytest.raises(ShapeError):
            can_forward(rng.standard_normal((3, 7)), model)

    def test_window_of_one(self, rng):
        model = CanModel(small_config(window=1), seed=0)
        out = can_forward(rng.standard_normal((3, 1)), model)
        assert out.y_pred.shape == (3,)
        assert out.y_rec.shape == (3, 1)

    def test_position_table_is_fixed_sinusoids(self):
        # (window + 1, model_dim) position rows, a constant and not a parameter
        model = CanModel(small_config(), seed=0)
        assert not model.positions.requires_grad
        assert all(p is not model.positions for p in model.parameters())
        assert model.positions.data.tobytes() == sinusoid_table(5, 8).tobytes()


class TestAblations:
    @pytest.mark.parametrize("ablation", ["no-local-graph", "no-graph-conv",
                                          "no-ae", "no-rec-decoder"])
    def test_variant_forward_is_finite(self, ablation, rng):
        model = CanModel(small_config(ablation=ablation), seed=2)
        out = can_forward(rng.standard_normal((3, 4)), model)
        assert np.isfinite(out.y_pred.data).all()
        if ablation == "no-rec-decoder":
            assert out.y_rec is None
        else:
            assert np.isfinite(out.y_rec.data).all()

    def test_no_graph_conv_has_no_graph_params(self):
        model = CanModel(small_config(ablation="no-graph-conv"), seed=0)
        names = [n for n, _ in model.named_parameters()]
        assert not any(".graph." in n for n in names)
        assert any(".dense" in n for n in names)

    def test_unknown_ablation_rejected(self):
        with pytest.raises(ValueError):
            small_config(ablation="no-everything")


class TestSkipReconstruction:
    def test_prediction_unchanged_without_reconstruction(self, rng):
        model = CanModel(small_config(), seed=6)
        x = rng.standard_normal((5, 3, 4))
        full = can_forward(x, model)
        skipped = can_forward(x, model, reconstruct=False)
        assert skipped.y_rec is None and full.y_rec is not None
        np.testing.assert_array_equal(skipped.y_pred.data, full.y_pred.data)


class TestParameterAccounting:
    def test_count_is_config_function(self):
        a = CanModel(small_config(), seed=0).num_parameters()
        b = CanModel(small_config(), seed=99).num_parameters()
        assert a == b

    def test_sensor_count_only_moves_embedding(self):
        base = CanModel(small_config(n_sensors=3), seed=0).num_parameters()
        wider = CanModel(small_config(n_sensors=7), seed=0).num_parameters()
        assert wider - base == (7 - 3) * small_config().embed_dim

    def test_named_parameters_unique_and_stable(self):
        model = CanModel(small_config(), seed=0)
        names = [n for n, _ in model.named_parameters()]
        assert len(names) == len(set(names))
        assert names == [n for n, _ in model.named_parameters()]

    @staticmethod
    def reachable_parameters(root):
        """Every ``requires_grad`` tensor reachable from ``root`` through
        object attributes, lists, tuples and dict values."""
        found, seen, stack = [], set(), [root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, Tensor):
                if node.requires_grad:
                    found.append(node)
            elif isinstance(node, dict):
                stack.extend(node.values())
            elif isinstance(node, (list, tuple)):
                stack.extend(node)
            elif hasattr(node, "__dict__") and not isinstance(node, type):
                stack.extend(vars(node).values())
        return found

    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_every_parameter_is_named_once(self, ablation):
        # a tensor the walk misses would be neither saved nor trained
        model = CanModel(small_config(ablation=ablation), seed=0)
        named = [id(p) for _, p in model.named_parameters()]
        reachable = [id(p) for p in self.reachable_parameters(model)]
        assert len(named) == len(set(named))
        assert sorted(named) == sorted(reachable)

    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_built_in_float32_and_cast_whole_to_float64(self, ablation):
        # the 64-bit checks cast a built model; a tensor the cast missed would
        # run them in mixed precision
        model = CanModel(ModelConfig(n_sensors=51, ablation=ablation), seed=0)   # paper width
        tensors = [p for _, p in model.named_parameters()] + [model.positions]
        assert {t.dtype for t in tensors} == {np.dtype(np.float32)}
        assert inference_batch_size(model) == 26
        assert float64(model) is model
        assert {t.dtype for t in tensors} == {np.dtype(np.float64)}
        assert inference_batch_size(model) == 13


class TestEveryOpIsReachable:
    def test_train_and_predict_apply_every_op(self, monkeypatch, rng):
        # an op class that no training step or prediction applies, under any ablation,
        # is dead code
        apply = canet.tensor.Function.apply.__func__
        applied = set()

        def recorded(cls, *args, **kwargs):
            applied.add(cls)
            return apply(cls, *args, **kwargs)

        monkeypatch.setattr(canet.tensor.Function, "apply", classmethod(recorded))
        dataset = make_windows(RawSeries(list("abcd"), rng.random((4, 12))), 4)
        for ablation in ABLATIONS:
            model = CanModel(small_config(n_sensors=4, ablation=ablation), seed=0)
            backward(_batch_loss(model, dataset, np.arange(6), 0.5, 0.5))
            predict_series(model, dataset, with_reconstruction=model.rec_decoder is not None)
        assert applied == set(canet.tensor.Function.__subclasses__())


class TestFusedOpsGetNoConstant:
    @pytest.mark.parametrize("retain", [0.0, 0.8, 1.0])
    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_training_step_needs_every_gradient(self, monkeypatch, rng, ablation, retain):
        # Attention and LayerNorm save and compute the gradient of every input;
        # a constant fed into either would make that work a waste
        needs = {canet.tensor.Attention: [], canet.tensor.LayerNorm: []}
        init = canet.tensor.Function.__init__

        def recorded(op, op_needs):
            if type(op) in needs:
                needs[type(op)].append(op_needs)
            init(op, op_needs)

        monkeypatch.setattr(canet.tensor.Function, "__init__", recorded)
        dataset = make_windows(RawSeries(list("abcd"), rng.random((4, 12))), 4)
        model = CanModel(small_config(n_sensors=4, ablation=ablation, retain=retain), seed=0)
        backward(_batch_loss(model, dataset, np.arange(6), 0.5, 0.5))
        for cls, seen in needs.items():
            assert seen and all(all(n) for n in seen), cls.__name__


class TestCroppedLastLayers:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_matches_full_slot_oracle_bytes(self, rng, dtype):
        # the last encoder and decoder layers compute only the slots the model
        # reads; the numbers must be those of running every slot through them,
        # also for one sensor, whose last-slot products are one-row matrices
        for (n_sensors, batch), ablation in itertools.product(
                ((4, 6), (1, 1), (1, 6)), ABLATIONS):
            x = rng.random((batch, n_sensors, 4))
            model = CanModel(small_config(n_sensors=n_sensors, ablation=ablation), seed=0)
            if dtype is np.float64:
                float64(model)
            out = can_forward(x.astype(dtype), model)
            encoded = encoder_forward(x.astype(dtype), model)
            y_pred, y_rec, embeddings = full_slot_forward(x, model)
            assert out.y_pred.data.tobytes() == y_pred.tobytes()
            assert (out.y_rec is None) == (y_rec is None)
            if y_rec is not None:
                assert out.y_rec.data.tobytes() == y_rec.tobytes()
            assert [e.data.tobytes() for e in encoded] == [e.tobytes() for e in embeddings]
