import importlib
import math

import numpy as np
import pytest

from canet import Tensor
from canet.data import make_windows, minmax_apply, minmax_fit
from canet.synth import synth_generate
from canet.model import CanModel
from canet.train import (ConfigError, DivergenceError, EarlyStopper,
                         TrainConfig, _batch_loss, _validation_loss, joint_loss,
                         prediction_loss, reconstruction_loss, train)


def tiny_dataset(n_sensors=3, length=120, seed=0, window=4):
    result = synth_generate(n_sensors, length, seed)
    stats = minmax_fit(result.train)
    return make_windows(minmax_apply(result.train, stats), window)


def tiny_config(**overrides) -> TrainConfig:
    base = dict(window=4, layers=1, heads=2, model_dim=8, embed_dim=4,
                neighbor_k=2, batch_size=16, lr=1e-3, max_epochs=4,
                patience=3, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


class TestLosses:
    def test_prediction_loss_examples(self):
        equal = Tensor(np.array([1.0, 2.0]))
        assert prediction_loss(equal, equal).item() == 0.0
        out = prediction_loss(Tensor(np.array([3.0, 4.0])), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.item(), np.sqrt(25.0 / 2.0), rtol=1e-6)
        single = prediction_loss(Tensor(np.array([2.5])), Tensor(np.array([4.0])))
        np.testing.assert_allclose(single.item(), 1.5, rtol=1e-6)

    def test_reconstruction_loss_examples(self):
        equal = Tensor(np.ones((2, 3)))
        assert reconstruction_loss(equal, equal).item() == 0.0
        ones = reconstruction_loss(Tensor(np.ones((3, 5))), Tensor(np.zeros((3, 5))))
        np.testing.assert_allclose(ones.item(), 1.0, rtol=1e-6)
        out = reconstruction_loss(Tensor(np.array([[1.0, 3.0]])), Tensor(np.zeros((1, 2))))
        np.testing.assert_allclose(out.item(), np.sqrt(10.0 / 2.0), rtol=1e-6)

    def test_batched_losses_average_per_window(self, rng):
        pred = rng.standard_normal((6, 3)).astype(np.float32)
        target = rng.standard_normal((6, 3)).astype(np.float32)
        batched = prediction_loss(Tensor(pred), Tensor(target)).item()
        singles = [prediction_loss(Tensor(pred[i]), Tensor(target[i])).item()
                   for i in range(6)]
        np.testing.assert_allclose(batched, np.mean(singles), rtol=1e-5)

    def test_joint_loss(self):
        pre, rec = Tensor(np.array(1.0)), Tensor(np.array(2.0))
        assert joint_loss(pre, rec, 1.0, 0.0).item() == 1.0
        np.testing.assert_allclose(joint_loss(pre, rec, 0.2, 0.8).item(), 1.8, rtol=1e-6)
        with pytest.raises(ValueError):
            joint_loss(pre, rec, 0.5, 0.6)
        with pytest.raises(ValueError):
            joint_loss(pre, rec, -0.2, 1.2)


class TestSchedule:
    def test_weights_switch_after_epoch_four(self):
        cfg = TrainConfig()
        assert cfg.loss_weights(1) == (0.2, 0.8)
        assert cfg.loss_weights(4) == (0.2, 0.8)
        assert cfg.loss_weights(5) == (0.8, pytest.approx(0.2))
        assert cfg.loss_weights(6) == (0.8, pytest.approx(0.2))

    def test_weights_always_sum_to_one(self):
        cfg = TrainConfig(phi_start=0.35, phi_late=0.65)
        for epoch in range(1, 10):
            phi, psi = cfg.loss_weights(epoch)
            assert phi + psi == pytest.approx(1.0)


class TestEarlyStopper:
    def test_patience_semantics(self):
        values = [1.0, 0.9, 0.91, 0.92, 0.93, 0.94, 0.95]
        stopper = EarlyStopper(patience=5)
        stopped_at = None
        for epoch, v in enumerate(values, start=1):
            if stopper.update(epoch, v):
                stopped_at = epoch
                break
        assert stopped_at == 7
        assert stopper.best_epoch == 2

    def test_improvement_resets_counter(self):
        stopper = EarlyStopper(patience=2)
        assert not stopper.update(1, 1.0)
        assert not stopper.update(2, 1.1)
        assert not stopper.update(3, 0.9)
        assert not stopper.update(4, 1.0)
        assert stopper.update(5, 1.0)


class TestConfigParsing:
    def test_from_mapping_coerces_types(self):
        cfg = TrainConfig.from_mapping({"window": "7", "lr": "0.01",
                                        "can_plus": "true", "ablation": "no-ae"})
        assert cfg.window == 7 and cfg.lr == 0.01 and cfg.can_plus is True
        assert cfg.ablation == "no-ae"

    def test_unknown_key_lists_valid_ones(self):
        with pytest.raises(ConfigError) as err:
            TrainConfig.from_mapping({"widnow": "7"})
        assert "widnow" in str(err.value) and "window" in str(err.value)

    def test_bad_value_reported(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_mapping({"window": "five"})
        with pytest.raises(ConfigError):
            TrainConfig.from_mapping({"can_plus": "maybe"})

    def test_bad_ablation_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(ablation="nothing")

    def test_can_plus_needs_rec_decoder(self):
        with pytest.raises(ConfigError, match="'can_plus'.*'ablation'"):
            TrainConfig(can_plus=True, ablation="no-rec-decoder")
        assert TrainConfig(can_plus=True, ablation="no-ae").can_plus


class TestTrainLoop:
    def test_loss_decreases_and_log_is_complete(self):
        dataset = tiny_dataset()
        model, log = train(dataset, tiny_config(max_epochs=6))
        assert len(log.epochs) <= 6
        first, last = log.epochs[0], log.epochs[-1]
        assert last["train_loss"] < first["train_loss"]
        for entry in log.epochs:
            assert set(entry) == {"epoch", "train_loss", "val_loss", "phi", "lr"}
        assert log.n_parameters == model.num_parameters()

    def test_deterministic_for_fixed_seed(self):
        dataset = tiny_dataset()
        cfg = tiny_config(max_epochs=3)
        model_a, log_a = train(dataset, cfg)
        model_b, log_b = train(tiny_dataset(), cfg)
        assert log_a.epochs[-1]["train_loss"] == log_b.epochs[-1]["train_loss"]
        for (_, pa), (_, pb) in zip(model_a.named_parameters(), model_b.named_parameters()):
            assert pa.data.tobytes() == pb.data.tobytes()

    def test_returns_best_validation_parameters(self):
        dataset = tiny_dataset()
        model, log = train(dataset, tiny_config(max_epochs=5))
        n_val = max(1, int(round(0.1 * len(dataset))))
        val_idx = np.arange(len(dataset) - n_val, len(dataset))
        phi, psi = tiny_config().loss_weights(log.best_epoch)
        recomputed = _batch_loss(model, dataset, val_idx, phi, psi).item()
        np.testing.assert_allclose(recomputed, log.best_val_loss, rtol=1e-6)

    def test_lr_decays_per_epoch(self):
        dataset = tiny_dataset()
        _, log = train(dataset, tiny_config(max_epochs=3, lr=1e-3, lr_decay=0.5))
        lrs = [e["lr"] for e in log.epochs]
        np.testing.assert_allclose(lrs, [1e-3, 5e-4, 2.5e-4], rtol=1e-9)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_divergence_raises(self):
        dataset = tiny_dataset()
        with pytest.raises(DivergenceError):
            train(dataset, tiny_config(lr=1e12, max_epochs=3))

    def test_pure_prediction_when_rec_decoder_ablated(self):
        dataset = tiny_dataset()
        model, log = train(dataset, tiny_config(ablation="no-rec-decoder", max_epochs=2))
        assert model.rec_decoder is None
        assert np.isfinite(log.epochs[-1]["train_loss"])

    def test_phi_one_reduces_to_prediction_loss(self):
        dataset = tiny_dataset()
        cfg = tiny_config(phi_start=1.0, phi_late=1.0, max_epochs=2)
        _, log = train(dataset, cfg)
        assert np.isfinite(log.epochs[-1]["train_loss"])

    def test_phi_zero_trains_pure_reconstruction(self):
        dataset = tiny_dataset()
        cfg = tiny_config(phi_start=0.0, phi_late=0.0, max_epochs=2)
        model, log = train(dataset, cfg)
        assert model.rec_decoder is not None
        assert np.isfinite(log.epochs[-1]["train_loss"])

    def test_sym_adjacency_norm_trains(self):
        dataset = tiny_dataset()
        _, log = train(dataset, tiny_config(adjacency_norm="sym", max_epochs=2))
        assert np.isfinite(log.epochs[-1]["train_loss"])

    @pytest.mark.parametrize("ablation", ["no-local-graph", "no-graph-conv",
                                          "no-ae", "no-rec-decoder"])
    def test_every_ablation_variant_trains(self, ablation):
        dataset = tiny_dataset()
        model, log = train(dataset, tiny_config(ablation=ablation, max_epochs=2))
        assert np.isfinite(log.epochs[-1]["train_loss"])
        assert model.config.ablation == ablation

    def test_window_mismatch_rejected(self):
        dataset = tiny_dataset(window=4)
        with pytest.raises(ValueError):
            train(dataset, tiny_config(window=5))

    def test_early_stop_on_plateau(self):
        # zero learning rate: the validation loss can never improve after
        # epoch 1, so training stops exactly at 1 + patience epochs
        dataset = tiny_dataset()
        _, log = train(dataset, tiny_config(max_epochs=60, patience=2, lr=0.0))
        assert log.stopped_early
        assert len(log.epochs) == 3
        assert log.best_epoch == 1


class TestValidation:
    def test_runs_in_batch_size_chunks(self, monkeypatch):
        dataset = tiny_dataset()                    # 116 windows
        cfg = tiny_config(max_epochs=1, val_fraction=0.3, batch_size=16)
        n_val = round(0.3 * len(dataset))
        n_train = len(dataset) - n_val
        sizes = []
        module = importlib.import_module("canet.train")    # canet.train is the function
        forward = module.can_forward

        def counted(x, model, **kwargs):
            sizes.append(x.shape[0])
            return forward(x, model, **kwargs)

        monkeypatch.setattr(module, "can_forward", counted)
        train(dataset, cfg)
        n_steps = math.ceil(n_train / cfg.batch_size)
        assert len(sizes) == n_steps + math.ceil(n_val / cfg.batch_size)
        assert sizes[n_steps:] == [16, 16, 3]       # 35 validation windows

    @pytest.mark.parametrize("ablation", ["none", "no-rec-decoder"])
    @pytest.mark.parametrize("chunk", [1, 7, 16, 35, 64])
    def test_chunked_loss_equals_one_taped_batch(self, ablation, chunk):
        dataset = tiny_dataset()
        cfg = tiny_config(ablation=ablation)
        model = CanModel(cfg.model_config(dataset.n_sensors), seed=3)
        val = np.arange(len(dataset) - 35, len(dataset))
        expected = _batch_loss(model, dataset, val, 0.2, 0.8).item()
        assert _validation_loss(model, dataset, val, 0.2, 0.8, chunk) == expected

    def test_records_no_tape(self, recorded_creators):
        dataset = tiny_dataset()
        cfg = tiny_config()
        model = CanModel(cfg.model_config(dataset.n_sensors), seed=3)
        val = np.arange(len(dataset) - 35, len(dataset))
        _validation_loss(model, dataset, val, 0.2, 0.8, 16)
        assert recorded_creators and not any(recorded_creators)
