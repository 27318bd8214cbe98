import argparse
import importlib
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from canet.cli import resolve_train_config
from canet.data import RawSeries, make_windows, minmax_apply, minmax_fit
from canet.synth import synth_generate
from canet.model import CanModel, ModelConfig, micro_batch_size, window_map, window_threads
from canet.optim import Adam
from canet.tensor import Tensor, backward
from canet.train import (ConfigError, DivergenceError, TrainConfig, _batch_loss,
                         _set_gradients, _validation_loss, joint_loss, prediction_loss,
                         reconstruction_loss, train)
from conftest import float64, traced_peak


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


def test_import_binds_the_submodule():
    import canet.train as module            # the package re-exports no name that shadows it
    assert module._validation_loss is _validation_loss


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
    """The early-stopping rule as :func:`train` runs it."""

    @staticmethod
    def train_on(monkeypatch, val_losses, patience):
        """The log of a run whose epochs read ``val_losses`` in turn; an
        epoch past their end raises StopIteration."""
        module = importlib.import_module("canet.train")
        losses = iter(val_losses)
        monkeypatch.setattr(module, "_validation_loss", lambda *args: next(losses))
        cfg = tiny_config(max_epochs=len(val_losses) + 3, patience=patience)
        return train(tiny_dataset(length=60), cfg)[1]

    def test_patience_semantics(self, monkeypatch):
        log = self.train_on(monkeypatch, [1.0, 0.9, 0.91, 0.92, 0.93, 0.94, 0.95], patience=5)
        assert len(log.epochs) == 7
        assert (log.best_epoch, log.best_val_loss) == (2, 0.9)

    def test_improvement_resets_counter(self, monkeypatch):
        log = self.train_on(monkeypatch, [1.0, 1.1, 0.9, 1.0, 1.0], patience=2)
        assert len(log.epochs) == 5
        assert (log.best_epoch, log.best_val_loss) == (3, 0.9)


def resolve(mapping, tmp_path) -> TrainConfig:
    """``resolve_train_config`` of ``mapping`` written as a config file, with
    ``--seed 0`` as the one flag."""
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{key}={value}\n" for key, value in mapping.items()))
    return resolve_train_config(argparse.Namespace(config=path, seed=0))


class TestConfigParsing:
    def test_from_mapping_coerces_types(self, tmp_path):
        cfg = resolve({"window": "7", "lr": "0.01", "can_plus": "true", "ablation": "no-ae"},
                      tmp_path)
        assert cfg.window == 7 and cfg.lr == 0.01 and cfg.can_plus is True
        assert cfg.ablation == "no-ae"

    def test_unknown_key_lists_valid_ones(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            resolve({"widnow": "7"}, tmp_path)
        assert "widnow" in str(err.value) and "window" in str(err.value)

    def test_bad_value_reported(self, tmp_path):
        with pytest.raises(ConfigError):
            resolve({"window": "five"}, tmp_path)
        with pytest.raises(ConfigError):
            resolve({"can_plus": "maybe"}, tmp_path)

    def test_bad_ablation_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(ablation="nothing")

    @pytest.mark.parametrize("key, value", [
        ("score_sensors", 2.5), ("downsample", 2.5), ("can_plus", "no"), ("window", True),
        ("can_plus", 1), ("lr", "0.1"), ("ablation", None), ("retain", 1j),
    ])
    def test_value_of_another_type_names_its_key(self, key, value):
        with pytest.raises(ConfigError, match=f"config key '{key}' must be of type"):
            TrainConfig(**{key: value})

    def test_int_serves_as_float(self):
        assert TrainConfig(lr=1, retain=0).lr == 1

    def test_can_plus_needs_rec_decoder(self):
        with pytest.raises(ConfigError, match="'can_plus'.*'ablation'"):
            TrainConfig(can_plus=True, ablation="no-rec-decoder")
        assert TrainConfig(can_plus=True, ablation="no-ae").can_plus


class TestTrainLoop:
    def test_loss_decreases_and_log_is_complete(self):
        dataset = tiny_dataset()
        _, log = train(dataset, tiny_config(max_epochs=6))
        assert len(log.epochs) <= 6
        first, last = log.epochs[0], log.epochs[-1]
        assert last["train_loss"] < first["train_loss"]
        for entry in log.epochs:
            assert set(entry) == {"epoch", "train_loss", "val_loss", "phi", "lr"}

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

    def test_each_epoch_is_handed_over_as_it_ends(self):
        seen = []
        _, log = train(tiny_dataset(), tiny_config(max_epochs=3), on_epoch=seen.append)
        assert seen == log.epochs and len(seen) == 3

        # a fault after epoch 2 finds epochs 1 and 2 already handed over
        stopped = []

        def stop_after_two(entry):
            stopped.append(entry)
            if entry["epoch"] == 2:
                raise InterruptedError("stop")

        with pytest.raises(InterruptedError, match="stop"):
            train(tiny_dataset(), tiny_config(max_epochs=3), on_epoch=stop_after_two)
        assert stopped == log.epochs[:2]

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

    def test_one_window_is_too_few(self):
        dataset = make_windows(RawSeries(["a"], np.zeros((1, 5))), 4)
        with pytest.raises(ValueError, match="training needs 2 windows, one to fit and one "
                                             "to validate; the dataset has 1"):
            train(dataset, tiny_config())

    def test_val_fraction_that_leaves_no_training_window_names_itself(self):
        dataset = make_windows(RawSeries(["a"], np.zeros((1, 8))), 4)
        with pytest.raises(ValueError, match="val_fraction 0.9 holds out 4 of 4 windows "
                                             "and leaves none to train on"):
            train(dataset, tiny_config(val_fraction=0.9))

    def test_early_stop_on_plateau(self):
        # zero learning rate: the validation loss can never improve after
        # epoch 1, so training stops exactly at 1 + patience epochs
        dataset = tiny_dataset()
        _, log = train(dataset, tiny_config(max_epochs=60, patience=2, lr=0.0))
        assert len(log.epochs) == 3
        assert log.best_epoch == 1


class TestValidation:
    def test_runs_in_batch_size_chunks(self, monkeypatch):
        dataset = tiny_dataset()                    # 116 windows
        cfg = tiny_config(max_epochs=1, val_fraction=0.3, batch_size=16)
        n_val = round(0.3 * len(dataset))
        n_train = len(dataset) - n_val
        sizes = []
        module = importlib.import_module("canet.train")
        forward = module.can_forward

        def counted(x, model, **kwargs):
            sizes.append(x.shape[0])
            return forward(x, model, **kwargs)

        monkeypatch.setattr(module, "can_forward", counted)
        # on one thread the counter sees the chunks in their order; on more,
        # a chunk may enter can_forward before the one ahead of it
        monkeypatch.setenv("CAN_THREADS", "1")
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


class TestMicroBatches:
    PAPER = dict(layers=3, heads=8, model_dim=32, embed_dim=10, neighbor_k=10)
    DESK = dict(layers=1, heads=4, model_dim=16, embed_dim=8, neighbor_k=5)

    @staticmethod
    def one_pass(model, dataset, batch):
        """(loss, {name: gradient}) of one taped pass over ``batch``."""
        loss = _batch_loss(model, dataset, batch, 0.2, 0.8)
        grads = backward(loss)
        return loss.item(), {name: grads[p] for name, p in model.named_parameters()}

    @staticmethod
    def float64_setup():
        dataset = tiny_dataset(n_sensors=12, length=60)
        model = float64(CanModel(tiny_config().model_config(12), seed=1))
        return model, dataset, np.random.default_rng(2).permutation(37)

    @pytest.mark.parametrize("micro", [16, 10, 36], ids=["16+16+5", "10+10+10+7", "36+1"])
    def test_weighted_sum_matches_one_pass(self, micro):
        model, dataset, batch = self.float64_setup()
        loss, expected = self.one_pass(model, dataset, batch)
        value = _set_gradients(model, model.parameters(), dataset, batch, 0.2, 0.8, micro)
        np.testing.assert_allclose(value, loss, rtol=1e-10)
        for name, p in model.named_parameters():
            np.testing.assert_allclose(p.grad, expected[name], rtol=1e-10, err_msg=name)

    def test_one_micro_batch_is_one_pass_bit_for_bit(self):
        model, dataset, batch = self.float64_setup()
        loss, expected = self.one_pass(model, dataset, batch)
        assert _set_gradients(model, model.parameters(), dataset, batch, 0.2, 0.8,
                              len(batch)) == loss
        for name, p in model.named_parameters():
            assert p.grad.tobytes() == expected[name].tobytes(), name

    def test_threads_never_change_the_bytes(self):
        # more threads than cores, switching often: a lost or reordered
        # update of a shared gradient would change the bytes
        dataset = tiny_dataset(n_sensors=12, length=60)
        model = CanModel(tiny_config().model_config(12), seed=1)
        batch = np.arange(37)
        serial = _set_gradients(model, model.parameters(), dataset, batch, 0.2, 0.8, 4)
        grads = [p.grad for p in model.parameters()]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with window_map(len(os.sched_getaffinity(0)) + 2) as map_windows:
                threaded = _set_gradients(model, model.parameters(), dataset, batch, 0.2, 0.8,
                                          4, map_windows)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
        for before, p in zip(grads, model.parameters()):
            assert p.grad.dtype == np.float32 and p.grad.tobytes() == before.tobytes()

    def test_only_parallel_work_leaves_the_calling_thread(self):
        # a lone micro-batch has nothing to run beside it; two items go to the
        # pool and come back in item order, the first finishing last
        def task(item):
            time.sleep(0.05 if item == 0 else 0.0)
            return item, threading.get_ident()

        caller = threading.get_ident()
        with window_map(2) as map_windows:
            lone = list(map_windows(task, [0]))
            pair = list(map_windows(task, [0, 1]))
        assert lone == [(0, caller)]
        assert [item for item, _ in pair] == [0, 1]
        assert caller not in {ident for _, ident in pair}

    # one power of two at most inference_batch_size // layers, and at least 1
    @pytest.mark.parametrize("sensors, knobs, dtype, size", [
        (51, PAPER, np.float32, 8),
        (5, DESK, np.float32, 256),
        (51, dict(PAPER, layers=1), np.float32, 16),
        (51, PAPER, np.float64, 4),
        (2000, PAPER, np.float32, 1),
    ], ids=["paper", "desk", "paper-1-layer", "paper-float64", "2000-sensors"])
    def test_size_depends_on_the_model_only(self, monkeypatch, sensors, knobs, dtype, size):
        model = CanModel(ModelConfig(window=5, n_sensors=sensors, **knobs), seed=0)
        if dtype is np.float64:
            float64(model)
        for threads in ("1", "3"):
            monkeypatch.setenv("CAN_THREADS", threads)
            assert micro_batch_size(model) == size

    def test_threads_default_to_the_usable_cores(self, monkeypatch):
        monkeypatch.delenv("CAN_THREADS", raising=False)
        assert window_threads() == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("value", ["0", "two"])
    def test_bad_thread_count_is_a_config_error(self, monkeypatch, value):
        monkeypatch.setenv("CAN_THREADS", value)
        with pytest.raises(ConfigError, match="CAN_THREADS"):
            train(tiny_dataset(), tiny_config(max_epochs=1))


class TestUnreachedParameters:
    """A parameter that the loss does not reach gets no gradient, and Adam
    leaves it and its moments as they are.  12 sensors: at tiny_config's 3
    the bottleneck ReLUs are dead at init, so every encoder parameter gets
    a zero gradient and a skipped step could not be told from a taken one."""

    @staticmethod
    def embedding_step(ablation):
        """(embedding gradient, embedding and moment bytes before and after
        one step, Adam's step count) over 3 micro-batches."""
        dataset = tiny_dataset(n_sensors=12, length=60)
        model = CanModel(tiny_config(ablation=ablation).model_config(12), seed=1)
        optimizer = Adam(model.parameters(), lr=1e-3)
        i = next(i for i, p in enumerate(optimizer.params) if p is model.embedding)
        # moments that a zero gradient would decay, so only a skip keeps them
        optimizer.m[i][...] = 0.5
        optimizer.v[i][...] = 0.25

        def state():
            return [a.tobytes() for a in (model.embedding.data, optimizer.m[i], optimizer.v[i])]

        before = state()
        _set_gradients(model, model.parameters(), dataset, np.arange(37), 0.2, 0.8, 16)
        grad = model.embedding.grad
        optimizer.step()
        return grad, before, state(), optimizer.t

    def test_unreached_embedding_is_not_stepped(self):
        grad, before, after, t = self.embedding_step("no-graph-conv")
        assert grad is None
        assert after == before and t == 1

    def test_reached_embedding_is_stepped(self):
        grad, before, after, t = self.embedding_step("none")
        assert np.abs(grad).sum() > 0
        assert all(a != b for a, b in zip(after, before)) and t == 1


# A paper-width library call to train() in a fresh interpreter, which
# prints a digest of the trained parameters.
LIBRARY_TRAIN = """
import hashlib
from canet.data import make_windows, minmax_apply, minmax_fit
from canet.synth import synth_generate
from canet.train import TrainConfig, train
series = synth_generate(51, 100, 0).train
dataset = make_windows(minmax_apply(series, minmax_fit(series)), 5)
cfg = TrainConfig(window=5, layers=3, heads=8, model_dim=32, embed_dim=10, neighbor_k=10,
                  batch_size=40, max_epochs=1, seed=1)
model, _ = train(dataset, cfg)
print(hashlib.sha256(b"".join(p.data.tobytes() for p in model.parameters())).hexdigest())
"""


class TestLibraryThreadPolicy:
    def test_train_bytes_never_depend_on_blas_threads(self):
        # train() itself puts BLAS on one thread; no CLI entry point runs here
        src = Path(__file__).resolve().parents[1] / "src"
        digests = set()
        for blas in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=blas,
                       CAN_THREADS="1")
            done = subprocess.run([sys.executable, "-c", LIBRARY_TRAIN], env=env,
                                  capture_output=True, text=True, timeout=600)
            assert done.returncode == 0, done.stderr
            digests.add(done.stdout)
        assert len(digests) == 1

class TestStepMemory:
    # tracemalloc peak of the two steps below: 3.71 MiB with a tape that
    # frees itself in backward, 16.70 MiB when every op kept its inputs,
    # every tensor its gradient and the previous step's graph lived on
    # through its loss.  The bound leaves about 60 % of headroom.
    PEAK_BOUND_MIB = 6.0

    def test_two_steps_peak_under_bound(self):
        result = synth_generate(12, 80, 0)
        dataset = make_windows(minmax_apply(result.train, minmax_fit(result.train)), 5)
        cfg = TrainConfig(window=5, layers=2, heads=4, model_dim=16, embed_dim=8,
                          neighbor_k=4, batch_size=16, seed=0)
        model = CanModel(cfg.model_config(dataset.n_sensors), seed=0)
        optimizer = Adam(model.parameters(), lr=1e-3)

        def two_steps():
            for start in (0, 16):       # as train() steps
                _set_gradients(model, model.parameters(), dataset,
                               np.arange(start, start + 16), 0.2, 0.8, 16)
                optimizer.step()

        peak = traced_peak(two_steps) / 2 ** 20
        assert peak < self.PEAK_BOUND_MIB, f"peak {peak:.2f} MiB"

    @staticmethod
    def paper_step_peak_mib() -> float:
        series = synth_generate(51, 100, 0).train
        dataset = make_windows(minmax_apply(series, minmax_fit(series)), 5)
        model = CanModel(ModelConfig(window=5, n_sensors=51, **TestMicroBatches.PAPER), seed=0)
        return traced_peak(lambda: _set_gradients(
            model, model.parameters(), dataset, np.arange(32), 0.2, 0.8,
            micro_batch_size(model))) / 2 ** 20

    # tracemalloc peak of one paper-width step of 32 windows: 23.6 MiB in
    # micro-batches of 8 (sized by depth), 46.7 MiB in micro-batches of 16
    PAPER_PEAK_BOUND_MIB = 32.0

    def test_paper_step_peak_under_bound(self):
        peak = self.paper_step_peak_mib()
        assert peak < self.PAPER_PEAK_BOUND_MIB, f"peak {peak:.2f} MiB"

    # the same step: 17.9 MiB when attention saves only its input and p and
    # recomputes q, k and v in backward, 23.7 MiB when it kept q·s, k and v
    PAPER_RECOMPUTE_BOUND_MIB = 20.5

    def test_paper_step_keeps_no_attention_projections(self):
        peak = self.paper_step_peak_mib()
        assert peak < self.PAPER_RECOMPUTE_BOUND_MIB, f"peak {peak:.2f} MiB"

    # the same step: 17.5 MiB when attention, layer norm and the backward walk
    # held each temporary until they returned, 16.3 MiB when each array goes
    # at its last read and the walk sums a node's later gradients in place
    PAPER_RELEASE_BOUND_MIB = 16.9

    def test_paper_step_frees_temporaries_at_last_use(self):
        peak = self.paper_step_peak_mib()
        assert peak < self.PAPER_RELEASE_BOUND_MIB, f"peak {peak:.2f} MiB"

    # the same step: 16.3 MiB when each attention layer's output projection
    # kept the heads' output (or the decoders' cropped rows) for its weight
    # gradient, 14.6 MiB when the attention op projects the output itself
    # and recomputes p·v in backward
    PAPER_OUTPUT_RECOMPUTE_BOUND_MIB = 15.4

    def test_paper_step_keeps_no_attention_output(self):
        peak = self.paper_step_peak_mib()
        assert peak < self.PAPER_OUTPUT_RECOMPUTE_BOUND_MIB, f"peak {peak:.2f} MiB"

    # the same step: 14.6 MiB when attention returned q's, k's and v's input
    # gradients apart and the residual's Add (and the decoders' Slice) handed
    # back another, for backward() to sum; 14.2 MiB when the op adds the
    # residual itself and sums the four into one input gradient
    PAPER_RESIDUAL_BOUND_MIB = 14.4

    def test_paper_step_sums_attention_input_gradient_in_the_op(self):
        peak = self.paper_step_peak_mib()
        assert peak < self.PAPER_RESIDUAL_BOUND_MIB, f"peak {peak:.2f} MiB"


class TestOpsPerStep:
    # Autodiff ops dispatched by one training step (the bench reports it as
    # tensor.ops_per_step), one of the two numbers the roadmap tracks for
    # design quality, and how many of them record a creator on the tape; the
    # rest act on constants only.  A change to these counts must be
    # deliberate and recorded in CHANGES.md with its reason.
    @pytest.mark.parametrize("sensors, knobs, batch, ops, recorded", [
        (5, dict(layers=1, heads=4, model_dim=16, embed_dim=8, neighbor_k=5), 64, 73, 73),
        (51, dict(layers=3, heads=8, model_dim=32, embed_dim=10, neighbor_k=10), 32, 159, 159),
    ], ids=["desk", "paper"])
    def test_training_step_records_exactly(self, rng, recorded_creators, sensors, knobs,
                                           batch, ops, recorded):
        model = CanModel(ModelConfig(window=5, n_sensors=sensors, **knobs), seed=0)
        series = RawSeries([f"s{i}" for i in range(sensors)], rng.random((sensors, batch + 5)))
        dataset = make_windows(series, 5)
        backward(_batch_loss(model, dataset, np.arange(batch), 0.2, 0.8))
        assert len(recorded_creators) == ops
        assert sum(recorded_creators) == recorded
