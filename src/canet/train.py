"""Joint prediction+reconstruction training with early stopping.

Each mini-batch runs the full forward pass, combines the two RMSE losses by
the scheduled weights, and takes one Adam step.  Every mini-batch is split
into micro-batches (:func:`canet.model.micro_batch_size`; one when it
fits) whose forward and backward passes run on the window threads, or on
the calling thread when there is only one.  Their gradients are summed on
the calling thread in micro-batch order, so the numbers do not depend on
the thread count, and reach Adam through each parameter's ``grad``.  The
learning rate decays per epoch; training stops when the validation loss
has not improved for ``patience`` consecutive epochs, and the
best-validation parameters are restored before returning.  The validation
loss runs without an autodiff tape, in chunks of one training micro-batch
spread over the threads the same way.
"""

from dataclasses import dataclass, field, fields
from typing import Callable, List, Optional, Tuple

import numpy as np

from canet.data import WindowedDataset
from canet.model import (_POSITIVE, _UNIT, CanModel, ConfigError, ModelConfig, ModelKnobs,
                         _knob, can_forward, micro_batch_size, window_map, window_threads)
from canet.optim import Adam
from canet.tensor import Tensor, backward, no_grad, sqrt


_NON_NEGATIVE = (lambda v: v >= 0), ">= 0"
_FINITE_NON_NEGATIVE = (lambda v: 0 <= v < np.inf), "finite and >= 0"


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass
class TrainConfig(ModelKnobs):
    """Model, training and scoring knobs; mirrored 1:1 by the key=value
    config file and the ``train`` flags.  Values out of range raise
    :class:`ConfigError`."""

    batch_size: int = _knob(32, "windows per optimizer step", _POSITIVE)
    lr: float = _knob(1e-4, "Adam learning rate", _FINITE_NON_NEGATIVE)
    lr_decay: float = _knob(0.95, "per-epoch learning-rate factor", _FINITE_NON_NEGATIVE)
    max_epochs: int = _knob(100, "training epoch cap", _POSITIVE)
    patience: int = _knob(5, "epochs without validation improvement before stopping", _POSITIVE)
    val_fraction: float = _knob(0.1, "series tail held out for validation",
                                ((lambda v: 0.0 <= v < 1.0), "in [0, 1)"))
    phi_start: float = _knob(0.2, "prediction-loss weight up to the switch epoch", _UNIT)
    phi_late: float = _knob(0.8, "prediction-loss weight after the switch epoch", _UNIT)
    switch_epoch: int = _knob(4, "last epoch on the early loss weights", _NON_NEGATIVE)
    seed: int = _knob(0, "run seed (required for train)", _NON_NEGATIVE)

    score_sensors: int = _knob(2, "deviations aggregated per timestamp", _POSITIVE)
    can_plus: bool = _knob(False, "fuse reconstruction deviation into the score")
    downsample: int = _knob(1, "median-downsampling factor applied to input series", _POSITIVE)

    def __post_init__(self):
        super().__post_init__()
        if self.can_plus and self.ablation == "no-rec-decoder":
            raise ConfigError("config key 'can_plus' needs the reconstruction decoder, "
                              "which config key 'ablation' = 'no-rec-decoder' removes")

    def loss_weights(self, epoch: int) -> Tuple[float, float]:
        """(phi, psi) for a 1-based epoch; phi + psi = 1 always."""
        phi = self.phi_start if epoch <= self.switch_epoch else self.phi_late
        return phi, 1.0 - phi

    def model_config(self, n_sensors: int) -> ModelConfig:
        return ModelConfig(n_sensors=n_sensors,
                           **{f.name: getattr(self, f.name) for f in fields(ModelKnobs)})


def _window_rmse(estimate: Tensor, actual: Tensor, axis) -> Tensor:
    diff = estimate - actual
    return sqrt((diff * diff).mean(axis=axis))


def prediction_loss(y_pred: Tensor, target: Tensor) -> Tensor:
    """RMSE over sensors; extra leading axes average their per-window RMSEs."""
    return _window_rmse(y_pred, target, -1).mean()


def reconstruction_loss(y_rec: Tensor, history: Tensor) -> Tensor:
    """RMSE over all sensor/timestamp cells of the window."""
    return _window_rmse(y_rec, history, (-2, -1)).mean()


def joint_loss(l_pre: Tensor, l_rec: Tensor, phi: float, psi: float) -> Tensor:
    if phi < 0 or psi < 0 or abs(phi + psi - 1.0) > 1e-9:
        raise ValueError(f"loss weights must be non-negative and sum to 1, got {phi}, {psi}")
    return phi * l_pre + psi * l_rec


@dataclass
class TrainLog:
    """Each epoch's record, and the lowest validation loss and its epoch."""

    epochs: List[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = np.inf


def train(dataset: WindowedDataset, cfg: TrainConfig,
          on_epoch: Callable[[dict], None] = lambda entry: None) -> Tuple[CanModel, TrainLog]:
    """Train on a windowed series, holding out its tail ``val_fraction`` of
    windows.  Training stops after ``patience`` epochs without a lower
    validation loss and returns the parameters of ``log.best_epoch``.  Each
    epoch's record goes to ``on_epoch`` as it ends, so a run that later
    raises :class:`DivergenceError` has already handed over its epochs."""
    if len(dataset) < 2:
        raise ValueError("training needs 2 windows, one to fit and one to validate; "
                         f"the dataset has {len(dataset)}")
    if dataset.window != cfg.window:
        raise ValueError(
            f"dataset window {dataset.window} does not match config window {cfg.window}")

    n_windows = len(dataset)
    n_val = max(1, int(round(cfg.val_fraction * n_windows)))
    n_train = n_windows - n_val
    if n_train < 1:
        raise ValueError(f"val_fraction {cfg.val_fraction} holds out {n_val} of {n_windows} "
                         "windows and leaves none to train on")
    val_indices = np.arange(n_train, n_windows)

    model = CanModel(cfg.model_config(dataset.n_sensors), seed=cfg.seed)
    params = model.parameters()     # walked once: a walk costs more than a step's bookkeeping
    micro = min(cfg.batch_size, micro_batch_size(model))     # windows per forward pass
    optimizer = Adam(params, lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    log = TrainLog()
    stale = 0       # epochs since the validation loss last fell
    best_state: Optional[list] = None

    # a diverging run reports itself once, through DivergenceError
    with window_map(window_threads()) as map_windows, np.errstate(over="ignore",
                                                                  invalid="ignore"):
        for epoch in range(1, cfg.max_epochs + 1):
            phi, psi = cfg.loss_weights(epoch)
            lr_now = optimizer.lr
            order = rng.permutation(n_train)

            total = 0.0
            for start in range(0, n_train, cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                value = _set_gradients(model, params, dataset, batch, phi, psi, micro,
                                       map_windows)
                if not np.isfinite(value):
                    raise DivergenceError(
                        f"non-finite training loss {value} at epoch {epoch}, "
                        f"batch starting {start}")
                optimizer.step()
                total += value * len(batch)
            train_loss = total / n_train

            val_loss = _validation_loss(model, dataset, val_indices, phi, psi, micro,
                                        map_windows)
            if not np.isfinite(val_loss):
                raise DivergenceError(f"non-finite validation loss at epoch {epoch}")

            log.epochs.append({"epoch": epoch, "train_loss": train_loss,
                               "val_loss": val_loss, "phi": phi, "lr": lr_now})
            on_epoch(log.epochs[-1])
            if val_loss < log.best_val_loss:
                log.best_epoch, log.best_val_loss, stale = epoch, val_loss, 0
                best_state = [p.data.copy() for p in params]
            else:
                stale += 1
            optimizer.lr *= cfg.lr_decay
            if stale >= cfg.patience:
                break

    if best_state is not None:
        for p, data in zip(params, best_state):
            p.data = data
    return model, log


def _batch_loss(model: CanModel, dataset: WindowedDataset, indices,
                phi: float, psi: float) -> Tensor:
    hist, targets = dataset.batch(indices)
    out = can_forward(Tensor(hist), model)
    l_pre = prediction_loss(out.y_pred, Tensor(targets))
    if out.y_rec is None:
        return l_pre
    l_rec = reconstruction_loss(out.y_rec, Tensor(hist))
    return joint_loss(l_pre, l_rec, phi, psi)


def _set_gradients(model: CanModel, params: List[Tensor], dataset: WindowedDataset, batch,
                   phi: float, psi: float, micro: int, map_windows=map) -> float:
    """Set the ``grad`` of each of ``params``, the model's parameters, to
    the gradient of the loss over ``batch`` and return that loss; a
    parameter the loss does not reach gets None, so :meth:`Adam.step`
    leaves it as it is.

    The batch is split into micro-batches of ``micro`` windows (one when it
    fits), which ``map_windows`` (see :func:`canet.model.window_map`) may
    run on any thread.  The loss is a mean over windows, so a micro-batch of
    n_i of the N windows enters the loss and the gradients with weight
    n_i / N, summed on the calling thread in micro-batch order.  A lone
    micro-batch runs on the calling thread with weight 1.0, and its
    gradients are handed over uncopied.
    """
    for p in params:
        p.grad = None

    def micro_batch(indices):
        loss = _batch_loss(model, dataset, indices, phi, psi)
        return len(indices) / len(batch), loss.item(), backward(loss)

    parts = [batch[i:i + micro] for i in range(0, len(batch), micro)]
    value = 0.0
    for weight, part_value, grads in map_windows(micro_batch, parts):
        value += weight * part_value
        for p, g in grads.items():
            g = g if weight == 1.0 else weight * g      # 1.0: the batch's only micro-batch
            p.grad = g if p.grad is None else p.grad + g
    return value


def _validation_loss(model: CanModel, dataset: WindowedDataset, indices,
                     phi: float, psi: float, chunk: int, map_windows=map) -> float:
    """``_batch_loss(...).item()`` over ``indices``, computed tape-free in
    chunks of ``chunk`` windows, one chunk per ``map_windows`` task.

    Each mean is taken once over the per-window RMSEs of every chunk, so
    the value is bit-identical to one pass over all windows.
    """
    def window_rmses(part):
        hist, targets = dataset.batch(part)
        with no_grad():     # per thread: the tape state is thread-local
            out = can_forward(Tensor(hist), model)
            pre = _window_rmse(out.y_pred, Tensor(targets), -1).data
            if out.y_rec is None:
                return pre, None
            return pre, _window_rmse(out.y_rec, Tensor(hist), (-2, -1)).data

    parts = [indices[start:start + chunk] for start in range(0, len(indices), chunk)]
    pre, rec = zip(*map_windows(window_rmses, parts))
    l_pre = Tensor(np.concatenate(pre)).mean()
    if rec[0] is None:
        return l_pre.item()
    return joint_loss(l_pre, Tensor(np.concatenate(rec)).mean(), phi, psi).item()
