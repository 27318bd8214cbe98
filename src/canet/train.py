"""Joint prediction+reconstruction training with early stopping.

Each mini-batch runs the full forward pass, combines the two RMSE losses by
the scheduled weights, and takes one Adam step.  The learning rate decays
per epoch; training stops when the validation loss has not improved for
``patience`` consecutive epochs, and the best-validation parameters are
restored before returning.  The validation loss runs without an autodiff
tape, one batch of windows at a time.
"""

from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple

import numpy as np

from canet.data import WindowedDataset
from canet.model import (_NON_NEGATIVE, _POSITIVE, _UNIT, CanModel, ConfigError, ModelConfig,
                         ModelKnobs, _knob, _one_of, can_forward)
from canet.optim import Adam
from canet.tensor import Tensor, backward, no_grad, sqrt


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass
class TrainConfig(ModelKnobs):
    """Model, training and scoring knobs; mirrored 1:1 by the key=value
    config file and the ``train`` flags.  Values out of range raise
    :class:`ConfigError`."""

    batch_size: int = _knob(32, "windows per optimizer step", _POSITIVE)
    lr: float = _knob(1e-4, "Adam learning rate", _NON_NEGATIVE)
    lr_decay: float = _knob(0.95, "per-epoch learning-rate factor", _NON_NEGATIVE)
    max_epochs: int = _knob(100, "training epoch cap", _POSITIVE)
    patience: int = _knob(5, "epochs without validation improvement before stopping", _POSITIVE)
    val_fraction: float = _knob(0.1, "series tail held out for validation",
                                ((lambda v: 0.0 <= v < 1.0), "in [0, 1)"))
    phi_start: float = _knob(0.2, "prediction-loss weight up to the switch epoch", _UNIT)
    phi_late: float = _knob(0.8, "prediction-loss weight after the switch epoch", _UNIT)
    switch_epoch: int = _knob(4, "last epoch on the early loss weights", _NON_NEGATIVE)
    seed: int = _knob(0, "run seed (required for train)", _NON_NEGATIVE)

    score_sensors: int = _knob(2, "deviations aggregated per timestamp", _POSITIVE)
    calibration: str = _knob("self", "deviation calibration source", _one_of("self", "train"))
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

    @classmethod
    def from_mapping(cls, mapping: dict) -> "TrainConfig":
        """Build from string-valued key=value pairs; unknown keys fail with
        the list of valid ones."""
        valid = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for key, raw in mapping.items():
            if key not in valid:
                raise ConfigError(
                    f"unknown config key {key!r}; valid keys: {', '.join(sorted(valid))}")
            kwargs[key] = _coerce(raw, valid[key], key)
        return cls(**kwargs)


def _coerce(raw, annotation, key):
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    if annotation in (bool, "bool"):
        low = text.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"config key {key!r} expects true/false, got {raw!r}")
    if annotation in (int, "int"):
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"config key {key!r} expects an integer, got {raw!r}") from None
    if annotation in (float, "float"):
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"config key {key!r} expects a number, got {raw!r}") from None
    return text


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


class EarlyStopper:
    """Stop after ``patience`` consecutive epochs without improvement."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = np.inf
        self.best_epoch = 0
        self.stale = 0

    def update(self, epoch: int, value: float) -> bool:
        """Record one epoch; returns True when training should stop."""
        if value < self.best:
            self.best = value
            self.best_epoch = epoch
            self.stale = 0
        else:
            self.stale += 1
        return self.stale >= self.patience


@dataclass
class TrainLog:
    epochs: List[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = np.inf
    stopped_early: bool = False
    n_parameters: int = 0


def train(dataset: WindowedDataset, cfg: TrainConfig) -> Tuple[CanModel, TrainLog]:
    """Train on a windowed series; the tail ``val_fraction`` of windows is
    held out for early stopping and best-checkpoint selection."""
    if len(dataset) < 2:
        raise ValueError(f"dataset has {len(dataset)} windows; need at least 2")
    if dataset.window != cfg.window:
        raise ValueError(
            f"dataset window {dataset.window} does not match config window {cfg.window}")

    n_windows = len(dataset)
    n_val = max(1, int(round(cfg.val_fraction * n_windows)))
    n_train = n_windows - n_val
    if n_train < 1:
        raise ValueError("validation split leaves no training windows")
    val_indices = np.arange(n_train, n_windows)

    model = CanModel(cfg.model_config(dataset.n_sensors), seed=cfg.seed)
    optimizer = Adam(model.parameters(), lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    stopper = EarlyStopper(cfg.patience)
    log = TrainLog(n_parameters=model.num_parameters())
    best_state: Optional[dict] = None

    for epoch in range(1, cfg.max_epochs + 1):
        phi, psi = cfg.loss_weights(epoch)
        lr_now = optimizer.lr
        order = rng.permutation(n_train)

        total = 0.0
        for start in range(0, n_train, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            loss = _batch_loss(model, dataset, batch, phi, psi)
            value = loss.item()
            if not np.isfinite(value):
                raise DivergenceError(
                    f"non-finite training loss {value} at epoch {epoch}, "
                    f"batch starting {start}")
            optimizer.zero_grad()
            backward(loss)
            optimizer.step()
            total += value * len(batch)
        train_loss = total / n_train

        val_loss = _validation_loss(model, dataset, val_indices, phi, psi, cfg.batch_size)
        if not np.isfinite(val_loss):
            raise DivergenceError(f"non-finite validation loss at epoch {epoch}")

        log.epochs.append({"epoch": epoch, "train_loss": train_loss,
                           "val_loss": val_loss, "phi": phi, "lr": lr_now})
        improved = val_loss < stopper.best
        should_stop = stopper.update(epoch, val_loss)
        if improved:
            best_state = {name: p.data.copy() for name, p in model.named_parameters()}
        optimizer.lr *= cfg.lr_decay
        if should_stop:
            log.stopped_early = True
            break

    log.best_epoch = stopper.best_epoch
    log.best_val_loss = stopper.best
    if best_state is not None:
        for name, p in model.named_parameters():
            p.data = best_state[name]
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


def _validation_loss(model: CanModel, dataset: WindowedDataset, indices,
                     phi: float, psi: float, chunk: int) -> float:
    """``_batch_loss(...).item()`` over ``indices``, computed tape-free in
    chunks of ``chunk`` windows.

    Each mean is taken once over the per-window RMSEs of every chunk, so
    the value is bit-identical to one pass over all windows.
    """
    pre, rec = [], []
    with no_grad():
        for start in range(0, len(indices), chunk):
            hist, targets = dataset.batch(indices[start:start + chunk])
            out = can_forward(Tensor(hist), model)
            pre.append(_window_rmse(out.y_pred, Tensor(targets), -1).data)
            if out.y_rec is not None:
                rec.append(_window_rmse(out.y_rec, Tensor(hist), (-2, -1)).data)
    l_pre = Tensor(np.concatenate(pre)).mean()
    if not rec:
        return l_pre.item()
    return joint_loss(l_pre, Tensor(np.concatenate(rec)).mean(), phi, psi).item()
