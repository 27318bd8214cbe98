"""The full coupled-attention model: encoder, bottleneck, and two decoders.

The encoder stacks coupled attention layers (temporal self-attention plus
global-local graph convolution, each with residual + layer norm) over the
input window extended by a zero-initialized placeholder slot.  Each layer's
placeholder state is squeezed through a small autoencoder and handed to the
matching layer of both causal decoders: one predicts the next step, the
other reconstructs the window.  The module also sizes the batches of
windows a pass takes and runs independent windows on several threads.
"""

import contextvars
import ctypes
import os
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import List, Optional

import numpy as np

from canet.attention import AttentionParams, multi_head_attention, sinusoid_table
from canet.graph import (GraphConvParams, SensorGraph, build_sensor_graph,
                         global_local_conv, init_sensor_embedding, local_adjacency)
from canet.tensor import (ShapeError, Tensor, concat, glorot_uniform, layer_norm, matmul, ones,
                          relu, row_matmul, zeros)

BOTTLENECK_DIMS = (8, 4, 8)

ABLATIONS = ("none", "no-local-graph", "no-graph-conv", "no-ae", "no-rec-decoder")


class ConfigError(ValueError):
    """Bad configuration key or value."""


def _knob(default, help_text: str, valid=None, **kwargs):
    """A config field carrying its flag help and its valid range, given as
    ``(test, description)``; NaN fails every range."""
    return field(default=default, metadata={"help": help_text, "valid": valid}, **kwargs)


def _one_of(*choices):
    return (lambda v: v in choices), "one of " + ", ".join(choices)


_POSITIVE = (lambda v: v >= 1), ">= 1"
_UNIT = (lambda v: 0 <= v <= 1), "in [0, 1]"


@dataclass
class ModelKnobs:
    """The knobs that fix the parameter set, each declared once with its
    default, help text and valid range.  A value of another type than its
    field's (a bool is no int; an int serves as a float) or out of range
    raises :class:`ConfigError` naming the key."""

    window: int = _knob(5, "history length per window", _POSITIVE)
    layers: int = _knob(3, "encoder/decoder layer count", _POSITIVE)
    heads: int = _knob(8, "attention heads per layer", _POSITIVE)
    model_dim: int = _knob(32, "channel width of the model", _POSITIVE)
    embed_dim: int = _knob(10, "sensor embedding width", _POSITIVE)
    neighbor_k: int = _knob(10, "neighbour candidates kept per sensor", _POSITIVE)
    retain: float = _knob(0.8, "share of the original state kept by graph propagation", _UNIT)
    ablation: str = _knob("none", "model variant", _one_of(*ABLATIONS))

    def __post_init__(self):
        for f in fields(self):
            value, valid = getattr(self, f.name), f.metadata["valid"]
            kinds = (int, float) if f.type is float else f.type
            if not isinstance(value, kinds) or isinstance(value, bool) != (f.type is bool):
                raise ConfigError(f"config key {f.name!r} must be of type {f.type.__name__}, "
                                  f"got {value!r}")
            if valid and not valid[0](value):
                raise ConfigError(f"config key {f.name!r} must be {valid[1]}, got {value!r}")
        if self.model_dim % self.heads != 0:
            raise ConfigError(
                f"config key 'model_dim' ({self.model_dim}) must be divisible by "
                f"'heads' ({self.heads})")


@dataclass
class ModelConfig(ModelKnobs):
    """Everything that determines the parameter set."""

    n_sensors: int = _knob(MISSING, "sensors per window", _POSITIVE, kw_only=True)


@dataclass
class Linear:
    """``x @ weight + bias``, from a Glorot weight and a zero bias."""

    weight: Tensor
    bias: Tensor

    @staticmethod
    def create(fan_in: int, fan_out: int, rng: np.random.Generator) -> "Linear":
        return Linear(glorot_uniform(rng, (fan_in, fan_out)), zeros((fan_out,)))

    def __call__(self, x: Tensor) -> Tensor:
        return matmul(x, self.weight) + self.bias


@dataclass
class CamLayerParams:
    """One coupled attention layer: attention sublayer + graph sublayer."""

    attention: AttentionParams
    graph: Optional[GraphConvParams]
    dense: Optional[Tensor]            # replaces the graph sublayer when set
    use_local: bool
    ln_attn_gain: Tensor
    ln_attn_bias: Tensor
    ln_graph_gain: Tensor
    ln_graph_bias: Tensor


@dataclass
class DecoderLayerParams:
    attention: AttentionParams
    ln_gain: Tensor
    ln_bias: Tensor


@dataclass
class ForwardOutput:
    y_pred: Tensor                     # (..., n_sensors)
    y_rec: Optional[Tensor]            # (..., n_sensors, window)


class CanModel:
    """Parameter container plus the forward passes defined below."""

    def __init__(self, config: ModelConfig, seed: int):
        self.config = config
        rng = np.random.default_rng(seed)
        cfg = config
        seq = cfg.window + 1

        self.embedding = init_sensor_embedding(cfg.n_sensors, cfg.embed_dim, rng)
        self.input = Linear.create(1, cfg.model_dim, rng)
        self.positions = Tensor(sinusoid_table(seq, cfg.model_dim))

        self.encoder: List[CamLayerParams] = []
        for _ in range(cfg.layers):
            attention = AttentionParams.create(cfg.model_dim, cfg.heads, rng)
            if cfg.ablation == "no-graph-conv":
                graph, dense = None, glorot_uniform(rng, (cfg.model_dim, cfg.model_dim))
            else:
                graph = GraphConvParams.create(cfg.model_dim, seq, cfg.retain, rng)
                dense = None
            self.encoder.append(CamLayerParams(
                attention=attention, graph=graph, dense=dense,
                use_local=cfg.ablation != "no-local-graph",
                ln_attn_gain=ones((cfg.model_dim,)),
                ln_attn_bias=zeros((cfg.model_dim,)),
                ln_graph_gain=ones((cfg.model_dim,)),
                ln_graph_bias=zeros((cfg.model_dim,)),
            ))

        # the autoencoder between encoder and decoders: width -> 8 -> 4 -> 8 -> width
        dims = (cfg.model_dim,) + BOTTLENECK_DIMS + (cfg.model_dim,)
        self.bottleneck = None if cfg.ablation == "no-ae" else [
            Linear.create(a, b, rng) for a, b in zip(dims, dims[1:])]

        self.pre_decoder = [self._decoder_layer(rng) for _ in range(cfg.layers)]
        if cfg.ablation == "no-rec-decoder":
            self.rec_decoder = None
        else:
            self.rec_decoder = [self._decoder_layer(rng) for _ in range(cfg.layers)]

        self.pred_head = Linear.create(cfg.model_dim, 1, rng)
        self.rec_head = None if self.rec_decoder is None else Linear.create(cfg.model_dim, 1, rng)

    def _decoder_layer(self, rng) -> DecoderLayerParams:
        cfg = self.config
        return DecoderLayerParams(
            attention=AttentionParams.create(cfg.model_dim, cfg.heads, rng),
            ln_gain=ones((cfg.model_dim,)),
            ln_bias=zeros((cfg.model_dim,)),
        )

    def named_parameters(self):
        """``(name, tensor)`` for every parameter, in checkpoint and Adam order (that of
        ``__init__``'s assignments); a name is its path of attributes, fields and indices."""
        for prefix, node in vars(self).items():
            yield from _named_tensors(node, prefix)

    def parameters(self) -> List[Tensor]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def _as_input(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.embedding.dtype))
        n, k = x.shape[-2], x.shape[-1]
        if n != self.config.n_sensors or k != self.config.window:
            raise ShapeError(
                f"input shape {x.shape} does not match model "
                f"(n_sensors={self.config.n_sensors}, window={self.config.window})")
        return x

    def _lift(self, columns: Tensor, seq_len: int) -> Tensor:
        """Project scalar slots to model width and add position rows."""
        return self.input(columns) + self.positions.data[:seq_len]


def _named_tensors(node, prefix: str):
    """``(name, tensor)`` for each ``requires_grad`` tensor under ``node``,
    found through dataclass fields in declaration order and list items by
    index; a name is ``prefix`` and that path, joined with dots."""
    if isinstance(node, Tensor):
        if node.requires_grad:
            yield prefix, node
    elif is_dataclass(node):
        for f in fields(node):
            yield from _named_tensors(getattr(node, f.name), f"{prefix}.{f.name}")
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _named_tensors(item, f"{prefix}.{i}")


def cam_forward(features: Tensor, layer: CamLayerParams, graph: SensorGraph,
                last_slot: bool = False) -> Tensor:
    """One coupled attention layer on (..., n_sensors, seq, width).

    With ``last_slot`` the graph sublayer and its layer norm run on the
    final slot only, giving (..., n_sensors, width); attention and the
    local graph still read every slot.
    """
    h1 = layer_norm(multi_head_attention(features, layer.attention, causal=False),
                    layer.ln_attn_gain, layer.ln_attn_bias)
    local = local_adjacency(h1, layer.graph) if layer.dense is None and layer.use_local else None
    if last_slot:
        h1 = h1[..., -1, :]
    if layer.dense is not None:
        sub = row_matmul(h1, layer.dense)
    else:
        sub = global_local_conv(h1, graph, local, layer.graph, slots=not last_slot)
    return layer_norm(h1 + sub, layer.ln_graph_gain, layer.ln_graph_bias)


def encoder_forward(x, model: CanModel) -> List[Tensor]:
    """Run the encoder over a window; returns the per-layer placeholder
    embeddings, (..., n_sensors, width) each.

    The window is extended by a zero-valued placeholder occupying the final
    time slot; each layer's embedding is its state at that slot, and the
    last layer computes only that slot.
    """
    x = model._as_input(x).data            # a constant: the slots are built off the tape
    lead = x.shape[:-2]
    n, k = x.shape[-2], x.shape[-1]
    placeholder = np.zeros(lead + (n, 1, 1), dtype=x.dtype)
    h = model._lift(Tensor(np.concatenate([x[..., None], placeholder], axis=-2)), k + 1)

    needs_graph = any(layer.dense is None for layer in model.encoder)
    graph = build_sensor_graph(model.embedding, model.config.neighbor_k) if needs_graph else None
    embeddings = []
    for layer in model.encoder[:-1]:
        h = cam_forward(h, layer, graph)
        embeddings.append(h[..., -1, :])
    embeddings.append(cam_forward(h, model.encoder[-1], graph, last_slot=True))
    return embeddings


def bottleneck_ae(embedding: Tensor, layers: List[Linear]) -> Tensor:
    """width -> 8 -> 4 -> 8 -> width with relu between layers, linear last."""
    out = layers[0](embedding)
    for layer in layers[1:]:
        out = layer(relu(out))
    return out


def decoder_forward(seed: Tensor, layer_embeddings: List[Tensor],
                    layers: List[DecoderLayerParams], crop_len: int) -> Tensor:
    """Causal decoder: each layer prepends its encoder embedding as one time
    slot and attends with a lower-triangular mask; the last layer computes
    only the final ``crop_len`` slots of the sequence, which it returns."""
    if len(layer_embeddings) != len(layers):
        raise ShapeError(
            f"{len(layer_embeddings)} embeddings for {len(layers)} decoder layers")
    seq_len = seed.shape[-2] + len(layers)
    if crop_len > seq_len:
        raise ShapeError(f"crop length {crop_len} exceeds sequence length {seq_len}")
    running = seed
    for i, (emb, layer) in enumerate(zip(layer_embeddings, layers)):
        slot = emb.reshape(emb.shape[:-1] + (1, emb.shape[-1]))
        running = concat([slot, running], axis=-2)
        rows = crop_len if i == len(layers) - 1 else None
        running = layer_norm(multi_head_attention(running, layer.attention, causal=True, rows=rows),
                             layer.ln_gain, layer.ln_bias)
    return running


def can_forward(x, model: CanModel, reconstruct: bool = True) -> ForwardOutput:
    """Full forward pass: next-step prediction and window reconstruction.

    ``reconstruct=False`` skips the reconstruction decoder (``y_rec`` is
    None); the prediction does not depend on it."""
    x = model._as_input(x)
    lead = x.shape[:-2]
    n, k = x.shape[-2], x.shape[-1]

    embeddings = encoder_forward(x, model)
    squeezed = embeddings if model.bottleneck is None else [
        bottleneck_ae(e, model.bottleneck) for e in embeddings]

    zero_slot = np.zeros(lead + (n, 1, 1), dtype=x.dtype)
    pre_seed = model._lift(Tensor(zero_slot), 1)
    pre_out = decoder_forward(pre_seed, squeezed, model.pre_decoder, crop_len=1)
    y_pred = model.pred_head(pre_out).reshape(lead + (n,))

    y_rec = None
    if reconstruct and model.rec_decoder is not None:
        history = x.data[..., : k - 1, None]
        rec_seed = model._lift(Tensor(np.concatenate([zero_slot, history], axis=-2)), k)
        rec_out = decoder_forward(rec_seed, squeezed, model.rec_decoder, crop_len=k)
        y_rec = model.rec_head(rec_out).reshape(lead + (n, k))

    return ForwardOutput(y_pred=y_pred, y_rec=y_rec)


def inference_batch_size(model: CanModel) -> int:
    """Windows per inference batch when none is given: as many as fit one
    activation, (n_sensors, window + 1, model_dim) values of the parameters'
    dtype per window, in 1 MiB (half of a 2 MiB L2 cache), clamped to 1..256."""
    cfg, itemsize = model.config, model.embedding.dtype.itemsize
    window_bytes = cfg.n_sensors * (cfg.window + 1) * cfg.model_dim * itemsize
    return min(256, max(1, (1 << 20) // window_bytes))


def micro_batch_size(model: CanModel) -> int:
    """Windows per training micro-batch: the largest power of two that is at
    most ``max(1, inference_batch_size // layers)``.  It depends on the model
    only, never on the thread count.

    Every layer records its own tape, 12-14 activation-sized arrays per
    window (16 paper-width windows record 7.5 MB at 1 layer and 25.7 MB at
    3), so the size is divided by depth to bound a micro-batch's tape."""
    windows = max(1, inference_batch_size(model) // model.config.layers)
    return 1 << (windows.bit_length() - 1)


def window_threads() -> int:
    """Threads over independent windows: ``CAN_THREADS``, by default every
    core this process may run on.  A value that is not an integer >= 1
    raises :class:`ConfigError`."""
    raw = os.environ.get("CAN_THREADS")
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError(f"CAN_THREADS must be an integer >= 1, got {raw!r}")
    return threads


def _one_blas_thread() -> None:
    """Run numpy's bundled OpenBLAS (``scipy_openblas64_``) on one thread,
    so that no product's last bits depend on the core count; elsewhere do
    nothing.  Parallelism comes from the window threads (``CAN_THREADS``)."""
    try:
        from numpy._core import _multiarray_umath
        setter = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return
    setter.argtypes, setter.restype = (ctypes.c_int,), None
    setter(1)


@contextmanager
def window_map(threads: int):
    """A ``map(fn, items)`` over a sequence, results in item order, computed
    on ``threads`` threads.  Each pooled task runs in a copy of the calling
    thread's context, so numpy's error state carries over.  One thread (or
    none) is the builtin ``map`` on the calling thread, with no thread pool
    loaded, and so is a call of fewer than two items.  Entering it first
    puts BLAS on one thread (:func:`_one_blas_thread`)."""
    _one_blas_thread()
    if threads <= 1:
        yield map
        return
    from concurrent.futures import ThreadPoolExecutor      # loaded only for a pool
    with ThreadPoolExecutor(max_workers=threads) as pool:
        def pooled(fn, items):
            if len(items) < 2:
                return map(fn, items)
            return [task.result() for task in [
                pool.submit(contextvars.copy_context().run, fn, item) for item in items]]
        yield pooled
