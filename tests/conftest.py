import json
import tracemalloc

import numpy as np
import pytest

import canet.tensor
from canet.attention import multi_head_attention
from canet.graph import build_sensor_graph, global_local_conv, local_adjacency
from canet.model import bottleneck_ae
from canet.tensor import (Tensor, backward, concat, layer_norm, matmul, no_grad, row_matmul,
                          softmax)

GRAD_RTOL = 1e-4


def finite_difference_gradient(f, x: Tensor, step: float = 1e-5) -> Tensor:
    """Central-difference gradient of scalar ``f`` at ``x``, one coordinate
    at a time.

    ``x.data`` is perturbed in place and restored; run it on float64 tensors,
    32-bit differencing is too noisy to act as an oracle.
    """
    data = x.data
    out = np.zeros(data.shape, dtype=np.float64)
    for idx in np.ndindex(data.shape):
        original = data[idx]
        data[idx] = original + step
        upper = _scalar(f(x))
        data[idx] = original - step
        lower = _scalar(f(x))
        data[idx] = original
        out[idx] = (upper - lower) / (2.0 * step)
    return Tensor(out)


def total(t: Tensor) -> Tensor:
    """The sum of ``t``'s elements as a 0-d tensor: the flattened ``t`` times a
    ones column of its dtype, so every element receives a gradient of exactly 1.0."""
    ones = Tensor(np.ones((t.size, 1), dtype=t.dtype))
    return matmul(t.reshape((1, t.size)), ones).reshape(())


def _scalar(value) -> float:
    if isinstance(value, Tensor):
        return value.item()
    return float(value)


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of what ``fn()`` allocates; tracing
    starts just before the call and stops after it, whatever it raises."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def max_rel_err(analytic: np.ndarray, reference: np.ndarray, floor: float = 1e-6) -> float:
    scale = np.maximum(floor, np.maximum(np.abs(analytic), np.abs(reference)))
    return float((np.abs(analytic - reference) / scale).max())


def assert_grads_match(build_loss, params, rtol: float = GRAD_RTOL, step: float = 1e-5):
    """Check autodiff against central differences, parameter by parameter.

    ``build_loss`` reconstructs the scalar loss from current parameter data;
    all ``params`` must be float64 tensors with requires_grad set.
    """
    for p in params:
        assert p.data.dtype == np.float64, "gradient checks run in 64-bit mode"
    grads = backward(build_loss())
    for p in params:
        fd = finite_difference_gradient(lambda _: build_loss(), p, step=step).data
        analytic = grads.get(p, np.zeros_like(p.data))
        err = max_rel_err(analytic, fd)
        assert err < rtol, f"gradient mismatch {err:.3e} on shape {p.shape}"


def rewrite_header(path, edit, out) -> None:
    """Copy the checkpoint at ``path`` to ``out`` with its JSON header line
    replaced by ``edit(header)``; the parameter data is kept."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        blob = handle.read()
    with open(out, "wb") as handle:
        handle.write(json.dumps(edit(header), sort_keys=True).encode() + b"\n" + blob)


def append_data_bytes(path, count: int, out) -> None:
    """Copy the checkpoint at ``path`` to ``out`` with ``count`` zero bytes
    after its parameter data, declared in the header's ``total_bytes``."""
    rewrite_header(path, lambda h: {**h, "total_bytes": h["total_bytes"] + count}, out)
    with open(out, "ab") as handle:
        handle.write(bytes(count))


# Header edits that no checkpoint loader may accept, by test id.
BAD_HEADERS = {
    "not-an-object": lambda h: 3,
    "params-not-a-list": lambda h: {**h, "params": 5},
    "extra-not-an-object": lambda h: {**h, "extra": [1]},
    "no-config": lambda h: {k: v for k, v in h.items() if k != "config"},
    "unknown-config-key": lambda h: {**h, "config": {**h["config"], "bogus": 1}},
    "neighbor-k-0": lambda h: {**h, "config": {**h["config"], "neighbor_k": 0}},
    "ablation-xx": lambda h: {**h, "config": {**h["config"], "ablation": "xx"}},
    "sensor-names-int": lambda h: {**h, "extra": {**h["extra"], "sensor_names": 3}},
    "sensor-names-too-few": lambda h: {**h, "extra": {**h["extra"], "sensor_names": ["a"]}},
    "sensor-names-repeated": lambda h: {
        **h, "extra": {**h["extra"], "sensor_names": ["a"] * h["config"]["n_sensors"]}},
    "offset-negative": lambda h: {
        **h, "params": h["params"][:-1] + [{**h["params"][-1], "offset": -8}]},
    "offsets-overlap": lambda h: {
        **h, "params": [h["params"][0], {**h["params"][1], "offset": h["params"][0]["offset"]},
                        *h["params"][2:]]},
    # an empty first copy keeps the offsets packed, so only the repeat is wrong
    "repeated-parameter": lambda h: {
        **h, "params": [{**h["params"][0], "shape": [0]}, *h["params"]]},
}


def window_history(dataset, j: int) -> np.ndarray:
    """History columns [j, j + window) of window ``j``, read off the series."""
    return dataset.values[:, j:j + dataset.window]


def window_target(dataset, j: int) -> np.ndarray:
    """Target column j + window of window ``j``, read off the series."""
    return dataset.values[:, j + dataset.window]


def full_slot_forward(x: np.ndarray, model):
    """Oracle for ``can_forward``: every slot passes through every layer,
    the last ones included, and the outputs are sliced afterwards.

    Returns the arrays ``(y_pred, y_rec, embeddings)``; ``y_rec`` is None
    without a reconstruction decoder.
    """
    cfg = model.config
    x = Tensor(np.asarray(x, dtype=model.embedding.dtype))
    lead, (n, k) = x.shape[:-2], x.shape[-2:]
    graph = build_sensor_graph(model.embedding, cfg.neighbor_k)

    def decode(seed, embeddings, layers, crop_len):
        running = seed
        for emb, layer in zip(embeddings, layers):
            running = concat([emb.reshape(emb.shape[:-1] + (1, -1)), running], axis=-2)
            running = layer_norm(multi_head_attention(running, layer.attention, causal=True),
                                 layer.ln_gain, layer.ln_bias)
        return running[..., -crop_len:, :]

    with no_grad():
        zero_slot = Tensor(np.zeros(lead + (n, 1, 1), dtype=model.embedding.dtype))
        h = model._lift(concat([x.reshape(x.shape + (1,)), zero_slot], axis=-2), k + 1)
        embeddings = []
        for layer in model.encoder:
            h1 = layer_norm(multi_head_attention(h, layer.attention),
                            layer.ln_attn_gain, layer.ln_attn_bias)
            if layer.dense is not None:
                sub = matmul(h1, layer.dense)
            else:
                local = local_adjacency(h1, layer.graph) if layer.use_local else None
                sub = global_local_conv(h1, graph, local, layer.graph)
            h = layer_norm(h1 + sub, layer.ln_graph_gain, layer.ln_graph_bias)
            embeddings.append(h[..., -1, :])
        squeezed = embeddings if model.bottleneck is None else [
            bottleneck_ae(e, model.bottleneck) for e in embeddings]
        pre_out = decode(model._lift(zero_slot, 1), squeezed, model.pre_decoder, 1)
        head = model.pred_head
        y_pred = (matmul(pre_out, head.weight) + head.bias).reshape(lead + (n,))
        y_rec = None
        if model.rec_decoder is not None:
            history = x[..., :k - 1].reshape(lead + (n, k - 1, 1))
            rec_seed = model._lift(concat([zero_slot, history], axis=-2), k)
            rec_out = decode(rec_seed, squeezed, model.rec_decoder, k)
            head = model.rec_head
            y_rec = (matmul(rec_out, head.weight) + head.bias).reshape(lead + (n, k))
    return (y_pred.data, None if y_rec is None else y_rec.data,
            [e.data for e in embeddings])


def causal_mask(length: int) -> np.ndarray:
    """Boolean mask of the future positions (True above the diagonal)."""
    return np.triu(np.ones((length, length), dtype=bool), k=1)


def future_bias(scores: Tensor) -> Tensor:
    """``-inf`` above the diagonal and 0 elsewhere, in the scores' dtype: added
    to attention scores before ``softmax``, it excludes future positions."""
    return Tensor(np.where(causal_mask(scores.shape[-1]), -np.inf, 0).astype(scores.dtype))


def composed_attention(q, k, v, causal=False):
    """Attention as five primitive ops (scale q, transpose k, two matmuls and
    a softmax), plus the future positions' ``-inf`` when causal."""
    scores = matmul(q * (1.0 / np.sqrt(q.shape[-1])), k.transpose())
    if causal:
        scores = scores + future_bias(scores)
    return matmul(softmax(scores), v)


def qkv_attention(x, w_q, w_k, w_v, w_out, causal=False, heads=1, rows=None):
    """Oracle for ``Attention``, with its arguments: the residual sublayer as
    the ops it folds.  ``MatMul`` projects ``x`` to q, k and v; ``Reshape``
    and a ``Slice`` per head split them, :func:`composed_attention` attends
    in each head and ``Concat`` merges the heads; ``MatMul`` projects the
    result, or with a crop ``Slice``, ``Reshape`` and :func:`row_matmul`;
    ``Add`` puts back ``x``, cropped by ``Slice``."""
    def split(t):
        t = t.reshape(t.shape[:-1] + (heads, t.shape[-1] // heads))
        return [t[..., i, :] for i in range(heads)]

    q, k, v = (split(matmul(x, w)) for w in (w_q, w_k, w_v))
    attended = concat([composed_attention(*qkv, causal=causal) for qkv in zip(q, k, v)], axis=-1)
    *lead, seq, width = attended.shape
    if rows is None or rows == seq:
        return x + matmul(attended, w_out)
    kept = attended[..., seq - rows:, :].reshape((-1, width))
    out = row_matmul(kept, w_out).reshape(tuple(lead) + (rows, w_out.shape[1]))
    return x[..., seq - rows:, :] + out


def per_head_attention(x, ws, upstream, causal=False, heads=1, rows=None):
    """The output of :func:`qkv_attention` on the arrays ``x`` and ``ws``
    (``w_q``, ``w_k``, ``w_v``, ``w_out``) and, for the output gradient
    ``upstream``, the gradients of ``x`` and of each weight, as arrays."""
    x, *ws = (Tensor(a, requires_grad=True) for a in (x, *ws))
    out = qkv_attention(x, *ws, causal=causal, heads=heads, rows=rows)
    grads = backward(total(out * Tensor(upstream)))
    return out.data, [grads[t] for t in (x, *ws)]


def param64(rng: np.random.Generator, shape, scale: float = 1.0) -> Tensor:
    return Tensor(scale * rng.standard_normal(shape), requires_grad=True)


def float64(node):
    """Cast every tensor ``node`` holds to float64 in place and return ``node``:
    a tensor itself, or what a model's attributes, a dataclass's fields or a
    list's items hold, at any depth.  Models are built in float32; this is how
    the gradient checks and byte oracles run one in 64-bit."""
    if isinstance(node, Tensor):
        node.data = node.data.astype(np.float64)
    for child in node if isinstance(node, list) else getattr(node, "__dict__", {}).values():
        float64(child)
    return node


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def recorded_creators(monkeypatch):
    """One entry per op call from here on: whether the op recorded a creator."""
    apply = canet.tensor.Function.apply.__func__
    recorded = []

    def counted(cls, *args, **kwargs):
        out = apply(cls, *args, **kwargs)
        recorded.append(out.creator is not None)
        return out

    monkeypatch.setattr(canet.tensor.Function, "apply", classmethod(counted))
    return recorded
