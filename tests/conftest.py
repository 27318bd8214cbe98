import json

import numpy as np
import pytest

import canet.tensor
from canet import Tensor, backward

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


def _scalar(value) -> float:
    if isinstance(value, Tensor):
        return value.item()
    return float(value)


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
        p.grad = None
    backward(build_loss())
    for p in params:
        fd = finite_difference_gradient(lambda _: build_loss(), p, step=step).data
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
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


# Header edits that no checkpoint loader may accept, by test id.
BAD_HEADERS = {
    "not-an-object": lambda h: 3,
    "params-not-a-list": lambda h: {**h, "params": 5},
    "extra-not-an-object": lambda h: {**h, "extra": [1]},
    "no-config": lambda h: {k: v for k, v in h.items() if k != "config"},
    "unknown-config-key": lambda h: {**h, "config": {**h["config"], "bogus": 1}},
    "neighbor-k-0": lambda h: {**h, "config": {**h["config"], "neighbor_k": 0}},
    "adjacency-norm-xx": lambda h: {**h, "config": {**h["config"], "adjacency_norm": "xx"}},
    "sensor-names-int": lambda h: {**h, "extra": {**h["extra"], "sensor_names": 3}},
    "sensor-names-too-few": lambda h: {**h, "extra": {**h["extra"], "sensor_names": ["a"]}},
    "sensor-names-repeated": lambda h: {
        **h, "extra": {**h["extra"], "sensor_names": ["a"] * h["config"]["n_sensors"]}},
}


def param64(rng: np.random.Generator, shape, scale: float = 1.0) -> Tensor:
    return Tensor(scale * rng.standard_normal(shape), requires_grad=True)


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
