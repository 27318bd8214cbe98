import json

import numpy as np
import pytest

from canet import Tensor, backward
from canet.optim import finite_difference_gradient

GRAD_RTOL = 1e-4


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
