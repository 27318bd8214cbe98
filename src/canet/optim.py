"""Adam optimizer."""

from typing import Iterable

import numpy as np

from canet.tensor import ShapeError, Tensor


class Adam:
    """Adam with bias correction; one first/second-moment pair per parameter.

    Reads ``grad`` off each parameter at :meth:`step`; parameters whose grad
    is unset are skipped (the step counter still advances once per call).
    """

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            if p.grad.shape != p.data.shape:
                raise ShapeError(
                    f"gradient shape {p.grad.shape} does not match parameter shape {p.data.shape}")
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / (1.0 - self.beta1 ** self.t)
            v_hat = v / (1.0 - self.beta2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
