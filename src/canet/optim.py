"""Adam optimizer."""

from itertools import accumulate, groupby
from typing import Iterable

import numpy as np

from canet.tensor import ShapeError, Tensor


class Adam:
    """Adam with bias correction (Kingma & Ba, 2015).

    The moments live in one flat float32 buffer each, the dtype of every
    model parameter; ``m[i]`` and ``v[i]`` are writable views of parameter
    ``i``'s share.  :meth:`step` reads ``grad`` off each parameter and
    updates each run of consecutive parameters that have one by a few vector
    ops over their gathered gradients, with the per-parameter update's
    arithmetic; a parameter whose grad is unset keeps its value and moments
    (the step counter still advances once per call).
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8     # Kingma & Ba's defaults

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-4):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._offsets = list(accumulate((p.size for p in self.params), initial=0))
        self._m, self._v = (np.zeros(self._offsets[-1], np.float32) for _ in range(2))
        self.m, self.v = ([flat[a:b].reshape(p.shape) for p, a, b
                           in zip(self.params, self._offsets, self._offsets[1:])]
                          for flat in (self._m, self._v))

    def step(self) -> None:
        """One update; a gradient of the wrong shape raises :class:`ShapeError`
        before any state changes."""
        grads = [p.grad for p in self.params]
        for p, g in zip(self.params, grads):
            if g is not None and g.shape != p.data.shape:
                raise ShapeError(
                    f"gradient shape {g.shape} does not match parameter shape {p.data.shape}")
        self.t += 1
        end = 0
        for has_grad, run in groupby(grads, lambda g: g is not None):
            first, end = end, end + len(list(run))
            if not has_grad:
                continue
            params, offsets = self.params[first:end], self._offsets[first:end + 1]
            start, stop = offsets[0], offsets[-1]
            m, v = self._m[start:stop], self._v[start:stop]
            g = np.concatenate(grads[first:end], axis=None)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / (1.0 - self.beta1 ** self.t)
            v_hat = v / (1.0 - self.beta2 ** self.t)
            data = np.concatenate([p.data for p in params], axis=None)
            data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            for p, a, b in zip(params, offsets, offsets[1:]):
                p.data = data[a - start:b - start].reshape(p.data.shape)
