"""Temporal multi-head self-attention over per-sensor sequences.

One parameter set serves all sensors in a layer: inputs of shape
``(..., seq, width)`` are processed independently along every leading axis,
so a stack of N sensor sequences runs as N parallel attention instances
sharing weights.  Decoders pass ``causal=True`` to restrict each position to
itself and earlier ones.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from canet.initializers import glorot_uniform
from canet.tensor import Attention, ShapeError, Tensor, matmul


@dataclass
class AttentionParams:
    """Query/key/value projections plus the output projection.

    ``w_query``, ``w_key`` and ``w_value`` are ``(width, width)``; head ``i``
    owns their column block ``i`` of width ``width // heads``.
    """

    w_query: Tensor
    w_key: Tensor
    w_value: Tensor
    w_out: Tensor
    heads: int

    @staticmethod
    def create(width: int, heads: int, rng: np.random.Generator, dtype=np.float32) -> "AttentionParams":
        if heads < 1:
            raise ValueError(f"head count must be >= 1, got {heads}")
        if width % heads != 0:
            raise ValueError(f"model width {width} is not divisible by head count {heads}")

        def blocks() -> Tensor:
            # one draw per head block, in the order seeded models have always used
            drawn = [glorot_uniform(rng, (width, width // heads), dtype).data for _ in range(heads)]
            return Tensor(np.concatenate(drawn, axis=1), requires_grad=True)

        return AttentionParams(w_query=blocks(), w_key=blocks(), w_value=blocks(),
                               w_out=glorot_uniform(rng, (width, width), dtype), heads=heads)

    def named(self, prefix: str):
        for kind in ("w_query", "w_key", "w_value", "w_out"):
            yield f"{prefix}.{kind}", getattr(self, kind)


def causal_mask(length: int) -> np.ndarray:
    """Boolean mask excluding future positions (True above the diagonal)."""
    return np.triu(np.ones((length, length), dtype=bool), k=1)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, causal: bool = False) -> Tensor:
    """softmax(q kᵀ / sqrt(d_k)) v along the sequence axis, as one autodiff op."""
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"query/key widths differ: {q.shape} vs {k.shape}")
    return Attention.apply(q, k, v, mask=causal_mask(k.shape[-2]) if causal else None)


def multi_head_attention(sequence: Tensor, params: AttentionParams, causal: bool = False,
                         rows: Optional[int] = None) -> Tensor:
    """Attend in every head at once: q, k and v are reshaped to
    ``(..., heads, seq, head_dim)``, and the heads' outputs are laid side by
    side again before the output projection.

    With ``rows`` set, only the last ``rows`` positions are projected, in
    one GEMM over all of them, and returned.  The queries are not cut: a
    one-row matrix stack would send numpy's matmul down its vector-matrix
    path, which sums in another order.
    """
    *lead, seq, width = sequence.shape
    n = len(lead)
    swap = tuple(range(n)) + (n + 1, n, n + 2)          # (seq, heads) <-> (heads, seq)
    split = tuple(lead) + (seq, params.heads, width // params.heads)
    q, k, v = (matmul(sequence, w).reshape(split).transpose(swap)
               for w in (params.w_query, params.w_key, params.w_value))
    attended = scaled_dot_attention(q, k, v, causal=causal).transpose(swap)
    if rows is None or rows == seq:
        return matmul(attended.reshape(tuple(lead) + (seq, width)), params.w_out)
    kept = attended[..., seq - rows:, :, :].reshape((-1, width))
    return matmul(kept, params.w_out).reshape(tuple(lead) + (rows, width))


def sinusoid_table(length: int, width: int, dtype=np.float32) -> np.ndarray:
    """Fixed sinusoidal position table: sin on even channels, cos on odd."""
    positions = np.arange(length, dtype=np.float64)[:, None]
    channels = np.arange(width, dtype=np.float64)[None, :]
    angles = positions / np.power(10000.0, 2.0 * (channels // 2) / width)
    table = np.where(channels % 2 == 0, np.sin(angles), np.cos(angles))
    return table.astype(dtype)


class PositionalTable:
    """Position rows added to model inputs, fixed sinusoidal by default.

    With ``learned=True`` the table is a trainable parameter instead.
    """

    def __init__(self, max_len: int, width: int, learned: bool = False,
                 rng: Optional[np.random.Generator] = None, dtype=np.float32):
        self.max_len = max_len
        self.width = width
        self.learned = learned
        if learned:
            self.values = Tensor(
                (0.1 * rng.standard_normal((max_len, width))).astype(dtype),
                requires_grad=True)
        else:
            self.values = Tensor(sinusoid_table(max_len, width, dtype))

    def take(self, seq_len: int) -> Tensor:
        if seq_len > self.max_len:
            raise ShapeError(f"requested {seq_len} positions from a table of {self.max_len}")
        return self.values[:seq_len]

    def named(self, prefix: str):
        if self.learned:
            yield f"{prefix}.values", self.values
