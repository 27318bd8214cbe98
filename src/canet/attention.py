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

from canet.tensor import Attention, Tensor, glorot_uniform


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
    def create(width: int, heads: int, rng: np.random.Generator) -> "AttentionParams":
        if heads < 1:
            raise ValueError(f"head count must be >= 1, got {heads}")
        if width % heads != 0:
            raise ValueError(f"model width {width} is not divisible by head count {heads}")

        def blocks() -> Tensor:
            # one draw per head block, in the order seeded models have always used
            drawn = [glorot_uniform(rng, (width, width // heads)).data for _ in range(heads)]
            return Tensor(np.concatenate(drawn, axis=1), requires_grad=True)

        return AttentionParams(w_query=blocks(), w_key=blocks(), w_value=blocks(),
                               w_out=glorot_uniform(rng, (width, width)), heads=heads)


def scaled_dot_attention(sequence: Tensor, params: AttentionParams, causal: bool = False,
                         rows: Optional[int] = None) -> Tensor:
    """``sequence`` plus softmax(q kᵀ / sqrt(d_k)) v w_out in each head, q, k and v
    projected from ``sequence``, of the last ``rows`` positions only when ``rows``
    is set: the residual sublayer as one autodiff op that keeps only
    ``sequence`` and the attention weights for backward."""
    return Attention.apply(sequence, params.w_query, params.w_key, params.w_value,
                           params.w_out, causal=causal, heads=params.heads, rows=rows)


def multi_head_attention(sequence: Tensor, params: AttentionParams, causal: bool = False,
                         rows: Optional[int] = None) -> Tensor:
    """Attend in every head at once, project the heads' outputs in one GEMM
    over all of them and add ``sequence``, of the last ``rows`` positions
    only when ``rows`` is set (see :func:`scaled_dot_attention`).  The
    queries are not cut: a one-row matrix stack would send numpy's matmul
    down its vector-matrix path, which sums in another order."""
    return scaled_dot_attention(sequence, params, causal=causal, rows=rows)


def sinusoid_table(length: int, width: int) -> np.ndarray:
    """Fixed sinusoidal position table: sin on even channels, cos on odd."""
    positions = np.arange(length, dtype=np.float64)[:, None]
    channels = np.arange(width, dtype=np.float64)[None, :]
    angles = positions / np.power(10000.0, 2.0 * (channels // 2) / width)
    table = np.where(channels % 2 == 0, np.sin(angles), np.cos(angles))
    return table.astype(np.float32)
