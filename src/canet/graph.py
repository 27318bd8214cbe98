"""Sensor-graph learning and global-local graph convolution.

The global graph comes from learned sensor embeddings (similarity of rows),
the local graph from attention over the current window's features, and a
binary top-k mask picks each sensor's candidate neighbours from the global
graph before propagation.
"""

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from canet.tensor import (Tensor, glorot_uniform, leaky_relu, matmul, relu, row_matmul,
                          row_normalize, softmax)


def init_sensor_embedding(n_sensors: int, embed_dim: int, rng: np.random.Generator) -> Tensor:
    """One learnable row per sensor, seeded normal scaled by 1/sqrt(dim)."""
    values = rng.standard_normal((n_sensors, embed_dim)) / np.sqrt(embed_dim)
    return Tensor(values.astype(np.float32), requires_grad=True)


def global_adjacency(embedding: Tensor) -> Tensor:
    """relu(E Eᵀ): symmetric, non-negative sensor similarity."""
    return relu(matmul(embedding, embedding.transpose()))


def topk_mask(adjacency: np.ndarray, k: int) -> np.ndarray:
    """Binary row mask keeping each row's k largest entries.

    Ties break toward the lower column index; k >= N keeps everything.
    Operates on raw values, gradients never flow through the mask.
    """
    if k < 1:
        raise ValueError(f"top-k must be >= 1, got {k}")
    keep = min(k, adjacency.shape[-1])
    order = np.argsort(-adjacency, axis=-1, kind="stable")
    mask = np.zeros_like(adjacency)
    np.put_along_axis(mask, order[..., :keep], 1.0, axis=-1)
    return mask


@dataclass
class SensorGraph:
    """What propagation reads of the global adjacency: its row-normalized
    form (all-zero rows stay zero) and its top-k neighbour mask."""

    normalized: Tensor
    mask: np.ndarray


def build_sensor_graph(embedding: Tensor, top_k: int) -> SensorGraph:
    adjacency = global_adjacency(embedding)
    return SensorGraph(
        normalized=row_normalize(adjacency),
        mask=topk_mask(adjacency.data, top_k),
    )


@dataclass
class GraphConvParams:
    """Learnables for the local graph and the propagation step."""

    feature_map: Tensor        # (width, width)
    attn_vector: Tensor        # (2 * seq * width, 1)
    propagation: Tensor        # (width, width)
    retain: float              # share of the original state kept, in [0, 1]

    @staticmethod
    def create(width: int, seq_len: int, retain: float,
               rng: np.random.Generator) -> "GraphConvParams":
        if not 0.0 <= retain <= 1.0:
            raise ValueError(f"retain ratio must be in [0, 1], got {retain}")
        return GraphConvParams(
            feature_map=glorot_uniform(rng, (width, width)),
            attn_vector=glorot_uniform(rng, (2 * seq_len * width, 1)),
            propagation=glorot_uniform(rng, (width, width)),
            retain=retain,
        )


def local_adjacency(features: Tensor, params: GraphConvParams) -> Tensor:
    """Window-dependent adjacency from pairwise attention over flattened
    per-sensor features; rows are softmax-normalized."""
    *lead, n, seq, width = features.shape
    half = seq * width
    flat = matmul(features, params.feature_map).reshape(tuple(lead) + (n, half))
    self_score = matmul(flat, params.attn_vector[:half])      # (..., n, 1)
    peer_score = matmul(flat, params.attn_vector[half:])
    logits = leaky_relu(self_score + peer_score.transpose())
    return softmax(logits)


def global_local_conv(features: Tensor, graph: SensorGraph,
                      local: Optional[Tensor], params: GraphConvParams,
                      slots: bool = True) -> Tensor:
    """Mask-filtered propagation mixing the sensor axis, then feature map.

    Combines the normalized global graph with the (optional) local graph,
    zeroes non-candidate edges with the binary mask, and blends the
    propagated state with the original by the retain ratio.  ``features``
    is (..., n_sensors, seq, width), or (..., n_sensors, width) with
    ``slots=False``: one slot per sensor.
    """
    combined = graph.normalized if local is None else local + graph.normalized
    gated = combined * Tensor(graph.mask.astype(features.dtype))

    if params.retain == 1.0:
        mixed = features
    else:
        if slots:
            flat = features.reshape(features.shape[:-2] + (-1,))
            propagated = matmul(gated, flat).reshape(features.shape)
        else:
            propagated = matmul(gated, features)
        if params.retain == 0.0:
            mixed = propagated
        else:
            mixed = params.retain * features + (1.0 - params.retain) * propagated
    return row_matmul(mixed, params.propagation)


def write_embeddings_csv(path, sensor_names, embedding: np.ndarray) -> None:
    """Write one row per sensor: sensor_id, e_0 .. e_{d-1}."""
    if len(sensor_names) != embedding.shape[0]:
        raise ValueError(
            f"{len(sensor_names)} sensor names for {embedding.shape[0]} embedding rows")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["sensor_id"] + [f"e_{i}" for i in range(embedding.shape[1])])
        for name, row in zip(sensor_names, embedding):
            writer.writerow([name] + [repr(float(v)) for v in row])
