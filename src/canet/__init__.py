"""canet: multivariate time-series anomaly detection built on coupled
temporal attention and adaptive global-local sensor graphs."""

from canet.tensor import (Tensor, ShapeError, ConsumedGraphError, backward, concat,
                          layer_norm, leaky_relu, matmul, no_grad, relu, row_normalize,
                          softmax, sqrt)
from canet.optim import Adam
from canet.attention import AttentionParams, multi_head_attention, scaled_dot_attention
from canet.graph import (GraphConvParams, SensorGraph, build_sensor_graph,
                         global_adjacency, global_local_conv, local_adjacency, topk_mask)
from canet.model import (CanModel, ForwardOutput, ModelConfig, bottleneck_ae,
                         cam_forward, can_forward, decoder_forward,
                         encoder_forward)
from canet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from canet.data import (DataError, NormStats, RawSeries, WindowedDataset,
                        downsample_median, load_csv, make_windows,
                        minmax_apply, minmax_fit, write_csv)
from canet.synth import AnomalySegment, SynthResult, synth_generate
from canet.train import (ConfigError, DivergenceError, TrainConfig, TrainLog,
                         joint_loss, prediction_loss, reconstruction_loss, train)
from canet.detection import (DetectionReport, anomaly_scores, confusion_metrics,
                             evaluate, normalize_errors, point_adjust,
                             prediction_errors, predict_series, threshold_grid_search)

__version__ = "0.1.0"
