"""Anomaly scoring and evaluation.

Prediction deviations are normalized per sensor by mean and interquartile
range, the largest few per timestamp are summed into a score, a global
threshold is grid-searched for the best point-adjusted F1.  ``report.json``
holds the run's summary and ``scores.csv`` its per-timestamp table.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import canet.data
from canet.data import WindowedDataset
from canet.model import (CanModel, can_forward, inference_batch_size, window_map,
                         window_threads)
from canet.tensor import Tensor, no_grad

IQR_FLOOR = 1e-6
REC_FUSE_WEIGHT = 0.1


def prediction_errors(predicted: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Elementwise absolute deviation, as one new float64 array."""
    if np.shape(predicted) != np.shape(actual):
        raise ValueError(f"shape mismatch: {np.shape(predicted)} vs {np.shape(actual)}")
    errors = np.subtract(predicted, actual, dtype=np.float64)
    return np.abs(errors, out=errors)


def normalize_errors(errors: np.ndarray, calibration: np.ndarray) -> np.ndarray:
    """Standardize each sensor row by the mean and IQR of its calibration row.

    Quantiles interpolate linearly between order statistics; an IQR below
    the floor is clamped so constant rows stay finite.
    """
    calibration = np.asarray(calibration, dtype=np.float64)
    mu = calibration.mean(axis=1, keepdims=True)
    q1, q3 = np.quantile(calibration, [0.25, 0.75], axis=1, keepdims=True)
    normalized = np.subtract(errors, mu, dtype=np.float64)
    return np.divide(normalized, np.maximum(q3 - q1, IQR_FLOOR), out=normalized)


def anomaly_scores(normalized: np.ndarray, k: int) -> np.ndarray:
    """The ``(T,)`` sums of the k largest normalized deviations per timestamp,
    added largest first; a NaN deviation ranks above every number."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    normalized = np.asarray(normalized, dtype=np.float64)
    keep = min(k, normalized.shape[0])
    top = np.sort(np.partition(normalized, -keep, axis=0)[-keep:], axis=0)
    scores = np.zeros(normalized.shape[1])
    for row in top[::-1]:       # one row at a time: .sum's order depends on the layout
        scores += row
    return scores


def point_adjust(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Mark whole true anomaly segments detected when any point inside was.

    Predictions on normal timestamps are left untouched.
    """
    pred = np.asarray(pred).astype(bool)
    truth = np.asarray(truth).astype(bool)
    if pred.shape != truth.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {truth.shape}")
    adjusted = pred.copy()
    edges = np.flatnonzero(np.diff(truth.astype(np.int8), prepend=0, append=0))
    for start, end in zip(edges[0::2], edges[1::2]):
        if pred[start:end].any():
            adjusted[start:end] = True
    return adjusted.astype(np.int64)


@dataclass
class DetectionReport:
    threshold: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    scores: Optional[np.ndarray] = None
    extras: dict = field(default_factory=dict)


def confusion_metrics(pred: np.ndarray, truth: np.ndarray) -> DetectionReport:
    """Pointwise counts and precision/recall/F1 with the zero conventions."""
    pred = np.asarray(pred).astype(bool)
    truth = np.asarray(truth).astype(bool)
    if pred.shape != truth.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {truth.shape}")
    tp = int(np.sum(pred & truth))
    fp = int(np.sum(pred & ~truth))
    fn = int(np.sum(~pred & truth))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return DetectionReport(threshold=np.nan, precision=precision, recall=recall,
                           f1=f1, tp=tp, fp=fp, fn=fn)


def threshold_grid_search(scores: np.ndarray, truth: np.ndarray) -> DetectionReport:
    """Sort-and-sweep search for the separating threshold with the best
    point-adjusted F1; ties resolve toward the higher threshold.  Returns
    the point-adjusted counts and metrics at that threshold.

    Candidates are the midpoints between consecutive distinct score values
    plus a sentinel below the minimum (predict everything), at any
    magnitude: no midpoint overflows.  Under point
    adjustment a true segment is detected exactly when its maximum score is
    above the threshold, so every candidate's counts come from binary
    searches over the sorted segment maxima and the sorted normal-point
    scores: O(T log T) for T scores.  Scores must be finite.
    """
    values = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth).astype(bool)
    if values.shape != truth.shape:
        raise ValueError(f"length mismatch: {values.shape} vs {truth.shape}")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"score {values[bad[0]]} at index {bad[0]} is not finite")
    if not truth.any():
        raise ValueError("threshold search needs at least one true anomaly")

    distinct = np.unique(values)
    below = distinct[0] - 1.0
    with np.errstate(over="ignore"):
        if not below < distinct[0]:     # |minimum| >= 2**53 drops the 1.0
            below = np.nextafter(distinct[0], -np.inf)     # -inf below -float max
        sums = distinct[:-1] + distinct[1:]
    halves = np.where(np.isfinite(sums), sums / 2.0, distinct[:-1] / 2.0 + distinct[1:] / 2.0)
    candidates = np.concatenate([[below], halves])

    edges = np.flatnonzero(np.diff(truth.astype(np.int8), prepend=0, append=0))
    starts, ends = edges[0::2], edges[1::2]
    seg_max = np.maximum.reduceat(np.where(truth, values, -np.inf), starts)
    order = np.argsort(seg_max)
    covered = np.concatenate([[0], np.cumsum((ends - starts)[order])])
    detected = np.searchsorted(seg_max[order], candidates, side="right")
    tp = covered[-1] - covered[detected]
    fn = covered[-1] - tp
    normal = np.sort(values[~truth])
    fp = normal.size - np.searchsorted(normal, candidates, side="right")

    # the formulas and zero conventions of confusion_metrics, elementwise
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        f1 = np.where(precision + recall > 0,
                      2 * precision * recall / (precision + recall), 0.0)
    i = np.flatnonzero(f1 == f1.max())[-1]
    return DetectionReport(threshold=float(candidates[i]), precision=float(precision[i]),
                           recall=float(recall[i]), f1=float(f1[i]),
                           tp=int(tp[i]), fp=int(fp[i]), fn=int(fn[i]))


def predict_series(model: CanModel, dataset: WindowedDataset,
                   with_reconstruction: bool = False):
    """Run the prediction decoder over every window.

    Returns ``(predictions, rec_last)`` with one column per window: the
    prediction targets column ``j + window`` and, when requested, the
    reconstruction of the window's last history column.  The reconstruction
    decoder runs only when requested.  Each of the :func:`window_threads`
    threads runs batches of ``max(1, inference_batch_size // threads)``
    windows without an autodiff tape, so memory grows with the batch, not
    with the series or the thread count.  Windows are independent, so
    neither changes the numbers.
    """
    threads = window_threads()
    batch_size = max(1, inference_batch_size(model) // threads)
    n_windows = len(dataset)
    n = dataset.n_sensors
    predictions = np.empty((n, n_windows), dtype=np.float64)
    rec_last = np.empty((n, n_windows), dtype=np.float64) if with_reconstruction else None
    if with_reconstruction and model.rec_decoder is None:
        raise ValueError("model has no reconstruction decoder")

    spans = [(s, min(s + batch_size, n_windows)) for s in range(0, n_windows, batch_size)]

    def run(span):
        start, end = span
        hist, _ = dataset.batch(range(start, end))
        with no_grad():     # per thread: the tape state is thread-local
            out = can_forward(Tensor(hist), model, reconstruct=with_reconstruction)
        predictions[:, start:end] = out.y_pred.data.T
        if rec_last is not None:
            rec_last[:, start:end] = out.y_rec.data[:, :, -1].T

    with window_map(min(threads, len(spans))) as map_windows:
        list(map_windows(run, spans))
    return predictions, rec_last


def evaluate(model: CanModel, dataset: WindowedDataset, truth: np.ndarray,
             score_sensors: int = 2, calibration: Optional[WindowedDataset] = None,
             can_plus: bool = False) -> DetectionReport:
    """Score a labelled test series and search the best threshold.

    ``truth`` is the full-length label vector; the first ``window``
    timestamps have no prediction and are excluded.  Deviations calibrate
    on the prediction errors of the ``calibration`` windows when given
    (training data, reported as calibration ``'train'``), else on the
    evaluated stream itself (``'self'``).  ``can_plus`` fuses the
    reconstruction deviation into the score at a fixed small weight.
    """
    truth = np.asarray(truth).astype(bool)
    k = dataset.window
    length = dataset.values.shape[1]
    if truth.shape[0] != length:
        raise ValueError(f"truth length {truth.shape[0]} does not match series length {length}")

    def errors_of(windows: WindowedDataset, with_reconstruction: bool = False):
        predictions, rec_last = predict_series(model, windows, with_reconstruction)
        return prediction_errors(predictions, windows.values[:, windows.window:]), rec_last

    # each stage allocates one (n, T) array; its input goes once it is used
    errors, rec_last = errors_of(dataset, can_plus)
    reference = errors if calibration is None else errors_of(calibration)[0]
    normalized = normalize_errors(errors, reference)
    del errors, reference
    scores = anomaly_scores(normalized, score_sensors)
    del normalized

    if can_plus:
        # rec_last[:, j] reconstructs column j+k-1; align to the scored
        # timestamps (shift one window) and edge-pad the final slot.
        # Reconstruction deviations always self-calibrate: the train-mode
        # calibration stream carries prediction errors, not these.
        rec_errors = prediction_errors(rec_last, dataset.values[:, k - 1:length - 1])
        del rec_last
        rec_norm = normalize_errors(rec_errors, rec_errors)
        del rec_errors
        rec_scores = anomaly_scores(rec_norm, score_sensors)
        del rec_norm
        aligned = np.concatenate([rec_scores[1:], rec_scores[-1:]])
        scores = scores + REC_FUSE_WEIGHT * aligned

    report = threshold_grid_search(scores, truth[k:])
    report.scores = scores
    report.extras = {"scored_from": int(k),
                     "score_sensors": min(score_sensors, dataset.n_sensors),
                     "calibration": "self" if calibration is None else "train",
                     "can_plus": bool(can_plus)}
    return report


def write_report_json(path, report: DetectionReport) -> None:
    """``report.json``: the run's summary, the report's threshold, precision,
    recall, f1, counts and extras as ``json.dumps(..., sort_keys=True,
    indent=2)``.  The per-timestamp table is ``scores.csv``."""
    summary = {
        "threshold": float(report.threshold),
        "precision": float(report.precision),
        "recall": float(report.recall),
        "f1": float(report.f1),
        "counts": {"tp": int(report.tp), "fp": int(report.fp), "fn": int(report.fn)},
        **report.extras,
    }
    Path(path).write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")


def write_scores_csv(path, report: DetectionReport, truth: np.ndarray) -> None:
    """(t, score, label) rows for external plotting; the scores belong to
    the last ``len(report.scores)`` timestamps of ``truth``.  Rows are
    written in blocks of ``block_rows(3)``, so at most one block is held as text."""
    scores, truth = np.asarray(report.scores, dtype=np.float64), np.asarray(truth)
    rows, first = canet.data.block_rows(3), len(truth) - len(scores)
    with open(path, "w", newline="") as handle:
        handle.write("t,score,label\n")
        for t0 in range(first, len(truth), rows):
            block = zip(scores[t0 - first:t0 - first + rows].tolist(),
                        truth[t0:t0 + rows].astype(int).tolist())
            handle.write("".join(f"{t},{s!r},{label}\n" for t, (s, label) in enumerate(block, t0)))
