"""Anomaly scoring and evaluation.

Prediction deviations are normalized per sensor by mean and interquartile
range, the largest few per timestamp are summed into a score, a global
threshold is grid-searched for the best point-adjusted F1, and the report
carries the per-timestamp trail.
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from canet.data import WindowedDataset
from canet.model import CanModel, ConfigError, can_forward
from canet.tensor import Tensor, no_grad

IQR_FLOOR = 1e-6
REC_FUSE_WEIGHT = 0.1


def prediction_errors(predicted: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Elementwise absolute deviation."""
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.shape != actual.shape:
        raise ValueError(f"shape mismatch: {predicted.shape} vs {actual.shape}")
    return np.abs(predicted - actual)


def normalize_errors(errors: np.ndarray, calibration: np.ndarray) -> np.ndarray:
    """Standardize each sensor row by the mean and IQR of its calibration row.

    Quantiles interpolate linearly between order statistics; an IQR below
    the floor is clamped so constant rows stay finite.
    """
    errors = np.asarray(errors, dtype=np.float64)
    calibration = np.asarray(calibration, dtype=np.float64)
    mu = calibration.mean(axis=1, keepdims=True)
    q1 = np.quantile(calibration, 0.25, axis=1, keepdims=True)
    q3 = np.quantile(calibration, 0.75, axis=1, keepdims=True)
    iqr = np.maximum(q3 - q1, IQR_FLOOR)
    return (errors - mu) / iqr


@dataclass
class ScoreSeries:
    """Per-timestamp anomaly scores plus the sensors that produced them."""

    values: np.ndarray                  # (T,)
    top_sensors: np.ndarray             # (T, k) sensor indices, ties to lower index
    k: int


def anomaly_scores(normalized: np.ndarray, k: int) -> ScoreSeries:
    """Sum the k largest normalized deviations per timestamp."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    normalized = np.asarray(normalized, dtype=np.float64)
    n = normalized.shape[0]
    keep = min(k, n)
    order = np.argsort(-normalized, axis=0, kind="stable")[:keep]     # (keep, T)
    picked = np.take_along_axis(normalized, order, axis=0)
    return ScoreSeries(values=picked.sum(axis=0), top_sensors=order.T, k=keep)


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
    timestamps: Optional[np.ndarray] = None
    scores: Optional[np.ndarray] = None
    raw_pred: Optional[np.ndarray] = None
    adjusted_pred: Optional[np.ndarray] = None
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


def threshold_grid_search(scores: np.ndarray, truth: np.ndarray):
    """Sort-and-sweep search for the separating threshold with the best
    point-adjusted F1; ties resolve toward the higher threshold.

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
    best_threshold = candidates[np.flatnonzero(f1 == f1.max())[-1]]

    pred = values > best_threshold
    adjusted = point_adjust(pred, truth)
    best = confusion_metrics(adjusted, truth)
    best.threshold = float(best_threshold)
    best.raw_pred = pred.astype(np.int64)
    best.adjusted_pred = adjusted
    return best_threshold, best


def predict_series(model: CanModel, dataset: WindowedDataset,
                   batch_size: int = 256, with_reconstruction: bool = False):
    """Run the prediction decoder over every window.

    Returns ``(predictions, rec_last)`` with one column per window: the
    prediction targets column ``j + window`` and, when requested, the
    reconstruction of the window's last history column.  The reconstruction
    decoder runs only when requested.  Batches run without an autodiff
    tape, so memory grows with ``batch_size``, not with the series, on
    ``CAN_THREADS`` threads (default 1); they are independent, so the
    thread count never changes the numbers.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    raw = os.environ.get("CAN_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError(f"CAN_THREADS must be an integer >= 1, got {raw!r}")
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

    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, spans))
    else:
        for span in spans:
            run(span)
    return predictions, rec_last


def evaluate(model: CanModel, dataset: WindowedDataset, truth: np.ndarray,
             score_sensors: int = 2, calibration: Optional[WindowedDataset] = None,
             can_plus: bool = False, batch_size: int = 256) -> DetectionReport:
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
        predictions, rec_last = predict_series(model, windows, batch_size, with_reconstruction)
        return prediction_errors(predictions, windows.values[:, windows.window:]), rec_last

    errors, rec_last = errors_of(dataset, can_plus)
    reference = errors if calibration is None else errors_of(calibration)[0]
    normalized = normalize_errors(errors, reference)
    scored = anomaly_scores(normalized, score_sensors)
    score_values = scored.values

    if can_plus:
        # rec_last[:, j] reconstructs column j+k-1; align to the scored
        # timestamps (shift one window) and edge-pad the final slot.
        # Reconstruction deviations always self-calibrate: the train-mode
        # calibration stream carries prediction errors, not these.
        rec_errors = prediction_errors(rec_last, dataset.values[:, k - 1:length - 1])
        rec_norm = normalize_errors(rec_errors, rec_errors)
        rec_scores = anomaly_scores(rec_norm, score_sensors).values
        aligned = np.concatenate([rec_scores[1:], rec_scores[-1:]])
        score_values = score_values + REC_FUSE_WEIGHT * aligned

    scored_truth = truth[k:]
    threshold, report = threshold_grid_search(score_values, scored_truth)
    report.timestamps = np.arange(k, length)
    report.scores = score_values
    report.extras = {"scored_from": int(k), "score_sensors": int(scored.k),
                     "calibration": "self" if calibration is None else "train",
                     "can_plus": bool(can_plus)}
    return report


def _trail_columns(report: DetectionReport):
    """The report's t and score columns as Python ints and floats."""
    return (np.asarray(report.timestamps).astype(np.int64).tolist(),
            np.asarray(report.scores, dtype=np.float64).tolist())


def write_report_json(path, report: DetectionReport) -> None:
    """``report.json``: the bytes of ``json.dumps(d, sort_keys=True,
    indent=2) + "\n"`` for a dict ``d`` of the report's threshold,
    precision, recall, f1, counts and extras, plus, when the report has
    scores, a ``per_timestamp`` list of ``{t, score, raw_pred,
    adjusted_pred}`` objects.  That list is formatted column-wise and
    spliced in, so no per-timestamp dict is built."""
    summary = {
        "threshold": float(report.threshold),
        "precision": float(report.precision),
        "recall": float(report.recall),
        "f1": float(report.f1),
        "counts": {"tp": int(report.tp), "fp": int(report.fp), "fn": int(report.fn)},
    }
    if report.scores is not None:
        summary["per_timestamp"] = None      # placeholder, replaced below
    summary.update(report.extras)
    text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    if report.scores is not None:
        times, scores = _trail_columns(report)
        # json writes a float as float.__repr__ does, except the non-finite ones
        number = float.__repr__ if np.isfinite(report.scores).all() else json.dumps
        raw = np.asarray(report.raw_pred).astype(np.int64).tolist()
        adjusted = np.asarray(report.adjusted_pred).astype(np.int64).tolist()
        items = ",\n".join(
            f'    {{\n      "adjusted_pred": {a},\n      "raw_pred": {r},\n'
            f'      "score": {s},\n      "t": {t}\n    }}'
            for t, s, r, a in zip(times, map(number, scores), raw, adjusted))
        trail = f"[\n{items}\n  ]" if items else "[]"
        # top-level keys are the only ones indented by exactly two spaces
        head, tail = text.split('\n  "per_timestamp": null', 1)
        text = f'{head}\n  "per_timestamp": {trail}{tail}'
    Path(path).write_text(text)


def write_scores_csv(path, report: DetectionReport, truth: np.ndarray) -> None:
    """(t, score, label) rows for external plotting."""
    times, scores = _trail_columns(report)
    labels = np.asarray(truth).astype(int)[times].tolist()
    with open(path, "w", newline="") as handle:
        handle.write("t,score,label\n" + "".join(
            f"{t},{s!r},{label}\n" for t, s, label in zip(times, scores, labels)))
