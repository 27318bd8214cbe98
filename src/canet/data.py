"""CSV ingestion, preprocessing, and sliding-window datasets."""

import csv
from dataclasses import dataclass
from typing import List, Optional

import numpy as np


class DataError(ValueError):
    """Bad input data or an input file that cannot be used."""


@dataclass
class RawSeries:
    """A multivariate series: one row per sensor, one column per timestamp."""

    sensor_names: List[str]
    values: np.ndarray                       # (n_sensors, length)
    timestamps: Optional[np.ndarray] = None
    labels: Optional[np.ndarray] = None      # binary, test data only

    @property
    def n_sensors(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]


@dataclass
class NormStats:
    """Per-sensor min/max fitted on the training split."""

    minimum: np.ndarray
    maximum: np.ndarray


def load_csv(path) -> RawSeries:
    """Read a series from CSV: header row of sensor names, one data row per
    timestamp.  Columns named ``timestamp`` and ``label`` are split out;
    sensor column order is preserved.  Every header name must be distinct."""
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with handle:
        rows = list(csv.reader(handle))
    if not rows or not rows[0]:
        raise DataError(f"{path} is empty")
    header = rows[0]
    repeated = [name for i, name in enumerate(header) if name in header[:i]]
    if repeated:
        raise DataError(f"{path}: column {repeated[0]!r} appears more than once in the header")
    data_rows = rows[1:]
    if not data_rows:
        raise DataError(f"{path} has a header but no data rows")

    ts_col = header.index("timestamp") if "timestamp" in header else None
    label_col = header.index("label") if "label" in header else None
    sensor_cols = [i for i in range(len(header)) if i not in (ts_col, label_col)]
    if not sensor_cols:
        raise DataError(f"{path} has no sensor columns")

    length = len(data_rows)
    values = np.empty((len(sensor_cols), length), dtype=np.float64)
    timestamps = np.empty(length, dtype=np.float64) if ts_col is not None else None
    labels = np.empty(length, dtype=np.int64) if label_col is not None else None

    for r, row in enumerate(data_rows):
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {r + 1} has {len(row)} cells, expected {len(header)}")
        for out_idx, c in enumerate(sensor_cols):
            try:
                values[out_idx, r] = float(row[c])
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric cell {row[c]!r} at row {r + 1}, "
                    f"column {header[c]!r}") from None
        if ts_col is not None:
            try:
                timestamps[r] = float(row[ts_col])
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric timestamp {row[ts_col]!r} at row {r + 1}") from None
        if label_col is not None:
            cell = row[label_col].strip()
            if cell not in ("0", "1"):
                raise DataError(
                    f"{path}: label must be 0 or 1, got {cell!r} at row {r + 1}")
            labels[r] = int(cell)

    bad = np.argwhere(~np.isfinite(values.T))
    if len(bad):
        r, s = bad[0]
        raise DataError(f"{path}: non-finite cell {data_rows[r][sensor_cols[s]]!r} at row "
                        f"{r + 1}, column {header[sensor_cols[s]]!r}")
    names = [header[c] for c in sensor_cols]
    return RawSeries(sensor_names=names, values=values, timestamps=timestamps, labels=labels)


def write_csv(path, series: RawSeries) -> None:
    """Inverse of :func:`load_csv`; floats use shortest round-trip repr so
    identical series produce identical bytes."""
    header: List[str] = []
    if series.timestamps is not None:
        header.append("timestamp")
    header.extend(series.sensor_names)
    if series.labels is not None:
        header.append("label")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for t in range(series.length):
            row: List[str] = []
            if series.timestamps is not None:
                row.append(repr(float(series.timestamps[t])))
            row.extend(repr(float(v)) for v in series.values[:, t])
            if series.labels is not None:
                row.append(str(int(series.labels[t])))
            writer.writerow(row)


def downsample_median(series: RawSeries, factor: int) -> RawSeries:
    """Collapse each block of ``factor`` timestamps to its per-sensor median.

    A trailing partial block keeps the median of what remains.  Labels
    downsample by block max so no marked anomaly disappears; timestamps keep
    the first entry of each block.
    """
    if factor < 1:
        raise ValueError(f"downsample factor must be >= 1, got {factor}")
    if factor == 1:
        return series
    starts = range(0, series.length, factor)
    values = np.stack(
        [np.median(series.values[:, s:s + factor], axis=1) for s in starts], axis=1)
    labels = None
    if series.labels is not None:
        labels = np.array(
            [series.labels[s:s + factor].max() for s in starts], dtype=np.int64)
    timestamps = None
    if series.timestamps is not None:
        timestamps = np.array([series.timestamps[s] for s in starts])
    return RawSeries(series.sensor_names, values, timestamps, labels)


def minmax_fit(train: RawSeries) -> NormStats:
    return NormStats(minimum=train.values.min(axis=1), maximum=train.values.max(axis=1))


def minmax_apply(series: RawSeries, stats: NormStats) -> RawSeries:
    """(x - min) / (max - min) per sensor.  Constant sensors map to zero;
    values outside the fitted range are not clipped."""
    span = stats.maximum - stats.minimum
    safe = np.where(span == 0, 1.0, span)
    scaled = (series.values - stats.minimum[:, None]) / safe[:, None]
    scaled[span == 0, :] = 0.0
    return RawSeries(series.sensor_names, scaled, series.timestamps, series.labels)


@dataclass
class WindowedDataset:
    """Stride-1 windows over a series: window j pairs history columns
    [j, j+window) with target column j+window."""

    values: np.ndarray                 # (n_sensors, length)
    window: int
    sensor_names: List[str]
    labels: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.values.shape[1] - self.window

    @property
    def n_sensors(self) -> int:
        return self.values.shape[0]

    def history(self, j: int) -> np.ndarray:
        return self.values[:, j:j + self.window]

    def target(self, j: int) -> np.ndarray:
        return self.values[:, j + self.window]

    def batch(self, indices) -> tuple:
        """Stack histories (b, n, window) and targets (b, n) for the given
        window indices."""
        hist = np.stack([self.history(j) for j in indices])
        targets = np.stack([self.target(j) for j in indices])
        return hist, targets


def make_windows(series: RawSeries, window: int) -> WindowedDataset:
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if series.length < window + 1:
        raise DataError(
            f"series length {series.length} is shorter than window+1 = {window + 1}")
    return WindowedDataset(
        values=series.values.astype(np.float32),
        window=window,
        sensor_names=list(series.sensor_names),
        labels=None if series.labels is None else series.labels.copy(),
    )
