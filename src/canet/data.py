"""CSV ingestion, preprocessing, and sliding-window datasets."""

import csv
import itertools
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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


CSV_BLOCK_ROWS = 4096


def load_csv(path) -> RawSeries:
    """Read a series from CSV: header row of sensor names, one data row per
    timestamp.  Columns named ``timestamp`` and ``label`` are split out;
    sensor column order is preserved.  Every header name must be distinct.

    The file is decoded as UTF-8, with or without a leading byte-order mark,
    and parsed in blocks of ``CSV_BLOCK_ROWS`` rows, column by column, so
    memory beyond the result is bounded by one block of cells.
    """
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = _checked_rows(path, csv.reader(handle, strict=True))
        header = next(reader, None)
        if not header:
            raise DataError(f"{path} is empty")
        repeated = [name for i, name in enumerate(header) if name in header[:i]]
        if repeated:
            raise DataError(f"{path}: column {repeated[0]!r} appears more than once in the header")
        block = list(itertools.islice(reader, CSV_BLOCK_ROWS))
        if not block:
            raise DataError(f"{path} has a header but no data rows")
        layout = _CsvLayout(path, header)
        parts = []
        first_bad = None        # (data row, sensor index, cell) of the first non-finite cell
        start = 0
        while block:
            parts.append(layout.parse_block(block, start))
            if first_bad is None:
                bad = np.argwhere(~np.isfinite(parts[-1][0].T))
                if len(bad):
                    r, s = bad[0]
                    first_bad = (start + r, s, block[r][layout.sensor_cols[s]])
            start += len(block)
            block = list(itertools.islice(reader, CSV_BLOCK_ROWS))

    if first_bad is not None:
        r, s, cell = first_bad
        raise DataError(f"{path}: non-finite cell {cell!r} at row "
                        f"{r + 1}, column {header[layout.sensor_cols[s]]!r}")
    values = np.concatenate([p[0] for p in parts], axis=1)
    timestamps = None if layout.ts_col is None else np.concatenate([p[1] for p in parts])
    labels = None if layout.label_col is None else np.concatenate([p[2] for p in parts])
    names = [header[c] for c in layout.sensor_cols]
    return RawSeries(sensor_names=names, values=values, timestamps=timestamps, labels=labels)


def _checked_rows(path, reader):
    """The rows of ``reader``, a ``csv.reader`` over ``path``; a malformed
    field or a byte that is not UTF-8 raises :class:`DataError` naming the
    file and the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        # the text layer decodes ahead of the reader, so find the line itself
        with open(path, "rb") as handle:
            for number, line in enumerate(handle, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DataError(f"{path}: line {number} is not UTF-8: {exc}") from None
        raise


class _CsvLayout:
    """Which header columns hold sensors, timestamps and labels, and how a
    block of data rows becomes arrays."""

    def __init__(self, path, header):
        self.path = path
        self.header = header
        self.ts_col = header.index("timestamp") if "timestamp" in header else None
        self.label_col = header.index("label") if "label" in header else None
        self.sensor_cols = [i for i in range(len(header))
                            if i not in (self.ts_col, self.label_col)]
        if not self.sensor_cols:
            raise DataError(f"{path} has no sensor columns")

    def parse_block(self, rows, first_row: int):
        """``(values, timestamps, labels)`` of one block of rows, where
        ``first_row`` is the 0-based index of ``rows[0]`` among the data rows.
        Cells convert column by column; on a fault, :meth:`name_fault`
        rescans the block to name the first bad cell."""
        n = len(rows)
        try:
            if any(len(row) != len(self.header) for row in rows):
                raise ValueError("ragged row")
            columns = list(zip(*rows))
            cells = itertools.chain.from_iterable(columns[c] for c in self.sensor_cols)
            values = np.fromiter(map(float, cells), np.float64,
                                 len(self.sensor_cols) * n).reshape(-1, n)
            timestamps = labels = None
            if self.ts_col is not None:
                timestamps = np.fromiter(map(float, columns[self.ts_col]), np.float64, n)
            if self.label_col is not None:
                cells = list(map(str.strip, columns[self.label_col]))
                if not set(cells) <= {"0", "1"}:
                    raise ValueError("bad label")
                labels = np.fromiter(map(int, cells), np.int64, n)
        except ValueError:
            self.name_fault(rows, first_row)
            raise
        return values, timestamps, labels

    def name_fault(self, rows, first_row: int) -> None:
        """Check the rows one by one, in file order, and raise
        :class:`DataError` naming the first bad cell."""
        path, header = self.path, self.header
        for r, row in enumerate(rows, start=first_row + 1):
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
            for c in self.sensor_cols:
                try:
                    float(row[c])
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric cell {row[c]!r} at row {r}, "
                        f"column {header[c]!r}") from None
            if self.ts_col is not None:
                try:
                    float(row[self.ts_col])
                except ValueError:
                    raise DataError(f"{path}: non-numeric timestamp {row[self.ts_col]!r} "
                                    f"at row {r}") from None
            if self.label_col is not None:
                cell = row[self.label_col].strip()
                if cell not in ("0", "1"):
                    raise DataError(f"{path}: label must be 0 or 1, got {cell!r} at row {r}")


def write_csv(path, series: RawSeries) -> None:
    """Inverse of :func:`load_csv`; floats use shortest round-trip repr so
    identical series produce identical bytes.

    The header goes through ``csv.writer``, which quotes names as needed;
    the data rows, whose cells never need quoting, are joined column by
    column and written at once, with the writer's ``\\r\\n`` line ends.
    """
    header: List[str] = []
    columns = []
    if series.timestamps is not None:
        header.append("timestamp")
        columns.append(map(repr, np.asarray(series.timestamps, dtype=np.float64).tolist()))
    header.extend(series.sensor_names)
    columns.extend(map(repr, row) for row in np.asarray(series.values, dtype=np.float64).tolist())
    if series.labels is not None:
        header.append("label")
        columns.append(map(str, np.asarray(series.labels).astype(np.int64).tolist()))
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(header)
        handle.write("".join(",".join(cells) + "\r\n" for cells in zip(*columns)))


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
    n_full, rest = divmod(series.length, factor)
    full = series.values[:, :n_full * factor]
    parts = [np.median(full.reshape(series.n_sensors, n_full, factor), axis=2)]
    if rest:
        parts.append(np.median(series.values[:, n_full * factor:], axis=1)[:, None])
    values = np.concatenate(parts, axis=1)
    starts = np.arange(0, series.length, factor)
    labels = None
    if series.labels is not None:
        labels = np.maximum.reduceat(series.labels, starts).astype(np.int64)
    timestamps = None
    if series.timestamps is not None:
        timestamps = series.timestamps[::factor].copy()
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

    def batch(self, indices) -> tuple:
        """Histories (b, n, window) and targets (b, n), both C-contiguous, for
        the given window indices in [0, len(self))."""
        indices = np.asarray(indices, dtype=np.intp)
        windows = sliding_window_view(self.values, self.window, axis=1)   # (n, L-w+1, w)
        hist = windows.transpose(1, 0, 2)[indices]
        targets = self.values.T[indices + self.window]
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
