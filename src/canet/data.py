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


CSV_BLOCK_CELLS = 1024


def block_rows(columns: int) -> int:
    """Rows per CSV block of a table ``columns`` cells wide: ``CSV_BLOCK_CELLS``
    cells, and at least one row, so a block's text and Python objects do not
    grow with the width."""
    return max(1, CSV_BLOCK_CELLS // columns)


def load_csv(path) -> RawSeries:
    """Read a series from CSV: header row of sensor names, one data row per
    timestamp.  Columns named ``timestamp`` and ``label`` are split out;
    sensor column order is preserved.  Every header name must be distinct.

    The file is decoded as UTF-8, with or without a leading byte-order mark.
    The header row is read alone, then the data rows in blocks of
    ``block_rows(len(header))``, each parsed column by column, so the cells
    held as Python objects beyond the result are one block's.
    """
    try:
        # undecodable bytes read as lone surrogates, which no cell rule accepts
        handle = open(path, newline="", encoding="utf-8-sig", errors="surrogateescape")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle, strict=True)
        block, fault = _read_rows(path, reader, 1)
        header = block[0] if block else None
        if not header:
            raise fault or DataError(f"{path} is empty")
        if not _decodes(header):
            raise _undecodable_line(path)
        repeated = [name for i, name in enumerate(header) if name in header[:i]]
        if repeated:
            raise DataError(f"{path}: column {repeated[0]!r} appears more than once in the header")
        rows = block_rows(len(header))
        block, fault = _read_rows(path, reader, rows)
        if not block:
            raise fault or DataError(f"{path} has a header but no data rows")
        sensors = [c for c, name in enumerate(header) if name not in _SPLIT_RULES]
        if not sensors:
            raise DataError(f"{path} has no sensor columns")
        rules = [(c, float, lambda cell, r, name=header[c]:
                  f"non-numeric cell {cell!r} at row {r}, column {name!r}") for c in sensors]
        extras = [name for name in _SPLIT_RULES if name in header]
        rules += [(header.index(name), *_SPLIT_RULES[name]) for name in extras]
        parts, start = [], 0
        first_bad = None        # (data row, column, cell) of the first non-finite sensor cell
        while block:
            parts.append(_parse_block(path, len(header), rules, len(sensors), block, start))
            if first_bad is None:
                bad = np.argwhere(~np.isfinite(parts[-1][0].T))
                if len(bad):
                    r, s = bad[0]
                    first_bad = (start + r, sensors[s], block[r][sensors[s]])
            start += len(block)
            if fault is not None:
                raise fault
            block, fault = _read_rows(path, reader, rows)
        if fault is not None:
            raise fault

    if first_bad is not None:
        r, c, cell = first_bad
        raise DataError(f"{path}: non-finite cell {cell!r} at row {r + 1}, column {header[c]!r}")
    values, *arrays = (np.concatenate(part, axis=-1) for part in zip(*parts))
    split = dict(zip(extras, arrays))
    return RawSeries(sensor_names=[header[c] for c in sensors], values=values,
                     timestamps=split.get("timestamp"), labels=split.get("label"))


def _read_rows(path, reader, count: int):
    """Up to ``count`` rows of ``reader``, a ``csv.reader`` over ``path``,
    and the :class:`DataError` of a malformed field that ended them early
    (else None).  The caller checks the rows read before the fault first,
    so the first bad row in file order is the one reported."""
    rows = []
    try:
        rows.extend(itertools.islice(reader, count))
    except csv.Error as exc:
        return rows, DataError(f"{path}: line {reader.line_num}: {exc}")
    return rows, None


def _decodes(cells) -> bool:
    """False when a cell holds a byte that was not UTF-8 (read as a surrogate)."""
    try:
        "".join(cells).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _undecodable_line(path) -> DataError:
    """The error naming the first line of ``path`` that is not UTF-8."""
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return DataError(f"{path}: line {number} is not UTF-8: {exc}")
    return DataError(f"{path} is not UTF-8")


def _label(cell: str) -> int:
    return ("0", "1").index(cell.strip())       # ValueError unless 0 or 1


# A cell rule is (column, conversion, message of bad cell at 1-based data row r).  Each
# sensor column has a float rule; these columns, when present, follow in this order.
_SPLIT_RULES = {
    "timestamp": (float, lambda cell, r: f"non-numeric timestamp {cell!r} at row {r}"),
    "label": (_label, lambda cell, r: f"label must be 0 or 1, got {cell.strip()!r} at row {r}"),
}


def _parse_block(path, width: int, rules, n_sensors: int, rows, first_row: int):
    """``[values, *extras]`` of one block of data rows: the columns of the first
    ``n_sensors`` rules as one ``(n_sensors, len(rows))`` float64 array, then an
    array per further rule (float64 timestamps, int64 labels).  ``first_row`` is
    the 0-based index of ``rows[0]`` among the data rows.  On a fault, the rows
    are checked one by one in file order through the same rules, and the first
    bad cell raises :class:`DataError`."""
    n = len(rows)
    try:
        if any(len(row) != width for row in rows):
            raise ValueError("ragged row")
        columns = list(zip(*rows))
        cells = itertools.chain.from_iterable(columns[c] for c, _, _ in rules[:n_sensors])
        values = np.fromiter(map(float, cells), np.float64, n_sensors * n).reshape(-1, n)
        return [values] + [np.array([*map(convert, columns[c])])
                           for c, convert, _ in rules[n_sensors:]]
    except ValueError:
        for r, row in enumerate(rows, start=first_row + 1):
            if not _decodes(row):
                raise _undecodable_line(path) from None
            if len(row) != width:
                raise DataError(f"{path}: row {r} has {len(row)} cells, expected {width}") from None
            for c, convert, message in rules:
                try:
                    convert(row[c])
                except ValueError:
                    raise DataError(f"{path}: {message(row[c], r)}") from None
        raise


def write_csv(path, series: RawSeries) -> None:
    """Inverse of :func:`load_csv`; floats use shortest round-trip repr so
    identical series produce identical bytes.

    The header goes through ``csv.writer``, which quotes names as needed;
    the data rows, whose cells never need quoting, are joined column by
    column, with the writer's ``\\r\\n`` line ends, and written in blocks of
    ``block_rows(len(header))`` rows, so at most one block is held as text.
    """
    header: List[str] = []
    arrays = []         # (columns, length) each, float64 or int64: repr writes every cell
    if series.timestamps is not None:
        header.append("timestamp")
        arrays.append(np.asarray(series.timestamps, dtype=np.float64)[None])
    header.extend(series.sensor_names)
    arrays.append(np.asarray(series.values, dtype=np.float64))
    if series.labels is not None:
        header.append("label")
        arrays.append(np.asarray(series.labels).astype(np.int64)[None])
    rows = block_rows(len(header))
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(header)
        for start in range(0, series.length, rows):
            columns = [map(repr, row) for array in arrays
                       for row in array[:, start:start + rows].tolist()]
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
