import csv
import tracemalloc

import numpy as np
import pytest

import canet.data
from canet.data import (DataError, RawSeries, block_rows, downsample_median, load_csv,
                        make_windows, minmax_apply, minmax_fit, write_csv)
from conftest import traced_peak, window_history, window_target


def write_text(path, text):
    path.write_text(text)
    return path


def reference_load_csv(path) -> RawSeries:
    """Whole-file, row-by-row reader: the loader before block-wise parsing."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
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


def reference_write_csv(path, series: RawSeries) -> None:
    """One ``csv.writer`` row per timestamp: the writer before column joins."""
    header = []
    if series.timestamps is not None:
        header.append("timestamp")
    header.extend(series.sensor_names)
    if series.labels is not None:
        header.append("label")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for t in range(series.length):
            row = []
            if series.timestamps is not None:
                row.append(repr(float(series.timestamps[t])))
            row.extend(repr(float(v)) for v in series.values[:, t])
            if series.labels is not None:
                row.append(str(int(series.labels[t])))
            writer.writerow(row)


def reference_downsample_median(series: RawSeries, factor: int) -> RawSeries:
    """One np.median call per block: the downsampler before reshaping."""
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


def assert_same_series(got: RawSeries, want: RawSeries):
    assert got.sensor_names == want.sensor_names
    for name in ("values", "timestamps", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.flags["C_CONTIGUOUS"], name
            np.testing.assert_array_equal(a, b, err_msg=name)
            assert np.array_equal(np.signbit(a), np.signbit(b)), name


def block_csv(path, rows, edit=None):
    """A timestamp, three-sensor, label CSV of ``rows`` data rows; ``edit``
    maps a 0-based data-row index to a replacement line."""
    gen = np.random.default_rng(rows)
    values = gen.standard_normal((rows, 3))
    labels = gen.integers(0, 2, rows)
    lines = ["timestamp,FIT101,LIT301,P102,label"]
    for r in range(rows):
        cells = [repr(10.0 * r)] + [repr(float(v)) for v in values[r]] + [str(labels[r])]
        lines.append(",".join(cells))
    for r, line in (edit or {}).items():
        lines[r + 1] = line
    path.write_text("\n".join(lines) + "\n")
    return path


BLOCK = block_rows(5)       # data rows per block of a block_csv file


def wide_series(rows=32_768):
    """20 sensors, a timestamp and a label: 22 columns."""
    gen = np.random.default_rng(0)
    return RawSeries([f"s{i}" for i in range(20)], gen.standard_normal((20, rows)),
                     np.arange(rows) * 60.0, gen.integers(0, 2, rows))


class TestLoadCsv:
    def test_basic_shape(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,b\n1,4\n2,5\n3,6\n")
        series = load_csv(path)
        assert series.sensor_names == ["a", "b"]
        assert series.values.shape == (2, 3)
        np.testing.assert_array_equal(series.values[0], [1, 2, 3])

    def test_label_column_split_out(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,label\n1,0\n2,1\n3,0\n")
        series = load_csv(path)
        assert series.sensor_names == ["a"]
        np.testing.assert_array_equal(series.labels, [0, 1, 0])

    def test_timestamp_column_split_out(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "timestamp,a\n10,1\n20,2\n")
        series = load_csv(path)
        np.testing.assert_array_equal(series.timestamps, [10.0, 20.0])
        assert series.sensor_names == ["a"]

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "FIT101,b\n1,2\nabc,3\n")
        with pytest.raises(DataError) as err:
            load_csv(path)
        assert "row 2" in str(err.value) and "FIT101" in str(err.value)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        path = write_text(tmp_path / "d.csv", f"a,LIT301\n1,2\n3,{cell}\n")
        with pytest.raises(DataError) as err:
            load_csv(path)
        assert "row 2" in str(err.value) and "LIT301" in str(err.value)

    @pytest.mark.parametrize("header", ["a,b,a", "a,label,label", "timestamp,a,timestamp"])
    def test_repeated_column_name_rejected(self, tmp_path, header):
        repeated = header.split(",")[-1]
        path = write_text(tmp_path / "d.csv", f"{header}\n1,0,1\n")
        with pytest.raises(DataError) as err:
            load_csv(path)
        assert repr(repeated) in str(err.value)

    def test_ragged_rows_rejected(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,b\n1,2\n3\n")
        with pytest.raises(DataError):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(write_text(tmp_path / "d.csv", ""))
        with pytest.raises(DataError):
            load_csv(write_text(tmp_path / "h.csv", "a,b\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "nope.csv")

    def test_bad_label_rejected(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,label\n1,2\n")
        with pytest.raises(DataError):
            load_csv(path)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        text = "timestamp,a,b,label\n1,0.5,2,0\n2,-1.5,3,1\n"
        plain = load_csv(write_text(tmp_path / "plain.csv", text))
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + text.encode())
        marked = load_csv(tmp_path / "bom.csv")
        assert marked.sensor_names == ["a", "b"]
        assert_same_series(marked, plain)

    @pytest.mark.parametrize("rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_blocks_match_whole_file_reader(self, tmp_path, rows):
        path = block_csv(tmp_path / "d.csv", rows)
        series = load_csv(path)
        assert series.length == rows
        assert_same_series(series, reference_load_csv(path))

    @pytest.mark.parametrize("line, message", [
        ("10,1,oops,3,0", "non-numeric cell 'oops' at row {row}, column 'LIT301'"),
        ("10,1,2,3,2", "label must be 0 or 1, got '2' at row {row}"),
        ("10,1,2,3", "row {row} has 4 cells, expected 5"),
        ("10,1,2,3,0,9", "row {row} has 6 cells, expected 5"),
        ("ten,1,2,3,0", "non-numeric timestamp 'ten' at row {row}"),
        ("10,1,2,nan,0", "non-finite cell 'nan' at row {row}, column 'P102'"),
    ])
    def test_fault_in_second_block_names_its_row(self, tmp_path, line, message):
        row = BLOCK + 7         # 0-based data row, inside the second block
        path = block_csv(tmp_path / "d.csv", BLOCK + 20, {row: line})
        with pytest.raises(DataError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: " + message.format(row=row + 1)
        with pytest.raises(DataError) as want:
            reference_load_csv(path)
        assert str(err.value) == str(want.value)

    @pytest.mark.parametrize("late", ["10,1,x,3,0", "10,1,2,3"])
    def test_parse_fault_outranks_an_earlier_non_finite_cell(self, tmp_path, late):
        # non-finite cells are reported only once every row has parsed
        path = block_csv(tmp_path / "d.csv", BLOCK + 20, {3: "10,inf,2,3,0", BLOCK + 5: late})
        with pytest.raises(DataError) as err:
            load_csv(path)
        assert f"row {BLOCK + 6}" in str(err.value)
        with pytest.raises(DataError) as want:
            reference_load_csv(path)
        assert str(err.value) == str(want.value)

    def test_first_fault_in_a_block_wins(self, tmp_path):
        path = block_csv(tmp_path / "d.csv", 30, {4: "10,1,2,3,7", 9: "10,1,2"})
        with pytest.raises(DataError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: label must be 0 or 1, got '7' at row 5"

    @pytest.mark.parametrize("row", [2, BLOCK + 7])
    def test_undecodable_byte_names_its_line(self, tmp_path, row):
        path = block_csv(tmp_path / "d.csv", BLOCK + 20)
        lines = path.read_bytes().split(b"\n")
        lines[row + 1] = lines[row + 1].replace(b",", b",\xff", 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DataError) as err:
            load_csv(path)
        assert str(err.value).startswith(f"{path}: line {row + 2} is not UTF-8: ")

    @pytest.mark.parametrize("bad_row, byte_row", [(3, block_rows(2) + 1), (4090, 4093)],
                             ids=["next-block", "same-block"])
    def test_bad_cell_outranks_a_later_undecodable_byte(self, tmp_path, bad_row, byte_row):
        # 1-based data rows in blocks of block_rows(2) = 512: 4090 and 4093 share
        # the eighth.  The text layer decodes 8 KB chunks ahead of the rows the
        # reader has returned, and row 513 starts at byte 3947, inside the first
        # chunk, so in both cases the byte is decoded before the cell is parsed
        lines = [b"a,b"] + [b"%d,%d" % (r, 2 * r) for r in range(2 * 8192)]
        lines[bad_row] = b"x,1"
        lines[byte_row] = b"1,\xff"
        path = tmp_path / "d.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(DataError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: non-numeric cell 'x' at row {bad_row}, column 'a'"

    def test_bad_cell_outranks_a_later_malformed_field_in_its_block(self, tmp_path):
        path = block_csv(tmp_path / "d.csv", 30, {2: "10,oops,2,3,0", 9: '10,"1"x,2,3,0'})
        with pytest.raises(DataError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: non-numeric cell 'oops' at row 3, column 'FIT101'"

    def test_oversized_field_names_its_line(self, tmp_path):
        path = block_csv(tmp_path / "d.csv", 30, {9: "10,1," + "2" * 200_000 + ",3,0"})
        with pytest.raises(DataError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: line 11: field larger than field limit (131072)"

    @pytest.mark.parametrize("text, message", [
        ('a,b\n1,2\n3,"4\n', "line 3: unexpected end of data"),
        ('a,b\n1,2\n"3"x,4\n', "line 3: ',' expected after '\"'"),
    ], ids=["ends-inside-a-quote", "text-after-a-quote"])
    def test_malformed_quoting_names_its_line(self, tmp_path, text, message):
        path = write_text(tmp_path / "d.csv", text)
        with pytest.raises(DataError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: {message}"

    def test_memory_beyond_the_result_is_one_block(self, tmp_path):
        # The result is 5.77 MB.  CPython 3.11 traced 6.26 MB beyond it here:
        # the per-block arrays, which the result copies, and 0.50 MB more.  In
        # blocks of 4096 rows, whatever the width, it traced 12.99 MB, and
        # 55.5 MB for the whole file's rows (reference_load_csv)
        path = tmp_path / "d.csv"
        write_csv(path, wide_series())
        tracemalloc.start()
        try:
            series = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = series.values.nbytes + series.timestamps.nbytes + series.labels.nbytes
        assert peak - result < result + 1e6, f"{(peak - result) / 1e6:.2f} MB beyond the result"

    def test_roundtrip_bytes(self, tmp_path):
        series = RawSeries(["x", "y"], np.array([[0.1, 0.2], [3.0, -4.5]]),
                           labels=np.array([0, 1]))
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(first, series)
        write_csv(second, load_csv(first))
        assert first.read_bytes() == second.read_bytes()


class TestWriteCsv:
    EDGE = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0, 123456789.0, 1e-7,
            float("nan"), float("inf"), float("-inf")]

    @pytest.mark.parametrize("extras", ["none", "timestamps", "labels", "both"])
    @pytest.mark.parametrize("length", [1, 2, 17])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bytes_match_row_writer(self, tmp_path, rng, extras, length, dtype):
        names = ["plain", "with,comma", 'with "quote"', "two\nlines", " padded "]
        values = rng.standard_normal((len(names), length)) * 10.0 ** rng.integers(-8, 8, length)
        edge = np.resize(np.array(self.EDGE), values.size).reshape(values.shape)
        with np.errstate(over="ignore"):            # 1e308 is inf in float32
            values = np.where(rng.random(values.shape) < 0.3, edge, values).astype(dtype)
        timestamps = labels = None
        if extras in ("timestamps", "both"):
            timestamps = np.arange(length, dtype=np.int64) * 60 - 5
        if extras in ("labels", "both"):
            labels = rng.integers(0, 2, length)
        series = RawSeries(names, values, timestamps, labels)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_csv(got, series)
        reference_write_csv(want, series)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 7])
    def test_blocks_match_row_writer_and_load_back(self, tmp_path, rng, monkeypatch, length):
        monkeypatch.setattr(canet.data, "CSV_BLOCK_CELLS", 3 * 6)      # 3 rows of 6 cells
        values = rng.standard_normal((4, length)) * 10.0 ** rng.integers(-300, 300, (4, length))
        series = RawSeries(["a", "b,c", "d", "e"], values, np.arange(length) * 60.0 - 5,
                           rng.integers(0, 2, length))
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_csv(got, series)
        reference_write_csv(want, series)
        assert got.read_bytes() == want.read_bytes()
        back = load_csv(got)
        assert back.sensor_names == series.sensor_names
        for name in ("values", "timestamps", "labels"):
            assert getattr(back, name).tobytes() == getattr(series, name).tobytes(), name

    def test_memory_is_one_block_of_text(self, tmp_path):
        # CPython 3.11 traced 0.40 MB writing wide_series(), 6.48 MB in blocks
        # of 4096 rows, whatever the width
        series = wide_series()
        peak = traced_peak(lambda: write_csv(tmp_path / "d.csv", series))
        assert peak < 1e6, f"peak {peak / 1e6:.2f} MB"

    def test_float_timestamps_and_edge_values(self, tmp_path):
        series = RawSeries(["a"], np.array([[-0.0, 5e-324, 1e308]]),
                           timestamps=np.array([0.5, -0.0, 1e308]),
                           labels=np.array([1, 0, 1]))
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_csv(got, series)
        reference_write_csv(want, series)
        assert got.read_bytes() == want.read_bytes()
        assert got.read_bytes() == (b"timestamp,a,label\r\n0.5,-0.0,1\r\n"
                                    b"-0.0,5e-324,0\r\n1e+308,1e+308,1\r\n")


class TestDownsample:
    def test_median_of_ten(self):
        series = RawSeries(["s"], np.arange(1.0, 11.0)[None, :])
        out = downsample_median(series, 10)
        np.testing.assert_array_equal(out.values, [[5.5]])

    def test_factor_one_is_identity(self, rng):
        series = RawSeries(["s"], rng.standard_normal((1, 7)))
        out = downsample_median(series, 1)
        np.testing.assert_array_equal(out.values, series.values)

    def test_labels_downsample_by_block_max(self):
        series = RawSeries(["s"], np.zeros((1, 4)), labels=np.array([0, 0, 1, 0]))
        out = downsample_median(series, 4)
        np.testing.assert_array_equal(out.labels, [1])

    def test_trailing_partial_block_kept(self):
        series = RawSeries(["s"], np.array([[1.0, 2.0, 3.0, 10.0, 20.0]]))
        out = downsample_median(series, 3)
        np.testing.assert_array_equal(out.values, [[2.0, 15.0]])

    @pytest.mark.parametrize("factor", [1, 2, 3, 10])
    @pytest.mark.parametrize("length", [1, 2, 9, 10, 30, 31, 47])
    @pytest.mark.parametrize("extras", [False, True])
    def test_matches_per_block_oracle(self, rng, factor, length, extras):
        values = rng.standard_normal((4, length))
        values[1] = rng.integers(0, 3, length)        # ties inside blocks
        labels = rng.integers(0, 2, length) if extras else None
        timestamps = np.arange(length) * 2.5 + 100.0 if extras else None
        series = RawSeries(["a", "b", "c", "d"], values, timestamps, labels)
        got = downsample_median(series, factor)
        want = reference_downsample_median(series, factor)
        assert got.values.shape == (4, -(-length // factor))
        assert_same_series(got, want)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            downsample_median(RawSeries(["s"], np.zeros((1, 3))), 0)


class TestMinMax:
    def test_midpoint(self):
        train = RawSeries(["s"], np.array([[0.0, 2.0]]))
        stats = minmax_fit(train)
        out = minmax_apply(RawSeries(["s"], np.array([[1.0]])), stats)
        np.testing.assert_array_equal(out.values, [[0.5]])

    def test_constant_sensor_maps_to_zero(self):
        train = RawSeries(["s"], np.full((1, 5), 3.0))
        stats = minmax_fit(train)
        out = minmax_apply(train, stats)
        np.testing.assert_array_equal(out.values, np.zeros((1, 5)))

    def test_extrapolates_without_clipping(self):
        stats = minmax_fit(RawSeries(["s"], np.array([[0.0, 2.0]])))
        out = minmax_apply(RawSeries(["s"], np.array([[3.0]])), stats)
        np.testing.assert_array_equal(out.values, [[1.5]])

    def test_training_split_lands_in_unit_interval(self, rng):
        train = RawSeries(["a", "b"], rng.standard_normal((2, 50)) * 7 + 3)
        out = minmax_apply(train, minmax_fit(train))
        assert out.values.min() >= 0.0 and out.values.max() <= 1.0
        assert out.values.min() == 0.0 and out.values.max() == 1.0

    def test_one_new_array_keeps_every_byte_and_leaves_the_input(self, rng):
        values = rng.standard_normal((3, 20000)) * 5
        values[1] = 2.0                                 # a constant sensor
        stats = minmax_fit(RawSeries(["a", "b", "c"], values))
        expected = (values - stats.minimum[:, None]) / np.where(
            stats.maximum > stats.minimum, stats.maximum - stats.minimum, 1.0)[:, None]
        expected[1] = 0.0
        kept = values.copy()
        out = []
        peak = traced_peak(lambda: out.append(minmax_apply(RawSeries(["a", "b", "c"], values), stats)))
        assert out[0].values.tobytes() == expected.tobytes()
        assert values.tobytes() == kept.tobytes()
        assert not np.shares_memory(out[0].values, values)
        # the difference is divided in place: one series, not the difference and the quotient
        assert peak < 1.5 * values.nbytes


class TestWindows:
    def test_window_count(self, rng):
        series = RawSeries(["a"], rng.standard_normal((1, 7)))
        assert len(make_windows(series, 5)) == 2

    def test_single_window(self, rng):
        series = RawSeries(["a"], rng.standard_normal((1, 6)))
        assert len(make_windows(series, 5)) == 1

    def test_indexing_contract(self, rng):
        values = rng.standard_normal((2, 9))
        ds = make_windows(RawSeries(["a", "b"], values), 4)
        hist, targets = ds.batch([0, 2, 3])
        np.testing.assert_allclose(targets[0], values[:, 4], rtol=1e-6)
        np.testing.assert_allclose(hist[1], values[:, 2:6], rtol=1e-6)
        np.testing.assert_allclose(targets[2], values[:, 7], rtol=1e-6)
        for i, j in enumerate([0, 2, 3]):
            np.testing.assert_array_equal(hist[i], window_history(ds, j))
            np.testing.assert_array_equal(targets[i], window_target(ds, j))

    def test_too_short_series(self, rng):
        with pytest.raises(DataError):
            make_windows(RawSeries(["a"], rng.standard_normal((1, 5))), 5)

    def test_targets_reconstruct_series_tail(self, rng):
        values = rng.standard_normal((3, 12)).astype(np.float32)
        ds = make_windows(RawSeries(["a", "b", "c"], values), 4)
        _, targets = ds.batch(range(len(ds)))
        np.testing.assert_array_equal(targets.T, values[:, 4:])
        np.testing.assert_array_equal(
            targets.T, np.stack([window_target(ds, j) for j in range(len(ds))], axis=1))

    @pytest.mark.parametrize("indices", [
        [5, 0, 3, 1], [2, 2, 0, 2], np.array([6, 1, 4], dtype=np.int64), range(7),
        range(2, 5), [6]])
    def test_batch_matches_stacked_windows(self, rng, indices):
        ds = make_windows(RawSeries(["a", "b", "c"], rng.standard_normal((3, 10))), 3)
        hist, targets = ds.batch(indices)
        want_hist = np.stack([window_history(ds, j) for j in indices])
        want_targets = np.stack([window_target(ds, j) for j in indices])
        for got, want in ((hist, want_hist), (targets, want_targets)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags["C_CONTIGUOUS"]
            np.testing.assert_array_equal(got, want)

    def test_batch_copies(self, rng):
        ds = make_windows(RawSeries(["a"], rng.standard_normal((1, 6))), 2)
        hist, targets = ds.batch([0, 1])
        hist[:] = 7.0
        targets[:] = 7.0
        assert not (ds.values == 7.0).any()

    def test_batch_stacks(self, rng):
        ds = make_windows(RawSeries(["a"], rng.standard_normal((1, 10))), 3)
        hist, targets = ds.batch([0, 2, 4])
        assert hist.shape == (3, 1, 3)
        assert targets.shape == (3, 1)
