import numpy as np
import pytest

from canet.data import (DataError, RawSeries, downsample_median, load_csv,
                        make_windows, minmax_apply, minmax_fit, write_csv)


def write_text(path, text):
    path.write_text(text)
    return path


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

    def test_roundtrip_bytes(self, tmp_path):
        series = RawSeries(["x", "y"], np.array([[0.1, 0.2], [3.0, -4.5]]),
                           labels=np.array([0, 1]))
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(first, series)
        write_csv(second, load_csv(first))
        assert first.read_bytes() == second.read_bytes()


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
        np.testing.assert_allclose(ds.target(0), values[:, 4], rtol=1e-6)
        np.testing.assert_allclose(ds.history(2), values[:, 2:6], rtol=1e-6)
        np.testing.assert_allclose(ds.target(3), values[:, 7], rtol=1e-6)

    def test_too_short_series(self, rng):
        with pytest.raises(DataError):
            make_windows(RawSeries(["a"], rng.standard_normal((1, 5))), 5)

    def test_targets_reconstruct_series_tail(self, rng):
        values = rng.standard_normal((3, 12)).astype(np.float32)
        ds = make_windows(RawSeries(["a", "b", "c"], values), 4)
        rebuilt = np.stack([ds.target(j) for j in range(len(ds))], axis=1)
        np.testing.assert_array_equal(rebuilt, values[:, 4:])

    def test_batch_stacks(self, rng):
        ds = make_windows(RawSeries(["a"], rng.standard_normal((1, 10))), 3)
        hist, targets = ds.batch([0, 2, 4])
        assert hist.shape == (3, 1, 3)
        assert targets.shape == (3, 1)
