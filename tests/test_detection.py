import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import canet.data
import canet.detection
import canet.model
from canet.data import RawSeries, load_csv, make_windows
from canet.detection import (DetectionReport, anomaly_scores, confusion_metrics,
                             evaluate, inference_batch_size, normalize_errors, point_adjust,
                             prediction_errors, predict_series,
                             threshold_grid_search, write_report_json, write_scores_csv)
from canet.model import CanModel, ModelConfig, can_forward
from canet.tensor import Tensor, backward
from canet.train import _batch_loss
from conftest import float64, traced_peak


def with_batch(monkeypatch, windows, threads=1):
    """Make ``predict_series`` run ``threads`` threads on batches of
    ``windows`` windows each."""
    monkeypatch.setenv("CAN_THREADS", str(threads))
    monkeypatch.setattr(canet.detection, "inference_batch_size",
                        lambda model: windows * threads)


def brute_force_point_adjust(pred, truth):
    """Reference implementation: walk segments with explicit loops."""
    pred = list(int(v) for v in pred)
    truth = list(int(v) for v in truth)
    out = list(pred)
    i = 0
    while i < len(truth):
        if truth[i] == 1:
            j = i
            while j < len(truth) and truth[j] == 1:
                j += 1
            if any(pred[t] for t in range(i, j)):
                for t in range(i, j):
                    out[t] = 1
            i = j
        else:
            i += 1
    return np.array(out)


def reference_report_json(report) -> str:
    """report.json as one json.dumps over the summary dict."""
    out = {
        "threshold": float(report.threshold),
        "precision": float(report.precision),
        "recall": float(report.recall),
        "f1": float(report.f1),
        "counts": {"tp": int(report.tp), "fp": int(report.fp), "fn": int(report.fn)},
    }
    out.update(report.extras)
    return json.dumps(out, sort_keys=True, indent=2) + "\n"


def reference_scores_csv(report, truth) -> str:
    """scores.csv written one row per call."""
    truth = np.asarray(truth).astype(int)
    lines = ["t,score,label\n"]
    for t, s in enumerate(report.scores, len(truth) - len(report.scores)):
        lines.append(f"{t},{float(s)!r},{truth[t]}\n")
    return "".join(lines)


def brute_force_best_f1(scores, truth):
    """O(T^2) sweep: every score as threshold, both strict and inclusive."""
    best = 0.0
    candidates = np.concatenate([[scores.min() - 1.0], scores])
    for theta in candidates:
        for pred in (scores > theta, scores >= theta):
            adjusted = brute_force_point_adjust(pred.astype(int), truth)
            rep = confusion_metrics(adjusted, truth)
            best = max(best, rep.f1)
    return best


def loop_threshold_search(scores, truth):
    """Reference search: one point_adjust pass per candidate, O(T * U)."""
    values = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth).astype(bool)
    distinct = np.unique(values)
    below = distinct[0] - 1.0
    with np.errstate(over="ignore"):
        candidates = [below if below < distinct[0] else np.nextafter(distinct[0], -np.inf)]
        for a, b in zip(distinct[:-1], distinct[1:]):
            candidates.append((a + b) / 2.0 if np.isfinite(a + b) else a / 2.0 + b / 2.0)
    best = None
    for theta in candidates:
        report = confusion_metrics(point_adjust(values > theta, truth), truth)
        if best is None or report.f1 > best.f1 or (report.f1 == best.f1 and theta > best.threshold):
            best = report
            best.threshold = float(theta)
    return best


def brute_force_scores(normalized, k):
    """Reference top-k: each column sorted descending, cut to min(k, n) and
    summed left to right from 0.0, one Python float at a time."""
    out = []
    for column in np.asarray(normalized, dtype=np.float64).T.tolist():
        total = 0.0
        for value in sorted(column, reverse=True)[:k]:
            total += value
        out.append(total)
    return np.array(out, dtype=np.float64)


@st.composite
def deviation_matrices(draw):
    """(n, T) deviations, T possibly 0, in C or Fortran order, drawn from
    ties, signed zeros, subnormals and large magnitudes or any finite float,
    with a k below, at or above n."""
    n = draw(st.integers(1, 8))
    t = draw(st.integers(0, 12))
    cell = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 3.0, 5e-324, -5e-324,
                                      1e16, -1e16]),
                     st.floats(allow_nan=False, allow_infinity=False))
    cells = draw(st.lists(cell, min_size=n * t, max_size=n * t))
    matrix = np.array(cells, dtype=np.float64).reshape(n, t)
    if draw(st.booleans()):
        matrix = np.asfortranarray(matrix)
    return matrix, draw(st.integers(1, n + 2))


@st.composite
def scores_and_truth(draw):
    """Scores of one kind (any finite float, integer-valued with many ties,
    or a few values one ulp apart) and labels that are random, all
    anomalous, or hold a segment touching either end."""
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["float", "integer", "ulp"]))
    if kind == "float":
        scores = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                               min_size=n, max_size=n))
    elif kind == "integer":
        scores = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    else:
        base = draw(st.sampled_from([0.0, 1e-300, 1.0, -7.5, 1e17]))
        steps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        ladder = [base]
        for _ in range(3):
            ladder.append(np.nextafter(ladder[-1], np.inf))
        scores = [ladder[i] for i in steps]
    labels = draw(st.sampled_from(["random", "all", "start", "end"]))
    if labels == "all":
        truth = [True] * n
    else:
        truth = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        width = draw(st.integers(1, n))
        if labels == "start":
            truth[:width] = [True] * width
        elif labels == "end":
            truth[n - width:] = [True] * width
    if not any(truth):
        truth[draw(st.integers(0, n - 1))] = True
    return np.array(scores, dtype=np.float64), np.array(truth, dtype=int)


class TestPredictionErrors:
    def test_equal_inputs(self, rng):
        x = rng.standard_normal((3, 5))
        np.testing.assert_array_equal(prediction_errors(x, x), np.zeros((3, 5)))

    def test_simple_value(self):
        np.testing.assert_allclose(prediction_errors([[1.5]], [[1.0]]), [[0.5]])

    def test_sign_symmetry(self, rng):
        a, b = rng.standard_normal((2, 4)), rng.standard_normal((2, 4))
        np.testing.assert_array_equal(prediction_errors(a, b), prediction_errors(b, a))


class TestNormalizeErrors:
    def test_interpolated_quantiles_of_one_to_five(self):
        calib = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
        out = normalize_errors(np.array([[5.0]]), calib)
        np.testing.assert_allclose(out, [[1.0]])     # (5-3)/2

    def test_error_at_calibration_mean_is_zero(self):
        calib = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
        out = normalize_errors(np.full((1, 4), 3.0), calib)
        np.testing.assert_array_equal(out, np.zeros((1, 4)))

    def test_constant_calibration_row_stays_finite(self):
        calib = np.full((1, 6), 2.0)
        out = normalize_errors(np.array([[2.5]]), calib)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [[0.5 / 1e-6]])

    def test_joint_shift_invariance(self, rng):
        calib = rng.random((2, 30))
        err = rng.random((2, 10))
        base = normalize_errors(err, calib)
        shifted = normalize_errors(err + 3.0, calib + 3.0)
        np.testing.assert_allclose(base, shifted, atol=1e-9)

    def test_joint_scale_invariance(self, rng):
        calib = rng.random((2, 30)) + 0.5
        err = rng.random((2, 10))
        base = normalize_errors(err, calib)
        scaled = normalize_errors(err * 4.0, calib * 4.0)
        np.testing.assert_allclose(base, scaled, atol=1e-9)


class TestAnomalyScores:
    def test_column_example(self):
        s = np.array([[0.5], [2.0], [1.0]])
        np.testing.assert_allclose(anomaly_scores(s, 2), [3.0])

    def test_k_equals_n_sums_column(self, rng):
        s = rng.standard_normal((4, 6))
        np.testing.assert_allclose(anomaly_scores(s, 4), s.sum(axis=0), rtol=1e-9)

    def test_tied_deviations_each_count(self):
        s = np.full((3, 1), 0.7)
        np.testing.assert_allclose(anomaly_scores(s, 2), [1.4])

    def test_monotone_in_single_deviation(self, rng):
        s = rng.standard_normal((5, 8))
        base = anomaly_scores(s, 2)
        bumped = s.copy()
        bumped[3, 4] += 2.0
        out = anomaly_scores(bumped, 2)
        assert (out >= base - 1e-12).all()

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            anomaly_scores(np.zeros((2, 2)), 0)

    @given(deviation_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_sorted_column_oracle_and_keeps_input(self, case):
        normalized, k = case
        before = normalized.copy(order="A")
        with np.errstate(over="ignore", invalid="ignore"):
            scores = anomaly_scores(normalized, k)
            expected = brute_force_scores(normalized, k)
        assert scores.dtype == np.float64 and scores.shape == (normalized.shape[1],)
        assert scores.tobytes() == expected.tobytes()
        assert normalized.tobytes(order="A") == before.tobytes(order="A")
        assert normalized.flags.f_contiguous == before.flags.f_contiguous

    def test_nan_deviation_reaches_score(self):
        scores = anomaly_scores(np.array([[1.0, 2.0], [np.nan, 0.5], [0.0, 0.25]]), 2)
        assert np.isnan(scores[0]) and scores[1] == 2.5


class TestPointAdjust:
    def test_segment_fill(self):
        truth = np.array([0, 1, 1, 1, 0])
        pred = np.array([0, 0, 1, 0, 0])
        np.testing.assert_array_equal(point_adjust(pred, truth), [0, 1, 1, 1, 0])

    def test_all_zero_predictions_unchanged(self):
        truth = np.array([0, 1, 1, 0])
        np.testing.assert_array_equal(point_adjust(np.zeros(4), truth), np.zeros(4))

    def test_normals_untouched(self):
        np.testing.assert_array_equal(point_adjust(np.array([1, 0]), np.array([0, 0])), [1, 0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            point_adjust(np.zeros(3), np.zeros(4))

    def test_idempotent_and_matches_oracle(self, rng):
        for _ in range(200):
            t = int(rng.integers(1, 60))
            truth = (rng.random(t) < 0.3).astype(int)
            pred = (rng.random(t) < 0.2).astype(int)
            once = point_adjust(pred, truth)
            np.testing.assert_array_equal(once, brute_force_point_adjust(pred, truth))
            np.testing.assert_array_equal(point_adjust(once, truth), once)

    def test_monotone_in_predictions(self, rng):
        truth = (rng.random(40) < 0.3).astype(int)
        pred = (rng.random(40) < 0.15).astype(int)
        base = point_adjust(pred, truth)
        more = pred.copy()
        more[int(rng.integers(0, 40))] = 1
        grown = point_adjust(more, truth)
        assert (grown >= base).all()

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_oracle_equivalence_property(self, pairs):
        pred = np.array([int(p) for p, _ in pairs])
        truth = np.array([int(t) for _, t in pairs])
        np.testing.assert_array_equal(point_adjust(pred, truth),
                                      brute_force_point_adjust(pred, truth))


class TestConfusionMetrics:
    def test_perfect(self):
        rep = confusion_metrics(np.array([1, 0, 1]), np.array([1, 0, 1]))
        assert rep.precision == rep.recall == rep.f1 == 1.0

    def test_hand_counts(self):
        rep = confusion_metrics(np.array([1, 0, 1, 0]), np.array([1, 0, 0, 0]))
        assert (rep.tp, rep.fp, rep.fn) == (1, 1, 0)
        assert rep.precision == 0.5 and rep.recall == 1.0
        np.testing.assert_allclose(rep.f1, 2 / 3)

    def test_zero_conventions(self):
        rep = confusion_metrics(np.zeros(4), np.array([1, 1, 0, 0]))
        assert rep.precision == rep.recall == rep.f1 == 0.0
        rep = confusion_metrics(np.zeros(3), np.zeros(3))
        assert rep.precision == rep.recall == rep.f1 == 0.0


class TestThresholdSearch:
    def test_midpoint_threshold(self):
        scores = np.array([0.1, 0.9, 0.2])
        truth = np.array([0, 1, 0])
        rep = threshold_grid_search(scores, truth)
        assert rep.f1 == 1.0
        np.testing.assert_allclose(rep.threshold, 0.55)

    def test_all_anomalous_truth(self):
        # point-adjust fills the single all-covering segment for any candidate
        # that predicts at least one point, so every candidate ties at F1=1
        # and the tie rule keeps the highest threshold (fewest raw alarms)
        scores = np.array([0.3, 0.5, 0.4])
        rep = threshold_grid_search(scores, np.ones(3))
        assert rep.f1 == 1.0
        np.testing.assert_allclose(rep.threshold, 0.45)
        assert (rep.tp, rep.fp, rep.fn) == (3, 0, 0)

    def test_all_normal_truth_rejected(self):
        with pytest.raises(ValueError):
            threshold_grid_search(np.array([0.1, 0.2]), np.zeros(2))

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(30):
            t = int(rng.integers(5, 50))
            scores = np.round(rng.random(t), 2)
            truth = (rng.random(t) < 0.3).astype(int)
            if truth.sum() == 0:
                truth[int(rng.integers(0, t))] = 1
            rep = threshold_grid_search(scores, truth)
            assert rep.f1 == pytest.approx(brute_force_best_f1(scores, truth))

    def test_ties_resolve_to_higher_threshold(self):
        scores = np.array([0.1, 0.9, 0.9, 0.1])
        truth = np.array([0, 1, 1, 0])
        rep = threshold_grid_search(scores, truth)
        assert rep.f1 == 1.0
        np.testing.assert_allclose(rep.threshold, 0.5)      # highest candidate with F1=1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(scores_and_truth())
    @settings(max_examples=300, deadline=None)
    def test_sweep_equals_loop_oracle(self, case):
        scores, truth = case
        rep = threshold_grid_search(scores, truth)
        expected = loop_threshold_search(scores, truth)
        for name in ("threshold", "f1", "precision", "recall", "tp", "fp", "fn"):
            value, wanted = getattr(rep, name), getattr(expected, name)
            assert type(value) is type(wanted) and value == wanted, name

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scores", [[1e17, 2e17], [-2e17, -1e17], [1.0, 2.0],
                                        [-np.finfo(np.float64).max, 0.0]])
    def test_sentinel_predicts_everything_at_any_magnitude(self, scores):
        # anomaly at the minimum: only the sentinel below it detects it
        rep = threshold_grid_search(np.array(scores), np.array([1, 0]))
        assert rep.threshold < scores[0]
        assert rep.f1 == pytest.approx(2 / 3)
        assert (rep.tp, rep.fp, rep.fn) == (1, 1, 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_midpoints_near_float_max_stay_finite(self):
        scores = np.array([1.7e308, 1.79e308])
        rep = threshold_grid_search(scores, np.array([0, 1]))
        assert rep.threshold == 1.7e308 / 2 + 1.79e308 / 2
        assert 1.7e308 < rep.threshold < 1.79e308
        assert rep.f1 == 1.0
        rep = threshold_grid_search(-scores, np.array([1, 0]))
        assert -1.79e308 < rep.threshold < -1.7e308
        assert rep.f1 == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ordinary_candidates_keep_their_bytes(self, rng):
        # the parent definition, for scores far from 2**53 and the float max
        for _ in range(20):
            scores = rng.standard_normal(50) * 10.0 ** rng.integers(-5, 6)
            truth = (rng.random(50) < 0.2).astype(int)
            truth[0] = 1
            distinct = np.unique(scores)
            old = np.concatenate([[distinct[0] - 1.0], (distinct[:-1] + distinct[1:]) / 2.0])
            theta = np.float64(threshold_grid_search(scores, truth).threshold)
            assert theta.tobytes() in {c.tobytes() for c in old}

    def test_point_adjust_never_runs_at_scale(self, rng, monkeypatch):
        # the report takes the sweep's own counts; a per-candidate loop would
        # call it once per distinct score
        calls = []
        monkeypatch.setattr(canet.detection, "point_adjust", lambda *args: calls.append(args))
        scores = rng.standard_normal(10**5)
        truth = np.zeros(10**5, dtype=int)
        for start in range(500, 10**5, 1000):
            truth[start:start + 10] = 1
        rep = threshold_grid_search(scores, truth)
        assert calls == []
        assert rep.tp + rep.fn == truth.sum()

    @pytest.mark.parametrize("bad,index", [(np.nan, 1), (np.inf, 1), (-np.inf, 4)])
    def test_non_finite_score_rejected(self, bad, index):
        scores = np.array([0.1, 0.5, 0.3, 0.9, 0.2])
        scores[index] = bad
        with pytest.raises(ValueError, match=f"index {index} is not finite"):
            threshold_grid_search(scores, np.array([0, 0, 0, 1, 0]))


class TestReportFiles:
    EXTRAS = {"scored_from": 5, "score_sensors": 2, "calibration": "train", "can_plus": True}

    @staticmethod
    def report(scores, extras=None, threshold=0.5):
        scores = np.asarray(scores, dtype=np.float64)
        return DetectionReport(
            threshold=threshold, precision=0.25, recall=1.0, f1=0.4, tp=1, fp=3, fn=0,
            scores=scores, extras=dict(extras or {}))

    @pytest.mark.parametrize("scores", [
        [-0.0, 5e-324, 1e308, 3.0, -2.5, 1 / 3, 0.1, -1e-300, 123456789.0, 1e16],
        [2.0], [], [np.nan, np.inf, -np.inf, 1.5],
    ])
    @pytest.mark.parametrize("extras", [None, EXTRAS,
                                        {**EXTRAS, "calibration": "self", "can_plus": False}])
    def test_report_json_matches_dumps_of_dicts(self, tmp_path, scores, extras):
        report = self.report(scores, extras)
        write_report_json(tmp_path / "report.json", report)
        assert (tmp_path / "report.json").read_text() == reference_report_json(report)

    def test_report_json_without_trail(self, tmp_path):
        report = confusion_metrics(np.array([1, 0, 1]), np.array([1, 1, 0]))
        write_report_json(tmp_path / "report.json", report)
        text = (tmp_path / "report.json").read_text()
        assert text == reference_report_json(report)
        assert '"threshold": NaN' in text

    def test_evaluated_report_files_match_row_writers(self, tmp_path):
        model, dataset, labels = TestEvaluate.tiny_setup(can_plus=True)
        for kwargs in ({}, {"can_plus": True},
                       {"calibration": TestEvaluate.calibration_windows()}):
            report = evaluate(model, dataset, **kwargs)
            write_report_json(tmp_path / "report.json", report)
            write_scores_csv(tmp_path / "scores.csv", report, labels)
            assert (tmp_path / "report.json").read_text() == reference_report_json(report)
            assert (tmp_path / "scores.csv").read_bytes() == \
                reference_scores_csv(report, labels).encode()

    @pytest.mark.parametrize("scores", [
        [-0.0, 5e-324, 1e308, 3.0, -2.5, 1 / 3], [7.25], []])
    def test_scores_csv_matches_row_writer(self, tmp_path, scores):
        report = self.report(scores)
        truth = np.random.default_rng(1).integers(0, 2, 5 + len(scores))
        write_scores_csv(tmp_path / "scores.csv", report, truth)
        assert (tmp_path / "scores.csv").read_bytes() == \
            reference_scores_csv(report, truth).encode()

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 7])
    def test_scores_csv_in_blocks_matches_row_writer_and_loads(self, tmp_path, monkeypatch,
                                                                count):
        monkeypatch.setattr(canet.data, "CSV_BLOCK_CELLS", 3 * 3)      # 3 rows of 3 cells
        gen = np.random.default_rng(count)
        report = self.report(gen.standard_normal(count) * 10.0 ** gen.integers(-300, 300, count))
        truth = gen.integers(0, 2, 4 + count)
        path = tmp_path / "scores.csv"
        write_scores_csv(path, report, truth)
        assert path.read_bytes() == reference_scores_csv(report, truth).encode()
        if count:       # load_csv rejects a header without data rows
            table = load_csv(path)
            assert table.sensor_names == ["t", "score"]
            np.testing.assert_array_equal(table.values[0], np.arange(4, 4 + count))
            assert table.values[1].tobytes() == report.scores.tobytes()
            np.testing.assert_array_equal(table.labels, truth[4:])

    # tracemalloc peak of writing 2*10^5 scores: 29.2 MiB when every row was
    # joined into one string, 0.50 MiB in blocks of 4096 rows, 0.05 MiB in
    # blocks of block_rows(3) = 341
    WRITE_BOUND_MIB = 0.2

    def test_scores_csv_peak_under_bound(self, tmp_path):
        gen = np.random.default_rng(0)
        report = self.report(gen.standard_normal(200_000))
        truth = gen.integers(0, 2, 200_005)
        peak = traced_peak(lambda: write_scores_csv(tmp_path / "scores.csv", report, truth))
        assert peak / 2 ** 20 < self.WRITE_BOUND_MIB, f"peak {peak / 2 ** 20:.2f} MiB"


class TestScoringMemory:
    # tracemalloc peak of evaluate on 51 sensors x 2*10^4 scored windows, the
    # model stubbed out by fresh prediction arrays, counted in (n, T) float64
    # arrays of 7.8 MiB: 4.1 plain and 8.0 with the reconstruction fused when
    # each stage kept its input and anomaly_scores a full argsort; 2.2 and 3.0
    # when each stage allocates one array and its input goes once used.
    @pytest.mark.parametrize("can_plus, bound", [(False, 2.5), (True, 3.5)])
    def test_peak_in_arrays_under_bound(self, monkeypatch, can_plus, bound):
        gen = np.random.default_rng(0)
        n, scored, window = 51, 20_000, 5
        labels = np.zeros(scored + window, dtype=np.int64)
        labels[10_000:10_050] = 1
        series = RawSeries([f"s{i}" for i in range(n)],
                           gen.random((n, scored + window)), labels=labels)
        dataset = make_windows(series, window)
        predictions = gen.random((n, scored))
        rec_last = gen.random((n, scored)) if can_plus else None
        monkeypatch.setattr(canet.detection, "predict_series", lambda *args: (
            predictions.copy(), None if rec_last is None else rec_last.copy()))
        peak = traced_peak(lambda: evaluate(None, dataset, can_plus=can_plus))
        peak /= predictions.nbytes
        assert peak < bound, f"peak {peak:.2f} arrays"


class TestEvaluate:
    @staticmethod
    def tiny_setup(seed=0, can_plus=False, labels=None):
        gen = np.random.default_rng(seed)
        values = gen.random((3, 40)).astype(np.float32)
        if labels is None:
            labels = np.zeros(40, dtype=int)
            labels[25:30] = 1
        series = RawSeries(["a", "b", "c"], values, labels=labels)
        dataset = make_windows(series, 4)
        model = CanModel(ModelConfig(n_sensors=3, window=4, layers=1, heads=2,
                                     model_dim=8, embed_dim=4, neighbor_k=2), seed=seed)
        return model, dataset, labels

    @staticmethod
    def calibration_windows():
        values = np.random.default_rng(9).random((3, 24))
        return make_windows(RawSeries(["a", "b", "c"], values), 4)

    def test_zero_weight_model_yields_finite_report(self):
        model, dataset, _ = self.tiny_setup()
        for _, p in model.named_parameters():
            p.data = np.zeros_like(p.data)
        report = evaluate(model, dataset)
        assert np.isfinite(report.scores).all()
        assert 0.0 <= report.f1 <= 1.0

    def test_untrained_model_yields_consistent_report(self):
        model, dataset, _ = self.tiny_setup()
        report = evaluate(model, dataset)
        assert 0.0 <= report.f1 <= 1.0
        assert report.scores.shape == (36,)
        assert report.extras["scored_from"] == 4
        # metrics recomputed from counts agree
        p = report.tp / (report.tp + report.fp) if report.tp + report.fp else 0.0
        r = report.tp / (report.tp + report.fn) if report.tp + report.fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        assert report.f1 == pytest.approx(f)

    def test_score_sensor_count_changes_scores_not_consistency(self):
        model, dataset, _ = self.tiny_setup()
        small = evaluate(model, dataset, score_sensors=2)
        full = evaluate(model, dataset, score_sensors=3)
        assert not np.allclose(small.scores, full.scores)
        assert 0.0 <= full.f1 <= 1.0

    def test_can_plus_changes_scores(self):
        model, dataset, _ = self.tiny_setup()
        base = evaluate(model, dataset)
        fused = evaluate(model, dataset, can_plus=True)
        assert not np.allclose(base.scores, fused.scores)

    def test_calibration_windows_select_train_calibration(self):
        model, dataset, _ = self.tiny_setup()
        assert evaluate(model, dataset).extras["calibration"] == "self"
        calib = self.calibration_windows()
        report = evaluate(model, dataset, calibration=calib)
        assert np.isfinite(report.scores).all()
        assert report.extras["calibration"] == "train"

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_train_calibration_scores_match_oracle(self, monkeypatch, k):
        model, dataset, _ = self.tiny_setup(seed=4)
        calib = self.calibration_windows()
        with_batch(monkeypatch, 5)
        report = evaluate(model, dataset, score_sensors=k, calibration=calib)
        e_test = prediction_errors(predict_series(model, dataset)[0], dataset.values[:, 4:])
        e_cal = prediction_errors(predict_series(model, calib)[0], calib.values[:, 4:])
        expected = anomaly_scores(normalize_errors(e_test, e_cal), k)
        np.testing.assert_array_equal(report.scores, expected)
        assert not np.array_equal(report.scores,
                                  evaluate(model, dataset, score_sensors=k).scores)

    def test_unlabelled_dataset_rejected(self):
        model, _, _ = self.tiny_setup()
        with pytest.raises(ValueError, match="labels"):
            evaluate(model, self.calibration_windows())

    def test_thread_count_never_changes_results(self, monkeypatch):
        model, dataset, _ = self.tiny_setup(seed=3)
        with_batch(monkeypatch, 7)
        serial = evaluate(model, dataset)
        with_batch(monkeypatch, 7, threads=4)
        threaded = evaluate(model, dataset)
        assert serial.scores.tobytes() == threaded.scores.tobytes()
        assert serial.threshold == threaded.threshold

    @pytest.mark.parametrize("with_reconstruction, per_batch", [(False, 1), (True, 2)])
    def test_reconstruction_decoder_runs_only_when_asked(self, monkeypatch,
                                                         with_reconstruction, per_batch):
        model, dataset, _ = self.tiny_setup(seed=2)
        calls = []
        decoder_forward = canet.model.decoder_forward

        def counted(*args, **kwargs):
            calls.append(args)
            return decoder_forward(*args, **kwargs)

        with_batch(monkeypatch, 10)
        monkeypatch.setattr(canet.model, "decoder_forward", counted)
        predict_series(model, dataset, with_reconstruction=with_reconstruction)
        assert len(calls) == per_batch * 4          # 36 windows in batches of 10

    def test_skipping_reconstruction_keeps_predictions_bit_identical(self, monkeypatch):
        model, dataset, _ = self.tiny_setup(seed=8)
        with_batch(monkeypatch, 16)
        plain, no_rec = predict_series(model, dataset)
        full, rec = predict_series(model, dataset, with_reconstruction=True)
        assert no_rec is None and rec is not None
        assert plain.tobytes() == full.tobytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_predict_series_records_no_tape(self, monkeypatch, recorded_creators, threads):
        model, dataset, _ = self.tiny_setup(seed=6)
        can_forward(Tensor(dataset.batch(range(4))[0]), model)
        assert any(recorded_creators)           # the counter sees a taped pass
        recorded_creators.clear()
        with_batch(monkeypatch, 10, threads=int(threads))
        predict_series(model, dataset, with_reconstruction=True)
        assert recorded_creators and not any(recorded_creators)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_training_after_evaluate_gets_gradients(self, monkeypatch, threads):
        model, dataset, _ = self.tiny_setup(seed=7)
        with_batch(monkeypatch, 10, threads=int(threads))
        evaluate(model, dataset, can_plus=True)
        grads = backward(_batch_loss(model, dataset, np.arange(8), 0.5, 0.5))
        for name, p in model.named_parameters():
            assert p in grads and np.abs(grads[p]).sum() > 0, name

    def test_predict_series_columns_align_with_targets(self, monkeypatch):
        model, dataset, _ = self.tiny_setup(seed=5)
        with_batch(monkeypatch, 10)
        preds, rec = predict_series(model, dataset, with_reconstruction=True)
        assert preds.shape == (3, len(dataset))
        assert rec.shape == (3, len(dataset))
        from canet.model import can_forward
        from canet.tensor import Tensor
        single = can_forward(Tensor(dataset.batch([6])[0]), model)
        np.testing.assert_allclose(preds[:, 6], single.y_pred.data[0], rtol=1e-6)
        np.testing.assert_allclose(rec[:, 6], single.y_rec.data[0, :, -1], rtol=1e-6)

    @pytest.mark.parametrize("cast, dtype", [(False, np.float32), (True, np.float64)],
                             ids=["built", "float64"])
    def test_predictions_are_held_in_the_model_dtype(self, cast, dtype):
        model, dataset, _ = self.tiny_setup(seed=5)
        if cast:
            float64(model)
        predictions, rec_last = predict_series(model, dataset, with_reconstruction=True)
        assert predictions.dtype == dtype and rec_last.dtype == dtype

    @pytest.mark.parametrize("can_plus", [False, True], ids=["plain", "can-plus"])
    def test_float32_predictions_keep_every_error_byte(self, monkeypatch, can_plus):
        model, dataset, _ = self.tiny_setup(seed=4)
        predictions, rec_last = predict_series(model, dataset, with_reconstruction=True)
        assert predictions.dtype == np.float32
        for held, actual in ((predictions, dataset.values[:, 4:]),
                             (rec_last, dataset.values[:, 3:-1])):
            errors = prediction_errors(held, actual)
            assert errors.tobytes() == prediction_errors(held.astype(np.float64), actual).tobytes()

        expected = evaluate(model, dataset, can_plus=can_plus)
        monkeypatch.setattr(canet.detection, "predict_series", lambda *args: tuple(
            None if a is None else a.astype(np.float64) for a in predict_series(*args)))
        widened = evaluate(model, dataset, can_plus=can_plus)
        assert expected.scores.tobytes() == widened.scores.tobytes()
        assert expected.threshold == widened.threshold


PAPER_KNOBS = dict(window=5, layers=3, heads=8, model_dim=32, embed_dim=10, neighbor_k=10)
DESK_KNOBS = dict(window=5, layers=1, heads=4, model_dim=16, embed_dim=8, neighbor_k=5)


class TestInferenceBatchSize:
    @pytest.mark.parametrize("n_sensors, knobs, dtype, expected", [
        (51, PAPER_KNOBS, np.float32, 26), (51, PAPER_KNOBS, np.float64, 13),
        (5, DESK_KNOBS, np.float32, 256), (2000, PAPER_KNOBS, np.float32, 1)],
        ids=["paper", "paper-float64", "desk", "too-wide"])
    def test_rule(self, n_sensors, knobs, dtype, expected):
        model = CanModel(ModelConfig(n_sensors=n_sensors, **knobs), seed=0)
        if dtype is np.float64:
            float64(model)
        assert inference_batch_size(model) == expected

    @pytest.mark.parametrize("n_sensors, knobs", [(5, DESK_KNOBS), (51, PAPER_KNOBS)],
                             ids=["desk", "paper"])
    def test_batch_size_never_changes_the_numbers(self, monkeypatch, n_sensors, knobs):
        values = np.random.default_rng(11).random((n_sensors, 275))
        dataset = make_windows(RawSeries([f"s{i}" for i in range(n_sensors)], values), 5)
        model = CanModel(ModelConfig(n_sensors=n_sensors, **knobs), seed=1)
        assert len(dataset) > 256
        runs = {"default": predict_series(model, dataset, with_reconstruction=True)}
        for size in (len(dataset), 1, 7, inference_batch_size(model), 256):
            with_batch(monkeypatch, size)
            runs[size] = predict_series(model, dataset, with_reconstruction=True)
        expected = runs[len(dataset)]
        for size, (predictions, rec_last) in runs.items():
            assert predictions.tobytes() == expected[0].tobytes(), size
            assert rec_last.tobytes() == expected[1].tobytes(), size
