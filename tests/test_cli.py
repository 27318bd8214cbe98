import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from canet.checkpoint import load_checkpoint, save_checkpoint
from canet.cli import _load_windows, _match_sensors, main, parse_config_file
from canet.data import NormStats, RawSeries, load_csv, write_csv
from canet.detection import confusion_metrics, point_adjust
from conftest import BAD_HEADERS, append_data_bytes, rewrite_header, traced_peak


def run(*argv) -> int:
    return main(list(argv))


def synth_args(out, seed=7, sensors=4, length=300, spikes=2):
    return ["synth", "--sensors", str(sensors), "--length", str(length),
            "--seed", str(seed), "--spikes", str(spikes), "--out", str(out)]


def train_args(data, out, **extra):
    argv = ["train", "--data", str(data), "--out", str(out),
            "--seed", "3", "--window", "4", "--layers", "1", "--heads", "2",
            "--model-dim", "8", "--embed-dim", "4", "--neighbor-k", "2",
            "--batch-size", "32", "--lr", "0.002", "--max-epochs", "3"]
    for key, value in extra.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


class TestSynthCommand:
    def test_writes_three_files(self, tmp_path):
        assert run(*synth_args(tmp_path)) == 0
        for name in ("train.csv", "test.csv", "truth-graph.json"):
            assert (tmp_path / name).is_file()
        truth = json.loads((tmp_path / "truth-graph.json").read_text())
        assert len(truth["sensors"]) == 4
        assert len(truth["anomalies"]) == 2

    def test_idempotent_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(*synth_args(a))
        run(*synth_args(b))
        for name in ("train.csv", "test.csv", "truth-graph.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_spikes_means_clean_labels(self, tmp_path):
        run(*synth_args(tmp_path, spikes=0))
        series = load_csv(tmp_path / "test.csv")
        assert series.labels.sum() == 0

    @pytest.mark.parametrize("seed", [1, 6, 7])
    def test_mixed_kinds_never_overlap(self, tmp_path, seed):
        argv = synth_args(tmp_path, seed=seed, sensors=6) + ["--drifts", "1", "--stucks", "1"]
        assert run(*argv) == 0
        truth = json.loads((tmp_path / "truth-graph.json").read_text())
        spans = sorted((a["start"], a["start"] + a["duration"]) for a in truth["anomalies"])
        assert [a["kind"] for a in truth["anomalies"]] == ["spike", "spike", "drift", "stuck"]
        assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
        labels = load_csv(tmp_path / "test.csv").labels
        assert labels.sum() == sum(end - start for start, end in spans)

    @pytest.mark.parametrize("flag, value", [
        ("--sensors", "0"), ("--length", "1"), ("--duration", "0"), ("--spikes", "40")])
    def test_out_of_range_flag_exits_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        assert run(*synth_args(out), flag, value) == 2          # the last flag wins
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, spikes", [
        ("--magnitude", "nan", 2), ("--magnitude", "inf", 2), ("--spikes", "-1", 2),
        ("--drifts", "-1", 2), ("--stucks", "-1", 2), ("--duration", "0", 0),
        ("--seed", "-1", 0)])
    def test_flag_that_would_write_bad_data_exits_2(self, tmp_path, capsys, flag, value, spikes):
        out = tmp_path / "out"
        assert run(*synth_args(out, spikes=spikes), flag, value) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} must be ")
        assert not out.exists()


class TestTrainCommand:
    def test_writes_checkpoint_and_log(self, tmp_path, capsys):
        run(*synth_args(tmp_path))
        out = tmp_path / "run1"
        assert run(*train_args(tmp_path / "train.csv", out)) == 0
        model, _ = load_checkpoint(out / "model.ckpt")
        assert f", {model.num_parameters()} parameters\n" in capsys.readouterr().out
        lines = (out / "train.log").read_text().strip().splitlines()
        entries = [json.loads(line) for line in lines]
        assert all({"epoch", "train_loss", "val_loss", "phi", "lr"} == set(e) for e in entries)
        assert (out / "config.txt").is_file()

    def test_missing_data_file_exits_3(self, tmp_path, capsys):
        code = run(*train_args(tmp_path / "nope.csv", tmp_path / "out"))
        assert code == 3
        assert "nope.csv" in capsys.readouterr().err

    def test_seed_required(self, tmp_path):
        run(*synth_args(tmp_path))
        argv = ["train", "--data", str(tmp_path / "train.csv"), "--out", str(tmp_path / "o")]
        assert run(*argv) == 2

    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        run(*synth_args(tmp_path))
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("windoow=4\nseed=1\n")
        code = run("train", "--data", str(tmp_path / "train.csv"),
                   "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "windoow" in capsys.readouterr().err

    def test_flags_override_config_file(self, tmp_path):
        run(*synth_args(tmp_path))
        cfg = tmp_path / "c.cfg"
        cfg.write_text("window=9\nseed=1\nlayers=1\nheads=2\nmodel_dim=8\n"
                       "embed_dim=4\nneighbor_k=2\nmax_epochs=2\nlr=0.002\n")
        out = tmp_path / "run"
        code = run("train", "--data", str(tmp_path / "train.csv"),
                   "--config", str(cfg), "--out", str(out), "--window", "4")
        assert code == 0
        text = (out / "config.txt").read_text()
        assert "window=4" in text

    def test_config_txt_is_a_config_file(self, tmp_path):
        run(*synth_args(tmp_path))
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(*train_args(tmp_path / "train.csv", first),
                   "--can-plus", "--calibration", "train") == 0
        assert run("train", "--data", str(tmp_path / "train.csv"),
                   "--config", str(first / "config.txt"), "--out", str(second)) == 0
        for name in ("config.txt", "model.ckpt", "train.log"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_series_too_short_after_downsampling_names_file_and_factor(self, tmp_path, capsys):
        run(*synth_args(tmp_path))
        data = tmp_path / "train.csv"
        code = run(*train_args(data, tmp_path / "o", downsample=100))
        assert code == 3
        assert (f"{data}: 300 rows, downsampled by 100 to 3, are fewer than window + 1 = 5"
                in capsys.readouterr().err)

    def test_flags_are_checked_after_merging_over_config_file(self, tmp_path):
        # heads=3 alone does not divide the default model_dim of 32
        run(*synth_args(tmp_path))
        cfg = tmp_path / "c.cfg"
        cfg.write_text("heads=3\n")
        argv = train_args(tmp_path / "train.csv", tmp_path / "run")
        del argv[argv.index("--heads"):argv.index("--heads") + 2]
        argv[argv.index("--model-dim") + 1] = "12"
        assert run(*argv, "--config", str(cfg)) == 0
        text = (tmp_path / "run" / "config.txt").read_text()
        assert "heads=3\n" in text and "model_dim=12\n" in text

    def test_ablation_variant_trains(self, tmp_path):
        run(*synth_args(tmp_path))
        out = tmp_path / "run-ablate"
        code = run(*train_args(tmp_path / "train.csv", out, ablation="no-local-graph"))
        assert code == 0
        with open(out / "model.ckpt", "rb") as handle:
            header = json.loads(handle.readline())
        assert header["config"]["ablation"] == "no-local-graph"

    def test_divergence_exits_4(self, tmp_path, capsys):
        run(*synth_args(tmp_path))
        with np.errstate(all="ignore"):
            code = run(*train_args(tmp_path / "train.csv", tmp_path / "odiv",
                                   lr="1e12", max_epochs="2"))
        assert code == 4
        assert "loss" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, key", [
        ({"heads": 0}, "heads"),
        ({"heads": 3, "model_dim": 16}, "model_dim"),
        ({"batch_size": 0}, "batch_size"),
        ({"val_fraction": 1.5}, "val_fraction"),
        ({"lr": -1}, "lr"),
        ({"max_epochs": 0}, "max_epochs"),
        ({"score_sensors": 0}, "score_sensors"),
    ])
    def test_out_of_range_config_exits_2(self, tmp_path, capsys, flags, key):
        run(*synth_args(tmp_path))
        out = tmp_path / "o"
        code = run(*train_args(tmp_path / "train.csv", out, **flags))
        assert code == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("key", ["lr", "lr_decay"])
    def test_infinite_rate_exits_2_before_reading_data(self, tmp_path, capsys, key, source):
        out = tmp_path / "o"
        argv = train_args(tmp_path / "absent.csv", out)
        del argv[argv.index("--lr"):argv.index("--lr") + 2]     # a flag would override the file
        if source == "flag":
            argv += [f"--{key.replace('_', '-')}", "inf"]
        else:
            (tmp_path / "c.cfg").write_text(f"{key}=inf\n")
            argv += ["--config", str(tmp_path / "c.cfg")]
        assert run(*argv) == 2
        assert f"config key '{key}' must be finite and >= 0, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed=1\nlayers=1\n\nlayers=2\n")
        out = tmp_path / "o"
        code = run("train", "--data", str(tmp_path / "absent.csv"), "--config", str(cfg),
                   "--out", str(out))
        assert code == 2
        assert f"{cfg}:4: config key 'layers' repeats line 2" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_byte_order_mark_is_ignored(self, tmp_path):
        run(*synth_args(tmp_path))
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfmax_epochs=1\n")
        argv = train_args(tmp_path / "train.csv", tmp_path / "o")
        del argv[argv.index("--max-epochs"):argv.index("--max-epochs") + 2]
        assert run(*argv, "--config", str(cfg)) == 0
        assert "max_epochs=1\n" in (tmp_path / "o" / "config.txt").read_text()

    def test_config_file_not_utf8_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"seed=1\n\xff=2\n")
        out = tmp_path / "o"
        code = run("train", "--data", str(tmp_path / "absent.csv"), "--config", str(cfg),
                   "--out", str(out))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {cfg}: ")
        assert "can't decode byte 0xff in position 7" in err
        assert not out.exists()

    def test_non_finite_training_cell_exits_3(self, tmp_path, capsys):
        run(*synth_args(tmp_path))
        lines = (tmp_path / "train.csv").read_text().splitlines()
        cells = lines[10].split(",")
        cells[2] = "nan"
        lines[10] = ",".join(cells)
        (tmp_path / "train.csv").write_text("\n".join(lines) + "\n")
        code = run(*train_args(tmp_path / "train.csv", tmp_path / "o"))
        assert code == 3
        err = capsys.readouterr().err
        assert "row 10" in err and repr(lines[0].split(",")[2]) in err

    def test_repeated_sensor_name_exits_3(self, tmp_path, capsys):
        run(*synth_args(tmp_path))
        text = (tmp_path / "train.csv").read_text()
        (tmp_path / "train.csv").write_text(text.replace("sensor_1", "sensor_0", 1))
        out = tmp_path / "o"
        code = run(*train_args(tmp_path / "train.csv", out))
        assert code == 3
        assert "'sensor_0'" in capsys.readouterr().err
        assert not out.exists()

    def test_downsample_applies_to_train_and_evaluate(self, tmp_path):
        run(*synth_args(tmp_path, length=600, spikes=2))
        out = tmp_path / "run-ds"
        code = run(*train_args(tmp_path / "train.csv", out, downsample="2"))
        assert code == 0
        eval_dir = tmp_path / "eval-ds"
        code = run("evaluate", "--data", str(tmp_path / "test.csv"),
                   "--checkpoint", str(out / "model.ckpt"), "--out", str(eval_dir))
        assert code == 0
        rows = (eval_dir / "scores.csv").read_text().splitlines()
        # 600 test rows downsampled by 2 leave 300, minus the 4-step window
        assert len(rows) == 1 + 300 - 4

    def test_thread_env_var_does_not_change_results(self, tmp_path, monkeypatch):
        run(*synth_args(tmp_path, length=400, spikes=2))
        out = tmp_path / "run-thr"
        run(*train_args(tmp_path / "train.csv", out))
        serial_dir, threaded_dir = tmp_path / "e1", tmp_path / "e2"
        monkeypatch.setenv("CAN_THREADS", "1")
        run("evaluate", "--data", str(tmp_path / "test.csv"),
            "--checkpoint", str(out / "model.ckpt"), "--out", str(serial_dir))
        monkeypatch.setenv("CAN_THREADS", "4")
        run("evaluate", "--data", str(tmp_path / "test.csv"),
            "--checkpoint", str(out / "model.ckpt"), "--out", str(threaded_dir))
        assert (serial_dir / "report.json").read_bytes() == \
            (threaded_dir / "report.json").read_bytes()


SRC = Path(__file__).resolve().parents[1] / "src"
DESK_FLAGS = ("--window", "5", "--layers", "1", "--heads", "4", "--model-dim", "16",
              "--embed-dim", "8", "--neighbor-k", "5")
PAPER_FLAGS = ("--window", "5", "--layers", "3", "--heads", "8", "--model-dim", "32",
               "--embed-dim", "10", "--neighbor-k", "10")


# ``canet`` trains in this interpreter, then the script prints the number
# of threads numpy's bundled OpenBLAS is left with.
BLAS_AFTER_TRAIN = """
import ctypes
from numpy._core import _multiarray_umath
from canet.cli import main
assert main({argv!r}) == 0
count = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_num_threads64_
count.restype = ctypes.c_int
print("blas threads", count())
"""


def run_process(*argv, blas_threads="1", threads="1"):
    """``canet`` in a fresh process, where the BLAS thread count still takes
    effect; returns the finished process."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=blas_threads,
               CAN_THREADS=threads)
    return subprocess.run([sys.executable, "-m", "canet.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=600)


class TestThreadPolicy:
    def test_paper_outputs_never_depend_on_thread_counts(self, tmp_path):
        # 95 windows, 10 held out: optimizer batches of 40, 40 and 5 windows,
        # the full ones in five micro-batches of 8
        run(*synth_args(tmp_path, sensors=51, length=100))
        outputs = {}
        for blas in ("1", "2"):
            for threads in ("1", "2"):
                out = tmp_path / f"blas{blas}-threads{threads}"
                calls = [("train", "--data", str(tmp_path / "train.csv"), "--out", str(out),
                          "--seed", "1", *PAPER_FLAGS, "--batch-size", "40",
                          "--max-epochs", "1"),
                         ("evaluate", "--data", str(tmp_path / "test.csv"), "--checkpoint",
                          str(out / "model.ckpt"), "--out", str(out / "plain")),
                         ("evaluate", "--data", str(tmp_path / "test.csv"), "--checkpoint",
                          str(out / "model.ckpt"), "--out", str(out / "plus"), "--can-plus")]
                for argv in calls:
                    done = run_process(*argv, blas_threads=blas, threads=threads)
                    assert done.returncode == 0, done.stderr
                names = ("model.ckpt", "train.log", "plain/report.json", "plain/scores.csv",
                         "plus/report.json", "plus/scores.csv")
                outputs[out.name] = {name: (out / name).read_bytes() for name in names}
        first, *rest = outputs.values()
        for key, files in zip(list(outputs)[1:], rest):
            for name, data in files.items():
                assert data == first[name], f"{key}/{name}"

    def test_desk_run_keeps_its_one_pass_bytes(self, tmp_path):
        # a desk batch of 64 is one micro-batch; the train.log digest was written
        # by the one-pass training step that came before micro-batches, and the
        # checkpoint's parameter data is still that step's (its header lost the
        # removed adjacency, position and local-width keys)
        run(*synth_args(tmp_path, sensors=5, length=600, spikes=0))
        out = tmp_path / "desk"
        assert run("train", "--data", str(tmp_path / "train.csv"), "--out", str(out),
                   "--seed", "7", *DESK_FLAGS, "--batch-size", "64", "--lr", "0.002",
                   "--max-epochs", "3") == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("model.ckpt", "train.log")}
        assert digests == {
            "model.ckpt": "c15283789894f7b36f6ef13f5d9b29e122bdd2bb84d89c78285480571d4b055a",
            "train.log": "a1414f1d07cb48cc2bdd54572ee6ce770cc813604d38d94385d1da200d4f9b62"}

    # finished: the epochs done before the fault, which train.log must keep
    @pytest.mark.parametrize("batch, lr, where, finished", [
        ("32", "100", "epoch 2, batch starting 288", 1),
        ("300", "1e6", "epoch 1, batch starting 300", 0),     # micro-batches of 256 and 44
    ], ids=["one-pass", "micro-batched"])
    def test_divergence_writes_one_stderr_line(self, tmp_path, batch, lr, where, finished):
        run(*synth_args(tmp_path, sensors=5, length=600, spikes=0))
        done = run_process("train", "--data", str(tmp_path / "train.csv"),
                           "--out", str(tmp_path / "div"), "--seed", "7", *DESK_FLAGS,
                           "--batch-size", batch, "--lr", lr, "--max-epochs", "6",
                           threads="2")
        assert done.returncode == 4
        assert done.stderr.splitlines() == [f"error: non-finite training loss nan at {where}"]
        entries = [json.loads(line)
                   for line in (tmp_path / "div" / "train.log").read_text().splitlines()]
        assert [entry["epoch"] for entry in entries] == list(range(1, finished + 1))
        assert all(np.isfinite(entry[key]) for entry in entries
                   for key in ("train_loss", "val_loss"))

    def test_blas_runs_on_one_thread(self, tmp_path):
        # a fresh interpreter asks for 2 BLAS threads; the train must leave 1
        try:
            from numpy._core import _multiarray_umath
            ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_num_threads64_
        except (ImportError, AttributeError):
            pytest.skip("numpy does not bundle scipy-openblas here")
        assert run(*synth_args(tmp_path)) == 0
        argv = train_args(tmp_path / "train.csv", tmp_path / "out", max_epochs=1)
        script = BLAS_AFTER_TRAIN.format(argv=argv)
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="2",
                   CAN_THREADS="1")
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "blas threads 1"


class TestLoadWindowsMemory:
    # tracemalloc peak of _load_windows on 51 sensors x 4000 rows, counted in
    # float64 series of 1.56 MiB: 3.08-3.11 when minmax_apply held its input,
    # the difference and the quotient at once and the loaded series lived
    # through make_windows; 2.18-2.21 with the difference divided in place
    # and the loaded series dropped before make_windows, which leaves
    # load_csv's own peak
    BOUND = 2.6

    @pytest.mark.parametrize("command", ["train", "evaluate", "evaluate-in-order"])
    def test_peak_in_series_under_bound(self, tmp_path, command):
        n, rows = 51, 4000
        gen = np.random.default_rng(0)
        names = [f"s{i}" for i in range(n)]
        path = tmp_path / "wide.csv"
        write_csv(path, RawSeries(names, gen.standard_normal((n, rows)),
                                  np.arange(rows) * 60.0, gen.integers(0, 2, rows)))
        # evaluate matches the columns to the checkpoint's order and scales with its stats
        order = names if command != "evaluate" else names[::-1]
        stats = None if command == "train" else NormStats(np.full(n, -1.0), np.full(n, 2.0))
        loaded = []
        peak = traced_peak(lambda: loaded.append(
            _load_windows(path, 5, 1, stats, None if stats is None else order)))
        assert peak / (n * rows * 8) < self.BOUND, f"peak {peak / (n * rows * 8):.2f} series"

        dataset, fitted = loaded[0]
        raw = load_csv(path)
        values = raw.values[[raw.sensor_names.index(name) for name in order]]
        span = (fitted.maximum - fitted.minimum)[:, None]
        expected = ((values - fitted.minimum[:, None]) / span).astype(np.float32)
        assert dataset.values.tobytes() == expected.tobytes()

    def test_sensors_in_the_checkpoint_order_are_not_copied(self):
        values = np.arange(12.0).reshape(3, 4)
        series = RawSeries(["a", "b", "c"], values)
        assert _match_sensors(series, ("a", "b", "c"), "x.csv") is series
        reordered = _match_sensors(series, ["c", "a", "b"], "x.csv")
        assert reordered.sensor_names == ["c", "a", "b"]
        assert np.array_equal(reordered.values, values[[2, 0, 1]])
        assert not np.shares_memory(reordered.values, values)


class TestEvaluateCommand:
    @pytest.fixture
    def trained(self, tmp_path):
        run(*synth_args(tmp_path, length=400, spikes=3))
        out = tmp_path / "run"
        run(*train_args(tmp_path / "train.csv", out))
        return tmp_path, out / "model.ckpt"

    def test_writes_report_and_scores(self, trained, capsys):
        base, ckpt = trained
        out = base / "eval"
        code = run("evaluate", "--data", str(base / "test.csv"),
                   "--checkpoint", str(ckpt), "--out", str(out))
        assert code == 0
        printed = capsys.readouterr().out
        assert "precision=" in printed and "f1=" in printed
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["f1"] <= 1.0
        assert {"tp", "fp", "fn"} == set(report["counts"])
        lines = (out / "scores.csv").read_text().strip().splitlines()
        assert lines[0] == "t,score,label"
        # 400 test rows minus the 4-step window
        assert len(lines) == 1 + 400 - 4

    @pytest.mark.parametrize("flags", [(), ("--can-plus",)], ids=["plain", "can-plus"])
    def test_report_is_the_summary_of_scores_csv(self, trained, flags):
        base, ckpt = trained
        out = base / "eval"
        assert run("evaluate", "--data", str(base / "test.csv"),
                   "--checkpoint", str(ckpt), "--out", str(out), *flags) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"threshold", "precision", "recall", "f1", "counts",
                               "scored_from", "score_sensors", "calibration", "can_plus"}
        rows = [line.split(",") for line in (out / "scores.csv").read_text().splitlines()[1:]]
        assert [int(row[0]) for row in rows] == list(range(report["scored_from"], 400))
        scores = np.array([float(row[1]) for row in rows])
        labels = np.array([int(row[2]) for row in rows])
        # the raw and point-adjusted predictions, rebuilt from the table
        adjusted = point_adjust(scores > report["threshold"], labels)
        again = confusion_metrics(adjusted, labels)
        assert report["counts"] == {"tp": again.tp, "fp": again.fp, "fn": again.fn}
        assert (report["f1"], report["precision"], report["recall"]) == (
            again.f1, again.precision, again.recall)

    def test_sensor_count_mismatch_exits_3(self, trained, tmp_path, capsys):
        base, ckpt = trained
        other = tmp_path / "other"
        run(*synth_args(other, sensors=6, length=300, spikes=1))
        code = run("evaluate", "--data", str(other / "test.csv"),
                   "--checkpoint", str(ckpt), "--out", str(tmp_path / "e"))
        assert code == 3
        assert "sensors" in capsys.readouterr().err

    def test_repeated_sensor_name_exits_3(self, trained, capsys):
        base, ckpt = trained
        repeated = base / "repeated.csv"
        repeated.write_text((base / "test.csv").read_text().replace("sensor_1", "sensor_0", 1))
        code = run("evaluate", "--data", str(repeated), "--checkpoint", str(ckpt),
                   "--out", str(base / "e"))
        assert code == 3
        assert "'sensor_0'" in capsys.readouterr().err
        assert not (base / "e").exists()

    def test_unlabeled_data_exits_3(self, trained):
        base, ckpt = trained
        code = run("evaluate", "--data", str(base / "train.csv"),
                   "--checkpoint", str(ckpt), "--out", str(base / "e"))
        assert code == 3

    def test_short_train_data_names_its_file(self, checkpoint, tmp_path, capsys):
        base, ckpt = checkpoint
        short = tmp_path / "short.csv"
        short.write_text("".join((base / "train.csv").read_text().splitlines(True)[:5]))
        code = run("evaluate", "--data", str(base / "test.csv"), "--checkpoint", str(ckpt),
                   "--out", str(tmp_path / "e"), "--calibration", "train",
                   "--train-data", str(short))
        assert code == 3
        assert f"{short}: 4 rows are fewer than window + 1 = 5" in capsys.readouterr().err

    def test_no_scored_anomaly_exits_3_before_scoring(self, checkpoint, tmp_path, capsys,
                                                      monkeypatch):
        def no_scoring(*args, **kwargs):
            raise AssertionError("the model ran")

        monkeypatch.setattr("canet.detection.predict_series", no_scoring)
        base, ckpt = checkpoint
        series = load_csv(base / "test.csv")
        series.labels[:] = 0
        series.labels[:4] = 1       # the first window rows are not scored
        data = tmp_path / "unscored.csv"
        write_csv(data, series)
        code = run("evaluate", "--data", str(data), "--checkpoint", str(ckpt),
                   "--out", str(tmp_path / "e"), "--calibration", "train",
                   "--train-data", str(base / "train.csv"))
        assert code == 3
        err = capsys.readouterr().err
        assert str(data) in err and "first 4 rows" in err
        assert not (tmp_path / "e").exists()

    def test_can_plus_flag(self, trained):
        base, ckpt = trained
        out = base / "eval-plus"
        code = run("evaluate", "--data", str(base / "test.csv"),
                   "--checkpoint", str(ckpt), "--out", str(out), "--can-plus")
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["can_plus"] is True

    def test_train_calibration_mode(self, trained):
        base, ckpt = trained
        out = base / "eval-cal"
        code = run("evaluate", "--data", str(base / "test.csv"),
                   "--checkpoint", str(ckpt), "--out", str(out),
                   "--calibration", "train", "--train-data", str(base / "train.csv"))
        assert code == 0

    def test_train_calibration_without_data_exits_2(self, trained, capsys):
        base, ckpt = trained
        code = run("evaluate", "--data", str(base / "test.csv"),
                   "--checkpoint", str(ckpt), "--out", str(base / "e2"),
                   "--calibration", "train")
        assert code == 2
        err = capsys.readouterr().err
        assert "--calibration train needs --train-data" in err and "checkpoint" not in err

    def test_train_data_without_train_calibration_exits_2(self, trained, capsys):
        base, ckpt = trained
        out = base / "e3"
        code = run("evaluate", "--data", str(base / "absent.csv"),
                   "--checkpoint", str(ckpt), "--out", str(out),
                   "--train-data", str(base / "absent.csv"))
        assert code == 2
        assert "--train-data needs calibration 'train', not 'self'" in capsys.readouterr().err
        assert not out.exists()

    def test_evaluate_idempotent(self, trained):
        base, ckpt = trained
        out_a, out_b = base / "ea", base / "eb"
        run("evaluate", "--data", str(base / "test.csv"), "--checkpoint", str(ckpt),
            "--out", str(out_a))
        run("evaluate", "--data", str(base / "test.csv"), "--checkpoint", str(ckpt),
            "--out", str(out_b))
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "scores.csv").read_bytes() == (out_b / "scores.csv").read_bytes()


    def swapped_copy(self, path, tmp_path):
        """``path`` with its first two sensor columns exchanged."""
        rows = [line.split(",") for line in path.read_text().splitlines()]
        for row in rows:
            row[0], row[1] = row[1], row[0]
        swapped = tmp_path / ("swapped-" + path.name)
        swapped.write_text("".join(",".join(row) + "\n" for row in rows))
        return swapped

    @pytest.mark.parametrize("calibration", ["self", "train"])
    def test_swapped_columns_are_matched_by_name(self, trained, calibration):
        base, ckpt = trained
        outputs = []
        for swap in (False, True):
            data, train_data = base / "test.csv", base / "train.csv"
            if swap:
                data = self.swapped_copy(data, base)
                train_data = self.swapped_copy(train_data, base)
            out = base / f"eval-{calibration}-{swap}"
            argv = ["evaluate", "--data", str(data), "--checkpoint", str(ckpt),
                    "--out", str(out), "--calibration", calibration]
            if calibration == "train":
                argv += ["--train-data", str(train_data)]
            code = run(*argv)
            assert code == 0
            outputs.append([(out / n).read_bytes() for n in ("report.json", "scores.csv")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("flag", ["--data", "--train-data"])
    def test_unknown_sensor_name_exits_3(self, trained, capsys, flag):
        base, ckpt = trained
        paths = {"--data": base / "test.csv", "--train-data": base / "train.csv"}
        renamed = base / "renamed.csv"
        renamed.write_text(paths[flag].read_text().replace("sensor_1", "sensor_9", 1))
        paths[flag] = renamed
        code = run("evaluate", "--data", str(paths["--data"]), "--checkpoint", str(ckpt),
                   "--out", str(base / "e"), "--calibration", "train",
                   "--train-data", str(paths["--train-data"]))
        assert code == 3
        err = capsys.readouterr().err
        assert "['sensor_1']" in err and "['sensor_9']" in err


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A one-epoch CLI checkpoint and its synth data directory."""
    base = tmp_path_factory.mktemp("ckpt")
    run(*synth_args(base))
    run(*train_args(base / "train.csv", base / "run", max_epochs=1))
    return base, base / "run" / "model.ckpt"


class TestCheckpointAndFlagChecks:
    def evaluate(self, base, ckpt, *flags):
        return run("evaluate", "--data", str(base / "test.csv"), "--checkpoint", str(ckpt),
                   "--out", str(base / "e"), *flags)

    def test_score_sensors_below_one_exits_2(self, checkpoint, capsys):
        assert self.evaluate(*checkpoint, "--score-sensors", "0") == 2
        assert "'score_sensors'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_thread_env_var_below_one_exits_2(self, checkpoint, monkeypatch, capsys, value):
        monkeypatch.setenv("CAN_THREADS", value)
        assert self.evaluate(*checkpoint) == 2
        assert "CAN_THREADS" in capsys.readouterr().err

    def test_non_integer_thread_env_var_exits_2(self, checkpoint, monkeypatch, capsys):
        monkeypatch.setenv("CAN_THREADS", "abc")
        assert self.evaluate(*checkpoint) == 2
        assert "CAN_THREADS" in capsys.readouterr().err

    def test_bad_thread_env_var_is_named_before_a_missing_data_file(self, checkpoint,
                                                                    monkeypatch, tmp_path, capsys):
        base, ckpt = checkpoint
        monkeypatch.setenv("CAN_THREADS", "0")
        assert run("evaluate", "--data", str(tmp_path / "missing.csv"), "--checkpoint", str(ckpt),
                   "--out", str(tmp_path / "e")) == 2
        assert "CAN_THREADS" in capsys.readouterr().err

    def test_bad_thread_env_var_leaves_no_train_output(self, checkpoint, monkeypatch,
                                                       tmp_path, capsys):
        base, _ = checkpoint
        monkeypatch.setenv("CAN_THREADS", "abc")
        out = tmp_path / "run"
        assert run(*train_args(base / "train.csv", out, max_epochs=1)) == 2
        assert "CAN_THREADS" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "export-embeddings"])
    @pytest.mark.parametrize("edit", BAD_HEADERS.values(), ids=BAD_HEADERS.keys())
    def test_bad_header_exits_3(self, checkpoint, tmp_path, command, edit):
        base, ckpt = checkpoint
        bad = tmp_path / "bad.ckpt"
        rewrite_header(ckpt, edit, bad)
        if command == "evaluate":
            assert self.evaluate(base, bad) == 3
        else:
            assert run(command, "--checkpoint", str(bad),
                       "--out", str(tmp_path / "e.csv")) == 3

    @pytest.mark.parametrize("command", ["evaluate", "export-embeddings"])
    def test_checkpoint_with_removed_keys_exits_3(self, checkpoint, tmp_path, capsys, command):
        # a header as written before the adjacency, position and local-width
        # variants were removed: both configs store their keys, the model
        # config with local_dim resolved to model_dim
        base, ckpt = checkpoint
        removed = {"adjacency_norm": "row", "learned_positions": False, "local_dim": 0}
        old = tmp_path / "old.ckpt"
        rewrite_header(ckpt, lambda h: {
            **h, "config": {**h["config"], **removed, "local_dim": h["config"]["model_dim"]},
            "extra": {**h["extra"], "train_config": {**h["extra"]["train_config"], **removed}}},
            old)
        if command == "evaluate":
            assert self.evaluate(base, old) == 3
        else:
            assert run(command, "--checkpoint", str(old), "--out", str(tmp_path / "e.csv")) == 3
        assert "'adjacency_norm'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "export-embeddings"])
    def test_non_finite_parameter_exits_3(self, checkpoint, tmp_path, capsys, command):
        base, ckpt = checkpoint
        model, extra = load_checkpoint(ckpt)
        model.embedding.data[0, 0] = np.nan
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(model, bad, extra)
        if command == "evaluate":
            assert self.evaluate(base, bad) == 3
        else:
            assert run(command, "--checkpoint", str(bad), "--out", str(tmp_path / "e.csv")) == 3
        assert capsys.readouterr().err == \
            f"error: parameter embedding in {bad} holds a non-finite value\n"

    def test_data_after_last_parameter_exits_3(self, checkpoint, tmp_path, capsys):
        base, ckpt = checkpoint
        bad = tmp_path / "bad.ckpt"
        append_data_bytes(ckpt, 8, bad)
        assert self.evaluate(base, bad) == 3
        assert "8 data bytes after its last parameter" in capsys.readouterr().err

    @pytest.mark.parametrize("cell, reason", [
        (b"4" * 200_000, "field larger than field limit (131072)"),
        (b"0.5\xff", "is not UTF-8: 'utf-8' codec can't decode byte 0xff in position"),
    ], ids=["oversized-field", "undecodable-byte"])
    def test_unreadable_data_file_names_file_and_line(self, checkpoint, tmp_path, capsys,
                                                      cell, reason):
        base, ckpt = checkpoint
        lines = (base / "test.csv").read_bytes().split(b"\n")
        cells = lines[5].split(b",")                # data row 5 is line 6 of the file
        lines[5] = b",".join(cells[:1] + [cell] + cells[2:])
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(lines))
        code = run("evaluate", "--data", str(bad), "--checkpoint", str(ckpt),
                   "--out", str(tmp_path / "e"))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line 6")
        assert reason in err

    def test_data_file_ending_inside_a_quote_exits_3(self, checkpoint, tmp_path, capsys):
        base, ckpt = checkpoint
        head, _, last = (base / "test.csv").read_bytes().rstrip(b"\r\n").rpartition(b",")
        bad = tmp_path / "bad.csv"
        bad.write_bytes(head + b',"' + last + b"\r\n")
        code = run("evaluate", "--data", str(bad), "--checkpoint", str(ckpt),
                   "--out", str(tmp_path / "e"))
        assert code == 3
        lines = head.count(b"\n") + 1
        assert capsys.readouterr().err == f"error: {bad}: line {lines}: unexpected end of data\n"

    @pytest.mark.parametrize("edit", [
        lambda extra: extra.pop("norm_min"),
        lambda extra: extra.pop("norm_max"),
        lambda extra: extra.pop("sensor_names"),
        lambda extra: extra.pop("train_config"),
        lambda extra: extra["train_config"].update(score_sensors=0),
        lambda extra: extra["train_config"].update(bogus=1),
        lambda extra: extra.update(norm_min=extra["norm_min"][:2]),
        lambda extra: extra["norm_min"].__setitem__(0, float("nan")),
        lambda extra: extra["norm_max"].__setitem__(1, "x"),
    ], ids=["no-norm-min", "no-norm-max", "no-sensor-names", "no-train-config",
            "score-sensors-0", "unknown-train-key", "short-norm-min", "nan-norm-min",
            "string-norm-max"])
    def test_bad_run_metadata_exits_3(self, checkpoint, tmp_path, capsys, edit):
        base, ckpt = checkpoint
        bad = tmp_path / "bad.ckpt"

        def edit_extra(header):
            edit(header["extra"])
            return header

        rewrite_header(ckpt, edit_extra, bad)
        assert self.evaluate(base, bad) == 3
        assert f"bad run metadata in {bad}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("score_sensors", 2.5), ("downsample", 2.5), ("can_plus", "no")])
    def test_mistyped_stored_config_value_exits_3(self, checkpoint, tmp_path, capsys,
                                                  key, value):
        base, ckpt = checkpoint
        bad = tmp_path / "bad.ckpt"

        def store(header):
            header["extra"]["train_config"][key] = value
            return header

        rewrite_header(ckpt, store, bad)
        assert self.evaluate(base, bad) == 3
        err = capsys.readouterr().err
        assert f"bad run metadata in {bad}" in err and f"config key '{key}'" in err


@pytest.fixture(scope="module")
def scoring_checkpoint(tmp_path_factory):
    """A one-epoch checkpoint trained with ``--can-plus --calibration train``."""
    base = tmp_path_factory.mktemp("scoring")
    run(*synth_args(base))
    run(*train_args(base / "train.csv", base / "run", max_epochs=1, calibration="train"),
        "--can-plus")
    return base, base / "run" / "model.ckpt"


class TestScoringFlags:
    """evaluate's overrides of the stored scoring keys are train's flags."""

    # the flag and help text argparse prints for each scoring key
    HELP = ("--score-sensors SCORE_SENSORS deviations aggregated per timestamp (>= 1)",
            "--calibration CALIBRATION deviation calibration source (one of self, train)",
            "--can-plus, --no-can-plus fuse reconstruction deviation into the score")

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_help_shows_the_config_fields_flags(self, command, capsys):
        with pytest.raises(SystemExit):
            run(command, "--help")
        shown = " ".join(capsys.readouterr().out.split())
        for line in self.HELP:
            assert line in shown
        assert "--k-s" not in shown
        assert ("--batch-size" in shown) == (command == "train")    # train's optimizer batch

    def evaluate(self, base, ckpt, out, *flags):
        return run("evaluate", "--data", str(base / "test.csv"), "--checkpoint", str(ckpt),
                   "--out", str(out), *flags)

    def test_no_can_plus_turns_the_stored_key_off(self, scoring_checkpoint, tmp_path):
        base, ckpt = scoring_checkpoint
        assert self.evaluate(base, ckpt, tmp_path / "e", "--no-can-plus",
                             "--train-data", str(base / "train.csv")) == 0
        report = json.loads((tmp_path / "e" / "report.json").read_text())
        assert (report["can_plus"], report["calibration"]) == (False, "train")

    def test_stored_train_calibration_without_data_names_its_source(
            self, scoring_checkpoint, tmp_path, capsys):
        base, ckpt = scoring_checkpoint
        assert self.evaluate(base, ckpt, tmp_path / "e") == 2
        err = capsys.readouterr().err
        assert "from the checkpoint's config" in err
        assert "pass --train-data or --calibration self" in err
        assert not (tmp_path / "e").exists()


@pytest.fixture(scope="module")
def no_rec_checkpoint(tmp_path_factory):
    """A one-epoch checkpoint of the no-rec-decoder ablation."""
    base = tmp_path_factory.mktemp("norec")
    run(*synth_args(base))
    run(*train_args(base / "train.csv", base / "run", max_epochs=1,
                    ablation="no-rec-decoder"))
    return base, base / "run" / "model.ckpt"


class TestCanPlusNeedsRecDecoder:
    def test_train_exits_2_before_reading_data(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = train_args(tmp_path / "absent.csv", out, ablation="no-rec-decoder")
        assert run(*argv, "--can-plus") == 2
        err = capsys.readouterr().err
        assert "'can_plus'" in err and "'ablation'" in err
        assert not out.exists()

    def test_evaluate_can_plus_exits_2_before_reading_data(self, no_rec_checkpoint,
                                                           tmp_path, capsys):
        _, ckpt = no_rec_checkpoint
        code = run("evaluate", "--data", str(tmp_path / "absent.csv"),
                   "--checkpoint", str(ckpt), "--out", str(tmp_path / "e"), "--can-plus")
        assert code == 2
        err = capsys.readouterr().err
        assert "'can_plus'" in err and "'ablation'" in err

    def test_stored_combination_exits_3(self, no_rec_checkpoint, tmp_path, capsys):
        base, ckpt = no_rec_checkpoint
        bad = tmp_path / "bad.ckpt"

        def store_can_plus(header):
            header["extra"]["train_config"]["can_plus"] = True
            return header

        rewrite_header(ckpt, store_can_plus, bad)
        code = run("evaluate", "--data", str(base / "test.csv"),
                   "--checkpoint", str(bad), "--out", str(tmp_path / "e"))
        assert code == 3
        err = capsys.readouterr().err
        assert "run metadata" in err and "'can_plus'" in err

    def test_plain_evaluate_scores_the_ablation(self, no_rec_checkpoint, tmp_path):
        base, ckpt = no_rec_checkpoint
        out = tmp_path / "e"
        assert run("evaluate", "--data", str(base / "test.csv"),
                   "--checkpoint", str(ckpt), "--out", str(out)) == 0
        assert json.loads((out / "report.json").read_text())["can_plus"] is False


class TestExportCommand:
    def test_csv_has_embedding_columns(self, tmp_path):
        run(*synth_args(tmp_path))
        out = tmp_path / "run"
        run(*train_args(tmp_path / "train.csv", out))
        target = tmp_path / "emb.csv"
        code = run("export-embeddings", "--checkpoint", str(out / "model.ckpt"),
                   "--out", str(target))
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0].split(",") == ["sensor_id"] + [f"e_{i}" for i in range(4)]
        assert len(lines) == 1 + 4

    def test_reloaded_checkpoint_exports_identical_bytes(self, tmp_path):
        run(*synth_args(tmp_path))
        out = tmp_path / "run"
        run(*train_args(tmp_path / "train.csv", out))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("export-embeddings", "--checkpoint", str(out / "model.ckpt"), "--out", str(a))
        run("export-embeddings", "--checkpoint", str(out / "model.ckpt"), "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_absent_checkpoint_exits_3(self, tmp_path):
        code = run("export-embeddings", "--checkpoint", str(tmp_path / "no.ckpt"),
                   "--out", str(tmp_path / "e.csv"))
        assert code == 3


class TestConfigFile:
    def test_parse_comments_and_blanks(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\nwindow = 5\n\nlr=0.01  # trailing\n")
        assert parse_config_file(cfg) == {"window": "5", "lr": "0.01"}

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("window 5\n")
        from canet.train import ConfigError
        with pytest.raises(ConfigError):
            parse_config_file(cfg)

    def test_repeated_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("window=4\n# window=5\nlr = 0.01\n window = 6\n")
        from canet.train import ConfigError
        with pytest.raises(ConfigError, match=r"c\.cfg:4: config key 'window' repeats line 1"):
            parse_config_file(cfg)

    def test_help_documents_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--window", "--layers", "--heads", "--lr", "--ablation", "--seed"):
            assert flag in out

    def test_unknown_flag_fails_fast(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--sensors", "3", "--length", "100", "--seed", "1",
                  "--bogus", "1"])
        assert exc.value.code == 2
