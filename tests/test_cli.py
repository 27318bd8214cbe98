import json

import numpy as np
import pytest

from canet.cli import main, parse_config_file
from canet.data import load_csv
from conftest import BAD_HEADERS, rewrite_header


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


class TestTrainCommand:
    def test_writes_checkpoint_and_log(self, tmp_path):
        run(*synth_args(tmp_path))
        out = tmp_path / "run1"
        assert run(*train_args(tmp_path / "train.csv", out)) == 0
        assert (out / "model.ckpt").is_file()
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
        report = json.loads((eval_dir / "report.json").read_text())
        # 600 test rows downsampled by 2 leave 300, minus the 4-step window
        assert len(report["per_timestamp"]) == 300 - 4

    def test_thread_env_var_does_not_change_results(self, tmp_path, monkeypatch):
        run(*synth_args(tmp_path, length=400, spikes=2))
        out = tmp_path / "run-thr"
        run(*train_args(tmp_path / "train.csv", out))
        serial_dir, threaded_dir = tmp_path / "e1", tmp_path / "e2"
        monkeypatch.setenv("CAN_THREADS", "1")
        run("evaluate", "--data", str(tmp_path / "test.csv"),
            "--checkpoint", str(out / "model.ckpt"), "--out", str(serial_dir),
            "--batch-size", "32")
        monkeypatch.setenv("CAN_THREADS", "4")
        run("evaluate", "--data", str(tmp_path / "test.csv"),
            "--checkpoint", str(out / "model.ckpt"), "--out", str(threaded_dir),
            "--batch-size", "32")
        assert (serial_dir / "report.json").read_bytes() == \
            (threaded_dir / "report.json").read_bytes()


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
        assert len(lines) == 1 + len(report["per_timestamp"])

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

    def test_train_calibration_without_data_exits_2(self, trained):
        base, ckpt = trained
        code = run("evaluate", "--data", str(base / "test.csv"),
                   "--checkpoint", str(ckpt), "--out", str(base / "e2"),
                   "--calibration", "train")
        assert code == 2

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
            code = run("evaluate", "--data", str(data), "--checkpoint", str(ckpt),
                       "--out", str(out), "--calibration", calibration,
                       "--train-data", str(train_data))
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

    def test_k_s_below_one_exits_2(self, checkpoint, capsys):
        assert self.evaluate(*checkpoint, "--k-s", "0") == 2
        assert "'score_sensors'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_batch_size_below_one_exits_2(self, checkpoint, capsys, value):
        assert self.evaluate(*checkpoint, "--batch-size", value) == 2
        assert "--batch-size" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_thread_env_var_below_one_exits_2(self, checkpoint, monkeypatch, capsys, value):
        monkeypatch.setenv("CAN_THREADS", value)
        assert self.evaluate(*checkpoint) == 2
        assert "CAN_THREADS" in capsys.readouterr().err

    def test_non_integer_thread_env_var_exits_2(self, checkpoint, monkeypatch, capsys):
        monkeypatch.setenv("CAN_THREADS", "abc")
        assert self.evaluate(*checkpoint) == 2
        assert "CAN_THREADS" in capsys.readouterr().err

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

    @pytest.mark.parametrize("edit", [
        lambda extra: extra.pop("norm_min"),
        lambda extra: extra.pop("norm_max"),
        lambda extra: extra.pop("sensor_names"),
        lambda extra: extra.pop("train_config"),
        lambda extra: extra["train_config"].update(score_sensors=0),
        lambda extra: extra["train_config"].update(bogus=1),
    ], ids=["no-norm-min", "no-norm-max", "no-sensor-names", "no-train-config",
            "score-sensors-0", "unknown-train-key"])
    def test_bad_run_metadata_exits_3(self, checkpoint, tmp_path, capsys, edit):
        base, ckpt = checkpoint
        bad = tmp_path / "bad.ckpt"

        def edit_extra(header):
            edit(header["extra"])
            return header

        rewrite_header(ckpt, edit_extra, bad)
        assert self.evaluate(base, bad) == 3
        assert "run metadata" in capsys.readouterr().err


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
