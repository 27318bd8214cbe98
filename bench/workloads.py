"""The benchmark's workloads: seeded input generation and the CLI calls they time.

Every input is made from the benchmark's ``--seed`` with ``synth_generate``
and ``place_segments`` and written as CSV; the program only sees the files.
The work of a timed command is fixed (epochs, windows), never the wall
time, and training runs with ``--patience`` equal to ``--max-epochs`` so
early stopping cannot change how much work a command does.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from canet.data import RawSeries, write_csv
from canet.synth import place_segments, synth_generate

WINDOW = 5
VAL_FRACTION = 0.1
SEGMENT_LENGTH = 10

# README / acceptance configuration.
DESK = ("--window", str(WINDOW), "--layers", "1", "--heads", "4", "--model-dim", "16",
        "--embed-dim", "8", "--neighbor-k", "5", "--batch-size", "64", "--lr", "0.002")
# Paper configuration at SWaT width (51 sensors).
PAPER = ("--window", str(WINDOW), "--layers", "3", "--heads", "8", "--model-dim", "32",
         "--embed-dim", "10", "--neighbor-k", "10", "--batch-size", "32", "--lr", "0.0001")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # "train" or "evaluate": the CLI call that is timed
    sensors: int
    model: tuple        # model and optimizer flags
    train_rows: int     # rows of train.csv
    epochs: int         # epochs of the timed train, or of the setup checkpoint
    test_rows: int = 0  # rows of test.csv (evaluate only)
    segments: int = 0   # ten-step anomaly segments in test.csv

    def train_windows(self) -> int:
        """Training windows per epoch, split as ``canet.train.train`` splits."""
        n = self.train_rows - WINDOW
        return n - max(1, int(round(VAL_FRACTION * n)))

    def windows(self) -> int:
        """Windows one timed command processes."""
        if self.command == "train":
            return self.epochs * self.train_windows()
        return self.test_rows - WINDOW


WORKLOADS = {w.name: w for w in (
    # 2 epochs x 1795 windows of tiny tensors: op dispatch, backward
    # bookkeeping, batching and Adam's per-tensor loop dominate.
    Workload("train-desk", "train", 5, DESK, train_rows=2000, epochs=2),
    # 1 epoch of 213 windows = 6 full batches of 32 plus 21 validation
    # windows: attention GEMMs, their weight gradients and the 51x51 graph.
    Workload("train-paper", "train", 51, PAPER, train_rows=218, epochs=1),
    # 400 windows at the default evaluate batch of 256, forward only; the
    # checkpoint comes from a 3-step training run in setup.
    Workload("evaluate-paper", "evaluate", 51, PAPER, train_rows=80, epochs=1,
             test_rows=405, segments=4),
    # 10^4 scored timestamps, 100 ten-step segments (10 % anomalous): the
    # threshold search dominates and model layers are a minor share.
    Workload("evaluate-long", "evaluate", 5, DESK, train_rows=600, epochs=2,
             test_rows=10_005, segments=100),
)}


def write_inputs(workload: Workload, seed: int, out: Path) -> None:
    """train.csv (and test.csv with labels for evaluate) under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    length = max(workload.train_rows, workload.test_rows)
    rng = np.random.default_rng(seed)
    segments = place_segments(workload.segments, length, workload.sensors, rng,
                              duration=SEGMENT_LENGTH)
    result = synth_generate(workload.sensors, length, seed, segments)
    train = result.train
    write_csv(out / "train.csv", RawSeries(train.sensor_names,
                                           train.values[:, :workload.train_rows]))
    if workload.test_rows:
        write_csv(out / "test.csv", result.test)


def train_argv(workload: Workload, seed: int, data: Path, out: Path) -> list:
    epochs = str(workload.epochs)
    return ["train", "--data", str(data / "train.csv"), "--out", str(out),
            "--seed", str(seed), *workload.model, "--val-fraction", str(VAL_FRACTION),
            "--max-epochs", epochs, "--patience", epochs]


def evaluate_argv(data: Path, checkpoint: Path, out: Path) -> list:
    return ["evaluate", "--data", str(data / "test.csv"), "--checkpoint", str(checkpoint),
            "--out", str(out)]
