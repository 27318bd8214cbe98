"""Output checks for the benchmark's CLI calls.

Each check returns a list of problems; an empty list means the output is
correct.  Checks run outside every timed and traced region.
"""

import json
import math
from pathlib import Path

import numpy as np

from canet.checkpoint import load_checkpoint, save_checkpoint
from canet.detection import confusion_metrics, point_adjust

SAMPLED_THRESHOLDS = 64


def check_train(out: Path, epochs: int, scratch: Path) -> list:
    """train.log holds ``epochs`` finite entries and model.ckpt round-trips
    through load_checkpoint/save_checkpoint byte for byte."""
    problems = []
    lines = (out / "train.log").read_text().splitlines()
    if len(lines) != epochs:
        problems.append(f"train.log has {len(lines)} epochs, expected {epochs}")
    for line in lines:
        entry = json.loads(line)
        if not (math.isfinite(entry["train_loss"]) and math.isfinite(entry["val_loss"])):
            problems.append(f"non-finite loss in train.log: {line}")
    model, extra = load_checkpoint(out / "model.ckpt")
    copy = scratch / "roundtrip.ckpt"
    save_checkpoint(model, copy, extra)
    if copy.read_bytes() != (out / "model.ckpt").read_bytes():
        problems.append("model.ckpt does not round-trip through load_checkpoint")
    copy.unlink()
    return problems


def _read_scores(path: Path):
    rows = path.read_text().splitlines()
    if rows[0] != "t,score,label":
        raise ValueError(f"unexpected scores.csv header {rows[0]!r}")
    cells = [row.split(",") for row in rows[1:]]
    scores = np.array([float(c[1]) for c in cells])
    labels = np.array([int(c[2]) for c in cells])
    return scores, labels


def _pa_report(scores, labels, threshold):
    return confusion_metrics(point_adjust(scores > threshold, labels), labels)


def check_evaluate(out: Path, windows: int, seed: int) -> list:
    """The reported F1 equals point_adjust + confusion_metrics recomputed from
    scores.csv at the reported threshold, and no threshold in a seeded sample
    of the candidates beats it."""
    problems = []
    report = json.loads((out / "report.json").read_text())
    scores, labels = _read_scores(out / "scores.csv")
    if scores.size != windows:
        problems.append(f"scores.csv has {scores.size} rows, expected {windows}")
    again = _pa_report(scores, labels, report["threshold"])
    counts = {"tp": again.tp, "fp": again.fp, "fn": again.fn}
    if (again.f1, again.precision, again.recall, counts) != (
            report["f1"], report["precision"], report["recall"], report["counts"]):
        problems.append(f"report F1 {report['f1']} does not match recomputed {again.f1}")
    distinct = np.unique(scores)
    candidates = np.concatenate([[distinct[0] - 1.0], (distinct[:-1] + distinct[1:]) / 2.0])
    rng = np.random.default_rng(seed)
    sample = rng.choice(candidates, size=min(SAMPLED_THRESHOLDS, candidates.size),
                        replace=False)
    better = [t for t in sample if _pa_report(scores, labels, t).f1 > report["f1"]]
    if better:
        problems.append(f"threshold {better[0]!r} beats the reported F1 {report['f1']}")
    return problems


def check_identical(first: Path, second: Path, files) -> list:
    """Two same-seed runs wrote byte-identical ``files``."""
    return [f"{name} differs between two same-seed runs" for name in files
            if (first / name).read_bytes() != (second / name).read_bytes()]
