"""Self-checks of the benchmark: trace coverage, exact counters, absent
names, output checks and the metric lists in BENCHMARK.json.

Workloads run shrunk (same model configuration, fewer rows and epochs)
through the harness the benchmark itself uses.
"""

import dataclasses
import json
import statistics
from pathlib import Path

import pytest

import checks
import harness
import tracer as tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]

SHRUNK = {
    "train-desk": dict(train_rows=120, epochs=1),
    "train-paper": dict(train_rows=45),
    "evaluate-paper": dict(train_rows=45, test_rows=70, segments=1),
    "evaluate-long": dict(train_rows=120, epochs=1, test_rows=300, segments=4),
}


@pytest.fixture(autouse=True)
def one_thread(monkeypatch):
    monkeypatch.setenv("CAN_THREADS", "1")     # spans assume a single thread


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_covers_the_layers_its_workload_serves(name, tmp_path):
    workload = dataclasses.replace(WORKLOADS[name], **SHRUNK[name])
    session, metrics, _, tracer = harness.run(workload, seed=5, seconds=0, trace=True,
                                              work=tmp_path)
    assert session.failed == 0 and session.attempted >= 3
    assert tracing.coverage(tracer, 1, name) == []
    again = tracing.layer_metrics(tracer, 2, 1.0)
    for counter in tracing.EXACT_COUNTERS:
        assert metrics[counter]["value"] == again[counter]["value"], counter
    for metric, (_, sources) in tracing.PER_LAYER.items():
        gone = any(source in tracer.absent for source in sources)
        assert (metrics[metric]["value"] == tracing.ABSENT) == gone, metric


def test_a_name_missing_from_the_program_is_reported_absent(monkeypatch):
    import canet
    import canet.attention
    monkeypatch.delattr(canet.attention, "scaled_dot_attention")
    monkeypatch.delattr(canet, "scaled_dot_attention")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        tracer.run_command(lambda: None)
    finally:
        tracing.uninstall(tracer)
    assert tracer.absent == ["attention.scaled_dot_attention"]
    metrics = tracing.layer_metrics(tracer, 1, 1.0)
    assert metrics["attention.sdpa_calls"]["value"] == tracing.ABSENT
    assert metrics["attention.sdpa_s"]["value"] == tracing.ABSENT
    assert metrics["attention.mha_calls"]["value"] == 0


def test_checks_reject_tampered_outputs(tmp_path):
    workload = dataclasses.replace(WORKLOADS["evaluate-long"], **SHRUNK["evaluate-long"])
    session, metrics, samples, _ = harness.run(workload, seed=6, seconds=0, trace=False,
                                               work=tmp_path)
    assert session.failed == 0 and len(samples["command_s"]) == harness.MIN_REPS
    scale = harness.REFERENCE_S / statistics.median(samples["reference_s"])
    assert len(samples["reference_s"]) == 2 * harness.MIN_REPS
    assert metrics["windows_per_s"]["value"] == pytest.approx(
        workload.windows() / (statistics.median(samples["command_s"]) * scale))
    assert metrics["setup_s"]["value"] == pytest.approx(statistics.median(samples["setup_s"]) * scale)

    out = tmp_path / "rep0"
    assert checks.check_evaluate(out, workload.windows(), 6) == []
    original = tmp_path / "original"
    original.mkdir()
    for name in ("report.json", "scores.csv"):
        (original / name).write_bytes((out / name).read_bytes())
    report = json.loads((out / "report.json").read_text())
    report["f1"] = report["f1"] / 2
    (out / "report.json").write_text(json.dumps(report))
    assert checks.check_evaluate(out, workload.windows(), 6)
    assert checks.check_identical(original, out, ("report.json", "scores.csv")) == [
        "report.json differs between two same-seed runs"]

    log = tmp_path / "setup0" / "ckpt" / "train.log"
    assert checks.check_train(log.parent, workload.epochs, tmp_path) == []
    log.write_text(log.read_text().replace('"val_loss": ', '"val_loss": NaN, "was": '))
    assert checks.check_train(log.parent, workload.epochs, tmp_path)


def test_a_rejected_or_crashing_call_is_a_failed_operation(tmp_path, monkeypatch):
    session = harness.Session()
    assert session.call(["train", "--no-such-flag"])[0] is False
    assert session.call(["evaluate", "--data", str(tmp_path / "absent.csv"), "--checkpoint",
                         str(tmp_path / "absent.ckpt"), "--out", str(tmp_path)])[0] is False

    def crash(argv):
        raise RuntimeError("boom")
    monkeypatch.setattr(harness, "canet_main", crash)
    ok, _ = session.call(["train"])
    assert ok is False
    assert session.record(ok, []) is False
    assert (session.attempted, session.failed) == (1, 1)


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    assert [m["name"] for m in spec["end_to_end"]] == ["windows_per_s", "setup_s",
                                                        "peak_rss_mb"]
