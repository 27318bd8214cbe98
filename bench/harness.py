"""One benchmark run of a workload: setup, timed or traced CLI calls, checks.

:func:`run` is what ``bench/run.py`` calls after it has pinned thread
counts; the benchmark's own tests call it on shrunk workloads.
"""

import gc
import io
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import checks
import tracer as tracing
from workloads import evaluate_argv, train_argv, write_inputs

from canet.cli import main as canet_main

MIN_REPS = 3            # timed calls per run, at least
# Before each timed call the run sets up again, for at least this many
# seconds and at least once.  Spreading the set-ups over the whole run
# samples the same machine conditions as the timed calls.
SETUP_SLICE = 0.1
# The benchmark runs on shared machines whose speed drifts by 10 to 45 %
# within a minute or two, and set-ups and calls slow down together with any
# fixed task.  Timings are therefore reported in reference seconds: seconds
# scaled by REFERENCE_S over the median time of reference_task, which runs
# before and after each timed call of the same run.
REFERENCE_S = 0.1


def reference_task() -> float:
    """Small numpy operations in a Python loop, then plain Python
    arithmetic: the two kinds of work canet's commands spend their time on.
    It does not use canet, so it is the same on every commit."""
    a = np.linspace(-1.0, 1.0, 64 * 32).reshape(64, 32)
    b = np.linspace(1.0, -1.0, 32 * 32).reshape(32, 32) / 32
    for _ in range(1500):
        a = 0.5 * np.tanh(a @ b) + 0.5 * a
    total = 0
    for i in range(300_000):
        total += i * i
    return float(a.sum()) + total


def time_reference() -> float:
    start = time.perf_counter()
    reference_task()
    return time.perf_counter() - start


class Session:
    """Runs CLI calls in this process and counts attempted and failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, argv, tracer=None):
        """One CLI call with its output captured; returns (exit ok, seconds)."""
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = tracer.run_command(canet_main, argv) if tracer else canet_main(argv)
        except SystemExit as exc:   # argparse rejected the command line
            code = exc.code
        except Exception:  # a crash is a failed operation, not a dead benchmark
            code = traceback.format_exc()
        seconds = time.perf_counter() - start
        if code != 0:
            print(f"canet {argv[0]} failed ({code}): {err.getvalue().strip()}", file=sys.stderr)
        return code == 0, seconds

    def record(self, ok: bool, problems: list) -> bool:
        """Count one operation; it failed if its call did or a check found problems."""
        self.attempted += 1
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        passed = ok and not problems
        self.failed += not passed
        return passed

    def fail_recorded(self, problems: list) -> None:
        """Mark an operation that :meth:`record` counted as passed as failed."""
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        self.failed += 1


def run(workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple:
    """Returns ``(session, metrics, samples, tracer)``; ``tracer`` is None
    unless ``trace``.  End-to-end metrics when not tracing, per-layer ones
    when tracing."""
    session = Session()

    def guarded(check, *args):
        try:
            return check(*args)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def train_problems(out: Path):
        return guarded(checks.check_train, out, workload.epochs, work)

    def setup(dest: Path) -> float:
        """Write the inputs and, for evaluate, train the checkpoint; every
        setup after the first must write the same checkpoint bytes."""
        start = time.perf_counter()
        write_inputs(workload, seed, dest)
        if workload.command == "train":
            return time.perf_counter() - start
        ok, _ = session.call(train_argv(workload, seed, dest, dest / "ckpt"))
        elapsed = time.perf_counter() - start
        problems = train_problems(dest / "ckpt") if ok else []
        if ok and dest.name != "setup0":
            problems += guarded(checks.check_identical, work / "setup0" / "ckpt",
                                dest / "ckpt", ("model.ckpt", "train.log"))
        session.record(ok, problems)
        return elapsed

    def command(out: Path, tracer=None) -> tuple:
        """The timed CLI call; returns (seconds, passed).  Outputs must match
        the first call's byte for byte."""
        data = work / "setup0"
        if workload.command == "train":
            ok, elapsed = session.call(train_argv(workload, seed, data, out), tracer)
            problems = train_problems(out) if ok else []
            files = ("model.ckpt", "train.log")
        else:
            argv = evaluate_argv(data, data / "ckpt" / "model.ckpt", out)
            ok, elapsed = session.call(argv, tracer)
            problems = guarded(checks.check_evaluate, out, workload.windows(), seed) if ok else []
            files = ("report.json", "scores.csv")
        if ok and out.name != "rep0":
            problems += guarded(checks.check_identical, work / "rep0", out, files)
        return elapsed, session.record(ok, problems)

    setups = [setup(work / "setup0")]
    if not trace:
        # Start another iteration only while one as long as the last still
        # fits in ``seconds``, so that a run's wall time stays near it.
        times, references, start, last = [], [], time.perf_counter(), 0.0
        while len(times) < MIN_REPS or time.perf_counter() - start + last <= seconds:
            begin, spent = time.perf_counter(), 0.0
            while spent < SETUP_SLICE:
                again = work / f"setup{len(setups)}"
                setups.append(setup(again))
                spent += setups[-1]
                shutil.rmtree(again)
            references.append(time_reference())
            out = work / f"rep{len(times)}"
            times.append(command(out)[0])
            references.append(time_reference())
            if out.name != "rep0":
                shutil.rmtree(out, ignore_errors=True)
            last = time.perf_counter() - begin
        scale = REFERENCE_S / statistics.median(references)
        metrics = {
            "windows_per_s": {"value": workload.windows() / (statistics.median(times) * scale),
                              "unit": "windows/s"},
            "setup_s": {"value": statistics.median(setups) * scale, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        return session, metrics, {"command_s": times, "setup_s": setups,
                                  "reference_s": references}, None

    # Untraced, traced, traced, untraced: the order cancels a machine that
    # speeds up or slows down steadily during the run.
    untraced = [command(work / "rep0")[0]]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced = [command(work / f"rep{i}", tracer) for i in (1, 2)]
    finally:
        tracing.uninstall(tracer)
    untraced.append(command(work / "rep3")[0])
    overhead = sum(t for t, _ in traced) / sum(untraced) - 1.0
    metrics = tracing.layer_metrics(tracer, 1, overhead)
    again = tracing.layer_metrics(tracer, 2, overhead)
    repeats = [f"counter {name} differs between two traced runs: "
               f"{metrics[name]['value']} vs {again[name]['value']}"
               for name in tracing.EXACT_COUNTERS
               if metrics[name]["value"] != again[name]["value"]]
    if repeats and traced[1][1]:
        session.fail_recorded(repeats)
    return session, metrics, {"command_s": untraced[:1] + [t for t, _ in traced] + untraced[1:],
                              "setup_s": setups}, tracer
