#!/usr/bin/env python3
"""Seeded train/evaluate benchmark of canet, run from the repository root:

    python3 bench/run.py --workload train-desk --seed 1 --seconds 25 --trace 0

Each run makes its inputs from ``--seed``, calls ``canet.cli.main`` in this
process on the generated CSVs, checks every output and prints, as the last
line of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` sets up and times the
workload's command, in turn, for about ``--seconds`` (at least three timed
calls) and reports the end-to-end metrics; ``--trace 1`` runs the command
untraced, twice traced and untraced again, and reports the per-layer
metrics.  Workloads and the layer map are described in bench/README.md.
"""

import argparse
import os
import sys

# Thread counts are pinned before numpy loads, identically on every commit:
# evaluation batches run on one thread, BLAS on at most two.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
BLAS_THREADS = str(min(2, NPROC or 1))
THREAD_VARS = {"CAN_THREADS": "1", "OPENBLAS_NUM_THREADS": BLAS_THREADS,
               "OMP_NUM_THREADS": BLAS_THREADS, "MKL_NUM_THREADS": BLAS_THREADS}
os.environ.update(THREAD_VARS)

import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
from statistics import median  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # show_config's signature and layout vary by release
        blas = "unknown"
    return {"nproc": NPROC, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "commit": git_commit(), "threads": THREAD_VARS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a name from bench/README.md")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "canet" / "cli.py").is_file():
        print(f"error: no canet sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import canet
    if Path(canet.__file__).resolve().parent != SRC / "canet":
        print(f"error: imported canet from {canet.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    from harness import run
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    WORK.mkdir(parents=True, exist_ok=True)
    work = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir()
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    try:
        session, metrics, samples, tracer = run(workload, args.seed, args.seconds,
                                                bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is not None:
        for name in tracer.absent:
            print(f"absent: {name} no longer exists in the program; its metrics read -1")
        for name in tracing.coverage(tracer, 1, workload.name):
            print(f"coverage: {name} recorded no call on {workload.name}")
        (WORK / f"trace-{workload.name}.json").write_text(json.dumps({
            "workload": workload.name, "seed": args.seed, "absent": tracer.absent,
            "self_s": tracer.self_times(), "spans": tracer.spans()}))

    for name, metric in metrics.items():
        print(f"{workload.name} {name} = {metric['value']:.6g} {metric['unit']}")
    if "reference_s" in samples:
        print(f"{workload.name} unscaled: reference task {median(samples['reference_s']):.4g} s, "
              f"{workload.windows() / median(samples['command_s']):.6g} windows/s, "
              f"setup {median(samples['setup_s']):.4g} s")
    result = {"correct": session.failed == 0, "attempted": session.attempted,
              "failed": session.failed, "metrics": metrics}
    (WORK / f"result-{workload.name}-trace{args.trace}.json").write_text(json.dumps(
        {"workload": workload.name, "seed": args.seed, "env": env, "samples": samples,
         **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
