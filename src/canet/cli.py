"""Command-line front end: synth, train, evaluate, export-embeddings.

Every command is a deterministic batch job: all randomness flows from one
seed, and identical inputs produce byte-identical outputs.  Exit codes:
0 success, 2 usage/config, 3 data, 4 numeric divergence.
"""

import argparse
import ctypes
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from canet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from canet.data import (DataError, downsample_median, load_csv, make_windows,
                        minmax_apply, minmax_fit, write_csv, NormStats, RawSeries)
from canet.detection import evaluate, write_report_json, write_scores_csv
from canet.graph import write_embeddings_csv
from canet.model import window_threads
from canet.synth import place_segments, synth_generate
from canet.train import ConfigError, DivergenceError, TrainConfig, train

# the TrainConfig keys evaluate may override on a checkpoint's stored ones
SCORING_KEYS = ("score_sensors", "calibration", "can_plus")

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canet",
        description="Multivariate time-series anomaly detection with coupled attention")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate synthetic train/test CSVs")
    p_synth.add_argument("--sensors", type=int, required=True)
    p_synth.add_argument("--length", type=int, required=True)
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--out", default=".", help="output directory")
    p_synth.add_argument("--spikes", type=int, default=0, help="number of spike segments")
    p_synth.add_argument("--drifts", type=int, default=0, help="number of drift segments")
    p_synth.add_argument("--stucks", type=int, default=0, help="number of stuck segments")
    p_synth.add_argument("--duration", type=int, default=10, help="timestamps per segment")
    p_synth.add_argument("--magnitude", type=float, default=5.0,
                         help="segment magnitude in training-std units")
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="train a model and write a checkpoint")
    p_train.add_argument("--data", required=True, help="training CSV")
    p_train.add_argument("--config", help="key=value config file")
    p_train.add_argument("--out", default=".", help="output directory")
    _add_config_flags(p_train, [f.name for f in dataclasses.fields(TrainConfig)])
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="score a labelled test series")
    p_eval.add_argument("--data", required=True, help="test CSV with a label column")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--out", default=".", help="output directory")
    p_eval.add_argument("--train-data", help="training CSV for calibration='train'")
    _add_config_flags(p_eval, SCORING_KEYS)
    p_eval.set_defaults(func=cmd_evaluate)

    p_export = sub.add_parser("export-embeddings",
                              help="write learned sensor embeddings as CSV")
    p_export.add_argument("--checkpoint", required=True)
    p_export.add_argument("--out", default="embeddings.csv", help="output CSV path")
    p_export.set_defaults(func=cmd_export_embeddings)

    return parser


def _add_config_flags(parser: argparse.ArgumentParser, names) -> None:
    for f in (f for f in dataclasses.fields(TrainConfig) if f.name in names):
        flag = "--" + f.name.replace("_", "-")
        valid = f.metadata["valid"]
        text = f.metadata["help"] + (f" ({valid[1]})" if valid else "")
        kind = {"action": argparse.BooleanOptionalAction} if f.type is bool else {"type": f.type}
        parser.add_argument(flag, dest=f.name, default=None, help=text, **kind)


def parse_config_file(path) -> dict:
    """Flat key=value lines; '#' starts a comment, blank lines are skipped,
    and a key may appear once."""
    mapping, first_line = {}, {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in mapping:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} repeats "
                              f"line {first_line[key]}")
        mapping[key], first_line[key] = value, lineno
    return mapping


def resolve_train_config(args) -> TrainConfig:
    """Config file first, then command-line flags on top.  The merged
    mapping is checked once: each key's name (an unknown key fails with the
    list of valid ones) and value type in turn, then the ranges, then the
    seed."""
    mapping = parse_config_file(args.config) if args.config else {}
    types = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    mapping.update({key: getattr(args, key) for key in types
                    if getattr(args, key, None) is not None})
    for key, raw in mapping.items():
        if key not in types:
            raise ConfigError(
                f"unknown config key {key!r}; valid keys: {', '.join(sorted(types))}")
        mapping[key] = _coerce(raw, types[key], key)
    cfg = TrainConfig(**mapping)
    if "seed" not in mapping:
        raise ConfigError("a seed is required: pass --seed or set seed= in the config file")
    return cfg


def _coerce(raw, annotation, key):
    """A config file's text parsed as the key's type; a value that is not
    text (a flag's) passes through."""
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    if annotation is bool:
        low = text.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"config key {key!r} expects true/false, got {raw!r}")
    if annotation in (int, float):
        try:
            return annotation(text)
        except ValueError:
            kind = "an integer" if annotation is int else "a number"
            raise ConfigError(f"config key {key!r} expects {kind}, got {raw!r}") from None
    return text


def cmd_synth(args) -> int:
    counts = {"spike": args.spikes, "drift": args.drifts, "stuck": args.stucks}
    for flag in ("spikes", "drifts", "stucks", "seed"):
        if getattr(args, flag) < 0:
            raise ConfigError(f"--{flag} must be >= 0, got {getattr(args, flag)}")
    if args.duration < 1:
        raise ConfigError(f"--duration must be >= 1, got {args.duration}")
    if not np.isfinite(args.magnitude):
        raise ConfigError(f"--magnitude must be finite, got {args.magnitude}")
    rng = np.random.default_rng(args.seed)
    segments, taken = [], []
    try:
        for kind, count in counts.items():
            segments.extend(place_segments(count, args.length, args.sensors, rng,
                                           duration=args.duration, magnitude=args.magnitude,
                                           kind=kind, taken=taken))
        result = synth_generate(args.sensors, args.length, args.seed, segments)
    except ValueError as exc:
        # every value synth rejects comes from a flag
        raise ConfigError(str(exc)) from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "train.csv", result.train)
    write_csv(out / "test.csv", result.test)
    graph = {
        "sensors": result.train.sensor_names,
        "clusters": result.clusters,
        "adjacency": result.adjacency.tolist(),
        "anomalies": [
            {"start": s.start, "duration": s.duration, "sensors": s.sensors,
             "kind": s.kind, "magnitude": s.magnitude}
            for s in segments
        ],
    }
    (out / "truth-graph.json").write_text(json.dumps(graph, sort_keys=True, indent=2) + "\n")
    print(f"wrote {out / 'train.csv'}, {out / 'test.csv'}, {out / 'truth-graph.json'}")
    return 0


def _match_sensors(series: RawSeries, names, path) -> RawSeries:
    """Reorder sensor rows into the checkpoint's order, matched by name."""
    if sorted(series.sensor_names) != sorted(names):
        missing = sorted(set(names) - set(series.sensor_names))
        unexpected = sorted(set(series.sensor_names) - set(names))
        raise DataError(
            f"{path}: sensors do not match the checkpoint's {len(names)}; "
            f"missing {missing}, unexpected {unexpected}")
    if series.sensor_names == list(names):
        return series
    order = [series.sensor_names.index(name) for name in names]
    return RawSeries(list(names), series.values[order], series.timestamps, series.labels)


def _load_windows(path, window: int, downsample: int, stats: "NormStats | None" = None,
                  names=None):
    """CSV to windows: match columns to ``names`` when given, downsample,
    then min-max scale with ``stats`` (fitted here when not given).
    Returns ``(dataset, stats)``."""
    series = load_csv(path)
    if names is not None:
        series = _match_sensors(series, names, path)
    rows = series.length
    series = downsample_median(series, downsample)
    if series.length < window + 1:
        factor = f", downsampled by {downsample} to {series.length}," if downsample > 1 else ""
        raise DataError(f"{path}: {rows} rows{factor} are fewer than window + 1 = {window + 1}")
    if stats is None:
        stats = minmax_fit(series)
    series = minmax_apply(series, stats)     # drops the loaded copy before windowing
    return make_windows(series, window), stats


def cmd_train(args) -> int:
    cfg = resolve_train_config(args)
    window_threads()        # a bad CAN_THREADS is a config error, raised before --out exists
    dataset, stats = _load_windows(args.data, cfg.window, cfg.downsample)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    resolved = dataclasses.asdict(cfg)
    print("resolved config: " + json.dumps(resolved, sort_keys=True))
    (out / "config.txt").write_text(
        "".join(f"{k}={resolved[k]}\n" for k in sorted(resolved)))

    # one flushed line per finished epoch, so a run that diverges keeps them
    with open(out / "train.log", "w") as handle:
        def log_epoch(entry):
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()

        model, log = train(dataset, cfg, on_epoch=log_epoch)

    extra = {
        "sensor_names": dataset.sensor_names,
        "norm_min": [float(v) for v in stats.minimum],
        "norm_max": [float(v) for v in stats.maximum],
        "train_config": resolved,
    }
    save_checkpoint(model, out / "model.ckpt", extra)
    print(f"best epoch {log.best_epoch} (val loss {log.best_val_loss:.6f}), "
          f"{model.num_parameters()} parameters")
    print(f"wrote {out / 'model.ckpt'} and {out / 'train.log'}")
    return 0


def cmd_evaluate(args) -> int:
    window_threads()        # a bad CAN_THREADS is a config error, raised before any file is read
    model, extra = load_checkpoint(args.checkpoint)
    try:
        stored = TrainConfig(**extra["train_config"])
        n = model.config.n_sensors
        bounds = {key: np.asarray(extra[key], dtype=np.float64) for key in ("norm_min", "norm_max")}
        for key, bound in bounds.items():
            if bound.shape != (n,) or not np.isfinite(bound).all():
                raise ValueError(f"{key} must be {n} finite numbers, got {extra[key]!r}")
        stats = NormStats(*bounds.values())
        names = extra["sensor_names"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"bad run metadata in {args.checkpoint}: {exc!r}") from exc
    cfg = dataclasses.replace(stored, **{key: getattr(args, key) for key in SCORING_KEYS
                                         if getattr(args, key) is not None})
    if cfg.calibration == "train" and not args.train_data:
        source = ("--calibration train" if args.calibration
                  else "calibration 'train' from the checkpoint's config")
        raise ConfigError(f"{source} needs --train-data; pass --train-data or --calibration self")
    if cfg.calibration != "train" and args.train_data is not None:
        raise ConfigError(f"--train-data needs calibration 'train', not {cfg.calibration!r}")

    window = model.config.window
    dataset, _ = _load_windows(args.data, window, cfg.downsample, stats, names)
    if dataset.labels is None:
        raise DataError(f"{args.data} has no label column; evaluation needs ground truth")
    if not dataset.labels[window:].any():     # unscored: window full blocks of downsample rows
        raise DataError(f"{args.data} has no label 1 after its first {window * cfg.downsample} "
                        "rows, which are not scored; the threshold search needs an anomaly")
    calibration = None
    if cfg.calibration == "train":
        calibration, _ = _load_windows(args.train_data, window, cfg.downsample, stats, names)

    report = evaluate(model, dataset, dataset.labels, score_sensors=cfg.score_sensors,
                      calibration=calibration, can_plus=cfg.can_plus)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_report_json(out / "report.json", report)
    write_scores_csv(out / "scores.csv", report, dataset.labels)
    print(f"precision={report.precision:.4f} recall={report.recall:.4f} f1={report.f1:.4f} "
          f"threshold={report.threshold:.6g}")
    return 0


def cmd_export_embeddings(args) -> int:
    model, extra = load_checkpoint(args.checkpoint)
    names = extra.get("sensor_names") or [str(i) for i in range(model.config.n_sensors)]
    write_embeddings_csv(args.out, names, model.embedding.data)
    print(f"wrote {args.out}")
    return 0


def _keep_freed_heap() -> None:
    """Keep freed heap memory in the process for reuse, where libc has
    glibc's ``mallopt``; elsewhere do nothing.

    ``backward`` frees each training step's graph and the next step
    allocates one of the same size.  By default glibc would return the freed
    top of the heap to the kernel after every step, and serve large arrays
    by ``mmap``, so each forward pass would fault its pages in again.  Here
    arrays below 32 MiB come from the heap, and the heap is trimmed only
    once its free top exceeds 1 GiB.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DivergenceError, OSError, ValueError) as exc:   # ConfigError, DataError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 4 if isinstance(exc, DivergenceError) else 3


if __name__ == "__main__":
    sys.exit(main())
