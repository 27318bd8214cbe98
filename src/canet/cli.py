"""Command-line front end: synth, train, evaluate, export-embeddings.

Every command is a deterministic batch job: all randomness flows from one
seed, and identical inputs produce byte-identical outputs.  Exit codes:
0 success, 2 usage/config, 3 data, 4 numeric divergence.
"""

import argparse
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
from canet.synth import place_segments, synth_generate
from canet.train import ConfigError, DivergenceError, TrainConfig, train

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
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="score a labelled test series")
    p_eval.add_argument("--data", required=True, help="test CSV with a label column")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--out", default=".", help="output directory")
    p_eval.add_argument("--k-s", type=int, dest="k_s", default=None,
                        help="override the number of aggregated sensors")
    p_eval.add_argument("--calibration", choices=["self", "train"], default=None)
    p_eval.add_argument("--train-data", help="training CSV for calibration='train'")
    p_eval.add_argument("--can-plus", action="store_true", default=None,
                        help="fuse reconstruction deviation into the score")
    p_eval.add_argument("--batch-size", type=int, default=256)
    p_eval.set_defaults(func=cmd_evaluate)

    p_export = sub.add_parser("export-embeddings",
                              help="write learned sensor embeddings as CSV")
    p_export.add_argument("--checkpoint", required=True)
    p_export.add_argument("--out", default="embeddings.csv", help="output CSV path")
    p_export.set_defaults(func=cmd_export_embeddings)

    return parser


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for f in dataclasses.fields(TrainConfig):
        flag = "--" + f.name.replace("_", "-")
        valid = f.metadata["valid"]
        text = f.metadata["help"] + (f" ({valid[1]})" if valid else "")
        if f.type is bool:
            parser.add_argument(flag, dest=f.name, default=None,
                                action=argparse.BooleanOptionalAction, help=text)
        else:
            parser.add_argument(flag, dest=f.name, type=f.type, default=None, help=text)


def parse_config_file(path) -> dict:
    """Flat key=value lines; '#' starts a comment, blank lines are skipped."""
    mapping = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def resolve_train_config(args) -> TrainConfig:
    """Config file first, then command-line flags on top; the merged
    mapping is checked once."""
    mapping = parse_config_file(args.config) if args.config else {}
    mapping.update({f.name: getattr(args, f.name) for f in dataclasses.fields(TrainConfig)
                    if getattr(args, f.name, None) is not None})
    cfg = TrainConfig.from_mapping(mapping)
    if "seed" not in mapping:
        raise ConfigError("a seed is required: pass --seed or set seed= in the config file")
    return cfg


def cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    segments = []
    for kind, count in (("spike", args.spikes), ("drift", args.drifts), ("stuck", args.stucks)):
        segments.extend(place_segments(count, args.length, args.sensors, rng,
                                       duration=args.duration, magnitude=args.magnitude,
                                       kind=kind))
    result = synth_generate(args.sensors, args.length, args.seed, segments)
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
    series = downsample_median(series, downsample)
    if stats is None:
        stats = minmax_fit(series)
    return make_windows(minmax_apply(series, stats), window), stats


def cmd_train(args) -> int:
    cfg = resolve_train_config(args)
    dataset, stats = _load_windows(args.data, cfg.window, cfg.downsample)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    resolved = cfg.to_dict()
    print("resolved config: " + json.dumps(resolved, sort_keys=True))
    (out / "config.txt").write_text(
        "".join(f"{k}={resolved[k]}\n" for k in sorted(resolved)))

    model, log = train(dataset, cfg)

    extra = {
        "sensor_names": dataset.sensor_names,
        "norm_min": [float(v) for v in stats.minimum],
        "norm_max": [float(v) for v in stats.maximum],
        "train_config": resolved,
    }
    save_checkpoint(model, out / "model.ckpt", extra)
    with open(out / "train.log", "w") as handle:
        for entry in log.epochs:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"best epoch {log.best_epoch} (val loss {log.best_val_loss:.6f}), "
          f"{log.n_parameters} parameters")
    print(f"wrote {out / 'model.ckpt'} and {out / 'train.log'}")
    return 0


def cmd_evaluate(args) -> int:
    if args.batch_size < 1:
        raise ConfigError(f"--batch-size must be >= 1, got {args.batch_size}")
    model, extra = load_checkpoint(args.checkpoint)
    try:
        stored = TrainConfig(**extra["train_config"])
        stats = NormStats(minimum=np.asarray(extra["norm_min"], dtype=np.float64),
                          maximum=np.asarray(extra["norm_max"], dtype=np.float64))
        names = extra["sensor_names"]
    except (KeyError, TypeError, ConfigError) as exc:
        raise CheckpointError(f"bad run metadata in {args.checkpoint}: {exc!r}") from exc
    flags = {"score_sensors": args.k_s, "calibration": args.calibration,
             "can_plus": args.can_plus}
    cfg = dataclasses.replace(stored, **{k: v for k, v in flags.items() if v is not None})

    window = model.config.window
    dataset, _ = _load_windows(args.data, window, cfg.downsample, stats, names)
    if dataset.labels is None:
        raise DataError(f"{args.data} has no label column; evaluation needs ground truth")
    calibration = None
    if cfg.calibration == "train":
        if not args.train_data:
            raise ConfigError("--calibration train needs --train-data")
        calibration, _ = _load_windows(args.train_data, window, cfg.downsample, stats, names)

    report = evaluate(model, dataset, dataset.labels, score_sensors=cfg.score_sensors,
                      calibration=calibration, can_plus=cfg.can_plus,
                      batch_size=args.batch_size)

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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
