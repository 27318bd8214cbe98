"""Checkpoint persistence: one JSON header line, then raw little-endian
float32 parameter data at the offsets the header declares."""

import json
from dataclasses import asdict

import numpy as np

from canet.model import CanModel, ConfigError, ModelConfig

FORMAT_VERSION = 2


class CheckpointError(ValueError):
    """Unreadable, truncated, or incompatible checkpoint file."""


def save_checkpoint(model: CanModel, path, extra: dict | None = None) -> None:
    """``extra`` carries run metadata (normalization stats, sensor names,
    resolved training config); it must be JSON-serializable."""
    entries = []
    blobs = []
    offset = 0
    for name, param in model.named_parameters():
        raw = np.ascontiguousarray(param.data, dtype="<f4").tobytes()
        entries.append({"name": name, "shape": list(param.shape), "offset": offset})
        blobs.append(raw)
        offset += len(raw)
    header = {
        "version": FORMAT_VERSION,
        "config": asdict(model.config),
        "params": entries,
        "total_bytes": offset,
        "extra": extra or {},
    }
    with open(path, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        handle.write(b"\n")
        for raw in blobs:
            handle.write(raw)


def load_checkpoint(path) -> tuple[CanModel, dict]:
    """Rebuild the model and return ``(model, extra)``.

    Round-trips every parameter bit-exactly; rejects unknown versions,
    truncated files, a parameter listed twice, offsets other than the packed
    layout ``save_checkpoint`` writes, data bytes after the last parameter, a
    NaN or infinite parameter value, and ``extra["sensor_names"]``, when
    present, unless it is ``n_sensors`` distinct strings.
    """
    try:
        with open(path, "rb") as handle:
            header_line = handle.readline()
            blob = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot open checkpoint {path}: {exc}") from exc
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header in {path}") from exc

    if not isinstance(header, dict) or not isinstance(header.get("extra", {}), dict):
        raise CheckpointError(f"checkpoint header or its 'extra' in {path} is not a JSON object")
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version} not supported (expected {FORMAT_VERSION})")
    if len(blob) != header.get("total_bytes"):
        raise CheckpointError(
            f"truncated checkpoint {path}: {len(blob)} data bytes, "
            f"header declares {header.get('total_bytes')}")

    try:
        model = CanModel(ModelConfig(**header["config"]), seed=0)
        arrays = {}
        start = 0
        for entry in header["params"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            # the layout save_checkpoint writes: each entry starts where the last one ended
            if entry["name"] in arrays:
                raise CheckpointError(f"parameter {entry['name']} is listed twice in {path}")
            if entry["offset"] != start:
                raise CheckpointError(f"parameter {entry['name']} in {path} starts at byte "
                                      f"{entry['offset']!r}, expected {start}")
            raw = blob[start:start + 4 * count]
            if len(raw) != 4 * count:
                raise CheckpointError(f"truncated parameter data for {entry['name']} in {path}")
            arrays[entry["name"]] = np.frombuffer(raw, dtype="<f4").reshape(shape)
            start += 4 * count
        if start != len(blob):
            raise CheckpointError(f"checkpoint {path} has {len(blob) - start} data bytes "
                                  f"after its last parameter")
    except (KeyError, TypeError, ConfigError) as exc:
        raise CheckpointError(f"bad checkpoint header in {path}: {exc!r}") from exc
    params = dict(model.named_parameters())
    if set(arrays) != set(params):
        raise CheckpointError(f"checkpoint parameter set does not match model in {path}")
    for name, value in arrays.items():
        if value.shape != params[name].shape:
            raise CheckpointError(
                f"parameter {name} has shape {value.shape}, model expects {params[name].shape}")
        if not np.isfinite(value).all():
            raise CheckpointError(f"parameter {name} in {path} holds a non-finite value")
        params[name].data = value.astype(np.float32)
    extra = header.get("extra", {})
    names = extra.get("sensor_names")
    if "sensor_names" in extra and not (
            isinstance(names, list) and all(isinstance(n, str) for n in names)
            and len(set(names)) == len(names) == model.config.n_sensors):
        raise CheckpointError(f"sensor_names in {path} must be {model.config.n_sensors} "
                              f"distinct strings, got {names!r}")
    return model, extra

