"""Span tracing of canet from outside the program, and the per-layer metrics.

:func:`install` wraps the public functions of the layer modules, the
autodiff op classes (``Function.apply`` and each op's ``forward`` and
``backward``), ``Adam.step`` and ``WindowedDataset.batch``.  Module names
are bound at import time (``from canet.tensor import matmul``), so every
``canet`` module's globals are swept and each reference to a wrapped
function is replaced where it is looked up; methods are replaced on their
class.  Each call records a span (name, start, end, parent, command id) in
memory; :func:`uninstall` puts every original back.

Spans assume one thread: the benchmark pins ``CAN_THREADS=1``.

A metric whose wrapped name no longer exists in the program (for example
``attention.sdpa_s`` once attention is fused) is reported as ``ABSENT``
(-1), never as 0, and the name is listed in ``Tracer.absent``.
"""

import importlib
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

ABSENT = -1.0

LAYER_MODULES = ("tensor", "attention", "graph", "model", "train", "optim",
                 "data", "checkpoint", "detection", "cli")
CLASS_METHODS = (("optim", "Adam", "step"), ("data", "WindowedDataset", "batch"))
OPS = ("MatMul", "Softmax", "Concat", "Slice", "Mul", "Add")

TRAIN = ("train-desk", "train-paper")
EVALUATE = ("evaluate-paper", "evaluate-long")
ALL = TRAIN + EVALUATE

# Wrapped name -> workloads on which it must record calls (the coverage
# self-check).  ``detection.point_adjust`` is left out on purpose: a
# sort-and-sweep threshold search is expected to drive its calls to 0.
SERVES = {
    "tensor.backward": TRAIN,
    "attention.multi_head_attention": ALL,
    "attention.scaled_dot_attention": ALL,
    "graph.build_sensor_graph": ALL,
    "graph.local_adjacency": ALL,
    "graph.global_local_conv": ALL,
    "model.can_forward": ALL,
    "model.encoder_forward": ALL,
    "model.bottleneck_ae": ALL,
    "model.decoder_forward": ALL,
    "train.train": TRAIN,
    "train.prediction_loss": TRAIN,
    "train.reconstruction_loss": TRAIN,
    "train.joint_loss": TRAIN,
    "optim.Adam.step": TRAIN,
    "data.load_csv": ALL,
    "data.make_windows": ALL,
    "data.WindowedDataset.batch": ALL,
    "checkpoint.save_checkpoint": TRAIN,
    "checkpoint.load_checkpoint": EVALUATE,
    "detection.predict_series": EVALUATE,
    "detection.normalize_errors": EVALUATE,
    "detection.anomaly_scores": EVALUATE,
    "detection.threshold_grid_search": EVALUATE,
    "detection.write_scores_csv": EVALUATE,
}
for _op in OPS:
    SERVES[f"tensor.apply.{_op}"] = ALL
    SERVES[f"tensor.{_op}.forward"] = ALL
    SERVES[f"tensor.{_op}.backward"] = TRAIN

# Per-layer metric -> (unit, wrapped names it reads).  The layer -> end-to-end
# map these serve is in bench/README.md.
PER_LAYER = {
    "tensor.ops_per_step": ("count", ("tensor.apply",)),
    "tensor.matmul_per_step": ("count", ("tensor.apply.MatMul",)),
    "tensor.backward_s": ("s", ("tensor.backward",)),
    **{f"tensor.{op}.{d}_s": ("s", (f"tensor.{op}.{m}",))
       for op in OPS for d, m in (("fwd", "forward"), ("bwd", "backward"))},
    "tensor.recorded_frac": ("ratio", ("tensor.apply",)),
    "attention.mha_calls": ("count", ("attention.multi_head_attention",)),
    "attention.mha_s": ("s", ("attention.multi_head_attention",)),
    "attention.sdpa_calls": ("count", ("attention.scaled_dot_attention",)),
    "attention.sdpa_s": ("s", ("attention.scaled_dot_attention",)),
    "graph.build_s": ("s", ("graph.build_sensor_graph",)),
    "graph.local_s": ("s", ("graph.local_adjacency",)),
    "graph.conv_s": ("s", ("graph.global_local_conv",)),
    "model.forward_s": ("s", ("model.can_forward",)),
    "model.encoder_s": ("s", ("model.encoder_forward",)),
    "model.bottleneck_s": ("s", ("model.bottleneck_ae",)),
    "model.pre_decoder_s": ("s", ("model.decoder_forward",)),
    "model.rec_decoder_s": ("s", ("model.decoder_forward",)),
    "train.steps": ("count", ("data.WindowedDataset.batch", "optim.Adam.step")),
    "train.step_s_p50": ("s", ("data.WindowedDataset.batch", "optim.Adam.step")),
    "train.step_s_p90": ("s", ("data.WindowedDataset.batch", "optim.Adam.step")),
    "train.step_covered_frac": ("ratio", ("data.WindowedDataset.batch", "optim.Adam.step")),
    "train.loss_s": ("s", ("train.prediction_loss", "train.reconstruction_loss",
                           "train.joint_loss")),
    "train.val_s": ("s", ("data.WindowedDataset.batch", "optim.Adam.step")),
    "optim.adam_s": ("s", ("optim.Adam.step",)),
    "optim.adam_tensors": ("count", ("optim.Adam.step",)),
    "data.load_csv_s": ("s", ("data.load_csv",)),
    "data.make_windows_s": ("s", ("data.make_windows",)),
    "data.batch_s": ("s", ("data.WindowedDataset.batch",)),
    "checkpoint.save_s": ("s", ("checkpoint.save_checkpoint",)),
    "checkpoint.load_s": ("s", ("checkpoint.load_checkpoint",)),
    "detection.predict_s": ("s", ("detection.predict_series",)),
    "detection.predict_windows_per_s": ("windows/s", ("detection.predict_series",)),
    "detection.normalize_s": ("s", ("detection.normalize_errors",)),
    "detection.anomaly_scores_s": ("s", ("detection.anomaly_scores",)),
    "detection.threshold_s": ("s", ("detection.threshold_grid_search",)),
    "detection.threshold_frac": ("ratio", ("detection.threshold_grid_search",)),
    "detection.threshold_candidates": ("count", ("detection.threshold_grid_search",)),
    "detection.point_adjust_calls": ("count", ("detection.point_adjust",)),
    "detection.segments": ("count", ("detection.threshold_grid_search",)),
    "detection.report_write_s": ("s", ("detection.evaluate", "cli.cmd_evaluate")),
    "trace_overhead_frac": ("ratio", ()),
}

# Counters that must repeat exactly between two traced runs of one input.
EXACT_COUNTERS = ("tensor.ops_per_step", "tensor.matmul_per_step", "optim.adam_tensors",
                  "attention.sdpa_calls", "detection.threshold_candidates",
                  "detection.point_adjust_calls")

STEP_PARTS = ("data.WindowedDataset.batch", "model.can_forward", "train.prediction_loss",
              "train.reconstruction_loss", "train.joint_loss", "tensor.backward",
              "optim.Adam.step")


class Tracer:
    """In-memory spans plus counters noted at the same call boundaries."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents, self.commands = [], [], [], [], []
        self.stack = []
        self.command = 0
        self.counts = defaultdict(Counter)       # command id -> counter
        self.adam_tensors = defaultdict(list)    # command id -> tensors per step
        self.wrapped = set()
        self.absent = []
        self._restore = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.commands.append(self.command)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def run_command(self, fn, *args):
        """Run one call under a root ``command`` span with a fresh command id."""
        self.command += 1
        idx = self.open("command")
        try:
            return fn(*args)
        finally:
            self.close(idx)

    def spans(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "command": c}
                for n, s, e, p, c in zip(self.names, self.starts, self.ends,
                                         self.parents, self.commands)]

    def self_times(self) -> dict:
        """Total self time per name: duration minus what child spans cover."""
        out = defaultdict(float)
        for i, name in enumerate(self.names):
            out[name] += self.ends[i] - self.starts[i]
            if self.parents[i] >= 0:
                out[self.names[self.parents[i]]] -= self.ends[i] - self.starts[i]
        return dict(out)


def _wrap_function(tracer, name, fn, note=None):
    def wrapper(*args, **kwargs):
        if not tracer.stack:            # outside a traced command
            return fn(*args, **kwargs)
        if note is not None:
            note(tracer, args)
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
    wrapper.__name__ = fn.__name__
    return wrapper


def _wrap_apply(tracer, fn):
    labels = {}

    def apply(cls, *args, **kwargs):
        if not tracer.stack:
            return fn(cls, *args, **kwargs)
        label = labels.get(cls) or labels.setdefault(cls, f"tensor.apply.{cls.__name__}")
        idx = tracer.open(label)
        try:
            out = fn(cls, *args, **kwargs)
        finally:
            tracer.close(idx)
        if out.creator is not None:
            tracer.counts[tracer.command]["tensor.recorded"] += 1
        return out
    return classmethod(apply)


def _note_adam(tracer, args):
    tracer.adam_tensors[tracer.command].append(
        sum(p.grad is not None for p in args[0].params))


def _note_threshold(tracer, args):
    values = np.asarray(getattr(args[0], "values", args[0]), dtype=np.float64)
    truth = np.asarray(args[1]).astype(np.int8)
    counts = tracer.counts[tracer.command]
    counts["detection.threshold_candidates"] += int(np.unique(values).size)
    counts["detection.segments"] += int(np.sum(np.diff(truth, prepend=0) == 1))


def _note_predict(tracer, args):
    tracer.counts[tracer.command]["detection.predict_windows"] += len(args[1])


NOTES = {"optim.Adam.step": _note_adam,
         "detection.threshold_grid_search": _note_threshold,
         "detection.predict_series": _note_predict}


def install(tracer: Tracer) -> None:
    """Wrap every traced name in the loaded ``canet`` package."""
    layer = {short: importlib.import_module(f"canet.{short}") for short in LAYER_MODULES}

    def patch(owner, attr, value, name):
        tracer._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)
        tracer.wrapped.add(name)

    wrappers = {}
    for short, module in layer.items():
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                name = f"{short}.{attr}"
                wrappers[id(obj)] = (name, _wrap_function(tracer, name, obj, NOTES.get(name)))
    for module_name in sorted(m for m in sys.modules if m == "canet" or m.startswith("canet.")):
        module = sys.modules[module_name]
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and id(obj) in wrappers:
                patch(module, attr, wrappers[id(obj)][1], wrappers[id(obj)][0])

    base = getattr(layer["tensor"], "Function", None)
    if base is not None and isinstance(base.__dict__.get("apply"), classmethod):
        ops = [c for c in vars(layer["tensor"]).values()
               if inspect.isclass(c) and issubclass(c, base) and c is not base]
        patch(base, "apply", _wrap_apply(tracer, base.__dict__["apply"].__func__),
              "tensor.apply")
        tracer.wrapped.update(f"tensor.apply.{c.__name__}" for c in ops)
        for cls in ops:
            for method in ("forward", "backward"):
                if method in cls.__dict__:
                    name = f"tensor.{cls.__name__}.{method}"
                    patch(cls, method, _wrap_function(tracer, name, cls.__dict__[method]), name)
    for short, cls_name, method in CLASS_METHODS:
        cls = getattr(layer[short], cls_name, None)
        if cls is not None and inspect.isfunction(cls.__dict__.get(method)):
            name = f"{short}.{cls_name}.{method}"
            patch(cls, method, _wrap_function(tracer, name, cls.__dict__[method],
                                              NOTES.get(name)), name)

    wanted = set(SERVES) | {n for _, sources in PER_LAYER.values() for n in sources}
    tracer.absent = sorted(wanted - tracer.wrapped)


def uninstall(tracer: Tracer) -> None:
    while tracer._restore:
        owner, attr, original = tracer._restore.pop()
        setattr(owner, attr, original)


def coverage(tracer: Tracer, command: int, workload: str) -> list:
    """Wrapped names that recorded no call in ``command`` although
    :data:`SERVES` says they serve ``workload``.  Absent names are not
    listed here; they are in ``tracer.absent``."""
    called = {n for n, c in zip(tracer.names, tracer.commands) if c == command}
    return sorted(name for name, serves in SERVES.items()
                  if workload in serves and name in tracer.wrapped and name not in called)


def layer_metrics(tracer: Tracer, command: int, overhead: float) -> dict:
    """Per-layer metrics of one traced command (see :data:`PER_LAYER`);
    ``overhead`` is the measured ``trace_overhead_frac``."""
    index = [i for i, c in enumerate(tracer.commands) if c == command]
    starts = np.array([tracer.starts[i] for i in index])
    ends = np.array([tracer.ends[i] for i in index])
    names = [tracer.names[i] for i in index]
    local = {g: k for k, g in enumerate(index)}
    by_name, children = defaultdict(list), defaultdict(list)
    for k, g in enumerate(index):
        by_name[names[k]].append(k)
        parent = tracer.parents[g]
        if parent in local:
            children[local[parent]].append(k)

    def total(*span_names):
        return float(sum(ends[k] - starts[k] for n in span_names for k in by_name[n]))

    def calls(name):
        return len(by_name[name])

    command_s = total("command")

    # Steps: on train, each batch -> ... -> Adam.step run under train.train is
    # one optimizer step, and a batch group with no Adam.step is validation;
    # on evaluate, each batch under predict_series is one inference step.
    steps, covered, val_s = [], 0.0, 0.0
    for root in by_name["train.train"]:
        groups = []
        for k in children[root]:
            if names[k] == "data.WindowedDataset.batch":
                groups.append([])
            if groups:
                groups[-1].append(k)
        for group in groups:
            adam = [k for k in group if names[k] == "optim.Adam.step"]
            if adam:
                steps.append((starts[group[0]], ends[adam[-1]]))
                covered += sum(ends[k] - starts[k] for k in group if names[k] in STEP_PARTS)
            else:
                val_s += ends[group[-1]] - starts[group[0]]
    intervals, n_steps = steps, len(steps)
    if not steps:
        intervals = [(starts[k], ends[k]) for k in by_name["detection.predict_series"]]
        n_steps = sum(1 for p in by_name["detection.predict_series"] for k in children[p]
                      if names[k] == "data.WindowedDataset.batch")

    def per_step(prefix):
        picked = np.sort(np.array([starts[k] for n, ks in by_name.items()
                                   if n.startswith(prefix) for k in ks]))
        inside = sum(int(np.searchsorted(picked, e) - np.searchsorted(picked, s))
                     for s, e in intervals)
        return inside / n_steps if n_steps else 0.0

    durations = np.array([e - s for s, e in steps])
    step_total = float(durations.sum())
    pre_s = rec_s = 0.0
    for root in by_name["model.can_forward"]:
        decoders = [k for k in children[root] if names[k] == "model.decoder_forward"]
        pre_s += sum(ends[k] - starts[k] for k in decoders[:1])
        rec_s += sum(ends[k] - starts[k] for k in decoders[1:2])
    counts = tracer.counts[command]
    applied = sum(len(ks) for n, ks in by_name.items() if n.startswith("tensor.apply."))
    adam = tracer.adam_tensors[command]
    predict_s = total("detection.predict_series")
    evaluate_end = max((ends[k] for k in by_name["detection.evaluate"]), default=0.0)
    command_end = max((ends[k] for k in by_name["cli.cmd_evaluate"]), default=0.0)

    values = {
        "tensor.ops_per_step": per_step("tensor.apply."),
        "tensor.matmul_per_step": per_step("tensor.apply.MatMul"),
        "tensor.backward_s": total("tensor.backward"),
        **{f"tensor.{op}.{d}_s": total(f"tensor.{op}.{m}")
           for op in OPS for d, m in (("fwd", "forward"), ("bwd", "backward"))},
        "tensor.recorded_frac": counts["tensor.recorded"] / applied if applied else 0.0,
        "attention.mha_calls": calls("attention.multi_head_attention"),
        "attention.mha_s": total("attention.multi_head_attention"),
        "attention.sdpa_calls": calls("attention.scaled_dot_attention"),
        "attention.sdpa_s": total("attention.scaled_dot_attention"),
        "graph.build_s": total("graph.build_sensor_graph"),
        "graph.local_s": total("graph.local_adjacency"),
        "graph.conv_s": total("graph.global_local_conv"),
        "model.forward_s": total("model.can_forward"),
        "model.encoder_s": total("model.encoder_forward"),
        "model.bottleneck_s": total("model.bottleneck_ae"),
        "model.pre_decoder_s": float(pre_s),
        "model.rec_decoder_s": float(rec_s),
        "train.steps": len(steps),
        "train.step_s_p50": float(np.percentile(durations, 50)) if steps else 0.0,
        "train.step_s_p90": float(np.percentile(durations, 90)) if steps else 0.0,
        "train.step_covered_frac": float(covered / step_total) if steps else 0.0,
        "train.loss_s": total("train.prediction_loss", "train.reconstruction_loss",
                              "train.joint_loss"),
        "train.val_s": float(val_s),
        "optim.adam_s": total("optim.Adam.step"),
        "optim.adam_tensors": statistics.fmean(adam) if adam else 0.0,
        "data.load_csv_s": total("data.load_csv"),
        "data.make_windows_s": total("data.make_windows"),
        "data.batch_s": total("data.WindowedDataset.batch"),
        "checkpoint.save_s": total("checkpoint.save_checkpoint"),
        "checkpoint.load_s": total("checkpoint.load_checkpoint"),
        "detection.predict_s": predict_s,
        "detection.predict_windows_per_s":
            counts["detection.predict_windows"] / predict_s if predict_s else 0.0,
        "detection.normalize_s": total("detection.normalize_errors"),
        "detection.anomaly_scores_s": total("detection.anomaly_scores"),
        "detection.threshold_s": total("detection.threshold_grid_search"),
        "detection.threshold_frac":
            total("detection.threshold_grid_search") / command_s if command_s else 0.0,
        "detection.threshold_candidates": counts["detection.threshold_candidates"],
        "detection.point_adjust_calls": calls("detection.point_adjust"),
        "detection.segments": counts["detection.segments"],
        "detection.report_write_s": float(command_end - evaluate_end) if evaluate_end else 0.0,
        "trace_overhead_frac": overhead,
    }
    out = {}
    for metric, (unit, sources) in PER_LAYER.items():
        gone = any(name in tracer.absent for name in sources)
        out[metric] = {"value": ABSENT if gone else values[metric], "unit": unit}
    return out
