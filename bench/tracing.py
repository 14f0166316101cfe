"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent, attributes) and restores the
originals on ``uninstall``. Functions are replaced in every ``emofuse``
module that holds them, so a name imported with ``from .x import f`` is
traced as well. Targets that a later version of the program no longer has
are skipped, and the metrics that depend on them read 0.

Spans stay in memory until the run ends. ``per_layer_metrics`` turns them
into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _dir_bytes(path) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def _batch_rows(args, kwargs) -> int:
    # FusionModel.forward(audio, video, ...): the first array given sets B
    for x in (*args[1:3], kwargs.get("audio"), kwargs.get("video")):
        if x is not None:
            shape = np.shape(x)
            return shape[0] if len(shape) == 3 else 1
    return 0


def _csv_rows(span, args, kwargs, result):
    span.attrs["rows"] = len(result)
    span.attrs["invalid"] = sum(1 for r in result if not r.valid)


def _windows(span, args, kwargs, result):
    length = kwargs.get("length", args[1] if len(args) > 1 else 15)
    span.attrs["windows"] = len(result)
    span.attrs["rows"] = len(result) * length
    span.attrs["pad_rows"] = sum(w.pad_count for w in result)


# (module, attribute path, span name, hook(span, args, kwargs, result) or None)
TARGETS = [
    ("emofuse.audio", "load_wav", "audio.load_wav", None),
    ("emofuse.audio", "extract_chunk_features", "audio.extract_chunk_features",
     lambda s, a, k, r: s.attrs.update(chunks=len(r))),
    ("emofuse.video", "parse_openface_csv", "video.parse_openface_csv", _csv_rows),
    ("emofuse.sequencing", "parse_annotations", "sequencing.parse_annotations", None),
    ("emofuse.sequencing", "align_modalities", "sequencing.align_modalities", None),
    ("emofuse.sequencing", "cut_windows", "sequencing.cut_windows", _windows),
    ("emofuse.dataset", "write_dataset", "dataset.write",
     lambda s, a, k, r: s.attrs.update(bytes=_dir_bytes(a[1]))),
    ("emofuse.dataset", "write_frame_features", "dataset.write",
     lambda s, a, k, r: s.attrs.update(bytes=_dir_bytes(a[0]))),
    ("emofuse.dataset", "read_dataset", "dataset.read",
     lambda s, a, k, r: s.attrs.update(bytes=_dir_bytes(a[0]))),
    ("emofuse.dataset", "read_frame_features", "dataset.read",
     lambda s, a, k, r: s.attrs.update(bytes=_dir_bytes(a[0]))),
    ("emofuse.nn.recurrent", "Gru.forward", "nn.recurrent.Gru.forward", None),
    ("emofuse.nn.recurrent", "Gru.backward", "nn.recurrent.Gru.backward", None),
    ("emofuse.nn.recurrent", "Lstm.forward", "nn.recurrent.Lstm.forward", None),
    ("emofuse.nn.recurrent", "Lstm.backward", "nn.recurrent.Lstm.backward", None),
    *[
        ("emofuse.nn.layers", f"{cls}.{fn}", f"nn.layers.{cls}.{fn}", None)
        for cls in ("Dense", "BatchNorm", "PReLU", "Dropout")
        for fn in ("forward", "backward")
    ],
    ("emofuse.nn.optim", "RmsProp.step", "nn.optim.RmsProp.step", None),
    ("emofuse.model", "FusionModel.train_step", "model.train_step", None),
    ("emofuse.model", "FusionModel.forward", "model.forward",
     lambda s, a, k, r: s.attrs.update(rows=_batch_rows(a, k))),
    ("emofuse.model", "predict_video", "model.predict_video", None),
    ("emofuse.model", "save_checkpoint", "model.save_checkpoint",
     lambda s, a, k, r: s.attrs.update(bytes=os.path.getsize(a[0]))),
    ("emofuse.model", "load_checkpoint", "model.load_checkpoint", None),
    ("emofuse.training", "dataset_metrics", "training.validation", None),
    ("emofuse.evaluation", "evaluate", "evaluation.evaluate", None),
]

LAYER_KINDS = ("Dense", "BatchNorm", "PReLU", "Dropout")

# Every per-layer metric name, in report order. Layers a workload does not
# exercise report 0.
PER_LAYER_METRICS = {
    "audio.load_wav.s": "s",
    "audio.extract_chunk_features.s": "s",
    "audio.extract_chunk_features.ms": "ms",
    "audio.chunks": "count",
    "audio.us_per_chunk": "us",
    "video.parse_openface_csv.s": "s",
    "video.rows": "count",
    "video.invalid_rows": "count",
    "sequencing.parse_annotations.s": "s",
    "sequencing.align_modalities.s": "s",
    "sequencing.cut_windows.s": "s",
    "sequencing.windows": "count",
    "sequencing.pad_row_share": "ratio",
    "dataset.write.s": "s",
    "dataset.write.bytes": "bytes",
    "dataset.read.s": "s",
    "dataset.read.bytes": "bytes",
    **{
        f"nn.recurrent.{cell}.{what}": unit
        for cell in ("Gru", "Lstm")
        for what, unit in (("forward.ms", "ms"), ("backward.ms", "ms"), ("calls", "count"))
    },
    **{
        f"nn.layers.{kind}.{fn}.ms": "ms"
        for kind in LAYER_KINDS
        for fn in ("forward", "backward")
    },
    "nn.optim.RmsProp.step.ms": "ms",
    "model.train_step.ms": "ms",
    "model.train_step.self_ms": "ms",
    "model.forward.ms": "ms",
    "model.forward.calls": "count",
    "model.forward.rows_per_call": "windows",
    "model.predict_video.s": "s",
    "model.save_checkpoint.s": "s",
    "model.checkpoint.bytes": "bytes",
    "model.load_checkpoint.s": "s",
    "training.train_phase.s": "s",
    "training.validation.s": "s",
    "training.checkpoint_phase.s": "s",
    "evaluation.evaluate.ms": "ms",
    "cli.extract_audio.s": "s",
    "cli.ingest_video.s": "s",
    "cli.build_dataset.s": "s",
    "cli.build_dataset.jobs1.s": "s",
    "cli.train.s": "s",
    "cli.evaluate.s": "s",
    "cli.evaluate.self_s": "s",
    "trace.overhead_share": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        # a worker thread's outermost span hangs off the main thread's open span
        parent_stack = stack or self._main_stack
        parent = parent_stack[-1].id if parent_stack else None
        span = Span(next(self._ids), name, time.perf_counter(), parent)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    # -- patching -----------------------------------------------------------

    def _wrap(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("emofuse")]
        for module_name, path, span_name, hook in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{module_name}.{path}")
                continue
            original = vars(owner)[attr]
            wrapped = self._wrap(original, span_name, hook)
            if owner_name:
                self._patch(owner, attr, wrapped)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, **s.attrs}) + "\n")


# --------------------------------------------------------------------------
# Span -> metric derivation
# --------------------------------------------------------------------------


def _self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it its direct children cover."""
    covered, cursor = 0.0, span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, cursor), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.duration - covered


def per_layer_metrics(spans: list[Span], overhead_share: float) -> dict[str, float]:
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name, key=None):
        return float(sum(s.attrs.get(key, 0) if key else s.duration for s in named(name)))

    def mean_ms(items):
        return 1e3 * float(np.mean([s.duration for s in items])) if items else 0.0

    def under(span, ancestor):
        p = span.parent
        while p is not None:
            parent = by_id.get(p)
            if parent is None:
                return False
            if parent.name == ancestor:
                return True
            p = parent.parent
        return False

    m = {}
    extract = named("audio.extract_chunk_features")
    chunks = total("audio.extract_chunk_features", "chunks")
    m["audio.load_wav.s"] = total("audio.load_wav")
    m["audio.extract_chunk_features.s"] = total("audio.extract_chunk_features")
    m["audio.extract_chunk_features.ms"] = mean_ms(extract)
    m["audio.chunks"] = chunks
    m["audio.us_per_chunk"] = 1e6 * m["audio.extract_chunk_features.s"] / chunks if chunks else 0.0

    m["video.parse_openface_csv.s"] = total("video.parse_openface_csv")
    m["video.rows"] = total("video.parse_openface_csv", "rows")
    m["video.invalid_rows"] = total("video.parse_openface_csv", "invalid")

    rows = total("sequencing.cut_windows", "rows")
    m["sequencing.parse_annotations.s"] = total("sequencing.parse_annotations")
    m["sequencing.align_modalities.s"] = total("sequencing.align_modalities")
    m["sequencing.cut_windows.s"] = total("sequencing.cut_windows")
    m["sequencing.windows"] = total("sequencing.cut_windows", "windows")
    m["sequencing.pad_row_share"] = (
        total("sequencing.cut_windows", "pad_rows") / rows if rows else 0.0)

    for io in ("write", "read"):
        m[f"dataset.{io}.s"] = total(f"dataset.{io}")
        m[f"dataset.{io}.bytes"] = total(f"dataset.{io}", "bytes")

    for cell in ("Gru", "Lstm"):
        fwd = named(f"nn.recurrent.{cell}.forward")
        m[f"nn.recurrent.{cell}.forward.ms"] = mean_ms(fwd)
        m[f"nn.recurrent.{cell}.backward.ms"] = mean_ms(named(f"nn.recurrent.{cell}.backward"))
        m[f"nn.recurrent.{cell}.calls"] = float(len(fwd))
    for kind in LAYER_KINDS:
        for fn in ("forward", "backward"):
            m[f"nn.layers.{kind}.{fn}.ms"] = mean_ms(named(f"nn.layers.{kind}.{fn}"))
    m["nn.optim.RmsProp.step.ms"] = mean_ms(named("nn.optim.RmsProp.step"))

    steps = named("model.train_step")
    m["model.train_step.ms"] = mean_ms(steps)
    m["model.train_step.self_ms"] = (
        1e3 * float(np.mean([_self_time(s, children.get(s.id, [])) for s in steps]))
        if steps else 0.0)
    infer = [s for s in named("model.forward") if not under(s, "model.train_step")]
    m["model.forward.ms"] = mean_ms(infer)
    m["model.forward.calls"] = float(len(infer))
    m["model.forward.rows_per_call"] = (
        float(np.mean([s.attrs["rows"] for s in infer])) if infer else 0.0)
    m["model.predict_video.s"] = total("model.predict_video")
    saves = named("model.save_checkpoint")
    m["model.save_checkpoint.s"] = total("model.save_checkpoint")
    m["model.checkpoint.bytes"] = float(np.mean([s.attrs["bytes"] for s in saves])) if saves else 0.0
    m["model.load_checkpoint.s"] = total("model.load_checkpoint")

    # train phase: per epoch, first step start to last step end; epochs are
    # separated by the validation pass that follows them
    validations = sorted(named("training.validation"), key=lambda s: s.start)
    train_phase = 0.0
    for run in named("cli.train"):
        run_steps = sorted((s for s in steps if run.start <= s.start <= run.end),
                           key=lambda s: s.start)
        cuts = [v.start for v in validations if run.start <= v.start <= run.end]
        for lo, hi in zip([run.start, *cuts], [*cuts, run.end]):
            epoch = [s for s in run_steps if lo <= s.start < hi]
            if epoch:
                train_phase += epoch[-1].end - epoch[0].start
    m["training.train_phase.s"] = train_phase
    m["training.validation.s"] = total("training.validation")
    m["training.checkpoint_phase.s"] = float(
        sum(s.duration for s in saves if under(s, "cli.train")))
    m["evaluation.evaluate.ms"] = mean_ms(named("evaluation.evaluate"))

    for cmd in ("extract_audio", "ingest_video", "build_dataset", "build_dataset.jobs1",
                "train", "evaluate"):
        m[f"cli.{cmd}.s"] = total(f"cli.{cmd}")
    m["cli.evaluate.self_s"] = float(
        sum(_self_time(s, children.get(s.id, [])) for s in named("cli.evaluate")))
    m["trace.overhead_share"] = overhead_share
    return {name: m[name] for name in PER_LAYER_METRICS}
