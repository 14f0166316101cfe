"""The benchmark's four workloads.

Each workload has a ``setup`` that writes its seeded inputs and a
``run_pass`` that performs one closed-loop pass: CLI invocations made one
after another through ``emofuse.cli.main``, each followed by a check of its
outputs. An operation is one invocation plus its check; it fails when the
command returns non-zero, raises, or its outputs are wrong.

Why these four (each drives a different set of modules):

* ``ingest`` runs audio, video, sequencing and dataset and never nn, so a
  DSP, parsing or container change shows here and nowhere in training.
* ``train-gru`` spends most of a step in ``Gru`` forward and backward; its
  long validation videos give B=64 inference batches.
* ``train-lstm`` is the only workload that runs ``Lstm``.
* ``evaluate-short`` runs forward only, over many 1-3 window videos, so
  per-call overhead and per-video prediction files dominate.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import synth
from emofuse.cli import main as cli_main
from emofuse.dataset import read_dataset, read_frame_features
from emofuse.evaluation import evaluate
from emofuse.model import FusionModel, load_checkpoint
from emofuse.sequencing import window_starts

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

INGEST_VIDEOS = 3
TRAIN_VIDEOS = 10  # 645 frames -> 64 windows each: 10 steps of B=64 per epoch
VAL_VIDEOS = 3  # one B=64 inference batch per validation video
FRAMES_PER_VIDEO = 645
TRAIN_EPOCHS = 3
BATCH = 64
SHORT_VIDEOS = 80
SHORT_FRAMES = (15, 35)  # 1-3 windows per video
STEPS_PER_EPOCH = math.ceil(TRAIN_VIDEOS * len(window_starts(FRAMES_PER_VIDEO)) / BATCH)
PROBE_SEED = 123456  # fixed inputs of the train-* loss probe
PROBE_EPOCHS = 2


class CheckError(Exception):
    """An output the benchmark generated the inputs for is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass
class Op:
    name: str
    start: float
    seconds: float
    error: str | None = None


@dataclass
class PassResult:
    wall_s: float = 0.0  # invocations run in traced and untraced passes alike
    rates: list[float] = field(default_factory=list)  # frames_per_s samples
    units: list[float] = field(default_factory=list)  # pass_s samples
    steps_ms: list[float] = field(default_factory=list)  # train_step latencies
    ops: list[Op] = field(default_factory=list)


def invoke(result: PassResult, argv: list[str], span: str, tracer, check,
           counted: bool = True) -> float:
    """Run one CLI command (timed) and then its check (untimed).

    ``counted=False`` keeps the command out of ``wall_s``, for commands that
    only traced passes run.
    """
    out = io.StringIO()
    error = None
    s = tracer.open(span) if tracer else None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli_main(argv)
    except Exception as exc:  # any crash is a failed operation, not a crashed benchmark
        rc, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if s:
        tracer.close(s)
    if error is None and rc != 0:
        error = f"exit code {rc}"
    if error is None:
        try:
            check()
        except CheckError as exc:
            error = f"check: {exc}"
        except Exception as exc:  # missing or unreadable outputs
            error = f"check: {type(exc).__name__}: {exc}"
    result.ops.append(Op(span, t0, seconds, error))
    if counted:
        result.wall_s += seconds
    return seconds


class Workload:
    name: str
    frames_metric: tuple[str, str]  # (per-workload name, meaning)
    pass_metric: str  # what one pass_s sample times
    final_losses: list[float] | tuple = ()  # train losses the checks saw

    def setup(self, root: str, seed: int) -> None:
        raise NotImplementedError

    def run_pass(self, tracer) -> PassResult:
        raise NotImplementedError

    def verify(self) -> PassResult:
        """Checks run once after the timed passes; they count as operations."""
        return PassResult()


def fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    return path


class StepClock:
    """Times every ``FusionModel.train_step`` call while installed."""

    def __init__(self):
        self.calls: list[tuple[float, float, int]] = []  # start, end, window rows
        self._original = None

    def install(self):
        self._original = original = FusionModel.train_step
        calls = self.calls

        def timed(model, audio, *args, **kwargs):
            t0 = time.perf_counter()
            loss = original(model, audio, *args, **kwargs)
            calls.append((t0, time.perf_counter(), int(np.prod(np.shape(audio)[:2]))))
            return loss

        FusionModel.train_step = timed

    def uninstall(self):
        FusionModel.train_step = self._original


# --------------------------------------------------------------------------
# ingest
# --------------------------------------------------------------------------


class Ingest(Workload):
    name = "ingest"
    frames_metric = ("ingest_frames_per_s",
                     "annotated frames through extract-audio, ingest-video and build-dataset per second")
    pass_metric = "one video through extract-audio and ingest-video"

    def setup(self, root: str, seed: int) -> None:
        self.root = root
        self.videos = synth.ingest_inputs(os.path.join(root, "in"), seed, INGEST_VIDEOS)

    def run_pass(self, tracer) -> PassResult:
        r = PassResult()
        audio_root = fresh(os.path.join(self.root, "audio"))
        video_root = fresh(os.path.join(self.root, "video"))
        for v in self.videos:
            a_out = os.path.join(audio_root, v.video_id)
            v_out = os.path.join(video_root, v.video_id)
            t = invoke(r, ["extract-audio", "--wav", v.wav, "--annotations", v.annotations,
                           "--out", a_out], "cli.extract_audio", tracer,
                       lambda: self._check_audio(a_out))
            t += invoke(r, ["ingest-video", "--csv", v.csv, "--out", v_out],
                        "cli.ingest_video", tracer,
                        lambda: self._check_video(v_out, v))
            r.units.append(t)
        ann_dir = os.path.dirname(self.videos[0].annotations)
        builds = [("cli.build_dataset", [])]
        if tracer is not None:
            builds.append(("cli.build_dataset.jobs1", ["--jobs", "1"]))
        for span, extra in builds:
            out = fresh(os.path.join(self.root, span))
            t = invoke(r, ["build-dataset", "--audio", audio_root, "--video", video_root,
                           "--annotations", ann_dir, "--out", out, *extra], span,
                       tracer, lambda: self._check_dataset(out),
                       counted=not extra)
            if not extra:
                # each video's share of the dataset build completes its ingest
                share = t / len(self.videos)
                r.rates = [synth.CLIP_FRAMES / (u + share) for u in r.units]
        return r

    @staticmethod
    def _check_audio(path):
        feats, manifest = read_frame_features(path)
        require(feats.shape == (synth.CLIP_FRAMES, synth.AUDIO_DIM),
                f"audio features {feats.shape}")
        require(bool(np.isfinite(feats).all()), "non-finite audio feature")
        require(manifest["meta"]["n_chunks"] == synth.CLIP_FRAMES, "chunk count")

    @staticmethod
    def _check_video(path, v: synth.IngestVideo):
        feats, manifest = read_frame_features(path)
        require(feats.shape == v.video_features.shape, f"video features {feats.shape}")
        require(bool(np.array_equal(feats, v.video_features)),
                "video features differ from the generated cells")
        require(manifest["meta"]["n_invalid_frames"] == int(v.invalid.sum()),
                "invalid frame count")

    def _check_dataset(self, path):
        ds = read_dataset(path)
        require(ds.audio_dim == synth.AUDIO_DIM and ds.video_dim == len(synth.video_columns()),
                "dataset dims")
        require(bool(np.isfinite(ds.audio).all() and np.isfinite(ds.video).all()),
                "non-finite dataset feature")
        entries = {e.video_id: e for e in ds.videos}
        require(sorted(entries) == [v.video_id for v in self.videos], "dataset video ids")
        for v in self.videos:
            e = entries[v.video_id]
            starts = window_starts(e.n_frames)
            require(e.n_frames == synth.CLIP_FRAMES, f"{v.video_id}: frame count")
            require(e.window_count == len(starts), f"{v.video_id}: window count")
            sl = slice(e.window_offset, e.window_offset + e.window_count)
            require(ds.start_frames[sl].tolist() == starts, f"{v.video_id}: window starts")
            idx = np.asarray(starts)[:, None] + np.arange(ds.window_len)[None, :]
            classes = np.where(v.raw_labels == -1, 7, v.raw_labels)
            require(bool(np.array_equal(ds.labels[sl], classes[idx])), f"{v.video_id}: labels")
            require(bool(np.array_equal(ds.video[sl], v.video_features[idx])),
                    f"{v.video_id}: windowed video features")


# --------------------------------------------------------------------------
# train-gru / train-lstm
# --------------------------------------------------------------------------


class Train(Workload):
    frames_metric = ("train_frames_per_s",
                     "window rows through train_step per second of training-phase time")
    pass_metric = "one epoch, with validation and checkpoint writes (epoch_s)"

    def __init__(self, recurrent: str):
        self.recurrent = recurrent
        self.name = f"train-{recurrent}"
        with open(os.path.join(BENCH_DIR, "reference.json")) as fh:
            self.reference = json.load(fh)[self.name]
        self.final_losses: list[float] = []

    def setup(self, root: str, seed: int) -> None:
        self.root = root
        video_dim = len(synth.video_columns())
        self.train, self.val = synth.training_sets(
            root, seed, video_dim, TRAIN_VIDEOS, VAL_VIDEOS, FRAMES_PER_VIDEO)
        self.probe = synth.training_sets(
            os.path.join(root, "probe"), PROBE_SEED, video_dim, 2, 1, FRAMES_PER_VIDEO)

    def _argv(self, train, val, out, epochs):
        return ["train", "--train", train, "--val", val, "--out", out, "--mode", "fused",
                "--recurrent", self.recurrent, "--epochs", str(epochs), "--batch", str(BATCH),
                "--patience", "0", "--seed", "0"]

    def run_pass(self, tracer) -> PassResult:
        r = PassResult()
        out = fresh(os.path.join(self.root, "run"))
        clock = StepClock()
        clock.install()
        try:
            invoke(r, self._argv(self.train, self.val, out, TRAIN_EPOCHS), "cli.train", tracer,
                   lambda: self._check(out, TRAIN_EPOCHS, "final_loss", "final_tolerance"))
        finally:
            clock.uninstall()
        steps, op = clock.calls, r.ops[-1]
        if op.error is not None or len(steps) != TRAIN_EPOCHS * STEPS_PER_EPOCH:
            return r
        epochs = [steps[i : i + STEPS_PER_EPOCH]
                  for i in range(0, len(steps), STEPS_PER_EPOCH)]
        # an epoch runs from its first step to the next epoch's first step
        # (the last epoch: to the command's return), so it holds validation
        # and the checkpoint writes
        bounds = [e[0][0] for e in epochs] + [op.start + op.seconds]
        r.units = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        # the training phase of an epoch runs from its first step's start to its
        # last step's end; each step's share is up to the next step's start
        for e in epochs:
            ends = [start for start, _, _ in e[1:]] + [e[-1][1]]
            r.rates += [rows / (end - start) for (start, _, rows), end in zip(e, ends)]
        r.steps_ms = [1e3 * (b - a) for a, b, _ in steps]
        return r

    def verify(self) -> PassResult:
        """Train on fixed inputs and compare the loss with the stored reference.

        The timed passes train on seeded data, so their final loss can only be
        held to a band that covers every seed. This probe's inputs never
        change, so its loss must match the reference to well within the effect
        of a wrong gradient (>= 0.015 after 3 updates for every broken GRU or
        BatchNorm gradient tried) while leaving room for ulp-level changes
        (1e-7).
        """
        r = PassResult()
        out = fresh(os.path.join(self.root, "probe-run"))
        invoke(r, self._argv(*self.probe, out, PROBE_EPOCHS), "probe.train", None,
               lambda: self._check(out, PROBE_EPOCHS, "probe_loss", "probe_tolerance"))
        return r

    def _check(self, out, epochs, ref_key, tol_key):
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        history = summary["history"]
        require(len(history) == epochs, f"{len(history)} epochs recorded")
        for h in history:
            require(all(math.isfinite(h[k]) for k in
                        ("train_loss", "val_combined", "val_accuracy", "val_macro_f1")),
                    f"non-finite value in epoch {h['epoch']}")
        final = history[-1]["train_loss"]
        self.final_losses.append(final)
        ref, tol = self.reference[ref_key], self.reference[tol_key]
        require(abs(final - ref) <= tol,
                f"final loss {final:.6f} outside {ref} +- {tol}")
        model, _, _ = load_checkpoint(os.path.join(out, "best.ckpt"))
        require(model.config.mode == "fused" and model.config.recurrent == self.recurrent,
                "best.ckpt config")


# --------------------------------------------------------------------------
# evaluate-short
# --------------------------------------------------------------------------


class EvaluateShort(Workload):
    name = "evaluate-short"
    frames_metric = ("eval_frames_per_s", "frames scored per second of the evaluate command")
    pass_metric = "one evaluate command"

    def setup(self, root: str, seed: int) -> None:
        self.root = root
        video_dim = len(synth.video_columns())
        self.checkpoint = os.path.join(root, "fused-gru.ckpt")
        synth.fused_gru_checkpoint(self.checkpoint, seed, video_dim)
        self.dataset_path, ds = synth.short_video_set(
            root, seed, video_dim, SHORT_VIDEOS, *SHORT_FRAMES)
        self.truth = {}
        for e in ds.videos:
            truth = np.empty(e.n_frames, dtype=np.int64)
            for i in range(e.window_offset, e.window_offset + e.window_count):
                truth[ds.start_frames[i] : ds.start_frames[i] + ds.window_len] = ds.labels[i]
            self.truth[e.video_id] = truth
        self.frames = sum(e.n_frames for e in ds.videos)

    def run_pass(self, tracer) -> PassResult:
        r = PassResult()
        out = fresh(os.path.join(self.root, "eval"))
        t = invoke(r, ["evaluate", "--checkpoint", self.checkpoint, "--dataset",
                       self.dataset_path, "--out", out], "cli.evaluate",
                   tracer, lambda: self._check(out))
        r.units.append(t)
        r.rates.append(self.frames / t)
        return r

    def _check(self, out):
        preds, truths = [], []
        for vid, truth in self.truth.items():
            with open(os.path.join(out, "predictions", vid + ".txt")) as fh:
                rows = [line.split(",") for line in fh.read().splitlines()]
            require(len(rows) == len(truth), f"{vid}: {len(rows)} rows for {len(truth)} frames")
            require([int(r[0]) for r in rows] == list(range(len(truth))), f"{vid}: frame index")
            probs = np.array([[float(p) for p in r[2:]] for r in rows])
            require(probs.shape[1] == synth.N_CLASSES, f"{vid}: {probs.shape[1]} probabilities")
            # 8 values rounded to 6 decimals: the sum is within 8 * 5e-7 of 1
            require(bool(np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-5)),
                    f"{vid}: probabilities do not sum to 1")
            preds.append([int(r[1]) for r in rows])
            truths.append(truth)
        report = evaluate(np.concatenate(preds), np.concatenate(truths))
        with open(os.path.join(out, "eval_summary.json")) as fh:
            summary = json.load(fh)
        for key, value in report.summary().items():
            require(summary[key] == value, f"eval_summary {key} disagrees with re-scoring")


WORKLOADS = {
    "ingest": Ingest,
    "train-gru": lambda: Train("gru"),
    "train-lstm": lambda: Train("lstm"),
    "evaluate-short": EvaluateShort,
}
