"""Two-branch recurrent fusion network over 15-frame windows.

Audio windows [B,15,168] run through GRU(128) then GRU(64); video windows
[B,15,D] through GRU(256) then GRU(64). Each recurrent layer's output goes
through batch normalization, PReLU, then dropout(0.25). The two 64-wide
sequences are concatenated per timestep and passed through dense(64) with
PReLU and dense(8) with softmax, giving an 8-way distribution per frame.

Single-modality variants keep one branch and a dense(64->64) head input;
``recurrent`` switches every recurrent layer between GRU and LSTM.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import WindowDataset, window_rows
from .errors import (
    CorruptionError,
    DivergenceError,
    SchemaError,
    ShapeError,
    schema_fields,
)
from .nn.layers import BatchNorm, Dense, Dropout, PReLU, softmax, softmax_cross_entropy
from .nn.optim import RmsProp
from .nn.recurrent import Gru, Lstm

MODES = ("fused", "audio_only", "video_only")
RECURRENT_KINDS = ("gru", "lstm")
INFER_WINDOWS = 32  # windows per inference forward, whatever the caller's batch
STD_FLOOR = 1e-8


@dataclass(frozen=True)
class ModelConfig:
    mode: str = "fused"
    recurrent: str = "gru"
    audio_dim: int = 168
    video_dim: int = 709
    window_len: int = 15
    n_classes: int = 8
    audio_hidden: tuple[int, int] = (128, 64)
    video_hidden: tuple[int, int] = (256, 64)
    head_hidden: int = 64
    dropout: float = 0.25
    bn_momentum: float = 0.99
    bn_eps: float = 1e-5
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        if self.mode not in MODES:
            raise SchemaError(f"unknown mode {self.mode!r}")
        if self.recurrent not in RECURRENT_KINDS:
            raise SchemaError(f"unknown recurrent kind {self.recurrent!r}")
        if self.seed < 0:
            raise SchemaError(f"seed must be >= 0, got {self.seed}")


@dataclass
class FeatureStats:
    """Per-dimension standardization fitted on the training split."""

    audio_mean: np.ndarray
    audio_std: np.ndarray
    video_mean: np.ndarray
    video_std: np.ndarray


def standardize(features: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (features - mean) / np.maximum(std, STD_FLOOR)


def _fixed_rows(x: np.ndarray) -> np.ndarray:
    """``x`` zero-padded along its first axis to ``INFER_WINDOWS`` rows."""
    if x.shape[0] == INFER_WINDOWS:
        return x
    padded = np.zeros((INFER_WINDOWS, *x.shape[1:]), dtype=x.dtype)
    padded[: x.shape[0]] = x
    return padded


class FusionModel:
    def __init__(self, config: ModelConfig):
        self._build(config, np.random.default_rng(config.seed))

    def _build(self, config: ModelConfig, rng: np.random.Generator | None):
        """Build the layers; ``rng=None`` leaves every weight zero, for a checkpoint to fill."""
        self.config = config
        self.dtype = np.dtype(config.dtype)
        self.feature_stats: FeatureStats | None = None
        rec = Gru if config.recurrent == "gru" else Lstm

        self.audio_stack = []
        self.video_stack = []
        if config.mode in ("fused", "audio_only"):
            self.audio_stack = self._branch("audio", config.audio_dim, config.audio_hidden, rec, rng)
        if config.mode in ("fused", "video_only"):
            self.video_stack = self._branch("video", config.video_dim, config.video_hidden, rec, rng)

        head_in = 0
        if self.audio_stack:
            head_in += config.audio_hidden[-1]
        if self.video_stack:
            head_in += config.video_hidden[-1]
        self.head = [
            Dense(head_in, config.head_hidden, rng, self.dtype, name="head.dense1"),
            PReLU(config.head_hidden, dtype=self.dtype, name="head.prelu"),
            Dense(config.head_hidden, config.n_classes, rng, self.dtype, name="head.dense2"),
        ]
        self._layers = self.audio_stack + self.video_stack + self.head

    def _branch(self, prefix, in_dim, hidden, rec_cls, rng):
        layers = []
        dims = [in_dim, *hidden]
        for i in range(len(hidden)):
            h = dims[i + 1]
            layers.append(rec_cls(dims[i], h, rng, self.dtype, name=f"{prefix}.rnn{i + 1}"))
            layers.append(
                BatchNorm(
                    h,
                    momentum=self.config.bn_momentum,
                    eps=self.config.bn_eps,
                    dtype=self.dtype,
                    name=f"{prefix}.bn{i + 1}",
                )
            )
            layers.append(PReLU(h, dtype=self.dtype, name=f"{prefix}.prelu{i + 1}"))
            layers.append(Dropout(self.config.dropout, name=f"{prefix}.drop{i + 1}"))
        return layers

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> dict[str, np.ndarray]:
        out = {}
        for layer in self._layers:
            for pname, arr in layer.params.items():
                out[f"{layer.name}.{pname}"] = arr
        return out

    def gradients(self) -> dict[str, np.ndarray]:
        out = {}
        for layer in self._layers:
            for pname, arr in layer.grads.items():
                out[f"{layer.name}.{pname}"] = arr
        return out

    def buffers(self) -> dict[str, np.ndarray]:
        out = {}
        for layer in self._layers:
            if isinstance(layer, BatchNorm):
                out[f"{layer.name}.running_mean"] = layer.running_mean
                out[f"{layer.name}.running_var"] = layer.running_var
        return out

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters().values())

    # -- forward / backward -------------------------------------------------

    def _layer_rng(self, layer_name: str, seed: int) -> np.random.Generator:
        # stable per-layer stream: identical masks for identical (seed, name)
        return np.random.default_rng([seed, zlib.crc32(layer_name.encode())])

    def _run_stack(self, stack, x, training, seed):
        for layer in stack:
            if isinstance(layer, Dropout):
                rng = self._layer_rng(layer.name, seed) if training else None
                x = layer.forward(x, training=training, rng=rng)
            else:
                x = layer.forward(x, training=training)
        return x

    def _stack_backward(self, stack, dy, input_grad=True):
        """Backpropagate through ``stack``. With ``input_grad=False`` its first
        layer, a recurrent cell fed by data, skips its input gradient."""
        for k in range(len(stack) - 1, -1, -1):
            if k == 0 and not input_grad:
                return stack[0].backward(dy, input_grad=False)
            dy = stack[k].backward(dy)
        return dy

    def _branch_inputs(self, audio, video) -> list[tuple[list, np.ndarray]]:
        """``(stack, [B, T, dim] input)`` for each branch the mode uses, standardized
        with ``feature_stats`` when the model carries them."""
        out = []
        stats = self.feature_stats
        for name, stack, x, dim in (
            ("audio", self.audio_stack, audio, self.config.audio_dim),
            ("video", self.video_stack, video, self.config.video_dim),
        ):
            if not stack:
                continue
            if x is None:
                raise ShapeError(f"model mode requires {name} input")
            if stats is not None:
                x = standardize(x, getattr(stats, f"{name}_mean"), getattr(stats, f"{name}_std"))
            x = np.asarray(x, dtype=self.dtype)
            if x.ndim == 2:
                x = x[None]
            if x.shape[-1] != dim:
                raise ShapeError(f"{name} dim {x.shape[-1]} != model {dim}")
            out.append((stack, x))
        if len({x.shape[:2] for _, x in out}) > 1:
            raise ShapeError(f"audio and video batches differ: {[x.shape[:2] for _, x in out]}")
        return out

    def _run_branches(self, branches, training, seed):
        parts = [self._run_stack(stack, x, training, seed) for stack, x in branches]
        fused = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
        self._split = None if len(parts) == 1 else parts[0].shape[-1]
        return self._run_stack(self.head, fused, training, seed)

    def logits(self, audio, video, training: bool = False, seed: int = 0) -> np.ndarray:
        """Per-timestep unnormalized class scores, shape [B, T, n_classes].

        Inference runs in slices of ``INFER_WINDOWS`` windows, the last one
        zero-padded. BLAS sums a GEMM row differently at different row
        counts, so a fixed slice size keeps each window's scores independent
        of the windows it is batched with.
        """
        branches = self._branch_inputs(audio, video)
        if training:
            return self._run_branches(branches, True, seed)
        B, T = branches[0][1].shape[:2]
        out = np.empty((B, T, self.config.n_classes), dtype=self.dtype)
        for lo in range(0, B, INFER_WINDOWS):
            n = min(INFER_WINDOWS, B - lo)
            part = [(stack, _fixed_rows(x[lo : lo + n])) for stack, x in branches]
            out[lo : lo + n] = self._run_branches(part, False, seed)[:n]
        return out

    def forward(self, audio, video, training: bool = False, seed: int = 0) -> np.ndarray:
        """Per-timestep class distributions, shape [B, T, n_classes]."""
        return softmax(self.logits(audio, video, training, seed))

    def backward_from_logits(self, dlogits):
        dfused = self._stack_backward(self.head, dlogits)
        if self._split is None:
            self._stack_backward(self.audio_stack or self.video_stack, dfused, input_grad=False)
        else:
            self._stack_backward(self.audio_stack, dfused[..., : self._split], input_grad=False)
            self._stack_backward(self.video_stack, dfused[..., self._split :], input_grad=False)

    def train_step(
        self,
        audio,
        video,
        labels,
        mask,
        optimizer: RmsProp,
        seed: int = 0,
    ) -> float:
        """One forward/backward/update over a batch; returns the mean loss."""
        logits = self.logits(audio, video, training=True, seed=seed)
        loss, dlogits, _ = softmax_cross_entropy(logits, labels, np.asarray(mask))
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite training loss {loss}")
        self.backward_from_logits(dlogits)
        optimizer.step(self.parameters(), self.gradients())
        return loss


def predict_dataset(model: FusionModel, dataset: WindowDataset):
    """Yield ``(video_id, labels, probs, truth)`` for each video in the container.

    A frame's ``probs`` are the mean of the softmax rows of every window
    covering it, padded rows discarded; ``labels`` are their argmax, ties
    resolving to the lowest class index. ``truth`` holds each frame's label
    from the real rows of the windows covering it. The forward runs over the
    windows of all videos, ``INFER_WINDOWS`` at a time. ``dataset`` is a
    container that :func:`~emofuse.dataset.read_dataset` accepts or
    :meth:`WindowDataset.from_videos` builds; its coverage is not checked again.
    """
    videos = dataset.videos
    # video v owns the window_count windows after the previous video's and rows from first[v]
    owner = np.repeat(np.arange(len(videos)), [e.window_count for e in videos])
    n_frames = np.array([e.n_frames for e in videos])
    first, total = np.cumsum(n_frames) - n_frames, int(n_frames.sum())
    # a fixed accumulation order, by (video, start_frame, pad_count) with ties in
    # container order, makes the result exactly window-order-invariant
    order = np.lexsort((dataset.pad_counts, dataset.start_frames, owner))
    frames, real = window_rows(
        dataset.start_frames[order], dataset.pad_counts[order], dataset.window_len
    )
    rows = first[owner[order], None] + frames
    covered = np.bincount(rows[real], minlength=total)
    truth = np.zeros(total, dtype=np.int64)
    truth[rows[real]] = dataset.labels[order][real]
    acc = np.zeros((total, model.config.n_classes), dtype=np.float64)
    for lo in range(0, len(order), INFER_WINDOWS):
        sl = slice(lo, lo + INFER_WINDOWS)
        probs = model.forward(dataset.audio[order[sl]], dataset.video[order[sl]], training=False)
        # np.add.at adds repeated rows in turn: each frame sums its windows in order
        np.add.at(acc, rows[sl][real[sl]], probs[real[sl]])
    probs = acc / covered[:, None]
    labels = np.argmax(probs, axis=1)
    for v, e in enumerate(videos):
        f = slice(first[v], first[v] + e.n_frames)
        yield e.video_id, labels[f], probs[f], truth[f]


# --------------------------------------------------------------------------
# Checkpoints: magic, u64 header length, JSON header, concatenated blobs
# --------------------------------------------------------------------------

_MAGIC = b"EMFCKPT1"
FORMAT_VERSION = 2  # 1 stored each recurrent cell's params per gate


def save_checkpoint(path, model: FusionModel, optimizer: RmsProp | None = None, meta: dict | None = None):
    """Write ``model`` (and ``optimizer`` state) to ``path``, replacing it atomically."""
    arrays: list[tuple[str, str, np.ndarray]] = []
    for name, arr in model.parameters().items():
        arrays.append((name, "param", arr))
    for name, arr in model.buffers().items():
        arrays.append((name, "buffer", arr))
    if optimizer is not None:
        for name, arr in optimizer.state_arrays().items():
            arrays.append((f"optimizer.{name}", "optimizer", arr))
    if model.feature_stats is not None:
        s = model.feature_stats
        for name, arr in (
            ("stats.audio_mean", s.audio_mean),
            ("stats.audio_std", s.audio_std),
            ("stats.video_mean", s.video_mean),
            ("stats.video_std", s.video_std),
        ):
            arrays.append((name, "stats", arr))

    blob = bytearray()
    entries = []
    for name, kind, arr in arrays:
        data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        entries.append(
            {
                "name": name,
                "kind": kind,
                "shape": list(np.asarray(arr).shape),
                "offset": len(blob),
                "nbytes": len(data),
            }
        )
        blob.extend(data)

    header = {
        "format": "emofuse-checkpoint",
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),
        "optimizer": None
        if optimizer is None
        else {
            "learning_rate": optimizer.learning_rate,
            "rho": optimizer.rho,
            "eps": optimizer.eps,
        },
        "arrays": entries,
        "meta": meta or {},
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    _write_atomic(path, (_MAGIC, struct.pack("<Q", len(header_bytes)), header_bytes, blob))


def _write_atomic(path, chunks):
    """Write ``chunks`` to a temp file beside ``path``, fsync it, then rename it
    onto ``path``: a failure at any point leaves the previous file intact."""
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> tuple[FusionModel, RmsProp | None, dict]:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16 or data[:8] != _MAGIC:
        raise CorruptionError(f"{path}: not an emofuse checkpoint")
    (header_len,) = struct.unpack_from("<Q", data, 8)
    header_end = 16 + header_len
    if len(data) < header_end:
        raise CorruptionError(f"{path}: truncated header")
    try:
        header = json.loads(data[16:header_end])
    except ValueError:
        raise CorruptionError(f"{path}: checkpoint header is not valid JSON") from None
    with schema_fields(path):
        # slices of a memoryview share the file's buffer: each array is read where it lies
        return _model_from_header(path, header, memoryview(data)[header_end:])


def _stack_gates(loaded: dict[str, np.ndarray], model: FusionModel) -> dict[str, np.ndarray]:
    """A format-1 checkpoint's arrays under format-2 names. Format 1 stored each
    recurrent cell's params, and their RMSProp accumulators, per gate
    (``video.rnn1.Wz``, ``optimizer.video.rnn1.Wz``, ...); each complete group
    is stacked in gate order where its first gate stood (``video.rnn1.W``)."""
    groups = {}  # first per-gate name -> the group's names in gate order
    for layer in model._layers:
        if isinstance(layer, (Gru, Lstm)):
            for prefix in ("", "optimizer."):
                for kind in "WUb":
                    name = f"{prefix}{layer.name}.{kind}"
                    groups[name + layer.GATES[0]] = [name + g for g in layer.GATES]
    per_gate = {n for names in groups.values() for n in names}
    out = {}
    for name, arr in loaded.items():
        if name in groups and all(n in loaded for n in groups[name]):
            out[name[:-1]] = np.concatenate([loaded[n] for n in groups[name]])
        elif name not in per_gate:
            out[name] = arr
    return out


def _model_from_header(path, header: dict, blob: memoryview) -> tuple[FusionModel, RmsProp | None, dict]:
    sha = hashlib.sha256(blob).hexdigest()
    if sha != header["blob_sha256"]:
        raise CorruptionError(f"{path}: blob checksum mismatch")
    version = header["format_version"]
    if version not in (1, FORMAT_VERSION):
        raise SchemaError(f"{path}: unsupported checkpoint format_version {version!r}")

    cfg_dict = dict(header["config"])
    cfg_dict["audio_hidden"] = tuple(cfg_dict["audio_hidden"])
    cfg_dict["video_hidden"] = tuple(cfg_dict["video_hidden"])
    model = FusionModel.__new__(FusionModel)
    model._build(ModelConfig(**cfg_dict), None)  # no initial draws: every weight is loaded

    loaded: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        lo, hi = entry["offset"], entry["offset"] + entry["nbytes"]
        if hi > len(blob):
            raise CorruptionError(f"{path}: array {entry['name']} extends past blob")
        arr = np.frombuffer(blob[lo:hi], dtype="<f4").reshape(entry["shape"])
        loaded[entry["name"]] = arr.astype(model.dtype, copy=False)  # copied once, below
    if version == 1:
        loaded = _stack_gates(loaded, model)

    for name, arr in {**model.parameters(), **model.buffers()}.items():
        if name not in loaded:
            raise SchemaError(f"{path}: checkpoint missing {name}")
        if loaded[name].shape != arr.shape:
            raise SchemaError(f"{path}: {name} shape mismatch")
        arr[...] = loaded[name]

    stats_keys = ("stats.audio_mean", "stats.audio_std", "stats.video_mean", "stats.video_std")
    if all(k in loaded for k in stats_keys):
        model.feature_stats = FeatureStats(*(loaded[k].copy() for k in stats_keys))

    optimizer = None
    if header.get("optimizer"):
        o = header["optimizer"]
        optimizer = RmsProp(o["learning_rate"], o["rho"], o["eps"])
        prefix = "optimizer."
        optimizer.load_state(
            {k[len(prefix) :]: v for k, v in loaded.items() if k.startswith(prefix)}
        )
    return model, optimizer, header.get("meta", {})
