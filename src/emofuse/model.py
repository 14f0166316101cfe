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

import numbers
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import WindowDataset, window_rows
from .errors import DivergenceError, DomainError, SchemaError, ShapeError, require_number, schema_fields
from .nn.layers import BatchNorm, Dense, Dropout, PReLU, softmax, softmax_cross_entropy
from .nn.optim import EPS, RHO, RmsProp
from .nn.recurrent import Gru, Lstm
from .sequencing import N_CLASSES
from .store import read_packed, require_arrays, write_packed

# the branches each mode runs, in the order their outputs feed the head
MODES = {"fused": ("audio", "video"), "audio_only": ("audio",), "video_only": ("video",)}
RECURRENT_KINDS = ("gru", "lstm")
INFER_WINDOWS = 32  # windows per inference forward, whatever the caller's batch
STD_FLOOR = 1e-8
DROPOUT = 0.25
BN_MOMENTUM = 0.99
BN_EPS = 1e-5


@dataclass(frozen=True)
class ModelConfig:
    mode: str = "fused"
    recurrent: str = "gru"
    audio_dim: int = 168
    video_dim: int = 709
    window_len: int = 15
    audio_hidden: tuple[int, int] = (128, 64)
    video_hidden: tuple[int, int] = (256, 64)
    head_hidden: int = 64
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        if self.mode not in MODES:
            raise SchemaError(f"unknown mode {self.mode!r}")
        if self.recurrent not in RECURRENT_KINDS:
            raise SchemaError(f"unknown recurrent kind {self.recurrent!r}")
        if self.dtype not in ("float32", "float64"):
            raise SchemaError(f"dtype must be float32 or float64, got {self.dtype!r}")
        require_number("seed", self.seed, lambda v: v >= 0, "an integer >= 0", numbers.Integral)


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
        self.branches = {name: self._branch(name, rec, rng) for name in MODES[config.mode]}
        head_in = sum(getattr(config, f"{name}_hidden")[-1] for name in self.branches)
        self.head = [
            Dense(head_in, config.head_hidden, rng, self.dtype, name="head.dense1"),
            PReLU(config.head_hidden, dtype=self.dtype, name="head.prelu"),
            Dense(config.head_hidden, N_CLASSES, rng, self.dtype, name="head.dense2"),
        ]
        self._layers = [layer for stack in self.branches.values() for layer in stack] + self.head

    def _branch(self, name, rec_cls, rng):
        layers = []
        dims = [getattr(self.config, f"{name}_dim"), *getattr(self.config, f"{name}_hidden")]
        for i, h in enumerate(dims[1:]):
            layers.append(rec_cls(dims[i], h, rng, self.dtype, name=f"{name}.rnn{i + 1}"))
            layers.append(BatchNorm(h, BN_MOMENTUM, BN_EPS, self.dtype, name=f"{name}.bn{i + 1}"))
            layers.append(PReLU(h, dtype=self.dtype, name=f"{name}.prelu{i + 1}"))
            layers.append(Dropout(DROPOUT, name=f"{name}.drop{i + 1}"))
        return layers

    # -- parameter plumbing -------------------------------------------------

    def _named(self, arrays) -> dict[str, np.ndarray]:
        """Every layer's ``arrays(layer)`` entries, keyed ``<layer name>.<entry>``."""
        return {f"{layer.name}.{k}": a for layer in self._layers for k, a in arrays(layer).items()}

    def parameters(self) -> dict[str, np.ndarray]:
        return self._named(lambda layer: layer.params)

    def gradients(self) -> dict[str, np.ndarray]:
        return self._named(lambda layer: layer.grads)

    def buffers(self) -> dict[str, np.ndarray]:
        return self._named(lambda layer: {k: getattr(layer, k) for k in ("running_mean", "running_var")}
                           if isinstance(layer, BatchNorm) else {})

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

    def _branch_inputs(self, audio, video) -> list[np.ndarray]:
        """The [B, T, dim] input of each branch in ``branches``, standardized
        with ``feature_stats`` when the model carries them."""
        out = []
        stats, given = self.feature_stats, {"audio": audio, "video": video}
        for name in self.branches:
            x, dim = given[name], getattr(self.config, f"{name}_dim")
            if x is None:
                raise ShapeError(f"model mode requires {name} input")
            if stats is not None:
                x = standardize(x, getattr(stats, f"{name}_mean"), getattr(stats, f"{name}_std"))
            x = np.asarray(x, dtype=self.dtype)
            if x.ndim == 2:
                x = x[None]
            if x.shape[-1] != dim:
                raise ShapeError(f"{name} dim {x.shape[-1]} != model {dim}")
            out.append(x)
        if len({x.shape[:2] for x in out}) > 1:
            raise ShapeError(f"audio and video batches differ: {[x.shape[:2] for x in out]}")
        return out

    def _run_branches(self, inputs, training, seed):
        stacks = self.branches.values()
        parts = [self._run_stack(stack, x, training, seed) for stack, x in zip(stacks, inputs)]
        return self._run_stack(self.head, np.concatenate(parts, axis=-1), training, seed)

    def logits(self, audio, video, training: bool = False, seed: int = 0) -> np.ndarray:
        """Per-timestep unnormalized class scores, shape [B, T, N_CLASSES].

        Inference runs in slices of ``INFER_WINDOWS`` windows, the last one
        zero-padded. BLAS sums a GEMM row differently at different row
        counts, so a fixed slice size keeps each window's scores independent
        of the windows it is batched with.
        """
        inputs = self._branch_inputs(audio, video)
        if training:
            return self._run_branches(inputs, True, seed)
        B, T = inputs[0].shape[:2]
        out = np.empty((B, T, N_CLASSES), dtype=self.dtype)
        for lo in range(0, B, INFER_WINDOWS):
            n = min(INFER_WINDOWS, B - lo)
            part = [_fixed_rows(x[lo : lo + n]) for x in inputs]
            out[lo : lo + n] = self._run_branches(part, False, seed)[:n]
        return out

    def forward(self, audio, video, training: bool = False, seed: int = 0) -> np.ndarray:
        """Per-timestep class distributions, shape [B, T, N_CLASSES]."""
        return softmax(self.logits(audio, video, training, seed))

    def backward_from_logits(self, dlogits):
        """Backpropagate to every parameter; a branch's first layer, a recurrent
        cell fed by data, skips its input gradient."""
        dy = dlogits
        for layer in reversed(self.head):
            dy = layer.backward(dy)
        ends = np.cumsum([getattr(self.config, f"{name}_hidden")[-1] for name in self.branches])[:-1]
        for stack, dy in zip(self.branches.values(), np.split(dy, ends, axis=-1)):
            for layer in reversed(stack[1:]):
                dy = layer.backward(dy)
            stack[0].backward(dy, input_grad=False)

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
    acc = np.zeros((total, N_CLASSES), dtype=np.float64)
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
# Checkpoints: one packed file in emofuse.store's layout
# --------------------------------------------------------------------------

FORMAT = "emofuse-checkpoint"
FORMAT_VERSION = 2  # 1 stored each recurrent cell's params per gate
# settings older checkpoints store in their header: a stored one must equal its constant
FIXED = {
    "config": {"n_classes": N_CLASSES, "dropout": DROPOUT, "bn_momentum": BN_MOMENTUM, "bn_eps": BN_EPS},
    "optimizer": {"rho": RHO, "eps": EPS},
}


def save_checkpoint(path, model: FusionModel, optimizer: RmsProp | None = None, meta: dict | None = None):
    """Write ``model`` (and ``optimizer`` state) to ``path``, replacing it atomically."""
    arrays = [({"name": n, "kind": "param"}, a) for n, a in model.parameters().items()]
    arrays += [({"name": n, "kind": "buffer"}, a) for n, a in model.buffers().items()]
    if optimizer is not None:
        arrays += [({"name": f"optimizer.{n}", "kind": "optimizer"}, a)
                   for n, a in optimizer.state_arrays().items()]
    if model.feature_stats is not None:
        arrays += [({"name": f"stats.{n}", "kind": "stats"}, a)
                   for n, a in vars(model.feature_stats).items()]
    write_packed(path, {
        "format": FORMAT,
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),
        "optimizer": None if optimizer is None else {"learning_rate": optimizer.learning_rate},
        "meta": meta or {},
    }, arrays)


def load_checkpoint(path) -> tuple[FusionModel, RmsProp | None, dict]:
    header, arrays = read_packed(path)
    if header.get("format") != FORMAT:  # a container's packed file, say
        raise SchemaError(f"{path}: not an emofuse checkpoint (format {header.get('format')!r})")
    with schema_fields(path):
        return _model_from_header(path, header, arrays)


def _model_from_header(path, header: dict, arrays: dict) -> tuple[FusionModel, RmsProp | None, dict]:
    version = header["format_version"]
    if version == 1:
        raise SchemaError(f"{path}: a format-1 checkpoint (per-gate arrays), no longer read; "
                          "train again")
    if version != FORMAT_VERSION:
        raise SchemaError(f"{path}: unsupported checkpoint format_version {version!r}")

    cfg_dict = dict(header["config"])
    cfg_dict.update({k: tuple(cfg_dict[k]) for k in ("audio_hidden", "video_hidden")})
    hyper = header.get("optimizer")
    hyper = None if hyper is None else dict(hyper)
    try:  # a header value meets the rule its flag meets, and the error names the file
        for section, stored in (("config", cfg_dict), ("optimizer", hyper or {})):
            for key, value in FIXED[section].items():
                if key in stored:
                    require_number(f"{section}.{key}", stored[key], lambda v: v == value, repr(value),
                                   type(value))
        config = ModelConfig(**{k: v for k, v in cfg_dict.items() if k not in FIXED["config"]})
        # an unknown key is refused as in config; learning_rate is required, not defaulted
        rest = {k: v for k, v in (hyper or {}).items() if k not in FIXED["optimizer"]}
        optimizer = None if hyper is None else RmsProp(rest.pop("learning_rate"), **rest)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    model = FusionModel.__new__(FusionModel)
    model._build(config, None)  # no initial draws: every weight is loaded
    params = model.parameters()
    state = {**params, **model.buffers()}

    # params and buffers always; the accumulators and the stats each whole or not at all
    shapes = {name: arr.shape for name, arr in state.items()}
    if optimizer is not None and any(name.startswith("optimizer.") for name in arrays):
        shapes.update({f"optimizer.{name}": arr.shape for name, arr in params.items()})
    dims = {"audio": model.config.audio_dim, "video": model.config.video_dim}
    stats = {f"stats.{b}_{k}": (dim,) for k in ("mean", "std") for b, dim in dims.items()}
    if any(name.startswith("stats.") for name in arrays):
        shapes.update(stats)
    require_arrays(path, arrays, shapes)

    loaded = {}  # each array still shares the file's buffer: checked here, copied once below
    for name, arr in arrays.items():
        lo, hi = arr.min(initial=0), arr.max(initial=0)  # NaN if any value is; no temporaries
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise DomainError(f"{path}: array {name} holds a non-finite value")
        if lo < 0 and (name.startswith("optimizer.") or name.endswith((".running_var", "_std"))):
            raise DomainError(f"{path}: array {name} holds a negative value")  # of a square's mean
        loaded[name] = arr.astype(model.dtype, copy=False)
    for name, arr in state.items():
        arr[...] = loaded[name]
    if stats.keys() <= loaded.keys():
        model.feature_stats = FeatureStats(**{n[len("stats.") :]: loaded[n].copy() for n in stats})
    if optimizer is not None:
        optimizer.load_state({n[len("optimizer.") :]: a for n, a in loaded.items()
                              if n.startswith("optimizer.")})
    return model, optimizer, header.get("meta", {})
