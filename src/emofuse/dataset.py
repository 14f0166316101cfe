"""On-disk containers: per-frame feature files and the windowed dataset.

A container is a directory holding one packed file, ``container.pack``, in
:mod:`emofuse.store`'s layout: its header holds the container's fields and
one array entry per field. This module owns their schemas. Integer fields
(labels, frame offsets) are stored as float32 too; they are exact up to
2**24, far beyond any frame count seen here.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import AlignmentError, CoverageError, DomainError, SchemaError, require_number, schema_fields
from .sequencing import (
    N_CLASSES,
    WINDOW_LEN,
    WINDOW_STRIDE,
    AnnotationTrack,
    remap_label,
    window_starts,
)
from .store import read_packed, require_arrays, write_packed

FORMAT_VERSION = 2  # 1 stored manifest.json plus one blob file per field
PACKED = "container.pack"


def _refuse_format_1(path):
    """Raise SchemaError if ``path`` holds a format-1 ``manifest.json``, read or written over."""
    if os.path.exists(os.path.join(path, "manifest.json")):
        raise SchemaError(f"{path}: a format-1 container (manifest.json and blob files), "
                          "no longer read; remove it and rerun the command that wrote it")


def _write_container(path, header: dict, arrays: dict[str, np.ndarray]):
    _refuse_format_1(path)
    os.makedirs(path, exist_ok=True)
    write_packed(os.path.join(path, PACKED), {**header, "format_version": FORMAT_VERSION},
                 [({"name": name}, array) for name, array in arrays.items()])


def _read_container(path, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """A ``kind`` container's header and its arrays by name."""
    _refuse_format_1(path)
    packed = os.path.join(path, PACKED)
    if not os.path.exists(packed):
        raise SchemaError(f"{path}: no {PACKED}; not a container")
    header, arrays = read_packed(packed)
    if header.get("kind") != kind:
        raise SchemaError(f"{path}: not a {kind} container")
    if header.get("format_version") != FORMAT_VERSION:
        raise SchemaError(f"{path}: unsupported container format_version "
                          f"{header.get('format_version')!r}")
    return header, arrays


# --------------------------------------------------------------------------
# Per-frame feature container (extract-audio / ingest-video output)
# --------------------------------------------------------------------------


def write_frame_features(path, features: np.ndarray, modality: str, meta: dict | None = None):
    """Persist an [n_frames, dim] feature matrix for one video."""
    features = np.asarray(features)
    _write_container(path, {
        "kind": "frame_features",
        "modality": modality,
        "count": int(features.shape[0]),
        "dim": int(features.shape[1]),
        "meta": meta or {},
    }, {"features": features})


def read_frame_features(path, modality: str | None = None) -> tuple[np.ndarray, dict]:
    """A frame_features container's matrix and header; ``modality``, if given,
    must be the one the header names."""
    header, arrays = _read_container(path, "frame_features")
    if modality is not None and header.get("modality") != modality:
        raise SchemaError(
            f"{path}: holds {header.get('modality')!r} features, expected {modality!r}"
        )
    with schema_fields(path):
        require_arrays(path, arrays, {"features": (header["count"], header["dim"])})
    return arrays["features"], header


# --------------------------------------------------------------------------
# Windowed dataset container
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class VideoEntry:
    video_id: str
    n_frames: int
    window_offset: int
    window_count: int


@dataclass
class WindowDataset:
    """All windows of one or more videos, stacked for training."""

    audio: np.ndarray  # [W, L, A] float32
    video: np.ndarray  # [W, L, D] float32
    labels: np.ndarray  # [W, L] int64
    start_frames: np.ndarray  # [W] int64
    pad_counts: np.ndarray  # [W] int64
    videos: list[VideoEntry]
    window_len: int = WINDOW_LEN
    stride: int = WINDOW_STRIDE
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        # a record of the stride that cut the windows; coverage is checked from the starts
        require_number("stride", self.stride, lambda v: v >= 1, "an integer >= 1", numbers.Integral)
        if self.stride > self.window_len:  # window_starts refuses it too
            raise SchemaError(f"stride {self.stride} exceeds window_len {self.window_len}")

    @property
    def n_windows(self) -> int:
        return self.audio.shape[0]

    @property
    def audio_dim(self) -> int:
        return self.audio.shape[2]

    @property
    def video_dim(self) -> int:
        return self.video.shape[2]

    @classmethod
    def from_videos(
        cls,
        videos: list[tuple[AnnotationTrack, np.ndarray, np.ndarray]],
        window_len: int = WINDOW_LEN,
        stride: int = WINDOW_STRIDE,
        meta: dict | None = None,
    ) -> "WindowDataset":
        """Window each ``(track, audio [n, A], video [n, D])`` video, in order.

        A window starting at frame ``s`` holds frames ``s .. s + window_len - 1``;
        rows past a video's last frame repeat that frame and are counted in
        ``pad_counts``. Every video must have the first video's feature widths
        and only finite features. Each field is allocated once, and every
        video's windows are gathered straight into their slice of it.
        """
        entries, parts, widths = [], [], {}
        offset = 0
        for track, audio, video in videos:
            vid, n = track.video_id, len(track.labels)
            if not (n == len(audio) == len(video)):
                raise AlignmentError(
                    f"video {vid!r}: counts differ "
                    f"(annotations={n}, audio={len(audio)}, video={len(video)})"
                )
            labels = remap_label(track.labels)
            audio = _features(vid, "audio", audio, widths)
            video = _features(vid, "video", video, widths)
            starts = np.array(window_starts(n, window_len, stride), dtype=np.int64)
            pads = np.maximum(0, starts + window_len - n)
            idx = np.minimum(window_rows(starts, pads, window_len)[0], n - 1)
            entries.append(VideoEntry(vid, n, offset, len(starts)))
            parts.append(((audio, video, labels), idx, starts, pads))
            offset += len(starts)
        if not parts:
            raise SchemaError("dataset has no windows")
        fields = [np.empty((offset, window_len, *x.shape[1:]), x.dtype) for x in parts[0][0]]
        for e, (sources, idx, _, _) in zip(entries, parts):
            rows = slice(e.window_offset, e.window_offset + e.window_count)
            for x, out in zip(sources, fields):
                # idx is in range, so "clip" clips nothing; unlike the default
                # "raise" it writes into ``out`` without a temporary copy
                np.take(x, idx, axis=0, out=out[rows], mode="clip")
        starts, pads = (np.concatenate([p[k] for p in parts]) for k in (2, 3))
        return cls(*fields, starts, pads, entries, window_len, stride, dict(meta or {}))


def window_rows(start_frames, pad_counts, window_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Each window row's frame within its video and whether the row is real, both [W, L].

    Row ``t`` of a window starting at frame ``s`` with ``p`` padded rows holds
    frame ``s + t`` and is real when ``t < window_len - p``.
    """
    t = np.arange(window_len)
    frames = np.asarray(start_frames, dtype=np.int64)[:, None] + t
    return frames, t < window_len - np.asarray(pad_counts, dtype=np.int64)[:, None]


def _features(video_id: str, modality: str, x, widths: dict) -> np.ndarray:
    """``x`` as a finite float32 [n, width] matrix, ``width`` the first video's."""
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 2:
        raise SchemaError(f"video {video_id!r}: {modality} features have shape {x.shape}, not 2-D")
    width = widths.setdefault(modality, x.shape[1])
    if x.shape[1] != width:
        raise SchemaError(
            f"video {video_id!r}: {modality} width {x.shape[1]}, earlier videos have {width}"
        )
    _require_finite(f"video {video_id!r}", modality, x, np.arange(len(x)))
    return x


def _require_finite(where: str, modality: str, rows: np.ndarray, frames: np.ndarray):
    """Raise DomainError naming ``where`` and the lowest frame whose row of
    ``rows`` [..., width] is not finite; each row holds its entry of ``frames`` [...]."""
    finite = np.isfinite(rows)
    if not finite.all():
        frame = int(frames[~finite.all(axis=-1)].min())
        raise DomainError(f"{where}: non-finite {modality} feature at frame {frame}")


def _require_coverage(where: str, n: int, frames, real, labels):
    """Raise CoverageError naming ``where`` unless the real rows of a video's
    windows (``frames``, ``real``, ``labels``: [w, L]) stay inside its ``n``
    frames, cover each one and agree on its label."""
    if len(frames) == 0:
        raise CoverageError(f"{where} has no windows")
    past = (real & (frames >= n)).any(axis=1)
    if past.any():
        w = np.argmax(past)
        raise CoverageError(f"{where}: window at {frames[w, 0]} (+{real[w].sum()} real rows) "
                            f"exceeds {n} frames")
    at, held = frames[real], labels[real]
    uncovered = np.flatnonzero(np.bincount(at, minlength=n) == 0)
    if len(uncovered):
        raise CoverageError(f"{where}: frame {uncovered[0]} not covered by any window")
    kept = np.zeros(n, dtype=labels.dtype)
    kept[at] = held  # where windows disagree, some row's label differs from the one kept
    clashes = at[kept[at] != held]
    if len(clashes):
        raise CoverageError(f"{where}: windows disagree on the label of frame {clashes.min()}")


def _require_counts(path, name: str, values: np.ndarray, high):
    """Raise SchemaError naming the first window holding a ``name`` value that
    is not an integer in [0, high)."""
    bad = (values != np.floor(values)) | (values < 0) | (values >= high)
    if bad.any():
        w = int(np.flatnonzero(bad.any(axis=tuple(range(1, bad.ndim))))[0])
        raise SchemaError(
            f"{path}: window {w} has {name} {values[w][bad[w]][0]:g}, not an integer in [0, {high})"
        )


_FIELDS = ("audio", "video", "labels", "start_frames", "pad_counts")  # one array each


def write_dataset(dataset: WindowDataset, path):
    _write_container(path, {
        "kind": "window_dataset",
        "n_windows": dataset.n_windows,
        "window_len": dataset.window_len,
        "stride": dataset.stride,
        "audio_dim": dataset.audio_dim,
        "video_dim": dataset.video_dim,
        "videos": [asdict(v) for v in dataset.videos],
        "meta": dataset.meta,
    }, {name: getattr(dataset, name) for name in _FIELDS})


def _plain_name(path, video_id):
    """A video id names its prediction file, so it must be a plain file name."""
    if (
        not isinstance(video_id, str)
        or not video_id
        or video_id.startswith(".")
        or any(c in video_id for c in ("/", "\\", os.sep, "\0"))
    ):
        raise SchemaError(f"{path}: video_id {video_id!r} is not a plain file name")
    return video_id


def read_dataset(path) -> WindowDataset:
    header, arrays = _read_container(path, "window_dataset")
    with schema_fields(path):
        w, length = header["n_windows"], header["window_len"]
        require_arrays(path, arrays, {
            "audio": (w, length, header["audio_dim"]),
            "video": (w, length, header["video_dim"]),
            "labels": (w, length),
            "start_frames": (w,),
            "pad_counts": (w,),
        })
        audio, video, labels, start_frames, pad_counts = (arrays[name] for name in _FIELDS)
        videos, ids = [], set()
        next_offset = 0  # each video's windows directly follow the previous video's
        for v in header["videos"]:
            for key, low in (("n_frames", 1), ("window_offset", 0), ("window_count", 0)):
                require_number(f"{path}: video {key}", v[key], lambda x: x >= low,
                               f"an integer >= {low}", numbers.Integral)
            entry = VideoEntry(_plain_name(path, v["video_id"]), v["n_frames"], v["window_offset"],
                               v["window_count"])
            if entry.video_id in ids:  # it names the video's prediction file
                raise SchemaError(f"{path}: video_id {entry.video_id!r} appears twice")
            ids.add(entry.video_id)
            if entry.window_offset != next_offset:
                raise SchemaError(
                    f"{path}: video {entry.video_id!r} window_offset {entry.window_offset}, "
                    f"expected {next_offset}"
                )
            next_offset += entry.window_count
            videos.append(entry)
        if next_offset != w:
            raise SchemaError(f"{path}: per-video window counts do not sum to {w}")
        _require_counts(path, "label", labels, N_CLASSES)
        _require_counts(path, "start_frame", start_frames, 2**24)  # exact in float32
        _require_counts(path, "pad_count", pad_counts, length)
        if not videos:
            raise CoverageError(f"{path}: dataset holds no videos")
        frames, real = window_rows(start_frames, pad_counts, length)
        for e in videos:
            where = f"{path}: video {e.video_id!r}"
            sl = slice(e.window_offset, e.window_offset + e.window_count)
            _require_coverage(where, e.n_frames, frames[sl], real[sl], labels[sl])
            # a padded row repeats the video's last frame
            held = np.minimum(frames[sl], e.n_frames - 1)
            for modality, x in (("audio", audio), ("video", video)):
                _require_finite(where, modality, x[sl], held)
        try:  # the stride meets the rule it meets when a dataset is built
            return WindowDataset(
                audio=audio,
                video=video,
                labels=labels.astype(np.int64),
                start_frames=start_frames.astype(np.int64),
                pad_counts=pad_counts.astype(np.int64),
                videos=videos,
                window_len=length,
                stride=header["stride"],
                meta=header.get("meta", {}),
            )
        except SchemaError as exc:
            raise SchemaError(f"{path}: {exc}") from None
