"""Per-video assembly: labels, modality alignment, and sliding windows.

Expression labels arrive as one integer per frame in {-1..6}; -1 (frame not
annotated) is remapped to class 7 so the model's 8-way head sees a dense
label set. Aligned per-frame records are cut into windows of 15 frames at
stride 10, with an extra end-anchored window whenever the stride grid would
leave tail frames uncovered.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, DomainError, ParseError, utf8_text

logger = logging.getLogger(__name__)

WINDOW_LEN = 15
WINDOW_STRIDE = 10
UNANNOTATED_CLASS = 7
N_CLASSES = 8


@dataclass(frozen=True)
class AnnotationTrack:
    labels: list[int]
    video_id: str


@dataclass(frozen=True)
class FrameFeatures:
    audio: np.ndarray
    video: np.ndarray
    label: int
    frame_index: int


@dataclass(frozen=True)
class SequenceWindow:
    audio_seq: np.ndarray  # [window_len, audio_dim] float32
    video_seq: np.ndarray  # [window_len, video_dim] float32
    labels: np.ndarray  # [window_len] int64, values in {0..7}
    start_frame: int
    pad_count: int


def remap_label(raw: int) -> int:
    """-1 -> 7, otherwise identity; raw must lie in {-1..6}."""
    if raw < -1 or raw > 6:
        raise DomainError(f"raw label {raw} outside {{-1..6}}")
    return UNANNOTATED_CLASS if raw == -1 else raw


def parse_annotations(path, video_id: str | None = None) -> AnnotationTrack:
    """Read one integer label per line; a non-numeric first line is a header."""
    if video_id is None:
        video_id = _stem(path)
    labels = []
    with open(path, "r", encoding="utf-8") as fh, utf8_text(path):
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                value = int(text)
            except ValueError:
                if line_no == 1:
                    logger.info("%s: skipping header line %r", path, text)
                    continue
                raise ParseError(
                    f"{path}: line {line_no}: non-numeric label {text!r}"
                ) from None
            if value < -1 or value > 6:
                raise DomainError(f"{path}: line {line_no}: label {value} outside {{-1..6}}")
            labels.append(value)
    return AnnotationTrack(labels=labels, video_id=video_id)


def _stem(path) -> str:
    import os

    return os.path.splitext(os.path.basename(str(path)))[0]


def _feature_vector(item) -> np.ndarray:
    if hasattr(item, "fused"):
        return np.asarray(item.fused)
    if hasattr(item, "features"):
        return np.asarray(item.features)
    return np.asarray(item)


def align_modalities(
    track: AnnotationTrack, audio_feats, video_feats
) -> list[FrameFeatures]:
    """Zip labels with per-frame audio and video features, remapping labels.

    All three sequences must have identical lengths; the extractor pipeline
    guarantees this only when the upstream per-video counts agreed, so a
    mismatch is reported with every count rather than silently truncated.
    """
    n_labels = len(track.labels)
    n_audio = len(audio_feats)
    n_video = len(video_feats)
    if not (n_labels == n_audio == n_video):
        raise AlignmentError(
            f"video {track.video_id!r}: counts differ "
            f"(annotations={n_labels}, audio={n_audio}, video={n_video})"
        )
    out = []
    for i in range(n_labels):
        out.append(
            FrameFeatures(
                audio=_feature_vector(audio_feats[i]),
                video=_feature_vector(video_feats[i]),
                label=remap_label(track.labels[i]),
                frame_index=i,
            )
        )
    return out


def window_starts(
    n_frames: int, length: int = WINDOW_LEN, stride: int = WINDOW_STRIDE
) -> list[int]:
    """Start indices covering every frame of an n_frames-long video.

    Regular starts walk the stride grid while a full window fits; if tail
    frames remain uncovered an extra window anchored at n_frames-length is
    appended. Videos shorter than one window get the single start 0 (the
    window is then padded by replication, see cut_windows).
    """
    if n_frames < 1:
        raise DomainError(f"n_frames must be >= 1, got {n_frames}")
    if length < 1 or stride < 1:
        raise DomainError("length and stride must be positive")
    if n_frames < length:
        return [0]
    starts = list(range(0, n_frames - length + 1, stride))
    if starts[-1] + length < n_frames:
        starts.append(n_frames - length)
    return starts


def cut_windows(
    frames: list[FrameFeatures],
    length: int = WINDOW_LEN,
    stride: int = WINDOW_STRIDE,
) -> list[SequenceWindow]:
    """Slice aligned frames into SequenceWindows, replicate-padding short videos."""
    if not frames:
        raise DomainError("cut_windows requires at least one frame")
    audio = np.stack([f.audio for f in frames]).astype(np.float32)
    video = np.stack([f.video for f in frames]).astype(np.float32)
    labels = np.array([f.label for f in frames], dtype=np.int64)
    n = len(frames)

    windows = []
    for start in window_starts(n, length=length, stride=stride):
        stop = min(start + length, n)
        pad = length - (stop - start)
        a = audio[start:stop]
        v = video[start:stop]
        y = labels[start:stop]
        if pad:
            a = np.concatenate([a, np.repeat(a[-1:], pad, axis=0)])
            v = np.concatenate([v, np.repeat(v[-1:], pad, axis=0)])
            y = np.concatenate([y, np.repeat(y[-1:], pad)])
        windows.append(
            SequenceWindow(
                audio_seq=a, video_seq=v, labels=y, start_frame=start, pad_count=pad
            )
        )
    return windows
