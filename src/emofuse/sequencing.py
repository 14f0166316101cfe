"""Per-video labels and the sliding-window grid.

Expression labels arrive as one integer per frame in {-1..6}; -1 (frame not
annotated) is remapped to class 7 so the model's 8-way head sees a dense
label set. Each video's frames are cut into windows of 15 frames at stride
10, with an extra end-anchored window whenever the stride grid would leave
tail frames uncovered.
"""

from __future__ import annotations

import logging
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError, utf8_text

logger = logging.getLogger(__name__)

WINDOW_LEN = 15
WINDOW_STRIDE = 10
UNANNOTATED_CLASS = 7
N_CLASSES = 8


@dataclass(frozen=True)
class AnnotationTrack:
    labels: list[int]
    video_id: str


def remap_label(raw) -> np.ndarray:
    """-1 -> 7, otherwise identity, elementwise; every value must lie in {-1..6}."""
    raw = np.asarray(raw, dtype=np.int64)
    bad = (raw < -1) | (raw > 6)
    if bad.any():
        raise DomainError(f"raw label {raw[bad][0]} outside {{-1..6}}")
    return np.where(raw == -1, UNANNOTATED_CLASS, raw)


def parse_annotations(path) -> AnnotationTrack:
    """Read one label per line, an optional ``-`` then ASCII digits; any other
    first line is a header. The track's ``video_id`` is the file name without
    its extension."""
    labels = []
    with open(path, "r", encoding="utf-8-sig") as fh, utf8_text(path):
        for line_no, line in enumerate(fh, start=1):
            text = line.strip(" \t\n\r\v\f")  # str.strip() also drops "\x1c" and no-break spaces
            if not text:
                continue
            if not re.fullmatch(r"-?[0-9]+", text):  # int() takes "+1", "1_0", non-ASCII digits
                if line_no == 1:
                    logger.info("%s: skipping header line %r", path, text)
                    continue
                raise ParseError(f"{path}: line {line_no}: label {text!r} is not an ASCII integer")
            value = int(text)
            if value < -1 or value > 6:
                raise DomainError(f"{path}: line {line_no}: label {value} outside {{-1..6}}")
            labels.append(value)
    return AnnotationTrack(labels=labels, video_id=_stem(path))


def _stem(path) -> str:
    return os.path.splitext(os.path.basename(str(path)))[0]


def window_starts(
    n_frames: int, length: int = WINDOW_LEN, stride: int = WINDOW_STRIDE
) -> list[int]:
    """Start indices covering every frame of an n_frames-long video.

    Regular starts walk the stride grid while a full window fits; if tail
    frames remain uncovered an extra window anchored at n_frames-length is
    appended. Videos shorter than one window get the single start 0 (the
    window is then padded by replication, see WindowDataset.from_videos).
    A stride longer than the window would leave frames between windows.
    """
    if n_frames < 1:
        raise DomainError(f"n_frames must be >= 1, got {n_frames}")
    if length < 1 or stride < 1:
        raise DomainError("length and stride must be positive")
    if stride > length:
        raise DomainError(f"stride ({stride}) cannot exceed the window length ({length})")
    if n_frames < length:
        return [0]
    starts = list(range(0, n_frames - length + 1, stride))
    if starts[-1] + length < n_frames:
        starts.append(n_frames - length)
    return starts
