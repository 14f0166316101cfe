"""Seeded synthetic inputs at the paper's shapes.

Everything here is derived from one integer seed, so the same seed always
gives byte-identical files. The program only ever sees what these functions
write (WAV, OpenFace CSV, annotation files, window-dataset containers and a
checkpoint); the arrays returned alongside are the benchmark's own record of
what it generated, used to check the program's outputs.

Class structure is fixed by ``STRUCTURE_SEED`` and does not depend on the
run seed: each of the 8 classes has its own audio and video prototype, and a
frame's features are its class prototype plus seeded noise. Training on
windows cut from such frames lowers the loss steadily, and its value after a
fixed number of epochs varies little from seed to seed, which is what lets
the benchmark compare the final loss against a stored reference.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from emofuse.dataset import VideoEntry, WindowDataset, write_dataset
from emofuse.model import FusionModel, ModelConfig, save_checkpoint
from emofuse.sequencing import window_starts
from emofuse.video import META_COLUMNS, default_selection

AUDIO_DIM = 168
WINDOW_LEN = 15
STRIDE = 10
N_CLASSES = 8
STRUCTURE_SEED = 20200303

SAMPLE_RATE = 16000
CLIP_SECONDS = 60
CLIP_FRAMES = 1500  # 25 fps over 60 s, one annotation line per frame
INVALID_SHARE = 0.05  # share of CSV rows written with success=0
TRAIN_RUN = 43  # frames per label run in the training and validation sets
SHORT_RUN = 10  # frames per label run in the short evaluation videos


def video_columns() -> tuple[str, ...]:
    """Feature columns of the shipped OpenFace manifest (709 names)."""
    return default_selection().include_columns


def label_runs(rng: np.random.Generator, n: int, low: int, high: int,
               min_run: int = 12, max_run: int = 60) -> np.ndarray:
    """n labels from [low, high) in runs, like real expression tracks.

    Run classes follow shuffled cycles through the whole range, so every
    class gets the same number of runs (up to one partial cycle).
    """
    out = np.empty(n, dtype=np.int64)
    classes: list[int] = []
    i = 0
    while i < n:
        if not classes:
            classes = rng.permutation(np.arange(low, high)).tolist()
        run = int(rng.integers(min_run, max_run + 1))
        out[i : i + run] = classes.pop()
        i += run
    return out


# --------------------------------------------------------------------------
# ingest: WAV + OpenFace CSV + annotations per video
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class IngestVideo:
    video_id: str
    wav: str
    csv: str
    annotations: str
    video_features: np.ndarray  # [frames, 709] float32, zero rows where invalid
    invalid: np.ndarray  # [frames] bool, rows written with success=0
    raw_labels: np.ndarray  # [frames] int64 in {-1..6}


def write_wav(path: str, samples: np.ndarray, sample_rate: int) -> None:
    """Mono 16-bit PCM RIFF/WAVE file."""
    data = np.asarray(samples, dtype="<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, sample_rate, sample_rate * 2, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(body)) + body)


def _speech_like(rng: np.random.Generator, n: int) -> np.ndarray:
    """Tones that change pitch every half second, plus noise, as int16."""
    t = np.arange(n) / SAMPLE_RATE
    segment = (t * 2).astype(np.int64)
    pitch = rng.uniform(90.0, 400.0, size=segment[-1] + 1)[segment]
    phase = 2.0 * np.pi * np.cumsum(pitch) / SAMPLE_RATE
    x = 0.4 * np.sin(phase) + 0.2 * np.sin(3.0 * phase) + 0.05 * rng.standard_normal(n)
    return np.round(x * 12000.0).astype(np.int16)


def write_openface_csv(path: str, columns, cells_milli: np.ndarray, invalid: np.ndarray) -> None:
    """OpenFace-style CSV: 5 bookkeeping columns, then one column per feature.

    Feature cells are ``cells_milli / 1000`` written with 3 decimals, so the
    value a correct parser produces is exactly ``float32(cells_milli / 1000)``.
    """
    n = cells_milli.shape[0]
    meta = np.column_stack([
        np.arange(1, n + 1),
        np.zeros(n),
        np.arange(n) * 0.04,
        np.where(invalid, 0.0, 0.97),
        np.where(invalid, 0, 1),
    ])
    fmt = ["%d", "%d", "%.3f", "%.2f", "%d"] + ["%.3f"] * cells_milli.shape[1]
    header = ", ".join(list(META_COLUMNS) + list(columns))
    np.savetxt(path, np.column_stack([meta, cells_milli / 1000.0]), fmt=fmt,
               delimiter=", ", header=header, comments="")


def write_annotations(path: str, raw_labels: np.ndarray) -> None:
    header = "Neutral,Anger,Disgust,Fear,Happiness,Sadness,Surprise\n"
    with open(path, "w") as fh:
        fh.write(header + "\n".join(str(int(v)) for v in raw_labels) + "\n")


def ingest_inputs(root: str, seed: int, n_videos: int) -> list[IngestVideo]:
    """Write ``n_videos`` 60 s clips with matching CSVs and annotation files.

    Layout: ``root/wav/<id>.wav``, ``root/csv/<id>.csv`` and
    ``root/annotations/<id>.txt``, the directory layout ``build-dataset``
    expects for its annotation directory.
    """
    columns = video_columns()
    rng = np.random.default_rng([seed, 1])
    for sub in ("wav", "csv", "annotations"):
        os.makedirs(os.path.join(root, sub), exist_ok=True)
    out = []
    for v in range(n_videos):
        vid = f"clip{v:02d}"
        wav = os.path.join(root, "wav", vid + ".wav")
        csv = os.path.join(root, "csv", vid + ".csv")
        ann = os.path.join(root, "annotations", vid + ".txt")
        write_wav(wav, _speech_like(rng, SAMPLE_RATE * CLIP_SECONDS), SAMPLE_RATE)

        cells = rng.integers(-3000, 3000, size=(CLIP_FRAMES, len(columns)))
        invalid = rng.random(CLIP_FRAMES) < INVALID_SHARE
        write_openface_csv(csv, columns, cells, invalid)
        expected = (cells / 1000.0).astype(np.float32)
        expected[invalid] = 0.0

        labels = label_runs(rng, CLIP_FRAMES, -1, 7)
        write_annotations(ann, labels)
        out.append(IngestVideo(vid, wav, csv, ann, expected, invalid, labels))
    return out


# --------------------------------------------------------------------------
# train / evaluate: class-structured frames cut into window datasets
# --------------------------------------------------------------------------


class FrameModel:
    """Per-class prototypes; a frame is its class prototype plus noise."""

    def __init__(self, video_dim: int, noise: float = 1.5):
        s = np.random.default_rng(STRUCTURE_SEED)
        self.audio_proto = s.standard_normal((N_CLASSES, AUDIO_DIM))
        self.video_proto = s.standard_normal((N_CLASSES, video_dim))
        self.noise = noise

    def frames(self, rng: np.random.Generator, labels: np.ndarray):
        n = len(labels)
        audio = self.audio_proto[labels] + self.noise * rng.standard_normal((n, AUDIO_DIM))
        video = self.video_proto[labels] + self.noise * rng.standard_normal(
            (n, self.video_proto.shape[1]))
        return audio.astype(np.float32), video.astype(np.float32)


def window_dataset(videos, video_ids) -> WindowDataset:
    """Cut each (audio, video, labels) frame triple into 15-frame windows.

    ``labels`` are model classes in {0..7}. Windows follow the program's
    ``window_starts`` grid; videos of at least one window length need no
    padding, which is all this generator produces.
    """
    audio, video, labels, starts, entries = [], [], [], [], []
    offset = 0
    for vid, (a, v, y) in zip(video_ids, videos):
        if len(y) < WINDOW_LEN:
            raise ValueError(f"{vid}: shorter than one window")
        s = np.asarray(window_starts(len(y), WINDOW_LEN, STRIDE))
        idx = s[:, None] + np.arange(WINDOW_LEN)[None, :]
        audio.append(a[idx])
        video.append(v[idx])
        labels.append(y[idx])
        starts.append(s)
        entries.append(VideoEntry(vid, len(y), offset, len(s)))
        offset += len(s)
    return WindowDataset(
        audio=np.concatenate(audio),
        video=np.concatenate(video),
        labels=np.concatenate(labels),
        start_frames=np.concatenate(starts).astype(np.int64),
        pad_counts=np.zeros(offset, dtype=np.int64),
        videos=entries,
        window_len=WINDOW_LEN,
        stride=STRIDE,
    )


def _videos(rng, model: FrameModel, lengths, prefix, run: int) -> WindowDataset:
    """Videos cut from one label track of fixed-length runs, so every split
    has nearly the same class balance whatever the seed."""
    track = label_runs(rng, int(sum(lengths)), 0, N_CLASSES, run, run)
    triples, ids, lo = [], [], 0
    for i, n in enumerate(lengths):
        y = track[lo : lo + n]
        lo += n
        a, v = model.frames(rng, y)
        triples.append((a, v, y))
        ids.append(f"{prefix}{i:03d}")
    return window_dataset(triples, ids)


def training_sets(root: str, seed: int, video_dim: int, train_videos: int,
                  val_videos: int, frames_per_video: int) -> tuple[str, str]:
    """Write train and validation containers; returns their paths."""
    model = FrameModel(video_dim)
    rng = np.random.default_rng([seed, 2])
    train = _videos(rng, model, [frames_per_video] * train_videos, "train", TRAIN_RUN)
    val = _videos(rng, model, [frames_per_video] * val_videos, "val", TRAIN_RUN)
    train_path, val_path = os.path.join(root, "train"), os.path.join(root, "val")
    write_dataset(train, train_path)
    write_dataset(val, val_path)
    return train_path, val_path


def short_video_set(root: str, seed: int, video_dim: int, n_videos: int,
                    min_frames: int, max_frames: int) -> tuple[str, WindowDataset]:
    """Write a container of many short videos (1-3 windows each)."""
    model = FrameModel(video_dim)
    rng = np.random.default_rng([seed, 3])
    lengths = rng.integers(min_frames, max_frames + 1, size=n_videos)
    dataset = _videos(rng, model, lengths.tolist(), "short", SHORT_RUN)
    path = os.path.join(root, "short")
    write_dataset(dataset, path)
    return path, dataset


def fused_gru_checkpoint(path: str, seed: int, video_dim: int) -> None:
    """A seeded fused-GRU checkpoint at the paper's layer sizes."""
    model = FusionModel(ModelConfig(mode="fused", recurrent="gru", audio_dim=AUDIO_DIM,
                                    video_dim=video_dim, window_len=WINDOW_LEN, seed=seed))
    save_checkpoint(path, model)
