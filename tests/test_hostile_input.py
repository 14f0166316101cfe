"""Property: a damaged input either still reads or raises an EmofuseError, so
the CLI ends in one ``error: <category>:`` line, never a traceback; and a
container or checkpoint that still reads predicts finite probabilities.

Each input kind starts from a small valid file; an example truncates it at a
random length or XORs one random byte with a random nonzero mask, then runs
the reader that consumes it (and, for containers and checkpoints, the
prediction that follows; a checkpoint, which carries feature stats and RMSProp
state, then trains one step with its loaded optimizer). A container's packed
file is damaged either in its header ("manifest", the name of the file that
header replaced) or in its arrays ("blob"). The "*_header" kinds instead
replace one number in a packed file's JSON header with an edge value, which
the checksum over the arrays cannot catch. Like an older checkpoint's, the
checkpoint's header also stores the six settings the model and optimizer fix
as constants, so an edge value lands on them too; "state_checkpoint_header" edits the
state checkpoint of a two-epoch run, whose header also holds its train config
and epoch history, and resumes it for one more epoch.
"""

import functools
import math
import operator
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emofuse.audio import chunk_boundaries, extract_chunk_features, load_wav
from emofuse.dataset import PACKED, WindowDataset, read_dataset, write_dataset
from emofuse.errors import EmofuseError
from emofuse.model import (
    FeatureStats,
    FusionModel,
    ModelConfig,
    RmsProp,
    load_checkpoint,
    predict_dataset,
    save_checkpoint,
)
from emofuse.sequencing import AnnotationTrack, parse_annotations
from emofuse.training import TrainConfig, run_training
from emofuse.video import ColumnSelection, parse_openface_csv

from conftest import wav_bytes
from test_model import CONSTANT_HEADER_KEYS, rewrite_header

CFG = ModelConfig(audio_dim=3, video_dim=4, audio_hidden=(4, 3), video_hidden=(4, 3),
                  head_hidden=4, window_len=5)
TRAIN = TrainConfig(epochs=2, batch_size=4, seed=1, early_stop_patience=0)
SELECTION = ColumnSelection(include_columns=("AU01_r", "AU02_r", "pose_Rx"))
# a float where an int belongs: the number itself, written as a float
EDGE_VALUES = [0, -1, 9.9, 1e308, math.nan, math.inf, "as float"]
EXAMPLES = settings(max_examples=50, deadline=None, derandomize=True, database=None)


def _csv_text():
    lines = ["frame, face_id, timestamp, confidence, success, AU01_r, AU02_r, pose_Rx"]
    for i in range(6):
        lines.append(f"{i + 1}, 0, {i * 0.04:.2f}, 0.95, {int(i != 2)}, 0.{i}1, 1.{i}5, -0.{i}3")
    return "\n".join(lines) + "\n"


def _container(rng):
    videos = [
        (AnnotationTrack(rng.integers(-1, 7, size=n).tolist(), f"v{v}"),
         rng.standard_normal((n, CFG.audio_dim)), rng.standard_normal((n, CFG.video_dim)))
        for v, n in enumerate((12, 3))
    ]
    return WindowDataset.from_videos(videos, window_len=CFG.window_len, stride=3)


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """A directory holding one valid input of every kind, named as in TARGETS."""
    root = tmp_path_factory.mktemp("originals")
    rng = np.random.default_rng(0)
    (root / "clip.wav").write_bytes(
        wav_bytes([(rng.standard_normal(800) * 3000).astype(int).tolist()], 8000))
    (root / "clip.csv").write_text(_csv_text())
    (root / "clip.txt").write_text("Neutral,Anger\n0\n-1\n3\n6\n")
    write_dataset(_container(rng), root / "data")
    model, optimizer = FusionModel(CFG), RmsProp()
    model.feature_stats = FeatureStats(rng.random(CFG.audio_dim), rng.random(CFG.audio_dim) + 0.5,
                                       rng.random(CFG.video_dim), rng.random(CFG.video_dim) + 0.5)
    model.train_step(*_batch(read_dataset(root / "data")), optimizer)
    save_checkpoint(root / "model.ckpt", model, optimizer)
    rewrite_header(root / "model.ckpt", _store_constants)
    dataset = read_dataset(root / "data")
    run_training(dataset, dataset, TRAIN, state_path=root / "state.ckpt")
    return root


def _store_constants(header):
    for section, key, constant in CONSTANT_HEADER_KEYS:
        header[section][key] = constant


def _batch(dataset):
    """The first two windows of ``dataset`` as a ``train_step`` batch."""
    return (dataset.audio[:2], dataset.video[:2], dataset.labels[:2],
            np.ones(dataset.labels[:2].shape))


def _mutated(data, draw, lo, hi):
    """``data`` truncated, or with one byte XORed, at a position in ``[lo, hi)``."""
    if draw(st.booleans()):
        return data[: draw(st.integers(lo, hi - 1))]
    out = bytearray(data)
    out[draw(st.integers(lo, hi - 1))] ^= draw(st.integers(1, 255))
    return bytes(out)


def _numbers(value, at=()):
    """The key path to every number in a parsed JSON value."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return [path for key, item in items for path in _numbers(item, (*at, key))]
    return [at] if type(value) in (int, float) else []


def _set_edge_value(header, draw):
    """Replace one number in ``header`` with a drawn edge value."""
    *at, key = draw(st.sampled_from(_numbers(header)))
    parent = functools.reduce(operator.getitem, at, header)
    value = draw(st.sampled_from(EDGE_VALUES))
    parent[key] = float(parent[key]) if value == "as float" else value


def _finite_predictions(model, dataset):
    for _, _, probs, _ in predict_dataset(model, dataset):
        assert np.isfinite(probs).all()


def _consume(kind, root):
    if kind == "wav":
        signal = load_wav(root / "clip.wav")
        extract_chunk_features(signal, chunk_boundaries(signal.duration_s, 4))
    elif kind == "csv":
        parse_openface_csv(root / "clip.csv", SELECTION)
    elif kind == "annotations":
        parse_annotations(root / "clip.txt")
    elif kind.startswith("checkpoint"):
        model, optimizer, _ = load_checkpoint(root / "model.ckpt")
        dataset = read_dataset(root / "data")
        _finite_predictions(model, dataset)
        with np.errstate(all="ignore"):  # a valid learning_rate of 1e308 overflows the step
            model.train_step(*_batch(dataset), optimizer)
    elif kind == "state_checkpoint_header":
        dataset = read_dataset(root / "data")
        with np.errstate(all="ignore"):  # as above, for the loaded optimizer's steps
            run_training(dataset, dataset, replace(TRAIN, epochs=TRAIN.epochs + 1),
                         resume_from=root / "state.ckpt")
    else:  # the header or the blob of the container's packed file
        _finite_predictions(FusionModel(CFG), read_dataset(root / "data"))


TARGETS = {
    "wav": "clip.wav",
    "csv": "clip.csv",
    "annotations": "clip.txt",
    "manifest": f"data/{PACKED}",  # its magic, header length and JSON header
    "blob": f"data/{PACKED}",  # the arrays after its header
    "checkpoint": "model.ckpt",
    "checkpoint_header": "model.ckpt",
    "container_header": f"data/{PACKED}",
    "state_checkpoint_header": "state.ckpt",
}


@pytest.mark.parametrize("kind", sorted(TARGETS))
def test_mutated_input_reads_or_raises_emofuse_error(originals, kind):
    original = (originals / TARGETS[kind]).read_bytes()
    region = (0, len(original))
    if kind in ("manifest", "blob"):
        header_end = 16 + struct.unpack_from("<Q", original, 8)[0]
        region = (0, header_end) if kind == "manifest" else (header_end, len(original))

    @EXAMPLES
    @given(st.data())
    def check(data):
        with tempfile.TemporaryDirectory() as work:
            work = Path(work)
            for name in set(TARGETS.values()):
                (work / name).parent.mkdir(exist_ok=True)
                (work / name).write_bytes((originals / name).read_bytes())
            if kind.endswith("_header"):
                rewrite_header(work / TARGETS[kind], lambda h: _set_edge_value(h, data.draw))
            else:
                (work / TARGETS[kind]).write_bytes(_mutated(original, data.draw, *region))
            try:
                _consume(kind, work)
            except EmofuseError:
                pass

    check()
