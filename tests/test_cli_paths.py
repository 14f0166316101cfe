"""Inputs and run behaviours that reach their code only through ``emofuse.cli.main``.

Each refused input is one ``error: <category>:`` line, exit code 1 and no
``--out`` left behind. The statement census (``tests/census.py``) counts the
statements no ``main`` call reaches; these tests reach the ones a CLI user can.
"""

import json
import shutil
import struct

import numpy as np
import pytest

from emofuse.audio import AudioSignal, chunk_boundaries, extract_chunk_features
from emofuse.cli import _prediction_lines, main
from emofuse.dataset import (
    PACKED,
    WindowDataset,
    read_dataset,
    read_frame_features,
    write_dataset,
    write_frame_features,
)
from emofuse.model import FusionModel, ModelConfig, load_checkpoint, predict_dataset, save_checkpoint
from emofuse.sequencing import AnnotationTrack

from conftest import wav_bytes
from test_cli import pipeline, tiny_training, untrained  # noqa: F401  (fixtures)
from test_model import edit_entry, rewrite_header


def refused(rc, capsys, out, category, ending):
    """Whether a ``main`` call that returned ``rc`` printed one ``error: <category>:``
    line ending in ``ending`` and left no ``out``."""
    err = capsys.readouterr().err.splitlines()
    return (rc == 1 and len(err) == 1 and err[0].startswith(f"error: {category}: ")
            and err[0].endswith(ending) and not out.exists())


def extract_audio(wav, annotations, out):
    return main(["extract-audio", "--wav", str(wav), "--annotations", str(annotations),
                 "--out", str(out)])


def ingest_video(csv, out, *extra):
    return main(["ingest-video", "--csv", str(csv), "--out", str(out), *map(str, extra)])


def evaluate(checkpoint, dataset, out):
    return main(["evaluate", "--checkpoint", str(checkpoint), "--dataset", str(dataset),
                 "--out", str(out)])


def riff(*chunks):
    """A RIFF/WAVE file of ``(chunk id, body)`` chunks."""
    body = b"WAVE" + b"".join(cid + struct.pack("<I", len(data)) + data for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


# --------------------------------------------------------------------------
# extract-audio
# --------------------------------------------------------------------------


@pytest.mark.parametrize("bits, low, high, decode", [
    (8, 0, 2**8, lambda v: (v - 128) / 128),
    (24, -(2**23), 2**23, lambda v: v / 2**23),
    (32, -(2**31), 2**31, lambda v: v / 2**31),
])
def test_pcm_width_gives_the_features_of_its_decoded_signal(tmp_path, bits, low, high, decode):
    values = np.random.default_rng(bits).integers(low, high, size=4000)
    wav, ann, out = tmp_path / "clip.wav", tmp_path / "clip.txt", tmp_path / "a"
    wav.write_bytes(wav_bytes([values.tolist()], 8000, bits=bits))
    ann.write_text("0\n" * 12)
    assert extract_audio(wav, ann, out) == 0
    signal = AudioSignal(decode(values.astype(np.float64)), 8000)
    want = extract_chunk_features(signal, chunk_boundaries(signal.duration_s, 12))
    np.testing.assert_array_equal(read_frame_features(out, "audio")[0], want.astype(np.float32))


FMT_PCM16 = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)


@pytest.mark.parametrize("chunks, category, message", [
    ([(b"fmt ", FMT_PCM16)], "format", "missing fmt or data chunk"),
    ([(b"data", bytes(8))], "format", "missing fmt or data chunk"),
    ([(b"fmt ", struct.pack("<HHIIHH", 6, 1, 8000, 8000, 1, 8)), (b"data", bytes(8))],
     "unsupported", "unsupported encoding (format tag 6, 8-bit)"),
    ([(b"fmt ", FMT_PCM16), (b"data", b"")], "domain", "duration_s must be positive, got 0.0"),
], ids=["no_data_chunk", "no_fmt_chunk", "a_law", "empty_data_chunk"])
def test_unusable_wav_is_refused(pipeline, tmp_path, capsys, chunks, category, message):
    wav, out = tmp_path / "clip.wav", tmp_path / "a"
    wav.write_bytes(riff(*chunks))
    rc = extract_audio(wav, pipeline["ann"], out)
    assert refused(rc, capsys, out, category, message)


@pytest.mark.parametrize("text, category, message", [
    ("Neutral\n", "domain", "n_chunks must be >= 1, got 0"),
    ("0\n1.5\n", "parse", "line 2: label '1.5' is not an ASCII integer"),
    ("0\n7\n", "domain", "line 2: label 7 outside {-1..6}"),
    ("-2\n", "domain", "line 1: label -2 outside {-1..6}"),
], ids=["no_labels", "non_integer", "above_range", "below_range"])
def test_unusable_annotations_are_refused(pipeline, tmp_path, capsys, text, category, message):
    ann, out = tmp_path / "clip.txt", tmp_path / "a"
    ann.write_text(text)
    rc = extract_audio(pipeline["wav"], ann, out)
    assert refused(rc, capsys, out, category, message)


# --------------------------------------------------------------------------
# ingest-video
# --------------------------------------------------------------------------


def test_manifest_naming_a_column_twice_is_schema_error(pipeline, tmp_path, capsys):
    manifest, out = tmp_path / "cols.txt", tmp_path / "v"
    manifest.write_text("pose_Rx\npose_Ry\npose_Rx\n")
    rc = ingest_video(pipeline["csv"], out, "--columns", manifest)
    assert refused(rc, capsys, out, "schema", "duplicate columns in selection: ['pose_Rx']")


def test_empty_csv_is_schema_error(tmp_path, capsys):
    csv, out = tmp_path / "clip.csv", tmp_path / "v"
    csv.write_text("")
    assert refused(ingest_video(csv, out), capsys, out, "schema", f"{csv}: empty CSV")


def edited_csv(pipeline, path, edits):
    """The pipeline's CSV with ``{(row, column): text}`` cells replaced; row 1 is the header."""
    lines = pipeline["csv"].read_text().splitlines()
    header = lines[0].split(", ")
    for (row, column), text in edits.items():
        cells = lines[row - 1].split(", ")
        cells[header.index(column)] = text
        lines[row - 1] = ", ".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return path


# each refused by the row-by-row pass, at the first row at fault; a later
# non-numeric row makes the loadtxt pass fail first where one is needed
@pytest.mark.parametrize("edits, ending", [
    ({(4, "face_id"): "0\x1c"}, "row 4: a cell is not a plain number"),
    ({(4, "AU01_r"): "high"}, "row 4, column 'AU01_r': non-numeric value 'high'"),
    ({(4, "AU01_r"): "inf", (6, "AU02_r"): "x"}, "row 4, column 'AU01_r': non-finite value 'inf'"),
    ({(4, "AU01_r"): "1e39", (6, "AU02_r"): "x"},
     "row 4, column 'AU01_r': non-finite value '1e39'"),
    ({(4, "confidence"): "nan", (6, "AU02_r"): "x"},
     "row 4, column 'confidence': non-finite value 'nan'"),
    ({(4, "frame"): "four"}, "row 4, column 'frame': non-numeric value 'four'"),
    ({(4, "success"): "yes"}, "row 4, column 'success': non-numeric value 'yes'"),
], ids=["separator", "non_numeric", "inf_before_text", "float32_overflow_before_text",
        "nan_confidence_before_text", "text_frame", "text_success"])
def test_cell_is_refused_row_by_row(pipeline, tmp_path, capsys, edits, ending):
    csv, out = edited_csv(pipeline, tmp_path / "clip.csv", edits), tmp_path / "v"
    assert refused(ingest_video(csv, out), capsys, out, "parse", ending)


# --------------------------------------------------------------------------
# Damaged packed files and tampered window containers, through evaluate
# --------------------------------------------------------------------------


def damaged_copy(source, path, edit):
    """A copy of container ``source`` at ``path`` whose packed file ``edit`` rewrote."""
    shutil.copytree(source, path)
    edit(path / PACKED)
    return path


def byte_edit(change):
    """An edit rewriting a file's bytes ``b`` as ``change(b)``."""
    return lambda path: path.write_bytes(change(path.read_bytes()))


def header_edit(edit):
    """An edit applying ``edit`` to a packed file's JSON header."""
    return lambda path: rewrite_header(path, edit)


def wrapping_labels(header):
    """Give ``labels`` a shape whose size wraps int64 to 0, stored in 0 bytes."""
    (entry,) = [e for e in header["arrays"] if e["name"] == "labels"]
    entry.update(shape=[2**62, 4], nbytes=0)


@pytest.mark.parametrize("edit, category, ending", [
    (byte_edit(lambda b: b"EMFCKPT0" + b[8:]), "corruption", "not an emofuse packed file"),
    (byte_edit(lambda b: b[:24]), "corruption", "truncated header"),
    (header_edit(edit_entry("labels", "offset", lambda lo: lo + 0.5)), "schema",
     "holds a value that is not an integer >= 0"),
    (header_edit(edit_entry("labels", "shape", lambda s: [s[0], 7.5])), "schema",
     "holds a value that is not an integer >= 0"),
    (header_edit(edit_entry("labels", "nbytes", lambda n: n + 4)), "schema",
     "does not match shape [1, 15]"),
    (header_edit(wrapping_labels), "schema",
     "array labels nbytes 0 does not match shape [4611686018427387904, 4]"),
    (header_edit(edit_entry("labels", "offset", lambda lo: lo + 10**6)), "corruption",
     "array labels extends past blob"),
], ids=["magic", "truncated_header", "float_offset", "float_shape", "nbytes", "shape_wraps_int64",
        "past_blob"])
def test_damaged_packed_file_is_refused(tiny_training, untrained, tmp_path, capsys, edit,
                                        category, ending):
    dataset = damaged_copy(tiny_training["dataset"], tmp_path / "d", edit)
    out = tmp_path / "out"
    assert refused(evaluate(untrained, dataset, out), capsys, out, category, ending)


@pytest.fixture
def two_videos(tmp_path):
    """A container of a 15-frame video 'a' (one window) and a 24-frame video 'b' (two)."""
    rng = np.random.default_rng(5)
    videos = [(AnnotationTrack([2] * n, vid), rng.standard_normal((n, 168)),
               rng.standard_normal((n, 3))) for vid, n in (("a", 15), ("b", 24))]
    write_dataset(WindowDataset.from_videos(videos), tmp_path / "two")
    return tmp_path / "two"


def video_edit(index, **fields):
    return header_edit(lambda h: h["videos"][index].update(fields))


@pytest.mark.parametrize("edit, category, ending", [
    (header_edit(lambda h: h.update(format_version=3)), "schema",
     "unsupported container format_version 3"),
    (header_edit(lambda h: h.update(stride=16)), "schema", "stride 16 exceeds window_len 15"),
    (video_edit(1, window_offset=2), "schema", "video 'b' window_offset 2, expected 1"),
    (video_edit(1, window_count=1), "schema", "per-video window counts do not sum to 3"),
    (video_edit(1, n_frames=20), "coverage", "video 'b': window at 9 (+15 real rows) exceeds 20 frames"),
    (video_edit(0, n_frames=16), "coverage", "video 'a': frame 15 not covered by any window"),
], ids=["format_version", "stride_beyond_window", "offset_gap", "counts_short", "window_past_video",
        "uncovered_frame"])
def test_tampered_container_is_refused(two_videos, untrained, tmp_path, capsys, edit, category,
                                       ending):
    dataset = damaged_copy(two_videos, tmp_path / "d", edit)
    out = tmp_path / "out"
    assert refused(evaluate(untrained, dataset, out), capsys, out, category, ending)


@pytest.mark.parametrize("key, value", [("mode", "both"), ("recurrent", "rnn")])
def test_unknown_mode_or_recurrent_in_checkpoint_is_schema_error(tiny_training, untrained,
                                                                tmp_path, capsys, key, value):
    rewrite_header(untrained, lambda h: h["config"].update({key: value}))
    out = tmp_path / "out"
    rc = evaluate(untrained, tiny_training["dataset"], out)
    kind = "mode" if key == "mode" else "recurrent kind"
    assert refused(rc, capsys, out, "schema", f"{untrained}: unknown {kind} {value!r}")


def test_checkpoint_of_another_video_width_is_shape_error(tiny_training, tmp_path, capsys):
    ckpt, out = tmp_path / "m.ckpt", tmp_path / "out"
    save_checkpoint(ckpt, FusionModel(ModelConfig(video_dim=5)))
    rc = evaluate(ckpt, tiny_training["dataset"], out)
    assert refused(rc, capsys, out, "shape", "video input has shape (1, 15, 3), not [B, T, 5]")


def test_zero_row_feature_containers_are_domain_error(tmp_path, capsys):
    for name in ("ann", "audio", "video"):
        (tmp_path / name).mkdir()
    (tmp_path / "ann" / "clip.txt").write_text("")
    write_frame_features(tmp_path / "audio" / "clip", np.zeros((0, 6)), "audio")
    write_frame_features(tmp_path / "video" / "clip", np.zeros((0, 3)), "video")
    out = tmp_path / "d"
    rc = main(["build-dataset", "--audio", str(tmp_path / "audio"), "--video",
               str(tmp_path / "video"), "--annotations", str(tmp_path / "ann"), "--out", str(out)])
    assert refused(rc, capsys, out, "domain", "n_frames must be >= 1, got 0")


# --------------------------------------------------------------------------
# Run behaviour
# --------------------------------------------------------------------------


def test_patience_stops_training_early(tiny_training, tmp_path):
    ds, out = str(tiny_training["dataset"]), tmp_path / "run"
    assert main(["train", "--train", ds, "--val", ds, "--epochs", "6", "--patience", "1",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stopped_early"] is True
    assert len(summary["history"]) == summary["best_epoch"] + 1 < 6


def test_evaluate_over_full_inference_slices_writes_the_library_predictions(tmp_path):
    rng = np.random.default_rng(8)
    videos = [(AnnotationTrack(rng.integers(-1, 7, n).tolist(), vid), rng.standard_normal((n, 168)),
               rng.standard_normal((n, 3))) for vid, n in (("a", 205), ("b", 160))]
    dataset = WindowDataset.from_videos(videos)
    assert dataset.n_windows >= 32
    write_dataset(dataset, tmp_path / "d")
    save_checkpoint(tmp_path / "m.ckpt", FusionModel(ModelConfig(video_dim=3, seed=4)))
    assert evaluate(tmp_path / "m.ckpt", tmp_path / "d", tmp_path / "out") == 0
    model = load_checkpoint(tmp_path / "m.ckpt")[0]
    for video_id, labels, probs, _ in predict_dataset(model, read_dataset(tmp_path / "d")):
        written = (tmp_path / "out" / "predictions" / f"{video_id}.txt").read_text()
        assert written == _prediction_lines(labels, probs)


def test_failed_summary_write_leaves_no_temporary_file(tiny_training, tmp_path, capsys):
    ds, out = str(tiny_training["dataset"]), tmp_path / "run"
    (out / "summary.json").mkdir(parents=True)
    rc = main(["train", "--train", ds, "--val", ds, "--epochs", "1", "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1 and len(err) == 1 and err[0].startswith("error: file: ")
    assert sorted(p.name for p in out.iterdir()) == [
        "best.ckpt", "checkpoint.ckpt", "summary.json", "train_log.txt"]
