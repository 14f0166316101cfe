import argparse
import ast
import json
import math
import os
import pathlib
import shutil
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emofuse
from emofuse import cli
from emofuse.audio import DspConfig
from emofuse.cli import _prediction_lines, main
from emofuse.dataset import (
    PACKED,
    VideoEntry,
    WindowDataset,
    read_dataset,
    read_frame_features,
    write_dataset,
    write_frame_features,
)
from emofuse.errors import SchemaError
from emofuse.model import MODES, FusionModel, ModelConfig, RmsProp, load_checkpoint, save_checkpoint
from emofuse.sequencing import AnnotationTrack
from emofuse.training import TrainConfig
from emofuse.video import META_COLUMNS, default_selection

from conftest import wav_bytes
from test_model import (
    CONSTANT_HEADER_KEYS,
    CONSTANT_KEY_IDS,
    DAMAGED_CHECKPOINTS,
    HEADER_IDS,
    REFUSED_ARRAY_VALUES,
    REFUSED_HEADER_VALUES,
    repack,
    rewrite_header,
    set_array_value,
)


def one_error_line(capsys, category):
    err = capsys.readouterr().err.splitlines()
    return len(err) == 1 and err[0].startswith(f"error: {category}:")


def make_openface_csv(path, n_rows, rng, invalid_rows=()):
    columns = list(META_COLUMNS) + list(default_selection().include_columns)
    with open(path, "w") as fh:
        fh.write(", ".join(columns) + "\n")
        for i in range(n_rows):
            success = 0 if i in invalid_rows else 1
            meta = [str(i + 1), "0", f"{i * 0.04:.3f}", "0.93", str(success)]
            feats = [f"{v:.5f}" for v in rng.standard_normal(709)]
            fh.write(", ".join(meta + feats) + "\n")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run extract-audio / ingest-video / build-dataset once for a 27-frame video."""
    root = tmp_path_factory.mktemp("pipeline")
    rng = np.random.default_rng(0)

    wav = root / "vid.wav"
    samples = (rng.standard_normal(8000) * 3000).astype(int).tolist()
    wav.write_bytes(wav_bytes([samples], 8000))

    ann = root / "vid.txt"
    labels = [str(rng.integers(-1, 7)) for _ in range(27)]
    ann.write_text("Neutral,Anger,Disgust,Fear,Happiness,Sadness,Surprise\n" + "\n".join(labels) + "\n")

    csv = root / "vid.csv"
    make_openface_csv(csv, 27, rng, invalid_rows=(5,))

    audio_out = root / "audio_feats"
    video_out = root / "video_feats"
    dataset_out = root / "dataset"
    assert main(["extract-audio", "--wav", str(wav), "--annotations", str(ann),
                 "--out", str(audio_out)]) == 0
    assert main(["ingest-video", "--csv", str(csv), "--out", str(video_out)]) == 0
    assert main(["build-dataset", "--audio", str(audio_out), "--video", str(video_out),
                 "--annotations", str(ann), "--out", str(dataset_out)]) == 0
    return {
        "root": root, "wav": wav, "ann": ann, "csv": csv,
        "audio": audio_out, "video": video_out, "dataset": dataset_out,
    }


class TestExtractAudio:
    def test_chunk_count_follows_annotation_lines(self, pipeline):
        feats, manifest = read_frame_features(pipeline["audio"])
        assert feats.shape == (27, 168)
        assert manifest["meta"]["n_chunks"] == 27
        assert manifest["meta"]["dsp"]["n_fft"] == 2048

    def test_missing_wav_is_file_error(self, pipeline, capsys):
        rc = main(["extract-audio", "--wav", str(pipeline["root"] / "nope.wav"),
                   "--annotations", str(pipeline["ann"]),
                   "--out", str(pipeline["root"] / "x")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: file:")

    def test_malformed_wav_reports_format(self, pipeline, capsys, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_text("not audio")
        rc = main(["extract-audio", "--wav", str(bad), "--annotations", str(pipeline["ann"]),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: format:")

    def test_non_finite_float_sample_is_format_error(self, pipeline, capsys, tmp_path):
        wav = tmp_path / "nan.wav"
        wav.write_bytes(wav_bytes([[0.1] * 100 + [float("nan")] + [0.1] * 99], 8000,
                                  bits=32, fmt_tag=3))
        rc = main(["extract-audio", "--wav", str(wav), "--annotations", str(pipeline["ann"]),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: format:") and "index 100" in err[0]

    @pytest.mark.parametrize("flag,value", [("--floor", "nan"), ("--floor", "inf"),
                                            ("--n-mfcc", "-1"), ("--n-fft", "1"),
                                            ("--n-fft", "2"), ("--n-fft", "252"),
                                            ("--n-fft", "0"), ("--hop", "0"), ("--n-mels", "0")])
    def test_bad_dsp_setting_is_domain_error(self, pipeline, capsys, tmp_path, flag, value):
        rc = main(["extract-audio", "--wav", str(pipeline["wav"]),
                   "--annotations", str(pipeline["ann"]), "--out", str(tmp_path / "x"),
                   flag, value])
        assert rc == 1
        assert one_error_line(capsys, "domain")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("fmt, message", [
        (struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)[:14], "truncated fmt chunk"),
        (struct.pack("<HHIIHH", 1, 0, 8000, 0, 0, 16), "invalid channel count or sample rate"),
        (struct.pack("<HHIIHH", 1, 1, 0, 0, 2, 16), "invalid channel count or sample rate"),
    ], ids=["truncated_fmt", "zero_channels", "zero_rate"])
    def test_bad_fmt_chunk_is_format_error(self, pipeline, capsys, tmp_path, fmt, message):
        body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", 4) + bytes(4))
        wav = tmp_path / "bad.wav"
        wav.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        rc = main(["extract-audio", "--wav", str(wav), "--annotations", str(pipeline["ann"]),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: format: {wav}: {message}"]
        assert not (tmp_path / "x").exists()


class TestFlagDefaults:
    """A flag left out takes the library's default; the pipeline fixture passes only required flags."""

    def test_extract_audio_builds_the_default_dsp_config(self, pipeline):
        _, header = read_frame_features(pipeline["audio"])
        assert header["meta"]["dsp"] == asdict(DspConfig())

    def test_every_dsp_field_is_set_by_an_extract_audio_flag(self, pipeline, tmp_path):
        """DspConfig holds only what extract-audio's DSP flags set: a run with every such
        flag at half its default moves every field of meta.dsp, one field per flag."""
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices["extract-audio"]
        flags = [a for a in sub._actions if a.option_strings and not a.required and a.dest != "help"]
        args = [arg for a in flags for arg in (a.option_strings[0], str(a.type(a.default / 2)))]
        assert main(["extract-audio", "--wav", str(pipeline["wav"]), "--annotations",
                     str(pipeline["ann"]), "--out", str(tmp_path / "x"), *args]) == 0
        _, header = read_frame_features(tmp_path / "x")
        dsp, default = header["meta"]["dsp"], asdict(DspConfig())
        assert len(dsp) == len(flags) and all(dsp[k] != default[k] for k in default)

    def test_train_builds_the_default_train_config(self, tiny_training, tmp_path, monkeypatch):
        seen = []

        def stop(train_set, val_set, config, **kwargs):
            seen.append(config)
            raise SchemaError("stopped before training")

        monkeypatch.setattr(cli, "run_training", stop)
        ds = str(tiny_training["dataset"])
        assert main(["train", "--train", ds, "--val", ds, "--out", str(tmp_path / "run")]) == 1
        assert seen == [TrainConfig()]


def test_mode_vocabularies_match_the_model():
    # a new mode needs a --mode flag value and a row name in the report table
    assert sorted(cli._MODE_FLAG.values()) == sorted(cli._FEATURES) == sorted(MODES)


class TestIngestVideo:
    def test_shipped_manifest_width(self, pipeline):
        feats, manifest = read_frame_features(pipeline["video"])
        assert feats.shape == (27, 709)
        assert manifest["meta"]["n_invalid_frames"] == 1
        assert len(manifest["meta"]["columns"]) == 709

    def test_absent_column_is_schema_error(self, pipeline, capsys, tmp_path):
        manifest = tmp_path / "cols.txt"
        manifest.write_text("pose_Rx\nAU99_r\n")
        rc = main(["ingest-video", "--csv", str(pipeline["csv"]),
                   "--columns", str(manifest), "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: schema:") and "AU99_r" in err

    def test_non_finite_cell_is_parse_error(self, pipeline, capsys, tmp_path):
        csv = tmp_path / "nan.csv"
        lines = pipeline["csv"].read_text().splitlines()
        cells = lines[3].split(", ")
        cells[7] = "nan"
        lines[3] = ", ".join(cells)
        csv.write_text("\n".join(lines) + "\n")
        rc = main(["ingest-video", "--csv", str(csv), "--out", str(tmp_path / "v")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: parse:")
        assert "row 4" in err[0] and "non-finite" in err[0]

    def test_non_utf8_csv_is_parse_error(self, pipeline, capsys, tmp_path):
        csv = tmp_path / "latin1.csv"
        data = pipeline["csv"].read_bytes()
        row3 = data.index(b"\n", data.index(b"\n") + 1) + 1
        csv.write_bytes(data[:row3] + b"\xb7" + data[row3:])
        rc = main(["ingest-video", "--csv", str(csv), "--out", str(tmp_path / "v")])
        assert rc == 1
        assert one_error_line(capsys, "parse")
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("row", [1, 3])
    def test_oversized_quoted_cell_is_parse_error(self, pipeline, capsys, tmp_path, row):
        # a cell beyond the csv module's field size limit (131,072 characters),
        # in the header or in a column the selection does not use
        csv = tmp_path / "huge.csv"
        lines = pipeline["csv"].read_text().splitlines()
        cells = lines[row - 1].split(", ")
        cells[2] = '"' + "x" * 200_000 + '"'
        lines[row - 1] = ", ".join(cells)
        csv.write_text("\n".join(lines) + "\n")
        rc = main(["ingest-video", "--csv", str(csv), "--out", str(tmp_path / "v")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: parse:")
        assert "huge.csv" in err[0] and f"row {row}:" in err[0] and "field" in err[0]
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("edit", ["quoted_cell", "wider_row"])
    def test_row_loadtxt_refuses_is_parse_error(self, pipeline, capsys, tmp_path, edit):
        csv = tmp_path / "plain.csv"
        lines = pipeline["csv"].read_text().splitlines()
        cells = lines[3].split(", ")
        if edit == "quoted_cell":
            cells[1] = '"0"'  # face_id, a column the selection does not use
        else:
            cells.append("0.5")
        lines[3] = ", ".join(cells)
        csv.write_text("\n".join(lines) + "\n")
        rc = main(["ingest-video", "--csv", str(csv), "--out", str(tmp_path / "v")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: parse:")
        assert "plain.csv: row 4:" in err[0]
        assert not (tmp_path / "v").exists()

    def test_repeated_header_name_is_schema_error(self, pipeline, capsys, tmp_path):
        csv = tmp_path / "twice.csv"
        lines = pipeline["csv"].read_text().splitlines()
        lines[0] = lines[0].replace("face_id", "frame")
        csv.write_text("\n".join(lines) + "\n")
        rc = main(["ingest-video", "--csv", str(csv), "--out", str(tmp_path / "v")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: schema:")
        assert "twice.csv: column 'frame' appears twice" in err[0]
        assert not (tmp_path / "v").exists()

    def test_header_only_csv_is_schema_error(self, pipeline, capsys, tmp_path):
        csv = tmp_path / "empty.csv"
        csv.write_text(pipeline["csv"].read_text().splitlines()[0] + "\n\n")
        rc = main(["ingest-video", "--csv", str(csv), "--out", str(tmp_path / "v")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: schema:")
        assert "empty.csv" in err[0] and "no data rows" in err[0]
        assert not (tmp_path / "v").exists()

    def test_non_utf8_column_manifest_is_parse_error(self, pipeline, capsys, tmp_path):
        manifest = tmp_path / "cols.txt"
        manifest.write_bytes(b"pose_Rx\n# \xb7 rotation\npose_Ry\n")
        rc = main(["ingest-video", "--csv", str(pipeline["csv"]), "--columns", str(manifest),
                   "--out", str(tmp_path / "v")])
        assert rc == 1
        assert one_error_line(capsys, "parse")

    def test_empty_column_manifest_is_schema_error(self, pipeline, capsys, tmp_path):
        manifest = tmp_path / "cols.txt"
        manifest.write_text("# no columns\n\n")
        rc = main(["ingest-video", "--csv", str(pipeline["csv"]), "--columns", str(manifest),
                   "--out", str(tmp_path / "v")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: schema: {manifest}: column manifest is empty"]
        assert not (tmp_path / "v").exists()

    def test_row_count_reported(self, pipeline, capsys, tmp_path):
        rc = main(["ingest-video", "--csv", str(pipeline["csv"]), "--out", str(tmp_path / "v")])
        assert rc == 0
        assert "parsed 27 rows" in capsys.readouterr().out


class TestBuildDataset:
    def test_window_layout(self, pipeline):
        ds = read_dataset(pipeline["dataset"])
        assert ds.n_windows == 3
        np.testing.assert_array_equal(ds.start_frames, [0, 10, 12])
        assert ds.videos[0].video_id == "vid"
        assert ds.videos[0].n_frames == 27
        assert ds.audio_dim == 168 and ds.video_dim == 709
        assert ds.meta["dsp"]["n_fft"] == 2048

    def test_roundtrip_equality(self, pipeline, tmp_path):
        ds = read_dataset(pipeline["dataset"])
        from emofuse.dataset import write_dataset

        write_dataset(ds, tmp_path / "copy")
        back = read_dataset(tmp_path / "copy")
        np.testing.assert_array_equal(back.audio, ds.audio)
        np.testing.assert_array_equal(back.video, ds.video)

    def test_count_mismatch_is_alignment_error(self, pipeline, capsys, tmp_path):
        short_ann = tmp_path / "vid.txt"
        short_ann.write_text("\n".join(["0"] * 25) + "\n")
        rc = main(["build-dataset", "--audio", str(pipeline["audio"]),
                   "--video", str(pipeline["video"]), "--annotations", str(short_ann),
                   "--out", str(tmp_path / "d")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: alignment:")
        assert "annotations=25" in err and "audio=27" in err

    def test_traced_peak_holds_each_window_once(self, tmp_path):
        # the inputs stay resident while the container is built; the windows
        # must not be held a second time on top of them
        rng = np.random.default_rng(3)
        for name in ("ann", "a", "v"):
            (tmp_path / name).mkdir()
        for i, n in enumerate((300, 257, 211)):
            (tmp_path / "ann" / f"c{i}.txt").write_text("".join(f"{k % 7}\n" for k in range(n)))
            write_frame_features(tmp_path / "a" / f"c{i}", rng.standard_normal((n, 168)), "audio")
            write_frame_features(tmp_path / "v" / f"c{i}", rng.standard_normal((n, 709)), "video")
        tracemalloc.start()
        try:
            rc = main(["build-dataset", "--audio", str(tmp_path / "a"), "--video", str(tmp_path / "v"),
                       "--annotations", str(tmp_path / "ann"), "--out", str(tmp_path / "d")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        inputs = sum(p.stat().st_size for p in tmp_path.glob(f"[av]/*/{PACKED}"))
        container = sum(p.stat().st_size for p in (tmp_path / "d").iterdir())
        assert peak < 1.25 * (inputs + container), (peak, inputs, container)

    def test_stride_beyond_window_is_domain_error(self, pipeline, capsys, tmp_path):
        # the window grid refuses the flags, before any window is cut
        rc = main(["build-dataset", "--audio", str(pipeline["audio"]), "--video", str(pipeline["video"]),
                   "--annotations", str(pipeline["ann"]), "--out", str(tmp_path / "d"),
                   "--window", "15", "--stride", "20"])
        assert rc == 1
        assert one_error_line(capsys, "domain")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("flag", ["--window", "--stride"])
    def test_window_or_stride_below_one_is_domain_error(self, pipeline, capsys, tmp_path, flag):
        rc = main(["build-dataset", "--audio", str(pipeline["audio"]), "--video", str(pipeline["video"]),
                   "--annotations", str(pipeline["ann"]), "--out", str(tmp_path / "d"), flag, "0"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: domain: length and stride must be positive"]
        assert not (tmp_path / "d").exists()

    def test_annotation_directory_without_txt_files_is_file_error(self, pipeline, capsys, tmp_path):
        (tmp_path / "ann").mkdir()
        (tmp_path / "ann" / "vid.csv").write_text("frame\n")
        rc = main(["build-dataset", "--audio", str(pipeline["root"]), "--video", str(pipeline["root"]),
                   "--annotations", str(tmp_path / "ann"), "--out", str(tmp_path / "d")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: file: no .txt annotation files under {tmp_path / 'ann'}"]
        assert not (tmp_path / "d").exists()

    def test_missing_feature_container_is_schema_error(self, pipeline, capsys, tmp_path):
        # the audio directory holds no container named after the annotation file
        (tmp_path / "ann").mkdir()
        shutil.copy(pipeline["ann"], tmp_path / "ann")
        (tmp_path / "audio").mkdir()
        rc = main(["build-dataset", "--audio", str(tmp_path / "audio"), "--video", str(pipeline["root"]),
                   "--annotations", str(tmp_path / "ann"), "--out", str(tmp_path / "d")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: schema: {tmp_path / 'audio' / 'vid'}: no {PACKED}; not a container"]
        assert not (tmp_path / "d").exists()

    def test_non_utf8_annotations_is_parse_error(self, pipeline, capsys, tmp_path):
        ann = tmp_path / "vid.txt"
        ann.write_bytes(pipeline["ann"].read_bytes().replace(b"\n", b"\n\xb7", 1))
        rc = main(["build-dataset", "--audio", str(pipeline["audio"]),
                   "--video", str(pipeline["video"]), "--annotations", str(ann),
                   "--out", str(tmp_path / "d")])
        assert rc == 1
        assert one_error_line(capsys, "parse")


def build_from_arrays(root, videos, swap=False, meta=None):
    """Run build-dataset over frame_features containers made from
    ``{video_id: (audio, video)}``, with header meta ``meta[video_id, modality]``
    if given; ``swap`` exchanges --audio and --video."""
    dirs = {name: root / name for name in ("ann", "audio", "video")}
    dirs["ann"].mkdir()
    meta = meta or {}
    for vid, (audio, video) in videos.items():
        (dirs["ann"] / f"{vid}.txt").write_text("0\n" * len(audio))
        write_frame_features(dirs["audio"] / vid, audio, "audio", meta.get((vid, "audio")))
        write_frame_features(dirs["video"] / vid, video, "video", meta.get((vid, "video")))
    audio_dir, video_dir = (dirs["video"], dirs["audio"]) if swap else (dirs["audio"], dirs["video"])
    return main(["build-dataset", "--audio", str(audio_dir), "--video", str(video_dir),
                 "--annotations", str(dirs["ann"]), "--out", str(root / "d"), "--jobs", "1"])


class TestMalformedBuildInputs:
    def test_width_mismatch_across_videos_is_schema_error(self, tmp_path, capsys, rng):
        rc = build_from_arrays(tmp_path, {
            "a": (rng.standard_normal((4, 6)), rng.standard_normal((4, 3))),
            "b": (rng.standard_normal((4, 5)), rng.standard_normal((4, 3))),
        })
        err = capsys.readouterr().err
        assert rc == 1 and len(err.splitlines()) == 1
        assert err.startswith("error: schema: video 'b': audio width 5, earlier videos have 6")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_feature_is_domain_error(self, tmp_path, capsys, rng, value):
        video = rng.standard_normal((20, 3))
        video[13, 1] = value
        rc = build_from_arrays(tmp_path, {"clip": (rng.standard_normal((20, 6)), video)})
        err = capsys.readouterr().err
        assert rc == 1 and len(err.splitlines()) == 1
        assert err.startswith("error: domain: video 'clip': non-finite video feature at frame 13")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("modality, first, second, message", [
        ("audio", {}, [1], "meta is not a JSON object"),
        ("audio", {"dsp": {"n_fft": 2048}}, {"dsp": {"n_fft": 1024}},
         "meta.dsp differs from the first video's"),
        ("video", {"columns": ["AU01_r"]}, {"columns": ["AU02_r"]},
         "meta.columns differs from the first video's"),
        # containers written when DspConfig still held the band edges fmin and fmax
        ("audio", {"dsp": {**asdict(DspConfig()), "fmin": 0.0, "fmax": None}},
         {"dsp": asdict(DspConfig())}, "meta.dsp differs from the first video's"),
        ("audio", {"dsp": asdict(DspConfig())},
         {"dsp": {**asdict(DspConfig()), "fmin": 0.0, "fmax": None}},
         "meta.dsp differs from the first video's"),
    ], ids=["non_object_meta", "mixed_dsp", "mixed_columns", "older_dsp_first", "older_dsp_second"])
    def test_meta_is_schema_error(self, tmp_path, capsys, rng, modality, first, second, message):
        videos = {v: (rng.standard_normal((4, 6)), rng.standard_normal((4, 3))) for v in "ab"}
        rc = build_from_arrays(tmp_path, videos, meta={("a", modality): first,
                                                       ("b", modality): second})
        err = capsys.readouterr().err
        assert rc == 1 and len(err.splitlines()) == 1
        assert err.startswith("error: schema: ")
        assert err.endswith(f"{os.path.join(tmp_path, modality, 'b')}: {message}\n")
        assert not (tmp_path / "d").exists()

    def test_jobs_stray_files_and_blank_lines_change_no_byte(self, tmp_path, rng):
        # two threads, a file among the annotations that is not .txt and blank
        # annotation lines all leave the container one thread writes without them
        videos = {v: (rng.standard_normal((n, 6)), rng.standard_normal((n, 3)))
                  for v, n in (("a", 17), ("b", 9))}
        (tmp_path / "one").mkdir()
        assert build_from_arrays(tmp_path / "one", videos) == 0
        two = tmp_path / "two"
        shutil.copytree(tmp_path / "one", two, ignore=shutil.ignore_patterns("d"))
        (two / "ann" / "notes.md").write_text("not an annotation file\n")
        (two / "ann" / "a.txt").write_text("\n" + "0\n\n" * 17)
        assert main(["build-dataset", "--audio", str(two / "audio"), "--video", str(two / "video"),
                     "--annotations", str(two / "ann"), "--out", str(two / "d"), "--jobs", "2"]) == 0
        assert (two / "d" / PACKED).read_bytes() == (tmp_path / "one" / "d" / PACKED).read_bytes()

    def test_swapped_modalities_is_schema_error(self, tmp_path, capsys, rng):
        rc = build_from_arrays(
            tmp_path, {"clip": (rng.standard_normal((4, 6)), rng.standard_normal((4, 3)))},
            swap=True,
        )
        err = capsys.readouterr().err
        assert rc == 1 and len(err.splitlines()) == 1
        assert err.startswith("error: schema: ") and "holds 'video' features, expected 'audio'" in err


@pytest.fixture(scope="module")
def tiny_training(tmp_path_factory):
    """A one-window dataset a model can be driven to predict perfectly."""
    root = tmp_path_factory.mktemp("tiny")
    rng = np.random.default_rng(7)

    wav = root / "clip.wav"
    samples = (np.sin(np.arange(4000) / 8.0) * 20000).astype(int).tolist()
    wav.write_bytes(wav_bytes([samples], 8000))
    ann = root / "clip.txt"
    ann.write_text("\n".join(["3"] * 15) + "\n")

    manifest = root / "cols.txt"
    manifest.write_text("pose_Rx\npose_Ry\npose_Rz\n")
    csv = root / "clip.csv"
    with open(csv, "w") as fh:
        fh.write("frame, success, pose_Rx, pose_Ry, pose_Rz\n")
        for i in range(15):
            fh.write(f"{i + 1}, 1, {rng.random():.4f}, {rng.random():.4f}, {rng.random():.4f}\n")

    audio_out, video_out, ds_out = root / "a", root / "v", root / "d"
    assert main(["extract-audio", "--wav", str(wav), "--annotations", str(ann),
                 "--out", str(audio_out)]) == 0
    assert main(["ingest-video", "--csv", str(csv), "--columns", str(manifest),
                 "--out", str(video_out)]) == 0
    assert main(["build-dataset", "--audio", str(audio_out), "--video", str(video_out),
                 "--annotations", str(ann), "--out", str(ds_out)]) == 0
    return {"root": root, "dataset": ds_out}


class TestTrainCli:
    def test_train_writes_artifacts_and_is_deterministic(self, tiny_training):
        root = tiny_training["root"]
        ds = str(tiny_training["dataset"])
        args = ["train", "--train", ds, "--val", ds, "--epochs", "2", "--batch", "4",
                "--seed", "11", "--patience", "0"]
        assert main(args + ["--out", str(root / "run1")]) == 0
        assert main(args + ["--out", str(root / "run2")]) == 0
        s1 = (root / "run1" / "summary.json").read_text()
        s2 = (root / "run2" / "summary.json").read_text()
        assert s1 == s2
        assert (root / "run1" / "train_log.txt").exists()
        assert (root / "run1" / "checkpoint.ckpt").exists()
        assert (root / "run1" / "best.ckpt").exists()
        summary = json.loads(s1)
        assert summary["config"]["learning_rate"] == 1e-4
        assert len(summary["history"]) == 2

    def test_divergence_is_one_error_line_after_the_last_good_epoch(self, tiny_training, tmp_path,
                                                                     capsys):
        ds, out = str(tiny_training["dataset"]), tmp_path / "run"
        rc = main(["train", "--train", ds, "--val", ds, "--epochs", "3", "--lr", "1e30",
                   "--patience", "0", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: divergence: training loss became non-finite"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["diverged"] is True and summary["epochs_run"] == 1
        assert (out / "train_log.txt").read_text().startswith("epoch 1 ")

    def test_resume_writes_the_full_history(self, tiny_training, tmp_path):
        ds = str(tiny_training["dataset"])

        def train(out, epochs, *extra):
            assert main(["train", "--train", ds, "--val", ds, "--epochs", str(epochs),
                         "--batch", "4", "--seed", "5", "--patience", "0",
                         "--out", str(out), *extra]) == 0

        train(tmp_path / "full", 4)
        train(tmp_path / "cut", 2)
        assert len(json.loads((tmp_path / "cut" / "summary.json").read_text())["history"]) == 2
        train(tmp_path / "cut", 4, "--resume", str(tmp_path / "cut" / "checkpoint.ckpt"))
        # best.ckpt is left out: its meta holds the config of the run that wrote it
        for name in ("train_log.txt", "summary.json", "checkpoint.ckpt"):
            assert (tmp_path / "cut" / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name
        assert len((tmp_path / "full" / "train_log.txt").read_text().splitlines()) == 4
        assert json.loads((tmp_path / "full" / "summary.json").read_text())["epochs_run"] == 4
        assert sorted(p.name for p in (tmp_path / "cut").iterdir()) == [
            "best.ckpt", "checkpoint.ckpt", "summary.json", "train_log.txt"]

    def test_mode_flag_selects_variant(self, tiny_training):
        root = tiny_training["root"]
        ds = str(tiny_training["dataset"])
        assert main(["train", "--train", ds, "--val", ds, "--epochs", "1",
                     "--mode", "audio", "--out", str(root / "audio_run"),
                     "--patience", "0"]) == 0
        model, _, _ = load_checkpoint(root / "audio_run" / "best.ckpt")
        assert model.config.mode == "audio_only"
        assert list(model.branches) == ["audio"]

    def test_lstm_flag(self, tiny_training):
        root = tiny_training["root"]
        ds = str(tiny_training["dataset"])
        assert main(["train", "--train", ds, "--val", ds, "--epochs", "1",
                     "--recurrent", "lstm", "--out", str(root / "lstm_run"),
                     "--patience", "0"]) == 0
        model, _, _ = load_checkpoint(root / "lstm_run" / "best.ckpt")
        assert model.config.recurrent == "lstm"

    @pytest.mark.parametrize("label", [9, -3, 2.5])
    def test_label_outside_classes_in_container_is_schema_error(
        self, tiny_training, tmp_path, capsys, label
    ):
        import shutil

        from test_dataset import rewrite_blob

        ds, broken, out = tiny_training["dataset"], tmp_path / "broken", tmp_path / "run"
        shutil.copytree(ds, broken)
        rewrite_blob(broken, "labels", {(0, 4): label})
        rc = main(["train", "--train", str(broken), "--val", str(ds), "--epochs", "1",
                   "--patience", "0", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: schema:")
        assert f"broken: window 0 has label {label:g}" in err[0]
        assert not out.exists()


    @pytest.mark.parametrize("flag, value", [
        ("--batch", "0"), ("--batch", "-3"), ("--lr", "nan"), ("--lr", "inf"), ("--lr", "0"),
        ("--seed", "-1"), ("--epochs", "0"), ("--patience", "-1"),
    ])
    def test_bad_number_is_schema_error(self, tiny_training, tmp_path, capsys, flag, value):
        ds = str(tiny_training["dataset"])
        out = tmp_path / "run"
        rc = main(["train", "--train", ds, "--val", ds, "--epochs", "1", "--patience", "0",
                   "--out", str(out), flag, value])
        assert rc == 1
        assert one_error_line(capsys, "schema")
        assert not out.exists()

    def test_val_whose_windows_disagree_is_refused_before_training(
        self, tiny_training, tmp_path, capsys, monkeypatch
    ):
        from test_dataset import rewrite_blob

        rng = np.random.default_rng(4)
        val = WindowDataset.from_videos([
            (AnnotationTrack([i % 7 for i in range(20)], vid), rng.standard_normal((20, 168)),
             rng.standard_normal((20, 3)))
            for vid in ("a", "b")
        ])
        assert val.start_frames.tolist() == [0, 5, 0, 5]
        write_dataset(val, tmp_path / "val")
        # window 1 (frames 5-19 of 'a') holds the labels of frames 6-20 (wrapping to 5)
        rewrite_blob(tmp_path / "val", "labels", {1: np.roll(val.labels[1], -1)})
        monkeypatch.setattr(FusionModel, "train_step", None)  # a step would raise TypeError
        out = tmp_path / "run"
        rc = main(["train", "--train", str(tiny_training["dataset"]), "--val", str(tmp_path / "val"),
                   "--epochs", "1", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: coverage:")
        assert err[0].endswith("val: video 'a': windows disagree on the label of frame 5")
        assert not out.exists()

    def test_zero_video_train_container_is_coverage_error(self, tiny_training, tmp_path, capsys):
        empty = WindowDataset(
            audio=np.zeros((0, 15, 168)), video=np.zeros((0, 15, 3)),
            labels=np.zeros((0, 15)), start_frames=np.zeros(0), pad_counts=np.zeros(0),
            videos=[],
        )
        write_dataset(empty, tmp_path / "empty")
        out = tmp_path / "run"
        rc = main(["train", "--train", str(tmp_path / "empty"), "--val", str(tiny_training["dataset"]),
                   "--epochs", "1", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith("empty: dataset holds no videos")
        assert err[0].startswith("error: coverage:")
        assert not out.exists()

    @staticmethod
    def labelled_container(path, labels):
        """A container of one 15-frame video per label list."""
        rng = np.random.default_rng(8)
        write_dataset(WindowDataset.from_videos([
            (AnnotationTrack(track, f"v{i}"), rng.standard_normal((15, 168)),
             rng.standard_normal((15, 3)))
            for i, track in enumerate(labels)
        ]), path)
        return str(path)

    def test_fully_masked_batch_is_skipped(self, tmp_path):
        # with --batch 1, one of the two batches holds only unannotated rows
        ds = self.labelled_container(tmp_path / "d", [[-1] * 15, [2] * 15])
        assert main(["train", "--train", ds, "--val", ds, "--epochs", "2", "--batch", "1",
                     "--exclude-class7", "--out", str(tmp_path / "run")]) == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert all(np.isfinite(r["train_loss"]) for r in summary["history"])

    def test_no_counted_row_is_domain_error(self, tmp_path, capsys):
        ds = self.labelled_container(tmp_path / "d", [[-1] * 15, [-1] * 15])
        rc = main(["train", "--train", ds, "--val", ds, "--epochs", "1", "--exclude-class7",
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert one_error_line(capsys, "domain")
        assert not (tmp_path / "run").exists()

    def test_train_val_width_mismatch_leaves_no_out(self, tiny_training, tmp_path, capsys):
        rng = np.random.default_rng(2)
        write_dataset(WindowDataset.from_videos([
            (AnnotationTrack([3] * 15, "w"), rng.standard_normal((15, 168)),
             rng.standard_normal((15, 4)))
        ]), tmp_path / "wide")
        out = tmp_path / "run"
        rc = main(["train", "--train", str(tiny_training["dataset"]), "--val", str(tmp_path / "wide"),
                   "--epochs", "1", "--out", str(out)])
        assert rc == 1
        assert one_error_line(capsys, "schema")
        assert not out.exists()

    @pytest.mark.parametrize("video_dim, optimizer, meta, edit, category, message", [
        pytest.param(3, None, None, None, "schema", "no optimizer state",
                     id="3-None-schema-no optimizer state"),
        pytest.param(4, RmsProp(), None, None, "shape",
                     "checkpoint feature dims (168, 4) differ from the training set's (168, 3)",
                     id="4-optimizer1-shape-checkpoint feature dims (168, 4) differ from the "
                        "training set's (168, 3)"),
        pytest.param(3, RmsProp(), [1], None, "schema", "meta.progress is not a JSON object",
                     id="meta_list"),
        pytest.param(3, RmsProp(), {"progress": [1]}, None, "schema",
                     "meta.progress is not a JSON object", id="progress_list"),
        pytest.param(3, RmsProp(), {"progress": {"history": [{
            "epoch": "1", "train_loss": 1.0, "val_combined": 0.5, "val_accuracy": 0.5,
            "val_macro_f1": 0.5}]}}, None, "schema",
            "meta.progress.history[0]: epoch must be 1, got '1'", id="history_epoch_text"),
        pytest.param(3, RmsProp(), {"progress": {"history": [{"epoch": 1}]}}, None, "schema",
                     "malformed field 'train_loss'", id="history_entry_missing_keys"),
        pytest.param(3, RmsProp(), None, {"learning_rate": "x"}, "schema",
                     "learning_rate must be a finite number > 0, got 'x'", id="learning_rate_text"),
        pytest.param(3, RmsProp(), None, {"rho": float("nan")}, "schema",
                     "optimizer.rho must be 0.9, got nan", id="rho_nan"),
        pytest.param(3, RmsProp(), None, {"eps": float("inf")}, "schema",
                     "optimizer.eps must be 1e-07, got inf", id="eps_inf"),
    ])
    def test_unusable_resume_checkpoint_leaves_no_out(
        self, tiny_training, tmp_path, capsys, video_dim, optimizer, meta, edit, category, message
    ):
        ckpt = tmp_path / "state.ckpt"
        save_checkpoint(ckpt, FusionModel(ModelConfig(video_dim=video_dim)), optimizer=optimizer,
                        meta=meta)
        if edit is not None:  # optimizer hyperparameters that a load refuses
            rewrite_header(ckpt, lambda h: h["optimizer"].update(edit))
        ds, out = str(tiny_training["dataset"]), tmp_path / "run"
        rc = main(["train", "--train", ds, "--val", ds, "--epochs", "2", "--resume", str(ckpt),
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {category}:") and message in err[0]
        assert not out.exists()

    def test_resume_with_another_config_names_each_field(self, tiny_training, tmp_path, capsys):
        ds = str(tiny_training["dataset"])
        first = ["train", "--train", ds, "--val", ds, "--patience", "0", "--out"]
        assert main(first + [str(tmp_path / "fused"), "--epochs", "1"]) == 0
        capsys.readouterr()
        out = tmp_path / "run"
        rc = main(first + [str(out), "--epochs", "2", "--recurrent", "lstm", "--mode", "audio",
                           "--resume", str(tmp_path / "fused" / "checkpoint.ckpt")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: schema:")
        assert "mode 'fused' saved, 'audio_only' given" in err[0]
        assert "recurrent 'gru' saved, 'lstm' given" in err[0]
        assert not out.exists()

    def test_config_keys(self, tiny_training, tmp_path):
        ds = str(tiny_training["dataset"])
        out = tmp_path / "run"
        assert main(["train", "--train", ds, "--val", ds, "--epochs", "1", "--patience", "0",
                     "--out", str(out)]) == 0
        keys = {"epochs", "batch_size", "seed", "learning_rate", "mode", "recurrent",
                "include_class7", "standardize_features", "early_stop_patience"}
        assert set(json.loads((out / "summary.json").read_text())["config"]) == keys
        for name in ("best.ckpt", "checkpoint.ckpt"):
            assert set(load_checkpoint(out / name)[2]["train_config"]) == keys


class TestUnusableOut:
    """An --out that exists as a regular file is one ``error: file:`` line."""

    @pytest.mark.parametrize("command", [
        "extract-audio", "ingest-video", "build-dataset", "train", "evaluate",
    ])
    def test_out_is_a_file(self, pipeline, tiny_training, tmp_path, capsys, command):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, FusionModel(ModelConfig(video_dim=3)))
        tiny = str(tiny_training["dataset"])
        inputs = {
            "extract-audio": ["--wav", pipeline["wav"], "--annotations", pipeline["ann"]],
            "ingest-video": ["--csv", pipeline["csv"]],
            "build-dataset": ["--audio", pipeline["audio"], "--video", pipeline["video"],
                              "--annotations", pipeline["ann"]],
            "train": ["--train", tiny, "--val", tiny, "--epochs", "1"],
            "evaluate": ["--checkpoint", ckpt, "--dataset", tiny],
        }[command]
        out = tmp_path / "out"
        out.write_text("keep\n")
        rc = main([command, *map(str, inputs), "--out", str(out)])
        assert rc == 1
        assert one_error_line(capsys, "file")
        assert out.read_text() == "keep\n"


@pytest.fixture(scope="module")
def standardized_run(tiny_training):
    """A one-epoch standardized run: its checkpoint holds feature stats and RMSProp accumulators."""
    out = tiny_training["root"] / "standardized"
    ds = str(tiny_training["dataset"])
    assert main(["train", "--train", ds, "--val", ds, "--epochs", "1", "--patience", "0",
                 "--standardize", "--out", str(out)]) == 0
    return out / "checkpoint.ckpt"


# edits of a one-epoch run's meta.progress.history, and the end of the error each gives
BAD_HISTORIES = {
    "gap": (lambda h: h[0].update(epoch=2), "[0]: epoch must be 1, got 2"),
    "repeated_epoch": (lambda h: h.append(dict(h[0])), "[1]: epoch must be 2, got 1"),
    "float_epoch": (lambda h: h[0].update(epoch=1.0), "[0]: epoch must be 1, got 1.0"),
    "nan_metric": (lambda h: h[0].update(val_macro_f1=math.nan),
                   "[0]: val_macro_f1 must be a number in [0, 1], got nan"),
    "combined_above_one": (lambda h: h[0].update(val_combined=1.5),
                           "[0]: val_combined must be a number in [0, 1], got 1.5"),
    "negative_loss": (lambda h: h[0].update(train_loss=-0.5),
                      "[0]: train_loss must be a finite number >= 0, got -0.5"),
    "epoch_past_float_range": (lambda h: h[0].update(epoch=10**400),
                               f"[0]: epoch must be 1, got {10**400}"),
}


def five_classes(header, entries):
    """A ``repack`` edit: a 5-class head, stored arrays to match."""
    header["config"]["n_classes"] = 5
    for name, (kind, array) in entries.items():
        if "head.dense2." in name:
            entries[name] = (kind, array[:5])


def no_stats(header, entries):
    """A ``repack`` edit: a checkpoint without feature statistics."""
    for name in [n for n in entries if n.startswith("stats.")]:
        del entries[name]


class TestDamagedCheckpointCli:
    @staticmethod
    def run(command, source, edit, tiny_training, tmp_path):
        """``command`` on a copy of ``source`` that ``edit(path)`` damaged; its exit
        code and its ``--out``, which should not exist."""
        ckpt, ds, out = tmp_path / "damaged.ckpt", str(tiny_training["dataset"]), tmp_path / "out"
        ckpt.write_bytes(source.read_bytes())
        edit(ckpt)
        if command == "evaluate":
            rc = main(["evaluate", "--checkpoint", str(ckpt), "--dataset", ds, "--out", str(out)])
        else:
            rc = main(["train", "--train", ds, "--val", ds, "--epochs", "2", "--patience", "0",
                       "--standardize", "--resume", str(ckpt), "--out", str(out)])
        return rc, out

    @pytest.mark.parametrize("command", ["evaluate", "resume"])
    @pytest.mark.parametrize("damage", sorted(DAMAGED_CHECKPOINTS))
    def test_is_one_schema_error_line(self, tiny_training, standardized_run, tmp_path, capsys,
                                      command, damage):
        edit = DAMAGED_CHECKPOINTS[damage][0]
        rc, out = self.run(command, standardized_run, lambda p: rewrite_header(p, edit),
                           tiny_training, tmp_path)
        assert rc == 1
        assert one_error_line(capsys, "schema")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "resume"])
    @pytest.mark.parametrize("section, key, value", REFUSED_HEADER_VALUES, ids=HEADER_IDS)
    def test_header_value_outside_its_domain_is_one_schema_error_line(
        self, tiny_training, standardized_run, tmp_path, capsys, command, section, key, value
    ):
        rc, out = self.run(command, standardized_run,
                           lambda p: rewrite_header(p, lambda h: h[section].update({key: value})),
                           tiny_training, tmp_path)
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: schema: {tmp_path / 'damaged.ckpt'}: "
                                                   f"{key} must be")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "resume"])
    @pytest.mark.parametrize("section, key, constant", CONSTANT_HEADER_KEYS, ids=CONSTANT_KEY_IDS)
    def test_stored_constant_of_another_value_is_one_schema_error_line(
        self, tiny_training, standardized_run, tmp_path, capsys, command, section, key, constant
    ):
        rc, out = self.run(command, standardized_run, lambda p: rewrite_header(
            p, lambda h: h[section].update({key: 2 * constant})), tiny_training, tmp_path)
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: schema: {tmp_path / 'damaged.ckpt'}: {section}.{key} must be {constant!r}, "
            f"got {2 * constant!r}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "resume"])
    def test_five_class_checkpoint_is_one_schema_error_line(
        self, tiny_training, standardized_run, tmp_path, capsys, command
    ):
        # its arrays match its header, but the labels and the p0..p7 rows have 8 classes
        rc, out = self.run(command, standardized_run, lambda p: repack(p, five_classes),
                           tiny_training, tmp_path)
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: schema: {tmp_path / 'damaged.ckpt'}: config.n_classes must be 8, got 5"]
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda p: rewrite_header(p, lambda h: h["optimizer"].update(learning_rate=0.5)),
         "learning_rate 0.5 saved, 0.0001 given"),
        (lambda p: repack(p, no_stats), "standardize_features False saved, True given"),
    ], ids=["learning_rate", "standardize"])
    def test_resume_compares_the_flags_with_the_checkpoint_it_trains(
        self, tiny_training, standardized_run, tmp_path, capsys, edit, message
    ):
        # meta.train_config still records the run's flags, which the command line repeats
        rc, out = self.run("resume", standardized_run, edit, tiny_training, tmp_path)
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: schema:") and err[0].endswith(message)
        assert not out.exists()

    def test_resume_with_no_epoch_left_is_one_domain_error_line(
        self, tiny_training, standardized_run, tmp_path, capsys
    ):
        # the checkpoint holds one epoch: --epochs 1 would train nothing and write no checkpoint
        ds, out = str(tiny_training["dataset"]), tmp_path / "out"
        rc = main(["train", "--train", ds, "--val", ds, "--epochs", "1", "--patience", "0",
                   "--standardize", "--resume", str(standardized_run), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: domain: {standardized_run}: --epochs must exceed the 1 epochs of the "
            "checkpoint's history, got 1"]
        assert not out.exists()

    @pytest.mark.parametrize("damage", sorted(BAD_HISTORIES))
    def test_bad_history_is_one_schema_error_line(self, tiny_training, standardized_run, tmp_path,
                                                  capsys, damage):
        edit, message = BAD_HISTORIES[damage]
        rc, out = self.run("resume", standardized_run, lambda p: rewrite_header(
            p, lambda h: edit(h["meta"]["progress"]["history"])), tiny_training, tmp_path)
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: schema: {tmp_path / 'damaged.ckpt'}: meta.progress.history{message}"]
        assert not out.exists()

    def test_old_progress_keys_change_nothing(self, tiny_training, standardized_run, tmp_path):
        """A checkpoint from before the history became the only progress record also
        carries four values derived from it; edited or not, a resume ignores them."""
        (first,) = load_checkpoint(standardized_run)[2]["progress"]["history"]
        old = {"epoch_completed": 1, "best_metric": first["val_combined"], "best_epoch": 1,
               "epochs_since_improve": 0}
        outs = {}
        for name, keys in {"history_only": {}, "old": old,
                           "epoch_completed": {**old, "epoch_completed": -3},
                           "best_metric": {**old, "best_metric": math.nan}}.items():
            (tmp_path / name).mkdir()
            rc, out = self.run("resume", standardized_run, lambda p: rewrite_header(
                p, lambda h: h["meta"]["progress"].update(keys)), tiny_training, tmp_path / name)
            assert rc == 0
            outs[name] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert outs["history_only"] == outs["old"] == outs["epoch_completed"] == outs["best_metric"]

    @pytest.mark.parametrize("command", ["evaluate", "resume"])
    @pytest.mark.parametrize("damage", sorted(REFUSED_ARRAY_VALUES))
    def test_array_value_outside_its_domain_is_one_domain_error_line(
        self, tiny_training, standardized_run, tmp_path, capsys, command, damage
    ):
        name, value = REFUSED_ARRAY_VALUES[damage]
        rc, out = self.run(command, standardized_run, lambda p: set_array_value(p, name, value),
                           tiny_training, tmp_path)
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: domain: {tmp_path / 'damaged.ckpt'}: "
                                                   f"array {name} holds a")
        assert not out.exists()


class TestEvaluateCli:
    def test_perfect_fit_scores_one(self, tiny_training, capsys):
        root = tiny_training["root"]
        ds = str(tiny_training["dataset"])
        # constant-label window: a short high-lr run drives it to perfection
        assert main(["train", "--train", ds, "--val", ds, "--epochs", "60",
                     "--lr", "1e-3", "--out", str(root / "fit"), "--patience", "0"]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(root / "fit" / "best.ckpt"),
                     "--dataset", ds, "--out", str(root / "eval"),
                     "--weights", "0.67,0.33"]) == 0
        summary = json.loads((root / "eval" / "eval_summary.json").read_text())
        assert summary["combined"] == pytest.approx(1.0)
        assert summary["weights"] == {"f1": 0.67, "accuracy": 0.33}
        pred_file = root / "eval" / "predictions" / "clip.txt"
        lines = pred_file.read_text().strip().split("\n")
        assert len(lines) == 15
        first = lines[0].split(",")
        assert first[0] == "0" and first[1] == "3" and len(first) == 10

    def test_no_evaluable_frames_is_reported(self, tmp_path, capsys, rng):
        # every frame unannotated (class 7): nothing is scored, and the report says so
        track = AnnotationTrack([-1] * 15, "clip")
        dataset = WindowDataset.from_videos([(track, rng.standard_normal((15, 168)),
                                              rng.standard_normal((15, 3)))])
        write_dataset(dataset, tmp_path / "d")
        save_checkpoint(tmp_path / "m.ckpt", FusionModel(ModelConfig(video_dim=3)))
        assert main(["evaluate", "--checkpoint", str(tmp_path / "m.ckpt"), "--dataset",
                     str(tmp_path / "d"), "--out", str(tmp_path / "eval")]) == 0
        report = "mode: fused (gru)\nframes evaluated: 0 of 15\nno evaluable frames\n"
        assert capsys.readouterr().out == report
        assert (tmp_path / "eval" / "report.txt").read_text() == report
        assert json.loads((tmp_path / "eval" / "eval_summary.json").read_text())["combined"] is None

    def test_weights_parsed_into_report(self, tiny_training):
        root = tiny_training["root"]
        ds = str(tiny_training["dataset"])
        assert main(["evaluate", "--checkpoint", str(root / "fit" / "best.ckpt"),
                     "--dataset", ds, "--out", str(root / "eval_w"),
                     "--weights", "0.5,0.5"]) == 0
        summary = json.loads((root / "eval_w" / "eval_summary.json").read_text())
        assert summary["weights"] == {"f1": 0.5, "accuracy": 0.5}

    def test_corrupt_dataset_is_corruption_error(self, tiny_training, capsys, tmp_path):
        root = tiny_training["root"]
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(tiny_training["dataset"], broken)
        packed = broken / PACKED
        packed.write_bytes(packed.read_bytes()[:-4])
        rc = main(["evaluate", "--checkpoint", str(root / "fit" / "best.ckpt"),
                   "--dataset", str(broken), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: corruption:")


class TestReportCli:
    def test_three_row_table(self, tmp_path, capsys):
        rows = [
            ("audio_only", 0.39), ("video_only", 0.399), ("fused", 0.415),
        ]
        paths = []
        for mode, combined in rows:
            p = tmp_path / f"{mode}.json"
            p.write_text(json.dumps({"mode": mode, "recurrent": "gru", "combined": combined}))
            paths.append(str(p))
        assert main(["report", "--summary", *paths]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0].split("|")[0].strip() == "Features"
        assert len(out) == 5  # header, rule, three rows
        assert "Audio only" in out[2] and "39.0%" in out[2]
        assert "Video only" in out[3] and "39.9%" in out[3]
        assert "Audio+Video" in out[4] and "41.5%" in out[4]

    @pytest.mark.parametrize("text", ["{", '{"mode": "fused"', "\udcb7"])
    def test_summary_not_json_is_corruption(self, tmp_path, capsys, text):
        path = tmp_path / "summary.json"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert main(["report", "--summary", str(path)]) == 1
        assert one_error_line(capsys, "corruption")

    @pytest.mark.parametrize(
        "summary",
        [
            [1],
            "fused",
            {"recurrent": "gru", "combined": 0.4},
            {"mode": "fused", "combined": 0.4},
            {"mode": "fused", "recurrent": "gru"},
            {"mode": "both", "recurrent": "gru", "combined": 0.4},
            {"mode": "fused", "recurrent": ["gru"], "combined": 0.4},
            {"mode": "fused", "recurrent": "gru", "combined": "high"},
        ],
    )
    def test_malformed_summary_is_schema_error(self, tmp_path, capsys, summary):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(summary))
        assert main(["report", "--summary", str(path)]) == 1
        assert one_error_line(capsys, "schema")

    def test_empty_summary_list_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--summary"])
        assert exc.value.code == 2


@pytest.fixture
def untrained(tmp_path):
    """An untrained checkpoint whose dims match the tiny dataset."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, FusionModel(ModelConfig(video_dim=3)))
    return path


class TestMalformedEvaluateInputs:
    def run_evaluate(self, ckpt, dataset, out, *extra):
        return main(["evaluate", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                     "--out", str(out), *extra])

    # float() would read "0_5" as 5.0 and "\u0663" (ARABIC-INDIC DIGIT THREE) as 3.0
    @pytest.mark.parametrize("weights", ["x", "1,2,3", "0.5", "0_5,1", "0.5,0.5_0", "\u0663,1",
                                         "0.5,\uff11"])
    def test_bad_weights_is_parse_error(self, tiny_training, untrained, tmp_path, capsys, weights):
        rc = self.run_evaluate(untrained, tiny_training["dataset"], tmp_path / "out",
                               "--weights", weights)
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: parse:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("weights", ["nan,1", "inf,0", "0.5,-inf"])
    def test_non_finite_weights_is_parse_error(self, tiny_training, untrained, tmp_path, capsys,
                                               weights):
        out = tmp_path / "out"
        assert self.run_evaluate(untrained, tiny_training["dataset"], out, "--weights", weights) == 1
        assert one_error_line(capsys, "parse")
        assert not out.exists()

    @pytest.mark.parametrize(
        "manifest, category",
        [("{", "corruption"), ('{"kind": "window_dataset"}', "schema"), ("[1]", "schema")],
    )
    def test_malformed_manifest(self, tiny_training, untrained, tmp_path, capsys,
                                manifest, category):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(tiny_training["dataset"], broken)
        rewrite_header(broken / PACKED, lambda h: manifest.encode())
        rc = self.run_evaluate(untrained, broken, tmp_path / "out")
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {category}:")

    def test_non_finite_feature_in_container_is_domain_error(
        self, tiny_training, untrained, tmp_path, capsys
    ):
        import shutil

        from test_dataset import rewrite_blob

        broken, out = tmp_path / "broken", tmp_path / "out"
        shutil.copytree(tiny_training["dataset"], broken)
        rewrite_blob(broken, "video", {(0, 6, 1): np.nan})
        assert self.run_evaluate(untrained, broken, out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: domain:")
        assert err[0].endswith("broken: video 'clip': non-finite video feature at frame 6")
        assert not out.exists()

    def test_undecodable_checkpoint_header(self, tiny_training, untrained, tmp_path, capsys):
        data = bytearray(untrained.read_bytes())
        data[16] = 0xFF
        untrained.write_bytes(bytes(data))
        rc = self.run_evaluate(untrained, tiny_training["dataset"], tmp_path / "out")
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: corruption:")

    @pytest.mark.parametrize("version", [0, 3])
    def test_unknown_checkpoint_format_version(self, tiny_training, untrained, tmp_path, capsys,
                                               version):
        rewrite_header(untrained, lambda h: h.update(format_version=version))
        rc = self.run_evaluate(untrained, tiny_training["dataset"], tmp_path / "out")
        assert rc == 1
        assert one_error_line(capsys, "schema")
        assert not (tmp_path / "out").exists()

    def test_format1_container_is_schema_error(self, untrained, tmp_path, capsys):
        data = os.path.join(os.path.dirname(__file__), "data", "format1_window_dataset")
        assert self.run_evaluate(untrained, data, tmp_path / "out") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: schema:")
        assert err[0].endswith("rerun the command that wrote it")
        assert not (tmp_path / "out").exists()

    def test_kinds_do_not_cross(self, tiny_training, untrained, tmp_path, capsys):
        # a container's packed file is no checkpoint, and a checkpoint no container
        ds = tiny_training["dataset"]
        assert self.run_evaluate(ds / PACKED, ds, tmp_path / "out") == 1
        assert one_error_line(capsys, "schema")
        placed = tmp_path / "placed"
        placed.mkdir()
        placed.joinpath(PACKED).write_bytes(untrained.read_bytes())
        assert self.run_evaluate(untrained, placed, tmp_path / "out") == 1
        assert one_error_line(capsys, "schema")
        assert not (tmp_path / "out").exists()

    def test_zero_video_container_is_coverage_error(self, untrained, tmp_path, capsys):
        empty = WindowDataset(
            audio=np.zeros((0, 15, 168)), video=np.zeros((0, 15, 3)),
            labels=np.zeros((0, 15)), start_frames=np.zeros(0), pad_counts=np.zeros(0),
            videos=[],
        )
        write_dataset(empty, tmp_path / "empty")
        rc = self.run_evaluate(untrained, tmp_path / "empty", tmp_path / "out")
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: coverage:")
        assert not (tmp_path / "out").exists()

    def test_zero_window_video_is_coverage_error(self, untrained, tmp_path, capsys):
        rng = np.random.default_rng(3)
        video_a = (AnnotationTrack([0] * 20, "a"), rng.standard_normal((20, 168)),
                   rng.standard_normal((20, 3)))
        dataset = WindowDataset.from_videos([video_a], window_len=15, stride=10)
        # a second video with frames but no windows
        dataset.videos.append(VideoEntry("b", 20, len(dataset.start_frames), 0))
        write_dataset(dataset, tmp_path / "data")
        rc = self.run_evaluate(untrained, tmp_path / "data", tmp_path / "out")
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: coverage:") and "'b'" in err[0]
        assert not (tmp_path / "out").exists()  # no predictions/ for video 'a' either

    def test_repeated_video_id_is_schema_error(self, untrained, tmp_path, capsys):
        rng = np.random.default_rng(4)
        videos = [(AnnotationTrack([0] * 20, vid), rng.standard_normal((20, 168)),
                   rng.standard_normal((20, 3))) for vid in ("same", "same")]
        write_dataset(WindowDataset.from_videos(videos), tmp_path / "data")
        rc = self.run_evaluate(untrained, tmp_path / "data", tmp_path / "out")
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: schema:")
        assert err[0].endswith("data: video_id 'same' appears twice")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stride", [math.nan, -1, 0, 9.9, 1.5, True])
    def test_stride_not_a_positive_integer_is_schema_error(self, tiny_training, untrained,
                                                           tmp_path, capsys, stride):
        broken, out = tmp_path / "broken", tmp_path / "out"
        shutil.copytree(tiny_training["dataset"], broken)
        rewrite_header(broken / PACKED, lambda h: h.update(stride=stride))
        assert self.run_evaluate(untrained, broken, out) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: schema: {broken}: stride must be an integer >= 1, got {stride!r}"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "video_id", ["../../escaped", "..", ".", "", ".hidden", "a/b", "a\\b", 7],
    )
    def test_unsafe_video_id_is_schema_error(self, tiny_training, untrained, tmp_path, capsys,
                                             video_id):
        import shutil

        broken = tmp_path / "data" / "broken"
        shutil.copytree(tiny_training["dataset"], broken)
        rewrite_header(broken / PACKED, lambda h: h["videos"][0].update(video_id=video_id))
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / "data" / "out"
        rc = self.run_evaluate(untrained, broken, out)
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: schema:")
        assert [p for p in sorted(tmp_path.rglob("*")) if out not in (p, *p.parents)] == before


def old_prediction_lines(labels, probs):
    """The per-value f-string formatting the prediction files were first written with."""
    out = []
    for i in range(len(labels)):
        row = ",".join(f"{p:.6f}" for p in probs[i])
        out.append(f"{i},{labels[i]},{row}\n")
    return "".join(out)


# 6-decimal ties (k + 0.5) * 1e-6 and their float neighbours, plus the ends of [0, 1]
_TIES = [(k + 0.5) * 1e-6 for k in (0, 1, 2, 499_999, 999_998, 123_456)]
_EDGES = [0.0, 1.0, 5e-7, 1.0 - 5e-7, 0.5, *_TIES,
          *(np.nextafter(t, d) for t in _TIES for d in (0.0, 1.0))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.tuples(
                st.integers(0, c - 1),
                st.lists(st.one_of(st.sampled_from(_EDGES), st.floats(0.0, 1.0)),
                         min_size=c, max_size=c),
            ),
            min_size=1, max_size=12,
        )
    )
)
def test_prediction_lines_equal_per_value_formatting(rows):
    labels = np.array([label for label, _ in rows], dtype=np.int64)
    probs = np.array([p for _, p in rows], dtype=np.float64)
    assert _prediction_lines(labels, probs) == old_prediction_lines(labels, probs)


def _fresh_python(*args):
    """Run ``python *args`` in a new interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(emofuse.__file__))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})


def test_extract_audio_in_a_fresh_process_loads_no_scipy(pipeline, tmp_path):
    """emofuse needs numpy alone: feature extraction, the one command that once
    used scipy, runs without loading any scipy module."""
    code = ("import sys; from emofuse.cli import main; rc = main(sys.argv[1:]); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')), rc)")
    run = _fresh_python("-c", code, "extract-audio", "--wav", str(pipeline["wav"]),
                        "--annotations", str(pipeline["ann"]), "--out", str(tmp_path / "audio"))
    assert run.stdout.splitlines()[-1] == "[] 0"


def imported_packages(path):
    """The top-level package of each absolute import in ``path``, and each string
    constant that names a scipy module, as ``importlib.import_module`` would take it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found |= {"scipy"} & {node.value.split(".")[0]}
    return found


def test_no_module_imports_scipy():
    src = pathlib.Path(emofuse.__file__).parent
    modules = sorted(src.rglob("*.py"))
    assert len(modules) > 10 and "numpy" in imported_packages(src / "audio.py")
    assert [p.name for p in modules if "scipy" in imported_packages(p)] == []


def test_every_module_level_name_is_read():
    """Each top-level def, class and assigned name in ``src/emofuse`` is read
    somewhere in ``src/``, ``bench/`` or ``tests/``: as a name, an attribute, or a
    string constant (``bench/tracing.py`` wraps functions by name). The statement
    census sees only function bodies, so this is the check on module-level lines.
    Dunder names are read by Python and packaging tools, not by code."""
    package = pathlib.Path(emofuse.__file__).parent
    defined = {}
    for path in sorted(package.rglob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update((n.id, path.name) for t in targets for n in ast.walk(t)
                               if isinstance(n, ast.Name))
    read = set()
    for path in (package.parents[1] / d for d in ("src", "bench", "tests")):
        for module in path.rglob("*.py"):
            for n in ast.walk(ast.parse(module.read_text(), str(module))):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    read.add(n.id)
                elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                    read.add(n.attr)
                elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                    read.add(n.value)
    assert len(defined) > 50 and "parse_openface_csv" in defined
    assert sorted(f"{module}:{name}" for name, module in defined.items()
                  if name not in read and not name.startswith("__")) == []


def test_extract_audio_in_a_fresh_process_writes_the_in_process_bytes(pipeline, tmp_path):
    out = tmp_path / "audio"
    _fresh_python("-m", "emofuse.cli", "extract-audio", "--wav", str(pipeline["wav"]),
                  "--annotations", str(pipeline["ann"]), "--out", str(out))
    assert os.listdir(out) == [PACKED]
    assert (out / PACKED).read_bytes() == (pipeline["audio"] / PACKED).read_bytes()
