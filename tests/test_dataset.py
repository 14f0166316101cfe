import json

import numpy as np
import pytest

from emofuse.dataset import (
    WindowDataset,
    read_dataset,
    read_frame_features,
    write_dataset,
    write_frame_features,
)
from emofuse.errors import CorruptionError, SchemaError
from emofuse.sequencing import cut_windows

from test_sequencing import make_frames


def build_dataset(rng, n_videos=2, audio_dim=5, video_dim=9):
    per_video = []
    for v in range(n_videos):
        n = 17 + 12 * v
        frames = make_frames(n, audio_dim=audio_dim, video_dim=video_dim)
        per_video.append((f"vid{v}", n, cut_windows(frames)))
    return WindowDataset.from_video_windows(per_video, meta={"dsp": {"n_fft": 2048}})


class TestFrameFeatureContainer:
    def test_roundtrip(self, tmp_path, rng):
        feats = rng.standard_normal((12, 7)).astype(np.float32)
        write_frame_features(tmp_path / "c", feats, "audio", meta={"video_id": "x"})
        got, manifest = read_frame_features(tmp_path / "c")
        np.testing.assert_array_equal(got, feats)
        assert manifest["modality"] == "audio"
        assert manifest["meta"]["video_id"] == "x"

    def test_truncated_blob_is_corruption(self, tmp_path, rng):
        feats = rng.standard_normal((12, 7)).astype(np.float32)
        write_frame_features(tmp_path / "c", feats, "audio")
        blob = tmp_path / "c" / "features.f32"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(CorruptionError):
            read_frame_features(tmp_path / "c")


class TestWindowDatasetContainer:
    def test_roundtrip_exact(self, tmp_path, rng):
        ds = build_dataset(rng)
        write_dataset(ds, tmp_path / "d")
        back = read_dataset(tmp_path / "d")
        np.testing.assert_array_equal(back.audio, ds.audio)
        np.testing.assert_array_equal(back.video, ds.video)
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.start_frames, ds.start_frames)
        np.testing.assert_array_equal(back.pad_counts, ds.pad_counts)
        assert back.videos == ds.videos
        assert back.meta == ds.meta
        assert back.window_len == ds.window_len and back.stride == ds.stride

    def test_truncated_blob(self, tmp_path, rng):
        write_dataset(build_dataset(rng), tmp_path / "d")
        blob = tmp_path / "d" / "audio.f32"
        blob.write_bytes(blob.read_bytes()[:-4])
        with pytest.raises(CorruptionError):
            read_dataset(tmp_path / "d")

    def test_flipped_bit_fails_checksum(self, tmp_path, rng):
        write_dataset(build_dataset(rng), tmp_path / "d")
        blob = tmp_path / "d" / "video.f32"
        data = bytearray(blob.read_bytes())
        data[10] ^= 0xFF
        blob.write_bytes(bytes(data))
        with pytest.raises(CorruptionError, match="checksum"):
            read_dataset(tmp_path / "d")

    def test_manifest_dim_disagreement_is_schema_error(self, tmp_path, rng):
        write_dataset(build_dataset(rng), tmp_path / "d")
        mpath = tmp_path / "d" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["video_dim"] = manifest["video_dim"] + 1
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(SchemaError):
            read_dataset(tmp_path / "d")

    def test_video_windows_slicing(self, rng):
        ds = build_dataset(rng, n_videos=3)
        offsets = [v.window_offset for v in ds.videos]
        assert offsets == sorted(offsets)
        total = sum(v.window_count for v in ds.videos)
        assert total == ds.n_windows
        windows = ds.video_windows(ds.videos[1])
        assert len(windows) == ds.videos[1].window_count
        np.testing.assert_array_equal(
            windows[0].audio_seq, ds.audio[ds.videos[1].window_offset]
        )

    def test_labels_integer_exact_after_roundtrip(self, tmp_path, rng):
        ds = build_dataset(rng)
        write_dataset(ds, tmp_path / "d")
        back = read_dataset(tmp_path / "d")
        assert back.labels.dtype == np.int64
        assert set(np.unique(back.labels)) <= set(range(8))


class TestMalformedManifest:
    def test_invalid_json_is_corruption(self, tmp_path, rng):
        write_dataset(build_dataset(rng), tmp_path / "d")
        (tmp_path / "d" / "manifest.json").write_text("{")
        with pytest.raises(CorruptionError, match="JSON"):
            read_dataset(tmp_path / "d")

    def test_non_object_manifest_is_schema_error(self, tmp_path, rng):
        write_dataset(build_dataset(rng), tmp_path / "d")
        (tmp_path / "d" / "manifest.json").write_text("[]")
        with pytest.raises(SchemaError):
            read_dataset(tmp_path / "d")

    @pytest.mark.parametrize("key", ["blobs", "n_windows", "videos"])
    def test_dataset_missing_key_is_schema_error(self, tmp_path, rng, key):
        write_dataset(build_dataset(rng), tmp_path / "d")
        mpath = tmp_path / "d" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        del manifest[key]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match=key):
            read_dataset(tmp_path / "d")

    @pytest.mark.parametrize(
        "video, edit",
        [
            (1, {"n_frames": -3}),
            (1, {"n_frames": 0}),
            (1, {"n_frames": 2.5}),
            (0, {"n_frames": True}),
            (0, {"window_offset": 1}),  # overlaps the next video's windows
            (1, {"window_offset": 0}),
            (0, {"window_count": -1}),
            (1, {"window_count": "3"}),
        ],
    )
    def test_bad_video_entry_is_schema_error(self, tmp_path, rng, video, edit):
        write_dataset(build_dataset(rng), tmp_path / "d")
        mpath = tmp_path / "d" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["videos"][video].update(edit)
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match=next(iter(edit))):
            read_dataset(tmp_path / "d")

    @pytest.mark.parametrize("drop", [("blobs",), ("blobs", "features")])
    def test_frame_features_missing_key_is_schema_error(self, tmp_path, rng, drop):
        write_frame_features(tmp_path / "c", rng.standard_normal((4, 3)), "video")
        mpath = tmp_path / "c" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        parent = manifest
        for key in drop[:-1]:
            parent = parent[key]
        del parent[drop[-1]]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match=drop[-1]):
            read_frame_features(tmp_path / "c")
