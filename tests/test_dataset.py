import hashlib
import json
import math
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emofuse.dataset import (
    PACKED,
    VideoEntry,
    WindowDataset,
    read_dataset,
    read_frame_features,
    write_dataset,
    write_frame_features,
)
from emofuse.errors import CorruptionError, CoverageError, DomainError, SchemaError
from emofuse.sequencing import AnnotationTrack

from oracles import cut_windows_direct, from_videos_concat
from test_model import rewrite_header
from test_sequencing import make_video


def build_dataset(rng, n_videos=2, audio_dim=5, video_dim=9):
    videos = [
        make_video(17 + 12 * v, audio_dim=audio_dim, video_dim=video_dim, video_id=f"vid{v}")
        for v in range(n_videos)
    ]
    return WindowDataset.from_videos(videos, meta={"dsp": {"n_fft": 2048}})


def rewrite_blob(path, name, cells):
    """Set ``{index: value}`` ``cells`` of container array ``name`` and store it with
    a matching checksum, as a hand edit that keeps the container well-formed would."""
    packed = path / PACKED
    data = bytearray(packed.read_bytes())
    (n,) = struct.unpack_from("<Q", data, 8)
    header = json.loads(data[16 : 16 + n])
    (entry,) = [e for e in header["arrays"] if e["name"] == name]
    array = np.frombuffer(data, dtype="<f4", count=entry["nbytes"] // 4,
                          offset=16 + n + entry["offset"]).reshape(entry["shape"])
    for index, value in cells.items():
        array[index] = value
    packed.write_bytes(bytes(data))
    sha = hashlib.sha256(data[16 + n :]).hexdigest()
    rewrite_header(packed, lambda h: h.update(blob_sha256=sha))


class TestFrameFeatureContainer:
    def test_wrong_modality_is_schema_error(self, tmp_path, rng):
        write_frame_features(tmp_path / "c", rng.standard_normal((4, 3)), "audio")
        assert read_frame_features(tmp_path / "c", modality="audio")[0].shape == (4, 3)
        with pytest.raises(SchemaError, match="'audio' features, expected 'video'"):
            read_frame_features(tmp_path / "c", modality="video")

    def test_roundtrip(self, tmp_path, rng):
        feats = rng.standard_normal((12, 7)).astype(np.float32)
        write_frame_features(tmp_path / "c", feats, "audio", meta={"video_id": "x"})
        got, header = read_frame_features(tmp_path / "c")
        np.testing.assert_array_equal(got, feats)
        assert header["modality"] == "audio"
        assert header["meta"]["video_id"] == "x"

    def test_truncated_blob_is_corruption(self, tmp_path, rng):
        feats = rng.standard_normal((12, 7)).astype(np.float32)
        write_frame_features(tmp_path / "c", feats, "audio")
        packed = tmp_path / "c" / PACKED
        packed.write_bytes(packed.read_bytes()[:-8])
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
        packed = tmp_path / "d" / PACKED
        packed.write_bytes(packed.read_bytes()[:-4])
        with pytest.raises(CorruptionError):
            read_dataset(tmp_path / "d")

    def test_flipped_bit_fails_checksum(self, tmp_path, rng):
        write_dataset(build_dataset(rng), tmp_path / "d")
        packed = tmp_path / "d" / PACKED
        data = bytearray(packed.read_bytes())
        (n,) = struct.unpack_from("<Q", data, 8)
        (video,) = [e for e in json.loads(data[16 : 16 + n])["arrays"] if e["name"] == "video"]
        data[16 + n + video["offset"] + 10] ^= 0xFF
        packed.write_bytes(bytes(data))
        with pytest.raises(CorruptionError, match="checksum"):
            read_dataset(tmp_path / "d")

    def test_manifest_dim_disagreement_is_schema_error(self, tmp_path, rng):
        write_dataset(build_dataset(rng), tmp_path / "d")
        rewrite_header(tmp_path / "d" / PACKED, lambda h: h.update(video_dim=h["video_dim"] + 1))
        with pytest.raises(SchemaError):
            read_dataset(tmp_path / "d")

    def test_video_windows_slicing(self, rng):
        ds = build_dataset(rng, n_videos=3)
        offsets = [v.window_offset for v in ds.videos]
        assert offsets == sorted(offsets)
        total = sum(v.window_count for v in ds.videos)
        assert total == ds.n_windows
        # a video's slice of the container is that video windowed on its own
        entry = ds.videos[1]
        alone = WindowDataset.from_videos([make_video(entry.n_frames, 5, 9)])
        lo, hi = entry.window_offset, entry.window_offset + entry.window_count
        assert alone.n_windows == entry.window_count
        for name in ("audio", "video", "labels", "start_frames", "pad_counts"):
            np.testing.assert_array_equal(getattr(ds, name)[lo:hi], getattr(alone, name))

    def test_labels_integer_exact_after_roundtrip(self, tmp_path, rng):
        ds = build_dataset(rng)
        write_dataset(ds, tmp_path / "d")
        back = read_dataset(tmp_path / "d")
        assert back.labels.dtype == np.int64
        assert set(np.unique(back.labels)) <= set(range(8))


class TestBlobValues:
    @pytest.mark.parametrize(
        "blob, value",
        [
            ("labels", 9), ("labels", 8), ("labels", -3), ("labels", 2.5), ("labels", np.nan),
            ("start_frames", -1), ("start_frames", 10.5), ("start_frames", np.nan),
            ("start_frames", 3e19),  # integral, but no int64 holds it
            ("pad_counts", -2), ("pad_counts", 0.5), ("pad_counts", 15), ("pad_counts", np.inf),
        ],
    )
    def test_bad_window_value_is_schema_error_naming_the_first_window(
        self, tmp_path, rng, blob, value
    ):
        write_dataset(build_dataset(rng), tmp_path / "d")
        rewrite_blob(tmp_path / "d", blob, {4: value, 2: value})  # window 2 is named
        name = blob.rstrip("s")
        with pytest.raises(SchemaError, match=rf"d: window 2 has {name} {re.escape(f'{value:g}')}, "):
            read_dataset(tmp_path / "d")

    def test_boundary_values_read(self, tmp_path):
        # a 1-frame video's one window holds the most padded rows a window can
        ds = WindowDataset.from_videos([make_video(1, 5, 9)])
        assert ds.pad_counts.tolist() == [14]
        write_dataset(ds, tmp_path / "d")
        rewrite_blob(tmp_path / "d", "labels", {(0, 0): 7})
        back = read_dataset(tmp_path / "d")
        assert back.labels[0, 0] == 7 and back.pad_counts[0] == 14

    @pytest.mark.parametrize("modality", ["audio", "video"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_container_video_and_frame(
        self, tmp_path, rng, modality, value
    ):
        ds = build_dataset(rng, n_videos=3)
        entry = ds.videos[2]
        w = entry.window_offset + 1
        write_dataset(ds, tmp_path / "d")
        cells = {
            (w, 0, 1): value,
            (w - 1, 14, 0): value,  # a later frame, but an earlier row
            (w + 1, 5, 2): value,  # a later window
        }
        rewrite_blob(tmp_path / "d", modality, cells)
        frame = ds.start_frames[w]
        assert ds.start_frames[w - 1] + 14 > frame
        with pytest.raises(
            DomainError,
            match=rf"d: video '{entry.video_id}': non-finite {modality} feature at frame {frame}$",
        ):
            read_dataset(tmp_path / "d")

    def test_non_finite_padded_row_names_the_last_frame(self, tmp_path):
        ds = WindowDataset.from_videos([make_video(10, 5, 9, video_id="short")])
        assert ds.n_windows == 1 and ds.pad_counts[0] == 5
        write_dataset(ds, tmp_path / "d")
        rewrite_blob(tmp_path / "d", "video", {(0, 14, 0): np.nan})
        with pytest.raises(DomainError, match=r"non-finite video feature at frame 9$"):
            read_dataset(tmp_path / "d")


def windows_at(starts, n_frames, pad_counts=None, window_len=5, labels=None):
    """A one-video container (``'v'``, ``n_frames`` frames) with windows at ``starts``."""
    w = len(starts)
    rng = np.random.default_rng(0)
    return WindowDataset(
        audio=rng.standard_normal((w, window_len, 3)).astype(np.float32),
        video=rng.standard_normal((w, window_len, 4)).astype(np.float32),
        labels=np.zeros((w, window_len), dtype=np.int64) if labels is None else np.array(labels),
        start_frames=np.array(starts, dtype=np.int64),
        pad_counts=np.array(pad_counts or [0] * w, dtype=np.int64),
        videos=[VideoEntry("v", n_frames, 0, w)],
        window_len=window_len,
        stride=window_len,  # a record only; the constructor refuses one beyond the window
    )


def reread(dataset, path):
    write_dataset(dataset, path)
    return read_dataset(path)


def test_repeated_video_id_is_schema_error(tmp_path):
    # each video's id names its prediction file, so a second 'same' would overwrite the first
    videos = [make_video(17, video_id=vid) for vid in ("same", "other", "same")]
    with pytest.raises(SchemaError, match=r"d: video_id 'same' appears twice$"):
        reread(WindowDataset.from_videos(videos), tmp_path / "d")


class TestCoverage:
    """read_dataset refuses a container whose windows leave a video's frame
    uncovered, run past its end or disagree on a frame's label; every command
    reads containers through it."""

    def test_uncovered_frame_is_coverage_error(self, tmp_path):
        with pytest.raises(CoverageError, match=r"d: video 'v': frame 5 not covered by any window$"):
            reread(windows_at([0], n_frames=7), tmp_path / "d")

    def test_window_past_end_is_coverage_error(self, tmp_path):
        with pytest.raises(
            CoverageError, match=r"d: video 'v': window at 3 \(\+5 real rows\) exceeds 5 frames$"
        ):
            reread(windows_at([3], n_frames=5), tmp_path / "d")

    def test_empty_container_is_coverage_error(self, tmp_path):
        empty = WindowDataset(
            audio=np.zeros((0, 5, 6)), video=np.zeros((0, 5, 8)), labels=np.zeros((0, 5)),
            start_frames=np.zeros(0), pad_counts=np.zeros(0), videos=[], window_len=5, stride=5,
        )
        with pytest.raises(CoverageError, match=r"d: dataset holds no videos$"):
            reread(empty, tmp_path / "d")

    @pytest.mark.parametrize("second, message", [
        (VideoEntry("b", 7, 1, 1), "video 'b': frame 5 not covered"),
        (VideoEntry("b", 7, 2, 0), "video 'b' has no windows"),
    ])
    def test_coverage_error_names_a_later_video(self, tmp_path, second, message):
        dataset = windows_at([0, 0], n_frames=5)
        dataset.videos[:] = [VideoEntry("a", 5, 0, 2 - second.window_count), second]
        with pytest.raises(CoverageError, match=f"d: {message}"):
            reread(dataset, tmp_path / "d")

    @pytest.mark.parametrize("order", [[0, 1], [1, 0]])
    def test_disagreeing_labels_are_coverage_error(self, tmp_path, order):
        starts, labels = np.array([0, 2]), np.array([[0, 0, 1, 1], [2, 2, 2, 2]])
        dataset = windows_at(starts[order], n_frames=6, window_len=4, labels=labels[order])
        with pytest.raises(
            CoverageError, match=r"d: video 'v': windows disagree on the label of frame 2$"
        ):
            reread(dataset, tmp_path / "d")

    def test_disagreement_names_a_later_video(self, tmp_path):
        dataset = windows_at([0, 0, 2], n_frames=7)
        dataset.videos[:] = [VideoEntry("a", 5, 0, 1), VideoEntry("b", 7, 1, 2)]
        dataset.labels[2, 1] = 3  # frame 3 of b: 0 in its first window, 3 in its second
        with pytest.raises(CoverageError, match="d: video 'b': windows disagree on the label of frame 3"):
            reread(dataset, tmp_path / "d")

    def test_padded_rows_may_hold_any_label(self, tmp_path):
        # the window at 0 holds frames 0-2 and a padded row at frame 3, whose
        # label differs from the real row of the window at 2 there
        labels = [[1, 1, 2, 5], [2, 3, 3, 3]]
        dataset = windows_at([0, 2], n_frames=6, pad_counts=[1, 0], window_len=4, labels=labels)
        np.testing.assert_array_equal(reread(dataset, tmp_path / "d").labels, labels)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        lengths=st.lists(st.integers(1, 45), min_size=1, max_size=4),
        length_stride=st.integers(1, 15).flatmap(
            lambda length: st.tuples(st.just(length), st.integers(1, length))
        ),
    )
    def test_every_built_container_reads_back_unchanged(self, lengths, length_stride):
        length, stride = length_stride
        videos = [video_arrays(n, video_id=f"v{i}", seed=i) for i, n in enumerate(lengths)]
        ds = WindowDataset.from_videos(videos, window_len=length, stride=stride, meta={"k": 1})
        with tempfile.TemporaryDirectory() as root:
            back = reread(ds, f"{root}/d")
        for name in ("audio", "video", "labels", "start_frames", "pad_counts"):
            got, want = getattr(back, name), getattr(ds, name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert back.videos == ds.videos and back.meta == ds.meta
        assert (back.window_len, back.stride) == (length, stride)


class TestMalformedManifest:
    def test_invalid_json_is_corruption(self, tmp_path, rng):
        write_dataset(build_dataset(rng), tmp_path / "d")
        rewrite_header(tmp_path / "d" / PACKED, lambda h: b"{")
        with pytest.raises(CorruptionError, match="JSON"):
            read_dataset(tmp_path / "d")

    def test_non_object_manifest_is_schema_error(self, tmp_path, rng):
        write_dataset(build_dataset(rng), tmp_path / "d")
        rewrite_header(tmp_path / "d" / PACKED, lambda h: b"[]")
        with pytest.raises(SchemaError):
            read_dataset(tmp_path / "d")

    def test_repeated_array_is_schema_error(self, tmp_path, rng):
        # a later entry of one name would replace the earlier one unseen
        write_dataset(build_dataset(rng), tmp_path / "d")
        rewrite_header(tmp_path / "d" / PACKED, lambda h: h["arrays"].append(
            next(e for e in h["arrays"] if e["name"] == "labels")))
        with pytest.raises(SchemaError, match=f"{PACKED}: array labels appears twice$"):
            read_dataset(tmp_path / "d")

    @pytest.mark.parametrize("key", ["arrays", "n_windows", "videos"])
    def test_dataset_missing_key_is_schema_error(self, tmp_path, rng, key):
        write_dataset(build_dataset(rng), tmp_path / "d")
        rewrite_header(tmp_path / "d" / PACKED, lambda h: h.pop(key))
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
        rewrite_header(tmp_path / "d" / PACKED, lambda h: h["videos"][video].update(edit))
        with pytest.raises(SchemaError, match=next(iter(edit))):
            read_dataset(tmp_path / "d")

    @pytest.mark.parametrize("stride", [math.nan, -1, 0, 9.9, 1.5, True])
    def test_stride_not_a_positive_integer_is_schema_error(self, tmp_path, rng, stride):
        # the rule window_starts holds the stride that cut the windows to
        write_dataset(build_dataset(rng), tmp_path / "d")
        rewrite_header(tmp_path / "d" / PACKED, lambda h: h.update(stride=stride))
        with pytest.raises(SchemaError, match=r"d: stride must be an integer >= 1, got "):
            read_dataset(tmp_path / "d")

    @pytest.mark.parametrize("stride", [1, 15])
    def test_stride_up_to_the_window_reads(self, tmp_path, rng, stride):
        write_dataset(build_dataset(rng), tmp_path / "d")
        rewrite_header(tmp_path / "d" / PACKED, lambda h: h.update(stride=stride))
        assert read_dataset(tmp_path / "d").stride == stride

    @pytest.mark.parametrize("stride", [16, 20])
    def test_stride_beyond_the_window_is_schema_error(self, tmp_path, rng, stride):
        # window_starts refuses such a stride, so no container from_videos builds holds one
        write_dataset(build_dataset(rng), tmp_path / "d")
        rewrite_header(tmp_path / "d" / PACKED, lambda h: h.update(stride=stride))
        with pytest.raises(SchemaError, match=rf"d: stride {stride} exceeds window_len 15$"):
            read_dataset(tmp_path / "d")

    @pytest.mark.parametrize("stride, message", [
        ({}, "stride 10 exceeds window_len 5"),  # the default stride, WINDOW_STRIDE
        ({"stride": 0}, "stride must be an integer >= 1, got 0"),
    ], ids=["default", "zero"])
    def test_hand_built_bad_stride_is_refused_before_writing(self, tmp_path, stride, message):
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            write_dataset(WindowDataset(
                audio=np.zeros((1, 5, 3)), video=np.zeros((1, 5, 4)), labels=np.zeros((1, 5)),
                start_frames=np.zeros(1), pad_counts=np.zeros(1), videos=[VideoEntry("v", 5, 0, 1)],
                window_len=5, **stride,
            ), tmp_path / "d")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("drop", [("arrays",), ("arrays", "features")])
    def test_frame_features_missing_key_is_schema_error(self, tmp_path, rng, drop):
        # drop the header's array index, or the index's entry for the features
        write_frame_features(tmp_path / "c", rng.standard_normal((4, 3)), "video")

        def edit(header):
            if len(drop) == 1:
                del header[drop[0]]
            else:
                header[drop[0]] = [e for e in header[drop[0]] if e["name"] != drop[1]]

        rewrite_header(tmp_path / "c" / PACKED, edit)
        with pytest.raises(SchemaError, match=drop[-1]):
            read_frame_features(tmp_path / "c")


def video_arrays(n, audio_dim=3, video_dim=4, video_id="v", seed=0):
    rng = np.random.default_rng(seed)
    track = AnnotationTrack(labels=rng.integers(-1, 7, size=n).tolist(), video_id=video_id)
    return track, rng.standard_normal((n, audio_dim)), rng.standard_normal((n, video_dim))


class TestFromVideos:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        lengths=st.lists(st.integers(1, 60), min_size=1, max_size=3),
        length_stride=st.integers(1, 20).flatmap(
            lambda length: st.tuples(st.just(length), st.integers(1, length))
        ),
    )
    def test_gather_equals_per_window_cut(self, lengths, length_stride):
        length, stride = length_stride
        videos = [video_arrays(n, video_id=f"v{i}", seed=i) for i, n in enumerate(lengths)]
        ds = WindowDataset.from_videos(videos, window_len=length, stride=stride)
        want = [cut_windows_direct(a, v, t.labels, length, stride) for t, a, v in videos]
        fields = (ds.audio, ds.video, ds.labels, ds.start_frames, ds.pad_counts)
        for got, parts in zip(fields, zip(*want)):
            expected = np.concatenate(parts)
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)
        assert [(e.n_frames, e.window_count) for e in ds.videos] == [
            (n, len(w[3])) for n, w in zip(lengths, want)
        ]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        lengths=st.lists(st.integers(1, 40), min_size=1, max_size=4),
        length_stride=st.integers(1, 20).flatmap(
            lambda length: st.tuples(st.just(length), st.integers(1, length))
        ),
    )
    def test_one_copy_gather_equals_gather_then_concatenate(self, lengths, length_stride):
        # lengths below the window give padded windows; a stride of the window length abuts them
        length, stride = length_stride
        videos = [video_arrays(n, video_id=f"v{i}", seed=i) for i, n in enumerate(lengths)]
        ds = WindowDataset.from_videos(videos, window_len=length, stride=stride)
        got = (ds.audio, ds.video, ds.labels, ds.start_frames, ds.pad_counts)
        for name, g, want in zip(("audio", "video", "labels", "starts", "pads"), got,
                                 from_videos_concat(videos, length, stride)):
            assert g.dtype == want.dtype and g.shape == want.shape, name
            np.testing.assert_array_equal(g, want, err_msg=name)

    @pytest.mark.parametrize("n_frames", [40, 7])
    def test_stride_beyond_window_is_domain_error(self, n_frames):
        # at 40 frames, starts 0, 20, 25 would leave frames 15-19 in no window
        with pytest.raises(DomainError, match=r"^stride \(20\) cannot exceed the window length \(15\)$"):
            WindowDataset.from_videos([video_arrays(n_frames)], window_len=15, stride=20)

    def test_width_mismatch_names_video_and_widths(self):
        first = video_arrays(20, audio_dim=6, video_id="a")
        second = video_arrays(20, audio_dim=5, video_id="b")
        with pytest.raises(SchemaError, match="video 'b': audio width 5, earlier videos have 6"):
            WindowDataset.from_videos([first, second])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_video_modality_and_frame(self, value):
        track, audio, video = video_arrays(20, video_id="clip")
        video[7, 0] = value
        video[4, 3] = value
        with pytest.raises(DomainError, match="video 'clip': non-finite video feature at frame 4"):
            WindowDataset.from_videos([(track, audio, video)])

    def test_label_outside_domain(self):
        track, audio, video = video_arrays(3)
        with pytest.raises(DomainError, match="label 9"):
            WindowDataset.from_videos([(AnnotationTrack([0, 9, 1], "v"), audio, video)])

    def test_features_must_be_matrices(self):
        track, audio, video = video_arrays(3)
        with pytest.raises(SchemaError, match="not 2-D"):
            WindowDataset.from_videos([(track, audio, video[:, :, None])])

    def test_no_videos(self):
        with pytest.raises(SchemaError, match="no windows"):
            WindowDataset.from_videos([])
