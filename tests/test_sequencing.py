import numpy as np
import pytest

from emofuse.dataset import WindowDataset
from emofuse.errors import AlignmentError, DomainError, ParseError
from emofuse.sequencing import AnnotationTrack, parse_annotations, remap_label, window_starts


def make_video(n, audio_dim=4, video_dim=6, labels=None, video_id="v"):
    """``(track, audio, video)`` whose frame ``i`` holds ``i`` in audio, ``10 i`` in video."""
    labels = labels if labels is not None else [i % 7 for i in range(n)]
    frames = np.arange(n, dtype=np.float32)[:, None]
    audio = np.repeat(frames, audio_dim, axis=1)
    video = np.repeat(10 * frames, video_dim, axis=1)
    return AnnotationTrack(labels=list(labels), video_id=video_id), audio, video


def cut(n, **kwargs):
    return WindowDataset.from_videos([make_video(n, **kwargs)])


class TestRemapLabel:
    def test_unannotated_goes_to_seven(self):
        assert remap_label(-1) == 7

    @pytest.mark.parametrize("raw", range(0, 7))
    def test_identity_on_expressions(self, raw):
        assert remap_label(raw) == raw

    def test_out_of_range(self):
        for raw in (-2, 7, 100):
            with pytest.raises(DomainError):
                remap_label(raw)

    def test_bijection_onto_dense_classes(self):
        image = sorted(remap_label(r) for r in range(-1, 7))
        assert image == list(range(8))


class TestParseAnnotations:
    def test_plain_labels(self, tmp_path):
        p = tmp_path / "vid1.txt"
        p.write_text("0\n3\n-1\n6\n")
        track = parse_annotations(p)
        assert track.labels == [0, 3, -1, 6]
        assert track.video_id == "vid1"

    def test_header_line_skipped(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("Neutral,Anger,Disgust\n0\n1\n")
        assert parse_annotations(p).labels == [0, 1]

    def test_byte_order_mark_keeps_the_first_label(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_bytes(b"\xef\xbb\xbf3\n1\n-1\n")
        assert parse_annotations(p).labels == [3, 1, -1]

    def test_non_numeric_later_line_fails(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("0\nwhat\n")
        with pytest.raises(ParseError):
            parse_annotations(p)

    def test_out_of_range_label(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("0\n9\n")
        with pytest.raises(DomainError):
            parse_annotations(p)


class TestAlignModalities:
    def test_equal_counts(self):
        track = AnnotationTrack(labels=[0] * 100, video_id="v")
        ds = WindowDataset.from_videos([(track, np.zeros((100, 3)), np.zeros((100, 5)))])
        assert ds.videos[0].n_frames == 100

    def test_mismatch_reports_all_counts(self):
        track = AnnotationTrack(labels=[0] * 100, video_id="v")
        with pytest.raises(AlignmentError, match="annotations=100.*audio=99.*video=100"):
            WindowDataset.from_videos([(track, np.zeros((99, 3)), np.zeros((100, 5)))])

    def test_labels_remapped_per_frame(self):
        track = AnnotationTrack(labels=[-1, 0, 5], video_id="v")
        ds = WindowDataset.from_videos([(track, np.zeros((3, 2)), np.zeros((3, 2)))])
        np.testing.assert_array_equal(ds.labels[0, :3], [7, 0, 5])
        np.testing.assert_array_equal(remap_label([-1, 0, 5]), [7, 0, 5])


class TestWindowStarts:
    def test_exact_fit(self):
        assert window_starts(15) == [0]

    def test_stride_grid_covers(self):
        assert window_starts(25) == [0, 10]

    def test_tail_window_added(self):
        assert window_starts(27) == [0, 10, 12]

    def test_short_video_single_start(self):
        assert window_starts(7) == [0]

    def test_zero_frames_rejected(self):
        with pytest.raises(DomainError):
            window_starts(0)

    @pytest.mark.parametrize("n_frames", [40, 15, 3])
    def test_stride_beyond_window_rejected(self, n_frames):
        # window_starts(40, 15, 20) would be [0, 20, 25], leaving frames 15-19 uncovered
        with pytest.raises(DomainError, match=r"stride \(20\) cannot exceed the window length \(15\)"):
            window_starts(n_frames, 15, 20)

    def test_stride_equal_to_window_abuts_windows(self):
        assert window_starts(40, 15, 15) == [0, 15, 25]

    def test_coverage_and_count_formula_sweep(self):
        for n in range(1, 5001):
            starts = window_starts(n)
            covered = np.zeros(n, dtype=bool)
            for s in starts:
                covered[s : s + 15] = True
            assert covered.all(), n
            if n >= 15:
                expected = (n - 15) // 10 + 1 + (1 if (n - 15) % 10 else 0)
                assert len(starts) == expected, n
                assert all(s + 15 <= n for s in starts)
            else:
                assert starts == [0]


class TestCutWindows:
    def test_verbatim_single_window(self):
        track, audio, _ = make_video(15)
        ds = cut(15)
        assert ds.start_frames.tolist() == [0] and ds.pad_counts.tolist() == [0]
        np.testing.assert_array_equal(ds.audio[0], audio)
        np.testing.assert_array_equal(ds.labels[0], track.labels)

    def test_overlap_rows_shared(self):
        ds = cut(25)
        assert ds.n_windows == 2
        # windows share frames 10..14: last 5 rows of window 0, first 5 of window 1
        np.testing.assert_array_equal(ds.audio[0, 10:], ds.audio[1, :5])
        np.testing.assert_array_equal(ds.video[0, 10:], ds.video[1, :5])
        np.testing.assert_array_equal(ds.labels[0, 10:], ds.labels[1, :5])

    def test_replicate_padding(self):
        track, audio, video = make_video(7)
        ds = cut(7)
        assert ds.pad_counts.tolist() == [8]
        for row in range(7, 15):
            np.testing.assert_array_equal(ds.audio[0, row], audio[6])
            np.testing.assert_array_equal(ds.video[0, row], video[6])
            assert ds.labels[0, row] == track.labels[6]

    def test_tail_window_start(self):
        ds = cut(27)
        assert ds.start_frames.tolist() == [0, 10, 12]
        assert ds.pad_counts.tolist() == [0, 0, 0]

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            cut(0)
