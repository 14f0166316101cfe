import re

import numpy as np
import pytest

from emofuse.errors import ParseError, SchemaError
from emofuse.video import (
    META_COLUMNS,
    ColumnSelection,
    default_selection,
    load_column_manifest,
    parse_openface_csv,
)


def openface_header_enumeration():
    """The 2.x FeatureExtraction feature columns, rebuilt name by name."""
    cols = [f"gaze_{i}_{a}" for i in (0, 1) for a in "xyz"]
    cols += ["gaze_angle_x", "gaze_angle_y"]
    cols += [f"eye_lmk_{a}_{i}" for a in ("x", "y") for i in range(56)]
    cols += [f"eye_lmk_{a}_{i}" for a in ("X", "Y", "Z") for i in range(56)]
    cols += [f"pose_{a}" for a in ("Tx", "Ty", "Tz", "Rx", "Ry", "Rz")]
    cols += [f"{a}_{i}" for a in ("x", "y") for i in range(68)]
    cols += [f"{a}_{i}" for a in ("X", "Y", "Z") for i in range(68)]
    cols += ["p_scale", "p_rx", "p_ry", "p_rz", "p_tx", "p_ty"]
    cols += [f"p_{i}" for i in range(34)]
    au_r = (1, 2, 4, 5, 6, 7, 9, 10, 12, 14, 15, 17, 20, 23, 25, 26, 45)
    au_c = (1, 2, 4, 5, 6, 7, 9, 10, 12, 14, 15, 17, 20, 23, 25, 26, 28, 45)
    cols += [f"AU{i:02d}_r" for i in au_r]
    cols += [f"AU{i:02d}_c" for i in au_c]
    return cols


def write_csv(path, columns, rows):
    with open(path, "w") as fh:
        fh.write(", ".join(columns) + "\n")  # OpenFace pads after commas
        for row in rows:
            fh.write(", ".join(str(v) for v in row) + "\n")


@pytest.fixture
def small_selection():
    return ColumnSelection(("pose_Rx", "pose_Ry", "AU01_r"), 3)


class TestDefaultSelection:
    def test_matches_enumerated_openface_header(self):
        sel = default_selection()
        assert list(sel.include_columns) == openface_header_enumeration()

    def test_expected_dim_consistent(self):
        sel = default_selection()
        assert sel.expected_dim == len(sel.include_columns) == 709
        # the extractor's full row adds the five bookkeeping columns
        assert sel.expected_dim + len(META_COLUMNS) == 714

    def test_duplicate_free(self):
        sel = default_selection()
        assert len(set(sel.include_columns)) == sel.expected_dim

    def test_names_follow_openface_conventions(self):
        patterns = [
            r"gaze_[01]_[xyz]$",
            r"gaze_angle_[xy]$",
            r"eye_lmk_[xyXYZ]_\d+$",
            r"pose_[TR][xyz]$",
            r"[xyXYZ]_\d+$",
            r"p_(scale|rx|ry|rz|tx|ty|\d+)$",
            r"AU\d{2}_[rc]$",
        ]
        joined = re.compile("|".join(patterns))
        for name in default_selection().include_columns:
            assert joined.match(name), name


class TestColumnSelection:
    def test_duplicates_rejected(self):
        with pytest.raises(SchemaError):
            ColumnSelection(("a", "b", "a"), 3)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            ColumnSelection(("a", "b"), 3)

    def test_manifest_loader_skips_comments(self, tmp_path):
        p = tmp_path / "cols.txt"
        p.write_text("# comment\npose_Rx\n\npose_Ry  # inline\n")
        sel = load_column_manifest(p)
        assert sel.include_columns == ("pose_Rx", "pose_Ry")
        assert sel.expected_dim == 2


class TestParseOpenfaceCsv:
    def test_full_width_rows(self, tmp_path, rng):
        # a selection of 714 columns: all features plus the metadata five
        features = openface_header_enumeration()
        header = list(META_COLUMNS) + features
        sel = ColumnSelection(tuple(header), 714)
        rows = []
        for i in range(3):
            rows.append([i + 1, 0, i * 0.033, 0.98, 1] + list(rng.random(len(features))))
        path = tmp_path / "of.csv"
        write_csv(path, header, rows)
        records = parse_openface_csv(path, sel)
        assert len(records) == 3
        for r in records:
            assert r.features.shape == (714,)
            assert r.valid

    def test_success_zero_is_zero_filled(self, tmp_path, small_selection):
        path = tmp_path / "of.csv"
        write_csv(
            path,
            ["frame", "confidence", "success", "pose_Rx", "pose_Ry", "AU01_r"],
            [[1, 0.9, 1, 0.1, 0.2, 1.5], [2, 0.1, 0, 7.0, 7.0, 7.0]],
        )
        records = parse_openface_csv(path, small_selection)
        assert records[0].valid and not records[1].valid
        np.testing.assert_array_equal(records[1].features, np.zeros(3, dtype=np.float32))
        assert records[1].confidence == pytest.approx(0.1)

    def test_missing_column_names_it(self, tmp_path):
        path = tmp_path / "of.csv"
        write_csv(path, ["frame", "pose_Rx"], [[1, 0.5]])
        with pytest.raises(SchemaError, match="AU99_r"):
            parse_openface_csv(path, ColumnSelection(("pose_Rx", "AU99_r"), 2))

    def test_non_numeric_cell_reports_row_and_column(self, tmp_path, small_selection):
        path = tmp_path / "of.csv"
        write_csv(
            path,
            ["frame", "success", "pose_Rx", "pose_Ry", "AU01_r"],
            [[1, 1, 0.1, "oops", 1.5]],
        )
        with pytest.raises(ParseError, match=r"row 2.*pose_Ry"):
            parse_openface_csv(path, small_selection)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e300"])
    def test_non_finite_feature_cell_reports_row_and_column(self, tmp_path, small_selection,
                                                            value):
        path = tmp_path / "of.csv"
        write_csv(
            path,
            ["frame", "success", "pose_Rx", "pose_Ry", "AU01_r"],
            [[1, 1, 0.1, 0.2, 1.5], [2, 1, 0.1, value, value]],
        )
        with pytest.raises(ParseError, match=r"row 3, column 'pose_Ry': non-finite"):
            parse_openface_csv(path, small_selection)

    @pytest.mark.parametrize("column", ["confidence", "frame", "success"])
    def test_non_finite_meta_cell_is_parse_error(self, tmp_path, small_selection, column):
        path = tmp_path / "of.csv"
        header = ["frame", "confidence", "success", "pose_Rx", "pose_Ry", "AU01_r"]
        row = [1, 0.9, 1, 0.1, 0.2, 1.5]
        row[header.index(column)] = "nan"
        write_csv(path, header, [row])
        with pytest.raises(ParseError, match=rf"row 2, column '{column}': non-finite"):
            parse_openface_csv(path, small_selection)

    def test_non_finite_cell_in_invalid_row_is_ignored(self, tmp_path, small_selection):
        path = tmp_path / "of.csv"
        write_csv(
            path,
            ["frame", "success", "pose_Rx", "pose_Ry", "AU01_r"],
            [[1, 0, "nan", "inf", 1.5]],
        )
        records = parse_openface_csv(path, small_selection)
        np.testing.assert_array_equal(records[0].features, np.zeros(3, dtype=np.float32))

    def test_record_count_equals_row_count(self, tmp_path, small_selection, rng):
        path = tmp_path / "of.csv"
        rows = [[i + 1, 1, *rng.random(3)] for i in range(37)]
        write_csv(path, ["frame", "success", "pose_Rx", "pose_Ry", "AU01_r"], rows)
        assert len(parse_openface_csv(path, small_selection)) == 37

    def test_rows_ordered_by_frame_index(self, tmp_path, small_selection):
        path = tmp_path / "of.csv"
        write_csv(
            path,
            ["frame", "success", "pose_Rx", "pose_Ry", "AU01_r"],
            [[2, 1, 2.0, 2.0, 2.0], [1, 1, 1.0, 1.0, 1.0]],
        )
        records = parse_openface_csv(path, small_selection)
        assert [r.frame_index for r in records] == [1, 2]
        assert records[0].features[0] == 1.0

    def test_values_roundtrip_at_float32(self, tmp_path, small_selection, rng):
        values = rng.standard_normal(3) * 100
        path = tmp_path / "of.csv"
        write_csv(
            path,
            ["frame", "success", "pose_Rx", "pose_Ry", "AU01_r"],
            [[1, 1, *[repr(float(v)) for v in values]]],
        )
        records = parse_openface_csv(path, small_selection)
        np.testing.assert_array_equal(records[0].features, values.astype(np.float32))
