import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emofuse import video
from emofuse.errors import EmofuseError, ParseError, SchemaError
from emofuse.video import (
    META_COLUMNS,
    ColumnSelection,
    default_selection,
    load_column_manifest,
    parse_openface_csv,
)

from oracles import openface_cells


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
    return ColumnSelection(("pose_Rx", "pose_Ry", "AU01_r"))


class TestDefaultSelection:
    def test_matches_enumerated_openface_header(self):
        sel = default_selection()
        assert list(sel.include_columns) == openface_header_enumeration()

    def test_expected_dim_consistent(self):
        sel = default_selection()
        assert len(sel.include_columns) == 709
        # the extractor's full row adds the five bookkeeping columns
        assert len(sel.include_columns) + len(META_COLUMNS) == 714

    def test_duplicate_free(self):
        sel = default_selection()
        assert len(set(sel.include_columns)) == len(sel.include_columns)

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
            ColumnSelection(("a", "b", "a"))

    def test_manifest_loader_skips_comments(self, tmp_path):
        p = tmp_path / "cols.txt"
        p.write_text("# comment\npose_Rx\n\npose_Ry  # inline\n")
        sel = load_column_manifest(p)
        assert sel.include_columns == ("pose_Rx", "pose_Ry")

    def test_manifest_byte_order_mark_is_not_part_of_a_name(self, tmp_path):
        p = tmp_path / "cols.txt"
        p.write_bytes(b"\xef\xbb\xbfpose_Rx\npose_Ry\n")
        assert load_column_manifest(p).include_columns == ("pose_Rx", "pose_Ry")


class TestParseOpenfaceCsv:
    def test_full_width_rows(self, tmp_path, rng):
        # a selection of 714 columns: all features plus the metadata five
        features = openface_header_enumeration()
        header = list(META_COLUMNS) + features
        sel = ColumnSelection(tuple(header))
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
            parse_openface_csv(path, ColumnSelection(("pose_Rx", "AU99_r")))

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

    def test_rows_sort_by_truncated_frame_with_ties_in_file_order(self, tmp_path,
                                                                 small_selection):
        # pose_Rx holds each row's place in the file; 2.7 and 2.2 both truncate to 2
        path = tmp_path / "of.csv"
        frames = ["3", "2.7", "1e300", "2.2", "1"]
        write_csv(path, ["frame", "success", "pose_Rx", "pose_Ry", "AU01_r"],
                  [[f, 1, i, 0.0, 0.0] for i, f in enumerate(frames)])
        records = parse_openface_csv(path, small_selection)
        assert [int(r.frame_index) for r in records] == [1, 2, 2, 3, int(1e300)]
        assert [float(r.features[0]) for r in records] == [4.0, 1.0, 3.0, 0.0, 2.0]

    def test_rows_are_one_aligned_record_table(self, tmp_path, small_selection):
        path = tmp_path / "of.csv"
        write_csv(path, ["frame", "success", "pose_Rx", "pose_Ry", "AU01_r"],
                  [[2, 0, 1.0, 1.0, 1.0], [1, 1, 2.0, 2.0, 2.0]])
        table = parse_openface_csv(path, small_selection)
        assert isinstance(table, np.recarray) and table.dtype.isalignedstruct
        assert table.dtype.names == ("features", "valid", "confidence", "frame_index")
        assert table.features.dtype == np.float32 and table.features.shape == (2, 3)
        assert table.valid.tolist() == [True, False]
        assert table.confidence.tolist() == [1.0, 1.0]

    def test_rows_without_a_frame_column_keep_file_order(self, tmp_path, small_selection):
        path = tmp_path / "of.csv"
        write_csv(path, ["success", "pose_Rx", "pose_Ry", "AU01_r"],
                  [[1, x, 0.0, 0.0] for x in (3.0, 1.0, 2.0)])
        records = parse_openface_csv(path, small_selection)
        assert [int(r.frame_index) for r in records] == [1, 2, 3]
        assert [float(r.features[0]) for r in records] == [3.0, 1.0, 2.0]

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

    @pytest.mark.parametrize("body", ["", "\n", "\n\r\n\n"])
    def test_header_without_rows_is_schema_error(self, tmp_path, small_selection, body):
        path = tmp_path / "of.csv"
        path.write_text("frame, success, pose_Rx, pose_Ry, AU01_r\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "input contained no data" included
            with pytest.raises(SchemaError, match=r"of\.csv: no data rows"):
                parse_openface_csv(path, small_selection)

    def test_byte_order_mark_keeps_the_frame_column(self, tmp_path, small_selection):
        path = tmp_path / "of.csv"
        write_csv(
            path,
            ["frame", "success", "pose_Rx", "pose_Ry", "AU01_r"],
            [[2, 1, 2.0, 2.0, 2.0], [1, 1, 1.0, 1.0, 1.0]],
        )
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        records = parse_openface_csv(path, small_selection)
        assert [r.frame_index for r in records] == [1, 2]
        assert records[0].features[0] == 1.0

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_rows_of_one_other_width_than_the_header_name_the_row(self, tmp_path,
                                                                   small_selection, extra):
        # every row has the same width, so loadtxt reads them; the header disagrees
        header = ["frame", "success", "pose_Rx", "pose_Ry", "AU01_r", "face_id"]
        rows = [[1, 1, 0.1, 0.2, 0.3, 0, 0][: len(header) + extra] for _ in range(3)]
        path = tmp_path / "of.csv"
        write_csv(path, header, rows)
        with pytest.raises(ParseError, match=rf"of\.csv: row 2: {len(header) + extra} cells, "
                                             rf"the header has {len(header)}$"):
            parse_openface_csv(path, small_selection)

    @pytest.mark.parametrize("row,message", [
        ([2, 1, 0, 0.1, 0.2, 0.3, 0], r"row 3: 7 cells, the header has 6$"),
        ([2, 1, '"0"', 0.1, 0.2, 0.3], r"row 3: a cell is not a plain number"),
        ([2, 1, 0, 0.1, "1_0", 0.3], r"row 3: a cell is not a plain number"),
        ([2, 0, 0, 0.1, "x", 0.3], r"row 3: a cell is not a plain number"),
        ([2, 1, 0, 0.1, '"0.2"', 0.3], r"""row 3, column 'pose_Ry': non-numeric value '"0.2"'$"""),
    ], ids=["wider_row", "quoted_cell", "underscore_literal", "invalid_row_text",
            "quoted_checked_cell"])
    def test_row_loadtxt_refuses_is_parse_error(self, tmp_path, small_selection, row, message):
        header = ["frame", "success", "face_id", "pose_Rx", "pose_Ry", "AU01_r"]
        rows = [[1, 1, 0, 0.1, 0.2, 0.3], row, [3, 1, 0, 0.1, 0.2, 0.3]]
        path = tmp_path / "of.csv"
        write_csv(path, header, rows)
        with pytest.raises(ParseError, match=r"of\.csv: " + message):
            parse_openface_csv(path, small_selection)

    @pytest.mark.parametrize("name", ["pose_Rx", "frame"])
    def test_repeated_header_name_is_schema_error(self, tmp_path, small_selection, name):
        # a dict from names to columns would silently keep the later column
        header = ["frame", "success", "pose_Rx", "pose_Ry", "AU01_r", name]
        path = tmp_path / "of.csv"
        write_csv(path, header, [[1, 1, 0.5, 0.2, 0.3, 9.0]])
        with pytest.raises(SchemaError, match=rf"of\.csv: column '{name}' appears twice"):
            parse_openface_csv(path, small_selection)

    def test_non_finite_last_row_is_named_without_a_second_loadtxt(self, tmp_path,
                                                                     small_selection, monkeypatch):
        # the loadtxt pass read every row, so the walk need not read any row again
        header = ["frame", "success", "pose_Rx", "pose_Ry", "AU01_r"]
        rows = [[i + 1, 1, 0.5, 0.25, 0.125] for i in range(1500)]
        rows[-1][3] = "nan"
        path = tmp_path / "of.csv"
        write_csv(path, header, rows)
        calls = []
        loadtxt = video._loadtxt
        monkeypatch.setattr(video, "_loadtxt", lambda lines: calls.append(1) or loadtxt(lines))
        with pytest.raises(ParseError) as info:
            parse_openface_csv(path, small_selection)
        assert str(info.value) == f"{path}: row 1501, column 'pose_Ry': non-finite value 'nan'"
        assert len(calls) == 1

    def test_clean_csv_takes_the_c_parser(self, tmp_path, rng, monkeypatch):
        features = openface_header_enumeration()
        header = list(META_COLUMNS) + features
        rows = [[i + 1, 0, i * 0.04, 0.9, int(i != 1)] + [f"{v:.5f}" for v in rng.standard_normal(709)]
                for i in range(4)]
        rows[1][5:8] = ["nan", "inf", "1e300"]  # an invalid row is zeroed before the finiteness check
        path = tmp_path / "of.csv"
        write_csv(path, header, rows)

        def refuse(*args):
            raise AssertionError("walked the rows for an error")

        monkeypatch.setattr(video, "_refuse", refuse)
        records = parse_openface_csv(path, default_selection())
        assert [r.valid for r in records] == [True, False, True, True]
        # the records' features are rows of one float32 matrix
        assert records.features.dtype == np.float32 and records.features.shape == (4, 709)
        assert all(np.shares_memory(r.features, records.features) for r in records)
        np.testing.assert_array_equal(records[0].features, np.float32(rows[0][5:]))


PLAIN = ["0.5", "-1.25", "1e-3", "7", " 2.5", "-0", "1e-50"]
FLOAT_ONLY = ["1_0", '"3.5"']  # text float() reads and numpy does not
HOSTILE = ["nan", "inf", "-Infinity", "1e300", "", "x"]
SEPARATOR = "\x1c1"  # numpy strips \x1c around a number as whitespace; float() refuses it
HEADER = ("frame", "face_id", "confidence", "success", "pose_Rx", "pose_Ry", "AU01_r")
SELECTION = ColumnSelection(("pose_Rx", "pose_Ry", "AU01_r"))
# per kind of file: the cells to draw from, the success flags, the row shapes
KINDS = {
    "plain": (PLAIN, ["1", "1", "0"], ["row"] * 8 + ["blank"]),
    "separator": (PLAIN * 10 + [SEPARATOR], ["1", "1", "0"], ["row"]),
    "lenient": (PLAIN + FLOAT_ONLY, ["1", "1", "0"], ["row"] * 4 + ["long", "blank"]),
    "hostile": (PLAIN + FLOAT_ONLY + HOSTILE + [SEPARATOR], ["1", "0", "nan"],
                ["row"] * 4 + ["short", "long", "comma", "blank", "space"]),
}
# the drawn cells numpy's loadtxt reads, frame numbers included
READS = {c.strip() for c in PLAIN + HOSTILE[:4]} | {"0", "1", "2", "3", "4"}


@st.composite
def openface_text(draw):
    header = [c for c in HEADER if c in SELECTION.include_columns or draw(st.booleans())]
    header = draw(st.permutations(header))
    cells, flags, shapes = KINDS[draw(st.sampled_from(sorted(KINDS)))]
    cell = st.sampled_from(cells)
    lines = [", ".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        row = []
        for name in header:
            if name == "success":
                row.append(draw(st.sampled_from(flags)))
            elif name == "frame":
                row.append(str(draw(st.integers(1, 4))))  # shuffled, duplicates allowed
            else:
                row.append(draw(cell))
        shape = draw(st.sampled_from(shapes))
        if shape == "short":
            row = row[:-1]
        elif shape == "long":
            row.append(draw(cell))
        elif shape == "blank":
            row = []
        elif shape == "space":
            row = ["   "]
        line = draw(st.sampled_from([", ", ","])).join(row)
        lines.append(line + "," if shape == "comma" else line)
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def _plain_rows(text):
    """Whether every non-blank data line holds one cell loadtxt reads per header column."""
    header, *rows = text.split("\n")
    width = len(header.split(","))
    return all(len(cells) == width and all(c.strip(" ") in READS for c in cells)
               for cells in (line.split(",") for line in rows if line))


def _outcome(parse, path):
    try:
        records = parse(path, SELECTION)
    except EmofuseError as exc:
        return type(exc), str(exc)
    return [(repr((int(r.frame_index), bool(r.valid), float(r.confidence))), r.features.dtype,
             r.features.tobytes()) for r in records]


def _row(message):
    return int(re.search(r"row (\d+)", message).group(1))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(text=openface_text())
def test_c_parser_agrees_with_per_cell_parser(tmp_path_factory, text):
    """The parser returns the per-cell oracle's records, and returns exactly when
    the oracle does and every row is full-width cells loadtxt reads. Where the
    oracle raises, the parser raises the same category, at the same row or an
    earlier one; where only the parser raises, it is a ParseError."""
    path = tmp_path_factory.mktemp("csv") / "of.csv"
    path.write_text(text, newline="")
    got, want = _outcome(parse_openface_csv, path), _outcome(openface_cells, path)
    if isinstance(got, list):
        assert got == want
    assert isinstance(got, list) == (isinstance(want, list) and _plain_rows(text))
    if isinstance(want, tuple):
        assert got[0] is want[0]
        if want[0] is ParseError:
            assert _row(got[1]) <= _row(want[1])
    elif isinstance(got, tuple):
        assert got[0] is ParseError
