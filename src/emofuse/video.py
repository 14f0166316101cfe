"""OpenFace FeatureExtraction CSV ingest.

One CSV row per video frame. The columns to keep are listed in an editable
manifest (one name per line, '#' comments); the parser validates the width
it produced against the manifest's expected dimension rather than trusting a
hard-coded number, since OpenFace builds differ in emitted columns.
"""

from __future__ import annotations

import csv
import importlib.resources
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SchemaError, utf8_text

_DEFAULT_MANIFEST = "openface_columns.txt"

# Bookkeeping columns parsed as metadata when present, never as features.
META_COLUMNS = ("frame", "face_id", "timestamp", "confidence", "success")


@dataclass(frozen=True)
class ColumnSelection:
    include_columns: tuple[str, ...]
    expected_dim: int

    def __post_init__(self):
        if len(set(self.include_columns)) != len(self.include_columns):
            dupes = sorted(
                {c for c in self.include_columns if self.include_columns.count(c) > 1}
            )
            raise SchemaError(f"duplicate columns in selection: {dupes}")
        if self.expected_dim != len(self.include_columns):
            raise SchemaError(
                f"expected_dim {self.expected_dim} != "
                f"{len(self.include_columns)} selected columns"
            )


@dataclass(frozen=True)
class VideoFrameFeatures:
    frame_index: int
    features: np.ndarray
    valid: bool
    confidence: float


def load_column_manifest(path) -> ColumnSelection:
    """Read a column manifest: one name per line, '#' comments, blanks skipped."""
    names = []
    with open(path, "r", encoding="utf-8") as fh, utf8_text(path):
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                names.append(line)
    if not names:
        raise SchemaError(f"{path}: column manifest is empty")
    return ColumnSelection(include_columns=tuple(names), expected_dim=len(names))


def default_selection() -> ColumnSelection:
    """The shipped reconstruction of the OpenFace 2.x feature columns."""
    ref = importlib.resources.files("emofuse.data").joinpath(_DEFAULT_MANIFEST)
    with importlib.resources.as_file(ref) as path:
        return load_column_manifest(path)


def parse_openface_csv(path, selection: ColumnSelection) -> list[VideoFrameFeatures]:
    """Extract the selected columns from every data row, ordered by frame.

    Rows whose ``success`` flag is 0 are kept but marked invalid and
    zero-filled so downstream frame counts still match the annotations.
    A non-numeric or non-finite cell raises :class:`ParseError` naming its
    row and column; a file that is not UTF-8 text raises it naming the file.
    """
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh, utf8_text(path):
        reader = csv.reader(fh, skipinitialspace=True)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise SchemaError(f"{path}: empty CSV") from None
        col_index = {name: i for i, name in enumerate(header)}
        missing = [c for c in selection.include_columns if c not in col_index]
        if missing:
            raise SchemaError(f"{path}: missing column(s) {missing}")
        take = [col_index[c] for c in selection.include_columns]
        frame_col = col_index.get("frame")
        conf_col = col_index.get("confidence")
        success_col = col_index.get("success")

        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue

            def bad(idx, name, what):
                value = row[idx] if idx < len(row) else "<missing>"
                return ParseError(f"{path}: row {row_no}, column {name!r}: {what} value {value!r}")

            def cell(idx, name):
                try:
                    value = float(row[idx])
                except (ValueError, IndexError):
                    raise bad(idx, name, "non-numeric") from None
                if not math.isfinite(value):
                    raise bad(idx, name, "non-finite")
                return value

            valid = True
            if success_col is not None:
                valid = cell(success_col, "success") != 0.0
            confidence = 1.0
            if conf_col is not None:
                confidence = cell(conf_col, "confidence")
            frame_index = len(records) + 1
            if frame_col is not None:
                frame_index = int(cell(frame_col, "frame"))

            if valid:
                names = selection.include_columns
                try:
                    with np.errstate(over="ignore"):  # beyond float32 -> inf, rejected below
                        feats = np.array([float(row[i]) for i in take], dtype=np.float32)
                except (ValueError, IndexError):
                    for j, i in enumerate(take):  # raises for the first bad cell
                        cell(i, names[j])
                    raise
                if not np.isfinite(feats).all():
                    j = int(np.argmin(np.isfinite(feats)))
                    raise bad(take[j], names[j], "non-finite")
            else:
                feats = np.zeros(selection.expected_dim, dtype=np.float32)
            records.append(
                VideoFrameFeatures(
                    frame_index=frame_index,
                    features=feats,
                    valid=valid,
                    confidence=confidence,
                )
            )
    records.sort(key=lambda r: r.frame_index)
    return records
