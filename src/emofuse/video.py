"""OpenFace FeatureExtraction CSV ingest.

One CSV row per video frame. The columns to keep are listed by name in an
editable manifest (one per line, '#' comments), since OpenFace builds differ in
emitted columns; the parser finds each name in the CSV header.
"""

from __future__ import annotations

import csv
import importlib.resources
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SchemaError, utf8_text

_DEFAULT_MANIFEST = "openface_columns.txt"

# Bookkeeping columns parsed as metadata when present, never as features.
META_COLUMNS = ("frame", "face_id", "timestamp", "confidence", "success")


@dataclass(frozen=True)
class ColumnSelection:
    include_columns: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.include_columns)) != len(self.include_columns):
            dupes = sorted(
                {c for c in self.include_columns if self.include_columns.count(c) > 1}
            )
            raise SchemaError(f"duplicate columns in selection: {dupes}")


def load_column_manifest(path) -> ColumnSelection:
    """Read a column manifest: one name per line, '#' comments, blanks skipped."""
    names = []
    with open(path, "r", encoding="utf-8-sig") as fh, utf8_text(path):
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                names.append(line)
    if not names:
        raise SchemaError(f"{path}: column manifest is empty")
    return ColumnSelection(include_columns=tuple(names))


def default_selection() -> ColumnSelection:
    """The shipped reconstruction of the OpenFace 2.x feature columns."""
    ref = importlib.resources.files("emofuse.data").joinpath(_DEFAULT_MANIFEST)
    with importlib.resources.as_file(ref) as path:
        return load_column_manifest(path)


def parse_openface_csv(path, selection: ColumnSelection) -> np.recarray:
    """Extract the selected columns from every data row, ordered by frame.

    Returns one record per data row, in a stable sort by ``frame_index``:
    ``features`` (float32, one per selected column), ``valid``, ``confidence``
    (1.0 without that column) and ``frame_index`` (the frame cell truncated
    toward zero, or 1..n without that column). Rows whose ``success`` flag
    is 0 are kept but marked invalid and zero-filled so downstream frame
    counts still match the annotations.
    The data rows are read in one pass of numpy's C ``loadtxt``: every row
    must hold one plain number per header column. A file that pass refuses,
    or one with a non-finite checked cell, raises :class:`ParseError` naming
    the first row at fault (and its column, for a checked cell); text that
    is not UTF-8 raises it naming the file. A header without data rows
    raises :class:`SchemaError`.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh, utf8_text(path):
        width, take, frame_col, conf_col, success_col = _columns(_rows(fh, path), path, selection)
        try:
            data = _loadtxt(fh)
        except ValueError:  # a cell float64 cannot parse, a ragged row or non-UTF-8 text
            data = None
    if data is None or len(data) == 0 or data.shape[1] != width:
        _refuse(path, selection)
    n = len(data)
    meta = data[:, [c for c in (success_col, conf_col, frame_col) if c is not None]]
    frames = np.trunc(data[:, frame_col]) if frame_col is not None else np.arange(1.0, n + 1)
    order = np.argsort(frames, kind="stable")  # float64: a frame cell of 1e300 sorts last
    row = np.dtype([("features", np.float32, (len(take),)), ("valid", bool),
                    ("confidence", np.float64), ("frame_index", np.float64)], align=True)
    valid = data[order, success_col] != 0 if success_col is not None else np.ones(n, dtype=bool)
    confidence = data[order, conf_col] if conf_col is not None else np.ones(n)
    with np.errstate(over="ignore"):  # beyond float32 -> inf, rejected below
        table = np.rec.fromarrays([data[np.ix_(order, take)], valid, confidence, frames[order]],
                                  dtype=row)
    table.features[~table.valid] = 0.0
    if not (np.isfinite(meta).all() and np.isfinite(table.features).all()):
        _refuse(path, selection, read_every_row=True)
    return table


def _loadtxt(lines) -> np.ndarray:
    """The data rows of ``lines`` as a float64 ``[rows, columns]`` array."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no data rows: _refuse says so
        return np.loadtxt(
            _plain_lines(lines), delimiter=",", dtype=np.float64, ndmin=2, comments=None
        )


def _plain_lines(lines):
    """``lines``, raising ValueError at the first holding a character that numpy
    strips from around a number as whitespace but ``float()`` refuses."""
    for line in lines:
        if any(c in line for c in "\x1c\x1d\x1e\x1f"):
            raise ValueError("ASCII separator character")
        yield line


def _rows(fh, path, row_no=1, quoting=csv.QUOTE_MINIMAL):
    """``(row number, cells)`` for each CSV row of ``fh``, the first being ``row_no``;
    a row ``csv`` refuses (a cell over its field size limit) raises ParseError."""
    try:
        for row in csv.reader(fh, skipinitialspace=True, quoting=quoting):
            yield row_no, row
            row_no += 1
    except csv.Error as exc:
        raise ParseError(f"{path}: row {row_no}: {exc}") from None


def _columns(rows, path, selection: ColumnSelection):
    """Header width, the selected column indices, then the frame/confidence/success indices."""
    try:
        header = [h.strip() for h in next(rows)[1]]
    except StopIteration:
        raise SchemaError(f"{path}: empty CSV") from None
    col_index = {name: i for i, name in enumerate(header)}
    if len(col_index) != len(header):  # the dict kept a repeated name's last column
        twice = next(name for i, name in enumerate(header) if col_index[name] != i)
        raise SchemaError(f"{path}: column {twice!r} appears twice in the header")
    missing = [c for c in selection.include_columns if c not in col_index]
    if missing:
        raise SchemaError(f"{path}: missing column(s) {missing}")
    take = [col_index[c] for c in selection.include_columns]
    return (len(header), take, *(col_index.get(c) for c in ("frame", "confidence", "success")))


def _refuse(path, selection: ColumnSelection, read_every_row=False):
    """Raise the error for a file the ``loadtxt`` pass refused or found a non-finite
    checked cell in, at the first row at fault. Each row is checked in turn:
    its success, confidence and frame cells, then, if it is valid, its features
    (non-numeric or non-finite, then non-finite at float32), then its width and
    whether ``loadtxt`` reads it; the last two cannot fail when the pass read
    every row at the header's width (``read_every_row``) and are skipped then.
    Data cells are split at every comma, as ``loadtxt`` splits them, so quotes
    are kept as part of a cell."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh, utf8_text(path):
        width, take, frame_col, conf_col, success_col = _columns(_rows(fh, path), path, selection)
        for row_no, row in _rows(fh, path, 2, csv.QUOTE_NONE):
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

            valid = success_col is None or cell(success_col, "success") != 0.0
            if conf_col is not None:
                cell(conf_col, "confidence")
            if frame_col is not None:
                cell(frame_col, "frame")
            if valid:
                names = selection.include_columns
                values = [cell(i, name) for i, name in zip(take, names)]
                with np.errstate(over="ignore"):  # beyond float32 -> inf
                    finite = np.isfinite(np.array(values, dtype=np.float32))
                if not finite.all():
                    j = int(np.argmin(finite))
                    raise bad(take[j], names[j], "non-finite")
            if read_every_row:
                continue
            if len(row) != width:
                raise ParseError(f"{path}: row {row_no}: {len(row)} cells, the header has {width}")
            try:
                plain = _loadtxt([",".join(row)]).shape == (1, width)
            except ValueError:
                plain = False
            if not plain:
                raise ParseError(f"{path}: row {row_no}: a cell is not a plain number")
    # every non-empty row raised above or is one the loadtxt pass reads
    raise SchemaError(f"{path}: no data rows")
