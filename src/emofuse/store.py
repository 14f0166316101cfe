"""Artefact bytes: float32 arrays, SHA-256, JSON headers and atomic writes.

Every array artefact is one packed file: an 8-byte magic, a u64 header
length, a compact JSON header, then the arrays back to back as flat
little-endian float32, with one SHA-256 over them in the header. A checkpoint
is such a file, and a feature or window container is a directory holding
one. Every JSON file and packed file is replaced atomically.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct

import numpy as np

from .errors import CorruptionError, SchemaError, schema_fields

MAGIC = b"EMFCKPT1"


def f32_bytes(array) -> np.ndarray:
    """``array``'s values as a flat little-endian float32 byte view, copied only
    to convert; unlike memoryview.cast this also works on zero-size arrays."""
    return np.ascontiguousarray(array, dtype="<f4").reshape(-1).view(np.uint8)


def sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def json_object(path, text, what: str) -> dict:
    """``text`` (UTF-8 bytes) parsed as a JSON object. Invalid JSON is a
    CorruptionError and any other value a SchemaError, both naming ``path`` and ``what``."""
    try:
        value = json.loads(text.decode("utf-8"))  # json.loads would also take UTF-16/32 bytes
    except ValueError as exc:
        raise CorruptionError(f"{path}: {what} is not valid JSON ({exc})") from None
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: {what} is not a JSON object")
    return value


def write_atomic(path, chunks):
    """Write ``chunks`` to a temp file beside ``path``, fsync it, then rename it
    onto ``path``: a failure at any point leaves the previous file intact. The
    directory is fsynced after the rename, so the rename itself is durable."""
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    fd = os.open(directory or os.curdir, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_json(path, value):
    write_atomic(path, [json.dumps(value, indent=2, sort_keys=True).encode(), b"\n"])


def write_packed(path, header: dict, arrays: list[tuple[dict, np.ndarray]]):
    """Write ``header``, with an ``arrays`` entry per ``(fields, array)`` pair
    and the blob's SHA-256, then the arrays, replacing ``path`` atomically."""
    blobs = [f32_bytes(array) for _, array in arrays]
    entries, offset = [], 0
    for (fields, array), data in zip(arrays, blobs):
        entries.append({**fields, "shape": list(np.shape(array)), "offset": offset,
                        "nbytes": len(data)})
        offset += len(data)
    header = {**header, "arrays": entries, "blob_sha256": sha256(blobs)}
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    write_atomic(path, [MAGIC, struct.pack("<Q", len(raw)), raw, *blobs])


def read_packed(path) -> tuple[dict, dict[str, np.ndarray]]:
    """A packed file's header and its arrays by name, each sharing the file's buffer."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16 or data[:8] != MAGIC:
        raise CorruptionError(f"{path}: not an emofuse packed file")
    end = 16 + struct.unpack_from("<Q", data, 8)[0]
    if len(data) < end:
        raise CorruptionError(f"{path}: truncated header")
    header = json_object(path, data[16:end], "header")
    blob = memoryview(data)[end:]
    arrays = {}
    with schema_fields(path):
        if sha256([blob]) != header["blob_sha256"]:
            raise CorruptionError(f"{path}: blob checksum mismatch")
        for entry in header["arrays"]:
            name, lo, n = entry["name"], entry["offset"], entry["nbytes"]
            if name in arrays:
                raise SchemaError(f"{path}: array {name} appears twice")
            if not all(type(v) is int and v >= 0 for v in (lo, n, *entry["shape"])):
                raise SchemaError(f"{path}: array {name} offset {lo!r}, nbytes {n!r} or shape "
                                  f"{entry['shape']!r} holds a value that is not an integer >= 0")
            if n != 4 * int(np.prod(entry["shape"])):
                raise SchemaError(f"{path}: array {name} nbytes {n} does not match "
                                  f"shape {entry['shape']}")
            if lo + n > len(blob):
                raise CorruptionError(f"{path}: array {name} extends past blob")
            arrays[name] = np.frombuffer(blob[lo : lo + n], dtype="<f4").reshape(entry["shape"])
    return header, arrays


def require_arrays(path, arrays: dict[str, np.ndarray], shapes: dict[str, tuple]):
    """Raise SchemaError unless ``arrays`` holds exactly the names in ``shapes``,
    each at its shape; the error names the first offending array in name order."""
    for name in sorted(arrays.keys() | shapes.keys()):
        if name not in shapes:
            raise SchemaError(f"{path}: unexpected array {name}")
        if name not in arrays:
            raise SchemaError(f"{path}: missing array {name}")
        if arrays[name].shape != tuple(shapes[name]):
            raise SchemaError(f"{path}: array {name} has shape {list(arrays[name].shape)}, "
                              f"expected {list(shapes[name])}")
