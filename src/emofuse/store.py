"""Artefact bytes: float32 blobs, SHA-256, JSON headers and atomic writes.

Arrays are stored as flat little-endian float32 in one of two layouts. A
container is a directory of blobs plus ``manifest.json``, which records each
blob's file, shape and SHA-256. A checkpoint is one packed file: an 8-byte
magic, a u64 header length, a compact JSON header, then the arrays back to
back. Every JSON file and packed file is replaced atomically.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct

import numpy as np

from .errors import CorruptionError, SchemaError, schema_fields

MANIFEST = "manifest.json"
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


def f32_array(data, shape, where) -> np.ndarray:
    """``data`` as a float32 array of ``shape``, sharing its buffer; a byte count
    that ``shape`` does not give is a CorruptionError naming ``where``."""
    shape, expected = tuple(shape), 4 * int(np.prod(shape))
    if len(data) != expected:
        raise CorruptionError(f"{where}: expected {expected} bytes for shape {shape}, found {len(data)}")
    return np.frombuffer(data, dtype="<f4").reshape(shape)


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
    onto ``path``: a failure at any point leaves the previous file intact."""
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


def write_json(path, value):
    write_atomic(path, [json.dumps(value, indent=2, sort_keys=True).encode(), b"\n"])


def write_container(dirpath, manifest: dict, arrays: dict[str, np.ndarray]):
    """Write each of ``arrays`` as a blob, then ``manifest`` with a ``blobs`` entry for them."""
    os.makedirs(dirpath, exist_ok=True)
    blobs = {}
    for name, array in arrays.items():
        data = f32_bytes(array)
        with open(os.path.join(dirpath, f"{name}.f32"), "wb") as fh:
            fh.write(data)
        blobs[name] = {"file": f"{name}.f32", "shape": list(np.shape(array)),
                       "dtype": "float32", "sha256": sha256([data])}
    write_json(os.path.join(dirpath, MANIFEST), {**manifest, "blobs": blobs})


def read_manifest(dirpath) -> dict:
    path = os.path.join(dirpath, MANIFEST)
    if not os.path.exists(path):
        raise SchemaError(f"{dirpath}: no {MANIFEST}; not a container")
    with open(path, "rb") as fh:
        return json_object(path, fh.read(), "manifest")


def read_blobs(dirpath, manifest: dict, names) -> list[np.ndarray]:
    """The blobs ``manifest`` lists under ``names``, each checked against its
    shape and SHA-256; a missing entry or field raises LookupError or TypeError."""
    arrays = []
    for name in names:
        entry = manifest["blobs"][name]
        path = os.path.join(dirpath, entry["file"])
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            raise CorruptionError(f"{path}: blob missing") from None
        arrays.append(f32_array(data, entry["shape"], path))
        if sha256([data]) != entry["sha256"]:
            raise CorruptionError(f"{path}: checksum mismatch")
    return arrays


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
        raise CorruptionError(f"{path}: not an emofuse checkpoint")
    end = 16 + struct.unpack_from("<Q", data, 8)[0]
    if len(data) < end:
        raise CorruptionError(f"{path}: truncated header")
    header = json_object(path, data[16:end], "checkpoint header")
    blob = memoryview(data)[end:]
    arrays = {}
    with schema_fields(path):
        if sha256([blob]) != header["blob_sha256"]:
            raise CorruptionError(f"{path}: blob checksum mismatch")
        for entry in header["arrays"]:
            name, lo, n = entry["name"], entry["offset"], entry["nbytes"]
            if not all(type(v) is int and v >= 0 for v in (lo, n)):
                raise SchemaError(f"{path}: array {name} offset {lo!r} or nbytes {n!r} "
                                  "is not an integer >= 0")
            if n != 4 * int(np.prod(entry["shape"])):
                raise SchemaError(f"{path}: array {name} nbytes {n} does not match "
                                  f"shape {entry['shape']}")
            if lo + n > len(blob):
                raise CorruptionError(f"{path}: array {name} extends past blob")
            arrays[name] = f32_array(blob[lo : lo + n], entry["shape"], path)
    return header, arrays
