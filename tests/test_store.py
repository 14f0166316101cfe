import ast
import hashlib
import json
import os
import pathlib
import shutil
import stat
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import emofuse
from emofuse import store
from emofuse.dataset import (
    PACKED,
    read_dataset,
    read_frame_features,
    write_dataset,
    write_frame_features,
)
from emofuse.errors import CorruptionError, SchemaError
from emofuse.model import load_checkpoint, save_checkpoint

DATA = pathlib.Path(__file__).parent / "data"
FIELDS = ("audio", "video", "labels", "start_frames", "pad_counts")
SRC = pathlib.Path(emofuse.__file__).parent


@st.composite
def stored_arrays(draw, min_side=0):
    """Float32 or float64 arrays of float32 values, any shape up to 3-D, some of
    them non-contiguous views (every other row, or transposed)."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=min_side, max_side=5))
    array = draw(hnp.arrays(dtype, shape, elements=st.floats(width=32)))
    view = draw(st.sampled_from(["whole", "every_other", "transposed"]))
    if view == "every_other" and array.ndim:
        return array[::2]
    return array.T if view == "transposed" else array


def bits(array):
    """``array``'s values as float32 bit patterns, NaN payloads included."""
    return np.asarray(array, dtype="<f4").view("<u4")


def write_arrays(layout, directory, arrays):
    """Store ``arrays`` in one packed file, or each as one row of its own
    frame_features container; return the file the arrays' bytes end in."""
    if layout == "container":
        for i, array in enumerate(arrays):
            write_frame_features(os.path.join(directory, f"c{i}"), np.reshape(array, (1, -1)), "audio")
        return os.path.join(directory, f"c{len(arrays) - 1}", PACKED)
    path = os.path.join(directory, "x.ckpt")
    store.write_packed(path, {"kind": "test"}, [({"name": f"a{i}"}, a) for i, a in enumerate(arrays)])
    return path


def read_arrays(layout, directory, shapes):
    if layout == "container":
        return [read_frame_features(os.path.join(directory, f"c{i}"))[0].reshape(shape)
                for i, shape in enumerate(shapes)]
    return list(store.read_packed(os.path.join(directory, "x.ckpt"))[1].values())


@pytest.mark.parametrize("layout", ["container", "packed"])
@settings(max_examples=60, deadline=None)
@given(arrays=st.lists(stored_arrays(), min_size=1, max_size=3))
def test_arrays_round_trip_bit_exactly(layout, arrays):
    with tempfile.TemporaryDirectory() as directory:
        write_arrays(layout, directory, arrays)
        back = read_arrays(layout, directory, [a.shape for a in arrays])
    assert [b.shape for b in back] == [a.shape for a in arrays]
    for a, b in zip(arrays, back):
        assert b.dtype == np.float32
        np.testing.assert_array_equal(bits(b), bits(a))


@pytest.mark.parametrize("layout", ["container", "packed"])
@pytest.mark.parametrize("damage", ["flip", "truncate"])
@settings(max_examples=40, deadline=None)
@given(array=stored_arrays(min_side=1), where=st.floats(0, 1, exclude_max=True))
def test_any_flipped_blob_byte_or_truncation_is_corruption(layout, damage, array, where):
    with tempfile.TemporaryDirectory() as directory:
        path = write_arrays(layout, directory, [array])
        data = bytearray(pathlib.Path(path).read_bytes())
        if damage == "truncate":
            del data[int(where * len(data)):]
        else:  # the blob is the file's tail
            data[len(data) - array.size * 4 + int(where * array.size * 4)] ^= 0x01
        pathlib.Path(path).write_bytes(bytes(data))
        with pytest.raises(CorruptionError):
            read_arrays(layout, directory, [array.shape])


@pytest.mark.parametrize("text, error", [
    (b"{", CorruptionError),
    ('{"a": 1}'.encode("utf-16"), CorruptionError),  # json.loads would take these bytes
    (b"\xff{}", CorruptionError),
    (b"[1]", SchemaError),
    (b'"a"', SchemaError),
])
def test_json_object_takes_utf8_json_objects_only(text, error):
    with pytest.raises(error, match=r"f\.json: thing is not"):
        store.json_object("f.json", text, "thing")
    assert store.json_object("f.json", b'{"a": [1]}', "thing") == {"a": [1]}


class HalfWrite:
    """A file whose first write stores half its bytes, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("fail_at", ["write", "fsync", "replace"])
def test_failed_write_json_keeps_previous_file(tmp_path, monkeypatch, fail_at):
    path = tmp_path / "summary.json"
    store.write_json(path, {"epoch": 1})
    good = path.read_bytes()
    assert good == b'{\n  "epoch": 1\n}\n'

    def fail(*args):
        raise OSError(5, "Input/output error")

    if fail_at == "write":
        monkeypatch.setattr(store, "open", lambda *a: HalfWrite(open(*a)), raising=False)
    else:
        monkeypatch.setattr(store.os, fail_at, fail)
    with pytest.raises(OSError):
        store.write_json(path, {"epoch": 2})
    monkeypatch.undo()
    assert path.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]


@pytest.mark.parametrize("relative", [False, True], ids=["absolute", "bare_name"])
def test_write_atomic_syncs_the_directory_after_the_rename(tmp_path, monkeypatch, relative):
    """The file is synced before its rename and its directory after it, so the
    rename itself survives a crash (Pillai et al., OSDI 2014)."""
    events, fsync, replace = [], os.fsync, os.replace

    def record_fsync(fd):
        st = os.fstat(fd)
        events.append(("fsync", "directory" if stat.S_ISDIR(st.st_mode) else "file", st.st_ino))
        fsync(fd)

    def record_replace(src, dst):
        events.append(("replace", os.path.basename(dst)))
        replace(src, dst)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(store.os, "fsync", record_fsync)
    monkeypatch.setattr(store.os, "replace", record_replace)
    store.write_json("x.json" if relative else tmp_path / "x.json", {"a": 1})
    monkeypatch.undo()
    assert events == [("fsync", "file", (tmp_path / "x.json").stat().st_ino),
                      ("replace", "x.json"), ("fsync", "directory", tmp_path.stat().st_ino)]


# the settings the fixtures store that are now constants, which a save no longer writes
CONSTANT_KEYS = {"config": ("n_classes", "dropout", "bn_momentum", "bn_eps"),
                 "optimizer": ("rho", "eps")}


@pytest.mark.parametrize("recurrent", ["gru", "lstm"])
def test_checkpoint_fixture_resaves_without_its_constant_keys(tmp_path, recurrent):
    path, again, twice = DATA / f"format2_{recurrent}.ckpt", tmp_path / "again", tmp_path / "twice"
    save_checkpoint(again, *load_checkpoint(path))
    (header, arrays), (saved, saved_arrays) = store.read_packed(path), store.read_packed(again)
    for section, keys in CONSTANT_KEYS.items():
        for key in keys:
            del header[section][key]
    assert saved == header  # the array entries and blob_sha256 too
    assert {n: bits(a).tobytes() for n, a in saved_arrays.items()} == {
        n: bits(a).tobytes() for n, a in arrays.items()}
    save_checkpoint(twice, *load_checkpoint(again))
    assert twice.read_bytes() == again.read_bytes()


def files(directory):
    return {p.name: p.read_bytes() for p in pathlib.Path(directory).iterdir()}


def test_frame_features_fixture_rewrites_to_its_own_bytes(tmp_path):
    features, manifest = read_frame_features(DATA / "frame_features")
    write_frame_features(tmp_path / "c", features, manifest["modality"], manifest["meta"])
    assert files(tmp_path / "c") == files(DATA / "frame_features")


def test_window_dataset_fixture_rewrites_to_its_own_bytes(tmp_path):
    write_dataset(read_dataset(DATA / "window_dataset"), tmp_path / "d")
    assert files(tmp_path / "d") == files(DATA / "window_dataset")


def format1_arrays(name):
    """The arrays of format-1 fixture ``name``, read straight from its blob files."""
    directory = DATA / f"format1_{name}"
    manifest = json.loads((directory / "manifest.json").read_text())
    return {k: np.fromfile(directory / e["file"], dtype="<f4").reshape(e["shape"])
            for k, e in manifest["blobs"].items()}


def test_format2_fixtures_hold_the_format1_fixtures_arrays():
    features, header = read_frame_features(DATA / "frame_features")
    assert header["format_version"] == 2
    assert bits(features).tobytes() == bits(format1_arrays("frame_features")["features"]).tobytes()
    dataset, old = read_dataset(DATA / "window_dataset"), format1_arrays("window_dataset")
    assert sorted(old) == sorted(FIELDS)
    for name in FIELDS:
        assert bits(getattr(dataset, name)).tobytes() == bits(old[name]).tobytes(), name


@pytest.mark.parametrize("name, read", [("frame_features", read_frame_features),
                                        ("window_dataset", read_dataset)])
def test_format1_container_is_refused_without_opening_a_blob(tmp_path, monkeypatch, name, read):
    # the manifest names a blob outside the container: it must not be read
    (tmp_path / "secret").mkdir()
    directory = tmp_path / "old"
    shutil.copytree(DATA / f"format1_{name}", directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    for entry in manifest["blobs"].values():
        shutil.move(directory / entry["file"], tmp_path / "secret" / entry["file"])
        entry["file"] = f"../secret/{entry['file']}"
    (directory / "manifest.json").write_text(json.dumps(manifest))
    opened, real_open = [], open
    monkeypatch.setattr("builtins.open", lambda f, *a, **k: opened.append(f) or real_open(f, *a, **k))
    for path in (directory, DATA / f"format1_{name}"):
        with pytest.raises(SchemaError, match="format-1 container.*rerun the command that wrote it"):
            read(path)
    assert opened == []


@pytest.mark.parametrize("name", ["frame_features", "window_dataset"])
def test_format1_container_is_not_written_over(tmp_path, name):
    directory = tmp_path / "old"
    shutil.copytree(DATA / f"format1_{name}", directory)
    before = files(directory)
    with pytest.raises(SchemaError, match="format-1 container.*remove it and rerun the command"):
        if name == "frame_features":
            write_frame_features(directory, np.zeros((2, 3)), "audio")
        else:
            write_dataset(read_dataset(DATA / "window_dataset"), directory)
    assert files(directory) == before


# format2_{gru,lstm}.ckpt hold the format-1 checkpoints as loaded and saved again by
# code that read format 1, and format1_forward.npz the format-1 code's outputs; no
# code here can rebuild them, so a changed byte is a lost oracle
ORACLES = {
    "format2_gru.ckpt": "d0b0b1ab57f058c6a4ebf3145e8907045e5944321c7ac6abf564b2a674f55b4c",
    "format2_lstm.ckpt": "3177eed7af07cf81098cbc71bff8e0a2263f97a519a5bf62fe4df24f61d022b3",
    "format1_forward.npz": "5e06dc1fcc7f5db82a55ecdaf49e94ac5496b7d392cd54ef79728a86df73949d",
}


def test_oracle_fixtures_keep_their_bytes():
    assert {n: hashlib.sha256((DATA / n).read_bytes()).hexdigest() for n in ORACLES} == ORACLES


def test_failed_container_write_keeps_the_previous_container(tmp_path, monkeypatch):
    write_dataset(read_dataset(DATA / "window_dataset"), tmp_path / "d")
    good = files(tmp_path / "d")
    changed = read_dataset(DATA / "window_dataset")
    changed.audio = changed.audio + 1
    monkeypatch.setattr(store, "open", lambda *a: HalfWrite(open(*a)), raising=False)
    with pytest.raises(OSError):
        write_dataset(changed, tmp_path / "d")
    monkeypatch.undo()
    assert files(tmp_path / "d") == good
    assert bits(read_dataset(tmp_path / "d").audio).tobytes() == bits(
        read_dataset(DATA / "window_dataset").audio).tobytes()


def test_kinds_do_not_cross():
    with pytest.raises(SchemaError, match="not an emofuse checkpoint"):
        load_checkpoint(DATA / "window_dataset" / PACKED)
    with tempfile.TemporaryDirectory() as directory:
        shutil.copy(DATA / "format2_gru.ckpt", os.path.join(directory, PACKED))
        for read, kind in ((read_dataset, "window_dataset"), (read_frame_features, "frame_features")):
            with pytest.raises(SchemaError, match=f"not a {kind} container"):
                read(directory)
    with pytest.raises(SchemaError, match="not a window_dataset container"):
        read_dataset(DATA / "frame_features")


def format_decisions(path):
    """Names of the byte-format modules ``path`` imports and of the os calls it makes."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module.split(".")[0])
            if node.module == "os":
                found |= {f"os.{a.name}" for a in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "os":
                found.add(f"os.{node.attr}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            if not isinstance(mode, ast.Constant) or ("b" in mode.value and set("wax+") & set(mode.value)):
                found.add("open for a binary write")
    return found


def test_only_the_store_decides_artefact_bytes():
    """Hashing, JSON, binary writes and atomic replacement live in store.py alone; dataset,
    model and cli also leave struct and contextlib to it (audio.py reads WAV headers with
    struct). An ``open`` whose mode is not a literal counts as a binary write."""
    banned = {"hashlib", "json", "os.replace", "os.fsync", "open for a binary write"}
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "store.py")
    assert len(modules) > 10
    offenders = {p.name: sorted(format_decisions(p) & banned) for p in modules}
    assert {k: v for k, v in offenders.items() if v} == {}
    for name in ("dataset.py", "model.py", "cli.py"):
        assert not format_decisions(SRC / name) & {"struct", "contextlib"}, name
    assert banned <= format_decisions(SRC / "store.py")
