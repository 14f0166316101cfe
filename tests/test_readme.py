"""README's ``## Library use`` block runs as written, so the documented library
surface cannot lose a name without a test failing."""

import ast
import inspect
import re
from pathlib import Path

import numpy as np

import emofuse

from conftest import wav_bytes
from test_cli import make_openface_csv

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    """The one ```python block of README's ``## Library use`` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    return code


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    # the block reads clip.wav, clip.txt and clip.csv: one 30-frame video
    rng = np.random.default_rng(0)
    samples = (rng.standard_normal(8000) * 3000).astype(int).tolist()
    (tmp_path / "clip.wav").write_bytes(wav_bytes([samples], 8000))
    (tmp_path / "clip.txt").write_text("\n".join(str(v) for v in rng.integers(-1, 7, 30)) + "\n")
    make_openface_csv(tmp_path / "clip.csv", 30, rng)
    monkeypatch.chdir(tmp_path)
    exec(compile(library_use_block(), str(README), "exec"), {})
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("clip {'accuracy': ")


def test_package_root_exports_exactly_the_library_use_names():
    (imported,) = [node for node in ast.walk(ast.parse(library_use_block()))
                   if isinstance(node, ast.ImportFrom) and node.module == "emofuse"]
    public = {name for name, value in vars(emofuse).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == {alias.name for alias in imported.names}
