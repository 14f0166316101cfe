"""The statement census's allowlists, checked without tracing: a refactor that
edits or removes a listed statement fails here too, not only in the traced
``-p census`` run."""

import ast
from collections import Counter
from pathlib import Path

import census
from emofuse.model import FusionModel

from test_readme import library_use_block

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_allowlist_key_names_a_function_body_statement():
    keys = Counter(key for _, key, _ in census.statements())
    assert sum(keys.values()) > 1000
    for allowlist in (census.ALLOWED, census.LIBRARY_ONLY):
        assert sorted((key, keys[key]) for key in allowlist if keys[key] != 1) == []


def test_a_recurring_statement_text_is_keyed_by_its_ordinal():
    keys = Counter(key for _, key, _ in census.statements())
    assert sorted(key for key, n in keys.items() if n > 1) == []
    argmax = ("emofuse.audio", "extract_chunk_features", "i = int(np.argmax(bad))")
    assert argmax not in keys
    assert keys[(*argmax[:2], f"{argmax[2]}  [1]")] == keys[(*argmax[:2], f"{argmax[2]}  [2]")] == 1


def exported_entries() -> set[str]:
    """README's "Library use" imports, the public methods of the FusionModel that
    run_training returns, and every emofuse name ``bench/`` imports."""
    trees = [ast.parse(library_use_block())]
    trees += [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(BENCH.glob("*.py"))]
    names = {alias.name for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("emofuse")
             for alias in node.names}
    return names | {f"FusionModel.{name}" for name in vars(FusionModel) if not name.startswith("_")}


def test_every_library_only_reason_starts_with_the_export_it_guards():
    entries = exported_entries()
    assert {"run_training", "FusionModel.train_step", "read_frame_features"} <= entries
    assert sorted((key, reason) for key, reason in census.LIBRARY_ONLY.items()
                  if reason.split(":", 1)[0] not in entries) == []
