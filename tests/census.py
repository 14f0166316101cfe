"""Statement census: the function-body statements of ``src/emofuse`` that a test
run never executes, and those that no ``emofuse.cli.main`` call reaches.

A pytest plugin, not a test module. Run the tier-1 suite under it from the
repository root:

    PYTHONPATH=src:tests python -m pytest -p census -q

Every line executed in an ``emofuse`` module is recorded with ``sys.settrace``
(and ``threading.settrace``, for the threads a command starts), and so, in a
second set, is every line executed while a ``main`` call is running. When the
run ends, two lists are printed as ``module  function  text``:

- each statement inside a function body (docstrings aside) none of whose own
  lines ran, unless ``ALLOWED`` lists it;
- each statement that ran but never inside a ``main`` call, unless
  ``LIBRARY_ONLY`` lists it: a guard that only a library caller of an exported
  entry can reach.

Any statement in either list, or an entry of either allowlist that names no
such statement, makes the run exit 1. A compound statement's own lines are
its header (``if ...:``, ``try:``, ``for ...:``); it also counts as run when
its first body statement ran. Tests that start a fresh interpreter run
untraced, and module-level and class-level lines are not counted. A partial
run (``-k``, one file) reports what that part leaves unrun.
"""

import ast
import functools
import importlib.util
import os
import sys
import threading
from collections import Counter

# (module, function, statement text) -> why no test runs it. Keyed by text,
# not line number, so an entry survives edits elsewhere in its module; a text
# that recurs in its function carries its ordinal there, "<text>  [2]".
ALLOWED: dict[tuple[str, str, str], str] = {
    ("emofuse.model", "_new_worker", "global _WORKER"): "a declaration, which executes no line",
    ("emofuse.model", "_new_worker",
     '_WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="emofuse-branch")'):
        "runs at import, before tracing starts, and in a forked child, whose lines no trace "
        "records; test_a_child_forked_after_a_fused_forward_runs_one covers the child",
}

# (module, function, statement text) -> "<entry>: <how>", the exported entry
# whose library caller alone reaches the statement and how. Keyed like ALLOWED.
LIBRARY_ONLY: dict[tuple[str, str, str], str] = {
    ("emofuse.audio", "DspConfig.__post_init__",
     'raise DomainError(f"{name} must be an integer, got {value!r}")'):
        "extract_chunk_features: a cfg built with a non-integer size; argparse gives ints",
    ("emofuse.audio", "extract_chunk_features",
     'raise ShapeError(f"boundaries must be [n_chunks, 2], got {bounds.shape}")'):
        "extract_chunk_features: boundaries not of chunk_boundaries' [n, 2] shape",
    ("emofuse.audio", "extract_chunk_features", "i = int(np.argmax(bad))  [1]"):
        "extract_chunk_features: a boundary row outside the signal; chunk_boundaries tiles it",
    ("emofuse.audio", "extract_chunk_features", "i = int(np.argmax(bad))  [2]"):
        "extract_chunk_features: a chunk whose power overflows float64; a WAV's decoded "
        "samples stay within float32 range",
    ("emofuse.audio", "extract_chunk_features", "raise RangeError("):
        "extract_chunk_features: a boundary row outside the signal",
    ("emofuse.audio", "extract_chunk_features",
     'raise DomainError("cannot extract features from an empty signal")'):
        "extract_chunk_features: an empty signal, which chunk_boundaries refuses first",
    ("emofuse.audio", "extract_chunk_features",
     'raise DomainError(f"chunk {i} [{start_s[i]}, {end_s[i]}) has non-finite features")'):
        "extract_chunk_features: samples past ~1e150, whose power overflows; a WAV's "
        "decoded samples stay within float32 range",
    ("emofuse.dataset", "WindowDataset.from_videos", 'raise SchemaError("dataset has no windows")'):
        "WindowDataset: from_videos of an empty list; build-dataset refuses a directory "
        "without annotation files first",
    ("emofuse.dataset", "_features",
     'raise SchemaError(f"video {video_id!r}: {modality} features have shape {x.shape}, not 2-D")'):
        "WindowDataset: from_videos of features that are not [n, dim]; a feature container "
        "holds a matrix",
    ("emofuse.evaluation", "evaluate", "raise AlignmentError("):
        "evaluate: predictions and truth of different shapes",
    ("emofuse.evaluation", "evaluate", 'raise AlignmentError("labels must lie in {0..7}")'):
        "evaluate: a label outside the 8 classes",
    ("emofuse.model", "FusionModel._branch_inputs",
     'raise ShapeError(f"model mode requires {name} input")'):
        "FusionModel.forward: None for an input the model's mode runs",
    ("emofuse.model", "FusionModel._branch_inputs",
     'raise ShapeError(f"audio and video batches differ: {[x.shape[:2] for x in out]}")'):
        "FusionModel.forward: audio and video windows of different [B, T]",
    ("emofuse.sequencing", "remap_label",
     'raise DomainError(f"raw label {raw[bad][0]} outside {{-1..6}}")'):
        "WindowDataset: from_videos of a hand-built AnnotationTrack with a label outside "
        "{-1..6}; parse_annotations refuses one first",
    ("emofuse.nn.layers", "Layer._take_cache",
     'raise StateError(f"{self.name or type(self).__name__}: backward without forward")'):
        "FusionModel.backward_from_logits: without a training forward before it",
    ("emofuse.nn.layers", "softmax_cross_entropy",
     'raise ShapeError("softmax_cross_entropy: mask excludes every position")'):
        "FusionModel.train_step: a mask of zeros; run_training skips such a batch",
}

_SRC = os.path.abspath(importlib.util.find_spec("emofuse").submodule_search_locations[0])
_traced: dict[str, bool] = {}  # co_filename -> whether it is an emofuse module
_hits: set[tuple[str, int]] = set()  # (co_filename, line) of every executed line
_main_hits: set[tuple[str, int]] = set()  # those executed while a main call runs
_depth = 0  # main calls running; a module global, since build-dataset's pool threads run inside one
_result = {}


def _local(frame, event, arg):
    if event == "line":
        where = (frame.f_code.co_filename, frame.f_lineno)
        _hits.add(where)
        if _depth:
            _main_hits.add(where)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    traced = _traced.get(name)
    if traced is None:
        traced = _traced[name] = os.path.abspath(name).startswith(_SRC + os.sep)
    return _local if traced else None


def _counted(main):
    """``main``, counting its calls in ``_depth`` while they run."""
    @functools.wraps(main)
    def counted(*args, **kwargs):
        global _depth
        _depth += 1
        try:
            return main(*args, **kwargs)
        finally:
            _depth -= 1
    return counted


def _body_statements(node, scope="", in_function=False):
    """``(function, statement)`` for each statement inside a function body under
    ``node``, ``function`` its dotted name within the module; docstrings are skipped."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.expr):
            continue
        docstring = (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and child is node.body[0] and ast.get_docstring(node) is not None)
        if in_function and isinstance(child, ast.stmt) and not docstring:
            yield scope, child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
            yield from _body_statements(child, inner, not isinstance(child, ast.ClassDef))
        else:
            yield from _body_statements(child, scope, in_function)


def _ran(stmt, lines) -> bool:
    """Whether ``stmt`` ran, given the executed ``lines`` of its file: any line of
    a simple statement, or a compound statement's header or its first body statement."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    body = getattr(stmt, "body", None)
    if not (isinstance(body, list) and body):
        return not lines.isdisjoint(range(first, stmt.end_lineno + 1))
    return not lines.isdisjoint(range(first, body[0].lineno)) or _ran(body[0], lines)


def statements():
    """``(absolute path, (module, function, text), statement)`` for each
    function-body statement under ``src/emofuse``, in file and line order;
    ``text`` is the statement's first line, the key ``ALLOWED`` uses. When that
    line recurs in the function, each occurrence's text ends in its ordinal
    there, ``"<line>  [n]"``, so no two statements share a key."""
    for directory, _, files in sorted(os.walk(_SRC)):
        for file in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(directory, file)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            module = os.path.relpath(path[: -len(".py")], os.path.dirname(_SRC))
            module = module.replace(os.sep, ".").removesuffix(".__init__")
            found = [(function, ast.get_source_segment(source, stmt).splitlines()[0], stmt)
                     for function, stmt in _body_statements(ast.parse(source))]
            repeats = Counter((function, text) for function, text, _ in found)
            seen = Counter()
            for function, text, stmt in found:
                if repeats[function, text] > 1:
                    seen[function, text] += 1
                    text = f"{text}  [{seen[function, text]}]"
                yield path, (module, function, text), stmt


def census(hits) -> tuple[int, list[tuple[str, str, str]]]:
    """The number of function-body statements under ``src/emofuse`` and, in file
    and line order, ``(module, function, text)`` for each that did not run, given
    ``hits``, the ``(absolute path, line)`` of every executed line."""
    lines: dict[str, set[int]] = {}
    for path, line in hits:
        lines.setdefault(path, set()).add(line)
    total, unrun = 0, []
    for path, key, stmt in statements():
        total += 1
        if not _ran(stmt, lines.get(path, set())):
            unrun.append(key)
    return total, unrun


def _verdict(found, allowlist, reported_elsewhere=()) -> dict:
    """``found``'s count and how many of it ``allowlist`` lists, the statements it
    lists neither there nor in ``reported_elsewhere``, and the stale entries."""
    return {"count": len(found), "listed": len([u for u in found if u in allowlist]),
            "unlisted": [u for u in found if u not in allowlist and u not in reported_elsewhere],
            "stale": sorted(allowlist.keys() - set(found))}


def pytest_configure(config):
    import emofuse.cli

    emofuse.cli.main = _counted(emofuse.cli.main)  # before any test module imports it
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    total, unrun = census({(os.path.abspath(p), line) for p, line in _hits})
    _, unreached = census({(os.path.abspath(p), line) for p, line in _main_hits})
    _result.update(total=total, ran=_verdict(unrun, ALLOWED),
                   main=_verdict(unreached, LIBRARY_ONLY, set(unrun)))
    failed = any(v["unlisted"] or v["stale"] for v in (_result["ran"], _result["main"]))
    if failed and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter):
    write = terminalreporter.write_line
    terminalreporter.section("statement census")
    ran, main = _result["ran"], _result["main"]
    for module, function, text in ran["unlisted"]:
        write(f"never ran: {module}  {function}  {text}")
    for module, function, text in ran["stale"]:
        write(f"allowed but ran or gone: {module}  {function}  {text}")
    for module, function, text in main["unlisted"]:
        write(f"never reached from main: {module}  {function}  {text}")
    for module, function, text in main["stale"]:
        write(f"library-only but reached from main or gone: {module}  {function}  {text}")
    write(f"{ran['count']} of {_result['total']} function-body statements never ran, "
          f"{ran['listed']} of them allowed")
    write(f"{main['count']} of {_result['total']} function-body statements never reached from "
          f"main, {main['listed']} of them library-only")
