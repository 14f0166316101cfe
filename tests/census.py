"""Statement census: the function-body statements of ``src/emofuse`` that a test run never executes.

A pytest plugin, not a test module. Run the tier-1 suite under it from the
repository root:

    PYTHONPATH=src:tests python -m pytest -p census -q

Every line executed in an ``emofuse`` module is recorded with ``sys.settrace``
(and ``threading.settrace``, for the threads a command starts). When the run
ends, each statement inside a function body (docstrings aside) none of whose
own lines ran is printed as ``module  function  text``, unless ``ALLOWED``
lists it; any such statement, or an ``ALLOWED`` entry that names no unrun
statement, makes the run exit 1. A compound statement's own lines are its
header (``if ...:``, ``try:``, ``for ...:``); it also counts as run when its
first body statement ran. Tests that start a fresh interpreter run untraced,
and module-level and class-level lines are not counted. A partial run (``-k``,
one file) reports what that part leaves unrun.
"""

import ast
import importlib.util
import os
import sys
import threading

# (module, function, statement text) -> why no test runs it. Keyed by text,
# not line number, so an entry survives edits elsewhere in its module.
ALLOWED: dict[tuple[str, str, str], str] = {}

_SRC = os.path.abspath(importlib.util.find_spec("emofuse").submodule_search_locations[0])
_traced: dict[str, bool] = {}  # co_filename -> whether it is an emofuse module
_hits: set[tuple[str, int]] = set()  # (co_filename, line) of every executed line
_result = {}


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    traced = _traced.get(name)
    if traced is None:
        traced = _traced[name] = os.path.abspath(name).startswith(_SRC + os.sep)
    return _local if traced else None


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


def census(hits) -> tuple[int, list[tuple[str, str, str]]]:
    """The number of function-body statements under ``src/emofuse`` and, in file
    and line order, ``(module, function, text)`` for each that did not run, given
    ``hits``, the ``(absolute path, line)`` of every executed line."""
    total, unrun = 0, []
    for directory, _, files in sorted(os.walk(_SRC)):
        for file in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(directory, file)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            module = os.path.relpath(path[: -len(".py")], os.path.dirname(_SRC))
            module = module.replace(os.sep, ".").removesuffix(".__init__")
            lines = {line for p, line in hits if p == path}
            for function, stmt in _body_statements(ast.parse(source)):
                total += 1
                if not _ran(stmt, lines):
                    text = ast.get_source_segment(source, stmt).splitlines()[0]
                    unrun.append((module, function, text))
    return total, unrun


def pytest_configure(config):
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    total, unrun = census({(os.path.abspath(p), line) for p, line in _hits})
    stale = sorted(ALLOWED.keys() - set(unrun))
    _result.update(total=total, unrun=[u for u in unrun if u not in ALLOWED], stale=stale,
                   allowed=len([u for u in unrun if u in ALLOWED]))
    if (_result["unrun"] or stale) and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter):
    write = terminalreporter.write_line
    terminalreporter.section("statement census")
    for module, function, text in _result["unrun"]:
        write(f"never ran: {module}  {function}  {text}")
    for module, function, text in _result["stale"]:
        write(f"allowed but ran or gone: {module}  {function}  {text}")
    write(f"{len(_result['unrun']) + _result['allowed']} of {_result['total']} function-body "
          f"statements never ran, {_result['allowed']} of them allowed")
