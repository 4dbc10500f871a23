"""Opt-in pytest plugin: list the statements of the package that a test
session left unexecuted.

Run it from the repository root, over any selection of tests:

    PYTHONPATH=src python -m pytest -q -p tests.linetrace

The plugin line-traces every frame whose code lives under
``src/cellgamma`` (``sys.settrace`` and ``threading.settrace``) and, at
the end of the session, prints each statement none of whose lines ran,
as ``path:line: source``.  A compound statement (``if``, ``for``,
``try``, ``def`` ...) counts as executed when its header line ran or any
statement inside it did; docstrings are not statements.  Subprocesses
are not traced.  The module name has no ``test_`` prefix, so a plain
pytest run does not collect it.
"""

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

_PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))),
                    "src", "cellgamma")
_hits = defaultdict(set)  # real path -> executed line numbers
_tracers = {}  # co_filename -> local trace function, or None


def _tracer_for(filename):
    path = os.path.realpath(filename)
    if not path.startswith(_PKG + os.sep):
        return None
    lines = _hits[path]

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local
    return local


def _trace(frame, event, arg):
    name = frame.f_code.co_filename
    try:
        return _tracers[name]
    except KeyError:
        tracer = _tracers[name] = _tracer_for(name)
        return tracer


def _docstrings(tree):
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {id(node.body[0]) for node in ast.walk(tree)
            if isinstance(node, kinds) and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def _unexecuted(source, hit):
    """(line, is_raise) of every statement of the source none of whose
    own lines, nor any statement inside it, ran."""
    tree = ast.parse(source)
    skip = _docstrings(tree)
    missed = []

    def visit(node):
        """Whether the statement ran; records the ones that did not."""
        children = [c for field in ("body", "orelse", "finalbody", "handlers")
                    for c in getattr(node, field, ())]
        inner = [s for c in children
                 for s in (c.body if isinstance(c, ast.excepthandler) else [c])]
        ran_inside = [visit(s) for s in inner if id(s) not in skip]
        first = min([d.lineno for d in getattr(node, "decorator_list", ())]
                    + [node.lineno])
        last = min(c.lineno for c in children) - 1 if children else node.end_lineno
        ran = any(ran_inside) or any(i in hit for i in range(first, last + 1))
        if not ran:
            missed.append((node.lineno, isinstance(node, ast.Raise)))
        return ran

    for stmt in tree.body:
        if id(stmt) not in skip:
            visit(stmt)
    return sorted(missed)


def pytest_configure(config):
    threading.settrace(_trace)
    sys.settrace(_trace)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    rows = []
    for name in sorted(os.listdir(_PKG)):
        if name.endswith(".py"):
            path = os.path.join(_PKG, name)
            source = Path(path).read_text(encoding="utf-8")
            lines = source.splitlines()
            rows += [(f"{os.path.relpath(path)}:{line}: "
                      f"{lines[line - 1].strip()}", is_raise)
                     for line, is_raise in _unexecuted(source, _hits[path])]
    raises = sum(is_raise for _, is_raise in rows)
    terminalreporter.write_sep(
        "-", f"linetrace: {len(rows)} unexecuted statements under "
             f"src/cellgamma, {raises} of them raise")
    for row, _ in rows:
        terminalreporter.write_line(row)
