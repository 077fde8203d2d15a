"""Print every statement of the package that no default run executes, one
``<file>:<line> <statement>`` line each:

    python tools/linetrace.py

Under ``sys.settrace`` and ``threading.settrace`` (a band worker thread can
run statements its caller never runs) it runs, into a temporary directory,
every CLI command at its defaults (``train`` on scenes generated in memory,
``gen-data``, then ``train`` and ``eval`` on the generated set, ``ablate``,
``bench``, ``equiv-check`` and ``grad-check``) and each of the three benchmark
workloads of ``perfbench/workloads.py`` (``setup``, ``prepare_checks``, ``op``,
``check``, ``memory`` and ``tracked_peak``, seed 0). A statement counts as
executed when a line event fires on it, or on its header for a compound
statement; docstrings and ``global`` declarations are not statements here.
The package is imported from the ``src`` directory next to this script, after
the trace starts, so its import-time statements count too. Nothing is written
under ``perfbench/``. It takes about two minutes on one core.
"""
from __future__ import annotations

import ast
import contextlib
import importlib
import io
import os
import pkgutil
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "ocrseg")
PERFBENCH = os.path.join(ROOT, "perfbench")


class LineTrace:
    """The (file, line) pairs that fire a line event in the package's code."""

    def __init__(self) -> None:
        self.hits: set[tuple[str, int]] = set()

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE + os.sep):
            return self._local
        return None

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def __enter__(self) -> "LineTrace":
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)
        threading.settrace(None)


def cli_runs(tmp: str) -> None:
    from ocrseg import cli

    paths = ["--set", f"data_dir={os.path.join(tmp, 'data')}",
             "--set", f"out_dir={os.path.join(tmp, 'out')}"]
    for command in ("train", "gen-data", "train", "eval", "ablate", "bench",
                    "equiv-check", "grad-check"):
        sys.argv = ["ocrseg", command, *paths]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main()
        except SystemExit as exc:
            if exc.code:
                raise SystemExit(f"linetrace: ocrseg {command} exited {exc.code}")


def workload_runs(tmp: str) -> None:
    import ocrseg

    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    for name, workload in workloads.WORKLOADS.items():
        w = workload(ocrseg, 0, tmp)
        with contextlib.redirect_stdout(io.StringIO()):
            w.setup()
            failures = w.prepare_checks()
            failures.append(w.check(w.op()))
            w.memory()
            w.tracked_peak()
        if any(failures):
            raise SystemExit(f"linetrace: workload {name} failed: {failures}")


def _docstring(body: list[ast.stmt]) -> ast.stmt | None:
    first = body[0] if body else None
    if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)):
        return first
    return None


def statements(path: str):
    """(line, first line, last line, text) of each statement in ``path``: a
    compound statement spans its decorators and header only."""
    with open(path) as f:
        source = f.read()
    tree = ast.parse(source)
    docstrings = {id(_docstring(node.body)) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))}
    lines = source.splitlines()
    for node in ast.walk(tree):
        # a global declaration compiles to no instruction, so it never runs
        if (not isinstance(node, ast.stmt) or id(node) in docstrings
                or isinstance(node, (ast.Global, ast.Nonlocal))):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        yield node.lineno, first, last, lines[node.lineno - 1].strip()


def main() -> None:
    sys.dont_write_bytecode = True  # keeps perfbench/ as it is
    sys.path.insert(0, SRC)
    with tempfile.TemporaryDirectory() as tmp, LineTrace() as trace:
        importlib.import_module("ocrseg.cli")  # pins BLAS threads before numpy loads
        import ocrseg
        for module in pkgutil.iter_modules(ocrseg.__path__):
            importlib.import_module(f"ocrseg.{module.name}")
        cli_runs(tmp)
        workload_runs(tmp)
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        missed = sorted((line, text) for line, first, last, text in statements(path)
                        if not any((path, n) in trace.hits
                                   for n in range(first, last + 1)))
        for line, text in missed:
            print(f"{os.path.relpath(path, ROOT)}:{line} {text}")


if __name__ == "__main__":
    main()
