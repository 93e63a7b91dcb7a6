#!/usr/bin/env python3
"""List the statements of the package that the tests never run.

Runs pytest in this process under `sys.settrace`, tracing only code in
`src/roughtop/`, then prints one line for each function that holds a
statement that never ran: the file, the function's qualified name and
the first line of each such statement.  A statement counts as run when
any line of it ran; a compound statement (if, for, while, with) counts
as run when its header or its first nested statement ran, and its
nested statements are listed on their own.  Module-level code and class
bodies are not listed, and neither is a `try` header, which runs no
code of its own.  Only this process is traced: a test that runs a
command in a subprocess adds nothing.  No third-party package is
needed besides pytest.  Tracing makes the tier-1 suite about six
times slower.

Usage:
    python3 scripts/unexecuted_lines.py [pytest arguments...]

With no arguments it runs the tier-1 suite, `-q -p no:cacheprovider
tests`, from the repository root.  The last line counts the statements
listed and the functions that hold them; the exit code is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "roughtop"

# the parts of a compound statement that run as its header
HEADERS = {ast.If: ("test",), ast.While: ("test",), ast.For: ("target", "iter"),
           ast.AsyncFor: ("target", "iter"), ast.With: ("items",),
           ast.AsyncWith: ("items",), ast.Match: ("subject",)}
SKIPPED = (ast.Try, ast.Global, ast.Nonlocal)
if hasattr(ast, "TryStar"):
    SKIPPED += (ast.TryStar,)


def _end(node) -> int:
    if isinstance(node, ast.withitem):
        return max(_end(n) for n in (node.context_expr, node.optional_vars) if n)
    return node.end_lineno


def _span(stmt) -> set:
    """The lines of a statement that belong to it and not to a statement
    nested in it.  A compound statement also counts as run when its
    first nested statement ran, as `while True:` runs no code of its own."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return set(range(min([d.lineno for d in stmt.decorator_list] + [stmt.lineno]),
                         stmt.lineno + 1))
    fields = HEADERS.get(type(stmt))
    if fields is None:
        return set(range(stmt.lineno, stmt.end_lineno + 1))
    parts = [p for f in fields
             for p in (getattr(stmt, f) if f == "items" else [getattr(stmt, f)])]
    first = stmt.cases[0].body[0] if isinstance(stmt, ast.Match) else stmt.body[0]
    return set(range(stmt.lineno, max(map(_end, parts)) + 1)) | {first.lineno}


def _statements(body, docstring: bool):
    """The statements of a function body, nested blocks included and
    nested functions' and classes' bodies left out, docstring skipped."""
    for i, stmt in enumerate(body):
        if (docstring and i == 0 and isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)):
            continue
        if not isinstance(stmt, SKIPPED):
            yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(stmt, field, ()), False)
        for handler in getattr(stmt, "handlers", ()):
            yield from _statements(handler.body, False)
        for case in getattr(stmt, "cases", ()):
            yield from _statements(case.body, False)


def functions(path: Path):
    """(qualified name, [(first line, span)]) for every function in the
    file, nested ones included."""
    found = []

    def visit(node, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                found.append((name, [(s.lineno, _span(s))
                                     for s in _statements(child.body, True)]))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def run_traced(args) -> tuple[int, dict]:
    """pytest's exit code and, per file of the package, the lines run."""
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set())
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    args = args or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]
    code, hits = run_traced(args)
    statements = funcs = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        for name, stmts in functions(path):
            missed = [first for first, span in stmts if not ran.intersection(span)]
            if missed:
                print(f"{path.relative_to(ROOT)}:{name}: {', '.join(map(str, missed))}")
                statements += len(missed)
                funcs += 1
    print(f"{statements} unexecuted statements in {funcs} functions")
    return code


if __name__ == "__main__":
    sys.exit(main())
