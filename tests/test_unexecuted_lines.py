"""`scripts/unexecuted_lines.py` finds each function's statements and
lists those whose lines never ran."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SNIPPET = '''\
def f(x):
    """Doc."""
    if (x
            > 1):
        return 1
    while True:
        break
    for y in range(x):
        pass
    try:
        z = 1
    except ValueError:
        raise
    return 0


class C:
    def m(self):
        def inner():
            return 2
        return inner()
'''


def _script():
    spec = importlib.util.spec_from_file_location(
        "unexecuted_lines", ROOT / "scripts" / "unexecuted_lines.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_functions_list_each_statement_with_the_lines_it_owns(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    assert _script().functions(path) == [
        ("f", [(3, {3, 4, 5}), (5, {5}), (6, {6, 7}), (7, {7}), (8, {8, 9}),
               (9, {9}), (11, {11}), (13, {13}), (14, {14})]),
        ("C.m", [(19, {19}), (21, {21})]),
        ("C.m.inner", [(20, {20})]),
    ]


def test_main_prints_the_statements_no_line_of_which_ran(tmp_path, monkeypatch, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "snippet.py").write_text(SNIPPET)
    script = _script()
    monkeypatch.setattr(script, "ROOT", tmp_path)
    monkeypatch.setattr(script, "PACKAGE", package)
    ran = {str(package / "snippet.py"): {4, 7, 8, 11, 14, 19, 21}}
    monkeypatch.setattr(script, "run_traced", lambda args: (5, ran))
    assert script.main([]) == 5
    assert capsys.readouterr().out == (
        "pkg/snippet.py:f: 5, 9, 13\n"
        "pkg/snippet.py:C.m.inner: 20\n"
        "4 unexecuted statements in 2 functions\n")
