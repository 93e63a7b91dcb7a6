"""`scripts/gen_fixtures.py` reproduces the shipped `fixtures/` byte for byte."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXDIR = ROOT / "fixtures"


def test_gen_fixtures_reproduces_fixtures(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "gen_fixtures", ROOT / "scripts" / "gen_fixtures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "FIXDIR", tmp_path)
    script.main()
    assert capsys.readouterr().out.startswith("wrote ")

    def documents(root):
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*.rg"))}

    shipped = documents(FIXDIR)
    assert "bad/unknown_kind.rg" in shipped
    assert documents(tmp_path) == shipped
