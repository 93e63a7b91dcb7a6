"""Seeded mutation fuzzing: the shipped fixtures with characters, lines
and raw bytes flipped, deleted and duplicated.  The parser may only
reject a document with ParseError, and the CLI may only exit 0-3, never
with a traceback.
"""

import random

from roughtop.errors import ParseError
from roughtop.parser import parse_spec

from conftest import FIXDIR, run_cli
from test_cli import MATRIX

FIXTURES = sorted(p.name for p in FIXDIR.glob("*.rg"))
# characters the format gives meaning to, plus a few that it does not
_POOL = "{}:#->(), \n0123abxyz"


def _mutate(rng: random.Random, text: str) -> str:
    """One to three random edits: flip, delete or duplicate a character,
    or delete or duplicate a line."""
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(5)
        if kind < 3 and text:
            i = rng.randrange(len(text))
            if kind == 0:
                text = text[:i] + rng.choice(_POOL) + text[i + 1:]
            elif kind == 1:
                text = text[:i] + text[i + 1:]
            else:
                text = text[:i] + text[i] + text[i:]
        else:
            lines = text.split("\n")
            i = rng.randrange(len(lines))
            if kind == 3:
                del lines[i]
            else:
                lines.insert(i, lines[i])
            text = "\n".join(lines)
    return text


def test_parser_raises_only_parse_error_on_mutated_fixtures():
    rng = random.Random(20261018)
    sources = [(FIXDIR / name).read_text() for name in FIXTURES]
    parsed = rejected = 0
    for i in range(400):
        text = _mutate(rng, sources[i % len(sources)])
        try:
            parse_spec(text)
            parsed += 1
        except ParseError:
            rejected += 1
    assert parsed and rejected


def test_cli_exits_0_to_3_on_mutated_fixtures():
    rng = random.Random(181020)
    codes = set()
    for _ in range(200):
        fixture, tail, _ = rng.choice(MATRIX)
        text = _mutate(rng, (FIXDIR / fixture).read_text())
        code, _, _ = run_cli(tail.split(), stdin=text)
        assert code in (0, 1, 2, 3), (fixture, tail, text)
        codes.add(code)
    assert 3 in codes and 0 in codes


def _mutate_bytes(rng: random.Random, data: bytes) -> bytes:
    """One to three byte edits: overwrite a byte with any value, most
    often one of 0x80-0xff, or delete or duplicate one."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(data))
        kind = rng.randrange(4)
        if kind < 2:
            data[i] = rng.randrange(0x80, 0x100) if kind == 0 else rng.randrange(0x100)
        elif kind == 2:
            del data[i]
        else:
            data.insert(i, data[i])
    return bytes(data)


def test_cli_exits_0_to_3_on_byte_mutated_files(tmp_path):
    rng = random.Random(1810)
    path = tmp_path / "mutated.rg"
    codes = set()
    for _ in range(100):
        fixture, tail, _ = rng.choice(MATRIX)
        path.write_bytes(_mutate_bytes(rng, (FIXDIR / fixture).read_bytes()))
        code, _, _ = run_cli(tail.split() + ["--file", str(path)])
        assert code in (0, 1, 2, 3), (fixture, tail, path.read_bytes())
        codes.add(code)
    assert 3 in codes and 0 in codes
