"""Seeded mutation fuzzing: the shipped fixtures with characters, lines
and raw bytes flipped, deleted and duplicated.  The parser may only
reject a document with ParseError, and the CLI may only exit 0-3, never
with a traceback.  Random brace-list tails must be read the same by
the parser's fast reader and by its column-reporting one.
"""

import random
from collections import Counter

from roughtop.approx import Universe
from roughtop.errors import ParseError
from roughtop.parser import _brace_masks, _brace_masks_at, parse_spec

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


_U = Universe(("a", "b", "c", "(a,b)", "d"))
# the whitespace that str.split and the regex \s both know, beyond " "
_SPACES = (" ", " ", "  ", "\t", "\xa0", "\x1c", "\x1d", "\x1e", "\x1f", "")
_STRAY = ("{", "}", "}{", "{a {b} c}", "{{a}}", "a", "x", "->", "{a", "b}")


def _brace_tail(rng: random.Random) -> str:
    """A partition or topology tail: brace groups of known tokens, at
    times with an unknown token, a repeated token or a repeated group,
    and at times stray text or a lone, nested or unbalanced brace."""
    parts = []
    for _ in range(rng.choice((0, 1, 2, 3, 4, 6))):
        roll = rng.random()
        if roll < 0.12 and parts:
            parts.append(rng.choice(parts))
        elif roll < 0.9:
            toks = [rng.choice(_U.elements) for _ in range(rng.randint(0, 4))]
            if rng.random() < 0.08:
                toks.insert(rng.randint(0, len(toks)), rng.choice(("e", "ab", "A")))
            gap = rng.choice(_SPACES) or " "
            parts.append("{" + rng.choice(("", gap)) + gap.join(toks)
                         + rng.choice(("", gap)) + "}")
        else:
            parts.append(rng.choice(_STRAY))
    return "".join(rng.choice(_SPACES) + part for part in parts) + rng.choice(_SPACES)


def _read(reader, tail: str, carrier: int):
    """The masks a reader gives, or the line, column and message it raises."""
    try:
        return reader(_U, "U", tail, 9, 4, carrier)
    except ParseError as e:
        return e.line, e.column, str(e)


def test_fast_brace_reader_matches_the_column_reporting_one():
    rng = random.Random(24)
    seen = Counter()
    for _ in range(4000):
        tail = _brace_tail(rng)
        # a partition reads against the whole universe, a topology
        # against its carrier
        carrier = _U.all_mask if rng.random() < 0.4 else rng.randrange(1 << _U.size)
        want = _read(_brace_masks_at, tail, carrier)
        assert _read(_brace_masks, tail, carrier) == want, (tail, carrier)
        seen[want[2].split(" ")[0] if isinstance(want, tuple) else
             "empty" if not want else
             "duplicate" if len(set(want)) < len(want) else "masks"] += 1
    # every outcome, each error kind by the first word of its message
    assert set(seen) == {"masks", "empty", "duplicate", "unbalanced",
                         "unexpected", "unknown", "family"}, seen
    assert min(seen.values()) >= 40, seen
