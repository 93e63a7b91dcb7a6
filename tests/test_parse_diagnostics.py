"""Every parser diagnostic pinned to its exact `line:column: message`.

The header checks run in one order for every declaration kind: the word
count, each keyword, a duplicate name, then each reference at its
word's column; the body comes last.  The cases below cover each check
of each kind.  The golden file adds a seeded sample of mutated fixtures,
one line per document.  Regenerate it after a deliberate change with
  PYTHONPATH=src python tests/test_parse_diagnostics.py --record
"""

import hashlib
import random
import sys
from pathlib import Path

import pytest

from roughtop.errors import ParseError
from roughtop.parser import parse_spec

from conftest import FIXDIR, serialize_workspace
from test_fuzz import _mutate

GOLDEN = Path(__file__).resolve().parent / "golden" / "parse_diagnostics.txt"

# one declaration of each kind, on lines 1-10; each case adds line 11
PRELUDE = (
    "universe U: a b c\n"
    "universe V: x y\n"
    "table T on U:\n"
    "  a b c\n"
    "  b c a\n"
    "  c a b\n"
    "partition P on U: {a} {b c}\n"
    "subset S of U: a b\n"
    "topology t on S: {} {a} {a b}\n"
    "map f from S to V: a->x b->y\n"
)

# a row of a 24-point table, and the 144 pair names of a 12 x 12 universe
_W24 = " ".join(f"w{i}" for i in range(24))
_PAIRS = " ".join(f"({i},{j})" for i in range(12) for j in range(12))

CASES = [
    # universe <name>
    ("universe:", "11:1: expected 'universe <name>:'"),
    ("universe W X: a", "11:1: expected 'universe <name>:'"),
    ("universe U: a", "11:10: duplicate universe name 'U'"),
    ("universe  U: q", "11:11: duplicate universe name 'U'"),
    ("universe W: a b a", "11:1: duplicate element name 'a' in universe"),
    ("universe W: a a,b", "11:15: element name 'a,b' has a comma outside parentheses"),
    ("universe W: (a,b) (a,b),c",
     "11:19: element name '(a,b),c' has a comma outside parentheses"),
    ("universe W: a),(b", "11:13: element name 'a),(b' has a comma outside parentheses"),
    ("universe W: a {b}", "11:15: element name '{b}' has a brace"),
    ("universe W: (a,b) (a{)", "11:19: element name '(a{)' has a brace"),
    ("universe W: (a", "11:13: element name '(a' has unbalanced parentheses"),
    ("universe W: a a)", "11:15: element name 'a)' has unbalanced parentheses"),
    ("universe W: (a,b) )a(", "11:19: element name ')a(' has unbalanced parentheses"),
    ("universe W: (x,y) (a, b)", "11:19: element name '(a,' has unbalanced parentheses"),
    ("universe W: " + _PAIRS[:-1],
     "11:917: element name '(11,11' has unbalanced parentheses"),
    ("universe W: " + _PAIRS[:-8] + " 11,11",
     "11:917: element name '11,11' has a comma outside parentheses"),
    # table <name> on <universe>
    ("table T2 on U U:", "11:1: expected 'table <name> on <universe>:'"),
    ("table T2 on:", "11:1: expected 'table <name> on <universe>:'"),
    ("table T2 in U:", "11:10: expected 'on', got 'in'"),
    ("table T in W:", "11:9: expected 'on', got 'in'"),
    ("table T on U:", "11:7: duplicate table name 'T'"),
    ("table T on W:", "11:7: duplicate table name 'T'"),
    ("table T2 on W:", "11:13: unknown universe 'W'"),
    ("table T2 on S:", "11:13: unknown universe 'S'"),
    ("table T2 on V: x y", "11:16: table rows belong on the following lines"),
    ("table T2 on V:\nx y", "11:1: table 'T2' needs 2 rows, found 1"),
    ("table T2 on V:\nx y\nx", "13:1: table row has 1 entries, expected 2"),
    ("table T2 on V:\nx y\ny q", "13:3: unknown element 'q' in universe V"),
    ("universe W: " + _W24 + "\ntable T2 on W:\n" + (_W24 + "\n") * 23
     + _W24[:-3] + "w24", "36:83: unknown element 'w24' in universe W"),
    # partition <name> on <universe>
    ("partition P2 on U U: {a b c}",
     "11:1: expected 'partition <name> on <universe>:'"),
    ("partition P2 of U: {a b c}", "11:14: expected 'on', got 'of'"),
    ("partition P on U: {a b c}", "11:11: duplicate partition name 'P'"),
    ("partition P2 on W: {a b c}", "11:17: unknown universe 'W'"),
    ("partition P2 on U: {a b} c", "11:26: unexpected text 'c' outside braces"),
    ("partition P2 on U: {a b} {c", "11:26: unbalanced braces"),
    ("partition P2 on U: {a q} {b c}", "11:23: unknown element 'q' in universe U"),
    ("partition P2 on U: {a b} {b c}", "11:1: partition blocks overlap"),
    # subset <name> of <universe>
    ("subset S2 of:", "11:1: expected 'subset <name> of <universe>:'"),
    ("subset S2 on U: a", "11:11: expected 'of', got 'on'"),
    ("subset S of U: a", "11:8: duplicate subset name 'S'"),
    ("subset S2 of W: a", "11:14: unknown universe 'W'"),
    ("subset S2 of S: a", "11:14: unknown universe 'S'"),
    ("subset S2 of U: a  q", "11:20: unknown element 'q' in universe U"),
    # topology <name> on <carrier>
    ("topology t2 on:", "11:1: expected 'topology <name> on <carrier>:'"),
    ("topology t2 of S: {} {a b}", "11:13: expected 'on', got 'of'"),
    ("topology t on S: {} {a b}", "11:10: duplicate topology name 't'"),
    ("topology t2 on W: {} {a b}", "11:16: unknown subset or universe 'W'"),
    ("topology t2 on T: {} {a b}", "11:16: unknown subset or universe 'T'"),
    ("topology t2 on S: {} {a c}",
     "11:25: family member {a,c} is not a subset of the carrier {a,b}: 'c' lies outside it"),
    ("topology t2 on S: {} {a q}", "11:25: unknown element 'q' in universe U"),
    ("topology t2 on S: {} {a}",
     "11:1: family is not a topology: the carrier {a,b} is missing"),
    # map <name> from <set> to <set>
    ("map g from S to:", "11:1: expected 'map <name> from <set> to <set>:'"),
    ("map g from S to V V:", "11:1: expected 'map <name> from <set> to <set>:'"),
    ("map g of S to V: a->x", "11:7: expected 'from', got 'of'"),
    ("map g from S into V: a->x", "11:14: expected 'to', got 'into'"),
    ("map f of S into V: a->x", "11:7: expected 'from', got 'of'"),
    ("map f from S into V: a->x", "11:14: expected 'to', got 'into'"),
    ("map f from S to V: a->x", "11:5: duplicate map name 'f'"),
    ("map f from W to W: a->x", "11:5: duplicate map name 'f'"),
    ("map g from W to V: a->x", "11:12: unknown subset or universe 'W'"),
    ("map g from W to W: a->x", "11:12: unknown subset or universe 'W'"),
    ("map g from S to W: a->x", "11:17: unknown subset or universe 'W'"),
    ("map  g  from  S  to  W: a->x", "11:22: unknown subset or universe 'W'"),
    ("map g from S to V: a->x b", "11:25: expected 'src->dst', got 'b'"),
    ("map g from S to V: a->x ->y", "11:25: expected 'src->dst', got '->y'"),
    ("map g from S to V: a->x q->y", "11:25: unknown element 'q' in universe U"),
    ("map g from S to V: a->x c->y",
     "11:25: map assigns 'c', which lies outside its domain S"),
    ("map g from S to V: a->x a->y", "11:25: map assigns 'a' twice"),
    ("map g from S to V: a->x b->q", "11:28: unknown element 'q' in universe V"),
    ("map g from U to S: a->a b->c",
     "11:28: map sends 'b' to 'c', which lies outside its codomain S"),
    ("map g from S to V: a->x", "11:1: map is not total: missing {b}"),
    # the header itself
    ("universe U a b c", "11:17: missing ':' after the declaration header"),
    (": a b", "11:1: empty declaration header"),
    ("  subsets S2 of U: a", "11:3: unknown declaration kind 'subsets'"),
]


@pytest.mark.parametrize("declaration,diagnostic", CASES, ids=[
    c[0] if len(c[0]) <= 60 else f"{c[0][:24]}...{c[0][-16:]}" for c in CASES])
def test_diagnostic(declaration, diagnostic):
    with pytest.raises(ParseError) as exc:
        parse_spec(PRELUDE + declaration + "\n")
    assert f"{exc.value.line}:{exc.value.column}: {exc.value}" == diagnostic


@pytest.mark.parametrize("declaration,diagnostic", [
    ("topology t on S: {} {a} a}", "2:26: unbalanced braces"),
    ("partition p on S: {a} {b} }", "2:27: unbalanced braces"),
])
def test_unbalanced_braces_name_the_brace_left_over(declaration, diagnostic):
    """The stray `}`, not the first `{` of the line, which is balanced."""
    with pytest.raises(ParseError) as exc:
        parse_spec("universe S: a b\n" + declaration + "\n")
    assert f"{exc.value.line}:{exc.value.column}: {exc.value}" == diagnostic


def test_prelude_parses():
    ws = parse_spec(PRELUDE)
    assert [len(ns) for ns in (ws.universes, ws.tables, ws.partitions, ws.subsets,
                               ws.topologies, ws.maps)] == [2, 1, 1, 1, 1, 1]


def _diagnostic_lines():
    """One line per mutated document: the diagnostic, or OK and a digest
    of the serialized workspace."""
    sources = [p.read_text() for p in sorted(FIXDIR.glob("*.rg"))]
    sources += [p.read_text() for p in sorted((FIXDIR / "bad").glob("*.rg"))]
    rng = random.Random(20261019)
    out = []
    for i in range(1000):
        text = _mutate(rng, sources[i % len(sources)])
        try:
            ws = parse_spec(text)
        except ParseError as e:
            out.append(f"{e.line}:{e.column}: {e}")
        else:
            digest = hashlib.sha256(serialize_workspace(ws).encode()).hexdigest()
            out.append(f"OK {digest[:16]}")
    return out


def test_mutated_documents_match_the_golden():
    assert _diagnostic_lines() == GOLDEN.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN.write_text("\n".join(_diagnostic_lines()) + "\n", encoding="utf-8")
