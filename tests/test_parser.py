"""The structure-description text format: parsing, errors, serialization."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from roughtop.approx import product_universe
from roughtop.errors import ParseError
from roughtop.parser import parse_spec

from conftest import FIXDIR, serialize_workspace

FIXTURES = [
    "zmod3.rg",
    "s4.rg",
    "zmod3_product.rg",
    "hom_z3_to_s4.rg",
    "zmod4_discrete.rg",
    "zmod3_selfaction.rg",
]

EXPECTED_SYMBOLS = {
    "zmod3.rg": (1, 1, 1, 3, 2, 1),
    "s4.rg": (1, 1, 1, 6, 1, 0),
    "zmod3_product.rg": (1, 1, 1, 2, 1, 0),
    "hom_z3_to_s4.rg": (2, 2, 2, 9, 3, 4),
    "zmod4_discrete.rg": (1, 1, 1, 5, 1, 0),
    "zmod3_selfaction.rg": (2, 1, 1, 3, 3, 3),
}

BAD_CASES = [
    ("bad_map_pair.rg", 2, 27, "expected 'src->dst', got '1'"),
    ("duplicate_name.rg", 2, 10, "duplicate universe name 'UA'"),
    ("duplicate_universe_element.rg", 1, 1,
     "duplicate element name '0' in universe"),
    ("element_inside_keyword.rg", 2, 16, "unknown element 't' in universe U"),
    ("empty_braces_partition.rg", 2, 1, "partition block may not be empty"),
    ("map_outside_domain.rg", 3, 30, "map assigns 'c', which lies outside its domain S"),
    ("missing_colon.rg", 1, 18, "missing ':' after the declaration header"),
    ("missing_table_rows.rg", 2, 1, "table 'TA' needs 3 rows, found 1"),
    ("noncovering_partition.rg", 2, 1,
     "partition does not cover the universe; missing {2}"),
    ("outside_braces.rg", 2, 27, "unexpected text '1' outside braces"),
    ("short_table_row.rg", 4, 1, "table row has 2 entries, expected 3"),
    ("topology_outside_carrier.rg", 3, 28,
     "family member {a,c} is not a subset of the carrier {a,b}: 'c' lies outside it"),
    ("topology_no_carrier.rg", 2, 1,
     "family is not a topology: the carrier {0,1,2} is missing"),
    ("unbalanced_brace.rg", 2, 21, "unbalanced braces"),
    ("unknown_element.rg", 2, 17, "unknown element '5' in universe UA"),
    ("unknown_element_subset_map.rg", 3, 25, "unknown element 'q' in universe U"),
    ("unknown_element_subset_topology.rg", 3, 22,
     "unknown element 'z' in universe U"),
    ("unknown_kind.rg", 1, 1, "unknown declaration kind 'universes'"),
    ("unknown_universe.rg", 1, 13, "unknown universe 'UX'"),
]


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_symbol_counts(name):
    ws = parse_spec((FIXDIR / name).read_text())
    got = (len(ws.universes), len(ws.tables), len(ws.partitions),
           len(ws.subsets), len(ws.topologies), len(ws.maps))
    assert got == EXPECTED_SYMBOLS[name]


@pytest.mark.parametrize("name", FIXTURES)
def test_round_trip(name):
    """parse -> serialize -> parse is the identity, and serialization of a
    parsed workspace is byte-stable."""
    ws = parse_spec((FIXDIR / name).read_text())
    text = serialize_workspace(ws)
    ws2 = parse_spec(text)
    assert ws2 == ws
    assert serialize_workspace(ws2) == text
    assert text.isascii()


@pytest.mark.parametrize("name,line,column,message", BAD_CASES)
def test_malformed_documents(name, line, column, message):
    source = (FIXDIR / "bad" / name).read_text()
    with pytest.raises(ParseError) as exc:
        parse_spec(source)
    assert exc.value.line == line
    assert exc.value.column == column
    assert str(exc.value) == message


def test_small_document_contents():
    ws = parse_spec(
        "# a comment line\n"
        "universe U: a b c   # trailing comment\n"
        "\n"
        "partition P on U: {a b} {c}\n"
        "subset S of U:\n"
        "topology t on U: {} {a} {a b c}\n"
        "map f from U to U: a->b b->a c->c\n")
    u = ws.universes["U"]
    assert u.elements == ("a", "b", "c")
    assert ws.subsets["S"] == ("U", 0)
    _, part = ws.partitions["P"]
    assert sorted(part.blocks) == [0b011, 0b100]
    _, top = ws.topologies["t"]
    assert top.carrier == 0b111
    assert top.opens == (0, 0b001, 0b111)
    _, _, fmap = ws.maps["f"]
    assert fmap.apply(u.index("a")) == u.index("b")


def test_pair_and_cycle_tokens():
    """Element names with parentheses and commas survive the tokenizer."""
    ws = parse_spec(
        "universe U: (0,1) (12)(34) x ((0,1),2)\n"
        "subset S of U: (0,1) (12)(34)\n")
    u = ws.universes["U"]
    assert u.elements == ("(0,1)", "(12)(34)", "x", "((0,1),2)")
    assert ws.subsets["S"][1] == 0b011


def test_s4_element_order(ws_s4):
    """Identity first, then transpositions, 3-cycles, 4-cycles, double
    transpositions, each class in name order."""
    u = ws_s4.universes["UB"]
    assert u.elements[0] == "1"
    assert u.elements[1:7] == ("(12)", "(13)", "(14)", "(23)", "(24)", "(34)")
    assert u.elements[7:15] == (
        "(123)", "(124)", "(132)", "(134)", "(142)", "(143)", "(234)", "(243)")
    assert u.elements[15:21] == (
        "(1234)", "(1243)", "(1324)", "(1342)", "(1423)", "(1432)")
    assert u.elements[21:] == ("(12)(34)", "(13)(24)", "(14)(23)")


def test_fixture_partition_classes(ws_s4):
    """The conjugacy-class partition: sizes 7, 8, 6, 3 with the identity
    grouped alongside the transpositions."""
    u = ws_s4.universes["UB"]
    _, part = ws_s4.partitions["PB"]
    sizes = sorted(b.bit_count() for b in part.blocks)
    assert sizes == [3, 6, 7, 8]
    b_of = {u.elements[i]: b for b in part.blocks for i in range(24) if b >> i & 1}
    assert b_of["1"] == b_of["(12)"]
    assert b_of["(123)"] != b_of["(12)"]
    assert b_of["(1234)"] != b_of["(12)(34)"]


def test_readme_example_document_parses():
    readme = (FIXDIR.parent / "README.md").read_text()
    section = readme.split("## Input documents", 1)[1]
    block = section.split("```text\n", 1)[1].split("```", 1)[0]
    ws = parse_spec(block)
    assert (len(ws.universes), len(ws.tables), len(ws.partitions), len(ws.subsets),
            len(ws.topologies), len(ws.maps)) == (1, 1, 1, 2, 1, 1)


def test_docstring_lists_every_header_of_the_grammar():
    import roughtop.parser as parser

    documented = [line.split(":")[0].strip()
                  for line in parser.__doc__.splitlines() if "<name>" in line]
    assert documented == [header for header, _, _ in parser._DECLARATIONS]


@pytest.mark.parametrize("doc", ["universe U: {} a\n",
                                 "universe U: {} a\npartition P on U: {{}} {a}\n"])
def test_element_names_hold_no_brace(doc):
    """A brace in an element name would read like the set syntax: the
    one-element set of '{}' prints as {{}}, and no partition or
    topology line could write that element.  The universe line fails
    at the name's column, not the first line that uses the name."""
    with pytest.raises(ParseError) as err:
        parse_spec(doc)
    assert (err.value.line, err.value.column) == (1, 13)
    assert str(err.value) == "element name '{}' has a brace"


UNIVERSE_LINES = st.lists(st.text("ab(),{}", min_size=1, max_size=5),
                          min_size=1, max_size=5).map(" ".join)


@given(UNIVERSE_LINES)
@example("(a,(b c (a (b,c")
@example("( a (,a")
def test_accepted_element_names_give_unambiguous_witnesses(line):
    """Every universe the parser accepts prints distinct subsets
    differently, and its pair universe has distinct names, so a witness
    names one set and `check action` can build the product."""
    try:
        ws = parse_spec(f"universe U: {line}")
    except ParseError:
        return
    u = ws.universes["U"]
    assert len({u.set_str(mask) for mask in range(u.all_mask + 1)}) == u.all_mask + 1
    product_universe(u, u)
